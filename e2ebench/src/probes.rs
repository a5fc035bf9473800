//! Layer probes of the traced run: each layer's own entry point driven
//! directly, so a per-layer number can be told apart from the layers
//! above it.
//!
//! * serve — the `direct_open` event schedule replayed straight into
//!   `FleetEngine::try_submit_cohort`, with no sockets: separates the
//!   net cost from the serve + core cost in `cpu_us_per_seg`.
//! * core — `CausalTad::push_batch` with the step cache at a narrow wave
//!   (`direct_open`'s median width) and a wide one (`routed_churn`'s p99).
//! * autodiff — the matmul kernel at the training GEMM shape and at the
//!   wide-wave shape.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use causaltad::{CausalTad, ScorerState};
use tad_autodiff::Tensor;
use tad_serve::{Event, FleetConfig, FleetEngine};

use crate::direct_open::{Cursor, Plan};
use crate::setup::{self, Reference};
use crate::trace::Tracer;
use crate::Report;

/// Events replayed into the engine.
const REPLAY_EVENTS: usize = 200_000;
/// Events per replayed cohort: the mean event-loop cohort `direct_open`
/// measures (`net.cohort_width.mean`, about 21).
const REPLAY_COHORT: usize = 21;
/// Wave widths of the `push_batch` probe.
const NARROW: usize = 2;
const WIDE: usize = 4_096;
/// Each timed loop runs at least this long.
const MIN_TIME: Duration = Duration::from_millis(300);

pub fn run(seed: u64, report: &mut Report, tracer: &mut Tracer) {
    let s = setup::serving(seed);
    replay(seed, &s.model, &s.reference, report, tracer);
    for (name, width) in [("narrow", NARROW), ("wide", WIDE)] {
        let ns = tracer.span("CausalTad::push_batch", "core", None, 0, || {
            push_batch_ns_per_seg(&s.model, &s.reference, width)
        });
        report.put(&format!("core.push_batch_ns_per_seg.{name}"), ns, "ns");
    }
    let hidden = s.model.config().hidden_dim;
    let micro_batch = s.model.config().micro_batch;
    for (name, rows) in [("train", micro_batch), ("wave", WIDE)] {
        let g = tracer
            .span("Tensor::matmul", "autodiff", None, 0, || matmul_gmacs(rows, hidden, 3 * hidden));
        report.put(&format!("autodiff.matmul_gmacs.{name}"), g, "GMAC/s");
    }
}

/// The frames the `direct_open` generator would send, as engine events.
fn schedule_events(plan: &Plan, reference: &Reference) -> Vec<Event> {
    let mut events = Vec::with_capacity(plan.events * 2);
    let mut cursor = Cursor::new();
    for _ in 0..plan.events {
        let (_, id, seq) = cursor.next(&plan.trips);
        let t = plan.trips[id as usize];
        let walk = usize::from(t.walk);
        if seq == 0 {
            let (source, dest) = reference.source_dest(walk);
            events.push(Event::TripStart { id, source, dest, time_slot: setup::slot_of(walk) });
        }
        events.push(Event::Segment { id, seg: reference.segment(walk, seq) });
        if seq + 1 == u32::from(t.len) {
            events.push(Event::TripEnd { id });
        }
    }
    events
}

fn replay(
    seed: u64,
    model: &Arc<CausalTad>,
    reference: &Arc<Reference>,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let plan = Arc::new(Plan::new(seed, REPLAY_EVENTS));
    let events = schedule_events(&plan, reference);
    let mismatches = Arc::new(AtomicU64::new(0));
    let scored = Arc::new(AtomicU64::new(0));
    let engine = {
        let (plan, reference) = (Arc::clone(&plan), Arc::clone(reference));
        let (mismatches, scored) = (Arc::clone(&mismatches), Arc::clone(&scored));
        FleetEngine::builder(Arc::clone(model))
            .config(FleetConfig {
                num_shards: 2,
                queue_capacity: 65_536,
                session_ttl: Duration::from_secs(3_600),
                max_sessions_per_shard: 1 << 20,
                ..FleetConfig::default()
            })
            .on_score(move |u| {
                scored.fetch_add(1, Ordering::Relaxed);
                let walk = usize::from(plan.trips[u.id as usize].walk);
                if !reference.matches(walk, u.seq, u.score) {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
            })
            .build()
            .expect("engine over a fitted model")
    };
    let root = tracer.begin("replay", "bench", None, 0);
    let started = Instant::now();
    for cohort in events.chunks(REPLAY_COHORT) {
        let span = tracer.begin("FleetEngine::try_submit_cohort", "serve", root, 0);
        let mut pending = cohort.to_vec();
        loop {
            let out = engine.try_submit_cohort(pending.clone());
            if out.full.is_empty() && out.closed.is_empty() && out.shed.is_empty() {
                break;
            }
            // Bounces are whole shard groups: re-offer them, in order,
            // before anything later.
            pending = out.full.iter().map(|&i| pending[i]).collect();
            if pending.is_empty() {
                report.fail("replay event refused", (out.closed.len() + out.shed.len()) as u64);
                break;
            }
            std::thread::yield_now();
        }
        tracer.end(span);
    }
    engine.flush().expect("replay drained");
    let secs = started.elapsed().as_secs_f64();
    tracer.end(root);
    drop(engine);
    let segments = REPLAY_EVENTS as u64;
    report.attempted += segments;
    report.fail("replay score missing", segments.saturating_sub(scored.load(Ordering::Relaxed)));
    report.fail("replay score not bit-identical", mismatches.load(Ordering::Relaxed));
    report.put("serve.replay_seg_per_s", segments as f64 / secs, "seg/s");
}

/// ns per segment of batched stepping at wave width `width`.
fn push_batch_ns_per_seg(model: &CausalTad, reference: &Reference, width: usize) -> f64 {
    let cache = model.build_step_cache();
    let (mut segs, mut elapsed) = (0u64, Duration::ZERO);
    let steps = (setup::MAX_LEN - 1) as usize;
    while elapsed < MIN_TIME {
        let walks: Vec<usize> = (0..width).map(|i| i % reference.walks.len()).collect();
        let mut states: Vec<ScorerState> = walks
            .iter()
            .map(|&w| {
                let (source, dest) = reference.source_dest(w);
                model.start_state(source, dest, setup::slot_of(w)).expect("walk endpoints")
            })
            .collect();
        for seq in 0..steps as u32 {
            let step: Vec<u32> = walks.iter().map(|&w| reference.segment(w, seq)).collect();
            let t = Instant::now();
            std::hint::black_box(model.push_batch(Some(&cache), &mut states, &step));
            elapsed += t.elapsed();
        }
        segs += (width * steps) as u64;
    }
    elapsed.as_nanos() as f64 / segs as f64
}

/// GMAC/s of an `(m × k)·(k × n)` product.
fn matmul_gmacs(m: usize, k: usize, n: usize) -> f64 {
    let a = Tensor::full(m, k, 0.5);
    let b = Tensor::full(k, n, 0.25);
    let mut out = Tensor::zeros(m, n);
    let (mut iters, started) = (0u64, Instant::now());
    while started.elapsed() < MIN_TIME {
        for _ in 0..16 {
            std::hint::black_box(&a).matmul_into(std::hint::black_box(&b), &mut out);
            std::hint::black_box(&mut out);
        }
        iters += 16;
    }
    (m * k * n) as f64 * iters as f64 / started.elapsed().as_secs_f64() / 1e9
}
