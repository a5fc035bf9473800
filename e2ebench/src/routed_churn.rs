//! `routed_churn`: a closed loop of 100,000 concurrent trips through a
//! `RouterServer` over two `NetServer` backends (plus one standby, so the
//! router keeps its recovery journals), with a flush barrier after every
//! round and a `RouterServer::checkpoint()` sweep every few rounds.
//!
//! Every live trip streams one segment per round; trips are 8–40 segments
//! long and each finished trip is replaced at once, so the concurrency
//! holds while ids churn. Waves are wide and session state is far larger
//! than cache; the checkpoint sweeps (a full capture first, then `TADD`
//! deltas) compete with scoring for the same shards.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tad_net::{Client, NetConfig, NetServer, Response};
use tad_router::{RouterConfig, RouterServer};
use tad_serve::{Completion, FleetConfig};

use crate::setup::{self, Reference, TripPlan};
use crate::stats;
use crate::trace::{segment_id, Tracer};
use crate::{procfs, Report};

const TRIPS: usize = 100_000;
const PRODUCERS: u64 = 2;
const BACKENDS: usize = 2;
/// Rounds before measurement starts (the first carries every trip start).
const WARMUP_ROUNDS: u64 = 2;
/// A checkpoint sweep every this many rounds of producer 0.
const CHECKPOINT_EVERY: u64 = 4;
/// In a traced run, segment-level spans are kept for one trip in this many.
const TRACE_ONE_IN: u64 = 64;

/// What one producer streamed, got back, and found wrong.
#[derive(Default)]
struct Tally {
    sent: u64,
    ended: u64,
    mismatches: u64,
    missing: u64,
    completions_ok: u64,
    completions_bad: u64,
    errors: BTreeMap<String, u64>,
    /// Measured rounds: (scored, seconds, traced).
    rounds: Vec<(u64, f64, bool)>,
}

struct Ctx {
    reference: Arc<Reference>,
    plan: TripPlan,
    stop: AtomicBool,
    /// Set for the second half of a traced run's measurement.
    tracing: AtomicBool,
    /// Measured rounds completed by producer 0.
    rounds: AtomicU64,
    start: Barrier,
    epoch: Instant,
}

fn producer(ctx: &Ctx, addr: std::net::SocketAddr, p: u64) -> (Tally, Tracer) {
    let mut client = Client::connect(addr).expect("connect producer");
    let mut tracer = Tracer::new(false, ctx.epoch);
    let mut tally = Tally::default();
    // Live trips: (id, walk, next seq, len).
    let mut live: Vec<(u64, usize, u32, u32)> = Vec::with_capacity(TRIPS / PRODUCERS as usize);
    let mut next_id = p;
    let mut spawn = |client: &mut Client, live: &mut Vec<(u64, usize, u32, u32)>| {
        let id = next_id;
        next_id += PRODUCERS;
        let w = ctx.plan.walk(id);
        let (source, dest) = ctx.reference.source_dest(w);
        client.trip_start(id, source, dest, setup::slot_of(w)).expect("write start");
        live.push((id, w, 0, ctx.plan.len(id)));
    };
    for _ in 0..TRIPS / PRODUCERS as usize {
        spawn(&mut client, &mut live);
    }
    let mut round = 0u64;
    loop {
        if round == WARMUP_ROUNDS {
            ctx.start.wait();
        }
        let measured = round >= WARMUP_ROUNDS;
        if measured && ctx.stop.load(Ordering::Relaxed) {
            break;
        }
        let traced = measured && ctx.tracing.load(Ordering::Relaxed);
        if traced && !tracer.enabled() {
            tracer = Tracer::new(true, ctx.epoch);
        }
        let t = Instant::now();
        let span_round = tracer.begin("round", "bench", None, 0);
        let (mut sent, mut respawn) = (0u64, 0usize);
        let writes = tracer.begin("Client::segment", "net", span_round, 0);
        live.retain_mut(|(id, w, seq, len)| {
            let sampled = traced && id.is_multiple_of(TRACE_ONE_IN);
            let s = if sampled {
                tracer.begin("segment", "net", writes, segment_id(*id, *seq))
            } else {
                None
            };
            client.segment(*id, ctx.reference.segment(*w, *seq)).expect("write segment");
            tracer.end(s);
            sent += 1;
            *seq += 1;
            if *seq == *len {
                client.trip_end(*id).expect("write end");
                tally.ended += 1;
                respawn += 1;
                false
            } else {
                true
            }
        });
        tracer.end(writes);
        for _ in 0..respawn {
            spawn(&mut client, &mut live);
        }
        let barrier = tracer.begin("Client::flush", "net", span_round, 0);
        let flushed = client.flush();
        tracer.end(barrier);
        if let Err(e) = flushed {
            *tally.errors.entry(format!("barrier: {e}")).or_insert(0) += 1;
            tally.missing += sent;
            tally.sent += sent;
            break;
        }
        let check = tracer.begin("check", "bench", span_round, 0);
        let mut scored = 0u64;
        while let Some(resp) = client.try_recv() {
            match resp {
                Response::Score(u) => {
                    scored += 1;
                    if !ctx.reference.matches(ctx.plan.walk(u.id), u.seq, u.score) {
                        tally.mismatches += 1;
                    }
                }
                Response::TripComplete(c) => {
                    let len = ctx.plan.len(c.id);
                    let ok = c.completion == Completion::Ended
                        && c.segments() == len as usize
                        && ctx.reference.matches(ctx.plan.walk(c.id), len - 1, c.score);
                    if ok {
                        tally.completions_ok += 1;
                    } else {
                        tally.completions_bad += 1;
                    }
                }
                Response::Error { code, .. } => {
                    *tally.errors.entry(format!("error reply {code:?}")).or_insert(0) += 1;
                }
                other => {
                    let kind: String =
                        format!("unexpected reply {other:?}").chars().take(48).collect();
                    *tally.errors.entry(kind).or_insert(0) += 1;
                }
            }
        }
        tracer.end(check);
        tracer.end(span_round);
        tally.sent += sent;
        tally.missing += sent.saturating_sub(scored);
        if measured {
            tally.rounds.push((scored, t.elapsed().as_secs_f64(), traced));
            if p == 0 {
                ctx.rounds.fetch_add(1, Ordering::Release);
            }
        }
        round += 1;
    }
    (tally, tracer)
}

fn bind(model: &Arc<causaltad::CausalTad>) -> (Vec<NetServer>, RouterServer) {
    let fleet = FleetConfig {
        num_shards: 2,
        queue_capacity: 65_536,
        session_ttl: Duration::from_secs(3_600),
        max_sessions_per_shard: TRIPS,
        ..FleetConfig::default()
    };
    let backends: Vec<NetServer> = (0..=BACKENDS)
        .map(|_| {
            NetServer::builder(Arc::clone(model))
                .fleet_config(fleet.clone())
                .net_config(NetConfig::default())
                .bind("127.0.0.1:0")
                .expect("bind backend")
        })
        .collect();
    let router = RouterServer::builder()
        .backends(backends.iter().take(BACKENDS).map(NetServer::local_addr))
        .standbys(backends.iter().skip(BACKENDS).map(NetServer::local_addr))
        .config(RouterConfig {
            // The journal must hold the ingest between two sweeps.
            journal_limit: TRIPS * 8 + 65_536,
            ..RouterConfig::default()
        })
        .bind("127.0.0.1:0")
        .expect("bind router");
    (backends, router)
}

/// Runs the workload and fills `report`; returns the run's spans.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Tracer {
    let epoch = Instant::now();
    let (s, (backends, router)) = crate::setup_serving(report, seed, bind);
    let ctx = Ctx {
        reference: Arc::clone(&s.reference),
        plan: TripPlan::new(seed),
        stop: AtomicBool::new(false),
        tracing: AtomicBool::new(false),
        rounds: AtomicU64::new(0),
        start: Barrier::new(PRODUCERS as usize + 1),
        epoch,
    };
    let front = router.local_addr();
    let (tallies, sweeps, cpu_s, groups, wall_s, mut tracer) = std::thread::scope(|scope| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ctx = &ctx;
                std::thread::Builder::new()
                    .name(format!("e2e-gen-{p}"))
                    .spawn_scoped(scope, move || producer(ctx, front, p))
                    .expect("spawn producer")
            })
            .collect();
        ctx.start.wait();
        let t0 = Instant::now();
        let cpu0 = procfs::process_cpu_s();
        let groups0 = procfs::grouped(&procfs::threads());
        let sweeper = {
            let (ctx, router) = (&ctx, &router);
            std::thread::Builder::new()
                .name("e2e-checkpoint".into())
                .spawn_scoped(scope, move || {
                    let mut tracer = Tracer::new(trace, ctx.epoch);
                    let mut sweeps = Vec::new();
                    let mut next_at = 0u64;
                    while !ctx.stop.load(Ordering::Relaxed) {
                        if ctx.rounds.load(Ordering::Acquire) < next_at {
                            std::thread::sleep(Duration::from_millis(1));
                            continue;
                        }
                        let t = Instant::now();
                        let span = tracer.begin("RouterServer::checkpoint", "router", None, 0);
                        let sweep = router.checkpoint();
                        tracer.end(span);
                        sweeps.push((sweep.map_err(|e| e.to_string()), t.elapsed().as_secs_f64()));
                        next_at += CHECKPOINT_EVERY;
                    }
                    (sweeps, tracer)
                })
                .expect("spawn checkpoint thread")
        };
        if trace {
            std::thread::sleep(Duration::from_secs_f64(seconds / 2.0));
            ctx.tracing.store(true, Ordering::Relaxed);
            std::thread::sleep(Duration::from_secs_f64(seconds / 2.0));
        } else {
            std::thread::sleep(Duration::from_secs_f64(seconds));
        }
        ctx.stop.store(true, Ordering::Relaxed);
        // Per-thread CPU now, before the producers hang up and their
        // router front threads exit with their counters.
        let groups = procfs::grouped_delta(&groups0, &procfs::grouped(&procfs::threads()));
        let mut tracer = Tracer::new(trace, epoch);
        let tallies: Vec<Tally> = producers
            .into_iter()
            .map(|h| {
                let (tally, t) = h.join().expect("producer thread");
                tracer.absorb(t);
                tally
            })
            .collect();
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = procfs::process_cpu_s() - cpu0;
        let (sweeps, t) = sweeper.join().expect("checkpoint thread");
        tracer.absorb(t);
        (tallies, sweeps, cpu_s, groups, wall_s, tracer)
    });

    // --- End-to-end metrics. -------------------------------------------
    let measured: u64 = tallies.iter().flat_map(|t| &t.rounds).map(|r| r.0).sum();
    report.put("throughput_seg_s", measured as f64 / wall_s, "seg/s");
    report.put("cpu_us_per_seg", cpu_s * 1e6 / measured as f64, "us");
    let (mut full_ms, mut delta_ms) = (Vec::new(), Vec::new());
    for (sweep, secs) in &sweeps {
        match sweep {
            Ok(st) if st.full_captures > 0 => full_ms.push(secs * 1e3),
            Ok(_) => delta_ms.push(secs * 1e3),
            Err(e) => report.fail(&format!("checkpoint: {e}"), 1),
        }
    }
    report.put("checkpoint_p50_ms", stats::median(&delta_ms), "ms");
    report.put("checkpoint.deltas", delta_ms.len() as f64, "count");

    // --- Correctness. ----------------------------------------------------
    report.attempted += sweeps.len() as u64;
    for t in &tallies {
        report.attempted += t.sent + t.ended;
        report.fail("score missing", t.missing);
        report.fail("score not bit-identical to reference", t.mismatches);
        report.fail("trip total wrong", t.completions_bad);
        report.fail(
            "trip completion missing",
            t.ended.saturating_sub(t.completions_ok + t.completions_bad),
        );
        for (kind, n) in &t.errors {
            report.fail(kind, *n);
        }
    }

    // --- Per-layer breakdown. --------------------------------------------
    let group = |g: &str| groups.get(g).copied().unwrap_or(0.0);
    report.put("gen.cpu_s", group("gen"), "s");
    report.put("net.evloop_cpu_s", group("net"), "s");
    report.put("serve.shard_cpu_s", group("serve"), "s");
    report.put("router.cpu_s.front", group("router.front"), "s");
    report.put("router.cpu_s.mux", group("router.mux"), "s");
    report.put("router.checkpoint_ms.full", stats::median(&full_ms), "ms");
    report.put("router.checkpoint_ms.delta", stats::median(&delta_ms), "ms");
    report.put("router.responses_dropped", router.stats().responses_dropped as f64, "count");
    if trace {
        // Throughput of untraced vs traced rounds, summed over producers.
        let rate = |traced: bool| -> f64 {
            tallies
                .iter()
                .map(|t| {
                    let (n, s) = t
                        .rounds
                        .iter()
                        .filter(|r| r.2 == traced)
                        .fold((0u64, 0.0), |(n, s), r| (n + r.0, s + r.1));
                    n as f64 / s
                })
                .sum()
        };
        report.put("trace_overhead_frac", rate(false) / rate(true) - 1.0, "ratio");
        let mut admin = Client::connect(front).expect("connect admin");
        let fleet = admin.metrics().expect("fleet registry over the wire");
        crate::report_registry(report, &fleet);
        // Both are counters summed over every delta capture of every
        // active backend.
        let captures = (delta_ms.len() * BACKENDS).max(1) as f64;
        let per_capture = |name: &str| fleet.counter(name).unwrap_or(0) as f64 / captures;
        report.put("serve.delta_bytes_per_capture", per_capture("serve.delta_bytes"), "B");
        report.put(
            "serve.dirty_sessions_per_capture",
            per_capture("serve.dirty_sessions"),
            "count",
        );
        let actives: Vec<_> = backends.iter().take(BACKENDS).map(NetServer::local_addr).collect();
        crate::report_state_bytes(report, &actives);
    } else {
        tracer = Tracer::new(false, epoch);
    }
    drop(router);
    drop(backends);
    crate::train_fit::report_auc(report, &s.model, &s.city, 0.0);
    tracer
}
