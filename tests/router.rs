//! End-to-end equivalence battery for the `tad-router` tier: scores fed
//! through a router over N independent `tad-net` backends are
//! **bit-identical** to a single in-process `FleetEngine` ingesting the
//! same event stream — for every cohort composition, across fleet sizes,
//! across a routed snapshot captured from N backends and restored onto M,
//! and under partial failure (a dead backend surfaces typed errors while
//! healthy backends keep scoring).
//!
//! Bit-exactness holds because the router preserves per-trip event order
//! end to end (pure trip→backend assignment, one FIFO pipeline per
//! backend) and `CausalTad::push_batch` is bit-identical to sequential
//! `push_state` for every cohort composition — so it does not matter
//! which engine a trip lands on or how its events batch up there.

mod common;

use std::net::{Shutdown, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use causaltad_suite::core::CausalTad;
use causaltad_suite::net::{Client, ClientError, ErrorCode, NetServer, Response};
use causaltad_suite::router::{backend_for, split_image, RouterConfig, RouterServer};
use causaltad_suite::serve::{image_from_bytes, Completion, Event, FleetConfig};
use causaltad_suite::trajsim::Trajectory;
use common::{
    assert_bit_identical, drain, in_process, interleave, send_events, trained, trip_of, Produced,
};

/// Spins up `n` independent backend servers and a router over all of them.
fn spawn_fleet(
    model: &Arc<CausalTad>,
    n: usize,
    cfg: FleetConfig,
) -> (Vec<NetServer>, RouterServer) {
    let backends: Vec<NetServer> = (0..n)
        .map(|_| {
            NetServer::builder(Arc::clone(model))
                .fleet_config(cfg.clone())
                .bind("127.0.0.1:0")
                .expect("bind backend")
        })
        .collect();
    let router = RouterServer::builder()
        .backends(backends.iter().map(|b| b.local_addr()))
        .bind("127.0.0.1:0")
        .expect("bind router");
    (backends, router)
}

/// The core acceptance test: for 2- and 3-backend fleets, every
/// per-segment and final score produced through the router is
/// bit-identical to one in-process engine fed the same stream, the
/// aggregated `Flush` stats count the whole fleet, and each backend saw
/// exactly its partition of the trips.
#[test]
fn routed_scores_match_in_process_ingest_bit_exactly() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(12).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };

    let reference = in_process(model, &events, cfg.clone());
    assert_eq!(reference.finals.len(), trips.len());

    for n_backends in [2usize, 3] {
        let (backends, router) = spawn_fleet(model, n_backends, cfg.clone());
        let mut client = Client::connect(router.local_addr()).expect("connect");
        send_events(&mut client, &events);
        let stats = client.flush().expect("fleet-wide barrier");
        assert_eq!(stats.trips_completed, trips.len() as u64, "aggregated completion count");
        assert_eq!(stats.rejected, 0);

        let mut routed = Produced::default();
        drain(&mut client, &mut routed);
        assert_bit_identical(&routed, &reference);

        // Trip stickiness: each backend engine started exactly the trips
        // the partitioner assigns it, and nothing else.
        for (idx, backend) in backends.iter().enumerate() {
            let own = (0..trips.len() as u64)
                .filter(|&id| backend_for(id, n_backends as u32) == idx as u32)
                .count() as u64;
            assert_eq!(backend.stats().trips_started, own, "backend {idx} partition");
        }
        let rstats = router.stats();
        assert_eq!(rstats.responses_dropped, 0);
        assert_eq!(rstats.backends_alive, n_backends as u64);
        router.shutdown();
        for backend in backends {
            backend.shutdown();
        }
    }
}

/// The routed warm-restart acceptance test: stream half the fleet through
/// a router over 2 backends, capture the **merged** snapshot over the
/// wire, kill the whole tier, re-partition the capture onto 3 fresh
/// backends with `split_image`, finish the stream through a new router —
/// and require every score across both phases to be bit-identical to one
/// uninterrupted in-process engine.
#[test]
fn routed_snapshot_restores_n_to_m_bit_exactly() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(10).collect();
    let events = interleave(&trips);
    let split = trips.len() + (events.len() - trips.len()) * 2 / 5;
    let cfg = || FleetConfig { num_shards: 2, max_batch: 32, ..FleetConfig::default() };

    let reference = in_process(model, &events, cfg());

    let mut routed = Produced::default();

    // Phase A: 2 backends, half the traffic, merged snapshot over the wire.
    let (backends_a, router_a) = spawn_fleet(model, 2, cfg());
    let mut client_a = Client::connect(router_a.local_addr()).expect("connect");
    send_events(&mut client_a, &events[..split]);
    client_a.flush().expect("barrier");
    let blob = client_a.snapshot().expect("merged snapshot over the wire");
    drain(&mut client_a, &mut routed);
    drop(client_a);
    router_a.shutdown();
    for backend in backends_a {
        backend.shutdown(); // the "crash": every live session is gone
    }

    // Phase B: re-partition the 2-backend capture onto a 3-backend fleet.
    let image = image_from_bytes(blob).expect("merged blob decodes");
    let captured = image.sessions.len();
    assert!(captured > 0, "capture point should leave sessions in flight");
    let parts = split_image(image, 3);
    for (idx, part) in parts.iter().enumerate() {
        for rec in &part.sessions {
            assert_eq!(
                backend_for(rec.id, 3),
                idx as u32,
                "restore partition must align with event routing"
            );
        }
    }
    let backends_b: Vec<NetServer> = parts
        .into_iter()
        .map(|part| {
            NetServer::builder(Arc::clone(model))
                .fleet_config(FleetConfig {
                    num_shards: 3,
                    max_batch: 32,
                    ..FleetConfig::default()
                })
                .resume(part)
                .bind("127.0.0.1:0")
                .expect("bind restored backend")
        })
        .collect();
    let router_b = RouterServer::builder()
        .backends(backends_b.iter().map(|b| b.local_addr()))
        .bind("127.0.0.1:0")
        .expect("bind router");
    let mut client_b = Client::connect(router_b.local_addr()).expect("connect");
    send_events(&mut client_b, &events[split..]);
    let stats = client_b.flush().expect("barrier");
    assert_eq!(stats.sessions_restored, captured as u64, "aggregated restore count");
    drain(&mut client_b, &mut routed);

    assert_bit_identical(&routed, &reference);
    assert_eq!(router_b.stats().responses_dropped, 0);
    router_b.shutdown();
    for backend in backends_b {
        backend.shutdown();
    }
}

/// Fan-in isolation: two producers streaming disjoint trips through the
/// same router concurrently each receive exactly their own trips'
/// responses (their union still bit-identical to in-process ingest), and
/// a `TripStart` for an id another live connection owns is refused with a
/// typed reject that does not disturb the owner.
#[test]
fn router_fans_in_to_the_owning_front_connection_only() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(8).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };

    let reference = in_process(model, &events, cfg.clone());

    let (backends, router) = spawn_fleet(model, 2, cfg);
    let addr = router.local_addr();
    let handles: Vec<_> = (0..2u64)
        .map(|producer| {
            let own: Vec<Event> =
                events.iter().copied().filter(|ev| trip_of(ev) % 2 == producer).collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                send_events(&mut client, &own);
                client.flush().expect("barrier");
                let mut got = Produced::default();
                drain(&mut client, &mut got);
                got
            })
        })
        .collect();
    let mut routed = Produced::default();
    for (producer, handle) in handles.into_iter().enumerate() {
        let got = handle.join().expect("producer thread");
        for &(id, _) in got.scores.keys() {
            assert_eq!(id % 2, producer as u64, "cross-delivered score");
        }
        for &id in got.finals.keys() {
            assert_eq!(id % 2, producer as u64, "cross-delivered completion");
        }
        routed.scores.extend(got.scores);
        routed.finals.extend(got.finals);
    }
    assert_bit_identical(&routed, &reference);

    // Ownership is enforced at the router: a second connection cannot
    // start a trip a live connection owns.
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let mut owner = Client::connect(addr).expect("connect");
    let mut intruder = Client::connect(addr).expect("connect");
    owner.trip_start(100, sd.source.0, sd.dest.0, t.time_slot).expect("write");
    owner.flush().expect("barrier");
    intruder.trip_start(100, sd.source.0, sd.dest.0, t.time_slot).expect("write");
    intruder.flush().expect("barrier");
    match intruder.try_recv() {
        Some(Response::Error { code: ErrorCode::Rejected, trip: Some(100), .. }) => {}
        other => panic!("expected Rejected for trip 100, got {other:?}"),
    }
    owner.segment(100, t.segments[0].0).expect("write");
    owner.trip_end(100).expect("write");
    owner.flush().expect("barrier");
    let mut scored = 0;
    let mut completed = false;
    while let Some(resp) = owner.try_recv() {
        match resp {
            Response::Score(u) => {
                assert_eq!(u.id, 100);
                scored += 1;
            }
            Response::TripComplete(tc) => {
                assert_eq!((tc.id, tc.completion), (100, Completion::Ended));
                completed = true;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!((scored, completed), (1, true), "the owner's trip was undisturbed");
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// Sanitization through the routed tier: backends configured with a dedup
/// window score a duplicated multi-trip stream bit-identically to the
/// clean stream through one in-process engine, and every
/// `PolicyNotice` fans in to the front connection that owns the trip —
/// the producer sees the same notices it would get talking to a backend
/// directly, and the fleet-merged metrics count every drop.
#[test]
fn policy_notices_fan_in_through_the_router_to_the_owner() {
    use causaltad_suite::serve::{PolicyAction, StreamPolicy};

    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(6).collect();
    let clean = interleave(&trips);
    // At-least-once transport: every segment frame arrives twice.
    let dirty: Vec<Event> = clean
        .iter()
        .flat_map(|&ev| match ev {
            Event::Segment { .. } => vec![ev, ev],
            other => vec![other],
        })
        .collect();
    let segments: usize = trips.iter().map(|t| t.len()).sum();

    // Reference: the *clean* stream through one unpoliced engine.
    let reference = in_process(model, &clean, FleetConfig::default());

    let cfg = FleetConfig {
        num_shards: 2,
        policy: StreamPolicy { dedup_window: 2, ..StreamPolicy::default() },
        ..FleetConfig::default()
    };
    let (backends, router) = spawn_fleet(model, 2, cfg);
    let addr = router.local_addr();
    let handles: Vec<_> = (0..2u64)
        .map(|producer| {
            let own: Vec<Event> =
                dirty.iter().copied().filter(|ev| trip_of(ev) % 2 == producer).collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                send_events(&mut client, &own);
                client.flush().expect("barrier");
                let mut got = Produced::default();
                let mut notices = Vec::new();
                while let Some(resp) = client.try_recv() {
                    match resp {
                        Response::Score(u) => {
                            got.scores.insert((u.id, u.seq), u.score.to_bits());
                        }
                        Response::TripComplete(tc) => {
                            if tc.completion == Completion::Ended {
                                got.finals.insert(tc.id, (tc.score.to_bits(), tc.segments()));
                            }
                        }
                        Response::PolicyNotice { id, action, seg } => {
                            assert_eq!(action, PolicyAction::DedupDropped);
                            assert!(seg.is_some());
                            notices.push(id);
                        }
                        other => panic!("unexpected response: {other:?}"),
                    }
                }
                (got, notices)
            })
        })
        .collect();
    let mut routed = Produced::default();
    let mut notice_total = 0usize;
    for (producer, handle) in handles.into_iter().enumerate() {
        let (got, notices) = handle.join().expect("producer thread");
        for &id in &notices {
            assert_eq!(id % 2, producer as u64, "notice fanned in to the wrong producer");
        }
        notice_total += notices.len();
        routed.scores.extend(got.scores);
        routed.finals.extend(got.finals);
    }
    assert_bit_identical(&routed, &reference);
    assert_eq!(notice_total, segments, "one notice per duplicated segment");

    // The fleet-merged metrics agree with the wire notices.
    let mut client = Client::connect(addr).expect("connect");
    let fleet = client.metrics().expect("fleet metrics");
    assert_eq!(fleet.counter("serve.dedup_dropped"), Some(segments as u64));
    assert_eq!(router.stats().responses_dropped, 0);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// The observability acceptance test: one `MetricsRequest` against the
/// router returns the fleet view — every backend's registry plus the
/// router's own — and that wire-merged snapshot is **bit-identical**
/// (struct equality and re-encoded bytes) to merging the same registries
/// in process. Arrival order at the barrier cannot matter because the
/// histogram merge is an exact element-wise sum, hence commutative.
#[test]
fn fleet_metrics_merged_over_the_wire_match_in_process_aggregation() {
    use causaltad_suite::metrics::{snapshot_to_bytes, MetricsSnapshot};

    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(10).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let (backends, router) = spawn_fleet(model, 2, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    send_events(&mut client, &events);
    client.flush().expect("fleet barrier");
    let mut routed = Produced::default();
    drain(&mut client, &mut routed);
    assert_eq!(routed.finals.len(), trips.len());

    let fleet = client.metrics().expect("fleet metrics over the wire");

    // In-process ground truth, computed after the wire answer at a
    // quiesced point: the same registries must merge to the same bits.
    let parts: Vec<MetricsSnapshot> =
        backends.iter().map(|b| b.metrics()).chain([router.metrics()]).collect();
    let expect = MetricsSnapshot::merged(&parts);
    assert_eq!(fleet, expect, "wire-merged fleet metrics must equal in-process aggregation");
    assert_eq!(
        snapshot_to_bytes(&fleet),
        snapshot_to_bytes(&expect),
        "wire-merged fleet metrics must re-encode to identical bytes"
    );

    // The single snapshot covers all three tiers. Serve: one latency
    // sample per scored segment, fleet-wide.
    let segments: u64 = trips.iter().map(|t| t.segments.len() as u64).sum();
    let lat = fleet.histogram("serve.score_latency_ns").expect("serve histogram");
    assert_eq!(lat.count, segments, "one fleet-wide latency sample per segment");
    // Router: one forward sample per ingest event, and the per-backend
    // split sums to the total.
    let fwd = fleet.histogram("router.forward_ns").expect("router histogram");
    assert_eq!(fwd.count, events.len() as u64, "one forward sample per ingest event");
    let per_backend: u64 = (0..2)
        .map(|i| fleet.histogram(&format!("router.backend.{i}.forward_ns")).map_or(0, |h| h.count))
        .sum();
    assert_eq!(per_backend, fwd.count, "per-backend forwards sum to the fleet total");
    // Net: both backends decoded frames.
    assert!(fleet.histogram("net.frame_decode_ns").expect("net histogram").count > 0);

    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// Fault injection: killing one backend mid-stream surfaces typed
/// `EngineClosed` errors for its trips to the affected front connection —
/// both for the loss itself and for any later event routed to the dead
/// backend — while trips on the healthy backend keep scoring, complete
/// normally, and the fleet-wide flush barrier still answers.
#[test]
fn dead_backend_surfaces_typed_errors_without_stalling_healthy_trips() {
    let (city, model) = trained();
    let id_dead = (0..).find(|&i| backend_for(i, 2) == 0).expect("some id maps to backend 0");
    let id_live = (0..).find(|&i| backend_for(i, 2) == 1).expect("some id maps to backend 1");
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };
    let (mut backends, router) = spawn_fleet(model, 2, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");

    for &id in &[id_dead, id_live] {
        client.trip_start(id, sd.source.0, sd.dest.0, t.time_slot).expect("write");
        client.segment(id, t.segments[0].0).expect("write");
    }
    client.flush().expect("both backends healthy");

    // Kill the backend owning `id_dead`; wait for the router to notice
    // the dead link (it learns asynchronously, from the broken socket).
    backends.remove(0).shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.stats().backends_alive != 1 {
        assert!(Instant::now() < deadline, "router never noticed the dead backend");
        std::thread::sleep(Duration::from_millis(10));
    }

    client.segment(id_dead, t.segments[1].0).expect("write");
    client.segment(id_live, t.segments[1].0).expect("write");
    client.trip_end(id_live).expect("write");
    let stats = client.flush().expect("flush must still answer over the surviving backend");
    assert_eq!(stats.trips_completed, 1);

    let mut dead_errors = 0;
    let mut live_scores = 0;
    let mut live_final = None;
    while let Some(resp) = client.try_recv() {
        match resp {
            Response::Error { code: ErrorCode::EngineClosed, trip: Some(id), .. } => {
                assert_eq!(id, id_dead, "only the dead backend's trip errors");
                dead_errors += 1;
            }
            Response::Score(u) => {
                if u.id == id_live {
                    live_scores += 1;
                } else {
                    assert_eq!(u.id, id_dead, "pre-kill score for the doomed trip");
                }
            }
            Response::TripComplete(tc) => {
                assert_eq!((tc.id, tc.completion), (id_live, Completion::Ended));
                live_final = Some(tc);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(dead_errors >= 1, "the dead trip surfaced at least one typed error");
    assert_eq!(live_scores, 2, "the healthy trip scored every segment");
    assert_eq!(live_final.expect("healthy trip completed").segments(), 2);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// Liveness for producers wedged behind a dead link: a backend that
/// stalls (never reads) fills the link's write buffer, then its bounded
/// channel, until the front reader blocks in the channel send — the
/// designed backpressure point. When that backend then dies, the mux
/// must drop the link's channel receiver at reap time so the blocked
/// producer is woken with a send error immediately, and the router's
/// shutdown (which queues a per-link `Close` on that same channel) must
/// complete instead of hanging on the full channel. A second, healthy
/// backend keeps the mux thread running, so receiver cleanup cannot be
/// deferred to mux exit.
#[test]
fn dead_stalled_backend_unblocks_producers_and_shutdown() {
    let (city, model) = trained();
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let (source, dest, slot) = (sd.source.0, sd.dest.0, t.time_slot);

    // Victim backend 0: accepts the router's link and never reads.
    let stall = TcpListener::bind("127.0.0.1:0").expect("bind stalled backend");
    let stall_addr = stall.local_addr().expect("stalled backend addr");
    let accepter = std::thread::spawn(move || {
        let (sock, _) = stall.accept().expect("accept router link");
        sock
    });

    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };
    let healthy =
        NetServer::builder(Arc::clone(model)).fleet_config(cfg).bind("127.0.0.1:0").expect("bind");
    let router = RouterServer::builder()
        .backends([stall_addr, healthy.local_addr()])
        // A small channel keeps the amount of traffic needed to reach
        // the blocking point test-sized.
        .config(RouterConfig { backend_queue: 64, ..RouterConfig::default() })
        .bind("127.0.0.1:0")
        .expect("bind router");
    let victim_sock = accepter.join().expect("router connected to the stalled backend");

    // Producer: hammer trips owned by the stalled backend until told to
    // stop (it cannot make progress while the victim is alive and every
    // buffer in between is full).
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let sent = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (progress, halt) = (Arc::clone(&sent), Arc::clone(&stop));
    let producer = std::thread::spawn(move || {
        for id in (0..u64::MAX).filter(|&i| backend_for(i, 2) == 0) {
            if halt.load(Ordering::Relaxed) || client.trip_start(id, source, dest, slot).is_err() {
                break;
            }
            progress.fetch_add(1, Ordering::Relaxed);
        }
    });

    // Wait until the producer is actually wedged: the sent counter stops
    // moving once every buffer between client and victim is full and the
    // front reader is blocked in the link channel send.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let before = sent.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(300));
        if sent.load(Ordering::Relaxed) == before {
            break;
        }
        assert!(Instant::now() < deadline, "producer never hit the backpressure point");
    }
    assert!(!producer.is_finished(), "producer must be blocked, not errored, pre-kill");

    // Kill the victim. The mux reaps the link; dropping the channel
    // receiver is what wakes the front reader blocked in the send.
    victim_sock.shutdown(Shutdown::Both).expect("kill victim link");
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.stats().backends_alive != 1 {
        assert!(Instant::now() < deadline, "router never noticed the dead backend");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The woken front reader drains the backlog (typed errors now, no
    // forwarding), so the producer's writes start landing again: resumed
    // progress is the observable proof that the blocked channel send was
    // failed rather than leaked.
    let wedged = sent.load(Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(20);
    while sent.load(Ordering::Relaxed) == wedged {
        assert!(Instant::now() < deadline, "producer was never unblocked after the link died");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Stop the producer while its writes still flow (after the router's
    // front sockets close, a blocked client write can linger for the
    // whole TCP orphan timeout — kernel behaviour, not router liveness).
    stop.store(true, Ordering::Relaxed);
    producer.join().expect("producer thread");

    // Shutdown queues a blocking per-link `Close`: this hangs forever if
    // the dead link's channel receiver leaked with a full channel.
    let shut = std::thread::spawn(move || router.shutdown());
    let deadline = Instant::now() + Duration::from_secs(20);
    while !shut.is_finished() {
        assert!(Instant::now() < deadline, "router shutdown hung on the dead link's channel");
        std::thread::sleep(Duration::from_millis(20));
    }
    shut.join().expect("shutdown thread");
    healthy.shutdown();
}

/// Liveness under racing failure: fleet-wide flush barriers hammered
/// while a backend dies mid-stream must *always* resolve — with
/// aggregated stats (before the kill, or over the survivor once the dead
/// link is noticed) or a typed barrier failure (when the kill lands
/// mid-barrier) — never by hanging. This is the regression guard for the
/// staging race where a barrier accepted onto a dying backend's channel
/// missed both the wire and the backend-down sweep.
#[test]
fn flush_barriers_racing_a_backend_kill_always_resolve() {
    let (_, model) = trained();
    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };
    let (mut backends, router) = spawn_fleet(model, 2, cfg);
    let mut client = Client::connect(router.local_addr())
        .expect("connect")
        .with_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout set");

    let victim = backends.remove(0);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        victim.shutdown();
    });
    let mut served = 0usize;
    let mut failed = 0usize;
    for _ in 0..200 {
        match client.flush() {
            Ok(_) => served += 1,
            // The kill landed mid-barrier: a typed failure, not a hang.
            Err(ClientError::Server { .. }) => failed += 1,
            Err(ClientError::Timeout) => {
                panic!(
                    "flush hung: a barrier was never resolved (after {served} ok, {failed} failed)"
                )
            }
            Err(other) => panic!("unexpected flush failure: {other}"),
        }
    }
    killer.join().expect("killer thread");
    assert!(served > 0, "flushes must keep being served before and after the kill");
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Availability tier: failover, drain/handoff, rebalance, barrier semantics
// ---------------------------------------------------------------------------

use causaltad_suite::router::RouterAdminError;

/// Spins up `n` active backends plus `s` standbys and a router over all
/// of them. The returned server list is actives first, then standbys.
fn spawn_fleet_with_standbys(
    model: &Arc<CausalTad>,
    n: usize,
    s: usize,
    cfg: FleetConfig,
) -> (Vec<NetServer>, RouterServer) {
    let backends: Vec<NetServer> = (0..n + s)
        .map(|_| {
            NetServer::builder(Arc::clone(model))
                .fleet_config(cfg.clone())
                .bind("127.0.0.1:0")
                .expect("bind backend")
        })
        .collect();
    let router = RouterServer::builder()
        .backends(backends.iter().take(n).map(|b| b.local_addr()))
        .standbys(backends.iter().skip(n).map(|b| b.local_addr()))
        .bind("127.0.0.1:0")
        .expect("bind router");
    (backends, router)
}

/// Drains a client like [`drain`] but also counts raw `Score` and
/// `TripComplete` frames — the exactly-once ledger a `Produced` map
/// (keyed, last-write-wins) cannot see duplicates in.
fn drain_counted(client: &mut Client, produced: &mut Produced) -> (usize, usize) {
    let mut scores = 0usize;
    let mut completes = 0usize;
    while let Some(resp) = client.try_recv() {
        match resp {
            Response::Score(u) => {
                scores += 1;
                produced.scores.insert((u.id, u.seq), u.score.to_bits());
            }
            Response::TripComplete(tc) => {
                completes += 1;
                if tc.completion == Completion::Ended {
                    produced.finals.insert(tc.id, (tc.score.to_bits(), tc.segments()));
                }
            }
            Response::Error { code, trip, detail, .. } => {
                panic!("unexpected error frame: {code} trip={trip:?} {detail}")
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    (scores, completes)
}

/// The failover acceptance test: checkpoint the fleet (full, then
/// incremental `TADD` captures), keep streaming, kill an active backend,
/// keep streaming *through the failover* — and require the producer's
/// complete response stream to be bit-identical to an uninterrupted
/// in-process engine, with every score delivered exactly once and zero
/// error frames.
#[test]
fn failover_to_standby_is_bit_identical_and_exactly_once() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(12).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };

    let reference = in_process(model, &events, cfg.clone());
    let total_segments = reference.scores.len();

    let (mut backends, router) = spawn_fleet_with_standbys(model, 2, 1, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut routed = Produced::default();
    let (mut raw_scores, mut raw_completes) = (0usize, 0usize);
    let count = |pair: (usize, usize), raw_scores: &mut usize, raw_completes: &mut usize| {
        *raw_scores += pair.0;
        *raw_completes += pair.1;
    };

    // Phase 1: stream a third, checkpoint — every capture is a full
    // image (nothing is armed yet).
    let (a, b) = (events.len() / 3, events.len() * 2 / 3);
    send_events(&mut client, &events[..a]);
    client.flush().expect("barrier");
    count(drain_counted(&mut client, &mut routed), &mut raw_scores, &mut raw_completes);
    let sweep = router.checkpoint().expect("first checkpoint sweep");
    assert_eq!((sweep.full_captures, sweep.delta_captures), (2, 0), "cold sweep is full");

    // Phase 2: more churn, checkpoint again — now the chains are armed
    // and every capture is an incremental delta.
    send_events(&mut client, &events[a..b]);
    client.flush().expect("barrier");
    count(drain_counted(&mut client, &mut routed), &mut raw_scores, &mut raw_completes);
    let sweep = router.checkpoint().expect("second checkpoint sweep");
    assert_eq!((sweep.full_captures, sweep.delta_captures), (0, 2), "warm sweep is delta");

    // Phase 3: kill active backend 0 and keep streaming without waiting
    // for the router to notice — producers must ride the failover out.
    backends.remove(0).shutdown();
    send_events(&mut client, &events[b..]);
    client.flush().expect("flush rides out the failover");
    count(drain_counted(&mut client, &mut routed), &mut raw_scores, &mut raw_completes);

    assert_bit_identical(&routed, &reference);
    assert_eq!(raw_scores, total_segments, "every score exactly once, no duplicates");
    assert_eq!(raw_completes, trips.len(), "every completion exactly once");

    let stats = router.stats();
    assert_eq!(stats.failovers, 1, "exactly one promotion");
    assert_eq!(stats.standbys_available, 0, "the standby was consumed");
    assert_eq!(stats.partition_epoch, 1, "the map flipped once");
    assert!(stats.last_recovery_micros > 0, "recovery time was measured");
    assert_eq!(stats.backends_alive, 2, "two of three links remain");
    let metrics = router.metrics();
    assert_eq!(metrics.counter("router.failovers"), Some(1));

    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// Failover with *no checkpoint ever taken*: the journal base is the
/// empty fleet and the tail is the entire forwarded history, so the
/// promoted standby replays the dead backend's whole life — still
/// bit-identical, still exactly-once.
#[test]
fn failover_without_checkpoint_replays_from_the_empty_base() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(8).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &events, cfg.clone());

    let (mut backends, router) = spawn_fleet_with_standbys(model, 2, 1, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut routed = Produced::default();

    let split = events.len() / 2;
    send_events(&mut client, &events[..split]);
    client.flush().expect("barrier");
    let (s1, c1) = drain_counted(&mut client, &mut routed);
    backends.remove(0).shutdown();
    send_events(&mut client, &events[split..]);
    client.flush().expect("flush rides out the failover");
    let (s2, c2) = drain_counted(&mut client, &mut routed);

    assert_bit_identical(&routed, &reference);
    assert_eq!(s1 + s2, reference.scores.len(), "every score exactly once");
    assert_eq!(c1 + c2, trips.len(), "every completion exactly once");
    assert_eq!(router.stats().failovers, 1);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// The drain/handoff acceptance test: migrate a partition between two
/// *running* backends mid-stream (3 backends + 1 standby), then rotate a
/// second partition onto the backend the first handoff freed — producers
/// keep streaming throughout and the full response stream stays
/// bit-identical to an uninterrupted in-process run.
#[test]
fn live_handoff_between_running_backends_is_invisible_to_producers() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(12).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &events, cfg.clone());

    let (backends, router) = spawn_fleet_with_standbys(model, 3, 1, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut routed = Produced::default();

    let (a, b) = (events.len() / 3, events.len() * 2 / 3);
    send_events(&mut client, &events[..a]);
    // The flush makes the live-session population deterministic (the
    // topology gate quiesces frames in flight through the router, but
    // not bytes still unread on the front socket).
    client.flush().expect("barrier");
    let moved = router.handoff(1).expect("handoff partition 1 to the standby");
    assert!(moved.sessions_moved > 0, "live sessions travelled");
    assert_eq!(moved.epoch, 1);

    send_events(&mut client, &events[a..b]);
    client.flush().expect("barrier");
    // Rotate again: the backend freed by the first handoff is the pool
    // now, so a second handoff (of another partition) must succeed.
    let moved = router.handoff(0).expect("handoff partition 0 onto the freed backend");
    assert!(moved.sessions_moved > 0);
    assert_eq!(moved.epoch, 2);

    send_events(&mut client, &events[b..]);
    client.flush().expect("barrier");
    drain(&mut client, &mut routed);

    assert_bit_identical(&routed, &reference);
    let stats = router.stats();
    assert_eq!(stats.partition_epoch, 2);
    assert_eq!(stats.standbys_available, 1, "handoffs rotate, they do not consume");
    assert!(router.metrics().counter("router.handoff_sessions").unwrap_or(0) > 0);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// The rebalance acceptance test: shrink a 3-partition fleet onto 2
/// backends mid-stream. Every live session is drained, merged, re-split
/// with the same pure partitioner that routes future events, and
/// installed — so scoring continues bit-identically on the new topology
/// and the freed backend joins the standby pool.
#[test]
fn rebalance_shrinks_the_fleet_mid_stream_bit_identically() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(12).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &events, cfg.clone());

    let (backends, router) = spawn_fleet_with_standbys(model, 3, 1, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut routed = Produced::default();

    let split = events.len() / 2;
    send_events(&mut client, &events[..split]);
    client.flush().expect("barrier");
    assert_eq!(router.num_backends(), 3);
    let moved = router.rebalance(2).expect("shrink 3 partitions onto 2 backends");
    assert!(moved.sessions_moved > 0, "live sessions re-partitioned");
    assert_eq!(router.num_backends(), 2);

    send_events(&mut client, &events[split..]);
    client.flush().expect("barrier");
    drain(&mut client, &mut routed);

    assert_bit_identical(&routed, &reference);
    assert_eq!(
        router.stats().standbys_available,
        2,
        "the freed backend joined the untouched standby"
    );
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// Typed refusals of the admin surface: impossible topologies and an
/// empty standby pool fail with structured errors (never hangs, never
/// partial flips), and availability-tier admin frames arriving at the
/// *front door* are rejected typed instead of being misrouted.
#[test]
fn admin_surface_fails_typed_on_impossible_requests() {
    let (_, model) = trained();
    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };
    let (backends, router) = spawn_fleet(model, 2, cfg);

    match router.handoff(7) {
        Err(RouterAdminError::NoSuchPartition { partition: 7, partitions: 2 }) => {}
        other => panic!("expected NoSuchPartition, got {other:?}"),
    }
    match router.handoff(0) {
        Err(RouterAdminError::NoStandby) => {}
        other => panic!("expected NoStandby (no pool), got {other:?}"),
    }
    match router.rebalance(0) {
        Err(RouterAdminError::InvalidTopology(_)) => {}
        other => panic!("expected InvalidTopology, got {other:?}"),
    }
    match router.rebalance(3) {
        Err(RouterAdminError::NoStandby) => {}
        other => panic!("expected NoStandby (cannot grow past the pool), got {other:?}"),
    }
    assert_eq!(router.stats().partition_epoch, 0, "failed admin ops never flip the map");

    // Front-door rejection of point-to-point admin frames.
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let rejected = |err: ClientError| match err {
        ClientError::Server { code: ErrorCode::Rejected, trip: None, .. } => {}
        other => panic!("expected typed front-door rejection, got {other:?}"),
    };
    rejected(client.delta().expect_err("delta is point-to-point"));
    rejected(client.drain().expect_err("drain is point-to-point"));
    let empty =
        causaltad_suite::serve::image_to_bytes(&causaltad_suite::serve::FleetImage::default());
    rejected(client.install(empty).expect_err("install is point-to-point"));
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// The barrier-under-membership-change regression guard (with a standby
/// this time): flush barriers hammered across a backend kill must all
/// resolve — served before the kill, restaged onto the promoted standby,
/// or failed typed in the narrow staging race — and once the failover
/// completes, every subsequent barrier must succeed against the new map.
#[test]
fn barriers_across_a_failover_wait_for_the_new_map_or_fail_typed() {
    let (_, model) = trained();
    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };
    let (mut backends, router) = spawn_fleet_with_standbys(model, 2, 1, cfg);
    let mut client = Client::connect(router.local_addr())
        .expect("connect")
        .with_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout set");

    let victim = backends.remove(0);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        victim.shutdown();
    });
    let mut served = 0usize;
    let mut failed = 0usize;
    for _ in 0..200 {
        match client.flush() {
            Ok(_) => served += 1,
            Err(ClientError::Server { .. }) => failed += 1,
            Err(ClientError::Timeout) => {
                panic!("flush hung across the failover (after {served} ok, {failed} failed)")
            }
            Err(other) => panic!("unexpected flush failure: {other}"),
        }
    }
    killer.join().expect("killer thread");
    assert!(served > 0, "barriers kept being served across the failover");

    // Deterministic tail: once the promotion is visible, barriers are
    // all-success again — over both mapped backends.
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.stats().failovers != 1 {
        assert!(Instant::now() < deadline, "failover never completed");
        std::thread::sleep(Duration::from_millis(10));
    }
    for _ in 0..50 {
        client.flush().expect("post-failover barriers always succeed");
    }
    assert_eq!(router.stats().standbys_available, 0);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Checkpoint sweeps: per-link fallback, a dead link mid-chain, pacing
// ---------------------------------------------------------------------------

/// Reads one of the router's per-link counters (`router.backend.N.<name>`).
fn link_counter(router: &RouterServer, idx: usize, name: &str) -> u64 {
    router.metrics().counter(&format!("router.backend.{idx}.{name}")).unwrap_or(0)
}

/// A sweep falls back to a full capture only on the link whose delta
/// chain broke: a `SnapshotRequest` sent straight to backend 0's own
/// front door re-bases that backend's chain behind the router's back, so
/// its next delta no longer extends the router's base. The sweep must
/// serve exactly one full image (backend 0) and one delta (backend 1),
/// the following sweep is all-delta again, and a later failover of the
/// re-based backend is still bit-identical and exactly-once.
#[test]
fn sweep_falls_back_to_full_capture_only_on_the_broken_link() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(12).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &events, cfg.clone());

    let (mut backends, router) = spawn_fleet_with_standbys(model, 2, 1, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut routed = Produced::default();
    let (mut raw_scores, mut raw_completes) = (0usize, 0usize);
    let cuts = [events.len() / 5, events.len() * 2 / 5, events.len() * 3 / 5, events.len()];
    let mut sent = 0usize;
    let mut stream_to = |cut: usize, client: &mut Client, routed: &mut Produced| {
        send_events(client, &events[sent..cut]);
        sent = cut;
        client.flush().expect("barrier");
        let (s, c) = drain_counted(client, routed);
        raw_scores += s;
        raw_completes += c;
    };

    stream_to(cuts[0], &mut client, &mut routed);
    let sweep = router.checkpoint().expect("cold sweep");
    assert_eq!((sweep.full_captures, sweep.delta_captures), (2, 0));
    stream_to(cuts[1], &mut client, &mut routed);
    let sweep = router.checkpoint().expect("warm sweep");
    assert_eq!((sweep.full_captures, sweep.delta_captures), (0, 2));

    // Re-base backend 0's chain out of band.
    Client::connect(backends[0].local_addr())
        .expect("direct connect")
        .snapshot()
        .expect("direct snapshot");
    stream_to(cuts[2], &mut client, &mut routed);
    let sweep = router.checkpoint().expect("sweep over one broken chain");
    assert_eq!((sweep.full_captures, sweep.delta_captures), (1, 1), "only the broken link is full");
    assert_eq!(link_counter(&router, 0, "full_captures"), 2);
    assert_eq!(link_counter(&router, 0, "delta_captures"), 1);
    assert_eq!(link_counter(&router, 1, "full_captures"), 1);
    assert_eq!(link_counter(&router, 1, "delta_captures"), 2);
    let sweep = router.checkpoint().expect("re-armed sweep");
    assert_eq!((sweep.full_captures, sweep.delta_captures), (0, 2), "the fallback re-armed");

    // Kill the re-based backend and finish the stream through the
    // failover.
    backends.remove(0).shutdown();
    stream_to(cuts[3], &mut client, &mut routed);

    assert_bit_identical(&routed, &reference);
    assert_eq!(raw_scores, reference.scores.len(), "every score exactly once");
    assert_eq!(raw_completes, trips.len(), "every completion exactly once");
    assert_eq!(router.stats().failovers, 1);
    assert_eq!(router.stats().responses_dropped, 0);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// The chain-adoption gap: a `SnapshotRequest` sent straight to backend
/// 0 between the router's cold (full) sweep and its first delta sweep
/// re-bases that backend's chain — swallowing the churn in between —
/// before the router ever folded a delta into its base. The churn is
/// split by trip parity so that the even trips move only before the
/// re-base and the odd trips only after it: folding the re-based delta
/// over the cold image would resume every even trip from a stale state.
/// The full capture named its epoch, so the first delta no longer links:
/// the sweep falls back to a full capture on that link alone, and a
/// later failover of the re-based backend is still bit-identical and
/// exactly-once.
#[test]
fn direct_snapshot_before_the_first_delta_falls_back_to_a_full_capture() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(12).collect();
    let interleaved = interleave(&trips);
    let (head, tail) = interleaved.split_at(interleaved.len() / 4);
    let (churn, rest) = tail.split_at(tail.len() / 2);
    let parity = |p: u64| churn.iter().filter(move |ev| trip_of(ev) % 2 == p);
    let events: Vec<Event> =
        head.iter().chain(parity(0)).chain(parity(1)).chain(rest).copied().collect();
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &events, cfg.clone());

    let (mut backends, router) = spawn_fleet_with_standbys(model, 2, 1, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut routed = Produced::default();
    let (mut raw_scores, mut raw_completes) = (0usize, 0usize);
    let even_churn = parity(0).count();
    let cuts = [head.len(), head.len() + even_churn, head.len() + churn.len(), events.len()];
    let mut sent = 0usize;
    let mut stream_to = |cut: usize, client: &mut Client, routed: &mut Produced| {
        send_events(client, &events[sent..cut]);
        sent = cut;
        client.flush().expect("barrier");
        let (s, c) = drain_counted(client, routed);
        raw_scores += s;
        raw_completes += c;
    };

    stream_to(cuts[0], &mut client, &mut routed);
    let sweep = router.checkpoint().expect("cold sweep");
    assert_eq!((sweep.full_captures, sweep.delta_captures), (2, 0));
    // Churn the router's base does not hold yet (even trips), then
    // re-base backend 0's chain out of band: its next delta covers only
    // what follows (odd trips).
    stream_to(cuts[1], &mut client, &mut routed);
    Client::connect(backends[0].local_addr())
        .expect("direct connect")
        .snapshot()
        .expect("direct snapshot");
    stream_to(cuts[2], &mut client, &mut routed);
    let sweep = router.checkpoint().expect("first delta sweep");
    assert_eq!(
        (sweep.full_captures, sweep.delta_captures),
        (1, 1),
        "only the re-based link is full"
    );
    assert_eq!(link_counter(&router, 0, "full_captures"), 2);
    assert_eq!(link_counter(&router, 0, "delta_captures"), 0);

    // Kill the re-based backend and finish the stream through the
    // failover.
    backends.remove(0).shutdown();
    stream_to(cuts[3], &mut client, &mut routed);

    assert_bit_identical(&routed, &reference);
    assert_eq!(raw_scores, reference.scores.len(), "every score exactly once");
    assert_eq!(raw_completes, trips.len(), "every completion exactly once");
    assert_eq!(router.stats().failovers, 1);
    assert_eq!(router.stats().responses_dropped, 0);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// A backend killed between sweeps makes the next sweep fail naming it —
/// and only after every other link's staged capture was finished and
/// folded in: the survivor's delta chain keeps linking sweep after sweep
/// (its captures stay deltas, never a fallback full), which it could not
/// if a capture had been left in flight. A watchdog proves the failing
/// sweeps return instead of hanging on the dead link.
#[test]
fn sweep_over_a_dead_backend_names_it_and_finishes_every_other_link() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(12).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let (mut backends, router) = spawn_fleet(model, 2, cfg);
    let router = Arc::new(router);
    let mut client = Client::connect(router.local_addr()).expect("connect");

    let half = events.len() / 2;
    send_events(&mut client, &events[..half / 2]);
    client.flush().expect("barrier");
    assert_eq!(router.checkpoint().expect("cold sweep").full_captures, 2);
    send_events(&mut client, &events[half / 2..half]);
    client.flush().expect("barrier");
    assert_eq!(router.checkpoint().expect("warm sweep").delta_captures, 2);

    backends.remove(0).shutdown();
    for round in 1..=2u64 {
        let (tx, rx) = std::sync::mpsc::channel();
        let sweeper = Arc::clone(&router);
        let watched = std::thread::spawn(move || {
            let _ = tx.send(sweeper.checkpoint());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(Err(RouterAdminError::Backend { backend: 0, .. })) => {}
            Ok(other) => panic!("sweep {round} over a dead backend 0 gave {other:?}"),
            Err(_) => panic!("sweep {round} hung on the dead backend"),
        }
        watched.join().expect("sweeper thread");
        assert_eq!(link_counter(&router, 1, "delta_captures"), 1 + round, "sweep {round}");
        assert_eq!(link_counter(&router, 1, "full_captures"), 1, "survivor chain intact");
    }

    drop(client);
    Arc::try_unwrap(router).ok().expect("sweepers joined").shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// Sweeps under load over backends that pace the router's link: capture
/// replies far larger than the backends' write high-water make a backend
/// pause reading the link while a reply drains (a trip-less
/// `Backpressure` notice), and a per-connection rate limit pauses it
/// whenever the link overdraws its bucket (a trip-less `Throttled`
/// notice). Both are pacing notices, counted per link: no producer reply
/// is lost, so `responses_dropped` stays 0 and every score is
/// bit-identical.
#[test]
fn sweeps_under_load_drop_no_responses() {
    use causaltad_suite::net::NetConfig;

    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().cycle().take(600).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &events, cfg.clone());
    let net = NetConfig {
        write_highwater: 512,
        rate_limit_segments_per_s: 20_000,
        rate_limit_burst: 500,
        ..NetConfig::default()
    };
    let backends: Vec<NetServer> = (0..3)
        .map(|_| {
            NetServer::builder(Arc::clone(model))
                .fleet_config(cfg.clone())
                .net_config(net.clone())
                .bind("127.0.0.1:0")
                .expect("bind backend")
        })
        .collect();
    let router = RouterServer::builder()
        .backends(backends.iter().take(2).map(|b| b.local_addr()))
        .standby(backends[2].local_addr())
        .bind("127.0.0.1:0")
        .expect("bind router");
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut routed = Produced::default();

    for chunk in events.chunks(events.len().div_ceil(6)) {
        send_events(&mut client, chunk);
        router.checkpoint().expect("sweep under load");
        drain(&mut client, &mut routed);
    }
    client.flush().expect("barrier");
    drain(&mut client, &mut routed);

    assert_bit_identical(&routed, &reference);
    let notices: u64 = (0..2).map(|idx| link_counter(&router, idx, "pacing_notices")).sum();
    assert!(notices > 0, "the backends must have paced the router's links");
    assert_eq!(router.stats().responses_dropped, 0, "pacing notices are not dropped responses");
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// The capture-reply pacing notice on its own, scripted: a backend that
/// answers the sweep's `SnapshotRequest` with a trip-less `Backpressure`
/// notice ("response backlog exceeds write high-water; reads paused")
/// ahead of its image — what a real backend sends when a multi-MB
/// capture reply fills its write buffer. The notice is counted on the
/// link's pacing counter; the sweep succeeds and nothing is dropped.
#[test]
fn capture_backpressure_notice_is_pacing_not_a_dropped_response() {
    use causaltad_suite::net::{read_request, write_response, Request, DEFAULT_MAX_FRAME};
    use causaltad_suite::serve::{image_to_bytes, FleetImage};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted backend");
    let addr = listener.local_addr().expect("scripted backend addr");
    let scripted = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept router link");
        while let Ok(Some(req)) = read_request(&mut sock, DEFAULT_MAX_FRAME) {
            if req == Request::SnapshotRequest {
                let notice = Response::Error {
                    code: ErrorCode::Backpressure,
                    trip: None,
                    retry_after_ms: None,
                    detail: "response backlog exceeds write high-water; reads paused".to_string(),
                };
                let image = image_to_bytes(&FleetImage::default());
                write_response(&mut sock, &notice).expect("write notice");
                write_response(&mut sock, &Response::Snapshot { epoch: 1, image })
                    .expect("write image");
            }
        }
    });
    let router = RouterServer::builder().backend(addr).bind("127.0.0.1:0").expect("bind router");
    let sweep = router.checkpoint().expect("sweep over the scripted backend");
    assert_eq!((sweep.full_captures, sweep.delta_captures), (1, 0));
    assert_eq!(link_counter(&router, 0, "pacing_notices"), 1);
    assert_eq!(router.stats().responses_dropped, 0);
    router.shutdown();
    scripted.join().expect("scripted backend");
}
