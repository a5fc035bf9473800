//! The readiness-driven TCP ingest front-end: one acceptor thread, a
//! small fixed pool of event-loop workers multiplexing every connection
//! over nonblocking sockets, and a trip→connection router feeding
//! score/completion callbacks back to the producer that owns each trip.
//!
//! ## Data flow
//!
//! ```text
//!                    ┌──────────── one poll tick ────────────┐
//! clients ──TADN──▶  worker: read readiness → FrameAssembler │
//!                    │   ingest frames ──▶ cross-connection  │
//!                    │                     cohort ──try_submit_cohort──▶ shards
//!                    │   admin frames  ──▶ inline barriers   │      │
//!                    │   backpressure Error ◀────────────────│◀─────┘ (queue full)
//!                    └──▶ drain dirty outbound queues ──────▶│ sockets
//!
//! shard workers ──on_score / on_complete──▶ Router ──▶ per-conn outbound
//!                                                       queue (wakes the
//!                                                       owning worker)
//! ```
//!
//! Every worker tick coalesces the ingest frames that arrived across
//! *all* of its connections into one **cohort** handed to
//! [`FleetEngine::try_submit_cohort`] — one bounded-queue reservation per
//! target shard instead of one per event, which is where the multi-
//! connection throughput headroom comes from. Submission order inside a
//! cohort preserves each connection's arrival order, shard grouping is
//! stable, and the engine's `push_batch` step is bit-exact versus
//! event-at-a-time submission, so scores are identical to in-process
//! ingest under any connection count.
//!
//! **Backpressure is explicit**: when a target shard's bounded queue is
//! full the whole shard-group of the cohort bounces — never a prefix —
//! and each bounced event earns its producer an
//! [`ErrorCode::Backpressure`] reply naming the trip. The bounced events
//! never entered the engine, so the producer must re-send them **before
//! any later event for those trips** (see [`ErrorCode::Backpressure`]
//! for the pacing contract). The per-connection response queue is
//! bounded too; when a client stops draining responses, further
//! deliveries for it are dropped and counted in
//! [`NetStats::responses_dropped`], and once its write backlog crosses
//! [`NetConfig::write_highwater`] the worker **pauses reading** from it
//! (resuming at half the mark) so one stalled consumer throttles itself,
//! not the tick — healthy connections on the same worker keep flowing.
//!
//! **Ordering**: all responses for one connection travel one FIFO
//! outbound queue, and a shard delivers one trip's callbacks in order,
//! so a client sees its `Score` frames in per-trip segment order, each
//! trip's `TripComplete` after that trip's last `Score`, and a `Stats`
//! reply to `Flush` after every response generated by events it
//! submitted earlier (the cohort is submitted before any admin frame of
//! the same tick is handled).

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use bytes::Bytes;
use causaltad::CausalTad;
use tad_metrics::{Counter, DeferredHistogram, Histogram, MetricsSnapshot, Registry};
use tad_serve::{
    Event, FleetConfig, FleetEngine, FleetImage, FleetSnapshot, PolicyAction, PolicyOutcome,
    ScoreUpdate, TripId, TripOutcome,
};

use tad_serve::ServeError;

use crate::evloop::{Conn, EventSource, Interest, PollSource, PollWaker, ReadStatus, Readiness};
use crate::frame::{
    request_from_bytes, response_to_bytes, ErrorCode, FrameError, Request, Response,
    DEFAULT_MAX_FRAME,
};
use crate::wire::RecvError;

/// Tunables of the network front-end (the engine has its own
/// [`FleetConfig`]).
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Cap on one frame's payload length; frames announcing more are
    /// refused before allocation. Defaults to
    /// [`DEFAULT_MAX_FRAME`] (64 MiB).
    pub max_frame_len: usize,
    /// Bound of each connection's outgoing response queue, in responses.
    /// A client that stops draining loses responses beyond this (counted
    /// in [`NetStats::responses_dropped`]) instead of growing server
    /// memory.
    pub response_queue: usize,
    /// Set `TCP_NODELAY` on accepted sockets (score frames are small and
    /// latency-sensitive).
    pub nodelay: bool,
    /// Event-loop worker threads multiplexing the connections. `0`
    /// (default) sizes to half the machine's parallelism, clamped to
    /// `1..=4` — ingest decode is cheap next to shard scoring, so a few
    /// pollers drive many connections.
    pub event_workers: usize,
    /// Per-connection, per-tick read budget in bytes. A firehosing
    /// connection yields the tick after this much; a level-triggered
    /// poller re-reports it next tick, keeping latency fair across
    /// connections sharing a worker.
    pub read_budget: usize,
    /// Write-backlog mark, in bytes, at which a connection's reads are
    /// paused (a slow consumer must drain responses before sending more
    /// events). Reads resume once the backlog falls to half this.
    pub write_highwater: usize,
    /// Cap on events coalesced into one cross-connection cohort before
    /// the worker submits mid-tick (bounds per-tick submission latency
    /// under firehose load).
    pub max_cohort: usize,
    /// Cap on concurrently open connections across the whole server
    /// (`0` = unlimited, the default). A connection over the quota is
    /// answered with one typed [`ErrorCode::ConnLimit`] error at accept
    /// time — a clean refusal, not a silent hangup — then closed, and
    /// counted in [`NetStats::conns_rejected`]. Enforced against the
    /// global open count, so the quota holds across event workers
    /// (workers adopting simultaneously may overshoot by at most the
    /// worker count).
    pub max_connections: usize,
    /// Reap a connection that has decoded no frame *and* routes no
    /// in-flight trip for this long (`None` = never, the default). The
    /// reaped peer gets a best-effort [`ErrorCode::IdleTimeout`] error
    /// before the close; reaps are counted in [`NetStats::idle_reaped`].
    /// A connection with any live trip claim is never idle — a producer
    /// mid-trip keeps its response route no matter how long it pauses.
    pub idle_timeout: Option<Duration>,
    /// Per-connection sustained ingest rate limit, in events per second
    /// (`0` = off, the default). Enforced as a token bucket: each ingest
    /// event (`TripStart`/`Segment`/`TripEnd`) costs one token; a
    /// connection that overdraws its bucket has its reads paused exactly
    /// like a slow consumer and is told why with one typed
    /// [`ErrorCode::Throttled`] error per episode, carrying a
    /// `retry_after_ms` pacing hint. Events already decoded are always
    /// admitted (the bucket goes negative), so admitted traffic is
    /// bit-identical to an unthrottled run — the limiter changes *when*
    /// frames are read, never what happens to them.
    pub rate_limit_segments_per_s: u64,
    /// Token-bucket capacity for [`NetConfig::rate_limit_segments_per_s`]
    /// — the burst a connection may send from a full bucket before the
    /// sustained rate applies. `0` (the default) uses the per-second rate
    /// as the burst.
    pub rate_limit_burst: u64,
    /// Kernel accept-queue depth requested at bind (default 1024, capped
    /// by the OS `somaxconn`; `0` keeps the platform default, typically
    /// 128). The queue absorbs connect storms while the acceptor thread
    /// is descheduled: with the 128-slot default, a burst of a few
    /// hundred connects on a busy host overflows the queue and the
    /// overflowed peers' SYNs are silently dropped, stalling each of
    /// them ~1s on retransmission before they ever reach the
    /// accept-time quota check.
    pub accept_backlog: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame_len: DEFAULT_MAX_FRAME,
            response_queue: 65_536,
            nodelay: true,
            event_workers: 0,
            read_budget: 256 << 10,
            write_highwater: 1 << 20,
            max_cohort: 8_192,
            max_connections: 0,
            idle_timeout: None,
            rate_limit_segments_per_s: 0,
            rate_limit_burst: 0,
            accept_backlog: 1024,
        }
    }
}

impl NetConfig {
    /// The worker count [`NetConfig::event_workers`] resolves to on this
    /// machine.
    pub fn resolved_workers(&self) -> usize {
        if self.event_workers > 0 {
            return self.event_workers;
        }
        std::thread::available_parallelism().map(|n| n.get() / 2).unwrap_or(1).clamp(1, 4)
    }
}

/// Why the server could not be built or bound.
#[derive(Debug)]
pub enum NetError {
    /// Binding or configuring the listening socket failed.
    Io(std::io::Error),
    /// The fleet engine behind the server could not be built.
    Serve(ServeError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Serve(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ServeError> for NetError {
    fn from(e: ServeError) -> Self {
        NetError::Serve(e)
    }
}

/// Point-in-time counters of the network layer (the engine's own counters
/// live in [`FleetSnapshot`]). The frame counters are server-lifetime
/// totals — they keep counting frames of connections that have since
/// closed; per-connection breakdowns come from
/// [`NetServer::connection_stats`].
#[derive(Clone, Copy, Debug)]
pub struct NetStats {
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Responses dropped because their connection's queue was full or the
    /// connection was gone (slow or dead consumers).
    pub responses_dropped: u64,
    /// Request frames decoded off client sockets.
    pub frames_in: u64,
    /// Response frames written to client sockets.
    pub frames_out: u64,
    /// Backpressure `Error` replies sent (events bounced off a full shard
    /// queue).
    pub backpressure_replies: u64,
    /// Undecodable request frames received (each one costs the sender its
    /// connection).
    pub malformed_frames: u64,
    /// Times a connection's reads were paused because its write backlog
    /// crossed [`NetConfig::write_highwater`] (slow-consumer episodes,
    /// not per-event).
    pub slow_consumer_pauses: u64,
    /// Typed `Throttled` error replies sent — rate-limit episode notices
    /// plus admission-shed replies (one per shed event).
    pub throttled_replies: u64,
    /// Connections reaped by [`NetConfig::idle_timeout`].
    pub idle_reaped: u64,
    /// Connections refused at accept time by
    /// [`NetConfig::max_connections`].
    pub conns_rejected: u64,
}

/// Point-in-time counters of one open connection, from
/// [`NetServer::connection_stats`].
#[derive(Clone, Copy, Debug)]
pub struct ConnectionStats {
    /// Server-side connection id (accept order).
    pub conn_id: u64,
    /// Request frames decoded from this connection.
    pub frames_in: u64,
    /// Response frames written to this connection.
    pub frames_out: u64,
    /// Backpressure `Error` replies sent to this connection.
    pub backpressure_replies: u64,
    /// Undecodable frames received from this connection.
    pub malformed_frames: u64,
}

/// Lock-free per-connection counters shared by the connection's event
/// worker and the delivery path (and aggregated into [`NetStats`] totals
/// on the router).
#[derive(Debug, Default)]
struct ConnCounters {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    backpressure_replies: AtomicU64,
    malformed_frames: AtomicU64,
}

/// Handles into the shared registry for the `net.*` metrics, cached at
/// bind time. Everything here is recorded from event workers only, under
/// a strict discipline: nothing may land in the registry between a
/// `MetricsRequest` reply being built and a local
/// [`NetServer::metrics`] read on a quiesced server — which is why the
/// per-tick sample is staged through a [`DeferredHistogram`] and
/// committed at the *next* tick's start, and why `frames_out` lives only
/// in atomics.
#[derive(Clone)]
struct NetMetrics {
    /// `net.frame_decode_ns`: time decoding each request frame once its
    /// bytes were in memory (socket wait excluded).
    frame_decode_ns: Arc<Histogram>,
    /// `net.flush_roundtrip_ns`: server-side `Flush` barrier time — from
    /// receiving the frame to the `Stats` reply being queued.
    flush_roundtrip_ns: Arc<Histogram>,
    /// `net.poll_tick_ns`: time servicing one readiness tick (wait
    /// excluded). Samples publish one tick late — see the struct docs.
    poll_tick_ns: Arc<Histogram>,
    /// `net.cohort_width`: events per submitted cross-connection cohort.
    cohort_width: Arc<Histogram>,
    /// `net.cohort_conns`: distinct connections contributing to each
    /// submitted cohort (batch-width observability: >1 means the
    /// micro-batching is actually coalescing across producers).
    cohort_conns: Arc<Histogram>,
    /// `net.backpressure_replies`: bounced events (mirrors the
    /// [`NetStats`] counter into the wire-visible registry).
    backpressure: Arc<Counter>,
    /// `net.malformed_frames`: undecodable request frames.
    malformed: Arc<Counter>,
    /// `net.throttled`: typed `Throttled` replies (rate-limit episodes
    /// plus admission sheds).
    throttled: Arc<Counter>,
    /// `net.idle_reaped`: connections reaped by the idle timeout.
    idle_reaped: Arc<Counter>,
    /// `net.conns_rejected`: connections refused by the quota.
    conns_rejected: Arc<Counter>,
}

impl NetMetrics {
    fn register(registry: &Registry) -> Self {
        NetMetrics {
            frame_decode_ns: registry.histogram("net.frame_decode_ns"),
            flush_roundtrip_ns: registry.histogram("net.flush_roundtrip_ns"),
            poll_tick_ns: registry.histogram("net.poll_tick_ns"),
            cohort_width: registry.histogram("net.cohort_width"),
            cohort_conns: registry.histogram("net.cohort_conns"),
            backpressure: registry.counter("net.backpressure_replies"),
            malformed: registry.counter("net.malformed_frames"),
            throttled: registry.counter("net.throttled"),
            idle_reaped: registry.counter("net.idle_reaped"),
            conns_rejected: registry.counter("net.conns_rejected"),
        }
    }
}

/// One connection's outbound response queue, shared between the delivery
/// path (engine shard workers, via the router) and the event worker that
/// owns the connection's socket.
struct Outbound {
    q: Mutex<VecDeque<Response>>,
    cap: usize,
    /// Set while the connection sits on its worker's dirty list; keeps
    /// each push O(1) instead of O(list).
    dirty: AtomicBool,
    dirty_list: Arc<Mutex<Vec<u64>>>,
    wake: Arc<dyn Fn() + Send + Sync>,
    /// The owning worker's thread id: a push from the worker itself
    /// (admin replies, backpressure errors) skips the poller notify — the
    /// worker drains its dirty list before sleeping anyway, and a
    /// self-notify would schedule a spurious wake-up tick.
    worker: ThreadId,
    conn_id: u64,
}

impl Outbound {
    /// Queues a response unless the queue is at capacity. `false` means
    /// dropped — the caller counts it.
    fn push_bounded(&self, resp: Response) -> bool {
        {
            let mut q = self.q.lock().expect("outbound queue");
            if q.len() >= self.cap {
                return false;
            }
            q.push_back(resp);
        }
        self.mark_dirty();
        true
    }

    /// Queues a response unconditionally — for replies that must not be
    /// dropped (admin barriers, frame errors, the slow-consumer notice).
    /// Bounded in practice by the client's own request pacing: each such
    /// reply answers one inbound frame.
    fn push_always(&self, resp: Response) {
        self.q.lock().expect("outbound queue").push_back(resp);
        self.mark_dirty();
    }

    fn mark_dirty(&self) {
        if !self.dirty.swap(true, Ordering::AcqRel) {
            self.dirty_list.lock().expect("dirty list").push(self.conn_id);
            if std::thread::current().id() != self.worker {
                (self.wake)();
            }
        }
    }

    fn pop(&self) -> Option<Response> {
        self.q.lock().expect("outbound queue").pop_front()
    }

    fn is_empty(&self) -> bool {
        self.q.lock().expect("outbound queue").is_empty()
    }
}

/// Routes engine callbacks to the connection that owns each trip.
struct Router {
    conns: RwLock<HashMap<u64, ConnHandle>>,
    trips: RwLock<HashMap<TripId, u64>>,
    responses_dropped: AtomicU64,
    connections_accepted: AtomicU64,
    slow_consumer_pauses: AtomicU64,
    throttled_replies: AtomicU64,
    idle_reaped: AtomicU64,
    conns_rejected: AtomicU64,
    /// Server-lifetime frame totals: per-connection counters die with
    /// their connection, these keep the running sum for [`NetStats`].
    totals: ConnCounters,
}

struct ConnHandle {
    out: Arc<Outbound>,
    counters: Arc<ConnCounters>,
    /// Trips currently routed to this connection — the idle reaper's
    /// "no in-flight work" proof. Incremented on claim (worker thread),
    /// decremented wherever a claim dies (worker releases, shard-side
    /// completions), so a nonzero read means a response may still be
    /// owed.
    live_trips: Arc<AtomicU64>,
}

impl Router {
    fn new() -> Self {
        Router {
            conns: RwLock::new(HashMap::new()),
            trips: RwLock::new(HashMap::new()),
            responses_dropped: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            slow_consumer_pauses: AtomicU64::new(0),
            throttled_replies: AtomicU64::new(0),
            idle_reaped: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            totals: ConnCounters::default(),
        }
    }

    /// Adjusts `conn`'s live-trip count (no-op once the connection is
    /// unregistered — its count dies with the handle). Decrements
    /// saturate: every decrement is paired with one successful claim
    /// removal, but saturation keeps a logic slip from wrapping the
    /// counter and pinning the connection unreapable forever.
    fn bump_live(&self, conn: u64, up: bool) {
        let conns = self.conns.read().expect("router lock");
        if let Some(h) = conns.get(&conn) {
            if up {
                h.live_trips.fetch_add(1, Ordering::Relaxed);
            } else {
                let _ = h
                    .live_trips
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
            }
        }
    }

    /// Claims `trip` for `conn`; false when a live connection already owns
    /// it.
    fn claim(&self, trip: TripId, conn: u64) -> bool {
        let claimed = match self.trips.write().expect("router lock").entry(trip) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(conn);
                true
            }
        };
        if claimed {
            self.bump_live(conn, true);
        }
        claimed
    }

    /// Undoes a [`Router::claim`] after the engine refused the start.
    fn release(&self, trip: TripId, conn: u64) {
        let removed = {
            let mut trips = self.trips.write().expect("router lock");
            if trips.get(&trip) == Some(&conn) {
                trips.remove(&trip);
                true
            } else {
                false
            }
        };
        if removed {
            self.bump_live(conn, false);
        }
    }

    /// Lazily claims `trip` for `conn` when nobody owns it yet — how a
    /// producer re-attaches to its sessions after a warm restart: the
    /// restored engine already holds the session, so no `TripStart` will
    /// ever arrive on the new server, and the first connection to stream
    /// for the trip becomes its response route.
    ///
    /// A claim for a trip the engine turns out not to know (the event is
    /// silently rejected shard-side) lingers until the claiming
    /// connection closes ([`Router::unregister_conn`] sweeps it) — the
    /// map grows with the distinct trip ids a live connection references,
    /// which is why `tad-net` assumes producers on a trusted network (see
    /// the ROADMAP's hardening follow-ons).
    fn ensure_claim(&self, trip: TripId, conn: u64) {
        if self.trips.read().expect("router lock").contains_key(&trip) {
            return;
        }
        let inserted = match self.trips.write().expect("router lock").entry(trip) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(conn);
                true
            }
        };
        if inserted {
            self.bump_live(conn, true);
        }
    }

    /// Best-effort delivery to whichever connection owns `trip`.
    fn deliver(&self, trip: TripId, resp: Response) {
        let conn = match self.trips.read().expect("router lock").get(&trip) {
            Some(&conn) => conn,
            None => {
                self.responses_dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let conns = self.conns.read().expect("router lock");
        let sent = conns.get(&conn).is_some_and(|h| h.out.push_bounded(resp));
        if !sent {
            // Queue full, or the connection is gone: drop and count.
            self.responses_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn route_score(&self, update: &ScoreUpdate) {
        self.deliver(update.id, Response::Score(*update));
    }

    fn route_complete(&self, outcome: TripOutcome) {
        let id = outcome.id;
        self.deliver(id, Response::TripComplete(outcome.into()));
        // The trip is finished: future starts may reuse the id.
        let owner = self.trips.write().expect("router lock").remove(&id);
        if let Some(conn) = owner {
            self.bump_live(conn, false);
        }
    }

    /// Surfaces an engine sanitization outcome to the trip's owner.
    ///
    /// The general case is a [`Response::PolicyNotice`] to whichever
    /// connection routes the trip. `QuarantinedDuplicateStart` is special:
    /// the engine refused a `TripStart` for a trip that is *live in the
    /// engine* but was not claimed on this server (a warm-restarted
    /// session being re-started by a second producer — the accept-time
    /// claim check cannot see those). Without this hook the offender's
    /// claim would linger, silently stealing the real producer's score
    /// route. Answer it with the same typed `Rejected` reply an
    /// accept-time duplicate gets, then release the claim so the true
    /// owner can re-attach. The claim is necessarily the offender's own:
    /// had anyone else held it, [`Router::claim`] would have bounced the
    /// start before it reached the engine.
    fn route_policy(&self, outcome: &PolicyOutcome) {
        let id = outcome.id;
        if outcome.action == PolicyAction::QuarantinedDuplicateStart {
            self.deliver(
                id,
                Response::Error {
                    code: ErrorCode::Rejected,
                    trip: Some(id),
                    retry_after_ms: None,
                    detail: "trip id is live in the engine".to_string(),
                },
            );
            let owner = self.trips.write().expect("router lock").remove(&id);
            if let Some(conn) = owner {
                self.bump_live(conn, false);
            }
        } else {
            self.deliver(
                id,
                Response::PolicyNotice { id, action: outcome.action, seg: outcome.seg },
            );
        }
    }

    fn register_conn(&self, conn: u64, handle: ConnHandle) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
        self.conns.write().expect("router lock").insert(conn, handle);
    }

    fn unregister_conn(&self, conn: u64) {
        self.conns.write().expect("router lock").remove(&conn);
        // Free this connection's routing claims so the trip ids can be
        // re-attached by a reconnecting producer (the engine sessions
        // themselves live on until they end or the TTL reaps them).
        self.trips.write().expect("router lock").retain(|_, owner| *owner != conn);
    }
}

/// Everything the event loop needs that is *not* the I/O: the engine, the
/// response router, the shared metrics registry, and the network
/// tunables. Production wraps one of these behind [`NetServer`]; the
/// deterministic test harness builds one directly and drives the same
/// [`EventLoop`] code with scripted transports.
pub struct IngestCore {
    engine: Arc<FleetEngine>,
    router: Arc<Router>,
    registry: Arc<Registry>,
    metrics: NetMetrics,
    net: NetConfig,
    vocab: u32,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
}

impl IngestCore {
    fn build_inner(
        model: Arc<CausalTad>,
        fleet: FleetConfig,
        net: NetConfig,
        resume: Option<FleetImage>,
    ) -> Result<Arc<IngestCore>, NetError> {
        let vocab = model.vocab() as u32;
        let router = Arc::new(Router::new());

        // One registry shared by the engine and the network layer, so a
        // single `MetricsRequest` answers both `serve.*` and `net.*`.
        let registry = Arc::new(Registry::new());
        let metrics = NetMetrics::register(&registry);

        let mut builder =
            FleetEngine::builder(model).config(fleet).metrics_registry(Arc::clone(&registry));
        if let Some(image) = resume {
            builder = builder.resume(image);
        }
        let score_router = Arc::clone(&router);
        let complete_router = Arc::clone(&router);
        let policy_router = Arc::clone(&router);
        let engine = Arc::new(
            builder
                .on_score(move |update| score_router.route_score(update))
                .on_complete(move |outcome| complete_router.route_complete(outcome))
                .on_policy(move |outcome| policy_router.route_policy(outcome))
                .build()?,
        );

        Ok(Arc::new(IngestCore {
            engine,
            router,
            registry,
            metrics,
            net,
            vocab,
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
        }))
    }

    /// Builds a core over a trained model for driving an [`EventLoop`]
    /// directly — the deterministic-harness entry point; production goes
    /// through [`NetServer::builder`].
    ///
    /// # Errors
    /// [`NetError::Serve`] when the engine cannot be built.
    pub fn build(
        model: Arc<CausalTad>,
        fleet: FleetConfig,
        net: NetConfig,
    ) -> Result<Arc<IngestCore>, NetError> {
        IngestCore::build_inner(model, fleet, net, None)
    }

    /// The fleet engine behind this core.
    pub fn engine(&self) -> &FleetEngine {
        &self.engine
    }

    /// Snapshot of every metric this core records (`serve.*` + `net.*`).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Point-in-time network-layer counters.
    pub fn net_stats(&self) -> NetStats {
        let totals = &self.router.totals;
        NetStats {
            connections_accepted: self.router.connections_accepted.load(Ordering::Relaxed),
            connections_open: self.router.conns.read().expect("router lock").len() as u64,
            responses_dropped: self.router.responses_dropped.load(Ordering::Relaxed),
            frames_in: totals.frames_in.load(Ordering::Relaxed),
            frames_out: totals.frames_out.load(Ordering::Relaxed),
            backpressure_replies: totals.backpressure_replies.load(Ordering::Relaxed),
            malformed_frames: totals.malformed_frames.load(Ordering::Relaxed),
            slow_consumer_pauses: self.router.slow_consumer_pauses.load(Ordering::Relaxed),
            throttled_replies: self.router.throttled_replies.load(Ordering::Relaxed),
            idle_reaped: self.router.idle_reaped.load(Ordering::Relaxed),
            conns_rejected: self.router.conns_rejected.load(Ordering::Relaxed),
        }
    }

    /// Per-connection frame counters for every connection currently open,
    /// sorted by connection id (accept order).
    pub fn connection_stats(&self) -> Vec<ConnectionStats> {
        let conns = self.router.conns.read().expect("router lock");
        let mut out: Vec<ConnectionStats> = conns
            .iter()
            .map(|(&conn_id, handle)| ConnectionStats {
                conn_id,
                frames_in: handle.counters.frames_in.load(Ordering::Relaxed),
                frames_out: handle.counters.frames_out.load(Ordering::Relaxed),
                backpressure_replies: handle.counters.backpressure_replies.load(Ordering::Relaxed),
                malformed_frames: handle.counters.malformed_frames.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by_key(|s| s.conn_id);
        out
    }

    /// Asks every [`EventLoop`] over this core to exit at its next tick
    /// (pair with a source wake; [`NetServer::shutdown`] does both).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Tears the core down once every event loop over it has exited:
    /// drains and shuts the engine down, returning the final counters.
    pub fn finish(core: Arc<IngestCore>) -> FleetSnapshot {
        match Arc::try_unwrap(core) {
            Ok(core) => match Arc::try_unwrap(core.engine) {
                Ok(engine) => engine.shutdown(),
                // Unreachable in practice: every thread holding a clone
                // has exited. Fall back to drop-shutdown (same drain,
                // final counters read just before).
                Err(engine) => {
                    let stats = engine.stats();
                    drop(engine);
                    stats
                }
            },
            Err(core) => {
                let stats = core.engine.stats();
                drop(core);
                stats
            }
        }
    }
}

/// A connection as its event worker sees it: the nonblocking transport
/// state machine plus routing/throttle bookkeeping.
struct WorkerConn<T> {
    conn: Conn<T>,
    out: Arc<Outbound>,
    counters: Arc<ConnCounters>,
    /// Interest currently registered with the source.
    interest: Interest,
    /// Reads paused: write backlog crossed the high-water mark.
    paused: bool,
    /// Reads paused: the rate-limit token bucket is overdrawn (a second,
    /// independent pause reason — either alone keeps reads off).
    throttled: bool,
    /// No more reads ever; flush the remaining backlog, then close.
    closing: bool,
    /// The one-per-pause-episode slow-consumer notice was queued.
    notice_sent: bool,
    /// Rate-limit token bucket (meaningful only when
    /// [`NetConfig::rate_limit_segments_per_s`] is on). Goes negative
    /// when a tick's already-decoded frames overdraw it — those events
    /// are admitted anyway; the deficit prices the pause.
    tokens: f64,
    /// When the bucket last refilled (consume-time and sweep-time).
    last_refill: Instant,
    /// When this connection last decoded a request frame (or was
    /// adopted) — the idle reaper's clock.
    last_activity: Instant,
    /// Shared with the router's [`ConnHandle`]: trips currently routed
    /// here. The idle reaper only fires at zero.
    live_trips: Arc<AtomicU64>,
}

impl<T: Read + Write> WorkerConn<T> {
    /// Whether reads are currently gated off for any reason.
    fn reads_off(&self) -> bool {
        self.paused || self.throttled || self.closing
    }

    /// Whether sweep must revisit this connection next tick even without
    /// fresh I/O on it (it holds state that only settles over time).
    fn sticky(&self) -> bool {
        self.paused || self.throttled || self.closing || self.conn.wants_write()
    }
}

/// One queued-but-not-submitted cohort event's routing facts, for mapping
/// a bounced index back to its connection and trip.
struct CohortEntry {
    conn: u64,
    trip: TripId,
    is_start: bool,
}

/// The readiness-driven ingest loop: reads frames off every ready
/// connection, coalesces their ingest events into one cross-connection
/// cohort per tick for [`FleetEngine::try_submit_cohort`], answers admin
/// barriers inline, and drains dirty outbound queues back to the
/// sockets. Generic over the [`EventSource`] and transport so the exact
/// production code path runs under scripted readiness schedules in
/// tests; production uses `EventLoop<PollSource, TcpStream>`.
pub struct EventLoop<S, T> {
    core: Arc<IngestCore>,
    source: S,
    conns: HashMap<u64, WorkerConn<T>>,
    dirty: Arc<Mutex<Vec<u64>>>,
    wake: Arc<dyn Fn() + Send + Sync>,
    tick_hist: DeferredHistogram,
    cohort: Vec<Event>,
    cohort_meta: Vec<CohortEntry>,
    /// Connections touched this tick (serviced, adopted, or drained) —
    /// the sweep visits these instead of scanning every connection.
    touched: Vec<u64>,
    /// Connections in a state that must be revisited every tick until it
    /// settles (paused, throttled, closing, or holding a write backlog).
    /// Sweep membership = touched ∪ sticky, which keeps the per-tick cost
    /// proportional to *active* connections: hundreds of idle ones no
    /// longer tax every tick.
    sticky: HashSet<u64>,
    /// Count of connections in a throttle episode — while nonzero the
    /// wait is bounded so token refill (a time-driven event) gets ticks
    /// even when no I/O arrives.
    throttled_conns: usize,
    /// Next time the (amortised) idle scan walks all connections.
    next_idle_scan: Instant,
    /// `Flush` barriers decoded this tick, awaiting one shared quiesce:
    /// (connection, frame-arrival instant). A barrier storm — every
    /// producer flushing at once at the end of a round — costs one
    /// engine quiesce per *tick* instead of one per connection.
    pending_flushes: Vec<(u64, Instant)>,
}

impl<S: EventSource<T>, T: Read + Write> EventLoop<S, T> {
    /// Wraps a readiness source around a core. Connections arrive through
    /// [`EventSource::accept_injected`].
    pub fn new(core: Arc<IngestCore>, source: S) -> EventLoop<S, T> {
        let wake = source.wake_handle();
        let tick_hist = core.metrics.poll_tick_ns.deferred();
        EventLoop {
            core,
            source,
            conns: HashMap::new(),
            dirty: Arc::new(Mutex::new(Vec::new())),
            wake,
            tick_hist,
            cohort: Vec::new(),
            cohort_meta: Vec::new(),
            touched: Vec::new(),
            sticky: HashSet::new(),
            throttled_conns: 0,
            next_idle_scan: Instant::now(),
            pending_flushes: Vec::new(),
        }
    }

    /// How long the next wait may block: unbounded unless time-driven
    /// work is pending (idle reaping while connections are open, token
    /// refill while any connection is throttled).
    fn wait_timeout(&self) -> Option<Duration> {
        const THROTTLE_POLL: Duration = Duration::from_millis(20);
        const IDLE_POLL_MIN: Duration = Duration::from_millis(10);
        const IDLE_POLL_MAX: Duration = Duration::from_secs(1);
        let mut timeout: Option<Duration> = None;
        if self.throttled_conns > 0 {
            timeout = Some(THROTTLE_POLL);
        }
        if !self.conns.is_empty() {
            if let Some(idle) = self.core.net.idle_timeout {
                let poll = (idle / 4).clamp(IDLE_POLL_MIN, IDLE_POLL_MAX);
                timeout = Some(timeout.map_or(poll, |t| t.min(poll)));
            }
        }
        timeout
    }

    /// Runs ticks until the source is exhausted (scripted schedules) or
    /// [`IngestCore::request_shutdown`] is observed, then closes every
    /// connection (best-effort flushing what is already queued).
    pub fn run(&mut self) {
        let mut readiness: Vec<Readiness> = Vec::new();
        loop {
            if self.core.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let timeout = self.wait_timeout();
            let more = self.source.wait(&mut readiness, timeout).unwrap_or_default();
            if self.core.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let tick_start = Instant::now();
            // Publish the previous tick's staged sample *before* this
            // tick handles any frame: a `MetricsRequest` answered now
            // must match a local registry read on a then-quiesced server,
            // so no sample may land after its reply.
            self.tick_hist.commit();
            self.adopt_injected();
            for r in readiness.drain(..) {
                self.service(r);
            }
            self.submit_cohort();
            self.drain_pending_flushes();
            self.drain_dirty();
            self.reap_idle(tick_start);
            self.sweep(tick_start);
            self.tick_hist.stage(tick_start.elapsed().as_nanos() as u64);
            if !more {
                break;
            }
        }
        self.teardown_all();
    }

    /// Adopts transports injected since the last tick, enforcing the
    /// connection quota: a transport over [`NetConfig::max_connections`]
    /// is answered with one typed `ConnLimit` error (best-effort flush)
    /// and closed without ever being registered.
    fn adopt_injected(&mut self) {
        let now = Instant::now();
        for io in self.source.accept_injected() {
            let quota = self.core.net.max_connections;
            if quota > 0 && self.core.router.conns.read().expect("router lock").len() >= quota {
                self.core.router.conns_rejected.fetch_add(1, Ordering::Relaxed);
                self.core.metrics.conns_rejected.inc();
                // A clean typed refusal, not a silent hangup: the peer
                // learns why before the close. Best-effort — a peer that
                // cannot take one small write just gets the close.
                let mut conn = Conn::new(io, self.core.net.max_frame_len);
                conn.queue_bytes(&response_to_bytes(&Response::Error {
                    code: ErrorCode::ConnLimit,
                    trip: None,
                    retry_after_ms: None,
                    detail: format!("connection quota reached ({quota})"),
                }));
                let _ = conn.flush_writes();
                continue; // dropping the transport closes it
            }
            let id = self.core.next_conn.fetch_add(1, Ordering::Relaxed);
            let conn = Conn::new(io, self.core.net.max_frame_len);
            let interest = Interest { readable: true, writable: false };
            if self.source.register(id, conn.io(), interest).is_err() {
                // Registration failed: drop the transport (closes it).
                continue;
            }
            let out = Arc::new(Outbound {
                q: Mutex::new(VecDeque::new()),
                cap: self.core.net.response_queue,
                dirty: AtomicBool::new(false),
                dirty_list: Arc::clone(&self.dirty),
                wake: Arc::clone(&self.wake),
                worker: std::thread::current().id(),
                conn_id: id,
            });
            let counters = Arc::new(ConnCounters::default());
            let live_trips = Arc::new(AtomicU64::new(0));
            self.core.router.register_conn(
                id,
                ConnHandle {
                    out: Arc::clone(&out),
                    counters: Arc::clone(&counters),
                    live_trips: Arc::clone(&live_trips),
                },
            );
            let burst = match self.core.net.rate_limit_burst {
                0 => self.core.net.rate_limit_segments_per_s,
                b => b,
            };
            self.conns.insert(
                id,
                WorkerConn {
                    conn,
                    out,
                    counters,
                    interest,
                    paused: false,
                    throttled: false,
                    closing: false,
                    notice_sent: false,
                    tokens: burst as f64,
                    last_refill: now,
                    last_activity: now,
                    live_trips,
                },
            );
            self.touched.push(id);
        }
    }

    /// Handles one readiness report: writes first (freeing backlog may
    /// un-throttle the connection), then budget-limited reads.
    fn service(&mut self, r: Readiness) {
        let Some(wc) = self.conns.get(&r.key) else { return };
        let reads_off = wc.reads_off();
        self.touched.push(r.key);
        if r.writable && self.pump(r.key).is_err() {
            self.reap(r.key);
            return;
        }
        if r.readable && !reads_off {
            self.service_read(r.key);
        }
    }

    /// Reads and dispatches everything the budget allows from one
    /// connection.
    fn service_read(&mut self, id: u64) {
        let budget = self.core.net.read_budget;
        let mut frames: Vec<Bytes> = Vec::new();
        let status = {
            let Some(wc) = self.conns.get_mut(&id) else { return };
            let status = wc.conn.read_frames(budget, &mut frames);
            if !frames.is_empty() {
                // Decoded frames are activity: the idle clock restarts.
                wc.last_activity = Instant::now();
            }
            status
        };
        // Frames completed before any error are valid: dispatch them
        // first, in arrival order.
        for frame in frames {
            if self.conns.get(&id).is_none_or(|wc| wc.closing) {
                break;
            }
            self.handle_frame(id, frame);
        }
        match status {
            Ok(ReadStatus::WouldBlock) | Ok(ReadStatus::BudgetSpent) => {}
            Ok(ReadStatus::Eof) => {
                // Clean frame-aligned hangup: get this tick's events from
                // the peer into the engine before its claims are swept.
                self.submit_cohort();
                self.teardown_begin(id);
            }
            Err(RecvError::Frame(e)) => {
                self.submit_cohort();
                self.note_malformed(id, &e);
                self.teardown_begin(id);
            }
            Err(RecvError::Io(_)) => {
                self.submit_cohort();
                self.teardown_begin(id);
            }
        }
    }

    /// Counts an undecodable frame and queues the reply-then-hangup
    /// `BadFrame` error.
    fn note_malformed(&mut self, id: u64, e: &FrameError) {
        self.core.router.totals.malformed_frames.fetch_add(1, Ordering::Relaxed);
        self.core.metrics.malformed.inc();
        if let Some(wc) = self.conns.get(&id) {
            wc.counters.malformed_frames.fetch_add(1, Ordering::Relaxed);
            // Framing is lost; tell the peer why, then hang up.
            wc.out.push_always(Response::Error {
                code: ErrorCode::BadFrame,
                trip: None,
                retry_after_ms: None,
                detail: e.to_string(),
            });
        }
    }

    /// Decodes and dispatches one complete frame from `id`.
    fn handle_frame(&mut self, id: u64, frame: Bytes) {
        let started = Instant::now();
        let req = match request_from_bytes(frame) {
            Ok(req) => req,
            Err(e) => {
                // Like the EOF/error teardowns in service_read: events
                // this tick accepted from the peer must reach the engine
                // before teardown sweeps the connection's claims, or the
                // engine keeps sessions with no response route.
                self.submit_cohort();
                self.note_malformed(id, &e);
                self.teardown_begin(id);
                return;
            }
        };
        let decode_ns = started.elapsed().as_nanos() as u64;
        if let Some(wc) = self.conns.get(&id) {
            wc.counters.frames_in.fetch_add(1, Ordering::Relaxed);
        }
        self.core.router.totals.frames_in.fetch_add(1, Ordering::Relaxed);
        // Recorded before the request is handled, so the decode of a
        // `MetricsRequest` frame is visible in the snapshot it triggers.
        self.core.metrics.frame_decode_ns.record(decode_ns);
        match req {
            Request::TripStart { .. } | Request::Segment { .. } | Request::TripEnd { .. } => {
                self.handle_ingest(id, req)
            }
            Request::Flush => {
                // Deferred to one shared quiesce at the end of the tick
                // (see `drain_pending_flushes`). The barrier only gets
                // stronger: the quiesce covers everything this tick
                // accepted, including events decoded after this frame.
                self.pending_flushes.push((id, started));
            }
            admin => {
                // Barrier semantics: everything this tick accepted before
                // the admin frame must reach the engine first — including
                // any barrier replies still owed to this connection, so
                // an admin sequence like Flush-then-MetricsRequest keeps
                // its per-connection order and post-quiesce visibility.
                self.submit_cohort();
                self.drain_pending_flushes();
                self.handle_admin(id, admin);
            }
        }
    }

    /// Queues one ingest event into the cross-connection cohort (after
    /// the same vocabulary and claim checks the per-event path ran).
    fn handle_ingest(&mut self, id: u64, req: Request) {
        let core = Arc::clone(&self.core);
        let Some(wc) = self.conns.get(&id) else { return };
        let trip = match req {
            Request::TripStart { id, .. }
            | Request::Segment { id, .. }
            | Request::TripEnd { id } => id,
            _ => unreachable!("caller dispatched an ingest request"),
        };
        // Reject events naming segments outside the model vocabulary up
        // front with a typed reply: the engine would drop them silently
        // (a stats bump only), which would strand a router claim on a
        // trip that can never complete and leave the producer guessing.
        let out_of_vocab = match req {
            Request::TripStart { source, dest, .. } => source >= core.vocab || dest >= core.vocab,
            Request::Segment { seg, .. } => seg >= core.vocab,
            _ => false,
        };
        if out_of_vocab {
            let _ = wc.out.push_bounded(Response::Error {
                code: ErrorCode::Rejected,
                trip: Some(trip),
                retry_after_ms: None,
                detail: "segment outside the model vocabulary".to_string(),
            });
            return;
        }
        let is_start = matches!(req, Request::TripStart { .. });
        if is_start {
            if !core.router.claim(trip, id) {
                // Another live connection owns this trip; duplicate
                // starts on the same connection are also refused (the
                // engine would reject them anyway).
                let _ = wc.out.push_bounded(Response::Error {
                    code: ErrorCode::Rejected,
                    trip: Some(trip),
                    retry_after_ms: None,
                    detail: "trip id is owned by a live session".to_string(),
                });
                return;
            }
        } else {
            // Segment/TripEnd for a trip nobody routes yet: adopt it
            // (warm-restarted sessions never see a TripStart here).
            core.router.ensure_claim(trip, id);
        }
        let ev = req.to_event().expect("ingest requests carry events");
        self.cohort.push(ev);
        self.cohort_meta.push(CohortEntry { conn: id, trip, is_start });
        self.rate_limit_consume(id);
        if self.cohort.len() >= core.net.max_cohort {
            self.submit_cohort();
        }
    }

    /// Charges one rate-limit token for an admitted ingest event and, on
    /// overdrawing the bucket, starts a throttle episode: reads pause
    /// (the same mechanism as a slow consumer) and the peer gets exactly
    /// one typed `Throttled` error with a `retry_after_ms` hint sized to
    /// the deficit. The event itself is *always* admitted — throttling
    /// shapes when frames are read, never what happens to decoded ones —
    /// so admitted traffic stays bit-identical to an unthrottled run.
    fn rate_limit_consume(&mut self, id: u64) {
        let rate = self.core.net.rate_limit_segments_per_s;
        if rate == 0 {
            return;
        }
        let burst = match self.core.net.rate_limit_burst {
            0 => rate,
            b => b,
        } as f64;
        let Some(wc) = self.conns.get_mut(&id) else { return };
        let now = Instant::now();
        let refill = now.duration_since(wc.last_refill).as_secs_f64() * rate as f64;
        wc.last_refill = now;
        wc.tokens = (wc.tokens + refill).min(burst) - 1.0;
        if wc.tokens < 0.0 && !wc.throttled {
            wc.throttled = true;
            self.throttled_conns += 1;
            self.core.router.throttled_replies.fetch_add(1, Ordering::Relaxed);
            self.core.metrics.throttled.inc();
            let deficit = -wc.tokens;
            let retry_after_ms = (deficit / rate as f64 * 1000.0).ceil() as u64;
            // One notice per episode, queued behind whatever responses
            // the peer already has in flight (it is reading those — the
            // pause gates its *sends*, not its reads).
            wc.out.push_always(Response::Error {
                code: ErrorCode::Throttled,
                trip: None,
                retry_after_ms: Some(retry_after_ms.max(1)),
                detail: "ingest rate limit exceeded; reads paused".to_string(),
            });
        }
    }

    /// Hands the accumulated cross-connection cohort to the engine — one
    /// bounded-queue reservation per target shard — and answers every
    /// bounce with the same typed replies the per-event path sent.
    fn submit_cohort(&mut self) {
        if self.cohort.is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.cohort);
        let meta = std::mem::take(&mut self.cohort_meta);
        let width = events.len() as u64;
        let mut distinct = 0u64;
        let mut last: Option<u64> = None;
        let mut seen: HashSet<u64> = HashSet::new();
        for entry in &meta {
            if last != Some(entry.conn) {
                if seen.insert(entry.conn) {
                    distinct += 1;
                }
                last = Some(entry.conn);
            }
        }
        // Inline (not deferred): a cohort is always submitted *before*
        // any admin frame of its tick is answered, so these samples are
        // in every snapshot that could observe their events.
        self.core.metrics.cohort_width.record(width);
        self.core.metrics.cohort_conns.record(distinct);
        let outcome = self.core.engine.try_submit_cohort(events);
        for &idx in &outcome.full {
            let entry = &meta[idx];
            if entry.is_start {
                self.core.router.release(entry.trip, entry.conn);
            }
            self.core.router.totals.backpressure_replies.fetch_add(1, Ordering::Relaxed);
            self.core.metrics.backpressure.inc();
            if let Some(wc) = self.conns.get(&entry.conn) {
                wc.counters.backpressure_replies.fetch_add(1, Ordering::Relaxed);
                // Explicit backpressure instead of unbounded buffering:
                // the event was not accepted; the client re-sends.
                // Best-effort delivery: if even the response queue is
                // full the client is not reading at all.
                let _ = wc.out.push_bounded(Response::Error {
                    code: ErrorCode::Backpressure,
                    trip: Some(entry.trip),
                    retry_after_ms: None,
                    detail: String::new(),
                });
            }
        }
        // Admission sheds: the engine refused these *new* trips at its
        // overload watermark. Same re-send contract as backpressure —
        // the events never entered the engine — but typed `Throttled`
        // with the engine's pacing hint, so a client backs off instead
        // of hammering an overloaded fleet.
        if !outcome.shed.is_empty() {
            let retry_ms = self.core.engine.admission_retry_after().as_millis() as u64;
            for &idx in &outcome.shed {
                let entry = &meta[idx];
                if entry.is_start {
                    self.core.router.release(entry.trip, entry.conn);
                }
                self.core.router.throttled_replies.fetch_add(1, Ordering::Relaxed);
                self.core.metrics.throttled.inc();
                if let Some(wc) = self.conns.get(&entry.conn) {
                    let _ = wc.out.push_bounded(Response::Error {
                        code: ErrorCode::Throttled,
                        trip: Some(entry.trip),
                        retry_after_ms: Some(retry_ms.max(1)),
                        detail: "admission watermark reached".to_string(),
                    });
                }
            }
        }
        for &idx in &outcome.closed {
            let entry = &meta[idx];
            if entry.is_start {
                self.core.router.release(entry.trip, entry.conn);
            }
            if let Some(wc) = self.conns.get(&entry.conn) {
                wc.out.push_always(Response::Error {
                    code: ErrorCode::EngineClosed,
                    trip: Some(entry.trip),
                    retry_after_ms: None,
                    detail: String::new(),
                });
            }
            self.teardown_begin(entry.conn);
        }
    }

    /// Handles one admin (non-ingest) request inline on the worker.
    /// Deadlock-free: engine barriers deliver through [`Outbound`]
    /// pushes, which never block.
    fn handle_admin(&mut self, id: u64, req: Request) {
        let core = Arc::clone(&self.core);
        let engine = &core.engine;
        let Some(wc) = self.conns.get(&id) else { return };
        let out = Arc::clone(&wc.out);
        match req {
            // The capture doubles as a checkpoint: every wire snapshot
            // (re)starts the engine's delta chain, so a follow-up
            // `DeltaRequest` covers exactly the churn after this image.
            // The image itself is bit-identical to a plain capture; the
            // reply names the new chain's epoch, so a peer folding deltas
            // into it can tell a chain re-based by someone else.
            Request::SnapshotRequest => match engine.checkpoint() {
                Ok((image, epoch)) => out.push_always(Response::Snapshot {
                    epoch,
                    image: tad_serve::image_to_bytes(&image),
                }),
                Err(e) => out.push_always(Response::Error {
                    code: ErrorCode::SnapshotFailed,
                    trip: None,
                    retry_after_ms: None,
                    detail: e.to_string(),
                }),
            },
            // One shared registry behind the engine and the net layer
            // means this single reply carries `serve.*` and `net.*`
            // together.
            Request::MetricsRequest => out.push_always(Response::Metrics(engine.metrics())),
            Request::DeltaRequest => match engine.delta_bytes() {
                Ok(delta) => out.push_always(Response::Delta { delta }),
                // Most commonly NoCheckpoint: delta tracking is unarmed
                // until the operator (the router's checkpoint loop) takes
                // one.
                Err(e) => out.push_always(Response::Error {
                    code: ErrorCode::SnapshotFailed,
                    trip: None,
                    retry_after_ms: None,
                    detail: e.to_string(),
                }),
            },
            Request::Install { image } => {
                let delivered = tad_serve::image_from_bytes(image)
                    .map_err(|e| e.to_string())
                    .and_then(|img| engine.restore_sessions(img).map_err(|e| e.to_string()));
                match delivered {
                    Ok(sessions) => out.push_always(Response::Installed { sessions }),
                    Err(detail) => out.push_always(Response::Error {
                        code: ErrorCode::Rejected,
                        trip: None,
                        retry_after_ms: None,
                        detail,
                    }),
                }
            }
            Request::Drain => match engine.drain_sessions() {
                // Shard FIFO order makes this a barrier too: every score
                // for events accepted before the drain is queued ahead of
                // the Drained reply, and none of the moved sessions fire
                // completions here — they are moving, not finishing.
                Ok(image) => {
                    out.push_always(Response::Drained { image: tad_serve::image_to_bytes(&image) })
                }
                Err(e) => out.push_always(Response::Error {
                    code: ErrorCode::SnapshotFailed,
                    trip: None,
                    retry_after_ms: None,
                    detail: e.to_string(),
                }),
            },
            _ => unreachable!("ingest and Flush requests never reach handle_admin"),
        }
    }

    /// Runs the one shared quiesce for every `Flush` barrier decoded
    /// since the last drain, then answers each flusher in arrival order.
    ///
    /// Correctness: the quiesce covers every event submitted before it —
    /// a superset of what each individual barrier promised — so each
    /// `Stats` reply still means "everything you sent before your
    /// `Flush` has been scored". What changes is cost: a barrier storm
    /// (hundreds of producers flushing at the end of a round, landing in
    /// one poll tick) used to pay one full engine quiesce *per
    /// connection*; now it pays one per tick.
    fn drain_pending_flushes(&mut self) {
        if self.pending_flushes.is_empty() {
            return;
        }
        let flushers = std::mem::take(&mut self.pending_flushes);
        let core = Arc::clone(&self.core);
        let engine = &core.engine;
        match engine.flush() {
            Ok(()) => {
                for (id, started) in flushers {
                    let Some(wc) = self.conns.get(&id) else { continue };
                    // The quiesce barrier has passed: every response
                    // caused by events accepted before it is already in
                    // the queue, so FIFO order puts this Stats reply
                    // after all of them.
                    wc.out.push_always(Response::Stats(engine.stats()));
                    // Server-side barrier time: frame received → Stats
                    // reply queued. Recorded on this worker, so a later
                    // `MetricsRequest` always sees it.
                    self.core
                        .metrics
                        .flush_roundtrip_ns
                        .record(started.elapsed().as_nanos() as u64);
                }
            }
            Err(e) => {
                for (id, _) in flushers {
                    let Some(wc) = self.conns.get(&id) else { continue };
                    wc.out.push_always(Response::Error {
                        code: ErrorCode::EngineClosed,
                        trip: None,
                        retry_after_ms: None,
                        detail: e.to_string(),
                    });
                    self.teardown_begin(id);
                }
            }
        }
    }

    /// Moves queued responses into the connection's write buffer (up to
    /// the high-water mark) and flushes toward the transport.
    ///
    /// Frames-out counting happens here, at serialization, and lives only
    /// in the [`NetStats`]/[`ConnectionStats`] atomics — never in the
    /// metrics registry, whose contents must be reproducible at the
    /// moment a `MetricsRequest` is answered.
    fn pump(&mut self, id: u64) -> std::io::Result<()> {
        let highwater = self.core.net.write_highwater;
        let Some(wc) = self.conns.get_mut(&id) else { return Ok(()) };
        loop {
            let mut queued = 0u64;
            while wc.conn.write_backlog() < highwater {
                match wc.out.pop() {
                    Some(resp) => {
                        wc.conn.queue_bytes(&response_to_bytes(&resp));
                        queued += 1;
                    }
                    None => break,
                }
            }
            if queued > 0 {
                wc.counters.frames_out.fetch_add(queued, Ordering::Relaxed);
                self.core.router.totals.frames_out.fetch_add(queued, Ordering::Relaxed);
            }
            let drained = wc.conn.flush_writes()?;
            if !drained || wc.out.is_empty() {
                return Ok(());
            }
            // The socket swallowed everything and more is queued: loop.
        }
    }

    /// Flushes connections whose outbound queues got pushes since the
    /// last drain.
    fn drain_dirty(&mut self) {
        let dirty = std::mem::take(&mut *self.dirty.lock().expect("dirty list"));
        for id in dirty {
            let Some(wc) = self.conns.get(&id) else { continue };
            // Clear the flag *before* draining: a delivery racing in
            // after the final pop re-marks and re-queues the id.
            wc.out.dirty.store(false, Ordering::Release);
            self.touched.push(id);
            if self.pump(id).is_err() {
                self.reap(id);
            }
        }
    }

    /// Amortised idle scan: when due, reaps every connection that has
    /// decoded no frame for [`NetConfig::idle_timeout`] *and* routes no
    /// in-flight trip — a producer mid-trip is never idle, no matter how
    /// long it pauses between segments, so a live trip's claims are never
    /// dropped. The reaped peer gets a best-effort `IdleTimeout` error
    /// ahead of the close. Scan cost is O(connections) but runs at most
    /// every `idle_timeout / 4`, so it never taxes the per-tick path.
    fn reap_idle(&mut self, now: Instant) {
        let Some(idle) = self.core.net.idle_timeout else { return };
        if now < self.next_idle_scan {
            return;
        }
        self.next_idle_scan = now + (idle / 4).min(Duration::from_secs(1));
        let mut victims: Vec<u64> = Vec::new();
        for (&id, wc) in &self.conns {
            if wc.closing {
                continue;
            }
            if wc.live_trips.load(Ordering::Relaxed) != 0 {
                continue;
            }
            if now.duration_since(wc.last_activity) >= idle {
                victims.push(id);
            }
        }
        for id in victims {
            self.core.router.idle_reaped.fetch_add(1, Ordering::Relaxed);
            self.core.metrics.idle_reaped.inc();
            if let Some(wc) = self.conns.get(&id) {
                wc.out.push_always(Response::Error {
                    code: ErrorCode::IdleTimeout,
                    trip: None,
                    retry_after_ms: None,
                    detail: "connection idle past the server's idle timeout".to_string(),
                });
            }
            self.teardown_begin(id);
        }
    }

    /// End-of-tick bookkeeping — slow-consumer pause/resume hysteresis,
    /// rate-limit token refill and throttle-episode exit, interest
    /// reconciliation, and reaping drained closing connections — for the
    /// connections that need it: those touched by this tick's I/O plus
    /// the sticky set (paused/throttled/closing/backlogged). Connections
    /// idling in the neutral state are *not* visited, which is what keeps
    /// a 256-connection server from paying a 256-connection scan on every
    /// tick (a neutral connection's desired interest cannot change
    /// without I/O that would have touched it).
    fn sweep(&mut self, now: Instant) {
        let highwater = self.core.net.write_highwater;
        let rate = self.core.net.rate_limit_segments_per_s;
        let burst = match self.core.net.rate_limit_burst {
            0 => rate,
            b => b,
        } as f64;
        let mut attention = std::mem::take(&mut self.touched);
        attention.extend(self.sticky.iter().copied());
        let mut visited: HashSet<u64> = HashSet::with_capacity(attention.len());
        for id in attention {
            if !visited.insert(id) {
                continue;
            }
            enum Act {
                Reap,
                Reregister(Interest),
                Keep,
            }
            let act = {
                let Some(wc) = self.conns.get_mut(&id) else {
                    self.sticky.remove(&id);
                    continue;
                };
                if rate > 0 && wc.throttled {
                    // Refill the bucket from elapsed wall time; the
                    // episode ends (and reads resume) once the deficit
                    // is repaid. The next overdraw starts a fresh
                    // episode with a fresh notice.
                    let refill = now.duration_since(wc.last_refill).as_secs_f64() * rate as f64;
                    wc.last_refill = now;
                    wc.tokens = (wc.tokens + refill).min(burst);
                    if wc.tokens >= 0.0 {
                        wc.throttled = false;
                        self.throttled_conns -= 1;
                    }
                }
                let backlog = wc.conn.write_backlog();
                if !wc.closing {
                    if !wc.paused && backlog >= highwater {
                        wc.paused = true;
                        self.core.router.slow_consumer_pauses.fetch_add(1, Ordering::Relaxed);
                        if !wc.notice_sent {
                            wc.notice_sent = true;
                            // One typed notice per episode, queued behind
                            // the backlog the client must drain anyway:
                            // when it resumes reading, it learns why its
                            // sends stalled.
                            wc.out.push_always(Response::Error {
                                code: ErrorCode::Backpressure,
                                trip: None,
                                retry_after_ms: None,
                                detail: "response backlog exceeds write high-water; reads paused"
                                    .to_string(),
                            });
                        }
                    } else if wc.paused && backlog <= highwater / 2 {
                        wc.paused = false;
                        wc.notice_sent = false;
                    }
                }
                let outbound_empty = wc.out.is_empty();
                if wc.closing && outbound_empty && !wc.conn.wants_write() {
                    Act::Reap
                } else {
                    if wc.sticky() || !outbound_empty {
                        self.sticky.insert(id);
                    } else {
                        self.sticky.remove(&id);
                    }
                    let desired = Interest {
                        readable: !wc.reads_off(),
                        writable: wc.conn.wants_write() || !outbound_empty,
                    };
                    if desired != wc.interest {
                        Act::Reregister(desired)
                    } else {
                        Act::Keep
                    }
                }
            };
            match act {
                Act::Reap => self.reap(id),
                Act::Reregister(desired) => {
                    let ok = {
                        let wc = self.conns.get_mut(&id).expect("conn not reaped this tick");
                        self.source.reregister(id, wc.conn.io(), desired).is_ok()
                    };
                    if ok {
                        if let Some(wc) = self.conns.get_mut(&id) {
                            wc.interest = desired;
                        }
                    } else {
                        self.reap(id);
                    }
                }
                Act::Keep => {}
            }
        }
    }

    /// Stops routing to (and reading from) `id`; the connection lives on
    /// write-only until its queued responses are flushed, then closes.
    fn teardown_begin(&mut self, id: u64) {
        self.core.router.unregister_conn(id);
        if let Some(wc) = self.conns.get_mut(&id) {
            wc.closing = true;
            // Closing connections settle over ticks (flush, then reap):
            // sweep must keep visiting even without fresh I/O on them.
            self.sticky.insert(id);
        }
    }

    /// Drops a connection now: unroutes it, removes the source
    /// registration, and closes the transport.
    fn reap(&mut self, id: u64) {
        self.core.router.unregister_conn(id);
        self.sticky.remove(&id);
        if let Some(wc) = self.conns.remove(&id) {
            if wc.throttled {
                self.throttled_conns -= 1;
            }
            let _ = self.source.deregister(id, wc.conn.io());
            // Dropping the transport closes it.
        }
    }

    /// Shutdown path: best-effort flush of whatever is queued, then close
    /// everything.
    fn teardown_all(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let _ = self.pump(id);
            self.reap(id);
        }
    }
}

/// Builder for [`NetServer`]; start from [`NetServer::builder`].
pub struct NetServerBuilder {
    model: Arc<CausalTad>,
    fleet: FleetConfig,
    net: NetConfig,
    resume: Option<FleetImage>,
}

impl NetServerBuilder {
    /// Overrides the engine tunables (shards, queue bounds, TTL, …).
    pub fn fleet_config(mut self, cfg: FleetConfig) -> Self {
        self.fleet = cfg;
        self
    }

    /// Overrides the network tunables (frame cap, worker count, budgets,
    /// …).
    pub fn net_config(mut self, cfg: NetConfig) -> Self {
        self.net = cfg;
        self
    }

    /// Seeds the engine from a [`FleetImage`] (warm restart) — typically
    /// one served over the wire by another server's `SnapshotRequest`.
    pub fn resume(mut self, image: FleetImage) -> Self {
        self.resume = Some(image);
        self
    }

    /// Binds the listening socket, builds the engine with its callbacks
    /// routed to the network layer, and starts the acceptor plus the
    /// event-loop worker pool.
    ///
    /// # Errors
    /// [`NetError::Io`] when the socket cannot be bound or a poller
    /// cannot be created, [`NetError::Serve`] when the engine cannot be
    /// built (untrained model, bad config, or an unusable resume image).
    pub fn bind(self, addr: impl ToSocketAddrs) -> Result<NetServer, NetError> {
        let NetServerBuilder { model, fleet, net, resume } = self;
        let listener = TcpListener::bind(addr)?;
        widen_accept_backlog(&listener, net.accept_backlog);
        let local_addr = listener.local_addr()?;
        let workers = net.resolved_workers();
        let core = IngestCore::build_inner(model, fleet, net, resume)?;

        let mut wakers = Vec::with_capacity(workers);
        let mut worker_threads = Vec::with_capacity(workers);
        for i in 0..workers {
            let source = PollSource::new()?;
            wakers.push(source.waker());
            let core = Arc::clone(&core);
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("tad-net-ev-{i}"))
                    .spawn(move || EventLoop::new(core, source).run())
                    .expect("spawn event worker"),
            );
        }

        let acceptor = {
            let core = Arc::clone(&core);
            let wakers = wakers.clone();
            std::thread::Builder::new()
                .name("tad-net-acceptor".to_string())
                .spawn(move || accept_loop(listener, core, wakers))
                .expect("spawn acceptor")
        };

        Ok(NetServer {
            core: Some(core),
            local_addr,
            wakers,
            acceptor: Some(acceptor),
            workers: worker_threads,
        })
    }
}

/// A running TCP ingest front-end over a [`FleetEngine`]. Construct with
/// [`NetServer::builder`]; see the module docs for the data flow and the
/// crate docs for the wire format.
pub struct NetServer {
    core: Option<Arc<IngestCore>>,
    local_addr: SocketAddr,
    wakers: Vec<PollWaker>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Starts building a server over a trained model. Bind to port 0 to
    /// let the OS pick a free port (read it back with
    /// [`NetServer::local_addr`]).
    pub fn builder(model: Arc<CausalTad>) -> NetServerBuilder {
        NetServerBuilder {
            model,
            fleet: FleetConfig::default(),
            net: NetConfig::default(),
            resume: None,
        }
    }

    fn core(&self) -> &Arc<IngestCore> {
        self.core.as_ref().expect("core lives until shutdown")
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The fleet engine behind the server — for in-process snapshots,
    /// stats handles, or mixing local [`FleetEngine::submit`] traffic with
    /// network ingest.
    pub fn engine(&self) -> &FleetEngine {
        self.core().engine()
    }

    /// Point-in-time engine counters (shorthand for
    /// `self.engine().stats()`).
    pub fn stats(&self) -> FleetSnapshot {
        self.engine().stats()
    }

    /// Point-in-time network-layer counters.
    pub fn net_stats(&self) -> NetStats {
        self.core().net_stats()
    }

    /// Per-connection frame counters for every connection currently open,
    /// sorted by connection id (accept order). Closed connections are
    /// gone from this view; their frames remain in the [`NetStats`]
    /// totals.
    pub fn connection_stats(&self) -> Vec<ConnectionStats> {
        self.core().connection_stats()
    }

    /// Snapshot of every metric this server records — the same snapshot a
    /// [`Request::MetricsRequest`] returns over the wire (`serve.*` from
    /// the engine's shards plus `net.*` from the front-end; they share one
    /// registry).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core().registry.snapshot()
    }

    /// The registry behind [`NetServer::metrics`] — for registering
    /// process-local metrics that should ride along in the same wire
    /// snapshot.
    pub fn metrics_registry(&self) -> Arc<Registry> {
        Arc::clone(&self.core().registry)
    }

    /// Stops accepting, closes every connection, drains and shuts the
    /// engine down (flushing still-live sessions to their owners where
    /// possible), and returns the final engine counters.
    pub fn shutdown(mut self) -> FleetSnapshot {
        self.stop_threads();
        let core = self.core.take().expect("first shutdown call");
        IngestCore::finish(core)
    }

    /// Signals and joins the acceptor and every event worker.
    fn stop_threads(&mut self) {
        let Some(core) = self.core.as_ref() else { return };
        core.request_shutdown();
        // Unblock the acceptor's blocking accept with a throwaway
        // connection; it re-checks the flag per iteration.
        let _ = TcpStream::connect(self.local_addr);
        for waker in &self.wakers {
            waker.wake();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for handle in std::mem::take(&mut self.workers) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.core.is_some() {
            self.stop_threads();
            // Dropping the core's engine Arc drains and joins the shard
            // workers (FleetEngine's own Drop).
        }
    }
}

/// Accepts connections and deals them round-robin to the event workers
/// (a worker adopts its share at the next tick).
/// Re-issues `listen(2)` on an already-listening socket to request a
/// deeper accept queue than the `std` default of 128 ([`TcpListener`]
/// exposes no backlog parameter). On Linux a second `listen` on a
/// listening socket just updates the backlog, and the kernel clamps the
/// request to `somaxconn` — so this is best-effort by construction and
/// the return value is deliberately ignored. `0` keeps the std default.
///
/// Why it matters: the accept queue absorbs connect storms while the
/// acceptor thread is descheduled. With the 128-slot default, a burst of
/// a few hundred connects on a busy host overflows the queue; the
/// overflowed peers' SYNs are silently dropped and each stalls ~1s on
/// retransmission. Exposed for other listening front doors (the router
/// uses it for its front socket).
#[cfg(unix)]
pub fn widen_accept_backlog(listener: &TcpListener, backlog: usize) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    if backlog == 0 {
        return;
    }
    let capped = i32::try_from(backlog).unwrap_or(i32::MAX);
    // SAFETY: `listen` on a valid listening fd mutates only kernel-side
    // socket state; the fd stays owned by `listener`.
    unsafe {
        let _ = listen(listener.as_raw_fd(), capped);
    }
}

/// No-op fallback where re-`listen` semantics are not guaranteed.
#[cfg(not(unix))]
pub fn widen_accept_backlog(_listener: &TcpListener, _backlog: usize) {}

fn accept_loop(listener: TcpListener, core: Arc<IngestCore>, wakers: Vec<PollWaker>) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if core.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if core.net.nodelay {
            let _ = stream.set_nodelay(true);
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        wakers[next % wakers.len()].inject(stream);
        next += 1;
    }
}
