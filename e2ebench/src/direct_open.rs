//! `direct_open`: an open-loop, fixed-rate schedule into one `NetServer`.
//!
//! About 2,000 trips are live at any time; each finished trip is replaced
//! at once. Event `i` goes to live slot `i % LIVE`, so a trip in slot `s`
//! that started at round `k0` streams its segment `seq` as event
//! `s + LIVE·(k0 + seq)` — the receiver maps a `Score` frame back to its
//! event, and so to its due time, without per-event shared state.
//!
//! Every request is timed from the moment it was *due*, not from when the
//! generator got round to sending it, so a stall is charged to every
//! request it delayed. The run is a reference phase at a fixed rate, a
//! saturation phase that keeps a bounded number of segments outstanding,
//! then a ladder of fixed-rate probes that homes in on the knee: the rate
//! above which p99 round trip exceeds the limit or the backlog grows.
//! Every phase ends at a flush barrier, so the next starts empty.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use tad_net::{NetConfig, NetServer, Request, Response, DEFAULT_MAX_FRAME};
use tad_serve::{Completion, FleetConfig};

use crate::setup::{self, Reference, TripPlan};
use crate::stats::{self, Summary};
use crate::trace::{segment_id, Tracer};
use crate::{procfs, Report};

/// Trips live at once.
const LIVE: u64 = 2_000;
/// The reference phase's rate, well below the knee.
const REFERENCE_RATE: f64 = 50_000.0;
/// The ladder's latency limit on p99 score round trip.
const P99_LIMIT_NS: f64 = 50e6;
/// The ladder starts at `LADDER_START` and moves by a ratio between
/// `MIN_STEP` and `MAX_STEP`: up after a passing probe, down after a
/// failing one.
const LADDER_START: f64 = 200_000.0;
const MAX_STEP: f64 = 1.25;
const MIN_STEP: f64 = 1.02;
/// No probe offers more than this; the generator could not keep up.
const LADDER_MAX: f64 = 1_500_000.0;
/// A traced run keeps segment-level spans for one trip (and one reply
/// read) in this many.
const TRACE_ONE_IN: u64 = 16;
/// Segments kept outstanding while measuring the saturated rate.
const IN_FLIGHT: u64 = 32_768;
/// Length of one ladder probe and of one reference-phase window.
const PROBE_S: f64 = 1.0;
const WINDOW_S: f64 = 0.5;

/// One planned trip: the slot it occupies, the round its first segment is
/// due in, its walk and its length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedTrip {
    pub slot: u32,
    pub k0: u32,
    pub walk: u16,
    pub len: u8,
}

/// Walks the schedule event by event: which trip event `i` belongs to.
/// Trip ids are handed out in order of first event, so the cursor
/// reproduces [`Plan::new`] exactly.
pub struct Cursor {
    slots: Vec<(u32, u32)>,
    next_id: u32,
    i: u64,
}

impl Cursor {
    pub fn new() -> Cursor {
        Cursor { slots: vec![(0, 0); LIVE as usize], next_id: 0, i: 0 }
    }

    /// The next event's (index, trip id, seq).
    pub fn next(&mut self, trips: &[PlannedTrip]) -> (usize, u64, u32) {
        let i = self.i;
        let cur = &mut self.slots[(i % LIVE) as usize];
        if cur.1 == 0 {
            *cur = (self.next_id, u32::from(trips[self.next_id as usize].len));
            self.next_id += 1;
        }
        cur.1 -= 1;
        self.i += 1;
        let id = cur.0;
        (i as usize, u64::from(id), (i / LIVE) as u32 - trips[id as usize].k0)
    }
}

/// The schedule's trips, enough for its first `events` events.
#[derive(Debug, PartialEq, Eq)]
pub struct Plan {
    pub trips: Vec<PlannedTrip>,
    pub events: usize,
}

impl Plan {
    pub fn new(seed: u64, events: usize) -> Plan {
        let tp = TripPlan::new(seed);
        let mut trips = Vec::new();
        let mut remaining = vec![0u32; LIVE as usize];
        for i in 0..events as u64 {
            let slot = (i % LIVE) as usize;
            if remaining[slot] == 0 {
                let id = trips.len() as u64;
                let len = tp.len(id);
                trips.push(PlannedTrip {
                    slot: slot as u32,
                    k0: (i / LIVE) as u32,
                    walk: tp.walk(id) as u16,
                    len: len as u8,
                });
                remaining[slot] = len;
            }
            remaining[slot] -= 1;
        }
        Plan { trips, events }
    }

    /// The event index of segment `seq` of trip `id`, if planned.
    pub fn event_of(&self, id: u64, seq: u32) -> Option<usize> {
        let t = self.trips.get(usize::try_from(id).ok()?)?;
        if seq >= u32::from(t.len) {
            return None;
        }
        let i = u64::from(t.slot) + LIVE * (u64::from(t.k0) + u64::from(seq));
        usize::try_from(i).ok().filter(|&i| i < self.events)
    }
}

/// Round-trip time charged to a request: from when it was due, so time
/// the generator spent late counts against the system it was waiting on.
pub fn rtt_ns(due_ns: u64, recv_ns: u64) -> u64 {
    recv_ns.saturating_sub(due_ns)
}

/// Whether a phase's backlog (events due minus scores received, sampled
/// over the phase) grew: the mean of its last quarter exceeds the mean of
/// its second quarter (the first is ramp-up) by more than 10 ms of work at
/// the phase's rate.
pub fn backlog_grows(samples: &[(f64, f64)], rate: f64) -> bool {
    let n = samples.len();
    if n < 8 {
        return false;
    }
    let mean = |s: &[(f64, f64)]| s.iter().map(|&(_, b)| b).sum::<f64>() / s.len() as f64;
    mean(&samples[n * 3 / 4..]) > mean(&samples[n / 4..n / 2]) + rate * 0.010
}

/// An adaptive staircase over probe rates. The step ratio shrinks to its
/// square root at every reversal (a pass after a failure or the reverse)
/// and grows back to its square after two further moves the same way, so
/// one noisy probe costs little and the probes settle around the knee.
pub struct Staircase {
    pub rate: f64,
    step: f64,
    last: Option<bool>,
    same: u32,
    /// Rates of the probes whose outcome reversed the direction.
    reversals: Vec<f64>,
    highest_pass: f64,
}

impl Staircase {
    pub fn new() -> Staircase {
        Staircase {
            rate: LADDER_START,
            step: MAX_STEP,
            last: None,
            same: 0,
            reversals: Vec::new(),
            highest_pass: 0.0,
        }
    }

    /// Books the outcome of a probe at `self.rate` and moves to the next.
    pub fn advance(&mut self, pass: bool) {
        match self.last {
            Some(last) if last != pass => {
                self.reversals.push(self.rate);
                self.step = self.step.sqrt().max(MIN_STEP);
                self.same = 0;
            }
            Some(_) => {
                self.same += 1;
                if self.same == 2 {
                    self.step = (self.step * self.step).min(MAX_STEP);
                    self.same = 0;
                }
            }
            None => {}
        }
        if pass {
            self.highest_pass = self.highest_pass.max(self.rate);
        }
        self.last = Some(pass);
        let next = if pass { self.rate * self.step } else { self.rate / self.step };
        self.rate = next.min(LADDER_MAX);
    }

    /// The knee: the geometric mean of the last two reversal rates — the
    /// last bracket, one passing and one failing probe, at the finest step
    /// reached. Without a reversal, the highest passing rate.
    pub fn knee(&self) -> f64 {
        let last = &self.reversals[self.reversals.len().saturating_sub(2)..];
        if last.is_empty() {
            return self.highest_pass;
        }
        (last.iter().map(|r| r.ln()).sum::<f64>() / last.len() as f64).exp()
    }
}

/// The saturated scoring rate: the median rate between consecutive
/// `marks` over the middle half of those that fall in scores `lo..=hi`
/// (the first and last quarters are ramp-up and drain).
pub fn saturated_rate(marks: &[(u64, u64)], lo: u64, hi: u64) -> f64 {
    let inside: Vec<&(u64, u64)> = marks.iter().filter(|m| (lo..=hi).contains(&m.1)).collect();
    let n = inside.len();
    let rates: Vec<f64> = inside[n / 4..n - n / 4]
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) as f64 * 1e9 / (w[1].0 - w[0].0).max(1) as f64)
        .collect();
    stats::median(&rates)
}

/// The receiver marks its progress every this many scores.
const MARK_EVERY: u64 = 8_192;

/// Round trips stored per event: 0 means no reply (yet).
const NO_REPLY: u32 = 0;

/// What one phase offered and how it went.
struct PhaseOutcome {
    rate: f64,
    first: usize,
    sent: usize,
    planned: usize,
    backlog: Vec<(f64, f64)>,
    /// Scores received before the phase started.
    scored_before: u64,
    lateness_ns: Vec<f64>,
    /// Consecutive windows: (first event, events, CPU ns of all threads).
    windows: Vec<(usize, usize, u64)>,
    groups: BTreeMap<&'static str, f64>,
    /// The receiver's view at the barrier: p99 round trip and replies
    /// missing for this phase's events.
    p99_ns: f64,
    missing: u64,
}

impl PhaseOutcome {
    /// Whether a ladder probe met the limit: everything offered on time
    /// and answered, p99 within the limit, and no growing backlog.
    fn passes(&self) -> bool {
        self.sent == self.planned
            && self.missing == 0
            && self.p99_ns <= P99_LIMIT_NS
            && !backlog_grows(&self.backlog, self.rate)
    }
}

/// What the receiver saw over the whole run.
struct Received {
    /// Round trips of the phase in progress, by event index within it.
    cur: Vec<u32>,
    /// Round trips of the reference phases, in phase order.
    kept: Vec<Vec<u32>>,
    /// (receive ns, scores so far) every `MARK_EVERY` scores.
    marks: Vec<(u64, u64)>,
    mismatches: u64,
    completions_ok: u64,
    completions_bad: u64,
    errors: BTreeMap<String, u64>,
    tracer: Tracer,
}

/// Shared between the generator and the receiver.
struct Shared {
    plan: Plan,
    reference: Arc<Reference>,
    /// Per phase, published before its first event is sent:
    /// (first event, start ns, ns between events).
    phases: Mutex<Vec<(usize, u64, f64)>>,
    scored: AtomicU64,
    /// Set while the traced reference phase runs.
    tracing: AtomicBool,
    epoch: Instant,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The first event of event `i`'s phase, and when `i` was due.
    fn phase_due(&self, i: usize) -> (usize, u64) {
        let phases = self.phases.lock().expect("phase table");
        let &(first, t0, period) =
            phases.iter().rev().find(|p| p.0 <= i).expect("event of a published phase");
        (first, t0 + ((i - first) as f64 * period) as u64)
    }
}

/// Reads every reply, times and checks it. At each barrier it summarises
/// the phase the generator announced on `ranges` and answers on `barriers`.
fn receiver(
    shared: Arc<Shared>,
    stream: TcpStream,
    ranges: mpsc::Receiver<(usize, bool)>,
    barriers: mpsc::Sender<(f64, u64)>,
    trace: bool,
) -> Received {
    let mut r = BufReader::with_capacity(1 << 16, stream);
    let mut out = Received {
        cur: Vec::new(),
        kept: Vec::new(),
        marks: Vec::new(),
        mismatches: 0,
        completions_ok: 0,
        completions_bad: 0,
        errors: BTreeMap::new(),
        tracer: Tracer::new(trace, shared.epoch),
    };
    let mut reads = 0u64;
    let bump = |errors: &mut BTreeMap<String, u64>, kind: String| {
        *errors.entry(kind).or_insert(0) += 1;
    };
    loop {
        reads += 1;
        let traced =
            trace && reads.is_multiple_of(TRACE_ONE_IN) && shared.tracing.load(Ordering::Relaxed);
        let span = if traced { out.tracer.begin("read_response", "net", None, 0) } else { None };
        let resp = tad_net::read_response(&mut r, DEFAULT_MAX_FRAME);
        out.tracer.end(span);
        let resp = match resp {
            Ok(Some(resp)) => resp,
            Ok(None) => break,
            Err(e) => {
                bump(&mut out.errors, format!("transport: {e}"));
                break;
            }
        };
        match resp {
            Response::Score(u) => {
                let now = shared.now_ns();
                let Some(i) = shared.plan.event_of(u.id, u.seq) else {
                    bump(&mut out.errors, "score for an unplanned segment".into());
                    continue;
                };
                if let Some(s) = span {
                    out.tracer.spans[s].id = segment_id(u.id, u.seq);
                }
                let check = if traced { out.tracer.begin("check", "bench", span, 0) } else { None };
                let (first, due) = shared.phase_due(i);
                let k = i - first;
                if out.cur.len() <= k {
                    out.cur.resize(k + 1, NO_REPLY);
                }
                out.cur[k] = rtt_ns(due, now).clamp(1, u64::from(u32::MAX)) as u32;
                let walk = usize::from(shared.plan.trips[u.id as usize].walk);
                if !shared.reference.matches(walk, u.seq, u.score) {
                    out.mismatches += 1;
                }
                out.tracer.end(check);
                let scored = shared.scored.fetch_add(1, Ordering::Relaxed) + 1;
                if scored.is_multiple_of(MARK_EVERY) {
                    out.marks.push((now, scored));
                }
            }
            Response::TripComplete(c) => {
                let ok = shared.plan.trips.get(c.id as usize).is_some_and(|t| {
                    let last = u32::from(t.len) - 1;
                    c.completion == Completion::Ended
                        && c.segments() == usize::from(t.len)
                        && shared.reference.matches(usize::from(t.walk), last, c.score)
                });
                if ok {
                    out.completions_ok += 1;
                } else {
                    out.completions_bad += 1;
                }
            }
            Response::Stats(_) => {
                let (sent, keep) = ranges.recv().expect("phase size precedes its barrier");
                out.cur.resize(sent, NO_REPLY);
                let missing = out.cur.iter().filter(|&&r| r == NO_REPLY).count() as u64;
                let _ = barriers.send((replied(&out.cur).p99, missing));
                if keep {
                    out.kept.push(std::mem::take(&mut out.cur));
                } else {
                    out.cur.clear();
                }
            }
            Response::Error { code, .. } => bump(&mut out.errors, format!("error reply {code:?}")),
            other => {
                let kind: String = format!("unexpected reply {other:?}").chars().take(48).collect();
                bump(&mut out.errors, kind);
            }
        }
    }
    out
}

/// Summary of the round trips in `rtt` that got a reply.
fn replied(rtt: &[u32]) -> Summary {
    Summary::of(rtt.iter().filter(|&&r| r != NO_REPLY).map(|&r| f64::from(r)).collect())
}

/// The generator's side of the connection.
struct Generator {
    shared: Arc<Shared>,
    w: BufWriter<TcpStream>,
    cursor: Cursor,
    ranges: mpsc::Sender<(usize, bool)>,
    barriers: mpsc::Receiver<(f64, u64)>,
    tracer: Tracer,
}

impl Generator {
    /// Writes the frames of the next event: the trip's start before its
    /// first segment, the segment, and its end after the last.
    fn send_next(&mut self, parent: Option<usize>) -> std::io::Result<()> {
        let sh = &self.shared;
        let (_, id, seq) = self.cursor.next(&sh.plan.trips);
        let t = sh.plan.trips[id as usize];
        let walk = usize::from(t.walk);
        let span = if id.is_multiple_of(TRACE_ONE_IN) {
            self.tracer.begin("write_request", "net", parent, segment_id(id, seq))
        } else {
            None
        };
        if seq == 0 {
            let (source, dest) = sh.reference.source_dest(walk);
            let start = Request::TripStart { id, source, dest, time_slot: setup::slot_of(walk) };
            tad_net::write_request(&mut self.w, &start)?;
        }
        let seg = sh.reference.segment(walk, seq);
        tad_net::write_request(&mut self.w, &Request::Segment { id, seg })?;
        if seq + 1 == u32::from(t.len) {
            tad_net::write_request(&mut self.w, &Request::TripEnd { id })?;
        }
        self.tracer.end(span);
        Ok(())
    }

    /// Ends a phase of `sent` events: a flush barrier, and the receiver's
    /// (p99 round trip, replies missing) for the phase. The receiver keeps
    /// the phase's round trips when `keep` is set.
    fn barrier(&mut self, sent: usize, keep: bool) -> std::io::Result<(f64, u64)> {
        self.ranges.send((sent, keep)).map_err(|_| std::io::Error::other("receiver gone"))?;
        tad_net::write_request(&mut self.w, &Request::Flush)?;
        self.w.flush()?;
        self.barriers
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| std::io::Error::other("flush barrier never answered"))
    }

    /// Keeps between `in_flight / 2` and `in_flight` segments outstanding
    /// for `dur` seconds, topping up as scores come back: the server never
    /// idles, its queues stay bounded, and the generator wakes and writes
    /// in large bursts rather than taking CPU from the server. Round trips
    /// of this phase carry no meaning.
    fn saturate(&mut self, in_flight: u64, dur: f64) -> std::io::Result<PhaseOutcome> {
        let first = self.cursor.i as usize;
        let limit = self.shared.plan.events - first;
        let scored0 = self.shared.scored.load(Ordering::Relaxed);
        let t0 = self.shared.now_ns();
        self.shared.phases.lock().expect("phase table").push((first, t0, 0.0));
        let mut j = 0usize;
        while j < limit && self.shared.now_ns() - t0 < (dur * 1e9) as u64 {
            let done = self.shared.scored.load(Ordering::Relaxed) - scored0;
            let outstanding = j as u64 - done;
            if outstanding > in_flight / 2 {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            let room = (in_flight - outstanding) as usize;
            for _ in 0..room.min(limit - j) {
                self.send_next(None)?;
            }
            j += room.min(limit - j);
            self.w.flush()?;
        }
        let (p99_ns, missing) = self.barrier(j, false)?;
        Ok(PhaseOutcome {
            rate: 0.0,
            first,
            sent: j,
            planned: j,
            backlog: Vec::new(),
            scored_before: scored0,
            lateness_ns: Vec::new(),
            windows: Vec::new(),
            groups: BTreeMap::new(),
            p99_ns,
            missing,
        })
    }

    /// Offers `rate` events/s for `dur` seconds, then waits at a flush
    /// barrier until every reply of the phase is in. The generator stops
    /// sending at `1.25·dur` if it fell that far behind; the rest of the
    /// phase is not offered (the next phase continues the schedule).
    fn phase(&mut self, rate: f64, dur: f64, reference: bool) -> std::io::Result<PhaseOutcome> {
        let first = self.cursor.i as usize;
        let planned = ((rate * dur) as usize).min(self.shared.plan.events - first);
        let groups0 = procfs::grouped(&procfs::threads());
        let scored0 = self.shared.scored.load(Ordering::Relaxed);
        let period = 1e9 / rate;
        let t0 = self.shared.now_ns();
        self.shared.phases.lock().expect("phase table").push((first, t0, period));
        let due_of = |j: usize| t0 + (j as f64 * period) as u64;
        let deadline = t0 + (dur * 1.25e9) as u64;
        let window_ns = (WINDOW_S * 1e9) as u64;
        let mut backlog = Vec::new();
        let mut lateness_ns = Vec::new();
        let mut windows = Vec::new();
        let (mut win_j, mut win_t, mut win_cpu) = (0, t0, procfs::live_threads_runtime_ns());
        let mut last_sample = 0u64;
        let mut j = 0usize;
        while j < planned {
            let now = self.shared.now_ns();
            if now > deadline {
                break;
            }
            let tick = self.tracer.begin("tick", "bench", None, 0);
            while j < planned && due_of(j) <= now {
                self.send_next(tick)?;
                if reference {
                    lateness_ns.push((now - due_of(j)) as f64);
                }
                j += 1;
            }
            let span = self.tracer.begin("flush_writes", "net", tick, 0);
            self.w.flush()?;
            self.tracer.end(span);
            self.tracer.end(tick);
            if reference && now - win_t >= window_ns {
                let cpu = procfs::live_threads_runtime_ns();
                windows.push((first + win_j, j - win_j, cpu - win_cpu));
                (win_j, win_t, win_cpu) = (j, now, cpu);
            }
            if now - last_sample >= 1_000_000 {
                last_sample = now;
                let due_count = (((now - t0) as f64 / period) as usize + 1).min(planned);
                let scored = self.shared.scored.load(Ordering::Relaxed) - scored0;
                backlog.push(((now - t0) as f64 * 1e-9, due_count as f64 - scored as f64));
            }
            // Sleep, never spin: on a small box a spinning generator takes
            // a core from the server it measures. Sleeps overshoot by the
            // timer slack, which shows up as lateness (and so in the round
            // trip, which is timed from the due time).
            if j < planned {
                let wait = due_of(j).saturating_sub(self.shared.now_ns());
                if wait > 0 {
                    std::thread::sleep(Duration::from_nanos(wait));
                }
            }
        }
        let (p99_ns, missing) = self.barrier(j, reference)?;
        Ok(PhaseOutcome {
            rate,
            first,
            sent: j,
            planned,
            backlog,
            scored_before: scored0,
            lateness_ns,
            windows,
            groups: procfs::grouped_delta(&groups0, &procfs::grouped(&procfs::threads())),
            p99_ns,
            missing,
        })
    }
}

fn bind_server(model: &Arc<causaltad::CausalTad>) -> NetServer {
    NetServer::builder(Arc::clone(model))
        .fleet_config(FleetConfig {
            num_shards: 2,
            queue_capacity: 65_536,
            session_ttl: Duration::from_secs(3_600),
            max_sessions_per_shard: 1 << 20,
            ..FleetConfig::default()
        })
        // Probes above the knee queue hundreds of thousands of replies;
        // the queue must hold them so overload shows as latency, not as
        // dropped replies.
        .net_config(NetConfig { response_queue: 1 << 21, ..NetConfig::default() })
        .bind("127.0.0.1:0")
        .expect("bind server")
}

/// Median over a phase's windows of (CPU µs per segment, p50 round trip
/// in ns); `rtt` holds the phase's round trips.
fn windowed(p: &PhaseOutcome, rtt: &[u32]) -> (f64, f64) {
    let (mut cpu, mut p50) = (Vec::new(), Vec::new());
    for &(first, n, cpu_ns) in &p.windows {
        if n > 0 {
            let from = first - p.first;
            cpu.push(cpu_ns as f64 * 1e-3 / n as f64);
            p50.push(replied(&rtt[from..from + n]).p50);
        }
    }
    (stats::median(&cpu), stats::median(&p50))
}

/// Runs the workload and fills `report`; returns the run's spans.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Tracer {
    let epoch = Instant::now();
    let (s, server) = crate::setup_serving(report, seed, bind_server);

    // A reference phase, then ladder probes for the rest of the run (with
    // room for their barriers). A traced run adds a second, traced
    // reference phase.
    let ref_dur = 0.3 * seconds;
    let capacity_dur = 0.15 * seconds;
    let probes = ((0.55 * seconds / (PROBE_S * 1.2)) as usize).max(2);
    let reference_phases = if trace { 2 } else { 1 };
    let capacity = REFERENCE_RATE * ref_dur * reference_phases as f64
        + LADDER_MAX * 1.25 * (capacity_dur + PROBE_S * probes as f64);
    let shared = Arc::new(Shared {
        plan: Plan::new(seed, capacity as usize),
        reference: Arc::clone(&s.reference),
        phases: Mutex::new(Vec::new()),
        scored: AtomicU64::new(0),
        tracing: AtomicBool::new(false),
        epoch,
    });

    let stream = TcpStream::connect(server.local_addr()).expect("connect generator");
    stream.set_nodelay(true).expect("nodelay");
    let read_half = stream.try_clone().expect("clone stream");
    let (range_tx, range_rx) = mpsc::channel();
    let (barrier_tx, barrier_rx) = mpsc::channel();
    let rx_shared = Arc::clone(&shared);
    let recv_thread = std::thread::Builder::new()
        .name("e2e-gen-recv".into())
        .spawn(move || receiver(rx_shared, read_half, range_rx, barrier_tx, trace))
        .expect("spawn receiver");
    let gen_shared = Arc::clone(&shared);
    let gen_thread = std::thread::Builder::new()
        .name("e2e-gen-send".into())
        .spawn(move || {
            let mut g = Generator {
                shared: gen_shared,
                w: BufWriter::with_capacity(1 << 16, stream),
                cursor: Cursor::new(),
                ranges: range_tx,
                barriers: barrier_rx,
                tracer: Tracer::new(false, epoch),
            };
            let reference: Vec<PhaseOutcome> = (0..reference_phases)
                .map(|r| {
                    let traced = trace && r == 1;
                    g.tracer = Tracer::new(traced, epoch);
                    g.shared.tracing.store(traced, Ordering::Relaxed);
                    let p = g.phase(REFERENCE_RATE, ref_dur, true).expect("reference phase");
                    g.shared.tracing.store(false, Ordering::Relaxed);
                    p
                })
                .collect();
            let spans = std::mem::replace(&mut g.tracer, Tracer::new(false, epoch));
            let saturated = g.saturate(IN_FLIGHT, capacity_dur).expect("capacity phase");
            let mut stairs = Staircase::new();
            let mut ladder = Vec::with_capacity(probes);
            for _ in 0..probes {
                let rate = stairs.rate;
                let p = g.phase(rate, PROBE_S, false).expect("ladder probe");
                let pass = p.passes();
                eprintln!(
                    "direct_open: probe {rate:>9.0} seg/s  sent {}/{}  p99 {:.2} ms  missing {}  \
                     backlog grows {}  -> {}",
                    p.sent,
                    p.planned,
                    p.p99_ns * 1e-6,
                    p.missing,
                    backlog_grows(&p.backlog, rate),
                    if pass { "pass" } else { "fail" }
                );
                ladder.push(p);
                stairs.advance(pass);
            }
            g.w.get_ref().shutdown(Shutdown::Write).expect("close write half");
            (reference, saturated, ladder, stairs.knee(), spans)
        })
        .expect("spawn generator");
    let (reference, saturated, ladder, knee, mut tracer) =
        gen_thread.join().expect("generator thread");
    let received = recv_thread.join().expect("receiver thread");

    // --- End-to-end metrics: medians over the untraced reference phase's
    // windows, and the ladder's knee. ------------------------------------
    let p0 = &reference[0];
    let (cpu_us_per_seg, rtt_p50_ns) = windowed(p0, &received.kept[0]);
    report.put("score_rtt_p50_ms", rtt_p50_ns * 1e-6, "ms");
    report.put("cpu_us_per_seg", cpu_us_per_seg, "us");
    report.put("max_rate_seg_s", knee, "seg/s");
    let lo = saturated.scored_before;
    let hi = lo + (saturated.sent as u64).saturating_sub(saturated.missing);
    report.put("saturated_seg_s", saturated_rate(&received.marks, lo, hi), "seg/s");

    // --- Correctness: every sent segment scored bit-exactly, every ended
    // trip completed with the reference total. ---------------------------
    let phases: Vec<&PhaseOutcome> =
        reference.iter().chain(std::iter::once(&saturated)).chain(ladder.iter()).collect();
    let sent: usize = phases.iter().map(|p| p.sent).sum();
    let missing: u64 = phases.iter().map(|p| p.missing).sum();
    // Phases are contiguous from event 0, so replaying the cursor over the
    // sent events finds every trip whose last segment went out.
    let mut cursor = Cursor::new();
    let ended = (0..sent)
        .filter(|_| {
            let (_, id, seq) = cursor.next(&shared.plan.trips);
            seq + 1 == u32::from(shared.plan.trips[id as usize].len)
        })
        .count() as u64;
    report.attempted += sent as u64 + ended;
    report.fail("score missing", missing);
    report.fail("score not bit-identical to reference", received.mismatches);
    report.fail("trip total wrong", received.completions_bad);
    report.fail(
        "trip completion missing",
        ended.saturating_sub(received.completions_ok + received.completions_bad),
    );
    for (kind, n) in &received.errors {
        report.fail(kind, *n);
    }

    // --- Per-layer breakdown. --------------------------------------------
    let rtt = replied(&received.kept[0]);
    report.put("score_rtt_p99_ms", rtt.p99 * 1e-6, "ms");
    report.put("score_rtt_p999_ms", rtt.p999 * 1e-6, "ms");
    report.put("score_rtt_samples", rtt.n as f64, "count");
    // The highest percentile with ten samples beyond it, and its value.
    report.put("score_rtt_tail_pct", rtt.tail.map_or(0.0, |(p, _)| p), "pct");
    report.put("score_rtt_tail_ms", rtt.tail.map_or(0.0, |(_, v)| v * 1e-6), "ms");
    report.put("gen.lateness_p99_ms", Summary::of(p0.lateness_ns.clone()).p99 * 1e-6, "ms");
    let group = |g: &str| p0.groups.get(g).copied().unwrap_or(0.0);
    report.put("gen.cpu_s", group("gen"), "s");
    report.put("net.evloop_cpu_s", group("net"), "s");
    report.put("serve.shard_cpu_s", group("serve"), "s");
    report.put("ladder.probes", ladder.len() as f64, "count");
    report.put("ladder.passed", ladder.iter().filter(|p| p.passes()).count() as f64, "count");
    if trace {
        let traced = windowed(&reference[1], &received.kept[1]).0;
        report.put("trace_overhead_frac", traced / cpu_us_per_seg - 1.0, "ratio");
        let mut admin = tad_net::Client::connect(server.local_addr()).expect("connect admin");
        crate::report_registry(report, &admin.metrics().expect("registry over the wire"));
        crate::report_state_bytes(report, &[server.local_addr()]);
        tracer.absorb(received.tracer);
    }
    drop(server);
    crate::train_fit::report_auc(report, &s.model, &s.city, 0.0);
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = Plan::new(9, 50_000);
        assert_eq!(a, Plan::new(9, 50_000));
        assert_ne!(a, Plan::new(10, 50_000));
        // The cursor walks the plan, and every event maps back to itself
        // through (trip, seq).
        let mut c = Cursor::new();
        for i in 0..50_000 {
            let (at, id, seq) = c.next(&a.trips);
            assert_eq!(at, i);
            assert_eq!(a.event_of(id, seq), Some(i));
            // Churn holds the live count: the first LIVE events start
            // LIVE distinct trips.
            if i < LIVE as usize {
                assert_eq!((id, seq), (i as u64, 0));
            }
        }
    }

    #[test]
    fn backlog_growth_decision() {
        let rate = 100_000.0;
        let flat: Vec<(f64, f64)> =
            (0..100).map(|i| (i as f64 * 1e-3, 50.0 + (i % 7) as f64 * 40.0)).collect();
        assert!(!backlog_grows(&flat, rate));
        // A backlog rising by 40 events/ms (40% of the rate) grows.
        let ramp: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 1e-3, i as f64 * 40.0)).collect();
        assert!(backlog_grows(&ramp, rate));
        // A large but steady queue after a ramp-up is not growth.
        let steady: Vec<(f64, f64)> =
            (0..100).map(|i| (i as f64 * 1e-3, (i.min(20) * 100) as f64)).collect();
        assert!(!backlog_grows(&steady, rate));
        assert!(!backlog_grows(&ramp[..5], rate), "too few samples to judge");
    }

    #[test]
    fn staircase_settles_on_the_knee_and_shrugs_off_a_noisy_probe() {
        let run = |fails: &dyn Fn(usize, f64) -> bool| {
            let mut s = Staircase::new();
            for k in 0..12 {
                let pass = !fails(k, s.rate);
                s.advance(pass);
            }
            s.knee()
        };
        // A system whose knee sits at 500k: probes above it fail.
        let clean = run(&|_, rate| rate > 500_000.0);
        assert!((480_000.0..=530_000.0).contains(&clean), "knee {clean}");
        // The same system with one spurious failure on the way up.
        let noisy = run(&|k, rate| k == 2 || rate > 500_000.0);
        assert!((450_000.0..=550_000.0).contains(&noisy), "knee {noisy}");
        // Never failing reports the highest passing rate.
        let never = run(&|_, _| false);
        assert_eq!(never, LADDER_MAX);
    }

    #[test]
    fn saturated_rate_is_the_steady_middle() {
        // 100 marks of 8192 scores: 10 ms apart, except a slow ramp-up,
        // a stall in the middle and a slow drain; outside-range marks.
        let mut marks = vec![(0u64, 0u64)];
        let mut t = 0u64;
        for k in 1..=100u64 {
            t += match k {
                1..=20 | 90..=100 => 40_000_000,
                50 => 200_000_000,
                _ => 10_000_000,
            };
            marks.push((t, k * MARK_EVERY));
        }
        let r = saturated_rate(&marks, MARK_EVERY, 100 * MARK_EVERY);
        assert!((r - MARK_EVERY as f64 * 100.0).abs() < 1.0, "rate {r}");
    }

    /// A generator stall delays every request due during it; timing from
    /// the due time charges the stall, timing from the send time hides it.
    #[test]
    fn open_loop_times_from_due_not_send() {
        let period = 10_000u64; // 100k/s
        let service = 50_000u64; // 50 µs in the system
        let stall_until = 5_000_000u64; // generator frozen for the first 5 ms
        let (mut from_due, mut from_send) = (Vec::new(), Vec::new());
        for j in 0..2_000u64 {
            let due = j * period;
            let sent = due.max(stall_until);
            let recv = sent + service;
            from_due.push(rtt_ns(due, recv) as f64);
            from_send.push((recv - sent) as f64);
        }
        let due_tail = Summary::of(from_due);
        let send_tail = Summary::of(from_send);
        assert_eq!(send_tail.p99, service as f64, "send-time view sees no stall");
        assert!(due_tail.p99 >= 4_800_000.0, "due-time view charges the stall: {due_tail:?}");
    }
}
