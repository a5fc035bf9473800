//! End-to-end benchmark of the CausalTAD stack.
//!
//! ```text
//! e2ebench --workload <direct_open|routed_churn|train_fit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for `--seconds`,
//! checks every score it gets back against an in-process reference, and
//! prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set of `BENCHMARK.json`; with `--trace 1`
//! they are the per-layer set, measured from spans around the
//! benchmark's own calls into each layer, the program's metrics registry
//! (read once over the wire), and per-thread CPU from `/proc`. See
//! `README.md` beside this crate for what each workload exercises.

mod direct_open;
mod probes;
mod procfs;
mod routed_churn;
mod setup;
mod stats;
mod trace;
mod train_fit;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use causaltad::CausalTad;
use tad_metrics::MetricsSnapshot;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Every named value a run measured, plus its failure ledger.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failures: BTreeMap<String, u64>,
    pub values: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.retain(|(n, _, _)| n != name);
        self.values.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Books `n` failed operations of one kind (zero is a no-op).
    pub fn fail(&mut self, kind: &str, n: u64) {
        if n > 0 {
            *self.failures.entry(kind.to_string()).or_insert(0) += n;
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }
}

/// The end-to-end metrics of `BENCHMARK.json`: every workload reports
/// each one, drawn from the workload's own named measurement.
/// (generic name, unit, [direct_open, routed_churn, train_fit] source).
const END_TO_END: [(&str, &str, [&str; 3]); 5] = [
    ("setup_s", "s", ["setup_s", "setup_s", "setup_s"]),
    ("work_rate", "1/s", ["saturated_seg_s", "throughput_seg_s", "train_tokens_per_s"]),
    ("cpu_us_per_item", "us", ["cpu_us_per_seg", "cpu_us_per_seg", "cpu_us_per_token"]),
    ("latency_p50_ms", "ms", ["score_rtt_p50_ms", "checkpoint_p50_ms", "fit_p50_ms"]),
    ("peak_rss_mb", "MiB", ["peak_rss_mb", "peak_rss_mb", "peak_rss_mb"]),
];

/// The per-layer metrics of `BENCHMARK.json`, in the traced run. A layer
/// a workload does not run reports 0 (e.g. `router.*` on `direct_open`).
const PER_LAYER: [(&str, &str); 56] = [
    ("error_frac", "ratio"),
    ("max_rate_seg_s", "seg/s"),
    ("auc_id", "ratio"),
    ("auc_ood", "ratio"),
    ("gen.lateness_p99_ms", "ms"),
    ("gen.cpu_s", "s"),
    ("score_rtt_p99_ms", "ms"),
    ("score_rtt_p999_ms", "ms"),
    ("net.evloop_cpu_s", "s"),
    ("net.frame_decode_ns.p50", "ns"),
    ("net.frame_decode_ns.p99", "ns"),
    ("net.cohort_width.mean", "count"),
    ("net.cohort_conns.mean", "count"),
    ("net.poll_tick_ns.p50", "ns"),
    ("net.poll_tick_ns.p99", "ns"),
    ("net.flush_roundtrip_ns.p50", "ns"),
    ("net.backpressure_replies", "count"),
    ("net.throttled", "count"),
    ("net.malformed_frames", "count"),
    ("serve.shard_cpu_s", "s"),
    ("serve.wave_ns.p50", "ns"),
    ("serve.wave_ns.p99", "ns"),
    ("serve.batch_width.p50", "count"),
    ("serve.batch_width.p99", "count"),
    ("serve.batch_width.mean", "count"),
    ("serve.delta_bytes_per_capture", "B"),
    ("serve.dirty_sessions_per_capture", "count"),
    ("serve.state_bytes_per_session", "B"),
    ("serve.replay_seg_per_s", "seg/s"),
    ("core.push_batch_ns_per_seg.narrow", "ns"),
    ("core.push_batch_ns_per_seg.wide", "ns"),
    ("core.fit_epoch_s", "s"),
    ("core.final_loss", "nats"),
    ("core.eval_traj_per_s", "traj/s"),
    ("autodiff.matmul_gmacs.train", "GMAC/s"),
    ("autodiff.matmul_gmacs.wave", "GMAC/s"),
    ("router.cpu_s.front", "s"),
    ("router.cpu_s.mux", "s"),
    ("router.forward_ns.p50", "ns"),
    ("router.forward_ns.p99", "ns"),
    ("router.fanin_depth.p99", "count"),
    ("router.checkpoint_ms.full", "ms"),
    ("router.checkpoint_ms.delta", "ms"),
    ("router.responses_dropped", "count"),
    ("router.replay_suppressed", "count"),
    ("router.throttled", "count"),
    ("setup.city_s", "s"),
    ("setup.train_s", "s"),
    ("setup.bind_s", "s"),
    ("selftime_s.bench", "s"),
    ("selftime_s.net", "s"),
    ("selftime_s.serve", "s"),
    ("selftime_s.core", "s"),
    ("selftime_s.autodiff", "s"),
    ("selftime_s.router", "s"),
    ("trace_overhead_frac", "ratio"),
];

const WORKLOADS: [&str; 3] = ["direct_open", "routed_churn", "train_fit"];

struct Args {
    workload: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|&w| w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Runs the serving set-up (city, serving model, walks, reference table,
/// then `bind`) [`SETUP_REPEATS`] times, reports the median wall time as
/// `setup_s`, and keeps the last one (earlier servers shut down on drop).
pub fn setup_serving<T>(
    report: &mut Report,
    seed: u64,
    bind: impl Fn(&Arc<CausalTad>) -> T,
) -> (setup::Serving, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        let s = setup::serving(seed);
        let tb = Instant::now();
        let bound = bind(&s.model);
        let bind_s = tb.elapsed().as_secs_f64();
        times.push(t.elapsed().as_secs_f64());
        last = Some((s, bound, bind_s));
    }
    let (s, bound, bind_s) = last.expect("at least one set-up");
    report.put("setup_s", stats::median(&times), "s");
    report.put("setup.city_s", s.city_s, "s");
    report.put("setup.train_s", s.train_s, "s");
    report.put("setup.bind_s", bind_s, "s");
    report.put("setup.reference_s", s.reference_s, "s");
    report.put(
        "core.fit_epoch_s",
        s.fit.wall_time.as_secs_f64() / s.fit.epoch_losses.len().max(1) as f64,
        "s",
    );
    report.put("core.final_loss", s.fit.final_loss(), "nats");
    if s.fit.diverged {
        report.fail("serving model fit diverged", 1);
    }
    (s, bound)
}

/// Per-layer values from one registry snapshot read over the wire.
pub fn report_registry(report: &mut Report, m: &MetricsSnapshot) {
    let hist = |name: &str, q: f64| m.histogram(name).map_or(0.0, |h| h.quantile(q) as f64);
    let mean = |name: &str| m.histogram(name).map_or(0.0, |h| h.mean());
    let count = |name: &str| m.counter(name).unwrap_or(0) as f64;
    report.put("net.frame_decode_ns.p50", hist("net.frame_decode_ns", 0.5), "ns");
    report.put("net.frame_decode_ns.p99", hist("net.frame_decode_ns", 0.99), "ns");
    report.put("net.cohort_width.mean", mean("net.cohort_width"), "count");
    report.put("net.cohort_conns.mean", mean("net.cohort_conns"), "count");
    report.put("net.poll_tick_ns.p50", hist("net.poll_tick_ns", 0.5), "ns");
    report.put("net.poll_tick_ns.p99", hist("net.poll_tick_ns", 0.99), "ns");
    report.put("net.flush_roundtrip_ns.p50", hist("net.flush_roundtrip_ns", 0.5), "ns");
    report.put("net.backpressure_replies", count("net.backpressure_replies"), "count");
    report.put("net.throttled", count("net.throttled"), "count");
    report.put("net.malformed_frames", count("net.malformed_frames"), "count");
    // `serve.score_latency_ns` is the wall time of a whole model-step
    // wave, credited to every segment in it: wave time, not request
    // latency, so it is reported under that name.
    report.put("serve.wave_ns.p50", hist("serve.score_latency_ns", 0.5), "ns");
    report.put("serve.wave_ns.p99", hist("serve.score_latency_ns", 0.99), "ns");
    report.put("serve.batch_width.p50", hist("serve.batch_width", 0.5), "count");
    report.put("serve.batch_width.p99", hist("serve.batch_width", 0.99), "count");
    report.put("serve.batch_width.mean", mean("serve.batch_width"), "count");
    report.put("router.forward_ns.p50", hist("router.forward_ns", 0.5), "ns");
    report.put("router.forward_ns.p99", hist("router.forward_ns", 0.99), "ns");
    report.put("router.fanin_depth.p99", hist("router.fanin_depth", 0.99), "count");
    report.put("router.replay_suppressed", count("router.replay_suppressed"), "count");
    report.put("router.throttled", count("router.throttled"), "count");
}

/// `serve.state_bytes_per_session`: one snapshot per server, its bytes
/// over the sessions live in it.
pub fn report_state_bytes(report: &mut Report, servers: &[std::net::SocketAddr]) {
    let (mut bytes, mut sessions) = (0u64, 0u64);
    for &addr in servers {
        let mut c = tad_net::Client::connect(addr).expect("connect for snapshot");
        sessions += c.flush().expect("snapshot barrier").active_sessions;
        bytes += c.snapshot().expect("snapshot over the wire").len() as u64;
    }
    report.put("serve.state_bytes_per_session", bytes as f64 / sessions.max(1) as f64, "B");
}

/// `nproc`, compiler, commit: what a result depends on besides the code.
fn run_metadata(args: &Args) -> String {
    let cmd = |prog: &str, argv: &[&str]| {
        std::process::Command::new(prog)
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\"}}}}",
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        args.trace,
        cmd("rustc", &["--version"]),
        cmd("git", &["rev-parse", "HEAD"]),
    )
}

/// A finite JSON number (non-finite values become 0 and fail the run).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!("{}", run_metadata(&args));
    let mut report = Report::default();
    let started = Instant::now();
    let mut tracer = match args.workload {
        0 => direct_open::run(args.seed, args.seconds, args.trace, &mut report),
        1 => routed_churn::run(args.seed, args.seconds, args.trace, &mut report),
        _ => train_fit::run(args.seed, args.seconds, args.trace, &mut report),
    };
    if args.trace {
        probes::run(args.seed, &mut report, &mut tracer);
        for (layer, s) in trace::layer_self_s(&tracer.spans) {
            report.put(&format!("selftime_s.{layer}"), s, "s");
        }
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        let path = std::path::Path::new(&dir)
            .join("e2ebench-traces")
            .join(format!("{}-seed{}.jsonl", WORKLOADS[args.workload], args.seed));
        match trace::write_jsonl(&path, &tracer.spans) {
            Ok(()) => {
                eprintln!("e2ebench: {} spans written to {}", tracer.spans.len(), path.display())
            }
            Err(e) => eprintln!("e2ebench: cannot write spans to {}: {e}", path.display()),
        }
    }
    report.put("peak_rss_mb", procfs::peak_rss_mb(), "MiB");
    let failed = report.failed();
    let attempted = report.attempted.max(1);
    report.put("error_frac", failed as f64 / attempted as f64, "ratio");

    eprintln!(
        "e2ebench: {} seed {} ran {:.1}s; attempted {attempted}, failed {failed}",
        WORKLOADS[args.workload],
        args.seed,
        started.elapsed().as_secs_f64()
    );
    for (kind, n) in &report.failures {
        eprintln!("  failed: {n:>10}  {kind}");
    }
    for (name, value, unit) in &report.values {
        eprintln!("  {name:<36} {value:>16.6} {unit}");
    }

    let chosen: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, report.get(name).unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, sources)| {
                (name, unit, report.get(sources[args.workload]).unwrap_or(f64::NAN))
            })
            .collect()
    };
    let correct = failed == 0 && chosen.iter().all(|m| m.2.is_finite());
    let metrics: Vec<String> = chosen
        .iter()
        .map(|(name, unit, v)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*v))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}
