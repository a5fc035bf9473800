//! `train_fit`: generate the xian-s city, train CausalTAD with the suite's
//! quick configuration (20 epochs, micro-batch 8, hidden 48), then score
//! the ID and OOD test sets against the Detour and Switch anomalies in
//! process. It is the only workload that runs `tad-autodiff` backward, the
//! tape and the optimiser, and it bypasses net, serve and router.
//!
//! The fit repeats while the run lasts; every repeat must reproduce the
//! first one's loss curve bit for bit.

use std::time::Instant;

use causaltad::{CausalTad, Trainer};
use tad_eval::cities::Scale;
use tad_eval::metrics::roc_auc;
use tad_trajsim::{City, Trajectory};

use crate::trace::Tracer;
use crate::{procfs, stats, Report};

/// Offline scoring repeats for at least this long, so its median
/// per-trajectory time pools several passes.
const EVAL_MIN_S: f64 = 1.0;

/// Scores `normals` and `anomalies`; returns ROC-AUC and each
/// trajectory's scoring time in seconds.
fn auc(
    model: &CausalTad,
    normals: &[Trajectory],
    anomalies: &[Trajectory],
    tracer: &mut Tracer,
    report: &mut Report,
) -> (f64, Vec<f64>) {
    let mut scores = Vec::with_capacity(normals.len() + anomalies.len());
    let mut times = Vec::with_capacity(scores.capacity());
    for t in normals.iter().chain(anomalies) {
        let started = Instant::now();
        let s = tracer.span("CausalTad::score", "core", None, 0, || model.score(t));
        times.push(started.elapsed().as_secs_f64());
        if !s.is_finite() {
            report.fail("non-finite trajectory score", 1);
        }
        scores.push(s);
    }
    report.attempted += scores.len() as u64;
    let labels: Vec<bool> = (0..scores.len()).map(|i| i >= normals.len()).collect();
    (roc_auc(&scores, &labels), times)
}

/// Scores the city's evaluation sets with `tracer`; returns
/// (auc_id, auc_ood, per-trajectory times).
fn evaluate(
    model: &CausalTad,
    city: &City,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (f64, f64, Vec<f64>) {
    let d = &city.data;
    let mut times = Vec::new();
    let mut mean_auc = |normals: &[Trajectory]| {
        let (a, t1) = auc(model, normals, &d.detour, tracer, report);
        let (b, t2) = auc(model, normals, &d.switch, tracer, report);
        times.extend(t1.into_iter().chain(t2));
        (a + b) / 2.0
    };
    let id = mean_auc(&d.test_id);
    let ood = mean_auc(&d.test_ood);
    (id, ood, times)
}

/// Table I/II detection quality of `model` on `city`, and the offline
/// scoring speed measured while computing it. Scoring repeats for at
/// least `min_s` seconds; the per-trajectory median pools every pass.
pub fn report_auc(report: &mut Report, model: &CausalTad, city: &City, min_s: f64) {
    let mut off = Tracer::new(false, Instant::now());
    let started = Instant::now();
    let (mut times, mut passes) = (Vec::new(), 0);
    let (mut id, mut ood) = (0.0f64, 0.0f64);
    while passes == 0 || started.elapsed().as_secs_f64() < min_s {
        let (a, b, t) = evaluate(model, city, &mut off, report);
        if passes > 0 && (a.to_bits(), b.to_bits()) != (id.to_bits(), ood.to_bits()) {
            report.fail("offline scores not repeated exactly", 1);
        }
        (id, ood) = (a, b);
        times.extend(t);
        passes += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    report.put("auc_id", id, "ratio");
    report.put("auc_ood", ood, "ratio");
    report.put("core.eval_traj_per_s", times.len() as f64 / wall, "traj/s");
    report.put("eval_traj_p50_ms", stats::median(&times) * 1e3, "ms");
}

/// Runs the workload and fills `report`; returns the run's spans.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Tracer {
    let epoch = Instant::now();
    let mut times = Vec::new();
    let mut city = None;
    for _ in 0..crate::SETUP_REPEATS {
        let t = Instant::now();
        city = Some(crate::setup::city(seed));
        times.push(t.elapsed().as_secs_f64());
    }
    let city = city.expect("at least one set-up");
    report.put("setup_s", stats::median(&times), "s");
    report.put("setup.city_s", *times.last().expect("timed"), "s");

    let cfg = tad_bench::suite::causaltad_config(Scale::Quick, None);
    let tokens: usize = city.data.train.iter().map(|t| t.segments.len()).sum();
    let trained = (tokens * cfg.epochs) as f64;
    report.put("train.trajectories", city.data.train.len() as f64, "count");
    report.put("train.tokens", tokens as f64, "count");
    let mut tracer = Tracer::new(trace, epoch);
    let (mut rates, mut cpu_per_token) = (Vec::new(), Vec::new());
    let (mut epoch_s, mut fit_ms) = (Vec::new(), Vec::new());
    let mut first_losses: Option<Vec<u64>> = None;
    let mut model = None;
    let started = Instant::now();
    // At least two fits, so every run checks that the loss curve repeats.
    while rates.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let mut m = CausalTad::new(&city.net, cfg.clone());
        let cpu0 = procfs::process_cpu_s();
        let rep = tracer.span("Trainer::fit", "core", None, 0, || {
            Trainer::new(cfg.clone()).fit(&mut m, &city.data.train)
        });
        let cpu = procfs::process_cpu_s() - cpu0;
        m.precompute_scaling();
        report.attempted += 1;
        let wall = rep.wall_time.as_secs_f64();
        rates.push(trained / wall);
        eprintln!(
            "train_fit: fit {} ran {:.0} tokens/s, {:.2} s",
            rates.len(),
            trained / wall,
            wall
        );
        cpu_per_token.push(cpu * 1e6 / trained);
        epoch_s.push(wall / rep.epoch_losses.len().max(1) as f64);
        fit_ms.push(wall * 1e3);
        if rep.diverged || !rep.final_loss().is_finite() {
            report.fail("fit diverged", 1);
        }
        let losses: Vec<u64> = rep.epoch_losses.iter().map(|l| l.to_bits()).collect();
        match &first_losses {
            None => {
                report.put("core.final_loss", rep.final_loss(), "nats");
                first_losses = Some(losses);
            }
            Some(first) if *first != losses => report.fail("loss curve not repeated exactly", 1),
            Some(_) => {}
        }
        model = Some(m);
    }
    let model = model.expect("at least one fit");
    report.put("train_tokens_per_s", stats::median(&rates), "tokens/s");
    report.put("cpu_us_per_token", stats::median(&cpu_per_token), "us");
    report.put("core.fit_epoch_s", stats::median(&epoch_s), "s");
    report.put("fit_p50_ms", stats::median(&fit_ms), "ms");
    report.put("train.fits", rates.len() as f64, "count");

    report_auc(report, &model, &city, EVAL_MIN_S);
    // Detection no better than chance means the fit is broken, however
    // fast it ran.
    if report.get("auc_id").is_none_or(|auc| auc.is_nan() || auc <= 0.5) {
        report.fail("fitted model no better than chance on ID", 1);
    }
    if trace {
        // Scoring once more with a span per trajectory gives the overhead.
        let t = Instant::now();
        let (.., times) = evaluate(&model, &city, &mut tracer, report);
        let traced_rate = times.len() as f64 / t.elapsed().as_secs_f64();
        let untraced = report.get("core.eval_traj_per_s").unwrap_or(f64::NAN);
        report.put("trace_overhead_frac", untraced / traced_rate - 1.0, "ratio");
    }
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed drives the city: the same seed reproduces the final loss
    /// and both AUCs bit for bit; another seed trains on another city.
    #[test]
    fn same_seed_same_fit_and_aucs() {
        let fit = |seed| {
            let mut r = Report::default();
            run(seed, 0.0, false, &mut r);
            assert_eq!(r.failed(), 0, "{:?}", r.failures);
            let bits = |name| r.get(name).expect("reported").to_bits();
            (bits("core.final_loss"), bits("auc_id"), bits("auc_ood"))
        };
        let a = fit(3);
        assert_eq!(a, fit(3));
        assert_ne!(a.0, fit(4).0);
    }
}
