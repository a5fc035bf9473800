//! CPU and memory of this process, read from `/proc`.
//!
//! Every server thread of the stack is named (`tad-net-ev-*`,
//! `tad-serve-shard-*`, `tad-router-conn-*`, `tad-router-backend-mux`, …),
//! so grouping `/proc/self/task/*` by name prefix attributes busy time to a
//! layer without touching the program. Linux truncates `comm` to 15 bytes
//! (`tad-router-backend-mux` reads back as `tad-router-back`), so the
//! prefixes below are all at most 15 bytes long.

use std::collections::BTreeMap;
use std::fs;

/// `USER_HZ`: the unit of the utime/stime fields. Linux fixes it at 100
/// for user space on every architecture it supports.
pub const TICKS_PER_S: f64 = 100.0;

/// Thread-name prefixes and the group each one's CPU is booked to; the
/// first matching prefix wins, unmatched threads go to `bench`.
pub const GROUPS: [(&str, &str); 6] = [
    ("tad-net", "net"),
    ("tad-serve", "serve"),
    ("tad-router-conn", "router.front"),
    ("tad-router-back", "router.mux"),
    ("tad-router", "router.other"),
    ("e2e-gen", "gen"),
];

/// One thread's name and CPU ticks (user + system).
#[derive(Clone, Debug)]
pub struct ThreadCpu {
    pub comm: String,
    pub ticks: u64,
}

/// utime + stime of a `stat` line. The name field may hold spaces or
/// parentheses, so fields are counted after the last `)`.
pub fn stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 3 (state) is fields[0], so utime (14) and stime (15) are 11, 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// CPU ticks of the whole process, exited threads included.
pub fn process_ticks() -> u64 {
    fs::read_to_string("/proc/self/stat").ok().and_then(|s| stat_ticks(&s)).unwrap_or(0)
}

/// Process CPU in seconds.
pub fn process_cpu_s() -> f64 {
    process_ticks() as f64 / TICKS_PER_S
}

/// Run time of every live thread of this process, summed, in ns
/// (`/proc/self/task/*/schedstat`: nanosecond resolution, where `stat`
/// counts 10 ms ticks). Threads that already exited are not included, so
/// use it only over windows in which no thread exits.
pub fn live_threads_runtime_ns() -> u64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return 0 };
    dir.flatten()
        .filter_map(|e| fs::read_to_string(e.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Every live thread of this process with its CPU ticks. Threads that
/// exit between listing and reading are skipped.
pub fn threads() -> Vec<ThreadCpu> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return Vec::new() };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let path = entry.path();
        let comm = fs::read_to_string(path.join("comm"));
        let stat = fs::read_to_string(path.join("stat"));
        if let (Ok(comm), Ok(stat)) = (comm, stat) {
            if let Some(ticks) = stat_ticks(&stat) {
                out.push(ThreadCpu { comm: comm.trim_end().to_string(), ticks });
            }
        }
    }
    out
}

/// The group a thread name is booked to.
pub fn group_of(comm: &str) -> &'static str {
    GROUPS.iter().find(|(prefix, _)| comm.starts_with(prefix)).map_or("bench", |&(_, g)| g)
}

/// CPU seconds per group.
pub fn grouped(threads: &[ThreadCpu]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for t in threads {
        *out.entry(group_of(&t.comm)).or_insert(0.0) += t.ticks as f64 / TICKS_PER_S;
    }
    out
}

/// Group CPU seconds between two samples (groups absent from `before`
/// count from zero).
pub fn grouped_delta(
    before: &BTreeMap<&'static str, f64>,
    after: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    after.iter().map(|(&g, &v)| (g, v - before.get(g).copied().unwrap_or(0.0))).collect()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn stat_parsing_survives_odd_names() {
        let line = "42 (a) b (c)) R 1 2 3 4 5 6 7 8 9 10 120 30 0 0 20 0 1";
        assert_eq!(stat_ticks(line), Some(150));
        assert_eq!(stat_ticks("garbage"), None);
    }

    #[test]
    fn prefixes_match_truncated_names() {
        for (prefix, _) in GROUPS {
            assert!(prefix.len() <= 15, "{prefix} longer than comm allows");
        }
        assert_eq!(group_of("tad-serve-shard"), "serve");
        assert_eq!(group_of("tad-router-back"), "router.mux");
        assert_eq!(group_of("tad-router-conn"), "router.front");
        assert_eq!(group_of("tad-router-acce"), "router.other");
        assert_eq!(group_of("tad-net-ev-0"), "net");
        assert_eq!(group_of("e2ebench"), "bench");
    }

    /// With no thread exiting, the groups add up to the process total
    /// within one tick per thread (each thread's counter is read at a
    /// slightly different instant than the process line).
    #[test]
    fn groups_sum_to_process_cpu() {
        let stop = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(Barrier::new(4));
        let names = ["tad-serve-shard-0", "tad-router-backend-mux", "tad-net-ev-0"];
        let handles: Vec<_> = names
            .iter()
            .map(|name| {
                let (stop, ready) = (Arc::clone(&stop), Arc::clone(&ready));
                std::thread::Builder::new()
                    .name(name.to_string())
                    .spawn(move || {
                        ready.wait();
                        let mut x = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                        }
                        x
                    })
                    .expect("spawn")
            })
            .collect();
        ready.wait();
        std::thread::sleep(std::time::Duration::from_millis(300));
        let before = process_ticks();
        let threads = threads();
        let after = process_ticks();
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("busy thread");
        }
        let groups = grouped(&threads);
        let sum: f64 = groups.values().sum();
        let slack = threads.len() as f64 / TICKS_PER_S;
        assert!(groups["serve"] > 0.0 && groups["router.mux"] > 0.0 && groups["net"] > 0.0);
        assert!(
            sum >= before as f64 / TICKS_PER_S - slack && sum <= after as f64 / TICKS_PER_S + slack,
            "groups {groups:?} sum {sum} outside process [{before}, {after}] ticks"
        );
        assert!(peak_rss_mb() > 0.0);
    }
}
