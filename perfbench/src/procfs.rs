//! Process-level probes read from `/proc/self` (Linux).

use std::collections::HashMap;
use std::path::Path;

/// Run time (ns) of every live thread of this process, keyed by thread
/// id, from `/proc/self/task/*/schedstat` (nanosecond resolution, where
/// `/proc/self/stat` counts 10 ms ticks).
pub fn task_cpu_ns() -> HashMap<u32, u64> {
    let mut out = HashMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for t in tasks.flatten() {
        let Some(tid) = t.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some(ns) = schedstat_ns(&t.path().join("schedstat")) {
            out.insert(tid, ns);
        }
    }
    out
}

/// Process CPU seconds between two [`task_cpu_ns`] readings, counting the
/// threads alive at `end` (a thread that exited in between is not counted:
/// in this benchmark that is a torn-down deployment, not the one measured).
pub fn cpu_between(start: &HashMap<u32, u64>, end: &HashMap<u32, u64>) -> f64 {
    end.iter()
        .map(|(tid, ns)| ns.saturating_sub(start.get(tid).copied().unwrap_or(0)))
        .sum::<u64>() as f64
        / 1e9
}

fn schedstat_ns(path: &Path) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Threads of this process.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_this_process() {
        let start = task_cpu_ns();
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 30 {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        assert!(x > 0);
        let used = cpu_between(&start, &task_cpu_ns());
        assert!((0.02..1.0).contains(&used), "{used}");
        assert!(peak_rss_mib() > 0.0);
        assert!(threads() >= 1);
    }
}
