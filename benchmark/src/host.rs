//! Facts about the machine and process that every record carries, so a
//! number is never read without the host it came from.

use std::fs;

pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process so far (`VmHWM`), in MB. The kernel
/// folds its per-CPU counters into the high-water mark lazily, so a
/// transient peak of a few milliseconds can be missed; call this while the
/// memory of interest is still live.
pub fn peak_rss_mb() -> f64 {
    vm_hwm_mb("/proc/self/status")
}

fn vm_hwm_mb(status_path: &str) -> f64 {
    fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process has consumed so far: user + system time of all
/// its threads and of the child processes it has waited for
/// (`/proc/self/stat`, 10 ms ticks). A diagnostic only: a timed phase whose
/// wall time is well above its CPU time was descheduled by the host (or
/// blocked); the gated rates are all wall-clock.
pub fn cpu_s() -> f64 {
    // USER_HZ is 100 on every Linux ABI.
    const TICKS_PER_S: f64 = 100.0;
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, which may itself
            // hold spaces: utime, stime, cutime, cstime are fields 14-17.
            let rest = s.rsplit_once(')')?.1;
            let ticks: Vec<f64> = rest
                .split_whitespace()
                .skip(11)
                .take(4)
                .filter_map(|f| f.parse().ok())
                .collect();
            (ticks.len() == 4).then(|| ticks.iter().sum::<f64>() / TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// Largest peak resident set (`VmHWM`, MB) among this process's live child
/// processes: the `hetkg ps-server` shards, read before they are shut down.
pub fn children_peak_rss_mb() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("children")).ok())
        .flat_map(|pids| {
            pids.split_whitespace()
                .map(|pid| vm_hwm_mb(&format!("/proc/{pid}/status")))
                .collect::<Vec<_>>()
        })
        .fold(0.0, f64::max)
}
