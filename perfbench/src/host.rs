//! What the host reports about this process: peak memory and the time
//! its threads spent runnable but waiting for a CPU.

use std::fs;

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Run-queue wait of the calling thread so far, in ms
/// (`/proc/thread-self/schedstat`, second field).
pub fn thread_wait_ms() -> Option<f64> {
    wait_ms_at("/proc/thread-self/schedstat")
}

/// Run-queue wait summed over every live thread of this process, in ms.
pub fn process_wait_ms() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| wait_ms_at(t.path().join("schedstat")))
        .sum()
}

fn wait_ms_at(path: impl AsRef<std::path::Path>) -> Option<f64> {
    let text = fs::read_to_string(path).ok()?;
    let ns: f64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(ns / 1e6)
}
