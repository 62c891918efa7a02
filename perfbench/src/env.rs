//! Environment fingerprint and process counters read from `/proc`.

use std::path::Path;

use crate::util::Json;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// `key:   value kB` style field of a `/proc/*/status` file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field(&read("/proc/self/status"), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Process-wide counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    /// User + system CPU time in microseconds.
    pub cpu_us: f64,
    /// Voluntary + involuntary context switches summed over live threads.
    pub ctx_switches: u64,
    pub threads: u64,
}

/// Clock ticks per second of `/proc/*/stat` times (USER_HZ, fixed at 100
/// on Linux).
const USER_HZ: f64 = 100.0;

pub fn proc_sample() -> ProcSample {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let cpu_us = (tick(11) + tick(12)) / USER_HZ * 1e6;
    let mut ctx_switches = 0;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let s = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            ctx_switches += status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0);
        }
    }
    let threads = status_field(&read("/proc/self/status"), "Threads").unwrap_or(0);
    ProcSample {
        cpu_us,
        ctx_switches,
        threads,
    }
}

/// `(steal, total)` clock ticks of the whole host so far, from the `cpu`
/// line of `/proc/stat`. Steal is time the hypervisor gave this machine's
/// vCPUs to someone else; on a shared host it tracks run-to-run noise.
pub fn host_cpu_ticks() -> (u64, u64) {
    let stat = read("/proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = read("/proc/mounts");
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut parts = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(kind)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), kind.to_owned()));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

/// Filesystems on which `sync_data` does not reach a disk, so fsync
/// timings from them measure nothing.
pub fn is_memory_fs(kind: &str) -> bool {
    matches!(kind, "tmpfs" | "ramfs")
}

/// The checked-out commit, or "unknown" outside a git work tree.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Machine and build fingerprint echoed with every result.
pub fn fingerprint() -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        ("nproc", Json::from(nproc)),
        ("cpu", Json::from(cpu)),
        (
            "kernel",
            Json::from(read("/proc/sys/kernel/osrelease").trim().to_owned()),
        ),
        ("commit", Json::from(commit())),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nThreads:\t3\n";
        assert_eq!(status_field(s, "VmHWM"), Some(2048));
        assert_eq!(status_field(s, "Threads"), Some(3));
        assert_eq!(status_field(s, "Missing"), None);
    }

    #[test]
    fn process_counters_are_live() {
        let s = proc_sample();
        assert!(s.threads >= 1);
        assert!(peak_rss_mb() > 0.0);
    }
}
