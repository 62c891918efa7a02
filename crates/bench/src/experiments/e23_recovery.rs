//! E23 — crash-safe durability: recovery of acknowledged state after a
//! Core kill.
//!
//! The question the write-ahead log has to answer: when a Core is killed
//! and restarted, how much of the state its callers saw *acknowledged*
//! comes back, how long does the replay take as the resident population
//! grows, and is the recovered placement immediately resolvable?
//!
//! Setup, per population size: a 3-Core cluster with per-Core
//! write-ahead logs. `core1` hosts `n` servants, each of which
//! acknowledges two state-mutating calls. `core1` is then stopped cold —
//! no checkpoint, no evacuation — and respawned on the same node with
//! the same log directory, which replays the WAL at spawn. The
//! measurement:
//!
//! * **recovered** — every servant must answer a fresh call from a peer
//!   with all acknowledged increments intact. Guardrail: 100%, always.
//!   This is the same no-acked-state-lost oracle the fault checker
//!   sweeps for (`fargo-check --faults`), measured at population scale.
//! * **recovery** — spawn-time replay duration from the Core's own
//!   [`recovery report`](fargo_core::RecoveryReport); it must stay in
//!   interactive territory (well under a second) at every size here.
//! * **hops p99** — post-recovery `locate_explain` from a peer with no
//!   warm hint: the replay republishes every survivor to its owning
//!   location shard, so lookups resolve in at most 2 network hops.
//!
//! Informational rows measure the ack path's group commit: acknowledged
//! calls per second at 1, 8 and 32 concurrent callers, each touching its
//! own complet, and the fsyncs the log paid per ack. One fsync covers
//! every record written before it starts, so fsyncs per ack should fall
//! as concurrency rises. On tmpfs fsync is free and the row says so.
//!
//! A final row runs the fault-injection checker sweep (crash, restart,
//! partition, heal ops mixed into random schedules) to tie the benchmark
//! to the model-checked invariant: the sweep must come back clean.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fargo_check::{sweep, SweepConfig};
use fargo_core::{CompletRef, Core, CoreConfig, RefDescriptor, TelemetryRegistry};
use simnet::{LinkConfig, Network, NetworkConfig};

use crate::table::Table;
use crate::workload::{bench_registry, counter_total, fmt_duration};

/// Scratch directory for one run's write-ahead logs.
fn wal_scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fargo-e23-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("wal scratch dir");
    dir
}

/// Waits until nothing is in flight and no Core has queued work.
fn quiesce(net: &Network, cores: &[Core]) {
    let mut stable = 0;
    for _ in 0..4000 {
        let pending =
            net.in_flight() as usize + cores.iter().map(Core::pending_work).sum::<usize>();
        if pending == 0 {
            stable += 1;
            if stable >= 2 {
                return;
            }
        } else {
            stable = 0;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("cluster failed to quiesce");
}

struct KillStats {
    acked_calls: usize,
    recovered: usize,
    lost: usize,
    replayed: usize,
    recovery: Duration,
    hops_p99: u32,
}

/// Kill-and-restart protocol at population `n`: returns what survived.
fn kill_restart_sweep(n: usize) -> KillStats {
    let root = wal_scratch(&format!("kill{n}"));
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let registry = bench_registry();
    let telemetry = TelemetryRegistry::new();
    let config = CoreConfig {
        rpc_timeout: Duration::from_secs(30),
        ..CoreConfig::default()
    };
    let core_cfg = |i: usize| config.clone().with_wal_dir(root.join(format!("core{i}")));
    let mut cores: Vec<Core> = (0..3)
        .map(|i| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&registry)
                .config(core_cfg(i))
                .telemetry(&telemetry)
                .spawn()
                .expect("core must spawn")
        })
        .collect();

    // `n` servants on the victim, two acknowledged calls each.
    let handles: Vec<_> = (0..n)
        .map(|_| cores[1].new_complet("Servant", &[]).expect("create"))
        .collect();
    for h in &handles {
        h.call("touch", &[]).expect("acked call");
        h.call("touch", &[]).expect("acked call");
    }
    quiesce(&net, &cores);

    // Kill and restart on the same node with the same log.
    cores[1].stop();
    let ep = net.restart_node(cores[1].node()).expect("restart node");
    cores[1] = Core::builder(&net, "core1")
        .endpoint(ep)
        .registry(&registry)
        .config(core_cfg(1))
        .telemetry(&telemetry)
        .spawn()
        .expect("restarted core must spawn");
    let report = cores[1].recovery_report().expect("recovery ran");
    quiesce(&net, &cores);

    // Verify from a peer with fresh references: all acknowledged state
    // must be back, and the recovered placement must resolve fast.
    let mut recovered = 0usize;
    let mut hops: Vec<u32> = Vec::with_capacity(handles.len());
    for h in &handles {
        let r = cores[0].locate_explain(h.id()).expect("locate");
        hops.push(r.hops);
        let fresh = cores[0].stub(CompletRef::from_descriptor(RefDescriptor::link(
            h.id(),
            "Servant",
            cores[0].node().index(),
        )));
        // Two acked increments survived iff the third one returns 3.
        if fresh.call("touch", &[]).ok() == Some(fargo_core::Value::I64(3)) {
            recovered += 1;
        }
    }
    hops.sort_unstable();
    let stats = KillStats {
        acked_calls: 2 * n,
        recovered,
        lost: n - recovered,
        replayed: report.replayed,
        recovery: Duration::from_micros(report.duration_us),
        hops_p99: hops[hops.len() * 99 / 100],
    };
    for c in &cores {
        c.stop();
    }
    let _ = std::fs::remove_dir_all(&root);
    stats
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (`"unknown"` where that is unreadable).
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (_dev, mount, kind) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

struct CommitStats {
    acks: u64,
    elapsed: Duration,
    fsyncs: u64,
    fs: String,
}

/// Group commit under `callers` concurrent callers: each hammers its own
/// local complet with `acks_per_caller` acknowledged calls.
fn ack_throughput(callers: usize, acks_per_caller: usize) -> CommitStats {
    let root = wal_scratch(&format!("commit{callers}"));
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let telemetry = TelemetryRegistry::new();
    let core = Core::builder(&net, "core0")
        .registry(&bench_registry())
        .config(CoreConfig::default().with_wal_dir(root.join("core0")))
        .telemetry(&telemetry)
        .spawn()
        .expect("core must spawn");
    let handles: Vec<_> = (0..callers)
        .map(|_| core.new_complet("Servant", &[]).expect("create"))
        .collect();
    let fsyncs_before = counter_total(&telemetry, "fargo_wal_fsyncs_total");
    let started = Instant::now();
    std::thread::scope(|s| {
        for h in &handles {
            s.spawn(move || {
                for _ in 0..acks_per_caller {
                    h.call("touch", &[]).expect("acked call");
                }
            });
        }
    });
    let stats = CommitStats {
        acks: (callers * acks_per_caller) as u64,
        elapsed: started.elapsed(),
        fsyncs: counter_total(&telemetry, "fargo_wal_fsyncs_total") - fsyncs_before,
        fs: fs_type(&root),
    };
    core.stop();
    let _ = std::fs::remove_dir_all(&root);
    stats
}

pub fn run(full: bool) -> Table {
    let sizes: &[usize] = if full { &[64, 256, 1024] } else { &[32, 128] };
    let sweep_seeds: u64 = if full { 200 } else { 50 };

    let mut table = Table::new(
        "E23: crash-safe durability — acked state recovered after a Core kill",
        &["complets", "acked calls", "recovered", "recovery", "hops p99", "notes"],
    )
    .with_note(
        "guardrail: a killed-and-restarted Core recovers 100% of acknowledged state from its write-ahead log, replay stays well under a second at every population size here, and post-recovery lookups from a cold peer resolve in <= 2 hops; the fault-injection checker sweep (crash/restart/partition/heal) must come back clean. The group-commit rows (acks/s and fsyncs per ack at 1/8/32 concurrent callers) are informational.",
    );
    for &n in sizes {
        let s = kill_restart_sweep(n);
        let ok = s.lost == 0 && s.replayed == n && s.hops_p99 <= 2;
        table.row([
            n.to_string(),
            s.acked_calls.to_string(),
            format!("{}/{}", s.recovered, n),
            fmt_duration(s.recovery),
            s.hops_p99.to_string(),
            if ok {
                format!("guardrail ok (replayed {}, lost 0)", s.replayed)
            } else {
                format!(
                    "guardrail FAILED (replayed {}, lost {}, hops p99 {})",
                    s.replayed, s.lost, s.hops_p99
                )
            },
        ]);
    }

    let acks_total = if full { 8192 } else { 2048 };
    for callers in [1usize, 8, 32] {
        let c = ack_throughput(callers, acks_total / callers);
        let secs = c.elapsed.as_secs_f64().max(1e-9);
        let tmpfs = if matches!(c.fs.as_str(), "tmpfs" | "ramfs") {
            format!(", WAL on {}: fsync is free, figures measure nothing", c.fs)
        } else {
            String::new()
        };
        table.row([
            callers.to_string(),
            c.acks.to_string(),
            "-".to_owned(),
            fmt_duration(c.elapsed),
            "-".to_owned(),
            format!(
                "group commit, {callers} caller(s): {:.0} acks/s, {:.3} fsyncs/ack (informational{tmpfs})",
                c.acks as f64 / secs,
                c.fsyncs as f64 / c.acks as f64
            ),
        ]);
    }

    let started = Instant::now();
    let report = sweep(&SweepConfig {
        seeds: sweep_seeds,
        ops: 16,
        shrink: false,
        perturb: false,
        faults: true,
        ..SweepConfig::default()
    });
    let elapsed = started.elapsed();
    table.row([
        "-".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
        fmt_duration(elapsed),
        "-".to_owned(),
        if report.clean() {
            format!(
                "fault sweep clean: {} seeds x 16 ops with crash/restart/partition/heal",
                report.seeds_run
            )
        } else {
            format!("fault sweep FAILED: {} failure(s)", report.failures.len())
        },
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_restart_recovers_everything() {
        let s = kill_restart_sweep(8);
        assert_eq!(s.lost, 0, "acked state lost");
        assert_eq!(s.recovered, 8);
        assert_eq!(s.replayed, 8);
        assert!(s.hops_p99 <= 2, "hops p99 {}", s.hops_p99);
    }

    #[test]
    fn group_commit_never_pays_more_than_one_fsync_per_ack() {
        let c = ack_throughput(4, 16);
        assert_eq!(c.acks, 64);
        assert!(c.fsyncs >= 1, "acks were synced");
        assert!(
            c.fsyncs <= c.acks,
            "{} fsyncs for {} acks",
            c.fsyncs,
            c.acks
        );
    }

    #[test]
    fn fault_smoke_sweep_is_clean() {
        let report = sweep(&SweepConfig {
            seeds: 3,
            ops: 10,
            shrink: false,
            perturb: false,
            faults: true,
            ..SweepConfig::default()
        });
        assert_eq!(report.seeds_run, 3);
        assert!(report.clean(), "{:?}", report.failures);
    }
}
