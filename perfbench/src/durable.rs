//! `durable`: two Cores on instant simnet links, each with a write-ahead
//! log in a disk-backed scratch directory (`wal_fsync` and
//! `wal_sync_acks` at their defaults). A fixed `call_async` window over
//! 256 remote servants under Zipf, 50 % `touch`, 50 % `get`. The run
//! ends by killing and respawning `core1` on the same node and log
//! several times, timing spawn + replay and checking that every
//! acknowledged counter survived.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fargo_core::{BoundRef, CoreConfig, PendingCall, Value};

use crate::cluster::{dir_bytes, Cluster, Oracle, Scratch, Wire};
use crate::env::{fs_type, is_memory_fs};
use crate::util::{median, Json, Lat, Rate, Rng, Zipf};
use crate::{deadline, env, layers, process_metrics, Overhead, Run};

const SERVANTS: usize = 256;
const ZIPF_S: f64 = 0.99;
const TOUCH_SHARE: f64 = 0.5;
const WINDOW: usize = 8;
const SCHEDULE: usize = 1 << 16;
const ARG_POOL: usize = 256;
const SETUPS: usize = 21;
const RESTARTS: usize = 25;
/// Acked touches between two restarts, so every incarnation has fresh
/// state to recover.
const BURST: usize = 32;
/// Length of each configuration-differencing phase in a traced run.
const DIFF_SECONDS: f64 = 1.5;

#[derive(Clone, Copy)]
struct Op {
    target: u16,
    touch: bool,
    arg: u16,
}

struct Inputs {
    args: Vec<Value>,
    ops: Vec<Op>,
    /// Servants touched between restarts.
    bursts: Vec<u16>,
}

fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let args = (0..ARG_POOL)
        .map(|_| {
            Value::list([
                Value::I64(rng.next_u64() as i64 >> 1),
                Value::Str(rng.word(8)),
            ])
        })
        .collect();
    let zipf = Zipf::new(SERVANTS, ZIPF_S, &mut rng);
    let ops = (0..SCHEDULE)
        .map(|_| Op {
            target: zipf.sample(&mut rng) as u16,
            touch: rng.unit() < TOUCH_SHARE,
            arg: rng.below(ARG_POOL) as u16,
        })
        .collect();
    let bursts = (0..BURST * RESTARTS)
        .map(|_| rng.below(SERVANTS) as u16)
        .collect();
    Inputs { args, ops, bursts }
}

struct Population {
    cluster: Cluster,
    servants: Vec<BoundRef>,
    wal_dirs: Vec<PathBuf>,
}

fn populate(
    scratch: &Scratch,
    tag: &str,
    config: impl Fn(usize, &Path) -> CoreConfig,
) -> Population {
    let wal_dirs: Vec<PathBuf> = (0..2)
        .map(|i| scratch.subdir(&format!("{tag}-core{i}")))
        .collect();
    let cluster = Cluster::spawn(2, Wire::Simnet, |i| config(i, &wal_dirs[i]));
    let servants = (0..SERVANTS)
        .map(|_| {
            cluster.cores[0]
                .new_complet_at("core1", "Servant", &[])
                .expect("create remote servant")
        })
        .collect();
    Population {
        cluster,
        servants,
        wal_dirs,
    }
}

fn with_wal(dir: &Path) -> CoreConfig {
    CoreConfig::default().with_wal_dir(dir)
}

/// Runs the windowed mix for `seconds`; returns `(ack latencies,
/// completed calls, elapsed seconds, median rate of completions per
/// second)` and updates `tally`.
fn windowed(
    pop: &Population,
    inputs: &Inputs,
    tally: &mut [i64],
    oracle: &mut Oracle,
    tracer: &crate::trace::Tracer,
    overhead: &mut Overhead,
    seconds: f64,
) -> (Lat, u64, f64, f64) {
    let mut rate = Rate::default();
    let mut window: VecDeque<(PendingCall, Op, Instant, Option<crate::trace::Open>)> =
        VecDeque::new();
    let mut returned: Vec<Vec<i64>> = vec![Vec::new(); SERVANTS];
    let base = tally.to_vec();
    let mut lat = Lat::default();
    let start = Instant::now();
    let end = deadline(seconds);
    let (mut issued, mut completed) = (0usize, 0u64);
    loop {
        let more = issued % 32 != 0 || Instant::now() < end;
        if window.len() == WINDOW || (!more && !window.is_empty()) {
            let (pending, op, t, open) = window.pop_front().expect("window is not empty");
            let r = pending.wait();
            lat.push_ns(t.elapsed().as_nanos() as u64);
            tracer.end(open);
            completed += 1;
            if op.touch {
                oracle.ok("durable touch", &r);
                if let Ok(Value::I64(n)) = r {
                    returned[op.target as usize].push(n);
                }
            } else {
                oracle.check(
                    "durable get echo",
                    r.as_ref(),
                    &inputs.args[op.arg as usize],
                );
            }
            rate.tick();
            overhead.tick(tracer);
        }
        if !more {
            if window.is_empty() {
                break;
            }
            continue;
        }
        let op = inputs.ops[issued % SCHEDULE];
        let h = &pop.servants[op.target as usize];
        let open = tracer.begin("op.durable_ack", issued as u64, 0);
        let t = Instant::now();
        let pending = if op.touch {
            tally[op.target as usize] += 1;
            h.call_async("touch", &[])
        } else {
            h.call_async("get", std::slice::from_ref(&inputs.args[op.arg as usize]))
        };
        window.push_back((pending, op, t, open));
        issued += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let per_s = rate.per_s();
    for (k, got) in returned.iter_mut().enumerate() {
        got.sort_unstable();
        let want: Vec<i64> = (base[k] + 1..=tally[k]).collect();
        oracle.verify(&format!("servant {k}: acked touch results"), *got == want);
    }
    (lat, completed, elapsed, per_s)
}

pub fn run(run: &mut Run) {
    let inputs = generate(run.seed);
    let scratch = Scratch::new("durable").expect("scratch directory");
    let fs = fs_type(scratch.path());
    let memory_fs = is_memory_fs(&fs);
    if memory_fs {
        eprintln!("perfbench: WAL directory is on {fs}; fsync timings from it measure nothing");
    }
    run.params.extend([
        ("cores", Json::from(2usize)),
        ("servants", Json::from(SERVANTS)),
        ("zipf_exponent", Json::Num(ZIPF_S)),
        ("touch_share", Json::Num(TOUCH_SHARE)),
        ("window", Json::from(WINDOW)),
        ("schedule_ops", Json::from(SCHEDULE)),
        ("restarts", Json::from(RESTARTS)),
        ("burst_between_restarts", Json::from(BURST)),
        ("client_threads", Json::from(1usize)),
        ("loop", Json::from("closed")),
        ("wal", Json::from(true)),
        (
            "config",
            Json::from("CoreConfig::default().with_wal_dir(..)"),
        ),
    ]);
    run.env.extend([
        ("transport", Json::from(Wire::Simnet.label())),
        ("wal_fs", Json::from(fs.as_str())),
        ("wal_fs_measures_fsync", Json::from(!memory_fs)),
    ]);

    let mut pop = run.setups(SETUPS, |k| {
        populate(&scratch, &format!("setup{k}"), |_, d| with_wal(d))
    });
    let mut tally = vec![0i64; SERVANTS];
    let mut oracle = std::mem::take(&mut run.oracle);
    let tracer = &run.tracer;

    // Warm-up under the same mix until the cluster and the log are in
    // their steady state; untimed, untraced, still checked.
    tracer.set_enabled(false);
    windowed(
        &pop,
        &inputs,
        &mut tally,
        &mut oracle,
        tracer,
        &mut Overhead::new(false),
        run.warmup_seconds(),
    );
    tracer.set_enabled(run.trace);

    let proc_before = env::proc_sample();
    let link_before = pop.cluster.link_totals();
    let appends_before = pop.cluster.counter("fargo_wal_appends_total");
    let mut overhead = Overhead::new(run.trace);
    let (mut lat, acks, elapsed, acks_per_s) = windowed(
        &pop,
        &inputs,
        &mut tally,
        &mut oracle,
        tracer,
        &mut overhead,
        run.seconds,
    );
    let appends = pop.cluster.counter("fargo_wal_appends_total") - appends_before;
    let link_after = pop.cluster.link_totals();
    if run.trace {
        process_metrics(&mut run.layers, proc_before, acks);
    }
    overhead.finish(tracer, &mut run.layers);
    let (ack_p50, ack_p99) = lat.p50_p99();
    run.e2e.put("call_p50_us", ack_p50, "us");
    run.e2e.put("ops_per_s", acks_per_s, "1/s");
    run.e2e.put("ops_per_s_mean", acks as f64 / elapsed, "1/s");

    // Bytes the log grows per acked call, from a sequential burst
    // (compaction shrinks the file; those steps are skipped).
    let log_bytes_per_ack = if run.trace {
        let dir = &pop.wal_dirs[1];
        let (mut grown, mut counted) = (0u64, 0u64);
        let mut size = dir_bytes(dir);
        for &k in inputs.bursts.iter().take(128) {
            tally[k as usize] += 1;
            let r = pop.servants[k as usize].call("touch", &[]);
            oracle.check(
                "sequential touch",
                r.as_ref(),
                &Value::I64(tally[k as usize]),
            );
            let now = dir_bytes(dir);
            if now >= size {
                grown += now - size;
                counted += 1;
            }
            size = now;
        }
        grown as f64 / counted.max(1) as f64
    } else {
        f64::NAN
    };

    // Kill / restart: spawn + replay timed, every acked counter checked.
    let mut recovery_ms = Vec::with_capacity(RESTARTS);
    let mut replay_us = Vec::with_capacity(RESTARTS);
    let mut replayed = 0usize;
    for round in 0..RESTARTS {
        for &k in &inputs.bursts[round * BURST..(round + 1) * BURST] {
            tally[k as usize] += 1;
            let r = pop.servants[k as usize].call("touch", &[]);
            oracle.check("burst touch", r.as_ref(), &Value::I64(tally[k as usize]));
        }
        pop.cluster.quiesce();
        pop.cluster.cores[1].stop();
        let open = tracer.begin("op.restart", round as u64, 0);
        let t = Instant::now();
        pop.cluster.respawn(1);
        let served = pop.cluster.cores[1].complet_count();
        recovery_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end(open);
        oracle.verify(
            &format!("restart {round}: {served} of {SERVANTS} servants recovered"),
            served == SERVANTS,
        );
        if let Some(report) = pop.cluster.cores[1].recovery_report() {
            replay_us.push(report.duration_us as f64);
            replayed = report.replayed;
        }
        let what = format!("restart {round}: recovered counter");
        for (h, &n) in pop.servants.iter().zip(tally.iter()) {
            let r = h.call("read", &[]);
            oracle.check(&what, r.as_ref(), &Value::I64(n));
        }
    }
    run.layers.put("recovery_ms", median(&recovery_ms), "ms");
    run.samples.extend([
        ("durable_ack", Json::from(lat.len())),
        ("restarts", Json::from(recovery_ms.len())),
    ]);

    if run.trace {
        let out = &mut run.layers;
        out.put("call_p99_us", ack_p99, "us");
        out.put(
            "core.wal.appends_per_ack",
            appends as f64 / acks.max(1) as f64,
            "ratio",
        );
        out.put("core.wal.log_bytes_per_ack", log_bytes_per_ack, "bytes");
        out.put(
            "core.wal.compactions",
            pop.cluster.counter("fargo_wal_compactions_total") as f64,
            "count",
        );
        out.put(
            "core.wal.errors",
            pop.cluster.counter("fargo_wal_errors_total") as f64,
            "count",
        );
        out.put("core.recovery.replay_us", median(&replay_us), "us");
        out.put("core.recovery.replayed", replayed as f64, "count");

        let root = tracer.begin("layers", 0, 0);
        let parent = root.as_ref().map_or(0, |o| o.id());
        let window = layers::Window {
            ops: acks,
            links: (link_after.0 - link_before.0, link_after.1 - link_before.1),
        };
        layers::common(
            tracer,
            parent,
            &pop.cluster,
            Wire::Simnet,
            &inputs.args,
            &pop.servants,
            window,
            out,
        );
        layers::host_fsync(
            tracer,
            parent,
            &pop.wal_dirs[1],
            log_bytes_per_ack as usize,
            out,
        );
        drop(pop);
        // The same mix without the log, and with the log but no fsync.
        let mut diff = |tag: &str, config: &dyn Fn(&Path) -> CoreConfig| -> f64 {
            let pop = populate(&scratch, tag, |_, d| config(d));
            let mut t = vec![0i64; SERVANTS];
            let mut off = Overhead::new(false);
            let open = tracer.begin("core.wal.diff", 0, parent);
            // One span for the whole phase, none per call.
            tracer.set_enabled(false);
            let (mut l, ..) = windowed(
                &pop,
                &inputs,
                &mut t,
                &mut oracle,
                tracer,
                &mut off,
                DIFF_SECONDS,
            );
            tracer.set_enabled(true);
            tracer.end(open);
            l.p50_p99().0
        };
        let no_wal = diff("nowal", &|_| CoreConfig::default());
        let no_fsync = diff("nofsync", &|d| with_wal(d).with_wal_fsync(false));
        tracer.end(root);
        out.put("core.wal.ack_cost_us", ack_p50 - no_wal, "us");
        out.put("core.wal.fsync_cost_us", ack_p50 - no_fsync, "us");
    }
    run.oracle = oracle;
}
