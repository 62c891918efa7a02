//! `invoke`: two Cores on TCP loopback, no write-ahead log, 64 local and
//! 64 remote servants picked by seeded Zipf; 80 % `get` (echo), 20 %
//! `touch`. Phase 1 alternates synchronous local and remote calls; phase
//! 2 keeps a fixed window of `call_async` calls to remote servants.

use std::collections::VecDeque;
use std::time::Instant;

use fargo_core::{BoundRef, CoreConfig, PendingCall, Value};

use crate::cluster::{Cluster, Oracle, Wire};
use crate::trace::{Open, Tracer};
use crate::util::{median, Json, Lat, Rate, Rng, Zipf};
use crate::{deadline, env, layers, process_metrics, Overhead, Run};

const LOCAL: usize = 64;
const REMOTE: usize = 64;
const ZIPF_S: f64 = 0.99;
const GET_SHARE: f64 = 0.8;
const WINDOW: usize = 64;
const SCHEDULE: usize = 1 << 16;
const ARG_POOL: usize = 1024;
const SETUPS: usize = 21;

/// One generated call: which servant (by Zipf rank draw), `get` or
/// `touch`, and which argument from the pool.
#[derive(Clone, Copy)]
struct Op {
    target: u16,
    get: bool,
    arg: u16,
}

struct Inputs {
    args: Vec<Value>,
    /// Phase 1: even ops go to local servants, odd ops to remote ones.
    phase1: Vec<Op>,
    phase2: Vec<Op>,
}

fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let args = (0..ARG_POOL)
        .map(|_| {
            let len = 4 + rng.below(13);
            Value::list([
                Value::I64(rng.next_u64() as i64 >> 1),
                Value::Str(rng.word(len)),
            ])
        })
        .collect();
    let local = Zipf::new(LOCAL, ZIPF_S, &mut rng);
    let remote = Zipf::new(REMOTE, ZIPF_S, &mut rng);
    let ops = |even_local: bool, rng: &mut Rng| -> Vec<Op> {
        (0..SCHEDULE)
            .map(|i| {
                let z = if even_local && i % 2 == 0 {
                    &local
                } else {
                    &remote
                };
                Op {
                    target: z.sample(rng) as u16,
                    get: rng.unit() < GET_SHARE,
                    arg: rng.below(ARG_POOL) as u16,
                }
            })
            .collect()
    };
    let phase1 = ops(true, &mut rng);
    let phase2 = ops(false, &mut rng);
    Inputs {
        args,
        phase1,
        phase2,
    }
}

struct Population {
    cluster: Cluster,
    local: Vec<BoundRef>,
    remote: Vec<BoundRef>,
}

fn populate(config: &CoreConfig) -> Population {
    let cluster = Cluster::spawn(2, Wire::Tcp, |_| config.clone());
    let local = (0..LOCAL)
        .map(|_| {
            cluster.cores[0]
                .new_complet("Servant", &[])
                .expect("create local servant")
        })
        .collect();
    let remote = (0..REMOTE)
        .map(|_| {
            cluster.cores[0]
                .new_complet_at("core1", "Servant", &[])
                .expect("create remote servant")
        })
        .collect();
    Population {
        cluster,
        local,
        remote,
    }
}

/// Issues `op` synchronously and checks the reply; returns nanoseconds.
fn call_checked(oracle: &mut Oracle, h: &BoundRef, op: Op, args: &[Value], tally: &mut i64) -> u64 {
    let arg = &args[op.arg as usize];
    let t = Instant::now();
    let r = if op.get {
        h.call("get", std::slice::from_ref(arg))
    } else {
        h.call("touch", &[])
    };
    let ns = t.elapsed().as_nanos() as u64;
    if op.get {
        oracle.check("get echo", r.as_ref(), arg);
    } else {
        *tally += 1;
        oracle.check("touch count", r.as_ref(), &Value::I64(*tally));
    }
    ns
}

/// Phase 1 for `seconds`: alternating synchronous local and remote
/// calls. Returns the local and remote latencies and the median rate of
/// calls per second.
#[allow(clippy::too_many_arguments)]
fn sync_phase(
    pop: &Population,
    inputs: &Inputs,
    local_tally: &mut [i64],
    remote_tally: &mut [i64],
    oracle: &mut Oracle,
    tracer: &Tracer,
    overhead: &mut Overhead,
    seconds: f64,
) -> (Lat, Lat, f64) {
    let mut local_lat = Lat::default();
    let mut remote_lat = Lat::default();
    let mut rate = Rate::default();
    let end = deadline(seconds);
    let mut i = 0usize;
    while !i.is_multiple_of(64) || Instant::now() < end {
        let op = inputs.phase1[i % SCHEDULE];
        let t = op.target as usize;
        let is_local = i.is_multiple_of(2);
        let name = if is_local {
            "op.local_invoke"
        } else {
            "op.remote_invoke"
        };
        let open = tracer.begin(name, i as u64, 0);
        let ns = if is_local {
            call_checked(oracle, &pop.local[t], op, &inputs.args, &mut local_tally[t])
        } else {
            call_checked(
                oracle,
                &pop.remote[t],
                op,
                &inputs.args,
                &mut remote_tally[t],
            )
        };
        tracer.end(open);
        if is_local {
            local_lat.push_ns(ns);
        } else {
            remote_lat.push_ns(ns);
        }
        rate.tick();
        overhead.tick(tracer);
        i += 1;
    }
    (local_lat, remote_lat, rate.per_s())
}

/// Phase 2 for `seconds`: a fixed window of asynchronous remote calls.
/// Returns `(completed calls, elapsed seconds, median rate of completions
/// per second)`. Each servant's
/// concurrent touches must return exactly the counts after its previous
/// tally, once each.
fn window_phase(
    pop: &Population,
    inputs: &Inputs,
    remote_tally: &mut [i64],
    oracle: &mut Oracle,
    tracer: &Tracer,
    overhead: &mut Overhead,
    seconds: f64,
) -> (u64, f64, f64) {
    let mut rate = Rate::default();
    let mut window: VecDeque<(PendingCall, Op, Option<Open>)> = VecDeque::with_capacity(WINDOW);
    let mut returned: Vec<Vec<i64>> = vec![Vec::new(); REMOTE];
    let base = remote_tally.to_vec();
    let start = Instant::now();
    let end = deadline(seconds);
    let (mut issued, mut completed) = (0usize, 0u64);
    loop {
        let more = issued % 64 != 0 || Instant::now() < end;
        if window.len() == WINDOW || (!more && !window.is_empty()) {
            let (pending, op, open) = window.pop_front().expect("window is not empty");
            let r = pending.wait();
            tracer.end(open);
            completed += 1;
            if op.get {
                oracle.check("async get echo", r.as_ref(), &inputs.args[op.arg as usize]);
            } else {
                oracle.ok("async touch", &r);
                if let Ok(Value::I64(n)) = r {
                    returned[op.target as usize].push(n);
                }
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
        let op = inputs.phase2[issued % SCHEDULE];
        let h = &pop.remote[op.target as usize];
        let open = tracer.begin("op.remote_async", issued as u64, 0);
        let pending = if op.get {
            h.call_async("get", std::slice::from_ref(&inputs.args[op.arg as usize]))
        } else {
            remote_tally[op.target as usize] += 1;
            h.call_async("touch", &[])
        };
        window.push_back((pending, op, open));
        issued += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let per_s = rate.per_s();
    for (k, got) in returned.iter_mut().enumerate() {
        got.sort_unstable();
        let want: Vec<i64> = (base[k] + 1..=remote_tally[k]).collect();
        oracle.verify(
            &format!("remote servant {k}: window touch results"),
            *got == want,
        );
    }
    (completed, elapsed, per_s)
}

pub fn run(run: &mut Run) {
    let inputs = generate(run.seed);
    let config = CoreConfig::default();
    run.params.extend([
        ("cores", Json::from(2usize)),
        ("local_servants", Json::from(LOCAL)),
        ("remote_servants", Json::from(REMOTE)),
        ("zipf_exponent", Json::Num(ZIPF_S)),
        ("get_share", Json::Num(GET_SHARE)),
        ("window", Json::from(WINDOW)),
        ("schedule_ops", Json::from(SCHEDULE)),
        ("client_threads", Json::from(1usize)),
        ("loop", Json::from("closed")),
        ("wal", Json::from(false)),
        ("config", Json::from("CoreConfig::default()")),
    ]);
    run.env.push(("transport", Json::from(Wire::Tcp.label())));

    let pop = run.setups(SETUPS, |_| populate(&config));
    let mut local_tally = vec![0i64; LOCAL];
    let mut remote_tally = vec![0i64; REMOTE];

    let mut oracle = std::mem::take(&mut run.oracle);
    let tracer = &run.tracer;
    // Warm-up under the same mix until the cluster is in its steady
    // state; untimed, untraced, still checked.
    tracer.set_enabled(false);
    let mut idle = Overhead::new(false);
    sync_phase(
        &pop,
        &inputs,
        &mut local_tally,
        &mut remote_tally,
        &mut oracle,
        tracer,
        &mut idle,
        run.warmup_seconds(),
    );
    window_phase(
        &pop,
        &inputs,
        &mut remote_tally,
        &mut oracle,
        tracer,
        &mut idle,
        run.warmup_seconds() / 2.0,
    );
    tracer.set_enabled(run.trace);

    let proc_before = env::proc_sample();
    let link_before = pop.cluster.link_totals();
    let mut overhead = Overhead::new(run.trace);
    let started = Instant::now();
    let (mut local_lat, mut remote_lat, phase1_rate) = sync_phase(
        &pop,
        &inputs,
        &mut local_tally,
        &mut remote_tally,
        &mut oracle,
        tracer,
        &mut overhead,
        run.seconds / 2.0,
    );
    let phase1_ops = (local_lat.len() + remote_lat.len()) as u64;
    let (completed, elapsed, phase2_rate) = window_phase(
        &pop,
        &inputs,
        &mut remote_tally,
        &mut oracle,
        tracer,
        &mut overhead,
        run.seconds / 2.0,
    );
    let ops = phase1_ops + completed;
    let ops_mean_per_s = ops as f64 / started.elapsed().as_secs_f64();
    let link_after = pop.cluster.link_totals();
    if run.trace {
        process_metrics(&mut run.layers, proc_before, ops);
    }
    overhead.finish(tracer, &mut run.layers);

    // Final reads agree with the client's tallies.
    for (handles, tally) in [(&pop.local, &local_tally), (&pop.remote, &remote_tally)] {
        for (h, &n) in handles.iter().zip(tally.iter()) {
            let r = h.call("read", &[]);
            oracle.check("final counter", r.as_ref(), &Value::I64(n));
        }
    }
    run.oracle = oracle;

    let (local_p50, local_p99) = local_lat.p50_p99();
    let (remote_p50, remote_p99) = remote_lat.p50_p99();
    run.samples.extend([
        ("local_invoke", Json::from(local_lat.len())),
        ("remote_invoke", Json::from(remote_lat.len())),
        ("remote_async", Json::from(completed)),
    ]);
    run.e2e.put("call_p50_us", remote_p50, "us");
    // The two phases run equally long.
    run.e2e
        .put("ops_per_s", (phase1_rate + phase2_rate) / 2.0, "1/s");
    run.e2e.put("ops_per_s_mean", ops_mean_per_s, "1/s");
    run.e2e.put("local_invoke_p50_us", local_p50, "us");
    run.e2e.put("remote_rps", completed as f64 / elapsed, "1/s");

    if !run.trace {
        return;
    }
    let out = &mut run.layers;
    out.put("call_p99_us", remote_p99, "us");
    out.put("local_invoke_p99_us", local_p99, "us");
    let root = tracer.begin("layers", 0, 0);
    let parent = root.as_ref().map_or(0, |o| o.id());
    let complets: Vec<BoundRef> = pop.local.iter().chain(&pop.remote).cloned().collect();
    let window = layers::Window {
        ops,
        links: (link_after.0 - link_before.0, link_after.1 - link_before.1),
    };
    let tcp_hop = layers::common(
        tracer,
        parent,
        &pop.cluster,
        Wire::Tcp,
        &inputs.args,
        &complets,
        window,
        out,
    );
    out.put(
        "core.rpc_residual_us",
        remote_p50 - local_p50 - 2.0 * tcp_hop,
        "us",
    );
    sinks(tracer, parent, &inputs, out);
    tracer.end(root);
}

/// `core.sinks.*_ns`: local-call p50 at the default configuration minus
/// local-call p50 with one observability sink switched off through
/// `CoreConfig`. All variants run side by side, one single-Core cluster
/// each, in interleaved rounds so drift hits them alike.
fn sinks(tracer: &Tracer, parent: u64, inputs: &Inputs, out: &mut crate::util::Metrics) {
    let d = CoreConfig::default;
    let variants: [(&str, CoreConfig); 6] = [
        ("default", d()),
        ("core.sinks.trace_ns", d().with_tracing(false)),
        ("core.sinks.journal_ns", d().with_journaling(false)),
        ("core.sinks.accounting_ns", d().with_accounting(false)),
        ("core.sinks.phase_timing_ns", d().with_phase_timing(false)),
        (
            "core.sinks.all_ns",
            d().with_tracing(false)
                .with_journaling(false)
                .with_accounting(false)
                .with_phase_timing(false),
        ),
    ];
    let setups: Vec<(Cluster, BoundRef)> = variants
        .iter()
        .map(|(_, c)| {
            let cl = Cluster::spawn(1, Wire::Simnet, |_| c.clone());
            let h = cl.cores[0]
                .new_complet("Servant", &[])
                .expect("create servant");
            (cl, h)
        })
        .collect();
    let arg = std::slice::from_ref(&inputs.args[0]);
    let mut per_variant: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for _round in 0..15 {
        for (v, (_, h)) in setups.iter().enumerate() {
            let open = tracer.begin("core.sinks.round", 0, parent);
            let mut lat = Lat::default();
            for _ in 0..2000 {
                let t = Instant::now();
                std::hint::black_box(h.call("get", arg).ok());
                lat.push_ns(t.elapsed().as_nanos() as u64);
            }
            tracer.end(open);
            per_variant[v].push(lat.p50_p99().0);
        }
    }
    let base = median(&per_variant[0]);
    for (v, (name, _)) in variants.iter().enumerate().skip(1) {
        out.put(*name, (base - median(&per_variant[v])) * 1e3, "ns");
    }
}
