//! `relocate`: three Cores on instant simnet links, 512 servants with
//! payloads drawn from {64 B, 4 KiB, 64 KiB} plus holders whose `pull`
//! dependencies co-move with them. The client mixes ~40 % `move_to` a
//! random other Core, ~40 % `touch` calls through a stub held at a Core
//! that is not the host (forwarded through trackers), and ~20 %
//! `Core::locate` from a Core that is not the host.

use std::time::Instant;

use fargo_core::{BoundRef, CompletId, CoreConfig, Value};

use crate::cluster::{Cluster, Oracle, Wire};
use crate::trace::Tracer;
use crate::util::{fnv64, median, Json, Lat, Rate, Rng};
use crate::{deadline, env, layers, process_metrics, Overhead, Run};

const CORES: usize = 3;
const SERVANTS: usize = 512;
const PAYLOADS: [usize; 3] = [64, 4096, 65536];
const HOLDERS: usize = 8;
const DEPS_PER_HOLDER: usize = 4;
const DEP_PAYLOAD: usize = 64;
const MOVE_SHARE: f64 = 0.4;
const CALL_SHARE: f64 = 0.4;
const SCHEDULE: usize = 1 << 15;
const SETUPS: usize = 21;

#[derive(Clone, Copy)]
enum Kind {
    Move,
    Call,
    Locate,
}

#[derive(Clone, Copy)]
struct Op {
    target: u16,
    kind: Kind,
    /// The Core the operation moves to or starts from, as an offset from
    /// the complet's current host.
    step: u8,
}

/// One complet as the client sees it.
struct Item {
    holder: bool,
    /// For holders: indices of their pull dependencies.
    deps: Vec<usize>,
    payload: Vec<u8>,
    /// Home Core at creation.
    home: usize,
}

struct Inputs {
    items: Vec<Item>,
    /// Moves pick servants and holders, never dependencies (those travel
    /// with their holder); calls pick servants and dependencies.
    ops: Vec<Op>,
}

fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    // Every size gets the same share of servants, in seeded order, so the
    // resident payload volume is the same for every seed.
    let mut sizes: Vec<usize> = (0..SERVANTS)
        .map(|j| PAYLOADS[j % PAYLOADS.len()])
        .collect();
    for j in (1..SERVANTS).rev() {
        sizes.swap(j, rng.below(j + 1));
    }
    let mut items: Vec<Item> = sizes
        .iter()
        .enumerate()
        .map(|(j, &size)| Item {
            holder: false,
            deps: Vec::new(),
            payload: rng.bytes(size),
            home: j % CORES,
        })
        .collect();
    let mut movable: Vec<usize> = (0..SERVANTS).collect();
    for h in 0..HOLDERS {
        let home = h % CORES;
        let first = items.len() + 1;
        items.push(Item {
            holder: true,
            deps: (first..first + DEPS_PER_HOLDER).collect(),
            payload: Vec::new(),
            home,
        });
        movable.push(first - 1);
        for _ in 0..DEPS_PER_HOLDER {
            items.push(Item {
                holder: false,
                deps: Vec::new(),
                payload: rng.bytes(DEP_PAYLOAD),
                home,
            });
        }
    }
    let servants: Vec<usize> = (0..items.len()).filter(|&i| !items[i].holder).collect();

    // Moves, calls and locates name a Core relative to the complet's
    // current host (`step` in 1..CORES), so every move goes to another
    // Core and every call or locate starts elsewhere, however often the
    // schedule repeats.
    let ops = (0..SCHEDULE)
        .map(|_| {
            let u = rng.unit();
            let step = 1 + rng.below(CORES - 1) as u8;
            if u < MOVE_SHARE {
                let t = movable[rng.below(movable.len())];
                Op {
                    target: t as u16,
                    kind: Kind::Move,
                    step,
                }
            } else if u < MOVE_SHARE + CALL_SHARE {
                let t = servants[rng.below(servants.len())];
                Op {
                    target: t as u16,
                    kind: Kind::Call,
                    step,
                }
            } else {
                Op {
                    target: rng.below(items.len()) as u16,
                    kind: Kind::Locate,
                    step,
                }
            }
        })
        .collect();
    Inputs { items, ops }
}

struct Population {
    cluster: Cluster,
    ids: Vec<CompletId>,
    /// `stubs[item][core]`: the item bound at each Core.
    stubs: Vec<Vec<BoundRef>>,
}

fn populate(inputs: &Inputs) -> Population {
    let cluster = Cluster::spawn(CORES, Wire::Simnet, |_| CoreConfig::default());
    let mut handles: Vec<BoundRef> = Vec::with_capacity(inputs.items.len());
    for item in &inputs.items {
        let core = &cluster.cores[item.home];
        let h = if item.holder {
            core.new_complet("Holder", &[])
        } else {
            core.new_complet("Servant", &[Value::Bytes(item.payload.clone())])
        };
        handles.push(h.expect("create complet"));
    }
    for (k, item) in inputs.items.iter().enumerate().filter(|(_, it)| it.holder) {
        let h = &handles[k];
        for &d in &item.deps {
            h.call(
                "add_dep",
                &[Value::Ref(handles[d].complet_ref().descriptor())],
            )
            .expect("wire dependency");
        }
        h.call("retype_all", &[Value::from("pull")])
            .expect("retype to pull");
    }
    let ids = handles.iter().map(BoundRef::id).collect();
    let stubs = handles
        .iter()
        .map(|h| {
            cluster
                .cores
                .iter()
                .map(|c| c.stub(h.complet_ref().clone()))
                .collect()
        })
        .collect();
    Population {
        cluster,
        ids,
        stubs,
    }
}

fn digest_of(item: &Item, n: i64) -> Value {
    if item.holder {
        Value::list([Value::I64(item.deps.len() as i64), Value::I64(0)])
    } else {
        Value::list([Value::I64(n), Value::I64(fnv64(&item.payload) as i64)])
    }
}

/// What the client knows: where each complet lives, how often each
/// servant was touched, and the next schedule position.
struct Client {
    host: Vec<usize>,
    /// Where each complet lived before its latest move.
    prev: Vec<usize>,
    tally: Vec<i64>,
    next: usize,
}

#[derive(Default)]
struct Measured {
    ops: u64,
    rate: Rate,
    moves: Lat,
    calls: Lat,
    locates: Lat,
    /// Network hops per locate (traced runs only).
    hops: Vec<f64>,
    /// Messages sent during moves (traced runs only).
    move_msgs: u64,
    /// Lookups that named the host before the latest move and named the
    /// current host once the cluster was quiet.
    stale_locates: u64,
}

/// Runs the schedule for `seconds`, checking every result.
#[allow(clippy::too_many_arguments)]
fn mix(
    pop: &Population,
    inputs: &Inputs,
    client: &mut Client,
    oracle: &mut Oracle,
    tracer: &Tracer,
    overhead: &mut Overhead,
    trace: bool,
    seconds: f64,
) -> Measured {
    let items = &inputs.items;
    let (host, tally) = (&mut client.host, &mut client.tally);
    let mut m = Measured::default();
    let end = deadline(seconds);
    while m.ops % 16 != 0 || Instant::now() < end {
        let i = client.next;
        client.next += 1;
        m.ops += 1;
        let op = inputs.ops[i % SCHEDULE];
        let t = op.target as usize;
        let other = (host[t] + op.step as usize) % CORES;
        match op.kind {
            Kind::Move => {
                let links = trace.then(|| pop.cluster.link_totals().0);
                let open = tracer.begin("op.move", i as u64, 0);
                let start = Instant::now();
                let r = pop.stubs[t][host[t]].move_to(&format!("core{other}"));
                m.moves.push_ns(start.elapsed().as_nanos() as u64);
                tracer.end(open);
                if let Some(l) = links {
                    m.move_msgs += pop.cluster.link_totals().0 - l;
                }
                oracle.ok("move", &r);
                for &c in std::iter::once(&t).chain(&items[t].deps) {
                    client.prev[c] = host[c];
                    host[c] = other;
                }
                // After the move the payload and counter must be intact.
                let r = pop.stubs[t][other].call("digest", &[]);
                oracle.check(
                    "digest after move",
                    r.as_ref(),
                    &digest_of(&items[t], tally[t]),
                );
            }
            Kind::Call => {
                tally[t] += 1;
                let open = tracer.begin("op.forwarded_invoke", i as u64, 0);
                let start = Instant::now();
                let r = pop.stubs[t][other].call("touch", &[]);
                m.calls.push_ns(start.elapsed().as_nanos() as u64);
                tracer.end(open);
                oracle.check("forwarded touch", r.as_ref(), &Value::I64(tally[t]));
            }
            Kind::Locate => {
                let core = &pop.cluster.cores[other];
                let open = tracer.begin("op.locate", i as u64, 0);
                let start = Instant::now();
                let mut r = if trace {
                    core.locate_explain(pop.ids[t]).map(|rep| {
                        m.hops.push(f64::from(rep.hops));
                        rep.node
                    })
                } else {
                    core.locate(pop.ids[t])
                };
                m.locates.push_ns(start.elapsed().as_nanos() as u64);
                tracer.end(open);
                let node = |c: usize| pop.cluster.cores[c].node().index();
                // The owning shard learns of a move from a one-shot notify
                // sent at commit, so a lookup racing it may still name the
                // previous host. Such an answer must heal: once the cluster
                // is quiet, a second lookup names the current host.
                if r.as_ref()
                    .is_ok_and(|&n| n != node(host[t]) && n == node(client.prev[t]))
                {
                    m.stale_locates += 1;
                    pop.cluster.quiesce();
                    r = core.locate(pop.ids[t]);
                }
                let want = Value::I64(i64::from(node(host[t])));
                oracle.check(
                    "locate",
                    r.map(|n| Value::I64(i64::from(n))).as_ref(),
                    &want,
                );
            }
        }
        m.rate.tick();
        overhead.tick(tracer);
    }
    m
}

pub fn run(run: &mut Run) {
    let inputs = generate(run.seed);
    run.params.extend([
        ("cores", Json::from(CORES)),
        ("servants", Json::from(SERVANTS)),
        (
            "payload_bytes",
            Json::Arr(PAYLOADS.iter().map(|&p| Json::from(p)).collect()),
        ),
        ("holders", Json::from(HOLDERS)),
        ("pull_deps_per_holder", Json::from(DEPS_PER_HOLDER)),
        ("move_share", Json::Num(MOVE_SHARE)),
        ("call_share", Json::Num(CALL_SHARE)),
        ("locate_share", Json::Num(1.0 - MOVE_SHARE - CALL_SHARE)),
        ("schedule_ops", Json::from(SCHEDULE)),
        ("client_threads", Json::from(1usize)),
        ("loop", Json::from("closed")),
        ("wal", Json::from(false)),
        ("config", Json::from("CoreConfig::default()")),
    ]);
    run.env
        .push(("transport", Json::from(Wire::Simnet.label())));

    let pop = run.setups(SETUPS, |_| populate(&inputs));
    let items = &inputs.items;
    let mut client = Client {
        host: items.iter().map(|it| it.home).collect(),
        prev: items.iter().map(|it| it.home).collect(),
        tally: vec![0; items.len()],
        next: 0,
    };
    let mut oracle = std::mem::take(&mut run.oracle);
    let tracer = &run.tracer;

    // Warm-up under the same mix; untimed, untraced, still checked.
    tracer.set_enabled(false);
    let mut idle = Overhead::new(false);
    mix(
        &pop,
        &inputs,
        &mut client,
        &mut oracle,
        tracer,
        &mut idle,
        false,
        run.warmup_seconds(),
    );
    tracer.set_enabled(run.trace);

    let counters = |c: &Cluster| {
        (
            c.histogram("fargo_move_marshal_bytes"),
            c.histogram("fargo_move_comoved"),
            c.counter("fargo_tracker_forwards_served_total"),
        )
    };
    let before = counters(&pop.cluster);
    let proc_before = env::proc_sample();
    let link_before = pop.cluster.link_totals();
    let mut overhead = Overhead::new(run.trace);
    let started = Instant::now();
    let mut m = mix(
        &pop,
        &inputs,
        &mut client,
        &mut oracle,
        tracer,
        &mut overhead,
        run.trace,
        run.seconds,
    );
    let elapsed = started.elapsed().as_secs_f64();
    let ops_per_s = m.rate.per_s();
    let after = counters(&pop.cluster);
    let link_after = pop.cluster.link_totals();
    if run.trace {
        process_metrics(&mut run.layers, proc_before, m.ops);
    }
    overhead.finish(tracer, &mut run.layers);

    // Every complet, wherever it ended up, still holds its payload and
    // every acknowledged touch.
    for (k, item) in items.iter().enumerate() {
        let r = pop.stubs[k][client.host[k]].call("digest", &[]);
        oracle.check(
            "final digest",
            r.as_ref(),
            &digest_of(item, client.tally[k]),
        );
    }
    run.oracle = oracle;

    let moves = m.moves.len();
    let calls = m.calls.len();
    run.samples.extend([
        ("move", Json::from(moves)),
        ("forwarded_invoke", Json::from(calls)),
        ("locate", Json::from(m.locates.len())),
        ("stale_locates", Json::from(m.stale_locates)),
    ]);
    let (call_p50, call_p99) = m.calls.p50_p99();
    let (move_p50, move_p99) = m.moves.p50_p99();
    run.e2e.put("call_p50_us", call_p50, "us");
    run.e2e.put("ops_per_s", ops_per_s, "1/s");
    run.e2e.put("ops_per_s_mean", m.ops as f64 / elapsed, "1/s");
    run.e2e.put("move_p50_us", move_p50, "us");
    run.e2e.put("locate_p50_us", m.locates.p50_p99().0, "us");

    if !run.trace {
        return;
    }
    let out = &mut run.layers;
    out.put("call_p99_us", call_p99, "us");
    out.put("move_p99_us", move_p99, "us");
    let per_move = |x: u64| x as f64 / moves.max(1) as f64;
    out.put(
        "core.movement.marshal_bytes_per_move",
        per_move(after.0 .0 - before.0 .0),
        "bytes",
    );
    out.put(
        "core.movement.msgs_per_move",
        per_move(m.move_msgs),
        "count",
    );
    out.put(
        "core.movement.comoved_per_move",
        per_move(after.1 .0 - before.1 .0),
        "count",
    );
    out.put(
        "core.trackers.forwards_per_call",
        (after.2 - before.2) as f64 / calls.max(1) as f64,
        "ratio",
    );
    let (chain_sum, chain_n) = pop.cluster.histogram("fargo_tracker_chain_length");
    out.put(
        "core.trackers.chain_len_mean",
        chain_sum as f64 / chain_n.max(1) as f64,
        "hops",
    );
    out.put("naming.lookup_hops_p50", median(&m.hops), "hops");
    out.put(
        "naming.lookup_hops_max",
        m.hops.iter().copied().fold(f64::NAN, f64::max),
        "hops",
    );
    out.put("naming.stale_locates", m.stale_locates as f64, "count");

    let root = tracer.begin("layers", 0, 0);
    let parent = root.as_ref().map_or(0, |o| o.id());
    // Complet state as the movement layer marshals it.
    let states: Vec<Value> = items
        .iter()
        .filter(|it| !it.holder)
        .take(96)
        .map(|it| {
            Value::map([
                ("n", Value::I64(0)),
                ("payload", Value::Bytes(it.payload.clone())),
            ])
        })
        .collect();
    let complets: Vec<BoundRef> = pop.stubs.iter().map(|s| s[0].clone()).collect();
    let window = layers::Window {
        ops: m.ops,
        links: (link_after.0 - link_before.0, link_after.1 - link_before.1),
    };
    layers::common(
        tracer,
        parent,
        &pop.cluster,
        Wire::Simnet,
        &states,
        &complets,
        window,
        out,
    );
    tracer.end(root);
}
