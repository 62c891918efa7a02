//! FarGo-RS benchmark.
//!
//! ```text
//! perfbench --workload <invoke|durable|relocate> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --layer-map
//! ```
//!
//! Runs one seeded workload against a cluster of Cores in this process,
//! checks every result, and prints two JSON lines: a report (seed,
//! parameters, environment fingerprint, sample counts, error rate, every
//! metric the run measured, and for traced runs the layer map and span
//! summary), then the result `{"correct", "attempted", "failed",
//! "metrics"}`. The result of an untraced run holds the [`END_TO_END`]
//! metrics, that of a traced run the [`PER_LAYER`] ones: the metrics
//! `BENCHMARK.json` lists, which every workload measures. Figures only
//! one workload produces stay in the report. Everything the run writes
//! goes under `.perfbench/` in the working directory.

mod cluster;
mod durable;
mod env;
mod invoke;
mod layer_map;
mod layers;
mod relocate;
mod trace;
mod util;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use cluster::Oracle;
use trace::Tracer;
use util::{median, Json, Metrics};

/// End-to-end metrics of every result line, as `BENCHMARK.json` lists
/// them. `call_p50_us` is the workload's remote call: a synchronous call
/// on `invoke`, an acknowledged windowed call on `durable`, a call
/// forwarded through trackers on `relocate`. `ops_per_s` counts every
/// client operation of the timed phases.
pub const END_TO_END: &[&str] = &["setup_s", "call_p50_us", "ops_per_s", "peak_rss_mb"];

/// Per-layer metrics of every traced result line, as `BENCHMARK.json`
/// lists them.
pub const PER_LAYER: &[&str] = &[
    "call_p99_us",
    "wire.encode_ns",
    "wire.decode_ns",
    "wire.bytes",
    "net.frame.write_ns",
    "net.frame.read_ns",
    "net.hop_us",
    "core.msgs_per_op",
    "core.bytes_per_op",
    "core.worker.queue_p50_us",
    "core.worker.rejections",
    "core.worker.inline",
    "core.reliable.retries_per_op",
    "core.reliable.dedup_hits",
    "naming.owner_of_ns",
    "naming.shard_lookup_ns",
    "naming.shard_apply_ns",
    "process.cpu_us_per_op",
    "process.ctx_switches_per_op",
    "process.threads",
    "bench.trace_overhead_pct",
    "bench.error_rate",
];

/// Everything one run accumulates.
pub struct Run {
    pub seed: u64,
    /// Measured duration of the workload's timed phases.
    pub seconds: f64,
    pub trace: bool,
    pub tracer: Tracer,
    pub oracle: Oracle,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub params: Vec<(&'static str, Json)>,
    pub env: Vec<(&'static str, Json)>,
    pub samples: Vec<(&'static str, Json)>,
}

impl Run {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Run {
        Run {
            seed,
            seconds,
            trace,
            tracer: Tracer::new(trace),
            oracle: Oracle::default(),
            e2e: Metrics::default(),
            layers: Metrics::default(),
            params: Vec::new(),
            env: env::fingerprint(),
            samples: Vec::new(),
        }
    }

    /// Untimed warm-up under the workload's own mix before measuring, so
    /// lazy set-up and the program's caches reach their steady state.
    pub fn warmup_seconds(&self) -> f64 {
        (self.seconds / 4.0).min(2.0)
    }

    /// Runs `build` `k` times, timing each; keeps the last result (the
    /// earlier ones are torn down untimed) and records the median time as
    /// `setup_s`.
    pub fn setups<T>(&mut self, k: usize, mut build: impl FnMut(usize) -> T) -> T {
        let mut times = Vec::with_capacity(k);
        let mut last = None;
        for i in 0..k {
            drop(last.take());
            let t = Instant::now();
            let built = build(i);
            times.push(t.elapsed().as_secs_f64());
            last = Some(built);
        }
        self.e2e.put("setup_s", median(&times), "s");
        self.samples.push(("setups", Json::from(k)));
        last.expect("at least one setup")
    }
}

/// Records process counters over a timed window as per-layer metrics.
pub fn process_metrics(out: &mut Metrics, before: env::ProcSample, ops: u64) {
    let after = env::proc_sample();
    let ops = ops.max(1) as f64;
    out.put(
        "process.cpu_us_per_op",
        (after.cpu_us - before.cpu_us) / ops,
        "us",
    );
    out.put(
        "process.ctx_switches_per_op",
        after.ctx_switches.saturating_sub(before.ctx_switches) as f64 / ops,
        "count",
    );
    out.put("process.threads", after.threads as f64, "count");
}

/// Tracing-overhead probe: in a traced run the op loop alternates blocks
/// of operations with span recording on and off; the overhead is the
/// difference of the per-op medians of the two kinds of block.
pub struct Overhead {
    active: bool,
    start: Instant,
    n: usize,
    on: Vec<f64>,
    off: Vec<f64>,
}

const OVERHEAD_BLOCK: usize = 128;

impl Overhead {
    pub fn new(active: bool) -> Overhead {
        Overhead {
            active,
            start: Instant::now(),
            n: 0,
            on: Vec::new(),
            off: Vec::new(),
        }
    }

    /// Counts one finished operation.
    pub fn tick(&mut self, tracer: &Tracer) {
        if !self.active {
            return;
        }
        self.n += 1;
        if self.n == OVERHEAD_BLOCK {
            let per_op = self.start.elapsed().as_nanos() as f64 / self.n as f64;
            if tracer.enabled() {
                self.on.push(per_op);
            } else {
                self.off.push(per_op);
            }
            tracer.set_enabled(!tracer.enabled());
            self.n = 0;
            self.start = Instant::now();
        }
    }

    /// Percentage by which traced blocks ran slower; leaves tracing on.
    pub fn finish(self, tracer: &Tracer, out: &mut Metrics) {
        if !self.active {
            return;
        }
        tracer.set_enabled(true);
        if !self.on.is_empty() && !self.off.is_empty() {
            let off = median(&self.off);
            out.put(
                "bench.trace_overhead_pct",
                (median(&self.on) - off) / off * 100.0,
                "%",
            );
        }
    }
}

/// Deadline helper for duration-bound loops.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        if flag == "--layer-map" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn print_layer_map() {
    let rows = layer_map::LAYER_MAP
        .iter()
        .map(|&(m, layer, moves, workload)| {
            Json::obj([
                ("metric", Json::from(m)),
                ("layer", Json::from(layer)),
                ("moves", Json::from(moves)),
                ("workload", Json::from(workload)),
            ])
        })
        .collect();
    println!("{}", Json::Arr(rows));
}

/// Runs the named workload; `false` when there is no such workload.
fn run_workload(name: &str, run: &mut Run) -> bool {
    match name {
        "invoke" => invoke::run(run),
        "durable" => durable::run(run),
        "relocate" => relocate::run(run),
        _ => return false,
    }
    true
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            print_layer_map();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::new(args.seed, args.seconds, args.trace);
    let host_before = env::host_cpu_ticks();
    if !run_workload(&args.workload, &mut run) {
        eprintln!(
            "perfbench: unknown workload {} (invoke, durable, relocate)",
            args.workload
        );
        return ExitCode::from(2);
    }

    let host_after = env::host_cpu_ticks();
    let steal = host_after.0.saturating_sub(host_before.0) as f64;
    let total = host_after.1.saturating_sub(host_before.1).max(1) as f64;
    run.samples
        .push(("host_steal_pct", Json::Num(steal / total * 100.0)));
    let rss = env::peak_rss_mb();
    run.e2e.put("peak_rss_mb", rss, "MB");
    let o = &run.oracle;
    let error_rate = o.failed() as f64 / o.attempted.max(1) as f64;
    run.layers.put("bench.error_rate", error_rate, "ratio");
    let correct = o.failed() == 0 && o.attempted > 0;

    let mut report = vec![
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("params", Json::obj(std::mem::take(&mut run.params))),
        ("env", Json::obj(std::mem::take(&mut run.env))),
        ("samples", Json::obj(std::mem::take(&mut run.samples))),
        (
            "error_rate",
            Json::obj([
                ("value", Json::Num(error_rate)),
                ("unit", Json::from("ratio")),
            ]),
        ),
        (
            "oracle",
            Json::obj([
                ("attempted", Json::from(o.attempted)),
                ("errors", Json::from(o.errors)),
                ("wrong", Json::from(o.wrong)),
                (
                    "examples",
                    Json::Arr(o.examples.iter().map(|e| Json::from(e.as_str())).collect()),
                ),
            ]),
        ),
    ];
    if args.trace {
        let tags = run
            .layers
            .0
            .iter()
            .filter_map(|(m, ..)| {
                let (layer, moves, workload) = layer_map::entry(m)?;
                Some((
                    m.clone(),
                    Json::obj([
                        ("layer", Json::from(layer)),
                        ("moves", Json::from(moves)),
                        ("workload", Json::from(workload)),
                    ]),
                ))
            })
            .collect();
        report.push(("layer_map", Json::Obj(tags)));
        report.push(("spans", run.tracer.summary()));
        let dir = cluster::out_root().join("spans");
        let path = dir.join(format!("{}.jsonl", args.workload));
        let written = std::fs::create_dir_all(&dir).and_then(|()| run.tracer.write(&path));
        report.push((
            "spans_file",
            match written {
                Ok(()) => Json::from(path.display().to_string()),
                Err(e) => Json::from(format!("not written: {e}")),
            },
        ));
    }
    let (metrics, listed) = if args.trace {
        (&run.layers, PER_LAYER)
    } else {
        (&run.e2e, END_TO_END)
    };
    report.push(("metrics", metrics.to_json()));
    println!("{}", Json::obj([("perfbench", Json::obj(report))]));

    let selected = match metrics.select(listed) {
        Ok(m) => m,
        Err(missing) => {
            eprintln!("perfbench: {} measured no {missing}", args.workload);
            return ExitCode::from(3);
        }
    };
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(o.attempted)),
        ("failed", Json::from(o.failed())),
        ("metrics", selected.to_json()),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed the oracle",
            o.failed(),
            o.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload runs clean under the oracle, traced and untraced,
    /// and measures every end-to-end metric of the result line.
    #[test]
    fn workloads_run_clean() {
        for name in ["invoke", "durable", "relocate"] {
            for trace in [false, true] {
                let mut run = Run::new(7, 0.4, trace);
                assert!(run_workload(name, &mut run));
                let o = &run.oracle;
                assert!(o.attempted > 0, "{name}: nothing attempted");
                assert_eq!(o.failed(), 0, "{name} (trace {trace}): {:?}", o.examples);
                // `peak_rss_mb` is added by `main`.
                for &m in END_TO_END.iter().filter(|&&m| m != "peak_rss_mb") {
                    assert!(run.e2e.0.iter().any(|(n, ..)| n == m), "{name}: no {m}");
                }
                if trace {
                    for (m, ..) in &run.layers.0 {
                        assert!(
                            layer_map::entry(m).is_some(),
                            "{name}: {m} is not in the layer map"
                        );
                    }
                }
            }
        }
    }

    /// The metric lists match `BENCHMARK.json`, name for name and in
    /// order.
    #[test]
    fn lists_match_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').expect("list end") + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').expect("name end")].to_owned())
                .collect()
        };
        assert_eq!(section("end_to_end"), END_TO_END);
        assert_eq!(section("per_layer"), PER_LAYER);
        for m in PER_LAYER {
            assert!(layer_map::entry(m).is_some(), "{m} is not in the layer map");
        }
    }
}
