//! E21 — transport scaling: in-flight RPC capacity and TCP-loopback vs
//! simnet throughput.
//!
//! Two questions, one table:
//!
//! * How many concurrent in-flight RPCs can one Core hold? Before the
//!   transport rework a caller parked one thread per outstanding RPC,
//!   so concurrency was bounded by `worker_threads`. With completion-keyed
//!   reply routing (`call_async` → `PendingCall`), outstanding calls are
//!   entries in the pending map, not parked threads. The experiment parks
//!   the server's worker pool behind two long naps, then issues >10,000
//!   asynchronous calls and reads the caller's pending-map high-water
//!   mark. Guardrail: peak in-flight ≥ 10,000 with zero worker-pool
//!   rejections and every reply eventually `Ok`.
//! * What does real framing cost? The same windowed invoke workload runs
//!   over both backends — the in-process simnet adapter and length-prefixed
//!   TCP over loopback — and reports sustained request-reply throughput.
//!   Guardrail: both backends sustain ≥ 1,000 RPC/s (a deliberately loose
//!   floor; the point is that the TCP path works at rate, not a loopback
//!   horse race).
//!
//! Both halves run on instant, lossless links: the subject is the
//! transport and dispatch machinery, not the link model.

use std::time::{Duration, Instant};

use fargo_core::{Core, CoreConfig, TelemetryRegistry, Value};
use simnet::{LinkConfig, Network, NetworkConfig};

use crate::harness::ClusterSpec;
use crate::table::Table;
use crate::workload::{bench_registry, counter_total};

/// Server-side pool: two threads to park, a queue deep enough to hold
/// every outstanding request without shedding.
fn deep_queue(config: CoreConfig) -> CoreConfig {
    config.with_worker_pool(2, 32_768)
}

/// Parks the server pool, floods it with `n` async calls, and returns
/// `(peak in-flight, worker rejections, failed replies)`.
fn inflight_scaling(n: usize, nap_ms: i64) -> (usize, u64, usize) {
    let cluster = ClusterSpec::instant(2)
        .rpc_retries(0) // one transmission per call: rejection counts stay exact
        .config_tweak(deep_queue)
        .build();
    let servant = cluster.cores[0]
        .new_complet_at("core1", "Servant", &[])
        .expect("spawn servant");

    // Park both server workers so nothing is answered while we flood.
    let parked: Vec<_> = (0..2)
        .map(|_| servant.call_async("nap", &[Value::I64(nap_ms)]))
        .collect();
    std::thread::sleep(Duration::from_millis(200));

    let pending: Vec<_> = (0..n).map(|_| servant.call_async("touch", &[])).collect();
    let peak = cluster.cores[0].inflight_rpcs();
    let rejected = counter_total(&cluster.telemetry, "fargo_worker_rejections_total");

    let failed = pending
        .into_iter()
        .chain(parked)
        .map(|p| p.wait())
        .filter(Result::is_err)
        .count();
    (peak, rejected, failed)
}

/// Builds a two-Core cluster over the chosen backend and measures
/// sustained request-reply throughput with a fixed async window.
fn throughput(n: usize, window: usize, tcp: bool) -> f64 {
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

    let cores: Vec<Core> = if tcp {
        let listeners: Vec<std::net::TcpListener> = (0..2)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let peers: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().expect("local addr").to_string())
            .collect();
        listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                Core::builder(&net, &format!("core{i}"))
                    .registry(&registry)
                    .config(config.clone())
                    .telemetry(&telemetry)
                    .tcp_transport(listener, peers.clone())
                    .spawn()
                    .expect("core must spawn")
            })
            .collect()
    } else {
        (0..2)
            .map(|i| {
                Core::builder(&net, &format!("core{i}"))
                    .registry(&registry)
                    .config(config.clone())
                    .telemetry(&telemetry)
                    .spawn()
                    .expect("core must spawn")
            })
            .collect()
    };

    let servant = cores[0]
        .new_complet_at("core1", "Servant", &[])
        .expect("spawn servant");
    servant.call("touch", &[]).expect("warmup");

    let start = Instant::now();
    let mut done = 0usize;
    while done < n {
        let batch = window.min(n - done);
        let pending: Vec<_> = (0..batch)
            .map(|_| servant.call_async("touch", &[]))
            .collect();
        for p in pending {
            p.wait().expect("reply");
        }
        done += batch;
    }
    let elapsed = start.elapsed();

    for c in &cores {
        c.stop();
    }
    n as f64 / elapsed.as_secs_f64()
}

pub fn run(full: bool) -> Table {
    let n_inflight = if full { 15_000 } else { 11_000 };
    let nap_ms = if full { 4_000 } else { 3_000 };
    let (peak, rejected, failed) = inflight_scaling(n_inflight, nap_ms);
    let inflight_ok = peak >= 10_000 && rejected == 0 && failed == 0;

    let n_rpc = if full { 20_000 } else { 4_000 };
    let window = 256;
    let simnet_rate = throughput(n_rpc, window, false);
    let tcp_rate = throughput(n_rpc, window, true);
    let floor = 1_000.0;
    let simnet_ok = simnet_rate >= floor;
    let tcp_ok = tcp_rate >= floor;

    let mut table = Table::new(
        "E21: transport scaling — in-flight RPC capacity and backend throughput",
        &["measurement", "value", "notes"],
    )
    .with_note(
        "guardrails: one Core holds >=10,000 concurrent in-flight RPCs with zero worker-pool rejections and all replies Ok; both transport backends sustain >=1,000 request-reply RPCs per second over a 256-call async window.",
    );
    table.row([
        "peak in-flight RPCs".to_owned(),
        format!("{peak}"),
        if inflight_ok {
            format!("guardrail ok (>=10,000 in flight, {rejected} rejections, {failed} failures over {n_inflight} calls)")
        } else {
            format!(
                "guardrail FAILED (peak {peak}, {rejected} rejections, {failed} failed replies over {n_inflight} calls)"
            )
        },
    ]);
    table.row([
        "simnet adapter throughput".to_owned(),
        format!("{simnet_rate:.0} rpc/s"),
        if simnet_ok {
            format!("guardrail ok (simnet window {window}, {n_rpc} calls, floor 1,000 rpc/s)")
        } else {
            format!("guardrail FAILED (simnet {simnet_rate:.0} rpc/s < 1,000 over {n_rpc} calls)")
        },
    ]);
    table.row([
        "tcp loopback throughput".to_owned(),
        format!("{tcp_rate:.0} rpc/s"),
        if tcp_ok {
            format!("guardrail ok (tcp window {window}, {n_rpc} calls, floor 1,000 rpc/s)")
        } else {
            format!("guardrail FAILED (tcp {tcp_rate:.0} rpc/s < 1,000 over {n_rpc} calls)")
        },
    ]);
    table.row([
        "tcp/simnet rate ratio".to_owned(),
        format!("{:.2}", tcp_rate / simnet_rate),
        "framing + socket cost relative to the in-process adapter".to_owned(),
    ]);
    table
}
