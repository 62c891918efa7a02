//! Which end-to-end metric each per-layer metric should move, and on
//! which workload. `local_invoke_p50_us`, `remote_rps`, `move_p50_us` and
//! `locate_p50_us` are end-to-end figures of one workload each, kept in
//! its report line. Traced runs tag every per-layer metric they emit with
//! its entry; `--layer-map` prints the whole table.

/// `(per-layer metric, layer, end-to-end metric(s) it should move, workload)`.
#[rustfmt::skip]
pub const LAYER_MAP: &[(&str, &str, &str, &str)] = &[
    // Measured by every workload: the per-layer metrics of BENCHMARK.json.
    ("call_p99_us", "tail", "call_p50_us (demoted end-to-end tail)", "all"),
    ("wire.encode_ns", "wire", "call_p50_us on invoke | ops_per_s on relocate (moves)", "all"),
    ("wire.decode_ns", "wire", "call_p50_us on invoke | ops_per_s on relocate (moves)", "all"),
    ("wire.bytes", "wire", "call_p50_us on invoke | ops_per_s on relocate (moves)", "all"),
    ("net.frame.write_ns", "net", "call_p50_us", "invoke"),
    ("net.frame.read_ns", "net", "call_p50_us", "invoke"),
    ("net.hop_us", "net", "call_p50_us (TCP on invoke, simnet elsewhere)", "all"),
    ("core.msgs_per_op", "core.invoke", "call_p50_us | ops_per_s", "all"),
    ("core.bytes_per_op", "core.invoke", "call_p50_us | ops_per_s", "all"),
    ("core.worker.queue_p50_us", "core.invoke", "ops_per_s", "invoke | durable"),
    ("core.worker.rejections", "core.invoke", "ops_per_s", "invoke"),
    ("core.worker.inline", "core.invoke", "ops_per_s", "invoke"),
    ("core.reliable.retries_per_op", "core.invoke", "error_rate | call_p99_us", "all"),
    ("core.reliable.dedup_hits", "core.invoke", "error_rate | call_p99_us", "all"),
    ("naming.owner_of_ns", "naming", "locate_p50_us | ops_per_s", "relocate"),
    ("naming.shard_lookup_ns", "naming", "locate_p50_us | ops_per_s", "relocate"),
    ("naming.shard_apply_ns", "naming", "locate_p50_us | ops_per_s", "relocate"),
    ("process.cpu_us_per_op", "process", "ops_per_s", "invoke | durable"),
    ("process.ctx_switches_per_op", "process", "call_p50_us", "invoke"),
    ("process.threads", "process", "ops_per_s", "invoke"),
    ("bench.trace_overhead_pct", "bench", "(tracing cost, not a program layer)", "all"),
    ("bench.error_rate", "bench", "(error_rate: failed / attempted)", "all"),
    // Measured by one workload only; traced runs keep them in the report
    // line. End-to-end figures that do not repeat within a tenth from run
    // to run on a 2-vCPU machine (the tails, the restart time) are here
    // rather than under a bound.
    ("local_invoke_p99_us", "tail", "local_invoke_p50_us (demoted end-to-end tail)", "invoke"),
    ("move_p99_us", "tail", "move_p50_us (demoted end-to-end tail)", "relocate"),
    ("recovery_ms", "core.recovery", "(demoted end-to-end metric)", "durable"),
    ("core.rpc_residual_us", "core.invoke", "call_p50_us", "invoke"),
    ("core.sinks.trace_ns", "core.invoke", "local_invoke_p50_us", "invoke"),
    ("core.sinks.journal_ns", "core.invoke", "local_invoke_p50_us", "invoke"),
    ("core.sinks.accounting_ns", "core.invoke", "local_invoke_p50_us", "invoke"),
    ("core.sinks.phase_timing_ns", "core.invoke", "local_invoke_p50_us", "invoke"),
    ("core.sinks.all_ns", "core.invoke", "local_invoke_p50_us", "invoke"),
    ("core.wal.ack_cost_us", "core.wal", "call_p50_us", "durable"),
    ("core.wal.fsync_cost_us", "core.wal", "call_p50_us", "durable"),
    ("core.wal.appends_per_ack", "core.wal", "ops_per_s", "durable"),
    ("core.wal.log_bytes_per_ack", "core.wal", "ops_per_s", "durable"),
    ("core.wal.compactions", "core.wal", "ops_per_s", "durable"),
    ("core.wal.errors", "core.wal", "error_rate", "durable"),
    ("host.fsync_us", "host", "call_p50_us (floor)", "durable"),
    ("core.recovery.replay_us", "core.recovery", "recovery_ms (demoted)", "durable"),
    ("core.recovery.replayed", "core.recovery", "recovery_ms (demoted)", "durable"),
    ("core.movement.marshal_bytes_per_move", "core.movement", "move_p50_us | ops_per_s", "relocate"),
    ("core.movement.msgs_per_move", "core.movement", "move_p50_us | ops_per_s", "relocate"),
    ("core.movement.comoved_per_move", "core.movement", "move_p50_us | ops_per_s", "relocate"),
    ("core.trackers.forwards_per_call", "core.trackers", "call_p50_us", "relocate"),
    ("core.trackers.chain_len_mean", "core.trackers", "call_p50_us", "relocate"),
    ("naming.lookup_hops_p50", "naming", "locate_p50_us", "relocate"),
    ("naming.lookup_hops_max", "naming", "locate_p50_us", "relocate"),
    ("naming.stale_locates", "naming", "locate_p50_us", "relocate"),
];

pub fn entry(metric: &str) -> Option<(&'static str, &'static str, &'static str)> {
    LAYER_MAP
        .iter()
        .find(|(m, ..)| *m == metric)
        .map(|&(_, layer, moves, workload)| (layer, moves, workload))
}
