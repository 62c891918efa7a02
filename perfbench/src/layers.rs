//! Per-layer probes: direct calls into each layer's public functions on
//! the workload's own generated inputs, timed in batches inside spans.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fargo_core::{BoundRef, Clock, CompletId, Value};
use fargo_naming::{HashRing, LocationShard, ShardEntry};
use fargo_net::{SimnetTransport, TcpTransport, TcpTransportConfig, Transport};
use simnet::{LinkConfig, Network, NetworkConfig};

use crate::cluster::{Cluster, Wire};
use crate::trace::Tracer;
use crate::util::{median, Metrics};

/// Rounds per probe; each metric is the median of per-round means.
const ROUNDS: usize = 15;

/// Times `per_round` calls of `f(i)` in each of [`ROUNDS`] spans and
/// returns the median per-call time in nanoseconds.
fn timed(
    tracer: &Tracer,
    name: &'static str,
    parent: u64,
    per_round: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let mut rounds = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS {
        let open = tracer.begin(name, 0, parent);
        let t = Instant::now();
        for i in 0..per_round {
            f(r * per_round + i);
        }
        let ns = t.elapsed().as_nanos() as f64;
        tracer.end(open);
        rounds.push(ns / per_round as f64);
    }
    median(&rounds)
}

/// `wire.encode_ns`, `wire.decode_ns` (mean per value over the pool) and
/// `wire.bytes` (mean encoded size) on the workload's own values.
fn wire(tracer: &Tracer, parent: u64, values: &[Value], out: &mut Metrics) {
    let encoded: Vec<Bytes> = values.iter().map(fargo_wire::encode_value).collect();
    for (v, b) in values.iter().zip(&encoded) {
        assert_eq!(
            &fargo_wire::decode_value(b).expect("decode"),
            v,
            "codec round trip"
        );
    }
    let n = values.len();
    let enc = timed(tracer, "wire.encode", parent, n, |i| {
        std::hint::black_box(fargo_wire::encode_value(std::hint::black_box(
            &values[i % n],
        )));
    });
    let dec = timed(tracer, "wire.decode", parent, n, |i| {
        std::hint::black_box(fargo_wire::decode_value(std::hint::black_box(&encoded[i % n])).ok());
    });
    let bytes = encoded.iter().map(Bytes::len).sum::<usize>() as f64 / n as f64;
    out.put("wire.encode_ns", enc, "ns");
    out.put("wire.decode_ns", dec, "ns");
    out.put("wire.bytes", bytes, "bytes");
}

/// `net.frame.write_ns` / `net.frame.read_ns` for one frame of
/// `envelope_bytes` payload.
fn frame(tracer: &Tracer, parent: u64, envelope_bytes: usize, out: &mut Metrics) {
    let payload = vec![0x5Au8; envelope_bytes.max(1)];
    let mut framed = Vec::new();
    fargo_net::write_frame(&mut framed, &payload).expect("frame");
    let mut buf = Vec::with_capacity(framed.len());
    let write = timed(tracer, "net.frame.write", parent, 2000, |_| {
        buf.clear();
        fargo_net::write_frame(&mut buf, std::hint::black_box(&payload)).expect("frame");
    });
    let read = timed(tracer, "net.frame.read", parent, 2000, |_| {
        let mut cur = std::io::Cursor::new(std::hint::black_box(&framed[..]));
        std::hint::black_box(fargo_net::read_frame(&mut cur).expect("unframe"));
    });
    out.put("net.frame.write_ns", write, "ns");
    out.put("net.frame.read_ns", read, "ns");
}

/// Shuts transports down on every exit path.
struct Transports(Vec<Box<dyn Transport>>);

impl Drop for Transports {
    fn drop(&mut self) {
        for t in &self.0 {
            t.shutdown();
        }
    }
}

/// One-way send→`recv_timeout` hop between two in-process transports,
/// median in microseconds.
fn hop(tracer: &Tracer, name: &'static str, parent: u64, pair: &Transports, bytes: usize) -> f64 {
    let payload = Bytes::from(vec![0xA5u8; bytes.max(1)]);
    let (a, b) = (&pair.0[0], &pair.0[1]);
    let one = || {
        let t = Instant::now();
        a.send(b.local_index(), payload.clone()).expect("hop send");
        let got = b.recv_timeout(Duration::from_secs(5)).expect("hop receive");
        assert_eq!(got.payload.len(), payload.len(), "hop payload intact");
        t.elapsed().as_nanos() as u64
    };
    for _ in 0..200 {
        one();
    }
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let open = tracer.begin(name, 0, parent);
            let round: Vec<f64> = (0..200).map(|_| one() as f64 / 1e3).collect();
            tracer.end(open);
            median(&round)
        })
        .collect();
    median(&samples)
}

/// One-way hop over two loopback `TcpTransport`s, in microseconds.
fn tcp_hop(tracer: &Tracer, parent: u64, bytes: usize) -> f64 {
    let listeners: Vec<std::net::TcpListener> = (0..2)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let peers: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("address").to_string())
        .collect();
    let mut pair = Transports(Vec::new());
    for (i, l) in listeners.into_iter().enumerate() {
        let config = TcpTransportConfig {
            local: i as u32,
            peers: peers.clone(),
        };
        pair.0.push(Box::new(
            TcpTransport::start(config, l, None).expect("tcp transport"),
        ));
    }
    hop(tracer, "net.tcp.hop", parent, &pair, bytes)
}

/// One-way hop over two `SimnetTransport`s on an instant link, in
/// microseconds.
fn simnet_hop(tracer: &Tracer, parent: u64, bytes: usize) -> f64 {
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let mut pair = Transports(Vec::new());
    for name in ["hop-a", "hop-b"] {
        let ep = net.add_node(name).expect("simnet node");
        pair.0.push(Box::new(SimnetTransport::new(ep, Clock::Wall)));
    }
    hop(tracer, "net.simnet.hop", parent, &pair, bytes)
}

/// `naming.owner_of_ns`, `naming.shard_apply_ns`, `naming.shard_lookup_ns`
/// on the workload's complet ids over a ring of `nodes` Cores.
fn naming(tracer: &Tracer, parent: u64, ids: &[CompletId], nodes: u32, out: &mut Metrics) {
    let members: Vec<u32> = (0..nodes).collect();
    let ring = HashRing::new(&members, fargo_core::CoreConfig::default().naming_vnodes);
    let shard = LocationShard::new();
    let n = ids.len();
    let owner = timed(tracer, "naming.owner_of", parent, n, |i| {
        std::hint::black_box(ring.owner_of(std::hint::black_box(ids[i % n])));
    });
    let apply = timed(tracer, "naming.shard_apply", parent, n, |i| {
        let entry = ShardEntry {
            node: (i % nodes as usize) as u32,
            epoch: (i / n) as u64 + 1,
            alive: true,
        };
        std::hint::black_box(shard.apply(ids[i % n], entry));
    });
    let lookup = timed(tracer, "naming.shard_lookup", parent, n, |i| {
        std::hint::black_box(shard.lookup(std::hint::black_box(ids[i % n])));
    });
    out.put("naming.owner_of_ns", owner, "ns");
    out.put("naming.shard_apply_ns", apply, "ns");
    out.put("naming.shard_lookup_ns", lookup, "ns");
}

/// `host.fsync_us`: a plain write + `sync_data` of a record-sized buffer
/// in `dir`, the floor under any durable-ack latency.
pub fn host_fsync(
    tracer: &Tracer,
    parent: u64,
    dir: &Path,
    record_bytes: usize,
    out: &mut Metrics,
) {
    let path = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&path).expect("fsync probe file");
    let buf = vec![0x42u8; record_bytes.max(1)];
    let mut samples = Vec::with_capacity(200);
    for _ in 0..200 {
        let open = tracer.begin("host.fsync", 0, parent);
        let t = Instant::now();
        file.write_all(&buf).expect("probe write");
        file.sync_data().expect("probe sync");
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
        tracer.end(open);
    }
    drop(file);
    let _ = std::fs::remove_file(&path);
    out.put("host.fsync_us", median(&samples), "us");
}

/// What a workload's timed phases did, for [`common`].
pub struct Window {
    /// Client operations completed.
    pub ops: u64,
    /// `(messages, bytes)` sent over the cluster's links.
    pub links: (u64, u64),
}

/// The per-layer metrics every workload reports, on its own cluster,
/// transport, values and complets: codec, framing and one transport hop
/// at the observed mean envelope size, messages and bytes per operation,
/// worker pool, reliable messaging and naming. Returns the hop in
/// microseconds.
#[allow(clippy::too_many_arguments)]
pub fn common(
    tracer: &Tracer,
    parent: u64,
    cluster: &Cluster,
    wire_kind: Wire,
    values: &[Value],
    complets: &[BoundRef],
    window: Window,
    out: &mut Metrics,
) -> f64 {
    let ops = window.ops.max(1) as f64;
    let (msgs, bytes) = window.links;
    out.put("core.msgs_per_op", msgs as f64 / ops, "count");
    out.put("core.bytes_per_op", bytes as f64 / ops, "bytes");
    let envelope = (bytes as f64 / msgs.max(1) as f64).round() as usize;

    wire(tracer, parent, values, out);
    frame(tracer, parent, envelope, out);
    let hop_us = match wire_kind {
        Wire::Tcp => tcp_hop(tracer, parent, envelope),
        Wire::Simnet => simnet_hop(tracer, parent, envelope),
    };
    out.put("net.hop_us", hop_us, "us");
    let ids: Vec<CompletId> = complets.iter().map(BoundRef::id).collect();
    naming(tracer, parent, &ids, cluster.cores.len() as u32, out);

    out.put("core.worker.queue_p50_us", cluster.queue_p50_us(), "us");
    out.put(
        "core.worker.rejections",
        cluster.counter("fargo_worker_rejections_total") as f64,
        "count",
    );
    out.put(
        "core.worker.inline",
        cluster.counter("fargo_worker_inline_total") as f64,
        "count",
    );
    let (retries, dedup) = cluster.reliability();
    out.put(
        "core.reliable.retries_per_op",
        retries as f64 / ops,
        "ratio",
    );
    out.put("core.reliable.dedup_hits", dedup as f64, "count");
    hop_us
}
