//! Cluster set-up shared by the workloads, the benchmark's complet
//! types, scratch-directory hygiene and the correctness oracle.

use std::path::{Path, PathBuf};
use std::time::Duration;

use fargo_core::{
    define_complet, CompletRegistry, Core, CoreConfig, FargoError, MetricValue, TelemetryRegistry,
    Value,
};
use simnet::{LinkConfig, Network, NetworkConfig};

use crate::util::fnv64;

define_complet! {
    /// Counter plus an opaque payload. `get` echoes its argument, `touch`
    /// bumps the counter, `digest` reports `[counter, fnv64(payload)]`.
    pub complet Servant {
        state {
            n: i64 = 0,
            payload: Value = Value::Null,
        }
        init(&mut self, args) {
            self.payload = args.first().cloned().unwrap_or(Value::Null);
            Ok(())
        }
        fn get(&mut self, _ctx, args) {
            Ok(args.first().cloned().unwrap_or(Value::Null))
        }
        fn touch(&mut self, _ctx, _args) {
            self.n += 1;
            Ok(Value::I64(self.n))
        }
        fn read(&mut self, _ctx, _args) {
            Ok(Value::I64(self.n))
        }
        fn digest(&mut self, _ctx, _args) {
            let h = fnv64(self.payload.as_bytes().unwrap_or(&[]));
            Ok(Value::list([Value::I64(self.n), Value::I64(h as i64)]))
        }
    }
}

define_complet! {
    /// Holds references to dependencies; retyped to `pull` they co-move
    /// with it.
    pub complet Holder {
        state {
            deps: Vec<fargo_core::CompletRef> = Vec::new(),
        }
        fn add_dep(&mut self, _ctx, args) {
            let d = args.first().and_then(Value::as_ref_desc).cloned()
                .ok_or_else(|| FargoError::InvalidArgument("need a ref".into()))?;
            self.deps.push(fargo_core::CompletRef::from_descriptor(d));
            Ok(Value::I64(self.deps.len() as i64))
        }
        fn retype_all(&mut self, ctx, args) {
            let t = args.first().and_then(Value::as_str).unwrap_or("link");
            for d in &self.deps {
                ctx.core().meta_ref(d).set_relocator(t)?;
            }
            Ok(Value::Null)
        }
        fn digest(&mut self, _ctx, _args) {
            Ok(Value::list([Value::I64(self.deps.len() as i64), Value::I64(0)]))
        }
    }
}

pub fn registry() -> CompletRegistry {
    let reg = CompletRegistry::new();
    Servant::register(&reg);
    Holder::register(&reg);
    reg
}

/// Root of everything a run writes: `.perfbench/` in the working
/// directory (the checkout root).
pub fn out_root() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// A per-process scratch directory, removed on drop — also when the
/// run unwinds from a panic — so repeated runs never read each other's
/// logs. Directories left by a killed process are swept on creation.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let root = out_root().join("scratch");
        std::fs::create_dir_all(&root)?;
        sweep_stale(&root);
        // Unique per instance, not only per process: a second run in the
        // same process must not share a log directory with the first.
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = root.join(format!("{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let d = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create scratch subdirectory");
        d
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Removes scratch directories whose owning process no longer exists.
fn sweep_stale(root: &Path) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let pid = name.split('-').next().unwrap_or("");
        if !pid.is_empty() && !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Which transport a cluster runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Length-prefixed TCP over loopback, listeners on port 0.
    Tcp,
    /// In-process simnet with instant links.
    Simnet,
}

impl Wire {
    pub fn label(self) -> &'static str {
        match self {
            Wire::Tcp => "tcp-loopback",
            Wire::Simnet => "simnet-instant",
        }
    }
}

/// A running cluster. Dropping it stops every Core, which closes their
/// listeners and joins their threads — on every exit path.
pub struct Cluster {
    pub net: Network,
    pub cores: Vec<Core>,
    pub telemetry: TelemetryRegistry,
    pub registry: CompletRegistry,
    configs: Vec<CoreConfig>,
}

impl Cluster {
    /// Spawns `n` Cores named `core0..`; `config(i)` gives Core `i`'s
    /// configuration.
    pub fn spawn(n: usize, wire: Wire, config: impl Fn(usize) -> CoreConfig) -> Cluster {
        let net = Network::new(NetworkConfig {
            default_link: Some(LinkConfig::instant()),
            ..NetworkConfig::default()
        });
        let registry = registry();
        let telemetry = TelemetryRegistry::new();
        let configs: Vec<CoreConfig> = (0..n).map(config).collect();
        let mut cluster = Cluster {
            net,
            cores: Vec::with_capacity(n),
            telemetry,
            registry,
            configs,
        };
        match wire {
            Wire::Simnet => {
                for i in 0..n {
                    let core = Core::builder(&cluster.net, &format!("core{i}"))
                        .registry(&cluster.registry)
                        .config(cluster.configs[i].clone())
                        .telemetry(&cluster.telemetry)
                        .spawn()
                        .expect("core must spawn");
                    cluster.cores.push(core);
                }
            }
            Wire::Tcp => {
                let listeners: Vec<std::net::TcpListener> = (0..n)
                    .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
                    .collect();
                let peers: Vec<String> = listeners
                    .iter()
                    .map(|l| l.local_addr().expect("listener address").to_string())
                    .collect();
                for (i, listener) in listeners.into_iter().enumerate() {
                    let core = Core::builder(&cluster.net, &format!("core{i}"))
                        .registry(&cluster.registry)
                        .config(cluster.configs[i].clone())
                        .telemetry(&cluster.telemetry)
                        .tcp_transport(listener, peers.clone())
                        .spawn()
                        .expect("core must spawn");
                    cluster.cores.push(core);
                }
            }
        }
        cluster
    }

    /// Respawns the stopped Core `i` on the same simnet node with the
    /// same configuration (and so the same write-ahead log), which
    /// replays the log before `spawn` returns.
    pub fn respawn(&mut self, i: usize) {
        let ep = self
            .net
            .restart_node(self.cores[i].node())
            .expect("restart node");
        self.cores[i] = Core::builder(&self.net, &format!("core{i}"))
            .endpoint(ep)
            .registry(&self.registry)
            .config(self.configs[i].clone())
            .telemetry(&self.telemetry)
            .spawn()
            .expect("restarted core must spawn");
    }

    /// Messages and payload bytes sent so far over every directed link.
    pub fn link_totals(&self) -> (u64, u64) {
        let mut msgs = 0;
        let mut bytes = 0;
        for a in &self.cores {
            for b in &self.cores {
                if a.node() != b.node() {
                    let s = self.net.link_stats(a.node(), b.node());
                    msgs += s.messages;
                    bytes += s.bytes;
                }
            }
        }
        (msgs, bytes)
    }

    /// Sum of a counter over every Core, from the shared registry.
    pub fn counter(&self, name: &str) -> u64 {
        self.telemetry
            .snapshot()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// `(sum, count)` of a histogram over every Core.
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        self.telemetry
            .snapshot()
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(s, c), snap| match &snap.value {
                MetricValue::Histogram { sum, count, .. } => (s + sum, c + count),
                _ => (s, c),
            })
    }

    /// Reliable-messaging `(retransmissions, dedup hits)` over every Core.
    pub fn reliability(&self) -> (u64, u64) {
        self.cores.iter().fold((0, 0), |(r, d), c| {
            let (retries, dedup, _, _) = c.reliability_stats();
            (r + retries, d + dedup)
        })
    }

    /// Median time a request waited for a worker (the `queue` phase of
    /// `latency_summaries`), from the Core that queued the most requests;
    /// NaN when no Core queued any.
    pub fn queue_p50_us(&self) -> f64 {
        self.cores
            .iter()
            .filter_map(|c| {
                c.latency_summaries()
                    .into_iter()
                    .find(|s| s.phase == "queue")
            })
            .max_by_key(|s| s.count)
            .and_then(|s| s.p50)
            .unwrap_or(f64::NAN)
    }

    /// Waits until nothing is in flight and no Core has queued work.
    pub fn quiesce(&self) {
        let mut stable = 0;
        for _ in 0..5000 {
            let pending = self.net.in_flight() as usize
                + self.cores.iter().map(Core::pending_work).sum::<usize>();
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
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in &self.cores {
            c.stop();
        }
    }
}

/// The correctness oracle's tally for one run.
#[derive(Default)]
pub struct Oracle {
    pub attempted: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Operations that returned a wrong result.
    pub wrong: u64,
    /// The first few problems, for the report.
    pub examples: Vec<String>,
}

impl Oracle {
    fn note(&mut self, what: String) {
        if self.examples.len() < 8 {
            self.examples.push(what);
        }
    }

    /// Checks one operation's outcome against the expected value.
    pub fn check(&mut self, what: &str, got: Result<&Value, &FargoError>, want: &Value) {
        self.attempted += 1;
        match got {
            Ok(v) if v == want => {}
            Ok(v) => {
                self.wrong += 1;
                self.note(format!("{what}: got {v:?}, want {want:?}"));
            }
            Err(e) => {
                self.errors += 1;
                self.note(format!("{what}: error {e}"));
            }
        }
    }

    /// Records an operation that only has to succeed.
    pub fn ok<T>(&mut self, what: &str, got: &Result<T, FargoError>) {
        self.attempted += 1;
        if let Err(e) = got {
            self.errors += 1;
            self.note(format!("{what}: error {e}"));
        }
    }

    /// Records a check that is not itself a client operation.
    pub fn verify(&mut self, what: &str, ok: bool) {
        if !ok {
            self.wrong += 1;
            self.note(what.to_owned());
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_removed_when_a_run_panics() {
        let dir = std::sync::Mutex::new(PathBuf::new());
        let unwound = std::panic::catch_unwind(|| {
            let scratch = Scratch::new("panic-test").expect("scratch");
            std::fs::write(scratch.subdir("wal").join("log"), b"x").expect("write");
            *dir.lock().expect("lock") = scratch.path().to_path_buf();
            panic!("abandon the run");
        });
        assert!(unwound.is_err());
        let dir = dir.into_inner().expect("lock");
        assert!(
            !dir.as_os_str().is_empty() && !dir.exists(),
            "{} left behind",
            dir.display()
        );
    }

    #[test]
    fn oracle_counts_errors_and_wrong_results() {
        let mut o = Oracle::default();
        o.check("ok", Ok(&Value::I64(1)), &Value::I64(1));
        o.check("wrong", Ok(&Value::I64(2)), &Value::I64(1));
        o.check(
            "error",
            Err(&FargoError::App("boom".into())),
            &Value::I64(1),
        );
        assert_eq!((o.attempted, o.errors, o.wrong, o.failed()), (3, 1, 1, 2));
        assert_eq!(o.examples.len(), 2);
    }
}
