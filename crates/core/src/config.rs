//! Core runtime configuration.

use std::time::Duration;

/// How moved complets are found again by their references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrackingMode {
    /// The paper's design: each Core a complet leaves keeps a *tracker*
    /// forwarding to the next Core, forming a chain that is shortened on
    /// every invocation return (§3.1).
    #[default]
    Chains,
    /// The paper's stated future-work alternative (§7): the complet's
    /// origin Core maintains its authoritative current location, and a
    /// reference that misses consults the origin instead of following a
    /// chain. Used as the ablation baseline in experiment E1.
    HomeBased,
}

/// Which point-to-point transport carries a Core's envelopes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The in-process simulated network (the default): bytes travel
    /// through `simnet`'s link model, scheduler and fault injectors.
    #[default]
    Simnet,
    /// Real TCP sockets with length-prefixed framing. `simnet` remains
    /// the cluster directory and fault-injection control plane: every
    /// outbound envelope is first offered to the network model (loss,
    /// partitions and link statistics apply) and only admitted traffic
    /// reaches the wire.
    Tcp {
        /// Address this Core's listener binds, e.g. `"127.0.0.1:7001"`.
        bind: String,
        /// Peer listener addresses indexed by node id. Entry `i` is the
        /// Core registered `i`-th on the network; this Core's own entry
        /// is ignored.
        peers: Vec<String>,
    },
}

/// Tunables of one Core.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// How long a requester waits for a peer reply before failing with
    /// [`crate::FargoError::Timeout`].
    pub rpc_timeout: Duration,
    /// Reference tracking strategy.
    pub tracking: TrackingMode,
    /// Maximum tracker hops an invocation may traverse.
    pub max_hops: u32,
    /// How long instant profiling results are served from cache (§4.1).
    pub monitor_cache_ttl: Duration,
    /// Granularity of the continuous-profiling sampler thread.
    pub monitor_tick: Duration,
    /// Smoothing factor of the exponential average, in `(0, 1]`;
    /// higher weighs recent samples more.
    pub monitor_alpha: f64,
    /// If `true`, a `stamp` reference that finds no same-typed complet at
    /// the destination fails the move; if `false`, it keeps its old target.
    pub stamp_strict: bool,
    /// How long an invocation waits for a complet that is in transit
    /// before giving up.
    pub transit_wait: Duration,
    /// Maximum complets this Core admits (instantiation and arrival); the
    /// §7 resource-negotiation hook. `None` means unbounded.
    pub capacity: Option<usize>,
    /// Whether invocations and moves record trace spans and propagate a
    /// [`fargo_telemetry::TraceContext`] in request envelopes. Metrics
    /// are always on; only span recording is gated (it allocates).
    pub trace_enabled: bool,
    /// Ring-buffer capacity of this Core's span log (oldest evicted).
    pub trace_capacity: usize,
    /// Whether layout events are appended to the flight-recorder journal
    /// and the hybrid logical clock piggybacks on outbound envelopes.
    pub journal_enabled: bool,
    /// Ring-buffer capacity of this Core's journal (oldest evicted).
    pub journal_capacity: usize,
    /// Maximum retransmissions of one request within `rpc_timeout`
    /// (`0` restores the historical single-shot behaviour).
    pub rpc_max_retries: u32,
    /// Wait before the first retransmission; doubles per retry.
    pub rpc_retry_base: Duration,
    /// Cap on the exponential retransmission backoff.
    pub rpc_retry_cap: Duration,
    /// Entries kept in the per-Core reply-dedup cache that gives retried
    /// requests at-most-once execution. `0` disables deduplication.
    pub dedup_cache_capacity: usize,
    /// Request-handler worker threads (bounded pool; replaces the old
    /// thread-per-request dispatch).
    pub worker_threads: usize,
    /// Bounded queue in front of the worker pool. Overflowing requests
    /// are dropped — the sender's retransmission recovers them.
    pub worker_queue_depth: usize,
    /// How long a destination holds a prepared-but-uncommitted move
    /// before querying the source Core for the transaction outcome.
    pub move_hold_timeout: Duration,
    /// When the adaptive layout planner is enabled, how many monitor
    /// ticks elapse between planning rounds.
    pub autolayout_period_ticks: u32,
    /// Minimum predicted relative traffic-cost gain (fraction of the
    /// current cost) before a plan is worth executing; smaller gains are
    /// discarded so marginal, oscillating plans never move anything.
    pub autolayout_hysteresis: f64,
    /// Upper bound on `move_complet` steps per planning round; the
    /// executor rate-limits within the round on top of this.
    pub autolayout_max_moves: usize,
    /// Anomaly pass: forwarding chains of at least this many hops are
    /// flagged.
    pub anomaly_long_chain_hops: usize,
    /// Anomaly pass: arrival sequences with at least this many A-B-A
    /// returns are flagged as ping-pong.
    pub anomaly_ping_pong_returns: usize,
    /// Anomaly pass: a dead-ended tracker is only flagged once it is
    /// this many microseconds stale (0 = flag immediately).
    pub anomaly_orphan_min_age_us: u64,
    /// The time source behind every protocol deadline (move holds, RPC
    /// retry budgets, tracker idleness, monitor intervals) and the HLC's
    /// physical component. Wall time in production; the deterministic
    /// checker substitutes a shared virtual clock so one seed replays to
    /// one bit-identical journal.
    pub clock: fargo_telemetry::Clock,
    /// Whether requests are stamped at enqueue, dispatch, marshal, wire
    /// send/receive, and exec — decomposing every invoke into per-phase
    /// `fargo_latency_*` histograms and feeding measured link latency
    /// back to the layout cost model. Off restores stamp-free envelopes.
    pub phase_timing: bool,
    /// Capacity of the slow-request ring (tail-based trace retention:
    /// the K slowest requests keep their span trees). `0` disables the
    /// sampler.
    pub slow_log_capacity: usize,
    /// Observations per epoch of the sliding latency window behind
    /// "recent" percentile estimates (the window spans 1–2 epochs).
    pub latency_window: u64,
    /// Whether executed invocations are attributed to their complet
    /// (exec time, invoke count, marshaled bytes in/out) and outbound
    /// envelopes to the Core↔Core traffic matrix. Off restores the
    /// unaccounted hot path (one branch).
    pub accounting: bool,
    /// Complets the per-Core accountant tracks at once; beyond it the
    /// Space-Saving sketch evicts the minimum-load entry, so memory
    /// stays O(capacity) at any population.
    pub account_capacity: usize,
    /// Declarative SLO rules the health engine evaluates every monitor
    /// tick (multi-window burn-rate alerting). Empty disables alerting.
    pub slo_rules: Vec<fargo_telemetry::SloRule>,
    /// Which transport backend carries this Core's envelopes.
    pub transport: TransportKind,
    /// Whether the sharded location service runs: the home-registry role
    /// is consistent-hashed across Cores, each Core holds a
    /// `LocationShard` of authoritative `(complet → Core, epoch)`
    /// entries, and layout deltas are gossiped. Off restores pure
    /// chain/home tracking.
    pub naming_shards: bool,
    /// Virtual nodes per Core on the consistent-hash ring; more vnodes
    /// spread ownership more evenly and shrink handoffs on membership
    /// change.
    pub naming_vnodes: usize,
    /// Maximum shard deltas piggybacked on one outbound envelope (the
    /// rest wait for later traffic or the anti-entropy pass).
    pub naming_gossip_batch: usize,
    /// Directory of this Core's write-ahead passivation log. `None`
    /// (the default) disables durability: complets are memory-only, as
    /// in the paper. When set, every acknowledged state transition is
    /// appended to `<dir>/<core>.wal` before the acknowledgement leaves
    /// the Core, and a restarted Core replays the log on spawn.
    pub wal_dir: Option<std::path::PathBuf>,
    /// Whether every acknowledged invocation re-captures the complet's
    /// state into the log (the strongest guarantee: no acknowledged
    /// state lost; a state identical to the one already logged is not
    /// written again). Off logs only lifecycle transitions (create, move,
    /// depart), so a crash can roll a complet back to its last
    /// lifecycle capture.
    pub wal_sync_acks: bool,
    /// Whether an acknowledgement waits for an fsync (`sync_data`)
    /// covering its log record; concurrent acknowledgements share one
    /// group fsync. On (the default), durability covers OS crashes and
    /// power loss; off, records reach the OS page cache only, so
    /// durability covers process crashes but an OS crash can drop the
    /// unsynced tail.
    pub wal_fsync: bool,
    /// Appends between monitor-tick log compactions (a compaction
    /// rewrites the log as a fresh snapshot of live state).
    pub wal_compact_records: u64,
    /// Whether spawn replays an existing log before serving (off lets
    /// tooling open a Core over a log without mutating it).
    pub wal_recover: bool,
    /// First journal sequence number this Core emits. A restarted Core
    /// passes its predecessor's high-water mark so merged timelines
    /// never collide on `(core, seq)`.
    pub journal_seq_base: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            rpc_timeout: Duration::from_secs(10),
            tracking: TrackingMode::Chains,
            max_hops: 64,
            monitor_cache_ttl: Duration::from_millis(100),
            monitor_tick: Duration::from_millis(20),
            monitor_alpha: 0.3,
            stamp_strict: false,
            transit_wait: Duration::from_secs(5),
            capacity: None,
            trace_enabled: true,
            trace_capacity: 1024,
            journal_enabled: true,
            journal_capacity: 4096,
            rpc_max_retries: 6,
            rpc_retry_base: Duration::from_millis(20),
            rpc_retry_cap: Duration::from_millis(500),
            dedup_cache_capacity: 1024,
            worker_threads: 8,
            worker_queue_depth: 1024,
            move_hold_timeout: Duration::from_millis(250),
            autolayout_period_ticks: 25,
            autolayout_hysteresis: 0.05,
            autolayout_max_moves: 4,
            anomaly_long_chain_hops: fargo_telemetry::journal::LONG_CHAIN_THRESHOLD,
            anomaly_ping_pong_returns: 2,
            anomaly_orphan_min_age_us: 0,
            clock: fargo_telemetry::Clock::Wall,
            phase_timing: true,
            slow_log_capacity: 16,
            latency_window: 512,
            accounting: true,
            account_capacity: 512,
            slo_rules: fargo_telemetry::default_slo_rules(),
            transport: TransportKind::Simnet,
            naming_shards: true,
            naming_vnodes: 16,
            naming_gossip_batch: 32,
            wal_dir: None,
            wal_sync_acks: true,
            wal_fsync: true,
            wal_compact_records: 512,
            wal_recover: true,
            journal_seq_base: 0,
        }
    }
}

impl CoreConfig {
    /// Configuration with `tracking` replaced.
    pub fn with_tracking(mut self, tracking: TrackingMode) -> Self {
        self.tracking = tracking;
        self
    }

    /// Configuration with `rpc_timeout` replaced.
    pub fn with_rpc_timeout(mut self, timeout: Duration) -> Self {
        self.rpc_timeout = timeout;
        self
    }

    /// Configuration with strict stamp resolution.
    pub fn strict_stamps(mut self) -> Self {
        self.stamp_strict = true;
        self
    }

    /// Configuration with a complet capacity (admission control).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Configuration with span recording switched on or off.
    pub fn with_tracing(mut self, enabled: bool) -> Self {
        self.trace_enabled = enabled;
        self
    }

    /// Configuration with journal recording switched on or off.
    pub fn with_journaling(mut self, enabled: bool) -> Self {
        self.journal_enabled = enabled;
        self
    }

    /// Configuration with the journal ring capacity replaced.
    pub fn with_journal_capacity(mut self, capacity: usize) -> Self {
        self.journal_capacity = capacity;
        self
    }

    /// Configuration with the retransmission budget replaced.
    pub fn with_rpc_retries(mut self, max_retries: u32) -> Self {
        self.rpc_max_retries = max_retries;
        self
    }

    /// Configuration with the reply-dedup cache capacity replaced.
    pub fn with_dedup_capacity(mut self, capacity: usize) -> Self {
        self.dedup_cache_capacity = capacity;
        self
    }

    /// The historical single-shot messaging behaviour: no retransmission
    /// and no receiver-side dedup (the E14 ablation baseline).
    pub fn single_shot(mut self) -> Self {
        self.rpc_max_retries = 0;
        self.dedup_cache_capacity = 0;
        self
    }

    /// Configuration with the adaptive-layout planner cadence replaced:
    /// monitor ticks per planning round, hysteresis fraction, and the
    /// per-round move budget.
    pub fn with_autolayout(mut self, period_ticks: u32, hysteresis: f64, max_moves: usize) -> Self {
        self.autolayout_period_ticks = period_ticks.max(1);
        self.autolayout_hysteresis = hysteresis.max(0.0);
        self.autolayout_max_moves = max_moves;
        self
    }

    /// Configuration with the anomaly-pass thresholds replaced.
    pub fn with_anomaly_thresholds(
        mut self,
        long_chain_hops: usize,
        ping_pong_returns: usize,
        orphan_min_age_us: u64,
    ) -> Self {
        self.anomaly_long_chain_hops = long_chain_hops;
        self.anomaly_ping_pong_returns = ping_pong_returns;
        self.anomaly_orphan_min_age_us = orphan_min_age_us;
        self
    }

    /// Configuration with the time source replaced. Every Core of one
    /// simulated cluster must share the same (virtual) clock.
    pub fn with_clock(mut self, clock: fargo_telemetry::Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Configuration with per-phase request timing (and its envelope
    /// timing stamps) switched on or off.
    pub fn with_phase_timing(mut self, enabled: bool) -> Self {
        self.phase_timing = enabled;
        self
    }

    /// Configuration with the slow-request ring capacity replaced
    /// (`0` disables tail-based trace retention).
    pub fn with_slow_log_capacity(mut self, capacity: usize) -> Self {
        self.slow_log_capacity = capacity;
        self
    }

    /// Configuration with per-complet accounting (and the traffic
    /// matrix feed) switched on or off.
    pub fn with_accounting(mut self, enabled: bool) -> Self {
        self.accounting = enabled;
        self
    }

    /// Configuration with the accountant's sketch capacity replaced
    /// (minimum one entry per shard).
    pub fn with_account_capacity(mut self, capacity: usize) -> Self {
        self.account_capacity = capacity;
        self
    }

    /// Configuration with the health engine's SLO rule set replaced.
    pub fn with_slo_rules(mut self, rules: Vec<fargo_telemetry::SloRule>) -> Self {
        self.slo_rules = rules;
        self
    }

    /// Configuration with the transport backend replaced.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Configuration with the request worker pool resized. Both values
    /// must be at least 1; `Core::builder(..).spawn()` rejects a zero
    /// with [`crate::FargoError::InvalidArgument`] instead of silently
    /// clamping.
    pub fn with_worker_pool(mut self, threads: usize, queue_depth: usize) -> Self {
        self.worker_threads = threads;
        self.worker_queue_depth = queue_depth;
        self
    }

    /// Configuration with the sharded location service switched on or
    /// off.
    pub fn with_naming_shards(mut self, enabled: bool) -> Self {
        self.naming_shards = enabled;
        self
    }

    /// Configuration with the consistent-hash ring's virtual-node count
    /// replaced (minimum one).
    pub fn with_naming_vnodes(mut self, vnodes: usize) -> Self {
        self.naming_vnodes = vnodes.max(1);
        self
    }

    /// Configuration with the per-envelope gossip batch size replaced
    /// (`0` disables piggybacking; anti-entropy still runs).
    pub fn with_naming_gossip_batch(mut self, batch: usize) -> Self {
        self.naming_gossip_batch = batch;
        self
    }

    /// Configuration with durability enabled: the write-ahead log lives
    /// under `dir` (created if missing).
    pub fn with_wal_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Configuration with per-acknowledged-invocation state capture
    /// switched on or off (only meaningful with a WAL directory).
    pub fn with_wal_sync_acks(mut self, enabled: bool) -> Self {
        self.wal_sync_acks = enabled;
        self
    }

    /// Configuration with per-append fsync switched on or off. Off
    /// trades power-loss durability for append latency: a process
    /// crash still loses nothing, but an OS crash can drop the tail
    /// that never left the page cache.
    pub fn with_wal_fsync(mut self, enabled: bool) -> Self {
        self.wal_fsync = enabled;
        self
    }

    /// Configuration with the compaction threshold replaced (appends
    /// between monitor-tick log rewrites; minimum 1).
    pub fn with_wal_compact_records(mut self, records: u64) -> Self {
        self.wal_compact_records = records.max(1);
        self
    }

    /// Configuration with spawn-time log replay switched on or off.
    pub fn with_wal_recovery(mut self, enabled: bool) -> Self {
        self.wal_recover = enabled;
        self
    }

    /// Configuration with the journal sequence base replaced (restart
    /// continuity for merged timelines).
    pub fn with_journal_seq_base(mut self, base: u64) -> Self {
        self.journal_seq_base = base;
        self
    }

    /// The anomaly thresholds as the telemetry-layer struct.
    pub fn anomaly_thresholds(&self) -> fargo_telemetry::AnomalyThresholds {
        fargo_telemetry::AnomalyThresholds {
            long_chain_hops: self.anomaly_long_chain_hops,
            ping_pong_returns: self.anomaly_ping_pong_returns,
            orphan_min_age_us: self.anomaly_orphan_min_age_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_chain_tracking() {
        let c = CoreConfig::default();
        assert_eq!(c.tracking, TrackingMode::Chains);
        assert!(c.max_hops > 0);
        assert!(c.monitor_alpha > 0.0 && c.monitor_alpha <= 1.0);
    }

    #[test]
    fn builder_helpers() {
        let c = CoreConfig::default()
            .with_tracking(TrackingMode::HomeBased)
            .with_rpc_timeout(Duration::from_millis(5))
            .strict_stamps();
        assert_eq!(c.tracking, TrackingMode::HomeBased);
        assert_eq!(c.rpc_timeout, Duration::from_millis(5));
        assert!(c.stamp_strict);
    }

    #[test]
    fn clock_defaults_to_wall_and_swaps() {
        assert!(!CoreConfig::default().clock.is_virtual());
        let v = CoreConfig::default().with_clock(fargo_telemetry::Clock::new_virtual(5));
        assert!(v.clock.is_virtual());
        assert_eq!(v.clock.now_us(), 5);
    }

    #[test]
    fn phase_timing_and_slow_log_knobs() {
        let c = CoreConfig::default();
        assert!(c.phase_timing, "phase timing is on by default");
        assert!(c.slow_log_capacity > 0, "tail sampler is always on");
        let c = c.with_phase_timing(false).with_slow_log_capacity(0);
        assert!(!c.phase_timing);
        assert_eq!(c.slow_log_capacity, 0);
    }

    #[test]
    fn accounting_and_slo_knobs() {
        let c = CoreConfig::default();
        assert!(c.accounting, "accounting is on by default");
        assert!(c.account_capacity > 0);
        assert_eq!(c.slo_rules.len(), 4, "default rule set covers 4 signals");
        let c = c
            .with_accounting(false)
            .with_account_capacity(64)
            .with_slo_rules(vec![fargo_telemetry::SloRule::new(
                "p99",
                fargo_telemetry::SloKind::P99InvokeUs,
                1_000.0,
            )]);
        assert!(!c.accounting);
        assert_eq!(c.account_capacity, 64);
        assert_eq!(c.slo_rules.len(), 1);
    }

    #[test]
    fn naming_knobs() {
        let c = CoreConfig::default();
        assert!(c.naming_shards, "sharded naming is on by default");
        assert_eq!(c.naming_vnodes, 16);
        assert!(c.naming_gossip_batch > 0);
        let c = c
            .with_naming_shards(false)
            .with_naming_vnodes(0)
            .with_naming_gossip_batch(0);
        assert!(!c.naming_shards);
        assert_eq!(c.naming_vnodes, 1, "vnodes clamp to >= 1");
        assert_eq!(c.naming_gossip_batch, 0);
    }

    #[test]
    fn wal_knobs() {
        let c = CoreConfig::default();
        assert!(c.wal_dir.is_none(), "durability is opt-in");
        assert!(c.wal_sync_acks, "acked-state capture defaults on");
        assert!(c.wal_fsync, "power-loss durability defaults on");
        assert!(c.wal_recover, "spawn-time replay defaults on");
        assert_eq!(c.journal_seq_base, 0);
        let c = c
            .with_wal_dir("/tmp/fargo-wal")
            .with_wal_sync_acks(false)
            .with_wal_fsync(false)
            .with_wal_compact_records(0)
            .with_wal_recovery(false)
            .with_journal_seq_base(42);
        assert_eq!(
            c.wal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/fargo-wal"))
        );
        assert!(!c.wal_sync_acks);
        assert!(!c.wal_fsync);
        assert_eq!(c.wal_compact_records, 1, "threshold clamps to >= 1");
        assert!(!c.wal_recover);
        assert_eq!(c.journal_seq_base, 42);
    }

    #[test]
    fn autolayout_and_anomaly_knobs() {
        let c = CoreConfig::default()
            .with_autolayout(0, -1.0, 2)
            .with_anomaly_thresholds(5, 3, 2_000);
        assert_eq!(c.autolayout_period_ticks, 1, "period clamps to >= 1");
        assert_eq!(c.autolayout_hysteresis, 0.0, "hysteresis clamps to >= 0");
        assert_eq!(c.autolayout_max_moves, 2);
        let t = c.anomaly_thresholds();
        assert_eq!(t.long_chain_hops, 5);
        assert_eq!(t.ping_pong_returns, 3);
        assert_eq!(t.orphan_min_age_us, 2_000);
    }
}
