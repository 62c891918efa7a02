//! Durability: checkpoint/restore snapshots and the write-ahead log.
//!
//! The paper defers persistence to §7 future work; this module gives the
//! Core two complementary durability mechanisms built on the same
//! marshal path movement uses:
//!
//! * **Checkpoints** — explicit, portable snapshots. [`Core::checkpoint`]
//!   captures every resident complet (state, type, move epoch, logical
//!   names) as one self-describing [`Value`] tree;
//!   [`Core::restore_checkpoint`] installs it into another (or a
//!   restarted) Core with identities preserved. Restore publishes each
//!   complet's new placement to its owning location shard at an epoch
//!   *above* the checkpointed one, so the restored location wins over
//!   stale shard entries and trackers repoint exactly as after a move.
//!   A checkpoint is a *cold* snapshot: it waits for each complet's
//!   current invocation to finish, and complets in transit are skipped —
//!   they are owned by the move in progress — with the skipped ids
//!   reported in [`Checkpoint::skipped`] and journaled.
//!
//! * **The write-ahead log** — implicit, incremental durability
//!   ([`wal`](crate::runtime::wal)). When [`CoreConfig::wal_dir`] is
//!   set, the Core appends every state the caller could have observed as
//!   acknowledged — instantiation, each successful invocation (under
//!   `wal_sync_acks`), arrival, departure, and the two-phase move
//!   verdicts — *before* the acknowledgement leaves this process, and
//!   (under `wal_fsync`, the default) waits for an fsync covering the
//!   record, so the guarantee covers OS crashes and power loss, not
//!   just process deaths. Concurrent acks share one group fsync, and
//!   an invocation that left the state unchanged writes nothing; a
//!   failed write or fsync turns the ack into
//!   [`FargoError::Durability`]. A restarted Core replays the log
//!   ([`Core::recover_from_wal`], run automatically at spawn), folds
//!   it to crash-time truth, re-installs
//!   survivors at their recorded epochs, re-holds prepared-but-undecided
//!   move streams, and republishes everything to the location shards.
//!   The monitor thread compacts the log once it grows past
//!   `wal_compact_records` appends.
//!
//! [`CoreConfig::wal_dir`]: crate::config::CoreConfig

use std::sync::atomic;
use std::time::Instant;

use fargo_telemetry::JournalKind;
use fargo_wire::{CompletId, RefDescriptor, Value};

use crate::error::{FargoError, Result};
use crate::events::EventPayload;
use crate::reference::tracker::TrackerTarget;
use crate::runtime::{wal, Core, SlotState};

/// The result of [`Core::checkpoint`]: the snapshot plus the ids the
/// snapshot does **not** cover.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The self-describing snapshot tree (feed to
    /// [`Core::restore_checkpoint`]).
    pub snapshot: Value,
    /// Complets that were in transit (or already gone) at capture time
    /// and are therefore absent from the snapshot. Callers that need a
    /// complete image must re-checkpoint once these moves settle.
    pub skipped: Vec<CompletId>,
}

impl Core {
    /// Captures all resident complets into a portable snapshot.
    ///
    /// Complets in transit are owned by their in-flight move and cannot
    /// be captured; their ids come back in [`Checkpoint::skipped`] (and
    /// are journaled as `ckpt_skip`) instead of being silently dropped.
    ///
    /// # Errors
    ///
    /// Fails with [`FargoError::Timeout`] if a complet stays locked past
    /// the configured transit wait.
    pub fn checkpoint(&self) -> Result<Checkpoint> {
        let slots: Vec<_> = self.inner.complets.read().values().cloned().collect();
        let mut complets = Vec::new();
        let mut skipped = Vec::new();
        for slot in slots {
            let guard = slot
                .state
                .try_lock_for(self.inner.config.transit_wait)
                .ok_or(FargoError::Timeout)?;
            match &*guard {
                SlotState::Present(c) => {
                    complets.push(Value::map([
                        ("id", Value::from(slot.id.to_string())),
                        ("type", Value::from(slot.type_name.as_str())),
                        ("state", c.marshal()),
                        (
                            "epoch",
                            Value::from(self.current_move_epoch(slot.id) as i64),
                        ),
                    ]));
                }
                other => {
                    let detail = match other {
                        SlotState::InTransit => "in_transit",
                        _ => "gone",
                    };
                    self.inner.telemetry.journal(
                        JournalKind::CheckpointSkipped,
                        &slot.id,
                        &slot.type_name,
                        detail,
                        None,
                    );
                    skipped.push(slot.id);
                }
            }
        }
        let names: Vec<Value> = self
            .inner
            .naming
            .lock()
            .iter()
            .map(|(name, desc)| {
                Value::map([
                    ("name", Value::from(name.as_str())),
                    ("ref", Value::Ref(desc.clone())),
                ])
            })
            .collect();
        Ok(Checkpoint {
            snapshot: Value::map([
                ("fargo_checkpoint", Value::from(1i64)),
                ("core", Value::from(self.name())),
                ("complets", Value::List(complets)),
                ("names", Value::List(names)),
            ]),
            skipped,
        })
    }

    /// Installs a snapshot's complets (and name bindings) into this Core.
    ///
    /// Identities are preserved: references that tracked the complets
    /// re-resolve here once their chains, home registries, or location
    /// shards learn the new placement — which this method publishes at an
    /// epoch above the checkpointed one, so the restored location beats
    /// any stale entry left by the pre-checkpoint host. Complets are
    /// revived through the side-effect-free reviver path: constructor
    /// (`init`) side effects ran at instantiation and do **not** run
    /// again here.
    ///
    /// Returns the ids restored.
    ///
    /// # Errors
    ///
    /// Fails on a malformed snapshot, unknown complet types, or state
    /// mismatches; partially restored complets are kept (restoring is
    /// idempotent per complet — re-restore overwrites).
    pub fn restore_checkpoint(&self, snapshot: &Value) -> Result<Vec<CompletId>> {
        if snapshot.get("fargo_checkpoint").and_then(Value::as_i64) != Some(1) {
            return Err(FargoError::InvalidArgument(
                "not a fargo checkpoint".to_owned(),
            ));
        }
        let complets = snapshot
            .get("complets")
            .and_then(Value::as_list)
            .ok_or_else(|| FargoError::InvalidArgument("checkpoint missing complets".into()))?;
        let me = self.node().index();
        let mut restored = Vec::new();
        for entry in complets {
            let id = entry
                .get("id")
                .and_then(Value::as_str)
                .and_then(wal::parse_id)
                .ok_or_else(|| FargoError::InvalidArgument("bad complet id".into()))?;
            let type_name = entry
                .get("type")
                .and_then(Value::as_str)
                .ok_or_else(|| FargoError::InvalidArgument("bad complet type".into()))?
                .to_owned();
            let state = entry
                .get("state")
                .cloned()
                .ok_or_else(|| FargoError::InvalidArgument("missing state".into()))?;
            let epoch = entry.get("epoch").and_then(Value::as_i64).unwrap_or(0) as u64;
            let complet = self.inner.registry.reconstruct(&type_name, state)?;
            // Seed the move epoch *above* the checkpointed one before
            // installing: the install path points the tracker and
            // publishes the shard delta at the current epoch, and only
            // an epoch past the snapshot's beats the stale entry still
            // naming the pre-checkpoint host.
            {
                let mut epochs = self.inner.move_epochs.lock();
                let e = epochs.entry(id).or_insert(0);
                *e = (*e).max(epoch + 1);
            }
            self.install_complet_with_id(id, &type_name, complet);
            self.wal_capture(id);
            if id.origin != me {
                let _ = self.send_to(
                    id.origin,
                    &crate::proto::Message::Notify(crate::proto::Notify::LocationUpdate {
                        target: id,
                        now_at: me,
                        epoch: self.current_move_epoch(id),
                    }),
                );
            }
            self.fire_event(EventPayload::CompletArrived {
                id,
                type_name,
                core: me,
            });
            restored.push(id);
        }
        if let Some(names) = snapshot.get("names").and_then(Value::as_list) {
            let mut naming = self.inner.naming.lock();
            for entry in names {
                if let (Some(name), Some(desc)) = (
                    entry.get("name").and_then(Value::as_str),
                    entry.get("ref").and_then(Value::as_ref_desc),
                ) {
                    naming.insert(name.to_owned(), desc.clone());
                }
            }
        }
        Ok(restored)
    }

    // --- write-ahead log ---------------------------------------------------

    /// Appends one record to the write-ahead log and waits until it is
    /// durable; a no-op when the log is disabled. Failures are counted,
    /// not surfaced — durability degrades, the running cluster does not
    /// stop — but once the log is poisoned every later append fails
    /// fast. Only the invocation ack path turns a failure into an error
    /// ([`Core::wal_write`] + [`Core::wal_wait`]).
    pub(crate) fn wal_append(&self, record: &wal::WalRecord) {
        if let Ok(lsn) = self.wal_write(record) {
            let _ = self.wal_wait(lsn);
        }
    }

    /// The write half of a log append: writes `record` (or finds the
    /// identical `State` already logged) and returns the LSN to wait
    /// on, `None` when the log is disabled. Safe to call under a slot
    /// lock — it never waits for the disk.
    pub(crate) fn wal_write(&self, record: &wal::WalRecord) -> std::io::Result<Option<u64>> {
        let Some(wal) = &self.inner.wal else {
            return Ok(None);
        };
        let t = &self.inner.telemetry;
        match wal.append_nowait(record) {
            Ok(appended) => {
                if appended.written {
                    t.wal_appends_total.inc();
                }
                Ok(Some(appended.lsn))
            }
            Err(e) => {
                t.wal_errors_total.inc();
                Err(e)
            }
        }
    }

    /// The wait half of a log append: blocks until `lsn` is durable,
    /// joining (or leading) a group fsync. Must not be called under a
    /// slot lock.
    pub(crate) fn wal_wait(&self, lsn: Option<u64>) -> std::io::Result<()> {
        let (Some(wal), Some(lsn)) = (&self.inner.wal, lsn) else {
            return Ok(());
        };
        let t = &self.inner.telemetry;
        match wal.wait_durable(lsn) {
            Ok(synced) => {
                if synced {
                    t.wal_fsyncs_total.inc();
                }
                Ok(())
            }
            Err(e) => {
                t.wal_errors_total.inc();
                Err(e)
            }
        }
    }

    /// Captures a resident complet's current state into the log (no-op
    /// when the log is disabled, the complet is absent, or it is not
    /// `Present`). Must not be called while the caller holds the slot
    /// lock.
    pub(crate) fn wal_capture(&self, id: CompletId) {
        if self.inner.wal.is_none() {
            return;
        }
        let Some(slot) = self.inner.complets.read().get(&id).cloned() else {
            return;
        };
        let state = {
            let guard = slot.state.lock();
            match &*guard {
                SlotState::Present(c) => c.marshal(),
                _ => return,
            }
        };
        self.wal_append(&self.wal_state_record(id, &slot.type_name, state));
    }

    /// A `State` record for an already-marshaled state, with the
    /// complet's current move epoch and the logical names bound to it.
    pub(crate) fn wal_state_record(
        &self,
        id: CompletId,
        type_name: &str,
        state: Value,
    ) -> wal::WalRecord {
        let names: Vec<String> = self
            .inner
            .naming
            .lock()
            .iter()
            .filter(|(_, d)| d.target == id)
            .map(|(n, _)| n.clone())
            .collect();
        wal::WalRecord::State(wal::WalState {
            id,
            type_name: type_name.to_owned(),
            state,
            epoch: self.current_move_epoch(id),
            names,
        })
    }

    /// Replays this Core's write-ahead log after a restart: re-installs
    /// every complet whose state was acknowledged before the crash (at
    /// its recorded move epoch, republished to the location shards),
    /// reloads the two-phase verdict logs, and re-holds
    /// prepared-but-undecided move streams for resolution against their
    /// sources. Called automatically from `spawn` when `wal_recover` is
    /// on; the folded log is compacted afterwards so the next restart
    /// replays the minimum.
    pub(crate) fn recover_from_wal(&self) {
        let Some(wal) = &self.inner.wal else { return };
        let started = Instant::now();
        let replay = match wal::Wal::replay_path(wal.path()) {
            Ok(r) => r,
            Err(_) => {
                self.inner.telemetry.wal_errors_total.inc();
                return;
            }
        };
        if replay.records.is_empty() && replay.corrupt == 0 {
            return;
        }
        let me = self.inner.node.index();
        let t = &self.inner.telemetry;
        t.journal(
            JournalKind::RecoveryStarted,
            &CompletId::new(me, 0),
            "",
            &replay.records.len().to_string(),
            None,
        );
        let folded = wal::fold(&replay.records);
        // Re-seed the id allocator past every locally minted id the log
        // has ever seen — survivors *and* departed/decided ids — so a
        // post-recovery `new_complet` can never re-mint an id that is
        // still live here or, worse, living on elsewhere.
        let mut max_seq = 0u64;
        let mut bump = |id: CompletId| {
            if id.origin == me {
                max_seq = max_seq.max(id.seq);
            }
        };
        for r in &replay.records {
            match r {
                wal::WalRecord::State(s) => bump(s.id),
                wal::WalRecord::Departed { id, .. } => bump(*id),
                wal::WalRecord::Held(h) => {
                    bump(h.root);
                    for p in &h.packets {
                        bump(p.id);
                    }
                }
                wal::WalRecord::HeldResolved { root, .. } => bump(*root),
                wal::WalRecord::Decision { root, ids, .. } => {
                    bump(*root);
                    for id in ids {
                        bump(*id);
                    }
                }
            }
        }
        self.inner
            .complet_seq
            .fetch_max(max_seq + 1, atomic::Ordering::SeqCst);
        // The verdict logs first: a recovered survivor set is only safe
        // to expose once in-doubt queries from peers answer correctly.
        for &(root, epoch, committed) in &folded.decisions {
            self.inner.move_decisions.record(root, epoch, committed);
        }
        for &(root, epoch, committed) in &folded.outcomes {
            self.inner.move_outcomes.record(root, epoch, committed);
        }
        let mut replayed = 0usize;
        for s in &folded.survivors {
            if self.hosts(s.id) {
                continue;
            }
            let complet = match self
                .inner
                .registry
                .reconstruct(&s.type_name, s.state.clone())
            {
                Ok(c) => c,
                Err(_) => {
                    t.wal_errors_total.inc();
                    continue;
                }
            };
            // Re-install at the recorded epoch — the epoch the shards
            // already associate with this placement — so the republished
            // delta is idempotent rather than a spurious new incarnation.
            {
                let mut epochs = self.inner.move_epochs.lock();
                let e = epochs.entry(s.id).or_insert(0);
                *e = (*e).max(s.epoch);
            }
            self.install_complet_with_id(s.id, &s.type_name, complet);
            {
                let mut naming = self.inner.naming.lock();
                for name in &s.names {
                    naming.insert(name.clone(), RefDescriptor::link(s.id, &s.type_name, me));
                }
            }
            t.journal(
                JournalKind::RecoveryReplayed,
                &s.id,
                &s.type_name,
                &s.epoch.to_string(),
                None,
            );
            self.fire_event(EventPayload::CompletArrived {
                id: s.id,
                type_name: s.type_name.clone(),
                core: me,
            });
            replayed += 1;
        }
        // Rebuild the routing state the crash destroyed: every departure
        // still in effect becomes a forwarding tracker again, and — when
        // this Core is the complet's origin — a home-registry entry. A
        // restarted origin that forgot its forwards dead-ends every
        // tracker chain through it, orphaning complets that live on
        // elsewhere perfectly intact.
        let mut forwards = 0usize;
        for &(id, epoch, dest) in &folded.departed {
            if self.hosts(id) || dest == me {
                continue;
            }
            let _ = self
                .inner
                .trackers
                .point(id, TrackerTarget::Forward(dest), epoch);
            self.note_location(id, dest, epoch);
            t.journal(
                JournalKind::TrackerForwarded,
                &id,
                "",
                "recovered",
                Some(dest),
            );
            forwards += 1;
        }
        let mut held = 0usize;
        for h in folded.held {
            if self.rehold_recovered(h) {
                held += 1;
            }
        }
        t.recovery_replayed_total.add(replayed as u64);
        t.recovery_held_total.add(held as u64);
        t.recovery_corrupt_total.add(replay.corrupt as u64);
        let report = wal::RecoveryReport {
            replayed,
            held,
            forwards,
            corrupt: replay.corrupt,
            duration_us: started.elapsed().as_micros() as u64,
        };
        t.recovery_duration_us.set(report.duration_us as f64);
        *self.inner.recovery.lock() = Some(report);
        // Fold-and-rewrite: the replayed prefix (including any corrupt
        // tail) is dead weight for the next restart.
        self.wal_compact_now();
    }

    /// What the last [`Core::recover_from_wal`] run replayed, or `None`
    /// when this Core did not recover from a log.
    pub fn recovery_report(&self) -> Option<wal::RecoveryReport> {
        self.inner.recovery.lock().clone()
    }

    /// Rewrites the write-ahead log to its folded minimum: one `State`
    /// per resident complet, the unresolved held streams, the retained
    /// two-phase verdicts, and one `Departed` per live forward. A no-op
    /// when the log is disabled.
    ///
    /// The log itself is the source of truth — every acknowledged state
    /// change is already a record in it — so compaction folds the file
    /// under the append lock ([`wal::Wal::compact`]) instead of
    /// re-marshaling live slots. Re-marshaling raced the invoke path: a
    /// mutation acknowledged between the slot snapshot and the file
    /// swap was silently erased from the log.
    pub fn wal_compact_now(&self) {
        let Some(wal) = &self.inner.wal else { return };
        let mut extra: Vec<wal::WalRecord> = Vec::new();
        for (root, epoch, committed) in self.inner.move_decisions.snapshot() {
            // Departures are already folded into the log's Departed
            // records; the verdict itself must outlive the restart so
            // in-doubt peers still get an answer — hence empty
            // `ids`/`dest`.
            extra.push(wal::WalRecord::Decision {
                root,
                epoch,
                committed,
                ids: vec![],
                dest: 0,
            });
        }
        for (root, epoch, committed) in self.inner.move_outcomes.snapshot() {
            extra.push(wal::WalRecord::HeldResolved {
                root,
                epoch,
                committed,
            });
        }
        // Forwarding trackers are durable routing state: an origin Core
        // that compacted away its Departed records and then crashed would
        // otherwise dead-end every chain that runs through it. The
        // tracker table is at least as fresh as the log's own Departed
        // records (repoints land before the WAL append) and goes last,
        // so it wins the next fold.
        for t in self.inner.trackers.snapshot() {
            if let TrackerTarget::Forward(dest) = t.target {
                extra.push(wal::WalRecord::Departed {
                    id: t.id,
                    epoch: t.epoch,
                    dest: Some(dest),
                });
            }
        }
        match wal.compact(&extra) {
            Ok(n) => {
                self.inner.telemetry.wal_compactions_total.inc();
                self.inner.telemetry.journal(
                    JournalKind::WalCompacted,
                    &CompletId::new(self.inner.node.index(), 0),
                    "",
                    &n.to_string(),
                    None,
                );
            }
            Err(_) => self.inner.telemetry.wal_errors_total.inc(),
        }
    }

    /// Monitor-tick hook: compacts once the log accumulates
    /// `wal_compact_records` appends since the last compaction.
    pub(crate) fn wal_compact_if_due(&self) {
        let Some(wal) = &self.inner.wal else { return };
        if wal.appends_since_compact() >= self.inner.config.wal_compact_records {
            self.wal_compact_now();
        }
    }
}
