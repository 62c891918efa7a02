//! Write-ahead passivation journal — the durability half of the §7
//! "persistence model" future work.
//!
//! Every state-bearing transition a Core acknowledges (instantiation,
//! move arrival, acknowledged invocation, departure, and both sides of
//! the two-phase move protocol) is in an on-disk log before the
//! acknowledgement leaves the Core. Records are marshaled [`Value`]
//! trees — the same representation movement and checkpointing use —
//! encoded with `fargo-wire` and framed with `fargo-net`'s
//! length-prefixed frame format, with a CRC32 over the encoded payload
//! so a torn or corrupted tail is detected and cleanly ignored on
//! replay.
//!
//! Appends are group-committed. [`Wal::append_nowait`] writes a record
//! under the append lock and assigns it a log sequence number (LSN);
//! [`Wal::wait_durable`] blocks until that LSN is on stable storage.
//! One waiter leads each fsync, outside the append lock, and that fsync
//! covers every record written before it started — so concurrent acks
//! share one fsync instead of queueing for one each. A `State` record
//! identical to the newest one already logged for its id is not written
//! again (a read-only invocation changes nothing); its caller waits on
//! the earlier record's LSN instead. With `CoreConfig::wal_fsync` off,
//! records stop at the OS page cache and the guarantee narrows to
//! process crashes.
//!
//! A failed write or fsync *poisons* the log: that call, every waiter
//! not yet durable, and every later append or wait fail, so a later
//! fsync can never paper over one that failed. A restarted Core opens a
//! fresh handle and replays what reached the disk.
//!
//! On restart, [`Wal::replay_path`] reads the surviving prefix and
//! [`fold`] reduces it to the set of complets that were live (and the
//! move-protocol state that was in flight) at the crash; the Core
//! re-installs those survivors and resumes the protocol. Periodic
//! [`Wal::compact`] compaction (driven from the monitor tick) replaces
//! the log with a fresh snapshot so it does not grow without bound.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};

use fargo_net::frame::{read_frame, write_frame, FrameError};
use fargo_wire::{decode_value, encode_value, CompletId, Value};
use parking_lot::Mutex;

/// Marshaled image of one complet: everything recovery needs to
/// re-install it — state, type, move epoch, and logical names bound to
/// it. Also the per-complet payload of a held-move record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalState {
    /// Identity, stable across relocation and restart.
    pub id: CompletId,
    /// Registered complet type (recovery constructs through the registry).
    pub type_name: String,
    /// Marshaled state, exactly as `Complet::marshal` produced it.
    pub state: Value,
    /// Move epoch the complet was at when captured. WAL recovery
    /// re-installs at this *recorded* epoch — the epoch the location
    /// shards already associate with the placement — so the republished
    /// delta is idempotent rather than a spurious new incarnation.
    /// (Checkpoint restore is the path that bumps to `epoch + 1`: it
    /// installs on a different host and must beat the stale entry still
    /// naming the pre-checkpoint one.)
    pub epoch: u64,
    /// Logical names bound to this complet on the logging Core.
    pub names: Vec<String>,
}

/// A move prepared at this Core (the destination) but not yet resolved:
/// recovery re-holds it and re-runs the outcome query against the source.
#[derive(Debug, Clone, PartialEq)]
pub struct WalHeld {
    /// Root complet of the move transaction.
    pub root: CompletId,
    /// Transaction epoch (the root packet's move epoch).
    pub epoch: u64,
    /// Node index of the source Core, for the outcome query.
    pub source: u32,
    /// The marshaled closure, one entry per complet in the move.
    pub packets: Vec<WalState>,
}

/// One append-only log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// The complet is (still) live here with this state.
    State(WalState),
    /// The complet left this Core (move finalised or released).
    Departed {
        /// Identity of the departed complet.
        id: CompletId,
        /// Move epoch at departure.
        epoch: u64,
        /// Node the complet moved to, `None` when it was released
        /// outright. Recovery rebuilds the forwarding tracker from this,
        /// so a restarted origin Core still routes lookups instead of
        /// dead-ending the chain.
        dest: Option<u32>,
    },
    /// Destination side: a move closure is prepared and held.
    Held(WalHeld),
    /// Destination side: a held move was committed or aborted.
    HeldResolved {
        /// Root complet of the move transaction.
        root: CompletId,
        /// Transaction epoch.
        epoch: u64,
        /// `true` = activated here, `false` = aborted.
        committed: bool,
    },
    /// Source side: the transaction verdict, written *before* the commit
    /// message is sent (the point of no return). `ids` is the departing
    /// closure, so recovery knows not to resurrect them.
    Decision {
        /// Root complet of the move transaction.
        root: CompletId,
        /// Transaction epoch.
        epoch: u64,
        /// The recorded verdict.
        committed: bool,
        /// Complets that depart if (and only if) `committed`.
        ids: Vec<CompletId>,
        /// Move destination — lets recovery forward to the new host even
        /// when the crash lands between the verdict and the per-complet
        /// `Departed` records.
        dest: u32,
    },
}

/// Result of replaying a log file.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Records in append order, up to the first corruption.
    pub records: Vec<WalRecord>,
    /// `1` if replay stopped at a torn or corrupted tail, else `0`.
    pub corrupt: usize,
}

/// [`fold`]'s reduction of a replayed log: what was true at the crash.
#[derive(Debug, Default)]
pub struct WalFold {
    /// Complets live on this Core, newest state per id, in first-seen
    /// order.
    pub survivors: Vec<WalState>,
    /// Prepared moves never resolved (recovery re-holds and queries).
    pub held: Vec<WalHeld>,
    /// Source-side verdicts, in append order (recovery reloads the
    /// decision log so destination outcome queries still get answers).
    pub decisions: Vec<(CompletId, u64, bool)>,
    /// Destination-side outcomes, in append order.
    pub outcomes: Vec<(CompletId, u64, bool)>,
    /// Departures still in effect at the crash with a known destination,
    /// `(id, epoch, dest)` in first-seen order. Recovery reinstalls these
    /// as forwarding trackers: without them a restarted origin Core
    /// dead-ends every tracker chain that runs through it.
    pub departed: Vec<(CompletId, u64, u32)>,
}

/// What a completed recovery pass replayed, kept on the Core for
/// inspection via `Core::recovery_report`.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Complets re-installed from the log.
    pub replayed: usize,
    /// Prepared moves re-held for outcome resolution.
    pub held: usize,
    /// Forwarding trackers rebuilt from departure records.
    pub forwards: usize,
    /// `1` if the log had a torn or corrupted tail, else `0`.
    pub corrupt: usize,
    /// Wall-clock microseconds the replay + reinstall pass took.
    pub duration_us: u64,
}

/// What [`Wal::append_nowait`] did with a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Appended {
    /// The log sequence number to pass to [`Wal::wait_durable`]: the
    /// record's own, or — for a skipped `State` — that of the identical
    /// record already in the log.
    pub lsn: u64,
    /// `false` when the record was a byte-identical repeat of the newest
    /// `State` logged for its id and nothing was written.
    pub written: bool,
}

/// The append handle over one Core's log file.
///
/// Appending is split in two halves. The write half
/// ([`Wal::append_nowait`]) writes the CRC frame under the append lock
/// and assigns the record a monotonically increasing log sequence
/// number (LSN). The wait half ([`Wal::wait_durable`]) blocks until
/// that LSN is on stable storage. Waiters commit as a group: the first
/// one to find no fsync in flight becomes the leader, syncs everything
/// written so far outside the append lock, and wakes the rest.
pub struct Wal {
    path: PathBuf,
    /// The write half, held while a frame is written so frames never
    /// interleave and LSN order is file order.
    tail: Mutex<Tail>,
    /// The wait half: what is durable and whether an fsync is running.
    sync: std::sync::Mutex<SyncState>,
    /// Signalled when an fsync finishes or compaction makes the log
    /// durable.
    synced: Condvar,
    /// Highest LSN whose frame is fully written, published under `tail`.
    written: AtomicU64,
    /// Set by the first failed write, fsync or post-rename compaction
    /// step, and never cleared: the kernel may already have dropped the
    /// dirty pages a failed fsync covered, so a later fsync that
    /// succeeds proves nothing about them.
    poisoned: AtomicBool,
    appends: AtomicU64,
    generation: u64,
    fsync: bool,
    /// Runs before each leader fsync; an error stands in for a failed
    /// fsync (fault injection).
    #[cfg(test)]
    sync_hook: Mutex<Option<SyncHook>>,
}

#[cfg(test)]
type SyncHook = Box<dyn Fn() -> io::Result<()> + Send + Sync>;

struct Tail {
    file: File,
    /// Digest and LSN of the newest `State` logged per id. Cleared by
    /// every other record kind and by compaction, so an entry is always
    /// the newest record that concerns its id.
    last_state: HashMap<CompletId, (u64, u64)>,
}

struct SyncState {
    /// Every LSN up to this one is on stable storage.
    durable: u64,
    /// A leader is running an fsync outside the lock.
    syncing: bool,
    /// A second handle on the log file, synced without the append lock.
    file: Arc<File>,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("written", &self.written.load(Ordering::Relaxed))
            .field("poisoned", &self.poisoned.load(Ordering::Relaxed))
            .field("generation", &self.generation)
            .field("fsync", &self.fsync)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Opens (creating if necessary) the log for `core` under `dir`.
    ///
    /// Each open also bumps the sidecar *generation* counter — a durable
    /// incarnation number for the Core. Request ids, dedup keys, and
    /// anything else that must never collide across a crash/restart
    /// boundary can be salted with [`Wal::generation`]. The sidecar is
    /// rewritten via temp-file-and-rename so a crash mid-bump cannot
    /// leave a partial file; an existing sidecar that does not parse is
    /// corruption and refuses to open (silently restarting at 1 would
    /// re-enable exactly the stale-request-id collisions the counter
    /// exists to prevent).
    ///
    /// With `fsync` on, [`Wal::wait_durable`] (and the sidecar bump)
    /// syncs to stable storage; off, records stop at the OS page cache —
    /// durable across a process crash only.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; fails with `InvalidData` on a
    /// corrupt generation sidecar.
    pub fn open(dir: &Path, core: &str, fsync: bool) -> io::Result<Wal> {
        fs::create_dir_all(dir)?;
        let gen_path = dir.join(format!("{core}.gen"));
        let generation = match fs::read_to_string(&gen_path) {
            Ok(s) => match s.trim().parse::<u64>() {
                Ok(g) => g + 1,
                Err(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt wal generation sidecar {}", gen_path.display()),
                    ))
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => 1,
            Err(e) => return Err(e),
        };
        let gen_tmp = dir.join(format!("{core}.gen.tmp"));
        {
            let mut f = File::create(&gen_tmp)?;
            f.write_all(generation.to_string().as_bytes())?;
            if fsync {
                f.sync_data()?;
            }
        }
        fs::rename(&gen_tmp, &gen_path)?;
        if fsync {
            sync_dir(dir)?;
        }
        let path = Self::log_path(dir, core);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let sync_file = Arc::new(file.try_clone()?);
        Ok(Wal {
            path,
            tail: Mutex::new(Tail {
                file,
                last_state: HashMap::new(),
            }),
            sync: std::sync::Mutex::new(SyncState {
                durable: 0,
                syncing: false,
                file: sync_file,
            }),
            synced: Condvar::new(),
            written: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            appends: AtomicU64::new(0),
            generation,
            fsync,
            #[cfg(test)]
            sync_hook: Mutex::new(None),
        })
    }

    /// The log file a Core named `core` uses under `dir`.
    pub fn log_path(dir: &Path, core: &str) -> PathBuf {
        dir.join(format!("{core}.wal"))
    }

    /// This incarnation's durable generation number (1 on first open,
    /// +1 per reopen of the same log).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Path of this log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and waits until it is durable: the
    /// [`Wal::append_nowait`] write half followed by the
    /// [`Wal::wait_durable`] wait half (the Core calls the halves
    /// itself, to count them).
    #[cfg(test)]
    pub fn append(&self, record: &WalRecord) -> io::Result<()> {
        let appended = self.append_nowait(record)?;
        self.wait_durable(appended.lsn).map(drop)
    }

    /// The write half of an append: writes the CRC-framed record under
    /// the append lock and returns its LSN, without waiting for it to
    /// reach stable storage. A `State` record whose encoded bytes match
    /// the newest record already logged for its id is not written
    /// again; the returned LSN is then that earlier record's, so a
    /// caller that waits on it still never reports a state that is not
    /// durable. (Records are compared by a 64-bit FNV-1a digest of the
    /// length-prefixed, CRC-carrying frame.)
    ///
    /// # Errors
    ///
    /// A failed write poisons the log and is returned; once poisoned,
    /// every append fails fast.
    pub fn append_nowait(&self, record: &WalRecord) -> io::Result<Appended> {
        let frame = encode_frame(record)?;
        let state = match record {
            WalRecord::State(s) => Some((s.id, fnv1a64(&frame))),
            _ => None,
        };
        let mut tail = self.tail.lock();
        if self.poisoned.load(Ordering::Acquire) {
            return Err(poisoned());
        }
        if let Some((id, digest)) = state {
            if let Some(&(logged, lsn)) = tail.last_state.get(&id) {
                if logged == digest {
                    return Ok(Appended {
                        lsn,
                        written: false,
                    });
                }
            }
        }
        if let Err(e) = tail.file.write_all(&frame) {
            // A partial frame may be on disk: replay stops at it, so
            // nothing appended after it could ever be recovered.
            self.poison();
            return Err(e);
        }
        let lsn = self.written.load(Ordering::Relaxed) + 1;
        self.written.store(lsn, Ordering::Release);
        match state {
            Some((id, digest)) => {
                tail.last_state.insert(id, (digest, lsn));
            }
            None => tail.last_state.clear(),
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
        Ok(Appended { lsn, written: true })
    }

    /// The wait half of an append: blocks until every record up to
    /// `lsn` is on stable storage. The first waiter to find `lsn` not
    /// yet durable and no fsync in flight leads: it syncs everything
    /// written so far outside the append lock, advances the durable
    /// LSN, and wakes the others, whose records that one fsync covered.
    /// With fsync off a written record counts as durable at once.
    ///
    /// Returns `true` when this call ran the fsync.
    ///
    /// # Errors
    ///
    /// Fails once the log is poisoned — the failing leader with the
    /// fsync's own error, every other waiter and every later call with
    /// a poisoned-log error, so no later wait can paper over a failed
    /// fsync.
    pub fn wait_durable(&self, lsn: u64) -> io::Result<bool> {
        let mut sync = self.sync.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(poisoned());
            }
            if !self.fsync || lsn <= sync.durable {
                return Ok(false);
            }
            if sync.syncing {
                sync = self
                    .synced
                    .wait(sync)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            // Lead: everything written so far — at least `lsn`, which
            // was written before its caller got to wait on it — rides
            // on this one fsync.
            sync.syncing = true;
            let target = self.written.load(Ordering::Acquire);
            let file = Arc::clone(&sync.file);
            drop(sync);
            let result = self.sync_data(&file);
            sync = self.sync.lock().unwrap_or_else(PoisonError::into_inner);
            sync.syncing = false;
            match &result {
                Ok(()) => sync.durable = sync.durable.max(target),
                Err(_) => self.poisoned.store(true, Ordering::Release),
            }
            self.synced.notify_all();
            return result.map(|()| true);
        }
    }

    fn sync_data(&self, file: &File) -> io::Result<()> {
        #[cfg(test)]
        if let Some(hook) = &*self.sync_hook.lock() {
            hook()?;
        }
        file.sync_data()
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        let _sync = self.sync.lock().unwrap_or_else(PoisonError::into_inner);
        self.synced.notify_all();
    }

    /// Records written since the last [`Wal::compact`] (compaction
    /// trigger).
    pub fn appends_since_compact(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Replays a log file, stopping cleanly at a torn or corrupted tail.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors opening the file; a missing file is
    /// an empty replay, and corruption is reported, not an error.
    pub fn replay_path(path: &Path) -> io::Result<WalReplay> {
        let mut replay = WalReplay::default();
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(replay),
            Err(e) => return Err(e),
        };
        loop {
            match read_next(&mut file) {
                Ok(Some(rec)) => replay.records.push(rec),
                Ok(None) => break,
                Err(_) => {
                    // Torn tail or bit rot: keep the valid prefix.
                    replay.corrupt = 1;
                    break;
                }
            }
        }
        Ok(replay)
    }

    /// Compacts the log in place to its folded image — newest `State`
    /// per survivor, unresolved holds, still-effective departures —
    /// followed by the caller's `extra` records (verdict snapshots,
    /// tracker-derived forwards; appended last so they win the next
    /// fold). The whole replay-fold-write runs under the append lock:
    /// a concurrently acknowledged mutation either lands before the
    /// fold and is folded in, or blocks until the new image is in
    /// place and is appended after it — compaction can never lose
    /// acknowledged state. The image is written to a temporary file,
    /// synced, and renamed over the old log, so a crash mid-compaction
    /// leaves one valid log. The synced image holds every record
    /// written so far, so compaction also makes every LSN written so
    /// far durable, releasing their waiters without an fsync of their
    /// own.
    ///
    /// Returns the number of records in the compacted image.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; fails fast on a poisoned log, and
    /// poisons it when a step after the rename fails (appends would
    /// otherwise land in the unlinked old file).
    pub fn compact(&self, extra: &[WalRecord]) -> io::Result<usize> {
        let mut tail = self.tail.lock();
        if self.poisoned.load(Ordering::Acquire) {
            return Err(poisoned());
        }
        let replay = Self::replay_path(&self.path)?;
        let folded = fold(&replay.records);
        let mut records: Vec<WalRecord> = Vec::new();
        for s in folded.survivors {
            records.push(WalRecord::State(s));
        }
        for h in folded.held {
            records.push(WalRecord::Held(h));
        }
        for (id, epoch, dest) in folded.departed {
            records.push(WalRecord::Departed {
                id,
                epoch,
                dest: Some(dest),
            });
        }
        records.extend_from_slice(extra);
        let mut image = Vec::new();
        for rec in &records {
            image.extend_from_slice(&encode_frame(rec)?);
        }
        let tmp = self.path.with_extension("wal.tmp");
        {
            let mut out = File::create(&tmp)?;
            out.write_all(&image)?;
            out.sync_data()?;
        }
        fs::rename(&tmp, &self.path)?;
        let reopened = (|| {
            // The rename itself lives in the directory: without a
            // directory fsync a power loss can un-do it, resurrecting
            // the old inode and silently dropping every append written
            // to the new one.
            if self.fsync {
                if let Some(parent) = self.path.parent() {
                    sync_dir(parent)?;
                }
            }
            let file = OpenOptions::new().append(true).open(&self.path)?;
            let sync_file = file.try_clone()?;
            Ok::<_, io::Error>((file, sync_file))
        })();
        let (file, sync_file) = match reopened {
            Ok(files) => files,
            Err(e) => {
                self.poison();
                return Err(e);
            }
        };
        tail.file = file;
        tail.last_state.clear();
        {
            let mut sync = self.sync.lock().unwrap_or_else(PoisonError::into_inner);
            sync.durable = self.written.load(Ordering::Acquire);
            sync.file = Arc::new(sync_file);
        }
        self.synced.notify_all();
        self.appends.store(0, Ordering::Relaxed);
        Ok(records.len())
    }
}

/// The error every append, wait and compaction returns once the log is
/// poisoned.
fn poisoned() -> io::Error {
    io::Error::other("write-ahead log poisoned by an earlier write or fsync failure")
}

/// One record as it sits in the file: version + length header, then the
/// CRC32 of the encoded record, then the record.
fn encode_frame(record: &WalRecord) -> io::Result<Vec<u8>> {
    let encoded = encode_value(&record.to_value());
    let mut payload = Vec::with_capacity(encoded.len() + 4);
    payload.extend_from_slice(&crc32(&encoded).to_be_bytes());
    payload.extend_from_slice(&encoded);
    let mut frame = Vec::with_capacity(payload.len() + 5);
    write_frame(&mut frame, &payload).map_err(|e| match e {
        FrameError::Io(io) => io,
        other => io::Error::other(other.to_string()),
    })?;
    Ok(frame)
}

/// 64-bit FNV-1a, the digest [`Wal::append_nowait`] compares `State`
/// frames by.
fn fnv1a64(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fsyncs a directory so a rename performed in it survives power loss.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Reduces a replayed record sequence to crash-time truth: the newest
/// state per still-live complet, unresolved held moves, and the
/// move-protocol verdict logs.
pub fn fold(records: &[WalRecord]) -> WalFold {
    let mut order: Vec<CompletId> = Vec::new();
    let mut states: HashMap<CompletId, WalState> = HashMap::new();
    let mut held: Vec<WalHeld> = Vec::new();
    let mut gone_order: Vec<CompletId> = Vec::new();
    let mut gone: HashMap<CompletId, (u64, u32)> = HashMap::new();
    let mut out = WalFold::default();
    let depart = |gone_order: &mut Vec<CompletId>,
                  gone: &mut HashMap<CompletId, (u64, u32)>,
                  id: CompletId,
                  epoch: u64,
                  dest: u32| {
        if !gone.contains_key(&id) {
            gone_order.push(id);
        }
        gone.insert(id, (epoch, dest));
    };
    for rec in records {
        match rec {
            WalRecord::State(s) => {
                if !states.contains_key(&s.id) {
                    order.push(s.id);
                }
                // A later arrival supersedes any earlier departure: the
                // complet is live here again.
                gone.remove(&s.id);
                states.insert(s.id, s.clone());
            }
            WalRecord::Departed { id, epoch, dest } => {
                states.remove(id);
                if let Some(d) = dest {
                    depart(&mut gone_order, &mut gone, *id, *epoch, *d);
                }
            }
            WalRecord::Held(h) => {
                held.retain(|x| !(x.root == h.root && x.epoch == h.epoch));
                held.push(h.clone());
            }
            WalRecord::HeldResolved {
                root,
                epoch,
                committed,
            } => {
                held.retain(|x| !(x.root == *root && x.epoch == *epoch));
                out.outcomes.push((*root, *epoch, *committed));
            }
            WalRecord::Decision {
                root,
                epoch,
                committed,
                ids,
                dest,
            } => {
                out.decisions.push((*root, *epoch, *committed));
                if *committed {
                    for id in ids {
                        states.remove(id);
                        depart(&mut gone_order, &mut gone, *id, *epoch, *dest);
                    }
                }
            }
        }
    }
    out.survivors = order
        .into_iter()
        .filter_map(|id| states.remove(&id))
        .collect();
    out.held = held;
    out.departed = gone_order
        .into_iter()
        .filter_map(|id| gone.remove(&id).map(|(epoch, dest)| (id, epoch, dest)))
        .collect();
    out
}

impl WalRecord {
    fn to_value(&self) -> Value {
        match self {
            WalRecord::State(s) => Value::map([
                ("kind", Value::from("state")),
                ("complet", state_to_value(s)),
            ]),
            WalRecord::Departed { id, epoch, dest } => Value::map([
                ("kind", Value::from("departed")),
                ("id", Value::from(id.to_string())),
                ("epoch", Value::from(*epoch as i64)),
                // -1 encodes "released, no destination".
                ("dest", Value::from(dest.map_or(-1, |d| d as i64))),
            ]),
            WalRecord::Held(h) => Value::map([
                ("kind", Value::from("held")),
                ("root", Value::from(h.root.to_string())),
                ("epoch", Value::from(h.epoch as i64)),
                ("source", Value::from(h.source)),
                (
                    "packets",
                    Value::List(h.packets.iter().map(state_to_value).collect()),
                ),
            ]),
            WalRecord::HeldResolved {
                root,
                epoch,
                committed,
            } => Value::map([
                ("kind", Value::from("held_resolved")),
                ("root", Value::from(root.to_string())),
                ("epoch", Value::from(*epoch as i64)),
                ("committed", Value::from(*committed)),
            ]),
            WalRecord::Decision {
                root,
                epoch,
                committed,
                ids,
                dest,
            } => Value::map([
                ("kind", Value::from("decision")),
                ("root", Value::from(root.to_string())),
                ("epoch", Value::from(*epoch as i64)),
                ("committed", Value::from(*committed)),
                (
                    "ids",
                    Value::List(ids.iter().map(|i| Value::from(i.to_string())).collect()),
                ),
                ("dest", Value::from(*dest as i64)),
            ]),
        }
    }

    fn from_value(v: &Value) -> Option<WalRecord> {
        match v.get("kind")?.as_str()? {
            "state" => Some(WalRecord::State(state_from_value(v.get("complet")?)?)),
            "departed" => Some(WalRecord::Departed {
                id: parse_id(v.get("id")?.as_str()?)?,
                epoch: v.get("epoch")?.as_i64()? as u64,
                dest: match v.get("dest")?.as_i64()? {
                    d if d < 0 => None,
                    d => Some(d as u32),
                },
            }),
            "held" => Some(WalRecord::Held(WalHeld {
                root: parse_id(v.get("root")?.as_str()?)?,
                epoch: v.get("epoch")?.as_i64()? as u64,
                source: v.get("source")?.as_i64()? as u32,
                packets: v
                    .get("packets")?
                    .as_list()?
                    .iter()
                    .map(state_from_value)
                    .collect::<Option<Vec<_>>>()?,
            })),
            "held_resolved" => Some(WalRecord::HeldResolved {
                root: parse_id(v.get("root")?.as_str()?)?,
                epoch: v.get("epoch")?.as_i64()? as u64,
                committed: v.get("committed")?.as_bool()?,
            }),
            "decision" => Some(WalRecord::Decision {
                root: parse_id(v.get("root")?.as_str()?)?,
                epoch: v.get("epoch")?.as_i64()? as u64,
                committed: v.get("committed")?.as_bool()?,
                ids: v
                    .get("ids")?
                    .as_list()?
                    .iter()
                    .map(|i| parse_id(i.as_str()?))
                    .collect::<Option<Vec<_>>>()?,
                dest: v.get("dest")?.as_i64()? as u32,
            }),
            _ => None,
        }
    }
}

fn state_to_value(s: &WalState) -> Value {
    Value::map([
        ("id", Value::from(s.id.to_string())),
        ("type", Value::from(s.type_name.as_str())),
        ("state", s.state.clone()),
        ("epoch", Value::from(s.epoch as i64)),
        (
            "names",
            Value::List(s.names.iter().map(|n| Value::from(n.as_str())).collect()),
        ),
    ])
}

fn state_from_value(v: &Value) -> Option<WalState> {
    Some(WalState {
        id: parse_id(v.get("id")?.as_str()?)?,
        type_name: v.get("type")?.as_str()?.to_owned(),
        state: v.get("state")?.clone(),
        epoch: v.get("epoch")?.as_i64()? as u64,
        names: v
            .get("names")?
            .as_list()?
            .iter()
            .map(|n| n.as_str().map(str::to_owned))
            .collect::<Option<Vec<_>>>()?,
    })
}

/// Parses the `c<origin>.<seq>` display form of a [`CompletId`].
pub(crate) fn parse_id(s: &str) -> Option<CompletId> {
    let rest = s.strip_prefix('c')?;
    let (origin, seq) = rest.split_once('.')?;
    Some(CompletId::new(origin.parse().ok()?, seq.parse().ok()?))
}

fn read_next(file: &mut File) -> Result<Option<WalRecord>, io::Error> {
    // Distinguish clean EOF (Ok(None)) from a torn frame (Err).
    let mut probe = [0u8; 1];
    match file.read(&mut probe) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    // Re-assemble the frame: the probe byte is the version octet.
    let payload = read_frame(&mut Prefixed {
        head: Some(probe[0]),
        rest: file,
    })
    .map_err(|e| io::Error::other(e.to_string()))?;
    if payload.len() < 4 {
        return Err(io::Error::other("wal frame shorter than its checksum"));
    }
    let (sum, body) = payload.split_at(4);
    if crc32(body) != u32::from_be_bytes([sum[0], sum[1], sum[2], sum[3]]) {
        return Err(io::Error::other("wal record checksum mismatch"));
    }
    let value = decode_value(body).map_err(|e| io::Error::other(e.to_string()))?;
    WalRecord::from_value(&value)
        .map(Some)
        .ok_or_else(|| io::Error::other("unknown wal record"))
}

/// Reader adapter that replays one already-consumed byte before the
/// underlying file (used to peek for EOF without seeking).
struct Prefixed<'a> {
    head: Option<u8>,
    rest: &'a mut File,
}

impl Read for Prefixed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(b) = self.head.take() {
            if buf.is_empty() {
                self.head = Some(b);
                return Ok(0);
            }
            buf[0] = b;
            return Ok(1);
        }
        self.rest.read(buf)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial), bitwise — no tables, no
/// dependencies; WAL records are small enough that speed is irrelevant.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fargo-wal-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_state(seq: u64, n: i64) -> WalState {
        WalState {
            id: CompletId::new(0, seq),
            type_name: "ChkNode".into(),
            state: Value::map([("n", Value::from(n))]),
            epoch: 3,
            names: vec![format!("node-{seq}")],
        }
    }

    #[test]
    fn generation_increments_across_reopens() {
        let dir = tmpdir("gen");
        assert_eq!(Wal::open(&dir, "core0", true).unwrap().generation(), 1);
        assert_eq!(Wal::open(&dir, "core0", true).unwrap().generation(), 2);
        assert_eq!(Wal::open(&dir, "core0", false).unwrap().generation(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_generation_sidecar_refuses_to_open() {
        let dir = tmpdir("gen-corrupt");
        let _ = Wal::open(&dir, "core0", false).unwrap();
        fs::write(dir.join("core0.gen"), "not a number").unwrap();
        let err = Wal::open(&dir, "core0", false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // An empty sidecar (what a torn non-atomic rewrite used to
        // leave) is corruption too: silently restarting at generation 1
        // would re-enable the stale request-id collisions the counter
        // exists to prevent.
        fs::write(dir.join("core0.gen"), "").unwrap();
        assert!(Wal::open(&dir, "core0", false).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmpdir("roundtrip");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        let records = vec![
            WalRecord::State(sample_state(1, 7)),
            WalRecord::Departed {
                id: CompletId::new(0, 1),
                epoch: 4,
                dest: Some(2),
            },
            WalRecord::Departed {
                id: CompletId::new(0, 2),
                epoch: 1,
                dest: None,
            },
            WalRecord::Held(WalHeld {
                root: CompletId::new(1, 9),
                epoch: 2,
                source: 1,
                packets: vec![sample_state(9, 0)],
            }),
            WalRecord::HeldResolved {
                root: CompletId::new(1, 9),
                epoch: 2,
                committed: true,
            },
            WalRecord::Decision {
                root: CompletId::new(0, 5),
                epoch: 1,
                committed: true,
                ids: vec![CompletId::new(0, 5), CompletId::new(0, 6)],
                dest: 2,
            },
        ];
        for r in &records {
            wal.append(r).unwrap();
        }
        assert_eq!(wal.appends_since_compact(), records.len() as u64);
        let replay = Wal::replay_path(wal.path()).unwrap();
        assert_eq!(replay.corrupt, 0);
        assert_eq!(replay.records, records);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_log_is_empty_replay() {
        let replay = Wal::replay_path(Path::new("/nonexistent/fargo.wal")).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.corrupt, 0);
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let dir = tmpdir("torn");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        wal.append(&WalRecord::State(sample_state(1, 1))).unwrap();
        wal.append(&WalRecord::State(sample_state(2, 2))).unwrap();
        // Truncate mid-way through the second frame.
        let len = fs::metadata(wal.path()).unwrap().len();
        let f = OpenOptions::new().write(true).open(wal.path()).unwrap();
        f.set_len(len - 3).unwrap();
        let replay = Wal::replay_path(wal.path()).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_bit_is_detected() {
        let dir = tmpdir("bitrot");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        wal.append(&WalRecord::State(sample_state(1, 1))).unwrap();
        let mut bytes = fs::read(wal.path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(wal.path(), &bytes).unwrap();
        let replay = Wal::replay_path(wal.path()).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fold_reduces_to_crash_time_truth() {
        let records = vec![
            WalRecord::State(sample_state(1, 1)),
            WalRecord::State(sample_state(2, 1)),
            // Newest state per id wins.
            WalRecord::State(sample_state(1, 5)),
            // Departed removes (and records the forward).
            WalRecord::Departed {
                id: CompletId::new(0, 2),
                epoch: 1,
                dest: Some(2),
            },
            // Committed decision removes its closure ids.
            WalRecord::State(sample_state(3, 9)),
            WalRecord::Decision {
                root: CompletId::new(0, 3),
                epoch: 1,
                committed: true,
                ids: vec![CompletId::new(0, 3)],
                dest: 1,
            },
            // Aborted decision keeps them.
            WalRecord::State(sample_state(4, 2)),
            WalRecord::Decision {
                root: CompletId::new(0, 4),
                epoch: 1,
                committed: false,
                ids: vec![CompletId::new(0, 4)],
                dest: 2,
            },
            // Resolved hold disappears; unresolved hold survives.
            WalRecord::Held(WalHeld {
                root: CompletId::new(1, 1),
                epoch: 1,
                source: 1,
                packets: vec![],
            }),
            WalRecord::HeldResolved {
                root: CompletId::new(1, 1),
                epoch: 1,
                committed: false,
            },
            WalRecord::Held(WalHeld {
                root: CompletId::new(1, 2),
                epoch: 3,
                source: 1,
                packets: vec![sample_state(7, 7)],
            }),
        ];
        let f = fold(&records);
        let ids: Vec<_> = f.survivors.iter().map(|s| s.id.seq).collect();
        assert_eq!(ids, vec![1, 4]);
        assert_eq!(f.survivors[0].state.get("n").unwrap().as_i64(), Some(5));
        assert_eq!(f.held.len(), 1);
        assert_eq!(f.held[0].root, CompletId::new(1, 2));
        assert_eq!(f.decisions.len(), 2);
        assert_eq!(f.outcomes, vec![(CompletId::new(1, 1), 1, false)]);
        // Departures with a destination surface for forward rebuilding:
        // the explicit Departed and the committed decision's closure, but
        // not the aborted decision's.
        assert_eq!(
            f.departed,
            vec![(CompletId::new(0, 2), 1, 2), (CompletId::new(0, 3), 1, 1)]
        );
    }

    #[test]
    fn fold_rearrival_cancels_departure() {
        // depart → come back: the departure must not surface, or recovery
        // would install a forwarding tracker over a live complet.
        let records = vec![
            WalRecord::State(sample_state(1, 1)),
            WalRecord::Departed {
                id: CompletId::new(0, 1),
                epoch: 1,
                dest: Some(2),
            },
            WalRecord::State(sample_state(1, 3)),
        ];
        let f = fold(&records);
        assert_eq!(f.survivors.len(), 1);
        assert!(f.departed.is_empty());
    }

    #[test]
    fn compact_folds_and_keeps_appending() {
        let dir = tmpdir("rewrite");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        for i in 0..10 {
            wal.append(&WalRecord::State(sample_state(1, i))).unwrap();
        }
        let big = fs::metadata(wal.path()).unwrap().len();
        assert_eq!(wal.compact(&[]).unwrap(), 1);
        assert_eq!(wal.appends_since_compact(), 0);
        assert!(fs::metadata(wal.path()).unwrap().len() < big);
        // The image keeps the newest acknowledged state.
        let replay = Wal::replay_path(wal.path()).unwrap();
        let f = fold(&replay.records);
        assert_eq!(f.survivors.len(), 1);
        assert_eq!(
            f.survivors[0].state.get("n").and_then(Value::as_i64),
            Some(9)
        );
        // Appends after the compaction land in the new file.
        wal.append(&WalRecord::Departed {
            id: CompletId::new(0, 1),
            epoch: 9,
            dest: Some(1),
        })
        .unwrap();
        let replay = Wal::replay_path(wal.path()).unwrap();
        assert_eq!(replay.records.len(), 2);
        let f = fold(&replay.records);
        assert!(f.survivors.is_empty());
        assert_eq!(f.departed, vec![(CompletId::new(0, 1), 9, 1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    fn counting_hook(wal: &Wal) -> Arc<AtomicU64> {
        let fsyncs = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&fsyncs);
        *wal.sync_hook.lock() = Some(Box::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }));
        fsyncs
    }

    #[test]
    fn one_fsync_covers_every_record_written_before_it() {
        let dir = tmpdir("group");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        let fsyncs = counting_hook(&wal);
        let lsns: Vec<u64> = (1..=3)
            .map(|seq| {
                let a = wal
                    .append_nowait(&WalRecord::State(sample_state(seq, 1)))
                    .unwrap();
                assert!(a.written);
                a.lsn
            })
            .collect();
        assert_eq!(lsns, vec![1, 2, 3]);
        assert_eq!(
            fsyncs.load(Ordering::SeqCst),
            0,
            "the write half never syncs"
        );
        assert!(
            wal.wait_durable(lsns[2]).unwrap(),
            "the waiter leads the fsync"
        );
        assert_eq!(fsyncs.load(Ordering::SeqCst), 1);
        // The earlier records rode on that fsync.
        assert!(!wal.wait_durable(lsns[0]).unwrap());
        assert!(!wal.wait_durable(lsns[1]).unwrap());
        assert_eq!(fsyncs.load(Ordering::SeqCst), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unchanged_state_is_not_rewritten() {
        let dir = tmpdir("skip");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        let first = wal
            .append_nowait(&WalRecord::State(sample_state(1, 1)))
            .unwrap();
        assert!(first.written);
        // Byte-identical: nothing written, the earlier LSN comes back.
        let again = wal
            .append_nowait(&WalRecord::State(sample_state(1, 1)))
            .unwrap();
        assert_eq!(
            again,
            Appended {
                lsn: first.lsn,
                written: false
            }
        );
        // Another id's identical-looking state is its own record.
        assert!(
            wal.append_nowait(&WalRecord::State(sample_state(2, 1)))
                .unwrap()
                .written
        );
        // A changed state is written.
        let changed = wal
            .append_nowait(&WalRecord::State(sample_state(1, 2)))
            .unwrap();
        assert!(changed.written);
        assert!(changed.lsn > first.lsn);
        // Any non-State record forgets what was logged: the same state
        // after it is written again.
        wal.append_nowait(&WalRecord::Departed {
            id: CompletId::new(0, 1),
            epoch: 4,
            dest: Some(1),
        })
        .unwrap();
        assert!(
            wal.append_nowait(&WalRecord::State(sample_state(1, 2)))
                .unwrap()
                .written
        );
        // So does compaction.
        wal.compact(&[]).unwrap();
        assert!(
            wal.append_nowait(&WalRecord::State(sample_state(1, 2)))
                .unwrap()
                .written
        );
        assert_eq!(wal.appends_since_compact(), 1);
        let replay = Wal::replay_path(wal.path()).unwrap();
        // The image (ids 1 and 2) plus the one record after it.
        assert_eq!(replay.records.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_makes_every_written_lsn_durable() {
        let dir = tmpdir("compact-durable");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        let lsns: Vec<u64> = (1..=3)
            .map(|seq| {
                wal.append_nowait(&WalRecord::State(sample_state(seq, 7)))
                    .unwrap()
                    .lsn
            })
            .collect();
        wal.compact(&[]).unwrap();
        let fsyncs = counting_hook(&wal);
        for lsn in lsns {
            assert!(!wal.wait_durable(lsn).unwrap());
        }
        assert_eq!(
            fsyncs.load(Ordering::SeqCst),
            0,
            "the synced image covers them"
        );
        // LSNs keep rising across the compaction, and the new file syncs.
        let next = wal
            .append_nowait(&WalRecord::State(sample_state(1, 8)))
            .unwrap();
        assert_eq!(next.lsn, 4);
        assert!(wal.wait_durable(next.lsn).unwrap());
        assert_eq!(fsyncs.load(Ordering::SeqCst), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fsync_poisons_the_log() {
        const WAITERS: u64 = 4;
        let dir = tmpdir("poison");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        let arrived = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&arrived);
        // The leader's fsync fails only once every waiter has written
        // its record and is about to wait, so all of them are above
        // the durable LSN when the log is poisoned.
        *wal.sync_hook.lock() = Some(Box::new(move || {
            while seen.load(Ordering::SeqCst) < WAITERS {
                std::thread::yield_now();
            }
            Err(io::Error::other("injected fsync failure"))
        }));
        let lsns: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=WAITERS)
                .map(|seq| {
                    let (wal, arrived) = (&wal, &arrived);
                    s.spawn(move || {
                        let lsn = wal
                            .append_nowait(&WalRecord::State(sample_state(seq, 1)))
                            .unwrap()
                            .lsn;
                        arrived.fetch_add(1, Ordering::SeqCst);
                        let waited = wal.wait_durable(lsn);
                        assert!(waited.is_err(), "waiter {seq} got {waited:?}");
                        lsn
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Fail fast from here on: a later fsync must not paper over the
        // failed one.
        *wal.sync_hook.lock() = None;
        assert!(wal
            .append_nowait(&WalRecord::State(sample_state(9, 9)))
            .is_err());
        assert!(wal
            .append_nowait(&WalRecord::Departed {
                id: CompletId::new(0, 1),
                epoch: 1,
                dest: None,
            })
            .is_err());
        for lsn in lsns {
            assert!(wal.wait_durable(lsn).is_err());
        }
        assert!(wal.append(&WalRecord::State(sample_state(1, 1))).is_err());
        assert!(wal.compact(&[]).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_appends_extra_records_last() {
        let dir = tmpdir("compact-extra");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        wal.append(&WalRecord::State(sample_state(1, 1))).unwrap();
        wal.append(&WalRecord::Departed {
            id: CompletId::new(0, 2),
            epoch: 1,
            dest: Some(1),
        })
        .unwrap();
        // Extra carries a fresher tracker-derived forward for the same
        // id: appended after the folded image, it wins the next fold.
        wal.compact(&[WalRecord::Departed {
            id: CompletId::new(0, 2),
            epoch: 3,
            dest: Some(2),
        }])
        .unwrap();
        let replay = Wal::replay_path(wal.path()).unwrap();
        let f = fold(&replay.records);
        assert_eq!(f.survivors.len(), 1);
        assert_eq!(f.departed, vec![(CompletId::new(0, 2), 3, 2)]);
        let _ = fs::remove_dir_all(&dir);
    }
}
