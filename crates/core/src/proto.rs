//! The Core-to-Core peer protocol (the paper's *Peer Interface*).
//!
//! Every message is a [`Value`] tree encoded with `fargo-wire`. Requests
//! carry a correlation id minted by the origin Core; replies walk back
//! along the recorded forwarding path so every tracker on an invocation
//! chain learns the target's final location (§3.1's chain shortening).

use fargo_telemetry::{
    AccountRecord, Hlc, JournalEvent, JournalKind, MatrixCell, SpanRecord, TraceContext,
};
use fargo_wire::{decode_value, encode_value, CompletId, RefDescriptor, Value};

use crate::error::{FargoError, Result};
use crate::events::EventPayload;

/// A request's correlation id (unique per origin Core).
pub(crate) type ReqId = u64;

/// Continuation attached to a move: method + args invoked on the moved
/// complet at the destination (§3.3's call-with-continuation style).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Continuation {
    pub target: CompletId,
    pub method: String,
    pub args: Vec<Value>,
}

/// One complet inside a move stream.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompletPacket {
    pub id: CompletId,
    pub type_name: String,
    pub state: Value,
    /// Logical names bound to this complet at the sending Core that
    /// travel with it.
    pub names: Vec<String>,
    /// Monotonic per-complet move counter, bumped by the source on every
    /// departure. Lets the two-phase handshake distinguish *this* move
    /// from any earlier or later one when resolving in-doubt outcomes.
    /// Optional on the wire (`epoch` field, default `0`), so streams from
    /// peers that never heard of epochs stay byte-compatible.
    pub epoch: u64,
}

/// Destination- or source-side view of a two-phase move transaction,
/// reported by [`Reply::MoveState`] when a peer resolves an in-doubt move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MoveTxnState {
    /// Destination: prepared and holding, awaiting commit/abort.
    Held,
    /// The transaction committed (complet installed / decision recorded).
    Committed,
    /// The transaction aborted (held state discarded / decision recorded).
    Aborted,
    /// The peer has no record of this `(root, epoch)` transaction.
    Unknown,
}

impl MoveTxnState {
    fn as_str(self) -> &'static str {
        match self {
            MoveTxnState::Held => "held",
            MoveTxnState::Committed => "committed",
            MoveTxnState::Aborted => "aborted",
            MoveTxnState::Unknown => "unknown",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "held" => MoveTxnState::Held,
            "committed" => MoveTxnState::Committed,
            "aborted" => MoveTxnState::Aborted,
            "unknown" => MoveTxnState::Unknown,
            _ => return None,
        })
    }
}

/// Where an event subscription delivers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ListenerAddr {
    /// Deliver by invoking `on_event` on this complet (follows moves).
    Complet(RefDescriptor),
    /// Deliver to a Core-level sink registered under a token.
    Core { node: u32, token: u64 },
}

/// Request bodies.
// `MoveRequest` is named after the wire operation (a request *to move*,
// distinct from `Move`, the marshaled stream itself).
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Request {
    /// Invoke a method on a (possibly forwarded) complet.
    Invoke {
        target: CompletId,
        method: String,
        args: Vec<Value>,
        /// Complet ids already on the synchronous call chain
        /// (re-entrancy detection).
        chain: Vec<CompletId>,
        /// Node indices the request has traversed, origin first.
        path: Vec<u32>,
        hops: u32,
    },
    /// A marshaled move stream: the root complet plus all co-movers.
    /// Single-round move, kept for wire compatibility; new code uses the
    /// two-phase `MovePrepare`/`MoveCommit` handshake.
    Move {
        packets: Vec<CompletPacket>,
        continuation: Option<Continuation>,
    },
    /// Phase one of a two-phase move: the full marshaled stream. The
    /// destination validates, constructs and *holds* the complets —
    /// invisible and un-invocable — until it hears `MoveCommit`.
    MovePrepare {
        /// The moved root (the transaction key together with `epoch`).
        root: CompletId,
        /// The root's move epoch for this transaction.
        epoch: u64,
        packets: Vec<CompletPacket>,
        continuation: Option<Continuation>,
    },
    /// Phase two: activate the held complets of `(root, epoch)`.
    MoveCommit { root: CompletId, epoch: u64 },
    /// Phase two, negative: discard the held complets of `(root, epoch)`.
    MoveAbort { root: CompletId, epoch: u64 },
    /// Source → destination in-doubt probe: what became of `(root,
    /// epoch)`? Answered with [`Reply::MoveState`].
    MoveQuery { root: CompletId, epoch: u64 },
    /// Destination → source outcome probe for a held move whose commit
    /// never arrived: what did the source decide for `(root, epoch)`?
    /// Answered with [`Reply::MoveState`].
    MoveDecision { root: CompletId, epoch: u64 },
    /// Remote instantiation of a complet.
    NewComplet { type_name: String, args: Vec<Value> },
    /// Look up a logical name in the receiver's naming service.
    NameLookup { name: String },
    /// Fetch a complet's marshaled state (remote `duplicate`).
    FetchState { id: CompletId },
    /// Ask the receiver (the complet's current host) to move it.
    MoveRequest { id: CompletId, dest: u32 },
    /// Where does the receiver (a home registry) believe this complet is?
    WhereIs { id: CompletId },
    /// Where does the receiver's *location shard* believe this complet
    /// is? Asked of the complet's ring owner; answered with
    /// [`Reply::LocateOk`] carrying the entry's move epoch so the caller
    /// can rank it against its own hints.
    LocateQuery { id: CompletId },
    /// List the live entries of the receiver's location shard (the
    /// planner's one-RPC-per-Core placement read).
    ShardList,
    /// Subscribe a listener to the receiver's events.
    Subscribe {
        selector: String,
        threshold: Option<f64>,
        above: bool,
        listener: ListenerAddr,
    },
    /// Cancel a subscription previously installed with the same listener
    /// address and selector.
    Unsubscribe {
        selector: String,
        listener: ListenerAddr,
    },
    /// List the complets resident at the receiver (admin tooling).
    ListComplets,
    /// List the receiver's tracker table (reference inspection).
    ListTrackers,
    /// Collect the receiver's recorded spans for one trace id.
    TraceSpans { trace_id: u64 },
    /// Collect the receiver's journal of layout events (flight-recorder
    /// pull; merged into a global timeline by the caller).
    JournalEvents,
    /// Collect the receiver's top-`n` complets by accounted load
    /// (heavy-hitter pull; merged cluster-wide by the caller).
    TopComplets { n: u32 },
    /// Collect the receiver's outbound traffic-matrix cells.
    TrafficMatrix,
    /// Latency probe.
    Ping,
}

impl Request {
    /// Stable lowercase name of the request kind, used as the
    /// `kind` label on per-message-type metrics.
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            Request::Invoke { .. } => "invoke",
            Request::Move { .. } => "move",
            Request::MovePrepare { .. } => "move_prep",
            Request::MoveCommit { .. } => "move_commit",
            Request::MoveAbort { .. } => "move_abort",
            Request::MoveQuery { .. } => "move_query",
            Request::MoveDecision { .. } => "move_decision",
            Request::NewComplet { .. } => "new",
            Request::NameLookup { .. } => "lookup",
            Request::FetchState { .. } => "fetch",
            Request::MoveRequest { .. } => "move_req",
            Request::WhereIs { .. } => "where",
            Request::LocateQuery { .. } => "locate",
            Request::ShardList => "shard_list",
            Request::Subscribe { .. } => "subscribe",
            Request::Unsubscribe { .. } => "unsubscribe",
            Request::ListComplets => "list",
            Request::ListTrackers => "list_trk",
            Request::TraceSpans { .. } => "trace_spans",
            Request::JournalEvents => "journal",
            Request::TopComplets { .. } => "top",
            Request::TrafficMatrix => "matrix",
            Request::Ping => "ping",
        }
    }

    /// Whether re-executing this request is observably harmless, so the
    /// receiver can skip reply-dedup for retransmitted copies. Everything
    /// that mutates layout or application state answers `false`.
    pub(crate) fn idempotent(&self) -> bool {
        matches!(
            self,
            Request::NameLookup { .. }
                | Request::FetchState { .. }
                | Request::WhereIs { .. }
                | Request::LocateQuery { .. }
                | Request::ShardList
                | Request::ListComplets
                | Request::ListTrackers
                | Request::TraceSpans { .. }
                | Request::JournalEvents
                | Request::TopComplets { .. }
                | Request::TrafficMatrix
                | Request::MoveQuery { .. }
                | Request::MoveDecision { .. }
                | Request::Ping
        )
    }

    /// Whether this request may be served directly on the receiver's
    /// dispatch loop instead of the worker pool. Strictly a subset of
    /// [`Request::idempotent`]: read-only snapshots that never invoke
    /// complet code, never block, and never issue nested rpcs — so
    /// serving them inline cannot deadlock the loop that must keep
    /// draining replies. Everything else (including reads that take the
    /// slot-state mutexes, like `FetchState`) stays on the pool.
    pub(crate) fn inline_safe(&self) -> bool {
        matches!(
            self,
            Request::NameLookup { .. }
                | Request::WhereIs { .. }
                | Request::LocateQuery { .. }
                | Request::ShardList
                | Request::ListComplets
                | Request::ListTrackers
                | Request::TraceSpans { .. }
                | Request::JournalEvents
                | Request::TopComplets { .. }
                | Request::TrafficMatrix
                | Request::Ping
        )
    }
}

/// Reply bodies.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Reply {
    InvokeOk {
        value: Value,
        /// Node index where the target actually executed — used by every
        /// tracker on the way back to shorten the chain.
        final_location: u32,
        /// The invoked complet, so intermediate Cores know whose tracker
        /// to repoint.
        target: CompletId,
        /// Move epoch of the target at the executing Core, so shortening
        /// from a delayed reply cannot repoint a tracker away from a
        /// newer location (0 = never moved; omitted on the wire).
        epoch: u64,
    },
    MoveOk {
        arrived: Vec<CompletId>,
    },
    /// The destination prepared and holds the move stream of the echoed
    /// epoch, awaiting commit or abort.
    PrepareOk {
        epoch: u64,
    },
    /// A peer's record of one move transaction (`MoveQuery` /
    /// `MoveDecision` answer).
    MoveState {
        state: MoveTxnState,
    },
    NewOk {
        desc: RefDescriptor,
    },
    NameOk {
        desc: Option<RefDescriptor>,
    },
    StateOk {
        type_name: String,
        state: Value,
    },
    WhereOk {
        node: Option<u32>,
    },
    /// A location shard's answer to [`Request::LocateQuery`]: the node
    /// the shard believes hosts the complet (`None` = no entry or a
    /// tombstone) and the move epoch of that belief (0 = never moved;
    /// omitted on the wire).
    LocateOk {
        node: Option<u32>,
        epoch: u64,
    },
    /// The replying Core's live location-shard entries:
    /// `(complet, node, epoch)`.
    ShardEntries {
        entries: Vec<(CompletId, u32, u64)>,
    },
    /// Complets resident at the replying Core: `(id, type_name)`.
    Complets {
        items: Vec<(CompletId, String)>,
    },
    /// The replying Core's trackers: `(target, forward-to node if any,
    /// hits)`; `None` forward means the target is local there.
    Trackers {
        items: Vec<(CompletId, Option<u32>, u64)>,
    },
    /// Spans recorded at the replying Core for a requested trace id.
    Spans {
        spans: Vec<SpanRecord>,
    },
    /// The replying Core's retained journal events.
    Journal {
        events: Vec<JournalEvent>,
    },
    /// The replying Core's heaviest complets by accounted load.
    TopComplets {
        rows: Vec<AccountRecord>,
    },
    /// The replying Core's outbound traffic-matrix cells.
    Matrix {
        cells: Vec<MatrixCell>,
    },
    Ok,
    Pong,
    Err(FargoError),
}

/// One-way notifications (no reply expected).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Notify {
    /// A complet now lives at `now_at` (home-registry update, and direct
    /// tracker refresh after moves). `epoch` is the move epoch that put
    /// it there, so delayed updates cannot regress the registry
    /// (0 = never moved; omitted on the wire).
    LocationUpdate {
        target: CompletId,
        now_at: u32,
        epoch: u64,
    },
    /// An event fired at a remote Core this Core subscribed to.
    Event { token: u64, payload: EventPayload },
    /// A batch of location-shard deltas gossiped to the owning shard (or
    /// anti-entropy peers): `(complet, node, epoch, alive)`. `alive =
    /// false` is a tombstone (the complet was released).
    ShardDelta {
        entries: Vec<(CompletId, u32, u64, bool)>,
    },
    /// The sending Core is about to shut down.
    CoreShutdown { node: u32 },
}

/// The full message envelope.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Message {
    Request {
        req_id: ReqId,
        /// Node index of the Core awaiting the reply.
        origin: u32,
        /// Trace context propagated from the caller, if the operation is
        /// being traced. Optional on the wire (`tr` field), so envelopes
        /// from untraced callers stay byte-compatible.
        trace: Option<TraceContext>,
        body: Request,
    },
    Reply {
        req_id: ReqId,
        /// Remaining nodes the reply must traverse, ending at the origin.
        route: Vec<u32>,
        body: Reply,
    },
    Notify(Notify),
}

// --- encoding helpers ----------------------------------------------------

fn id_to_value(id: CompletId) -> Value {
    Value::list([Value::from(id.origin), Value::I64(id.seq as i64)])
}

fn id_from_value(v: &Value) -> Result<CompletId> {
    let origin = v
        .index(0)
        .and_then(Value::as_i64)
        .ok_or_else(|| FargoError::Protocol("bad complet id".into()))?;
    let seq = v
        .index(1)
        .and_then(Value::as_i64)
        .ok_or_else(|| FargoError::Protocol("bad complet id".into()))?;
    Ok(CompletId::new(origin as u32, seq as u64))
}

fn ids_to_value(ids: &[CompletId]) -> Value {
    Value::List(ids.iter().map(|&i| id_to_value(i)).collect())
}

fn ids_from_value(v: &Value) -> Result<Vec<CompletId>> {
    v.as_list()
        .ok_or_else(|| FargoError::Protocol("bad id list".into()))?
        .iter()
        .map(id_from_value)
        .collect()
}

fn nodes_to_value(nodes: &[u32]) -> Value {
    Value::List(nodes.iter().map(|&n| Value::from(n)).collect())
}

fn nodes_from_value(v: &Value) -> Result<Vec<u32>> {
    v.as_list()
        .ok_or_else(|| FargoError::Protocol("bad node list".into()))?
        .iter()
        .map(|n| {
            n.as_i64()
                .map(|x| x as u32)
                .ok_or_else(|| FargoError::Protocol("bad node index".into()))
        })
        .collect()
}

fn str_field(v: &Value, key: &str) -> Result<String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| FargoError::Protocol(format!("missing string field {key:?}")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64> {
    v.get(key)
        .and_then(Value::as_i64)
        .map(|x| x as u64)
        .ok_or_else(|| FargoError::Protocol(format!("missing int field {key:?}")))
}

fn value_field(v: &Value, key: &str) -> Result<Value> {
    v.get(key)
        .cloned()
        .ok_or_else(|| FargoError::Protocol(format!("missing field {key:?}")))
}

fn list_field(v: &Value, key: &str) -> Result<Vec<Value>> {
    match v.get(key) {
        Some(Value::List(items)) => Ok(items.clone()),
        _ => Err(FargoError::Protocol(format!("missing list field {key:?}"))),
    }
}

fn ref_to_value(d: &RefDescriptor) -> Value {
    Value::Ref(d.clone())
}

fn ref_from_value(v: &Value) -> Result<RefDescriptor> {
    v.as_ref_desc()
        .cloned()
        .ok_or_else(|| FargoError::Protocol("expected ref descriptor".into()))
}

/// Errors cross the wire as `(code, detail)`; unrecognised codes decode to
/// [`FargoError::App`] so peers never fail to decode an error reply.
fn error_to_value(e: &FargoError) -> Value {
    let (code, detail) = match e {
        FargoError::UnknownComplet(id) => ("unknown_complet", id.to_string()),
        FargoError::UnknownType(t) => ("unknown_type", t.clone()),
        FargoError::NoSuchMethod {
            complet_type,
            method,
        } => ("no_such_method", format!("{complet_type}/{method}")),
        FargoError::App(m) => ("app", m.clone()),
        FargoError::ReentrantInvocation(id) => ("reentrant", id.to_string()),
        FargoError::Timeout => ("timeout", String::new()),
        FargoError::NameNotBound(n) => ("name_not_bound", n.clone()),
        FargoError::StampUnresolved(t) => ("stamp_unresolved", t.clone()),
        FargoError::AlreadyMoving(id) => ("already_moving", id.to_string()),
        FargoError::UnknownRelocator(n) => ("unknown_relocator", n.clone()),
        FargoError::HopLimit(n) => ("hop_limit", n.to_string()),
        FargoError::ShuttingDown => ("shutting_down", String::new()),
        FargoError::CapacityExceeded { core, capacity } => {
            ("capacity", format!("{core}/{capacity}"))
        }
        FargoError::MoveInDoubt(id) => ("move_indoubt", id.to_string()),
        FargoError::Durability(m) => ("durability", m.clone()),
        other => ("app", other.to_string()),
    };
    Value::map([("code", Value::from(code)), ("detail", Value::from(detail))])
}

fn error_from_value(v: &Value) -> Result<FargoError> {
    let code = str_field(v, "code")?;
    let detail = str_field(v, "detail")?;
    Ok(match code.as_str() {
        "unknown_type" => FargoError::UnknownType(detail),
        "no_such_method" => {
            let (t, m) = detail.split_once('/').unwrap_or((detail.as_str(), ""));
            FargoError::NoSuchMethod {
                complet_type: t.to_owned(),
                method: m.to_owned(),
            }
        }
        "timeout" => FargoError::Timeout,
        "name_not_bound" => FargoError::NameNotBound(detail),
        "stamp_unresolved" => FargoError::StampUnresolved(detail),
        "unknown_relocator" => FargoError::UnknownRelocator(detail),
        "shutting_down" => FargoError::ShuttingDown,
        "capacity" => {
            let (core, cap) = detail.rsplit_once('/').unwrap_or((detail.as_str(), "0"));
            FargoError::CapacityExceeded {
                core: core.to_owned(),
                capacity: cap.parse().unwrap_or(0),
            }
        }
        "hop_limit" => FargoError::HopLimit(detail.parse().unwrap_or(0)),
        "durability" => FargoError::Durability(detail),
        // Complet ids inside error details are informational; decode as App
        // if unparsable rather than failing the whole reply.
        "unknown_complet" | "reentrant" | "already_moving" | "move_indoubt" => {
            match parse_id(&detail) {
                Some(id) if code == "unknown_complet" => FargoError::UnknownComplet(id),
                Some(id) if code == "reentrant" => FargoError::ReentrantInvocation(id),
                Some(id) if code == "move_indoubt" => FargoError::MoveInDoubt(id),
                Some(id) => FargoError::AlreadyMoving(id),
                None => FargoError::App(format!("{code}: {detail}")),
            }
        }
        _ => FargoError::App(detail),
    })
}

fn parse_id(s: &str) -> Option<CompletId> {
    let rest = s.strip_prefix('c')?;
    let (origin, seq) = rest.split_once('.')?;
    Some(CompletId::new(origin.parse().ok()?, seq.parse().ok()?))
}

/// Spans cross the wire as flat 7-element lists:
/// `[trace, span, parent, name, core, start_us, duration_us]`.
fn span_to_value(s: &SpanRecord) -> Value {
    Value::list([
        Value::I64(s.trace_id as i64),
        Value::I64(s.span_id as i64),
        Value::I64(s.parent_id as i64),
        Value::from(s.name.as_str()),
        Value::from(s.core.as_str()),
        Value::I64(s.start_us as i64),
        Value::I64(s.duration_us as i64),
    ])
}

fn span_from_value(v: &Value) -> Result<SpanRecord> {
    let int = |i: usize| -> Result<u64> {
        v.index(i)
            .and_then(Value::as_i64)
            .map(|x| x as u64)
            .ok_or_else(|| FargoError::Protocol("bad span field".into()))
    };
    let text = |i: usize| -> Result<String> {
        v.index(i)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| FargoError::Protocol("bad span field".into()))
    };
    Ok(SpanRecord {
        trace_id: int(0)?,
        span_id: int(1)?,
        parent_id: int(2)?,
        name: text(3)?,
        core: text(4)?,
        start_us: int(5)?,
        duration_us: int(6)?,
    })
}

/// Journal events cross the wire as flat 9-element lists:
/// `[wall_us, logical, core, seq, kind, subject, object, detail, peer]`
/// (`peer` is `-1` when absent).
fn journal_event_to_value(e: &JournalEvent) -> Value {
    Value::list([
        Value::I64(e.hlc.wall_us as i64),
        Value::I64(i64::from(e.hlc.logical)),
        Value::from(e.core),
        Value::I64(e.seq as i64),
        Value::from(e.kind.as_str()),
        Value::from(e.subject.as_str()),
        Value::from(e.object.as_str()),
        Value::from(e.detail.as_str()),
        Value::I64(e.peer.map_or(-1, i64::from)),
    ])
}

/// Account records cross the wire as flat 8-element lists:
/// `[origin, seq, invokes, exec_us, bytes_in, bytes_out, load, err]`.
fn account_to_value(r: &AccountRecord) -> Value {
    Value::list([
        Value::from(r.key.0),
        Value::I64(r.key.1 as i64),
        Value::I64(r.invokes as i64),
        Value::I64(r.exec_us as i64),
        Value::I64(r.bytes_in as i64),
        Value::I64(r.bytes_out as i64),
        Value::I64(r.load as i64),
        Value::I64(r.err as i64),
    ])
}

fn account_from_value(v: &Value) -> Result<AccountRecord> {
    let int = |i: usize| -> Result<u64> {
        v.index(i)
            .and_then(Value::as_i64)
            .map(|x| x as u64)
            .ok_or_else(|| FargoError::Protocol("bad account field".into()))
    };
    Ok(AccountRecord {
        key: (int(0)? as u32, int(1)?),
        invokes: int(2)?,
        exec_us: int(3)?,
        bytes_in: int(4)?,
        bytes_out: int(5)?,
        load: int(6)?,
        err: int(7)?,
    })
}

/// Matrix cells cross the wire as flat 4-element lists:
/// `[src, dst, msgs, bytes]`.
fn matrix_cell_to_value(c: &MatrixCell) -> Value {
    Value::list([
        Value::from(c.src.as_str()),
        Value::from(c.dst.as_str()),
        Value::I64(c.msgs as i64),
        Value::I64(c.bytes as i64),
    ])
}

fn matrix_cell_from_value(v: &Value) -> Result<MatrixCell> {
    let text = |i: usize| -> Result<String> {
        v.index(i)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| FargoError::Protocol("bad matrix field".into()))
    };
    let int = |i: usize| -> Result<u64> {
        v.index(i)
            .and_then(Value::as_i64)
            .map(|x| x as u64)
            .ok_or_else(|| FargoError::Protocol("bad matrix field".into()))
    };
    Ok(MatrixCell {
        src: text(0)?,
        dst: text(1)?,
        msgs: int(2)?,
        bytes: int(3)?,
    })
}

/// Shard deltas cross the wire as flat 4-element lists:
/// `[id, node, epoch, alive]`.
fn shard_delta_to_value(d: &(CompletId, u32, u64, bool)) -> Value {
    Value::list([
        id_to_value(d.0),
        Value::from(d.1),
        Value::I64(d.2 as i64),
        Value::from(d.3),
    ])
}

fn shard_delta_from_value(v: &Value) -> Result<(CompletId, u32, u64, bool)> {
    let id = id_from_value(
        v.index(0)
            .ok_or_else(|| FargoError::Protocol("bad shard delta".into()))?,
    )?;
    let node = v
        .index(1)
        .and_then(Value::as_i64)
        .ok_or_else(|| FargoError::Protocol("bad shard delta node".into()))? as u32;
    let epoch =
        v.index(2)
            .and_then(Value::as_i64)
            .ok_or_else(|| FargoError::Protocol("bad shard delta epoch".into()))? as u64;
    let alive = v
        .index(3)
        .and_then(Value::as_bool)
        .ok_or_else(|| FargoError::Protocol("bad shard delta alive".into()))?;
    Ok((id, node, epoch, alive))
}

fn journal_event_from_value(v: &Value) -> Result<JournalEvent> {
    let int = |i: usize| -> Result<i64> {
        v.index(i)
            .and_then(Value::as_i64)
            .ok_or_else(|| FargoError::Protocol("bad journal field".into()))
    };
    let text = |i: usize| -> Result<String> {
        v.index(i)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| FargoError::Protocol("bad journal field".into()))
    };
    let kind_name = text(4)?;
    let kind = JournalKind::parse(&kind_name)
        .ok_or_else(|| FargoError::Protocol(format!("unknown journal kind {kind_name:?}")))?;
    let peer = int(8)?;
    Ok(JournalEvent {
        hlc: Hlc {
            wall_us: int(0)? as u64,
            logical: int(1)? as u32,
        },
        core: int(2)? as u32,
        seq: int(3)? as u64,
        kind,
        subject: text(5)?,
        object: text(6)?,
        detail: text(7)?,
        peer: (peer >= 0).then_some(peer as u32),
    })
}

fn listener_to_value(l: &ListenerAddr) -> Value {
    match l {
        ListenerAddr::Complet(d) => Value::map([("complet", ref_to_value(d))]),
        ListenerAddr::Core { node, token } => Value::map([
            ("node", Value::from(*node)),
            ("token", Value::I64(*token as i64)),
        ]),
    }
}

fn listener_from_value(v: &Value) -> Result<ListenerAddr> {
    if let Some(r) = v.get("complet") {
        return Ok(ListenerAddr::Complet(ref_from_value(r)?));
    }
    Ok(ListenerAddr::Core {
        node: u64_field(v, "node")? as u32,
        token: u64_field(v, "token")?,
    })
}

fn packet_to_value(p: &CompletPacket) -> Value {
    let mut m = Value::map([
        ("id", id_to_value(p.id)),
        ("type", Value::from(p.type_name.as_str())),
        ("state", p.state.clone()),
        (
            "names",
            Value::List(p.names.iter().map(|n| Value::from(n.as_str())).collect()),
        ),
    ]);
    // Only stamped when non-zero, keeping epoch-less packets byte-identical
    // to the pre-epoch wire format.
    if p.epoch != 0 {
        m.insert("epoch", Value::I64(p.epoch as i64));
    }
    m
}

fn packet_from_value(v: &Value) -> Result<CompletPacket> {
    let names = list_field(v, "names")?
        .iter()
        .map(|n| {
            n.as_str()
                .map(str::to_owned)
                .ok_or_else(|| FargoError::Protocol("bad name".into()))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(CompletPacket {
        id: id_from_value(&value_field(v, "id")?)?,
        type_name: str_field(v, "type")?,
        state: value_field(v, "state")?,
        names,
        epoch: v
            .get("epoch")
            .and_then(Value::as_i64)
            .map_or(0, |e| e as u64),
    })
}

/// Shared encoding of a move stream's continuation (`cont` field).
fn insert_continuation(m: &mut Value, continuation: &Option<Continuation>) {
    if let Some(c) = continuation {
        m.insert(
            "cont",
            Value::map([
                ("target", id_to_value(c.target)),
                ("method", Value::from(c.method.as_str())),
                ("args", Value::List(c.args.clone())),
            ]),
        );
    }
}

fn continuation_from_value(v: &Value) -> Result<Option<Continuation>> {
    match v.get("cont") {
        Some(c) => Ok(Some(Continuation {
            target: id_from_value(&value_field(c, "target")?)?,
            method: str_field(c, "method")?,
            args: list_field(c, "args")?,
        })),
        None => Ok(None),
    }
}

fn packets_from_value(v: &Value) -> Result<Vec<CompletPacket>> {
    list_field(v, "packets")?
        .iter()
        .map(packet_from_value)
        .collect()
}

impl Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Invoke {
                target,
                method,
                args,
                chain,
                path,
                hops,
            } => Value::map([
                ("kind", Value::from("invoke")),
                ("target", id_to_value(*target)),
                ("method", Value::from(method.as_str())),
                ("args", Value::List(args.clone())),
                ("chain", ids_to_value(chain)),
                ("path", nodes_to_value(path)),
                ("hops", Value::from(*hops)),
            ]),
            Request::Move {
                packets,
                continuation,
            } => {
                let mut m = Value::map([
                    ("kind", Value::from("move")),
                    (
                        "packets",
                        Value::List(packets.iter().map(packet_to_value).collect()),
                    ),
                ]);
                insert_continuation(&mut m, continuation);
                m
            }
            Request::MovePrepare {
                root,
                epoch,
                packets,
                continuation,
            } => {
                let mut m = Value::map([
                    ("kind", Value::from("move_prep")),
                    ("root", id_to_value(*root)),
                    ("epoch", Value::I64(*epoch as i64)),
                    (
                        "packets",
                        Value::List(packets.iter().map(packet_to_value).collect()),
                    ),
                ]);
                insert_continuation(&mut m, continuation);
                m
            }
            Request::MoveCommit { root, epoch } => Value::map([
                ("kind", Value::from("move_commit")),
                ("root", id_to_value(*root)),
                ("epoch", Value::I64(*epoch as i64)),
            ]),
            Request::MoveAbort { root, epoch } => Value::map([
                ("kind", Value::from("move_abort")),
                ("root", id_to_value(*root)),
                ("epoch", Value::I64(*epoch as i64)),
            ]),
            Request::MoveQuery { root, epoch } => Value::map([
                ("kind", Value::from("move_query")),
                ("root", id_to_value(*root)),
                ("epoch", Value::I64(*epoch as i64)),
            ]),
            Request::MoveDecision { root, epoch } => Value::map([
                ("kind", Value::from("move_decision")),
                ("root", id_to_value(*root)),
                ("epoch", Value::I64(*epoch as i64)),
            ]),
            Request::NewComplet { type_name, args } => Value::map([
                ("kind", Value::from("new")),
                ("type", Value::from(type_name.as_str())),
                ("args", Value::List(args.clone())),
            ]),
            Request::NameLookup { name } => Value::map([
                ("kind", Value::from("lookup")),
                ("name", Value::from(name.as_str())),
            ]),
            Request::FetchState { id } => {
                Value::map([("kind", Value::from("fetch")), ("id", id_to_value(*id))])
            }
            Request::MoveRequest { id, dest } => Value::map([
                ("kind", Value::from("move_req")),
                ("id", id_to_value(*id)),
                ("dest", Value::from(*dest)),
            ]),
            Request::WhereIs { id } => {
                Value::map([("kind", Value::from("where")), ("id", id_to_value(*id))])
            }
            Request::LocateQuery { id } => {
                Value::map([("kind", Value::from("locate")), ("id", id_to_value(*id))])
            }
            Request::ShardList => Value::map([("kind", Value::from("shard_list"))]),
            Request::Subscribe {
                selector,
                threshold,
                above,
                listener,
            } => Value::map([
                ("kind", Value::from("subscribe")),
                ("selector", Value::from(selector.as_str())),
                ("threshold", Value::from(*threshold)),
                ("above", Value::from(*above)),
                ("listener", listener_to_value(listener)),
            ]),
            Request::Unsubscribe { selector, listener } => Value::map([
                ("kind", Value::from("unsubscribe")),
                ("selector", Value::from(selector.as_str())),
                ("listener", listener_to_value(listener)),
            ]),
            Request::ListComplets => Value::map([("kind", Value::from("list"))]),
            Request::ListTrackers => Value::map([("kind", Value::from("list_trk"))]),
            Request::TraceSpans { trace_id } => Value::map([
                ("kind", Value::from("trace_spans")),
                ("trace", Value::I64(*trace_id as i64)),
            ]),
            Request::JournalEvents => Value::map([("kind", Value::from("journal"))]),
            Request::TopComplets { n } => Value::map([
                ("kind", Value::from("top")),
                ("n", Value::I64(i64::from(*n))),
            ]),
            Request::TrafficMatrix => Value::map([("kind", Value::from("matrix"))]),
            Request::Ping => Value::map([("kind", Value::from("ping"))]),
        }
    }

    fn from_value(v: &Value) -> Result<Request> {
        match str_field(v, "kind")?.as_str() {
            "invoke" => Ok(Request::Invoke {
                target: id_from_value(&value_field(v, "target")?)?,
                method: str_field(v, "method")?,
                args: list_field(v, "args")?,
                chain: ids_from_value(&value_field(v, "chain")?)?,
                path: nodes_from_value(&value_field(v, "path")?)?,
                hops: u64_field(v, "hops")? as u32,
            }),
            "move" => Ok(Request::Move {
                packets: packets_from_value(v)?,
                continuation: continuation_from_value(v)?,
            }),
            "move_prep" => Ok(Request::MovePrepare {
                root: id_from_value(&value_field(v, "root")?)?,
                epoch: u64_field(v, "epoch")?,
                packets: packets_from_value(v)?,
                continuation: continuation_from_value(v)?,
            }),
            "move_commit" => Ok(Request::MoveCommit {
                root: id_from_value(&value_field(v, "root")?)?,
                epoch: u64_field(v, "epoch")?,
            }),
            "move_abort" => Ok(Request::MoveAbort {
                root: id_from_value(&value_field(v, "root")?)?,
                epoch: u64_field(v, "epoch")?,
            }),
            "move_query" => Ok(Request::MoveQuery {
                root: id_from_value(&value_field(v, "root")?)?,
                epoch: u64_field(v, "epoch")?,
            }),
            "move_decision" => Ok(Request::MoveDecision {
                root: id_from_value(&value_field(v, "root")?)?,
                epoch: u64_field(v, "epoch")?,
            }),
            "new" => Ok(Request::NewComplet {
                type_name: str_field(v, "type")?,
                args: list_field(v, "args")?,
            }),
            "lookup" => Ok(Request::NameLookup {
                name: str_field(v, "name")?,
            }),
            "fetch" => Ok(Request::FetchState {
                id: id_from_value(&value_field(v, "id")?)?,
            }),
            "move_req" => Ok(Request::MoveRequest {
                id: id_from_value(&value_field(v, "id")?)?,
                dest: u64_field(v, "dest")? as u32,
            }),
            "where" => Ok(Request::WhereIs {
                id: id_from_value(&value_field(v, "id")?)?,
            }),
            "locate" => Ok(Request::LocateQuery {
                id: id_from_value(&value_field(v, "id")?)?,
            }),
            "shard_list" => Ok(Request::ShardList),
            "subscribe" => Ok(Request::Subscribe {
                selector: str_field(v, "selector")?,
                threshold: v.get("threshold").and_then(Value::as_f64),
                above: v.get("above").and_then(Value::as_bool).unwrap_or(true),
                listener: listener_from_value(&value_field(v, "listener")?)?,
            }),
            "unsubscribe" => Ok(Request::Unsubscribe {
                selector: str_field(v, "selector")?,
                listener: listener_from_value(&value_field(v, "listener")?)?,
            }),
            "list" => Ok(Request::ListComplets),
            "list_trk" => Ok(Request::ListTrackers),
            "trace_spans" => Ok(Request::TraceSpans {
                trace_id: u64_field(v, "trace")?,
            }),
            "journal" => Ok(Request::JournalEvents),
            "top" => Ok(Request::TopComplets {
                n: u64_field(v, "n")? as u32,
            }),
            "matrix" => Ok(Request::TrafficMatrix),
            "ping" => Ok(Request::Ping),
            other => Err(FargoError::Protocol(format!(
                "unknown request kind {other:?}"
            ))),
        }
    }
}

impl Reply {
    fn to_value(&self) -> Value {
        match self {
            Reply::InvokeOk {
                value,
                final_location,
                target,
                epoch,
            } => {
                let mut m = Value::map([
                    ("kind", Value::from("invoke_ok")),
                    ("value", value.clone()),
                    ("loc", Value::from(*final_location)),
                    ("target", id_to_value(*target)),
                ]);
                // Only stamped when non-zero, keeping replies for
                // never-moved complets byte-identical to the pre-epoch
                // wire format.
                if *epoch != 0 {
                    m.insert("epoch", Value::I64(*epoch as i64));
                }
                m
            }
            Reply::MoveOk { arrived } => Value::map([
                ("kind", Value::from("move_ok")),
                ("arrived", ids_to_value(arrived)),
            ]),
            Reply::PrepareOk { epoch } => Value::map([
                ("kind", Value::from("prep_ok")),
                ("epoch", Value::I64(*epoch as i64)),
            ]),
            Reply::MoveState { state } => Value::map([
                ("kind", Value::from("move_state")),
                ("state", Value::from(state.as_str())),
            ]),
            Reply::NewOk { desc } => Value::map([
                ("kind", Value::from("new_ok")),
                ("desc", ref_to_value(desc)),
            ]),
            Reply::NameOk { desc } => {
                let mut m = Value::map([("kind", Value::from("name_ok"))]);
                if let Some(d) = desc {
                    m.insert("desc", ref_to_value(d));
                }
                m
            }
            Reply::StateOk { type_name, state } => Value::map([
                ("kind", Value::from("state_ok")),
                ("type", Value::from(type_name.as_str())),
                ("state", state.clone()),
            ]),
            Reply::WhereOk { node } => Value::map([
                ("kind", Value::from("where_ok")),
                ("node", Value::from(node.map(i64::from))),
            ]),
            Reply::LocateOk { node, epoch } => {
                let mut m = Value::map([
                    ("kind", Value::from("locate_ok")),
                    ("node", Value::from(node.map(i64::from))),
                ]);
                // Non-zero only, as for `Reply::InvokeOk::epoch`.
                if *epoch != 0 {
                    m.insert("epoch", Value::I64(*epoch as i64));
                }
                m
            }
            Reply::ShardEntries { entries } => Value::map([
                ("kind", Value::from("shard_entries")),
                (
                    "entries",
                    Value::List(
                        entries
                            .iter()
                            .map(|(id, node, epoch)| {
                                Value::list([
                                    id_to_value(*id),
                                    Value::from(*node),
                                    Value::I64(*epoch as i64),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Reply::Complets { items } => Value::map([
                ("kind", Value::from("complets")),
                (
                    "items",
                    Value::List(
                        items
                            .iter()
                            .map(|(id, t)| Value::list([id_to_value(*id), Value::from(t.as_str())]))
                            .collect(),
                    ),
                ),
            ]),
            Reply::Trackers { items } => Value::map([
                ("kind", Value::from("trackers")),
                (
                    "items",
                    Value::List(
                        items
                            .iter()
                            .map(|(id, fwd, hits)| {
                                Value::list([
                                    id_to_value(*id),
                                    Value::from(fwd.map(i64::from)),
                                    Value::I64(*hits as i64),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Reply::Spans { spans } => Value::map([
                ("kind", Value::from("spans")),
                (
                    "spans",
                    Value::List(spans.iter().map(span_to_value).collect()),
                ),
            ]),
            Reply::Journal { events } => Value::map([
                ("kind", Value::from("journal")),
                (
                    "events",
                    Value::List(events.iter().map(journal_event_to_value).collect()),
                ),
            ]),
            Reply::TopComplets { rows } => Value::map([
                ("kind", Value::from("top")),
                (
                    "rows",
                    Value::List(rows.iter().map(account_to_value).collect()),
                ),
            ]),
            Reply::Matrix { cells } => Value::map([
                ("kind", Value::from("matrix")),
                (
                    "cells",
                    Value::List(cells.iter().map(matrix_cell_to_value).collect()),
                ),
            ]),
            Reply::Ok => Value::map([("kind", Value::from("ok"))]),
            Reply::Pong => Value::map([("kind", Value::from("pong"))]),
            Reply::Err(e) => {
                Value::map([("kind", Value::from("err")), ("error", error_to_value(e))])
            }
        }
    }

    fn from_value(v: &Value) -> Result<Reply> {
        match str_field(v, "kind")?.as_str() {
            "invoke_ok" => Ok(Reply::InvokeOk {
                value: value_field(v, "value")?,
                final_location: u64_field(v, "loc")? as u32,
                target: id_from_value(&value_field(v, "target")?)?,
                epoch: v
                    .get("epoch")
                    .and_then(Value::as_i64)
                    .map_or(0, |e| e as u64),
            }),
            "move_ok" => Ok(Reply::MoveOk {
                arrived: ids_from_value(&value_field(v, "arrived")?)?,
            }),
            "prep_ok" => Ok(Reply::PrepareOk {
                epoch: u64_field(v, "epoch")?,
            }),
            "move_state" => {
                let s = str_field(v, "state")?;
                Ok(Reply::MoveState {
                    state: MoveTxnState::parse(&s)
                        .ok_or_else(|| FargoError::Protocol(format!("unknown move state {s:?}")))?,
                })
            }
            "new_ok" => Ok(Reply::NewOk {
                desc: ref_from_value(&value_field(v, "desc")?)?,
            }),
            "name_ok" => Ok(Reply::NameOk {
                desc: match v.get("desc") {
                    Some(d) => Some(ref_from_value(d)?),
                    None => None,
                },
            }),
            "state_ok" => Ok(Reply::StateOk {
                type_name: str_field(v, "type")?,
                state: value_field(v, "state")?,
            }),
            "where_ok" => Ok(Reply::WhereOk {
                node: v.get("node").and_then(Value::as_i64).map(|n| n as u32),
            }),
            "locate_ok" => Ok(Reply::LocateOk {
                node: v.get("node").and_then(Value::as_i64).map(|n| n as u32),
                epoch: v
                    .get("epoch")
                    .and_then(Value::as_i64)
                    .map_or(0, |e| e as u64),
            }),
            "shard_entries" => {
                let entries =
                    list_field(v, "entries")?
                        .iter()
                        .map(|item| {
                            let id =
                                id_from_value(item.index(0).ok_or_else(|| {
                                    FargoError::Protocol("bad shard entry".into())
                                })?)?;
                            let node = item.index(1).and_then(Value::as_i64).ok_or_else(|| {
                                FargoError::Protocol("bad shard entry node".into())
                            })? as u32;
                            let epoch = item.index(2).and_then(Value::as_i64).ok_or_else(|| {
                                FargoError::Protocol("bad shard entry epoch".into())
                            })? as u64;
                            Ok((id, node, epoch))
                        })
                        .collect::<Result<Vec<_>>>()?;
                Ok(Reply::ShardEntries { entries })
            }
            "complets" => {
                let items = list_field(v, "items")?
                    .iter()
                    .map(|item| {
                        let id = id_from_value(
                            item.index(0)
                                .ok_or_else(|| FargoError::Protocol("bad item".into()))?,
                        )?;
                        let t = item
                            .index(1)
                            .and_then(Value::as_str)
                            .ok_or_else(|| FargoError::Protocol("bad item type".into()))?;
                        Ok((id, t.to_owned()))
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Reply::Complets { items })
            }
            "trackers" => {
                let items = list_field(v, "items")?
                    .iter()
                    .map(|item| {
                        let id = id_from_value(
                            item.index(0)
                                .ok_or_else(|| FargoError::Protocol("bad tracker".into()))?,
                        )?;
                        let fwd = item.index(1).and_then(Value::as_i64).map(|n| n as u32);
                        let hits = item
                            .index(2)
                            .and_then(Value::as_i64)
                            .ok_or_else(|| FargoError::Protocol("bad tracker hits".into()))?
                            as u64;
                        Ok((id, fwd, hits))
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Reply::Trackers { items })
            }
            "spans" => Ok(Reply::Spans {
                spans: list_field(v, "spans")?
                    .iter()
                    .map(span_from_value)
                    .collect::<Result<Vec<_>>>()?,
            }),
            "journal" => Ok(Reply::Journal {
                events: list_field(v, "events")?
                    .iter()
                    .map(journal_event_from_value)
                    .collect::<Result<Vec<_>>>()?,
            }),
            "top" => Ok(Reply::TopComplets {
                rows: list_field(v, "rows")?
                    .iter()
                    .map(account_from_value)
                    .collect::<Result<Vec<_>>>()?,
            }),
            "matrix" => Ok(Reply::Matrix {
                cells: list_field(v, "cells")?
                    .iter()
                    .map(matrix_cell_from_value)
                    .collect::<Result<Vec<_>>>()?,
            }),
            "ok" => Ok(Reply::Ok),
            "pong" => Ok(Reply::Pong),
            "err" => Ok(Reply::Err(error_from_value(&value_field(v, "error")?)?)),
            other => Err(FargoError::Protocol(format!(
                "unknown reply kind {other:?}"
            ))),
        }
    }
}

impl Notify {
    fn to_value(&self) -> Value {
        match self {
            Notify::LocationUpdate {
                target,
                now_at,
                epoch,
            } => {
                let mut m = Value::map([
                    ("kind", Value::from("loc")),
                    ("target", id_to_value(*target)),
                    ("at", Value::from(*now_at)),
                ]);
                // Non-zero only, as for `CompletPacket::epoch`.
                if *epoch != 0 {
                    m.insert("epoch", Value::I64(*epoch as i64));
                }
                m
            }
            Notify::Event { token, payload } => Value::map([
                ("kind", Value::from("event")),
                ("token", Value::I64(*token as i64)),
                ("payload", payload.to_value()),
            ]),
            Notify::ShardDelta { entries } => Value::map([
                ("kind", Value::from("shard_delta")),
                (
                    "entries",
                    Value::List(entries.iter().map(shard_delta_to_value).collect()),
                ),
            ]),
            Notify::CoreShutdown { node } => Value::map([
                ("kind", Value::from("shutdown")),
                ("node", Value::from(*node)),
            ]),
        }
    }

    fn from_value(v: &Value) -> Result<Notify> {
        match str_field(v, "kind")?.as_str() {
            "loc" => Ok(Notify::LocationUpdate {
                target: id_from_value(&value_field(v, "target")?)?,
                now_at: u64_field(v, "at")? as u32,
                epoch: v
                    .get("epoch")
                    .and_then(Value::as_i64)
                    .map_or(0, |e| e as u64),
            }),
            "event" => Ok(Notify::Event {
                token: u64_field(v, "token")?,
                payload: EventPayload::from_value(&value_field(v, "payload")?)?,
            }),
            "shard_delta" => Ok(Notify::ShardDelta {
                entries: list_field(v, "entries")?
                    .iter()
                    .map(shard_delta_from_value)
                    .collect::<Result<Vec<_>>>()?,
            }),
            "shutdown" => Ok(Notify::CoreShutdown {
                node: u64_field(v, "node")? as u32,
            }),
            other => Err(FargoError::Protocol(format!(
                "unknown notify kind {other:?}"
            ))),
        }
    }
}

impl Message {
    /// Stable lowercase label for per-message-type metrics: the request
    /// kind for requests, `reply` / `notify` otherwise.
    pub(crate) fn kind_label(&self) -> &'static str {
        match self {
            Message::Request { body, .. } => body.kind_name(),
            Message::Reply { .. } => "reply",
            Message::Notify(_) => "notify",
        }
    }

    /// Encodes the message without an envelope HLC (the runtime send path
    /// always goes through [`Message::encode_with_hlc`]; this form pins
    /// down the unstamped wire shape).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn encode(&self) -> bytes::Bytes {
        self.encode_with_hlc(None)
    }

    /// Encodes the message, piggybacking the sender's hybrid logical
    /// clock on the envelope (optional `hlc` field, like the `tr` trace
    /// field) so receivers can merge it and keep the journal's global
    /// timeline causally consistent. Envelopes without the field stay
    /// byte-compatible with peers that never heard of HLCs.
    pub fn encode_with_hlc(&self, hlc: Option<Hlc>) -> bytes::Bytes {
        self.encode_with_meta(hlc, None)
    }

    /// Encodes the message with the full set of optional envelope
    /// metadata: the HLC (see [`Message::encode_with_hlc`]) and the
    /// sender's shared-clock send timestamp in µs (optional `ts` field),
    /// from which the receiver measures one-way network latency for the
    /// per-phase histograms and the layout cost model. Both fields are
    /// omitted entirely when `None`, so envelopes stay byte-compatible
    /// with peers (and configurations) that never stamp them.
    pub fn encode_with_meta(&self, hlc: Option<Hlc>, ts: Option<u64>) -> bytes::Bytes {
        self.encode_with_meta_nd(hlc, ts, &[])
    }

    /// Encodes the message with the optional envelope metadata plus a
    /// batch of piggybacked location-shard deltas (`nd` field, flat
    /// `[id, node, epoch, alive]` lists). Gossip rides whatever traffic
    /// is already flowing between two Cores; an empty batch omits the
    /// field entirely, so delta-free envelopes stay byte-compatible.
    pub fn encode_with_meta_nd(
        &self,
        hlc: Option<Hlc>,
        ts: Option<u64>,
        nd: &[(CompletId, u32, u64, bool)],
    ) -> bytes::Bytes {
        let mut v = match self {
            Message::Request {
                req_id,
                origin,
                trace,
                body,
            } => {
                let mut m = Value::map([
                    ("t", Value::from("req")),
                    ("id", Value::I64(*req_id as i64)),
                    ("origin", Value::from(*origin)),
                    ("body", body.to_value()),
                ]);
                if let Some(tr) = trace {
                    m.insert(
                        "tr",
                        Value::list([
                            Value::I64(tr.trace_id as i64),
                            Value::I64(tr.span_id as i64),
                        ]),
                    );
                }
                m
            }
            Message::Reply {
                req_id,
                route,
                body,
            } => Value::map([
                ("t", Value::from("rep")),
                ("id", Value::I64(*req_id as i64)),
                ("route", nodes_to_value(route)),
                ("body", body.to_value()),
            ]),
            Message::Notify(n) => Value::map([("t", Value::from("ntf")), ("body", n.to_value())]),
        };
        if let Some(h) = hlc {
            v.insert(
                "hlc",
                Value::list([
                    Value::I64(h.wall_us as i64),
                    Value::I64(i64::from(h.logical)),
                ]),
            );
        }
        if let Some(ts) = ts {
            v.insert("ts", Value::I64(ts as i64));
        }
        if !nd.is_empty() {
            v.insert(
                "nd",
                Value::List(nd.iter().map(shard_delta_to_value).collect()),
            );
        }
        encode_value(&v)
    }

    /// Decodes a message received from a peer, discarding any envelope
    /// HLC (the runtime receive path uses [`Message::decode_with_hlc`]).
    ///
    /// # Errors
    ///
    /// Fails with [`FargoError::Protocol`] or a wire error on malformed
    /// input.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn decode(bytes: &[u8]) -> Result<Message> {
        Ok(Message::decode_with_hlc(bytes)?.0)
    }

    /// Decodes a message plus the sender's envelope HLC, if it carried
    /// one. The receiver merges the timestamp into its own clock before
    /// dispatching, which is what makes journal events at the two Cores
    /// order causally.
    pub fn decode_with_hlc(bytes: &[u8]) -> Result<(Message, Option<Hlc>)> {
        let (msg, hlc, _) = Message::decode_with_meta(bytes)?;
        Ok((msg, hlc))
    }

    /// Decodes a message plus all optional envelope metadata: the
    /// sender's HLC and its send timestamp (`ts`, shared-clock µs). The
    /// receive path subtracts `ts` from its own clock to attribute the
    /// network phase of the request's latency.
    pub fn decode_with_meta(bytes: &[u8]) -> Result<(Message, Option<Hlc>, Option<u64>)> {
        let (msg, hlc, ts, _) = Message::decode_with_meta_nd(bytes)?;
        Ok((msg, hlc, ts))
    }

    /// Decodes a message plus all optional envelope metadata *and* any
    /// piggybacked location-shard deltas (`nd` field). The receive path
    /// feeds the deltas to the local shard/cache before dispatching the
    /// message itself.
    #[allow(clippy::type_complexity)]
    pub fn decode_with_meta_nd(
        bytes: &[u8],
    ) -> Result<(
        Message,
        Option<Hlc>,
        Option<u64>,
        Vec<(CompletId, u32, u64, bool)>,
    )> {
        let v = decode_value(bytes)?;
        let hlc = v.get("hlc").and_then(|h| {
            Some(Hlc {
                wall_us: h.index(0)?.as_i64()? as u64,
                logical: h.index(1)?.as_i64()? as u32,
            })
        });
        let ts = v.get("ts").and_then(|t| t.as_i64()).map(|t| t as u64);
        let msg = match str_field(&v, "t")?.as_str() {
            "req" => Ok(Message::Request {
                req_id: u64_field(&v, "id")?,
                origin: u64_field(&v, "origin")? as u32,
                trace: v.get("tr").and_then(|tr| {
                    Some(TraceContext {
                        trace_id: tr.index(0)?.as_i64()? as u64,
                        span_id: tr.index(1)?.as_i64()? as u64,
                    })
                }),
                body: Request::from_value(&value_field(&v, "body")?)?,
            }),
            "rep" => Ok(Message::Reply {
                req_id: u64_field(&v, "id")?,
                route: nodes_from_value(&value_field(&v, "route")?)?,
                body: Reply::from_value(&value_field(&v, "body")?)?,
            }),
            "ntf" => Ok(Message::Notify(Notify::from_value(&value_field(
                &v, "body",
            )?)?)),
            other => Err(FargoError::Protocol(format!("unknown envelope {other:?}"))),
        }?;
        let nd = match v.get("nd").and_then(Value::as_list) {
            Some(items) => items
                .iter()
                .map(shard_delta_from_value)
                .collect::<Result<Vec<_>>>()?,
            None => Vec::new(),
        };
        Ok((msg, hlc, ts, nd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Message) {
        let bytes = m.encode();
        assert_eq!(Message::decode(&bytes).unwrap(), m);
    }

    #[test]
    fn invoke_roundtrips() {
        roundtrip(Message::Request {
            req_id: 42,
            origin: 1,
            trace: None,
            body: Request::Invoke {
                target: CompletId::new(0, 7),
                method: "print".into(),
                args: vec![Value::from("hi"), Value::Null],
                chain: vec![CompletId::new(1, 1)],
                path: vec![1, 2, 3],
                hops: 2,
            },
        });
    }

    #[test]
    fn move_stream_roundtrips() {
        roundtrip(Message::Request {
            req_id: 1,
            origin: 0,
            trace: None,
            body: Request::Move {
                packets: vec![CompletPacket {
                    id: CompletId::new(0, 1),
                    type_name: "Message".into(),
                    state: Value::map([("text", Value::from("x"))]),
                    names: vec!["msg".into()],
                    epoch: 0,
                }],
                continuation: Some(Continuation {
                    target: CompletId::new(0, 1),
                    method: "start".into(),
                    args: vec![Value::I64(1)],
                }),
            },
        });
    }

    #[test]
    fn two_phase_move_messages_roundtrip() {
        let root = CompletId::new(0, 1);
        roundtrip(Message::Request {
            req_id: 2,
            origin: 0,
            trace: None,
            body: Request::MovePrepare {
                root,
                epoch: 3,
                packets: vec![CompletPacket {
                    id: root,
                    type_name: "Message".into(),
                    state: Value::Null,
                    names: vec![],
                    epoch: 3,
                }],
                continuation: Some(Continuation {
                    target: root,
                    method: "start".into(),
                    args: vec![],
                }),
            },
        });
        for body in [
            Request::MoveCommit { root, epoch: 3 },
            Request::MoveAbort { root, epoch: 3 },
            Request::MoveQuery { root, epoch: 3 },
            Request::MoveDecision { root, epoch: 3 },
        ] {
            roundtrip(Message::Request {
                req_id: 2,
                origin: 0,
                trace: None,
                body,
            });
        }
        for body in [
            Reply::PrepareOk { epoch: 3 },
            Reply::MoveState {
                state: MoveTxnState::Held,
            },
            Reply::MoveState {
                state: MoveTxnState::Committed,
            },
            Reply::MoveState {
                state: MoveTxnState::Aborted,
            },
            Reply::MoveState {
                state: MoveTxnState::Unknown,
            },
        ] {
            roundtrip(Message::Reply {
                req_id: 2,
                route: vec![0],
                body,
            });
        }
    }

    #[test]
    fn epochless_packet_stays_byte_compatible() {
        // epoch 0 must not appear on the wire at all, so a pre-epoch peer
        // decodes the stream unchanged — same guarantee the HLC field made.
        let packet = CompletPacket {
            id: CompletId::new(0, 1),
            type_name: "T".into(),
            state: Value::Null,
            names: vec![],
            epoch: 0,
        };
        let encoded = encode_value(&packet_to_value(&packet));
        assert!(packet_to_value(&packet).get("epoch").is_none());
        let back = packet_from_value(&decode_value(&encoded).unwrap()).unwrap();
        assert_eq!(back, packet);
        // And a stamped packet round-trips its epoch.
        let stamped = CompletPacket { epoch: 7, ..packet };
        let back =
            packet_from_value(&decode_value(&encode_value(&packet_to_value(&stamped))).unwrap())
                .unwrap();
        assert_eq!(back.epoch, 7);
    }

    #[test]
    fn move_without_continuation_roundtrips() {
        roundtrip(Message::Request {
            req_id: 1,
            origin: 0,
            trace: None,
            body: Request::Move {
                packets: vec![],
                continuation: None,
            },
        });
    }

    #[test]
    fn replies_roundtrip() {
        for body in [
            Reply::InvokeOk {
                value: Value::from(5i64),
                final_location: 3,
                target: CompletId::new(0, 7),
                epoch: 0,
            },
            Reply::InvokeOk {
                value: Value::from(5i64),
                final_location: 3,
                target: CompletId::new(0, 7),
                epoch: 4,
            },
            Reply::MoveOk {
                arrived: vec![CompletId::new(1, 1)],
            },
            Reply::NewOk {
                desc: RefDescriptor::link(CompletId::new(2, 2), "T", 2),
            },
            Reply::NameOk { desc: None },
            Reply::StateOk {
                type_name: "T".into(),
                state: Value::Null,
            },
            Reply::WhereOk { node: Some(4) },
            Reply::WhereOk { node: None },
            Reply::Complets {
                items: vec![(CompletId::new(0, 1), "Message".into())],
            },
            Reply::Trackers {
                items: vec![
                    (CompletId::new(0, 1), Some(3), 7),
                    (CompletId::new(1, 2), None, 0),
                ],
            },
            Reply::Ok,
            Reply::Pong,
        ] {
            roundtrip(Message::Reply {
                req_id: 9,
                route: vec![2, 1],
                body,
            });
        }
    }

    #[test]
    fn errors_roundtrip_typed() {
        let cases = [
            FargoError::UnknownComplet(CompletId::new(3, 4)),
            FargoError::Timeout,
            FargoError::NoSuchMethod {
                complet_type: "A".into(),
                method: "b".into(),
            },
            FargoError::App("boom".into()),
            FargoError::ReentrantInvocation(CompletId::new(1, 1)),
            FargoError::StampUnresolved("Printer".into()),
            FargoError::NameNotBound("x".into()),
            FargoError::ShuttingDown,
            FargoError::HopLimit(64),
            FargoError::MoveInDoubt(CompletId::new(0, 9)),
            FargoError::Durability("fsync failed".into()),
        ];
        for e in cases {
            let m = Message::Reply {
                req_id: 1,
                route: vec![],
                body: Reply::Err(e.clone()),
            };
            let back = Message::decode(&m.encode()).unwrap();
            match back {
                Message::Reply {
                    body: Reply::Err(got),
                    ..
                } => assert_eq!(got, e),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn notifies_roundtrip() {
        for epoch in [0, 6] {
            roundtrip(Message::Notify(Notify::LocationUpdate {
                target: CompletId::new(1, 2),
                now_at: 5,
                epoch,
            }));
        }
        roundtrip(Message::Notify(Notify::CoreShutdown { node: 2 }));
    }

    #[test]
    fn epochless_tracker_updates_stay_byte_compatible() {
        // As for `CompletPacket`: epoch 0 must not appear on the wire, so
        // replies and notifies about never-moved complets decode on a
        // pre-epoch peer unchanged.
        let reply = Reply::InvokeOk {
            value: Value::Null,
            final_location: 1,
            target: CompletId::new(0, 1),
            epoch: 0,
        };
        assert!(reply.to_value().get("epoch").is_none());
        let notify = Notify::LocationUpdate {
            target: CompletId::new(0, 1),
            now_at: 1,
            epoch: 0,
        };
        assert!(notify.to_value().get("epoch").is_none());
        // Stamped ones carry it.
        let stamped = Reply::InvokeOk {
            value: Value::Null,
            final_location: 1,
            target: CompletId::new(0, 1),
            epoch: 9,
        };
        assert_eq!(
            stamped.to_value().get("epoch").and_then(Value::as_i64),
            Some(9)
        );
    }

    #[test]
    fn naming_messages_roundtrip() {
        let id = CompletId::new(2, 9);
        roundtrip(Message::Request {
            req_id: 11,
            origin: 0,
            trace: None,
            body: Request::LocateQuery { id },
        });
        roundtrip(Message::Request {
            req_id: 12,
            origin: 0,
            trace: None,
            body: Request::ShardList,
        });
        for body in [
            Reply::LocateOk {
                node: Some(3),
                epoch: 5,
            },
            Reply::LocateOk {
                node: Some(3),
                epoch: 0,
            },
            Reply::LocateOk {
                node: None,
                epoch: 0,
            },
            Reply::ShardEntries {
                entries: vec![(id, 3, 5), (CompletId::new(0, 1), 1, 0)],
            },
            Reply::ShardEntries { entries: vec![] },
        ] {
            roundtrip(Message::Reply {
                req_id: 11,
                route: vec![0],
                body,
            });
        }
        roundtrip(Message::Notify(Notify::ShardDelta {
            entries: vec![(id, 3, 5, true), (CompletId::new(0, 1), 1, 2, false)],
        }));
    }

    #[test]
    fn epochless_locate_reply_stays_byte_compatible() {
        // As for `Reply::InvokeOk`: epoch 0 must not appear on the wire.
        let reply = Reply::LocateOk {
            node: Some(1),
            epoch: 0,
        };
        assert!(reply.to_value().get("epoch").is_none());
        let stamped = Reply::LocateOk {
            node: Some(1),
            epoch: 4,
        };
        assert_eq!(
            stamped.to_value().get("epoch").and_then(Value::as_i64),
            Some(4)
        );
    }

    #[test]
    fn envelope_shard_deltas_piggyback_and_are_optional() {
        let msg = Message::Request {
            req_id: 8,
            origin: 0,
            trace: None,
            body: Request::Ping,
        };
        // No deltas → byte-identical to the plain encoding.
        assert_eq!(msg.encode_with_meta_nd(None, None, &[]), msg.encode());
        let deltas = vec![
            (CompletId::new(0, 1), 2, 3, true),
            (CompletId::new(1, 4), 0, 7, false),
        ];
        let stamped = msg.encode_with_meta_nd(
            Some(Hlc {
                wall_us: 10,
                logical: 1,
            }),
            Some(99),
            &deltas,
        );
        let (back, hlc, ts, nd) = Message::decode_with_meta_nd(&stamped).unwrap();
        assert_eq!(back, msg);
        assert_eq!(
            hlc,
            Some(Hlc {
                wall_us: 10,
                logical: 1
            })
        );
        assert_eq!(ts, Some(99));
        assert_eq!(nd, deltas);
        // Plain decode ignores the field without failing.
        let (back, _, _) = Message::decode_with_meta(&stamped).unwrap();
        assert_eq!(back, msg);
        // Delta-free envelopes decode with an empty batch.
        let (_, _, _, nd) = Message::decode_with_meta_nd(&msg.encode()).unwrap();
        assert!(nd.is_empty());
    }

    #[test]
    fn subscribe_roundtrips_both_listener_kinds() {
        for listener in [
            ListenerAddr::Complet(RefDescriptor::link(CompletId::new(1, 1), "L", 0)),
            ListenerAddr::Core { node: 3, token: 99 },
        ] {
            roundtrip(Message::Request {
                req_id: 5,
                origin: 0,
                trace: None,
                body: Request::Subscribe {
                    selector: "completLoad".into(),
                    threshold: Some(3.0),
                    above: true,
                    listener,
                },
            });
        }
    }

    #[test]
    fn account_request_and_reply_roundtrip() {
        roundtrip(Message::Request {
            req_id: 4,
            origin: 0,
            trace: None,
            body: Request::TopComplets { n: 10 },
        });
        roundtrip(Message::Request {
            req_id: 5,
            origin: 0,
            trace: None,
            body: Request::TrafficMatrix,
        });
        roundtrip(Message::Reply {
            req_id: 4,
            route: vec![0],
            body: Reply::TopComplets {
                rows: vec![AccountRecord {
                    key: (2, 17),
                    invokes: 40,
                    exec_us: 123,
                    bytes_in: 4_096,
                    bytes_out: 512,
                    load: 163,
                    err: 3,
                }],
            },
        });
        roundtrip(Message::Reply {
            req_id: 5,
            route: vec![0],
            body: Reply::Matrix {
                cells: vec![MatrixCell {
                    src: "core0".into(),
                    dst: "core1".into(),
                    msgs: 9,
                    bytes: 900,
                }],
            },
        });
    }

    #[test]
    fn journal_request_and_reply_roundtrip() {
        roundtrip(Message::Request {
            req_id: 3,
            origin: 0,
            trace: None,
            body: Request::JournalEvents,
        });
        roundtrip(Message::Reply {
            req_id: 3,
            route: vec![0],
            body: Reply::Journal {
                events: vec![
                    JournalEvent {
                        hlc: Hlc {
                            wall_us: 123,
                            logical: 4,
                        },
                        core: 1,
                        seq: 9,
                        kind: JournalKind::CompletDeparted,
                        subject: "c0.1".into(),
                        object: "Agent".into(),
                        detail: String::new(),
                        peer: Some(2),
                    },
                    JournalEvent {
                        hlc: Hlc {
                            wall_us: 124,
                            logical: 0,
                        },
                        core: 2,
                        seq: 0,
                        kind: JournalKind::RefEdgeCreated,
                        subject: "c0.1".into(),
                        object: "c0.2".into(),
                        detail: "pull".into(),
                        peer: None,
                    },
                ],
            },
        });
    }

    #[test]
    fn envelope_hlc_piggybacks_and_is_optional() {
        let msg = Message::Request {
            req_id: 7,
            origin: 0,
            trace: None,
            body: Request::Ping,
        };
        let stamped = msg.encode_with_hlc(Some(Hlc {
            wall_us: 55,
            logical: 3,
        }));
        let (back, hlc) = Message::decode_with_hlc(&stamped).unwrap();
        assert_eq!(back, msg);
        assert_eq!(
            hlc,
            Some(Hlc {
                wall_us: 55,
                logical: 3
            })
        );
        // Unstamped envelopes decode with no HLC — backwards compatible.
        let (back, hlc) = Message::decode_with_hlc(&msg.encode()).unwrap();
        assert_eq!(back, msg);
        assert_eq!(hlc, None);
        // All three envelope shapes accept the field.
        for m in [
            Message::Reply {
                req_id: 1,
                route: vec![0],
                body: Reply::Ok,
            },
            Message::Notify(Notify::CoreShutdown { node: 1 }),
        ] {
            let (_, h) = Message::decode_with_hlc(&m.encode_with_hlc(Some(Hlc {
                wall_us: 9,
                logical: 0,
            })))
            .unwrap();
            assert_eq!(h.unwrap().wall_us, 9);
        }
    }

    #[test]
    fn envelope_send_timestamp_piggybacks_and_is_optional() {
        let msg = Message::Request {
            req_id: 7,
            origin: 0,
            trace: None,
            body: Request::Ping,
        };
        let stamped = msg.encode_with_meta(None, Some(123_456));
        let (back, hlc, ts) = Message::decode_with_meta(&stamped).unwrap();
        assert_eq!(back, msg);
        assert_eq!(hlc, None);
        assert_eq!(ts, Some(123_456));
        // An unstamped envelope encodes to the exact same bytes as one
        // that never heard of the field — byte compatible, not merely
        // decode compatible.
        assert_eq!(msg.encode_with_meta(None, None), msg.encode());
        let (_, _, ts) = Message::decode_with_meta(&msg.encode()).unwrap();
        assert_eq!(ts, None);
        // HLC and ts stack on the same envelope.
        let both = msg.encode_with_meta(
            Some(Hlc {
                wall_us: 55,
                logical: 3,
            }),
            Some(9),
        );
        let (_, hlc, ts) = Message::decode_with_meta(&both).unwrap();
        assert_eq!(hlc.unwrap().wall_us, 55);
        assert_eq!(ts, Some(9));
        // All three envelope shapes accept the field.
        for m in [
            Message::Reply {
                req_id: 1,
                route: vec![0],
                body: Reply::Ok,
            },
            Message::Notify(Notify::CoreShutdown { node: 1 }),
        ] {
            let (_, _, ts) = Message::decode_with_meta(&m.encode_with_meta(None, Some(4))).unwrap();
            assert_eq!(ts, Some(4));
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Message::decode(b"garbage").is_err());
        let v = Value::map([("t", Value::from("nope"))]);
        assert!(Message::decode(&encode_value(&v)).is_err());
    }
}
