//! # aimc-wire — the shard wire protocol
//!
//! The serving fleet spreads replica shards across hosts by replacing the
//! in-process seat hop (a request record moved into a local queue) with a
//! thin command interface — the same shape the 64-core PCM chip and the
//! heterogeneous IMC cluster papers use for their compute fabrics:
//! replicas behind a small set of serializable commands. This crate defines that interface's *wire form*: the
//! [`Frame`] enum (requests, replies, and control frames) and a
//! hand-rolled little-endian byte codec ([`write_frame`] /
//! [`read_frame`]) — no serde, consistent with the workspace's
//! shims-only dependency policy.
//!
//! The protocol is deliberately tiny. A client (the router's remote
//! transport) sends [`Frame::Request`] frames carrying `(global_index,
//! image)` and control frames; the server (a host wrapping its local
//! shard) answers with [`Frame::Reply`] frames keyed by the same global
//! index — replies correlate by stream coordinate, so they may interleave
//! freely with control traffic on one duplex byte stream. Control
//! commands are strictly request/reply (one outstanding at a time per
//! connection side), so no other correlation id is needed:
//!
//! | client frame | server frame | meaning |
//! |---|---|---|
//! | `Hello { resumed, version }` | `HelloAck { version }` | (re)establish a protocol session; `resumed` announces a replay |
//! | `Request { global_index, image }` | `Reply { global_index, outcome }` | evaluate one image at its global stream coordinate |
//! | `Lease { start, len }` | *(none)* | accepted and ignored; no client sends it |
//! | `Drain` | `DrainDone` | finish every accepted request |
//! | `Shutdown` | `ShutdownDone` | stop accepting, drain, stop the shard |
//! | `ApplyDrift(t_hours)` | `DriftDone(modeled)` | set the replica's time since programming |
//! | `Reprogram` | `ReprogramDone(result)` | rewrite the replica from its seed, rewind its stream |
//! | `SetParallelism(par)` | `ParallelismSet` | retune the shard's thread budget |
//! | `StatsProbe` | `Stats(stats)` | the seat's [`ServeStats`] |
//! | `SpecProbe` | `Spec(spec)` | the shard's [`ShardSpec`] (model id + device/seed recipe + input shape) |
//!
//! Every frame is length-prefixed (`u32` LE) so a reader can never
//! misframe a stream, and [`write_frame`] hands prefix and payload to the
//! writer in one call ([`append_frame`] packs several frames for one
//! write); tensors travel as shape + raw `f32` LE bits, so the
//! fleet invariance survives the wire **bit for bit** — a remote shard's
//! logits are exactly the bytes the local executor produced.
//!
//! The stats module defines the `Stats` payload: [`ServeStats`], with its
//! [`QosStats`] ledger of [`ClassStats`] rows and the [`ShedReason`]s they
//! count. It is also the record an in-process seat reports, so a remote
//! seat's statistics are the same type as a local one's; durations travel
//! as nanoseconds, saturating at `u64::MAX`.
//!
//! Both hello frames carry [`PROTOCOL_VERSION`]. A server answers a hello
//! of another version with its own and closes, so two ends built from
//! different frame layouts or meanings fail at the handshake instead of
//! misreading each other's frames.
//!
//! For tests (and single-process demos) the crate also ships
//! [`duplex`] — an in-memory, blocking, bidirectional byte pipe with the
//! same `Read`/`Write` surface as a `TcpStream` pair — and [`FaultyEnd`],
//! a frame-aware fault injector over a pipe end (seeded reorders and
//! severs) for exercising the fleet's reconnect-and-replay machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod fault;
mod pipe;
mod stats;

pub use codec::{append_frame, decode_frame, encode_frame, read_frame, write_frame};
pub use fault::{FaultPlan, FaultyEnd};
pub use pipe::{duplex, PipeEnd, PIPE_CAPACITY};
pub use stats::{ClassStats, QosStats, ServeStats, ShedReason};

use aimc_dnn::{ExecError, Shape, Tensor};
use aimc_parallel::Parallelism;
use aimc_xbar::XbarConfig;
use std::time::Duration;

/// The protocol this build speaks, carried by [`Frame::Hello`] and
/// [`Frame::HelloAck`]. Bump it with every change to the layout *or the
/// meaning* of any frame, so that ends built from different protocols
/// refuse each other at the handshake (version 2 changed no layout: it
/// made [`Frame::ApplyDrift`] set the time since programming).
pub const PROTOCOL_VERSION: u32 = 2;

/// The full identity of what one shard computes: which model it serves and
/// the device/seed recipe that makes its logits bit-reproducible.
///
/// Two transports with **equal** specs are replicas — interchangeable
/// members of one model group whose logits at a given stream coordinate
/// are bit-identical. Two transports with different `model_id`s serve
/// different streams: a request of one never runs on the other. The
/// router's registry enforces both rules; a heterogeneous fleet is simply
/// a fleet whose specs differ across groups.
///
/// The spec is also a *rebuild recipe*: reprogramming a shard from
/// `(xbar_cfg, seed)` and drifting it to the fleet's time since
/// programming reproduces its incumbent replicas' conductances bit for
/// bit — which is what makes background recalibration and evict→rejoin
/// invisible in the results.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// The model (stream) this shard serves. Requests are routed by this
    /// id; each distinct id owns its own global index stream `0, 1, 2, …`.
    pub model_id: String,
    /// Crossbar geometry/resolution of the shard's analog arrays, noise
    /// channels included (programming and read sigmas, drift exponent).
    /// Golden shards carry an ideal placeholder configuration, whose
    /// sigmas are zero.
    pub xbar_cfg: XbarConfig,
    /// The seed keying programming and read noise. Same `(xbar_cfg, seed)`
    /// ⇒ same conductances ⇒ same logits at the same coordinates.
    pub seed: u64,
    /// The image shape the shard's model takes, or `None` where the spec
    /// does not say (both constructors leave it unset). A seat refuses a
    /// request of any other shape ([`ShardSpec::check_input`]) before it
    /// queues, registers or writes anything, so the router releases the
    /// request's stream coordinate.
    pub input: Option<Shape>,
}

impl ShardSpec {
    /// The model id of spec-less legacy transports and of the un-addressed
    /// submit path — the one group every homogeneous fleet lives in.
    pub const DEFAULT_MODEL_ID: &'static str = "default";

    /// The spec of an analog shard: the crossbar configuration and its
    /// noise channels, keyed by `seed`.
    pub fn analog(model_id: impl Into<String>, xbar_cfg: XbarConfig, seed: u64) -> Self {
        ShardSpec {
            model_id: model_id.into(),
            xbar_cfg,
            seed,
            input: None,
        }
    }

    /// The spec of a golden (noiseless floating-point) shard. All golden
    /// shards of one model are replicas regardless of seed, so the spec is
    /// a constant per `model_id`.
    pub fn golden(model_id: impl Into<String>) -> Self {
        ShardSpec {
            model_id: model_id.into(),
            xbar_cfg: XbarConfig::ideal(256, 256),
            seed: 0,
            input: None,
        }
    }

    /// Checks one image against the spec's input shape, so a malformed
    /// request is refused alone instead of failing the micro-batch it
    /// would join. A spec without an input shape accepts every image.
    ///
    /// # Errors
    /// [`ExecError::ShapeMismatch`] when `image` has another shape.
    pub fn check_input(&self, image: &Tensor) -> Result<(), ExecError> {
        match (self.input, image.shape()) {
            (Some(expected), got) if got != expected => {
                Err(ExecError::ShapeMismatch { expected, got })
            }
            _ => Ok(()),
        }
    }
}

impl Default for ShardSpec {
    /// The spec a legacy (spec-less) transport reports: golden shards of
    /// the model id `"default"`. All such transports group together, which
    /// preserves the pre-registry homogeneous-fleet behavior exactly.
    fn default() -> Self {
        ShardSpec::golden(Self::DEFAULT_MODEL_ID)
    }
}

/// Service priority of one request — the class a request is admitted,
/// queued, and (under the EDF ordering) dispatched by.
///
/// Lower rank is more urgent: [`Priority::High`] jumps queues and bypasses
/// the router's overload pacer; [`Priority::Low`] is the first traffic an
/// overloaded fleet sheds. The numeric [`Priority::rank`] doubles as the
/// index into every per-class counter array in the stack (and as the wire
/// byte), so the three views — enum, array slot, protocol byte — can never
/// disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-critical traffic: dispatched first, never shed by the
    /// overload pacer (only by hard queue limits).
    High,
    /// The default class — what every legacy (class-less) submit carries.
    #[default]
    Normal,
    /// Best-effort traffic: first to be shed under overload.
    Low,
}

impl Priority {
    /// Number of priority classes (the length of every per-class array).
    pub const COUNT: usize = 3;

    /// All classes, most urgent first — `ALL[c].rank() == c`.
    pub const ALL: [Priority; Priority::COUNT] = [Priority::High, Priority::Normal, Priority::Low];

    /// The class's index into per-class arrays (0 = most urgent).
    pub const fn rank(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// The inverse of [`Priority::rank`]; `None` for out-of-range bytes
    /// (a decoder must not panic on corrupt input).
    pub const fn from_rank(rank: u8) -> Option<Priority> {
        match rank {
            0 => Some(Priority::High),
            1 => Some(Priority::Normal),
            2 => Some(Priority::Low),
            _ => None,
        }
    }
}

/// The QoS contract attached to one request: its [`Priority`] plus an
/// optional **relative** deadline (time from submission by which the
/// caller wants the logits).
///
/// The default class (`Normal`, no deadline) is what every class-less
/// submit path stamps, so pre-QoS callers keep their exact behavior.
/// Deadlines are relative on the wire (hosts share no clock); each shard
/// anchors them to its own arrival instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QosClass {
    /// Service priority (queue ordering + shed order).
    pub priority: Priority,
    /// Relative completion deadline, if the caller has one. Admission
    /// refuses requests whose deadline is already infeasible; admitted
    /// requests that miss it anyway are still completed (dropping them
    /// would shift stream coordinates) and counted as misses.
    pub deadline: Option<Duration>,
}

impl QosClass {
    /// A class with the given priority and no deadline.
    pub const fn new(priority: Priority) -> Self {
        QosClass {
            priority,
            deadline: None,
        }
    }

    /// Shorthand for [`Priority::High`] with no deadline.
    pub const fn high() -> Self {
        QosClass::new(Priority::High)
    }

    /// Shorthand for [`Priority::Low`] with no deadline.
    pub const fn low() -> Self {
        QosClass::new(Priority::Low)
    }

    /// Attaches a relative deadline.
    pub const fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A contiguous block of global stream indices `[start, start + len)`:
/// the payload of [`Frame::Lease`], a no-op frame that no client sends
/// and servers ignore. Every request carries its own index, so a shard
/// needs no block of indices to serve it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexLease {
    /// First index of the block.
    pub start: u64,
    /// Number of indices in the block.
    pub len: u64,
}

impl IndexLease {
    /// The block `[start, start + len)`.
    pub const fn new(start: u64, len: u64) -> Self {
        IndexLease { start, len }
    }

    /// One past the last index of the block.
    pub const fn end(&self) -> u64 {
        self.start + self.len
    }

    /// Whether the block contains `index`.
    pub const fn contains(&self, index: u64) -> bool {
        index >= self.start && index < self.end()
    }
}

/// One inference request on the wire: an image plus the global stream
/// coordinate it must be evaluated at.
///
/// The coordinate — not the receiving shard, not the batch position — keys
/// all evaluation randomness, which is what makes placement irrelevant to
/// results.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRequest {
    /// Global stream index of this request.
    pub global_index: u64,
    /// The request's QoS contract (priority + relative deadline). Carried
    /// so a remote shard can order its queue (EDF within priority) and
    /// count deadline misses exactly like a local one — it never affects
    /// *what* the request computes, only when it is dispatched.
    pub class: QosClass,
    /// The image to evaluate.
    pub image: Tensor,
}

/// A failure outcome carried in a [`ShardReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyError {
    /// The shard was shut down before accepting the request.
    ShutDown,
    /// The request was accepted but dropped before execution.
    Canceled,
    /// The executor rejected the batch; the message is the rendered
    /// execution error.
    Exec(String),
}

/// One completed request on the wire, keyed by the same global index the
/// request carried.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReply {
    /// Global stream index of the request this reply answers.
    pub global_index: u64,
    /// ECN-style congestion mark: `true` when the shard's queue stood at
    /// or above its marking threshold when this reply was written. The
    /// router's pacer treats marked replies the way an AIMD sender treats
    /// ECN — slow ingress down *before* the queue hard-fills.
    pub marked: bool,
    /// The logits, or the failure that terminated the request.
    pub outcome: Result<Tensor, ReplyError>,
}

/// Every message of the shard protocol (see the module docs for the
/// client/server pairing).
// Frames are transient — decoded, dispatched, and dropped one at a time
// per connection — so the size skew from the stats snapshot variant
// never multiplies across a collection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: evaluate one image at its global coordinate.
    Request(ShardRequest),
    /// Server → client: one completed request.
    Reply(ShardReply),
    /// Client → server (no reply): a no-op that no client sends and
    /// servers ignore — every request carries its own index.
    Lease(IndexLease),
    /// Client → server: finish every accepted request.
    Drain,
    /// Server → client: drain completed.
    DrainDone,
    /// Client → server: stop accepting, drain, stop the shard.
    Shutdown,
    /// Server → client: shutdown completed (all replies already sent).
    ShutdownDone,
    /// Client → server: drift the replica to `t_hours` since programming
    /// (a level, so a resent frame changes nothing).
    ApplyDrift(f64),
    /// Server → client: whether the replica models drift.
    DriftDone(bool),
    /// Client → server: rewrite the replica from its seed and rewind its
    /// stream.
    Reprogram,
    /// Server → client: reprogram outcome (`Err` carries the rendered
    /// execution error).
    ReprogramDone(Result<(), String>),
    /// Client → server: retune the shard's thread budget.
    SetParallelism(Parallelism),
    /// Server → client: thread budget updated.
    ParallelismSet,
    /// Client → server: request a statistics snapshot.
    StatsProbe,
    /// Server → client: the statistics snapshot.
    Stats(ServeStats),
    /// Client → server: (re)establishes a protocol session. `resumed` is
    /// `true` when the client reconnects after a link failure and will
    /// follow up by retransmitting its unacknowledged requests in
    /// ascending index order (a go-back-N replay).
    Hello {
        /// Whether this connection resumes an interrupted session.
        resumed: bool,
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Server → client: the answer to a hello, carrying the server's
    /// [`PROTOCOL_VERSION`]. The session may proceed only when it equals
    /// the client's; a server that received another version closes the
    /// connection after this frame.
    HelloAck {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Client → server: request the shard's [`ShardSpec`] (model id +
    /// device/seed recipe), so a router can place the transport into the
    /// right model group at fleet-assembly time.
    SpecProbe,
    /// Server → client: the shard's spec.
    Spec(ShardSpec),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_rank_is_a_bijection() {
        for (c, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.rank(), c);
            assert_eq!(Priority::from_rank(c as u8), Some(*p));
        }
        assert_eq!(Priority::from_rank(3), None);
        assert_eq!(Priority::default(), Priority::Normal);
        let class = QosClass::high().with_deadline(Duration::from_millis(5));
        assert_eq!(class.priority, Priority::High);
        assert_eq!(class.deadline, Some(Duration::from_millis(5)));
        assert_eq!(QosClass::default().deadline, None);
        assert_eq!(QosClass::low().priority, Priority::Low);
    }

    #[test]
    fn lease_accessors() {
        let l = IndexLease::new(4, 3);
        assert_eq!(l.end(), 7);
        assert!(l.contains(4) && l.contains(6));
        assert!(!l.contains(3) && !l.contains(7));
        assert_eq!(IndexLease::new(9, 0).end(), 9);
        assert!(!IndexLease::new(9, 0).contains(9));
    }
}
