//! The transport boundary between the fleet router and its shards.
//!
//! The router never touches a concrete scheduler or executor: it speaks
//! only to [`ShardTransport`] — submit a stamped request (with or without
//! the shard's own admission checks), probe load, drain/shutdown, and fan
//! the [`ShardControl`] operations (drift, reprogram, thread budget).
//! Where a shard *lives* is a transport implementation detail:
//!
//! * [`LocalTransport`] wraps an in-process [`ServeHandle`] — the
//!   zero-copy fast path (tensors move, nothing is serialized);
//! * [`TcpTransport`](crate::TcpTransport) speaks the `aimc-wire` protocol
//!   to a [`ShardServer`](crate::ShardServer) on another host (or an
//!   in-memory pipe in tests).
//!
//! Because every request carries its global stream coordinate and every
//! replica is programmed from the same seed, *placement is invisible in
//! the results*: any mix of transports produces logits bit-identical to a
//! solo session.

use crate::handle::{CompletionSlot, Pending, ServeError, ServeHandle, ServeStats};
use crate::qos::{QosClass, ShardLoad};
use aimc_dnn::{ExecError, Tensor};
use aimc_parallel::Parallelism;
use aimc_wire::ShardSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One request stranded on a dead shard, recovered for re-routing.
///
/// When a replay-capable transport exhausts its reconnect budget it parks
/// every unacknowledged request as an `Orphan` instead of cancelling it:
/// the original caller still holds the [`Pending`], and whoever harvests
/// the orphan (the fleet router, via [`ShardTransport::take_orphans`])
/// re-submits the image **at the same global index** on a survivor and
/// forwards the result into the waiting slot — so eviction never shifts a
/// coordinate and the caller never observes the churn.
pub struct Orphan {
    pub(crate) index: u64,
    pub(crate) image: Tensor,
    pub(crate) class: QosClass,
    pub(crate) slot: Arc<CompletionSlot>,
}

impl std::fmt::Debug for Orphan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orphan")
            .field("index", &self.index)
            .field("class", &self.class)
            .finish_non_exhaustive()
    }
}

impl Orphan {
    /// The global stream coordinate the request must re-run at.
    pub fn index(&self) -> u64 {
        self.index
    }
}

/// Backend-side control surface of one shard, supplied by the layer that
/// owns the executor types (the `aimc-platform` facade): the serving layer
/// can quiesce shards itself, but mutating replica state — conductance
/// drift, reprogramming, the thread budget — needs the backend.
///
/// Implementations must apply each operation to **their own shard only**;
/// [`FleetHandle`](crate::FleetHandle) fans the calls across all shards
/// after draining, so every replica transitions at the same global stream
/// position.
pub trait ShardControl: Send + Sync {
    /// Applies conductance drift to this shard's replica (write-locked
    /// against in-flight batches). Returns whether the backend models
    /// drift (`false` for digital replicas).
    fn apply_drift(&self, t_hours: f64) -> bool;

    /// Rewrites this shard's replica from scratch with the original seed —
    /// fresh conductances, image counter rewound to zero.
    ///
    /// # Errors
    /// Any [`ExecError`] from re-programming.
    fn reprogram(&self) -> Result<(), ExecError>;

    /// Updates the thread budget this shard's batches snapshot at
    /// dispatch. Never changes results.
    fn set_parallelism(&self, par: Parallelism);

    /// Checks one image before it is queued, so a malformed request is
    /// refused alone instead of failing the micro-batch it would join.
    /// The default accepts every image.
    ///
    /// # Errors
    /// [`ExecError::ShapeMismatch`] when the replica cannot take `image`.
    fn check_input(&self, image: &Tensor) -> Result<(), ExecError> {
        let _ = image;
        Ok(())
    }
}

/// One shard of a serving fleet, wherever it lives: the only interface the
/// router speaks (see the module docs).
///
/// The contract every implementation must honor, because the fleet
/// invariance rests on it: a request submitted with global index `k` is
/// evaluated **at coordinate `k`** on a replica programmed from the
/// fleet's seed, and every accepted request reaches a terminal outcome
/// (logits, error, or cancellation) — so [`ShardTransport::drain`] never
/// hangs.
pub trait ShardTransport: Send + Sync {
    /// Submits one image stamped with its global stream index and class,
    /// returning the completion handle. The shard must accept the request
    /// — it waits on its own backpressure rather than shed — and the class
    /// drives EDF batch composition and deadline-miss accounting. The
    /// router submits class-less requests (as [`QosClass::default`]) and
    /// rescued orphans this way; protocol servers submit every request
    /// that arrives over the wire this way, because the client's router
    /// already admitted it.
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] once the shard no longer accepts requests;
    /// [`ServeError::Exec`] when the shard refuses the image itself (a
    /// [`LocalTransport`] checks it against its replica's input shape).
    /// Either way the router releases the index.
    fn submit(&self, index: u64, image: Tensor, class: QosClass) -> Result<Pending, ServeError>;

    /// [`ShardTransport::submit`] under the shard's own admission checks,
    /// which the router applies to classed requests after its fleet-wide
    /// ones: a [`LocalTransport`] sheds at its queue bound and at the
    /// class's in-flight budget. The router releases the index of a shed
    /// request, keeping the global numbering hole-free. The default admits
    /// every request through [`ShardTransport::submit`].
    ///
    /// # Errors
    /// [`ServeError::Shed`] when the shard sheds the request; otherwise as
    /// [`ShardTransport::submit`].
    fn try_submit(
        &self,
        index: u64,
        image: Tensor,
        class: QosClass,
    ) -> Result<Pending, ServeError> {
        self.submit(index, image, class)
    }

    /// The shard's congestion signal: occupancy, per-class counts, the
    /// ECN-style pressure bit, and a service-time estimate. Must be cheap
    /// (no network round trip: remote transports estimate locally). The
    /// default reports occupancy only.
    fn load(&self) -> ShardLoad {
        ShardLoad {
            in_flight: self.in_flight(),
            ..ShardLoad::default()
        }
    }

    /// Requests accepted but not yet completed — the router's load signal
    /// for least-queue-depth routing. Must be cheap (no network round
    /// trip: remote transports count locally).
    fn in_flight(&self) -> u64;

    /// Blocks until every accepted request has reached a terminal outcome.
    fn drain(&self);

    /// Stops accepting requests, drains everything accepted, and releases
    /// the shard's resources. Idempotent.
    fn shutdown(&self);

    /// Whether [`ShardTransport::shutdown`] has run (or the link died).
    fn is_closed(&self) -> bool;

    /// Harvests requests stranded by a permanent link death so the caller
    /// can re-route them (see [`Orphan`]). Each orphan is returned exactly
    /// once; transports that never strand work return nothing — the
    /// default.
    fn take_orphans(&self) -> Vec<Orphan> {
        Vec::new()
    }

    /// Point-in-time serving statistics of this shard.
    fn stats(&self) -> ServeStats;

    /// The shard's identity: which model it serves and the device/seed
    /// recipe its bits come from. The router's registry groups transports
    /// by this — equal specs are replicas; distinct model ids own distinct
    /// streams. The default reports [`ShardSpec::default`] (golden,
    /// model id `"default"`), so spec-less transports form one
    /// homogeneous group exactly as before the registry existed.
    fn spec(&self) -> ShardSpec {
        ShardSpec::default()
    }

    /// Applies conductance drift to the shard's replica, after the caller
    /// drained. Returns whether the backend models drift.
    fn apply_drift(&self, t_hours: f64) -> bool;

    /// Rewrites the shard's replica from its original seed and rewinds its
    /// stream, after the caller drained.
    ///
    /// # Errors
    /// [`ServeError::Exec`] for local programming failures,
    /// [`ServeError::Remote`] for failures reported over a wire.
    fn reprogram(&self) -> Result<(), ServeError>;

    /// Updates the thread budget the shard's batches snapshot at dispatch.
    fn set_parallelism(&self, par: Parallelism);
}

/// The in-process transport: a micro-batch scheduler ([`ServeHandle`])
/// plus its backend control, behind the [`ShardTransport`] boundary.
///
/// This is the zero-copy fast path — a submission moves the tensor
/// straight into the shard's bounded queue; nothing touches the wire
/// codec. Every submission first passes [`ShardControl::check_input`]: a
/// refused image never reaches the queue, so it fails no neighbour, and
/// the router releases its index.
pub struct LocalTransport {
    handle: ServeHandle,
    control: Box<dyn ShardControl>,
    spec: ShardSpec,
    drift_age: AtomicU64,
    reprograms: AtomicU64,
}

impl std::fmt::Debug for LocalTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalTransport")
            .field("handle", &self.handle)
            .finish_non_exhaustive()
    }
}

impl LocalTransport {
    /// Wraps a running scheduler and its backend control as one shard with
    /// the default (spec-less) identity.
    pub fn new(handle: ServeHandle, control: Box<dyn ShardControl>) -> Self {
        LocalTransport::with_spec(handle, control, ShardSpec::default())
    }

    /// Wraps a running scheduler and its backend control as one shard
    /// carrying an explicit [`ShardSpec`] — the form the facade uses so a
    /// registry can group replicas by model id and device recipe.
    pub fn with_spec(handle: ServeHandle, control: Box<dyn ShardControl>, spec: ShardSpec) -> Self {
        LocalTransport {
            handle,
            control,
            spec,
            drift_age: AtomicU64::new(0),
            reprograms: AtomicU64::new(0),
        }
    }
}

impl ShardTransport for LocalTransport {
    fn submit(&self, index: u64, image: Tensor, class: QosClass) -> Result<Pending, ServeError> {
        self.control.check_input(&image)?;
        self.handle.submit_at(index, image, class, false)
    }

    fn try_submit(
        &self,
        index: u64,
        image: Tensor,
        class: QosClass,
    ) -> Result<Pending, ServeError> {
        self.control.check_input(&image)?;
        self.handle.submit_at(index, image, class, true)
    }

    fn load(&self) -> ShardLoad {
        self.handle.load()
    }

    fn in_flight(&self) -> u64 {
        self.handle.in_flight()
    }

    fn drain(&self) {
        self.handle.drain();
    }

    fn shutdown(&self) {
        self.handle.shutdown();
    }

    fn is_closed(&self) -> bool {
        self.handle.is_closed()
    }

    fn stats(&self) -> ServeStats {
        let mut stats = self.handle.stats();
        stats.drift_age = self.drift_age.load(Ordering::Acquire);
        stats.reprograms = self.reprograms.load(Ordering::Acquire);
        stats
    }

    fn spec(&self) -> ShardSpec {
        self.spec.clone()
    }

    fn apply_drift(&self, t_hours: f64) -> bool {
        self.drift_age.fetch_add(1, Ordering::AcqRel);
        self.control.apply_drift(t_hours)
    }

    fn reprogram(&self) -> Result<(), ServeError> {
        self.control.reprogram().map_err(ServeError::Exec)?;
        self.drift_age.store(0, Ordering::Release);
        self.reprograms.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    fn set_parallelism(&self, par: Parallelism) {
        self.control.set_parallelism(par);
    }
}
