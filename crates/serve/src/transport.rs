//! The transport boundary between the fleet router and its shards.
//!
//! The router never touches a concrete scheduler or executor: it speaks
//! only to [`ShardTransport`] — submit a [`Flight`], probe load,
//! drain/shutdown, and fan the [`ShardControl`] operations (drift,
//! reprogram, thread budget). Where a shard *lives* is a transport
//! implementation detail:
//!
//! * [`LocalTransport`] is an in-process seat — a bounded queue in front of
//!   one worker thread that batches requests — the zero-copy fast path
//!   (flights move, nothing is serialized);
//! * [`TcpTransport`](crate::TcpTransport) speaks the `aimc-wire` protocol
//!   to a [`ShardServer`](crate::ShardServer) on another host (or an
//!   in-memory pipe in tests).
//!
//! Because every request carries its global stream coordinate and every
//! replica is programmed from the same seed, *placement is invisible in
//! the results*: any mix of transports produces logits bit-identical to a
//! solo session.

use crate::handle::{Flight, ServeError, SharedState};
use crate::qos::ShardLoad;
use crate::scheduler::{worker_loop, Msg};
use crate::{BatchPolicy, DynRunner};
use aimc_dnn::ExecError;
use aimc_parallel::Parallelism;
use aimc_wire::{ServeStats, ShardSpec};
use std::sync::mpsc::{self, SendError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

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
}

/// One shard of a serving fleet, wherever it lives: the only interface the
/// router speaks (see the module docs).
///
/// The contract every implementation must honor, because the fleet
/// invariance rests on it: a flight stamped with global index `k` is
/// evaluated **at coordinate `k`** on a replica programmed from the
/// fleet's seed, and every accepted flight reaches a terminal outcome
/// (logits, error, or cancellation) — so [`ShardTransport::drain`] never
/// hangs.
pub trait ShardTransport: Send + Sync {
    /// Takes one flight: the shard settles it with its logits or error.
    /// A flight its router marked sheddable (a classed request) passes the
    /// shard's own admission check — a [`LocalTransport`] sheds at its
    /// queue bound; every other flight waits on the shard's backpressure. The class drives EDF batch
    /// composition and deadline-miss accounting.
    ///
    /// # Errors
    /// The same flight, handed back with why the shard refused it:
    /// [`ServeError::ShutDown`] once the shard no longer accepts requests;
    /// [`ServeError::Shed`] when it sheds the flight; [`ServeError::Exec`]
    /// when it refuses the image itself (both built-in transports check it
    /// against the input shape of the shard's spec with
    /// [`ShardSpec::check_input`]). The router then releases the index and
    /// re-submits or settles the flight.
    fn submit(&self, flight: Flight) -> Result<(), Box<(Flight, ServeError)>>;

    /// The shard's congestion signal: occupancy (requests accepted but not
    /// yet completed, which least-queue-depth routing compares), per-class
    /// counts, the ECN-style pressure bit, and a service-time estimate.
    /// Must be cheap (no network round trip: remote transports estimate
    /// locally).
    fn load(&self) -> ShardLoad;

    /// Blocks until every accepted request has reached a terminal outcome.
    fn drain(&self);

    /// Stops accepting requests, drains everything accepted, and releases
    /// the shard's resources. Idempotent.
    fn shutdown(&self);

    /// Whether [`ShardTransport::shutdown`] has run (or the link died).
    ///
    /// A closed transport has already parked every flight it will strand:
    /// once this returns `true`, one [`ShardTransport::take_orphans`]
    /// harvests them all. The router relies on it, because it never sweeps
    /// a seat it retired again.
    fn is_closed(&self) -> bool;

    /// Hands back the flights stranded by a permanent link death, so the
    /// caller can re-submit each at its coordinate on a survivor: the
    /// caller's `Pending` still waits on the flight. Each flight is handed
    /// back exactly once; transports that never strand work return
    /// nothing — the default.
    fn take_orphans(&self) -> Vec<Flight> {
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

/// The in-process seat: a bounded queue in front of one worker thread that
/// coalesces requests into micro-batches under a [`BatchPolicy`], plus the
/// replica's [`ShardControl`], behind the [`ShardTransport`] boundary.
///
/// This is the zero-copy fast path — a flight moves straight into the
/// seat's queue; nothing touches the wire codec. Every flight first passes
/// [`ShardSpec::check_input`] against the seat's spec: a refused image
/// never reaches the queue, so it fails no neighbour, and the router
/// releases its index.
/// Batches complete in queue order, each fulfilled front to back.
pub struct LocalTransport {
    tx: SyncSender<Msg>,
    shared: Arc<SharedState>,
    worker: Mutex<Option<JoinHandle<()>>>,
    control: Box<dyn ShardControl>,
    spec: ShardSpec,
}

impl std::fmt::Debug for LocalTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalTransport")
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl LocalTransport {
    /// Starts a seat: its worker thread coalesces requests under `policy`
    /// and runs each batch through `runner`, `control` drives the
    /// runner's replica, and `spec` is the identity a fleet registry
    /// groups the seat by.
    ///
    /// `runner` receives each batch's global stream indices and images
    /// (slices of equal length) and returns one output per image, in
    /// order; an error fails every request of the batch. The indices are
    /// whatever slice of the stream the router handed the seat, so a
    /// runner over a stateful backend must key per-image randomness to
    /// the index, not to the position in the batch — the mechanism behind
    /// batch-composition invariance.
    ///
    /// Dropping the seat without [`ShardTransport::shutdown`] detaches the
    /// worker, which finishes what is queued; prefer an explicit shutdown.
    pub fn spawn(
        policy: BatchPolicy,
        runner: Box<DynRunner>,
        control: Box<dyn ShardControl>,
        spec: ShardSpec,
    ) -> Self {
        let policy = policy.normalized();
        let (tx, rx) = mpsc::sync_channel(policy.queue_depth);
        let shared = Arc::new(SharedState::for_policy(&policy));
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("aimc-serve".into())
            .spawn(move || worker_loop(rx, worker_shared, policy, runner))
            .expect("spawn aimc-serve worker");
        LocalTransport {
            tx,
            shared,
            worker: Mutex::new(Some(worker)),
            control,
            spec,
        }
    }
}

impl ShardTransport for LocalTransport {
    fn submit(&self, mut flight: Flight) -> Result<(), Box<(Flight, ServeError)>> {
        let admitted = self
            .spec
            .check_input(&flight.image)
            .map_err(ServeError::Exec)
            .and_then(|()| self.shared.admit(flight.class, flight.shed));
        match admitted {
            Ok(ticket) => flight.slot.ticket = Some(ticket),
            Err(e) => return Err(Box::new((flight, e))),
        }
        if let Err(SendError(Msg::Request(mut flight))) = self.tx.send(Msg::Request(flight)) {
            // The worker is gone (shutdown raced ahead): the seat never
            // held the request.
            if let Some(ticket) = flight.slot.ticket.take() {
                ticket.refund();
            }
            return Err(Box::new((flight, ServeError::ShutDown)));
        }
        Ok(())
    }

    fn load(&self) -> ShardLoad {
        self.shared.load()
    }

    fn drain(&self) {
        self.shared.drain();
    }

    fn shutdown(&self) {
        if self.shared.close() {
            // Wake the worker; if it already exited, the queue is being
            // torn down and the flights in it cancel themselves.
            let _ = self.tx.send(Msg::Shutdown);
            let worker = self.worker.lock().unwrap().take();
            if let Some(h) = worker {
                let _ = h.join();
            }
        }
        self.shared.drain();
    }

    fn is_closed(&self) -> bool {
        self.shared.is_closed()
    }

    fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    fn spec(&self) -> ShardSpec {
        self.spec.clone()
    }

    fn apply_drift(&self, t_hours: f64) -> bool {
        self.control.apply_drift(t_hours)
    }

    fn reprogram(&self) -> Result<(), ServeError> {
        self.control.reprogram().map_err(ServeError::Exec)
    }

    fn set_parallelism(&self, par: Parallelism) {
        self.control.set_parallelism(par);
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::handle::Pending;
    use crate::qos::QosClass;
    use aimc_dnn::Tensor;

    /// A replica with nothing to drift, reprogram or parallelize.
    pub(crate) struct Inert;

    impl ShardControl for Inert {
        fn apply_drift(&self, _t_hours: f64) -> bool {
            false
        }
        fn reprogram(&self) -> Result<(), ExecError> {
            Ok(())
        }
        fn set_parallelism(&self, _par: Parallelism) {}
    }

    /// Submits `image` of `class` to `seat` at stream index `index` as a
    /// flight the seat may not shed, and returns the caller's handle.
    pub(crate) fn submit(
        seat: &dyn ShardTransport,
        index: u64,
        image: Tensor,
        class: QosClass,
    ) -> Result<Pending, ServeError> {
        let (flight, pending) = Flight::new(index, class, image, false);
        seat.submit(flight)
            .map(|()| pending)
            .map_err(|refused| refused.1)
    }
}
