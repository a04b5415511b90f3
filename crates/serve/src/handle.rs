//! Request/completion plumbing: the [`Flight`] record one request travels
//! in, its caller's [`Pending`] completion handle, and the seat ledger that
//! counts it and reports its [`ServeStats`].
//!
//! Every accepted request is guaranteed a terminal outcome: whoever holds
//! its flight fills it with logits or an error, and a flight dropped
//! unfilled (worker panic, teardown race, dead link) posts
//! [`ServeError::Canceled`] — so [`Pending::wait`] and a seat's drain can
//! never hang on a lost request.

use crate::qos::{Priority, QosClass, QosStats, ShardLoad, ShedReason};
use crate::BatchPolicy;
use aimc_dnn::{ExecError, Tensor};
use aimc_wire::ServeStats;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A serving-layer failure attached to one request (or, for the fleet
/// variants, to the fleet itself).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The handle is shut down; the request was not accepted.
    ShutDown,
    /// The request was accepted but dropped before execution (worker died
    /// or the batch runner broke its contract).
    Canceled,
    /// The executor failed this request: its batch failed, or its seat
    /// refused the image before queueing it (a malformed input).
    Exec(ExecError),
    /// A remote shard reported a failure over the wire; the message is the
    /// rendered error (typed errors do not cross hosts).
    Remote(String),
    /// A fleet was assembled with zero transports — there is nowhere to
    /// route.
    NoShards,
    /// A request named a model id no shard group serves.
    UnknownModel(String),
    /// Two transports claimed the same model id with different device/seed
    /// recipes — they would compute different bits for the same stream, so
    /// the registry refuses to group them. The message names the model.
    SpecMismatch(String),
    /// Removing or recalibrating this shard would leave its model group
    /// with no live member to absorb the traffic.
    LiveFloor,
    /// A maintenance operation named a shard id no seat ever held.
    UnknownShard(usize),
    /// A classed request was refused at admission, before it queued; its
    /// stream index was released.
    Shed(ShedReason),
    /// A classed request's deadline is shorter than the wait its seat's
    /// backlog predicts ([`ShardLoad::estimated_wait`]), so it was refused
    /// before it queued; its stream index was released.
    DeadlineInfeasible {
        /// The wait estimated from the seat's occupancy and service-time
        /// EWMA.
        estimated_wait: Duration,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShutDown => write!(f, "serve handle is shut down"),
            ServeError::Canceled => write!(f, "request canceled before execution"),
            ServeError::Exec(e) => write!(f, "batch execution failed: {e}"),
            ServeError::Remote(msg) => write!(f, "remote shard failed: {msg}"),
            ServeError::NoShards => write!(f, "a fleet needs at least one shard transport"),
            ServeError::UnknownModel(id) => {
                write!(f, "no shard group serves model id {id:?}")
            }
            ServeError::SpecMismatch(id) => write!(
                f,
                "conflicting shard specs for model id {id:?}: replicas of one \
                 model must share the same xbar config, noise channels and seed"
            ),
            ServeError::LiveFloor => write!(
                f,
                "operation refused: it would leave the shard's model group \
                 with no live member"
            ),
            ServeError::UnknownShard(idx) => {
                write!(f, "no shard seat has id {idx}")
            }
            ServeError::Shed(reason) => write!(f, "request shed at admission: {reason}"),
            ServeError::DeadlineInfeasible { estimated_wait } => write!(
                f,
                "deadline infeasible: the estimated wait is {estimated_wait:?}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> Self {
        ServeError::Exec(e)
    }
}

/// One-shot completion cell shared between a [`Pending`] and the [`Slot`]
/// that fills it.
#[derive(Debug, Default)]
pub(crate) struct CompletionSlot {
    cell: Mutex<Option<Result<Tensor, ServeError>>>,
    cv: Condvar,
}

impl CompletionSlot {
    /// First writer wins; later fulfillments are ignored.
    fn fulfill(&self, outcome: Result<Tensor, ServeError>) {
        let mut cell = self.cell.lock().unwrap();
        if cell.is_none() {
            *cell = Some(outcome);
            self.cv.notify_all();
        }
    }
}

/// The caller's side of one submitted request (returned by
/// [`FleetHandle::submit`](crate::FleetHandle::submit)).
#[derive(Debug)]
pub struct Pending {
    slot: Arc<CompletionSlot>,
}

impl Pending {
    /// Blocks until the request completes, returning its logits (or the
    /// error that terminated it).
    ///
    /// # Errors
    /// [`ServeError::Exec`] if the batch failed in the executor;
    /// [`ServeError::Canceled`] if the request was dropped unexecuted.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        let mut cell = self.slot.cell.lock().unwrap();
        loop {
            if let Some(outcome) = cell.take() {
                return outcome;
            }
            cell = self.slot.cv.wait(cell).unwrap();
        }
    }

    /// Whether the request has completed (non-blocking).
    pub fn is_ready(&self) -> bool {
        self.slot.cell.lock().unwrap().is_some()
    }
}

/// One request on its way from submit to reply: the stream coordinate its
/// router claimed, its class, its image and its caller's completion slot.
///
/// A flight moves by value — into
/// [`ShardTransport::submit`](crate::ShardTransport::submit), a seat's
/// queue, a batch and the reply — so its image is never copied. A seat
/// that refuses it hands the same flight back with the error, and a seat
/// whose link died for good hands it back through
/// [`ShardTransport::take_orphans`](crate::ShardTransport::take_orphans),
/// so the router can re-submit it at the same coordinate. Whoever holds a
/// flight settles it; a flight dropped unsettled settles as
/// [`ServeError::Canceled`].
pub struct Flight {
    pub(crate) index: u64,
    pub(crate) class: QosClass,
    pub(crate) image: Tensor,
    /// Whether a seat may shed the request at its own admission checks:
    /// set by the router for a classed request, clear for a rescue or a
    /// request that arrived over the wire (its router already admitted
    /// it).
    pub(crate) shed: bool,
    pub(crate) slot: Slot,
}

impl std::fmt::Debug for Flight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flight")
            .field("index", &self.index)
            .field("class", &self.class)
            .field("shed", &self.shed)
            .finish_non_exhaustive()
    }
}

impl Flight {
    /// A flight and the caller's handle on its outcome.
    pub(crate) fn new(index: u64, class: QosClass, image: Tensor, shed: bool) -> (Self, Pending) {
        let cell = Arc::new(CompletionSlot::default());
        let pending = Pending {
            slot: Arc::clone(&cell),
        };
        let slot = Slot {
            cell: Some(cell),
            ticket: None,
        };
        let flight = Flight {
            index,
            class,
            image,
            shed,
            slot,
        };
        (flight, pending)
    }

    /// Fills the caller's slot with `outcome`.
    pub(crate) fn settle(self, outcome: Result<Tensor, ServeError>) {
        self.slot.fill(outcome);
    }

    /// When the seat holding the flight queued it, if one does.
    pub(crate) fn enqueued_at(&self) -> Option<Instant> {
        self.slot.ticket.as_ref().map(|t| t.enqueued_at)
    }
}

/// The filling side of one request's [`CompletionSlot`]. A seat that
/// accepts the request attaches its [`Ticket`], so the fill is counted in
/// that seat's ledger first; dropped unfilled, the slot fills
/// [`ServeError::Canceled`].
#[derive(Debug)]
pub(crate) struct Slot {
    cell: Option<Arc<CompletionSlot>>,
    pub(crate) ticket: Option<Ticket>,
}

impl Slot {
    pub(crate) fn fill(mut self, outcome: Result<Tensor, ServeError>) {
        self.settle(outcome, true);
    }

    /// Fills the cell once, through the seat's ledger when a seat holds
    /// the request. `ran` is false for a cancellation, which records no
    /// latency sample.
    fn settle(&mut self, outcome: Result<Tensor, ServeError>, ran: bool) {
        let Some(cell) = self.cell.take() else { return };
        match self.ticket.take() {
            Some(t) => t
                .shared
                .complete(&cell, outcome, t.class, ran.then_some(t.enqueued_at)),
            None => cell.fulfill(outcome),
        }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.settle(Err(ServeError::Canceled), false);
    }
}

/// A seat's accounting of one accepted request, carried in its flight's
/// [`Slot`]: the seat's ledger, the class whose in-flight count the
/// request holds, and the enqueue instant the queue-wait, latency and
/// deadline-miss clocks start from.
#[derive(Debug)]
pub(crate) struct Ticket {
    shared: Arc<SharedState>,
    class: QosClass,
    enqueued_at: Instant,
}

impl Ticket {
    /// Undoes the admission of a request the seat never queued.
    pub(crate) fn refund(self) {
        let rank = self.class.priority.rank();
        {
            let mut st = self.shared.inner.lock().unwrap();
            st.submitted -= 1;
            st.rejected += 1;
            st.class_in_flight[rank] = st.class_in_flight[rank].saturating_sub(1);
            st.qos.classes[rank].admitted = st.qos.classes[rank].admitted.saturating_sub(1);
        }
        // The refund can be what lets `completed == submitted`: a drain
        // blocked on the old count must re-check.
        self.shared.cv.notify_all();
    }
}

/// A seat's ledger: counters and latency samples shared between its
/// submitters and its worker.
#[derive(Debug, Default)]
pub(crate) struct SharedState {
    inner: Mutex<StateInner>,
    cv: Condvar,
}

/// How many per-request queue-wait samples are retained for the latency
/// percentiles — a bounded window of the most recent dispatches, so a
/// long-lived server's stats stay O(1) in memory.
const WAIT_SAMPLE_CAP: usize = 4096;

/// Per-class completion-latency samples retained (same bounded-ring
/// discipline as the queue-wait samples).
const LATENCY_SAMPLE_CAP: usize = 2048;

#[derive(Debug)]
struct StateInner {
    closed: bool,
    submitted: u64,
    completed: u64,
    rejected: u64,
    batches: u64,
    /// Total images dispatched to the runner (unlike the bounded wait
    /// ring, this never saturates).
    dispatched: u64,
    max_batch_observed: usize,
    /// Queue waits (submission → batch dispatch) of the most recent
    /// dispatched requests — a ring of [`WAIT_SAMPLE_CAP`] samples.
    queue_waits: Vec<Duration>,
    /// Overwrite position once the ring is full.
    wait_cursor: usize,
    /// In-flight occupancy per priority class (admitted, not yet at a
    /// terminal outcome).
    class_in_flight: [u64; Priority::COUNT],
    /// Per-class admission/shed/deadline-miss ledger.
    qos: QosStats,
    /// Overwrite positions of the per-class latency sample rings.
    latency_cursors: [usize; Priority::COUNT],
    /// EWMA of per-image execution time in nanoseconds (0 until the
    /// first batch completes); feeds the router's deadline-feasibility
    /// check through [`SharedState::load`].
    est_image_ns: u64,
    /// The queue bound, copied from the policy at spawn. The default is
    /// unbounded, so a default ledger never sheds.
    queue_depth: u64,
    /// Absolute in-flight count at which the queue reports ECN pressure.
    ecn_threshold: u64,
}

impl Default for StateInner {
    fn default() -> Self {
        StateInner {
            closed: false,
            submitted: 0,
            completed: 0,
            rejected: 0,
            batches: 0,
            dispatched: 0,
            max_batch_observed: 0,
            queue_waits: Vec::new(),
            wait_cursor: 0,
            class_in_flight: [0; Priority::COUNT],
            qos: QosStats::default(),
            latency_cursors: [0; Priority::COUNT],
            est_image_ns: 0,
            queue_depth: u64::MAX,
            ecn_threshold: u64::MAX,
        }
    }
}

/// The ECN mark threshold as a percentage of `queue_depth`: a seat reports
/// pressure once `in_flight ≥ queue_depth · 75 / 100`.
const ECN_THRESHOLD_PCT: u64 = 75;

impl SharedState {
    /// A ledger wired to a policy's queue bound.
    pub(crate) fn for_policy(policy: &BatchPolicy) -> Self {
        let inner = StateInner {
            queue_depth: policy.queue_depth as u64,
            ecn_threshold: (policy.queue_depth as u64 * ECN_THRESHOLD_PCT / 100).max(1),
            ..StateInner::default()
        };
        SharedState {
            inner: Mutex::new(inner),
            cv: Condvar::new(),
        }
    }

    /// Admits one request of `class`, returning the ticket that counts it
    /// until its flight is filled. With `shed` set the seat sheds with
    /// [`ShedReason::QueueFull`] at its queue bound.
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] once the seat is closed;
    /// [`ServeError::Shed`] as above.
    pub(crate) fn admit(
        self: &Arc<Self>,
        class: QosClass,
        shed: bool,
    ) -> Result<Ticket, ServeError> {
        let rank = class.priority.rank();
        let mut st = self.inner.lock().unwrap();
        if st.closed {
            st.rejected += 1;
            return Err(ServeError::ShutDown);
        }
        if shed && st.submitted - st.completed >= st.queue_depth {
            st.qos.classes[rank].note_shed(ShedReason::QueueFull);
            return Err(ServeError::Shed(ShedReason::QueueFull));
        }
        st.submitted += 1;
        st.class_in_flight[rank] += 1;
        st.qos.classes[rank].admitted += 1;
        if st.submitted - st.completed >= st.ecn_threshold {
            st.qos.ecn_marks += 1;
        }
        Ok(Ticket {
            shared: Arc::clone(self),
            class,
            enqueued_at: Instant::now(),
        })
    }

    /// Settles one request: counts its completion, frees its class slot
    /// and records its latency, then fills the caller's `slot`, all under
    /// the state lock (lock order: state, then slot). So a caller whose
    /// [`Pending::wait`] returned is no longer counted against the seat,
    /// and a drain that sees every request completed sees every slot
    /// filled.
    fn complete(
        &self,
        slot: &CompletionSlot,
        outcome: Result<Tensor, ServeError>,
        class: QosClass,
        enqueued_at: Option<Instant>,
    ) {
        let mut st = self.inner.lock().unwrap();
        st.completed += 1;
        let rank = class.priority.rank();
        st.class_in_flight[rank] = st.class_in_flight[rank].saturating_sub(1);
        if let Some(t0) = enqueued_at {
            let elapsed = t0.elapsed();
            if class.deadline.is_some_and(|d| elapsed > d) {
                st.qos.classes[rank].deadline_misses += 1;
            }
            if st.qos.classes[rank].latencies.len() < LATENCY_SAMPLE_CAP {
                st.qos.classes[rank].latencies.push(elapsed);
            } else {
                let cursor = st.latency_cursors[rank];
                st.qos.classes[rank].latencies[cursor] = elapsed;
                st.latency_cursors[rank] = (cursor + 1) % LATENCY_SAMPLE_CAP;
            }
        }
        slot.fulfill(outcome);
        drop(st);
        self.cv.notify_all();
    }

    /// Folds one batch execution into the per-image service-time EWMA
    /// (integer arithmetic: `ewma ← (3·ewma + sample) / 4`).
    pub(crate) fn note_exec(&self, images: usize, elapsed: Duration) {
        if images == 0 {
            return;
        }
        let per_image = u64::try_from(elapsed.as_nanos() / images as u128).unwrap_or(u64::MAX);
        let mut st = self.inner.lock().unwrap();
        st.est_image_ns = if st.est_image_ns == 0 {
            per_image
        } else {
            (3 * (st.est_image_ns as u128) + per_image as u128).div_euclid(4) as u64
        };
    }

    pub(crate) fn note_batch(&self, size: usize, waits: &[Duration]) {
        let mut st = self.inner.lock().unwrap();
        st.batches += 1;
        st.dispatched += size as u64;
        st.max_batch_observed = st.max_batch_observed.max(size);
        for &w in waits {
            if st.queue_waits.len() < WAIT_SAMPLE_CAP {
                st.queue_waits.push(w);
            } else {
                let cursor = st.wait_cursor;
                st.queue_waits[cursor] = w;
                st.wait_cursor = (cursor + 1) % WAIT_SAMPLE_CAP;
            }
        }
    }

    /// The congestion signal the seat exports: occupancy (total and per
    /// class), the ECN-style pressure bit, and the per-image service-time
    /// estimate.
    pub(crate) fn load(&self) -> ShardLoad {
        let st = self.inner.lock().unwrap();
        let in_flight = st.submitted - st.completed;
        ShardLoad {
            in_flight,
            per_class: st.class_in_flight,
            pressure: in_flight >= st.ecn_threshold,
            est_image_ns: st.est_image_ns,
        }
    }

    /// Blocks until every admitted request has reached a terminal outcome.
    pub(crate) fn drain(&self) {
        let mut st = self.inner.lock().unwrap();
        while st.completed < st.submitted {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Closes the seat to new requests; returns whether it was open.
    pub(crate) fn close(&self) -> bool {
        !std::mem::replace(&mut self.inner.lock().unwrap().closed, true)
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// A snapshot of the seat's statistics.
    pub(crate) fn stats(&self) -> ServeStats {
        let st = self.inner.lock().unwrap();
        ServeStats {
            submitted: st.submitted,
            completed: st.completed,
            rejected: st.rejected,
            batches: st.batches,
            dispatched: st.dispatched,
            max_batch_observed: st.max_batch_observed,
            queue_waits: st.queue_waits.clone(),
            qos: st.qos.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimc_dnn::Shape;

    fn tensor(v: f32) -> Tensor {
        Tensor::from_vec(Shape::new(1, 1, 1), vec![v])
    }

    #[test]
    fn pending_wait_returns_the_fulfilled_value() {
        let (flight, p) = Flight::new(0, QosClass::default(), tensor(0.0), false);
        assert!(!p.is_ready());
        flight.settle(Ok(tensor(1.0)));
        assert!(p.is_ready());
        assert_eq!(p.wait().unwrap().data(), &[1.0]);
    }

    #[test]
    fn first_fulfillment_wins() {
        let slot = Arc::new(CompletionSlot::default());
        let p = Pending {
            slot: Arc::clone(&slot),
        };
        slot.fulfill(Err(ServeError::Canceled));
        slot.fulfill(Ok(tensor(2.0)));
        assert_eq!(p.wait(), Err(ServeError::Canceled));
    }

    #[test]
    fn dropped_ticket_cancels_and_counts_completion() {
        let shared = Arc::new(SharedState::default());
        let (mut flight, p) = Flight::new(0, QosClass::default(), tensor(0.0), false);
        flight.slot.ticket = Some(shared.admit(QosClass::default(), false).unwrap());
        drop(flight);
        assert_eq!(p.wait(), Err(ServeError::Canceled));
        assert_eq!(shared.inner.lock().unwrap().completed, 1);
    }

    /// Past the wait-sample cap the ring overwrites oldest samples, while
    /// `dispatched` keeps exact count — so `mean_batch` stays correct on
    /// long-lived servers.
    #[test]
    fn wait_ring_saturates_but_mean_batch_stays_exact() {
        let shared = SharedState::default();
        let waits = [Duration::from_millis(1); 10];
        for _ in 0..600 {
            shared.note_batch(10, &waits);
        }
        let st = shared.inner.lock().unwrap();
        assert_eq!(st.queue_waits.len(), WAIT_SAMPLE_CAP);
        assert_eq!(st.dispatched, 6000);
        assert_eq!(st.batches, 600);
        drop(st);
        let stats = ServeStats {
            batches: 600,
            dispatched: 6000,
            ..ServeStats::default()
        };
        assert_eq!(stats.mean_batch(), 10.0);
    }

    #[test]
    fn serve_error_displays() {
        assert!(ServeError::ShutDown.to_string().contains("shut down"));
        assert!(ServeError::Canceled.to_string().contains("canceled"));
        let e = ServeError::from(ExecError::ShapeMismatch {
            expected: Shape::new(1, 2, 3),
            got: Shape::new(3, 2, 1),
        });
        assert!(e.to_string().contains("batch execution failed"));
        assert!(ServeError::Remote("boom".into())
            .to_string()
            .contains("boom"));
        assert!(ServeError::NoShards.to_string().contains("at least one"));
    }
}
