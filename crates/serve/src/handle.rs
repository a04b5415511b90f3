//! Request/completion plumbing: the clone-able [`ServeHandle`] submitter,
//! per-request [`Pending`] completion handles, and [`ServeStats`].
//!
//! Every accepted request is guaranteed a terminal outcome: the worker
//! fulfills it with logits or an execution error, and if a request is ever
//! dropped unfulfilled (worker panic, teardown race) its [`Ticket`]'s
//! `Drop` posts [`ServeError::Canceled`] — so [`Pending::wait`] and
//! [`ServeHandle::drain`] can never hang on a lost request.

use crate::qos::{Admission, Priority, QosClass, QosStats, ShardLoad, ShedReason};
use crate::BatchPolicy;
use aimc_dnn::{ExecError, Tensor};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
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
    /// The batch containing this request failed in the executor.
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
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> Self {
        ServeError::Exec(e)
    }
}

/// One-shot completion cell shared between a [`Pending`] and its
/// fulfiller — a worker-side [`Ticket`], or a remote transport's reply
/// reader.
#[derive(Debug, Default)]
pub(crate) struct CompletionSlot {
    cell: Mutex<Option<Result<Tensor, ServeError>>>,
    cv: Condvar,
}

impl CompletionSlot {
    /// First writer wins; later fulfillments are ignored.
    pub(crate) fn fulfill(&self, outcome: Result<Tensor, ServeError>) {
        let mut cell = self.cell.lock().unwrap();
        if cell.is_none() {
            *cell = Some(outcome);
            self.cv.notify_all();
        }
    }
}

/// Builds a detached completion pair: the caller-facing [`Pending`] plus
/// the slot its fulfiller writes — for submitters that complete requests
/// outside the worker/ticket machinery (the remote transport fulfills from
/// wire replies).
pub(crate) fn pending_pair() -> (Pending, Arc<CompletionSlot>) {
    let slot = Arc::new(CompletionSlot::default());
    (
        Pending {
            slot: Arc::clone(&slot),
        },
        slot,
    )
}

/// The caller's side of one submitted request (returned by
/// [`ServeHandle::submit`]).
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

/// Worker-side completion obligation for one request. Fulfilling consumes
/// it; dropping it unfulfilled posts [`ServeError::Canceled`] and still
/// counts the request as completed, so drains never deadlock.
#[derive(Debug)]
pub(crate) struct Ticket {
    slot: Arc<CompletionSlot>,
    shared: Arc<SharedState>,
    done: bool,
    /// Class annotations for completion accounting: the priority band's
    /// in-flight counter is decremented at the terminal outcome, and the
    /// relative deadline (if any) is checked against the completion
    /// latency — a miss is *counted*, never culled.
    class: QosClass,
    /// Submission instant; `None` for tickets whose submission
    /// bookkeeping was never recorded (test fixtures).
    submitted_at: Option<Instant>,
}

impl Ticket {
    pub(crate) fn fulfill(mut self, outcome: Result<Tensor, ServeError>) {
        self.slot.fulfill(outcome);
        self.done = true;
        self.shared.note_completed(self.class, self.submitted_at);
    }

    /// Discards the obligation without any completion bookkeeping — only
    /// for requests whose submission bookkeeping was already rolled back.
    fn defuse(mut self) {
        self.done = true;
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if !self.done {
            self.slot.fulfill(Err(ServeError::Canceled));
            // A canceled request never ran: count the completion (and
            // free its class slot) but record no latency sample.
            self.shared.note_completed(self.class, None);
        }
    }
}

/// One queued request, stamped with its global stream index at submission
/// time — either from the handle's own arrival counter
/// ([`ServeHandle::submit`]) or by an external router that owns a
/// fleet-wide numbering ([`ServeHandle::submit_at`]).
#[derive(Debug)]
pub(crate) struct Request {
    pub(crate) image: Tensor,
    pub(crate) index: u64,
    pub(crate) class: QosClass,
    pub(crate) ticket: Ticket,
    pub(crate) submitted_at: Instant,
}

/// Messages on the bounded request channel.
#[derive(Debug)]
pub(crate) enum Msg {
    Request(Request),
    /// Wake-up sentinel: drain what is queued, then exit.
    Shutdown,
}

/// Counters and latency samples shared between submitters and the worker.
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
    /// Next stream index [`ServeHandle::submit`] will stamp — requests are
    /// numbered in submission order, under the same lock as `submitted`.
    /// External stamps ([`ServeHandle::submit_at`]) push it forward so a
    /// later internal submission never re-stamps an externally used index.
    next_index: u64,
    /// One past the highest index stamped by the handle's **own** counter
    /// (`submit`/`submit_many`). External indices below this watermark
    /// collide with internally stamped requests — `submit_at` rejects them
    /// with a debug assertion.
    internal_watermark: u64,
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
    /// first batch completes); feeds deadline-feasibility estimates.
    est_image_ns: u64,
    /// Admission limits, copied from the policy at spawn. The defaults
    /// are fully permissive so state built outside [`spawn`]
    /// (tests, remote completion tracking) never sheds.
    queue_depth: u64,
    class_budgets: [usize; Priority::COUNT],
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
            next_index: 0,
            internal_watermark: 0,
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
            class_budgets: [usize::MAX; Priority::COUNT],
            ecn_threshold: u64::MAX,
        }
    }
}

impl SharedState {
    /// State wired to a policy's admission limits (used by
    /// [`spawn`](crate::spawn); the `Default` state is fully permissive).
    pub(crate) fn for_policy(policy: &BatchPolicy) -> Self {
        let mut inner = StateInner {
            queue_depth: policy.queue_depth as u64,
            class_budgets: policy.qos.class_budgets,
            ..StateInner::default()
        };
        inner.ecn_threshold =
            ((policy.queue_depth as u64) * u64::from(policy.qos.ecn_threshold_pct) / 100).max(1);
        SharedState {
            inner: Mutex::new(inner),
            cv: Condvar::new(),
        }
    }

    fn note_completed(&self, class: QosClass, submitted_at: Option<Instant>) {
        let mut st = self.inner.lock().unwrap();
        st.completed += 1;
        let rank = class.priority.rank();
        st.class_in_flight[rank] = st.class_in_flight[rank].saturating_sub(1);
        if let Some(t0) = submitted_at {
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
}

/// Point-in-time serving statistics (see [`ServeHandle::stats`]).
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests accepted by [`ServeHandle::submit`].
    pub submitted: u64,
    /// Requests that reached a terminal outcome (logits, error, or cancel).
    pub completed: u64,
    /// Requests refused because the handle was shut down.
    pub rejected: u64,
    /// Micro-batches dispatched to the runner.
    pub batches: u64,
    /// Total images dispatched to the runner across all batches.
    pub dispatched: u64,
    /// Largest batch dispatched so far.
    pub max_batch_observed: usize,
    /// Queue waits (submission → batch dispatch) of the most recently
    /// dispatched requests — a bounded sample window (4096 entries), so
    /// long-lived servers report recent latency without unbounded growth.
    pub queue_waits: Vec<Duration>,
    /// Per-class admission/shed/deadline accounting plus completion
    /// latencies (see [`QosStats`]).
    pub qos: QosStats,
    /// Drift events applied since the shard was last (re)programmed — its
    /// staleness in drift-log steps. Local `ServeHandle`s (no drift-aware
    /// transport above them) always report 0; fleet transports fill it in.
    pub drift_age: u64,
    /// Times the shard has been reprogrammed from its seed since it
    /// started serving (cumulative).
    pub reprograms: u64,
}

impl ServeStats {
    /// The `p`-th percentile (0.0–1.0) of the recorded queue waits, or
    /// `None` before the first dispatch.
    pub fn queue_wait_percentile(&self, p: f64) -> Option<Duration> {
        if self.queue_waits.is_empty() {
            return None;
        }
        let mut sorted = self.queue_waits.clone();
        sorted.sort_unstable();
        let rank = (p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }

    /// Mean images per dispatched batch (0.0 before the first dispatch).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.dispatched as f64 / self.batches as f64
        }
    }
}

/// Clone-able submitter for a running micro-batch scheduler (see
/// [`spawn`](crate::spawn)).
///
/// All clones feed the same bounded queue and the same worker; any clone
/// may [`ServeHandle::drain`] or [`ServeHandle::shutdown`]. Completion
/// order is FIFO in arrival order: the worker dispatches batches in queue
/// order and fulfills each batch front-to-back.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    tx: SyncSender<Msg>,
    shared: Arc<SharedState>,
    worker: Arc<Mutex<Option<JoinHandle<()>>>>,
}

impl ServeHandle {
    pub(crate) fn new(
        tx: SyncSender<Msg>,
        shared: Arc<SharedState>,
        worker: JoinHandle<()>,
    ) -> Self {
        ServeHandle {
            tx,
            shared,
            worker: Arc::new(Mutex::new(Some(worker))),
        }
    }

    /// Submits one image for inference, returning its completion handle.
    /// The request is stamped with the handle's next stream index (arrival
    /// order), so batches evaluate it at a stable global coordinate.
    ///
    /// Blocks only when the bounded queue is full (backpressure); the
    /// actual inference is asynchronous — claim the result later via
    /// [`Pending::wait`].
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] if [`ServeHandle::shutdown`] ran first.
    pub fn submit(&self, image: Tensor) -> Result<Pending, ServeError> {
        self.submit_inner(image, None, QosClass::default())
    }

    /// Submits one image with explicit QoS annotations, returning a typed
    /// [`Admission`] instead of blocking semantics: the request is either
    /// admitted (with its completion handle), shed with a
    /// [`ShedReason`], or rejected as
    /// [`Admission::DeadlineInfeasible`] when the estimated queue wait
    /// already exceeds its deadline.
    ///
    /// Admission happens **before** a stream index is stamped, so a shed
    /// request never occupies a coordinate — the admitted subset of the
    /// stream is contiguous and bit-identical to a solo run.
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] if [`ServeHandle::shutdown`] ran first.
    pub fn submit_qos(&self, image: Tensor, class: QosClass) -> Result<Admission, ServeError> {
        self.submit_gated(image, None, class, true)
    }

    /// The fleet-router variant of [`ServeHandle::submit_qos`]: QoS-gated
    /// admission at an externally owned stream index (see
    /// [`ServeHandle::submit_at`] for the index contract). The router
    /// must claim the index only *after* a successful admission (or roll
    /// it back), so shed requests never hole the global numbering.
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] if [`ServeHandle::shutdown`] ran first.
    pub fn submit_at_qos(
        &self,
        index: u64,
        image: Tensor,
        class: QosClass,
    ) -> Result<Admission, ServeError> {
        self.submit_gated(image, Some(index), class, true)
    }

    /// Submits one image stamped with an **externally owned** stream index
    /// instead of the handle's own counter — the entry point a fleet
    /// router uses after claiming `index` from its global arrival counter
    /// (see [`FleetHandle::submit`](crate::FleetHandle)).
    ///
    /// A shard fed through `submit_at` carries whatever (possibly
    /// non-contiguous) slice of the global stream the router handed it.
    /// Only use it on handles whose runner honors stamped indices (a
    /// runner wrapping a counter-claiming backend, like the platform
    /// session's solo analog handle, ignores them by design).
    ///
    /// # Mixing with the handle-owned counter
    ///
    /// [`ServeHandle::submit`] stamps from the handle's own counter, so a
    /// caller that mixes `submit` and `submit_at` on one handle is merging
    /// two numbering authorities — a coordinate-aliasing race unless they
    /// are kept disjoint. The contract: **an external index must be at or
    /// above the internal watermark** (one past the highest index the
    /// handle's own counter has stamped). `submit_at` enforces it with a
    /// debug assertion, and pushes the internal counter past the external
    /// index so later `submit` calls stay disjoint in the other direction.
    /// Externally stamped indices may otherwise arrive in any order
    /// (concurrent routers reorder); the handle never compares them to
    /// each other.
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] if [`ServeHandle::shutdown`] ran first.
    ///
    /// # Panics
    /// In debug builds, if `index` is below the internal watermark (see
    /// above).
    pub fn submit_at(&self, index: u64, image: Tensor) -> Result<Pending, ServeError> {
        self.submit_inner(image, Some(index), QosClass::default())
    }

    /// Ungated, class-annotated submission at an external index: used for
    /// requests that were already admitted at a fleet ingress (protocol
    /// servers), where a local shed would hole the global numbering. The
    /// class still drives EDF composition and deadline accounting.
    pub(crate) fn submit_at_admitted(
        &self,
        index: u64,
        image: Tensor,
        class: QosClass,
    ) -> Result<Pending, ServeError> {
        self.submit_inner(image, Some(index), class)
    }

    /// Ungated admission: preserves the pre-QoS blocking contract.
    fn submit_inner(
        &self,
        image: Tensor,
        index: Option<u64>,
        class: QosClass,
    ) -> Result<Pending, ServeError> {
        match self.submit_gated(image, index, class, false)? {
            Admission::Admitted(p) => Ok(p),
            _ => unreachable!("ungated submission never sheds"),
        }
    }

    fn submit_gated(
        &self,
        image: Tensor,
        index: Option<u64>,
        class: QosClass,
        gated: bool,
    ) -> Result<Admission, ServeError> {
        let rank = class.priority.rank();
        let index = {
            let mut st = self.shared.inner.lock().unwrap();
            if st.closed {
                st.rejected += 1;
                return Err(ServeError::ShutDown);
            }
            if gated {
                let in_flight = st.submitted - st.completed;
                if in_flight >= st.queue_depth {
                    st.qos.classes[rank].note_shed(ShedReason::QueueFull);
                    return Ok(Admission::Shed(ShedReason::QueueFull));
                }
                if st.class_in_flight[rank] >= st.class_budgets[rank] as u64 {
                    st.qos.classes[rank].note_shed(ShedReason::ClassBudget);
                    return Ok(Admission::Shed(ShedReason::ClassBudget));
                }
                if let (Some(deadline), true) = (class.deadline, st.est_image_ns > 0) {
                    let estimated_wait =
                        Duration::from_nanos(in_flight.saturating_mul(st.est_image_ns));
                    if estimated_wait > deadline {
                        st.qos.classes[rank].infeasible += 1;
                        return Ok(Admission::DeadlineInfeasible { estimated_wait });
                    }
                }
            }
            st.submitted += 1;
            st.class_in_flight[rank] += 1;
            st.qos.classes[rank].admitted += 1;
            if st.submitted - st.completed >= st.ecn_threshold {
                st.qos.ecn_marks += 1;
            }
            match index {
                Some(i) => {
                    #[cfg(debug_assertions)]
                    if i < st.internal_watermark {
                        // Coordinate-aliasing bug in the caller. Leave the
                        // state coherent (and the lock unpoisoned — a live
                        // worker shares it) before surfacing it.
                        let watermark = st.internal_watermark;
                        st.submitted -= 1;
                        st.rejected += 1;
                        st.class_in_flight[rank] -= 1;
                        st.qos.classes[rank].admitted -= 1;
                        drop(st);
                        panic!(
                            "submit_at({i}) collides with the handle-owned counter: indices \
                             below {watermark} were already stamped by submit/submit_many on \
                             this handle — external numbering must stay at or above the \
                             internal watermark"
                        );
                    }
                    // Future internal stamps skip past the external index,
                    // so the two numbering sources stay disjoint.
                    st.next_index = st.next_index.max(i + 1);
                    i
                }
                None => {
                    let i = st.next_index;
                    st.next_index += 1;
                    st.internal_watermark = st.next_index;
                    i
                }
            }
        };
        let (request, pending) = self.make_request(image, index, class);
        self.send_or_roll_back(request, 1, class)?;
        Ok(Admission::Admitted(pending))
    }

    /// Builds one stamped request plus its caller-side completion handle.
    fn make_request(&self, image: Tensor, index: u64, class: QosClass) -> (Request, Pending) {
        let slot = Arc::new(CompletionSlot::default());
        let now = Instant::now();
        let request = Request {
            image,
            index,
            class,
            ticket: Ticket {
                slot: Arc::clone(&slot),
                shared: Arc::clone(&self.shared),
                done: false,
                class,
                submitted_at: Some(now),
            },
            submitted_at: now,
        };
        (request, Pending { slot })
    }

    /// Sends one request; on failure (the worker is gone — shutdown raced
    /// ahead) rolls `unsent` submissions back and refuses. Stamped indices
    /// are not rolled back — once the worker is gone every later
    /// submission fails too, so the hole sits strictly after the last
    /// evaluated coordinate and never shifts the stream.
    fn send_or_roll_back(
        &self,
        request: Request,
        unsent: u64,
        class: QosClass,
    ) -> Result<(), ServeError> {
        if let Err(e) = self.tx.send(Msg::Request(request)) {
            if let Msg::Request(req) = e.0 {
                req.ticket.defuse();
            }
            {
                let mut st = self.shared.inner.lock().unwrap();
                st.submitted -= unsent;
                st.rejected += unsent;
                let rank = class.priority.rank();
                st.class_in_flight[rank] = st.class_in_flight[rank].saturating_sub(unsent);
                st.qos.classes[rank].admitted =
                    st.qos.classes[rank].admitted.saturating_sub(unsent);
            }
            // The rollback can be what lets `completed == submitted`: a
            // drain blocked on the old count must re-check.
            self.shared.cv.notify_all();
            return Err(ServeError::ShutDown);
        }
        Ok(())
    }

    /// Submits a whole run of images in one call, taking the queue lock
    /// **once** for the entire run: the images are stamped with contiguous
    /// stream indices as a block, exactly as the equivalent loop of
    /// [`ServeHandle::submit`] calls would stamp them from a single thread
    /// — but without per-image lock traffic, and atomically with respect
    /// to concurrent submitters (no interleaving inside the block).
    ///
    /// Blocks on the bounded queue like `submit` does (backpressure is per
    /// image, so a run larger than `queue_depth` is fine — the worker
    /// drains while this call feeds).
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] if the handle is shut down at entry, or if
    /// shutdown races the run mid-way (already-enqueued images of the run
    /// still complete, but their completion handles are discarded with the
    /// error).
    pub fn submit_many(
        &self,
        images: impl IntoIterator<Item = Tensor>,
    ) -> Result<Vec<Pending>, ServeError> {
        let images: Vec<Tensor> = images.into_iter().collect();
        let n = images.len() as u64;
        if n == 0 {
            return Ok(Vec::new());
        }
        let base = {
            let mut st = self.shared.inner.lock().unwrap();
            if st.closed {
                st.rejected += n;
                return Err(ServeError::ShutDown);
            }
            st.submitted += n;
            let rank = QosClass::default().priority.rank();
            st.class_in_flight[rank] += n;
            st.qos.classes[rank].admitted += n;
            let base = st.next_index;
            st.next_index += n;
            st.internal_watermark = st.next_index;
            base
        };
        let mut pendings = Vec::with_capacity(images.len());
        for (i, image) in images.into_iter().enumerate() {
            let (request, pending) = self.make_request(image, base + i as u64, QosClass::default());
            // Shutdown racing the run rolls back the whole unsent tail.
            self.send_or_roll_back(request, n - i as u64, QosClass::default())?;
            pendings.push(pending);
        }
        Ok(pendings)
    }

    /// Requests accepted but not yet completed — the router's load signal
    /// for least-queue-depth shard selection.
    pub fn in_flight(&self) -> u64 {
        let st = self.shared.inner.lock().unwrap();
        st.submitted - st.completed
    }

    /// The congestion signal this queue exports: occupancy (total and
    /// per class), the ECN-style pressure bit, and the per-image
    /// service-time estimate.
    pub fn load(&self) -> ShardLoad {
        let st = self.shared.inner.lock().unwrap();
        let in_flight = st.submitted - st.completed;
        ShardLoad {
            in_flight,
            per_class: st.class_in_flight,
            pressure: in_flight >= st.ecn_threshold,
            est_image_ns: st.est_image_ns,
        }
    }

    /// Blocks until every accepted request has reached a terminal outcome
    /// (the queue is empty and no batch is in flight).
    pub fn drain(&self) {
        let mut st = self.shared.inner.lock().unwrap();
        while st.completed < st.submitted {
            st = self.shared.cv.wait(st).unwrap();
        }
    }

    /// Stops accepting new requests, drains everything already accepted,
    /// and joins the worker thread. Idempotent; safe to call from any
    /// clone.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.inner.lock().unwrap();
            if st.closed {
                // Another clone already initiated shutdown; just wait for
                // completions below.
                drop(st);
                self.drain();
                return;
            }
            st.closed = true;
        }
        // Wake the worker; if it already exited, the queue is being torn
        // down and pending tickets cancel themselves.
        let _ = self.tx.send(Msg::Shutdown);
        let worker = self.worker.lock().unwrap().take();
        if let Some(h) = worker {
            let _ = h.join();
        }
        self.drain();
    }

    /// Whether [`ServeHandle::shutdown`] has run.
    pub fn is_closed(&self) -> bool {
        self.shared.inner.lock().unwrap().closed
    }

    /// A snapshot of the serving statistics.
    pub fn stats(&self) -> ServeStats {
        let st = self.shared.inner.lock().unwrap();
        ServeStats {
            submitted: st.submitted,
            completed: st.completed,
            rejected: st.rejected,
            batches: st.batches,
            dispatched: st.dispatched,
            max_batch_observed: st.max_batch_observed,
            queue_waits: st.queue_waits.clone(),
            qos: st.qos.clone(),
            drift_age: 0,
            reprograms: 0,
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
        let slot = Arc::new(CompletionSlot::default());
        let p = Pending {
            slot: Arc::clone(&slot),
        };
        assert!(!p.is_ready());
        slot.fulfill(Ok(tensor(1.0)));
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
        shared.inner.lock().unwrap().submitted = 1;
        let slot = Arc::new(CompletionSlot::default());
        let p = Pending {
            slot: Arc::clone(&slot),
        };
        let ticket = Ticket {
            slot,
            shared: Arc::clone(&shared),
            done: false,
            class: QosClass::default(),
            submitted_at: None,
        };
        drop(ticket);
        assert_eq!(p.wait(), Err(ServeError::Canceled));
        assert_eq!(shared.inner.lock().unwrap().completed, 1);
    }

    #[test]
    fn stats_percentiles_and_mean_batch() {
        let mut s = ServeStats::default();
        assert_eq!(s.queue_wait_percentile(0.5), None);
        assert_eq!(s.mean_batch(), 0.0);
        s.queue_waits = (1..=100).map(Duration::from_millis).collect();
        s.batches = 25;
        s.dispatched = 100;
        assert_eq!(s.queue_wait_percentile(0.0), Some(Duration::from_millis(1)));
        assert_eq!(
            s.queue_wait_percentile(0.5),
            Some(Duration::from_millis(51))
        );
        assert_eq!(
            s.queue_wait_percentile(1.0),
            Some(Duration::from_millis(100))
        );
        assert_eq!(s.mean_batch(), 4.0);
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

    fn echo_handle() -> ServeHandle {
        crate::spawn(
            crate::BatchPolicy::new(1, Duration::from_millis(1)),
            |_idx: &[u64], inputs: &[Tensor]| Ok(inputs.to_vec()),
        )
    }

    /// The mixing contract: external indices below the handle-owned
    /// counter's watermark are a coordinate-aliasing bug, caught by the
    /// debug assertion (so the test exists only where the check does).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "collides with the handle-owned counter")]
    fn submit_at_below_internal_watermark_is_rejected() {
        let handle = echo_handle();
        let _ = handle.submit(tensor(0.0)).unwrap(); // stamps index 0
        let _ = handle.submit_at(0, tensor(1.0)); // aliases coordinate 0
    }

    /// The legal mixed pattern: external stamps at/above the watermark are
    /// accepted and push the internal counter past themselves, so a later
    /// `submit` never re-stamps an externally used index.
    #[test]
    fn submit_at_above_watermark_keeps_numbering_disjoint() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let handle = crate::spawn(
            crate::BatchPolicy::new(1, Duration::from_millis(1)),
            move |idx: &[u64], inputs: &[Tensor]| {
                log.lock().unwrap().extend_from_slice(idx);
                Ok(inputs.to_vec())
            },
        );
        handle.submit(tensor(0.0)).unwrap().wait().unwrap(); // index 0
        handle.submit_at(5, tensor(1.0)).unwrap().wait().unwrap();
        // Internal counter resumes past the external stamp.
        handle.submit(tensor(2.0)).unwrap().wait().unwrap(); // index 6
        handle.shutdown();
        assert_eq!(*seen.lock().unwrap(), vec![0, 5, 6]);
    }
}
