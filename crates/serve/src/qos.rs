//! SLO-aware admission control: priority classes, deadlines, typed load
//! shedding, and congestion-signal pacing.
//!
//! The serving layer's only overload behavior used to be a blocking
//! bounded queue. This module replaces that with **typed admission
//! decisions** at the ingress: every request carries a
//! [`QosClass`] (priority + optional deadline) and every submit returns an
//! [`Admission`] — admitted with a completion handle, shed with a
//! [`ShedReason`], or rejected as infeasible before any work is queued.
//!
//! Invariance discipline: admission control happens **before** a global
//! stream index is claimed (or is rolled back synchronously, the same
//! discipline as PR 5's refused-submission rollback). Once admitted, a
//! request is never dropped — a missed deadline is *counted*, not culled —
//! so the admitted subset always occupies a contiguous, hole-free prefix
//! of the stream numbering and stays bit-identical to a solo run at the
//! same coordinates. QoS changes **which** requests run, never **what**
//! an admitted request computes.
//!
//! The pieces, bottom-up:
//!
//! * [`QosPolicy`] — per-class in-flight budgets, coalescer ordering
//!   ([`QosOrdering`]), and the ECN mark threshold.
//! * [`QosCoalescer`] — the batching state machine with
//!   earliest-deadline-first ordering *within* priority bands. Like
//!   [`Coalescer`](crate::Coalescer) it owns no clock; tests drive it with
//!   fake timestamps.
//! * [`ShardLoad`] — the congestion signal a shard exports: queue depth,
//!   per-class occupancy, an ECN-style pressure bit (drop-tail threshold,
//!   in the spirit of packet-switching queue disciplines), and a service-
//!   time estimate for deadline feasibility checks.
//! * [`AimdPacer`] — the router-side consumer of pressure bits: additive
//!   increase, multiplicative decrease on marks, so a backpressured remote
//!   shard slows ingress instead of stalling it.
//! * [`QosStats`] / [`ClassStats`] — per-class admission, shed, and
//!   deadline-miss counters plus completion-latency samples.

use std::fmt;
use std::time::Duration;

pub use aimc_wire::{Priority, QosClass};

use crate::handle::Pending;

/// Why a request was shed at admission.
///
/// Every reason is *typed* so callers can react differently: retry later
/// (`QueueFull`), downgrade the class (`ClassBudget`), or back off
/// (`Overload`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The bounded request queue is at `queue_depth`; admitting would
    /// have blocked the caller.
    QueueFull,
    /// The request's class is at its [`QosPolicy::class_budgets`]
    /// in-flight budget.
    ClassBudget,
    /// The congestion pacer ([`AimdPacer`]) has closed its window in
    /// response to shard pressure marks.
    Overload,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::ClassBudget => "class_budget",
            ShedReason::Overload => "overload",
        })
    }
}

/// The outcome of a QoS-aware submit: the typed replacement for the
/// blocking-or-error contract of the plain `submit`.
#[derive(Debug)]
pub enum Admission {
    /// The request was admitted; await the logits on the handle.
    Admitted(Pending),
    /// The request was refused before any stream index was claimed.
    Shed(ShedReason),
    /// The request carried a deadline that cannot be met even if admitted
    /// right now (estimated queue wait already exceeds it).
    DeadlineInfeasible {
        /// The wait the admission controller estimated from queue depth
        /// and the shard's service-time EWMA.
        estimated_wait: Duration,
    },
}

impl Admission {
    /// Whether the request was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted(_))
    }

    /// The completion handle, if admitted.
    pub fn admitted(self) -> Option<Pending> {
        match self {
            Admission::Admitted(p) => Some(p),
            _ => None,
        }
    }

    /// The shed reason, if shed.
    pub fn shed_reason(&self) -> Option<ShedReason> {
        match self {
            Admission::Shed(r) => Some(*r),
            _ => None,
        }
    }
}

/// How the coalescer orders queued requests into batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QosOrdering {
    /// Strict arrival order — the pre-QoS behavior.
    #[default]
    Fifo,
    /// Earliest deadline first within each priority band: all `High`
    /// requests dispatch before any `Normal`, ties broken by deadline
    /// then arrival. Legal on every serving path: the router stamps each
    /// request's stream coordinate at submission, so reordering dispatch
    /// never moves a coordinate.
    EdfWithinPriority,
}

/// Admission-control knobs carried inside
/// [`BatchPolicy`](crate::BatchPolicy): per-class budgets, batch ordering,
/// and the congestion-mark threshold.
///
/// The default is fully permissive — unbounded budgets, FIFO ordering —
/// so pre-QoS callers see byte-for-byte identical behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosPolicy {
    /// Batch composition order; see [`QosOrdering`].
    pub ordering: QosOrdering,
    /// Per-class in-flight budgets indexed by [`Priority::rank`];
    /// `usize::MAX` means unbounded. A class at its budget sheds with
    /// [`ShedReason::ClassBudget`].
    pub class_budgets: [usize; Priority::COUNT],
    /// ECN mark threshold as a percentage of `queue_depth`: the shard
    /// reports pressure once `in_flight ≥ queue_depth · pct / 100`.
    pub ecn_threshold_pct: u8,
}

impl QosPolicy {
    /// Overrides the coalescer ordering.
    pub fn with_ordering(mut self, ordering: QosOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Bounds the in-flight budget of one priority class.
    pub fn with_class_budget(mut self, priority: Priority, budget: usize) -> Self {
        self.class_budgets[priority.rank()] = budget;
        self
    }

    /// Overrides the ECN mark threshold (clamped to 1..=100).
    pub fn with_ecn_threshold_pct(mut self, pct: u8) -> Self {
        self.ecn_threshold_pct = pct.clamp(1, 100);
        self
    }
}

impl Default for QosPolicy {
    fn default() -> Self {
        QosPolicy {
            ordering: QosOrdering::Fifo,
            class_budgets: [usize::MAX; Priority::COUNT],
            ecn_threshold_pct: 75,
        }
    }
}

/// The congestion signal a shard exports to its router: the local
/// equivalent of a switch queue's occupancy telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardLoad {
    /// Requests submitted but not yet completed.
    pub in_flight: u64,
    /// In-flight occupancy per priority class, indexed by
    /// [`Priority::rank`].
    pub per_class: [u64; Priority::COUNT],
    /// ECN-style mark: the queue is past its pressure threshold. Level-
    /// triggered — the bit reflects occupancy at probe time.
    pub pressure: bool,
    /// EWMA of per-image service time in nanoseconds (0 = no estimate
    /// yet). Used for deadline-feasibility checks: estimated wait ≈
    /// `in_flight · est_image_ns`.
    pub est_image_ns: u64,
}

impl ShardLoad {
    /// The wait a newly admitted request would see, estimated from queue
    /// occupancy and the service-time EWMA. `None` until an estimate
    /// exists.
    pub fn estimated_wait(&self) -> Option<Duration> {
        (self.est_image_ns > 0)
            .then(|| Duration::from_nanos(self.in_flight.saturating_mul(self.est_image_ns)))
    }
}

/// Configuration of the router's [`AimdPacer`]. Disabled by default —
/// pacing only activates when a fleet opts in, so pre-QoS fleets are
/// unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacerConfig {
    /// Whether the pacer gates admission at all.
    pub enabled: bool,
    /// Floor of the congestion window (requests in flight per shard).
    pub min_window: usize,
    /// Ceiling of the congestion window.
    pub max_window: usize,
    /// Hard cap on per-shard in-flight occupancy regardless of window
    /// state; `usize::MAX` disables the cap.
    pub hard_limit: usize,
    /// Minimum spacing between multiplicative decreases, so one burst of
    /// marked replies (all reflecting the same queue state) halves the
    /// window once, not once per reply.
    pub decrease_cooldown: Duration,
}

impl PacerConfig {
    /// An enabled pacer with the default window bounds.
    pub fn aimd() -> Self {
        PacerConfig {
            enabled: true,
            ..PacerConfig::default()
        }
    }

    /// Overrides the hard in-flight cap.
    pub fn with_hard_limit(mut self, hard_limit: usize) -> Self {
        self.hard_limit = hard_limit;
        self
    }
}

impl Default for PacerConfig {
    fn default() -> Self {
        PacerConfig {
            enabled: false,
            min_window: 1,
            max_window: 1024,
            hard_limit: usize::MAX,
            decrease_cooldown: Duration::from_millis(2),
        }
    }
}

/// An AIMD congestion window over one shard's in-flight occupancy,
/// driven by ECN-style pressure marks: additive increase (`+1/window` per
/// unmarked observation, the TCP-Reno shape), multiplicative decrease
/// (halve on a mark, rate-limited by the cooldown).
///
/// Owns no clock: observations carry explicit `now` timestamps, so the
/// cooldown is unit-testable under a fake clock.
#[derive(Debug, Clone)]
pub struct AimdPacer {
    config: PacerConfig,
    window: f64,
    last_decrease: Option<Duration>,
}

impl AimdPacer {
    /// A pacer opening at the configured maximum window.
    pub fn new(config: PacerConfig) -> Self {
        AimdPacer {
            config,
            window: config.max_window.max(config.min_window.max(1)) as f64,
            last_decrease: None,
        }
    }

    /// Feeds one congestion observation at time `now` (any monotonic
    /// duration since a caller-chosen epoch).
    pub fn observe(&mut self, pressure: bool, now: Duration) {
        if !self.config.enabled {
            return;
        }
        let floor = self.config.min_window.max(1) as f64;
        let ceil = self.config.max_window.max(1) as f64;
        if pressure {
            let cooled = self
                .last_decrease
                .is_none_or(|t| now.saturating_sub(t) >= self.config.decrease_cooldown);
            if cooled {
                self.window = (self.window / 2.0).max(floor);
                self.last_decrease = Some(now);
            }
        } else {
            self.window = (self.window + 1.0 / self.window.max(1.0)).min(ceil);
        }
    }

    /// Whether a shard at `in_flight` occupancy may accept one more
    /// request under the current window and hard limit.
    pub fn admits(&self, in_flight: usize) -> bool {
        if in_flight >= self.config.hard_limit {
            return false;
        }
        !self.config.enabled || in_flight < self.window as usize
    }

    /// The current congestion window, in requests.
    pub fn window(&self) -> usize {
        self.window as usize
    }
}

/// Per-class admission/shed/deadline accounting plus completion-latency
/// samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Sheds with [`ShedReason::QueueFull`].
    pub shed_queue_full: u64,
    /// Sheds with [`ShedReason::ClassBudget`].
    pub shed_class_budget: u64,
    /// Sheds with [`ShedReason::Overload`].
    pub shed_overload: u64,
    /// Rejections as [`Admission::DeadlineInfeasible`].
    pub infeasible: u64,
    /// Admitted requests that completed *after* their deadline. Misses
    /// are counted, never culled — dropping a stamped request would hole
    /// the stream numbering.
    pub deadline_misses: u64,
    /// Completion latencies (submit → logits) of a bounded sample of
    /// admitted requests.
    pub latencies: Vec<Duration>,
}

impl ClassStats {
    /// Total sheds across all typed reasons (excludes infeasible, which
    /// is a pre-admission rejection of the deadline, not load shedding).
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_class_budget + self.shed_overload
    }

    /// Records one shed under its typed reason.
    pub fn note_shed(&mut self, reason: ShedReason) {
        match reason {
            ShedReason::QueueFull => self.shed_queue_full += 1,
            ShedReason::ClassBudget => self.shed_class_budget += 1,
            ShedReason::Overload => self.shed_overload += 1,
        }
    }

    /// Pools another shard's counters and latency samples into this one.
    /// Counters add; samples concatenate (percentiles are computed from
    /// the pooled sample, never averaged across shards).
    pub fn merge(&mut self, other: &ClassStats) {
        self.admitted += other.admitted;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_class_budget += other.shed_class_budget;
        self.shed_overload += other.shed_overload;
        self.infeasible += other.infeasible;
        self.deadline_misses += other.deadline_misses;
        self.latencies.extend_from_slice(&other.latencies);
    }

    /// The `p`-th percentile (0.0..=1.0) of the completion-latency
    /// sample, or `None` when no samples were recorded.
    pub fn latency_percentile(&self, p: f64) -> Option<Duration> {
        if self.latencies.is_empty() {
            return None;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let rank = (p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }
}

/// The QoS ledger of one handle: per-class accounting plus the number of
/// ECN marks observed (requests admitted while the queue was past its
/// pressure threshold, or marked replies seen from a remote shard).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QosStats {
    /// Per-class counters, indexed by [`Priority::rank`].
    pub classes: [ClassStats; Priority::COUNT],
    /// Congestion marks observed.
    pub ecn_marks: u64,
}

impl QosStats {
    /// The counters of one priority class.
    pub fn class(&self, priority: Priority) -> &ClassStats {
        &self.classes[priority.rank()]
    }

    /// Mutable access to one priority class's counters.
    pub fn class_mut(&mut self, priority: Priority) -> &mut ClassStats {
        &mut self.classes[priority.rank()]
    }

    /// Pools another ledger into this one (see [`ClassStats::merge`]).
    pub fn merge(&mut self, other: &QosStats) {
        for (mine, theirs) in self.classes.iter_mut().zip(&other.classes) {
            mine.merge(theirs);
        }
        self.ecn_marks += other.ecn_marks;
    }

    /// Total admitted across all classes.
    pub fn admitted_total(&self) -> u64 {
        self.classes.iter().map(|c| c.admitted).sum()
    }

    /// Total sheds across all classes and reasons.
    pub fn shed_total(&self) -> u64 {
        self.classes.iter().map(|c| c.shed_total()).sum()
    }
}

struct QosEntry<T> {
    item: T,
    priority: Priority,
    /// Absolute completion deadline in the caller's clock domain
    /// (`None` sorts after every finite deadline).
    deadline: Option<Duration>,
    arrived: Duration,
    seq: u64,
}

/// A [`Coalescer`](crate::Coalescer) that can compose batches
/// earliest-deadline-first within priority bands instead of strictly
/// FIFO.
///
/// Same fake-clock contract as the plain coalescer: `push` reports the
/// size trigger, `is_due` the deadline trigger (`max_wait` after the
/// *oldest queued* item arrived), and [`QosCoalescer::take_batch`]
/// removes up to `max_batch` items in policy order — under
/// [`QosOrdering::Fifo`] that is exactly the plain coalescer's batch.
///
/// Reordering here is safe only because batches are evaluated at their
/// stamped global stream indices: dispatch order changes, stream
/// coordinates (and therefore logits) do not.
#[derive(Debug)]
pub struct QosCoalescer<T> {
    max_batch: usize,
    max_wait: Duration,
    ordering: QosOrdering,
    items: Vec<QosEntry<T>>,
    deadline: Option<Duration>,
    next_seq: u64,
}

impl<T> fmt::Debug for QosEntry<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QosEntry")
            .field("priority", &self.priority)
            .field("deadline", &self.deadline)
            .field("arrived", &self.arrived)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl<T> QosCoalescer<T> {
    /// A coalescer dispatching at `max_batch` items (clamped to ≥ 1) or
    /// `max_wait` after the oldest queued item, whichever comes first.
    pub fn new(max_batch: usize, max_wait: Duration, ordering: QosOrdering) -> Self {
        QosCoalescer {
            max_batch: max_batch.max(1),
            max_wait,
            ordering,
            items: Vec::new(),
            deadline: None,
            next_seq: 0,
        }
    }

    /// Adds one item at time `now` with its class annotations; returns
    /// `true` when at least `max_batch` items are queued.
    pub fn push(
        &mut self,
        item: T,
        priority: Priority,
        deadline: Option<Duration>,
        now: Duration,
    ) -> bool {
        if self.items.is_empty() {
            self.deadline = Some(now + self.max_wait);
        }
        self.items.push(QosEntry {
            item,
            priority,
            deadline,
            arrived: now,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        self.items.len() >= self.max_batch
    }

    /// The instant the pending items must be flushed, if any are queued.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Whether the latency budget of the oldest queued item has expired
    /// at time `now` (always `false` when empty).
    pub fn is_due(&self, now: Duration) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Removes and returns up to `max_batch` items in policy order,
    /// leaving later arrivals queued (their flush deadline is recomputed
    /// from the oldest survivor).
    pub fn take_batch(&mut self) -> Vec<T> {
        let n = self.items.len().min(self.max_batch);
        let picked: Vec<usize> = match self.ordering {
            QosOrdering::Fifo => (0..n).collect(),
            QosOrdering::EdfWithinPriority => {
                let mut order: Vec<usize> = (0..self.items.len()).collect();
                order.sort_by_key(|&i| {
                    let e = &self.items[i];
                    (
                        e.priority.rank(),
                        e.deadline.unwrap_or(Duration::MAX),
                        e.seq,
                    )
                });
                order.truncate(n);
                order.sort_unstable();
                order
            }
        };
        let mut out = Vec::with_capacity(n);
        let mut keep = Vec::with_capacity(self.items.len() - n);
        let mut next = picked.iter().copied().peekable();
        for (i, e) in std::mem::take(&mut self.items).into_iter().enumerate() {
            if next.peek() == Some(&i) {
                next.next();
                out.push(e.item);
            } else {
                keep.push(e);
            }
        }
        self.items = keep;
        self.deadline = self.items.iter().map(|e| e.arrived + self.max_wait).min();
        out
    }

    /// Removes and returns **all** queued items in policy order (used by
    /// shutdown drains).
    pub fn take_all(&mut self) -> Vec<T> {
        let saved = self.max_batch;
        self.max_batch = usize::MAX;
        let out = self.take_batch();
        self.max_batch = saved;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn fifo_take_matches_arrival_order() {
        let mut c = QosCoalescer::new(2, ms(10), QosOrdering::Fifo);
        assert!(!c.push("a", Priority::Low, Some(ms(1)), ms(0)));
        assert!(c.push("b", Priority::High, Some(ms(200)), ms(1)));
        // FIFO ignores class annotations entirely.
        assert_eq!(c.take_batch(), vec!["a", "b"]);
        assert!(c.is_empty());
        assert_eq!(c.deadline(), None);
    }

    #[test]
    fn edf_orders_priority_then_deadline_then_arrival() {
        let mut c = QosCoalescer::new(3, ms(10), QosOrdering::EdfWithinPriority);
        c.push("low-early", Priority::Low, Some(ms(5)), ms(0));
        c.push("norm-late", Priority::Normal, Some(ms(900)), ms(1));
        c.push("norm-none", Priority::Normal, None, ms(2));
        c.push("high", Priority::High, None, ms(3));
        c.push("norm-early", Priority::Normal, Some(ms(50)), ms(4));
        // Batch of 3: High first, then Normal by deadline (50 < 900);
        // the deadline-less Normal and the Low remain queued.
        assert_eq!(c.take_batch(), vec!["norm-late", "high", "norm-early"]);
        assert_eq!(c.len(), 2);
        // Remainder flushes in the same discipline.
        assert_eq!(c.take_all(), vec!["low-early", "norm-none"]);
    }

    #[test]
    fn remainder_deadline_tracks_oldest_survivor() {
        let mut c = QosCoalescer::new(1, ms(10), QosOrdering::EdfWithinPriority);
        c.push(1, Priority::Low, None, ms(0));
        c.push(2, Priority::High, None, ms(4));
        assert_eq!(c.deadline(), Some(ms(10)), "budget keyed to first arrival");
        // High wins the batch of one; the Low survivor keeps its own
        // arrival-based budget.
        assert_eq!(c.take_batch(), vec![2]);
        assert_eq!(c.deadline(), Some(ms(10)));
        assert!(c.is_due(ms(10)));
        assert_eq!(c.take_batch(), vec![1]);
    }

    #[test]
    fn ties_within_a_band_preserve_arrival_order() {
        let mut c = QosCoalescer::new(4, ms(10), QosOrdering::EdfWithinPriority);
        for i in 0..4 {
            c.push(i, Priority::Normal, Some(ms(100)), ms(i));
        }
        assert_eq!(c.take_batch(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pacer_halves_on_pressure_and_recovers_additively() {
        let config = PacerConfig {
            enabled: true,
            min_window: 1,
            max_window: 16,
            hard_limit: usize::MAX,
            decrease_cooldown: ms(5),
        };
        let mut p = AimdPacer::new(config);
        assert_eq!(p.window(), 16);
        assert!(p.admits(15));
        assert!(!p.admits(16));

        p.observe(true, ms(0));
        assert_eq!(p.window(), 8, "multiplicative decrease halves");
        // A second mark inside the cooldown is the same queue event.
        p.observe(true, ms(1));
        assert_eq!(p.window(), 8, "cooldown suppresses repeated decrease");
        p.observe(true, ms(5));
        assert_eq!(p.window(), 4, "decrease resumes after cooldown");

        // Additive increase: +1/window per clean observation, so roughly
        // `window` observations grow the window by one.
        let mut rounds = 0;
        while p.window() < 5 {
            p.observe(false, ms(6));
            rounds += 1;
            assert!(rounds <= 6, "additive increase too slow: {rounds} rounds");
        }
        assert!(
            rounds >= 4,
            "w=4 must take ≥4 clean observations to reach 5"
        );
        assert!(p.admits(4));
        assert!(!p.admits(5));
    }

    #[test]
    fn pacer_floor_ceiling_and_hard_limit() {
        let config = PacerConfig {
            enabled: true,
            min_window: 2,
            max_window: 4,
            hard_limit: 3,
            decrease_cooldown: Duration::ZERO,
        };
        let mut p = AimdPacer::new(config);
        for i in 0..10 {
            p.observe(true, ms(i));
        }
        assert_eq!(p.window(), 2, "window never sinks below the floor");
        for _ in 0..100 {
            p.observe(false, ms(100));
        }
        assert_eq!(p.window(), 4, "window never grows past the ceiling");
        assert!(!p.admits(3), "hard limit caps admission below the window");
        assert!(p.admits(2));
    }

    #[test]
    fn disabled_pacer_admits_everything_below_hard_limit() {
        let mut p = AimdPacer::new(PacerConfig::default().with_hard_limit(10));
        for i in 0..50 {
            p.observe(true, ms(i));
        }
        assert!(p.admits(9));
        assert!(!p.admits(10));
    }

    #[test]
    fn class_stats_merge_pools_counters_and_samples() {
        let mut a = QosStats::default();
        a.class_mut(Priority::High).admitted = 3;
        a.class_mut(Priority::High).latencies = vec![ms(1), ms(9)];
        a.class_mut(Priority::Low).note_shed(ShedReason::Overload);
        a.ecn_marks = 2;

        let mut b = QosStats::default();
        b.class_mut(Priority::High).admitted = 2;
        b.class_mut(Priority::High).deadline_misses = 1;
        b.class_mut(Priority::High).latencies = vec![ms(5)];
        b.class_mut(Priority::Low).note_shed(ShedReason::QueueFull);
        b.class_mut(Priority::Low).infeasible = 4;
        b.ecn_marks = 1;

        a.merge(&b);
        let high = a.class(Priority::High);
        assert_eq!(high.admitted, 5);
        assert_eq!(high.deadline_misses, 1);
        assert_eq!(high.latencies, vec![ms(1), ms(9), ms(5)]);
        assert_eq!(
            high.latency_percentile(0.5),
            Some(ms(5)),
            "median comes from the pooled sample, not averaged medians"
        );
        let low = a.class(Priority::Low);
        assert_eq!(low.shed_overload, 1);
        assert_eq!(low.shed_queue_full, 1);
        assert_eq!(low.shed_total(), 2);
        assert_eq!(low.infeasible, 4);
        assert_eq!(a.ecn_marks, 3);
        assert_eq!(a.admitted_total(), 5);
        assert_eq!(a.shed_total(), 2);
    }

    #[test]
    fn shed_reasons_render_as_stable_tokens() {
        assert_eq!(ShedReason::QueueFull.to_string(), "queue_full");
        assert_eq!(ShedReason::ClassBudget.to_string(), "class_budget");
        assert_eq!(ShedReason::Overload.to_string(), "overload");
    }

    #[test]
    fn estimated_wait_needs_a_service_estimate() {
        let mut load = ShardLoad {
            in_flight: 8,
            ..ShardLoad::default()
        };
        assert_eq!(load.estimated_wait(), None);
        load.est_image_ns = 1_000_000;
        assert_eq!(load.estimated_wait(), Some(ms(8)));
    }
}
