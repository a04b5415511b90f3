//! SLO-aware admission control: priority classes, deadlines, typed load
//! shedding, and congestion-signal pacing.
//!
//! The serving layer's only overload behavior used to be a blocking
//! bounded queue. This module adds **typed admission decisions** at the
//! ingress: a request that carries a [`QosClass`] (priority + optional
//! deadline) is either admitted with a completion handle or refused before
//! any work is queued — shed with
//! [`ServeError::Shed`](crate::ServeError::Shed) and its [`ShedReason`],
//! or rejected as
//! [`ServeError::DeadlineInfeasible`](crate::ServeError::DeadlineInfeasible).
//! A request without a class is never refused at admission: it waits on
//! backpressure instead.
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
//! * [`QosOrdering`] — the coalescer ordering a seat's
//!   [`BatchPolicy`](crate::BatchPolicy) picks.
//! * The seat's coalescer — the batching state machine, FIFO or
//!   earliest-deadline-first *within* priority bands. It owns no clock;
//!   tests drive it with fake timestamps.
//! * [`ShardLoad`] — the congestion signal a shard exports: queue depth,
//!   per-class occupancy, an ECN-style pressure bit (drop-tail threshold,
//!   in the spirit of packet-switching queue disciplines), and a service-
//!   time estimate for deadline feasibility checks.
//! * [`AimdPacer`] — the router-side consumer of pressure bits: additive
//!   increase, multiplicative decrease on marks, so a backpressured remote
//!   shard slows ingress instead of stalling it.
//! * [`QosStats`] / [`ClassStats`] — per-class admission, shed, and
//!   deadline-miss counters plus completion-latency samples, defined
//!   with [`ShedReason`] in `aimc-wire` as part of a seat's stats record.

use std::fmt;
use std::time::Duration;

pub use aimc_wire::{ClassStats, Priority, QosClass, QosStats, ShedReason};

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
    /// exists. The fleet router refuses a classed request whose deadline
    /// is shorter than this wait — the serving path's only
    /// deadline-feasibility check.
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
    /// request of `priority`: never at the hard limit, and otherwise only
    /// under the current window — which [`Priority::High`] bypasses, so
    /// pacing throttles best-effort traffic first.
    pub fn admits(&self, in_flight: usize, priority: Priority) -> bool {
        if in_flight >= self.config.hard_limit {
            return false;
        }
        !self.config.enabled || priority == Priority::High || in_flight < self.window as usize
    }

    /// The current congestion window, in requests.
    pub fn window(&self) -> usize {
        self.window as usize
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

/// A seat's batching state machine: it decides *when a batch is ready*
/// and composes it FIFO or earliest-deadline-first within priority bands.
///
/// It owns no threads, no channels and no wall clock: callers tag every
/// item with an explicit `now` (any monotonic [`Duration`] since an
/// arbitrary epoch), so tests drive the latency budget with a fake clock.
/// `push` reports the size trigger, [`QosCoalescer::deadline`] the
/// deadline trigger (`max_wait` after the *oldest queued* item arrived),
/// and [`QosCoalescer::take_batch`] removes up to `max_batch` items in
/// policy order.
///
/// Reordering here is safe only because batches are evaluated at their
/// stamped global stream indices: dispatch order changes, stream
/// coordinates (and therefore logits) do not.
#[derive(Debug)]
pub(crate) struct QosCoalescer<T> {
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
    pub(crate) fn new(max_batch: usize, max_wait: Duration, ordering: QosOrdering) -> Self {
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
    pub(crate) fn push(
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
    pub(crate) fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Whether no items are queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Removes and returns up to `max_batch` items in policy order,
    /// leaving later arrivals queued (their flush deadline is recomputed
    /// from the oldest survivor).
    pub(crate) fn take_batch(&mut self) -> Vec<T> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

        // max_batch 0 clamps to 1: every push fills a batch.
        let mut c = QosCoalescer::new(0, ms(1), QosOrdering::Fifo);
        assert!(c.push("a", Priority::Normal, None, ms(0)));
        assert_eq!(c.take_batch(), vec!["a"]);
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
        assert_eq!(c.items.len(), 2);
        // Remainder flushes in the same discipline.
        assert_eq!(c.take_batch(), vec!["low-early", "norm-none"]);
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
        assert!(c.deadline().is_some_and(|d| ms(10) >= d));
        assert_eq!(c.take_batch(), vec![1]);

        // A zero wait makes every partial batch due at its first arrival.
        let mut c = QosCoalescer::new(8, Duration::ZERO, QosOrdering::EdfWithinPriority);
        c.push(7, Priority::Normal, None, ms(3));
        assert!(c.deadline().is_some_and(|d| ms(3) >= d));
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
        assert!(p.admits(15, Priority::Normal));
        assert!(!p.admits(16, Priority::Normal));

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
        assert!(p.admits(4, Priority::Normal));
        assert!(!p.admits(5, Priority::Normal));
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
        assert!(
            !p.admits(3, Priority::Normal),
            "hard limit caps admission below the window"
        );
        assert!(p.admits(2, Priority::Normal));
    }

    #[test]
    fn disabled_pacer_admits_everything_below_hard_limit() {
        let mut p = AimdPacer::new(PacerConfig::default().with_hard_limit(10));
        for i in 0..50 {
            p.observe(true, ms(i));
        }
        assert!(p.admits(9, Priority::Normal));
        assert!(!p.admits(10, Priority::Normal));
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For any arrival pattern and either ordering, a batch never
        /// exceeds `max_batch`, and taking on every trigger (size or
        /// deadline) loses no item; under FIFO nothing is reordered.
        #[test]
        fn batches_never_exceed_max_batch_and_preserve_fifo(
            max_batch in 1usize..10,
            max_wait_ms in 0u64..20,
            gaps in prop::collection::vec(0u64..30, 1..60),
            edf in any::<bool>(),
        ) {
            let ordering = if edf { QosOrdering::EdfWithinPriority } else { QosOrdering::Fifo };
            let mut c = QosCoalescer::new(max_batch, ms(max_wait_ms), ordering);
            let mut now = ms(0);
            let mut batches: Vec<Vec<usize>> = Vec::new();
            for (i, gap) in gaps.iter().enumerate() {
                now += ms(*gap);
                // Deadline trigger: flush anything overdue before admitting.
                if c.deadline().is_some_and(|d| now >= d) {
                    batches.push(c.take_batch());
                }
                let priority = [Priority::High, Priority::Normal, Priority::Low][i % 3];
                let deadline = (i % 2 == 0).then(|| now + ms(*gap));
                if c.push(i, priority, deadline, now) {
                    batches.push(c.take_batch());
                }
            }
            while !c.is_empty() {
                batches.push(c.take_batch());
            }
            for b in &batches {
                prop_assert!(!b.is_empty());
                prop_assert!(b.len() <= max_batch, "batch of {} exceeds {}", b.len(), max_batch);
            }
            let mut flat: Vec<usize> = batches.into_iter().flatten().collect();
            let want: Vec<usize> = (0..gaps.len()).collect();
            if edf {
                flat.sort_unstable();
            }
            prop_assert_eq!(flat, want);
        }
    }
}
