//! A seat's serving statistics: the one record a seat reports and
//! [`Frame::Stats`](crate::Frame::Stats) carries.
//!
//! [`ServeStats`] holds a seat's request, batch and queue-wait counts and
//! its [`QosStats`] ledger; [`ClassStats`] is one priority class's row of
//! that ledger and [`ShedReason`] the typed cause of a shed. The codec
//! writes every [`Duration`] as nanoseconds, saturating at `u64::MAX`, so
//! a snapshot crosses the wire unchanged.

use crate::Priority;
use std::fmt;
use std::time::Duration;

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
    /// The request's class is at its fleet-wide in-flight budget
    /// (`FleetPolicy::class_budgets`, checked at the router).
    ClassBudget,
    /// The router's congestion pacer (`AimdPacer`) has closed its window
    /// in response to shard pressure marks.
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

/// The `p`-th percentile (0.0..=1.0) of `samples`, or `None` when empty.
fn percentile(samples: &[Duration], p: f64) -> Option<Duration> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    Some(sorted[rank])
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
    /// Rejections as `ServeError::DeadlineInfeasible`: the deadline was
    /// already shorter than the estimated wait.
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
        percentile(&self.latencies, p)
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

/// Point-in-time serving statistics of one seat, as a seat reports them
/// and as [`Frame::Stats`](crate::Frame::Stats) carries them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted into the queue.
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
}

impl ServeStats {
    /// The `p`-th percentile (0.0–1.0) of the recorded queue waits, or
    /// `None` before the first dispatch.
    pub fn queue_wait_percentile(&self, p: f64) -> Option<Duration> {
        percentile(&self.queue_waits, p)
    }

    /// Mean images per dispatched batch (0.0 before the first dispatch).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.dispatched as f64 / self.batches as f64
        }
    }

    /// Pools another seat's record into this one: counters add, the
    /// largest batch wins, and the queue-wait and latency samples
    /// concatenate (percentiles are computed from the pooled sample, never
    /// averaged across seats).
    pub fn merge(&mut self, other: &ServeStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.batches += other.batches;
        self.dispatched += other.dispatched;
        self.max_batch_observed = self.max_batch_observed.max(other.max_batch_observed);
        self.queue_waits.extend_from_slice(&other.queue_waits);
        self.qos.merge(&other.qos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn stats_percentiles_and_mean_batch() {
        let mut s = ServeStats::default();
        assert_eq!(s.queue_wait_percentile(0.5), None);
        assert_eq!(s.mean_batch(), 0.0);
        s.queue_waits = (1..=100).map(ms).collect();
        s.batches = 25;
        s.dispatched = 100;
        assert_eq!(s.queue_wait_percentile(0.0), Some(ms(1)));
        assert_eq!(s.queue_wait_percentile(0.5), Some(ms(51)));
        assert_eq!(s.queue_wait_percentile(1.0), Some(ms(100)));
        assert_eq!(s.mean_batch(), 4.0);
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
}
