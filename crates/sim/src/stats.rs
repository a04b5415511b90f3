//! Measurement utilities: a scalar accumulator and the state-occupancy
//! tracker used for the per-cluster execution-time breakdowns of Fig. 5B/C/D
//! (computation / communication / synchronization / sleep).

use crate::time::SimTime;

/// Streaming accumulator for a scalar series (count, sum, min, max, mean).
///
/// # Examples
/// ```
/// use aimc_sim::stats::Accumulator;
/// let mut a = Accumulator::new();
/// for x in [2.0, 4.0, 6.0] { a.add(x); }
/// assert_eq!(a.count(), 3);
/// assert_eq!(a.mean(), 4.0);
/// assert_eq!(a.min(), 2.0);
/// assert_eq!(a.max(), 6.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accumulator {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of samples; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample; +inf when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample; -inf when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Accumulator) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The mutually exclusive activity states tracked per cluster, mirroring the
/// categories of Fig. 5 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// IMA and/or CORES actively computing.
    Compute,
    /// Blocked on data movement (DMA in flight that gates progress).
    Communication,
    /// Per-tile orchestration: event waits, DMA/IMA programming, barriers.
    Synchronization,
    /// Idle with clock gated (nothing to do).
    Sleep,
}

impl Activity {
    /// All states, in reporting order.
    pub const ALL: [Activity; 4] = [
        Activity::Compute,
        Activity::Communication,
        Activity::Synchronization,
        Activity::Sleep,
    ];

    /// Stable lowercase name for CSV headers.
    pub fn name(self) -> &'static str {
        match self {
            Activity::Compute => "compute",
            Activity::Communication => "communication",
            Activity::Synchronization => "synchronization",
            Activity::Sleep => "sleep",
        }
    }

    fn index(self) -> usize {
        match self {
            Activity::Compute => 0,
            Activity::Communication => 1,
            Activity::Synchronization => 2,
            Activity::Sleep => 3,
        }
    }
}

/// Accumulates the time a component spends in each [`Activity`] state.
///
/// The tracker is driven by `set_state(now, state)` transitions; time between
/// transitions is attributed to the *previous* state. A final
/// [`ActivityTracker::finish`] closes the last interval.
///
/// # Examples
/// ```
/// use aimc_sim::stats::{Activity, ActivityTracker};
/// use aimc_sim::SimTime;
/// let mut t = ActivityTracker::new(SimTime::ZERO);
/// t.set_state(SimTime::from_ns(0), Activity::Compute);
/// t.set_state(SimTime::from_ns(70), Activity::Communication);
/// t.finish(SimTime::from_ns(100));
/// assert_eq!(t.time_in(Activity::Compute), SimTime::from_ns(70));
/// assert_eq!(t.time_in(Activity::Communication), SimTime::from_ns(30));
/// ```
#[derive(Debug, Clone)]
pub struct ActivityTracker {
    totals: [u64; 4], // picoseconds per state
    state: Activity,
    since: SimTime,
    finished: bool,
}

impl ActivityTracker {
    /// Creates a tracker starting in [`Activity::Sleep`] at `start`.
    pub fn new(start: SimTime) -> Self {
        ActivityTracker {
            totals: [0; 4],
            state: Activity::Sleep,
            since: start,
            finished: false,
        }
    }

    /// The current state.
    pub fn state(&self) -> Activity {
        self.state
    }

    /// Transitions to `state` at time `now`, attributing the elapsed interval
    /// to the previous state. Transitions to the current state are no-ops.
    ///
    /// # Panics
    /// Panics if `now` precedes the last transition (causality) or if the
    /// tracker was already finished.
    pub fn set_state(&mut self, now: SimTime, state: Activity) {
        assert!(!self.finished, "tracker already finished");
        assert!(
            now >= self.since,
            "activity transition moves backwards in time"
        );
        if state == self.state {
            return;
        }
        self.totals[self.state.index()] += (now - self.since).as_ps();
        self.state = state;
        self.since = now;
    }

    /// Closes the final interval at `end`. Idempotent-safe: may only be called
    /// once.
    pub fn finish(&mut self, end: SimTime) {
        assert!(!self.finished, "tracker already finished");
        assert!(end >= self.since);
        self.totals[self.state.index()] += (end - self.since).as_ps();
        self.finished = true;
    }

    /// Total time attributed to `a` so far (excluding the open interval).
    pub fn time_in(&self, a: Activity) -> SimTime {
        SimTime::from_ps(self.totals[a.index()])
    }

    /// Sum over all states (equals the observation window after `finish`).
    pub fn total(&self) -> SimTime {
        SimTime::from_ps(self.totals.iter().sum())
    }

    /// Fraction of the total attributed to `a`; 0.0 when nothing recorded.
    pub fn fraction(&self, a: Activity) -> f64 {
        let tot = self.total().as_ps();
        if tot == 0 {
            0.0
        } else {
            self.time_in(a).as_ps() as f64 / tot as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_basics() {
        let mut a = Accumulator::new();
        assert_eq!(a.mean(), 0.0);
        a.add(1.0);
        a.add(3.0);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 4.0);
        assert_eq!(a.mean(), 2.0);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 3.0);
    }

    #[test]
    fn accumulator_merge() {
        let mut a = Accumulator::new();
        a.add(1.0);
        let mut b = Accumulator::new();
        b.add(5.0);
        b.add(-2.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.max(), 5.0);
    }

    #[test]
    fn activity_tracker_attributes_intervals() {
        let mut t = ActivityTracker::new(SimTime::ZERO);
        t.set_state(SimTime::from_ns(10), Activity::Compute); // sleep 0..10
        t.set_state(SimTime::from_ns(25), Activity::Synchronization); // compute 10..25
        t.set_state(SimTime::from_ns(25), Activity::Synchronization); // no-op
        t.finish(SimTime::from_ns(30)); // sync 25..30
        assert_eq!(t.time_in(Activity::Sleep), SimTime::from_ns(10));
        assert_eq!(t.time_in(Activity::Compute), SimTime::from_ns(15));
        assert_eq!(t.time_in(Activity::Synchronization), SimTime::from_ns(5));
        assert_eq!(t.time_in(Activity::Communication), SimTime::ZERO);
        assert_eq!(t.total(), SimTime::from_ns(30));
        assert!((t.fraction(Activity::Compute) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn activity_tracker_rejects_time_travel() {
        let mut t = ActivityTracker::new(SimTime::from_ns(10));
        t.set_state(SimTime::from_ns(5), Activity::Compute);
    }

    #[test]
    fn activity_names_are_stable() {
        let names: Vec<&str> = Activity::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["compute", "communication", "synchronization", "sleep"]
        );
    }
}
