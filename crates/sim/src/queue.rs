//! The discrete-event queue at the heart of the simulator.
//!
//! [`OrderedEventQueue`] pops events in time order and equal-time events in
//! **payload order** (`E: Ord`): the pop sequence is a pure function of the
//! *set* of inserted `(time, event)` pairs, independent of insertion order.
//! Callers state their tie-break rules in the payload's `Ord` — the pipeline
//! simulator keys its events by `(stage, event)`, the fabric serves link
//! releases before arrivals — so a run never depends on the order in which
//! handlers happened to push.
//!
//! Determinism matters — every figure in the evaluation must be exactly
//! reproducible run-to-run, and tie-breaking by heap order would make results
//! depend on allocation details.
//!
//! The queue is intentionally payload-generic: the platform layer
//! (`aimc-runtime`) defines its own event enum and dispatch loop, keeping this
//! kernel reusable for other architectures.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Internal heap entry; ordered by
/// `(time, event, seq)` ascending. `seq` only separates *identical*
/// `(time, event)` pairs, so the pop order remains insertion-independent.
struct Entry<E> {
    time: SimTime,
    event: E,
    seq: u64,
}

impl<E: Ord> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.event == other.event && self.seq == other.seq
    }
}
impl<E: Ord> Eq for Entry<E> {}
impl<E: Ord> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E: Ord> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.event.cmp(&self.event))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event queue whose pop order is a pure function of the inserted
/// multiset.
///
/// Equal-time events pop in the payload's `Ord` order, **not** insertion
/// order; two identical `(time, event)` entries pop in insertion order, which
/// is unobservable because the entries are indistinguishable. Consequently
/// any interleaving of `push` calls replays identically.
///
/// # Examples
/// ```
/// use aimc_sim::{OrderedEventQueue, SimTime};
/// let mut a = OrderedEventQueue::new();
/// let mut b = OrderedEventQueue::new();
/// a.push(SimTime::from_ns(5), "x");
/// a.push(SimTime::from_ns(5), "a");
/// b.push(SimTime::from_ns(5), "a"); // reversed insertion order
/// b.push(SimTime::from_ns(5), "x");
/// assert_eq!(a.pop(), b.pop()); // both: (5 ns, "a")
/// assert_eq!(a.pop(), b.pop()); // both: (5 ns, "x")
/// ```
#[derive(Default)]
pub struct OrderedEventQueue<E: Ord> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E: Ord> OrderedEventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        OrderedEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The timestamp of the most recently popped event (the local "now").
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far (a cheap progress / cost metric).
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current simulation time: causality
    /// violations are always bugs in the model, never recoverable conditions.
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {} but now is {}",
            at,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            event,
            seq,
        });
    }

    /// Pops the earliest event, advancing the local time to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.event))
    }

    /// Pops the earliest event only if it is strictly before `horizon` — the
    /// primitive of a windowed event loop: everything before the window
    /// boundary is processed now, events at or past it belong to the next
    /// window.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.heap.peek() {
            Some(e) if e.time < horizon => self.pop(),
            _ => None,
        }
    }

    /// Returns the timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }
}

impl<E: Ord> std::fmt::Debug for OrderedEventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedEventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = OrderedEventQueue::new();
        q.push(SimTime::from_ns(30), 1);
        q.push(SimTime::from_ns(10), 3);
        q.push(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn now_tracks_popped_time() {
        let mut q = OrderedEventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_ns(42), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(42));
        assert_eq!(q.events_processed(), 1);
    }

    fn drain<E: Ord>(mut q: OrderedEventQueue<E>) -> Vec<(SimTime, E)> {
        std::iter::from_fn(move || q.pop()).collect()
    }

    #[test]
    fn ordered_queue_ties_break_by_payload_not_insertion() {
        let mut q = OrderedEventQueue::new();
        q.push(SimTime::from_ns(7), "zeta");
        q.push(SimTime::from_ns(7), "alpha");
        q.push(SimTime::from_ns(3), "late-pushed-early-time");
        let order: Vec<&str> = drain(q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["late-pushed-early-time", "alpha", "zeta"]);
    }

    #[test]
    fn ordered_queue_pop_before_is_exclusive() {
        let mut q = OrderedEventQueue::new();
        q.push(SimTime::from_ns(10), 1u32);
        q.push(SimTime::from_ns(20), 2u32);
        assert_eq!(
            q.pop_before(SimTime::from_ns(20)),
            Some((SimTime::from_ns(10), 1))
        );
        // The horizon itself is out of the window.
        assert_eq!(q.pop_before(SimTime::from_ns(20)), None);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(20)));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn ordered_queue_rejects_past_events() {
        let mut q = OrderedEventQueue::new();
        q.push(SimTime::from_ns(10), ());
        q.pop();
        q.push(SimTime::from_ns(5), ());
    }

    #[test]
    fn ordered_queue_debug_is_nonempty() {
        let q: OrderedEventQueue<u8> = OrderedEventQueue::new();
        assert!(!format!("{:?}", q).is_empty());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The pop order of an [`OrderedEventQueue`] is a pure function
            /// of the inserted multiset: inserting the same `(time, event)`
            /// pairs ascending, descending, or interleaved (even-index
            /// entries first) yields bit-identical pop sequences.
            #[test]
            fn ordered_pop_is_insertion_order_independent(
                times in proptest::collection::vec(0u64..50, 1..40),
                payloads in proptest::collection::vec(0u8..8, 1..40),
            ) {
                let entries: Vec<(SimTime, u8)> = times
                    .iter()
                    .zip(&payloads)
                    .map(|(&t, &p)| (SimTime::from_ns(t), p))
                    .collect();
                let mut sorted = entries.clone();
                sorted.sort();
                let mut reversed = sorted.clone();
                reversed.reverse();
                let interleaved: Vec<_> = entries
                    .iter()
                    .step_by(2)
                    .chain(entries.iter().skip(1).step_by(2))
                    .copied()
                    .collect();

                let fill = |src: &[(SimTime, u8)]| {
                    let mut q = OrderedEventQueue::new();
                    for &(t, e) in src {
                        q.push(t, e);
                    }
                    drain(q)
                };
                let reference = fill(&sorted);
                prop_assert_eq!(fill(&entries), reference.clone());
                prop_assert_eq!(fill(&reversed), reference.clone());
                prop_assert_eq!(fill(&interleaved), reference.clone());
                // And the sequence is itself sorted by (time, payload).
                let mut expect = sorted;
                expect.sort();
                prop_assert_eq!(reference, expect);
            }
        }
    }
}
