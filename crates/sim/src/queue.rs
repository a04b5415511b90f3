//! The discrete-event queue at the heart of the simulator.
//!
//! [`OrderedEventQueue`] pops events in time order and equal-time events in
//! **key order**: every payload encodes itself as one `u64` ([`EventKey`]),
//! and the integer order of the keys is the order in which equal-time events
//! pop. The pop sequence is therefore a pure function of the *set* of
//! inserted `(time, event)` pairs, independent of insertion order. Callers
//! state their tie-break rules in the key layout — the pipeline simulator
//! keys its events by `(stage, event)`, the fabric serves link releases
//! before arrivals — so a run never depends on the order in which handlers
//! happened to push.
//!
//! Determinism matters — every figure in the evaluation must be exactly
//! reproducible run-to-run, and tie-breaking by heap order would make results
//! depend on allocation details.
//!
//! The queue is intentionally payload-generic: the platform layer
//! (`aimc-runtime`) defines its own event enum, key layout and dispatch loop,
//! keeping this kernel reusable for other architectures. A heap entry is one
//! `u128`, the time above the key, so ordering two events is one integer
//! compare whatever the payload.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

/// An event payload that encodes itself as one integer key.
///
/// Equal-time events pop in ascending key order, so the layout is the
/// tie-break rule: it must order events as the model needs, and two
/// different events must never share a key. `from_key` inverts `key`:
/// `E::from_key(e.key()) == e` for every event the model can create. A
/// layout whose fields can overflow their bits must be guarded by its
/// caller, since release builds do not check the shifts.
///
/// # Examples
/// ```
/// use aimc_sim::EventKey;
///
/// /// Releases sort before arrivals; arrivals sort by port.
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Ev { Release, Arrive { port: u32 } }
///
/// impl EventKey for Ev {
///     fn key(self) -> u64 {
///         match self {
///             Ev::Release => 0,
///             Ev::Arrive { port } => 1 << 32 | u64::from(port),
///         }
///     }
///     fn from_key(key: u64) -> Self {
///         match key >> 32 {
///             0 => Ev::Release,
///             _ => Ev::Arrive { port: key as u32 },
///         }
///     }
/// }
///
/// let ev = Ev::Arrive { port: 7 };
/// assert_eq!(Ev::from_key(ev.key()), ev);
/// assert!(Ev::Release.key() < ev.key());
/// ```
pub trait EventKey: Copy {
    /// The integer this event sorts by among equal-time events.
    fn key(self) -> u64;
    /// The event that `key` encodes.
    fn from_key(key: u64) -> Self;
}

/// A bare integer is its own key.
impl EventKey for u64 {
    #[inline]
    fn key(self) -> u64 {
        self
    }
    #[inline]
    fn from_key(key: u64) -> Self {
        key
    }
}

/// A discrete-event queue whose pop order is a pure function of the inserted
/// multiset.
///
/// Events pop by `(time, key)` ascending — equal-time events in key order,
/// **not** insertion order. Two identical `(time, key)` entries are
/// indistinguishable, so their relative order is unobservable. Consequently
/// any interleaving of `push` calls replays identically.
///
/// # Examples
/// ```
/// use aimc_sim::{OrderedEventQueue, SimTime};
/// let mut a = OrderedEventQueue::new();
/// let mut b = OrderedEventQueue::new();
/// a.push(SimTime::from_ns(5), 9u64);
/// a.push(SimTime::from_ns(5), 1u64);
/// b.push(SimTime::from_ns(5), 1u64); // reversed insertion order
/// b.push(SimTime::from_ns(5), 9u64);
/// assert_eq!(a.pop(), b.pop()); // both: (5 ns, 1)
/// assert_eq!(a.pop(), b.pop()); // both: (5 ns, 9)
/// ```
pub struct OrderedEventQueue<E: EventKey> {
    /// One `u128` per event, the time in picoseconds above the key, so an
    /// integer compare orders by `(time, key)`; `Reverse` turns the
    /// max-heap into a min-heap.
    heap: BinaryHeap<Reverse<u128>>,
    now: SimTime,
    popped: u64,
    event: PhantomData<E>,
}

impl<E: EventKey> Default for OrderedEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: EventKey> OrderedEventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        OrderedEventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            popped: 0,
            event: PhantomData,
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
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {} but now is {}",
            at,
            self.now
        );
        self.heap.push(Reverse(
            u128::from(at.as_ps()) << 64 | u128::from(event.key()),
        ));
    }

    /// Pops the earliest event, advancing the local time to it.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        let time = SimTime::from_ps((entry >> 64) as u64);
        debug_assert!(time >= self.now);
        self.now = time;
        self.popped += 1;
        Some((time, E::from_key(entry as u64)))
    }

    /// Pops the earliest event only if it is strictly before `horizon` — the
    /// primitive of a windowed event loop: everything before the window
    /// boundary is processed now, events at or past it belong to the next
    /// window.
    #[inline]
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t < horizon => self.pop(),
            _ => None,
        }
    }

    /// Returns the timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .peek()
            .map(|Reverse(entry)| SimTime::from_ps((entry >> 64) as u64))
    }
}

impl<E: EventKey> std::fmt::Debug for OrderedEventQueue<E> {
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
        q.push(SimTime::from_ns(30), 1u64);
        q.push(SimTime::from_ns(10), 3);
        q.push(SimTime::from_ns(20), 2);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn now_tracks_popped_time() {
        let mut q = OrderedEventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_ns(42), 0u64);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(42));
        assert_eq!(q.events_processed(), 1);
    }

    fn drain<E: EventKey>(mut q: OrderedEventQueue<E>) -> Vec<(SimTime, E)> {
        std::iter::from_fn(move || q.pop()).collect()
    }

    #[test]
    fn ordered_queue_ties_break_by_key_not_insertion() {
        let mut q = OrderedEventQueue::new();
        q.push(SimTime::from_ns(7), 26u64);
        q.push(SimTime::from_ns(7), 1);
        q.push(SimTime::from_ns(3), 99);
        let order: Vec<u64> = drain(q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![99, 1, 26]);
    }

    #[test]
    fn ordered_queue_pop_before_is_exclusive() {
        let mut q = OrderedEventQueue::new();
        q.push(SimTime::from_ns(10), 1u64);
        q.push(SimTime::from_ns(20), 2u64);
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
        q.push(SimTime::from_ns(10), 0u64);
        q.pop();
        q.push(SimTime::from_ns(5), 0u64);
    }

    #[test]
    fn ordered_queue_debug_is_nonempty() {
        let q: OrderedEventQueue<u64> = OrderedEventQueue::new();
        assert!(!format!("{:?}", q).is_empty());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// A two-variant event with a derived order, as model events are:
        /// a `Low` sorts before every `High`, then by field.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Ev {
            Low(u8),
            High(u8),
        }

        impl EventKey for Ev {
            fn key(self) -> u64 {
                match self {
                    Ev::Low(x) => u64::from(x),
                    Ev::High(x) => 1 << 8 | u64::from(x),
                }
            }
            fn from_key(key: u64) -> Self {
                match key >> 8 {
                    0 => Ev::Low(key as u8),
                    _ => Ev::High(key as u8),
                }
            }
        }

        fn ev(raw: u16) -> Ev {
            if raw & 1 == 0 {
                Ev::Low((raw >> 1) as u8)
            } else {
                Ev::High((raw >> 1) as u8)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The pop order of an [`OrderedEventQueue`] is a pure function
            /// of the inserted multiset: inserting the same `(time, event)`
            /// pairs ascending, descending, or interleaved (even-index
            /// entries first) yields bit-identical pop sequences, sorted by
            /// `(time, event)` in the event's derived order.
            #[test]
            fn ordered_pop_is_insertion_order_independent(
                times in proptest::collection::vec(0u64..50, 1..40),
                raws in proptest::collection::vec(0u16..16, 1..40),
            ) {
                let entries: Vec<(SimTime, Ev)> = times
                    .iter()
                    .zip(&raws)
                    .map(|(&t, &r)| (SimTime::from_ns(t), ev(r)))
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

                let fill = |src: &[(SimTime, Ev)]| {
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
                prop_assert_eq!(reference, sorted);
            }
        }
    }
}
