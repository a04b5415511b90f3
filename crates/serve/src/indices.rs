//! One model group's global stream indices, issued one at a time.
//!
//! The allocator preserves the property the fleet invariance rests on:
//! **indices are issued lowest-first**. An index released by a request
//! that never reached a shard (shed, refused, or failed) is re-issued
//! before any fresh index, so the stamped stream is exactly `0, 1, 2, …`
//! in submission order — request *k* always evaluates at coordinate *k*,
//! which is what keeps any fleet bit-identical to a solo session.

use std::collections::BTreeSet;

/// Issues global stream indices lowest-first, with release (see the
/// module docs). The default value starts the stream at index 0, so a
/// rewind is an assignment of `StreamIndices::default()`.
#[derive(Debug, Default)]
pub(crate) struct StreamIndices {
    /// First index never issued since the last rewind.
    next: u64,
    /// Released indices below `next` that are not currently issued.
    free: BTreeSet<u64>,
}

impl StreamIndices {
    /// Issues the lowest index not currently issued.
    pub(crate) fn claim(&mut self) -> u64 {
        self.free.pop_first().unwrap_or_else(|| {
            let index = self.next;
            self.next += 1;
            index
        })
    }

    /// Returns an issued index, so the next claim re-issues it.
    pub(crate) fn release(&mut self, index: u64) {
        debug_assert!(index < self.next, "index {index} was never issued");
        let fresh = self.free.insert(index);
        debug_assert!(fresh, "index {index} released twice");
    }

    /// Indices currently issued (the stamped span of the stream).
    pub(crate) fn outstanding(&self) -> u64 {
        self.next - self.free.len() as u64
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The lowest index not currently issued — what a lowest-first
    /// allocator must hand out next.
    fn lowest_free(outstanding: &BTreeSet<u64>) -> u64 {
        (0u64..)
            .find(|i| !outstanding.contains(i))
            .expect("finite set")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of claim/release/rewind against a
        /// BTreeSet-of-issued-indices reference model: every claim
        /// returns the lowest free index (lowest-first), no index is ever
        /// issued twice while outstanding, and `outstanding()` agrees with
        /// the model after every step.
        ///
        /// Each op is a raw tuple `(kind, sel)` decoded at apply time —
        /// kinds 0–3 claim, 4–7 release the `sel`-th currently issued
        /// index (so every release is valid by construction), 8 rewinds.
        #[test]
        fn allocator_matches_a_set_model(
            ops in prop::collection::vec((0u32..9, any::<usize>()), 1..120),
        ) {
            let mut a = StreamIndices::default();
            let mut outstanding: BTreeSet<u64> = BTreeSet::new();
            for (kind, sel) in ops {
                match kind {
                    0..=3 => {
                        let index = a.claim();
                        prop_assert_eq!(
                            index,
                            lowest_free(&outstanding),
                            "claims are lowest-first"
                        );
                        prop_assert!(outstanding.insert(index), "index {} double-issued", index);
                    }
                    4..=7 => {
                        if outstanding.is_empty() {
                            continue;
                        }
                        let index = *outstanding
                            .iter()
                            .nth(sel % outstanding.len())
                            .expect("sel is in range");
                        a.release(index);
                        outstanding.remove(&index);
                    }
                    _ => {
                        a = StreamIndices::default();
                        outstanding.clear();
                    }
                }
                prop_assert_eq!(a.outstanding(), outstanding.len() as u64);
            }
        }
    }
}
