//! Order statistics over the samples a run collects.

use std::time::Duration;

/// Samples a tail percentile must leave strictly beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentile every workload reports as `latency_ms_tail`. On a shared
/// 2-vCPU host the serving workload's p95 and p99 moved by 80% and 3x
/// between quiet and contended periods, its p90 by half that; p90 leaves
/// at least ten samples beyond it from 100 operations on.
pub const TAIL: Permille = Permille(900);

/// A percentile in per-mille (`Permille(900)` is p90), so every rank is an
/// exact integer and no float rounding decides which sample is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Permille(pub u32);

impl Permille {
    /// The 1-based nearest rank of this percentile among `n` samples: the
    /// smallest rank `r` with `r / n >= p`.
    pub fn rank(self, n: usize) -> usize {
        let r = (n as u64 * u64::from(self.0)).div_ceil(1000);
        (r as usize).max(1)
    }

    /// Samples strictly beyond the percentile's rank among `n`.
    pub fn beyond(self, n: usize) -> usize {
        n.saturating_sub(self.rank(n))
    }

    /// The fewest samples for which at least [`MIN_BEYOND`] lie beyond the
    /// percentile.
    pub fn min_samples(self) -> usize {
        (MIN_BEYOND..)
            .find(|&n| self.beyond(n) >= MIN_BEYOND)
            .expect("a percentile below 100 leaves samples beyond it")
    }

    /// `p90`, `p99`, `p99.9`, ...
    pub fn label(self) -> String {
        if self.0.is_multiple_of(10) {
            format!("p{}", self.0 / 10)
        } else {
            format!("p{}.{}", self.0 / 10, self.0 % 10)
        }
    }
}

/// Per-operation latencies in a buffer allocated once, before timing, for
/// the run's fixed operation count — so the benchmark's own memory does not
/// grow with the program's speed. Stored as saturating `u32` nanoseconds
/// (4.29 s ceiling), half the footprint of `f64`.
#[derive(Debug, Default)]
pub struct Latencies {
    ns: Vec<u32>,
}

impl Latencies {
    /// Room for `n` samples; every page is touched now, not while timing.
    pub fn with_capacity(n: usize) -> Self {
        let mut ns = vec![u32::MAX; n];
        ns.clear();
        Latencies { ns }
    }

    /// Records one latency.
    pub fn push(&mut self, d: Duration) {
        self.ns
            .push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    /// The samples in ascending order, in milliseconds.
    pub fn sorted_ms(&self) -> Vec<f64> {
        let mut ns = self.ns.clone();
        ns.sort_unstable();
        ns.into_iter().map(|v| f64::from(v) / 1e6).collect()
    }
}

/// The nearest-rank percentile `p` of ascending `sorted` samples (NaN
/// when there are none).
pub fn percentile(sorted: &[f64], p: Permille) -> f64 {
    sorted
        .get(p.rank(sorted.len()) - 1)
        .copied()
        .unwrap_or(f64::NAN)
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Bitwise equality of two logit sets: the program's contract is
/// bit-identity, so `-0.0 != 0.0` and NaN payloads count.
pub fn bit_identical(a: &[aimc_platform::dnn::Tensor], b: &[aimc_platform::dnn::Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(y.data().iter().map(|v| v.to_bits()))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        for (p, n) in [(900, 100), (950, 200), (990, 1000), (999, 10_000)] {
            let p = Permille(p);
            assert_eq!(p.min_samples(), n, "{}", p.label());
            assert!(p.beyond(n) >= MIN_BEYOND);
            assert!(p.beyond(n - 1) < MIN_BEYOND);
        }
        assert_eq!(Permille(900).beyond(100), 10);
        assert_eq!(Permille(900).beyond(111), 11);
        assert_eq!(Permille(990).beyond(1_200_000), 12_000);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, Permille(500)), 50.0);
        assert_eq!(percentile(&s, Permille(900)), 90.0);
        assert_eq!(percentile(&s, Permille(990)), 99.0);
        assert_eq!(percentile(&[7.0], Permille(990)), 7.0);
        assert!(percentile(&[], Permille(500)).is_nan());
        assert_eq!(Permille(999).label(), "p99.9");
        assert_eq!(Permille(900).label(), "p90");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn latency_buffer_is_preallocated_and_saturates() {
        let mut l = Latencies::with_capacity(3);
        let cap = l.ns.capacity();
        l.push(Duration::from_micros(2));
        l.push(Duration::from_secs(10));
        l.push(Duration::from_micros(1));
        assert_eq!(l.ns.capacity(), cap);
        assert_eq!(l.sorted_ms(), vec![0.001, 0.002, f64::from(u32::MAX) / 1e6]);
    }
}
