//! The programmed crossbar: weight → conductance mapping, analog MVM with
//! device noise and converter quantization, and conductance drift.
//!
//! ## Model
//!
//! Each signed weight `w` is stored as a *differential* pair of PCM
//! conductances `(g⁺, g⁻)` so that the effective weight is `g⁺ − g⁻`. We map
//! the weight range `[-w_max, +w_max]` linearly onto `[-g_max, +g_max]` with
//! `g_max = 1` in normalized units, quantize to the `weight_bits` target
//! levels reachable by iterative programming, and perturb each device with
//! Gaussian programming noise (`prog_noise_sigma · g_max`).
//!
//! An MVM clips and quantizes the input vector through the DACs, accumulates
//! `Σ xᵢ·gᵢⱼ` per bit line (physically Kirchhoff current summation — exact in
//! the analog domain, so we use f64 accumulation), adds per-bit-line read
//! noise that grows with the number of active rows (uncorrelated per-device
//! noise adds in quadrature), and finally clips + quantizes through the ADCs.

use crate::config::XbarConfig;
use crate::noise::gaussian;
use core::fmt;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors returned by crossbar programming and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XbarError {
    /// The weight matrix does not fit the configured array.
    DoesNotFit {
        /// Requested rows.
        rows: usize,
        /// Requested cols.
        cols: usize,
        /// Available rows.
        max_rows: usize,
        /// Available cols.
        max_cols: usize,
    },
    /// The flat weight slice length is not `rows * cols`.
    LengthMismatch {
        /// Provided length.
        got: usize,
        /// Expected length.
        expected: usize,
    },
    /// The input vector length does not match the programmed rows.
    InputLength {
        /// Provided length.
        got: usize,
        /// Expected length.
        expected: usize,
    },
    /// The configuration failed validation.
    BadConfig(String),
}

impl fmt::Display for XbarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XbarError::DoesNotFit {
                rows,
                cols,
                max_rows,
                max_cols,
            } => write!(
                f,
                "weight block {rows}x{cols} does not fit {max_rows}x{max_cols} array"
            ),
            XbarError::LengthMismatch { got, expected } => {
                write!(f, "weight slice has {got} elements, expected {expected}")
            }
            XbarError::InputLength { got, expected } => {
                write!(f, "input vector has {got} elements, expected {expected}")
            }
            XbarError::BadConfig(msg) => write!(f, "invalid crossbar config: {msg}"),
        }
    }
}

impl std::error::Error for XbarError {}

/// A crossbar array with weights programmed into (differential) conductances.
///
/// Construct with [`Crossbar::program`]; evaluate with
/// [`Crossbar::mvm_batch_into_with`]. The stored state is the *noisy,
/// quantized* conductance image — exactly what a real array would hold
/// after program-and-verify.
///
/// ## Read-noise streams and thread safety
///
/// Evaluation takes `&self` and is `Sync`: read noise is *not* drawn from a
/// caller-threaded RNG but from a per-call stream derived as
/// `derive(noise_seed, invocation)` (see [`crate::stream`]), where
/// `noise_seed` is fixed at programming time and `invocation` is the
/// explicit index the caller passes with each patch. Noise therefore
/// depends only on *which* evaluation this is, never on what other tiles or
/// threads did first — concurrent tile evaluation is bit-identical to
/// serial.
///
/// # Examples
/// ```
/// use aimc_xbar::{Crossbar, MvmScratch, XbarConfig};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let w = vec![1.0, -0.5, 0.25, 0.125]; // 2x2 row-major
/// let xb = Crossbar::program(&XbarConfig::ideal(2, 2), &w, 2, 2, &mut rng)?;
/// // One patch at invocation 0.
/// let mut y = [0.0f32; 2];
/// xb.mvm_batch_into_with(&[1.0, 1.0], &mut y, &[0], &mut MvmScratch::new())?;
/// assert!((y[0] - 1.25).abs() < 1e-3);
/// assert!((y[1] - (-0.375)).abs() < 1e-3);
/// # Ok::<(), aimc_xbar::XbarError>(())
/// ```
#[derive(Debug)]
pub struct Crossbar {
    cfg: XbarConfig,
    /// Effective conductances `g⁺ − g⁻`, row-major `rows_used × cols_used`,
    /// in normalized units (`g_max = 1`), preceded by `g_off` zero pads
    /// chosen at programming time so the data starts 64-byte aligned (the
    /// MVM kernels stream this as SIMD loads).
    g_eff: Vec<f64>,
    /// Leading pad length of `g_eff` (see above). Kept as a plain offset so
    /// clones — whose fresh allocation may land elsewhere — stay correct,
    /// merely losing the alignment guarantee.
    g_off: usize,
    rows_used: usize,
    cols_used: usize,
    /// Weight scale: `w = g_eff * w_scale`.
    w_scale: f64,
    /// Root of this array's read-noise streams (fixed at program time).
    noise_seed: u64,
    /// Evaluations so far — atomic so evaluation is `&self` and tiles can
    /// be evaluated concurrently without losing energy-accounting counts.
    mvm_count: AtomicU64,
}

impl Clone for Crossbar {
    fn clone(&self) -> Self {
        Crossbar {
            cfg: self.cfg.clone(),
            g_eff: self.g_eff.clone(),
            g_off: self.g_off,
            rows_used: self.rows_used,
            cols_used: self.cols_used,
            w_scale: self.w_scale,
            noise_seed: self.noise_seed,
            mvm_count: AtomicU64::new(self.mvm_count.load(Ordering::Relaxed)),
        }
    }
}

impl Crossbar {
    /// Programs a `rows × cols` row-major weight block into the array.
    ///
    /// The weight scale is chosen per-array as `max |w|` (symmetric, as the
    /// paper's int8 deployment would); pass weights already scaled per layer
    /// if a shared scale across multiple arrays is needed.
    ///
    /// # Errors
    /// Returns [`XbarError`] if the block exceeds the array geometry, the
    /// slice length is inconsistent, or the config is invalid.
    pub fn program<R: Rng>(
        cfg: &XbarConfig,
        weights: &[f32],
        rows: usize,
        cols: usize,
        rng: &mut R,
    ) -> Result<Self, XbarError> {
        cfg.validate().map_err(XbarError::BadConfig)?;
        if rows > cfg.rows || cols > cfg.cols {
            return Err(XbarError::DoesNotFit {
                rows,
                cols,
                max_rows: cfg.rows,
                max_cols: cfg.cols,
            });
        }
        if weights.len() != rows * cols {
            return Err(XbarError::LengthMismatch {
                got: weights.len(),
                expected: rows * cols,
            });
        }

        // The read-noise stream root is drawn from the programming RNG, so a
        // tile's entire noise behaviour — programming *and* read — derives
        // from the one seed its programming RNG was built from.
        let noise_seed = rng.next_u64();

        let w_max = weights.iter().fold(0.0f64, |m, &w| m.max(w.abs() as f64));
        let w_scale = if w_max > 0.0 { w_max } else { 1.0 };

        let levels = (1u64 << cfg.weight_bits) - 1; // per polarity

        // Capacity covers data plus the worst-case alignment pad, so the
        // pointer (and with it the alignment) never moves after this.
        let mut g_eff: Vec<f64> = Vec::with_capacity(rows * cols + 7);
        let g_off = g_eff.as_ptr().align_offset(64).min(7);
        g_eff.resize(g_off, 0.0);
        for &w in weights {
            let target = (w as f64 / w_scale).clamp(-1.0, 1.0);
            // Differential mapping: only one device of the pair carries the
            // weight magnitude, the other is RESET (g ≈ 0).
            let mag = target.abs();
            let q = (mag * levels as f64).round() / levels as f64;
            let mut g = q.copysign(target);
            if cfg.prog_noise_sigma > 0.0 {
                // Both devices of the pair contribute programming error.
                g += gaussian(rng, cfg.prog_noise_sigma) + gaussian(rng, cfg.prog_noise_sigma);
            }
            g_eff.push(g.clamp(-1.0, 1.0));
        }

        Ok(Crossbar {
            cfg: cfg.clone(),
            g_eff,
            g_off,
            rows_used: rows,
            cols_used: cols,
            w_scale,
            noise_seed,
            mvm_count: AtomicU64::new(0),
        })
    }

    /// The configuration this array was programmed with.
    pub fn config(&self) -> &XbarConfig {
        &self.cfg
    }

    /// Rows actually occupied by weights.
    pub fn rows_used(&self) -> usize {
        self.rows_used
    }

    /// Columns actually occupied by weights.
    pub fn cols_used(&self) -> usize {
        self.cols_used
    }

    /// Fraction of cross points holding useful weights — the "local mapping"
    /// utilization of Fig. 6.
    pub fn utilization(&self) -> f64 {
        (self.rows_used * self.cols_used) as f64 / (self.cfg.rows * self.cfg.cols) as f64
    }

    /// The weight scale such that `w = g_eff · w_scale`.
    pub fn weight_scale(&self) -> f64 {
        self.w_scale
    }

    /// Number of MVMs evaluated so far (for energy accounting).
    pub fn mvm_count(&self) -> u64 {
        self.mvm_count.load(Ordering::Relaxed)
    }

    /// The root seed of this array's read-noise streams (fixed at program
    /// time; exposed for diagnostics and replay tooling).
    pub fn noise_seed(&self) -> u64 {
        self.noise_seed
    }

    /// Analog matrix-vector multiplications `y = Wᵀ·x` of
    /// `k = invocations.len()` patches against this array in one call.
    ///
    /// `xs` holds the patches back to back (`k · rows_used`, in the
    /// normalized units used at programming time); `out` receives the
    /// results back to back (`k · cols_used`, in weight·activation units:
    /// the scales are folded back in, as the digital requantization after
    /// the ADC would). Patch `p` draws its read noise from the stream of
    /// `invocations[p]` — the executors pass each MVM's place in the
    /// workload, so no schedule (thread count, tile interleaving, batch
    /// splits) can change a result.
    ///
    /// Each patch is **bit-identical** to a one-patch call with the same
    /// patch and invocation index, which runs the single-patch kernel (see
    /// [`crate::kernel`] on why the lock-step accumulation preserves every
    /// bit). Batching raises arithmetic intensity — each conductance row
    /// fetched from cache feeds [`crate::kernel::DAC_BATCH`] accumulator
    /// chains — so the executors' convolution loops batch whenever several
    /// patches target the same tile. Each patch counts once in
    /// [`Crossbar::mvm_count`]; a rejected call counts nothing.
    ///
    /// # Errors
    /// Returns [`XbarError::InputLength`] if `xs` or `out` is not `k`
    /// patches long.
    pub fn mvm_batch_into_with(
        &self,
        xs: &[f32],
        out: &mut [f32],
        invocations: &[u64],
        scratch: &mut crate::kernel::MvmScratch,
    ) -> Result<(), XbarError> {
        let k = invocations.len();
        if xs.len() != k * self.rows_used {
            return Err(XbarError::InputLength {
                got: xs.len(),
                expected: k * self.rows_used,
            });
        }
        if out.len() != k * self.cols_used {
            return Err(XbarError::InputLength {
                got: out.len(),
                expected: k * self.cols_used,
            });
        }
        self.count_mvms(k as u64);
        crate::kernel::dac_packed_batch(self, xs, out, invocations, scratch);
        Ok(())
    }

    /// Applies conductance drift for `t_hours` of elapsed time since
    /// programming: `g ← g · (t/t₀)^(−ν)` with `t₀ = 1 h`.
    ///
    /// Drift is deterministic and affects magnitude only; `t_hours ≤ 1`
    /// leaves the state unchanged.
    pub fn apply_drift(&mut self, t_hours: f64) {
        if t_hours <= 1.0 || self.cfg.drift_nu == 0.0 {
            return;
        }
        let factor = t_hours.powf(-self.cfg.drift_nu);
        for g in self.g_eff.iter_mut() {
            *g *= factor;
        }
    }

    /// Counts `k` evaluations for energy accounting (an invocation index,
    /// not this count, selects each evaluation's noise).
    pub(crate) fn count_mvms(&self, k: u64) {
        self.mvm_count.fetch_add(k, Ordering::Relaxed);
    }

    /// The full effective conductance image, row-major
    /// `rows_used × cols_used` (the packed kernels' working set).
    pub(crate) fn g_all(&self) -> &[f64] {
        &self.g_eff[self.g_off..]
    }

    /// Reads back the effective stored weight at `(row, col)` (diagnostics,
    /// weight-map dumps).
    ///
    /// # Panics
    /// Panics if the indices are out of the programmed block.
    pub fn stored_weight(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.rows_used && col < self.cols_used,
            "index out of programmed block"
        );
        (self.g_eff[self.g_off + row * self.cols_used + col] * self.w_scale) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MvmScratch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// One patch through [`Crossbar::mvm_batch_into_with`] at `invocation`.
    fn mvm_at(xb: &Crossbar, x: &[f32], invocation: u64) -> Result<Vec<f32>, XbarError> {
        let mut y = vec![0.0f32; xb.cols_used()];
        xb.mvm_batch_into_with(x, &mut y, &[invocation], &mut MvmScratch::new())?;
        Ok(y)
    }

    /// Exact reference mat-vec for comparison.
    fn ref_mvm(w: &[f32], rows: usize, cols: usize, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; cols];
        for r in 0..rows {
            for c in 0..cols {
                y[c] += w[r * cols + c] * x[r];
            }
        }
        y
    }

    #[test]
    fn ideal_array_matches_reference() {
        let mut rng = rng();
        let rows = 16;
        let cols = 8;
        let w: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 37 % 64) as f32 - 32.0) / 32.0)
            .collect();
        let xb =
            Crossbar::program(&XbarConfig::ideal(rows, cols), &w, rows, cols, &mut rng).unwrap();
        let x: Vec<f32> = (0..rows).map(|i| ((i % 8) as f32 - 4.0) / 4.0).collect();
        let y = mvm_at(&xb, &x, 0).unwrap();
        let yref = ref_mvm(&w, rows, cols, &x);
        for (a, b) in y.iter().zip(&yref) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn partial_block_in_bigger_array() {
        let mut rng = rng();
        let cfg = XbarConfig::ideal(256, 256);
        let w = vec![0.5f32; 10 * 3];
        let xb = Crossbar::program(&cfg, &w, 10, 3, &mut rng).unwrap();
        assert_eq!(xb.rows_used(), 10);
        assert_eq!(xb.cols_used(), 3);
        assert!((xb.utilization() - 30.0 / 65536.0).abs() < 1e-12);
        let y = mvm_at(&xb, &[1.0; 10], 0).unwrap();
        assert_eq!(y.len(), 3);
        for v in y {
            assert!((v - 5.0).abs() < 1e-2);
        }
    }

    #[test]
    fn rejects_oversized_blocks() {
        let mut rng = rng();
        let cfg = XbarConfig::ideal(4, 4);
        let w = vec![0.0f32; 5 * 4];
        let err = Crossbar::program(&cfg, &w, 5, 4, &mut rng).unwrap_err();
        assert!(matches!(err, XbarError::DoesNotFit { .. }));
    }

    #[test]
    fn rejects_wrong_weight_length() {
        let mut rng = rng();
        let cfg = XbarConfig::ideal(4, 4);
        let err = Crossbar::program(&cfg, &[0.0; 3], 2, 2, &mut rng).unwrap_err();
        assert_eq!(
            err,
            XbarError::LengthMismatch {
                got: 3,
                expected: 4
            }
        );
    }

    #[test]
    fn rejects_wrong_input_length() {
        let mut rng = rng();
        let cfg = XbarConfig::ideal(4, 2);
        let xb = Crossbar::program(&cfg, &[0.1; 8], 4, 2, &mut rng).unwrap();
        let err = mvm_at(&xb, &[0.0; 3], 0).unwrap_err();
        assert_eq!(
            err,
            XbarError::InputLength {
                got: 3,
                expected: 4
            }
        );
    }

    #[test]
    fn programming_noise_perturbs_but_tracks_weights() {
        let mut rng = rng();
        let mut cfg = XbarConfig::hermes_256();
        cfg.prog_noise_sigma = 0.03;
        let rows = 64;
        let cols = 64;
        let w: Vec<f32> = (0..rows * cols)
            .map(|i| (((i * 13) % 128) as f32 - 64.0) / 64.0)
            .collect();
        let xb = Crossbar::program(&cfg, &w, rows, cols, &mut rng).unwrap();
        let mut err_acc = 0.0f64;
        for r in 0..rows {
            for c in 0..cols {
                let e = (xb.stored_weight(r, c) - w[r * cols + c]).abs() as f64;
                err_acc += e;
            }
        }
        let mean_err = err_acc / (rows * cols) as f64;
        // Mean |error| of two σ=0.03 devices ≈ 0.034 in weight units (scale 1);
        // must be visible but bounded.
        assert!(mean_err > 0.005, "noise not applied: {mean_err}");
        assert!(mean_err < 0.1, "noise too large: {mean_err}");
    }

    #[test]
    fn read_noise_varies_between_evaluations() {
        let mut rng = rng();
        let mut cfg = XbarConfig::hermes_256();
        cfg.read_noise_sigma = 0.02;
        cfg.adc_bits = 16; // fine quantization so noise is not rounded away
        cfg.adc_headroom = 1.0; // stay far from full-scale clipping
                                // Alternating-sign weights keep column sums near zero (no clipping).
        let w: Vec<f32> = (0..32 * 4)
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let xb = Crossbar::program(&cfg, &w, 32, 4, &mut rng).unwrap();
        let x = vec![0.8f32; 32];
        let y1 = mvm_at(&xb, &x, 0).unwrap();
        let y2 = mvm_at(&xb, &x, 1).unwrap();
        assert_ne!(y1, y2, "read noise should decorrelate repeated MVMs");
        assert_eq!(xb.mvm_count(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = XbarConfig::hermes_256();
        let w: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 32.0).collect();
        let run = || {
            let mut r = StdRng::seed_from_u64(123);
            let xb = Crossbar::program(&cfg, &w, 8, 8, &mut r).unwrap();
            mvm_at(&xb, &[0.5; 8], 0).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn adc_clips_large_sums() {
        let mut rng = rng();
        let mut cfg = XbarConfig::ideal(64, 1);
        cfg.adc_headroom = 0.05; // FS = 0.05 * 64 = 3.2 normalized units
        let xb = Crossbar::program(&cfg, &[1.0; 64], 64, 1, &mut rng).unwrap();
        let y = mvm_at(&xb, &[1.0; 64], 0).unwrap();
        // True sum is 64, but the ADC full-scale clamps it to 3.2.
        assert!(y[0] < 4.0, "ADC clipping not applied: {}", y[0]);
    }

    #[test]
    fn drift_shrinks_magnitudes() {
        let mut rng = rng();
        let cfg = XbarConfig::hermes_256();
        let mut xb = Crossbar::program(&cfg, &[0.8; 16], 4, 4, &mut rng).unwrap();
        let before = xb.stored_weight(0, 0).abs();
        xb.apply_drift(1000.0);
        let after = xb.stored_weight(0, 0).abs();
        assert!(after < before, "drift must reduce conductance");
        // ν=0.05 over 1000h → factor 1000^-0.05 ≈ 0.708
        assert!((after / before - 1000.0f32.powf(-0.05)).abs() < 1e-3);
    }

    #[test]
    fn drift_noop_within_first_hour() {
        let mut rng = rng();
        let cfg = XbarConfig::hermes_256();
        let mut xb = Crossbar::program(&cfg, &[0.8; 16], 4, 4, &mut rng).unwrap();
        let before = xb.stored_weight(2, 2);
        xb.apply_drift(0.5);
        assert_eq!(xb.stored_weight(2, 2), before);
    }

    #[test]
    fn crossbar_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<Crossbar>();
    }

    #[test]
    fn explicit_invocation_replays_exact_stream() {
        let mut rng = rng();
        let mut cfg = XbarConfig::hermes_256();
        cfg.read_noise_sigma = 0.02;
        cfg.adc_bits = 16; // fine quantization so noise is not rounded away
        cfg.adc_headroom = 1.0; // stay far from full-scale clipping
        let w: Vec<f32> = (0..64)
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let xb = Crossbar::program(&cfg, &w, 8, 8, &mut rng).unwrap();
        let x = [0.7f32; 8];
        let a = mvm_at(&xb, &x, 5).unwrap();
        let b = mvm_at(&xb, &x, 5).unwrap();
        assert_eq!(a, b, "same invocation must replay the same noise");
        let c = mvm_at(&xb, &x, 6).unwrap();
        assert_ne!(a, c, "different invocations must decorrelate");
        // Explicit indices still count evaluations for energy accounting.
        assert_eq!(xb.mvm_count(), 3);
    }

    #[test]
    fn rejected_calls_consume_no_count_and_no_stream() {
        let mut cfg = XbarConfig::hermes_256();
        cfg.read_noise_sigma = 0.02;
        cfg.adc_bits = 16;
        cfg.adc_headroom = 1.0;
        let w: Vec<f32> = (0..64)
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let program = || {
            let mut r = StdRng::seed_from_u64(77);
            Crossbar::program(&cfg, &w, 8, 8, &mut r).unwrap()
        };
        let x = [0.7f32; 8];
        let clean = program();
        let want = mvm_at(&clean, &x, 0).unwrap();
        let tainted = program();
        let mut scratch = MvmScratch::new();
        let mut out = [0.0f32; 16];
        assert!(mvm_at(&tainted, &[0.0; 3], 0).is_err());
        assert!(mvm_at(&tainted, &[0.0; 5], 9).is_err());
        // A whole patch short on input, or on output, is rejected whole.
        assert!(tainted
            .mvm_batch_into_with(&[0.0; 12], &mut out, &[1, 2], &mut scratch)
            .is_err());
        assert!(tainted
            .mvm_batch_into_with(&[0.0; 16], &mut out[..12], &[1, 2], &mut scratch)
            .is_err());
        assert!(tainted
            .mvm_bit_serial_into_with(&x, 0, &mut out[..8], 0, &mut scratch)
            .is_err());
        // Failed calls neither count as evaluations nor shift the streams.
        assert_eq!(tainted.mvm_count(), 0);
        assert_eq!(mvm_at(&tainted, &x, 0).unwrap(), want);
    }

    #[test]
    fn concurrent_evaluations_are_counted_and_order_independent() {
        let mut rng = rng();
        let mut cfg = XbarConfig::hermes_256();
        cfg.read_noise_sigma = 0.02;
        cfg.adc_bits = 16;
        cfg.adc_headroom = 1.0;
        let w: Vec<f32> = (0..64)
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let xb = Crossbar::program(&cfg, &w, 8, 8, &mut rng).unwrap();
        let x = [0.7f32; 8];
        let reference: Vec<Vec<f32>> = (0..16).map(|i| mvm_at(&xb, &x, i).unwrap()).collect();
        let threaded: Vec<Vec<f32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let xb = &xb;
                    let x = &x;
                    s.spawn(move || {
                        (0..4)
                            .map(|i| mvm_at(xb, x, (t * 4 + i) as u64).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(reference, threaded);
        // 16 serial + 16 threaded evaluations, none lost to races.
        assert_eq!(xb.mvm_count(), 32);
    }

    #[test]
    fn zero_weights_program_cleanly() {
        let mut rng = rng();
        let cfg = XbarConfig::ideal(8, 8);
        let xb = Crossbar::program(&cfg, &[0.0; 64], 8, 8, &mut rng).unwrap();
        let y = mvm_at(&xb, &[1.0; 8], 0).unwrap();
        assert!(y.iter().all(|&v| v.abs() < 1e-6));
    }
}
