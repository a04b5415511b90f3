//! Bit-serial input evaluation (ISAAC/PUMA style).
//!
//! Instead of converting each activation once through a multi-bit DAC, the
//! input vector is applied one *bit plane* at a time: `n_bits` binary
//! word-line pulses, each producing a partial bit-line sum that is ADC-read
//! and shift-accumulated digitally. The paper's platform uses the parallel
//! 8-bit-DAC scheme of HERMES (Table I), but its related work (ISAAC,
//! Shafiee et al.; PUMA, Ankit et al.) is bit-serial — this module lets the
//! benches compare the two regimes on identical arrays:
//!
//! * per-MVM latency multiplies by the bit count;
//! * DAC nonlinearity disappears (pulses are binary);
//! * read noise is drawn once per bit plane and accumulates through the
//!   shift-add, weighted by each plane's significance.

use crate::crossbar::{Crossbar, XbarError};
use crate::kernel::{self, MvmScratch};

impl Crossbar {
    /// Rejects a bit width outside `1..=16` or an input that is not
    /// `rows_used` long.
    pub(crate) fn check_bit_serial_args(&self, x: &[f32], n_bits: u32) -> Result<(), XbarError> {
        if !(1..=16).contains(&n_bits) {
            return Err(XbarError::BadConfig(format!(
                "bit-serial input bits {n_bits} out of range 1..=16"
            )));
        }
        if x.len() != self.rows_used() {
            return Err(XbarError::InputLength {
                got: x.len(),
                expected: self.rows_used(),
            });
        }
        Ok(())
    }

    /// Evaluates `y = Wᵀx` bit-serially with `n_bits` input bit planes,
    /// writing into a caller buffer and reusing a caller-owned
    /// [`MvmScratch`] — the zero-allocation bit-serial entry point.
    ///
    /// The input is normalized to the vector's max-abs (like the parallel
    /// path), quantized to a *signed* `n_bits`-bit integer, and applied as
    /// binary pulses from MSB-1 planes down; negative values use two-phase
    /// (subtractive) evaluation, as memristive designs do.
    ///
    /// Read noise follows the per-call stream model of
    /// [`Crossbar::mvm_batch_into_with`]: it is drawn from the stream of
    /// `invocation`, and one bit-serial evaluation counts as one MVM for
    /// accounting.
    ///
    /// # Errors
    /// Returns [`XbarError::InputLength`] if `x` is not `rows_used` or
    /// `out` not `cols_used` long, or [`XbarError::BadConfig`] if `n_bits`
    /// is not in `1..=16`.
    pub fn mvm_bit_serial_into_with(
        &self,
        x: &[f32],
        n_bits: u32,
        out: &mut [f32],
        invocation: u64,
        scratch: &mut MvmScratch,
    ) -> Result<(), XbarError> {
        self.check_bit_serial_args(x, n_bits)?;
        if out.len() != self.cols_used() {
            return Err(XbarError::InputLength {
                got: out.len(),
                expected: self.cols_used(),
            });
        }
        self.count_mvms(1);
        kernel::bit_serial_packed(self, x, n_bits, out, invocation, scratch);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XbarConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// One bit-serial evaluation at `invocation`.
    fn bit_serial(
        xb: &Crossbar,
        x: &[f32],
        n_bits: u32,
        invocation: u64,
    ) -> Result<Vec<f32>, XbarError> {
        let mut y = vec![0.0f32; xb.cols_used()];
        xb.mvm_bit_serial_into_with(x, n_bits, &mut y, invocation, &mut MvmScratch::new())?;
        Ok(y)
    }

    /// One parallel-DAC evaluation at `invocation`.
    fn dac(xb: &Crossbar, x: &[f32], invocation: u64) -> Vec<f32> {
        let mut y = vec![0.0f32; xb.cols_used()];
        xb.mvm_batch_into_with(x, &mut y, &[invocation], &mut MvmScratch::new())
            .unwrap();
        y
    }

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
    fn bit_serial_matches_reference_on_ideal_array() {
        let mut rng = rng();
        let rows = 24;
        let cols = 6;
        let w: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 31 % 97) as f32 - 48.0) / 48.0)
            .collect();
        let x: Vec<f32> = (0..rows)
            .map(|i| ((i * 7 % 15) as f32 - 7.0) / 7.0)
            .collect();
        let xb =
            Crossbar::program(&XbarConfig::ideal(rows, cols), &w, rows, cols, &mut rng).unwrap();
        let y = bit_serial(&xb, &x, 12, 0).unwrap();
        let yref = ref_mvm(&w, rows, cols, &x);
        for (a, b) in y.iter().zip(&yref) {
            // 11 magnitude bits over sums of 24 terms.
            assert!(
                (a - b).abs() < 0.02 * rows as f32 / 24.0 + 0.02,
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn bit_serial_agrees_with_parallel_path() {
        let mut rng = rng();
        let rows = 16;
        let cols = 4;
        let w: Vec<f32> = (0..rows * cols)
            .map(|i| ((i % 9) as f32 - 4.0) / 4.0)
            .collect();
        let x: Vec<f32> = (0..rows).map(|i| ((i % 5) as f32 - 2.0) / 2.0).collect();
        let xb =
            Crossbar::program(&XbarConfig::ideal(rows, cols), &w, rows, cols, &mut rng).unwrap();
        let par = dac(&xb, &x, 0);
        let ser = bit_serial(&xb, &x, 16, 1).unwrap();
        for (a, b) in par.iter().zip(&ser) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn read_noise_propagates_through_planes() {
        // Per-plane read noise reaches the output through the shift-add, but
        // each plane's contribution is scaled by its significance over the
        // quantization levels, so the net noise is *comparable* to the
        // single-evaluation parallel path (dominated by the MSB planes),
        // not n_bits times larger.
        let mut cfg = XbarConfig::ideal(32, 2);
        cfg.read_noise_sigma = 0.02;
        let mut rng = rng();
        let w = vec![0.3f32; 64];
        let x: Vec<f32> = (0..32).map(|i| (i as f32 % 7.0) / 7.0).collect();
        let xb = Crossbar::program(&cfg, &w, 32, 2, &mut rng).unwrap();
        // Each evaluation draws a fresh invocation stream, so variance
        // across repeated calls measures the read-noise magnitude.
        let spread = |f: &dyn Fn(u64) -> f32| {
            let vals: Vec<f32> = (0..60).map(f).collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32
        };
        let var_par = spread(&|i| dac(&xb, &x, i)[0]);
        let var_ser = spread(&|i| bit_serial(&xb, &x, 8, 60 + i).unwrap()[0]);
        assert!(var_ser > 0.0, "bit-serial output must be noisy");
        assert!(var_par > 0.0, "parallel output must be noisy");
        let ratio = var_ser / var_par;
        assert!(
            (0.05..20.0).contains(&ratio),
            "noise regimes should be comparable: ratio {ratio}"
        );
    }

    #[test]
    fn rejects_bad_bit_counts_and_lengths() {
        let mut rng = rng();
        let xb = Crossbar::program(&XbarConfig::ideal(4, 4), &[0.1; 16], 4, 4, &mut rng).unwrap();
        assert!(matches!(
            bit_serial(&xb, &[0.0; 4], 0, 0),
            Err(XbarError::BadConfig(_))
        ));
        assert!(matches!(
            bit_serial(&xb, &[0.0; 4], 17, 0),
            Err(XbarError::BadConfig(_))
        ));
        assert!(matches!(
            bit_serial(&xb, &[0.0; 3], 8, 0),
            Err(XbarError::InputLength { .. })
        ));
        let mut short = [0.0f32; 3];
        assert!(matches!(
            xb.mvm_bit_serial_into_with(&[0.0; 4], 8, &mut short, 0, &mut MvmScratch::new()),
            Err(XbarError::InputLength { .. })
        ));
        assert_eq!(xb.mvm_count(), 0, "rejected calls count nothing");
    }

    #[test]
    fn zero_input_is_silent() {
        let mut cfg = XbarConfig::ideal(8, 2);
        cfg.read_noise_sigma = 0.1; // would be loud if planes fired
        let mut rng = rng();
        let xb = Crossbar::program(&cfg, &[0.5; 16], 8, 2, &mut rng).unwrap();
        let y = bit_serial(&xb, &[0.0; 8], 8, 0).unwrap();
        assert!(y.iter().all(|&v| v == 0.0), "{y:?}");
    }
}
