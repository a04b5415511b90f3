//! Property-based equivalence of the packed MVM kernels against the scalar
//! reference walks ([`Crossbar::mvm_reference_at`] /
//! [`Crossbar::mvm_bit_serial_reference_at`]).
//!
//! The packed kernels are an *optimization*, not a remodel: for every
//! array shape, converter resolution, input pattern (including negatives,
//! exact zeros, and values deep past the clip range), and invocation
//! index, their output must equal the reference **to the bit** — asserted
//! here via `f32::to_bits`, never via a tolerance. This suite is the CI
//! gate that lets the kernels keep changing shape (panels, masks,
//! batching) without renegotiating a single downstream result.

use aimc_xbar::{Crossbar, MvmScratch, XbarConfig, DAC_BATCH};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A crossbar programmed from arbitrary-but-reproducible weights, with
/// converter resolutions and noise drawn from the strategy.
fn programmed(
    rows: usize,
    cols: usize,
    dac_bits: u32,
    adc_bits: u32,
    sigma: f64,
    seed: u64,
) -> Crossbar {
    let mut wrng = StdRng::seed_from_u64(seed);
    use rand::Rng;
    let weights: Vec<f32> = (0..rows * cols)
        .map(|_| wrng.gen_range(-1.0f32..1.0))
        .collect();
    let mut cfg = XbarConfig::hermes_256();
    cfg.dac_bits = dac_bits;
    cfg.adc_bits = adc_bits;
    cfg.read_noise_sigma = sigma;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    Crossbar::program(&cfg, &weights, rows, cols, &mut rng).unwrap()
}

/// Inputs that stress every DAC regime: negatives, exact zeros (the row
/// masks), tiny values that quantize to ±0, and magnitudes far past the
/// clip range.
fn stress_input(rows: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    use rand::Rng;
    (0..rows)
        .map(|_| match rng.gen_range(0u32..6) {
            0 => 0.0,
            1 => rng.gen_range(-200.0f32..200.0),
            2 => rng.gen_range(-1e-6f32..1e-6),
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packed parallel-DAC kernel ≡ scalar reference, bit for bit.
    #[test]
    fn packed_dac_matches_reference_bitwise(
        rows in 1usize..100,
        cols in 1usize..40,
        dac_bits in 2u32..12,
        adc_bits in 2u32..12,
        sigma_i in 0usize..3,
        seed in any::<u64>(),
        invocation in any::<u64>(),
    ) {
        let sigma = [0.0, 0.01, 0.1][sigma_i];
        let xbar = programmed(rows, cols, dac_bits, adc_bits, sigma, seed);
        let x = stress_input(rows, seed ^ 0x5151);
        let reference = xbar.mvm_reference_at(&x, invocation).unwrap();
        let mut packed = vec![0.0f32; cols];
        let mut scratch = MvmScratch::new();
        xbar.mvm_into_with(&x, &mut packed, invocation, &mut scratch).unwrap();
        prop_assert!(bits_eq(&packed, &reference), "packed diverged from reference");
        // Repeating the same invocation must replay the identical result
        // (counter-based streams, no hidden state).
        let mut replay = vec![0.0f32; cols];
        xbar.mvm_into_with(&x, &mut replay, invocation, &mut scratch).unwrap();
        prop_assert!(bits_eq(&replay, &reference), "replay diverged");
    }

    /// Packed bit-serial kernel ≡ scalar bit-serial reference across the
    /// full supported precision range.
    #[test]
    fn packed_bit_serial_matches_reference_bitwise(
        rows in 1usize..100,
        cols in 1usize..40,
        n_bits in 1u32..=16,
        sigma_i in 0usize..2,
        seed in any::<u64>(),
        invocation in any::<u64>(),
    ) {
        let sigma = [0.0, 0.01][sigma_i];
        let xbar = programmed(rows, cols, 8, 8, sigma, seed);
        let x = stress_input(rows, seed ^ 0x2323);
        let reference = xbar.mvm_bit_serial_reference_at(&x, n_bits, invocation).unwrap();
        let mut packed = vec![0.0f32; cols];
        let mut scratch = MvmScratch::new();
        xbar.mvm_bit_serial_into_with(&x, n_bits, &mut packed, invocation, &mut scratch)
            .unwrap();
        prop_assert!(bits_eq(&packed, &reference), "bit-serial packed diverged");
    }

    /// Batched evaluation ≡ the same patches run one at a time, bit for
    /// bit, for every batch size from 1 to 2·DAC_BATCH+1 (full quads,
    /// remainders, and mixes) and arbitrary non-contiguous invocations.
    ///
    /// Arrays up to 256×64 can hold more than 40 KiB of conductances; the
    /// batch kernel then cuts their rows into 48-row blocks, each
    /// continuing the sums of the block before. With one input row in
    /// sixteen nonzero, the union of a quad's row masks stays under the
    /// walk→dense switch (⅜ of rows) and the quad takes the walk panels;
    /// one in ten straddles the switch, and six in seven takes the dense
    /// sweep. The ADC and the f32 output hide a last-place change of a
    /// sum, so the kernel's unit tests check the blocks' sums themselves.
    #[test]
    fn batched_dac_matches_single_calls_bitwise(
        rows in 1usize..=256,
        cols in 1usize..=64,
        k in 1usize..=(2 * DAC_BATCH + 1),
        nonzero_i in 0usize..3,
        sigma_i in 0usize..2,
        seed in any::<u64>(),
        inv_base in any::<u64>(),
    ) {
        let nonzero = [1.0 / 16.0, 1.0 / 10.0, 6.0 / 7.0][nonzero_i];
        let sigma = [0.0, 0.01][sigma_i];
        let xbar = programmed(rows, cols, 8, 8, sigma, seed);
        let mut xrng = StdRng::seed_from_u64(seed ^ 0xabcd);
        use rand::Rng;
        let xs: Vec<f32> = (0..k * rows)
            .map(|_| {
                if xrng.gen_range(0.0f64..1.0) < nonzero {
                    xrng.gen_range(-2.0f32..2.0)
                } else {
                    0.0
                }
            })
            .collect();
        // Non-contiguous, wrap-prone coordinates.
        let invocations: Vec<u64> =
            (0..k as u64).map(|p| inv_base.wrapping_add(p * p + p)).collect();

        let mut scratch = MvmScratch::new();
        let mut batched = vec![0.0f32; k * cols];
        xbar.mvm_batch_into_with(&xs, &mut batched, &invocations, &mut scratch).unwrap();

        let mut single = vec![0.0f32; cols];
        for p in 0..k {
            xbar.mvm_into_with(
                &xs[p * rows..(p + 1) * rows],
                &mut single,
                invocations[p],
                &mut scratch,
            )
            .unwrap();
            prop_assert!(
                bits_eq(&single, &batched[p * cols..(p + 1) * cols]),
                "batch patch {p} of {k} diverged from its single call"
            );
        }
    }
}
