//! The scalar reference kernels, and the tests that hold the packed
//! kernels bit-identical to them.
//!
//! The references are the pre-packing loops: the same audited quantize
//! helpers and noise streams as the packed kernels in the old loop
//! structure. The packed kernels are an *optimization*, not a remodel: for
//! every array shape, converter resolution, input pattern (including
//! negatives, exact zeros, and values deep past the clip range), and
//! invocation index, their output must equal the reference **to the bit**
//! — asserted via `f32::to_bits`, never via a tolerance. These tests are
//! the gate that lets the kernels keep changing shape (panels, masks,
//! batching) without renegotiating a single downstream result.

use crate::crossbar::{Crossbar, XbarError};
use crate::kernel::{
    adc_readout, bit_serial_scale, dac_quantize, dac_scale, signed_quantize, MvmScratch, DAC_BATCH,
};
use crate::noise::GaussianStream;
use crate::{stream, XbarConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

impl Crossbar {
    /// Scalar reference evaluation of one patch at an explicit invocation
    /// index: bit-identical to a one-patch
    /// [`Crossbar::mvm_batch_into_with`] call, slower, and allocating.
    pub(crate) fn mvm_reference_at(
        &self,
        x: &[f32],
        invocation: u64,
    ) -> Result<Vec<f32>, XbarError> {
        if x.len() != self.rows_used() {
            return Err(XbarError::InputLength {
                got: x.len(),
                expected: self.rows_used(),
            });
        }
        let mut y = vec![0.0f32; self.cols_used()];
        self.count_mvms(1);
        dac_reference(self, x, &mut y, invocation);
        Ok(y)
    }

    /// Scalar reference bit-serial evaluation at an explicit invocation
    /// index: bit-identical to [`Crossbar::mvm_bit_serial_into_with`],
    /// slower, and allocating.
    pub(crate) fn mvm_bit_serial_reference_at(
        &self,
        x: &[f32],
        n_bits: u32,
        invocation: u64,
    ) -> Result<Vec<f32>, XbarError> {
        self.check_bit_serial_args(x, n_bits)?;
        self.count_mvms(1);
        Ok(bit_serial_reference(self, x, n_bits, invocation))
    }
}

/// Scalar reference for the parallel-DAC chain — the pre-packing row loop.
/// Allocates per call.
fn dac_reference(xb: &Crossbar, x: &[f32], out: &mut [f32], invocation: u64) {
    let rows = xb.rows_used();
    let cols = xb.cols_used();
    let cfg = xb.config();

    let dac_levels = ((1u64 << cfg.dac_bits) - 1) as f64 / 2.0;
    let inv_dac_levels = 1.0 / dac_levels;
    let clip = cfg.x_clip;
    let x_scale = dac_scale(x);
    let inv_x_scale = 1.0 / x_scale;
    let mut xq = Vec::with_capacity(x.len());
    for &xi in x {
        xq.push(dac_quantize(
            xi as f64,
            inv_x_scale,
            clip,
            dac_levels,
            inv_dac_levels,
        ));
    }

    let mut acc = vec![0.0f64; cols];
    for (r, &xr) in xq.iter().enumerate() {
        if xr == 0.0 {
            continue;
        }
        let row = &xb.g_all()[r * cols..(r + 1) * cols];
        for (c, &g) in row.iter().enumerate() {
            acc[c] = xr.mul_add(g, acc[c]);
        }
    }

    if cfg.read_noise_sigma > 0.0 {
        let rng = StdRng::seed_from_u64(stream::derive(xb.noise_seed(), invocation));
        let mut gs = GaussianStream::new(rng);
        let sigma = cfg.read_noise_sigma * (rows as f64).sqrt();
        for a in acc.iter_mut() {
            *a += gs.next(sigma);
        }
    }

    let fs = cfg.adc_headroom * rows as f64 * clip;
    let adc_levels = ((1u64 << cfg.adc_bits.min(31)) - 1) as f64 / 2.0;
    let (to_code, from_code) = (adc_levels / fs, fs / adc_levels);
    let back_scale = xb.weight_scale() * x_scale;
    for (c, &a) in acc.iter().enumerate() {
        out[c] = adc_readout(a, fs, to_code, from_code, back_scale);
    }
}

/// Scalar reference for the bit-serial chain — the pre-packing per-plane
/// predicate loop. Allocates per plane.
fn bit_serial_reference(xb: &Crossbar, x: &[f32], n_bits: u32, invocation: u64) -> Vec<f32> {
    let cols = xb.cols_used();
    let rows = xb.rows_used();
    let cfg = xb.config();

    let x_scale = bit_serial_scale(x);
    let inv_x_scale = 1.0 / x_scale;
    let levels = (1i64 << (n_bits - 1)) - 1;
    let xq: Vec<i64> = x
        .iter()
        .map(|&v| signed_quantize(v as f64, inv_x_scale, levels as f64))
        .collect();

    let rng = StdRng::seed_from_u64(stream::derive(xb.noise_seed(), invocation));
    let mut gs = GaussianStream::new(rng);
    let mut acc = vec![0.0f64; cols];
    let sigma = cfg.read_noise_sigma * (rows as f64).sqrt();
    for bit in 0..(n_bits - 1) {
        let weight = (1i64 << bit) as f64;
        for phase in [1i64, -1] {
            // Skip silent planes entirely (no pulse, no noise).
            let any = xq
                .iter()
                .any(|&q| q.signum() == phase && (q.abs() >> bit) & 1 == 1);
            if !any {
                continue;
            }
            let mut plane = vec![0.0f64; cols];
            for (r, &q) in xq.iter().enumerate() {
                if q.signum() == phase && (q.abs() >> bit) & 1 == 1 {
                    let row = &xb.g_all()[r * cols..(r + 1) * cols];
                    for (c, g) in row.iter().enumerate() {
                        plane[c] += g;
                    }
                }
            }
            for (c, p) in plane.iter().enumerate() {
                let noisy = p + gs.next(sigma);
                acc[c] += phase as f64 * weight * noisy;
            }
        }
    }

    let back = xb.weight_scale() * x_scale / levels as f64;
    acc.iter().map(|&a| (a * back) as f32).collect()
}

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

/// One patch through [`Crossbar::mvm_batch_into_with`] at `invocation`.
fn packed(xb: &Crossbar, x: &[f32], invocation: u64, scratch: &mut MvmScratch) -> Vec<f32> {
    let mut y = vec![0.0f32; xb.cols_used()];
    xb.mvm_batch_into_with(x, &mut y, &[invocation], scratch)
        .unwrap();
    y
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
        let mut scratch = MvmScratch::new();
        let got = packed(&xbar, &x, invocation, &mut scratch);
        prop_assert!(bits_eq(&got, &reference), "packed diverged from reference");
        // Repeating the same invocation must replay the identical result
        // (counter-based streams, no hidden state).
        let replay = packed(&xbar, &x, invocation, &mut scratch);
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
        let mut got = vec![0.0f32; cols];
        let mut scratch = MvmScratch::new();
        xbar.mvm_bit_serial_into_with(&x, n_bits, &mut got, invocation, &mut scratch)
            .unwrap();
        prop_assert!(bits_eq(&got, &reference), "bit-serial packed diverged");
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

        for p in 0..k {
            let single = packed(&xbar, &xs[p * rows..(p + 1) * rows], invocations[p], &mut scratch);
            prop_assert!(
                bits_eq(&single, &batched[p * cols..(p + 1) * cols]),
                "batch patch {p} of {k} diverged from its single call"
            );
        }
    }
}

/// Every tile shape of a ResNet-18/CIFAR-10 deployment on `hermes_256`
/// arrays (the `mvm_kernels` bin's census).
const CENSUS_SHAPES: [(usize, usize); 8] = [
    (27, 16),
    (144, 16),
    (144, 32),
    (16, 32),
    (144, 64),
    (192, 64),
    (32, 64),
    (64, 10),
];

/// A programmed array plus a ReLU-like input (about half the rows
/// silent, like post-activation feature maps), as the `mvm_kernels` bin
/// builds its cases.
fn census_case(cfg: &XbarConfig, rows: usize, cols: usize, seed: u64) -> (Crossbar, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w: Vec<f32> = (0..rows * cols)
        .map(|i| ((i * 37 % 64) as f32 - 32.0) / 32.0)
        .collect();
    let xb = Crossbar::program(cfg, &w, rows, cols, &mut rng).unwrap();
    let x: Vec<f32> = (0..rows)
        .map(|_| {
            let v: f32 = rng.gen_range(-1.0..1.0);
            if v < 0.0 {
                0.0
            } else {
                v
            }
        })
        .collect();
    (xb, x)
}

/// Packed ≡ reference on every census shape, for the DAC path and every
/// bit-serial width, over adversarial input patterns (ReLU-like, all
/// zeros, alternating signs, saturation) and several invocations.
#[test]
fn census_shapes_match_reference_bitwise() {
    let cfg = XbarConfig::hermes_256();
    let mut scratch = MvmScratch::new();
    for (rows, cols) in CENSUS_SHAPES {
        let (xb, relu_x) = census_case(&cfg, rows, cols, 7 + rows as u64);
        let patterns = [
            relu_x,
            vec![0.0; rows],
            (0..rows)
                .map(|i| if i % 2 == 0 { -1.0 } else { 1.0 })
                .collect(),
            (0..rows)
                .map(|i| (i as f32 - rows as f32 / 2.0) * 100.0)
                .collect(),
        ];
        for (p, x) in patterns.iter().enumerate() {
            for inv in [0u64, 3, 11] {
                let want = xb.mvm_reference_at(x, inv).unwrap();
                let got = packed(&xb, x, inv, &mut scratch);
                assert!(
                    bits_eq(&got, &want),
                    "dac {rows}x{cols} pattern {p} inv {inv}"
                );
                for bits in [1u32, 4, 8, 12, 16] {
                    let want = xb.mvm_bit_serial_reference_at(x, bits, inv).unwrap();
                    let mut got = vec![0.0f32; cols];
                    xb.mvm_bit_serial_into_with(x, bits, &mut got, inv, &mut scratch)
                        .unwrap();
                    assert!(
                        bits_eq(&got, &want),
                        "bit-serial {bits}b {rows}x{cols} pattern {p} inv {inv}"
                    );
                }
            }
        }
    }
}
