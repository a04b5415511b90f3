//! Property-based tests for the crossbar model's core invariants.

use aimc_xbar::{Crossbar, MvmScratch, XbarConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One patch through [`Crossbar::mvm_batch_into_with`] at `invocation`.
fn mvm_at(xb: &Crossbar, x: &[f32], invocation: u64) -> Vec<f32> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An ideal (noiseless, high-resolution) crossbar matches the exact
    /// mat-vec within converter quantization tolerance.
    #[test]
    fn ideal_mvm_matches_reference(
        rows in 1usize..40,
        cols in 1usize..24,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let w: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let x: Vec<f32> = (0..rows).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let xb = Crossbar::program(&XbarConfig::ideal(rows, cols), &w, rows, cols, &mut rng).unwrap();
        let y = mvm_at(&xb, &x, 0);
        let yref = ref_mvm(&w, rows, cols, &x);
        // Tolerance: DAC 16b + weight 16b quantization on sums of `rows` terms.
        let tol = 1e-3 * rows as f32 + 1e-3;
        for (a, b) in y.iter().zip(&yref) {
            prop_assert!((a - b).abs() <= tol, "{} vs {} (tol {})", a, b, tol);
        }
    }

    /// MVM output is linear in the input for an ideal array: f(ax) = a f(x)
    /// for positive scalars that stay inside the clipping range.
    #[test]
    fn ideal_mvm_is_scale_invariant_in_normalization(
        rows in 2usize..24,
        cols in 1usize..12,
        scale in 0.1f32..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let w: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let x: Vec<f32> = (0..rows).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let xb = Crossbar::program(&XbarConfig::ideal(rows, cols), &w, rows, cols, &mut rng).unwrap();
        let y1 = mvm_at(&xb, &x, 0);
        let xs: Vec<f32> = x.iter().map(|v| v * scale).collect();
        let y2 = mvm_at(&xb, &xs, 1);
        let tol = 2e-3 * rows as f32 + 1e-3;
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((a * scale - b).abs() <= tol, "{} vs {}", a * scale, b);
        }
    }

    /// Stored weights always stay within the programmable range
    /// [-w_scale, +w_scale], even with noise.
    #[test]
    fn stored_weights_respect_conductance_bounds(
        rows in 1usize..16,
        cols in 1usize..16,
        sigma in 0.0f64..0.2,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let w: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let mut cfg = XbarConfig::hermes_256();
        cfg.prog_noise_sigma = sigma;
        let xb = Crossbar::program(&cfg, &w, rows, cols, &mut rng).unwrap();
        let bound = xb.weight_scale() as f32 * 1.000_1;
        for r in 0..rows {
            for c in 0..cols {
                prop_assert!(xb.stored_weight(r, c).abs() <= bound);
            }
        }
    }

    /// ADC output never exceeds the full-scale range.
    #[test]
    fn adc_output_is_bounded_by_full_scale(
        rows in 1usize..64,
        headroom in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = XbarConfig::ideal(rows, 1);
        cfg.adc_headroom = headroom;
        let w = vec![1.0f32; rows];
        let xb = Crossbar::program(&cfg, &w, rows, 1, &mut rng).unwrap();
        let x = vec![1.0f32; rows];
        let y = mvm_at(&xb, &x, 0);
        let fs = (headroom * rows as f64 * cfg.x_clip) as f32 * 1.001;
        prop_assert!(y[0].abs() <= fs, "|{}| > fs {}", y[0], fs);
    }

    /// Utilization is exactly the occupied fraction and lies in (0, 1].
    #[test]
    fn utilization_is_occupied_fraction(
        rows in 1usize..=256,
        cols in 1usize..=256,
    ) {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = XbarConfig::hermes_256();
        let w = vec![0.1f32; rows * cols];
        let xb = Crossbar::program(&cfg, &w, rows, cols, &mut rng).unwrap();
        let expect = (rows * cols) as f64 / (256.0 * 256.0);
        prop_assert!((xb.utilization() - expect).abs() < 1e-12);
        prop_assert!(xb.utilization() > 0.0 && xb.utilization() <= 1.0);
    }
}

// --- Invocation-index derivation audit (serving layer) ---------------------
//
// The micro-batch scheduler relies on one device-level fact: the noise of an
// MVM depends *only* on its invocation coordinate, never on which calls came
// before it or how calls were grouped. These properties pin that down at the
// crossbar boundary, including the large global image indices a long-lived
// serving stream produces.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Evaluating the same invocation coordinates in any order, grouping,
    /// or interleaving yields bit-identical outputs per coordinate.
    #[test]
    fn invocation_noise_is_chop_and_order_invariant(
        rows in 1usize..16,
        cols in 1usize..8,
        seed in any::<u64>(),
        base in 0u64..1_000_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let w: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let x: Vec<f32> = (0..rows).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let program = |s: u64| {
            let mut prng = StdRng::seed_from_u64(s);
            Crossbar::program(&XbarConfig::hermes_256().with_size(rows.max(1), cols.max(1)),
                              &w, rows, cols, &mut prng).unwrap()
        };
        let invocations: Vec<u64> = (0..6).map(|i| base + i).collect();

        // Reference: ascending order on one freshly programmed array.
        let a = program(seed);
        let want: Vec<Vec<f32>> =
            invocations.iter().map(|&i| mvm_at(&a, &x, i)).collect();

        // Same coordinates, reversed order, on an identically programmed
        // array — with unrelated interleaved evaluations thrown in.
        let b = program(seed);
        let mut got: Vec<(u64, Vec<f32>)> = Vec::new();
        for &i in invocations.iter().rev() {
            let _ = mvm_at(&b, &x, i + 7_777); // unrelated coordinate
            got.push((i, mvm_at(&b, &x, i)));
        }
        got.sort_by_key(|(i, _)| *i);
        for ((i, g), w_) in got.iter().zip(&want) {
            prop_assert_eq!(g, w_, "invocation {} depends on call order", i);
        }
    }

    /// The executor's global coordinate form `image · patches + patch`
    /// never maps two distinct (image, patch) pairs in a working set to
    /// the same read-noise stream — including at serving-scale bases.
    #[test]
    fn global_image_coordinates_stay_distinct(
        noise_seed in any::<u64>(),
        n_pix in 1u64..512,
        img_base in 0u64..(1 << 40),
    ) {
        use aimc_xbar::stream::derive;
        let mut seen = std::collections::HashSet::new();
        for img in img_base..img_base + 8 {
            for p in 0..n_pix.min(16) {
                let coordinate = img * n_pix + p;
                prop_assert!(
                    seen.insert(derive(noise_seed, coordinate)),
                    "collision at image {} patch {}", img, p
                );
            }
        }
    }
}
