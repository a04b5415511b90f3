//! The parallel execution engine's hard invariant, checked end-to-end
//! through the `Platform`/`Session` API: **for the same seed, inference is
//! bit-identical no matter how many threads run** — for both functional
//! backends, across programming, tile-level and image-level parallelism,
//! and through state transitions (drift, re-programming, interleaved
//! single-image calls).

use aimc_platform::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_cnn() -> Graph {
    let mut b = GraphBuilder::new(Shape::new(3, 8, 8));
    let c0 = b.conv("c0", b.input(), ConvCfg::k3(3, 8, 1));
    let c1 = b.conv("c1", Some(c0), ConvCfg::k3(8, 8, 1));
    let r = b.residual("r", c1, c0, None);
    let p = b.global_avgpool("gap", r);
    b.linear("fc", p, 4);
    b.finish()
}

fn random_images(shape: Shape, n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Tensor::from_vec(
                shape,
                (0..shape.numel())
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            )
        })
        .collect()
}

/// A session over the small CNN with the given thread budget. The small
/// crossbars (32×4) force multiple tiles per layer, so tile-level
/// parallelism is exercised, not just image-level.
fn session_with(par: Parallelism) -> Session {
    Platform::builder()
        .graph(small_cnn())
        .arch(ArchConfig::small(8, 8))
        .he_weights(42)
        .parallelism(par)
        .build()
        .unwrap()
        .session()
}

fn noisy_backend() -> Backend {
    // Real noise levels and small arrays: the hardest case for determinism
    // (every MVM consumes randomness; every layer splits across tiles).
    Backend::analog(7, XbarConfig::hermes_256().with_size(32, 4))
}

#[test]
fn golden_backend_is_parallelism_invariant() {
    let images = random_images(Shape::new(3, 8, 8), 6, 1);
    let mut serial = session_with(Parallelism::Serial);
    let want = serial.infer(&images, Backend::Golden).unwrap();
    for n in [2, 4] {
        let mut s = session_with(Parallelism::Threads(n));
        let got = s.infer(&images, Backend::Golden).unwrap();
        assert_eq!(want, got, "golden diverged at {n} threads");
    }
}

#[test]
fn analog_backend_is_parallelism_invariant() {
    let images = random_images(Shape::new(3, 8, 8), 6, 2);
    let mut serial = session_with(Parallelism::Serial);
    let want = serial.infer(&images, noisy_backend()).unwrap();
    for n in [2, 4] {
        let mut s = session_with(Parallelism::Threads(n));
        let got = s.infer(&images, noisy_backend()).unwrap();
        assert_eq!(want, got, "analog diverged at {n} threads");
        // Concurrent evaluation must not lose or duplicate MVM counts.
        assert_eq!(serial.total_mvms(), s.total_mvms());
        assert_eq!(serial.tile_count(), s.tile_count());
    }
}

#[test]
fn single_image_tile_parallelism_is_invariant() {
    let images = random_images(Shape::new(3, 8, 8), 1, 3);
    let mut serial = session_with(Parallelism::Serial);
    let want = serial.infer_one(&images[0], noisy_backend()).unwrap();
    let mut s = session_with(Parallelism::Threads(4));
    let got = s.infer_one(&images[0], noisy_backend()).unwrap();
    assert_eq!(want, got);
}

#[test]
fn batch_matches_repeated_single_infers() {
    // One batched call and an image-by-image loop claim the same invocation
    // coordinates, so retained crossbars give identical noise either way.
    let images = random_images(Shape::new(3, 8, 8), 4, 4);
    let mut a = session_with(Parallelism::Threads(4));
    let batched = a.infer(&images, noisy_backend()).unwrap();
    let mut b = session_with(Parallelism::Serial);
    let looped: Vec<Tensor> = images
        .iter()
        .map(|x| b.infer_one(x, noisy_backend()).unwrap())
        .collect();
    assert_eq!(batched, looped);
}

#[test]
fn drift_then_parallel_reinfer_matches_serial() {
    // The regression the satellite task calls out: apply_drift mutates the
    // retained conductances; a parallel re-infer afterwards must still
    // match a serial session that went through the same transitions.
    let images = random_images(Shape::new(3, 8, 8), 4, 5);
    let run = |par: Parallelism| {
        let mut s = session_with(par);
        let fresh = s.infer(&images, noisy_backend()).unwrap();
        s.apply_drift(1000.0).unwrap();
        let drifted = s.infer(&images, noisy_backend()).unwrap();
        (fresh, drifted)
    };
    let (fresh_serial, drifted_serial) = run(Parallelism::Serial);
    let (fresh_par, drifted_par) = run(Parallelism::Threads(4));
    assert_eq!(fresh_serial, fresh_par);
    assert_eq!(drifted_serial, drifted_par, "post-drift inference diverged");
    // Drift must actually have changed something, or the test is vacuous.
    assert_ne!(fresh_serial, drifted_serial);
}

#[test]
fn reprogram_resets_invocation_coordinates_identically() {
    let images = random_images(Shape::new(3, 8, 8), 2, 6);
    let run = |par: Parallelism| {
        let mut s = session_with(par);
        let backend = noisy_backend();
        let first = s.infer(&images, backend.clone()).unwrap();
        s.reprogram(&backend).unwrap();
        let second = s.infer(&images, backend).unwrap();
        (first, second)
    };
    let serial = run(Parallelism::Serial);
    let par = run(Parallelism::Threads(4));
    assert_eq!(serial, par);
    // Freshly written crossbars replay the same streams from zero.
    assert_eq!(serial.0, serial.1);
}

#[test]
fn session_parallelism_knob_is_inherited_and_overridable() {
    let mut s = session_with(Parallelism::Threads(3));
    assert_eq!(s.parallelism(), Parallelism::Threads(3));
    assert_eq!(s.platform().parallelism(), Parallelism::Threads(3));
    s.set_parallelism(Parallelism::Serial);
    assert_eq!(s.parallelism(), Parallelism::Serial);
    // Override applies to later infers without changing results.
    let images = random_images(Shape::new(3, 8, 8), 2, 7);
    let a = s.infer(&images, noisy_backend()).unwrap();
    let mut reference = session_with(Parallelism::Serial);
    let b = reference.infer(&images, noisy_backend()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn interleaved_golden_checks_do_not_perturb_analog_streams() {
    // Golden reference checks between analog batches must not consume
    // analog randomness, in any parallelism mode.
    let images = random_images(Shape::new(3, 8, 8), 2, 8);
    let run = |par: Parallelism| {
        let mut s = session_with(par);
        let a1 = s.infer(&images, noisy_backend()).unwrap();
        let _ = s.infer(&images, Backend::Golden).unwrap();
        let a2 = s.infer(&images, noisy_backend()).unwrap();
        (a1, a2)
    };
    assert_eq!(run(Parallelism::Serial), run(Parallelism::Threads(4)));
}

/// ResNet-18/CIFAR on full `hermes_256` arrays, the workload the small
/// CNN above stands in for: serial and threaded `Session::infer` of one
/// batch from one base return the same bits.
#[test]
fn resnet18_threaded_matches_serial() {
    let platform = Platform::builder()
        .graph(resnet18_cifar(10))
        .arch(ArchConfig::small(8, 8))
        .he_weights(42)
        .build()
        .unwrap();
    let images = random_images(Shape::new(3, 32, 32), 2, 9);
    let backend = Backend::analog(7, XbarConfig::hermes_256());
    let infer = |par: Parallelism| {
        let mut s = platform.session();
        s.set_parallelism(par);
        s.infer(&images, backend.clone()).unwrap()
    };
    let serial = infer(Parallelism::Serial);
    assert_eq!(serial, infer(Parallelism::Threads(2)), "threaded diverged");
}
