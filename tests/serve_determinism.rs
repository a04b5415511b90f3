//! The serving layer's hard invariant, end-to-end through
//! `Session::serve`: **batch-composition invariance** — for a fixed seed,
//! the logits of every request are bit-identical to a solo
//! `Session::infer_one` stream of the same images, no matter how the
//! micro-batch scheduler chopped the request stream (any `max_batch`, any
//! arrival jitter), for both functional backends, and across
//! `apply_drift` / `reprogram` / `set_parallelism` transitions.

use aimc_platform::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn small_cnn() -> Graph {
    let mut b = GraphBuilder::new(Shape::new(3, 8, 8));
    let c0 = b.conv("c0", b.input(), ConvCfg::k3(3, 8, 1));
    let c1 = b.conv("c1", Some(c0), ConvCfg::k3(8, 8, 1));
    let r = b.residual("r", c1, c0, None);
    let p = b.global_avgpool("gap", r);
    b.linear("fc", p, 4);
    b.finish()
}

fn random_images(n: usize, seed: u64) -> Vec<Tensor> {
    let shape = Shape::new(3, 8, 8);
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

fn session() -> Session {
    Platform::builder()
        .graph(small_cnn())
        .arch(ArchConfig::small(8, 8))
        .he_weights(42)
        .build()
        .unwrap()
        .session()
}

fn noisy_backend() -> Backend {
    // Real noise levels and small arrays: every MVM consumes randomness
    // and every layer splits across tiles — the hardest case for the
    // invariance.
    Backend::analog(7, XbarConfig::hermes_256().with_size(32, 4))
}

/// Solo reference: one `infer_one` per image, in stream order.
fn solo_logits(backend: &Backend, images: &[Tensor]) -> Vec<Tensor> {
    let mut s = session();
    images
        .iter()
        .map(|x| s.infer_one(x, backend.clone()).unwrap())
        .collect()
}

/// Served stream: submit every image in order (with optional inter-arrival
/// jitter) through one `Session::serve` handle and wait for all
/// completions.
fn served_logits(
    session: &mut Session,
    backend: &Backend,
    policy: BatchPolicy,
    images: &[Tensor],
    jitter: Duration,
) -> Vec<Tensor> {
    session.program(backend).unwrap();
    let handle = session.serve(policy).unwrap();
    let pendings: Vec<Pending> = images
        .iter()
        .map(|x| {
            if !jitter.is_zero() {
                std::thread::sleep(jitter);
            }
            handle.submit(x.clone()).unwrap()
        })
        .collect();
    let logits: Vec<Tensor> = pendings.into_iter().map(|p| p.wait().unwrap()).collect();
    handle.shutdown();
    logits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random request streams, arrival jitters, and batch bounds: the
    /// served logits are bit-identical to the solo stream, per image, for
    /// both backends.
    #[test]
    fn served_stream_is_bit_identical_to_solo(
        seed in 0u64..1_000,
        n in 1usize..8,
        mb_idx in 0usize..4,
        jitter_us in 0u64..400,
    ) {
        let max_batch = [1usize, 2, 3, 16][mb_idx];
        let images = random_images(n, seed);
        let policy = BatchPolicy::new(max_batch, Duration::from_millis(1));
        let jitter = Duration::from_micros(jitter_us);
        for backend in [Backend::Golden, noisy_backend()] {
            let want = solo_logits(&backend, &images);
            let mut s = session();
            let got = served_logits(&mut s, &backend, policy, &images, jitter);
            prop_assert_eq!(
                &want, &got,
                "backend {:?}, max_batch {}, jitter {:?} diverged",
                backend, max_batch, jitter
            );
        }
    }
}

/// The invariance survives drift and reprogramming: a served stream with
/// transitions between phases matches a solo stream through the same
/// transitions — the handle's router numbering (untouched by drift,
/// rewound by the handle's reprogram) is the shared stream authority.
#[test]
fn serving_across_drift_and_reprogram_matches_solo() {
    let backend = noisy_backend();
    let images = random_images(6, 11);
    let (a, b) = images.split_at(3);

    // Solo reference through the same transition points.
    let mut solo = session();
    let mut want: Vec<Tensor> = a
        .iter()
        .map(|x| solo.infer_one(x, backend.clone()).unwrap())
        .collect();
    solo.apply_drift(1000.0).unwrap();
    let mut post_drift: Vec<Tensor> = b
        .iter()
        .map(|x| solo.infer_one(x, backend.clone()).unwrap())
        .collect();
    want.append(&mut post_drift);
    solo.reprogram(&backend).unwrap();
    let mut post_reprogram: Vec<Tensor> = a
        .iter()
        .map(|x| solo.infer_one(x, backend.clone()).unwrap())
        .collect();
    want.append(&mut post_reprogram);

    // Served stream: one handle across all three phases.
    let mut s = session();
    s.program(&backend).unwrap();
    let handle = s
        .serve(BatchPolicy::new(2, Duration::from_millis(1)))
        .unwrap();
    let mut got = Vec::new();
    let pendings: Vec<Pending> = a
        .iter()
        .map(|x| handle.submit(x.clone()).unwrap())
        .collect();
    got.extend(pendings.into_iter().map(|p| p.wait().unwrap()));
    handle.drain();
    s.apply_drift(1000.0).unwrap();
    let pendings: Vec<Pending> = b
        .iter()
        .map(|x| handle.submit(x.clone()).unwrap())
        .collect();
    got.extend(pendings.into_iter().map(|p| p.wait().unwrap()));
    handle.drain();
    handle.reprogram().unwrap();
    assert_eq!(s.images_seen(), 0, "reprogram resets the image stream");
    let pendings: Vec<Pending> = a
        .iter()
        .map(|x| handle.submit(x.clone()).unwrap())
        .collect();
    got.extend(pendings.into_iter().map(|p| p.wait().unwrap()));
    handle.shutdown();

    assert_eq!(want, got, "transitioned served stream diverged from solo");
    // Reprogramming rewinds the stream: image a[0] re-served after
    // reprogram replays coordinate 0 on freshly written crossbars, so it
    // must reproduce its first-phase logits exactly.
    assert_eq!(want[0], want[6], "reprogram did not rewind the stream");
}

/// `set_parallelism` reaches in-flight handles (shared knob, snapshotted
/// per batch) and never changes a bit of the results.
#[test]
fn set_parallelism_mid_serve_is_deterministic() {
    let backend = noisy_backend();
    let images = random_images(6, 13);
    let want = solo_logits(&backend, &images);

    let mut s = session();
    s.program(&backend).unwrap();
    let handle = s
        .serve(BatchPolicy::new(3, Duration::from_millis(1)))
        .unwrap();
    let mut got = Vec::new();
    for (phase, chunk) in images.chunks(2).enumerate() {
        // Flip the shared knob between phases while the handle is live.
        s.set_parallelism(match phase % 3 {
            0 => Parallelism::Serial,
            1 => Parallelism::Threads(4),
            _ => Parallelism::Threads(2),
        });
        let pendings: Vec<Pending> = chunk
            .iter()
            .map(|x| handle.submit(x.clone()).unwrap())
            .collect();
        got.extend(pendings.into_iter().map(|p| p.wait().unwrap()));
    }
    handle.shutdown();
    assert_eq!(want, got, "thread-budget changes must never change logits");
    assert_eq!(s.images_seen(), images.len() as u64);
}

/// Serving the golden backend works and stays consistent when an analog
/// backend is programmed afterwards (slots are independent).
#[test]
fn golden_handle_survives_analog_programming() {
    let images = random_images(3, 17);
    let want = solo_logits(&Backend::Golden, &images);

    let mut s = session();
    s.program(&Backend::Golden).unwrap();
    let golden_handle = s
        .serve(BatchPolicy::new(2, Duration::from_millis(1)))
        .unwrap();
    // Programming analog must not disturb the live golden handle.
    s.program(&noisy_backend()).unwrap();
    let analog_handle = s
        .serve(BatchPolicy::new(2, Duration::from_millis(1)))
        .unwrap();

    let golden: Vec<Tensor> = images
        .iter()
        .map(|x| golden_handle.submit(x.clone()).unwrap())
        .collect::<Vec<Pending>>()
        .into_iter()
        .map(|p| p.wait().unwrap())
        .collect();
    let analog: Vec<Tensor> = images
        .iter()
        .map(|x| analog_handle.submit(x.clone()).unwrap())
        .collect::<Vec<Pending>>()
        .into_iter()
        .map(|p| p.wait().unwrap())
        .collect();
    golden_handle.shutdown();
    analog_handle.shutdown();

    assert_eq!(want, golden);
    assert_eq!(solo_logits(&noisy_backend(), &images), analog);
}

/// `Session::serve` without a programmed backend is a typed error, and
/// serve stats reflect the dispatched stream.
#[test]
fn serve_requires_a_programmed_backend_and_reports_stats() {
    let mut s = session();
    assert_eq!(
        s.serve(BatchPolicy::default()).unwrap_err(),
        Error::NoBackend
    );

    let images = random_images(5, 19);
    s.program(&Backend::Golden).unwrap();
    let handle = s
        .serve(BatchPolicy::new(2, Duration::from_millis(1)))
        .unwrap();
    let pendings: Vec<Pending> = images
        .iter()
        .map(|x| handle.submit(x.clone()).unwrap())
        .collect();
    for p in pendings {
        p.wait().unwrap();
    }
    handle.shutdown();
    let stats = handle.stats().aggregate();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.completed, 5);
    assert!(
        stats.batches >= 3,
        "max_batch 2 needs ≥3 batches for 5 images"
    );
    assert!(stats.max_batch_observed <= 2);
    assert_eq!(stats.queue_waits.len(), 5);
}

/// A request rejected for its input shape claims no stream coordinate,
/// through `Session::infer` and through a served batch alike: the good
/// requests after it get exactly the logits of a stream that never saw it.
#[test]
fn rejected_inputs_shift_no_stream() {
    let backend = noisy_backend();
    let images = random_images(2, 5);
    let bad = Tensor::zeros(Shape::new(3, 4, 4));
    let want = solo_logits(&backend, &images);

    let mut s = session();
    assert!(s
        .infer(&[images[0].clone(), bad.clone()], backend.clone())
        .is_err());
    assert_eq!((s.images_seen(), s.total_mvms()), (0, 0));
    let handle = s
        .serve(BatchPolicy::new(1, Duration::from_millis(1)))
        .unwrap();
    assert!(matches!(
        handle.submit(bad),
        Err(ServeError::Exec(ExecError::ShapeMismatch { .. }))
    ));
    let got: Vec<Tensor> = images
        .iter()
        .map(|x| handle.submit(x.clone()).unwrap().wait().unwrap())
        .collect();
    handle.shutdown();
    assert_eq!(got, want, "a rejected request shifted the stream");
}

/// ResNet-18/CIFAR on full-size `hermes_256` arrays: eight images served
/// one per batch on one thread, then eight per batch on two threads, both
/// equal one solo `infer_one` stream — neither the batch composition nor
/// the thread budget changes a logit of the paper's network.
#[test]
fn resnet18_served_batches_match_solo() {
    let platform = Platform::builder()
        .graph(resnet18_cifar(10))
        .arch(ArchConfig::small(8, 8))
        .he_weights(42)
        .build()
        .unwrap();
    let backend = Backend::analog(7, XbarConfig::hermes_256());
    let shape = Shape::new(3, 32, 32);
    let mut rng = StdRng::seed_from_u64(9);
    let images: Vec<Tensor> = (0..8)
        .map(|_| {
            Tensor::from_vec(
                shape,
                (0..shape.numel())
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            )
        })
        .collect();
    let mut s = platform.session();
    let want: Vec<Tensor> = images
        .iter()
        .map(|x| s.infer_one(x, backend.clone()).unwrap())
        .collect();

    // Each served stream numbers from coordinate 0 on its own, so both
    // replay the solo stream's coordinates on the same crossbars.
    for (max_batch, par) in [(1, Parallelism::Serial), (8, Parallelism::Threads(2))] {
        s.set_parallelism(par);
        let handle = s
            .serve(BatchPolicy::new(max_batch, Duration::from_millis(5)))
            .unwrap();
        let pendings: Vec<Pending> = images
            .iter()
            .map(|x| handle.submit(x.clone()).unwrap())
            .collect();
        let got: Vec<Tensor> = pendings.into_iter().map(|p| p.wait().unwrap()).collect();
        handle.shutdown();
        assert_eq!(want, got, "max_batch {max_batch} under {par:?} diverged");
    }
}

/// A live handle keeps the replica it was started on: programming another
/// analog backend gives the session fresh crossbars, so the handle's
/// reprogram rewrites its own replica and never the session's new one.
#[test]
fn handle_keeps_its_replica_when_the_session_switches_backend() {
    let images = random_images(2, 43);
    let other = Backend::analog(8, XbarConfig::hermes_256().with_size(32, 4));
    let mut s = session();
    s.program(&noisy_backend()).unwrap();
    let handle = s
        .serve(BatchPolicy::new(1, Duration::from_millis(1)))
        .unwrap();
    s.program(&other).unwrap();
    handle.reprogram().unwrap();
    let served = handle.submit(images[0].clone()).unwrap().wait().unwrap();
    handle.shutdown();
    assert_eq!(served, solo_logits(&noisy_backend(), &images[..1])[0]);
    assert_eq!(
        s.infer_one(&images[1], other.clone()).unwrap(),
        solo_logits(&other, &images[1..])[0]
    );
}
