//! Round-trip tests of the `Platform`/`Session` API against the legacy
//! free-function wiring, plus its error paths and the crossbar-retention
//! contract.

use aimc_platform::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn small_cnn() -> Graph {
    let mut b = GraphBuilder::new(Shape::new(3, 16, 16));
    let c0 = b.conv("c0", b.input(), ConvCfg::k3(3, 8, 1));
    let c1 = b.conv("c1", Some(c0), ConvCfg::k3(8, 8, 1));
    let r = b.residual("r", c1, c0, None);
    let gap = b.global_avgpool("gap", r);
    b.linear("fc", gap, 4);
    b.finish()
}

fn random_image(shape: Shape, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        shape,
        (0..shape.numel())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    )
}

fn small_platform() -> Platform {
    Platform::builder()
        .graph(small_cnn())
        .arch(ArchConfig::small(4, 8))
        .strategy(MappingStrategy::OnChipResiduals)
        .he_weights(11)
        .build()
        .expect("small CNN maps onto 32 clusters")
}

// ---------------------------------------------------------------------------
// Round-trip parity with the legacy free-function path
// ---------------------------------------------------------------------------

#[test]
fn session_run_matches_legacy_simulate_totals() {
    let platform = small_platform();
    let mut session = platform.session();
    let new = session.run(RunSpec::batch(4)).unwrap().clone();

    // Legacy path: hand-wired map_network + simulate.
    let g = small_cnn();
    let arch = ArchConfig::small(4, 8);
    let m = map_network(&g, &arch, MappingStrategy::OnChipResiduals).unwrap();
    let old = simulate(&g, &m, &arch, 4).unwrap();

    assert_eq!(new.batch, old.batch);
    assert_eq!(new.makespan, old.makespan);
    assert_eq!(new.nominal_ops, old.nominal_ops);
    assert_eq!(new.useful_ops, old.useful_ops);
    assert_eq!(new.executed_ops, old.executed_ops);
    assert_eq!(new.image_completions, old.image_completions);
    assert_eq!(new.hbm_bytes, old.hbm_bytes);
}

#[test]
fn session_infer_golden_matches_legacy_logits() {
    let g = small_cnn();
    let w = he_init(&g, 11);
    let platform = Platform::builder()
        .graph(g.clone())
        .arch(ArchConfig::small(4, 8))
        .weights(w.clone())
        .build()
        .unwrap();
    let mut session = platform.session();
    let images: Vec<Tensor> = (0..4)
        .map(|i| random_image(g.input_shape(), 50 + i))
        .collect();
    let new = session.infer(&images, Backend::Golden).unwrap();
    for (x, y) in images.iter().zip(&new) {
        assert_eq!(
            y,
            &infer_golden(&g, &w, x),
            "golden logits must be identical"
        );
    }
}

#[test]
fn session_infer_analog_matches_legacy_executor() {
    let g = small_cnn();
    let w = he_init(&g, 11);
    let platform = Platform::builder()
        .graph(g.clone())
        .arch(ArchConfig::small(4, 8))
        .weights(w.clone())
        .build()
        .unwrap();
    let mut session = platform.session();
    let x = random_image(g.input_shape(), 3);
    let cfg = XbarConfig::hermes_256();
    let new = session
        .infer_one(&x, Backend::analog(9, cfg.clone()))
        .unwrap();
    // A standalone executor with the same seed sees the identical noise
    // stream.
    let legacy = AimcExecutor::try_program_shared_with(
        Arc::new(g),
        Arc::new(w),
        &cfg,
        9,
        Parallelism::Serial,
    )
    .unwrap();
    let want = legacy
        .infer_batch(std::slice::from_ref(&x), Parallelism::Serial)
        .unwrap();
    assert_eq!(vec![new], want);
}

#[test]
fn headline_matches_legacy_composition() {
    let platform = small_platform();
    let mut session = platform.session();
    session.run(RunSpec::batch(4)).unwrap();
    let energy = EnergyModel::default();
    let area = AreaModel::default();
    let new = session.headline(&energy, &area).unwrap();

    let g = small_cnn();
    let arch = ArchConfig::small(4, 8);
    let m = map_network(&g, &arch, MappingStrategy::OnChipResiduals).unwrap();
    let r = simulate(&g, &m, &arch, 4).unwrap();
    let old = Headline::compute(&m, &arch, &r, &energy, &area);
    assert_eq!(new, old);
}

// ---------------------------------------------------------------------------
// Error paths: Err values where the legacy path panicked
// ---------------------------------------------------------------------------

#[test]
fn missing_weights_is_err_not_panic() {
    let platform = Platform::builder()
        .graph(small_cnn())
        .arch(ArchConfig::small(4, 8))
        .build()
        .unwrap(); // no weights supplied
    let mut session = platform.session();
    let x = Tensor::zeros(Shape::new(3, 16, 16));
    assert_eq!(
        session.infer_one(&x, Backend::Golden),
        Err(Error::NoWeights)
    );
    assert_eq!(
        session.infer_one(&x, Backend::analog(1, XbarConfig::hermes_256())),
        Err(Error::NoWeights)
    );
}

#[test]
fn shape_mismatch_is_err_not_panic() {
    let mut session = small_platform().session();
    let wrong = Tensor::zeros(Shape::new(3, 8, 8));
    for backend in [
        Backend::Golden,
        Backend::analog(1, XbarConfig::ideal(64, 64)),
    ] {
        match session.infer_one(&wrong, backend) {
            Err(Error::Exec(ExecError::ShapeMismatch { expected, got })) => {
                assert_eq!(expected, Shape::new(3, 16, 16));
                assert_eq!(got, Shape::new(3, 8, 8));
            }
            other => panic!("expected shape mismatch, got {other:?}"),
        }
    }
}

#[test]
fn oversized_workload_is_map_err_not_panic() {
    // ResNet-18 at paper scale cannot fit 8 clusters.
    let result = Platform::builder()
        .graph(resnet18(256, 256, 1000))
        .arch(ArchConfig::small(2, 4))
        .build();
    match result {
        Err(Error::Map(MapError::OutOfClusters { needed, available })) => {
            assert!(needed > available);
        }
        other => panic!("expected OutOfClusters, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn run_paper_style_error_chain_formats() {
    // The unified error renders each layer's message.
    let e = Error::Map(MapError::Unsupported("lstm".into()));
    assert!(e.to_string().contains("unsupported operator"));
    let e = Error::NoWeights;
    assert!(e.to_string().contains("he_weights"));
}

// ---------------------------------------------------------------------------
// Crossbar retention across infer calls
// ---------------------------------------------------------------------------

#[test]
fn consecutive_infer_calls_reuse_programmed_crossbars() {
    let mut session = small_platform().session();
    let x = random_image(Shape::new(3, 16, 16), 21);
    // Ideal arrays: no noise, so identical outputs are only possible if the
    // conductances are bit-identical — i.e. the same programmed tiles.
    let backend = Backend::analog(5, XbarConfig::ideal(256, 256));
    let first = session.infer_one(&x, backend.clone()).unwrap();
    assert_eq!(session.programming_count(), 1);
    let mvms_after_first = session.total_mvms();
    assert!(mvms_after_first > 0);

    let second = session.infer_one(&x, backend.clone()).unwrap();
    assert_eq!(first, second, "same tiles + no noise => identical logits");
    assert_eq!(
        session.programming_count(),
        1,
        "second infer must not re-program"
    );
    assert_eq!(
        session.total_mvms(),
        2 * mvms_after_first,
        "the same executor kept accumulating MVMs"
    );
    assert_eq!(session.programmed_backend(), Some(&backend));
}

#[test]
fn golden_checks_do_not_discard_programmed_crossbars() {
    // The golden and analog slots are independent: interleaving a golden
    // reference check must not re-write (and thereby reset) the arrays.
    let mut session = small_platform().session();
    let x = random_image(Shape::new(3, 16, 16), 2);
    let analog = Backend::analog(5, XbarConfig::ideal(128, 128));
    let first = session.infer_one(&x, analog.clone()).unwrap();
    assert_eq!(session.programming_count(), 1);
    let tiles = session.tile_count();
    assert!(tiles > 0);

    session.infer_one(&x, Backend::Golden).unwrap();
    assert_eq!(
        session.programming_count(),
        1,
        "golden check must not re-write crossbars"
    );
    assert_eq!(session.tile_count(), tiles, "analog tiles retained");

    let third = session.infer_one(&x, analog.clone()).unwrap();
    assert_eq!(session.programming_count(), 1, "same arrays, no re-program");
    assert_eq!(first, third);

    // A *different* analog backend does re-write the arrays...
    session
        .infer_one(&x, Backend::analog(6, XbarConfig::ideal(128, 128)))
        .unwrap();
    assert_eq!(session.programming_count(), 2);
    // ...and reprogram() forces a fresh write of the same backend.
    session.reprogram(&analog).unwrap();
    assert_eq!(session.programming_count(), 3);
}

#[test]
fn drift_survives_interleaved_golden_checks() {
    let mut session = small_platform().session();
    let x = random_image(Shape::new(3, 16, 16), 4);
    // Noiseless arrays (deterministic outputs) but with the real PCM drift
    // exponent, so apply_drift visibly decays the conductances.
    let mut cfg = XbarConfig::ideal(128, 128);
    cfg.drift_nu = XbarConfig::hermes_256().drift_nu;
    let analog = Backend::analog(5, cfg);
    let fresh = session.infer_one(&x, analog.clone()).unwrap();
    session.apply_drift(24.0 * 365.0).unwrap();
    let drifted = session.infer_one(&x, analog.clone()).unwrap();
    assert_ne!(fresh, drifted, "a year of drift must decay the outputs");

    // Golden check in between must not silently restore fresh conductances.
    session.infer_one(&x, Backend::Golden).unwrap();
    let after_golden = session.infer_one(&x, analog).unwrap();
    assert_eq!(
        drifted, after_golden,
        "drifted arrays retained across golden check"
    );
}

#[test]
fn batch_infer_programs_once() {
    let mut session = small_platform().session();
    let images: Vec<Tensor> = (0..6)
        .map(|i| random_image(Shape::new(3, 16, 16), 100 + i))
        .collect();
    let outs = session
        .infer(&images, Backend::analog(1, XbarConfig::hermes_256()))
        .unwrap();
    assert_eq!(outs.len(), 6);
    assert_eq!(session.programming_count(), 1);
}
