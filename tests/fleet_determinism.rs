//! The sharded serving fleet's hard invariant, end-to-end through
//! `Platform::serve_fleet`: **fleet invariance** — for a fixed seed, the
//! logits of every request are bit-identical to a solo `Session::infer_one`
//! stream of the same images, for ANY shard count and ANY routing policy,
//! on both functional backends, and across fleet-wide
//! `apply_drift` / `reprogram` / `set_parallelism` transitions.
//!
//! The mechanism: the router owns the global arrival counter and stamps
//! every request with its global stream index; shards evaluate whatever
//! non-contiguous slice of the stream they were handed at those explicit
//! coordinates (`Executor::infer_batch_indexed`) on replicas programmed
//! from the same seed (identical conductances).

use aimc_platform::prelude::*;
use aimc_platform::serve::RoutePolicy;
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

fn platform() -> Platform {
    Platform::builder()
        .graph(small_cnn())
        .arch(ArchConfig::small(8, 8))
        .he_weights(42)
        .build()
        .unwrap()
}

fn noisy_backend() -> Backend {
    // Real noise levels and small arrays: every MVM consumes randomness
    // and every layer splits across tiles — the hardest case for the
    // invariance.
    Backend::analog(7, XbarConfig::hermes_256().with_size(32, 4))
}

/// Solo reference: one `infer_one` per image, in stream order, on a fresh
/// single session.
fn solo_logits(backend: &Backend, images: &[Tensor]) -> Vec<Tensor> {
    let mut s = platform().session();
    images
        .iter()
        .map(|x| s.infer_one(x, backend.clone()).unwrap())
        .collect()
}

/// Fleet stream: submit every image in order through the router and wait
/// for all completions.
fn fleet_logits(fleet: &FleetHandle, images: &[Tensor]) -> Vec<Tensor> {
    let pendings: Vec<Pending> = images
        .iter()
        .map(|x| fleet.submit(x.clone()).unwrap())
        .collect();
    pendings.into_iter().map(|p| p.wait().unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random request streams × shard count × routing policy × backend:
    /// the fleet's logits are bit-identical to the solo stream, per image.
    #[test]
    fn fleet_stream_is_bit_identical_to_solo(
        seed in 0u64..1_000,
        n in 1usize..9,
        shard_idx in 0usize..4,
        route_idx in 0usize..2,
    ) {
        let n_shards = [1usize, 2, 3, 8][shard_idx];
        let route = [RoutePolicy::RoundRobin, RoutePolicy::LeastQueueDepth][route_idx];
        let images = random_images(n, seed);
        let policy = BatchPolicy::new(2, Duration::from_millis(1));
        let platform = platform();
        for backend in [Backend::Golden, noisy_backend()] {
            let want = solo_logits(&backend, &images);
            let fleet = platform.serve_fleet(n_shards, policy, route, &backend).unwrap();
            let got = fleet_logits(&fleet, &images);
            fleet.shutdown();
            prop_assert_eq!(
                &want, &got,
                "backend {:?}, {} shard(s), {:?} diverged",
                backend, n_shards, route
            );
        }
    }
}

/// The invariance survives fleet-wide drift and reprogramming: a fleet
/// taken through transitions between phases matches a solo session through
/// the same transitions — every replica drifts/reprograms at the same
/// global stream position (the fleet drains first), and reprogramming
/// rewinds the router's global counter exactly like a solo session's
/// executor counter.
#[test]
fn fleet_across_drift_and_reprogram_matches_solo() {
    let backend = noisy_backend();
    let images = random_images(6, 11);
    let (a, b) = images.split_at(3);

    // Solo reference through the same transition points.
    let mut solo = platform().session();
    let mut want: Vec<Tensor> = a
        .iter()
        .map(|x| solo.infer_one(x, backend.clone()).unwrap())
        .collect();
    solo.apply_drift(1000.0).unwrap();
    want.extend(
        b.iter()
            .map(|x| solo.infer_one(x, backend.clone()).unwrap()),
    );
    solo.reprogram(&backend).unwrap();
    want.extend(
        a.iter()
            .map(|x| solo.infer_one(x, backend.clone()).unwrap()),
    );

    // Fleet: three shards across all three phases.
    let fleet = platform()
        .serve_fleet(
            3,
            BatchPolicy::new(2, Duration::from_millis(1)),
            RoutePolicy::RoundRobin,
            &backend,
        )
        .unwrap();
    let mut got = fleet_logits(&fleet, a);
    assert!(fleet.apply_drift(1000.0), "analog replicas model drift");
    got.extend(fleet_logits(&fleet, b));
    fleet.reprogram().unwrap();
    assert_eq!(fleet.images_routed(), 0, "reprogram rewinds the stream");
    got.extend(fleet_logits(&fleet, a));
    fleet.shutdown();

    assert_eq!(want, got, "transitioned fleet stream diverged from solo");
    // Reprogramming rewinds the stream: image a[0] re-served after
    // reprogram replays coordinate 0 on freshly written replicas.
    assert_eq!(want[0], want[6], "reprogram did not rewind the stream");
}

/// `FleetHandle::set_parallelism` retunes every shard mid-serve
/// (snapshotted per batch) and never changes a bit of the results.
#[test]
fn set_parallelism_mid_fleet_serve_is_deterministic() {
    let backend = noisy_backend();
    let images = random_images(6, 13);
    let want = solo_logits(&backend, &images);

    let fleet = platform()
        .serve_fleet(
            2,
            BatchPolicy::new(3, Duration::from_millis(1)),
            RoutePolicy::LeastQueueDepth,
            &backend,
        )
        .unwrap();
    let mut got = Vec::new();
    for (phase, chunk) in images.chunks(2).enumerate() {
        fleet.set_parallelism(match phase % 3 {
            0 => Parallelism::Serial,
            1 => Parallelism::Threads(4),
            _ => Parallelism::Threads(2),
        });
        got.extend(fleet_logits(&fleet, chunk));
    }
    fleet.shutdown();
    assert_eq!(want, got, "thread-budget changes must never change logits");
}

/// Aggregated fleet statistics are coherent with the routed stream.
#[test]
fn fleet_stats_aggregate_matches_the_stream() {
    let backend = Backend::Golden;
    let images = random_images(9, 17);
    let want = solo_logits(&backend, &images);

    let platform = platform();
    let fleet = platform
        .serve_fleet(
            3,
            BatchPolicy::new(2, Duration::from_millis(1)),
            RoutePolicy::RoundRobin,
            &backend,
        )
        .unwrap();
    assert_eq!(fleet.shard_count(), 3);
    // Indices stay global and unique, so results match the solo stream
    // image for image.
    let pendings: Vec<Pending> = images
        .iter()
        .map(|x| fleet.submit(x.clone()).unwrap())
        .collect();
    let got: Vec<Tensor> = pendings.into_iter().map(|p| p.wait().unwrap()).collect();
    assert_eq!(want, got);

    fleet.drain();
    assert_eq!(fleet.images_routed(), 9);
    let stats = fleet.stats();
    assert_eq!(stats.shards.len(), 3);
    let per_shard: u64 = stats.shards.iter().map(|s| s.submitted).sum();
    let agg = stats.aggregate();
    assert_eq!(agg.submitted, per_shard);
    assert_eq!(agg.submitted, 9);
    assert_eq!(agg.completed, 9);
    assert_eq!(agg.dispatched, 9);
    assert_eq!(agg.queue_waits.len(), 9);
    assert!(agg.max_batch_observed <= 2);
    assert!(
        agg.batches >= 5,
        "9 requests at max_batch 2 need ≥5 batches"
    );

    fleet.shutdown();
    assert!(fleet.is_closed());
    assert!(matches!(
        fleet.submit(images[0].clone()),
        Err(ServeError::ShutDown)
    ));
    assert_eq!(fleet.stats().aggregate().rejected, 1);
}

/// A fleet without weights is a typed error, and a 0-shard request clamps
/// to one shard instead of panicking.
#[test]
fn fleet_error_paths_and_shard_clamp() {
    let no_weights = Platform::builder()
        .graph(small_cnn())
        .arch(ArchConfig::small(8, 8))
        .build()
        .unwrap();
    assert_eq!(
        no_weights
            .serve_fleet(
                2,
                BatchPolicy::default(),
                RoutePolicy::RoundRobin,
                &Backend::Golden,
            )
            .unwrap_err(),
        Error::NoWeights
    );

    let fleet = platform()
        .serve_fleet(
            0,
            BatchPolicy::new(1, Duration::from_millis(1)),
            RoutePolicy::RoundRobin,
            &Backend::Golden,
        )
        .unwrap();
    assert_eq!(fleet.shard_count(), 1);
    let images = random_images(2, 23);
    assert_eq!(
        fleet_logits(&fleet, &images),
        solo_logits(&Backend::Golden, &images)
    );
    fleet.shutdown();
}

/// A malformed image is refused alone on a local seat: the seat checks it
/// before queueing, so it cannot fail the micro-batch it would have
/// joined, and the router releases its index — the good requests around
/// it keep solo coordinates 0 and 1.
#[test]
fn malformed_request_fails_alone_on_a_local_seat() {
    let backend = noisy_backend();
    let images = random_images(2, 37);
    let want = solo_logits(&backend, &images);

    // max_batch 3 and an hour-long wait: good, bad, good would share one
    // batch if the bad image were queued.
    let fleet = platform()
        .serve_fleet(
            1,
            BatchPolicy::new(3, Duration::from_secs(3600)),
            RoutePolicy::RoundRobin,
            &backend,
        )
        .unwrap();
    let first = fleet.submit(images[0].clone()).unwrap();
    assert!(matches!(
        fleet.submit(Tensor::zeros(Shape::new(3, 4, 4))),
        Err(ServeError::Exec(ExecError::ShapeMismatch { .. }))
    ));
    let second = fleet.submit(images[1].clone()).unwrap();
    assert_eq!(fleet.images_routed(), 2, "the refused index was released");
    // Shutdown dispatches the partial batch.
    fleet.shutdown();
    assert_eq!(vec![first.wait().unwrap(), second.wait().unwrap()], want);
}
