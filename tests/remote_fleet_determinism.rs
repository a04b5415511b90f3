//! The transport-agnostic fleet's hard invariant, end-to-end through
//! `Platform::serve_fleet_with`: **fleet invariance across placement** —
//! for a fixed seed, the logits of every request are bit-identical to a
//! solo `Session::infer_one` stream of the same images, for ANY mix of
//! local and remote (wire-protocol) transports, ANY lease length, and ANY
//! routing policy, on both functional backends, including across a
//! fleet-wide drained reprogram.
//!
//! Remote shards run real `ShardServer`s speaking the `aimc-wire`
//! protocol over in-memory duplex pipes — byte-for-byte the TCP protocol,
//! minus the socket. `resnet18_fleets_over_loopback_tcp_match_solo` adds
//! the socket: ResNet-18/CIFAR requests, 12 KiB frames each, cross real
//! loopback TCP (so does `examples/remote_fleet.rs`).

use aimc_platform::prelude::*;
use aimc_platform::wire::duplex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpListener;
use std::thread::JoinHandle;
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

/// Which transports back the fleet's shards.
#[derive(Debug, Clone, Copy)]
enum Mix {
    AllLocal,
    AllTcp,
    /// Alternating local / wire-protocol shards.
    Mixed,
}

/// A fleet plus the server threads backing its remote shards; shut the
/// fleet down, then `join` to settle the servers.
struct TestFleet {
    fleet: FleetHandle,
    servers: Vec<JoinHandle<()>>,
}

impl TestFleet {
    fn shutdown(self) {
        self.fleet.shutdown();
        for s in self.servers {
            s.join().expect("shard server settles after shutdown");
        }
    }
}

/// Assembles an `n_shards` fleet under `mix`: local shards go straight
/// into the router; remote shards run a `ShardServer` (wrapping an
/// identically programmed replica) on its own thread behind a duplex pipe,
/// reached through `TcpTransport::over`.
fn build_fleet(
    platform: &Platform,
    n_shards: usize,
    mix: Mix,
    policy: FleetPolicy,
    batch: BatchPolicy,
    backend: &Backend,
) -> TestFleet {
    let mut transports: Vec<Box<dyn ShardTransport>> = Vec::with_capacity(n_shards);
    let mut servers = Vec::new();
    for shard_id in 0..n_shards {
        let remote = match mix {
            Mix::AllLocal => false,
            Mix::AllTcp => true,
            Mix::Mixed => shard_id % 2 == 1,
        };
        if remote {
            let server = platform.shard_server(batch, backend).unwrap();
            let (client_end, server_end) = duplex();
            servers.push(std::thread::spawn({
                let reader = server_end.clone();
                let writer = server_end.clone();
                move || {
                    server
                        .serve_stream(reader, writer)
                        .expect("shard server protocol loop");
                    // Close the pipe so the client's reader thread exits.
                    server_end.close();
                }
            }));
            let reader = client_end.clone();
            transports.push(Box::new(TcpTransport::over(reader, client_end)));
        } else {
            transports.push(Box::new(platform.local_shard(batch, backend).unwrap()));
        }
    }
    TestFleet {
        fleet: platform.serve_fleet_with(transports, policy).unwrap(),
        servers,
    }
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

    /// Random request streams × transport mix {all-local, all-tcp, mixed}
    /// × lease length {1, 4, 64} × routing policy × shard count × backend:
    /// the fleet's logits are bit-identical to the solo stream, per image.
    #[test]
    fn any_transport_mix_is_bit_identical_to_solo(
        seed in 0u64..1_000,
        n in 1usize..8,
        shard_idx in 0usize..3,
        mix_idx in 0usize..3,
        lease_idx in 0usize..3,
        route_idx in 0usize..2,
    ) {
        let n_shards = [1usize, 2, 3][shard_idx];
        let mix = [Mix::AllLocal, Mix::AllTcp, Mix::Mixed][mix_idx];
        let lease = [1u64, 4, 64][lease_idx];
        let route = [RoutePolicy::RoundRobin, RoutePolicy::LeastQueueDepth][route_idx];
        let policy = FleetPolicy::new(route).with_lease_len(lease);
        let batch = BatchPolicy::new(2, Duration::from_millis(1));
        let images = random_images(n, seed);
        let platform = platform();
        for backend in [Backend::Golden, noisy_backend()] {
            let want = solo_logits(&backend, &images);
            let tf = build_fleet(&platform, n_shards, mix, policy, batch, &backend);
            let got = fleet_logits(&tf.fleet, &images);
            tf.shutdown();
            prop_assert_eq!(
                &want, &got,
                "backend {:?}, {} shard(s), {:?}, lease {}, {:?} diverged",
                backend, n_shards, mix, lease, route
            );
        }
    }
}

/// The invariance survives fleet-wide drift and reprogramming on a
/// **mixed local + remote** fleet: every replica — wherever it lives —
/// transitions at the same drained stream position, the reprogram rewinds
/// the stream to zero (in the middle of a routing block), and the
/// replayed stream matches the solo session's.
#[test]
fn mixed_fleet_across_drift_and_reprogram_matches_solo() {
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

    // Mixed fleet: local, remote, local — blocks of 4, so the reprogram
    // runs in the middle of a block.
    let platform = platform();
    let tf = build_fleet(
        &platform,
        3,
        Mix::Mixed,
        FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(4),
        BatchPolicy::new(2, Duration::from_millis(1)),
        &backend,
    );
    let fleet = &tf.fleet;
    let mut got = fleet_logits(fleet, a);
    assert!(fleet.apply_drift(1000.0), "analog replicas model drift");
    got.extend(fleet_logits(fleet, b));
    fleet.reprogram().unwrap();
    assert_eq!(fleet.images_routed(), 0, "reprogram rewinds the stream");
    got.extend(fleet_logits(fleet, a));
    tf.shutdown();

    assert_eq!(want, got, "transitioned mixed fleet diverged from solo");
    // Reprogramming rewinds the stream: image a[0] re-served after
    // reprogram replays coordinate 0 on freshly written replicas.
    assert_eq!(want[0], want[6], "reprogram did not rewind the stream");
}

/// Block length 1 is the per-request router **exactly**: the same stream
/// through `serve_fleet` (per-request counter semantics) and through an
/// all-local `serve_fleet_with` at block length 1 produces identical
/// logits and identical per-shard request counts under round-robin.
#[test]
fn lease_one_degenerates_to_per_request_routing() {
    let backend = noisy_backend();
    let images = random_images(6, 17);
    let platform = platform();
    let batch = BatchPolicy::new(2, Duration::from_millis(1));

    let reference = platform
        .serve_fleet(3, batch, RoutePolicy::RoundRobin, &backend)
        .unwrap();
    let want = fleet_logits(&reference, &images);
    let ref_counts: Vec<u64> = reference
        .stats()
        .shards
        .iter()
        .map(|s| s.submitted)
        .collect();
    reference.shutdown();

    let tf = build_fleet(
        &platform,
        3,
        Mix::AllLocal,
        FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(1),
        batch,
        &backend,
    );
    let got = fleet_logits(&tf.fleet, &images);
    let got_counts: Vec<u64> = tf
        .fleet
        .stats()
        .shards
        .iter()
        .map(|s| s.submitted)
        .collect();
    tf.shutdown();

    assert_eq!(want, got, "lease 1 changed a logit");
    assert_eq!(ref_counts, got_counts, "lease 1 changed the routing");
}

/// A routing block longer than each burst ends at every drain, and the
/// next burst continues the stream exactly where it stopped, so the stream
/// stays contiguous — and therefore bit-identical to solo.
#[test]
fn drain_reclaim_keeps_the_stream_solo_identical() {
    let backend = noisy_backend();
    let images = random_images(7, 23);
    let want = solo_logits(&backend, &images);

    let platform = platform();
    let tf = build_fleet(
        &platform,
        2,
        Mix::AllTcp,
        FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(64),
        BatchPolicy::new(3, Duration::from_millis(1)),
        &backend,
    );
    let mut got = Vec::new();
    // Bursts of 2/2/3 with a drain between each: every drain ends the
    // 64-request block and the next burst continues from exactly there.
    for chunk in [&images[..2], &images[2..4], &images[4..]] {
        got.extend(fleet_logits(&tf.fleet, chunk));
        tf.fleet.drain();
    }
    assert_eq!(tf.fleet.images_routed(), 7);
    tf.shutdown();
    assert_eq!(want, got, "drain/reclaim changed the stream");
}

/// `serve_fleet_with(vec![], ..)` is the typed `NoShards` error, same as
/// the clamped `serve_fleet` path is never empty — no panic.
#[test]
fn empty_transport_vector_is_a_typed_error() {
    let platform = platform();
    match platform.serve_fleet_with(Vec::new(), FleetPolicy::default()) {
        Err(Error::NoShards) => {}
        other => panic!("expected Error::NoShards, got {other:?}"),
    }
    // And the error is loud about the remedy.
    assert!(Error::NoShards.to_string().contains("at least one"));
}

/// Remote statistics flow back over the wire: a mixed fleet's aggregated
/// stats count every request exactly once, local or remote.
#[test]
fn mixed_fleet_stats_aggregate_over_the_wire() {
    let backend = Backend::Golden;
    let images = random_images(8, 29);
    let platform = platform();
    let tf = build_fleet(
        &platform,
        2,
        Mix::Mixed,
        FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(2),
        BatchPolicy::new(2, Duration::from_millis(1)),
        &backend,
    );
    let got = fleet_logits(&tf.fleet, &images);
    assert_eq!(got, solo_logits(&backend, &images));
    tf.fleet.drain();
    let agg = tf.fleet.stats().aggregate();
    assert_eq!(agg.submitted, 8);
    assert_eq!(agg.completed, 8);
    assert_eq!(agg.dispatched, 8);
    assert_eq!(
        agg.queue_waits.len(),
        8,
        "remote queue-wait samples crossed the wire"
    );
    tf.shutdown();
}

/// A malformed image sent to a TCP seat fails alone: the server's local
/// seat refuses it before queueing, so the good requests around it share
/// a micro-batch and complete with solo logits. The refusal travels back
/// through the request's `Pending`, after the router stamped it, so on a
/// TCP seat the bad request keeps its coordinate (1) and the good ones run
/// at 0, 2 and 3.
#[test]
fn malformed_request_fails_alone_on_a_tcp_seat() {
    let backend = noisy_backend();
    // images[1] only stands in for the bad request in the solo stream:
    // noise is keyed to the coordinate, so its content touches no other
    // request's logits.
    let images = random_images(4, 41);
    let want = solo_logits(&backend, &images);

    let platform = platform();
    // max_batch 3 and an hour-long wait: only a full batch dispatches.
    let tf = build_fleet(
        &platform,
        1,
        Mix::AllTcp,
        FleetPolicy::default(),
        BatchPolicy::new(3, Duration::from_secs(3600)),
        &backend,
    );
    let first = tf.fleet.submit(images[0].clone()).unwrap();
    let bad = tf.fleet.submit(Tensor::zeros(Shape::new(3, 4, 4))).unwrap();
    let rest: Vec<Pending> = images[2..]
        .iter()
        .map(|x| tf.fleet.submit(x.clone()).unwrap())
        .collect();
    assert!(bad.wait().is_err(), "the server refused the bad image");
    let mut got = vec![first.wait().unwrap()];
    got.extend(rest.into_iter().map(|p| p.wait().unwrap()));
    assert_eq!(tf.fleet.images_routed(), 4, "the refused index stays used");
    tf.shutdown();
    assert_eq!(got, vec![want[0].clone(), want[2].clone(), want[3].clone()]);
}

/// ResNet-18/CIFAR at full `hermes_256` arrays: a two-seat local fleet
/// under least-queue-depth routing, and one local seat plus one
/// `TcpTransport` to a `ShardServer` on loopback TCP under round-robin
/// blocks of 4, both serve the stream bit-identical to solo `infer_one`.
#[test]
fn resnet18_fleets_over_loopback_tcp_match_solo() {
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
    let mut solo = platform.session();
    let want: Vec<Tensor> = images
        .iter()
        .map(|x| solo.infer_one(x, backend.clone()).unwrap())
        .collect();
    let serve = |fleet: &FleetHandle| -> Vec<Tensor> {
        let pendings: Vec<Pending> = images
            .iter()
            .map(|x| fleet.submit(x.clone()).unwrap())
            .collect();
        pendings.into_iter().map(|p| p.wait().unwrap()).collect()
    };
    let batch = BatchPolicy::new(4, Duration::from_millis(5));

    let fleet = platform
        .serve_fleet(2, batch, RoutePolicy::LeastQueueDepth, &backend)
        .unwrap();
    assert_eq!(want, serve(&fleet), "two local seats diverged from solo");
    fleet.shutdown();

    let server = platform.shard_server(batch, &backend).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve_next(&listener).unwrap());
    let transports: Vec<Box<dyn ShardTransport>> = vec![
        Box::new(platform.local_shard(batch, &backend).unwrap()),
        Box::new(TcpTransport::connect(addr).unwrap()),
    ];
    let fleet = platform
        .serve_fleet_with(
            transports,
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(4),
        )
        .unwrap();
    assert_eq!(want, serve(&fleet), "local + loopback-TCP fleet diverged");
    let stats = fleet.stats();
    assert_eq!(
        stats.shards[1].submitted, 4,
        "the TCP seat served one block"
    );
    fleet.shutdown();
    server_thread.join().unwrap();
}
