//! The heterogeneous-fleet registry and the background recalibration
//! rotation, end-to-end through `Platform::serve_hetero_fleet` /
//! `Platform::serve_fleet_with`: for a fixed per-model spec, every request
//! that completes returns logits bit-identical to a solo
//! `Session::infer_one` stream **of that request's model** — while the
//! fleet serves several model groups at once, a fleet-wide drift
//! transition lands mid-stream, and a replica is drained, reprogrammed
//! from its `ShardSpec` seed, and replayed through the drift log behind
//! the stream's back.
//!
//! The analog backends with real noise are the hard case on purpose:
//! noise is keyed by `(seed, coordinate)`, so a request routed to the
//! wrong model group, re-executed at a shifted coordinate, or served by a
//! recalibrated replica that missed a drift transition changes logits.
//! Bit-identity therefore proves the registry routes correctly, each
//! group's stream is hole-free, and a recalibration is invisible.

use aimc_platform::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::sync::Arc;
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

fn batch() -> BatchPolicy {
    BatchPolicy::new(2, Duration::from_millis(1))
}

/// Two *different* analog recipes: distinct seeds, so a request routed to
/// the wrong group computes visibly different bits.
fn alpha_backend() -> Backend {
    Backend::analog(7, XbarConfig::hermes_256().with_size(32, 4))
}

fn beta_backend() -> Backend {
    Backend::analog(11, XbarConfig::hermes_256().with_size(32, 4))
}

/// Solo reference with a drift transition after `pre` images: the stream a
/// fleet group must reproduce bit-for-bit.
fn solo_logits_with_drift(
    backend: &Backend,
    images: &[Tensor],
    pre: usize,
    t_hours: f64,
) -> Vec<Tensor> {
    let mut s = platform().session();
    let mut out: Vec<Tensor> = images[..pre]
        .iter()
        .map(|x| s.infer_one(x, backend.clone()).unwrap())
        .collect();
    s.apply_drift(t_hours).unwrap();
    out.extend(
        images[pre..]
            .iter()
            .map(|x| s.infer_one(x, backend.clone()).unwrap()),
    );
    out
}

/// A fault-free [`Connect`]or over in-memory pipes: each dial spawns a
/// fresh `serve_stream` session against the shared server.
struct PipeConnector {
    server: Arc<ShardServer>,
}

impl Connect for PipeConnector {
    fn connect(&self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        let (client_end, server_end) = aimc_platform::wire::duplex();
        let server = Arc::clone(&self.server);
        std::thread::spawn(move || {
            let reader = server_end.clone();
            let writer = server_end.clone();
            let _ = server.serve_stream(reader, writer);
            server_end.close();
        });
        let reader = client_end.clone();
        let writer = client_end;
        Ok((Box::new(reader), Box::new(writer)))
    }
}

/// A wire-protocol shard for `model_id`: a real `ShardServer` (which
/// carries the model's [`ShardSpec`] and answers the router's spec probe)
/// behind a `TcpTransport` over in-memory pipes.
fn wire_shard(platform: &Platform, model_id: &str, backend: &Backend) -> Box<dyn ShardTransport> {
    let server = Arc::new(
        platform
            .shard_server_for(model_id, batch(), backend)
            .unwrap(),
    );
    Box::new(
        TcpTransport::with_connector(
            Box::new(PipeConnector { server }),
            RetryPolicy::new(2, Duration::from_millis(1)),
        )
        .expect("first dial of a pipe connector succeeds"),
    )
}

fn local_shard(platform: &Platform, model_id: &str, backend: &Backend) -> Box<dyn ShardTransport> {
    Box::new(
        platform
            .local_shard_for(model_id, batch(), backend)
            .unwrap(),
    )
}

/// One shard for `model_id`, placement picked by the mix: 0 = all local,
/// 1 = all wire, 2 = alternating by seat parity.
fn mixed_shard(
    platform: &Platform,
    model_id: &str,
    backend: &Backend,
    mix_idx: usize,
    seat: usize,
) -> Box<dyn ShardTransport> {
    let wire = match mix_idx {
        0 => false,
        1 => true,
        _ => seat % 2 == 1,
    };
    if wire {
        wire_shard(platform, model_id, backend)
    } else {
        local_shard(platform, model_id, backend)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random request streams × heterogeneous groups × mid-stream
    /// recalibration × transport mixes {local, wire, mixed} × lease length
    /// × routing policy: the completed logits of **each model** are
    /// bit-identical to a solo stream over that model's backend, and no
    /// group ever drops below its live floor — the registry and the
    /// rotation are invisible.
    #[test]
    fn hetero_fleet_recal_is_invisible_in_completed_logits(
        seed in 0u64..1_000,
        n in 4usize..8,
        mix_idx in 0usize..3,
        lease_idx in 0usize..3,
        route_idx in 0usize..2,
        recal_seat in 0usize..4,
        interleave in any::<bool>(),
    ) {
        let lease = [1u64, 4, 64][lease_idx];
        let route = [RoutePolicy::RoundRobin, RoutePolicy::LeastQueueDepth][route_idx];
        let policy = FleetPolicy::new(route).with_lease_len(lease);
        let platform = platform();
        let (alpha, beta) = (alpha_backend(), beta_backend());
        let a_images = random_images(n, seed);
        let b_images = random_images(n, seed ^ 0x5eed);
        let half = n / 2;
        let a_want = solo_logits_with_drift(&alpha, &a_images, half, 250.0);
        let b_want = solo_logits_with_drift(&beta, &b_images, half, 250.0);

        // Two groups × two seats: every seat has a routable same-group
        // peer, so any one of the four may rotate out.
        let transports: Vec<Box<dyn ShardTransport>> = vec![
            mixed_shard(&platform, "alpha", &alpha, mix_idx, 0),
            mixed_shard(&platform, "alpha", &alpha, mix_idx, 1),
            mixed_shard(&platform, "beta", &beta, mix_idx, 2),
            mixed_shard(&platform, "beta", &beta, mix_idx, 3),
        ];
        let fleet = platform.serve_fleet_with(transports, policy).unwrap();
        prop_assert_eq!(fleet.model_ids(), vec!["alpha".to_string(), "beta".to_string()]);

        let submit_half = |from: usize, to: usize| -> (Vec<Pending>, Vec<Pending>) {
            let mut a_pend = Vec::new();
            let mut b_pend = Vec::new();
            if interleave {
                for i in from..to {
                    a_pend.push(
                        fleet.submit(Request::new(a_images[i].clone()).to("alpha")).unwrap(),
                    );
                    b_pend.push(
                        fleet.submit(Request::new(b_images[i].clone()).to("beta")).unwrap(),
                    );
                }
            } else {
                for img in &a_images[from..to] {
                    a_pend.push(fleet.submit(Request::new(img.clone()).to("alpha")).unwrap());
                }
                for img in &b_images[from..to] {
                    b_pend.push(fleet.submit(Request::new(img.clone()).to("beta")).unwrap());
                }
            }
            (a_pend, b_pend)
        };

        // First half → fleet-wide drift (drains, so every submitted
        // request ran pre-drift, like the solo streams) → recalibrate one
        // seat (reprogram from spec seed + drift-log replay) → second half.
        let (mut a_pend, mut b_pend) = submit_half(0, half);
        prop_assert!(fleet.apply_drift(250.0));
        fleet.recalibrate_shard(recal_seat).unwrap();
        let health = fleet.shard_health();
        prop_assert!(
            health.len() == 4 && health.iter().all(|h| !h.draining),
            "a rotation must return its seat: {:?}", health
        );
        prop_assert_eq!(health[recal_seat].drift_age, 0);
        prop_assert_eq!(health[recal_seat].recals, 1);
        let (a2, b2) = submit_half(half, n);
        a_pend.extend(a2);
        b_pend.extend(b2);

        fleet.drain();
        let a_got: Vec<Tensor> = a_pend.into_iter().map(|p| p.wait().unwrap()).collect();
        let b_got: Vec<Tensor> = b_pend.into_iter().map(|p| p.wait().unwrap()).collect();
        prop_assert_eq!(fleet.images_routed_for("alpha").unwrap(), n as u64);
        prop_assert_eq!(fleet.images_routed_for("beta").unwrap(), n as u64);
        fleet.shutdown();
        prop_assert_eq!(
            &a_want, &a_got,
            "alpha logits changed (mix {}, lease {}, {:?}, recal@{})",
            mix_idx, lease, route, recal_seat
        );
        prop_assert_eq!(
            &b_want, &b_got,
            "beta logits changed (mix {}, lease {}, {:?}, recal@{})",
            mix_idx, lease, route, recal_seat
        );
    }
}

/// The evict→rejoin round trip is invisible: a seat is gracefully removed
/// mid-stream, the stream keeps flowing on the survivor through a drift
/// transition, and the host rejoins via `add_shard` — programmed from its
/// spec seed and replayed through the recorded drift history. Every logit
/// stays bit-identical to solo, which it could not if the rejoiner's
/// conductances missed the drift or any coordinate moved.
#[test]
fn evict_then_rejoin_matches_solo() {
    let backend = alpha_backend();
    let images = random_images(9, 23);
    let want = solo_logits_with_drift(&backend, &images, 3, 500.0);
    let platform = platform();
    let fleet = platform
        .serve_fleet_with(
            vec![
                local_shard(&platform, "alpha", &backend),
                local_shard(&platform, "alpha", &backend),
            ],
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(1),
        )
        .unwrap();

    let mut got: Vec<Tensor> = Vec::new();
    let wait_all = |pend: Vec<Pending>| -> Vec<Tensor> {
        pend.into_iter().map(|p| p.wait().unwrap()).collect()
    };
    got.extend(wait_all(
        images[..3]
            .iter()
            .map(|x| fleet.submit(Request::new(x.clone()).to("alpha")).unwrap())
            .collect(),
    ));
    assert!(fleet.apply_drift(500.0));
    fleet.remove_shard(0).unwrap();
    assert_eq!(fleet.shard_count(), 1, "seat 0 was drained out");
    got.extend(wait_all(
        images[3..6]
            .iter()
            .map(|x| fleet.submit(Request::new(x.clone()).to("alpha")).unwrap())
            .collect(),
    ));
    // The rejoiner: same spec (model id, config, seed), fresh host. The
    // router reprograms it and replays the drift log before routing to it.
    fleet
        .add_shard(local_shard(&platform, "alpha", &backend))
        .unwrap();
    assert_eq!(fleet.shard_count(), 2);
    got.extend(wait_all(
        images[6..]
            .iter()
            .map(|x| fleet.submit(Request::new(x.clone()).to("alpha")).unwrap())
            .collect(),
    ));
    fleet.shutdown();
    assert_eq!(want, got, "evict→rejoin changed a logit");
}

/// Maintenance guard rails at the facade level: removing a group's last
/// routable member is refused (`LiveFloor`), an out-of-range seat id is a
/// typed error, and a graceful removal is idempotent.
#[test]
fn remove_shard_guards_the_live_floor() {
    let platform = platform();
    let fleet = platform
        .serve_hetero_fleet(
            &[
                ModelGroup::new("alpha", 2, alpha_backend()),
                ModelGroup::new("beta", 1, Backend::Golden),
            ],
            batch(),
            RoutePolicy::RoundRobin,
        )
        .unwrap();
    assert_eq!(fleet.shard_count(), 3);

    // Beta's only seat may never leave; recalibration refuses it too.
    assert!(matches!(fleet.remove_shard(2), Err(ServeError::LiveFloor)));
    assert!(matches!(
        fleet.recalibrate_shard(2),
        Err(ServeError::LiveFloor)
    ));
    assert!(matches!(
        fleet.remove_shard(7),
        Err(ServeError::UnknownShard(7))
    ));

    // Alpha has a peer: seat 1 drains out gracefully, and removing an
    // already-removed seat is a no-op.
    fleet.remove_shard(1).unwrap();
    fleet.remove_shard(1).unwrap();
    assert_eq!(fleet.shard_count(), 2);
    // With its peer gone, alpha's survivor is now floor-protected.
    assert!(matches!(fleet.remove_shard(0), Err(ServeError::LiveFloor)));
    fleet.shutdown();
}

/// The health rows of `FleetStats` are the router's per-seat lifecycle
/// counts: a recalibration resets its seat's drift age and counts one
/// recal, across a local + wire transport mix.
#[test]
fn stats_pool_drift_age_and_recal_counters() {
    let platform = platform();
    let backend = alpha_backend();
    let fleet = platform
        .serve_fleet_with(
            vec![
                local_shard(&platform, "alpha", &backend),
                wire_shard(&platform, "alpha", &backend),
            ],
            FleetPolicy::default(),
        )
        .unwrap();
    assert!(fleet.apply_drift(100.0));
    assert!(fleet.apply_drift(100.0));
    fleet.recalibrate_shard(0).unwrap();

    let stats = fleet.stats();
    assert_eq!(stats.health, fleet.shard_health());
    let ages: Vec<u64> = stats.health.iter().map(|h| h.drift_age).collect();
    assert_eq!(ages, vec![0, 2], "recal resets seat 0; seat 1 keeps aging");
    let recals: Vec<u64> = stats.health.iter().map(|h| h.recals).collect();
    assert_eq!(recals, vec![1, 0]);
    fleet.shutdown();
}

/// The background scheduler end-to-end: a fleet drifts, the worker (tiny
/// cadence) notices the aged seats and rotates them one at a time — never
/// both members of the group at once — and the logits served across the
/// rotations stay bit-identical to solo.
#[test]
fn background_scheduler_rotates_stale_seats() {
    let backend = alpha_backend();
    let images = random_images(6, 51);
    let want = solo_logits_with_drift(&backend, &images, 3, 250.0);
    let platform = platform();
    let fleet = platform
        .serve_fleet_with(
            vec![
                local_shard(&platform, "alpha", &backend),
                local_shard(&platform, "alpha", &backend),
            ],
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(1),
        )
        .unwrap();

    let mut got: Vec<Tensor> = images[..3]
        .iter()
        .map(|x| fleet.submit(x.clone()).unwrap())
        .map(|p| p.wait().unwrap())
        .collect();
    assert!(fleet.apply_drift(250.0));

    // Both seats now carry drift_age 1 ≥ max_drift_age: the worker must
    // rotate both (stalest first, one at a time behind the live floor).
    let mut recal = fleet.start_recal(RecalPolicy::new(1).with_cadence(Duration::from_millis(2)));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while fleet.shard_health().iter().any(|h| h.drift_age > 0) {
        assert!(
            std::time::Instant::now() < deadline,
            "scheduler never rotated the stale seats: {:?}",
            recal.stats()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    recal.stop();

    let stats = recal.stats();
    assert!(stats.scans >= 2, "one rotation per scan: {stats:?}");
    assert_eq!(stats.rotations, 2, "each seat rotated exactly once");
    assert_eq!(stats.failures, 0);
    assert!(stats.last_rotated.is_some());
    let health = fleet.shard_health();
    assert!(health.iter().all(|h| h.recals == 1), "{health:?}");

    got.extend(
        images[3..]
            .iter()
            .map(|x| fleet.submit(x.clone()).unwrap())
            .collect::<Vec<Pending>>()
            .into_iter()
            .map(|p| p.wait().unwrap()),
    );
    fleet.shutdown();
    assert_eq!(want, got, "a background rotation changed a logit");
}
