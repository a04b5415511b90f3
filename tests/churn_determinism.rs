//! The elastic fleet's hard invariant, end-to-end through
//! `Platform::serve_fleet_with` under **churn**: for a fixed seed, every
//! request that completes returns logits bit-identical to a solo
//! `Session::infer_one` stream of the same images — while connections are
//! severed mid-stream (reconnect-and-replay), a shard is killed
//! permanently mid-block (eviction + orphan rescue on survivors, at the
//! original coordinates), or a shard joins mid-stream (programmed from
//! the fleet seed and replayed through the drift history).
//!
//! Faults are injected with the seeded frame-aware `FaultyEnd` wrapper
//! from `aimc-wire`: remote shards run real `ShardServer`s over in-memory
//! duplex pipes, and each (re)dial of the scripted connector wires the
//! client's writer through the next `FaultPlan` — an exhausted script
//! refuses further dials, which is how a permanently dead host looks.
//!
//! The analog backend with real noise is the hard case on purpose: noise
//! is keyed by the global stream coordinate, so a request re-executed at
//! a *shifted* coordinate — or a joiner missing a drift transition —
//! changes logits. Bit-identity therefore proves both settlement and
//! coordinate stability.

use aimc_platform::prelude::*;
use aimc_platform::wire::{duplex, FaultPlan, FaultyEnd};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
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
    // Real noise levels and small arrays: every MVM consumes
    // coordinate-keyed randomness — the hardest case for the invariance.
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

/// A [`Connect`]or over in-memory pipes with a scripted fault schedule:
/// each dial spawns a fresh `serve_stream` session against the shared
/// server and wires the client's writer through the next [`FaultPlan`].
/// An exhausted script refuses further dials — a permanently dead host.
struct PipeConnector {
    server: Arc<ShardServer>,
    plans: Mutex<VecDeque<FaultPlan>>,
}

impl Connect for PipeConnector {
    fn connect(&self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        let Some(plan) = self.plans.lock().unwrap().pop_front() else {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "host is gone",
            ));
        };
        let (client_end, server_end) = duplex();
        let server = Arc::clone(&self.server);
        std::thread::spawn(move || {
            let reader = server_end.clone();
            let writer = server_end.clone();
            let _ = server.serve_stream(reader, writer);
            // A finished session hangs up, so the client sees EOF.
            server_end.close();
        });
        let reader = client_end.clone();
        Ok((Box::new(reader), Box::new(FaultyEnd::new(client_end, plan))))
    }
}

/// A wire-protocol shard whose link follows `plans`, one per dial, with a
/// small reconnect budget so dead-host detection stays fast.
fn wire_shard(
    platform: &Platform,
    batch: BatchPolicy,
    backend: &Backend,
    plans: Vec<FaultPlan>,
) -> Box<dyn ShardTransport> {
    let server = Arc::new(platform.shard_server(batch, backend).unwrap());
    let connector = PipeConnector {
        server,
        plans: Mutex::new(plans.into()),
    };
    Box::new(
        TcpTransport::with_connector(
            Box::new(connector),
            RetryPolicy::new(2, Duration::from_millis(1)),
        )
        .expect("first dial of a scripted connector succeeds"),
    )
}

fn local_shard(
    platform: &Platform,
    batch: BatchPolicy,
    backend: &Backend,
) -> Box<dyn ShardTransport> {
    Box::new(platform.local_shard(batch, backend).unwrap())
}

/// What happens to the fleet mid-stream.
#[derive(Debug, Clone, Copy)]
enum Churn {
    /// The faulty shard's link is severed once; a redial succeeds and the
    /// transport replays its unacknowledged window (go-back-N).
    Sever,
    /// The faulty shard's link is severed and every redial is refused: the
    /// transport closes, parks its strays, and the router evicts it and
    /// rescues the strays on survivors at their original coordinates.
    Kill,
    /// A fresh shard joins mid-stream via `FleetHandle::add_shard` and
    /// serves part of the remaining stream.
    Join,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random request streams × churn schedule {sever, kill, join} ×
    /// survivor mix {local, wire, both} × lease length × routing policy ×
    /// sever point: every request settles and the completed logits are
    /// bit-identical to the solo stream — churn is invisible.
    #[test]
    fn churn_is_invisible_in_completed_logits(
        seed in 0u64..1_000,
        n in 4usize..10,
        churn_idx in 0usize..3,
        mix_idx in 0usize..3,
        lease_idx in 0usize..3,
        route_idx in 0usize..2,
        sever_frame in 2u64..9,
        mid_frame in any::<bool>(),
    ) {
        let churn = [Churn::Sever, Churn::Kill, Churn::Join][churn_idx];
        let lease = [1u64, 4, 64][lease_idx];
        let route = [RoutePolicy::RoundRobin, RoutePolicy::LeastQueueDepth][route_idx];
        let policy = FleetPolicy::new(route).with_lease_len(lease);
        let batch = BatchPolicy::new(2, Duration::from_millis(1));
        let images = random_images(n, seed);
        let platform = platform();
        let backend = noisy_backend();
        let want = solo_logits(&backend, &images);

        // The fatal plan: reorder a quarter of the request frames, then
        // sever — cleanly between frames or mid-frame.
        let fault = {
            let p = FaultPlan::new(seed).swap_per_mille(250).sever_after(sever_frame);
            if mid_frame { p.sever_mid_frame() } else { p }
        };

        let mut transports: Vec<Box<dyn ShardTransport>> = Vec::new();
        match churn {
            // One clean plan after the fault: the redial succeeds.
            Churn::Sever => transports.push(wire_shard(
                &platform, batch, &backend, vec![fault, FaultPlan::new(seed ^ 1)],
            )),
            // No plan after the fault: every redial is refused.
            Churn::Kill => transports.push(wire_shard(&platform, batch, &backend, vec![fault])),
            Churn::Join => {}
        }
        match mix_idx {
            0 => transports.push(local_shard(&platform, batch, &backend)),
            1 => transports.push(wire_shard(
                &platform, batch, &backend, vec![FaultPlan::new(seed ^ 2)],
            )),
            _ => {
                transports.push(local_shard(&platform, batch, &backend));
                transports.push(wire_shard(
                    &platform, batch, &backend, vec![FaultPlan::new(seed ^ 3)],
                ));
            }
        }
        let fleet = platform.serve_fleet_with(transports, policy).unwrap();
        let seats = fleet.shard_count();

        let half = n / 2;
        let mut pendings: Vec<Pending> = Vec::new();
        for x in &images[..half] {
            pendings.push(fleet.submit(x.clone()).unwrap());
        }
        if matches!(churn, Churn::Join) {
            let joiner = if mix_idx == 1 {
                wire_shard(&platform, batch, &backend, vec![FaultPlan::new(seed ^ 4)])
            } else {
                local_shard(&platform, batch, &backend)
            };
            fleet.add_shard(joiner).unwrap();
        }
        for x in &images[half..] {
            pendings.push(fleet.submit(x.clone()).unwrap());
        }

        // Strays parked by a permanent death are rescued on drain at the
        // latest, so after it every pending settles with logits.
        fleet.drain();
        let got: Vec<Tensor> = pendings
            .into_iter()
            .map(|p| p.wait().expect("every request settles under churn"))
            .collect();

        // Only seats in service are held: a joiner adds one, an eviction
        // retires one, and at least the survivor remains.
        let most = if matches!(churn, Churn::Join) { seats + 1 } else { seats };
        let held = fleet.shard_count();
        prop_assert!((1..=most).contains(&held), "{} seats held of {}", held, most);
        prop_assert_eq!(fleet.shard_health().len(), held);
        fleet.shutdown();
        prop_assert_eq!(
            &want, &got,
            "{:?} (mix {}, lease {}, {:?}, sever@{}, mid={}) changed a logit",
            churn, mix_idx, lease, route, sever_frame, mid_frame
        );
    }
}

/// A permanently killed shard mid-block never shifts a surviving
/// coordinate: blocks of 4 put the whole first block on the doomed shard,
/// the sever lands inside it, and the stranded requests re-run at their
/// original coordinates on the survivor — so the noisy-analog logits stay
/// bit-identical to solo, which they could not if any index moved.
#[test]
fn permanent_kill_mid_lease_is_invisible() {
    let backend = noisy_backend();
    let images = random_images(8, 37);
    let want = solo_logits(&backend, &images);
    let platform = platform();
    let batch = BatchPolicy::new(2, Duration::from_millis(1));
    // Frame 1 is the protocol Hello, frame 2 the registry's spec probe,
    // frame 3 the first request of the first routing block; the sever
    // truncates frame 4, the block's second request. Redials are refused:
    // a permanently dead host.
    let transports: Vec<Box<dyn ShardTransport>> = vec![
        wire_shard(
            &platform,
            batch,
            &backend,
            vec![FaultPlan::new(41).sever_after(3).sever_mid_frame()],
        ),
        local_shard(&platform, batch, &backend),
    ];
    let fleet = platform
        .serve_fleet_with(
            transports,
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(4),
        )
        .unwrap();
    let pendings: Vec<Pending> = images
        .iter()
        .map(|x| fleet.submit(x.clone()).unwrap())
        .collect();
    fleet.drain();
    let got: Vec<Tensor> = pendings.into_iter().map(|p| p.wait().unwrap()).collect();
    assert_eq!(fleet.shard_count(), 1, "the dead shard was retired");
    assert_eq!(fleet.shard_health()[0].id, 1, "the survivor keeps its id");
    fleet.shutdown();
    assert_eq!(want, got, "eviction shifted a coordinate or lost a request");
}

/// A joiner arriving *after* a fleet-wide drift transition must be
/// programmed from the fleet seed and replayed through the recorded drift
/// history: round-robin then lands half the remaining stream on it, and
/// the logits stay bit-identical to a solo session taken through the same
/// transition — which they could not if the joiner's conductances missed
/// the drift.
#[test]
fn joiner_after_drift_matches_solo() {
    let backend = noisy_backend();
    let images = random_images(6, 31);
    let (a, b) = images.split_at(3);

    let mut solo = platform().session();
    let mut want: Vec<Tensor> = a
        .iter()
        .map(|x| solo.infer_one(x, backend.clone()).unwrap())
        .collect();
    solo.apply_drift(500.0).unwrap();
    want.extend(
        b.iter()
            .map(|x| solo.infer_one(x, backend.clone()).unwrap()),
    );

    let platform = platform();
    let batch = BatchPolicy::new(2, Duration::from_millis(1));
    let fleet = platform
        .serve_fleet(1, batch, RoutePolicy::RoundRobin, &backend)
        .unwrap();
    let mut got: Vec<Tensor> = a
        .iter()
        .map(|x| fleet.submit(x.clone()).unwrap())
        .map(|p| p.wait().unwrap())
        .collect();
    assert!(fleet.apply_drift(500.0), "analog replicas model drift");
    fleet
        .add_shard(local_shard(&platform, batch, &backend))
        .unwrap();
    assert_eq!(fleet.shard_count(), 2);
    got.extend(
        b.iter()
            .map(|x| fleet.submit(x.clone()).unwrap())
            .collect::<Vec<Pending>>()
            .into_iter()
            .map(|p| p.wait().unwrap()),
    );
    fleet.shutdown();
    assert_eq!(want, got, "the joiner missed the drift transition");
}
