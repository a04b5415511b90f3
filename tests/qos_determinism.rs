//! The QoS subsystem's hard invariant, end-to-end through
//! `Platform::serve_fleet_with`: **admission changes which requests run,
//! never what an admitted request computes.** For any random stream ×
//! shed pattern × class mix × batch-ordering × transport mix, the
//! admitted subset's logits are bit-identical to a solo
//! `Session::infer_one` stream of the same images — shedding never
//! shifts a surviving request's stream coordinate (the same discipline as
//! the refused-submission rollback: every shed synchronously releases its
//! claimed index).
//!
//! Every request here carries a class, so `FleetHandle::submit` either
//! admits it or refuses it with a typed `ServeError::Shed`. Shed patterns
//! are made deterministic by restricting fleet class budgets to
//! {0, unbounded}: a zero-budget class sheds every request with
//! `ClassBudget`, independent of timing, while unbounded classes always
//! admit (queue depth 64 ≫ the streams used here). The other refusals
//! (pacer windows, a seat's queue bound and class budget, infeasible
//! deadlines) depend on occupancy and are pinned by the router's unit
//! tests in `aimc-serve`; this suite pins the *invariance* under
//! shedding.

use aimc_platform::prelude::*;
use aimc_platform::wire::duplex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// A class mix: one random priority per request, with an occasional
/// generous deadline (far beyond any feasibility estimate, so deadline
/// checks never shed — deadlines here exercise the EDF sort keys and the
/// wire encoding, not admission timing).
fn random_classes(n: usize, seed: u64) -> Vec<QosClass> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|_| {
            let priority = Priority::ALL[rng.gen_range(0..Priority::COUNT)];
            let deadline = (rng.gen_range(0..10u32) < 3)
                .then(|| Duration::from_secs(60 + rng.gen_range(0..60)));
            QosClass { priority, deadline }
        })
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

/// A fleet plus the server threads backing its remote shards.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random stream × blocked-class subset (budget 0 vs unbounded) ×
    /// class mix × coalescer ordering {FIFO, EDF-within-priority} ×
    /// transport mix {all-local, all-tcp, mixed} × lease length: the
    /// admitted subset's logits are bit-identical to a solo stream of the
    /// admitted images, and every shed is typed `ClassBudget` on a
    /// blocked class.
    #[test]
    fn admitted_subset_is_bit_identical_to_solo(
        seed in 0u64..1_000,
        n in 1usize..8,
        shard_idx in 0usize..3,
        mix_idx in 0usize..3,
        lease_idx in 0usize..3,
        blocked_mask in 0u8..8,
        edf in any::<bool>(),
    ) {
        let n_shards = [1usize, 2, 3][shard_idx];
        let mix = [Mix::AllLocal, Mix::AllTcp, Mix::Mixed][mix_idx];
        let lease = [1u64, 4, 64][lease_idx];
        let ordering = if edf {
            QosOrdering::EdfWithinPriority
        } else {
            QosOrdering::Fifo
        };
        let batch = BatchPolicy::new(2, Duration::from_millis(1)).with_ordering(ordering);
        let mut policy = FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(lease);
        let blocked = |p: Priority| blocked_mask & (1 << p.rank()) != 0;
        for p in Priority::ALL {
            if blocked(p) {
                policy = policy.with_class_budget(p, 0);
            }
        }

        let images = random_images(n, seed);
        let classes = random_classes(n, seed);
        let platform = platform();
        for backend in [Backend::Golden, noisy_backend()] {
            let tf = build_fleet(&platform, n_shards, mix, policy, batch, &backend);
            let mut admitted_images = Vec::new();
            let mut pendings = Vec::new();
            let mut expect_shed = [0u64; Priority::COUNT];
            for (image, class) in images.iter().zip(&classes) {
                match tf.fleet.submit(Request::new(image.clone()).class(*class)) {
                    Ok(p) => {
                        prop_assert!(
                            !blocked(class.priority),
                            "zero-budget class {:?} was admitted", class.priority
                        );
                        admitted_images.push(image.clone());
                        pendings.push(p);
                    }
                    Err(ServeError::Shed(reason)) => {
                        prop_assert_eq!(reason, ShedReason::ClassBudget);
                        prop_assert!(
                            blocked(class.priority),
                            "unbudgeted class {:?} shed", class.priority
                        );
                        expect_shed[class.priority.rank()] += 1;
                    }
                    Err(ServeError::DeadlineInfeasible { estimated_wait }) => {
                        prop_assert!(
                            false,
                            "60 s deadline judged infeasible (wait {estimated_wait:?})"
                        );
                    }
                    Err(e) => panic!("the fleet is open: {e}"),
                }
            }
            let got: Vec<Tensor> = pendings.into_iter().map(|p| p.wait().unwrap()).collect();
            tf.fleet.drain();

            // Survivors kept solo-identical coordinates: the admitted
            // subset IS a solo stream of the admitted images.
            let want = solo_logits(&backend, &admitted_images);
            prop_assert_eq!(
                &want, &got,
                "backend {:?}, {} shard(s), {:?}, lease {}, {:?}, mask {:#05b}: \
                 admitted subset diverged from solo",
                backend, n_shards, mix, lease, ordering, blocked_mask
            );

            // The router ledger saw every shed, each typed on its class.
            let stats = tf.fleet.stats();
            for p in Priority::ALL {
                prop_assert_eq!(
                    stats.router.class(p).shed_class_budget,
                    expect_shed[p.rank()],
                    "router shed ledger for {:?}", p
                );
            }
            prop_assert_eq!(
                stats.aggregate().qos.admitted_total(),
                admitted_images.len() as u64
            );
            tf.shutdown();
        }
    }
}

/// EDF reordering on a `Session::serve` handle moves no coordinate: the
/// handle's router stamps each request at submission, so the seat may
/// dispatch in EDF order with adversarial priorities (low first, high
/// last) and the logits stay bit-identical to a solo stream.
#[test]
fn session_serve_keeps_edf_solo_identical() {
    let backend = noisy_backend();
    let images = random_images(6, 31);
    let want = solo_logits(&backend, &images);

    let mut session = platform().session();
    session.program(&backend).unwrap();
    let handle = session
        .serve(
            // Batches big enough that an unclamped EDF sort *would*
            // reorder dispatch across priorities.
            BatchPolicy::new(6, Duration::from_millis(20))
                .with_ordering(QosOrdering::EdfWithinPriority),
        )
        .unwrap();
    let classes = [
        QosClass::low(),
        QosClass::low().with_deadline(Duration::from_secs(1)),
        QosClass::default(),
        QosClass::high(),
        QosClass::high().with_deadline(Duration::from_secs(1)),
        QosClass::default(),
    ];
    let pendings: Vec<Pending> = images
        .iter()
        .zip(classes)
        .map(|(x, class)| {
            handle
                .submit(Request::new(x.clone()).class(class))
                .expect("permissive policy admits")
        })
        .collect();
    let got: Vec<Tensor> = pendings.into_iter().map(|p| p.wait().unwrap()).collect();
    handle.shutdown();
    assert_eq!(want, got, "EDF leaked into the self-numbering solo runner");
}

/// A caller whose `wait()` returned is no longer counted against its seat,
/// so a classed request sent right after is judged on an idle seat. At
/// queue depth 1 any stale count sheds it `QueueFull`; the seat settles its
/// counters before it fills the caller's slot, so no round sheds. (Filling
/// the slot first shed all but a few of 500 rounds in a debug build.)
#[test]
fn a_returned_wait_leaves_the_seat_idle_for_a_classed_request() {
    let mut session = platform().session();
    session.program(&Backend::Golden).unwrap();
    let handle = session
        .serve(BatchPolicy::new(1, Duration::from_micros(100)).with_queue_depth(1))
        .unwrap();
    let image = random_images(1, 41).remove(0);
    let mut shed = 0;
    for _ in 0..1_000 {
        handle.submit(image.clone()).unwrap().wait().unwrap();
        match handle.submit(Request::new(image.clone()).class(QosClass::high())) {
            Ok(p) => {
                p.wait().unwrap();
            }
            Err(ServeError::Shed(_)) => shed += 1,
            Err(e) => panic!("classed request refused: {e}"),
        }
    }
    handle.shutdown();
    assert_eq!(
        shed, 0,
        "{shed} of 1,000 classed requests shed on an idle seat"
    );
}

/// Per-class ledgers cross the wire: a remote shard's admission counters,
/// deadline misses, and latency samples come back through `Stats` frames
/// and pool into the fleet aggregate.
#[test]
fn remote_class_ledgers_cross_the_wire() {
    let backend = Backend::Golden;
    let images = random_images(6, 37);
    let platform = platform();
    let tf = build_fleet(
        &platform,
        1,
        Mix::AllTcp,
        FleetPolicy::default(),
        BatchPolicy::new(2, Duration::from_millis(1)),
        &backend,
    );
    for (i, image) in images.iter().enumerate() {
        let class = if i % 2 == 0 {
            QosClass::high()
        } else {
            // A deadline no inference meets: misses are *counted*, never
            // culled — the request still completes with logits.
            QosClass::low().with_deadline(Duration::from_nanos(1))
        };
        // Submit-then-wait: an empty pipeline estimates zero wait, so the
        // router's feasibility check stays inert even for the 1 ns
        // deadline — what's under test is the *completion-side* ledger.
        tf.fleet
            .submit(Request::new(image.clone()).class(class))
            .expect("permissive fleet admits")
            .wait()
            .unwrap();
    }
    tf.fleet.drain();
    let agg = tf.fleet.stats().aggregate();
    assert_eq!(agg.qos.class(Priority::High).admitted, 3);
    assert_eq!(agg.qos.class(Priority::Low).admitted, 3);
    assert_eq!(
        agg.qos.class(Priority::Low).deadline_misses,
        3,
        "1 ns deadlines all missed, counted over the wire"
    );
    assert_eq!(agg.qos.class(Priority::High).deadline_misses, 0);
    assert!(
        agg.qos.class(Priority::High).latencies.len() >= 3,
        "latency samples crossed the wire"
    );
    tf.shutdown();
}
