//! Overload benchmark for the QoS admission-control subsystem: a small
//! CNN on modeled PCM crossbars behind a QoS-gated serving fleet, driven
//! at offered loads up to 10× measured capacity with a 10% high-priority
//! / 90% low-priority class mix.
//!
//! What it demonstrates (and attests in `BENCH_serve_overload.json`):
//!
//! * **Typed shedding.** Under overload, low-priority requests shed with
//!   typed reasons (`overload` from the AIMD pacer, `class_budget`,
//!   `queue_full`) instead of blocking the submitter — the shed-rate
//!   curve per load multiplier is emitted per class.
//! * **Priority isolation.** High-priority requests bypass the pacer
//!   window (never the hard in-flight cap) and are composed
//!   earliest-deadline-first into batches, so the high-priority p95 under
//!   10× offered load stays within 2× of its unloaded p95
//!   (`high_priority_p95_bounded`).
//! * **Admission invariance.** Shedding changes *which* requests run,
//!   never *what* an admitted request computes: for {all-local, all-tcp,
//!   mixed} fleets with a zero-budget class forcing deterministic sheds,
//!   the admitted subset's logits are bit-identical to a solo
//!   `Session::infer_one` stream of the admitted images
//!   (`qos_invariance_ok` — the binary also exits non-zero on a
//!   violation).
//!
//! ```text
//! cargo run --release -p aimc-bench --bin serve_overload [--smoke]
//! ```
//!
//! `--smoke` (or `AIMC_BENCH_SMOKE=1`) shrinks the run for CI: fewer
//! requests and only the 1× / 10× points — it still exercises the pacer,
//! the class ledgers, and all three invariance legs end to end.

use aimc_core::ArchConfig;
use aimc_dnn::{ConvCfg, Graph, GraphBuilder, Shape, Tensor};
use aimc_platform::serve::{
    BatchPolicy, FleetHandle, FleetPolicy, PacerConfig, Pending, Priority, QosClass, QosOrdering,
    Request, RoutePolicy, ServeError, ShardTransport, ShedReason, TcpTransport,
};
use aimc_platform::{Backend, Error, Platform};
use aimc_xbar::XbarConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpListener;
use std::time::{Duration, Instant};

const MAX_BATCH: usize = 8;
const QUEUE_DEPTH: usize = 16;
/// One in ten requests is high priority: enough tail samples for a p95,
/// small enough that low-priority traffic carries the overload.
const HIGH_EVERY: usize = 10;

fn small_cnn() -> Graph {
    let mut b = GraphBuilder::new(Shape::new(3, 8, 8));
    let c0 = b.conv("c0", b.input(), ConvCfg::k3(3, 8, 1));
    let c1 = b.conv("c1", Some(c0), ConvCfg::k3(8, 8, 1));
    let r = b.residual("r", c1, c0, None);
    let p = b.global_avgpool("gap", r);
    b.linear("fc", p, 4);
    b.finish()
}

fn backend() -> Backend {
    Backend::analog(7, XbarConfig::hermes_256().with_size(32, 4))
}

fn platform() -> Result<Platform, Error> {
    Platform::builder()
        .graph(small_cnn())
        .arch(ArchConfig::small(8, 8))
        .he_weights(42)
        .build()
}

fn random_images(n: usize, seed: u64) -> Vec<Tensor> {
    let shape = Shape::new(3, 8, 8);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Tensor::from_vec(
                shape,
                (0..shape.numel())
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect(),
            )
        })
        .collect()
}

/// The shard batch policy used by every serving phase: EDF-within-
/// priority composition (legal on fleet shards — they honor stamped
/// indices) under the given latency budget.
fn batch_policy(max_wait: Duration) -> BatchPolicy {
    BatchPolicy::new(MAX_BATCH, max_wait)
        .with_queue_depth(QUEUE_DEPTH)
        .with_ordering(QosOrdering::EdfWithinPriority)
}

/// A one-shard QoS fleet: AIMD pacer on (low priority rides the window,
/// high priority is capped only by the hard in-flight limit).
fn overload_fleet(platform: &Platform, batch: BatchPolicy) -> Result<FleetHandle, Error> {
    let shard = platform.local_shard(batch, &backend())?;
    let pacer = PacerConfig {
        enabled: true,
        min_window: 1,
        max_window: MAX_BATCH,
        hard_limit: QUEUE_DEPTH,
        decrease_cooldown: Duration::from_millis(1),
    };
    platform.serve_fleet_with(
        vec![Box::new(shard) as Box<dyn ShardTransport>],
        FleetPolicy::new(RoutePolicy::RoundRobin).with_pacer(pacer),
    )
}

fn p95_us(fleet: &FleetHandle, priority: Priority) -> f64 {
    fleet
        .stats()
        .aggregate()
        .qos
        .class(priority)
        .latency_percentile(0.95)
        .map_or(0.0, |d| d.as_secs_f64() * 1e6)
}

/// Per-class client-side tally of one load point.
#[derive(Default, Clone, Copy)]
struct Tally {
    offered: u64,
    admitted: u64,
    shed_overload: u64,
    shed_class_budget: u64,
    shed_queue_full: u64,
    infeasible: u64,
}

impl Tally {
    fn shed_total(&self) -> u64 {
        self.shed_overload + self.shed_class_budget + self.shed_queue_full
    }
}

/// One open-loop load point: `n` requests offered at `mult × capacity`
/// on an absolute arrival schedule (a slow iteration bursts to catch up,
/// so the *offered* rate holds even when sleeps overshoot). Returns the
/// per-class tallies and the high/low p95 from the completion ledger.
fn run_load_point(
    platform: &Platform,
    images: &[Tensor],
    capacity: f64,
    max_wait: Duration,
    mult: f64,
    n: usize,
) -> Result<([Tally; Priority::COUNT], f64, f64), Error> {
    let fleet = overload_fleet(platform, batch_policy(max_wait))?;
    let interval = Duration::from_secs_f64(1.0 / (capacity * mult));
    let mut tallies = [Tally::default(); Priority::COUNT];
    let mut pendings: Vec<Pending> = Vec::new();
    let t0 = Instant::now();
    for i in 0..n {
        let due = t0 + interval * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let class = if i % HIGH_EVERY == 0 {
            QosClass::high()
        } else {
            QosClass::low()
        };
        let tally = &mut tallies[class.priority.rank()];
        tally.offered += 1;
        match fleet.submit(Request::new(images[i % images.len()].clone()).class(class)) {
            Ok(p) => {
                tally.admitted += 1;
                pendings.push(p);
            }
            Err(ServeError::Shed(ShedReason::Overload)) => tally.shed_overload += 1,
            Err(ServeError::Shed(ShedReason::ClassBudget)) => tally.shed_class_budget += 1,
            Err(ServeError::Shed(ShedReason::QueueFull)) => tally.shed_queue_full += 1,
            Err(ServeError::DeadlineInfeasible { .. }) => tally.infeasible += 1,
            Err(e) => panic!("fleet is open: {e}"),
        }
    }
    for p in pendings {
        p.wait().expect("admitted request completes");
    }
    fleet.drain();
    let high = p95_us(&fleet, Priority::High);
    let low = p95_us(&fleet, Priority::Low);
    fleet.shutdown();
    Ok((tallies, high, low))
}

/// One invariance leg: a two-shard fleet under `mix` with the Low class
/// budgeted to zero (deterministic sheds), fed a fixed class mix; the
/// admitted subset must be bit-identical to a solo stream of the admitted
/// images.
fn invariance_leg(platform: &Platform, mix: &str, images: &[Tensor]) -> Result<bool, Error> {
    let batch = batch_policy(Duration::from_millis(1));
    let mut transports: Vec<Box<dyn ShardTransport>> = Vec::new();
    let mut servers = Vec::new();
    for shard_id in 0..2 {
        let remote = match mix {
            "local" => false,
            "tcp" => true,
            _ => shard_id == 1,
        };
        if remote {
            let server = platform.shard_server(batch, &backend())?;
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("loopback addr");
            servers.push(std::thread::spawn(move || {
                server
                    .serve_next(&listener)
                    .expect("serve shard connection");
            }));
            transports.push(Box::new(
                TcpTransport::connect(addr).expect("connect to shard server"),
            ));
        } else {
            transports.push(Box::new(platform.local_shard(batch, &backend())?));
        }
    }
    let fleet = platform.serve_fleet_with(
        transports,
        FleetPolicy::new(RoutePolicy::RoundRobin)
            .with_lease_len(2)
            .with_class_budget(Priority::Low, 0),
    )?;
    let mut admitted_images = Vec::new();
    let mut pendings = Vec::new();
    let mut ok = true;
    for (i, image) in images.iter().enumerate() {
        // A deterministic class cycle with some generous deadlines, so
        // the EDF sort keys and wire encoding are exercised too.
        let class = match i % 4 {
            0 => QosClass::high(),
            1 => QosClass::low(),
            2 => QosClass::default().with_deadline(Duration::from_secs(60)),
            _ => QosClass::low().with_deadline(Duration::from_secs(60)),
        };
        match fleet.submit(Request::new(image.clone()).class(class)) {
            Ok(p) => {
                ok &= class.priority != Priority::Low;
                admitted_images.push(image.clone());
                pendings.push(p);
            }
            Err(ServeError::Shed(reason)) => {
                ok &= class.priority == Priority::Low && reason == ShedReason::ClassBudget;
            }
            Err(ServeError::DeadlineInfeasible { .. }) => ok = false,
            Err(e) => panic!("fleet is open: {e}"),
        }
    }
    let got: Vec<Tensor> = pendings
        .into_iter()
        .map(|p| p.wait().expect("admitted request completes"))
        .collect();
    fleet.shutdown();
    for s in servers {
        s.join().expect("shard server settles");
    }
    // Solo reference over the admitted subset only: shedding must not
    // have shifted any survivor's stream coordinate.
    let mut session = platform.session();
    for (x, got) in admitted_images.iter().zip(&got) {
        let want = session.infer_one(x, backend())?;
        ok &= &want == got;
    }
    Ok(ok)
}

fn main() -> Result<(), Error> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var("AIMC_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (n_capacity, n_unloaded, n_load) = if smoke { (24, 12, 60) } else { (64, 32, 400) };
    let multipliers: &[f64] = if smoke {
        &[1.0, 10.0]
    } else {
        &[1.0, 2.0, 5.0, 10.0]
    };

    println!(
        "QoS overload — small CNN, analog backend, {n_load} requests per load point, \
         1-in-{HIGH_EVERY} high priority{}",
        if smoke { " [smoke]" } else { "" }
    );
    let platform = platform()?;
    let images = random_images(32, 9);

    // Capacity: an ungated burst through the same shard configuration —
    // the denominator every offered-load multiplier is scaled from.
    let capacity = {
        let fleet = overload_fleet(&platform, batch_policy(Duration::from_millis(2)))?;
        let burst: Vec<Tensor> = (0..n_capacity)
            .map(|i| images[i % images.len()].clone())
            .collect();
        let t0 = Instant::now();
        let pendings: Vec<Pending> = burst
            .iter()
            .map(|x| fleet.submit(x.clone()).expect("fleet is open"))
            .collect();
        for p in pendings {
            p.wait().expect("request completes");
        }
        let dt = t0.elapsed().as_secs_f64();
        fleet.shutdown();
        n_capacity as f64 / dt
    };
    let service_us = 1e6 / capacity;
    // The latency budget dominates both the unloaded and the loaded
    // high-priority latency (EDF puts High at the front of every batch),
    // which is what keeps the 2× bound meaningful across host speeds.
    let max_wait = Duration::from_secs_f64((24.0 / capacity).max(0.004));
    println!(
        "capacity {capacity:.1} img/s (service ≈ {service_us:.0} µs, max_wait {:.1} ms)",
        max_wait.as_secs_f64() * 1e3
    );

    // Unloaded high-priority p95: closed loop, one request in flight.
    let unloaded_high_p95_us = {
        let fleet = overload_fleet(&platform, batch_policy(max_wait))?;
        for i in 0..n_unloaded {
            fleet
                .submit(Request::new(images[i % images.len()].clone()).class(QosClass::high()))
                .expect("idle fleet admits high priority")
                .wait()
                .expect("request completes");
        }
        let p95 = p95_us(&fleet, Priority::High);
        fleet.shutdown();
        p95
    };
    println!("unloaded high-priority p95: {unloaded_high_p95_us:.0} µs");

    println!(
        "{:>5} {:>9} {:>14} {:>14} {:>12} {:>12}",
        "load", "offered", "high adm/shed", "low adm/shed", "high p95", "low p95"
    );
    let mut curve = Vec::new();
    let mut high_p95_at_10x = f64::NAN;
    let mut low_shed_at_10x = 0u64;
    let mut tallies_at_10x = [Tally::default(); Priority::COUNT];
    for &mult in multipliers {
        let (tallies, high_p95, low_p95) =
            run_load_point(&platform, &images, capacity, max_wait, mult, n_load)?;
        let high = tallies[Priority::High.rank()];
        let low = tallies[Priority::Low.rank()];
        println!(
            "{:>4.0}x {:>9} {:>8}/{:<5} {:>8}/{:<5} {:>10.0}us {:>10.0}us",
            mult,
            n_load,
            high.admitted,
            high.shed_total(),
            low.admitted,
            low.shed_total(),
            high_p95,
            low_p95
        );
        if mult == 10.0 {
            high_p95_at_10x = high_p95;
            low_shed_at_10x = low.shed_total();
            tallies_at_10x = tallies;
        }
        curve.push(format!(
            "    {{\"multiplier\": {mult:.0}, \"offered\": {n_load}, \
             \"high\": {{\"offered\": {}, \"admitted\": {}, \"shed\": {}, \"p95_us\": {high_p95:.1}}}, \
             \"low\": {{\"offered\": {}, \"admitted\": {}, \"shed\": {}, \"p95_us\": {low_p95:.1}}}}}",
            high.offered,
            high.admitted,
            high.shed_total(),
            low.offered,
            low.admitted,
            low.shed_total(),
        ));
    }
    let high_priority_p95_bounded =
        high_p95_at_10x.is_finite() && high_p95_at_10x <= 2.0 * unloaded_high_p95_us;
    let low_sheds_under_overload = low_shed_at_10x > 0;
    println!(
        "10x: high p95 {high_p95_at_10x:.0} µs vs 2×unloaded {:.0} µs → bounded: \
         {high_priority_p95_bounded}; low sheds: {low_shed_at_10x}",
        2.0 * unloaded_high_p95_us
    );

    // Admission invariance across transports, with deterministic sheds.
    let n_inv = if smoke { 8 } else { 16 };
    let inv_images = random_images(n_inv, 23);
    let mut inv = Vec::new();
    let mut qos_invariance_ok = true;
    for mix in ["local", "tcp", "mixed"] {
        let ok = invariance_leg(&platform, mix, &inv_images)?;
        println!("qos invariance [{mix}]: {ok}");
        qos_invariance_ok &= ok;
        inv.push(format!("\"{mix}\": {ok}"));
    }

    let shed_10x: Tally = {
        let mut t = Tally::default();
        for c in &tallies_at_10x {
            t.shed_overload += c.shed_overload;
            t.shed_class_budget += c.shed_class_budget;
            t.shed_queue_full += c.shed_queue_full;
            t.infeasible += c.infeasible;
        }
        t
    };
    let json = format!(
        "{{\n  \"bench\": \"serve_overload\",\n  \"workload\": \"small_cnn_analog\",\n  \
         \"xbar\": \"hermes_256_32x4\",\n  \"smoke\": {smoke},\n  \
         \"requests_per_load_point\": {n_load},\n  \"high_every\": {HIGH_EVERY},\n  \
         \"capacity_images_per_s\": {capacity:.2},\n  \"service_est_us\": {service_us:.1},\n  \
         \"max_wait_us\": {:.1},\n  \
         \"unloaded_high_p95_us\": {unloaded_high_p95_us:.1},\n  \
         \"overload_curve\": [\n{}\n  ],\n  \
         \"shed_reasons_at_10x\": {{\"overload\": {}, \"class_budget\": {}, \
         \"queue_full\": {}, \"infeasible\": {}}},\n  \
         \"low_sheds_under_overload\": {low_sheds_under_overload},\n  \
         \"high_p95_at_10x_us\": {high_p95_at_10x:.1},\n  \
         \"high_priority_p95_bounded\": {high_priority_p95_bounded},\n  \
         \"qos_invariance\": {{{}}},\n  \
         \"qos_invariance_ok\": {qos_invariance_ok}\n}}\n",
        max_wait.as_secs_f64() * 1e6,
        curve.join(",\n"),
        shed_10x.shed_overload,
        shed_10x.shed_class_budget,
        shed_10x.shed_queue_full,
        shed_10x.infeasible,
        inv.join(", "),
    );
    let path = "BENCH_serve_overload.json";
    std::fs::write(path, &json).expect("write bench json");
    println!("\nwrote {path}");

    assert!(
        qos_invariance_ok,
        "QoS invariance violation: an admitted subset diverged from its solo reference"
    );
    assert!(
        low_sheds_under_overload,
        "10x offered load produced no low-priority sheds — admission control is not engaging"
    );
    Ok(())
}
