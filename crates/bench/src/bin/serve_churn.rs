//! Churn benchmark for the elastic serving fleet: single-image requests
//! (ResNet-18/CIFAR on modeled PCM crossbars) through
//! `Platform::serve_fleet_with` while the fleet is disturbed mid-stream —
//! a severed link that reconnects and replays (go-back-N), a shard killed
//! permanently (eviction + orphan rescue on survivors), and a shard
//! joining live (`FleetHandle::add_shard`, programmed from the fleet
//! seed). Each scenario carries the fleet's hard invariant as a built-in
//! check: the completed logits must be **bit-identical** to a solo
//! `Session::infer_one` stream of the same images — churn may cost
//! wall-clock, never a logit and never a coordinate.
//!
//! Faults are injected with the seeded frame-aware `FaultyEnd` from
//! `aimc-wire`: the disturbed shard is a real `ShardServer` speaking the
//! wire protocol over an in-memory duplex pipe, with each (re)dial wired
//! through the next scripted `FaultPlan` (an exhausted script refuses
//! dials — a permanently dead host).
//!
//! Emits `BENCH_serve_churn.json` in the working directory: images/s per
//! scenario against the undisturbed baseline, the seats the fleet holds
//! after the stream (a retired seat is not held), and `churn_invariance_ok` — the binary also exits non-zero on
//! a violation, so CI can gate on either signal.
//!
//! ```text
//! cargo run --release -p aimc-bench --bin serve_churn [images] [--smoke]
//! ```
//!
//! `--smoke` (or `AIMC_BENCH_SMOKE=1`) shrinks the run for CI: fewer
//! images — it still exercises all three churn scenarios and the
//! invariance check.

use aimc_core::ArchConfig;
use aimc_dnn::{resnet18_cifar, Shape, Tensor};
use aimc_platform::serve::{
    BatchPolicy, Connect, FleetHandle, FleetPolicy, Pending, RetryPolicy, RoutePolicy,
    ShardTransport, TcpTransport,
};
use aimc_platform::wire::{duplex, FaultPlan, FaultyEnd};
use aimc_platform::{Backend, Error, Platform};
use aimc_xbar::XbarConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn backend() -> Backend {
    Backend::analog(7, XbarConfig::hermes_256())
}

fn batch_policy(images_n: usize) -> BatchPolicy {
    BatchPolicy::new(4, Duration::from_millis(5)).with_queue_depth(images_n.max(1))
}

/// A [`Connect`]or over in-memory pipes with a scripted fault schedule:
/// each dial serves a fresh protocol session against the shared server,
/// writing through the next [`FaultPlan`]; an exhausted script refuses
/// further dials.
struct PipeConnector {
    server: Arc<aimc_platform::serve::ShardServer>,
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
            server_end.close();
        });
        let reader = client_end.clone();
        Ok((Box::new(reader), Box::new(FaultyEnd::new(client_end, plan))))
    }
}

/// A wire-protocol shard whose link follows `plans`, one per dial.
fn wire_shard(
    platform: &Platform,
    images_n: usize,
    plans: Vec<FaultPlan>,
) -> Result<Box<dyn ShardTransport>, Error> {
    let server = Arc::new(platform.shard_server(batch_policy(images_n), &backend())?);
    let connector = PipeConnector {
        server,
        plans: Mutex::new(plans.into()),
    };
    Ok(Box::new(
        TcpTransport::with_connector(
            Box::new(connector),
            RetryPolicy::new(2, Duration::from_millis(1)),
        )
        .expect("first dial of a scripted connector succeeds"),
    ))
}

fn local_shard(platform: &Platform, images_n: usize) -> Result<Box<dyn ShardTransport>, Error> {
    Ok(Box::new(
        platform.local_shard(batch_policy(images_n), &backend())?,
    ))
}

/// Submits every image in order, drains (rescuing anything stranded by a
/// permanent death), and waits for all completions. Returns images/s and
/// the logits in stream order.
fn run_stream(
    fleet: &FleetHandle,
    images: &[Tensor],
    join_mid_stream: Option<Box<dyn ShardTransport>>,
) -> (f64, Vec<Tensor>) {
    let t0 = Instant::now();
    let mut pendings: Vec<Pending> = Vec::with_capacity(images.len());
    let half = images.len() / 2;
    for x in &images[..half] {
        pendings.push(fleet.submit(x.clone()).expect("fleet is open"));
    }
    if let Some(joiner) = join_mid_stream {
        fleet.add_shard(joiner).expect("fleet accepts a joiner");
    }
    for x in &images[half..] {
        pendings.push(fleet.submit(x.clone()).expect("fleet is open"));
    }
    fleet.drain();
    let logits: Vec<Tensor> = pendings
        .into_iter()
        .map(|p| p.wait().expect("request settles under churn"))
        .collect();
    let dt = t0.elapsed().as_secs_f64();
    (images.len() as f64 / dt, logits)
}

struct Scenario {
    name: &'static str,
    images_per_s: f64,
    seats_held: usize,
    invariant: bool,
}

fn main() -> Result<(), Error> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var("AIMC_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let images_n = args
        .iter()
        .find_map(|a| a.parse::<usize>().ok())
        .unwrap_or(if smoke { 8 } else { 32 });

    let shape = Shape::new(3, 32, 32);
    let mut rng = StdRng::seed_from_u64(13);
    let images: Vec<Tensor> = (0..images_n)
        .map(|_| {
            Tensor::from_vec(
                shape,
                (0..shape.numel())
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect(),
            )
        })
        .collect();

    println!(
        "Elastic-fleet churn — ResNet-18/CIFAR, analog backend, {images_n} images{}",
        if smoke { " [smoke]" } else { "" }
    );

    let platform = Platform::builder()
        .graph(resnet18_cifar(10))
        .arch(ArchConfig::small(8, 8))
        .he_weights(42)
        .build()?;

    // Solo reference: the stream every churned fleet must reproduce.
    let mut session = platform.session();
    session.program(&backend())?;
    let t0 = Instant::now();
    let reference = images
        .iter()
        .map(|x| session.infer_one(x, backend()))
        .collect::<Result<Vec<_>, _>>()?;
    let direct_ips = images_n as f64 / t0.elapsed().as_secs_f64();

    let policy = FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(4);
    let mut scenarios: Vec<Scenario> = Vec::new();

    // Baseline: the same 2-shard mixed fleet, no faults.
    {
        let transports = vec![
            wire_shard(&platform, images_n, vec![FaultPlan::new(1)])?,
            local_shard(&platform, images_n)?,
        ];
        let fleet = platform.serve_fleet_with(transports, policy)?;
        let (ips, logits) = run_stream(&fleet, &images, None);
        scenarios.push(Scenario {
            name: "baseline",
            images_per_s: ips,
            seats_held: fleet.shard_count(),
            invariant: logits == reference,
        });
        fleet.shutdown();
    }

    // Sever + replay: the wire shard's link dies mid-stream (truncating a
    // frame) and the redial succeeds — the transport replays its
    // unacknowledged window at the original coordinates.
    {
        let transports = vec![
            wire_shard(
                &platform,
                images_n,
                vec![
                    FaultPlan::new(2)
                        .swap_per_mille(250)
                        .sever_after(6)
                        .sever_mid_frame(),
                    FaultPlan::new(3),
                ],
            )?,
            local_shard(&platform, images_n)?,
        ];
        let fleet = platform.serve_fleet_with(transports, policy)?;
        let (ips, logits) = run_stream(&fleet, &images, None);
        scenarios.push(Scenario {
            name: "sever_replay",
            images_per_s: ips,
            seats_held: fleet.shard_count(),
            invariant: logits == reference,
        });
        fleet.shutdown();
    }

    // Permanent kill: same sever, but every redial is refused — the
    // router evicts the shard and rescues its strays on the survivor.
    {
        let transports = vec![
            wire_shard(
                &platform,
                images_n,
                vec![FaultPlan::new(4).sever_after(6).sever_mid_frame()],
            )?,
            local_shard(&platform, images_n)?,
        ];
        let fleet = platform.serve_fleet_with(transports, policy)?;
        let (ips, logits) = run_stream(&fleet, &images, None);
        scenarios.push(Scenario {
            name: "kill_rescue",
            images_per_s: ips,
            seats_held: fleet.shard_count(),
            invariant: logits == reference,
        });
        fleet.shutdown();
    }

    // Live join: a second shard joins after half the stream and serves
    // its share of the rest.
    {
        let transports = vec![local_shard(&platform, images_n)?];
        let fleet = platform.serve_fleet_with(transports, policy)?;
        let joiner = local_shard(&platform, images_n)?;
        let (ips, logits) = run_stream(&fleet, &images, Some(joiner));
        scenarios.push(Scenario {
            name: "live_join",
            images_per_s: ips,
            seats_held: fleet.shard_count(),
            invariant: logits == reference,
        });
        fleet.shutdown();
    }

    let churn_invariance_ok = scenarios.iter().all(|s| s.invariant);

    println!(
        "{:<14} {:>10} {:>6} {:>10}",
        "scenario", "img/s", "held", "invariant"
    );
    println!(
        "{:<14} {:>10.3} {:>6} {:>10}",
        "direct", direct_ips, "-", "-"
    );
    for s in &scenarios {
        println!(
            "{:<14} {:>10.3} {:>6} {:>10}",
            s.name, s.images_per_s, s.seats_held, s.invariant
        );
    }
    println!("churn-invariance (all scenarios bit-identical to solo): {churn_invariance_ok}");

    let scenario_json: Vec<String> = scenarios
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": \"{}\", \"images_per_s\": {:.4}, \"seats_held\": {}, \
                 \"invariant\": {}}}",
                s.name, s.images_per_s, s.seats_held, s.invariant
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_churn\",\n  \"workload\": \"resnet18_cifar10_analog\",\n  \
         \"xbar\": \"hermes_256\",\n  \"images\": {images_n},\n  \"smoke\": {smoke},\n  \
         \"lease_len\": 4,\n  \"retry\": {{\"max_attempts\": 2, \"backoff_ms\": 1}},\n  \
         \"direct_images_per_s\": {direct_ips:.4},\n  \
         \"scenarios\": [\n    {}\n  ],\n  \
         \"churn_invariance_ok\": {churn_invariance_ok}\n}}\n",
        scenario_json.join(",\n    "),
    );
    let path = "BENCH_serve_churn.json";
    std::fs::write(path, &json).expect("write bench json");
    println!("\nwrote {path}");

    assert!(
        churn_invariance_ok,
        "churn invariance violation: a disturbed fleet diverged from the solo reference"
    );
    Ok(())
}
