//! Recalibration benchmark for the heterogeneous serving fleet:
//! single-image requests (ResNet-18/CIFAR on modeled PCM crossbars) for
//! **two model groups at once** through `Platform::serve_hetero_fleet`,
//! while the fleet drifts mid-stream and replicas are rotated through a
//! drain → reprogram-from-spec → drift-replay recalibration — manually
//! seat by seat, and under the background scheduler
//! (`FleetHandle::start_recal`). Each scenario carries the registry's
//! hard invariant as a built-in check: each model's completed logits must
//! be **bit-identical** to a solo `Session::infer_one` stream over that
//! model's backend taken through the same drift transition — rotation may
//! cost wall-clock, never a logit and never a coordinate.
//!
//! Emits `BENCH_serve_recal.json` in the working directory: images/s per
//! scenario against the no-rotation baseline, rotation counts, and
//! `recal_invariance_ok` — the binary also exits non-zero on a violation,
//! so CI can gate on either signal.
//!
//! ```text
//! cargo run --release -p aimc-bench --bin serve_recal [images] [--smoke]
//! ```
//!
//! `--smoke` (or `AIMC_BENCH_SMOKE=1`) shrinks the run for CI: fewer
//! images per model — it still exercises both rotation scenarios, the
//! two-group registry, and the invariance check.

use aimc_core::ArchConfig;
use aimc_dnn::{resnet18_cifar, Shape, Tensor};
use aimc_platform::serve::{
    BatchPolicy, FleetHandle, Pending, RecalHandle, RecalPolicy, Request, RoutePolicy,
};
use aimc_platform::{Backend, Error, ModelGroup, Platform};
use aimc_xbar::XbarConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// The drift transition every scenario (and the solo references) takes
/// after the first half of the stream.
const DRIFT_T_HOURS: f64 = 250.0;

fn alpha_backend() -> Backend {
    Backend::analog(7, XbarConfig::hermes_256())
}

fn beta_backend() -> Backend {
    Backend::analog(11, XbarConfig::hermes_256())
}

fn batch_policy(images_n: usize) -> BatchPolicy {
    BatchPolicy::new(4, Duration::from_millis(5)).with_queue_depth((2 * images_n).max(1))
}

fn random_images(n: usize, seed: u64) -> Vec<Tensor> {
    let shape = Shape::new(3, 32, 32);
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

/// Solo reference for one model: first half, the drift transition, second
/// half — the stream its fleet group must reproduce bit-for-bit.
fn solo_reference(
    platform: &Platform,
    backend: &Backend,
    images: &[Tensor],
) -> Result<Vec<Tensor>, Error> {
    let mut session = platform.session();
    let half = images.len() / 2;
    let mut out = images[..half]
        .iter()
        .map(|x| session.infer_one(x, backend.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    session.apply_drift(DRIFT_T_HOURS)?;
    out.extend(
        images[half..]
            .iter()
            .map(|x| session.infer_one(x, backend.clone()))
            .collect::<Result<Vec<_>, _>>()?,
    );
    Ok(out)
}

/// A scenario's mid-stream action: runs between the two stream halves and
/// may hand back a background scheduler to wind down after the drain.
type MidAction = Box<dyn FnOnce(&FleetHandle) -> Option<RecalHandle>>;

/// Drives both model streams through the fleet: first halves, the drift
/// transition (which drains, so every submitted request ran pre-drift),
/// the scenario's mid-stream action, then the second halves. Returns
/// images/s over the full run and each model's logits in stream order.
fn run_hetero_stream(
    fleet: &FleetHandle,
    a_images: &[Tensor],
    b_images: &[Tensor],
    mid: impl FnOnce(&FleetHandle) -> Option<RecalHandle>,
) -> (f64, Vec<Tensor>, Vec<Tensor>) {
    let wait_all = |pend: Vec<Pending>| -> Vec<Tensor> {
        pend.into_iter()
            .map(|p| p.wait().expect("request settles across rotations"))
            .collect()
    };
    let submit_half = |images: &[Tensor], model: &str, from: usize, to: usize| -> Vec<Pending> {
        images[from..to]
            .iter()
            .map(|x| {
                fleet
                    .submit(Request::new(x.clone()).to(model))
                    .expect("fleet is open")
            })
            .collect()
    };
    let t0 = Instant::now();
    let half = a_images.len() / 2;
    let a_first = submit_half(a_images, "alpha", 0, half);
    let b_first = submit_half(b_images, "beta", 0, half);
    let mut a_got = wait_all(a_first);
    let mut b_got = wait_all(b_first);
    assert!(fleet.apply_drift(DRIFT_T_HOURS), "analog replicas drift");
    let mut recal = mid(fleet);
    let a_second = submit_half(a_images, "alpha", half, a_images.len());
    let b_second = submit_half(b_images, "beta", half, b_images.len());
    fleet.drain();
    a_got.extend(wait_all(a_second));
    b_got.extend(wait_all(b_second));
    if let Some(handle) = recal.as_mut() {
        // Let the background worker finish rotating every aged seat so
        // scenarios report comparable rotation counts.
        let deadline = Instant::now() + Duration::from_secs(60);
        while fleet.shard_health().iter().any(|h| h.drift_age > 0) {
            assert!(
                Instant::now() < deadline,
                "background scheduler stalled: {:?}",
                handle.stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.stop();
    }
    let dt = t0.elapsed().as_secs_f64();
    ((a_images.len() + b_images.len()) as f64 / dt, a_got, b_got)
}

struct Scenario {
    name: &'static str,
    images_per_s: f64,
    rotations: u64,
    invariant: bool,
}

fn main() -> Result<(), Error> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var("AIMC_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let images_n = args
        .iter()
        .find_map(|a| a.parse::<usize>().ok())
        .unwrap_or(if smoke { 6 } else { 24 });

    let a_images = random_images(images_n, 17);
    let b_images = random_images(images_n, 29);

    println!(
        "Heterogeneous-fleet recalibration — ResNet-18/CIFAR, two analog model groups, \
         {images_n} images per model{}",
        if smoke { " [smoke]" } else { "" }
    );

    let platform = Platform::builder()
        .graph(resnet18_cifar(10))
        .arch(ArchConfig::small(8, 8))
        .he_weights(42)
        .build()?;

    // Solo references: the per-model streams every fleet must reproduce.
    let t0 = Instant::now();
    let a_reference = solo_reference(&platform, &alpha_backend(), &a_images)?;
    let b_reference = solo_reference(&platform, &beta_backend(), &b_images)?;
    let direct_ips = (2 * images_n) as f64 / t0.elapsed().as_secs_f64();

    let groups = [
        ModelGroup::new("alpha", 2, alpha_backend()),
        ModelGroup::new("beta", 2, beta_backend()),
    ];
    let serve =
        |scenarios: &mut Vec<Scenario>, name: &'static str, mid: MidAction| -> Result<(), Error> {
            let fleet = platform.serve_hetero_fleet(
                &groups,
                batch_policy(images_n),
                RoutePolicy::RoundRobin,
            )?;
            let (ips, a_got, b_got) = run_hetero_stream(&fleet, &a_images, &b_images, mid);
            let rotations = fleet.shard_health().iter().map(|h| h.recals).sum();
            scenarios.push(Scenario {
                name,
                images_per_s: ips,
                rotations,
                invariant: a_got == a_reference && b_got == b_reference,
            });
            fleet.shutdown();
            Ok(())
        };

    let mut scenarios: Vec<Scenario> = Vec::new();

    // Baseline: the drift transition lands, no seat is rotated.
    serve(&mut scenarios, "baseline", Box::new(|_| None))?;

    // Manual rotation: every seat is drained, reprogrammed from its spec
    // seed, and replayed through the drift log before the second half.
    serve(
        &mut scenarios,
        "manual_rotation",
        Box::new(|fleet| {
            for seat in fleet.shard_health() {
                fleet
                    .recalibrate_shard(seat.id)
                    .expect("every seat has a routable peer");
            }
            None
        }),
    )?;

    // Background scheduler: the worker notices the aged seats and rotates
    // them (one per scan, behind the live floor) while the second half of
    // both streams is being served.
    serve(
        &mut scenarios,
        "background_sched",
        Box::new(|fleet| {
            Some(fleet.start_recal(RecalPolicy::new(1).with_cadence(Duration::from_millis(2))))
        }),
    )?;

    let recal_invariance_ok = scenarios.iter().all(|s| s.invariant);

    println!(
        "{:<18} {:>10} {:>10} {:>10}",
        "scenario", "img/s", "rotations", "invariant"
    );
    println!(
        "{:<18} {:>10.3} {:>10} {:>10}",
        "direct", direct_ips, "-", "-"
    );
    for s in &scenarios {
        println!(
            "{:<18} {:>10.3} {:>10} {:>10}",
            s.name, s.images_per_s, s.rotations, s.invariant
        );
    }
    println!(
        "recal-invariance (every model bit-identical to its solo stream): {recal_invariance_ok}"
    );

    let scenario_json: Vec<String> = scenarios
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": \"{}\", \"images_per_s\": {:.4}, \"rotations\": {}, \
                 \"invariant\": {}}}",
                s.name, s.images_per_s, s.rotations, s.invariant
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_recal\",\n  \"workload\": \"resnet18_cifar10_analog\",\n  \
         \"xbar\": \"hermes_256\",\n  \"models\": [\"alpha\", \"beta\"],\n  \
         \"replicas_per_model\": 2,\n  \"images_per_model\": {images_n},\n  \
         \"smoke\": {smoke},\n  \"drift_t_hours\": {DRIFT_T_HOURS},\n  \
         \"direct_images_per_s\": {direct_ips:.4},\n  \
         \"scenarios\": [\n    {}\n  ],\n  \
         \"recal_invariance_ok\": {recal_invariance_ok}\n}}\n",
        scenario_json.join(",\n    "),
    );
    let path = "BENCH_serve_recal.json";
    std::fs::write(path, &json).expect("write bench json");
    println!("\nwrote {path}");

    assert!(
        recal_invariance_ok,
        "recal invariance violation: a rotated fleet diverged from a solo reference"
    );
    Ok(())
}
