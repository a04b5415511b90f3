//! `sim_resnet18`: the paper's experiment — ResNet-18 at 256×256 with 1000
//! classes on the 512-cluster platform (`OnChipResiduals`, batch 16) —
//! through the event-driven timing simulator. One operation is one
//! `Session::run` on a fresh session (sessions cache reports per batch),
//! at the platform default `Serial`. `runtime`, `noc`, `sim` and `cluster`
//! do all the work. The run is deterministic: the seed changes nothing,
//! and every report must equal the first.

use crate::report::{peak_rss_mib, Outcome};
use crate::stats::{Latencies, TAIL};
use crate::trace::{layers, Tracer};
use crate::{op_count, phase_cap, Cfg, Setups, SETUP_GROUPS};
use aimc_platform::core::{ArchConfig, MappingStrategy};
use aimc_platform::dnn::resnet18;
use aimc_platform::runtime::RunReport;
use aimc_platform::{Platform, RunSpec};
use std::time::{Duration, Instant};

/// Images per simulated batch (the paper's).
const BATCH: usize = 16;
/// Simulations per second on a 2-vCPU host.
const NOMINAL_OPS_PER_S: f64 = 3.3;
/// Fresh deployments timed per run (each well under a millisecond).
const SETUPS: usize = 61;
const WARMUP: usize = 3;
/// The paper's measured throughput (Sec. VI), for the modeled comparison.
const PAPER_TOPS: f64 = 20.2;

/// Graph construction and mapping onto the paper's platform.
fn deploy(tr: Option<&mut Tracer>) -> Result<Platform, String> {
    let build = |graph| {
        Platform::builder()
            .graph(graph)
            .arch(ArchConfig::paper())
            .strategy(MappingStrategy::OnChipResiduals)
            .build()
            .map_err(|e| format!("sim_resnet18 build: {e}"))
    };
    match tr {
        None => build(resnet18(256, 256, 1000)),
        Some(t) => t.span("bench.setup", None, 0, |t, root| {
            let graph = t.span("dnn.graph", Some(root), 0, |_, _| resnet18(256, 256, 1000));
            t.span("core.map", Some(root), 0, |_, _| build(graph))
        }),
    }
}

/// The closed loop: fresh session, one run, compare with the first report.
struct ClosedLoop {
    platform: Platform,
    reference: Option<RunReport>,
    runs: u64,
    attempted: u64,
    failed: u64,
}

impl ClosedLoop {
    /// One simulation; its latency on success.
    fn op(&mut self, tr: Option<&mut Tracer>) -> Option<Duration> {
        self.attempted += 1;
        let req = self.runs;
        self.runs += 1;
        let (result, dt) = match tr {
            None => {
                let t0 = Instant::now();
                let mut session = self.platform.session();
                let r = session.run(RunSpec::batch(BATCH));
                let dt = t0.elapsed();
                (r.map(|r| self.check(r)), dt)
            }
            Some(t) => t.span("bench.sim_op", None, req, |t, op| {
                let t0 = Instant::now();
                let mut session = t.span("runtime.session", Some(op), req, |_, _| {
                    self.platform.session()
                });
                let r = t.span("runtime.simulate", Some(op), req, |_, _| {
                    session.run(RunSpec::batch(BATCH))
                });
                let dt = t0.elapsed();
                let ok = t.span("bench.check", Some(op), req, |_, _| {
                    r.map(|r| self.check(r))
                });
                (ok, dt)
            }),
        };
        match result {
            Ok(true) => Some(dt),
            Ok(false) => {
                eprintln!("sim_resnet18: run {req} differs from the first report");
                self.failed += 1;
                None
            }
            Err(e) => {
                eprintln!("sim_resnet18: run {req} failed: {e}");
                self.failed += 1;
                None
            }
        }
    }

    fn check(&mut self, report: &RunReport) -> bool {
        match &self.reference {
            Some(first) => first == report,
            None => {
                self.reference = Some(report.clone());
                true
            }
        }
    }
}

/// One fresh deployment's set-up time in seconds.
fn fresh() -> Result<f64, String> {
    let t0 = Instant::now();
    let platform = deploy(None)?;
    let s = t0.elapsed().as_secs_f64();
    drop(platform);
    Ok(s)
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut d = ClosedLoop {
        platform: deploy(None)?,
        reference: None,
        runs: 0,
        attempted: 0,
        failed: 0,
    };
    for _ in 0..WARMUP {
        d.op(None);
    }
    let n = op_count(cfg.seconds, NOMINAL_OPS_PER_S, TAIL.min_samples());
    let (floor, cap) = (TAIL.min_samples(), phase_cap(cfg.seconds));
    let every = n.div_ceil(SETUP_GROUPS);
    let mut setups = Setups::new(SETUPS);
    let mut lat = Latencies::with_capacity(n);
    let t0 = Instant::now();
    for i in 0..n {
        if i % every == 0 {
            setups.group(fresh)?;
        }
        if let Some(dt) = d.op(None) {
            lat.push(dt);
        }
        if i + 1 >= floor && t0.elapsed() - setups.paused() > cap {
            break;
        }
    }
    let wall = (t0.elapsed() - setups.paused()).as_secs_f64();
    let setup_s = setups.finish(fresh)?;

    let mut out = Outcome {
        attempted: d.attempted,
        failed: d.failed,
        ..Outcome::default()
    };
    out.end_to_end(setup_s, &lat, BATCH, wall, peak_rss_mib());
    Ok(out)
}

/// The traced pass: set-up and simulator spans plus the modeled values.
pub fn traced(cfg: &Cfg, epoch: Instant) -> Result<(Outcome, Tracer), String> {
    let mut tr = Tracer::new(epoch, 1 << 12);
    let mut platform = None;
    for _ in 0..3 {
        drop(platform.take());
        platform = Some(deploy(Some(&mut tr))?);
    }
    let mut d = ClosedLoop {
        platform: platform.expect("deployed"),
        reference: None,
        runs: 0,
        attempted: 0,
        failed: 0,
    };
    d.op(None);
    let half = op_count(cfg.seconds / 2.0, NOMINAL_OPS_PER_S, 3);
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..half {
        let t0 = Instant::now();
        d.op(None);
        plain += t0.elapsed();
        let t0 = Instant::now();
        d.op(Some(&mut tr));
        traced += t0.elapsed();
    }
    let l = layers(tr.spans());
    let ms = |name: &str| l.get(name).map_or(0.0, |l| l.p50_ns / 1e6);
    let report = d.reference.as_ref().ok_or("no simulation succeeded")?;
    let links = &report.fabric.links;
    let simulate_ms = ms("runtime.simulate");
    let tops = report.tops();

    let mut out = Outcome {
        attempted: d.attempted,
        failed: d.failed,
        ..Outcome::default()
    };
    out.metric_note(
        "core.map_ms",
        ms("core.map"),
        "ms",
        "Platform build (map_network), median of 3",
    );
    out.metric_note(
        "runtime.simulate_ms",
        simulate_ms,
        "ms",
        format!("Session::run span, median of {half}"),
    );
    out.metric("runtime.events", report.events as f64, "count");
    out.metric(
        "runtime.host_ns_per_event",
        simulate_ms * 1e6 / report.events as f64,
        "ns",
    );
    out.metric_note(
        "runtime.modeled_makespan_us",
        report.makespan.as_us_f64(),
        // Simulated time: the same on every run by design.
        "modeled_us",
        "modeled",
    );
    out.metric_note(
        "runtime.modeled_tops",
        tops,
        "TOPS",
        format!(
            "modeled; paper {PAPER_TOPS} TOPS, error {:+.1}%",
            (tops / PAPER_TOPS - 1.0) * 100.0
        ),
    );
    out.metric_note(
        "noc.link_bytes",
        links.iter().map(|l| l.bytes).sum::<u64>() as f64,
        "bytes",
        "modeled",
    );
    out.metric_note(
        "noc.link_transactions",
        links.iter().map(|l| l.transactions).sum::<u64>() as f64,
        "count",
        "modeled",
    );
    out.metric_note(
        "noc.peak_queued",
        f64::from(links.iter().map(|l| l.peak_queued).max().unwrap_or(0)),
        "count",
        "modeled, busiest link",
    );
    out.metric_note(
        "core.clusters_used",
        d.platform.mapping().n_clusters_used as f64,
        "count",
        format!("modeled, of {}", d.platform.mapping().n_clusters_available),
    );
    out.metric_note(
        "trace.overhead_pct.sim_resnet18",
        (traced.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0,
        "%",
        format!("{half} traced against {half} untraced runs, interleaved"),
    );
    Ok((out, tr))
}
