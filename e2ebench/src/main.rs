//! End-to-end and per-layer benchmark of the aimc-platform stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <infer_resnet18|sim_resnet18|serve_fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop driven by one benchmark thread; its
//! inputs (weights, images) are generated from `--seed`, and every output
//! is checked against an independent reference.
//!
//! * `--trace 0` runs the named workload untraced and reports its
//!   end-to-end metrics: `setup_s`, `throughput_per_s`, `latency_ms_p50`,
//!   `latency_ms_tail` and `peak_rss_mb`.
//! * `--trace 1` runs the traced pass over **every** workload (the named
//!   one first), each for a third of `--seconds`, and reports every
//!   per-layer metric plus each workload's tracing overhead. Spans are
//!   written as CSV under `$CARGO_TARGET_DIR/e2ebench-traces/`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod infer;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use aimc_platform::dnn::{Shape, Tensor};
use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Analog ResNet-18/CIFAR through `Session::infer`, 16 images a call.
    Infer,
    /// The paper's ResNet-18 timing simulation through `Session::run`.
    Sim,
    /// A micro CNN served by a local + TCP fleet through `FleetHandle`.
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Infer, Workload::Sim, Workload::Serve];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Infer => "infer_resnet18",
            Workload::Sim => "sim_resnet18",
            Workload::Serve => "serve_fleet",
        }
    }
}

/// Settings shared by every workload of a run.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    /// Input seed.
    pub seed: u64,
    /// Measuring time the run is sized for.
    pub seconds: f64,
}

impl Cfg {
    /// A sub-seed for one kind of input (weights, crossbars, images).
    pub fn derive(&self, tag: u64) -> u64 {
        splitmix(self.seed ^ splitmix(tag))
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` images of `shape` with values uniform in [-1, 1), from `seed`.
pub fn images(seed: u64, n: usize, shape: Shape) -> Vec<Tensor> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (splitmix(state) >> 40) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0
    };
    (0..n)
        .map(|_| Tensor::from_vec(shape, (0..shape.numel()).map(|_| next()).collect()))
        .collect()
}

/// Operations in a measuring phase of `seconds`: the workload's nominal
/// rate on a 2-vCPU host, but never fewer than `floor`. The count is fixed
/// before timing, so sample storage never grows with the program's speed.
pub fn op_count(seconds: f64, nominal_per_s: f64, floor: usize) -> usize {
    ((seconds * nominal_per_s).round() as usize).max(floor)
}

/// Fresh deployments timed in `SETUP_GROUPS` groups spread over the timed
/// phase (the clock that times the phase is paused meanwhile), so that
/// `setup_s` samples the host over the whole run, as the operations do,
/// rather than one instant of it.
pub struct Setups {
    total: usize,
    per_group: usize,
    times: Vec<f64>,
    paused: std::time::Duration,
}

/// Groups the fresh deployments of a run are split into.
pub const SETUP_GROUPS: usize = 5;

impl Setups {
    /// Room for `total` set-up times.
    pub fn new(total: usize) -> Self {
        Setups {
            total,
            per_group: total.div_ceil(SETUP_GROUPS),
            times: Vec::with_capacity(total),
            paused: std::time::Duration::ZERO,
        }
    }

    /// Runs the next group; `fresh` deploys, tears down, and returns the
    /// deployment's set-up time in seconds.
    pub fn group(&mut self, fresh: impl FnMut() -> Result<f64, String>) -> Result<(), String> {
        self.run(self.per_group, fresh)
    }

    fn run(
        &mut self,
        k: usize,
        mut fresh: impl FnMut() -> Result<f64, String>,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        for _ in 0..k.min(self.total - self.times.len()) {
            self.times.push(fresh()?);
        }
        self.paused += t0.elapsed();
        Ok(())
    }

    /// Time spent in groups so far.
    pub fn paused(&self) -> std::time::Duration {
        self.paused
    }

    /// Runs the deployments no group reached (a phase that stopped early)
    /// and returns the median set-up time.
    pub fn finish(&mut self, fresh: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
        self.run(self.total, fresh)?;
        Ok(stats::median(&self.times))
    }
}

/// How far past `seconds` a slow host may stretch a fixed-count phase
/// before it stops early (once the tail percentile has its samples).
pub fn phase_cap(seconds: f64) -> std::time::Duration {
    std::time::Duration::from_secs_f64(seconds * 1.2)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: aimc-e2ebench --workload <infer_resnet18|sim_resnet18|serve_fleet> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 35.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where traced runs write their spans.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")))
        .join("e2ebench-traces")
}

/// Spans written per workload (all of them stay in memory for the metrics).
const SPANS_WRITTEN: usize = 50_000;

/// The traced pass: every workload, the named one first, each for a third
/// of the run.
fn traced(args: &Args) -> Result<Outcome, String> {
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds / Workload::ALL.len() as f64,
    };
    let epoch = Instant::now();
    let order = std::iter::once(args.workload)
        .chain(Workload::ALL.into_iter().filter(|&w| w != args.workload));
    let mut out = Outcome::default();
    for w in order {
        let (o, tracer) = match w {
            Workload::Infer => infer::traced(&cfg, epoch)?,
            Workload::Sim => sim::traced(&cfg, epoch)?,
            Workload::Serve => serve::traced(&cfg, epoch)?,
        };
        println!(
            "== {} spans (self time = duration minus children) ==",
            w.name()
        );
        println!(
            "{:<22} {:>9} {:>12} {:>12} {:>12}",
            "span", "count", "total ms", "self ms", "p50 us"
        );
        for (name, l) in trace::layers(tracer.spans()) {
            println!(
                "{name:<22} {:>9} {:>12.3} {:>12.3} {:>12.3}",
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                l.p50_ns / 1e3
            );
        }
        let path = trace_dir().join(format!("{}-seed{}.csv", w.name(), args.seed));
        match trace::write_csv(&path, tracer.spans(), SPANS_WRITTEN) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
        out.merge(o);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
    };
    let result = if args.trace {
        traced(&args)
    } else {
        match args.workload {
            Workload::Infer => infer::run(&cfg),
            Workload::Sim => sim::run(&cfg),
            Workload::Serve => serve::run(&cfg),
        }
    };
    match result {
        Ok(outcome) => {
            print!("{}", outcome.render());
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_fleet --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Serve);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload sim_resnet18 --trace 2").is_err());
        assert!(args("--workload sim_resnet18 --seconds 0").is_err());
    }

    #[test]
    fn inputs_follow_the_seed() {
        let s = Shape::new(3, 4, 4);
        assert_eq!(images(5, 3, s), images(5, 3, s));
        assert_ne!(images(5, 3, s), images(6, 3, s));
        assert!(images(5, 3, s)
            .iter()
            .flat_map(|t| t.data())
            .all(|v| (-1.0..1.0).contains(v)));
        let c = Cfg {
            seed: 1,
            seconds: 1.0,
        };
        assert_ne!(c.derive(1), c.derive(2));
    }

    #[test]
    fn setups_run_in_groups_and_finish_the_rest() {
        let mut s = Setups::new(7);
        let mut k = 0.0;
        let mut fresh = || {
            k += 1.0;
            Ok(k)
        };
        s.group(&mut fresh).unwrap();
        s.group(&mut fresh).unwrap();
        // ceil(7 / SETUP_GROUPS) = 2 per group.
        assert_eq!(s.times.len(), 4);
        assert_eq!(s.finish(&mut fresh).unwrap(), 4.0);
        assert_eq!(s.times.len(), 7);
        s.group(&mut fresh).unwrap();
        assert_eq!(s.times.len(), 7, "never more than the total");
    }

    #[test]
    fn op_counts_are_fixed_by_seconds() {
        assert_eq!(op_count(30.0, 12.5, 100), 375);
        assert_eq!(op_count(1.0, 12.5, 100), 100);
        assert_eq!(phase_cap(10.0).as_secs_f64(), 12.0);
    }
}
