//! What a run reports: operations attempted and failed, the global checks,
//! and named metrics with units — printed as a readable block and then as
//! the one-line JSON result that ends standard output.

use crate::stats::{percentile, Latencies, Permille, TAIL};
use std::fmt::Write as _;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `latency_ms_p50`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Readable context printed beside the value (`modeled`, the tail's
    /// percentile and sample count, ...).
    pub note: String,
}

/// The result of one run (or one workload's share of a traced run).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations run and checked (warm-up included).
    pub attempted: u64,
    /// Operations that returned an error or failed their output check.
    pub failed: u64,
    /// Checks that are not per operation (replay fidelity, exact counts);
    /// each failure is described.
    pub check_failures: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metric_note(name, value, unit, "");
    }

    /// Adds a metric with a readable note.
    pub fn metric_note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        let name = name.into();
        if !value.is_finite() {
            self.check_failures
                .push(format!("{name} is not a finite number ({value})"));
        }
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// The end-to-end metrics of an untraced run: `setup_s`,
    /// `throughput_per_s` (`per_op` units of work per operation over `wall`
    /// seconds), the p50 and tail latencies of the operations, and
    /// `peak_rss_mb`.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        lat: &Latencies,
        per_op: usize,
        wall: f64,
        rss: f64,
    ) {
        let sorted = lat.sorted_ms();
        let n = sorted.len();
        self.metric_note(
            "setup_s",
            setup_s,
            "s",
            "median of fresh deployments spread over the run",
        );
        self.metric_note(
            "throughput_per_s",
            (n * per_op) as f64 / wall,
            "1/s",
            format!("{n} operations of {per_op} in {wall:.2} s"),
        );
        self.metric("latency_ms_p50", percentile(&sorted, Permille(500)), "ms");
        self.metric_note(
            "latency_ms_tail",
            percentile(&sorted, TAIL),
            "ms",
            format!(
                "{} of {n} operations, {} beyond",
                TAIL.label(),
                TAIL.beyond(n)
            ),
        );
        self.metric("peak_rss_mb", rss, "MiB");
    }

    /// Records a failed global check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Folds another outcome into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.check_failures.extend(other.check_failures);
        self.metrics.extend(other.metrics);
    }

    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty() && self.attempted > 0
    }

    /// The readable block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{:<40} {:>16.6} {:<6}", m.name, m.value, m.unit);
            if !m.note.is_empty() {
                let _ = write!(out, "  {}", m.note);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for f in &self.check_failures {
            let _ = writeln!(out, "CHECK FAILED: {f}");
        }
        out
    }

    /// The one-line JSON result. Values print in Rust's shortest
    /// round-trip form, which never uses an exponent; non-finite values
    /// (already counted as a failed check) print as 0.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                v,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process so far, in MiB: the high-water
/// mark of its own address space (`VmHWM` in `/proc/self/status`).
/// `getrusage`'s `ru_maxrss` would not do: Linux carries the parent's
/// peak across `execve`, so it would report the launcher's memory
/// whenever that is larger.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("latency_ms_p50", 1.25, "ms");
        o.metric_note("setup_s", 0.000_812_7, "s", "median of 7");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"latency_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.0008127, \"unit\": \"s\"}}}"
        );
        o.metric("bad", f64::NAN, "ms");
        assert!(!o.correct());
    }

    #[test]
    fn peak_rss_is_plausible() {
        let mib = peak_rss_mib();
        assert!(mib > 1.0 && mib < 1e6, "{mib}");
    }
}
