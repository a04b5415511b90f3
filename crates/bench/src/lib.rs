//! # aimc-bench — experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §2 for the
//! experiment index) plus the `mvm_kernels` microbenchmark. This library
//! crate holds the shared setup used by all of them, built on the
//! [`Platform`]/[`Session`] facade API.
//!
//! ## Example
//! ```no_run
//! use aimc_core::MappingStrategy;
//!
//! # fn main() -> Result<(), aimc_platform::Error> {
//! let mut session = aimc_bench::paper_session(MappingStrategy::OnChipResiduals)?;
//! let report = session.run(aimc_platform::RunSpec::batch(16))?;
//! println!("{:.1} TOPS", report.tops());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aimc_core::{ArchConfig, MappingStrategy, SystemMapping};
use aimc_dnn::{resnet18, Graph};
use aimc_platform::{Error, Platform, RunSpec, Session};
use aimc_runtime::RunReport;

/// The paper's workload: ResNet-18 on 256×256 inputs, 1000 classes.
pub fn paper_graph() -> Graph {
    resnet18(256, 256, 1000)
}

/// The paper's platform (Table I).
pub fn paper_arch() -> ArchConfig {
    ArchConfig::paper()
}

/// Compiles the paper workload onto the paper platform with `strategy`
/// (the mapping is computed once and cached in the returned [`Platform`]).
///
/// # Errors
/// Propagates mapping failures as [`Error::Map`] (the paper pair always
/// maps; sweeps over modified architectures may not).
pub fn paper_platform(strategy: MappingStrategy) -> Result<Platform, Error> {
    Platform::builder()
        .graph(paper_graph())
        .arch(paper_arch())
        .strategy(strategy)
        .build()
}

/// Opens a [`Session`] on the compiled paper platform.
///
/// # Errors
/// Same conditions as [`paper_platform`].
pub fn paper_session(strategy: MappingStrategy) -> Result<Session, Error> {
    Ok(paper_platform(strategy)?.session())
}

/// Maps and simulates the paper workload with `strategy` for a batch.
///
/// # Errors
/// Propagates mapping and simulation-spec failures instead of panicking.
pub fn run_paper(
    strategy: MappingStrategy,
    batch: usize,
) -> Result<(Graph, SystemMapping, RunReport), Error> {
    let platform = paper_platform(strategy)?;
    let mut session = platform.session();
    let report = session.run(RunSpec::batch(batch))?.clone();
    Ok((platform.graph().clone(), platform.mapping().clone(), report))
}

/// Reads the batch size from the first CLI argument (default 16, the
/// paper's batch).
pub fn batch_from_args() -> usize {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setup_is_consistent() {
        let g = paper_graph();
        assert_eq!(g.len(), 28);
        assert_eq!(paper_arch().n_clusters(), 512);
    }

    #[test]
    fn run_paper_small_batch() {
        let (_, m, r) = run_paper(MappingStrategy::OnChipResiduals, 2).unwrap();
        assert!(m.n_clusters_used <= 512);
        assert_eq!(r.batch, 2);
        assert!(r.tops() > 1.0);
    }

    #[test]
    fn session_caches_repeat_runs() {
        let mut s = paper_session(MappingStrategy::OnChipResiduals).unwrap();
        let first = s.run(RunSpec::batch(2)).unwrap().makespan;
        assert_eq!(s.run(RunSpec::batch(2)).unwrap().makespan, first);
    }
}
