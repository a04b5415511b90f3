//! # aimc-runtime — pipelined platform execution and analyses
//!
//! Executes a compiled [`aimc_core::SystemMapping`] on the event-driven
//! platform simulator: per-lane self-timed actors (Sec. IV-5), DMA traffic
//! through the contention-modeled NoC, residual staging (Sec. V-4), and the
//! measurement machinery behind every figure of the paper —
//! per-cluster activity breakdowns (Fig. 5B/C/D), the inefficiency
//! waterfall (Fig. 6), per-group area efficiency (Fig. 7), and the headline
//! TOPS / TOPS/W / GOPS/mm² numbers (Sec. VI).
//!
//! This crate is the *timing layer*: most users should drive it through
//! the `aimc-platform` facade — `Platform::builder()...build()?.session()`
//! compiles the mapping once and `Session::run`/`Session::headline` wrap
//! [`simulate`] and [`Headline::compute`] with per-batch caching and the
//! unified error type. The free functions below remain the layer API the
//! facade (and anything embedding just this layer) is built on.
//!
//! ## Example (layer-level API)
//! ```no_run
//! use aimc_core::{map_network, ArchConfig, MappingStrategy};
//! use aimc_dnn::resnet18;
//! use aimc_runtime::{simulate, AreaModel, EnergyModel, Headline};
//!
//! let graph = resnet18(256, 256, 1000);
//! let arch = ArchConfig::paper();
//! let mapping = map_network(&graph, &arch, MappingStrategy::OnChipResiduals).unwrap();
//! let report = simulate(&graph, &mapping, &arch, 16).unwrap();
//! let headline = Headline::compute(
//!     &mapping, &arch, &report,
//!     &EnergyModel::default(), &AreaModel::default(),
//! );
//! println!("{}", headline.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod pipeline;
mod power;
pub mod report;
pub mod trace;

pub use analysis::{
    group_area_efficiency, link_loads, GroupEfficiency, Headline, LinkLoad, Waterfall,
};
pub use pipeline::{simulate, ClusterBreakdown, FireRecord, RunReport, SimError};
pub use power::{AreaModel, ClusterVariant, EnergyBreakdown, EnergyModel, EnergyTallies};
