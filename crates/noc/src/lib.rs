//! # aimc-noc — hierarchical AXI interconnect and HBM model
//!
//! Implements the scalable quadrant-tree network of the paper (Sec. II-3,
//! Fig. 1B/D): parametric routers with configurable data width, latency and
//! fan-out, arranged in levels by *quadrant factors* — Table I uses
//! `(HBM, wrapper, L3, L2, L1) = (1, 8, 4, 4, 4)` for 512 clusters — plus a
//! wrapper bridging to the off-chip HBM controller.
//!
//! Transactions (DMA bursts) fly hop by hop through per-link FIFOs, which
//! captures per-hop latency and bandwidth contention on every directed
//! link; see [`Fabric`] for the details and the fidelity argument.
//!
//! ## Example
//! ```
//! use aimc_noc::{Endpoint, Fabric, NocConfig, TxnKind};
//! use aimc_sim::SimTime;
//!
//! let mut fab = Fabric::new(NocConfig::paper_512());
//! // Stream a 4 KiB tile from cluster 3 to cluster 200 (different L3 quads).
//! fab.inject(
//!     SimTime::ZERO,
//!     TxnKind::Write,
//!     Endpoint::Cluster(3),
//!     Endpoint::Cluster(200),
//!     4096,
//!     0,
//! );
//! let done = fab.advance_all();
//! assert!(done[0].0 > SimTime::from_ns(64)); // 64 beats + 8 router hops
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod fabric;
mod network;
#[cfg(test)]
mod oracle;
mod topology;

pub use config::{HbmConfig, NocConfig};
pub use fabric::{Fabric, FabricReport, LinkReport};
pub use network::{Endpoint, LinkId, TxnKind};
pub use topology::{Hop, Route, Topology};
