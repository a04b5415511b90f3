//! Transfer endpoints, directions and link identifiers shared by the
//! hop-by-hop [`Fabric`](crate::Fabric) and the topology.

use std::fmt;

/// A transfer endpoint: a leaf cluster or the external HBM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Cluster leaf by index.
    Cluster(usize),
    /// The off-chip high-bandwidth memory behind the wrapper.
    Hbm,
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Cluster(i) => write!(f, "cluster{i}"),
            Endpoint::Hbm => write!(f, "hbm"),
        }
    }
}

/// AXI transaction direction, as seen by the initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// Data flows from `dst` back to the initiator (`src`).
    Read,
    /// Data flows from the initiator (`src`) to `dst`.
    Write,
}

/// Identifier of a directed link for statistics queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkId {
    /// Child → router at `level` (1-based), child's global index at level-1.
    Up {
        /// Tree level of the router (1-based).
        level: usize,
        /// Global index of the child entity at `level - 1`.
        child: usize,
    },
    /// Router at `level` → child.
    Down {
        /// Tree level of the router (1-based).
        level: usize,
        /// Global index of the child entity at `level - 1`.
        child: usize,
    },
    /// Wrapper → HBM controller.
    HbmUp,
    /// HBM controller → wrapper.
    HbmDown,
    /// The HBM controller itself (DRAM service). Not a routed link — it is
    /// the server behind the channel — but it carries the same usage
    /// statistics, so reports can treat it uniformly.
    HbmCtrl,
}
