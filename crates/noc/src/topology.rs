//! Route-aware description of the quadrant tree: which directed links exist,
//! and which ordered sequence of them a payload crosses between two
//! endpoints.
//!
//! [`Topology`] is the single source of routing truth for the hop-by-hop
//! [`crate::Fabric`], which builds each message's hop list from a route's
//! hops and flies it one event at a time, and for the test-only
//! reservation oracle, which walks the same hops of a [`Route`] reserving
//! bandwidth analytically. A route runs *up* the tree from the source
//! cluster to the lowest common ancestor router (Sec. II-3 of the paper),
//! then *down* to the destination; the HBM hangs off the wrapper as a leaf
//! — traffic to or from it crosses the full up (or down) segment plus the
//! dedicated wrapper↔controller channel ([`LinkId::HbmUp`] /
//! [`LinkId::HbmDown`]).
//!
//! Every directed link also gets a dense index (`0..n_links`), so per-link
//! state and statistics live in flat arrays instead of hash maps.

use crate::config::NocConfig;
use crate::network::{Endpoint, LinkId};

/// One directed link crossed by a payload, with the physical parameters a
/// transfer engine needs to model it: serving `bytes` occupies the link for
/// `⌈bytes / width_bytes⌉` cycles, and the burst head reaches the next hop
/// `latency_cycles` after service starts (virtual cut-through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The directed link crossed.
    pub id: LinkId,
    /// Dense index of the link (`0..Topology::n_links`).
    pub index: usize,
    /// Data width in bytes per cycle.
    pub width_bytes: usize,
    /// Head-of-burst traversal latency in cycles.
    pub latency_cycles: u64,
}

/// The ordered hop sequence of one payload between two endpoints.
///
/// Never empty for routes produced by [`Topology::route`]: even a
/// cluster-to-itself transfer bounces off its L1 router (up + down), and
/// HBM-to-HBM traffic crosses the wrapper↔controller channel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Route {
    /// Hops in traversal order (up segment, HBM channel, down segment).
    pub hops: Vec<Hop>,
}

impl Route {
    /// Number of hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the route has no hops.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }
}

/// The quadrant-tree link inventory and router.
///
/// # Examples
/// ```
/// use aimc_noc::{Endpoint, LinkId, NocConfig, Topology};
/// let topo = Topology::new(NocConfig::paper_512());
/// // Neighbors under one L1 router: one hop up, one hop down.
/// let r = topo.route(Endpoint::Cluster(0), Endpoint::Cluster(1));
/// assert_eq!(r.hops.len(), 2);
/// assert_eq!(r.hops[0].id, LinkId::Up { level: 1, child: 0 });
/// assert_eq!(r.hops[1].id, LinkId::Down { level: 1, child: 1 });
/// // Cluster to HBM: the full up segment plus the HBM channel.
/// let r = topo.route(Endpoint::Cluster(0), Endpoint::Hbm);
/// assert_eq!(r.hops.len(), 5);
/// assert_eq!(r.hops.last().unwrap().id, LinkId::HbmUp);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    cfg: NocConfig,
    /// `level_offsets[level-1]` = dense index of `Up { level, child: 0 }`.
    level_offsets: Vec<usize>,
    /// Children (= up/down link pairs) at each level.
    level_children: Vec<usize>,
    n_links: usize,
}

impl Topology {
    /// Builds the link inventory for `cfg`.
    ///
    /// # Panics
    /// Panics if the configuration fails [`NocConfig::validate`].
    pub fn new(cfg: NocConfig) -> Self {
        cfg.validate().expect("invalid NoC configuration");
        let mut level_offsets = Vec::with_capacity(cfg.n_levels());
        let mut level_children = Vec::with_capacity(cfg.n_levels());
        let mut next = 0usize;
        let mut entities = cfg.n_clusters();
        for level in 1..=cfg.n_levels() {
            level_offsets.push(next);
            level_children.push(entities);
            next += entities * 2;
            entities = cfg.routers_at_level(level);
        }
        // The two HBM channel directions occupy the last two dense slots.
        let n_links = next + 2;
        Topology {
            cfg,
            level_offsets,
            level_children,
            n_links,
        }
    }

    /// The configuration the topology was built from.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Total number of directed links (tree up/down pairs plus the two HBM
    /// channel directions).
    pub fn n_links(&self) -> usize {
        self.n_links
    }

    /// Dense index of a directed link.
    ///
    /// # Panics
    /// Panics if the link does not exist in this topology.
    pub fn link_index(&self, id: LinkId) -> usize {
        match id {
            LinkId::Up { level, child } => {
                assert!(
                    level >= 1
                        && level <= self.cfg.n_levels()
                        && child < self.level_children[level - 1],
                    "no such link: {id:?}"
                );
                self.level_offsets[level - 1] + child * 2
            }
            LinkId::Down { level, child } => {
                assert!(
                    level >= 1
                        && level <= self.cfg.n_levels()
                        && child < self.level_children[level - 1],
                    "no such link: {id:?}"
                );
                self.level_offsets[level - 1] + child * 2 + 1
            }
            LinkId::HbmUp => self.n_links - 2,
            LinkId::HbmDown => self.n_links - 1,
            LinkId::HbmCtrl => panic!("no such link: {id:?} is a server, not a routed link"),
        }
    }

    /// The [`LinkId`] at a dense index (inverse of [`Topology::link_index`]).
    ///
    /// # Panics
    /// Panics if `index >= n_links`.
    pub fn link_id(&self, index: usize) -> LinkId {
        assert!(index < self.n_links, "link index out of range");
        if index == self.n_links - 2 {
            return LinkId::HbmUp;
        }
        if index == self.n_links - 1 {
            return LinkId::HbmDown;
        }
        let level = self
            .level_offsets
            .iter()
            .rposition(|&off| off <= index)
            .expect("offsets start at 0")
            + 1;
        let rel = index - self.level_offsets[level - 1];
        let child = rel / 2;
        if rel.is_multiple_of(2) {
            LinkId::Up { level, child }
        } else {
            LinkId::Down { level, child }
        }
    }

    /// All directed links in dense-index order.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.n_links).map(|i| self.link_id(i))
    }

    /// The tree level of a link (1-based; `None` for the HBM channel).
    pub fn link_level(&self, id: LinkId) -> Option<usize> {
        match id {
            LinkId::Up { level, .. } | LinkId::Down { level, .. } => Some(level),
            LinkId::HbmUp | LinkId::HbmDown | LinkId::HbmCtrl => None,
        }
    }

    fn tree_hop(&self, level: usize, child: usize, up: bool) -> Hop {
        let id = if up {
            LinkId::Up { level, child }
        } else {
            LinkId::Down { level, child }
        };
        Hop {
            id,
            index: self.link_index(id),
            width_bytes: self.cfg.link_width_bytes[level - 1],
            latency_cycles: self.cfg.router_latency_cycles[level - 1],
        }
    }

    fn hbm_hop(&self, up: bool) -> Hop {
        let id = if up { LinkId::HbmUp } else { LinkId::HbmDown };
        Hop {
            id,
            index: self.link_index(id),
            width_bytes: self.cfg.hbm.width_bytes,
            latency_cycles: self.cfg.hbm.latency_cycles,
        }
    }

    /// The ordered hop sequence a payload crosses from `src` to `dst`: up
    /// the tree to the lowest common ancestor (or the wrapper for HBM
    /// traffic), across the HBM channel if the route touches the memory,
    /// then down to the destination.
    ///
    /// The HBM *controller* (DRAM service) is not a hop — it is a server the
    /// transfer engines model separately, because reads and writes visit it
    /// at different points of the transaction.
    ///
    /// # Panics
    /// Panics if a cluster index is out of range.
    pub fn route(&self, src: Endpoint, dst: Endpoint) -> Route {
        let mut hops = Vec::new();
        self.for_each_hop(src, dst, |h| hops.push(h));
        Route { hops }
    }

    /// Calls `f` on each hop of [`Topology::route`]`(src, dst)` in
    /// traversal order, without collecting them: the routing itself, which
    /// the fabric runs once per transaction leg.
    ///
    /// # Panics
    /// Panics if a cluster index is out of range.
    pub(crate) fn for_each_hop(&self, src: Endpoint, dst: Endpoint, mut f: impl FnMut(Hop)) {
        if let Endpoint::Cluster(i) = src {
            assert!(i < self.cfg.n_clusters(), "source cluster out of range");
        }
        if let Endpoint::Cluster(i) = dst {
            assert!(
                i < self.cfg.n_clusters(),
                "destination cluster out of range"
            );
        }
        let n_levels = self.cfg.n_levels();
        let (up_from, up_to_level, down_from_level, down_to) = match (src, dst) {
            (Endpoint::Cluster(a), Endpoint::Cluster(b)) => {
                let l = self.cfg.common_ancestor_level(a, b);
                (Some(a), l, l, Some(b))
            }
            (Endpoint::Cluster(a), Endpoint::Hbm) => (Some(a), n_levels, 0, None),
            (Endpoint::Hbm, Endpoint::Cluster(b)) => (None, 0, n_levels, Some(b)),
            (Endpoint::Hbm, Endpoint::Hbm) => (None, 0, 0, None),
        };

        if let Some(a) = up_from {
            for level in 1..=up_to_level {
                f(self.tree_hop(level, self.cfg.ancestor(a, level - 1), true));
            }
        }
        // The HBM channel crossing mirrors the wrapper's leaf position: any
        // route that starts or ends at the memory crosses exactly one of the
        // two channel directions (toward the controller when the memory is
        // the destination).
        match (src, dst) {
            (_, Endpoint::Hbm) => f(self.hbm_hop(true)),
            (Endpoint::Hbm, _) => f(self.hbm_hop(false)),
            _ => {}
        }
        if let Some(b) = down_to {
            for level in (1..=down_from_level).rev() {
                f(self.tree_hop(level, self.cfg.ancestor(b, level - 1), false));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> Topology {
        Topology::new(NocConfig::paper_512())
    }

    #[test]
    fn link_count_matches_tree_structure() {
        let t = paper();
        // 512 + 128 + 32 + 8 up/down pairs, plus the 2 HBM channel links.
        assert_eq!(t.n_links(), 2 * (512 + 128 + 32 + 8) + 2);
    }

    #[test]
    fn dense_indexing_round_trips() {
        for topo in [paper(), Topology::new(NocConfig::small(2, 3))] {
            for i in 0..topo.n_links() {
                let id = topo.link_id(i);
                assert_eq!(topo.link_index(id), i, "index {i} ({id:?})");
            }
        }
    }

    #[test]
    fn routes_climb_to_the_common_ancestor_only() {
        let t = paper();
        // Same L2 quadrant (clusters 0 and 4): two hops up, two down.
        let r = t.route(Endpoint::Cluster(0), Endpoint::Cluster(4));
        let ids: Vec<LinkId> = r.hops.iter().map(|h| h.id).collect();
        assert_eq!(
            ids,
            vec![
                LinkId::Up { level: 1, child: 0 },
                LinkId::Up { level: 2, child: 0 },
                LinkId::Down { level: 2, child: 1 },
                LinkId::Down { level: 1, child: 4 },
            ]
        );
    }

    #[test]
    fn cross_wrapper_route_has_eight_hops() {
        let t = paper();
        // Different wrapper subtrees: 4 up + 4 down, no HBM channel.
        let r = t.route(Endpoint::Cluster(0), Endpoint::Cluster(511));
        assert_eq!(r.len(), 8);
        assert!(r
            .hops
            .iter()
            .all(|h| matches!(h.id, LinkId::Up { .. } | LinkId::Down { .. })));
    }

    #[test]
    fn hbm_routes_cross_the_channel() {
        let t = paper();
        let to = t.route(Endpoint::Cluster(5), Endpoint::Hbm);
        assert_eq!(to.len(), 5);
        assert_eq!(to.hops[4].id, LinkId::HbmUp);
        assert_eq!(to.hops[4].latency_cycles, 100);
        let from = t.route(Endpoint::Hbm, Endpoint::Cluster(5));
        assert_eq!(from.len(), 5);
        assert_eq!(from.hops[0].id, LinkId::HbmDown);
        // HBM -> HBM still crosses the channel toward the controller.
        let local = t.route(Endpoint::Hbm, Endpoint::Hbm);
        assert_eq!(local.len(), 1);
        assert_eq!(local.hops[0].id, LinkId::HbmUp);
    }

    #[test]
    fn self_route_bounces_off_the_l1_router() {
        let t = paper();
        let r = t.route(Endpoint::Cluster(7), Endpoint::Cluster(7));
        let ids: Vec<LinkId> = r.hops.iter().map(|h| h.id).collect();
        assert_eq!(
            ids,
            vec![
                LinkId::Up { level: 1, child: 7 },
                LinkId::Down { level: 1, child: 7 },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_cluster() {
        let t = Topology::new(NocConfig::small(2, 2));
        t.route(Endpoint::Cluster(4), Endpoint::Hbm);
    }

    #[test]
    #[should_panic(expected = "no such link")]
    fn rejects_bad_link() {
        let t = Topology::new(NocConfig::small(2, 2));
        t.link_index(LinkId::Up { level: 3, child: 0 });
    }
}
