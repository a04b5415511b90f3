//! The reservation engine: a test-only oracle for the hop-by-hop
//! [`Fabric`](crate::Fabric).
//!
//! ## Modeling approach: link reservation
//!
//! The runtime injects *transactions* (DMA bursts) in global time order. For
//! each transaction we walk its route — up the quadrant tree to the lowest
//! common ancestor, then down (Sec. II-3) — reserving time on every directed
//! link it crosses. A link is a FIFO server: service begins at
//! `max(arrival, link.free_at)` and occupies `⌈bytes/width⌉` cycles; the head
//! of the burst reaches the next hop after the level's router latency
//! (virtual-cut-through, valid because all levels share one data width).
//!
//! This gives O(hops) cost per transaction with *no* internal events while
//! still modeling the two effects the paper's results hinge on: per-hop
//! latency accumulation and bandwidth contention (most importantly on the
//! HBM channel, which serializes the naive residual traffic of Sec. V-4).
//! Because injections arrive in nondecreasing time order, reservation order
//! equals arrival order and the FIFO discipline is respected; the residual
//! approximation (a transaction occasionally reserves ahead of one that
//! would physically reach an inner link first) is bounded by one router
//! latency and does not accumulate.

use crate::config::NocConfig;
use crate::network::{Endpoint, LinkId, TxnKind};
use crate::topology::Topology;
use aimc_sim::{Cycles, SimTime};

#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    free_at: SimTime,
    busy_ps: u64,
    transactions: u64,
    bytes: u64,
}

/// Per-link usage snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Total time the link was occupied by payloads.
    pub busy: SimTime,
    /// Number of transactions served.
    pub transactions: u64,
    /// Total payload bytes carried.
    pub bytes: u64,
}

/// The hierarchical interconnect with reservation-based contention.
#[derive(Debug)]
pub struct Noc {
    topo: Topology,
    /// Dense per-link state in [`Topology`] index order.
    links: Vec<LinkState>,
    hbm_ctrl: LinkState,
}

impl Noc {
    /// Builds the interconnect for `cfg`.
    ///
    /// # Panics
    /// Panics if the configuration fails [`NocConfig::validate`].
    pub fn new(cfg: NocConfig) -> Self {
        let topo = Topology::new(cfg);
        let links = vec![LinkState::default(); topo.n_links()];
        Noc {
            topo,
            links,
            hbm_ctrl: LinkState::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NocConfig {
        self.topo.config()
    }

    fn cycles(&self, n: u64) -> SimTime {
        self.config().frequency.cycles_to_time(Cycles(n))
    }

    /// Reserves `occupancy` on `link` for a payload arriving (head) at `t`.
    /// Returns the time the head leaves the link (start + latency).
    fn reserve(
        link: &mut LinkState,
        t: SimTime,
        occupancy: SimTime,
        latency: SimTime,
        bytes: usize,
    ) -> SimTime {
        let start = if link.free_at > t { link.free_at } else { t };
        link.free_at = start + occupancy;
        link.busy_ps += occupancy.as_ps();
        link.transactions += 1;
        link.bytes += bytes as u64;
        start + latency
    }

    /// Walks the payload route from `from` to `to`, reserving bandwidth on
    /// every hop. Returns `(head_arrival, tail_arrival)` at the destination.
    fn route_payload(
        &mut self,
        t0: SimTime,
        from: Endpoint,
        to: Endpoint,
        bytes: usize,
    ) -> (SimTime, SimTime) {
        let route = self.topo.route(from, to);
        let mut t = t0;
        let mut last_occ = SimTime::ZERO;
        for hop in &route.hops {
            let occ = self.cycles(bytes.max(1).div_ceil(hop.width_bytes) as u64);
            let lat = self.cycles(hop.latency_cycles);
            t = Self::reserve(&mut self.links[hop.index], t, occ, lat, bytes);
            last_occ = occ;
        }
        (t, t + last_occ)
    }

    /// Reserves the HBM controller for a burst whose head arrives at `t`.
    /// Returns the time the data is available (read) / absorbed (write).
    fn hbm_service(&mut self, t: SimTime, bytes: usize) -> SimTime {
        let occ_cycles = self.config().hbm.row_overhead_cycles
            + bytes.max(1).div_ceil(self.config().hbm.width_bytes) as u64;
        let occ = self.cycles(occ_cycles);
        Self::reserve(&mut self.hbm_ctrl, t, occ, occ, bytes)
    }

    /// Injects one transaction and returns its completion time as observed
    /// by the initiator `src` (write: response received; read: last data
    /// beat received).
    ///
    /// Transactions must be injected in nondecreasing `now` order (the
    /// discrete-event loop guarantees this).
    ///
    /// # Panics
    /// Panics if a cluster index is out of range.
    pub fn transfer(
        &mut self,
        now: SimTime,
        kind: TxnKind,
        src: Endpoint,
        dst: Endpoint,
        bytes: usize,
    ) -> SimTime {
        if let Endpoint::Cluster(i) = src {
            assert!(
                i < self.config().n_clusters(),
                "source cluster out of range"
            );
        }
        if let Endpoint::Cluster(i) = dst {
            assert!(
                i < self.config().n_clusters(),
                "destination cluster out of range"
            );
        }

        match kind {
            TxnKind::Write => {
                // Payload src -> dst, then (optionally) 1-beat response back.
                // Data leaving the HBM pays the controller (DRAM read) first.
                let t0 = if src == Endpoint::Hbm {
                    self.hbm_service(now, bytes)
                } else {
                    now
                };
                let (head, mut tail) = self.route_payload(t0, src, dst, bytes);
                if dst == Endpoint::Hbm {
                    tail = self.hbm_service(head, bytes);
                }
                if self.config().model_protocol_overhead {
                    let (_, resp_tail) = self.route_payload(tail, dst, src, 1);
                    resp_tail
                } else {
                    tail
                }
            }
            TxnKind::Read => {
                // 1-beat request src -> dst, service at dst, payload back.
                let (req_head, req_tail) = if self.config().model_protocol_overhead {
                    self.route_payload(now, src, dst, 1)
                } else {
                    (now, now)
                };
                let _ = req_head;
                let data_ready = if dst == Endpoint::Hbm {
                    self.hbm_service(req_tail, bytes)
                } else {
                    // Remote L1 read: a couple of cycles of TCDM access.
                    req_tail + self.cycles(2)
                };
                let (_, tail) = self.route_payload(data_ready, dst, src, bytes);
                tail
            }
        }
    }

    /// Latency the transaction would see on an idle network (no state
    /// mutation).
    pub fn zero_load_latency(
        &self,
        kind: TxnKind,
        src: Endpoint,
        dst: Endpoint,
        bytes: usize,
    ) -> SimTime {
        // Cheap clone of reservation state is avoided by computing on a
        // scratch copy of just the link clocks: we re-run the walk on a
        // throwaway clone. Topologies are small (≤ ~1300 links).
        let mut scratch = Noc {
            topo: self.topo.clone(),
            links: vec![LinkState::default(); self.links.len()],
            hbm_ctrl: LinkState::default(),
        };
        scratch.transfer(SimTime::ZERO, kind, src, dst, bytes)
    }

    /// Usage statistics of one link.
    ///
    /// # Panics
    /// Panics if the link does not exist in this topology.
    pub fn link_stats(&self, id: LinkId) -> LinkStats {
        let s = match id {
            LinkId::HbmCtrl => &self.hbm_ctrl,
            _ => &self.links[self.topo.link_index(id)],
        };
        LinkStats {
            busy: SimTime::from_ps(s.busy_ps),
            transactions: s.transactions,
            bytes: s.bytes,
        }
    }

    /// Total busy time of the HBM controller — the contention signal behind
    /// the residual-placement experiment (Fig. 5C→5D).
    pub fn hbm_busy(&self) -> SimTime {
        SimTime::from_ps(self.hbm_ctrl.busy_ps)
    }

    /// Total bytes that crossed the HBM controller.
    pub fn hbm_bytes(&self) -> u64 {
        self.hbm_ctrl.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fabric;

    fn paper() -> Noc {
        Noc::new(NocConfig::paper_512())
    }

    #[test]
    fn neighbor_write_zero_load() {
        let noc = paper();
        // cluster0 -> cluster1: up through L1 router, down. 64 B = 1 beat.
        // up: latency 4 cyc; down: latency 4 cyc; +1 beat tail; +response.
        let t = noc.zero_load_latency(
            TxnKind::Write,
            Endpoint::Cluster(0),
            Endpoint::Cluster(1),
            64,
        );
        // Payload head: 4+4 = 8 cycles, tail +1; response 1 beat: +8+1.
        assert_eq!(t, SimTime::from_ns(18));
    }

    #[test]
    fn latency_grows_with_tree_distance() {
        let noc = paper();
        let near = noc.zero_load_latency(
            TxnKind::Write,
            Endpoint::Cluster(0),
            Endpoint::Cluster(1),
            256,
        );
        let mid = noc.zero_load_latency(
            TxnKind::Write,
            Endpoint::Cluster(0),
            Endpoint::Cluster(5),
            256,
        );
        let far = noc.zero_load_latency(
            TxnKind::Write,
            Endpoint::Cluster(0),
            Endpoint::Cluster(400),
            256,
        );
        assert!(near < mid, "{near} !< {mid}");
        assert!(mid < far, "{mid} !< {far}");
    }

    #[test]
    fn hbm_read_includes_controller_latency() {
        let noc = paper();
        let t = noc.zero_load_latency(TxnKind::Read, Endpoint::Cluster(0), Endpoint::Hbm, 64);
        // Must at least include the 100-cycle pipe + row overhead + 4 levels
        // up and down.
        assert!(t >= SimTime::from_ns(100 + 24 + 16));
    }

    #[test]
    fn contention_serializes_same_link() {
        let mut noc = paper();
        let bytes = 64 * 100; // 100 beats => 100 cycles occupancy per link
        let t1 = noc.transfer(
            SimTime::ZERO,
            TxnKind::Write,
            Endpoint::Cluster(0),
            Endpoint::Cluster(1),
            bytes,
        );
        // Same source link, injected at the same instant: must queue.
        let t2 = noc.transfer(
            SimTime::ZERO,
            TxnKind::Write,
            Endpoint::Cluster(0),
            Endpoint::Cluster(1),
            bytes,
        );
        assert!(t2 >= t1 + SimTime::from_ns(100), "t1={t1} t2={t2}");
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut noc = paper();
        let bytes = 64 * 50;
        let t1 = noc.transfer(
            SimTime::ZERO,
            TxnKind::Write,
            Endpoint::Cluster(0),
            Endpoint::Cluster(1),
            bytes,
        );
        let t2 = noc.transfer(
            SimTime::ZERO,
            TxnKind::Write,
            Endpoint::Cluster(8),
            Endpoint::Cluster(9),
            bytes,
        );
        assert_eq!(t1, t2, "independent subtrees must not contend");
    }

    #[test]
    fn hbm_contention_accumulates() {
        let mut noc = paper();
        let mut last = SimTime::ZERO;
        for i in 0..32 {
            let t = noc.transfer(
                SimTime::ZERO,
                TxnKind::Write,
                Endpoint::Cluster(i * 16),
                Endpoint::Hbm,
                256,
            );
            assert!(
                t >= last,
                "HBM completions must be nondecreasing under contention"
            );
            last = t;
        }
        // 32 bursts × (24 + 4) cycles occupancy = 896 cycles of controller busy.
        assert_eq!(noc.hbm_busy(), SimTime::from_ns(32 * 28));
        assert_eq!(noc.hbm_bytes(), 32 * 256);
    }

    #[test]
    fn completion_never_beats_zero_load() {
        let mut noc = paper();
        for i in 0..20 {
            let src = Endpoint::Cluster(i * 7 % 512);
            let dst = Endpoint::Cluster((i * 13 + 5) % 512);
            let zl = noc.zero_load_latency(TxnKind::Write, src, dst, 512);
            let t0 = SimTime::from_ns(i as u64);
            let done = noc.transfer(t0, TxnKind::Write, src, dst, 512);
            assert!(done >= t0 + zl.saturating_sub(SimTime::ZERO));
        }
    }

    #[test]
    fn link_stats_track_traffic() {
        let mut noc = paper();
        noc.transfer(
            SimTime::ZERO,
            TxnKind::Write,
            Endpoint::Cluster(0),
            Endpoint::Cluster(1),
            640,
        );
        let up = noc.link_stats(LinkId::Up { level: 1, child: 0 });
        assert_eq!(up.transactions, 1);
        assert_eq!(up.bytes, 640);
        assert_eq!(up.busy, SimTime::from_ns(10)); // 10 beats
        let down = noc.link_stats(LinkId::Down { level: 1, child: 1 });
        assert_eq!(down.transactions, 1);
        // Response travels the reverse direction.
        let resp_down = noc.link_stats(LinkId::Down { level: 1, child: 0 });
        assert_eq!(resp_down.transactions, 1);
        assert_eq!(resp_down.bytes, 1);
    }

    #[test]
    fn reads_round_trip() {
        let noc = paper();
        let w = noc.zero_load_latency(
            TxnKind::Write,
            Endpoint::Cluster(0),
            Endpoint::Cluster(100),
            256,
        );
        let r = noc.zero_load_latency(
            TxnKind::Read,
            Endpoint::Cluster(0),
            Endpoint::Cluster(100),
            256,
        );
        assert!(
            r > w,
            "read {r} must exceed write {w} (request + data return)"
        );
    }

    #[test]
    fn small_topology_works() {
        let mut noc = Noc::new(NocConfig::small(2, 2));
        assert_eq!(noc.config().n_clusters(), 4);
        let t = noc.transfer(
            SimTime::ZERO,
            TxnKind::Write,
            Endpoint::Cluster(0),
            Endpoint::Cluster(3),
            64,
        );
        assert!(t > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_cluster_index() {
        let mut noc = Noc::new(NocConfig::small(2, 2));
        noc.transfer(
            SimTime::ZERO,
            TxnKind::Write,
            Endpoint::Cluster(4),
            Endpoint::Cluster(0),
            64,
        );
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut noc = paper();
            let mut acc = Vec::new();
            for i in 0..50u64 {
                let t = noc.transfer(
                    SimTime::from_ns(i),
                    TxnKind::Write,
                    Endpoint::Cluster((i as usize * 31) % 512),
                    Endpoint::Cluster((i as usize * 17 + 3) % 512),
                    (i as usize % 7 + 1) * 64,
                );
                acc.push(t);
            }
            acc
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn contended_transfers_stay_within_one_router_latency_of_oracle() {
        // Two bursts converging on one destination from different quadrants.
        // The engines may legitimately order the contended link differently
        // (physical arrival vs reservation order), but each completion stays
        // within one router traversal of the oracle.
        let cfg = NocConfig::small(4, 8);
        let router_lat = cfg
            .frequency
            .cycles_to_time(Cycles(*cfg.router_latency_cycles.iter().max().unwrap()));
        let streams = [
            (Endpoint::Cluster(0), 256usize),
            (Endpoint::Cluster(17), 256),
        ];
        let dst = Endpoint::Cluster(5);
        let mut noc = Noc::new(cfg.clone());
        let mut expect: Vec<SimTime> = streams
            .iter()
            .map(|&(s, b)| noc.transfer(SimTime::ZERO, TxnKind::Write, s, dst, b))
            .collect();
        let mut fab = Fabric::new(cfg);
        for (i, &(s, b)) in streams.iter().enumerate() {
            fab.inject(SimTime::ZERO, TxnKind::Write, s, dst, b, i as u64);
        }
        let mut done: Vec<SimTime> = fab.advance_all().into_iter().map(|(t, _)| t).collect();
        expect.sort();
        done.sort();
        for (e, d) in expect.iter().zip(&done) {
            let diff = if e > d {
                e.saturating_sub(*d)
            } else {
                d.saturating_sub(*e)
            };
            assert!(
                diff <= router_lat,
                "fabric {d} vs reservation {e}: diff {diff} > router latency {router_lat}"
            );
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Zero-load latency is monotone in payload size and never below the
            /// pure router-latency floor.
            #[test]
            fn zero_load_monotone_in_bytes(
                src in 0usize..512,
                dst in 0usize..512,
                bytes in 1usize..100_000,
            ) {
                let noc = Noc::new(NocConfig::paper_512());
                let a = noc.zero_load_latency(TxnKind::Write, Endpoint::Cluster(src), Endpoint::Cluster(dst), bytes);
                let b = noc.zero_load_latency(TxnKind::Write, Endpoint::Cluster(src), Endpoint::Cluster(dst), bytes * 2);
                prop_assert!(b >= a, "{b} < {a}");
                prop_assert!(a >= SimTime::from_ns(8), "two L1 hops minimum");
            }

            /// Completion times under load are never earlier than zero-load, and
            /// repeated transfers on one path are nondecreasing in completion.
            #[test]
            fn loaded_never_beats_zero_load(
                pairs in prop::collection::vec((0usize..512, 0usize..512, 64usize..8192), 1..40),
            ) {
                let mut noc = Noc::new(NocConfig::paper_512());
                let zl_noc = Noc::new(NocConfig::paper_512());
                let mut t = 0u64;
                for (src, dst, bytes) in pairs {
                    if src == dst { continue; }
                    t += 10;
                    let now = SimTime::from_ns(t);
                    let zl = zl_noc.zero_load_latency(TxnKind::Write, Endpoint::Cluster(src), Endpoint::Cluster(dst), bytes);
                    let done = noc.transfer(now, TxnKind::Write, Endpoint::Cluster(src), Endpoint::Cluster(dst), bytes);
                    prop_assert!(done >= now + zl.saturating_sub(SimTime::ZERO) || done >= now,
                        "completion {done} earlier than zero-load {zl} from {now}");
                    prop_assert!(done >= now);
                }
            }

            /// HBM accounting: bytes through the controller equal the sum of
            /// injected HBM payloads; busy time is at least bytes/width cycles.
            #[test]
            fn hbm_accounting_is_conservative(
                sizes in prop::collection::vec(1usize..4096, 1..30),
            ) {
                let mut noc = Noc::new(NocConfig::paper_512());
                let mut t = 0u64;
                let mut total = 0u64;
                for (i, bytes) in sizes.iter().enumerate() {
                    t += 100;
                    noc.transfer(
                        SimTime::from_ns(t),
                        TxnKind::Write,
                        Endpoint::Cluster(i % 512),
                        Endpoint::Hbm,
                        *bytes,
                    );
                    total += *bytes as u64;
                }
                prop_assert_eq!(noc.hbm_bytes(), total);
                let min_busy_cycles = total.div_ceil(64);
                prop_assert!(noc.hbm_busy() >= SimTime::from_ns(min_busy_cycles));
            }

            /// Oracle bound, contention-free: a lone transfer's fabric completion
            /// time equals the reservation engine's exactly — for random endpoint
            /// pairs, sizes and directions.
            #[test]
            fn lone_transfers_match_reservation_oracle(
                src in 0usize..32,
                dst in 0usize..32,
                to_hbm in any::<bool>(),
                bytes in 1usize..10_000,
                is_read in any::<bool>(),
            ) {
                let cfg = NocConfig::small(4, 8);
                let kind = if is_read { TxnKind::Read } else { TxnKind::Write };
                let s = Endpoint::Cluster(src);
                let d = if to_hbm { Endpoint::Hbm } else { Endpoint::Cluster(dst) };
                let mut noc = Noc::new(cfg.clone());
                let expect = noc.transfer(SimTime::ZERO, kind, s, d, bytes);
                let mut fab = Fabric::new(cfg);
                fab.inject(SimTime::ZERO, kind, s, d, bytes, 7);
                let done = fab.advance_all();
                prop_assert_eq!(done.len(), 1);
                prop_assert_eq!(done[0], (expect, 7));
            }
        }
    }
}
