//! Hop-by-hop transfer engine: in-flight messages flying down explicit
//! [`Route`](crate::Route)s one event at a time.
//!
//! ## Relationship to the reservation oracle
//!
//! The crate's tests keep a reservation engine (`Noc`) that reserves every
//! link of a route analytically the instant a transaction is injected —
//! O(hops), no internal events, but it serializes contended links in
//! *injection* order. The [`Fabric`] instead advances a message hop by hop:
//! the burst head arrives at a link, joins that link's FIFO, begins service
//! when the link frees up, and reaches the next hop a router latency later
//! (virtual cut-through). Contended links therefore serialize in *physical
//! arrival* order.
//!
//! Both engines share one routing and timing model ([`crate::Topology`]
//! plus the HBM controller server), so:
//!
//! * on contention-free routes, and whenever contenders reach a shared link
//!   in injection order (e.g. serialized streams between one source and one
//!   destination), completion times are **bit-identical**;
//! * when the engines order two contenders differently — the reservation
//!   engine books a link for a transaction whose head is still several hops
//!   away — each inverted pair diverges by at most the arrival skew plus one
//!   burst occupancy, which for the paper's single-beat control traffic is
//!   within one router latency.
//!
//! Tests in this crate pin both properties, keeping the cheap reservation
//! engine an honest oracle for the event-driven one.
//!
//! ## Determinism
//!
//! Events are drained from an [`OrderedEventQueue`] in `(time, key)` order,
//! where the key packs an event into one `u64`: a variant bit, so that
//! link-free events sort before arrivals, then the link, then the message
//! id. Message ids are assigned in injection order and never reused, so the
//! fabric's pop order is a pure function of its set of pending
//! `(time, event)` pairs. Two runs that inject the same transactions in the
//! same order therefore produce bit-identical completions and link
//! statistics, however the caller slices the run into
//! [`Fabric::next_completion_before`] calls.
//!
//! Only messages in flight are stored. They sit in a power-of-two ring
//! indexed by `id & (len - 1)` that starts at the oldest undelivered id and
//! doubles when the span up to the newest id fills it, so the table is
//! sized by that span, not by the run's length. A delivered message's hop
//! list goes back to a pool for later injections, so hop lists number the
//! most messages ever in flight. The key holds 32 bits of message id, so
//! [`Fabric::inject`] panics on a transaction past the 2^32nd rather than
//! let ids wrap.
//!
//! Only events that can change state are queued. Every link hop costs one
//! arrival. A link's release is queued only while a burst waits on it,
//! keyed by the link's free time, and starts that burst's service. A lone
//! transfer therefore costs one event per link hop, and contention adds
//! one release per burst that waited.

use crate::config::NocConfig;
use crate::network::{Endpoint, LinkId, TxnKind};
use crate::topology::Topology;
use aimc_sim::{Cycles, EventKey, OrderedEventQueue, SimTime};
use std::collections::VecDeque;

/// One step of an in-flight message: either a (possibly queued) link
/// crossing, or a pure service delay with no bandwidth contention.
#[derive(Debug, Clone, Copy)]
struct MsgHop {
    /// Dense link index (`Topology` order; `n_links` = the HBM controller),
    /// or `None` for a pure delay (remote TCDM access service).
    link: Option<u32>,
    /// Payload bytes this leg carries (for occupancy and statistics).
    bytes: usize,
    /// Time the link is occupied serving the burst.
    occ: SimTime,
    /// Head-of-burst delay from service start to the next hop.
    lat: SimTime,
    /// If set, the *tail* (service start + latency + occupancy) propagates
    /// to the next hop instead of the head — used on the last hop of a
    /// payload leg, where the consumer needs the full burst.
    tail_to_next: bool,
}

/// One slot of the message ring. A message in flight has hops left to
/// cross; a delivered one has handed its hop list back to the pool, so an
/// empty list marks a free slot.
#[derive(Debug, Default)]
struct Msg {
    hops: Vec<MsgHop>,
    next: usize,
    tag: u64,
}

/// The message ring's first size.
const MIN_RING: usize = 16;

#[derive(Debug, Clone, Default)]
struct FabLink {
    free_at: SimTime,
    busy_ps: u64,
    bytes: u64,
    transactions: u64,
    waiting: VecDeque<u32>,
    queued: u32,
    peak_queued: u32,
}

/// Fabric events. Variant order matters: at equal times a link must free
/// *before* new arrivals join its FIFO, so a queued burst starts at exactly
/// the instant the link becomes available. The key keeps this derived
/// order: variant in bit 63, link in bits 32..63, message id in bits 0..32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FabEv {
    /// A link finished serving a burst and the head of its FIFO starts.
    /// Queued only while a burst waits: exactly when the link is busy and
    /// its FIFO is not empty, so every release starts a service.
    Free { link: u32 },
    /// A message head arrived at `link` and joins its FIFO.
    Arrive { link: u32, msg: u32 },
}

/// Links the key's 31-bit link field can name.
const MAX_LINKS: usize = 1 << 31;

impl EventKey for FabEv {
    #[inline]
    fn key(self) -> u64 {
        match self {
            FabEv::Free { link } => u64::from(link) << 32,
            FabEv::Arrive { link, msg } => 1 << 63 | u64::from(link) << 32 | u64::from(msg),
        }
    }

    #[inline]
    fn from_key(key: u64) -> Self {
        let link = (key >> 32) as u32 & (MAX_LINKS - 1) as u32;
        if key >> 63 == 0 {
            FabEv::Free { link }
        } else {
            FabEv::Arrive {
                link,
                msg: key as u32,
            }
        }
    }
}

/// Usage snapshot of one directed link (or the HBM controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkReport {
    /// Which link this row describes.
    pub id: LinkId,
    /// Total time the link was occupied by payloads.
    pub busy: SimTime,
    /// Total payload bytes carried.
    pub bytes: u64,
    /// Bursts served.
    pub transactions: u64,
    /// Peak demand: the maximum number of bursts simultaneously queued on
    /// the link, including the one about to enter service.
    pub peak_queued: u32,
}

/// Per-link utilization and conservation totals of one fabric run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FabricReport {
    /// One row per directed link in dense topology order, then the HBM
    /// controller last.
    pub links: Vec<LinkReport>,
    /// Transactions injected.
    pub injected: u64,
    /// Transactions fully delivered.
    pub completed: u64,
    /// Bytes the injected transactions were routed across: the sum over
    /// every link hop of its leg payload. Equals [`Self::link_bytes`] once
    /// the fabric has drained — each booked hop was served exactly once.
    pub routed_bytes: u64,
    /// Bytes actually served, summed over all links.
    pub link_bytes: u64,
    /// Fabric events processed, a measure of host cost rather than of the
    /// modeled platform: one arrival per link hop, plus one release per
    /// burst that waited for a busy link.
    pub events: u64,
}

impl FabricReport {
    /// The row for `id`, if that link exists in the topology.
    pub fn link(&self, id: LinkId) -> Option<&LinkReport> {
        self.links.iter().find(|l| l.id == id)
    }

    /// Aggregate busy time of all tree links at `level` (1-based).
    pub fn level_busy(&self, level: usize) -> SimTime {
        let ps: u64 = self
            .links
            .iter()
            .filter(|l| matches!(l.id, LinkId::Up { level: lv, .. } | LinkId::Down { level: lv, .. } if lv == level))
            .map(|l| l.busy.as_ps())
            .sum();
        SimTime::from_ps(ps)
    }

    /// Aggregate bytes over all tree links at `level` (1-based).
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.links
            .iter()
            .filter(|l| matches!(l.id, LinkId::Up { level: lv, .. } | LinkId::Down { level: lv, .. } if lv == level))
            .map(|l| l.bytes)
            .sum()
    }

    /// The `n` busiest links, descending by busy time (ties keep dense
    /// topology order, so the result is deterministic).
    pub fn hottest(&self, n: usize) -> Vec<&LinkReport> {
        let mut rows: Vec<&LinkReport> = self.links.iter().filter(|l| l.transactions > 0).collect();
        rows.sort_by_key(|l| std::cmp::Reverse(l.busy));
        rows.truncate(n);
        rows
    }
}

/// The event-driven hop-by-hop interconnect engine.
///
/// Transactions enter with [`Fabric::inject`] (in nondecreasing time order)
/// and complete asynchronously; [`Fabric::next_completion_before`] runs the
/// event loop up to a horizon and hands back one `(completion_time, tag)`
/// pair at a time, which is what lets a windowed event loop overlap NoC
/// flight time with compute events and stop at the first completion that
/// matters to it.
///
/// # Examples
/// ```
/// use aimc_noc::{Endpoint, Fabric, NocConfig, TxnKind};
/// use aimc_sim::SimTime;
/// let mut fab = Fabric::new(NocConfig::paper_512());
/// fab.inject(SimTime::ZERO, TxnKind::Write, Endpoint::Cluster(0), Endpoint::Cluster(1), 256, 7);
/// let done = fab.advance_all();
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].1, 7);
/// assert!(done[0].0 > SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct Fabric {
    topo: Topology,
    /// Dense tree + HBM channel links, plus the controller at index
    /// `topo.n_links()`.
    links: Vec<FabLink>,
    /// The message ring: message `id` sits at `id & (msgs.len() - 1)`, and
    /// ids `oldest..injected` always fit.
    msgs: Vec<Msg>,
    /// Emptied hop lists of delivered messages, for injections to reuse.
    hop_pool: Vec<Vec<MsgHop>>,
    /// The oldest undelivered message id, where the ring starts.
    oldest: u64,
    /// Transactions injected so far, which is also the next message id.
    injected: u64,
    queue: OrderedEventQueue<FabEv>,
    completed: u64,
    routed_bytes: u64,
    events: u64,
}

impl Fabric {
    /// Builds the fabric for `cfg`.
    ///
    /// # Panics
    /// Panics if the configuration fails [`NocConfig::validate`], or has
    /// more links than the event key's 31-bit link field can name.
    pub fn new(cfg: NocConfig) -> Self {
        let topo = Topology::new(cfg);
        assert!(
            topo.n_links() < MAX_LINKS,
            "{} links overflow the fabric's 31-bit event-key link field",
            topo.n_links() + 1
        );
        let links = vec![FabLink::default(); topo.n_links() + 1];
        Fabric {
            topo,
            links,
            msgs: Vec::new(),
            hop_pool: Vec::new(),
            oldest: 0,
            injected: 0,
            queue: OrderedEventQueue::new(),
            completed: 0,
            routed_bytes: 0,
            events: 0,
        }
    }

    /// The topology the fabric routes over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    fn ctrl_index(&self) -> usize {
        self.topo.n_links()
    }

    fn cycles(&self, n: u64) -> SimTime {
        self.topo.config().frequency.cycles_to_time(Cycles(n))
    }

    /// The HBM controller server: occupies row overhead plus the burst
    /// beats, and makes the data available a full occupancy later
    /// (`latency == occupancy`, as in the reservation oracle).
    fn ctrl_hop(&self, bytes: usize) -> MsgHop {
        let hbm = &self.topo.config().hbm;
        let occ_cycles = hbm.row_overhead_cycles + bytes.max(1).div_ceil(hbm.width_bytes) as u64;
        let occ = self.cycles(occ_cycles);
        MsgHop {
            link: Some(self.ctrl_index() as u32),
            bytes,
            occ,
            lat: occ,
            tail_to_next: false,
        }
    }

    /// Remote L1 read service: a couple of cycles of TCDM access, no
    /// bandwidth contention.
    fn tcdm_hop(&self) -> MsgHop {
        MsgHop {
            link: None,
            bytes: 0,
            occ: SimTime::ZERO,
            lat: self.cycles(2),
            tail_to_next: false,
        }
    }

    /// Appends the link hops of one payload leg. When `tail_last` is set the
    /// leg's final hop propagates the burst tail (head + occupancy);
    /// otherwise the head continues directly into the next hop of the
    /// transaction (a write's HBM-bound payload hands its *head* to the
    /// controller, which then charges the full burst itself).
    fn payload_hops(
        &self,
        out: &mut Vec<MsgHop>,
        from: Endpoint,
        to: Endpoint,
        bytes: usize,
        tail_last: bool,
    ) {
        self.topo.for_each_hop(from, to, |h| {
            out.push(MsgHop {
                link: Some(h.index as u32),
                bytes,
                occ: self.cycles(bytes.max(1).div_ceil(h.width_bytes) as u64),
                lat: self.cycles(h.latency_cycles),
                tail_to_next: false,
            })
        });
        if tail_last {
            out.last_mut().expect("routes are never empty").tail_to_next = true;
        }
    }

    /// Appends the full hop sequence of one transaction to `hops`, mirroring
    /// the leg structure of the reservation oracle's `Noc::transfer` exactly.
    fn build_hops(
        &self,
        hops: &mut Vec<MsgHop>,
        kind: TxnKind,
        src: Endpoint,
        dst: Endpoint,
        bytes: usize,
    ) {
        let protocol = self.topo.config().model_protocol_overhead;
        match kind {
            TxnKind::Write => {
                if src == Endpoint::Hbm {
                    hops.push(self.ctrl_hop(bytes));
                }
                let to_hbm = dst == Endpoint::Hbm;
                self.payload_hops(hops, src, dst, bytes, !to_hbm);
                if to_hbm {
                    hops.push(self.ctrl_hop(bytes));
                }
                if protocol {
                    // 1-beat response back to the initiator.
                    self.payload_hops(hops, dst, src, 1, true);
                }
            }
            TxnKind::Read => {
                if protocol {
                    // 1-beat request to the target.
                    self.payload_hops(hops, src, dst, 1, true);
                }
                if dst == Endpoint::Hbm {
                    hops.push(self.ctrl_hop(bytes));
                } else {
                    hops.push(self.tcdm_hop());
                }
                self.payload_hops(hops, dst, src, bytes, true);
            }
        }
    }

    /// Injects one transaction whose burst enters the network at `t`, to be
    /// reported back as `(completion_time, tag)` by
    /// [`Fabric::next_completion_before`].
    ///
    /// Injections must be in nondecreasing order with respect to already
    /// processed events (`t` may not be earlier than the last horizon the
    /// fabric advanced past).
    ///
    /// # Panics
    /// Panics if a cluster index is out of range, if `t` violates causality,
    /// or on a transaction past the 2^32nd, whose id would not fit the
    /// event key.
    pub fn inject(
        &mut self,
        t: SimTime,
        kind: TxnKind,
        src: Endpoint,
        dst: Endpoint,
        bytes: usize,
        tag: u64,
    ) {
        let id = u32::try_from(self.injected)
            .expect("fabric message ids overflow the event key's 32-bit field");
        if self.injected - self.oldest == self.msgs.len() as u64 {
            self.grow();
        }
        let slot = self.slot(id);
        let mut hops = self.hop_pool.pop().unwrap_or_default();
        self.build_hops(&mut hops, kind, src, dst, bytes);
        self.routed_bytes += hops
            .iter()
            .filter(|h| h.link.is_some())
            .map(|h| h.bytes as u64)
            .sum::<u64>();
        self.msgs[slot] = Msg { hops, next: 0, tag };
        self.injected += 1;
        let done = self.dispatch(id, t);
        debug_assert!(done.is_none(), "every transaction crosses a link");
    }

    /// The ring slot of message `id`.
    #[inline]
    fn slot(&self, id: u32) -> usize {
        id as usize & (self.msgs.len() - 1)
    }

    /// Doubles the message ring, moving each slot of the span
    /// `oldest..oldest + len` to its place in the larger ring.
    fn grow(&mut self) {
        let mut old = std::mem::take(&mut self.msgs);
        let len = (2 * old.len()).max(MIN_RING);
        self.msgs.resize_with(len, Msg::default);
        for id in self.oldest..self.oldest + old.len() as u64 {
            let from = id as usize & (old.len() - 1);
            self.msgs[id as usize & (len - 1)] = std::mem::take(&mut old[from]);
        }
    }

    /// Moves a message from its current hop onward: skips through pure
    /// delays, then either schedules the next link arrival or completes and
    /// returns the completion.
    fn dispatch(&mut self, id: u32, mut t: SimTime) -> Option<(SimTime, u64)> {
        let slot = self.slot(id);
        let msg = &mut self.msgs[slot];
        loop {
            match msg.hops.get(msg.next) {
                None => {
                    // Delivered: the hop list serves a later message.
                    let mut hops = std::mem::take(&mut msg.hops);
                    hops.clear();
                    self.hop_pool.push(hops);
                    let tag = msg.tag;
                    self.completed += 1;
                    if u64::from(id) == self.oldest {
                        self.retire_delivered();
                    }
                    return Some((t, tag));
                }
                Some(&MsgHop {
                    link: Some(link), ..
                }) => {
                    self.queue.push(t, FabEv::Arrive { link, msg: id });
                    return None;
                }
                Some(&MsgHop { lat, .. }) => {
                    t += lat;
                    msg.next += 1;
                }
            }
        }
    }

    /// Moves the ring's start past delivered messages.
    fn retire_delivered(&mut self) {
        while self.oldest < self.injected
            && self.msgs[self.slot(self.oldest as u32)].hops.is_empty()
        {
            self.oldest += 1;
        }
    }

    /// Starts serving the head of `link`'s FIFO at `now`, if any, and queues
    /// the link's release if bursts still wait behind it. Returns the
    /// message's completion if that was its last hop.
    fn start_service(&mut self, link: usize, now: SimTime) -> Option<(SimTime, u64)> {
        let id = self.links[link].waiting.pop_front()?;
        let slot = self.slot(id);
        let hop = self.msgs[slot].hops[self.msgs[slot].next];
        let l = &mut self.links[link];
        l.queued -= 1;
        l.busy_ps += hop.occ.as_ps();
        l.bytes += hop.bytes as u64;
        l.transactions += 1;
        l.free_at = now + hop.occ;
        if !l.waiting.is_empty() {
            self.queue
                .push(l.free_at, FabEv::Free { link: link as u32 });
        }
        let depart = if hop.tail_to_next {
            now + hop.lat + hop.occ
        } else {
            now + hop.lat
        };
        self.msgs[slot].next += 1;
        self.dispatch(id, depart)
    }

    /// Processes one event; returns the transaction it completed, if any.
    fn handle(&mut self, t: SimTime, ev: FabEv) -> Option<(SimTime, u64)> {
        self.events += 1;
        match ev {
            FabEv::Free { link } => {
                let link = link as usize;
                debug_assert!(
                    !self.links[link].waiting.is_empty() && self.links[link].free_at == t,
                    "a release is queued only while a burst waits"
                );
                self.start_service(link, t)
            }
            FabEv::Arrive { link, msg } => {
                let li = link as usize;
                let l = &mut self.links[li];
                l.queued += 1;
                l.peak_queued = l.peak_queued.max(l.queued);
                l.waiting.push_back(msg);
                if l.free_at <= t {
                    return self.start_service(li, t);
                }
                if l.waiting.len() == 1 {
                    // The first burst to wait on the busy link queues its
                    // release.
                    self.queue.push(l.free_at, FabEv::Free { link });
                }
                None
            }
        }
    }

    /// Runs events strictly before `horizon` until one of them completes a
    /// transaction, and returns that completion as `(time, tag)`; `None`
    /// once no event before `horizon` is left. Completions come back in
    /// deterministic event order. A completion's time can lie at or past
    /// `horizon`: the event that starts a burst's last hop is before it, the
    /// burst's arrival need not be.
    pub fn next_completion_before(&mut self, horizon: SimTime) -> Option<(SimTime, u64)> {
        while let Some((t, ev)) = self.queue.pop_before(horizon) {
            if let Some(done) = self.handle(t, ev) {
                return Some(done);
            }
        }
        None
    }

    /// Drains every remaining event and returns the completions.
    pub fn advance_all(&mut self) -> Vec<(SimTime, u64)> {
        std::iter::from_fn(|| self.next_completion_before(SimTime::MAX)).collect()
    }

    /// Whether every injected transaction has been delivered.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Transactions injected so far.
    pub fn transactions(&self) -> u64 {
        self.injected
    }

    /// Total busy time of the HBM controller.
    pub fn hbm_busy(&self) -> SimTime {
        SimTime::from_ps(self.links[self.ctrl_index()].busy_ps)
    }

    /// Total bytes that crossed the HBM controller.
    pub fn hbm_bytes(&self) -> u64 {
        self.links[self.ctrl_index()].bytes
    }

    /// Per-link utilization, peak demand and conservation totals.
    pub fn report(&self) -> FabricReport {
        let ctrl = self.ctrl_index();
        let links = (0..=ctrl)
            .map(|i| {
                let id = if i == ctrl {
                    LinkId::HbmCtrl
                } else {
                    self.topo.link_id(i)
                };
                let l = &self.links[i];
                LinkReport {
                    id,
                    busy: SimTime::from_ps(l.busy_ps),
                    bytes: l.bytes,
                    transactions: l.transactions,
                    peak_queued: l.peak_queued,
                }
            })
            .collect();
        FabricReport {
            links,
            injected: self.injected,
            completed: self.completed,
            routed_bytes: self.routed_bytes,
            link_bytes: self.links.iter().map(|l| l.bytes).sum(),
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Noc;

    fn pairs() -> Vec<(TxnKind, Endpoint, Endpoint, usize)> {
        use Endpoint::*;
        vec![
            (TxnKind::Write, Cluster(0), Cluster(1), 64),
            (TxnKind::Write, Cluster(0), Cluster(1), 640),
            (TxnKind::Write, Cluster(0), Cluster(400), 256),
            (TxnKind::Write, Cluster(5), Cluster(5), 64),
            (TxnKind::Write, Cluster(3), Hbm, 4096),
            (TxnKind::Write, Hbm, Cluster(7), 4096),
            (TxnKind::Read, Cluster(0), Hbm, 64),
            (TxnKind::Read, Cluster(0), Cluster(100), 256),
            (TxnKind::Read, Cluster(511), Hbm, 1),
        ]
    }

    #[test]
    fn contention_free_matches_reservation_exactly() {
        for protocol in [true, false] {
            for (kind, src, dst, bytes) in pairs() {
                let mut cfg = NocConfig::paper_512();
                cfg.model_protocol_overhead = protocol;
                let mut noc = Noc::new(cfg.clone());
                let mut fab = Fabric::new(cfg);
                let t0 = SimTime::from_ns(11);
                let expect = noc.transfer(t0, kind, src, dst, bytes);
                fab.inject(t0, kind, src, dst, bytes, 42);
                let done = fab.advance_all();
                assert_eq!(
                    done,
                    vec![(expect, 42)],
                    "{kind:?} {src} -> {dst} ({bytes} B, protocol={protocol})"
                );
                assert!(fab.is_idle());
            }
        }
    }

    #[test]
    fn serialized_stream_matches_reservation_exactly() {
        // Back-to-back bursts between one source and one destination reach
        // every shared link in injection order, so the FIFO discipline and
        // the reservation discipline agree bit for bit.
        let mut noc = Noc::new(NocConfig::paper_512());
        let mut fab = Fabric::new(NocConfig::paper_512());
        let mut expected = Vec::new();
        for i in 0..10u64 {
            let t = SimTime::from_ns(2 * i);
            let bytes = 64 * 100; // 100-beat bursts guarantee overlap
            expected.push((
                noc.transfer(
                    t,
                    TxnKind::Write,
                    Endpoint::Cluster(0),
                    Endpoint::Cluster(9),
                    bytes,
                ),
                i,
            ));
            fab.inject(
                t,
                TxnKind::Write,
                Endpoint::Cluster(0),
                Endpoint::Cluster(9),
                bytes,
                i,
            );
        }
        let mut done = fab.advance_all();
        done.sort_by_key(|&(_, tag)| tag);
        expected.sort_by_key(|&(_, tag)| tag);
        assert_eq!(done, expected);
    }

    #[test]
    fn hbm_stream_matches_reservation_exactly() {
        let mut noc = Noc::new(NocConfig::paper_512());
        let mut fab = Fabric::new(NocConfig::paper_512());
        let mut expected = Vec::new();
        for i in 0..8u64 {
            let t = SimTime::from_ns(5 * i);
            expected.push((
                noc.transfer(
                    t,
                    TxnKind::Write,
                    Endpoint::Cluster(16),
                    Endpoint::Hbm,
                    2048,
                ),
                i,
            ));
            fab.inject(
                t,
                TxnKind::Write,
                Endpoint::Cluster(16),
                Endpoint::Hbm,
                2048,
                i,
            );
        }
        let mut done = fab.advance_all();
        done.sort_by_key(|&(_, tag)| tag);
        assert_eq!(done, expected);
        assert_eq!(fab.hbm_busy(), noc.hbm_busy());
        assert_eq!(fab.hbm_bytes(), noc.hbm_bytes());
    }

    #[test]
    fn equal_depth_contention_matches_reservation_exactly() {
        // Clusters 0 and 4 converge on cluster 8's down links after the
        // same number of hops, so physical arrival order equals injection
        // order and the engines stay bit-identical even under contention.
        let mut noc = Noc::new(NocConfig::paper_512());
        let mut fab = Fabric::new(NocConfig::paper_512());
        let mut expected = Vec::new();
        for (i, src) in [0usize, 4, 0, 4, 0, 4].iter().enumerate() {
            let t = SimTime::from_ns(i as u64);
            expected.push((
                noc.transfer(
                    t,
                    TxnKind::Write,
                    Endpoint::Cluster(*src),
                    Endpoint::Cluster(8),
                    64 * 20,
                ),
                i as u64,
            ));
            fab.inject(
                t,
                TxnKind::Write,
                Endpoint::Cluster(*src),
                Endpoint::Cluster(8),
                64 * 20,
                i as u64,
            );
        }
        let mut done = fab.advance_all();
        done.sort_by_key(|&(_, tag)| tag);
        assert_eq!(done, expected);
    }

    #[test]
    fn inverted_contention_diverges_by_at_most_one_router_latency() {
        // Cluster 1 starts 4 hops from cluster 4's L1 down link; cluster 5
        // only 2. Injecting the far burst first makes the reservation engine
        // book the shared link in injection order even though the near burst
        // physically arrives first. With single-beat payloads the inversion
        // penalty (arrival skew + one occupancy) stays within one router
        // latency — the fidelity bound the reservation engine documents.
        let cfg = NocConfig::paper_512();
        let router_latency = cfg
            .frequency
            .cycles_to_time(Cycles(cfg.router_latency_cycles[0]));
        let mut noc = Noc::new(cfg.clone());
        let mut fab = Fabric::new(cfg);
        // Far: c1 -> c4 (up1, up2, down2, down1). Near: c5 -> c4 (up1, down1).
        // Far head reaches down1(4) at t0 + 12 cycles; near at t_near + 4.
        // t_near = t0 + 7 cycles puts the near arrival 1 cycle early.
        let t0 = SimTime::ZERO;
        let t_near = SimTime::from_ns(7);
        let r_far = noc.transfer(
            t0,
            TxnKind::Write,
            Endpoint::Cluster(1),
            Endpoint::Cluster(4),
            64,
        );
        let r_near = noc.transfer(
            t_near,
            TxnKind::Write,
            Endpoint::Cluster(5),
            Endpoint::Cluster(4),
            64,
        );
        fab.inject(
            t0,
            TxnKind::Write,
            Endpoint::Cluster(1),
            Endpoint::Cluster(4),
            64,
            0,
        );
        fab.inject(
            t_near,
            TxnKind::Write,
            Endpoint::Cluster(5),
            Endpoint::Cluster(4),
            64,
            1,
        );
        let mut done = fab.advance_all();
        done.sort_by_key(|&(_, tag)| tag);
        let diff = |a: SimTime, b: SimTime| {
            if a > b {
                a.saturating_sub(b)
            } else {
                b.saturating_sub(a)
            }
        };
        assert!(
            diff(done[0].0, r_far) <= router_latency,
            "far burst diverged by {} (> {router_latency})",
            diff(done[0].0, r_far)
        );
        assert!(
            diff(done[1].0, r_near) <= router_latency,
            "near burst diverged by {} (> {router_latency})",
            diff(done[1].0, r_near)
        );
        // And the divergence is real: the engines did order the pair
        // differently, so at least one completion moved.
        assert!(done[0].0 != r_far || done[1].0 != r_near);
    }

    #[test]
    fn link_bytes_conserve_routed_bytes() {
        let mut fab = Fabric::new(NocConfig::paper_512());
        for i in 0..40u64 {
            let src = Endpoint::Cluster((i as usize * 31) % 512);
            let dst = if i % 5 == 0 {
                Endpoint::Hbm
            } else {
                Endpoint::Cluster((i as usize * 17 + 3) % 512)
            };
            let kind = if i % 3 == 0 {
                TxnKind::Read
            } else {
                TxnKind::Write
            };
            fab.inject(
                SimTime::from_ns(i),
                kind,
                src,
                dst,
                (i as usize % 9 + 1) * 64,
                i,
            );
        }
        let done = fab.advance_all();
        assert_eq!(done.len(), 40);
        let rep = fab.report();
        assert_eq!(rep.injected, 40);
        assert_eq!(rep.completed, 40);
        assert!(rep.routed_bytes > 0);
        assert_eq!(
            rep.routed_bytes, rep.link_bytes,
            "every booked hop must be served exactly once"
        );
    }

    /// The i-th transfer of a mixed workload: writes and reads between
    /// scattered clusters and to the HBM, of varied sizes.
    fn mixed(i: u64) -> (TxnKind, Endpoint, Endpoint, usize) {
        let kind = if i.is_multiple_of(4) {
            TxnKind::Read
        } else {
            TxnKind::Write
        };
        let src = Endpoint::Cluster((i as usize * 31) % 512);
        let dst = if i.is_multiple_of(6) {
            Endpoint::Hbm
        } else {
            Endpoint::Cluster((i as usize * 13 + 5) % 512)
        };
        (kind, src, dst, (i as usize % 7 + 1) * 64)
    }

    #[test]
    fn message_ring_is_bounded_by_messages_in_flight() {
        // 10,000 transfers, a new one injected only when one completes, so
        // at most 16 are ever in flight; the ring spans the oldest
        // undelivered id to the newest and must stay small. The first
        // transfer is delivered alone, so the ring grows from a start that
        // is not a multiple of its size and must re-place wrapped ids.
        let mut fab = Fabric::new(NocConfig::paper_512());
        let mut next = 0u64;
        let mut inject = |fab: &mut Fabric, t: SimTime| {
            let (kind, src, dst, bytes) = mixed(next);
            fab.inject(t, kind, src, dst, bytes, next);
            next += 1;
        };
        inject(&mut fab, SimTime::ZERO);
        let mut done = fab.advance_all();
        for _ in 0..16 {
            inject(&mut fab, done[0].0);
        }
        let mut peak = 0;
        while let Some((t, tag)) = fab.next_completion_before(SimTime::MAX) {
            done.push((t, tag));
            assert!(fab.transactions() - done.len() as u64 <= 16);
            if fab.transactions() < 10_000 {
                inject(&mut fab, t);
            }
            peak = peak.max(fab.msgs.len());
        }
        assert!(peak <= 64, "ring grew to {peak}");
        assert!(peak > MIN_RING, "the ring never grew");
        // Every transfer completed once, under its own tag.
        let mut tags: Vec<u64> = done.iter().map(|&(_, tag)| tag).collect();
        tags.sort_unstable();
        assert!(tags.into_iter().eq(0..10_000));
        assert!(fab.is_idle());
        let rep = fab.report();
        assert_eq!((rep.injected, rep.completed), (10_000, 10_000));
        assert_eq!(rep.routed_bytes, rep.link_bytes);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// An event from raw draws. A narrow event's link is one of four,
        /// so pairs often share a link and the message-id tie-break is
        /// exercised; a wide one reaches the top bit of the link field.
        fn fab_ev((free, link, msg, narrow): (bool, u32, u32, bool)) -> FabEv {
            let link = if narrow { link % 4 } else { link };
            if free {
                FabEv::Free { link }
            } else {
                FabEv::Arrive { link, msg }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A fabric event's key orders like its derived `Ord` (releases
            /// before arrivals, then link, then message id) and decodes back
            /// to the event.
            #[test]
            fn fab_event_key_matches_derived_order(
                a in (any::<bool>(), 0u32..1 << 31, any::<u32>(), any::<bool>()),
                b in (any::<bool>(), 0u32..1 << 31, any::<u32>(), any::<bool>()),
            ) {
                let (a, b) = (fab_ev(a), fab_ev(b));
                prop_assert_eq!(a.key().cmp(&b.key()), a.cmp(&b));
                prop_assert_eq!(FabEv::from_key(a.key()), a);
                prop_assert_eq!(FabEv::from_key(b.key()), b);
            }

            /// Taking completions one at a time below random horizons, with
            /// each transfer injected just before the horizon that passes
            /// its start, returns exactly what one drain returns.
            #[test]
            fn completions_before_random_horizons_equal_advance_all(
                n in 1u64..60,
                start_step_ns in 0u64..8,
                horizon_steps_ns in proptest::collection::vec(1u64..40, 1..32),
            ) {
                let start = |i: u64| SimTime::from_ns(i * start_step_ns);
                let mut all = Fabric::new(NocConfig::paper_512());
                for i in 0..n {
                    let (kind, src, dst, bytes) = mixed(i);
                    all.inject(start(i), kind, src, dst, bytes, i);
                }
                let drained = all.advance_all();

                let mut sliced = Fabric::new(NocConfig::paper_512());
                let mut got = Vec::new();
                let (mut next, mut horizon) = (0u64, SimTime::ZERO);
                for step in horizon_steps_ns.iter().cycle() {
                    if next == n && sliced.is_idle() {
                        break;
                    }
                    horizon += SimTime::from_ns(*step);
                    while next < n && start(next) < horizon {
                        let (kind, src, dst, bytes) = mixed(next);
                        sliced.inject(start(next), kind, src, dst, bytes, next);
                        next += 1;
                    }
                    while let Some(done) = sliced.next_completion_before(horizon) {
                        got.push(done);
                    }
                }
                prop_assert_eq!(got, drained);
                prop_assert_eq!(sliced.report(), all.report());
            }
        }
    }

    #[test]
    fn peak_queued_tracks_backlog() {
        let mut fab = Fabric::new(NocConfig::paper_512());
        for i in 0..16u64 {
            fab.inject(
                SimTime::ZERO,
                TxnKind::Write,
                Endpoint::Cluster(i as usize * 32),
                Endpoint::Hbm,
                4096,
                i,
            );
        }
        fab.advance_all();
        let rep = fab.report();
        let ctrl = rep.link(LinkId::HbmCtrl).unwrap();
        assert!(
            ctrl.peak_queued > 4,
            "16 concurrent HBM bursts must pile up at the controller (peak {})",
            ctrl.peak_queued
        );
        // A contention-free first-hop link never holds more than one burst.
        let up = rep.link(LinkId::Up { level: 1, child: 0 }).unwrap();
        assert_eq!(up.peak_queued, 1);
        assert_eq!(rep.routed_bytes, rep.link_bytes);
    }

    /// Link hops served: one burst per link (or controller) crossing.
    fn link_hops(rep: &FabricReport) -> u64 {
        rep.links.iter().map(|l| l.transactions).sum()
    }

    #[test]
    fn a_lone_transfer_costs_one_event_per_link_hop() {
        // A 64 B write to the L1 neighbour and its 1-beat response: four
        // link hops, each an arrival at a free link with no release to wait
        // for.
        let mut fab = Fabric::new(NocConfig::paper_512());
        fab.inject(
            SimTime::ZERO,
            TxnKind::Write,
            Endpoint::Cluster(0),
            Endpoint::Cluster(1),
            64,
            0,
        );
        fab.advance_all();
        let rep = fab.report();
        assert_eq!(link_hops(&rep), 4);
        assert_eq!(rep.events, 4);
    }

    #[test]
    fn a_contended_burst_costs_one_release_per_wait() {
        // Sixteen concurrent HBM writes queue on the shared links: every
        // link hop costs its arrival, and a release event is processed only
        // for a burst that waited behind another.
        let mut fab = Fabric::new(NocConfig::paper_512());
        for i in 0..16u64 {
            fab.inject(
                SimTime::ZERO,
                TxnKind::Write,
                Endpoint::Cluster(i as usize * 32),
                Endpoint::Hbm,
                4096,
                i,
            );
        }
        fab.advance_all();
        let rep = fab.report();
        let hops = link_hops(&rep);
        assert_eq!(
            hops,
            16 * 11,
            "5 hops to the memory, 1 at the controller, 5 back"
        );
        assert!(
            hops < rep.events && rep.events < 2 * hops,
            "{} events for {hops} link hops",
            rep.events
        );
    }

    #[test]
    fn hottest_ranks_by_busy_time() {
        let mut fab = Fabric::new(NocConfig::paper_512());
        for i in 0..8u64 {
            fab.inject(
                SimTime::from_ns(i),
                TxnKind::Write,
                Endpoint::Cluster(i as usize * 64),
                Endpoint::Hbm,
                8192,
                i,
            );
        }
        fab.advance_all();
        let rep = fab.report();
        let hot = rep.hottest(3);
        assert_eq!(hot.len(), 3);
        assert_eq!(hot[0].id, LinkId::HbmCtrl, "the DRAM service dominates");
        assert!(hot[0].busy >= hot[1].busy && hot[1].busy >= hot[2].busy);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut fab = Fabric::new(NocConfig::paper_512());
            for i in 0..60u64 {
                let (kind, src, dst, bytes) = mixed(i);
                fab.inject(SimTime::from_ns(i / 2), kind, src, dst, bytes, i);
            }
            (fab.advance_all(), fab.report())
        };
        assert_eq!(run(), run());
    }
}
