//! The fleet router: per-model global request streams over N shard
//! transports, grouped by a spec registry.
//!
//! The paper's architecture scales by *replicating compute* — many
//! identically-configured AIMC clusters behind an interconnect, all
//! serving one workload. [`FleetHandle`] is the host-side counterpart for
//! serving: a two-tier ingress where the router owns the **global stream
//! numbering**, stamps every request with its global index, and forwards
//! it to one of N shards — each a [`ShardTransport`], so whether the
//! replica lives in-process ([`LocalTransport`](crate::LocalTransport)) or
//! behind a wire ([`TcpTransport`](crate::TcpTransport)) is invisible
//! here.
//!
//! ## The registry: heterogeneous fleets
//!
//! Shards need not be identical. At assembly (and on every
//! [`FleetHandle::add_shard`]) the router probes each transport's
//! [`ShardSpec`] — `{model_id, xbar_cfg, seed, input}` — and groups
//! transports by `model_id` into **model groups**. Each group owns its own
//! index allocator and routing cursors, so each model keeps its own
//! bit-identical global stream `0, 1, 2, …`;
//! requests route by model id ([`Request::to`]) and never cross groups.
//! Two transports claiming one model id with different device recipes are
//! refused ([`ServeError::SpecMismatch`]) — they would compute different
//! bits for the same coordinates. A request without a model id targets the
//! first group, so homogeneous fleets behave exactly as before the registry
//! existed.
//!
//! > **Fleet invariance.** Because every request carries its global
//! > coordinate and every replica of its model group holds bit-identical
//! > conductances, the logits of request *k* are bit-identical to a solo
//! > single-session stream of the same images on that model's spec — for
//! > ANY shard count, ANY transport mix, ANY routing block length, and ANY
//! > routing policy, no matter which shard evaluated which request.
//!
//! Each request claims one index from its group's lowest-first allocator.
//! An index whose request never reaches a shard (shed, refused, or failed)
//! is released and re-issued before any fresh index, so the stamped stream
//! is always `0, 1, 2, …` in submission order — the invariance's
//! foundation. Routing is a separate cursor: the policy picks a seat for a
//! **routing block** of [`FleetPolicy::lease_len`] consecutive requests,
//! so a remote shard receives runs of requests and the routing decision is
//! amortized over the block. Block length 1 is exactly the per-request
//! routing of the in-process fleet. Blocks never leave the router: each
//! request carries its own index, so transports keep no block bookkeeping.
//!
//! ## Elasticity
//!
//! The shard set is not fixed for the fleet's lifetime. Each model group
//! holds only the seats it serves; every seat gets an id when it joins,
//! ids only grow and are never reused, and a retired seat leaves its
//! group for good, its counters folded into [`FleetStats::retired`].
//!
//! * **Eviction.** A shard whose transport dies past its replay budget is
//!   *retired*, not mourned: it leaves its group (a block in progress
//!   moves to another seat), its stranded [`Flight`]s are handed back and
//!   re-submitted **at their original coordinates** on survivors, and the
//!   failed submission releases its index and retries on another shard.
//!   The caller observes nothing: the same `Pending` resolves with the
//!   same logits.
//! * **Live join.** [`FleetHandle::add_shard`] programs a fresh replica
//!   from the fleet seed via the control surface, replays the drift
//!   history so its conductances match the incumbents', and enters it
//!   into the routing rotation — where it receives routing blocks like
//!   any other shard.
//!
//! Both directions preserve the invariance because the stream numbering —
//! not the placement — determines every logit.
//!
//! The router never inspects tensors and never blocks on inference: it is
//! a stamp-and-forward layer. Shard-side coalescing, backpressure, and
//! completion plumbing belong to the transports.

use crate::handle::{Flight, Pending, ServeError};
use crate::indices::StreamIndices;
use crate::qos::{AimdPacer, PacerConfig, Priority, QosClass, QosStats, ShedReason};
use crate::transport::ShardTransport;
use aimc_dnn::Tensor;
use aimc_parallel::Parallelism;
use aimc_wire::{ServeStats, ShardSpec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How the router picks the shard that receives each routing block of
/// consecutive requests (with block length 1: each request).
///
/// Routing **never** affects results — that is the fleet invariance — so
/// the policy is purely a load/latency trade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// Cycle through shards block by block: perfectly even request counts,
    /// oblivious to per-shard backlog.
    #[default]
    RoundRobin,
    /// Send each block to the shard with the fewest requests in flight
    /// (ties break toward the lowest shard id): adapts to stragglers at
    /// the cost of one load probe per block.
    LeastQueueDepth,
}

/// How a fleet routes its global stream: the routing policy plus the
/// routing block length (consecutive requests sent to one shard).
///
/// The default (`RoundRobin`, block length 1) routes every request on its
/// own. Longer blocks amortize routing decisions and send remote shards
/// runs of requests; **no setting changes a logit**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetPolicy {
    /// Shard selection per routing block.
    pub route: RoutePolicy,
    /// The routing block length: consecutive requests sent to one shard
    /// before the policy picks again (clamped to ≥ 1). 1 routes every
    /// request independently.
    pub lease_len: u64,
    /// Fleet-wide in-flight budgets per priority class, indexed by
    /// [`Priority::rank`]; `usize::MAX` means unbounded. A class at its
    /// budget sheds at the router with [`ShedReason::ClassBudget`] —
    /// before any stream index survives, so the numbering keeps no hole.
    pub class_budgets: [usize; Priority::COUNT],
    /// The router's AIMD congestion pacer over per-shard occupancy,
    /// driven by the shards' ECN-style pressure marks. Disabled by
    /// default; see [`PacerConfig`].
    pub pacer: PacerConfig,
}

impl FleetPolicy {
    /// Per-request routing (block length 1) under `route`.
    pub fn new(route: RoutePolicy) -> Self {
        FleetPolicy {
            route,
            lease_len: 1,
            class_budgets: [usize::MAX; Priority::COUNT],
            pacer: PacerConfig::default(),
        }
    }

    /// Overrides the routing block length (clamped to ≥ 1 at use).
    pub fn with_lease_len(mut self, lease_len: u64) -> Self {
        self.lease_len = lease_len;
        self
    }

    /// Bounds the fleet-wide in-flight budget of one priority class.
    pub fn with_class_budget(mut self, priority: Priority, budget: usize) -> Self {
        self.class_budgets[priority.rank()] = budget;
        self
    }

    /// Overrides the congestion-pacer configuration.
    pub fn with_pacer(mut self, pacer: PacerConfig) -> Self {
        self.pacer = pacer;
        self
    }
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy::new(RoutePolicy::RoundRobin)
    }
}

/// The router's view of one seat in service: identity, availability, and
/// the calibration-freshness counters the background recalibration
/// scheduler plans from (see [`FleetHandle::shard_health`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// The seat's id: the one [`FleetHandle::remove_shard`] and
    /// [`FleetHandle::recalibrate_shard`] take. Ids are handed out in join
    /// order and never reused.
    pub id: usize,
    /// The model id of the group this seat belongs to.
    pub model_id: String,
    /// The seat's model-group index (stable for the fleet's lifetime).
    pub group: usize,
    /// Whether a maintenance operation (graceful removal or background
    /// recalibration) is currently keeping new work off the seat.
    pub draining: bool,
    /// Fleet drift transitions applied since this replica was last
    /// (re)programmed — zeroed by reprogram, live join, and background
    /// recalibration. The staleness signal [`RecalPolicy`] thresholds on.
    ///
    /// [`RecalPolicy`]: crate::RecalPolicy
    pub drift_age: u64,
    /// Background recalibrations completed on this seat.
    pub recals: u64,
}

/// Per-shard plus aggregated statistics of a fleet (see
/// [`FleetHandle::stats`]).
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// One [`ServeStats`] snapshot per seat in service, in id order: each
    /// seat's own [`ShardTransport::stats`].
    pub shards: Vec<ServeStats>,
    /// The counters of every retired seat (evicted, removed, or failed at
    /// recalibration), each folded in at retirement with
    /// [`ServeStats::merge`]. Its sample lists stay empty: keeping a
    /// retired seat's samples would grow this record with every seat the
    /// fleet ever held.
    pub retired: ServeStats,
    /// The router's own QoS ledger: refusals decided at the fleet ingress
    /// (pacer overload, fleet class budgets, infeasible deadlines) plus
    /// congestion marks the router observed. Disjoint from the shard
    /// ledgers — every admission outcome is counted exactly once, by the
    /// component that decided it.
    pub router: QosStats,
    /// One [`ShardHealth`] row per seat in service, in id order.
    pub health: Vec<ShardHealth>,
}

impl FleetStats {
    /// The fleet-wide view: counters summed across seats, retired ones
    /// included, the largest batch observed anywhere, and every seat's
    /// queue-wait **samples pooled** before any percentile is taken.
    ///
    /// Pooling is deliberate: averaging per-shard percentiles would let a
    /// lightly loaded shard's fast p95 mask a congested shard's slow one.
    /// Percentiles over the merged samples weight every request equally,
    /// so `aggregate().queue_wait_percentile(0.95)` answers "what did the
    /// 95th-percentile *request* wait", not "what is the average shard
    /// like".
    pub fn aggregate(&self) -> ServeStats {
        let mut agg = self.retired.clone();
        for s in &self.shards {
            agg.merge(s);
        }
        agg.qos.merge(&self.router);
        agg
    }
}

/// One model group's routing state: the seats serving one model id, plus
/// that model's **own** global stream — index allocator, routing block
/// cursor, and round-robin cursor. Streams never cross groups, so every
/// model keeps the bit-identical numbering `0, 1, 2, …` a solo session of
/// its spec would produce.
struct GroupState {
    /// The spec every member must match exactly (replicas of one model id
    /// with different device recipes would compute different bits for the
    /// same coordinates — refused at registration).
    spec: ShardSpec,
    indices: StreamIndices,
    /// The current routing block: its seat and how many more requests it
    /// takes before the policy picks again.
    block: Option<(Arc<ShardSlot>, u64)>,
    rr: usize,
    /// The seats in service, in id order. A retired seat leaves at once.
    members: Vec<Arc<ShardSlot>>,
}

impl GroupState {
    fn new(spec: ShardSpec) -> Self {
        GroupState {
            spec,
            indices: StreamIndices::default(),
            block: None,
            rr: 0,
            members: Vec::new(),
        }
    }
}

/// Mutable routing state, under one lock: the registry's model groups with
/// their seats, the fleet-wide drift history, and what retired seats leave
/// behind.
struct RouterState {
    /// The registry: one group per distinct model id, in first-appearance
    /// order. Group 0 is the assembly's first model — the target of every
    /// request without a model id.
    groups: Vec<GroupState>,
    /// Drift transitions applied since the last reprogram, in order —
    /// replayed onto late joiners and recalibrated shards so their
    /// conductances match the incumbents'. Fleet-wide: drift is a
    /// physical, per-device process, so every group experiences the same
    /// history.
    drift_log: Vec<f64>,
    /// The id the next seat gets: ids only grow, so a retired seat's id is
    /// never handed out again.
    next_id: usize,
    /// The counters of every retired seat (see [`FleetStats::retired`]).
    retired: ServeStats,
}

/// One shard's seat in the fleet: its id, its transport and its congestion
/// pacer.
struct ShardSlot {
    id: usize,
    transport: Box<dyn ShardTransport>,
    /// This shard's AIMD congestion window, fed by its pressure marks on
    /// every QoS-gated submission. Per-shard (not global) so one
    /// backpressured remote link closes only its own window.
    pacer: Mutex<AimdPacer>,
    /// The model group this seat was registered into (fixed for the
    /// seat's lifetime).
    group: usize,
    /// Set while a maintenance operation (graceful removal, background
    /// recalibration) keeps new work off the seat; cleared when the seat
    /// returns to rotation. Routing skips draining seats.
    draining: AtomicBool,
    /// Submissions that have claimed an index routed to this seat but not
    /// yet been forwarded to the transport. Maintenance operations wait
    /// for this to reach zero after setting `draining`, so no request can
    /// slip between the drain and the reprogram and observe
    /// mid-calibration conductances.
    submitting: AtomicU64,
    /// Fleet drift transitions since this replica was last (re)programmed
    /// (see [`ShardHealth::drift_age`]).
    drift_age: AtomicU64,
    /// Background recalibrations completed on this seat.
    recals: AtomicU64,
}

impl ShardSlot {
    fn new(
        id: usize,
        transport: Box<dyn ShardTransport>,
        pacer: PacerConfig,
        group: usize,
    ) -> Arc<Self> {
        Arc::new(ShardSlot {
            id,
            transport,
            pacer: Mutex::new(AimdPacer::new(pacer)),
            group,
            draining: AtomicBool::new(false),
            submitting: AtomicU64::new(0),
            drift_age: AtomicU64::new(0),
            recals: AtomicU64::new(0),
        })
    }

    /// Whether new work may land on this seat right now: not held out of
    /// rotation by a maintenance drain.
    fn routable(&self) -> bool {
        !self.draining.load(Ordering::SeqCst)
    }
}

/// RAII token for one claimed-but-not-yet-forwarded submission: claimed
/// under the router lock, released when the transport call returns — the
/// window [`FleetHandle`] maintenance operations wait out (see
/// [`ShardSlot::submitting`]).
struct SubmitPermit<'a>(&'a ShardSlot);

impl Drop for SubmitPermit<'_> {
    fn drop(&mut self) {
        self.0.submitting.fetch_sub(1, Ordering::SeqCst);
    }
}

struct FleetInner {
    policy: FleetPolicy,
    state: Mutex<RouterState>,
    /// Epoch of the pacers' fake-clock timestamps (cooldown bookkeeping).
    epoch: Instant,
    /// Router-side QoS ledger: only decisions made *here* (pacer
    /// overload, fleet class budgets, infeasible deadlines) —
    /// shard-decided outcomes live in the shard ledgers, so
    /// [`FleetStats::aggregate`] never double counts.
    qos: Mutex<QosStats>,
    /// Serializes the fleet-mutating maintenance operations (drift,
    /// reprogram, join, removal, recalibration) against each other —
    /// submissions never take it, so serving continues while one shard is
    /// in maintenance.
    ops: Mutex<()>,
}

impl std::fmt::Debug for FleetInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetInner")
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

/// One request to a fleet: an image plus the two choices a caller may make
/// about it — which model's stream it joins, and whether it carries a QoS
/// class. A bare [`Tensor`] converts into a request with neither, so
/// `fleet.submit(image)` is the plain single-model call.
#[derive(Debug, Clone)]
pub struct Request {
    image: Tensor,
    model: Option<String>,
    class: Option<QosClass>,
}

impl Request {
    /// A request for `image` on the first model group's stream, without a
    /// class: never refused at admission, it waits on backpressure.
    pub fn new(image: Tensor) -> Self {
        Request {
            image,
            model: None,
            class: None,
        }
    }

    /// Addresses the request to the model group serving `model_id`: it
    /// joins **that model's** global stream and runs on a member of its
    /// shard group — never on another model's replicas.
    pub fn to(mut self, model_id: impl Into<String>) -> Self {
        self.model = Some(model_id.into());
        self
    }

    /// Gives the request a QoS class. A classed request passes admission
    /// control and is refused rather than queued when the fleet or its
    /// shard cannot take it (see [`FleetHandle::submit`]); the class also
    /// drives EDF batch composition and deadline-miss accounting.
    pub fn class(mut self, class: QosClass) -> Self {
        self.class = Some(class);
        self
    }
}

impl From<Tensor> for Request {
    fn from(image: Tensor) -> Self {
        Request::new(image)
    }
}

/// Clone-able ingress of a serving fleet: N shard transports behind one
/// router-owned global request stream (see the module docs and
/// `Platform::serve_fleet` / `Platform::serve_fleet_with` in the
/// `aimc-platform` facade).
///
/// All clones share the same shards, allocator, and routing cursor.
/// Requests submitted through any clone receive globally unique stream
/// indices.
#[derive(Debug, Clone)]
pub struct FleetHandle {
    inner: Arc<FleetInner>,
}

impl FleetHandle {
    /// Assembles a fleet from shard transports under `policy`.
    ///
    /// Each transport is probed for its [`ShardSpec`] and registered into
    /// the model group of its `model_id` (groups are created in
    /// first-appearance order, so group 0 — the target of every request
    /// without a model id — is the first transport's model). Spec-less
    /// transports report [`ShardSpec::default`] and form one homogeneous
    /// group, exactly as before the registry existed. The seats get ids
    /// `0, 1, …` in the order given.
    ///
    /// # Errors
    /// [`ServeError::NoShards`] if `shards` is empty — an empty fleet has
    /// nowhere to route, and the error is centralized here so every
    /// assembly path (`serve_fleet`, `serve_fleet_with`, direct
    /// construction) reports it identically instead of panicking.
    /// [`ServeError::SpecMismatch`] if two transports claim one model id
    /// with different device recipes — they could not be bit-identical
    /// replicas.
    pub fn new(
        shards: Vec<Box<dyn ShardTransport>>,
        policy: FleetPolicy,
    ) -> Result<Self, ServeError> {
        if shards.is_empty() {
            return Err(ServeError::NoShards);
        }
        let next_id = shards.len();
        let mut groups: Vec<GroupState> = Vec::new();
        for (id, t) in shards.into_iter().enumerate() {
            let spec = t.spec();
            let gid = match groups.iter().position(|g| g.spec.model_id == spec.model_id) {
                Some(gid) => {
                    if groups[gid].spec != spec {
                        return Err(ServeError::SpecMismatch(spec.model_id));
                    }
                    gid
                }
                None => {
                    groups.push(GroupState::new(spec));
                    groups.len() - 1
                }
            };
            let slot = ShardSlot::new(id, t, policy.pacer, gid);
            groups[gid].members.push(slot);
        }
        Ok(FleetHandle {
            inner: Arc::new(FleetInner {
                policy,
                state: Mutex::new(RouterState {
                    groups,
                    drift_log: Vec::new(),
                    next_id,
                    retired: ServeStats::default(),
                }),
                epoch: Instant::now(),
                qos: Mutex::new(QosStats::default()),
                ops: Mutex::new(()),
            }),
        })
    }

    /// The seats in service, in id order.
    fn held(&self) -> Vec<Arc<ShardSlot>> {
        let st = self.inner.state.lock().unwrap();
        let mut seats: Vec<Arc<ShardSlot>> =
            st.groups.iter().flat_map(|g| g.members.clone()).collect();
        seats.sort_by_key(|s| s.id);
        seats
    }

    /// Picks the target seat for one of `g`'s routing blocks under the
    /// routing policy, skipping draining seats. `None` when no routable
    /// member remains.
    fn pick_shard(&self, g: &mut GroupState) -> Option<Arc<ShardSlot>> {
        match self.inner.policy.route {
            RoutePolicy::RoundRobin => {
                let n = g.members.len();
                for step in 0..n {
                    let c = (g.rr + step) % n;
                    if g.members[c].routable() {
                        g.rr = (c + 1) % n;
                        return Some(Arc::clone(&g.members[c]));
                    }
                }
                None
            }
            // `min_by_key` keeps the first of equal loads: the lowest id.
            RoutePolicy::LeastQueueDepth => g
                .members
                .iter()
                .filter(|s| s.routable())
                .min_by_key(|s| s.transport.load().in_flight)
                .cloned(),
        }
    }

    /// Claims group `gid`'s next global stream index and the seat it
    /// routes to: the current routing block's seat while the block has
    /// room and the seat is routable, otherwise the policy's pick for a
    /// new block of [`FleetPolicy::lease_len`] requests. A seat retired or
    /// drained mid-block thus loses the rest of its block, and no index is
    /// skipped, since indices are claimed one at a time.
    ///
    /// The claimed seat's [`ShardSlot::submitting`] window is opened
    /// before the lock is released; the caller owns a [`SubmitPermit`]
    /// closing it once the request has been forwarded.
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] when no routable member of the group
    /// remains to route to.
    fn claim(&self, st: &mut RouterState, gid: usize) -> Result<(Arc<ShardSlot>, u64), ServeError> {
        let g = &mut st.groups[gid];
        let seat = match &mut g.block {
            Some((seat, left)) if *left > 0 && seat.routable() => {
                *left -= 1;
                Arc::clone(seat)
            }
            _ => {
                let seat = self.pick_shard(g).ok_or(ServeError::ShutDown)?;
                g.block = Some((Arc::clone(&seat), self.lease_len() - 1));
                seat
            }
        };
        seat.submitting.fetch_add(1, Ordering::SeqCst);
        Ok((seat, g.indices.claim()))
    }

    /// Returns a claimed-but-unsubmitted index (seat `seat` refused the
    /// request) so the stream has no hole — the next claim re-issues it
    /// before any fresh index, and subsequent successful requests keep
    /// their solo-identical coordinates. When the routing block is still
    /// on the refusing seat it ends, so the released index **re-routes** under
    /// the policy instead of re-hitting that seat.
    fn unclaim(&self, gid: usize, seat: usize, index: u64) {
        let g = &mut self.inner.state.lock().unwrap().groups[gid];
        g.indices.release(index);
        if g.block.as_ref().is_some_and(|(s, _)| s.id == seat) {
            g.block = None;
        }
    }

    /// Takes `slot` out of its group — a routing block on it ends — and
    /// folds its counters into [`FleetStats::retired`]. Returns `false`
    /// when the seat was already retired.
    fn retire(&self, slot: &ShardSlot) -> bool {
        let mut last = slot.transport.stats();
        last.queue_waits = Vec::new();
        for class in &mut last.qos.classes {
            class.latencies = Vec::new();
        }
        let mut st = self.inner.state.lock().unwrap();
        let g = &mut st.groups[slot.group];
        let Some(pos) = g.members.iter().position(|s| s.id == slot.id) else {
            return false;
        };
        g.members.remove(pos);
        if g.block.as_ref().is_some_and(|(s, _)| s.id == slot.id) {
            g.block = None;
        }
        st.retired.merge(&last);
        true
    }

    /// Retires `slot` for good — a dead seat, a removal, a failed
    /// recalibration: harvests the flights it stranded, shuts it down,
    /// takes it out of its group, and re-submits the harvest on survivors
    /// (see [`FleetHandle::rescue`]). The harvest comes first because a
    /// TCP seat's shutdown cancels the strays nobody took, and the
    /// shutdown comes before the retirement because nothing reaches a
    /// retired seat again — fleet shutdown included. Each flight is
    /// harvested once, so concurrent callers rescue disjoint sets.
    fn evict(&self, slot: &ShardSlot) {
        let strays = slot.transport.take_orphans();
        slot.transport.shutdown();
        self.retire(slot);
        self.rescue(slot.group, strays);
    }

    /// Re-submits stranded flights **at their original coordinates** on
    /// surviving members of their model group: a survivor fills each
    /// caller's own slot, so the caller's `Pending` resolves with the
    /// logits of the same stream index, and churn never shifts a
    /// coordinate. Only same-group members qualify: another group's
    /// replicas hold different conductances and would compute different
    /// bits. A survivor that refuses a flight while staying open refused
    /// the request itself (a malformed image), so the flight settles with
    /// that refusal and the survivor keeps serving. A survivor that
    /// refuses because it closed is retired (its strays join the
    /// worklist); with no survivor left a flight is dropped, which settles
    /// it as canceled — the terminal outcome the settlement guarantee
    /// requires.
    fn rescue(&self, gid: usize, mut work: Vec<Flight>) {
        while let Some(mut flight) = work.pop() {
            // A rescue was admitted once already: no seat may shed it.
            flight.shed = false;
            // Open the submit window under the router lock, as a claim
            // does: a maintenance drain either sees it and waits, or set
            // its flag first and the seat is not picked — a rescued
            // request never lands on mid-calibration conductances.
            let survivor = {
                let st = self.inner.state.lock().unwrap();
                let members = &st.groups[gid].members;
                let found = members
                    .iter()
                    .find(|s| s.routable() && !s.transport.is_closed());
                found.map(|s| {
                    s.submitting.fetch_add(1, Ordering::SeqCst);
                    Arc::clone(s)
                })
            };
            let Some(survivor) = survivor else {
                continue;
            };
            let permit = SubmitPermit(&survivor);
            let sent = survivor.transport.submit(flight);
            drop(permit);
            if let Err(refused) = sent {
                let (flight, e) = *refused;
                if !survivor.transport.is_closed() {
                    flight.settle(Err(e));
                    continue;
                }
                if self.retire(&survivor) {
                    work.extend(survivor.transport.take_orphans());
                }
                work.push(flight);
            }
        }
    }

    /// Harvests and re-routes requests stranded on shards that died
    /// without a submission noticing (the failure path that usually
    /// triggers eviction) — drain and shutdown call this so no accepted
    /// request is left un-terminal. Orphans imply the link is permanently
    /// dead, so a stranding shard is also retired. Returns whether any
    /// orphan was harvested — callers loop until a pass comes up empty,
    /// because a transport may park orphans *while* it is being drained
    /// (its reconnect budget exhausting mid-quiesce).
    fn sweep_strays(&self) -> bool {
        let mut swept = false;
        for s in self.held() {
            let strays = s.transport.take_orphans();
            if strays.is_empty() {
                continue;
            }
            swept = true;
            self.retire(&s);
            self.rescue(s.group, strays);
        }
        swept
    }

    /// Submits one request to the fleet — the only way in. The request
    /// claims the next index of its model group's global stream (group 0
    /// without [`Request::to`]) and is forwarded, stamped, to the current
    /// routing block's shard (a new block starts under the policy when the
    /// current one is used up).
    ///
    /// A request **without a class** must be accepted: it waits only on
    /// that shard's backpressure. A request **with a class**
    /// ([`Request::class`]) passes admission control first and is refused,
    /// before it queues, when one of these checks fails, in order:
    ///
    /// 1. **Pacer** — the shard's congestion window ([`AimdPacer`], fed by
    ///    the shard's pressure mark on every probe). A closed window sheds
    ///    with [`ShedReason::Overload`] — [`Priority::High`] requests
    ///    bypass the window (but never the hard in-flight cap), so pacing
    ///    throttles best-effort traffic first.
    /// 2. **Fleet class budget** — the class's fleet-wide in-flight count
    ///    against [`FleetPolicy::class_budgets`]; over budget sheds with
    ///    [`ShedReason::ClassBudget`].
    /// 3. **Deadline** — the shard's
    ///    [`ShardLoad::estimated_wait`](crate::ShardLoad::estimated_wait)
    ///    against the class deadline; a longer wait is
    ///    [`ServeError::DeadlineInfeasible`].
    /// 4. **Shard admission** — the seat's own check in
    ///    [`ShardTransport::submit`]: a local shard's queue bound
    ///    ([`ShedReason::QueueFull`]).
    ///
    /// The pacer, the fleet budgets and the deadline check read one probe
    /// of the shard's load, taken just before the request is forwarded.
    /// The pacer and fleet class budgets are fleet-wide: overload is a
    /// host-resource property, not a per-model one.
    ///
    /// Every refusal releases the claimed index back to the allocator, so
    /// the requests that run always occupy the contiguous prefix
    /// `0, 1, 2, …` and stay bit-identical to a solo run — admission
    /// changes **which** requests run, never **what** one computes. A
    /// shard that refuses because its link died is **evicted**: its
    /// stranded requests are rescued onto survivors and the submission
    /// retries on another shard, so one dead replica costs retransmission,
    /// not errors.
    ///
    /// # Errors
    /// [`ServeError::Shed`] or [`ServeError::DeadlineInfeasible`] when a
    /// classed request is refused at admission;
    /// [`ServeError::UnknownModel`] when no group serves the request's
    /// model id; [`ServeError::ShutDown`] after [`FleetHandle::shutdown`]
    /// or once no live shard remains; [`ServeError::Exec`] when the seat
    /// refuses the image itself (a local seat checks its input shape).
    pub fn submit(&self, request: impl Into<Request>) -> Result<Pending, ServeError> {
        self.route(request.into())
    }

    /// The one submission loop behind [`FleetHandle::submit`]. It is not
    /// generic, so it compiles once, in this crate. The request's flight
    /// is built once; each attempt stamps it with the index just claimed,
    /// and a refusal hands it back for the next attempt. An attempt takes
    /// the router lock once and clones one seat handle.
    fn route(&self, request: Request) -> Result<Pending, ServeError> {
        let Request {
            image,
            model,
            class,
        } = request;
        let gid = match model {
            Some(id) => self.resolve_model(&id)?,
            None => 0,
        };
        let (mut flight, pending) =
            Flight::new(0, class.unwrap_or_default(), image, class.is_some());
        loop {
            let (slot, index) = {
                let mut st = self.inner.state.lock().unwrap();
                self.claim(&mut st, gid)?
            };
            flight.index = index;
            let _permit = SubmitPermit(&slot);
            if let Some(class) = class {
                if let Err(e) = self.admit(&slot, class) {
                    self.unclaim(gid, slot.id, index);
                    return Err(e);
                }
            }
            let e;
            (flight, e) = match slot.transport.submit(flight) {
                Ok(()) => return Ok(pending),
                Err(refused) => *refused,
            };
            self.unclaim(gid, slot.id, index);
            let shed = matches!(e, ServeError::Shed(_));
            if !shed && slot.transport.is_closed() && !self.is_closed() {
                self.evict(&slot);
                continue;
            }
            return Err(e);
        }
    }

    /// Resolves a model id to its group index in the registry.
    fn resolve_model(&self, model_id: &str) -> Result<usize, ServeError> {
        self.inner
            .state
            .lock()
            .unwrap()
            .groups
            .iter()
            .position(|g| g.spec.model_id == model_id)
            .ok_or_else(|| ServeError::UnknownModel(model_id.to_string()))
    }

    /// The router's admission checks of a classed request routed to
    /// `slot` (steps 1–3 of [`FleetHandle::submit`]), read from one probe
    /// of the seat's load. Each refusal is counted in the router's ledger.
    fn admit(&self, slot: &ShardSlot, class: QosClass) -> Result<(), ServeError> {
        let load = slot.transport.load();
        let in_flight = usize::try_from(load.in_flight).unwrap_or(usize::MAX);
        let paced = {
            let mut pacer = slot.pacer.lock().unwrap();
            pacer.observe(load.pressure, self.inner.epoch.elapsed());
            pacer.admits(in_flight, class.priority)
        };
        if load.pressure {
            self.inner.qos.lock().unwrap().ecn_marks += 1;
        }
        if !paced {
            return Err(self.shed(class, ShedReason::Overload));
        }
        let rank = class.priority.rank();
        let budget = self.inner.policy.class_budgets[rank];
        if budget != usize::MAX {
            let mut class_in_flight = load.per_class[rank];
            for s in self.held() {
                if s.id != slot.id {
                    class_in_flight += s.transport.load().per_class[rank];
                }
            }
            if class_in_flight >= budget as u64 {
                return Err(self.shed(class, ShedReason::ClassBudget));
            }
        }
        if let (Some(deadline), Some(estimated_wait)) = (class.deadline, load.estimated_wait()) {
            if estimated_wait > deadline {
                let mut ledger = self.inner.qos.lock().unwrap();
                ledger.class_mut(class.priority).infeasible += 1;
                return Err(ServeError::DeadlineInfeasible { estimated_wait });
            }
        }
        Ok(())
    }

    /// Counts one router-decided shed in the fleet-ingress ledger and
    /// returns it as the request's error.
    fn shed(&self, class: QosClass, reason: ShedReason) -> ServeError {
        let mut ledger = self.inner.qos.lock().unwrap();
        ledger.class_mut(class.priority).note_shed(reason);
        ServeError::Shed(reason)
    }

    /// Blocks until every accepted request on every shard has reached a
    /// terminal outcome — including requests stranded on dead shards,
    /// which are rescued onto survivors first — then ends every group's
    /// routing block, so the next request starts a new block under the
    /// routing policy.
    pub fn drain(&self) {
        // Loop: a transport can park orphans *during* its drain (reconnect
        // budget exhausting mid-quiesce), and a rescue re-submission lands
        // new work on a survivor — so sweep and re-drain until a full pass
        // harvests nothing. Terminates: every harvesting pass retires at
        // least one shard.
        loop {
            self.sweep_strays();
            for s in self.held() {
                s.transport.drain();
            }
            if !self.sweep_strays() {
                break;
            }
        }
        for g in &mut self.inner.state.lock().unwrap().groups {
            g.block = None;
        }
    }

    /// Stops accepting requests fleet-wide, drains everything accepted,
    /// and releases every shard. Requests stranded on dead shards are
    /// rescued onto survivors first, so they settle (rather than cancel)
    /// whenever a survivor exists. Idempotent; safe from any clone.
    pub fn shutdown(&self) {
        // First sweep runs while survivors are still open, so strays are
        // rescued rather than cancelled; later passes (orphans parked
        // during a shard's own shutdown) find everything closed and
        // cancel, which is the correct post-shutdown outcome. Shutdown is
        // idempotent per transport, so re-issuing it each pass is safe.
        loop {
            self.sweep_strays();
            for s in self.held() {
                s.transport.shutdown();
            }
            if !self.sweep_strays() {
                break;
            }
        }
    }

    /// Whether no seat in service accepts work any more: the fleet was
    /// shut down, or every seat died. This is what tells "this shard died"
    /// (evict and re-route) from "everything is closed" (report
    /// [`ServeError::ShutDown`]).
    pub fn is_closed(&self) -> bool {
        let st = self.inner.state.lock().unwrap();
        let mut seats = st.groups.iter().flat_map(|g| &g.members);
        seats.all(|s| s.transport.is_closed())
    }

    /// Applies conductance drift to **every** replica in service at the
    /// same stream position: the fleet is drained first (all accepted
    /// requests finish on pre-drift conductances), then each shard drifts.
    /// Returns whether the replicas model drift (`false` for a golden
    /// fleet, which ignores the call).
    ///
    /// Identical replicas drifted identically stay identical — so the
    /// fleet keeps matching a solo session taken through the same
    /// transition at the same stream position. The transition is also
    /// recorded in the drift log, so a later [`FleetHandle::add_shard`]
    /// replays it onto the joiner.
    pub fn apply_drift(&self, t_hours: f64) -> bool {
        let _ops = self.inner.ops.lock().unwrap();
        self.drain();
        let mut modeled = false;
        for s in self.held() {
            modeled |= s.transport.apply_drift(t_hours);
            s.drift_age.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.state.lock().unwrap().drift_log.push(t_hours);
        modeled
    }

    /// Reprograms **every** replica in service from the original seed and
    /// rewinds the global stream to zero, after draining the fleet — the
    /// exact semantics of a solo `Session::reprogram`: freshly written
    /// conductances, coordinates replayed from the start. The drift log is
    /// cleared: a joiner added after a reprogram starts from the same
    /// fresh conductances as everyone else.
    ///
    /// The rewind resets every group's index allocator and routing block:
    /// the next submission claims index 0 and starts a new block.
    ///
    /// # Errors
    /// [`ServeError::Exec`] / [`ServeError::Remote`] if any shard fails to
    /// re-program (shards already re-programmed keep their fresh state;
    /// the stream is only rewound on full success).
    pub fn reprogram(&self) -> Result<(), ServeError> {
        let _ops = self.inner.ops.lock().unwrap();
        self.drain();
        for s in self.held() {
            s.transport.reprogram()?;
            s.drift_age.store(0, Ordering::SeqCst);
        }
        let mut st = self.inner.state.lock().unwrap();
        for g in &mut st.groups {
            g.indices = StreamIndices::default();
            g.block = None;
        }
        st.drift_log.clear();
        Ok(())
    }

    /// Updates the thread budget fleet-wide; in-flight shards pick it up
    /// per dispatched batch. Never changes a logit.
    pub fn set_parallelism(&self, par: Parallelism) {
        for s in self.held() {
            s.transport.set_parallelism(par);
        }
    }

    /// Adds a freshly connected shard to a running fleet — the **live
    /// join** path of elastic serving. The joiner's replica is programmed
    /// from the fleet seed via the transport's control surface, the drift
    /// history recorded since the last reprogram is replayed so its
    /// conductances match the incumbents' bit-for-bit, and the shard then
    /// enters the routing rotation under the next unused seat id, where it
    /// receives routing blocks like any other seat.
    ///
    /// Joining never shifts a coordinate: the joiner only serves indices
    /// claimed after it joined, and identical programming plus
    /// identical drift history keeps its logits bit-identical to every
    /// other replica — the fleet invariance is preserved across elastic
    /// scale-up.
    ///
    /// The joiner is registered into the model group of its
    /// [`ShardSpec`]'s model id — an unknown id founds a new group with
    /// its own stream. Re-joining a model whose previous replica was
    /// evicted goes through this same path: fresh programming from the
    /// spec seed plus the drift-log replay reproduce the incumbents'
    /// conductances exactly, so the rejoined host serves bit-identical
    /// logits.
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] if the fleet is closed;
    /// [`ServeError::SpecMismatch`] if the joiner claims an existing model
    /// id with a different device recipe; any programming error from the
    /// joiner's control surface (the shard is not added).
    pub fn add_shard(&self, transport: Box<dyn ShardTransport>) -> Result<(), ServeError> {
        let _ops = self.inner.ops.lock().unwrap();
        if self.is_closed() {
            return Err(ServeError::ShutDown);
        }
        let spec = transport.spec();
        {
            let st = self.inner.state.lock().unwrap();
            if let Some(g) = st.groups.iter().find(|g| g.spec.model_id == spec.model_id) {
                if g.spec != spec {
                    return Err(ServeError::SpecMismatch(spec.model_id));
                }
            }
        }
        transport.reprogram()?;
        let drift_log = self.inner.state.lock().unwrap().drift_log.clone();
        for t_hours in drift_log {
            transport.apply_drift(t_hours);
        }
        let mut st = self.inner.state.lock().unwrap();
        let gid = match st
            .groups
            .iter()
            .position(|g| g.spec.model_id == spec.model_id)
        {
            Some(gid) => gid,
            None => {
                st.groups.push(GroupState::new(spec));
                st.groups.len() - 1
            }
        };
        let slot = ShardSlot::new(st.next_id, transport, self.inner.policy.pacer, gid);
        st.next_id += 1;
        st.groups[gid].members.push(slot);
        Ok(())
    }

    /// The seat in service with id `id`, and how many other members of
    /// its group could serve a request right now — the live-floor guard
    /// of maintenance operations. `None` for a retired seat.
    ///
    /// # Errors
    /// [`ServeError::UnknownShard`] for an id no seat ever held.
    fn seat(&self, id: usize) -> Result<Option<(Arc<ShardSlot>, usize)>, ServeError> {
        let st = self.inner.state.lock().unwrap();
        if id >= st.next_id {
            return Err(ServeError::UnknownShard(id));
        }
        for g in &st.groups {
            if let Some(slot) = g.members.iter().find(|s| s.id == id) {
                let peers = g.members.iter().filter(|s| s.id != id && s.routable());
                return Ok(Some((Arc::clone(slot), peers.count())));
            }
        }
        Ok(None)
    }

    /// Gracefully decommissions seat `id`: the seat leaves the routing
    /// rotation (a routing block in progress on it moves to another seat),
    /// in-flight work finishes on the shard, requests its dying link
    /// stranded are rescued onto its group's survivors, and the transport
    /// is shut down and retired — no request is cancelled, no coordinate
    /// shifts, no logit changes. The counterpart of
    /// [`FleetHandle::add_shard`] for elastic scale-down.
    ///
    /// Removing an already-retired seat is a no-op (`Ok`): the seat is
    /// already out of rotation, which is what removal asks for.
    ///
    /// # Errors
    /// [`ServeError::UnknownShard`] for an id no seat ever held;
    /// [`ServeError::LiveFloor`] when the seat is its model group's last
    /// routable member — removal would strand the group's stream (shut the
    /// fleet down instead).
    pub fn remove_shard(&self, id: usize) -> Result<(), ServeError> {
        let _ops = self.inner.ops.lock().unwrap();
        let Some((slot, peers)) = self.seat(id)? else {
            return Ok(());
        };
        if peers == 0 {
            return Err(ServeError::LiveFloor);
        }
        self.quiesce(&slot);
        self.evict(&slot);
        Ok(())
    }

    /// Takes `slot` out of rotation and waits until it is fully quiet:
    /// sets the draining flag under the router lock — so every claim that
    /// still saw the seat routable has already opened its submit window —
    /// waits out those claims, then drains the transport. The windows are
    /// a few instructions plus one transport call each.
    fn quiesce(&self, slot: &ShardSlot) {
        {
            let _st = self.inner.state.lock().unwrap();
            slot.draining.store(true, Ordering::SeqCst);
        }
        while slot.submitting.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        slot.transport.drain();
    }

    /// Recalibrates seat `id` in the background: the seat drains (its
    /// group's other members keep serving), its replica is reprogrammed
    /// from the spec seed, the fleet's drift history is replayed so its
    /// conductances match the incumbents' bit-for-bit, and the seat
    /// returns to rotation with its drift age reset — **no completed or
    /// concurrent logit changes**, because every request carries its
    /// global coordinate and the recalibrated replica computes the same
    /// bits at every coordinate as any incumbent.
    ///
    /// This is the rotation step [`RecalHandle`] schedules; call it
    /// directly for one-shot manual recalibration.
    ///
    /// [`RecalHandle`]: crate::RecalHandle
    ///
    /// # Errors
    /// [`ServeError::UnknownShard`] for an id no seat ever held;
    /// [`ServeError::ShutDown`] if the seat was retired;
    /// [`ServeError::LiveFloor`] when the seat is its group's last routable
    /// member (recalibrating it would leave the model unservable for the
    /// duration); any re-programming error (the seat is then shut down and
    /// retired and its strays rescued — a replica that cannot re-program
    /// is unusable).
    pub fn recalibrate_shard(&self, id: usize) -> Result<(), ServeError> {
        let _ops = self.inner.ops.lock().unwrap();
        let Some((slot, peers)) = self.seat(id)? else {
            return Err(ServeError::ShutDown);
        };
        if peers == 0 {
            return Err(ServeError::LiveFloor);
        }
        self.quiesce(&slot);
        if let Err(e) = slot.transport.reprogram() {
            self.evict(&slot);
            return Err(e);
        }
        let drift_log = self.inner.state.lock().unwrap().drift_log.clone();
        for t_hours in drift_log {
            slot.transport.apply_drift(t_hours);
        }
        slot.drift_age.store(0, Ordering::SeqCst);
        slot.recals.fetch_add(1, Ordering::SeqCst);
        slot.draining.store(false, Ordering::SeqCst);
        Ok(())
    }

    /// Number of seats in service: every seat joined and not yet retired.
    pub fn shard_count(&self) -> usize {
        let st = self.inner.state.lock().unwrap();
        st.groups.iter().map(|g| g.members.len()).sum()
    }

    /// Requests stamped with global stream indices since the last
    /// reprogram rewind, summed across every model group.
    pub fn images_routed(&self) -> u64 {
        self.inner
            .state
            .lock()
            .unwrap()
            .groups
            .iter()
            .map(|g| g.indices.outstanding())
            .sum()
    }

    /// Requests stamped on one model's stream since the last reprogram
    /// rewind.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] when no group serves `model_id`.
    pub fn images_routed_for(&self, model_id: &str) -> Result<u64, ServeError> {
        let gid = self.resolve_model(model_id)?;
        Ok(self.inner.state.lock().unwrap().groups[gid]
            .indices
            .outstanding())
    }

    /// The registered model ids, in group order (group 0 first — the
    /// target of every request without a model id).
    pub fn model_ids(&self) -> Vec<String> {
        self.inner
            .state
            .lock()
            .unwrap()
            .groups
            .iter()
            .map(|g| g.spec.model_id.clone())
            .collect()
    }

    /// The router's health view of each seat in service, in id order:
    /// group membership, availability, drift age, and recalibration count
    /// — the input the background recalibration scheduler plans from.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.health_of(&self.held())
    }

    fn health_of(&self, seats: &[Arc<ShardSlot>]) -> Vec<ShardHealth> {
        let st = self.inner.state.lock().unwrap();
        seats
            .iter()
            .map(|s| ShardHealth {
                id: s.id,
                model_id: st.groups[s.group].spec.model_id.clone(),
                group: s.group,
                draining: s.draining.load(Ordering::SeqCst),
                drift_age: s.drift_age.load(Ordering::SeqCst),
                recals: s.recals.load(Ordering::SeqCst),
            })
            .collect()
    }

    /// The fleet's routing block length (consecutive requests routed to
    /// one shard).
    pub fn lease_len(&self) -> u64 {
        self.inner.policy.lease_len.max(1)
    }

    /// Point-in-time statistics, per seat in service and aggregatable.
    pub fn stats(&self) -> FleetStats {
        let seats = self.held();
        let health = self.health_of(&seats);
        FleetStats {
            shards: seats.iter().map(|s| s.transport.stats()).collect(),
            retired: self.inner.state.lock().unwrap().retired.clone(),
            router: self.inner.qos.lock().unwrap().clone(),
            health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::ShardLoad;
    use crate::transport::testing::Inert;
    use crate::transport::{LocalTransport, ShardControl};
    use crate::BatchPolicy;
    use aimc_dnn::{ExecError, Shape};
    use std::time::Duration;

    fn tensor(v: f32) -> Tensor {
        Tensor::from_vec(Shape::new(1, 1, 1), vec![v])
    }

    /// Records (index, tag) pairs a shard's runner saw; echoes index+tag so
    /// results encode the evaluating coordinate.
    type ShardLog = Arc<Mutex<Vec<(u64, f32)>>>;

    /// A seat of `spec` under `control` whose runner logs to `log`.
    fn shard_seat(
        log: ShardLog,
        policy: BatchPolicy,
        control: Box<dyn ShardControl>,
        spec: ShardSpec,
    ) -> LocalTransport {
        let runner = move |indices: &[u64], inputs: &[Tensor]| {
            let mut l = log.lock().unwrap();
            for (&idx, t) in indices.iter().zip(inputs) {
                l.push((idx, t.data()[0]));
            }
            Ok(indices
                .iter()
                .zip(inputs)
                .map(|(&idx, t)| tensor(idx as f32 * 1000.0 + t.data()[0]))
                .collect())
        };
        LocalTransport::spawn(policy, Box::new(runner), control, spec)
    }

    /// A control that records calls instead of owning an executor.
    #[derive(Default)]
    struct RecordingControl {
        drifts: Mutex<Vec<f64>>,
        reprograms: Mutex<u32>,
        pars: Mutex<Vec<Parallelism>>,
    }

    struct ControlHandle(Arc<RecordingControl>);

    impl ShardControl for ControlHandle {
        fn apply_drift(&self, t_hours: f64) -> bool {
            self.0.drifts.lock().unwrap().push(t_hours);
            true
        }
        fn reprogram(&self) -> Result<(), ExecError> {
            *self.0.reprograms.lock().unwrap() += 1;
            Ok(())
        }
        fn set_parallelism(&self, par: Parallelism) {
            self.0.pars.lock().unwrap().push(par);
        }
    }

    fn local_shard(log: &ShardLog, control: &Arc<RecordingControl>) -> Box<dyn ShardTransport> {
        spec_shard(log, control, ShardSpec::default())
    }

    fn fleet(n: usize, policy: FleetPolicy) -> (FleetHandle, Vec<ShardLog>, Arc<RecordingControl>) {
        let control = Arc::new(RecordingControl::default());
        let logs: Vec<ShardLog> = (0..n).map(|_| Arc::default()).collect();
        let shards: Vec<Box<dyn ShardTransport>> =
            logs.iter().map(|l| local_shard(l, &control)).collect();
        (FleetHandle::new(shards, policy).unwrap(), logs, control)
    }

    #[test]
    fn round_robin_spreads_evenly_and_indices_are_global() {
        let (f, logs, _) = fleet(3, FleetPolicy::new(RoutePolicy::RoundRobin));
        let pendings: Vec<Pending> = (0..9)
            .map(|i| f.submit(tensor(i as f32)).unwrap())
            .collect();
        // Result of request k encodes the coordinate it ran at: must be k.
        for (k, p) in pendings.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().data(), &[k as f32 * 1000.0 + k as f32]);
        }
        f.drain();
        assert_eq!(f.images_routed(), 9);
        assert_eq!(f.lease_len(), 1);
        // Even spread: single-threaded round-robin at block length 1 gives
        // each shard 3.
        let mut all: Vec<(u64, f32)> = Vec::new();
        for (s, log) in logs.iter().enumerate() {
            let l = log.lock().unwrap();
            assert_eq!(l.len(), 3, "shard {s} request count");
            // Shard s saw exactly global indices s, s+3, s+6.
            for (j, &(idx, tag)) in l.iter().enumerate() {
                assert_eq!(idx as usize, s + 3 * j);
                assert_eq!(tag, idx as f32);
            }
            all.extend_from_slice(&l);
        }
        // Every global index routed exactly once.
        let mut seen: Vec<u64> = all.iter().map(|&(i, _)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..9).collect::<Vec<u64>>());
        f.shutdown();
        assert!(f.is_closed());
    }

    /// Routing blocks route whole: consecutive requests share the block's
    /// shard, and the next block moves on round-robin.
    #[test]
    fn leases_route_in_blocks() {
        let (f, logs, _) = fleet(
            2,
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(3),
        );
        let pendings: Vec<Pending> = (0..8)
            .map(|i| f.submit(tensor(i as f32)).unwrap())
            .collect();
        for (k, p) in pendings.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().data(), &[k as f32 * 1000.0 + k as f32]);
        }
        f.drain();
        // Blocks of 3: [0,3) → shard 0, [3,6) → shard 1, [6,8) → shard 0.
        let l0: Vec<u64> = logs[0].lock().unwrap().iter().map(|&(i, _)| i).collect();
        let l1: Vec<u64> = logs[1].lock().unwrap().iter().map(|&(i, _)| i).collect();
        assert_eq!(l0, vec![0, 1, 2, 6, 7]);
        assert_eq!(l1, vec![3, 4, 5]);
        f.shutdown();
    }

    /// Drain ends the routing block: the stream continues contiguously (no
    /// holes) and the next block is re-routed.
    #[test]
    fn drain_reclaims_partial_leases() {
        let (f, logs, _) = fleet(
            2,
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(4),
        );
        // One request takes index 0 and starts a block of 4 on shard 0.
        f.submit(tensor(0.0)).unwrap().wait().unwrap();
        f.drain(); // ends the block
        assert_eq!(f.images_routed(), 1);
        // The next requests start a new block — on the *next* round-robin
        // shard — keeping the stream contiguous at 1, 2, …
        let pendings: Vec<Pending> = (1..5)
            .map(|i| f.submit(tensor(i as f32)).unwrap())
            .collect();
        for (k, p) in pendings.into_iter().enumerate() {
            let k = (k + 1) as f32;
            assert_eq!(p.wait().unwrap().data(), &[k * 1000.0 + k]);
        }
        f.drain();
        assert_eq!(f.images_routed(), 5);
        let l0: Vec<u64> = logs[0].lock().unwrap().iter().map(|&(i, _)| i).collect();
        let l1: Vec<u64> = logs[1].lock().unwrap().iter().map(|&(i, _)| i).collect();
        assert_eq!(l0, vec![0], "shard 0 stamped only the pre-drain request");
        assert_eq!(l1, vec![1, 2, 3, 4], "reclaimed block re-routed to shard 1");
        f.shutdown();
    }

    /// The largest block length is just a block that never runs out: the
    /// stream still numbers `0, 1, 2, …` across a drain.
    #[test]
    fn huge_block_length_keeps_the_stream_contiguous() {
        let (f, logs, _) = fleet(
            2,
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(u64::MAX),
        );
        f.submit(tensor(0.0)).unwrap().wait().unwrap();
        f.drain();
        let pendings: Vec<Pending> = (1..4)
            .map(|i| f.submit(tensor(i as f32)).unwrap())
            .collect();
        for (k, p) in pendings.into_iter().enumerate() {
            let k = (k + 1) as f32;
            assert_eq!(p.wait().unwrap().data(), &[k * 1000.0 + k]);
        }
        f.drain();
        assert_eq!(f.images_routed(), 4);
        let l0: Vec<u64> = logs[0].lock().unwrap().iter().map(|&(i, _)| i).collect();
        let l1: Vec<u64> = logs[1].lock().unwrap().iter().map(|&(i, _)| i).collect();
        assert_eq!(l0, vec![0]);
        assert_eq!(l1, vec![1, 2, 3], "the drain ended the first block");
        f.shutdown();
    }

    /// A released index is re-issued before any other, even mid-block, and
    /// the block on the refusing seat ends, so the re-issue re-routes.
    #[test]
    fn released_index_is_reissued_first() {
        let (f, _, _) = fleet(
            2,
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(4),
        );
        let claim = || {
            let (seat, index) = f.claim(&mut f.inner.state.lock().unwrap(), 0).unwrap();
            drop(SubmitPermit(&seat));
            (seat.id, index)
        };
        assert_eq!(claim(), (0, 0));
        assert_eq!(claim(), (0, 1));
        f.unclaim(0, 0, 0);
        assert_eq!(claim(), (1, 0));
        assert_eq!(claim(), (1, 2));
        assert_eq!(f.images_routed(), 3);
        f.shutdown();
    }

    #[test]
    fn least_queue_depth_prefers_idle_shards() {
        let (f, logs, _) = fleet(2, FleetPolicy::new(RoutePolicy::LeastQueueDepth));
        // Submit and drain one at a time: both shards idle at each pick, so
        // ties route everything to shard 0 — and shard 1 stays empty.
        for i in 0..4 {
            let p = f.submit(tensor(i as f32)).unwrap();
            p.wait().unwrap();
            f.drain();
        }
        assert_eq!(logs[0].lock().unwrap().len(), 4);
        assert_eq!(logs[1].lock().unwrap().len(), 0);
        f.shutdown();
    }

    /// Two runs of submissions from one submitter take contiguous
    /// coordinates and route block by block.
    #[test]
    fn submitted_runs_span_routing_blocks_with_contiguous_indices() {
        let (f, logs, _) = fleet(
            2,
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(3),
        );
        let run = |range: std::ops::Range<usize>| -> Vec<Pending> {
            range.map(|i| f.submit(tensor(i as f32)).unwrap()).collect()
        };
        let a = run(0..3);
        let b = run(3..5);
        for (k, p) in a.into_iter().chain(b).enumerate() {
            assert_eq!(p.wait().unwrap().data(), &[k as f32 * 1000.0 + k as f32]);
        }
        f.drain();
        // Block-granular routing: [0,3) on shard 0, [3,6) on shard 1 — the
        // second run landed whole in the second routing block.
        let l0 = logs[0].lock().unwrap().clone();
        let l1 = logs[1].lock().unwrap().clone();
        assert_eq!(l0, vec![(0, 0.0), (1, 1.0), (2, 2.0)]);
        assert_eq!(l1, vec![(3, 3.0), (4, 4.0)]);
        f.shutdown();
    }

    #[test]
    fn stats_aggregate_sums_the_fleet() {
        let (f, _, _) = fleet(3, FleetPolicy::default());
        let pendings: Vec<Pending> = (0..7)
            .map(|i| f.submit(tensor(i as f32)).unwrap())
            .collect();
        for p in pendings {
            p.wait().unwrap();
        }
        f.drain();
        let stats = f.stats();
        assert_eq!(stats.shards.len(), 3);
        let agg = stats.aggregate();
        assert_eq!(agg.submitted, 7);
        assert_eq!(agg.completed, 7);
        assert_eq!(agg.dispatched, 7);
        assert_eq!(agg.queue_waits.len(), 7);
        assert!(
            agg.batches >= 4,
            "7 requests at max_batch 2 need ≥4 batches"
        );
        assert!(agg.max_batch_observed <= 2);
        f.shutdown();
        // Post-shutdown submissions are refused by the routed-to shard —
        // not retried (the whole fleet is closed, so this is shutdown,
        // not churn) — and show up aggregated exactly once.
        assert!(matches!(f.submit(tensor(0.0)), Err(ServeError::ShutDown)));
        assert_eq!(f.stats().aggregate().rejected, 1);
    }

    /// Pins the aggregation semantics: fleet percentiles come from the
    /// **pooled samples**, not from averaging per-shard percentiles — a
    /// congested shard must dominate the fleet p95 in proportion to its
    /// traffic, not be averaged away by idle shards.
    #[test]
    fn aggregate_pools_samples_rather_than_averaging_percentiles() {
        let fast = ServeStats {
            submitted: 9,
            completed: 9,
            dispatched: 9,
            batches: 9,
            queue_waits: vec![Duration::from_millis(1); 9],
            ..ServeStats::default()
        };
        let slow = ServeStats {
            submitted: 91,
            completed: 91,
            dispatched: 91,
            batches: 91,
            queue_waits: vec![Duration::from_millis(100); 91],
            ..ServeStats::default()
        };
        let stats = FleetStats {
            shards: vec![fast.clone(), slow.clone()],
            retired: ServeStats::default(),
            router: QosStats::default(),
            health: Vec::new(),
        };
        let agg = stats.aggregate();
        assert_eq!(agg.queue_waits.len(), 100, "every sample is pooled");
        // 91% of requests waited 100 ms: the pooled p95 must say 100 ms.
        let p95 = agg.queue_wait_percentile(0.95).unwrap();
        assert_eq!(p95, Duration::from_millis(100));
        // The rejected alternative: averaging the per-shard p95s would
        // report ~50 ms and hide the congestion.
        let averaged = (fast.queue_wait_percentile(0.95).unwrap()
            + slow.queue_wait_percentile(0.95).unwrap())
            / 2;
        assert!(averaged < p95, "averaging would understate the fleet p95");
        // Counters sum exactly.
        assert_eq!(agg.submitted, 100);
        assert_eq!(agg.dispatched, 100);
        assert_eq!(agg.mean_batch(), 1.0);
    }

    #[test]
    fn drift_and_reprogram_fan_across_all_shards() {
        let (f, _, control) = fleet(3, FleetPolicy::default());
        let p = f.submit(tensor(1.0)).unwrap();
        assert!(f.apply_drift(24.0));
        // Drain-before-drift: the in-flight request completed first.
        assert!(p.is_ready());
        assert_eq!(*control.drifts.lock().unwrap(), vec![24.0, 24.0, 24.0]);

        let _ = f.submit(tensor(2.0)).unwrap();
        assert_eq!(f.images_routed(), 2);
        f.reprogram().unwrap();
        assert_eq!(*control.reprograms.lock().unwrap(), 3);
        assert_eq!(f.images_routed(), 0, "reprogram rewinds the global stream");
        // The next request replays coordinate 0.
        let p = f.submit(tensor(5.0)).unwrap();
        assert_eq!(p.wait().unwrap().data(), &[5.0]);

        f.set_parallelism(Parallelism::Threads(2));
        assert_eq!(control.pars.lock().unwrap().len(), 3);
        f.shutdown();
    }

    /// Reprogram mid-block: the rewind restarts the stream at 0, and the
    /// next request starts a new routing block.
    #[test]
    fn reprogram_rewinds_with_outstanding_leases() {
        let (f, logs, _) = fleet(
            2,
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(64),
        );
        // Two requests of a 64-request block.
        for i in 0..2 {
            f.submit(tensor(i as f32)).unwrap().wait().unwrap();
        }
        assert_eq!(f.images_routed(), 2);
        f.reprogram().unwrap();
        assert_eq!(f.images_routed(), 0);
        // Replay: indices restart at 0 (new block, next shard in the
        // rotation).
        let p = f.submit(tensor(9.0)).unwrap();
        assert_eq!(p.wait().unwrap().data(), &[9.0]);
        f.drain();
        let all: Vec<u64> = logs
            .iter()
            .flat_map(|l| {
                l.lock()
                    .unwrap()
                    .iter()
                    .map(|&(i, _)| i)
                    .collect::<Vec<_>>()
            })
            .collect();
        // Index 0 was stamped twice: once before, once after the rewind.
        assert_eq!(all.iter().filter(|&&i| i == 0).count(), 2);
        f.shutdown();
    }

    /// A transport that refuses every submission — a died remote link.
    struct RefusingTransport;

    impl ShardTransport for RefusingTransport {
        fn submit(&self, flight: Flight) -> Result<(), Box<(Flight, ServeError)>> {
            Err(Box::new((flight, ServeError::ShutDown)))
        }
        fn load(&self) -> ShardLoad {
            ShardLoad::default()
        }
        fn drain(&self) {}
        fn shutdown(&self) {}
        fn is_closed(&self) -> bool {
            true
        }
        fn stats(&self) -> ServeStats {
            ServeStats::default()
        }
        fn apply_drift(&self, _t_hours: f64) -> bool {
            false
        }
        fn reprogram(&self) -> Result<(), ServeError> {
            Ok(())
        }
        fn set_parallelism(&self, _par: Parallelism) {}
    }

    /// A dead shard is evicted on its first refusal and the submission
    /// retries on a survivor: the caller sees no error, the stream keeps
    /// no hole, and every coordinate stays exactly `0, 1, 2, …` — the
    /// invariance outlives a dead shard without costing a request.
    #[test]
    fn dead_shard_is_evicted_and_requests_reroute() {
        let log: ShardLog = Arc::default();
        let control = Arc::new(RecordingControl::default());
        let shards: Vec<Box<dyn ShardTransport>> =
            vec![local_shard(&log, &control), Box::new(RefusingTransport)];
        let f = FleetHandle::new(shards, FleetPolicy::new(RoutePolicy::RoundRobin)).unwrap();
        assert_eq!(f.shard_count(), 2);
        let pendings: Vec<Pending> = (0..6)
            .map(|i| f.submit(tensor(i as f32)).unwrap())
            .collect();
        assert_eq!(
            f.shard_count(),
            1,
            "the dead shard was retired on first refusal"
        );
        for (k, p) in pendings.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().data(), &[k as f32 * 1000.0 + k as f32]);
        }
        f.drain();
        assert_eq!(f.images_routed(), 6, "no stamp was lost to the dead shard");
        let seen: Vec<u64> = log.lock().unwrap().iter().map(|&(i, _)| i).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        f.shutdown();
    }

    /// A shard dying in the middle of a run of submissions is evicted at
    /// the first request routed to it, which releases its index and
    /// retries on a survivor — the run completes whole, at contiguous
    /// coordinates.
    #[test]
    fn block_survives_mid_run_eviction() {
        let log: ShardLog = Arc::default();
        let control = Arc::new(RecordingControl::default());
        let shards: Vec<Box<dyn ShardTransport>> =
            vec![local_shard(&log, &control), Box::new(RefusingTransport)];
        let f = FleetHandle::new(
            shards,
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(3),
        )
        .unwrap();
        // Indices 0–2 land on shard 0; index 3 starts the refusing shard's
        // block and fails — eviction re-routes 3 and 4 to the survivor.
        let pendings: Vec<Pending> = (0..5)
            .map(|i| f.submit(tensor(i as f32)).unwrap())
            .collect();
        assert_eq!(f.shard_count(), 1);
        for (k, p) in pendings.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().data(), &[k as f32 * 1000.0 + k as f32]);
        }
        f.drain();
        assert_eq!(f.images_routed(), 5);
        let seen: Vec<u64> = log.lock().unwrap().iter().map(|&(i, _)| i).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        f.shutdown();
    }

    /// A transport that accepts a few requests, strands them, then dies —
    /// the shape of a remote link that exhausted its replay budget with
    /// work in flight. Accepted requests park as orphans for the router
    /// to harvest.
    struct ParkingTransport {
        accept: usize,
        accepted: Mutex<usize>,
        parked: Mutex<Vec<Flight>>,
        closed: AtomicBool,
        spec: ShardSpec,
    }

    impl ParkingTransport {
        fn new(accept: usize) -> Self {
            ParkingTransport {
                accept,
                accepted: Mutex::new(0),
                parked: Mutex::new(Vec::new()),
                closed: AtomicBool::new(false),
                spec: ShardSpec::default(),
            }
        }
    }

    impl ShardTransport for ParkingTransport {
        fn submit(&self, flight: Flight) -> Result<(), Box<(Flight, ServeError)>> {
            let mut accepted = self.accepted.lock().unwrap();
            if *accepted < self.accept {
                *accepted += 1;
                self.parked.lock().unwrap().push(flight);
                Ok(())
            } else {
                self.closed.store(true, Ordering::Release);
                Err(Box::new((flight, ServeError::ShutDown)))
            }
        }
        fn load(&self) -> ShardLoad {
            ShardLoad::default()
        }
        fn drain(&self) {}
        fn shutdown(&self) {
            self.closed.store(true, Ordering::Release);
        }
        fn is_closed(&self) -> bool {
            self.closed.load(Ordering::Acquire)
        }
        fn take_orphans(&self) -> Vec<Flight> {
            std::mem::take(&mut *self.parked.lock().unwrap())
        }
        fn stats(&self) -> ServeStats {
            ServeStats::default()
        }
        fn spec(&self) -> ShardSpec {
            self.spec.clone()
        }
        fn apply_drift(&self, _t_hours: f64) -> bool {
            false
        }
        fn reprogram(&self) -> Result<(), ServeError> {
            Ok(())
        }
        fn set_parallelism(&self, _par: Parallelism) {}
    }

    /// Requests stranded on a dying shard are rescued: eviction harvests
    /// its orphans and re-runs each **at its original coordinate** on a
    /// survivor, fulfilling the caller's original `Pending` — so churn is
    /// invisible in both the results and the coordinates.
    #[test]
    fn stranded_requests_are_rescued_at_their_coordinates() {
        let log: ShardLog = Arc::default();
        let control = Arc::new(RecordingControl::default());
        let shards: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(ParkingTransport::new(2)),
            local_shard(&log, &control),
        ];
        let f = FleetHandle::new(shards, FleetPolicy::new(RoutePolicy::RoundRobin)).unwrap();
        // Round-robin at block length 1: indices 0 and 2 park on the dying
        // shard; its third request (index 4) is refused, triggering
        // eviction — the rescue re-submits 0 and 2 on the survivor, and 4
        // retries there.
        let pendings: Vec<Pending> = (0..6)
            .map(|i| f.submit(tensor(i as f32)).unwrap())
            .collect();
        assert_eq!(f.shard_count(), 1);
        for (k, p) in pendings.into_iter().enumerate() {
            assert_eq!(
                p.wait().unwrap().data(),
                &[k as f32 * 1000.0 + k as f32],
                "request {k} resolved at its original coordinate"
            );
        }
        f.drain();
        assert_eq!(f.images_routed(), 6);
        // The survivor served the whole stream: its own blocks plus the
        // rescued coordinates, each exactly once.
        let mut seen: Vec<u64> = log.lock().unwrap().iter().map(|&(i, _)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        f.shutdown();
    }

    /// With no survivor left, stranded requests cancel instead of hanging:
    /// settlement is guaranteed even when the whole fleet dies.
    #[test]
    fn strays_cancel_when_no_survivor_remains() {
        let shards: Vec<Box<dyn ShardTransport>> = vec![Box::new(ParkingTransport::new(2))];
        let f = FleetHandle::new(shards, FleetPolicy::default()).unwrap();
        let p0 = f.submit(tensor(0.0)).unwrap();
        let p1 = f.submit(tensor(1.0)).unwrap();
        // The third submission kills the only shard: no survivor, so the
        // submission errors and the strands cancel.
        assert!(matches!(f.submit(tensor(2.0)), Err(ServeError::ShutDown)));
        f.drain();
        assert_eq!(p0.wait(), Err(ServeError::Canceled));
        assert_eq!(p1.wait(), Err(ServeError::Canceled));
        f.shutdown();
    }

    /// An orphan that an open survivor refuses for its own image settles
    /// with that refusal, and the survivor stays in rotation: one
    /// malformed orphan must not evict the healthy seats of its group.
    #[test]
    fn refused_orphan_settles_and_the_survivor_stays_live() {
        let log: ShardLog = Arc::default();
        // Both seats take only 1×1×1 images; the survivor refuses any
        // other image before queueing it.
        let spec = ShardSpec {
            input: Some(Shape::new(1, 1, 1)),
            ..ShardSpec::default()
        };
        let survivor = shard_seat(
            Arc::clone(&log),
            BatchPolicy::new(2, Duration::from_millis(1)),
            Box::new(Inert),
            spec.clone(),
        );
        let parking = ParkingTransport {
            spec,
            ..ParkingTransport::new(1)
        };
        let shards: Vec<Box<dyn ShardTransport>> = vec![Box::new(parking), Box::new(survivor)];
        let f = FleetHandle::new(shards, FleetPolicy::new(RoutePolicy::RoundRobin)).unwrap();
        // Index 0 parks a malformed image on the dying seat and index 1
        // runs on the survivor. The third request kills the parking seat;
        // the survivor refuses its orphan, and the request retries there
        // at the released index 2.
        let orphan = f.submit(Tensor::zeros(Shape::new(2, 1, 1))).unwrap();
        let p1 = f.submit(tensor(1.0)).unwrap();
        let p2 = f.submit(tensor(2.0)).unwrap();
        assert!(matches!(
            orphan.wait(),
            Err(ServeError::Exec(ExecError::ShapeMismatch { .. }))
        ));
        assert_eq!(p1.wait().unwrap().data(), &[1001.0]);
        assert_eq!(p2.wait().unwrap().data(), &[2002.0]);
        let held: Vec<usize> = f.shard_health().iter().map(|h| h.id).collect();
        assert_eq!(held, vec![1], "the survivor was not retired");
        let p3 = f.submit(tensor(3.0)).unwrap();
        assert_eq!(p3.wait().unwrap().data(), &[3003.0]);
        f.drain();
        let seen: Vec<u64> = log.lock().unwrap().iter().map(|&(i, _)| i).collect();
        assert_eq!(seen, vec![1, 2, 3]);
        f.shutdown();
    }

    /// The live-join path: a shard added to a running fleet is programmed
    /// from the fleet seed, receives the recorded drift history, and
    /// enters the rotation — serving part of the stream without shifting
    /// anyone's coordinates.
    #[test]
    fn late_joiner_is_programmed_drifted_and_enters_rotation() {
        let log0: ShardLog = Arc::default();
        let c0 = Arc::new(RecordingControl::default());
        let f = FleetHandle::new(
            vec![local_shard(&log0, &c0)],
            FleetPolicy::new(RoutePolicy::RoundRobin),
        )
        .unwrap();
        f.submit(tensor(0.0)).unwrap().wait().unwrap();
        assert!(f.apply_drift(3.5));
        assert!(f.apply_drift(1.5));

        let log1: ShardLog = Arc::default();
        let c1 = Arc::new(RecordingControl::default());
        f.add_shard(local_shard(&log1, &c1)).unwrap();
        assert_eq!(f.shard_count(), 2);
        assert_eq!(
            *c1.reprograms.lock().unwrap(),
            1,
            "joiner programmed from the fleet seed"
        );
        assert_eq!(
            *c1.drifts.lock().unwrap(),
            vec![3.5, 1.5],
            "drift history replayed onto the joiner"
        );

        // The rotation now alternates; global indices stay contiguous and
        // solo-identical regardless of which replica serves them.
        let pendings: Vec<Pending> = (1..5)
            .map(|i| f.submit(tensor(i as f32)).unwrap())
            .collect();
        for (k, p) in pendings.into_iter().enumerate() {
            let k = (k + 1) as f32;
            assert_eq!(p.wait().unwrap().data(), &[k * 1000.0 + k]);
        }
        f.drain();
        let j: Vec<u64> = log1.lock().unwrap().iter().map(|&(i, _)| i).collect();
        assert!(!j.is_empty(), "the joiner served part of the stream");
        let mut all: Vec<u64> = log0.lock().unwrap().iter().map(|&(i, _)| i).collect();
        all.extend_from_slice(&j);
        all.sort_unstable();
        assert_eq!(all, (0..5).collect::<Vec<u64>>());

        // Reprogram clears the drift history: a post-reprogram joiner is
        // fresh-seeded with nothing to replay.
        f.reprogram().unwrap();
        let c2 = Arc::new(RecordingControl::default());
        let log2: ShardLog = Arc::default();
        f.add_shard(local_shard(&log2, &c2)).unwrap();
        assert_eq!(*c2.drifts.lock().unwrap(), Vec::<f64>::new());
        f.shutdown();

        // A closed fleet refuses joiners.
        let c3 = Arc::new(RecordingControl::default());
        let log3: ShardLog = Arc::default();
        assert!(matches!(
            f.add_shard(local_shard(&log3, &c3)),
            Err(ServeError::ShutDown)
        ));
    }

    #[test]
    fn empty_fleet_is_a_typed_error_not_a_panic() {
        match FleetHandle::new(Vec::new(), FleetPolicy::default()) {
            Err(ServeError::NoShards) => {}
            other => panic!("expected NoShards, got {other:?}"),
        }
    }

    /// A fleet class budget of zero deterministically sheds the class at
    /// the router — and the released index is re-issued to the next
    /// admitted request, so survivors keep solo-identical coordinates.
    #[test]
    fn fleet_class_budget_sheds_and_releases_the_index() {
        let log: ShardLog = Arc::default();
        let control = Arc::new(RecordingControl::default());
        let shards: Vec<Box<dyn ShardTransport>> = vec![local_shard(&log, &control)];
        let policy = FleetPolicy::default().with_class_budget(Priority::Low, 0);
        let f = FleetHandle::new(shards, policy).unwrap();

        let shed = f.submit(Request::new(tensor(7.0)).class(QosClass::low()));
        assert!(matches!(
            shed,
            Err(ServeError::Shed(ShedReason::ClassBudget))
        ));
        assert_eq!(f.images_routed(), 0, "shed before any index survived");

        // The next admitted request claims the released coordinate 0.
        let p = f
            .submit(Request::new(tensor(9.0)).class(QosClass::default()))
            .expect("normal class is unbudgeted");
        assert_eq!(p.wait().unwrap().data(), &[9.0]);

        let stats = f.stats();
        assert_eq!(stats.router.class(Priority::Low).shed_class_budget, 1);
        assert_eq!(stats.router.class(Priority::Low).admitted, 0);
        // The shard counted the admission; the router counted the shed —
        // the aggregate sees each outcome exactly once.
        let agg = stats.aggregate();
        assert_eq!(agg.qos.admitted_total(), 1);
        assert_eq!(agg.qos.shed_total(), 1);
        f.shutdown();
    }

    /// A gate the test opens and closes. A gated runner parks each batch
    /// while the gate is closed, so in-flight occupancy is deterministic
    /// at each admission check.
    #[derive(Clone, Default)]
    struct Gate(Arc<(Mutex<bool>, std::sync::Condvar)>);

    impl Gate {
        fn set(&self, open: bool) {
            let (lock, cv) = &*self.0;
            *lock.lock().unwrap() = open;
            cv.notify_all();
        }

        fn wait_open(&self) {
            let (lock, cv) = &*self.0;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }
    }

    /// A one-seat fleet over a local seat whose runner echoes
    /// `index·1000 + tag` once the returned gate is open.
    fn gated_fleet(batch: BatchPolicy, policy: FleetPolicy) -> (FleetHandle, Gate) {
        let gate = Gate::default();
        let runner_gate = gate.clone();
        let runner = move |indices: &[u64], inputs: &[Tensor]| {
            runner_gate.wait_open();
            Ok(indices
                .iter()
                .zip(inputs)
                .map(|(&idx, t)| tensor(idx as f32 * 1000.0 + t.data()[0]))
                .collect())
        };
        let shards: Vec<Box<dyn ShardTransport>> = vec![Box::new(LocalTransport::spawn(
            batch,
            Box::new(runner),
            Box::new(ControlHandle(Arc::default())),
            ShardSpec::default(),
        ))];
        (FleetHandle::new(shards, policy).unwrap(), gate)
    }

    /// A seat at its queue bound sheds a classed request with `QueueFull`
    /// and releases its index; a class-less request waits on backpressure
    /// instead and takes the released coordinate.
    #[test]
    fn seat_queue_bound_sheds_a_classed_request() {
        let (f, gate) = gated_fleet(
            BatchPolicy::new(1, Duration::from_micros(100)).with_queue_depth(1),
            FleetPolicy::default(),
        );
        let p0 = f.submit(tensor(0.0)).unwrap();
        let shed = f.submit(Request::new(tensor(1.0)).class(QosClass::default()));
        assert!(matches!(shed, Err(ServeError::Shed(ShedReason::QueueFull))));
        assert_eq!(f.images_routed(), 1, "the shed released its index");
        let p1 = f.submit(tensor(2.0)).unwrap();
        gate.set(true);
        assert_eq!(p0.wait().unwrap().data(), &[0.0]);
        assert_eq!(p1.wait().unwrap().data(), &[1002.0]);
        f.drain();
        let agg = f.stats().aggregate();
        assert_eq!(agg.qos.class(Priority::Normal).shed_queue_full, 1);
        assert_eq!(agg.qos.shed_total(), 1);
        assert_eq!(agg.qos.admitted_total(), 2);
        f.shutdown();
    }

    /// A deadline the seat's backlog cannot meet is refused as infeasible
    /// before the request queues, and its index is released.
    #[test]
    fn infeasible_deadline_is_refused_and_releases_the_index() {
        let (f, gate) = gated_fleet(
            BatchPolicy::new(1, Duration::from_micros(100)),
            FleetPolicy::default(),
        );
        // One completed batch gives the seat a service estimate.
        gate.set(true);
        let p0 = f.submit(tensor(0.0)).unwrap();
        assert_eq!(p0.wait().unwrap().data(), &[0.0]);
        gate.set(false);
        let p1 = f.submit(tensor(1.0)).unwrap();
        let class = QosClass::default().with_deadline(Duration::from_nanos(1));
        match f.submit(Request::new(tensor(2.0)).class(class)) {
            Err(ServeError::DeadlineInfeasible { estimated_wait }) => {
                assert!(estimated_wait > Duration::from_nanos(1));
            }
            other => panic!("expected an infeasible deadline, got {other:?}"),
        }
        assert_eq!(f.images_routed(), 2, "the refusal released its index");
        gate.set(true);
        assert_eq!(p1.wait().unwrap().data(), &[1001.0]);
        f.drain();
        let agg = f.stats().aggregate();
        assert_eq!(agg.qos.class(Priority::Normal).infeasible, 1);
        assert_eq!(agg.qos.admitted_total(), 2);
        f.shutdown();
    }

    /// The pacer's window throttles best-effort traffic while High
    /// bypasses it — but nothing bypasses the hard in-flight cap. Every
    /// shed releases its index, so admitted requests stay contiguous.
    #[test]
    fn pacer_sheds_normal_but_high_bypasses_the_window() {
        let pacer = PacerConfig {
            enabled: true,
            min_window: 1,
            max_window: 1,
            hard_limit: 2,
            decrease_cooldown: Duration::ZERO,
        };
        let (f, gate) = gated_fleet(
            BatchPolicy::new(4, Duration::from_micros(100)),
            FleetPolicy::default().with_pacer(pacer),
        );

        // Empty shard: window 1 admits the first request (index 0).
        let p0 = f
            .submit(Request::new(tensor(0.0)).class(QosClass::default()))
            .expect("idle shard admits");
        // One in flight ≥ window 1: Normal sheds with Overload.
        let shed = f.submit(Request::new(tensor(1.0)).class(QosClass::default()));
        assert!(matches!(shed, Err(ServeError::Shed(ShedReason::Overload))));
        // High bypasses the window (1 < hard limit 2): admitted at the
        // released coordinate 1.
        let p1 = f
            .submit(Request::new(tensor(2.0)).class(QosClass::high()))
            .expect("high priority bypasses the pacer window");
        // Two in flight = hard limit: even High sheds.
        let shed = f.submit(Request::new(tensor(3.0)).class(QosClass::high()));
        assert!(matches!(shed, Err(ServeError::Shed(ShedReason::Overload))));

        // Release the runner: survivors ran at contiguous coordinates.
        gate.set(true);
        assert_eq!(p0.wait().unwrap().data(), &[0.0]);
        assert_eq!(p1.wait().unwrap().data(), &[1.0 * 1000.0 + 2.0]);
        f.drain();
        assert_eq!(f.images_routed(), 2, "both sheds released their stamps");

        let router = f.stats().router;
        assert_eq!(router.class(Priority::Normal).shed_overload, 1);
        assert_eq!(router.class(Priority::High).shed_overload, 1);
        f.shutdown();
    }

    /// Pins the QoS merge semantics of [`FleetStats::aggregate`]: per-class
    /// counters sum across shard ledgers *and* the router's own ledger,
    /// latency samples pool (never averaged), and ECN marks add — so a
    /// congested shard's deadline misses and the router's pacer sheds are
    /// both visible in one fleet-wide ledger.
    #[test]
    fn aggregate_merges_class_ledgers_across_shards_and_router() {
        let mut shard_a = ServeStats::default();
        shard_a.qos.class_mut(Priority::High).admitted = 4;
        shard_a.qos.class_mut(Priority::High).latencies = vec![Duration::from_millis(2); 4];
        shard_a.qos.class_mut(Priority::Low).shed_queue_full = 3;
        shard_a.qos.ecn_marks = 1;

        let mut shard_b = ServeStats::default();
        shard_b.qos.class_mut(Priority::High).admitted = 1;
        shard_b.qos.class_mut(Priority::High).deadline_misses = 1;
        shard_b.qos.class_mut(Priority::High).latencies = vec![Duration::from_millis(40)];
        shard_b.qos.class_mut(Priority::Normal).infeasible = 2;

        let mut router = QosStats::default();
        router.class_mut(Priority::Low).shed_overload = 7;
        router.ecn_marks = 5;

        let agg = FleetStats {
            shards: vec![shard_a, shard_b],
            retired: ServeStats::default(),
            router,
            health: Vec::new(),
        }
        .aggregate();

        let high = agg.qos.class(Priority::High);
        assert_eq!(high.admitted, 5);
        assert_eq!(high.deadline_misses, 1);
        assert_eq!(high.latencies.len(), 5, "samples pool across shards");
        assert_eq!(
            high.latency_percentile(1.0),
            Some(Duration::from_millis(40)),
            "the congested shard's tail survives pooling"
        );
        assert_eq!(agg.qos.class(Priority::Normal).infeasible, 2);
        let low = agg.qos.class(Priority::Low);
        assert_eq!(low.shed_queue_full, 3, "shard-decided sheds counted");
        assert_eq!(low.shed_overload, 7, "router-decided sheds counted");
        assert_eq!(low.shed_total(), 10);
        assert_eq!(agg.qos.ecn_marks, 6);
        assert_eq!(agg.qos.admitted_total(), 5);
        assert_eq!(agg.qos.shed_total(), 10);
    }

    fn spec_shard(
        log: &ShardLog,
        control: &Arc<RecordingControl>,
        spec: ShardSpec,
    ) -> Box<dyn ShardTransport> {
        Box::new(shard_seat(
            Arc::clone(log),
            BatchPolicy::new(2, Duration::from_millis(1)),
            Box::new(ControlHandle(Arc::clone(control))),
            spec,
        ))
    }

    /// The registry: transports group by model id, each group owns an
    /// independent stream `0, 1, 2, …`, and requests never cross groups.
    #[test]
    fn registry_groups_by_model_id_with_independent_streams() {
        let control = Arc::new(RecordingControl::default());
        let logs: Vec<ShardLog> = (0..3).map(|_| Arc::default()).collect();
        let f = FleetHandle::new(
            vec![
                spec_shard(&logs[0], &control, ShardSpec::golden("alpha")),
                spec_shard(&logs[1], &control, ShardSpec::golden("alpha")),
                spec_shard(&logs[2], &control, ShardSpec::golden("beta")),
            ],
            FleetPolicy::new(RoutePolicy::RoundRobin),
        )
        .unwrap();
        assert_eq!(f.model_ids(), vec!["alpha".to_string(), "beta".to_string()]);

        let a: Vec<Pending> = (0..4)
            .map(|i| {
                f.submit(Request::new(tensor(i as f32)).to("alpha"))
                    .unwrap()
            })
            .collect();
        let b: Vec<Pending> = (0..3)
            .map(|i| f.submit(Request::new(tensor(i as f32)).to("beta")).unwrap())
            .collect();
        // Each model's stream starts at 0 — coordinates are per group, so
        // both models stay solo-identical.
        for (k, p) in a.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().data(), &[k as f32 * 1000.0 + k as f32]);
        }
        for (k, p) in b.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().data(), &[k as f32 * 1000.0 + k as f32]);
        }
        f.drain();
        assert_eq!(f.images_routed(), 7);
        assert_eq!(f.images_routed_for("alpha").unwrap(), 4);
        assert_eq!(f.images_routed_for("beta").unwrap(), 3);
        // Beta's only shard saw its whole stream; alpha's two split theirs.
        let beta: Vec<u64> = logs[2].lock().unwrap().iter().map(|&(i, _)| i).collect();
        assert_eq!(beta, vec![0, 1, 2]);
        let mut alpha: Vec<u64> = logs[0].lock().unwrap().iter().map(|&(i, _)| i).collect();
        alpha.extend(logs[1].lock().unwrap().iter().map(|&(i, _)| i));
        alpha.sort_unstable();
        assert_eq!(alpha, vec![0, 1, 2, 3]);

        // A request without a model id joins group 0 ("alpha") and
        // continues its stream.
        let p = f.submit(tensor(9.0)).unwrap();
        assert_eq!(p.wait().unwrap().data(), &[4.0 * 1000.0 + 9.0]);

        assert!(matches!(
            f.submit(Request::new(tensor(0.0)).to("gamma")),
            Err(ServeError::UnknownModel(id)) if id == "gamma"
        ));
        assert!(matches!(
            f.images_routed_for("gamma"),
            Err(ServeError::UnknownModel(_))
        ));
        f.shutdown();
    }

    /// One model id with two different device recipes is refused — at
    /// assembly and at live join alike.
    #[test]
    fn conflicting_specs_for_one_model_are_refused() {
        let control = Arc::new(RecordingControl::default());
        let logs: Vec<ShardLog> = (0..3).map(|_| Arc::default()).collect();
        let reseeded = ShardSpec {
            seed: 7,
            ..ShardSpec::golden("alpha")
        };
        match FleetHandle::new(
            vec![
                spec_shard(&logs[0], &control, ShardSpec::golden("alpha")),
                spec_shard(&logs[1], &control, reseeded.clone()),
            ],
            FleetPolicy::default(),
        ) {
            Err(ServeError::SpecMismatch(id)) => assert_eq!(id, "alpha"),
            other => panic!("expected SpecMismatch, got {other:?}"),
        }

        let f = FleetHandle::new(
            vec![spec_shard(&logs[0], &control, ShardSpec::golden("alpha"))],
            FleetPolicy::default(),
        )
        .unwrap();
        assert!(matches!(
            f.add_shard(spec_shard(&logs[2], &control, reseeded)),
            Err(ServeError::SpecMismatch(_))
        ));
        // A joiner with a *new* model id founds a new group instead.
        f.add_shard(spec_shard(&logs[2], &control, ShardSpec::golden("beta")))
            .unwrap();
        assert_eq!(f.model_ids(), vec!["alpha".to_string(), "beta".to_string()]);
        let p = f.submit(Request::new(tensor(1.0)).to("beta")).unwrap();
        assert_eq!(p.wait().unwrap().data(), &[1.0]);
        f.shutdown();
    }

    /// Graceful decommission: the seat drains, in-flight work finishes,
    /// later requests re-route with contiguous coordinates, and the
    /// operation is idempotent — but a group's last member is protected.
    #[test]
    fn remove_shard_drains_gracefully_and_guards_the_floor() {
        let (f, logs, _) = fleet(2, FleetPolicy::new(RoutePolicy::RoundRobin));
        let pendings: Vec<Pending> = (0..4)
            .map(|i| f.submit(tensor(i as f32)).unwrap())
            .collect();
        f.remove_shard(0).unwrap();
        assert_eq!(f.shard_count(), 1);
        // Every pre-removal request settled at its coordinate — removal
        // cancelled nothing.
        for (k, p) in pendings.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().data(), &[k as f32 * 1000.0 + k as f32]);
        }
        // Later requests land on the survivor, stream still contiguous.
        let p = f.submit(tensor(4.0)).unwrap();
        assert_eq!(p.wait().unwrap().data(), &[4.0 * 1000.0 + 4.0]);
        f.drain();
        let survivor: Vec<u64> = logs[1].lock().unwrap().iter().map(|&(i, _)| i).collect();
        assert!(survivor.contains(&4));

        f.remove_shard(0).unwrap(); // idempotent: already out of rotation
        assert!(matches!(f.remove_shard(1), Err(ServeError::LiveFloor)));
        assert!(matches!(
            f.remove_shard(9),
            Err(ServeError::UnknownShard(9))
        ));
        assert_eq!(f.shard_count(), 1, "the floor held");
        f.shutdown();
    }

    /// Background recalibration: reprogram from the spec seed plus a
    /// drift-log replay, drift age reset, stream untouched — and the
    /// group's last routable member is never taken.
    #[test]
    fn recalibrate_shard_replays_drift_and_resets_age() {
        let c0 = Arc::new(RecordingControl::default());
        let c1 = Arc::new(RecordingControl::default());
        let log0: ShardLog = Arc::default();
        let log1: ShardLog = Arc::default();
        let f = FleetHandle::new(
            vec![local_shard(&log0, &c0), local_shard(&log1, &c1)],
            FleetPolicy::new(RoutePolicy::RoundRobin),
        )
        .unwrap();
        f.submit(tensor(0.0)).unwrap().wait().unwrap();
        f.apply_drift(3.5);
        f.apply_drift(1.5);
        let health = f.shard_health();
        assert_eq!(health[0].drift_age, 2);
        assert_eq!(health[1].drift_age, 2);

        f.recalibrate_shard(0).unwrap();
        assert_eq!(
            *c0.reprograms.lock().unwrap(),
            1,
            "recal reprograms from the spec seed"
        );
        assert_eq!(
            *c0.drifts.lock().unwrap(),
            vec![3.5, 1.5, 3.5, 1.5],
            "the fleet drift history is replayed after the reprogram"
        );
        assert_eq!(*c1.reprograms.lock().unwrap(), 0, "only the target seat");
        let health = f.shard_health();
        assert_eq!(health[0].drift_age, 0, "recal resets the drift age");
        assert_eq!(health[0].recals, 1);
        assert!(!health[0].draining, "the seat returned to rotation");
        assert_eq!(health[1].drift_age, 2);

        // The stream continued where it left off — recal shifted nothing.
        let p = f.submit(tensor(1.0)).unwrap();
        assert_eq!(p.wait().unwrap().data(), &[1.0 * 1000.0 + 1.0]);
        f.drain();
        assert_eq!(f.images_routed(), 2);

        // The fleet-level stats surface the same view.
        assert_eq!(f.stats().health, f.shard_health());

        f.shutdown();
    }

    /// A one-member group refuses recalibration (the model would go dark);
    /// a retired seat refuses too.
    #[test]
    fn recalibrate_refuses_the_last_routable_member() {
        let (f, _, _) = fleet(1, FleetPolicy::default());
        assert!(matches!(f.recalibrate_shard(0), Err(ServeError::LiveFloor)));
        assert!(matches!(
            f.recalibrate_shard(3),
            Err(ServeError::UnknownShard(3))
        ));
        f.shutdown();

        let (f, _, _) = fleet(2, FleetPolicy::default());
        f.remove_shard(0).unwrap();
        assert!(matches!(f.recalibrate_shard(0), Err(ServeError::ShutDown)));
        assert!(matches!(f.recalibrate_shard(1), Err(ServeError::LiveFloor)));
        f.shutdown();
    }

    /// Seat churn keeps every view bounded by the seats in service: 300
    /// cycles each join a local seat and remove the oldest, and every
    /// fifth cycle also joins a dying seat (one that refuses everything,
    /// or one that parks a request and is then removed). After each cycle
    /// the count, the stats rows and the health rows all cover the two
    /// seats held, ids only grow, a retired id stays retired, the stream
    /// stays contiguous, and the aggregate still counts every request.
    #[test]
    fn seat_churn_keeps_only_the_seats_in_service() {
        let log: ShardLog = Arc::default();
        let control = Arc::new(RecordingControl::default());
        let f = FleetHandle::new(
            vec![local_shard(&log, &control), local_shard(&log, &control)],
            FleetPolicy::new(RoutePolicy::RoundRobin),
        )
        .unwrap();
        let mut minted = 2;
        let mut requests = 0u64;
        for cycle in 0..300 {
            f.add_shard(local_shard(&log, &control)).unwrap();
            let joined = f.shard_health().last().unwrap().id;
            assert!(joined >= minted, "ids only grow: {joined} after {minted}");
            minted = joined + 1;
            let dying = (cycle % 5 == 0).then(|| {
                let seat: Box<dyn ShardTransport> = if cycle % 10 == 0 {
                    Box::new(RefusingTransport)
                } else {
                    Box::new(ParkingTransport::new(1))
                };
                f.add_shard(seat).unwrap();
                minted += 1;
                minted - 1
            });
            let oldest = f.shard_health()[0].id;
            f.remove_shard(oldest).unwrap();
            // Round robin over the three seats in service reaches each.
            let pendings: Vec<Pending> = (0..3).map(|_| f.submit(tensor(0.0)).unwrap()).collect();
            if let Some(id) = dying {
                // Retires the parking seat with its stray, or is a no-op
                // for a seat a refusal already retired.
                f.remove_shard(id).unwrap();
            }
            f.drain();
            for p in pendings {
                assert_eq!(p.wait().unwrap().data(), &[requests as f32 * 1000.0]);
                requests += 1;
            }
            assert_eq!(f.images_routed(), requests, "the stream stays contiguous");

            let health = f.shard_health();
            let stats = f.stats();
            assert_eq!(health.len(), 2, "cycle {cycle}: {health:?}");
            assert_eq!(f.shard_count(), 2);
            assert_eq!(stats.shards.len(), 2);
            assert_eq!(stats.health, health);
            assert!(health.windows(2).all(|w| w[0].id < w[1].id));
            for gone in [Some(oldest), dying].into_iter().flatten() {
                assert!(f.remove_shard(gone).is_ok());
                assert!(matches!(
                    f.recalibrate_shard(gone),
                    Err(ServeError::ShutDown)
                ));
            }
            assert!(matches!(
                f.remove_shard(minted),
                Err(ServeError::UnknownShard(id)) if id == minted
            ));
            let agg = stats.aggregate();
            assert_eq!(agg.submitted, requests, "retired seats still count");
            assert_eq!(agg.completed, requests);
            assert!(stats.retired.queue_waits.is_empty());
        }
        f.shutdown();
    }

    /// A run of submissions longer than the routing block spans several
    /// blocks without gaps or duplicates.
    #[test]
    fn lease_exhaustion_mid_block_keeps_indices_contiguous() {
        let (f, logs, _) = fleet(
            3,
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(2),
        );
        let pendings: Vec<Pending> = (0..7)
            .map(|i| f.submit(tensor(i as f32)).unwrap())
            .collect();
        for (k, p) in pendings.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().data(), &[k as f32 * 1000.0 + k as f32]);
        }
        f.drain();
        let mut all: Vec<u64> = logs
            .iter()
            .flat_map(|l| {
                l.lock()
                    .unwrap()
                    .iter()
                    .map(|&(i, _)| i)
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<u64>>());
        f.shutdown();
    }
}
