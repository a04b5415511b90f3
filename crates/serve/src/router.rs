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
//! [`ShardSpec`] — `{model_id, xbar_cfg, noise, seed}` — and groups
//! transports by `model_id` into **model groups**. Each group owns its own
//! index allocator and routing cursors, so each model keeps its own
//! bit-identical global stream `0, 1, 2, …`;
//! requests route by model id ([`FleetHandle::submit_to`]) and never cross
//! groups. Two transports claiming one model id with different device
//! recipes are refused ([`ServeError::SpecMismatch`]) — they would compute
//! different bits for the same coordinates. The classic single-model API
//! ([`FleetHandle::submit`] etc.) targets the first group, so homogeneous
//! fleets behave exactly as before the registry existed.
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
//! The shard set is not fixed for the fleet's lifetime:
//!
//! * **Eviction.** A shard whose transport dies past its replay budget is
//!   *retired*, not mourned: routing skips it from then on (a block in
//!   progress moves to another seat), its stranded requests are harvested
//!   as [`Orphan`]s and re-submitted **at their original coordinates** on
//!   survivors, and the failed submission releases its index and retries
//!   on another shard. The caller observes nothing: the same `Pending`
//!   resolves with the same logits.
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

use crate::handle::{Pending, ServeError, ServeStats};
use crate::indices::StreamIndices;
use crate::qos::{Admission, AimdPacer, PacerConfig, Priority, QosClass, QosStats, ShedReason};
use crate::transport::{Orphan, ShardTransport};
use aimc_dnn::Tensor;
use aimc_parallel::Parallelism;
use aimc_wire::ShardSpec;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
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

/// The router's view of one shard seat: identity, availability, and the
/// calibration-freshness counters the background recalibration scheduler
/// plans from (see [`FleetHandle::shard_health`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// The model id of the group this seat belongs to.
    pub model_id: String,
    /// The seat's model-group index (stable, like shard ids).
    pub group: usize,
    /// Whether the seat is still in the routing rotation (not evicted).
    pub live: bool,
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
    /// One [`ServeStats`] snapshot per shard, in shard-id order (evicted
    /// shards keep reporting their last observed snapshot). Each
    /// snapshot's `drift_age` is the router's view of that seat (see
    /// [`ShardHealth::drift_age`]), so it is comparable across local and
    /// remote transports.
    pub shards: Vec<ServeStats>,
    /// The router's own QoS ledger: sheds decided at the fleet ingress
    /// (pacer overload, fleet class budgets) plus congestion marks the
    /// router observed. Disjoint from the shard ledgers — every admission
    /// outcome is counted exactly once, by the component that decided it.
    pub router: QosStats,
    /// One [`ShardHealth`] row per seat, in shard-id order.
    pub health: Vec<ShardHealth>,
}

impl FleetStats {
    /// The fleet-wide view: counters summed across shards, the largest
    /// batch observed anywhere, and every shard's queue-wait **samples
    /// pooled** before any percentile is taken.
    ///
    /// Pooling is deliberate: averaging per-shard percentiles would let a
    /// lightly loaded shard's fast p95 mask a congested shard's slow one.
    /// Percentiles over the merged samples weight every request equally,
    /// so `aggregate().queue_wait_percentile(0.95)` answers "what did the
    /// 95th-percentile *request* wait", not "what is the average shard
    /// like".
    pub fn aggregate(&self) -> ServeStats {
        let mut agg = ServeStats::default();
        for s in &self.shards {
            agg.submitted += s.submitted;
            agg.completed += s.completed;
            agg.rejected += s.rejected;
            agg.batches += s.batches;
            agg.dispatched += s.dispatched;
            agg.max_batch_observed = agg.max_batch_observed.max(s.max_batch_observed);
            agg.queue_waits.extend_from_slice(&s.queue_waits);
            agg.qos.merge(&s.qos);
            // Staleness is a worst-case property (the stalest replica
            // bounds the fleet's calibration freshness), so ages max
            // rather than sum; reprogram work performed does sum.
            agg.drift_age = agg.drift_age.max(s.drift_age);
            agg.reprograms += s.reprograms;
        }
        agg.qos.merge(&self.router);
        agg
    }
}

/// One model group's routing state: the shard seats serving one model id,
/// plus that model's **own** global stream — index allocator, routing
/// block cursor, and round-robin cursor. Streams never cross groups, so
/// every model keeps the bit-identical numbering `0, 1, 2, …` a solo
/// session of its spec would produce.
#[derive(Debug)]
struct GroupState {
    /// The spec every member must match exactly (replicas of one model id
    /// with different device recipes would compute different bits for the
    /// same coordinates — refused at registration).
    spec: ShardSpec,
    indices: StreamIndices,
    /// The current routing block: its seat and how many more requests it
    /// takes before the policy picks again.
    block: Option<(usize, u64)>,
    rr: usize,
    /// Member seat ids, in registration order (append-only, like seats).
    members: Vec<usize>,
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

/// Mutable routing state, under one lock: the registry's model groups and
/// the fleet-wide drift history.
#[derive(Debug)]
struct RouterState {
    /// The registry: one group per distinct model id, in first-appearance
    /// order. Group 0 is the assembly's first model — the target of the
    /// un-addressed (single-model) submission API.
    groups: Vec<GroupState>,
    /// Drift transitions applied since the last reprogram, in order —
    /// replayed onto late joiners and recalibrated shards so their
    /// conductances match the incumbents'. Fleet-wide: drift is a
    /// physical, per-device process, so every group experiences the same
    /// history.
    drift_log: Vec<f64>,
}

/// One shard's seat in the fleet: its transport, its congestion pacer,
/// and whether the router has retired it. Seats are never removed — shard
/// ids stay stable for stats and the routing cursors — they are only
/// marked evicted and skipped by routing.
struct ShardSlot {
    transport: Box<dyn ShardTransport>,
    /// This shard's AIMD congestion window, fed by its pressure marks on
    /// every QoS-gated submission. Per-shard (not global) so one
    /// backpressured remote link closes only its own window.
    pacer: Mutex<AimdPacer>,
    /// The model group this seat was registered into (fixed for the
    /// seat's lifetime).
    group: usize,
    evicted: AtomicBool,
    /// Set while a maintenance operation (graceful removal, background
    /// recalibration) keeps new work off the seat; cleared when the seat
    /// returns to rotation. Routing skips draining seats exactly like
    /// evicted ones, but the state is temporary.
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
    fn new(transport: Box<dyn ShardTransport>, pacer: PacerConfig, group: usize) -> Arc<Self> {
        Arc::new(ShardSlot {
            transport,
            pacer: Mutex::new(AimdPacer::new(pacer)),
            group,
            evicted: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            submitting: AtomicU64::new(0),
            drift_age: AtomicU64::new(0),
            recals: AtomicU64::new(0),
        })
    }

    /// Whether the router still routes to this shard.
    fn live(&self) -> bool {
        !self.evicted.load(Ordering::Acquire)
    }

    /// Whether new work may land on this seat right now: live and not
    /// held out of rotation by a maintenance drain.
    fn routable(&self) -> bool {
        self.live() && !self.draining.load(Ordering::SeqCst)
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
    /// The shard seats. Behind a `RwLock` so [`FleetHandle::add_shard`]
    /// can grow the fleet while submissions route; existing seats are
    /// never removed or reordered.
    shards: RwLock<Vec<Arc<ShardSlot>>>,
    policy: FleetPolicy,
    state: Mutex<RouterState>,
    /// Epoch of the pacers' fake-clock timestamps (cooldown bookkeeping).
    epoch: Instant,
    /// Router-side QoS ledger: only decisions made *here* (pacer
    /// overload, fleet class budgets) — shard-decided outcomes live in
    /// the shard ledgers, so [`FleetStats::aggregate`] never double
    /// counts.
    qos: Mutex<QosStats>,
    /// Bridge threads forwarding rescued orphans' results into their
    /// original completion slots; joined by drain/shutdown so a rescued
    /// request settles before either returns.
    rescues: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes the fleet-mutating maintenance operations (drift,
    /// reprogram, join, removal, recalibration) against each other —
    /// submissions never take it, so serving continues while one shard is
    /// in maintenance.
    ops: Mutex<()>,
}

impl std::fmt::Debug for FleetInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetInner")
            .field("shards", &self.shards.read().unwrap().len())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
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
    /// first-appearance order, so group 0 — the target of the un-addressed
    /// submission API — is the first transport's model). Spec-less
    /// transports report [`ShardSpec::default`] and form one homogeneous
    /// group, exactly as before the registry existed.
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
        let mut groups: Vec<GroupState> = Vec::new();
        let mut slots = Vec::with_capacity(shards.len());
        for (idx, t) in shards.into_iter().enumerate() {
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
            groups[gid].members.push(idx);
            slots.push(ShardSlot::new(t, policy.pacer, gid));
        }
        Ok(FleetHandle {
            inner: Arc::new(FleetInner {
                shards: RwLock::new(slots),
                policy,
                state: Mutex::new(RouterState {
                    groups,
                    drift_log: Vec::new(),
                }),
                epoch: Instant::now(),
                qos: Mutex::new(QosStats::default()),
                rescues: Mutex::new(Vec::new()),
                ops: Mutex::new(()),
            }),
        })
    }

    /// A point-in-time copy of the shard seats (seats are append-only, so
    /// indices in the snapshot stay valid forever).
    fn shards_snapshot(&self) -> Vec<Arc<ShardSlot>> {
        self.inner.shards.read().unwrap().clone()
    }

    /// Whether no live shard can accept work — the fleet-level shutdown
    /// condition that distinguishes "this shard died" (evict and re-route)
    /// from "everything is closed" (report [`ServeError::ShutDown`]).
    fn fleet_is_dead(&self, shards: &[Arc<ShardSlot>]) -> bool {
        shards
            .iter()
            .filter(|s| s.live())
            .all(|s| s.transport.is_closed())
    }

    /// Picks the target shard for one of `g`'s routing blocks under the
    /// routing policy, skipping evicted and draining seats. `None` when no
    /// routable member remains. (Member ids can briefly outrun an older
    /// seat snapshot while a join is in flight — such members are skipped
    /// until the submitter sees the new seat.)
    fn pick_shard(&self, g: &mut GroupState, shards: &[Arc<ShardSlot>]) -> Option<usize> {
        match self.inner.policy.route {
            RoutePolicy::RoundRobin => {
                let n = g.members.len();
                for step in 0..n {
                    let c = (g.rr + step) % n;
                    let s = g.members[c];
                    if shards.get(s).is_some_and(|slot| slot.routable()) {
                        g.rr = (c + 1) % n;
                        return Some(s);
                    }
                }
                None
            }
            RoutePolicy::LeastQueueDepth => {
                let mut best = None;
                let mut best_depth = u64::MAX;
                for &s in &g.members {
                    let Some(slot) = shards.get(s) else { continue };
                    if !slot.routable() {
                        continue;
                    }
                    let depth = slot.transport.in_flight();
                    if depth < best_depth {
                        best = Some(s);
                        best_depth = depth;
                    }
                }
                best
            }
        }
    }

    /// Claims group `gid`'s next global stream index and the shard it
    /// routes to: the current routing block's seat while the block has
    /// room and the seat is routable, otherwise the policy's pick for a
    /// new block of [`FleetPolicy::lease_len`] requests. A seat evicted or
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
    fn claim(
        &self,
        st: &mut RouterState,
        gid: usize,
        shards: &[Arc<ShardSlot>],
    ) -> Result<(usize, u64), ServeError> {
        let g = &mut st.groups[gid];
        let shard = match g.block {
            Some((seat, left)) if left > 0 && shards.get(seat).is_some_and(|s| s.routable()) => {
                g.block = Some((seat, left - 1));
                seat
            }
            _ => {
                let seat = self.pick_shard(g, shards).ok_or(ServeError::ShutDown)?;
                g.block = Some((seat, self.lease_len() - 1));
                seat
            }
        };
        shards[shard].submitting.fetch_add(1, Ordering::SeqCst);
        Ok((shard, g.indices.claim()))
    }

    /// Returns a claimed-but-unsubmitted index (the shard refused the
    /// request) so the stream has no hole — the next claim re-issues it
    /// before any fresh index, and subsequent successful requests keep
    /// their solo-identical coordinates. When the routing block is still
    /// on the refusing shard it ends, so the re-issue **re-routes** under
    /// the policy instead of re-hitting that shard.
    fn unclaim(&self, gid: usize, shard: usize, index: u64) {
        let mut st = self.inner.state.lock().unwrap();
        self.unclaim_locked(&mut st, gid, shard, index);
    }

    /// [`FleetHandle::unclaim`] with the router lock already held (the
    /// block-submission path rolls back mid-claim).
    fn unclaim_locked(&self, st: &mut RouterState, gid: usize, shard: usize, index: u64) {
        let g = &mut st.groups[gid];
        g.indices.release(index);
        if g.block.is_some_and(|(seat, _)| seat == shard) {
            g.block = None;
        }
    }

    /// Marks shard `idx` evicted; [`FleetHandle::claim`] routes around it
    /// from then on. Returns `false` when the seat was already retired (a
    /// concurrent caller owns the rescue).
    fn retire_slot(&self, shards: &[Arc<ShardSlot>], idx: usize) -> bool {
        !shards[idx].evicted.swap(true, Ordering::AcqRel)
    }

    /// Retires shard `idx` and re-routes every request stranded on it
    /// (see [`FleetHandle::rescue`]). No-op when a concurrent caller
    /// already retired the seat — orphans are harvested exactly once.
    fn evict_and_rescue(&self, shards: &[Arc<ShardSlot>], idx: usize) {
        if !self.retire_slot(shards, idx) {
            return;
        }
        self.rescue(
            shards,
            shards[idx].group,
            shards[idx].transport.take_orphans(),
        );
    }

    /// Re-submits harvested orphans **at their original coordinates** on
    /// surviving members of their model group, bridging each survivor's
    /// completion back into the orphan's original slot — so the caller's
    /// `Pending` resolves with the logits of the same stream index, and
    /// churn never shifts a coordinate. Only same-group members qualify:
    /// another group's replicas hold different conductances and would
    /// compute different bits. A survivor that refuses an orphan while
    /// staying open refused the request itself (a malformed image), so the
    /// orphan settles with that refusal and the survivor keeps serving. A
    /// survivor that refuses because it closed is retired (its strays join
    /// the worklist); with no survivor left the orphans are cancelled —
    /// the terminal outcome the settlement guarantee requires.
    fn rescue(&self, shards: &[Arc<ShardSlot>], gid: usize, orphans: Vec<Orphan>) {
        let mut work = orphans;
        'orphans: while let Some(orphan) = work.pop() {
            loop {
                let target = shards
                    .iter()
                    .enumerate()
                    .find(|(_, s)| s.group == gid && s.routable() && !s.transport.is_closed());
                let Some((i, survivor)) = target else {
                    orphan.slot.fulfill(Err(ServeError::Canceled));
                    continue 'orphans;
                };
                // Open the submit window, then re-check the draining flag:
                // either a concurrent maintenance drain sees our window and
                // waits for it, or we see its flag and pick another target
                // — a rescued request can never land on mid-calibration
                // conductances.
                survivor.submitting.fetch_add(1, Ordering::SeqCst);
                if survivor.draining.load(Ordering::SeqCst) {
                    survivor.submitting.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                let sent = survivor.transport.submit_admitted(
                    orphan.index,
                    orphan.image.clone(),
                    orphan.class,
                );
                survivor.submitting.fetch_sub(1, Ordering::SeqCst);
                match sent {
                    Ok(p) => {
                        let slot = orphan.slot;
                        let bridge = std::thread::Builder::new()
                            .name("aimc-fleet-rescue".into())
                            .spawn(move || slot.fulfill(p.wait()))
                            .expect("spawn rescue bridge");
                        self.inner.rescues.lock().unwrap().push(bridge);
                    }
                    Err(e) if !survivor.transport.is_closed() => orphan.slot.fulfill(Err(e)),
                    Err(_) => {
                        if self.retire_slot(shards, i) {
                            work.extend(shards[i].transport.take_orphans());
                        }
                        work.push(orphan);
                    }
                }
                continue 'orphans;
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
    fn sweep_strays(&self, shards: &[Arc<ShardSlot>]) -> bool {
        let mut swept = false;
        for (i, s) in shards.iter().enumerate() {
            let strays = s.transport.take_orphans();
            if strays.is_empty() {
                continue;
            }
            swept = true;
            self.retire_slot(shards, i);
            self.rescue(shards, s.group, strays);
        }
        swept
    }

    /// Joins the rescue bridge threads, so every rescued request has
    /// settled into its caller's slot.
    fn join_rescues(&self) {
        let bridges: Vec<JoinHandle<()>> = std::mem::take(&mut *self.inner.rescues.lock().unwrap());
        for b in bridges {
            let _ = b.join();
        }
    }

    /// Submits one image to the fleet: claims the next global stream index
    /// and forwards the stamped request to the current routing block's
    /// shard (starting a new block under the policy when the current one
    /// is used up). Blocks only on that shard's backpressure.
    ///
    /// A shard that refuses because its link died is **evicted**: its
    /// index is released, its stranded requests are rescued onto
    /// survivors, and the submission retries on another shard — so one
    /// dead replica costs retransmission, not errors.
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] after [`FleetHandle::shutdown`] — or once
    /// no live shard remains; [`ServeError::Exec`] when the seat refuses
    /// the image itself (a local seat checks its input shape). A refused
    /// request's index is always released back to the allocator, so the
    /// stream keeps no hole and later requests stay solo-identical.
    pub fn submit(&self, image: Tensor) -> Result<Pending, ServeError> {
        self.submit_routed(0, image)
    }

    /// [`FleetHandle::submit`] addressed to a model id: the request joins
    /// **that model's** global stream and runs on a member of its shard
    /// group — never on another model's replicas.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] when no group serves `model_id`;
    /// otherwise as [`FleetHandle::submit`].
    pub fn submit_to(&self, model_id: &str, image: Tensor) -> Result<Pending, ServeError> {
        self.submit_routed(self.resolve_model(model_id)?, image)
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

    fn submit_routed(&self, gid: usize, image: Tensor) -> Result<Pending, ServeError> {
        loop {
            let shards = self.shards_snapshot();
            let (shard, index) = {
                let mut st = self.inner.state.lock().unwrap();
                self.claim(&mut st, gid, &shards)?
            };
            let _permit = SubmitPermit(&shards[shard]);
            match shards[shard].transport.submit_indexed(index, image.clone()) {
                Ok(p) => return Ok(p),
                Err(e) => {
                    self.unclaim(gid, shard, index);
                    if shards[shard].transport.is_closed() && !self.fleet_is_dead(&shards) {
                        self.evict_and_rescue(&shards, shard);
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Records one router-decided shed in the fleet-ingress ledger.
    fn note_shed(&self, class: QosClass, reason: ShedReason) {
        self.inner
            .qos
            .lock()
            .unwrap()
            .class_mut(class.priority)
            .note_shed(reason);
    }

    /// QoS-aware submission: the typed replacement for [`FleetHandle::submit`]
    /// under load. The request claims the next global stream index and its
    /// routing block's shard, then passes the fleet-ingress admission
    /// checks in order:
    ///
    /// 1. **Pacer** — the chosen shard's congestion window
    ///    ([`AimdPacer`], fed by the shard's pressure mark on every probe).
    ///    A closed window sheds with [`ShedReason::Overload`] —
    ///    [`Priority::High`] requests bypass the window (but never the
    ///    hard in-flight cap), so pacing throttles best-effort traffic
    ///    first.
    /// 2. **Fleet class budget** — the class's fleet-wide in-flight count
    ///    against [`FleetPolicy::class_budgets`]; over budget sheds with
    ///    [`ShedReason::ClassBudget`].
    /// 3. **Shard admission** — [`ShardTransport::submit_qos`]: the
    ///    shard's own queue bound, class budgets, and deadline
    ///    feasibility.
    ///
    /// Every shed synchronously releases the claimed index back to the
    /// allocator (the PR 5 refused-submission discipline), so admitted
    /// requests always occupy the contiguous prefix `0, 1, 2, …` and stay
    /// bit-identical to a solo run — shedding changes **which** requests
    /// run, never **what** an admitted request computes. A shard whose
    /// link died is evicted and the submission retries, exactly as in
    /// [`FleetHandle::submit`].
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] after [`FleetHandle::shutdown`] or once no
    /// live shard remains (the index is released, as for `submit`).
    pub fn submit_qos(&self, image: Tensor, class: QosClass) -> Result<Admission, ServeError> {
        self.submit_qos_routed(0, image, class)
    }

    /// [`FleetHandle::submit_qos`] addressed to a model id — the same
    /// admission pipeline over **that model's** stream and shard group.
    /// The pacer and fleet class budgets stay fleet-wide: overload is a
    /// host-resource property, not a per-model one.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] when no group serves `model_id`;
    /// otherwise as [`FleetHandle::submit_qos`].
    pub fn submit_qos_to(
        &self,
        model_id: &str,
        image: Tensor,
        class: QosClass,
    ) -> Result<Admission, ServeError> {
        self.submit_qos_routed(self.resolve_model(model_id)?, image, class)
    }

    fn submit_qos_routed(
        &self,
        gid: usize,
        image: Tensor,
        class: QosClass,
    ) -> Result<Admission, ServeError> {
        loop {
            let shards = self.shards_snapshot();
            let (shard, index) = {
                let mut st = self.inner.state.lock().unwrap();
                self.claim(&mut st, gid, &shards)?
            };
            let slot = &shards[shard];
            let _permit = SubmitPermit(slot);
            // Probe the shard's congestion signal and drive its pacer
            // before committing the request.
            let load = slot.transport.load();
            let in_flight = usize::try_from(load.in_flight).unwrap_or(usize::MAX);
            let pacer_cfg = self.inner.policy.pacer;
            let window = {
                let mut pacer = slot.pacer.lock().unwrap();
                pacer.observe(load.pressure, self.inner.epoch.elapsed());
                pacer.window()
            };
            if load.pressure {
                self.inner.qos.lock().unwrap().ecn_marks += 1;
            }
            let over_hard_limit = in_flight >= pacer_cfg.hard_limit;
            let over_window = pacer_cfg.enabled && in_flight >= window;
            if over_hard_limit || (over_window && class.priority != Priority::High) {
                self.unclaim(gid, shard, index);
                self.note_shed(class, ShedReason::Overload);
                return Ok(Admission::Shed(ShedReason::Overload));
            }
            let budget = self.inner.policy.class_budgets[class.priority.rank()];
            if budget != usize::MAX {
                let mut class_in_flight = load.per_class[class.priority.rank()];
                for (i, s) in shards.iter().enumerate() {
                    if i != shard && s.live() {
                        class_in_flight += s.transport.load().per_class[class.priority.rank()];
                    }
                }
                if class_in_flight >= budget as u64 {
                    self.unclaim(gid, shard, index);
                    self.note_shed(class, ShedReason::ClassBudget);
                    return Ok(Admission::Shed(ShedReason::ClassBudget));
                }
            }
            match slot.transport.submit_qos(index, image.clone(), class) {
                Ok(Admission::Admitted(p)) => return Ok(Admission::Admitted(p)),
                Ok(refused) => {
                    // The shard shed (and counted it in its own ledger):
                    // release the index so the stream keeps no hole.
                    self.unclaim(gid, shard, index);
                    return Ok(refused);
                }
                Err(e) => {
                    self.unclaim(gid, shard, index);
                    if slot.transport.is_closed() && !self.fleet_is_dead(&shards) {
                        self.evict_and_rescue(&shards, shard);
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Submits a run of images stamped with **contiguous** global indices,
    /// claimed atomically under one router lock. Routing still happens in
    /// routing blocks: a run longer than the rest of the current block
    /// spans blocks (and possibly shards), but its indices — and therefore
    /// its results — are exactly the ones a loop of [`FleetHandle::submit`]
    /// calls would produce.
    ///
    /// A shard dying mid-run is evicted like in [`FleetHandle::submit`]:
    /// the failed and unsent indices are released, the dead shard's
    /// strays are rescued, and the remainder of the run re-claims — so
    /// the block still completes with contiguous coordinates.
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] after [`FleetHandle::shutdown`] or once no
    /// live shard remains; [`ServeError::Exec`] when a seat refuses an
    /// image of the run. Images already forwarded still complete, but
    /// their completion handles are discarded with the error; the failed
    /// and unsent images' indices are released back to the allocator.
    pub fn submit_block(
        &self,
        images: impl IntoIterator<Item = Tensor>,
    ) -> Result<Vec<Pending>, ServeError> {
        let gid = 0;
        let mut images: Vec<Tensor> = images.into_iter().collect();
        let mut pendings = Vec::with_capacity(images.len());
        'retry: loop {
            if images.is_empty() {
                return Ok(pendings);
            }
            let shards = self.shards_snapshot();
            let routes: Vec<(usize, u64)> = {
                let mut st = self.inner.state.lock().unwrap();
                let mut routes = Vec::with_capacity(images.len());
                for _ in &images {
                    match self.claim(&mut st, gid, &shards) {
                        Ok(r) => routes.push(r),
                        Err(e) => {
                            // No live shard: roll the whole batch back. Each
                            // index returns to the free set on its own, so
                            // the order of the releases does not matter.
                            for &(shard, index) in &routes {
                                shards[shard].submitting.fetch_sub(1, Ordering::SeqCst);
                                self.unclaim_locked(&mut st, gid, shard, index);
                            }
                            return Err(e);
                        }
                    }
                }
                routes
            };
            let _permits: Vec<SubmitPermit<'_>> = routes
                .iter()
                .map(|&(shard, _)| SubmitPermit(&shards[shard]))
                .collect();
            for (i, &(shard, index)) in routes.iter().enumerate() {
                match shards[shard]
                    .transport
                    .submit_indexed(index, images[i].clone())
                {
                    Ok(p) => pendings.push(p),
                    Err(e) => {
                        // Release the failed index and the whole unsent
                        // tail.
                        for &(shard, index) in &routes[i..] {
                            self.unclaim(gid, shard, index);
                        }
                        if shards[shard].transport.is_closed() && !self.fleet_is_dead(&shards) {
                            self.evict_and_rescue(&shards, shard);
                            images.drain(..i);
                            continue 'retry;
                        }
                        return Err(e);
                    }
                }
            }
            return Ok(pendings);
        }
    }

    /// Blocks until every accepted request on every shard has reached a
    /// terminal outcome — including requests stranded on dead shards,
    /// which are rescued onto survivors first — then ends every group's
    /// routing block, so the next request starts a new block under the
    /// routing policy.
    pub fn drain(&self) {
        let shards = self.shards_snapshot();
        // Loop: a transport can park orphans *during* its drain (reconnect
        // budget exhausting mid-quiesce), and a rescue re-submission lands
        // new work on a survivor — so sweep and re-drain until a full pass
        // harvests nothing. Terminates: every harvesting pass retires at
        // least one shard.
        loop {
            self.sweep_strays(&shards);
            for s in &shards {
                s.transport.drain();
            }
            self.join_rescues();
            if !self.sweep_strays(&shards) {
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
        let shards = self.shards_snapshot();
        // First sweep runs while survivors are still open, so strays are
        // rescued rather than cancelled; later passes (orphans parked
        // during a shard's own shutdown) find everything closed and
        // cancel, which is the correct post-shutdown outcome. Shutdown is
        // idempotent per transport, so re-issuing it each pass is safe.
        loop {
            self.sweep_strays(&shards);
            for s in &shards {
                s.transport.shutdown();
            }
            self.join_rescues();
            if !self.sweep_strays(&shards) {
                break;
            }
        }
    }

    /// Whether [`FleetHandle::shutdown`] has run.
    pub fn is_closed(&self) -> bool {
        self.shards_snapshot()
            .iter()
            .all(|s| s.transport.is_closed())
    }

    /// Applies conductance drift to **every** live replica at the same
    /// stream position: the fleet is drained first (all accepted requests
    /// finish on pre-drift conductances), then each shard drifts. Returns
    /// whether the replicas model drift (`false` for a golden fleet, which
    /// ignores the call).
    ///
    /// Identical replicas drifted identically stay identical — so the
    /// fleet keeps matching a solo session taken through the same
    /// transition at the same stream position. The transition is also
    /// recorded in the drift log, so a later [`FleetHandle::add_shard`]
    /// replays it onto the joiner.
    pub fn apply_drift(&self, t_hours: f64) -> bool {
        let _ops = self.inner.ops.lock().unwrap();
        self.drain();
        let shards = self.shards_snapshot();
        let mut modeled = false;
        for s in shards.iter().filter(|s| s.live()) {
            modeled |= s.transport.apply_drift(t_hours);
            s.drift_age.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.state.lock().unwrap().drift_log.push(t_hours);
        modeled
    }

    /// Reprograms **every** live replica from the original seed and
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
        let shards = self.shards_snapshot();
        for s in shards.iter().filter(|s| s.live()) {
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
        for s in self.shards_snapshot().iter().filter(|s| s.live()) {
            s.transport.set_parallelism(par);
        }
    }

    /// Adds a freshly connected shard to a running fleet — the **live
    /// join** path of elastic serving. The joiner's replica is programmed
    /// from the fleet seed via the transport's control surface, the drift
    /// history recorded since the last reprogram is replayed so its
    /// conductances match the incumbents' bit-for-bit, and the shard then
    /// enters the routing rotation, where it receives routing blocks like
    /// any other seat.
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
        let mut shards = self.inner.shards.write().unwrap();
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
        let idx = shards.len();
        shards.push(ShardSlot::new(transport, self.inner.policy.pacer, gid));
        st.groups[gid].members.push(idx);
        Ok(())
    }

    /// Blocks until every submission already claimed for `slot` has been
    /// forwarded to its transport. Callers set the seat draining first
    /// (under the router lock), so no new claim can extend the wait — the
    /// window is a few instructions plus one transport call.
    fn wait_submits(&self, slot: &ShardSlot) {
        while slot.submitting.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }

    /// Counts the seats of `slot.group` (excluding seat `idx` itself) that
    /// could serve a request right now — the live-floor guard for
    /// maintenance operations.
    fn routable_peers(&self, shards: &[Arc<ShardSlot>], idx: usize) -> usize {
        shards
            .iter()
            .enumerate()
            .filter(|(i, s)| *i != idx && s.group == shards[idx].group && s.routable())
            .count()
    }

    /// Gracefully decommissions seat `idx`: the seat leaves the routing
    /// rotation (a routing block in progress on it moves to another seat),
    /// in-flight work finishes on the shard, and the transport is shut
    /// down — no request is cancelled, no coordinate shifts, no logit
    /// changes. The counterpart of [`FleetHandle::add_shard`] for elastic
    /// scale-down.
    ///
    /// Removing an already-retired seat is a no-op (`Ok`): the seat is
    /// already out of rotation, which is what removal asks for.
    ///
    /// # Errors
    /// [`ServeError::UnknownShard`] for an id no seat ever held;
    /// [`ServeError::LiveFloor`] when the seat is its model group's last
    /// routable member — removal would strand the group's stream (shut the
    /// fleet down instead).
    pub fn remove_shard(&self, idx: usize) -> Result<(), ServeError> {
        let _ops = self.inner.ops.lock().unwrap();
        let shards = self.shards_snapshot();
        if idx >= shards.len() {
            return Err(ServeError::UnknownShard(idx));
        }
        let slot = &shards[idx];
        if !slot.live() {
            return Ok(());
        }
        if self.routable_peers(&shards, idx) == 0 {
            return Err(ServeError::LiveFloor);
        }
        self.quiesce_slot(&shards, idx);
        slot.evicted.store(true, Ordering::SeqCst);
        slot.draining.store(false, Ordering::SeqCst);
        slot.transport.shutdown();
        // A link that died mid-drain may still have parked strays — rescue
        // them onto the group's survivors so the guarantee holds even for
        // an unhealthy seat being removed.
        let strays = slot.transport.take_orphans();
        if !strays.is_empty() {
            self.rescue(&shards, slot.group, strays);
        }
        Ok(())
    }

    /// Takes seat `idx` out of rotation and waits until it is fully quiet:
    /// sets the draining flag under the router lock — so every claim that
    /// still saw the seat routable has already opened its submit window —
    /// waits out those claims, then drains the transport.
    fn quiesce_slot(&self, shards: &[Arc<ShardSlot>], idx: usize) {
        let slot = &shards[idx];
        {
            let _st = self.inner.state.lock().unwrap();
            slot.draining.store(true, Ordering::SeqCst);
        }
        self.wait_submits(slot);
        slot.transport.drain();
    }

    /// Recalibrates seat `idx` in the background: the seat drains (its
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
    /// [`ServeError::ShutDown`] if the seat was evicted; [`ServeError::LiveFloor`]
    /// when the seat is its group's last routable member (recalibrating it
    /// would leave the model unservable for the duration); any
    /// re-programming error (the seat is then retired and its strays
    /// rescued — a replica that cannot re-program is unusable).
    pub fn recalibrate_shard(&self, idx: usize) -> Result<(), ServeError> {
        let _ops = self.inner.ops.lock().unwrap();
        let shards = self.shards_snapshot();
        if idx >= shards.len() {
            return Err(ServeError::UnknownShard(idx));
        }
        let slot = &shards[idx];
        if !slot.live() {
            return Err(ServeError::ShutDown);
        }
        if self.routable_peers(&shards, idx) == 0 {
            return Err(ServeError::LiveFloor);
        }
        self.quiesce_slot(&shards, idx);
        if let Err(e) = slot.transport.reprogram() {
            slot.draining.store(false, Ordering::SeqCst);
            self.evict_and_rescue(&shards, idx);
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

    /// Number of shard seats behind the router, evicted ones included
    /// (seats are append-only, so this is also the next joiner's id).
    pub fn shard_count(&self) -> usize {
        self.inner.shards.read().unwrap().len()
    }

    /// Number of shards still in the routing rotation (not evicted).
    pub fn live_shard_count(&self) -> usize {
        self.inner
            .shards
            .read()
            .unwrap()
            .iter()
            .filter(|s| s.live())
            .count()
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
    /// target of the un-addressed submission API).
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

    /// The router's per-seat health view: group membership, availability,
    /// drift age, and recalibration count — the input the background
    /// recalibration scheduler plans from.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.shard_health_of(&self.shards_snapshot())
    }

    fn shard_health_of(&self, shards: &[Arc<ShardSlot>]) -> Vec<ShardHealth> {
        let st = self.inner.state.lock().unwrap();
        shards
            .iter()
            .map(|s| ShardHealth {
                model_id: st.groups[s.group].spec.model_id.clone(),
                group: s.group,
                live: s.live(),
                draining: s.draining.load(Ordering::SeqCst),
                drift_age: s.drift_age.load(Ordering::SeqCst),
                recals: s.recals.load(Ordering::SeqCst),
            })
            .collect()
    }

    /// The routing policy this fleet was assembled with.
    pub fn route_policy(&self) -> RoutePolicy {
        self.inner.policy.route
    }

    /// The fleet's routing block length (consecutive requests routed to
    /// one shard).
    pub fn lease_len(&self) -> u64 {
        self.inner.policy.lease_len.max(1)
    }

    /// Point-in-time statistics, per shard and aggregatable.
    pub fn stats(&self) -> FleetStats {
        let shards = self.shards_snapshot();
        let health = self.shard_health_of(&shards);
        FleetStats {
            shards: shards
                .iter()
                .map(|s| {
                    let mut stats = s.transport.stats();
                    // The router's drift-age view supersedes the
                    // transport's own count: it is reset by background
                    // recalibration (whose drift-log replay the transport
                    // counts as fresh drift) and uniform across local and
                    // remote seats.
                    stats.drift_age = s.drift_age.load(Ordering::SeqCst);
                    stats
                })
                .collect(),
            router: self.inner.qos.lock().unwrap().clone(),
            health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::pending_pair;
    use crate::transport::{LocalTransport, ShardControl};
    use crate::{spawn, BatchPolicy};
    use aimc_dnn::{ExecError, Shape};
    use std::time::Duration;

    fn tensor(v: f32) -> Tensor {
        Tensor::from_vec(Shape::new(1, 1, 1), vec![v])
    }

    /// Records (index, tag) pairs a shard's runner saw; echoes index+tag so
    /// results encode the evaluating coordinate.
    type ShardLog = Arc<Mutex<Vec<(u64, f32)>>>;

    fn shard_handle(log: ShardLog, policy: BatchPolicy) -> crate::ServeHandle {
        spawn(policy, move |indices: &[u64], inputs: &[Tensor]| {
            let mut l = log.lock().unwrap();
            for (&idx, t) in indices.iter().zip(inputs) {
                l.push((idx, t.data()[0]));
            }
            Ok(indices
                .iter()
                .zip(inputs)
                .map(|(&idx, t)| tensor(idx as f32 * 1000.0 + t.data()[0]))
                .collect())
        })
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
        Box::new(LocalTransport::new(
            shard_handle(
                Arc::clone(log),
                BatchPolicy::new(2, Duration::from_millis(1)),
            ),
            Box::new(ControlHandle(Arc::clone(control))),
        ))
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
        let shards = f.shards_snapshot();
        let claim = || {
            let (shard, index) = f
                .claim(&mut f.inner.state.lock().unwrap(), 0, &shards)
                .unwrap();
            drop(SubmitPermit(&shards[shard]));
            (shard, index)
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

    #[test]
    fn submit_block_spans_leases_with_contiguous_indices() {
        let (f, logs, _) = fleet(
            2,
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(3),
        );
        let a = f.submit_block((0..3).map(|i| tensor(i as f32))).unwrap();
        let b = f.submit_block((3..5).map(|i| tensor(i as f32))).unwrap();
        assert_eq!(f.submit_block(std::iter::empty()).unwrap().len(), 0);
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
        fn submit_indexed(&self, _index: u64, _image: Tensor) -> Result<Pending, ServeError> {
            Err(ServeError::ShutDown)
        }
        fn in_flight(&self) -> u64 {
            0
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
        assert_eq!(f.live_shard_count(), 2);
        let pendings: Vec<Pending> = (0..6)
            .map(|i| f.submit(tensor(i as f32)).unwrap())
            .collect();
        assert_eq!(
            f.live_shard_count(),
            1,
            "the dead shard was retired on first refusal"
        );
        assert_eq!(f.shard_count(), 2, "the seat itself is kept");
        for (k, p) in pendings.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().data(), &[k as f32 * 1000.0 + k as f32]);
        }
        f.drain();
        assert_eq!(f.images_routed(), 6, "no stamp was lost to the dead shard");
        let seen: Vec<u64> = log.lock().unwrap().iter().map(|&(i, _)| i).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        f.shutdown();
    }

    /// A shard dying mid-`submit_block` releases the failed index and the
    /// unsent tail, evicts the dead shard, and re-claims the remainder —
    /// the block completes whole, at contiguous coordinates, on the
    /// survivors.
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
        let pendings = f.submit_block((0..5).map(|i| tensor(i as f32))).unwrap();
        assert_eq!(pendings.len(), 5);
        assert_eq!(f.live_shard_count(), 1);
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
        parked: Mutex<Vec<Orphan>>,
        closed: AtomicBool,
    }

    impl ParkingTransport {
        fn new(accept: usize) -> Self {
            ParkingTransport {
                accept,
                accepted: Mutex::new(0),
                parked: Mutex::new(Vec::new()),
                closed: AtomicBool::new(false),
            }
        }
    }

    impl ShardTransport for ParkingTransport {
        fn submit_indexed(&self, index: u64, image: Tensor) -> Result<Pending, ServeError> {
            let mut accepted = self.accepted.lock().unwrap();
            if *accepted < self.accept {
                *accepted += 1;
                let (pending, slot) = pending_pair();
                self.parked.lock().unwrap().push(Orphan {
                    index,
                    image,
                    class: QosClass::default(),
                    slot,
                });
                Ok(pending)
            } else {
                self.closed.store(true, Ordering::Release);
                Err(ServeError::ShutDown)
            }
        }
        fn in_flight(&self) -> u64 {
            0
        }
        fn drain(&self) {}
        fn shutdown(&self) {
            self.closed.store(true, Ordering::Release);
        }
        fn is_closed(&self) -> bool {
            self.closed.load(Ordering::Acquire)
        }
        fn take_orphans(&self) -> Vec<Orphan> {
            std::mem::take(&mut *self.parked.lock().unwrap())
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
        assert_eq!(f.live_shard_count(), 1);
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

    /// A control whose replica takes only 1×1×1 images: its seat refuses
    /// any other image before queueing it.
    struct ScalarInputs;

    impl ShardControl for ScalarInputs {
        fn apply_drift(&self, _t_hours: f64) -> bool {
            false
        }
        fn reprogram(&self) -> Result<(), ExecError> {
            Ok(())
        }
        fn set_parallelism(&self, _par: Parallelism) {}
        fn check_input(&self, image: &Tensor) -> Result<(), ExecError> {
            let expected = Shape::new(1, 1, 1);
            match image.shape() {
                got if got == expected => Ok(()),
                got => Err(ExecError::ShapeMismatch { expected, got }),
            }
        }
    }

    /// An orphan that an open survivor refuses for its own image settles
    /// with that refusal, and the survivor stays in rotation: one
    /// malformed orphan must not evict the healthy seats of its group.
    #[test]
    fn refused_orphan_settles_and_the_survivor_stays_live() {
        let log: ShardLog = Arc::default();
        let survivor = LocalTransport::new(
            shard_handle(
                Arc::clone(&log),
                BatchPolicy::new(2, Duration::from_millis(1)),
            ),
            Box::new(ScalarInputs),
        );
        let shards: Vec<Box<dyn ShardTransport>> =
            vec![Box::new(ParkingTransport::new(1)), Box::new(survivor)];
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
        assert_eq!(f.live_shard_count(), 1);
        assert!(f.shard_health()[1].live, "the survivor was not retired");
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
        assert_eq!(f.live_shard_count(), 2);
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

        let shed = f.submit_qos(tensor(7.0), QosClass::low()).unwrap();
        assert_eq!(shed.shed_reason(), Some(ShedReason::ClassBudget));
        assert_eq!(f.images_routed(), 0, "shed before any index survived");

        // The next admitted request claims the released coordinate 0.
        let p = f
            .submit_qos(tensor(9.0), QosClass::default())
            .unwrap()
            .admitted()
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

    /// The pacer's window throttles best-effort traffic while High
    /// bypasses it — but nothing bypasses the hard in-flight cap. Every
    /// shed releases its index, so admitted requests stay contiguous.
    #[test]
    fn pacer_sheds_normal_but_high_bypasses_the_window() {
        use std::sync::Condvar;

        // A runner that parks every batch until the test releases it, so
        // in-flight occupancy is deterministic at each admission check.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let runner_gate = Arc::clone(&gate);
        let handle = spawn(
            BatchPolicy::new(4, Duration::from_micros(100)),
            move |indices: &[u64], inputs: &[Tensor]| {
                let (lock, cv) = &*runner_gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(indices
                    .iter()
                    .zip(inputs)
                    .map(|(&idx, t)| tensor(idx as f32 * 1000.0 + t.data()[0]))
                    .collect())
            },
        );
        let shards: Vec<Box<dyn ShardTransport>> = vec![Box::new(LocalTransport::new(
            handle,
            Box::new(ControlHandle(Arc::default())),
        ))];
        let pacer = PacerConfig {
            enabled: true,
            min_window: 1,
            max_window: 1,
            hard_limit: 2,
            decrease_cooldown: Duration::ZERO,
        };
        let f = FleetHandle::new(shards, FleetPolicy::default().with_pacer(pacer)).unwrap();

        // Empty shard: window 1 admits the first request (index 0).
        let p0 = f
            .submit_qos(tensor(0.0), QosClass::default())
            .unwrap()
            .admitted()
            .expect("idle shard admits");
        // One in flight ≥ window 1: Normal sheds with Overload.
        let shed = f.submit_qos(tensor(1.0), QosClass::default()).unwrap();
        assert_eq!(shed.shed_reason(), Some(ShedReason::Overload));
        // High bypasses the window (1 < hard limit 2): admitted at the
        // released coordinate 1.
        let p1 = f
            .submit_qos(tensor(2.0), QosClass::high())
            .unwrap()
            .admitted()
            .expect("high priority bypasses the pacer window");
        // Two in flight = hard limit: even High sheds.
        let shed = f.submit_qos(tensor(3.0), QosClass::high()).unwrap();
        assert_eq!(shed.shed_reason(), Some(ShedReason::Overload));

        // Release the runner: survivors ran at contiguous coordinates.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
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
        Box::new(LocalTransport::with_spec(
            shard_handle(
                Arc::clone(log),
                BatchPolicy::new(2, Duration::from_millis(1)),
            ),
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
            .map(|i| f.submit_to("alpha", tensor(i as f32)).unwrap())
            .collect();
        let b: Vec<Pending> = (0..3)
            .map(|i| f.submit_to("beta", tensor(i as f32)).unwrap())
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

        // The un-addressed API is group 0 ("alpha") and continues its
        // stream.
        let p = f.submit(tensor(9.0)).unwrap();
        assert_eq!(p.wait().unwrap().data(), &[4.0 * 1000.0 + 9.0]);

        assert!(matches!(
            f.submit_to("gamma", tensor(0.0)),
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
        let p = f.submit_to("beta", tensor(1.0)).unwrap();
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
        assert_eq!(f.live_shard_count(), 1);
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
        assert_eq!(f.live_shard_count(), 1, "the floor held");
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

        // The fleet-level stats surface the same view, and aggregate
        // pools ages as a max (stalest replica), reprograms as a sum.
        let stats = f.stats();
        assert_eq!(stats.health, f.shard_health());
        assert_eq!(stats.shards[0].drift_age, 0);
        assert_eq!(stats.shards[1].drift_age, 2);
        let agg = stats.aggregate();
        assert_eq!(agg.drift_age, 2);
        assert_eq!(agg.reprograms, 1);

        f.shutdown();
    }

    /// A one-member group refuses recalibration (the model would go dark);
    /// an evicted seat refuses too.
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

    /// A `submit_block` run longer than the routing block spans several
    /// blocks without gaps or duplicates.
    #[test]
    fn lease_exhaustion_mid_block_keeps_indices_contiguous() {
        let (f, logs, _) = fleet(
            3,
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(2),
        );
        let pendings = f.submit_block((0..7).map(|i| tensor(i as f32))).unwrap();
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
