//! Self-timed pipelined execution of a [`SystemMapping`] on the event-driven
//! platform simulator (Sec. IV-3/5 of the paper).
//!
//! ## Execution semantics
//!
//! The unit of flow is the *chunk* (a W-slice of one image, Sec. IV-4);
//! a batch of `B` images is a stream of `B × chunks_per_image` chunks per
//! stage. Every stage lane (replication copy) is an actor that fires its
//! next owned chunk when — exactly the three conditions of Sec. IV-5 —
//!
//! 1. all inputs for the chunk have been DMA-delivered to its L1,
//! 2. its consumers have buffer credit (it may run at most two chunks ahead
//!    of demand; skip edges get a two-image residual window),
//! 3. its IMA/CORES are free (the previous chunk's *service* is done —
//!    IMA and CORES overlap across chunks, so service is their max while
//!    chunk latency is their sum).
//!
//! Completed chunks are pushed to consumers as DMA bursts over the
//! hop-by-hop [`Fabric`]; skip (residual) tensors take two legs through
//! their assigned storage (HBM or a spare cluster's L1, Sec. V-4), with the
//! read leg issued on demand as the consuming chunk's main input lands.
//!
//! ## Event engine: one queue, conservative windows
//!
//! One [`OrderedEventQueue`] holds every stage's events. Each event packs
//! into one `u64` key (stage in 16 bits, variant in 3, edge or lane in 13,
//! chunk in 32) whose integer order is the event's derived order, so
//! equal-time events pop by `(stage, event)`; [`simulate`] refuses a run
//! whose stages, lanes, edges or chunks overflow those fields with
//! [`SimError::TooLarge`]. The loop advances global time in *windows* of
//! [`LOOKAHEAD_CYCLES`] cycles on a fixed grid. Within a window a stage
//! changes only its own state; it reads other stages' progress from a
//! snapshot taken at the window barrier, and its cross-stage effects wait
//! for that barrier:
//!
//! * **DMA bursts** enter the [`Fabric`] one window after issue (the DMA
//!   descriptor-programming latency), in `(issue, stage, emission)` order,
//!   and come back as exactly-timed delivery events;
//! * **credit wakes** (a consumer fired, freeing producer credit) land one
//!   window later (the credit-return latency), by which point the barrier
//!   snapshot already reflects the fire.
//!
//! Only windows that hold a stage event are run. Between them the fabric
//! flies event by event, up to the end of the window of the earliest stage
//! event, and a completed transfer that delivers into an earlier window
//! pulls that horizon in. Skipping the windows in between is exact: a
//! window without a stage event issues no DMA request and no credit wake
//! and fires nothing, so its barrier would do nothing, and the fabric's pop
//! order is a pure function of its pending `(time, event)` set however its
//! run is sliced.
//!
//! The run is a pure function of `(graph, mapping, arch, batch)`. The
//! window is not free fidelity-wise: issue and wake latencies shift DMA
//! traffic by 4 cycles versus a zero-lookahead engine, which is both
//! physically honest and well under the ~100-cycle chunk synchronization
//! overhead.
//!
//! Only fire attempts that can fire are queued. Each fire queues the
//! lane's next attempt at its `free_at`, so a busy lane always holds one,
//! and deliveries and credit wakes queue attempts only for lanes that are
//! free by the attempt's time and have chunks left. Skipping the others
//! leaves the makespan (the later of the last output's arrival and the
//! last stage event) unchanged: each skipped attempt lies at or before one
//! that stays queued, either the lane's own or that of the consumer whose
//! fire sent the credit wake, which comes at least [`CHUNK_SYNC_CYCLES`]
//! after that fire while the wake comes [`LOOKAHEAD_CYCLES`] after it.

use crate::power::EnergyTallies;
use aimc_core::{stage_chunk_timing, ArchConfig, EdgeKind, ResidualRoute, SystemMapping};
use aimc_dnn::Graph;
use aimc_noc::{Endpoint, Fabric, FabricReport, TxnKind};
use aimc_sim::{
    stats::{Activity, ActivityTracker},
    Cycles, EventKey, OrderedEventQueue, SimTime,
};
use std::fmt;

/// Extra per-chunk orchestration cycles (DMA descriptor programming + event
/// waits) on top of the kernel-internal setup costs.
const CHUNK_SYNC_CYCLES: u64 = 100;
/// Skip-edge credit in *consumer images* (the residual storage window).
const SKIP_SLACK_IMAGES: u64 = 2;
/// Conservative lookahead window in core cycles: the DMA-issue latency (a
/// completed chunk's burst enters the network this many cycles after the
/// descriptor is programmed) and the credit-return latency (a consumer's
/// progress becomes visible to producers after the same delay). Both are
/// physical pipeline latencies, and together they guarantee that nothing a
/// stage does inside a window can affect another stage within that same
/// window.
const LOOKAHEAD_CYCLES: u64 = 4;

/// Per-stage events. The derived order (variant order, then fields) is
/// part of the determinism contract: a stage's equal-time events drain in a
/// fixed order — deliveries and state updates first, completions next,
/// fire attempts last so they observe every update at their timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Delivered { edge: u32, pchunk: u64 },
    SkipStored { edge: u32, pchunk: u64 },
    SkipReadDone { edge: u32, cchunk: u64 },
    ChunkDone { lane: u32, chunk: u64 },
    TryFire { lane: u32 },
}

/// One queued event of one stage; equal-time events pop in the derived
/// `(stage, event)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct StageEv {
    stage: u32,
    ev: Ev,
}

/// Stage `sid`'s event `ev`, as the queue holds it.
fn stage_ev(sid: usize, ev: Ev) -> StageEv {
    StageEv {
        stage: sid as u32,
        ev,
    }
}

/// Key field widths: stage, then edge or lane, then chunk; the 3 bits
/// between stage and edge or lane hold the variant. [`validate`] refuses
/// runs whose ids overflow them.
const STAGE_BITS: u32 = 16;
const FIELD_BITS: u32 = 13;
const CHUNK_BITS: u32 = 32;

impl EventKey for StageEv {
    #[inline]
    fn key(self) -> u64 {
        let (variant, field, chunk) = match self.ev {
            Ev::Delivered { edge, pchunk } => (0, edge, pchunk),
            Ev::SkipStored { edge, pchunk } => (1, edge, pchunk),
            Ev::SkipReadDone { edge, cchunk } => (2, edge, cchunk),
            Ev::ChunkDone { lane, chunk } => (3, lane, chunk),
            Ev::TryFire { lane } => (4, lane, 0),
        };
        debug_assert!(
            self.stage >> STAGE_BITS == 0 && field >> FIELD_BITS == 0 && chunk >> CHUNK_BITS == 0
        );
        u64::from(self.stage) << (64 - STAGE_BITS)
            | variant << (FIELD_BITS + CHUNK_BITS)
            | u64::from(field) << CHUNK_BITS
            | chunk
    }

    #[inline]
    fn from_key(key: u64) -> Self {
        let field = (key >> CHUNK_BITS) as u32 & ((1 << FIELD_BITS) - 1);
        let chunk = key & ((1 << CHUNK_BITS) - 1);
        let ev = match (key >> (FIELD_BITS + CHUNK_BITS)) & 0b111 {
            0 => Ev::Delivered {
                edge: field,
                pchunk: chunk,
            },
            1 => Ev::SkipStored {
                edge: field,
                pchunk: chunk,
            },
            2 => Ev::SkipReadDone {
                edge: field,
                cchunk: chunk,
            },
            3 => Ev::ChunkDone { lane: field, chunk },
            _ => Ev::TryFire { lane: field },
        };
        StageEv {
            stage: (key >> (64 - STAGE_BITS)) as u32,
            ev,
        }
    }
}

/// What to do when a fabric transaction (all its parts) completes.
#[derive(Debug, Clone, Copy)]
enum Deliver {
    /// Queue `ev` for `stage` at the completion time.
    Edge { stage: u32, ev: Ev },
    /// A final output tile reached the HBM.
    Final { chunk: u64 },
}

/// A buffered DMA request: one logical transfer of `parts` bursts that
/// resolves to a single delivery event at the latest part completion.
#[derive(Debug)]
struct TxnReq {
    issue: SimTime,
    kind: TxnKind,
    src: Endpoint,
    parts: Vec<(Endpoint, usize)>,
    deliver: Deliver,
}

#[derive(Debug)]
struct Pending {
    remaining: u32,
    max_t: SimTime,
    deliver: Deliver,
}

/// Immutable per-edge configuration.
struct EdgeCfg {
    from: usize,
    bytes_per_cchunk: usize,
    transfers: usize,
    halo: u64,
    kind: EdgeKind,
    cp: u64, // producer chunks/image
    cc: u64, // consumer chunks/image
    /// Stream credit window in consumer chunks: two buffered tiles per lane
    /// on both sides of the edge.
    slack: u64,
    /// Byte amplification of HBM staging for skip edges: a W-slice tile of a
    /// CHW-layout tensor is non-contiguous in DRAM (one `tile_w`-byte run
    /// per (c, h) pair), so the channel moves whole 64 B beats per run —
    /// `min(64, W) / tile_w` more bytes than the tile holds. Spare-cluster
    /// staging packs tiles contiguously (amp = 1), which is precisely the
    /// Sec. V-4 advantage.
    hbm_amp: usize,
}

impl EdgeCfg {
    /// Highest producer chunk (global) the consumer chunk `c` depends on.
    fn required(&self, cchunk: u64) -> u64 {
        let img = cchunk / self.cc;
        let jl = cchunk % self.cc;
        let r = (((jl + 1) * self.cp).div_ceil(self.cc) - 1 + self.halo).min(self.cp - 1);
        img * self.cp + r
    }
}

/// Mutable per-edge state, owned by the consuming stage.
struct EdgeState {
    delivered: Vec<bool>,
    watermark: i64,
    // Skip-edge state:
    stored: Vec<bool>,
    stored_watermark: i64,
    skip_delivered: Vec<bool>,
    next_skip_request: u64,
}

impl EdgeState {
    fn advance(marks: &mut [bool], watermark: &mut i64, chunk: u64) {
        if (chunk as usize) < marks.len() {
            marks[chunk as usize] = true;
        }
        while ((*watermark + 1) as usize) < marks.len() && marks[(*watermark + 1) as usize] {
            *watermark += 1;
        }
    }
}

struct LaneRt {
    next_chunk: u64,
    free_at: SimTime,
    last_busy_end: SimTime,
    analog_busy: SimTime,
    digital_busy: SimTime,
}

impl LaneRt {
    /// Whether a fire attempt at `t` needs queueing: the lane is free by
    /// then and has chunks left. A busy lane's last fire already queued an
    /// attempt at `free_at`, and a finished lane never fires again.
    fn wants_attempt(&self, t: SimTime, total_chunks: u64) -> bool {
        self.free_at <= t && self.next_chunk < total_chunks
    }
}

/// Immutable per-stage configuration.
struct StageCfg {
    total_chunks: u64,
    n_lanes: usize,
    lane_clusters: usize,
    service: SimTime,
    latency: SimTime,
    analog_time: SimTime,
    digital_time: SimTime,
    sync_display: SimTime,
    core_cycles_per_chunk: u64,
    /// Analog MVMs tallied per fire (0 for digital-only stages).
    mvms_per_fire: u64,
    /// Expected DMA time of one chunk's inputs (bytes over the 64 B/cycle
    /// links plus per-hop latency): the cap on how much of an input-wait is
    /// attributed to *communication*; anything beyond is upstream starvation
    /// or backpressure and counts as *sleep* (the paper's head/tail idling).
    expected_comm_per_chunk: SimTime,
    edges: Vec<EdgeCfg>,
    consumers: Vec<(usize, usize)>, // (consumer stage, edge index there)
    /// Physical cluster ids in lane order (tracker slots align with this).
    clusters: Vec<usize>,
    /// Tracker slots of each lane's clusters.
    lane_slots: Vec<Vec<usize>>,
}

/// Mutable per-stage runtime state.
struct StageState {
    lanes: Vec<LaneRt>,
    edges: Vec<EdgeState>,
    next_fire: u64,
    trackers: Vec<ActivityTracker>,
}

/// The simulation between barriers: stage configuration and state, the one
/// event queue, and the buffers each barrier drains.
struct Engine<'a> {
    mapping: &'a SystemMapping,
    final_stage: usize,
    window: SimTime,
    cfgs: Vec<StageCfg>,
    stages: Vec<StageState>,
    queue: OrderedEventQueue<StageEv>,
    /// Each stage's `next_fire` as of the last barrier: what producers'
    /// credit checks read.
    snaps: Vec<u64>,
    /// Stages that fired since the last barrier (stale snapshots).
    fired: Vec<usize>,
    /// DMA requests issued since the last barrier, already in `(issue,
    /// stage, emission)` order: within a window a handler queues events only
    /// for its own stage, so the queue pops in `(time, stage)` order, and
    /// every request issues at its event's time.
    reqs: Vec<TxnReq>,
    /// Credit wakes issued since the last barrier: `(wake time, producer)`.
    wakes: Vec<(SimTime, u32)>,
    fires: Vec<FireRecord>,
    mvms: u64,
    core_cycles: u64,
}

/// Per-cluster execution-time breakdown row (Fig. 5B/C/D).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterBreakdown {
    /// Physical cluster id (pipeline order).
    pub cluster: usize,
    /// Stage the cluster belongs to.
    pub stage_name: String,
    /// Fig. 7 layer group.
    pub group: usize,
    /// Time computing (IMA and/or CORES).
    pub compute: SimTime,
    /// Time blocked on data movement.
    pub communication: SimTime,
    /// Per-chunk orchestration time.
    pub synchronization: SimTime,
    /// Idle (head/tail of pipeline, backpressure).
    pub sleep: SimTime,
    /// Whether the cluster's compute is analog-dominated (green vs red bars
    /// in Fig. 5).
    pub analog_bound: bool,
}

/// One chunk execution, for timeline reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FireRecord {
    /// Stage id in the mapping.
    pub stage: u32,
    /// Lane within the stage.
    pub lane: u32,
    /// Global chunk index (image-major).
    pub chunk: u64,
    /// Service start.
    pub start: SimTime,
    /// Service end (lane free again).
    pub end: SimTime,
}

/// A run request the simulator cannot execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run was asked to simulate zero images.
    ZeroBatch,
    /// The mapping does not describe the graph it is being simulated with.
    MappingMismatch(String),
    /// The run has more stages, lanes, edges or chunks than the event
    /// key's fields can number.
    TooLarge(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ZeroBatch => write!(f, "batch must be positive"),
            SimError::MappingMismatch(why) => write!(f, "mapping/graph mismatch: {why}"),
            SimError::TooLarge(why) => write!(f, "run too large for the event key: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Results of one pipelined batch execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Images in the batch.
    pub batch: usize,
    /// End-to-end makespan (first input chunk to last output at HBM).
    pub makespan: SimTime,
    /// Completion time of each image at the network output.
    pub image_completions: Vec<SimTime>,
    /// Median steady-state inter-image interval.
    pub steady_interval: SimTime,
    /// Nominal DNN operations executed (2×MACs × batch).
    pub nominal_ops: u64,
    /// Useful crossbar operations (occupied cells only).
    pub useful_ops: u64,
    /// Executed crossbar operations (full arrays, incl. idle cells).
    pub executed_ops: u64,
    /// Per-cluster activity breakdown, pipeline order.
    pub clusters: Vec<ClusterBreakdown>,
    /// Energy-relevant activity tallies.
    pub tallies: EnergyTallies,
    /// Busy time of the HBM controller.
    pub hbm_busy: SimTime,
    /// Bytes through the HBM controller.
    pub hbm_bytes: u64,
    /// Simulator events processed, a measure of host cost rather than of
    /// the modeled platform: the stage events of the one pipeline queue
    /// (chunk completions, input deliveries and the fire attempts that
    /// could fire) plus the fabric's [`FabricReport::events`].
    pub events: u64,
    /// Every chunk execution, sorted by `(start, stage, chunk)` (timeline
    /// reconstruction).
    pub fires: Vec<FireRecord>,
    /// Per-link NoC utilization and peak demand.
    pub fabric: FabricReport,
}

impl RunReport {
    /// Nominal throughput in TOPS over the makespan.
    pub fn tops(&self) -> f64 {
        self.nominal_ops as f64 / self.makespan.as_s_f64() / 1e12
    }

    /// Steady-state images per second (1 / median inter-image interval).
    pub fn images_per_s(&self) -> f64 {
        if self.steady_interval == SimTime::ZERO {
            self.batch as f64 / self.makespan.as_s_f64()
        } else {
            1.0 / self.steady_interval.as_s_f64()
        }
    }

    /// Crossbar-executed TOPS (full-array ops over makespan) — the
    /// device-centric convention discussed in DESIGN.md §7.
    pub fn tops_executed(&self) -> f64 {
        self.executed_ops as f64 / self.makespan.as_s_f64() / 1e12
    }
}

fn validate(graph: &Graph, mapping: &SystemMapping, batch: usize) -> Result<(), SimError> {
    if batch == 0 {
        return Err(SimError::ZeroBatch);
    }
    if mapping.stages.is_empty() || mapping.node_final_stage.is_empty() {
        return Err(SimError::MappingMismatch("mapping has no stages".into()));
    }
    if mapping.node_final_stage.len() != graph.len() {
        return Err(SimError::MappingMismatch(format!(
            "mapping covers {} graph nodes, graph has {}",
            mapping.node_final_stage.len(),
            graph.len()
        )));
    }
    let n_stages = mapping.stages.len();
    for (nid, &sid) in mapping.node_final_stage.iter().enumerate() {
        if sid >= n_stages {
            return Err(SimError::MappingMismatch(format!(
                "node {nid} maps to stage {sid} of {n_stages}"
            )));
        }
    }
    for (sid, s) in mapping.stages.iter().enumerate() {
        for e in &s.producers {
            if e.from >= n_stages {
                return Err(SimError::MappingMismatch(format!(
                    "stage {sid} consumes from stage {} of {n_stages}",
                    e.from
                )));
            }
        }
    }
    // Every stage event packs its ids into one key (see `StageEv`).
    let fits = |n: usize, bits: u32| n as u64 <= 1 << bits;
    let too_large = |why: String| Err(SimError::TooLarge(why));
    if !fits(n_stages, STAGE_BITS) {
        return too_large(format!("{n_stages} stages, at most {}", 1u64 << STAGE_BITS));
    }
    for (sid, s) in mapping.stages.iter().enumerate() {
        let (lanes, edges) = (s.lanes, s.producers.len());
        if !fits(lanes, FIELD_BITS) || !fits(edges, FIELD_BITS) {
            return too_large(format!(
                "stage {sid} has {lanes} lanes and {edges} input edges, at most {} each",
                1u64 << FIELD_BITS
            ));
        }
        let per_image = s.tiling.chunks_per_image;
        if !batch
            .checked_mul(per_image)
            .is_some_and(|c| fits(c, CHUNK_BITS))
        {
            return too_large(format!(
                "stage {sid} has {batch} images of {per_image} chunks, at most {} chunks",
                1u64 << CHUNK_BITS
            ));
        }
    }
    Ok(())
}

/// Simulates one batch through the mapped pipeline.
///
/// The report is a pure function of `(graph, mapping, arch, batch)` (see
/// the module docs for the event engine).
pub fn simulate(
    graph: &Graph,
    mapping: &SystemMapping,
    arch: &ArchConfig,
    batch: usize,
) -> Result<RunReport, SimError> {
    validate(graph, mapping, batch)?;
    let n_stages = mapping.stages.len();
    let freq = arch.frequency;
    let sync_extra = freq.cycles_to_time(Cycles(CHUNK_SYNC_CYCLES));
    let window = freq.cycles_to_time(Cycles(LOOKAHEAD_CYCLES));
    let window_ps = window.as_ps().max(1);

    // ---- Build immutable configuration and per-stage state -------------------
    let mut cfgs: Vec<StageCfg> = Vec::with_capacity(n_stages);
    let mut stages: Vec<StageState> = Vec::with_capacity(n_stages);
    let mut queue = OrderedEventQueue::new();
    for (sid, s) in mapping.stages().iter().enumerate() {
        let t = stage_chunk_timing(s, arch);
        let total_chunks = (batch * s.tiling.chunks_per_image) as u64;
        let edges: Vec<EdgeCfg> = s
            .producers
            .iter()
            .map(|e| {
                let ptiling = &mapping.stages[e.from].tiling;
                let hbm_amp =
                    (ptiling.ofm.w.min(arch.noc.hbm.width_bytes) / ptiling.out_tile_w).max(1);
                EdgeCfg {
                    from: e.from,
                    bytes_per_cchunk: e.bytes_per_chunk,
                    transfers: e.transfers,
                    halo: e.halo_chunks as u64,
                    kind: e.kind,
                    cp: ptiling.chunks_per_image as u64,
                    cc: s.tiling.chunks_per_image as u64,
                    slack: 2 * s.lanes as u64 + 2 * mapping.stages[e.from].lanes as u64,
                    hbm_amp,
                }
            })
            .collect();
        let edge_states: Vec<EdgeState> = edges
            .iter()
            .map(|e| {
                let total_p = (e.cp * batch as u64) as usize;
                let is_skip = matches!(e.kind, EdgeKind::Skip { .. });
                EdgeState {
                    delivered: vec![false; total_p],
                    watermark: -1,
                    stored: if is_skip {
                        vec![false; total_p]
                    } else {
                        vec![]
                    },
                    stored_watermark: -1,
                    skip_delivered: if is_skip {
                        vec![false; total_chunks as usize]
                    } else {
                        vec![]
                    },
                    next_skip_request: 0,
                }
            })
            .collect();
        let sync_display = if s.digital_per_chunk.is_empty() {
            sync_extra
        } else {
            sync_extra + freq.cycles_to_time(Cycles(arch.cluster.kernel_launch_cycles))
        };
        let comm_cycles: u64 = s
            .producers
            .iter()
            .map(|e| (e.bytes_per_chunk / 64) as u64 + 40)
            .sum();
        let core_cycles_per_chunk = if s.digital_per_chunk.is_empty() {
            0
        } else {
            aimc_cluster::DigitalEngine::new(
                arch.cluster.n_cores,
                arch.cluster.kernel_launch_cycles,
                freq,
            )
            .run_all(&s.digital_per_chunk)
            .core_cycles
        };
        let mut clusters = Vec::new();
        let mut lane_slots = Vec::with_capacity(s.lanes);
        for l in 0..s.lanes {
            let mut slots = Vec::with_capacity(s.lane_clusters);
            if s.lane_clusters > 0 {
                for &c in s.lane(l) {
                    slots.push(clusters.len());
                    clusters.push(c);
                }
            }
            lane_slots.push(slots);
        }
        let trackers = clusters
            .iter()
            .map(|_| ActivityTracker::new(SimTime::ZERO))
            .collect();
        for l in 0..s.lanes {
            queue.push(SimTime::ZERO, stage_ev(sid, Ev::TryFire { lane: l as u32 }));
        }
        cfgs.push(StageCfg {
            total_chunks,
            n_lanes: s.lanes,
            lane_clusters: s.lane_clusters,
            service: t.service + sync_extra,
            latency: t.latency + sync_extra,
            analog_time: t.analog,
            digital_time: t.digital,
            sync_display: sync_display.min(t.service + sync_extra),
            core_cycles_per_chunk,
            mvms_per_fire: s
                .analog
                .as_ref()
                .map_or(0, |a| a.job.n_mvm * s.lane_clusters as u64),
            expected_comm_per_chunk: freq.cycles_to_time(Cycles(comm_cycles)),
            edges,
            consumers: vec![],
            clusters,
            lane_slots,
        });
        stages.push(StageState {
            lanes: (0..s.lanes)
                .map(|l| LaneRt {
                    next_chunk: l as u64,
                    free_at: SimTime::ZERO,
                    last_busy_end: SimTime::ZERO,
                    analog_busy: SimTime::ZERO,
                    digital_busy: SimTime::ZERO,
                })
                .collect(),
            edges: edge_states,
            next_fire: 0,
            trackers,
        });
    }
    // Reverse edges.
    for sid in 0..n_stages {
        for (eidx, e) in mapping.stages[sid].producers.iter().enumerate() {
            cfgs[e.from].consumers.push((sid, eidx));
        }
    }

    let final_stage = *mapping.node_final_stage.last().expect("mapping has nodes");
    let final_chunks_per_image = mapping.stages[final_stage].tiling.chunks_per_image as u64;
    let mut final_done_per_image = vec![0u64; batch];
    let mut image_completions = vec![SimTime::ZERO; batch];
    let mut final_max = SimTime::ZERO;

    let mut fabric = Fabric::new(arch.noc.clone());
    // In-flight DMA requests by fabric tag; finished slots are reused.
    let mut pending: Vec<Pending> = Vec::new();
    let mut free_tags: Vec<u64> = Vec::new();
    let mut eng = Engine {
        mapping,
        final_stage,
        window,
        cfgs,
        stages,
        queue,
        snaps: vec![0; n_stages],
        fired: Vec::new(),
        reqs: Vec::new(),
        wakes: Vec::new(),
        fires: Vec::new(),
        mvms: 0,
        core_cycles: 0,
    };

    // ---- Event loop ----------------------------------------------------------
    // The end of the lookahead-grid window that holds `t`.
    let window_end = |t: SimTime| SimTime::from_ps((t.as_ps() / window_ps) * window_ps) + window;
    loop {
        // The next window is the one of the earliest stage event; the
        // windows before it hold only fabric events.
        let mut horizon = eng.queue.peek_time().map_or(SimTime::MAX, window_end);

        // Barrier: fly the fabric up to the horizon and deliver completed
        // transfers into their stages at exact completion times. A delivery
        // into an earlier window pulls the horizon in to that window.
        while let Some((t, tag)) = fabric.next_completion_before(horizon) {
            let p = &mut pending[tag as usize];
            p.remaining -= 1;
            p.max_t = p.max_t.max(t);
            if p.remaining > 0 {
                continue;
            }
            free_tags.push(tag);
            match p.deliver {
                Deliver::Edge { stage, ev } => {
                    eng.queue.push(p.max_t, StageEv { stage, ev });
                    horizon = horizon.min(window_end(p.max_t));
                }
                Deliver::Final { chunk } => {
                    let img = (chunk / final_chunks_per_image) as usize;
                    final_done_per_image[img] += 1;
                    if final_done_per_image[img] == final_chunks_per_image {
                        image_completions[img] = p.max_t;
                    }
                    final_max = final_max.max(p.max_t);
                }
            }
        }
        if eng.queue.is_empty() {
            // With no stage event left the horizon stayed open, so the
            // fabric has drained.
            break;
        }

        // The window: every stage event before the horizon.
        while let Some((now, StageEv { stage, ev })) = eng.queue.pop_before(horizon) {
            eng.handle(now, stage as usize, ev);
        }

        // Barrier: the window's DMA requests enter the fabric one window
        // after issue, its credit wakes become fire attempts, and the
        // stages that fired publish their progress.
        for r in eng.reqs.drain(..) {
            let p = Pending {
                remaining: r.parts.len() as u32,
                max_t: SimTime::ZERO,
                deliver: r.deliver,
            };
            let tag = match free_tags.pop() {
                Some(tag) => {
                    pending[tag as usize] = p;
                    tag
                }
                None => {
                    pending.push(p);
                    pending.len() as u64 - 1
                }
            };
            for (dst, bytes) in r.parts {
                fabric.inject(r.issue + window, r.kind, r.src, dst, bytes, tag);
            }
        }
        eng.wakes.sort_unstable();
        eng.wakes.dedup();
        for (t, s) in eng.wakes.drain(..) {
            let total = eng.cfgs[s as usize].total_chunks;
            for (lane, ln) in eng.stages[s as usize].lanes.iter().enumerate() {
                if ln.wants_attempt(t, total) {
                    let lane = lane as u32;
                    eng.queue
                        .push(t, stage_ev(s as usize, Ev::TryFire { lane }));
                }
            }
        }
        for sid in eng.fired.drain(..) {
            eng.snaps[sid] = eng.stages[sid].next_fire;
        }
    }
    debug_assert!(fabric.is_idle(), "fabric drained with the event loop");

    // ---- Collect -------------------------------------------------------------
    let Engine {
        cfgs,
        stages,
        queue,
        mut fires,
        mvms,
        core_cycles,
        ..
    } = eng;
    let makespan = final_max.max(queue.now());
    let mut tallies = EnergyTallies {
        mvms,
        core_cycles,
        ..EnergyTallies::default()
    };
    fires.sort_by_key(|f| (f.start, f.stage, f.chunk));

    let mut clusters = Vec::new();
    for (sid, s) in mapping.stages().iter().enumerate() {
        for l in 0..s.lanes {
            if s.lane_clusters == 0 {
                continue;
            }
            let analog_bound = stages[sid].lanes[l].analog_busy
                >= stages[sid].lanes[l].digital_busy
                && stages[sid].lanes[l].analog_busy > SimTime::ZERO;
            for &slot in &cfgs[sid].lane_slots[l] {
                let mut tr = stages[sid].trackers[slot].clone();
                tr.finish(makespan);
                clusters.push(ClusterBreakdown {
                    cluster: cfgs[sid].clusters[slot],
                    stage_name: s.name.clone(),
                    group: s.group,
                    compute: tr.time_in(Activity::Compute),
                    communication: tr.time_in(Activity::Communication),
                    synchronization: tr.time_in(Activity::Synchronization),
                    sleep: tr.time_in(Activity::Sleep),
                    analog_bound,
                });
            }
        }
    }
    for &c in &mapping.residuals.storage_clusters {
        let mut tr = ActivityTracker::new(SimTime::ZERO);
        tr.finish(makespan);
        clusters.push(ClusterBreakdown {
            cluster: c,
            stage_name: "residual-storage".into(),
            group: 5,
            compute: tr.time_in(Activity::Compute),
            communication: tr.time_in(Activity::Communication),
            synchronization: tr.time_in(Activity::Synchronization),
            sleep: tr.time_in(Activity::Sleep),
            analog_bound: false,
        });
    }
    clusters.sort_by_key(|c| c.cluster);

    // Ops accounting.
    let mut useful_ops = 0u64;
    let mut executed_ops = 0u64;
    for (sid, s) in mapping.stages().iter().enumerate() {
        if let Some(a) = &s.analog {
            let fired: u64 = stages[sid]
                .lanes
                .iter()
                .map(|l| l.next_chunk / stages[sid].lanes.len().max(1) as u64)
                .sum::<u64>()
                .min(cfgs[sid].total_chunks);
            let per_chunk_useful =
                2 * (a.split.rows_total * a.split.cols_total) as u64 * a.job.n_mvm;
            let full = (arch.cluster.ima.xbar.rows * arch.cluster.ima.xbar.cols) as u64;
            let per_chunk_exec = 2 * full * a.job.n_mvm * a.split.imas() as u64;
            useful_ops += per_chunk_useful * fired;
            executed_ops += per_chunk_exec * fired;
        }
    }

    let fabric_report = fabric.report();
    // Interconnect energy: bytes × levels crossed, plus HBM bytes.
    let mut byte_hops = 0u64;
    for level in 1..=arch.noc.n_levels() {
        byte_hops += fabric_report.level_bytes(level);
    }
    tallies.noc_byte_hops = byte_hops;
    tallies.hbm_bytes = fabric.hbm_bytes();
    tallies.cluster_seconds = mapping.n_clusters_used as f64 * makespan.as_s_f64();

    // Steady-state interval: median of inter-image completion gaps.
    let mut comps = image_completions.clone();
    comps.sort();
    let mut gaps: Vec<u64> = comps
        .windows(2)
        .map(|w| (w[1].saturating_sub(w[0])).as_ps())
        .collect();
    gaps.sort_unstable();
    let steady = if gaps.is_empty() {
        SimTime::ZERO
    } else {
        SimTime::from_ps(gaps[gaps.len() / 2])
    };

    let events = queue.events_processed() + fabric_report.events;
    Ok(RunReport {
        batch,
        makespan,
        image_completions,
        steady_interval: steady,
        nominal_ops: graph.total_ops() * batch as u64,
        useful_ops,
        executed_ops,
        clusters,
        tallies,
        hbm_busy: fabric.hbm_busy(),
        hbm_bytes: fabric.hbm_bytes(),
        events,
        fires,
        fabric: fabric_report,
    })
}

/// Representative cluster of a stage lane (DMA endpoint), HBM for
/// cluster-less stages.
fn lane_endpoint(mapping: &SystemMapping, sid: usize, lane: usize) -> Endpoint {
    let st = &mapping.stages[sid];
    if st.lane_clusters == 0 {
        Endpoint::Hbm
    } else {
        Endpoint::Cluster(st.lane(lane % st.lanes)[0])
    }
}

impl Engine<'_> {
    /// Handles one event of stage `sid`. Only that stage's state changes;
    /// every cross-stage effect is buffered for the next barrier.
    fn handle(&mut self, now: SimTime, sid: usize, ev: Ev) {
        let cfg = &self.cfgs[sid];
        let st = &mut self.stages[sid];
        let mapping = self.mapping;
        match ev {
            Ev::TryFire { lane } => self.try_fire(now, sid, lane),

            Ev::ChunkDone { lane, chunk } => {
                if cfg.consumers.is_empty() && sid == self.final_stage {
                    // Ship the network output to HBM.
                    let bytes = mapping.stages[sid].tiling.out_tile_bytes();
                    self.reqs.push(TxnReq {
                        issue: now,
                        kind: TxnKind::Write,
                        src: lane_endpoint(mapping, sid, lane as usize),
                        parts: vec![(Endpoint::Hbm, bytes)],
                        deliver: Deliver::Final { chunk },
                    });
                }
                for &(cid, eidx) in &cfg.consumers {
                    let e = &self.cfgs[cid].edges[eidx];
                    let bytes_pp =
                        ((e.bytes_per_cchunk as u64 * e.cc).div_ceil(e.cp) as usize).max(1);
                    let transfers = e.transfers.max(1);
                    let src = lane_endpoint(mapping, sid, lane as usize);
                    match e.kind {
                        EdgeKind::Stream => {
                            // Deliver to the consumer lane that will use it.
                            let j0 = (chunk * e.cc) / e.cp;
                            let cstage = &mapping.stages[cid];
                            let clane = (j0 % cstage.lanes as u64) as usize;
                            let per = bytes_pp.div_ceil(transfers);
                            let parts = (0..transfers)
                                .map(|i| {
                                    let dst = if cstage.lane_clusters == 0 {
                                        Endpoint::Hbm
                                    } else {
                                        Endpoint::Cluster(
                                            cstage.lane(clane)[i % cstage.lane_clusters],
                                        )
                                    };
                                    (dst, per)
                                })
                                .collect();
                            self.reqs.push(TxnReq {
                                issue: now,
                                kind: TxnKind::Write,
                                src,
                                parts,
                                deliver: Deliver::Edge {
                                    stage: cid as u32,
                                    ev: Ev::Delivered {
                                        edge: eidx as u32,
                                        pchunk: chunk,
                                    },
                                },
                            });
                        }
                        EdgeKind::Skip { via } => {
                            // First leg: producer -> storage. HBM staging
                            // pays the CHW scatter amplification.
                            let (dst, amp) = match via {
                                ResidualRoute::Hbm => (Endpoint::Hbm, e.hbm_amp),
                                ResidualRoute::StorageCluster(c) => (Endpoint::Cluster(c), 1),
                            };
                            self.reqs.push(TxnReq {
                                issue: now,
                                kind: TxnKind::Write,
                                src,
                                parts: vec![(dst, bytes_pp * amp)],
                                deliver: Deliver::Edge {
                                    stage: cid as u32,
                                    ev: Ev::SkipStored {
                                        edge: eidx as u32,
                                        pchunk: chunk,
                                    },
                                },
                            });
                        }
                    }
                }
            }

            Ev::Delivered { edge, pchunk } => {
                let es = &mut st.edges[edge as usize];
                EdgeState::advance(&mut es.delivered, &mut es.watermark, pchunk);
                request_skip_reads(sid, st, cfg, mapping, now, &mut self.reqs);
                for (lane, ln) in st.lanes.iter().enumerate() {
                    if ln.wants_attempt(now, cfg.total_chunks) {
                        let lane = lane as u32;
                        self.queue.push(now, stage_ev(sid, Ev::TryFire { lane }));
                    }
                }
            }

            Ev::SkipStored { edge, pchunk } => {
                let es = &mut st.edges[edge as usize];
                EdgeState::advance(&mut es.stored, &mut es.stored_watermark, pchunk);
                request_skip_reads(sid, st, cfg, mapping, now, &mut self.reqs);
            }

            Ev::SkipReadDone { edge, cchunk } => {
                st.edges[edge as usize].skip_delivered[cchunk as usize] = true;
                let lane = (cchunk % cfg.n_lanes as u64) as u32;
                if st.lanes[lane as usize].wants_attempt(now, cfg.total_chunks) {
                    self.queue.push(now, stage_ev(sid, Ev::TryFire { lane }));
                }
            }
        }
    }

    /// Fires the lane's next chunk if its inputs are in, its consumers have
    /// credit and the lane is free. Every way out that can still fire later
    /// has something to wake it: the attempt the lane's last fire queued at
    /// `free_at` while it is busy, `Delivered` or `SkipReadDone` for inputs,
    /// a consumer's credit wake for credit.
    fn try_fire(&mut self, now: SimTime, sid: usize, lane: u32) {
        let cfg = &self.cfgs[sid];
        let st = &mut self.stages[sid];
        let l = lane as usize;
        let k = st.lanes[l].next_chunk;
        if k >= cfg.total_chunks {
            return;
        }
        if st.lanes[l].free_at > now {
            // The fire that set `free_at` queued the re-check for then.
            return;
        }
        // Input readiness.
        let input_ready = cfg.edges.iter().zip(&st.edges).all(|(e, es)| match e.kind {
            EdgeKind::Stream => es.watermark >= e.required(k) as i64,
            EdgeKind::Skip { .. } => es.skip_delivered[k as usize],
        });
        if !input_ready {
            return;
        }
        // Consumer credit, against the window-barrier snapshot of each
        // consumer's progress (stale by at most one lookahead window —
        // strictly conservative, since `next_fire` only grows).
        let credit = cfg.consumers.iter().all(|&(cid, eidx)| {
            let ccfg = &self.cfgs[cid];
            let cons_next = self.snaps[cid];
            if cons_next >= ccfg.total_chunks {
                return true;
            }
            let e = &ccfg.edges[eidx];
            let slack = match e.kind {
                EdgeKind::Stream => e.slack,
                EdgeKind::Skip { .. } => SKIP_SLACK_IMAGES * e.cc,
            };
            let h = (cons_next + slack).min(ccfg.total_chunks - 1);
            k <= e.required(h)
        });
        if !credit {
            return;
        }

        // ---- Fire chunk k on (sid, l) -----------------------------------------
        let n_lanes = cfg.n_lanes as u64;
        let ln = &mut st.lanes[l];
        let start = now;
        ln.free_at = start + cfg.service;
        ln.next_chunk += n_lanes;
        ln.analog_busy += cfg.analog_time;
        ln.digital_busy += cfg.digital_time;
        let busy_end = start + cfg.service;
        let prev_end = ln.last_busy_end;
        ln.last_busy_end = busy_end;
        st.next_fire = st.lanes.iter().map(|x| x.next_chunk).min().unwrap_or(0);
        self.fired.push(sid);
        self.fires.push(FireRecord {
            stage: sid as u32,
            lane,
            chunk: k,
            start,
            end: busy_end,
        });
        self.queue.push(
            start + cfg.latency,
            stage_ev(sid, Ev::ChunkDone { lane, chunk: k }),
        );

        // Activity attribution on the lane's clusters: waits are
        // communication up to the expected DMA time of the chunk's inputs;
        // the remainder is sleep (starvation or backpressure — the paper's
        // head/tail idling).
        if cfg.lane_clusters > 0 {
            let first_fire = prev_end == SimTime::ZERO && start > SimTime::ZERO;
            for &slot in &cfg.lane_slots[l] {
                let tr = &mut st.trackers[slot];
                if !first_fire && start > prev_end {
                    let comm_start = start
                        .saturating_sub(cfg.expected_comm_per_chunk)
                        .max(prev_end);
                    tr.set_state(comm_start, Activity::Communication);
                }
                tr.set_state(start, Activity::Synchronization);
                tr.set_state(start + cfg.sync_display, Activity::Compute);
                tr.set_state(busy_end, Activity::Sleep);
            }
        }

        // Energy tallies: analog MVMs on every split cluster of the lane,
        // serial core cycles from the kernel model.
        self.mvms += cfg.mvms_per_fire;
        self.core_cycles += cfg.core_cycles_per_chunk;

        // Wake producers one window out (credit freed; by then the barrier
        // snapshot reflects this fire).
        for e in &cfg.edges {
            self.wakes.push((now + self.window, e.from as u32));
        }
        // Residual reads may be unblocked by our own progress.
        request_skip_reads(sid, st, cfg, self.mapping, now, &mut self.reqs);

        // The lane might have another ready chunk only after free_at.
        self.queue
            .push(st.lanes[l].free_at, stage_ev(sid, Ev::TryFire { lane }));
    }
}

/// Issues on-demand read legs for skip edges whose consumer chunks became
/// main-input-ready (Sec. V-4: residuals are fetched from storage just in
/// time for the joining chunk). The reads are buffered like any other DMA
/// request and resolve to `SkipReadDone` events.
fn request_skip_reads(
    sid: usize,
    st: &mut StageState,
    cfg: &StageCfg,
    mapping: &SystemMapping,
    now: SimTime,
    reqs: &mut Vec<TxnReq>,
) {
    let n_edges = cfg.edges.len();
    if !cfg
        .edges
        .iter()
        .any(|e| matches!(e.kind, EdgeKind::Skip { .. }))
    {
        return;
    }
    let lanes = cfg.n_lanes as u64;
    for eidx in 0..n_edges {
        let EdgeKind::Skip { via } = cfg.edges[eidx].kind else {
            continue;
        };
        loop {
            let j = st.edges[eidx].next_skip_request;
            if j >= cfg.total_chunks {
                break;
            }
            // Window: don't prefetch residuals more than the storage window
            // ahead of consumption.
            if j >= st.next_fire + SKIP_SLACK_IMAGES * cfg.edges[eidx].cc {
                break;
            }
            // All stream inputs for chunk j ready?
            let streams_ready = (0..n_edges).all(|k| match cfg.edges[k].kind {
                EdgeKind::Stream => st.edges[k].watermark >= cfg.edges[k].required(j) as i64,
                EdgeKind::Skip { .. } => true,
            });
            if !streams_ready {
                break;
            }
            // First leg (store) complete for the required producer chunks?
            if st.edges[eidx].stored_watermark < cfg.edges[eidx].required(j) as i64 {
                break;
            }
            // Issue the read leg.
            let clane = (j % lanes) as usize;
            let src = lane_endpoint(mapping, sid, clane);
            let (dst, amp) = match via {
                ResidualRoute::Hbm => (Endpoint::Hbm, cfg.edges[eidx].hbm_amp),
                ResidualRoute::StorageCluster(c) => (Endpoint::Cluster(c), 1),
            };
            let bytes = cfg.edges[eidx].bytes_per_cchunk * amp;
            reqs.push(TxnReq {
                issue: now,
                kind: TxnKind::Read,
                src,
                parts: vec![(dst, bytes)],
                deliver: Deliver::Edge {
                    stage: sid as u32,
                    ev: Ev::SkipReadDone {
                        edge: eidx as u32,
                        cchunk: j,
                    },
                },
            });
            st.edges[eidx].next_skip_request += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimc_core::{map_network, MappingStrategy};
    use aimc_dnn::{resnet18, ConvCfg, GraphBuilder, Shape};

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new(Shape::new(3, 32, 32));
        let c0 = b.conv("c0", b.input(), ConvCfg::k3(3, 16, 1));
        let c1 = b.conv("c1", Some(c0), ConvCfg::k3(16, 16, 1));
        let r = b.residual("r", c1, c0, None);
        let p = b.global_avgpool("gap", r);
        let _ = b.linear("fc", p, 10);
        b.finish()
    }

    #[test]
    fn small_network_completes_all_images() {
        let g = small_graph();
        let arch = ArchConfig::small(4, 8); // 32 clusters
        let m = map_network(&g, &arch, MappingStrategy::Naive).unwrap();
        let r = simulate(&g, &m, &arch, 4).unwrap();
        assert_eq!(r.image_completions.len(), 4);
        assert!(r.image_completions.iter().all(|&t| t > SimTime::ZERO));
        assert!(r.makespan >= *r.image_completions.iter().max().unwrap());
        assert!(r.events > 0);
    }

    #[test]
    fn image_completions_are_monotonic() {
        let g = small_graph();
        let arch = ArchConfig::small(4, 8);
        let m = map_network(&g, &arch, MappingStrategy::Naive).unwrap();
        let r = simulate(&g, &m, &arch, 6).unwrap();
        for w in r.image_completions.windows(2) {
            assert!(
                w[1] >= w[0],
                "completions must be ordered: {:?}",
                r.image_completions
            );
        }
    }

    #[test]
    fn pipelining_beats_serial_execution() {
        let g = small_graph();
        let arch = ArchConfig::small(4, 8);
        let m = map_network(&g, &arch, MappingStrategy::Naive).unwrap();
        let r1 = simulate(&g, &m, &arch, 1).unwrap();
        let r8 = simulate(&g, &m, &arch, 8).unwrap();
        // The graph is dominated by one stage (c1 ≈ 134 of 157 µs), so the
        // steady-state bound is ≈ 8×134 µs; the pipeline must overlap the
        // remaining stages (strictly below 8× the single-image latency) and
        // must not be slower than serial.
        assert!(
            r8.makespan.as_ps() < (7.6 * r1.makespan.as_ps() as f64) as u64,
            "batch 8 {} vs 1 {}",
            r8.makespan,
            r1.makespan
        );
        assert!(r8.makespan.as_ps() > 4 * r1.makespan.as_ps());
    }

    #[test]
    fn deterministic() {
        let g = small_graph();
        let arch = ArchConfig::small(4, 8);
        let m = map_network(&g, &arch, MappingStrategy::Naive).unwrap();
        let a = simulate(&g, &m, &arch, 3).unwrap();
        let b = simulate(&g, &m, &arch, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn breakdown_covers_makespan_per_cluster() {
        let g = small_graph();
        let arch = ArchConfig::small(4, 8);
        let m = map_network(&g, &arch, MappingStrategy::Naive).unwrap();
        let r = simulate(&g, &m, &arch, 2).unwrap();
        assert!(!r.clusters.is_empty());
        for c in &r.clusters {
            let sum = c.compute + c.communication + c.synchronization + c.sleep;
            assert_eq!(
                sum, r.makespan,
                "cluster {} breakdown does not cover makespan",
                c.cluster
            );
        }
    }

    #[test]
    fn ops_accounting_is_consistent() {
        let g = small_graph();
        let arch = ArchConfig::small(4, 8);
        let m = map_network(&g, &arch, MappingStrategy::Naive).unwrap();
        let r = simulate(&g, &m, &arch, 2).unwrap();
        assert_eq!(r.nominal_ops, g.total_ops() * 2);
        assert!(r.useful_ops > 0);
        assert!(r.executed_ops >= r.useful_ops);
        assert!(r.tops() > 0.0);
        assert!(r.tops_executed() >= r.tops() * 0.1);
    }

    #[test]
    fn hbm_sees_input_traffic() {
        let g = small_graph();
        let arch = ArchConfig::small(4, 8);
        let m = map_network(&g, &arch, MappingStrategy::Naive).unwrap();
        let r = simulate(&g, &m, &arch, 2).unwrap();
        // At least the two input images (3*32*32 each) cross the HBM.
        assert!(r.hbm_bytes >= 2 * 3 * 32 * 32, "hbm bytes {}", r.hbm_bytes);
        assert!(r.hbm_busy > SimTime::ZERO);
    }

    #[test]
    fn fabric_report_conserves_bytes() {
        let g = small_graph();
        let arch = ArchConfig::small(4, 8);
        let m = map_network(&g, &arch, MappingStrategy::Naive).unwrap();
        let r = simulate(&g, &m, &arch, 2).unwrap();
        assert_eq!(r.fabric.injected, r.fabric.completed);
        assert!(r.fabric.routed_bytes > 0);
        assert_eq!(
            r.fabric.routed_bytes, r.fabric.link_bytes,
            "per-link bytes must conserve the injected transaction bytes"
        );
    }

    #[test]
    fn resnet18_batch2_runs_on_paper_platform() {
        let g = resnet18(256, 256, 1000);
        let arch = ArchConfig::paper();
        let m = map_network(&g, &arch, MappingStrategy::OnChipResiduals).unwrap();
        let r = simulate(&g, &m, &arch, 2).unwrap();
        assert_eq!(r.image_completions.len(), 2);
        assert!(r.image_completions[1] > SimTime::ZERO);
        // Two images through a balanced pipeline: single-digit milliseconds.
        assert!(
            r.makespan < SimTime::from_us(20_000),
            "makespan {}",
            r.makespan
        );
        assert!(r.tops() > 1.0, "tops {}", r.tops());
    }

    #[test]
    fn on_chip_residuals_outperform_hbm_residuals() {
        let g = resnet18(256, 256, 1000);
        let arch = ArchConfig::paper();
        let m_hbm = map_network(&g, &arch, MappingStrategy::Balanced).unwrap();
        let m_l1 = map_network(&g, &arch, MappingStrategy::OnChipResiduals).unwrap();
        let r_hbm = simulate(&g, &m_hbm, &arch, 4).unwrap();
        let r_l1 = simulate(&g, &m_l1, &arch, 4).unwrap();
        assert!(
            r_l1.makespan < r_hbm.makespan,
            "on-chip {} vs HBM {}",
            r_l1.makespan,
            r_hbm.makespan
        );
    }

    #[test]
    fn rejects_zero_batch() {
        let g = small_graph();
        let arch = ArchConfig::small(4, 8);
        let m = map_network(&g, &arch, MappingStrategy::Naive).unwrap();
        assert_eq!(simulate(&g, &m, &arch, 0).unwrap_err(), SimError::ZeroBatch);
    }

    #[test]
    fn rejects_runs_that_overflow_the_event_key() {
        let g = small_graph();
        let arch = ArchConfig::small(4, 8);
        let m = map_network(&g, &arch, MappingStrategy::Naive).unwrap();
        // 2^32 images give every stage more chunks than the key's 32-bit
        // chunk field numbers; the run is refused before anything is sized.
        let err = simulate(&g, &m, &arch, 1 << 32).unwrap_err();
        assert!(matches!(err, SimError::TooLarge(_)), "{err:?}");
        assert!(err.to_string().contains("event key"), "{err}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// A stage event from raw draws: `variant` picks the `Ev` variant,
        /// `field` is its edge or lane and `chunk` its chunk. A narrow
        /// event's ids are below 4, so pairs often tie on the upper key
        /// fields and the lower ones break the tie; a wide one reaches the
        /// top bit of every field.
        fn stage_event(
            (stage, variant, field, chunk, narrow): (u32, u8, u32, u64, bool),
        ) -> StageEv {
            let (stage, field, chunk) = if narrow {
                (stage % 4, field % 4, chunk % 4)
            } else {
                (stage, field, chunk)
            };
            let ev = match variant {
                0 => Ev::Delivered {
                    edge: field,
                    pchunk: chunk,
                },
                1 => Ev::SkipStored {
                    edge: field,
                    pchunk: chunk,
                },
                2 => Ev::SkipReadDone {
                    edge: field,
                    cchunk: chunk,
                },
                3 => Ev::ChunkDone { lane: field, chunk },
                _ => Ev::TryFire { lane: field },
            };
            stage_ev(stage as usize, ev)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A stage event's key orders like the derived
            /// `(stage, event)` order and decodes back to the event.
            #[test]
            fn stage_event_key_matches_derived_order(
                a in (0u32..1 << STAGE_BITS, 0u8..5, 0u32..1 << FIELD_BITS, 0u64..1 << CHUNK_BITS, any::<bool>()),
                b in (0u32..1 << STAGE_BITS, 0u8..5, 0u32..1 << FIELD_BITS, 0u64..1 << CHUNK_BITS, any::<bool>()),
            ) {
                let (a, b) = (stage_event(a), stage_event(b));
                prop_assert_eq!(a.key().cmp(&b.key()), a.cmp(&b));
                prop_assert_eq!(StageEv::from_key(a.key()), a);
                prop_assert_eq!(StageEv::from_key(b.key()), b);
            }
        }
    }

    #[test]
    fn rejects_mismatched_mapping() {
        let g = small_graph();
        let arch = ArchConfig::small(4, 8);
        let m = map_network(&g, &arch, MappingStrategy::Naive).unwrap();
        // A mapping built for the 5-node graph cannot simulate a different
        // network.
        let other = {
            let mut b = GraphBuilder::new(Shape::new(3, 32, 32));
            let c0 = b.conv("c0", b.input(), ConvCfg::k3(3, 16, 1));
            let _ = b.linear("fc", c0, 10);
            b.finish()
        };
        assert!(matches!(
            simulate(&other, &m, &arch, 1).unwrap_err(),
            SimError::MappingMismatch(_)
        ));
    }
}
