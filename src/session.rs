//! The `Platform` / `Session` API — the single entry point over the
//! mapping compiler, the timing simulator, and the functional executors.
//!
//! The paper's workflow is *configure once, evaluate many*: describe a DNN,
//! compile it onto the heterogeneous AIMC platform, then evaluate it — for
//! timing through the event-driven pipeline simulator, or functionally
//! through the golden / noisy-analog executors. [`Platform`] owns the
//! *configure once* half (the graph, the architecture, and the compiled
//! [`SystemMapping`], built exactly once); [`Session`] owns the *evaluate
//! many* half, caching timing runs per batch size and retaining programmed
//! crossbars across [`Session::infer`] calls so repeated inference never
//! re-programs the arrays — the deployment model non-volatile AIMC exists
//! for.
//!
//! ```
//! use aimc_platform::prelude::*;
//!
//! # fn main() -> Result<(), aimc_platform::Error> {
//! let mut session = Platform::builder()
//!     .graph(resnet18_cifar(10))
//!     .arch(ArchConfig::small(8, 8))
//!     .strategy(MappingStrategy::OnChipResiduals)
//!     .he_weights(42)
//!     .build()?          // compiles the SystemMapping once
//!     .session();
//!
//! let report = session.run(RunSpec::batch(4))?;   // timing simulator
//! assert_eq!(report.batch, 4);
//!
//! let image = Tensor::zeros(Shape::new(3, 32, 32));
//! let logits = session.infer_one(&image, Backend::Golden)?;
//! assert_eq!(logits.shape(), Shape::new(10, 1, 1));
//! # Ok(())
//! # }
//! ```

use crate::error::{BuildError, Error};
use aimc_core::{map_network, ArchConfig, MappingStrategy, SystemMapping};
use aimc_dnn::{
    he_init, AimcExecutor, ExecError, Executor, GoldenExecutor, Graph, Shape, Tensor, Weights,
};
use aimc_parallel::Parallelism;
use aimc_runtime::{simulate, AreaModel, EnergyModel, Headline, RunReport, Waterfall};
use aimc_serve::{
    BatchPolicy, FleetHandle, FleetPolicy, LocalTransport, RoutePolicy, ServeError, ShardControl,
    ShardServer, ShardSpec, ShardTransport,
};
use aimc_xbar::XbarConfig;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

/// A DNN workload compiled onto an AIMC platform description.
///
/// Built through [`Platform::builder`]; the mapping compiler runs exactly
/// once, in [`PlatformBuilder::build`], and the resulting [`SystemMapping`]
/// is shared (not copied) by every session derived from this platform —
/// `Platform` is a cheap `Arc` handle, so cloning it or opening many
/// sessions never duplicates the graph, weights, or mapping.
#[derive(Debug, Clone)]
pub struct Platform {
    inner: Arc<PlatformInner>,
}

#[derive(Debug)]
struct PlatformInner {
    graph: Arc<Graph>,
    arch: ArchConfig,
    strategy: MappingStrategy,
    weights: Option<Arc<Weights>>,
    mapping: SystemMapping,
    parallelism: Parallelism,
}

impl Platform {
    /// Starts describing a platform: `.graph(...)` and `.arch(...)` are
    /// required, `.strategy(...)` defaults to
    /// [`MappingStrategy::OnChipResiduals`] (the paper's final strategy).
    pub fn builder() -> PlatformBuilder {
        PlatformBuilder {
            graph: None,
            arch: None,
            strategy: MappingStrategy::OnChipResiduals,
            weights: WeightsSpec::None,
            parallelism: Parallelism::Serial,
        }
    }

    /// Opens a session for evaluating this platform.
    pub fn session(&self) -> Session {
        Session {
            platform: self.clone(),
            runs: HashMap::new(),
            last_batch: None,
            active: None,
            golden: None,
            analog: None,
            programs: 0,
            parallelism: Arc::new(ParCell(Mutex::new(self.inner.parallelism))),
        }
    }

    /// The workload graph.
    pub fn graph(&self) -> &Graph {
        self.inner.graph.as_ref()
    }

    /// The architecture description.
    pub fn arch(&self) -> &ArchConfig {
        &self.inner.arch
    }

    /// The mapping strategy the workload was compiled with.
    pub fn strategy(&self) -> MappingStrategy {
        self.inner.strategy
    }

    /// The compiled mapping (computed once at build time).
    pub fn mapping(&self) -> &SystemMapping {
        &self.inner.mapping
    }

    /// The functional weights, if any were supplied.
    pub fn weights(&self) -> Option<&Weights> {
        self.inner.weights.as_deref()
    }

    /// The thread budget sessions inherit (see
    /// [`PlatformBuilder::parallelism`]).
    pub fn parallelism(&self) -> Parallelism {
        self.inner.parallelism
    }

    /// Starts a **sharded serving fleet** over `backend`: `n_shards`
    /// replica executors (each programmed from the same seed, so their
    /// conductances are bit-identical), each behind its own micro-batch
    /// scheduler under `policy`, all fed by a router that owns the global
    /// arrival counter and routes stamped requests under `route`.
    ///
    /// This is how the paper's architecture scales — replicate compute,
    /// keep one coherent result. The hard invariant, generalizing the
    /// single-session batch-composition invariance: for a fixed seed the
    /// logits of request *k* are bit-identical to a solo
    /// [`Session::infer_one`] stream of the same images, for **any** shard
    /// count and **any** routing policy, because every request carries its
    /// global stream coordinate ([`aimc_dnn::Executor::infer_batch_indexed`])
    /// and every replica holds the same conductances.
    ///
    /// Fleet-wide transitions go through the returned handle:
    /// [`FleetHandle::apply_drift`] / [`FleetHandle::reprogram`] drain the
    /// fleet and transition every replica at the same stream position
    /// (reprogram also rewinds the global stream to zero, like a solo
    /// session's); [`FleetHandle::set_parallelism`] retunes the shared
    /// thread budget mid-serve without changing a logit.
    ///
    /// The fleet is self-contained: it shares the platform's graph,
    /// weights, and mapping (cheap `Arc`s), but its replicas are
    /// independent of any [`Session`]'s backend slots. `n_shards == 0` is
    /// clamped to 1. Call [`FleetHandle::shutdown`] when done.
    ///
    /// The fleet is also **elastic**: a shard whose transport dies is
    /// evicted and its stranded requests re-run at their original
    /// coordinates on survivors, and [`FleetHandle::add_shard`] grows the
    /// fleet mid-serve (the joiner is programmed from the fleet seed and
    /// drifted to the fleet's time since programming) — neither ever
    /// changes a logit of a request that completes.
    ///
    /// This is the all-local convenience path; to mix transports (local
    /// shards, remote [`aimc_serve::TcpTransport`]s) or tune the routing
    /// block length, assemble the transports yourself and use
    /// [`Platform::serve_fleet_with`].
    ///
    /// # Errors
    /// [`Error::NoWeights`] without functional weights; programming errors
    /// as in [`Session::program`], per shard.
    pub fn serve_fleet(
        &self,
        n_shards: usize,
        policy: BatchPolicy,
        route: RoutePolicy,
        backend: &Backend,
    ) -> Result<FleetHandle, Error> {
        let n = n_shards.max(1);
        let transports = (0..n)
            .map(|_| {
                self.local_shard(policy, backend)
                    .map(|t| Box::new(t) as Box<dyn ShardTransport>)
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.serve_fleet_with(transports, FleetPolicy::new(route))
    }

    /// Starts a **heterogeneous serving fleet**: one fleet serving several
    /// models at once, each model group its own replica set. For every
    /// [`ModelGroup`] the platform builds `replicas` in-process shards
    /// from the group's backend, all carrying the group's
    /// [`ShardSpec`] — the router's registry then routes each request
    /// addressed with [`Request::to`](aimc_serve::Request::to)`(model_id)`
    /// to a compatible seat, with a **per-group** global stream counter, so each model's
    /// logits stay bit-identical to a solo session over that model's
    /// backend no matter how the groups interleave.
    ///
    /// Background recalibration ([`FleetHandle::start_recal`]) and the
    /// maintenance surface ([`FleetHandle::remove_shard`],
    /// [`FleetHandle::add_shard`], [`FleetHandle::recalibrate_shard`])
    /// operate on such a fleet group-by-group: a rotation drains one seat
    /// of one group while every other seat keeps serving.
    ///
    /// All groups share this platform's graph, weights, and mapping — the
    /// groups differ in *backend* (golden vs. analog, seeds, device
    /// configs), which is exactly the heterogeneity the registry keys on.
    ///
    /// # Errors
    /// [`Error::NoShards`] if `groups` is empty;
    /// [`Error::SpecMismatch`] if two groups claim one model id with
    /// different backends; [`Error::NoWeights`] / programming errors as in
    /// [`Session::program`], per shard.
    pub fn serve_hetero_fleet(
        &self,
        groups: &[ModelGroup],
        policy: BatchPolicy,
        route: RoutePolicy,
    ) -> Result<FleetHandle, Error> {
        let mut transports: Vec<Box<dyn ShardTransport>> = Vec::new();
        for group in groups {
            for _ in 0..group.replicas.max(1) {
                transports.push(Box::new(self.local_shard_for(
                    &group.model_id,
                    policy,
                    &group.backend,
                )?));
            }
        }
        self.serve_fleet_with(transports, FleetPolicy::new(route))
    }

    /// Assembles a serving fleet from caller-supplied shard transports —
    /// the transport-agnostic twin of [`Platform::serve_fleet`]: the
    /// router speaks only [`ShardTransport`], so the vector may mix
    /// in-process shards ([`Platform::local_shard`]) with remote ones
    /// ([`aimc_serve::TcpTransport`] connected to a
    /// [`Platform::shard_server`] on another host) in any proportion —
    /// and, since each transport self-describes through its
    /// [`ShardSpec`], may span several model groups
    /// (built via [`Platform::local_shard_for`] /
    /// [`Platform::shard_server_for`]) in one fleet.
    ///
    /// The fleet invariance carries over verbatim: provided every shard's
    /// replica is programmed from the same seed, the logits of request *k*
    /// are bit-identical to a solo [`Session::infer_one`] stream — for any
    /// transport mix, any routing block length, and any routing policy.
    /// With several groups the invariance holds per model id.
    ///
    /// # Errors
    /// [`Error::NoShards`] if `transports` is empty;
    /// [`Error::SpecMismatch`] if two transports claim the same model id
    /// with different replica specs.
    pub fn serve_fleet_with(
        &self,
        transports: Vec<Box<dyn ShardTransport>>,
        policy: FleetPolicy,
    ) -> Result<FleetHandle, Error> {
        FleetHandle::new(transports, policy).map_err(|e| match e {
            ServeError::SpecMismatch(why) => Error::SpecMismatch(why),
            other => {
                // NoShards is the only other constructor failure mode.
                debug_assert!(matches!(other, ServeError::NoShards));
                Error::NoShards
            }
        })
    }

    /// Builds one in-process replica shard for `backend`: a micro-batch
    /// scheduler (under `policy`) over a replica programmed from the
    /// backend's seed, plus its control surface, behind the
    /// [`ShardTransport`] boundary — the building block of
    /// [`Platform::serve_fleet_with`] and of [`Platform::shard_server`].
    ///
    /// The shard carries the default model id (`"default"`), so a fleet of
    /// such shards forms one homogeneous group — exactly the pre-registry
    /// behavior. Use [`Platform::local_shard_for`] to place the shard in a
    /// named model group of a heterogeneous fleet.
    ///
    /// # Errors
    /// [`Error::NoWeights`] without functional weights; programming errors
    /// as in [`Session::program`].
    pub fn local_shard(
        &self,
        policy: BatchPolicy,
        backend: &Backend,
    ) -> Result<LocalTransport, Error> {
        self.local_shard_for(ShardSpec::DEFAULT_MODEL_ID, policy, backend)
    }

    /// [`Platform::local_shard`] with an explicit model id: the shard's
    /// [`ShardSpec`] — the backend's crossbar config, noise model, and seed
    /// under `model_id` — is what the fleet registry groups seats by, what
    /// [`Request::to`](aimc_serve::Request::to) routes on, and what a
    /// recalibration reprograms from.
    ///
    /// # Errors
    /// [`Error::NoWeights`] without functional weights; programming errors
    /// as in [`Session::program`].
    pub fn local_shard_for(
        &self,
        model_id: &str,
        policy: BatchPolicy,
        backend: &Backend,
    ) -> Result<LocalTransport, Error> {
        let inner = &self.inner;
        let weights = inner.weights.clone().ok_or(Error::NoWeights)?;
        let graph = Arc::clone(&inner.graph);
        // Per-shard thread-budget cell, snapshotted per batch; fleet-wide
        // retunes fan through each shard's control.
        let par = Arc::new(ParCell(Mutex::new(inner.parallelism)));
        let replica = match backend {
            // Golden replicas are stateless; the executor is a cheap
            // wrapper over the shared graph/weight Arcs.
            Backend::Golden => Replica::Golden(GoldenShardControl {
                exec: Arc::new(GoldenExecutor::from_shared(graph, weights)?),
                par,
            }),
            Backend::Analog { seed, xbar_cfg } => {
                // Same seed ⇒ every tile of every replica programs from
                // the same derived stream ⇒ identical conductances.
                let exec = AimcExecutor::try_program_shared_with(
                    Arc::clone(&graph),
                    Arc::clone(&weights),
                    xbar_cfg,
                    *seed,
                    par.get(),
                )?;
                Replica::Analog(AnalogShardControl {
                    slot: Arc::new(RwLock::new(exec)),
                    graph,
                    weights,
                    xbar_cfg: xbar_cfg.clone(),
                    seed: *seed,
                    par,
                })
            }
        };
        let spec = backend.shard_spec(model_id);
        Ok(local_seat(policy, spec, inner.graph.input_shape(), replica))
    }

    /// Builds a wire-protocol server around one freshly programmed replica
    /// shard: the host side of a distributed fleet. Serve connections with
    /// [`ShardServer::serve_next`] / [`ShardServer::serve_stream`], or
    /// accept them concurrently with [`ShardServer::serve_forever`] on a
    /// listener; a router on another host reaches it through
    /// [`aimc_serve::TcpTransport`], which reconnects and replays
    /// unacknowledged requests across link failures.
    ///
    /// # Errors
    /// [`Error::NoWeights`] without functional weights; programming errors
    /// as in [`Session::program`].
    pub fn shard_server(
        &self,
        policy: BatchPolicy,
        backend: &Backend,
    ) -> Result<ShardServer, Error> {
        Ok(ShardServer::new(Box::new(
            self.local_shard(policy, backend)?,
        )))
    }

    /// [`Platform::shard_server`] with an explicit model id: the hosted
    /// replica carries the named [`ShardSpec`], which a
    /// remote router probes over the wire and groups by — so a
    /// heterogeneous fleet can span hosts just like a homogeneous one.
    ///
    /// # Errors
    /// [`Error::NoWeights`] without functional weights; programming errors
    /// as in [`Session::program`].
    pub fn shard_server_for(
        &self,
        model_id: &str,
        policy: BatchPolicy,
        backend: &Backend,
    ) -> Result<ShardServer, Error> {
        Ok(ShardServer::new(Box::new(
            self.local_shard_for(model_id, policy, backend)?,
        )))
    }
}

/// One replica group of a heterogeneous fleet (see
/// [`Platform::serve_hetero_fleet`]): `replicas` in-process shards built
/// from `backend`, all serving the model stream `model_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelGroup {
    /// The model id requests address via
    /// [`Request::to`](aimc_serve::Request::to).
    pub model_id: String,
    /// The backend every replica of this group is programmed from.
    pub backend: Backend,
    /// Seats in the group (0 is clamped to 1).
    pub replicas: usize,
}

impl ModelGroup {
    /// A group of `replicas` seats serving `model_id` on `backend`.
    pub fn new(model_id: impl Into<String>, replicas: usize, backend: Backend) -> Self {
        ModelGroup {
            model_id: model_id.into(),
            backend,
            replicas,
        }
    }
}

/// One programmed replica behind an in-process seat, as its fleet control:
/// each control also holds the executor the seat's runner evaluates with.
enum Replica {
    Golden(GoldenShardControl),
    Analog(AnalogShardControl),
}

/// Wraps one programmed replica as an in-process seat: a micro-batch
/// scheduler under `policy` whose runner evaluates every batch at its
/// router-stamped coordinates, plus the replica's fleet control. Both
/// [`Platform::local_shard_for`] and [`Session::serve`] build their seats
/// here, so each backend has one runner and one control. The seat's spec
/// carries the graph's `input` shape, which the seat, and a remote client
/// of it, check before they take a request.
fn local_seat(
    policy: BatchPolicy,
    spec: ShardSpec,
    input: Shape,
    replica: Replica,
) -> LocalTransport {
    let spec = ShardSpec {
        input: Some(input),
        ..spec
    };
    let (runner, control): (Box<aimc_serve::DynRunner>, Box<dyn ShardControl>) = match replica {
        Replica::Golden(control) => {
            let (exec, par) = (Arc::clone(&control.exec), Arc::clone(&control.par));
            (
                Box::new(move |indices: &[u64], inputs: &[Tensor]| {
                    exec.infer_batch_indexed(&zip_indexed(indices, inputs), par.get())
                }),
                Box::new(control),
            )
        }
        Replica::Analog(control) => {
            let (slot, par) = (Arc::clone(&control.slot), Arc::clone(&control.par));
            (
                Box::new(move |indices: &[u64], inputs: &[Tensor]| {
                    // Snapshot the thread budget once per batch; read-lock
                    // the replica so drift/reprogram wait for in-flight
                    // batches.
                    let par = par.get();
                    let exec = slot.read().unwrap();
                    exec.try_infer_batch_indexed(&zip_indexed(indices, inputs), par)
                }),
                Box::new(control),
            )
        }
    };
    LocalTransport::spawn(policy, runner, control, spec)
}

/// Fleet control surface of one golden shard: stateless, so drift is a
/// no-op and "reprogramming" needs no work.
struct GoldenShardControl {
    exec: Arc<GoldenExecutor>,
    par: Arc<ParCell>,
}

impl ShardControl for GoldenShardControl {
    fn apply_drift(&self, _t_hours: f64) -> bool {
        false
    }

    fn reprogram(&self) -> Result<(), ExecError> {
        Ok(())
    }

    fn set_parallelism(&self, par: Parallelism) {
        self.par.set(par);
    }
}

/// Fleet control surface of one analog shard: owns the replica slot plus
/// everything needed to rewrite it from scratch with the original seed.
struct AnalogShardControl {
    slot: Arc<RwLock<AimcExecutor>>,
    graph: Arc<Graph>,
    weights: Arc<Weights>,
    xbar_cfg: XbarConfig,
    seed: u64,
    par: Arc<ParCell>,
}

impl ShardControl for AnalogShardControl {
    fn apply_drift(&self, t_hours: f64) -> bool {
        // Exclusive access: any in-flight batch finishes first, then the
        // replica's conductances drift atomically.
        self.slot.write().unwrap().apply_drift(t_hours);
        true
    }

    fn reprogram(&self) -> Result<(), ExecError> {
        let exec = AimcExecutor::try_program_shared_with(
            Arc::clone(&self.graph),
            Arc::clone(&self.weights),
            &self.xbar_cfg,
            self.seed,
            self.par.get(),
        )?;
        // Swap into the same slot, so the shard's runner transparently
        // serves the freshly written replica (and its rewound counter).
        *self.slot.write().unwrap() = exec;
        Ok(())
    }

    fn set_parallelism(&self, par: Parallelism) {
        // The shared cell is all the fleet runner reads (snapshotted per
        // batch) — no slot write-lock, so mid-serve retunes never stall
        // behind in-flight batches.
        self.par.set(par);
    }
}

/// Pairs each input with its global stream index for
/// [`Executor::infer_batch_indexed`] — the adapter between the serving
/// layer's parallel slices and the executors' indexed items.
fn zip_indexed<'a>(indices: &[u64], inputs: &'a [Tensor]) -> Vec<(u64, &'a Tensor)> {
    debug_assert_eq!(indices.len(), inputs.len());
    indices.iter().copied().zip(inputs.iter()).collect()
}

#[derive(Debug, Clone)]
enum WeightsSpec {
    None,
    Explicit(Weights),
    He(u64),
}

/// Builder for [`Platform`] (see [`Platform::builder`]).
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    graph: Option<Graph>,
    arch: Option<ArchConfig>,
    strategy: MappingStrategy,
    weights: WeightsSpec,
    parallelism: Parallelism,
}

impl PlatformBuilder {
    /// Sets the workload graph (required).
    pub fn graph(mut self, graph: Graph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Sets the architecture description (required).
    pub fn arch(mut self, arch: ArchConfig) -> Self {
        self.arch = Some(arch);
        self
    }

    /// Sets the mapping strategy (default:
    /// [`MappingStrategy::OnChipResiduals`]).
    pub fn strategy(mut self, strategy: MappingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Supplies functional weights for [`Session::infer`].
    pub fn weights(mut self, weights: Weights) -> Self {
        self.weights = WeightsSpec::Explicit(weights);
        self
    }

    /// Generates deterministic He-initialized weights at build time
    /// (convenience over [`PlatformBuilder::weights`]).
    pub fn he_weights(mut self, seed: u64) -> Self {
        self.weights = WeightsSpec::He(seed);
        self
    }

    /// Sets the thread budget of the parallel execution engine (default:
    /// [`Parallelism::Serial`]).
    ///
    /// The knob trades wall-clock only, never results: crossbar programming
    /// fans out across tiles, `Session::infer` fans out across the batch
    /// (or across tiles for a single image), and every setting produces
    /// logits bit-identical to serial execution for the same seed —
    /// randomness is keyed to stable `(seed, layer, tile, invocation)`
    /// coordinates, not to scheduling order.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Compiles the workload onto the platform, caching the
    /// [`SystemMapping`].
    ///
    /// # Errors
    /// [`Error::Builder`] if the graph or architecture is missing;
    /// [`Error::Map`] if the mapping compiler rejects the pair.
    pub fn build(self) -> Result<Platform, Error> {
        let graph = self.graph.ok_or(BuildError::MissingGraph)?;
        let arch = self.arch.ok_or(BuildError::MissingArch)?;
        let mapping = map_network(&graph, &arch, self.strategy)?;
        let weights = match self.weights {
            WeightsSpec::None => None,
            WeightsSpec::Explicit(w) => Some(Arc::new(w)),
            WeightsSpec::He(seed) => Some(Arc::new(he_init(&graph, seed))),
        };
        Ok(Platform {
            inner: Arc::new(PlatformInner {
                graph: Arc::new(graph),
                arch,
                strategy: self.strategy,
                weights,
                mapping,
                parallelism: self.parallelism,
            }),
        })
    }
}

/// What to simulate in one [`Session::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Images in the pipelined batch.
    pub batch: usize,
}

impl RunSpec {
    /// A run of `batch` pipelined images.
    pub fn batch(batch: usize) -> Self {
        RunSpec { batch }
    }
}

impl Default for RunSpec {
    /// The paper's batch of 16 images.
    fn default() -> Self {
        RunSpec { batch: 16 }
    }
}

/// Which functional executor evaluates [`Session::infer`].
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// Digital f32 ground truth (the golden executor).
    Golden,
    /// Modeled PCM crossbars: programming noise, read noise, DAC/ADC
    /// quantization, layers split across arrays like the Sec. V-1 mapping.
    Analog {
        /// Seed for programming and read noise (deterministic streams).
        seed: u64,
        /// The crossbar device configuration.
        xbar_cfg: XbarConfig,
    },
}

impl Backend {
    /// Analog backend with the given seed and device configuration.
    pub fn analog(seed: u64, xbar_cfg: XbarConfig) -> Self {
        Backend::Analog { seed, xbar_cfg }
    }

    /// The replica identity a shard built from this backend carries under
    /// `model_id` — what the fleet registry groups seats by and what a
    /// recalibration reprograms from. Golden backends map to the constant
    /// noiseless spec; analog backends carry their device config and seed.
    pub fn shard_spec(&self, model_id: &str) -> ShardSpec {
        match self {
            Backend::Golden => ShardSpec::golden(model_id),
            Backend::Analog { seed, xbar_cfg } => {
                ShardSpec::analog(model_id, xbar_cfg.clone(), *seed)
            }
        }
    }
}

/// Shared parallelism knob: the session and the runner of every seat
/// [`Session::serve`] built read the same cell, so
/// [`Session::set_parallelism`] takes effect for in-flight serving —
/// snapshotted once per dispatched batch, never mid-batch.
#[derive(Debug)]
struct ParCell(Mutex<Parallelism>);

impl ParCell {
    fn get(&self) -> Parallelism {
        *self.0.lock().unwrap()
    }

    fn set(&self, par: Parallelism) {
        *self.0.lock().unwrap() = par;
    }
}

/// An evaluation session over a compiled [`Platform`].
///
/// Caches timing-simulator results per batch size, and keeps the
/// functional backends *programmed*: the analog crossbars and the golden
/// executor live in separate slots, so consecutive [`Session::infer`]
/// calls with the same [`Backend`] reuse the same crossbar tiles (weights
/// stay in the arrays, as on the non-volatile hardware) — and interleaved
/// golden reference checks do **not** discard the programmed (possibly
/// drifted) conductances. Crossbars are re-written only when a *different*
/// analog backend is requested or [`Session::reprogram`] forces it.
///
/// The backend slots are shared (`Arc`) with the one-seat fleet that
/// [`Session::serve`] returns, so serving, [`Session::apply_drift`],
/// [`Session::reprogram`] and the handle's own transitions all act on the
/// *same* crossbars. The handle's router owns the served stream's
/// numbering: it starts at coordinate 0 on its own, `Session::reprogram`
/// does not rewind it, direct [`Session::infer`] calls beside a live
/// handle (or two live handles on one backend) can evaluate the same
/// coordinates, and [`FleetHandle::add_shard`] drifts a joiner only to a
/// time set through the handle (see [`Session::serve`]).
pub struct Session {
    platform: Platform,
    runs: HashMap<usize, RunReport>,
    last_batch: Option<usize>,
    /// Most recently used backend (dispatch target for `infer`).
    active: Option<Backend>,
    golden: Option<Arc<GoldenExecutor>>,
    /// The analog slot: `RwLock` so serve workers infer through shared
    /// read access while drift/reprogram take exclusive write access.
    analog: Option<(Backend, Arc<RwLock<AimcExecutor>>)>,
    programs: usize,
    /// Thread budget for programming and functional inference (shared
    /// with the runners of served seats).
    parallelism: Arc<ParCell>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("strategy", &self.platform.inner.strategy)
            .field("cached_runs", &self.runs.len())
            .field("active", &self.active)
            .field("programs", &self.programs)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// The platform this session evaluates.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Drives the timing simulator for `spec`, returning the pipelined
    /// batch report. Results are cached per batch size — repeated calls
    /// with the same spec are free.
    ///
    /// The simulation runs on the calling thread, so the report does not
    /// depend on the session's thread budget.
    ///
    /// # Errors
    /// [`Error::InvalidRunSpec`] if the batch is zero;
    /// [`Error::Sim`] if the simulator rejects the run.
    pub fn run(&mut self, spec: RunSpec) -> Result<&RunReport, Error> {
        if spec.batch == 0 {
            return Err(Error::InvalidRunSpec("batch must be positive".into()));
        }
        self.last_batch = Some(spec.batch);
        let p = &self.platform.inner;
        Ok(match self.runs.entry(spec.batch) {
            Entry::Occupied(run) => run.into_mut(),
            Entry::Vacant(slot) => {
                slot.insert(simulate(&p.graph, &p.mapping, &p.arch, spec.batch)?)
            }
        })
    }

    /// The most recent [`Session::run`] report, if any.
    pub fn last_run(&self) -> Option<&RunReport> {
        self.runs.get(&self.last_batch?)
    }

    /// The platform's shared graph/weights handles, for executor
    /// construction without deep copies.
    fn shared_graph_weights(&self) -> Result<(Arc<Graph>, Arc<Weights>), Error> {
        let inner = &self.platform.inner;
        let weights = inner.weights.clone().ok_or(Error::NoWeights)?;
        Ok((inner.graph.clone(), weights))
    }

    /// Ensures `backend` is ready and makes it the dispatch target for
    /// [`Session::infer`], reusing the existing executor when one is
    /// already programmed (no crossbar re-writing). The golden and analog
    /// slots are independent: requesting [`Backend::Golden`] never touches
    /// programmed crossbars.
    ///
    /// # Errors
    /// [`Error::NoWeights`] if the platform has no functional weights;
    /// [`Error::Exec`] / [`Error::Xbar`] on programming failures.
    pub fn program(&mut self, backend: &Backend) -> Result<(), Error> {
        match backend {
            Backend::Golden => {
                if self.golden.is_none() {
                    let (graph, weights) = self.shared_graph_weights()?;
                    self.golden = Some(Arc::new(GoldenExecutor::from_shared(graph, weights)?));
                }
            }
            Backend::Analog { .. } => {
                let already = self.analog.as_ref().is_some_and(|(b, _)| b == backend);
                if !already {
                    self.write_crossbars(backend)?;
                }
            }
        }
        self.active = Some(backend.clone());
        Ok(())
    }

    /// Programs `backend` from scratch, discarding the slot's existing
    /// executor — e.g. to model freshly-written conductances after
    /// [`Session::apply_drift`].
    ///
    /// A live handle from [`Session::serve`] serves the new crossbars but
    /// keeps its numbering; [`FleetHandle::reprogram`] rewinds a served
    /// stream to coordinate 0.
    ///
    /// # Errors
    /// Same conditions as [`Session::program`].
    pub fn reprogram(&mut self, backend: &Backend) -> Result<(), Error> {
        match backend {
            Backend::Golden => {
                let (graph, weights) = self.shared_graph_weights()?;
                self.golden = Some(Arc::new(GoldenExecutor::from_shared(graph, weights)?));
            }
            Backend::Analog { .. } => self.write_crossbars(backend)?,
        }
        self.active = Some(backend.clone());
        Ok(())
    }

    /// Writes `backend`'s weights into fresh crossbars (counts as one
    /// programming event). Tiles are programmed in parallel up to the
    /// session's thread budget — bit-identical to a serial deployment,
    /// since every tile programs from its own derived RNG stream.
    ///
    /// The analog slot's `Arc` is reused when it holds the same backend,
    /// so live handles from [`Session::serve`] transparently serve the
    /// freshly written crossbars — but their routers keep numbering where
    /// they were. A different backend gets a fresh slot: a live handle
    /// keeps serving, drifting and reprogramming the replica it was
    /// started on, which its seat's control knows how to rewrite.
    fn write_crossbars(&mut self, backend: &Backend) -> Result<(), Error> {
        let Backend::Analog { seed, xbar_cfg } = backend else {
            unreachable!("caller matched Backend::Analog");
        };
        let (graph, weights) = self.shared_graph_weights()?;
        let exec = AimcExecutor::try_program_shared_with(
            graph,
            weights,
            xbar_cfg,
            *seed,
            self.parallelism.get(),
        )?;
        match &self.analog {
            Some((slot_backend, slot)) if slot_backend == backend => {
                *slot.write().unwrap() = exec;
            }
            _ => self.analog = Some((backend.clone(), Arc::new(RwLock::new(exec)))),
        }
        self.programs += 1;
        Ok(())
    }

    /// Overrides the thread budget inherited from the platform (applies to
    /// subsequent programming and inference; never changes results).
    ///
    /// The knob is shared with every handle [`Session::serve`] returned:
    /// in-flight serving picks the new setting up **per batch**
    /// (a batch snapshots the budget once at dispatch, so no batch ever
    /// mixes thread budgets mid-flight — and results are bit-identical
    /// either way).
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism.set(parallelism);
    }

    /// The session's current thread budget.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism.get()
    }

    /// Runs a batch of images through the functional `backend`, returning
    /// one output tensor (logits) per image.
    ///
    /// The backend is programmed on first use and *retained*: a second
    /// `infer` with the same backend reuses the already-programmed
    /// crossbars.
    ///
    /// With a parallel thread budget ([`PlatformBuilder::parallelism`] /
    /// [`Session::set_parallelism`]) the batch fans out across worker
    /// threads — and still returns exactly the logits the serial loop
    /// would, image for image, bit for bit.
    ///
    /// # Errors
    /// Programming errors as in [`Session::program`], plus
    /// [`Error::Exec`] on input-shape mismatches (lowest failing image
    /// wins, as in serial order).
    pub fn infer(&mut self, images: &[Tensor], backend: Backend) -> Result<Vec<Tensor>, Error> {
        self.program(&backend)?;
        let par = self.parallelism.get();
        let logits = match backend {
            Backend::Golden => self
                .golden
                .as_ref()
                .expect("programmed golden")
                .infer_batch(images, par),
            // The read lock makes drift and reprogramming wait for the batch.
            Backend::Analog { .. } => {
                let slot = &self.analog.as_ref().expect("programmed analog").1;
                slot.read().unwrap().infer_batch(images, par)
            }
        };
        logits.map_err(Error::from)
    }

    /// Runs one image through the functional `backend`: a one-image
    /// [`Session::infer`] batch at the session's thread budget.
    ///
    /// # Errors
    /// Same conditions as [`Session::infer`].
    pub fn infer_one(&mut self, image: &Tensor, backend: Backend) -> Result<Tensor, Error> {
        let mut logits = self.infer(std::slice::from_ref(image), backend)?;
        Ok(logits.pop().expect("one image in, one out"))
    }

    /// Starts an asynchronous micro-batch server over the **active**
    /// backend (program one first via [`Session::program`] or any infer
    /// call). The server is a one-seat fleet: its only seat serves this
    /// session's own programmed replica, built by the same function as the
    /// seats of [`Platform::local_shard_for`], so a session's requests
    /// take the same path as every fleet's. Single-image requests
    /// submitted through the returned [`FleetHandle`] are coalesced under
    /// `policy`.
    ///
    /// **Batch-composition invariance.** The handle's router numbers
    /// requests in arrival order and each request is evaluated at that
    /// stamped coordinate ([`Executor::infer_batch_indexed`]), so for a
    /// fixed seed the logits of request *k* are bit-identical to a solo
    /// [`Session::infer_one`] stream of the same images on freshly
    /// programmed crossbars — no matter how the scheduler chopped the
    /// stream into batches (`max_batch` 1, 16, or whatever the latency
    /// budget produced), under FIFO and EDF ordering alike.
    ///
    /// The handle shares this session's state rather than snapshotting it:
    ///
    /// * the backend slot — [`Session::apply_drift`] acts on the crossbars
    ///   the handle serves (drain the handle first for a deterministic
    ///   transition point), as do [`FleetHandle::apply_drift`] and
    ///   [`FleetHandle::reprogram`]. Programming a *different* analog
    ///   backend gives the session fresh crossbars and leaves the handle
    ///   on its own;
    /// * the thread budget — [`Session::set_parallelism`] and
    ///   [`FleetHandle::set_parallelism`] apply to in-flight serving,
    ///   snapshotted once per dispatched batch.
    ///
    /// Four things follow from the router owning the numbering:
    ///
    /// * a served stream numbers from coordinate 0 on its own, whatever
    ///   the session evaluated before;
    /// * [`Session::reprogram`] rewrites the crossbars but does not rewind
    ///   a live handle — [`FleetHandle::reprogram`] rewrites them *and*
    ///   rewinds the served stream to 0, like a solo reprogram;
    /// * direct [`Session::infer`] calls beside a live handle, or two live
    ///   handles on one backend, can evaluate the same coordinates;
    /// * [`FleetHandle::add_shard`] drifts a joiner to the time last set
    ///   through the handle, not by [`Session::apply_drift`].
    ///
    /// Call [`FleetHandle::shutdown`] when done.
    ///
    /// # Errors
    /// [`Error::NoBackend`] if no functional backend is programmed yet.
    pub fn serve(&self, policy: BatchPolicy) -> Result<FleetHandle, Error> {
        let active = self.active.as_ref().ok_or(Error::NoBackend)?;
        let (graph, weights) = self.shared_graph_weights()?;
        let par = Arc::clone(&self.parallelism);
        let replica = match active {
            Backend::Golden => Replica::Golden(GoldenShardControl {
                exec: Arc::clone(self.golden.as_ref().expect("programmed golden")),
                par,
            }),
            Backend::Analog { seed, xbar_cfg } => Replica::Analog(AnalogShardControl {
                slot: Arc::clone(&self.analog.as_ref().expect("programmed analog").1),
                graph,
                weights,
                xbar_cfg: xbar_cfg.clone(),
                seed: *seed,
                par,
            }),
        };
        let spec = active.shard_spec(ShardSpec::DEFAULT_MODEL_ID);
        let input = self.platform.inner.graph.input_shape();
        let seat = local_seat(policy, spec, input, replica);
        self.platform
            .serve_fleet_with(vec![Box::new(seat)], FleetPolicy::default())
    }

    /// Sets the retained analog crossbars to `t_hours` since programming
    /// (PCM conductance drift; a level, so calls do not compound) —
    /// regardless of which backend is active, since golden reference
    /// checks do not disturb the arrays.
    ///
    /// # Errors
    /// [`Error::NoAnalogBackend`] if no analog backend is programmed.
    pub fn apply_drift(&mut self, t_hours: f64) -> Result<(), Error> {
        match self.analog.as_ref() {
            Some((_, slot)) => {
                // Exclusive access: any serving batch in flight finishes
                // first, then the conductances drift atomically.
                slot.write().unwrap().apply_drift(t_hours);
                Ok(())
            }
            None => Err(Error::NoAnalogBackend),
        }
    }

    /// The most recently used functional backend, if any.
    pub fn programmed_backend(&self) -> Option<&Backend> {
        self.active.as_ref()
    }

    /// How many times crossbars have been written in this session — stays
    /// at 1 across repeated same-backend [`Session::infer`] calls *and*
    /// across interleaved golden checks (the golden slot is independent).
    /// A served handle's own [`FleetHandle::reprogram`] is not counted.
    pub fn programming_count(&self) -> usize {
        self.programs
    }

    /// Crossbar tiles held by the retained analog backend (0 if none is
    /// programmed).
    pub fn tile_count(&self) -> usize {
        self.analog
            .as_ref()
            .map_or(0, |(_, slot)| Executor::tile_count(&*slot.read().unwrap()))
    }

    /// Analog MVMs evaluated since the crossbars were written (0 if no
    /// analog backend is programmed).
    pub fn total_mvms(&self) -> u64 {
        self.analog
            .as_ref()
            .map_or(0, |(_, slot)| Executor::total_mvms(&*slot.read().unwrap()))
    }

    /// Images consumed from the analog backend's request stream so far —
    /// solo infers, batches, and served requests all advance it (0 if no
    /// analog backend is programmed; resets on [`Session::reprogram`]).
    pub fn images_seen(&self) -> u64 {
        self.analog
            .as_ref()
            .map_or(0, |(_, slot)| slot.read().unwrap().images_seen())
    }

    /// Computes the Sec. VI headline metrics (TOPS, images/s, energy,
    /// TOPS/W, GOPS/mm², …) from the most recent [`Session::run`] — or
    /// from a fresh default run ([`RunSpec::default`], the paper's batch
    /// 16) if none has happened yet.
    ///
    /// # Errors
    /// Propagates [`Session::run`] errors for the implicit default run.
    pub fn headline(
        &mut self,
        energy_model: &EnergyModel,
        area_model: &AreaModel,
    ) -> Result<Headline, Error> {
        if self.last_run().is_none() {
            self.run(RunSpec::default())?;
        }
        let report = self.last_run().expect("run above");
        Ok(Headline::compute(
            &self.platform.inner.mapping,
            &self.platform.inner.arch,
            report,
            energy_model,
            area_model,
        ))
    }

    /// Computes the Fig. 6 inefficiency waterfall from the most recent
    /// [`Session::run`] (or a fresh default run, as in
    /// [`Session::headline`]).
    ///
    /// # Errors
    /// Propagates [`Session::run`] errors for the implicit default run.
    pub fn waterfall(&mut self) -> Result<Waterfall, Error> {
        if self.last_run().is_none() {
            self.run(RunSpec::default())?;
        }
        let report = self.last_run().expect("run above");
        Ok(Waterfall::compute(
            &self.platform.inner.graph,
            &self.platform.inner.mapping,
            &self.platform.inner.arch,
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimc_dnn::{ConvCfg, GraphBuilder, Shape};

    fn small_cnn() -> Graph {
        let mut b = GraphBuilder::new(Shape::new(3, 8, 8));
        let c0 = b.conv("c0", b.input(), ConvCfg::k3(3, 8, 1));
        let gap = b.global_avgpool("gap", c0);
        b.linear("fc", gap, 4);
        b.finish()
    }

    #[test]
    fn builder_requires_graph_and_arch() {
        assert_eq!(
            Platform::builder()
                .arch(ArchConfig::small(2, 2))
                .build()
                .unwrap_err(),
            Error::Builder(BuildError::MissingGraph)
        );
        assert_eq!(
            Platform::builder().graph(small_cnn()).build().unwrap_err(),
            Error::Builder(BuildError::MissingArch)
        );
    }

    #[test]
    fn build_compiles_mapping_once_and_sessions_share_it() {
        let p = Platform::builder()
            .graph(small_cnn())
            .arch(ArchConfig::small(4, 4))
            .build()
            .unwrap();
        assert!(p.mapping().n_clusters_used > 0);
        let s1 = p.session();
        let s2 = p.session();
        assert_eq!(s1.platform().mapping(), s2.platform().mapping());
    }

    #[test]
    fn run_caches_per_batch() {
        let p = Platform::builder()
            .graph(small_cnn())
            .arch(ArchConfig::small(4, 4))
            .build()
            .unwrap();
        let mut s = p.session();
        let makespan = s.run(RunSpec::batch(2)).unwrap().makespan;
        // Cached: identical object, no re-simulation.
        assert_eq!(s.run(RunSpec::batch(2)).unwrap().makespan, makespan);
        assert_eq!(s.last_run().unwrap().batch, 2);
    }

    #[test]
    fn zero_batch_is_rejected() {
        let p = Platform::builder()
            .graph(small_cnn())
            .arch(ArchConfig::small(4, 4))
            .build()
            .unwrap();
        let mut s = p.session();
        assert!(matches!(
            s.run(RunSpec::batch(0)),
            Err(Error::InvalidRunSpec(_))
        ));
    }

    #[test]
    fn infer_without_weights_is_an_error() {
        let p = Platform::builder()
            .graph(small_cnn())
            .arch(ArchConfig::small(4, 4))
            .build()
            .unwrap();
        let mut s = p.session();
        let x = Tensor::zeros(Shape::new(3, 8, 8));
        assert_eq!(s.infer_one(&x, Backend::Golden), Err(Error::NoWeights));
    }

    #[test]
    fn drift_requires_analog_backend() {
        let p = Platform::builder()
            .graph(small_cnn())
            .arch(ArchConfig::small(4, 4))
            .he_weights(1)
            .build()
            .unwrap();
        let mut s = p.session();
        assert_eq!(s.apply_drift(24.0), Err(Error::NoAnalogBackend));
        let x = Tensor::zeros(Shape::new(3, 8, 8));
        s.infer_one(&x, Backend::Golden).unwrap();
        assert_eq!(s.apply_drift(24.0), Err(Error::NoAnalogBackend));
        s.infer_one(&x, Backend::analog(1, XbarConfig::hermes_256()))
            .unwrap();
        assert_eq!(s.apply_drift(24.0), Ok(()));
    }
}
