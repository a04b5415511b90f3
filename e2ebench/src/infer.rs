//! `infer_resnet18`: back-to-back `Session::infer` calls of 16 random CIFAR
//! images through ResNet-18 on the analog backend (`hermes_256` crossbars,
//! He weights, `Threads(2)`). The executor (`dnn`) and the MVM kernels
//! (`xbar`) do almost all the work; serving and the simulator do none.
//!
//! The traced pass adds a replay of single images through the public
//! kernels (`im2col_patch`, `mvm_batch_into_with`, the digital ops), which
//! splits the executor's per-image time into MVM, im2col, digital and the
//! remainder (copies, allocation, dispatch), and a per-graph-node table
//! that puts the measured host cost beside the timing simulator's modeled
//! stage busy time.

use crate::report::{peak_rss_mib, Outcome};
use crate::stats::{bit_identical, median, Latencies, TAIL};
use crate::trace::{layers, spanned, Span, Tracer};
use crate::{images, op_count, phase_cap, Cfg, Setups, SETUP_GROUPS};
use aimc_platform::core::{ArchConfig, MappingStrategy};
use aimc_platform::dnn::{
    ceil_split, he_init, ops, resnet18_cifar, AimcExecutor, ConvCfg, Graph, LayerKind, Shape,
    Tensor, Weights,
};
use aimc_platform::runtime::trace::stage_traces;
use aimc_platform::xbar::stream::stream_seed;
use aimc_platform::xbar::{Crossbar, MvmScratch, XbarConfig, DAC_BATCH};
use aimc_platform::{Backend, Parallelism, Platform, RunSpec, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Images per `Session::infer` call.
pub const BATCH: usize = 16;
const THREADS: usize = 2;
const PAR: Parallelism = Parallelism::Threads(THREADS);
/// Calls per second on a 2-vCPU host (about 180 images/s).
const NOMINAL_OPS_PER_S: f64 = 11.5;
/// Fresh deployments timed per run; `setup_s` is their median.
const SETUPS: usize = 15;
const WARMUP: usize = 8;
/// Distinct batches cycled through.
const POOL: usize = 8;
/// Timed calls whose logits are checked against a standalone executor.
const CHECKED: usize = 8;
/// Every this-many-th traced call's batch is replayed through the public
/// kernels, split over the threads as the executor splits it.
const REPLAY_EVERY: usize = 8;

const TAG_XBAR: u64 = 1;
const TAG_IMAGES: u64 = 2;

fn backend(cfg: &Cfg) -> Backend {
    Backend::analog(cfg.derive(TAG_XBAR), XbarConfig::hermes_256())
}

fn pool(cfg: &Cfg) -> Vec<Vec<Tensor>> {
    images(cfg.derive(TAG_IMAGES), POOL * BATCH, Shape::new(3, 32, 32))
        .chunks(BATCH)
        .map(<[Tensor]>::to_vec)
        .collect()
}

/// One complete deployment: graph, He weights, mapping onto the paper's
/// platform, and crossbar programming.
fn deploy(cfg: &Cfg, mut tr: Option<&mut Tracer>) -> Result<Session, String> {
    let root = tr.as_mut().map(|t| t.open("bench.setup", None, 0));
    let graph = spanned(&mut tr, "dnn.graph", root, || resnet18_cifar(10));
    let weights = spanned(&mut tr, "dnn.weights", root, || he_init(&graph, cfg.seed));
    let platform = spanned(&mut tr, "core.map", root, || {
        Platform::builder()
            .graph(graph)
            .arch(ArchConfig::paper())
            .strategy(MappingStrategy::OnChipResiduals)
            .weights(weights)
            .parallelism(PAR)
            .build()
    })
    .map_err(|e| format!("infer_resnet18 build: {e}"))?;
    let mut session = platform.session();
    spanned(&mut tr, "xbar.program", root, || {
        session.program(&backend(cfg))
    })
    .map_err(|e| format!("infer_resnet18 program: {e}"))?;
    if let (Some(t), Some(r)) = (tr, root) {
        t.close(r);
    }
    Ok(session)
}

/// Logits of one call, kept for checking: the call's base image
/// coordinate, its pool batch and the logits.
type Sample = (u64, usize, Vec<Tensor>);

/// The closed loop over one session.
struct ClosedLoop<'a> {
    session: Session,
    backend: Backend,
    pool: &'a [Vec<Tensor>],
    calls: usize,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
}

impl ClosedLoop<'_> {
    /// One `Session::infer` call; its latency on success.
    fn call(&mut self, keep: bool, tr: Option<&mut Tracer>) -> Option<Duration> {
        let slot = self.calls % POOL;
        self.calls += 1;
        let base = self.session.images_seen();
        let batch = &self.pool[slot];
        self.attempted += 1;
        let (result, dt) = match tr {
            Some(t) => {
                let op = t.open("bench.infer_call", None, base);
                let id = t.open("dnn.infer", Some(op), base);
                let t0 = Instant::now();
                let r = self.session.infer(batch, self.backend.clone());
                let dt = t0.elapsed();
                t.close(id);
                t.close(op);
                (r, dt)
            }
            None => {
                let t0 = Instant::now();
                let r = self.session.infer(batch, self.backend.clone());
                (r, t0.elapsed())
            }
        };
        match result {
            Ok(logits) => {
                if keep {
                    self.samples.push((base, slot, logits));
                }
                Some(dt)
            }
            Err(e) => {
                eprintln!("infer_resnet18: call at {base} failed: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

/// A standalone executor with the session's seeds, built from scratch.
fn reference_executor(cfg: &Cfg) -> Result<AimcExecutor, String> {
    let graph = Arc::new(resnet18_cifar(10));
    let weights = Arc::new(he_init(&graph, cfg.seed));
    AimcExecutor::try_program_shared_with(
        graph,
        weights,
        &XbarConfig::hermes_256(),
        cfg.derive(TAG_XBAR),
        PAR,
    )
    .map_err(|e| format!("infer_resnet18 reference: {e}"))
}

/// Checks kept calls against a standalone executor run with
/// `try_infer_batch_at` at the same base coordinate; returns mismatches.
fn verify(exec: &AimcExecutor, pool: &[Vec<Tensor>], samples: &[Sample]) -> u64 {
    samples
        .iter()
        .filter(|(base, slot, logits)| {
            let ok = exec
                .try_infer_batch_at(&pool[*slot], *base, PAR)
                .is_ok_and(|r| bit_identical(&r, logits));
            if !ok {
                eprintln!("infer_resnet18: logits at base {base} differ from the reference");
            }
            !ok
        })
        .count() as u64
}

/// One fresh deployment's set-up time in seconds.
fn fresh(cfg: &Cfg) -> Result<f64, String> {
    let t0 = Instant::now();
    let session = deploy(cfg, None)?;
    let s = t0.elapsed().as_secs_f64();
    drop(session);
    Ok(s)
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let pool = pool(cfg);
    let n = op_count(cfg.seconds, NOMINAL_OPS_PER_S, TAIL.min_samples());
    let stride = (n / CHECKED).max(1);
    let mut d = ClosedLoop {
        session: deploy(cfg, None)?,
        backend: backend(cfg),
        pool: &pool,
        calls: 0,
        samples: Vec::with_capacity(CHECKED + 2),
        attempted: 0,
        failed: 0,
    };
    for i in 0..WARMUP {
        d.call(i == 0, None);
    }
    let (floor, cap) = (TAIL.min_samples(), phase_cap(cfg.seconds));
    let every = n.div_ceil(SETUP_GROUPS);
    let mut setups = Setups::new(SETUPS);
    let mut lat = Latencies::with_capacity(n);
    let t0 = Instant::now();
    for i in 0..n {
        if i % every == 0 {
            setups.group(|| fresh(cfg))?;
        }
        if let Some(dt) = d.call(i % stride == 0, None) {
            lat.push(dt);
        }
        if i + 1 >= floor && t0.elapsed() - setups.paused() > cap {
            break;
        }
    }
    let wall = (t0.elapsed() - setups.paused()).as_secs_f64();
    let setup_s = setups.finish(|| fresh(cfg))?;
    let rss = peak_rss_mib();
    drop(d.session);
    let exec = reference_executor(cfg)?;
    let mismatches = verify(&exec, &pool, &d.samples);

    let mut out = Outcome {
        attempted: d.attempted,
        failed: d.failed + mismatches,
        ..Outcome::default()
    };
    out.end_to_end(setup_s, &lat, BATCH, wall, rss);
    Ok(out)
}

/// The traced pass: per-layer metrics, the kernel replay and the
/// per-node table.
pub fn traced(cfg: &Cfg, epoch: Instant) -> Result<(Outcome, Tracer), String> {
    let mut tr = Tracer::new(epoch, 1 << 16);
    let mut session = None;
    for _ in 0..3 {
        drop(session.take());
        session = Some(deploy(cfg, Some(&mut tr))?);
    }
    let setup = layers(tr.spans());
    let pool = pool(cfg);
    let mut d = ClosedLoop {
        session: session.expect("deployed"),
        backend: backend(cfg),
        pool: &pool,
        calls: 0,
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for _ in 0..WARMUP / 2 {
        d.call(false, None);
    }

    let platform = d.session.platform().clone();
    let graph = platform.graph();
    let weights = platform.weights().ok_or("platform without weights")?;
    let replay = Replay::program(
        graph,
        weights,
        &XbarConfig::hermes_256(),
        cfg.derive(TAG_XBAR),
    )?;

    // Untraced and traced calls alternate, so both see the same host; every
    // REPLAY_EVERY-th traced call's batch is then replayed through the
    // kernels, so the replays sample the same host states as the calls.
    let half = op_count(cfg.seconds / 2.0, NOMINAL_OPS_PER_S, REPLAY_EVERY);
    let mvms0 = d.session.total_mvms();
    let images0 = d.session.images_seen();
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut rows = vec![Row::default(); graph.len()];
    let mut rounds: Vec<[f64; 3]> = Vec::new();
    let mut replay_mismatches = 0;
    for i in 0..half {
        let t0 = Instant::now();
        d.call(false, None);
        plain += t0.elapsed();
        let kept = d.samples.len();
        let t0 = Instant::now();
        d.call(i % REPLAY_EVERY == 0, Some(&mut tr));
        traced += t0.elapsed();
        let Some((base, slot, logits)) = d.samples.get(kept).cloned() else {
            continue;
        };
        let (round, outs) = replay.batch(graph, &pool[slot], base, epoch)?;
        if !bit_identical(&outs, &logits) {
            eprintln!("infer_resnet18: kernel replay at base {base} differs from Session::infer");
            replay_mismatches += 1;
        }
        let round_rows = replay_rows(round.spans(), graph.len());
        // Per image at the session's thread count: thread time / images / threads.
        let per_image = |part: fn(&Row) -> f64| {
            round_rows.iter().map(part).sum::<f64>() / 1e6 / (BATCH * THREADS) as f64
        };
        rounds.push([
            per_image(|r| r.mvm),
            per_image(|r| r.im2col),
            per_image(|r| r.digital),
        ]);
        for (sum, r) in rows.iter_mut().zip(&round_rows) {
            sum.add(r);
        }
        tr.absorb(round, None);
    }
    let images = d.session.images_seen() - images0;
    let mvms = d.session.total_mvms() - mvms0;
    let infer_ms = median_of(tr.spans(), "dnn.infer") / 1e6 / BATCH as f64;
    let component = |k: usize| median(&rounds.iter().map(|r| r[k]).collect::<Vec<_>>());
    let (mvm, im2col, digital) = (component(0), component(1), component(2));

    // Serial against Threads(2) on the same images.
    let (mut serial, mut threads) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (par, times) in [(Parallelism::Serial, &mut serial), (PAR, &mut threads)] {
            d.session.set_parallelism(par);
            d.calls = 0;
            if let Some(dt) = d.call(false, None) {
                times.push(dt.as_secs_f64());
            }
        }
    }
    let speedup = median(&serial) / median(&threads);

    // Modeled half of the table: the simulator on the same platform.
    let report = d
        .session
        .run(RunSpec::batch(BATCH))
        .map_err(|e| format!("infer_resnet18 run: {e}"))?
        .clone();
    let mut modeled_ns = vec![0.0; graph.len()];
    for st in stage_traces(platform.mapping(), &report) {
        // The source stage stands for no graph node.
        if let Some(ns) = modeled_ns.get_mut(platform.mapping().stages[st.stage].node) {
            *ns += st.busy.as_ns_f64() / BATCH as f64;
        }
    }

    drop(d.session);
    let exec = reference_executor(cfg)?;
    let mismatches = verify(&exec, &pool, &d.samples);

    let mut out = Outcome {
        attempted: d.attempted,
        failed: d.failed + mismatches + replay_mismatches,
        ..Outcome::default()
    };
    out.check(!rounds.is_empty(), || "no traced call was replayed".into());
    out.check(images > 0 && mvms.is_multiple_of(images), || {
        format!("{mvms} MVMs over {images} images is not a whole count per image")
    });
    let mvms_per_image = mvms / images.max(1);
    let node_mvms = replay.per_node_mvms(graph.len());
    let replayed = (rounds.len() * BATCH) as u64;
    let replay_mvms: u64 = node_mvms.iter().sum();
    out.check(
        mvms_per_image > 0 && replay_mvms == mvms_per_image * replayed,
        || {
            format!(
                "replay counted {replay_mvms} MVMs for {replayed} images, \
             the session {mvms_per_image} per image"
            )
        },
    );
    print_table(graph, &rows, &node_mvms, &modeled_ns, replayed);

    let ms = |name: &str| setup.get(name).map_or(0.0, |l| l.p50_ns / 1e6);
    out.metric_note(
        "dnn.weights_ms",
        ms("dnn.weights"),
        "ms",
        "he_init, median of 3",
    );
    out.metric_note(
        "xbar.program_ms",
        ms("xbar.program"),
        "ms",
        "Session::program, median of 3",
    );
    out.metric_note(
        "dnn.infer_ms_per_image",
        infer_ms,
        "ms",
        format!("Session::infer span / {BATCH}, median of {half} traced calls"),
    );
    out.metric_note(
        "xbar.mvm_ms_per_image",
        mvm,
        "ms",
        "replay, per image at 2 threads",
    );
    out.metric_note(
        "dnn.im2col_ms_per_image",
        im2col,
        "ms",
        "replay, per image at 2 threads",
    );
    out.metric_note(
        "dnn.digital_ms_per_image",
        digital,
        "ms",
        "replay: relu, maxpool, add, avgpool",
    );
    out.metric_note(
        "dnn.overhead_ms_per_image",
        infer_ms - mvm - im2col - digital,
        "ms",
        "infer minus the three replay components: copies, allocation, dispatch",
    );
    out.metric_note(
        "xbar.mvms_per_image",
        mvms_per_image as f64,
        "count",
        "Session::total_mvms",
    );
    out.metric_note(
        "parallel.speedup",
        speedup,
        "x",
        format!("Serial / Threads({THREADS}) ms per image, median of 3 calls each"),
    );
    out.metric_note(
        "trace.overhead_pct.infer_resnet18",
        (traced.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0,
        "%",
        format!("{half} traced against {half} untraced calls, interleaved"),
    );
    Ok((out, tr))
}

fn median_of(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Measured host ns of one graph node, summed over the replayed images.
#[derive(Debug, Default, Clone)]
struct Row {
    im2col: f64,
    mvm: f64,
    digital: f64,
    /// The node span's self time: fetch clones, reductions, allocation.
    rest: f64,
}

impl Row {
    fn add(&mut self, other: &Row) {
        self.im2col += other.im2col;
        self.mvm += other.mvm;
        self.digital += other.digital;
        self.rest += other.rest;
    }
}

fn replay_rows(spans: &[Span], nodes: usize) -> Vec<Row> {
    let selfs = crate::trace::self_times(spans);
    let mut rows = vec![Row::default(); nodes];
    for (s, own) in spans.iter().zip(selfs) {
        if s.name == "replay.node" {
            rows[s.req as usize].rest += own as f64;
            continue;
        }
        let Some(node) = s
            .parent
            .map(|p| &spans[p])
            .filter(|p| p.name == "replay.node")
        else {
            continue;
        };
        let row = &mut rows[node.req as usize];
        let d = s.dur() as f64;
        match s.name {
            "dnn.im2col" => row.im2col += d,
            "xbar.mvm" => row.mvm += d,
            "dnn.digital" => row.digital += d,
            _ => {}
        }
    }
    rows
}

fn print_table(graph: &Graph, rows: &[Row], mvms: &[u64], modeled_ns: &[f64], replayed: u64) {
    println!("== infer_resnet18 per graph node, per image ==");
    println!(
        "{:<22} | {:^56} | {:>12}",
        "", "measured: host ns on one of 2 replay threads", "modeled ns"
    );
    println!(
        "{:<16} {:<5} | {:>10} {:>10} {:>10} {:>10} {:>10} | {:>12}",
        "node", "kind", "im2col", "mvm", "digital", "other", "MVMs", "stage busy"
    );
    let n = replayed.max(1) as f64;
    for (node, ((r, m), busy)) in graph
        .nodes()
        .iter()
        .zip(rows.iter().zip(mvms).zip(modeled_ns))
    {
        println!(
            "{:<16} {:<5} | {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10} | {:>12.0}",
            node.name,
            node.kind.mnemonic(),
            r.im2col / n,
            r.mvm / n,
            r.digital / n,
            r.rest / n,
            m / replayed.max(1),
            busy
        );
    }
}

/// Reusable replay buffers (as the executor keeps one per worker).
#[derive(Debug, Default)]
struct Scratch {
    patch: Vec<f32>,
    xs: Vec<f32>,
    col: Vec<f32>,
    mvm: MvmScratch,
}

/// One analog layer programmed the way the executor programs it: tile
/// `(row split, col split)` number `t` from `stream_seed(seed, node, t)`.
#[derive(Debug)]
struct ReplayLayer {
    cfg: ConvCfg,
    tiles: Vec<Vec<Crossbar>>,
    rows: Vec<(usize, usize)>,
    cols: Vec<(usize, usize)>,
}

/// The executor's image walk rebuilt from public kernels, with a span
/// around every kernel call.
#[derive(Debug)]
struct Replay {
    layers: HashMap<usize, ReplayLayer>,
}

fn analog_cfg(kind: &LayerKind) -> Option<ConvCfg> {
    match kind {
        LayerKind::Conv(c) => Some(*c),
        LayerKind::Residual { projection } => *projection,
        LayerKind::Linear {
            in_features,
            out_features,
        } => Some(ConvCfg {
            in_ch: *in_features,
            out_ch: *out_features,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
            relu: false,
        }),
        _ => None,
    }
}

impl Replay {
    fn program(
        graph: &Graph,
        weights: &Weights,
        xbar: &XbarConfig,
        seed: u64,
    ) -> Result<Self, String> {
        let mut layers = HashMap::new();
        for node in graph.nodes() {
            let Some(cfg) = analog_cfg(&node.kind) else {
                continue;
            };
            let w = weights
                .get(node.id)
                .ok_or_else(|| format!("no weights for {}", node.name))?;
            let wx = ops::weights_to_xbar_layout(w, &cfg);
            let cols = cfg.xbar_cols();
            let row_chunks = ceil_split(cfg.xbar_rows(), xbar.rows);
            let col_chunks = ceil_split(cols, xbar.cols);
            let mut tiles = Vec::with_capacity(row_chunks.len());
            let mut t = 0;
            for &(r0, rl) in &row_chunks {
                let mut row = Vec::with_capacity(col_chunks.len());
                for &(c0, cl) in &col_chunks {
                    let mut block = Vec::with_capacity(rl * cl);
                    for r in r0..r0 + rl {
                        block.extend_from_slice(&wx[r * cols + c0..r * cols + c0 + cl]);
                    }
                    let mut rng = StdRng::seed_from_u64(stream_seed(seed, node.id as u64, t));
                    t += 1;
                    row.push(
                        Crossbar::program(xbar, &block, rl, cl, &mut rng)
                            .map_err(|e| format!("replay program {}: {e}", node.name))?,
                    );
                }
                tiles.push(row);
            }
            layers.insert(
                node.id,
                ReplayLayer {
                    cfg,
                    tiles,
                    rows: row_chunks,
                    cols: col_chunks,
                },
            );
        }
        Ok(Replay { layers })
    }

    /// MVMs the replay crossbars evaluated, per graph node.
    fn per_node_mvms(&self, nodes: usize) -> Vec<u64> {
        (0..nodes)
            .map(|id| {
                self.layers.get(&id).map_or(0, |l| {
                    l.tiles.iter().flatten().map(Crossbar::mvm_count).sum()
                })
            })
            .collect()
    }

    /// One batch at base coordinate `base`, image `i` on thread
    /// `i mod THREADS` as the executor's image-parallel path spreads it;
    /// returns the spans (under one `bench.replay` root) and the logits.
    fn batch(
        &self,
        graph: &Graph,
        images: &[Tensor],
        base: u64,
        epoch: Instant,
    ) -> Result<(Tracer, Vec<Tensor>), String> {
        let mut tr = Tracer::new(epoch, 1 << 16);
        let root = tr.open("bench.replay", None, base);
        let workers: Vec<Result<(Tracer, Vec<Tensor>), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    s.spawn(move || {
                        let mut tr = Tracer::new(epoch, 1 << 15);
                        let mut scratch = Scratch::default();
                        let outs = (t..images.len())
                            .step_by(THREADS)
                            .map(|i| {
                                self.image(
                                    graph,
                                    &images[i],
                                    base + i as u64,
                                    &mut scratch,
                                    &mut tr,
                                )
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        Ok((tr, outs))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread"))
                .collect()
        });
        let mut logits = vec![None; images.len()];
        for (t, w) in workers.into_iter().enumerate() {
            let (worker, outs) = w?;
            for (k, y) in outs.into_iter().enumerate() {
                logits[t + k * THREADS] = Some(y);
            }
            tr.absorb(worker, Some(root));
        }
        tr.close(root);
        Ok((
            tr,
            logits
                .into_iter()
                .map(|y| y.expect("every image replayed"))
                .collect(),
        ))
    }

    /// One image at image coordinate `img`, node by node as the executor
    /// walks it.
    fn image(
        &self,
        graph: &Graph,
        input: &Tensor,
        img: u64,
        s: &mut Scratch,
        tr: &mut Tracer,
    ) -> Result<Tensor, String> {
        let root = tr.open("replay.image", None, img);
        let mut outs: Vec<Tensor> = Vec::with_capacity(graph.len());
        for node in graph.nodes() {
            let id = tr.open("replay.node", Some(root), node.id as u64);
            let fetch = |slot: usize, outs: &[Tensor]| match node.inputs.get(slot) {
                Some(&p) => outs[p].clone(),
                None => input.clone(),
            };
            let layer = || {
                self.layers
                    .get(&node.id)
                    .ok_or_else(|| format!("{} not programmed", node.name))
            };
            let digital = |tr: &mut Tracer, f: &mut dyn FnMut() -> Tensor| {
                let t0 = tr.now();
                let y = f();
                let t1 = tr.now();
                tr.record("dnn.digital", Some(id), img, t0, t1);
                y
            };
            let y = match &node.kind {
                LayerKind::Input => input.clone(),
                LayerKind::Conv(_) => layer()?.conv(&fetch(0, &outs), img, s, tr, id)?,
                LayerKind::DepthwiseConv(_) => {
                    return Err(format!("{}: depthwise layers are not replayed", node.name))
                }
                LayerKind::MaxPool { k, stride, pad } => {
                    let x = fetch(0, &outs);
                    digital(tr, &mut || ops::maxpool2d(&x, *k, *stride, *pad))
                }
                LayerKind::GlobalAvgPool => {
                    let x = fetch(0, &outs);
                    digital(tr, &mut || ops::global_avgpool(&x))
                }
                LayerKind::Linear { out_features, .. } => {
                    let x = fetch(0, &outs);
                    let flat = Tensor::from_vec(Shape::new(x.shape().numel(), 1, 1), x.into_vec());
                    let y = layer()?.conv(&flat, img, s, tr, id)?;
                    Tensor::from_vec(Shape::new(*out_features, 1, 1), y.into_vec())
                }
                LayerKind::Residual { projection } => {
                    let main = fetch(0, &outs);
                    let skip = fetch(1, &outs);
                    let skip = match projection {
                        Some(_) => layer()?.conv(&skip, img, s, tr, id)?,
                        None => skip,
                    };
                    digital(tr, &mut || ops::add(&main, &skip, true))
                }
            };
            outs.push(y);
            tr.close(id);
        }
        tr.close(root);
        outs.pop().ok_or_else(|| "empty graph".into())
    }
}

impl ReplayLayer {
    /// The executor's per-image convolution: batches of up to
    /// `DAC_BATCH` output pixels, im2col, one batched MVM per tile, and
    /// the digital reduction of row-split partials in tile order.
    fn conv(
        &self,
        x: &Tensor,
        img: u64,
        s: &mut Scratch,
        tr: &mut Tracer,
        parent: usize,
    ) -> Result<Tensor, String> {
        let outs = self.cfg.out_shape(x.shape());
        let mut y = Tensor::zeros(outs);
        let rows = self.cfg.xbar_rows();
        let max_cl = self.cols.iter().map(|c| c.1).max().unwrap_or(0);
        for (buf, len) in [
            (&mut s.patch, rows),
            (&mut s.xs, rows),
            (&mut s.col, max_cl),
        ] {
            if buf.len() < DAC_BATCH * len {
                buf.resize(DAC_BATCH * len, 0.0);
            }
        }
        let n_pix = outs.h * outs.w;
        let single = self.rows.len() == 1;
        let mut inv = [0u64; DAC_BATCH];
        for p0 in (0..n_pix).step_by(DAC_BATCH) {
            let k = DAC_BATCH.min(n_pix - p0);
            let t0 = tr.now();
            for (p, v) in inv.iter_mut().enumerate().take(k) {
                let pix = p0 + p;
                *v = img * n_pix as u64 + pix as u64;
                ops::im2col_patch(
                    x,
                    &self.cfg,
                    pix / outs.w,
                    pix % outs.w,
                    &mut s.patch[p * rows..(p + 1) * rows],
                );
            }
            let t1 = tr.now();
            tr.record("dnn.im2col", Some(parent), img, t0, t1);
            for (ri, &(r0, rl)) in self.rows.iter().enumerate() {
                let xin: &[f32] = if single {
                    &s.patch[..k * rows]
                } else {
                    for p in 0..k {
                        s.xs[p * rl..(p + 1) * rl]
                            .copy_from_slice(&s.patch[p * rows + r0..p * rows + r0 + rl]);
                    }
                    &s.xs[..k * rl]
                };
                for (ci, &(c0, cl)) in self.cols.iter().enumerate() {
                    let out = &mut s.col[..k * cl];
                    let t0 = tr.now();
                    self.tiles[ri][ci]
                        .mvm_batch_into_with(xin, out, &inv[..k], &mut s.mvm)
                        .map_err(|e| format!("replay mvm: {e}"))?;
                    let t1 = tr.now();
                    tr.record("xbar.mvm", Some(parent), img, t0, t1);
                    for p in 0..k {
                        let pix = p0 + p;
                        let (oh, ow) = (pix / outs.w, pix % outs.w);
                        for (c, &v) in out[p * cl..(p + 1) * cl].iter().enumerate() {
                            let cur = y.get(c0 + c, oh, ow);
                            y.set(c0 + c, oh, ow, cur + v);
                        }
                    }
                }
            }
        }
        if self.cfg.relu {
            let t0 = tr.now();
            ops::relu_inplace(&mut y);
            let t1 = tr.now();
            tr.record("dnn.digital", Some(parent), img, t0, t1);
        }
        Ok(y)
    }
}
