//! Functional AIMC executor: runs a graph with every analog-amenable layer
//! (convolutions, the FC head, residual projections) evaluated on modeled
//! PCM crossbars from `aimc-xbar`, split across multiple arrays exactly like
//! the multi-cluster mapping of Sec. V-1:
//!
//! * rows (`Cin·Kx·Ky`) beyond the array height are split across arrays and
//!   the partial outputs are **reduced digitally** (as the CORES do);
//! * columns (`Cout`) beyond the array width are split across arrays with the
//!   input **broadcast** to each.
//!
//! Digital layers (pooling, residual adds, ReLU) use the golden ops — they
//! run on the RISC-V cores in the real system.
//!
//! This executor answers the functional question the timing simulator cannot:
//! *does the network still classify correctly through quantized, noisy analog
//! arrays?* (See the `analog_accuracy` example.)
//!
//! ## Determinism under parallel execution
//!
//! The paper's 512 AIMC cores evaluate tile-MVMs concurrently; this executor
//! mirrors that with the `aimc-parallel` engine while keeping one hard
//! invariant: **for a fixed seed, the logits are bit-identical no matter how
//! many threads run**. Three mechanisms carry the invariant:
//!
//! 1. every tile is programmed from its own RNG stream, seeded by
//!    `stream_seed(seed, layer_id, tile_index)` — no shared programming RNG
//!    to serialize on;
//! 2. every MVM's read noise comes from the stream of its *invocation
//!    coordinate* `image_index · patches_per_layer + patch_index`, which
//!    [`Crossbar::mvm_batch_into_with`] takes per patch — noise depends on
//!    where the MVM sits in the workload, never on scheduling order. The
//!    coordinate is computed with wrapping arithmetic, so every `u64`
//!    image index is a valid stream coordinate;
//! 3. digital reduction of row-split partials accumulates tile outputs
//!    into a pixel-major `[pixel][out_channel]` buffer, starting from
//!    `+0.0` and adding in fixed ascending `(row_split, col_split)` order,
//!    then transposes it once into the CHW output — every output element
//!    sees the same f32 additions in the same order on the serial,
//!    image-parallel and tile-parallel paths.
//!
//! ## Data path
//!
//! Per analog layer, a padded layer's input is copied once into a
//! zero-bordered per-worker buffer, so every im2col window lies inside it
//! and is gathered as contiguous `kw`-wide tap rows
//! ([`ops::im2col_patch`]'s interior path). Per image, nodes read their
//! inputs by reference and each activation is dropped after its last
//! consumer, so no activation is cloned and an image keeps alive only what
//! a later node still reads.

use crate::executor::{check_weights, ExecError, Executor};
use crate::graph::Graph;
use crate::layer::{ConvCfg, LayerKind};
use crate::ops::{self, ceil_split};
use crate::tensor::{Shape, Tensor};
use crate::weights::Weights;
use aimc_parallel::{map_with, try_map_indexed, Parallelism};
use aimc_xbar::stream::stream_seed;
use aimc_xbar::{Crossbar, MvmScratch, XbarConfig, XbarError, DAC_BATCH};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Reusable per-worker buffers for an analog layer: the zero-padded layer
/// input, up to [`DAC_BATCH`] im2col patches, their per-tile row slices,
/// the per-tile output slab, the layer's pixel-major partial-sum
/// accumulator, and the crossbar kernel's own [`MvmScratch`]. One scratch
/// lives per worker thread (or one per executor call in serial mode) and
/// is recycled across every patch, tile, layer, and image that worker
/// touches — once warm, the per-patch loop allocates nothing and a layer
/// allocates only its output tensor.
#[derive(Debug, Default)]
struct InferScratch {
    /// The layer input with a `pad`-wide zero border, so every im2col
    /// window lies inside it (padded layers only).
    padded: Vec<f32>,
    /// Up to [`DAC_BATCH`] concatenated im2col patches, each sized to the
    /// largest `xbar_rows()` among analog layers.
    patch: Vec<f32>,
    /// Per-tile row slices of the batched patches (row-split layers only).
    xs: Vec<f32>,
    /// Per-tile MVM outputs for the batch, sized to the largest column
    /// chunk × [`DAC_BATCH`].
    col: Vec<f32>,
    /// The layer's `[pixel][out_channel]` sums of tile outputs, transposed
    /// once into the CHW output.
    acc: Vec<f32>,
    /// Kernel-internal buffers (quantized inputs, row masks, accumulators).
    mvm: MvmScratch,
}

impl InferScratch {
    /// Grows the patch buffers to cover a layer with `rows` patch elements
    /// and `max_cols` output columns (no-op once warm).
    fn reserve(&mut self, rows: usize, max_cols: usize) {
        if self.patch.len() < DAC_BATCH * rows {
            self.patch.resize(DAC_BATCH * rows, 0.0);
        }
        if self.xs.len() < DAC_BATCH * rows {
            self.xs.resize(DAC_BATCH * rows, 0.0);
        }
        if self.col.len() < DAC_BATCH * max_cols {
            self.col.resize(DAC_BATCH * max_cols, 0.0);
        }
    }

    /// Copies `x` into the padded buffer with a `pad`-wide zero border and
    /// lends it out as a tensor; put its buffer back into `padded` to keep
    /// the allocation.
    fn take_padded(&mut self, x: &Tensor, pad: usize) -> Tensor {
        let s = x.shape();
        let ps = Shape::new(s.c, s.h + 2 * pad, s.w + 2 * pad);
        let mut buf = std::mem::take(&mut self.padded);
        buf.clear();
        buf.resize(ps.numel(), 0.0);
        for (i, row) in x.data().chunks_exact(s.w).enumerate() {
            let at = (i / s.h * ps.h + i % s.h + pad) * ps.w + pad;
            buf[at..at + s.w].copy_from_slice(row);
        }
        Tensor::from_vec(ps, buf)
    }
}

/// Adds a tile's `[pixel][cl]` outputs into output channels `c0 .. c0 + cl`
/// of the `[pixel][cout]` accumulator `acc`.
fn accumulate(acc: &mut [f32], cout: usize, (c0, cl): (usize, usize), tile_out: &[f32]) {
    for (sums, outs) in acc.chunks_exact_mut(cout).zip(tile_out.chunks_exact(cl)) {
        for (sum, &v) in sums[c0..c0 + cl].iter_mut().zip(outs) {
            *sum += v;
        }
    }
}

/// One analog layer deployed across one or more crossbar tiles.
#[derive(Debug)]
struct AnalogLayer {
    cfg: ConvCfg,
    /// `tiles[row_split][col_split]`.
    tiles: Vec<Vec<Crossbar>>,
    row_chunks: Vec<(usize, usize)>, // (start, len) in xbar-row space
    col_chunks: Vec<(usize, usize)>, // (start, len) in output-channel space
}

impl AnalogLayer {
    /// Programs the layer's tiles, each from its own
    /// `stream_seed(seed, layer_id, tile)` RNG stream — tiles are
    /// independent, so programming parallelizes without changing a single
    /// conductance.
    fn program(
        cfg: ConvCfg,
        xbar_weights: &[f32], // [rows][cols] row-major
        xbar_cfg: &XbarConfig,
        seed: u64,
        layer_id: usize,
        par: Parallelism,
    ) -> Result<Self, XbarError> {
        let rows = cfg.xbar_rows();
        let cols = cfg.xbar_cols();
        let row_chunks = ceil_split(rows, xbar_cfg.rows);
        let col_chunks = ceil_split(cols, xbar_cfg.cols);
        let n_cols = col_chunks.len();

        // Flat tile descriptors in (row_split, col_split) order.
        let descs: Vec<(usize, usize)> = (0..row_chunks.len())
            .flat_map(|ri| (0..n_cols).map(move |ci| (ri, ci)))
            .collect();
        let flat: Vec<Crossbar> = try_map_indexed(par, &descs, |t, &(ri, ci)| {
            let (r0, rl) = row_chunks[ri];
            let (c0, cl) = col_chunks[ci];
            let mut block = Vec::with_capacity(rl * cl);
            for r in r0..r0 + rl {
                block.extend_from_slice(&xbar_weights[r * cols + c0..r * cols + c0 + cl]);
            }
            let mut rng = StdRng::seed_from_u64(stream_seed(seed, layer_id as u64, t as u64));
            Crossbar::program(xbar_cfg, &block, rl, cl, &mut rng)
        })?;

        let mut tiles = Vec::with_capacity(row_chunks.len());
        let mut it = flat.into_iter();
        for _ in 0..row_chunks.len() {
            tiles.push(it.by_ref().take(n_cols).collect());
        }
        Ok(AnalogLayer {
            cfg,
            tiles,
            row_chunks,
            col_chunks,
        })
    }

    /// Widest column chunk (scratch sizing).
    fn max_col_chunk(&self) -> usize {
        self.col_chunks.iter().map(|c| c.1).max().unwrap_or(0)
    }

    /// Full conv via per-pixel im2col MVMs with digital partial reduction.
    ///
    /// `img` is the image's global invocation base coordinate; the MVM for
    /// output pixel `p` of this image uses invocation `img · n_pixels + p`
    /// on every tile, making the noise independent of evaluation order.
    /// With a parallel setting and more than one tile, tiles are evaluated
    /// concurrently and merged in the serial reduction order.
    ///
    /// A padded layer first copies its input once into the scratch's
    /// zero-bordered buffer and gathers every patch from there with
    /// `pad: 0`, so no window takes im2col's bounds-checked border path.
    /// Tile outputs are summed pixel-major into the scratch accumulator and
    /// transposed once into the CHW output.
    fn conv(&self, x: &Tensor, img: u64, scratch: &mut InferScratch, par: Parallelism) -> Tensor {
        let outs = self.cfg.out_shape(x.shape());
        let padded = (self.cfg.pad > 0).then(|| scratch.take_padded(x, self.cfg.pad));
        let (src, cfg) = match &padded {
            Some(p) => (p, ConvCfg { pad: 0, ..self.cfg }),
            None => (x, self.cfg),
        };
        scratch.acc.clear();
        scratch.acc.resize(outs.numel(), 0.0);
        let n_tiles = self.row_chunks.len() * self.col_chunks.len();
        if par.is_parallel() && n_tiles > 1 {
            self.conv_tiles_parallel(src, &cfg, img, outs, &mut scratch.acc, par);
        } else {
            self.conv_serial(src, &cfg, img, outs, scratch);
        }
        if let Some(p) = padded {
            scratch.padded = p.into_vec();
        }
        // Transpose the `[pixel][out_channel]` sums into CHW.
        let mut y = Vec::with_capacity(outs.numel());
        for oc in 0..outs.c {
            y.extend(scratch.acc[oc..].iter().step_by(outs.c));
        }
        let mut y = Tensor::from_vec(outs, y);
        if self.cfg.relu {
            ops::relu_inplace(&mut y);
        }
        y
    }

    /// The reference single-thread evaluation (also the per-image body under
    /// image-level parallelism), gathering patches from `x` with `cfg` (the
    /// layer's geometry, padding already applied to `x`) and summing tile
    /// outputs into `scratch.acc`.
    ///
    /// Output pixels are evaluated in chunks of up to [`DAC_BATCH`] patches
    /// per tile through [`Crossbar::mvm_batch_into_with`], which is
    /// bit-identical to the equivalent sequence of single MVMs (each patch
    /// carries its own explicit invocation coordinate). Per output element
    /// the digital reduction still runs in ascending `(row_split,
    /// col_split)` order, so the f32 sums match the unbatched loop exactly.
    fn conv_serial(
        &self,
        x: &Tensor,
        cfg: &ConvCfg,
        img: u64,
        outs: Shape,
        scratch: &mut InferScratch,
    ) {
        let rows = cfg.xbar_rows();
        scratch.reserve(rows, self.max_col_chunk());
        let n_pix = outs.h * outs.w;
        let single_row_chunk = self.row_chunks.len() == 1;
        let mut invocations = [0u64; DAC_BATCH];
        for p0 in (0..n_pix).step_by(DAC_BATCH) {
            let k = DAC_BATCH.min(n_pix - p0);
            for (p, inv) in invocations.iter_mut().enumerate().take(k) {
                let pix = p0 + p;
                let (oh, ow) = (pix / outs.w, pix % outs.w);
                *inv = img.wrapping_mul(n_pix as u64).wrapping_add(pix as u64);
                ops::im2col_patch(x, cfg, oh, ow, &mut scratch.patch[p * rows..(p + 1) * rows]);
            }
            for (ri, &(r0, rl)) in self.row_chunks.iter().enumerate() {
                // Row-split layers gather each tile's row slice of every
                // patch; unsplit layers (the common case) feed the patch
                // buffer straight to the kernel.
                let xin: &[f32] = if single_row_chunk {
                    &scratch.patch[..k * rows]
                } else {
                    for p in 0..k {
                        scratch.xs[p * rl..(p + 1) * rl]
                            .copy_from_slice(&scratch.patch[p * rows + r0..p * rows + r0 + rl]);
                    }
                    &scratch.xs[..k * rl]
                };
                for (ci, &chunk) in self.col_chunks.iter().enumerate() {
                    let out = &mut scratch.col[..k * chunk.1];
                    self.tiles[ri][ci]
                        .mvm_batch_into_with(xin, out, &invocations[..k], &mut scratch.mvm)
                        .expect("programmed dimensions are consistent");
                    // Digital reduction of row-split partials.
                    let sums = &mut scratch.acc[p0 * outs.c..(p0 + k) * outs.c];
                    accumulate(sums, outs.c, chunk, out);
                }
            }
        }
    }

    /// Tile-level parallel evaluation: each tile sweeps all output pixels
    /// into a private partial plane; planes are then summed into `acc` in
    /// `(row_split, col_split)` order — the exact f32 addition order of
    /// [`AnalogLayer::conv_serial`] — so the result is bit-identical.
    fn conv_tiles_parallel(
        &self,
        x: &Tensor,
        cfg: &ConvCfg,
        img: u64,
        outs: Shape,
        acc: &mut [f32],
        par: Parallelism,
    ) {
        let max_rl = self.row_chunks.iter().map(|c| c.1).max().unwrap_or(0);
        let n_pix = outs.h * outs.w;
        let descs: Vec<(usize, usize)> = (0..self.row_chunks.len())
            .flat_map(|ri| (0..self.col_chunks.len()).map(move |ci| (ri, ci)))
            .collect();

        let planes: Vec<Vec<f32>> = map_with(
            par,
            &descs,
            || (vec![0.0f32; DAC_BATCH * max_rl], MvmScratch::new()),
            |(patch, mvm), _, &(ri, ci)| {
                let (r0, rl) = self.row_chunks[ri];
                let (_, cl) = self.col_chunks[ci];
                let tile = &self.tiles[ri][ci];
                let mut plane = vec![0.0f32; cl * n_pix];
                let mut invocations = [0u64; DAC_BATCH];
                // Consecutive output pixels are batched through the tile:
                // bit-identical to single MVMs, and the batch outputs land
                // contiguously in the plane.
                for p0 in (0..n_pix).step_by(DAC_BATCH) {
                    let k = DAC_BATCH.min(n_pix - p0);
                    for (p, inv) in invocations.iter_mut().enumerate().take(k) {
                        let pix = p0 + p;
                        let (oh, ow) = (pix / outs.w, pix % outs.w);
                        *inv = img.wrapping_mul(n_pix as u64).wrapping_add(pix as u64);
                        // Each tile extracts only its own row slice of the
                        // im2col patch (the broadcast input it would receive
                        // in hardware), not the full patch.
                        ops::im2col_patch_range(
                            x,
                            cfg,
                            oh,
                            ow,
                            r0,
                            &mut patch[p * rl..(p + 1) * rl],
                        );
                    }
                    tile.mvm_batch_into_with(
                        &patch[..k * rl],
                        &mut plane[p0 * cl..(p0 + k) * cl],
                        &invocations[..k],
                        mvm,
                    )
                    .expect("programmed dimensions are consistent");
                }
                plane
            },
        );

        for (&(_, ci), plane) in descs.iter().zip(&planes) {
            accumulate(acc, outs.c, self.col_chunks[ci], plane);
        }
    }

    fn total_mvms(&self) -> u64 {
        self.tiles.iter().flatten().map(|t| t.mvm_count()).sum()
    }
}

/// Graph executor with analog layers on modeled crossbars.
///
/// Inference takes `&self` and the executor is `Sync`: programmed state is
/// immutable between [`AimcExecutor::apply_drift`] calls and all evaluation
/// randomness comes from per-tile, per-invocation streams, so any number of
/// threads may infer concurrently — and produce exactly the logits a serial
/// run would (see the module docs).
///
/// # Examples
/// ```no_run
/// use aimc_dnn::{he_init, resnet18_cifar, AimcExecutor, Executor, Parallelism, Shape, Tensor};
/// use aimc_xbar::XbarConfig;
/// use std::sync::Arc;
/// let g = Arc::new(resnet18_cifar(10));
/// let w = Arc::new(he_init(&g, 0));
/// let par = Parallelism::Serial;
/// let exec =
///     AimcExecutor::try_program_shared_with(g, w, &XbarConfig::hermes_256(), 1, par).unwrap();
/// let y = exec.infer_batch(&[Tensor::zeros(Shape::new(3, 32, 32))], par).unwrap();
/// assert_eq!(y[0].shape(), Shape::new(10, 1, 1));
/// ```
#[derive(Debug)]
pub struct AimcExecutor {
    graph: Arc<Graph>,
    weights: Arc<Weights>,
    analog: HashMap<usize, AnalogLayer>,
    /// `last_use[id]`: the last node that reads node `id`'s activation (`id`
    /// itself when none does); [`AimcExecutor::run_image`] frees each
    /// activation right after it.
    last_use: Vec<usize>,
    /// Images started so far — the base of each image's invocation
    /// coordinates. Atomic so batches and concurrent callers claim disjoint
    /// coordinate ranges; a serial sequence of one-image `infer_batch`
    /// calls and one `infer_batch` over the same images see identical
    /// coordinates.
    images_seen: AtomicU64,
}

impl AimcExecutor {
    /// Programs all analog layers of `graph` onto crossbars, sharing
    /// already-owned graph/weights handles (no deep copy — the
    /// `aimc-platform` session keeps both behind `Arc`). Tiles are
    /// programmed concurrently up to `par`, each from its own deterministic
    /// stream, so the conductance image is identical to a serial
    /// deployment.
    ///
    /// # Errors
    /// [`ExecError::MissingWeights`] if a parametric node lacks weights;
    /// [`ExecError::Xbar`] on programming failures (e.g. invalid config).
    pub fn try_program_shared_with(
        graph: Arc<Graph>,
        weights: Arc<Weights>,
        xbar_cfg: &XbarConfig,
        seed: u64,
        par: Parallelism,
    ) -> Result<Self, ExecError> {
        check_weights(&graph, &weights)?;
        let mut analog = HashMap::new();
        for node in graph.nodes() {
            let conv_cfg = match &node.kind {
                LayerKind::Conv(c) => Some(*c),
                LayerKind::Residual {
                    projection: Some(p),
                } => Some(*p),
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
            };
            if let Some(cfg) = conv_cfg {
                let w = weights.get(node.id).expect("checked by check_weights");
                let wx = ops::weights_to_xbar_layout(w, &cfg);
                analog.insert(
                    node.id,
                    AnalogLayer::program(cfg, &wx, xbar_cfg, seed, node.id, par)?,
                );
            }
        }
        // Nodes are in topological id order, so the last write wins.
        let mut last_use: Vec<usize> = (0..graph.len()).collect();
        for node in graph.nodes() {
            for &p in &node.inputs {
                last_use[p] = node.id;
            }
        }
        Ok(AimcExecutor {
            graph,
            weights,
            analog,
            last_use,
            images_seen: AtomicU64::new(0),
        })
    }

    /// Number of crossbar tiles programmed (row splits × col splits summed
    /// over analog layers) — must agree with the mapper's IMA counts.
    pub fn tile_count(&self) -> usize {
        self.analog
            .values()
            .map(|l| l.tiles.iter().map(|r| r.len()).sum::<usize>())
            .sum()
    }

    /// Total MVMs evaluated since programming.
    pub fn total_mvms(&self) -> u64 {
        self.analog.values().map(|l| l.total_mvms()).sum()
    }

    /// Sets every programmed tile to `t_hours` since programming (see
    /// [`Crossbar::apply_drift`]): a level, so calls do not compound and
    /// the last one alone decides the conductances. Models inference long
    /// after deployment without re-programming — the scenario non-volatile
    /// AIMC targets.
    pub fn apply_drift(&mut self, t_hours: f64) {
        for layer in self.analog.values_mut() {
            for row in layer.tiles.iter_mut() {
                for tile in row.iter_mut() {
                    tile.apply_drift(t_hours);
                }
            }
        }
    }

    /// Checks every input against the graph's input shape, failing with
    /// [`ExecError::ShapeMismatch`] on the first mismatch. Every entry
    /// point checks its whole batch here before it claims a coordinate, so
    /// a rejected call neither counts as evaluated nor shifts later calls'
    /// noise streams.
    fn check_inputs<'a>(
        &self,
        inputs: impl IntoIterator<Item = &'a Tensor>,
    ) -> Result<(), ExecError> {
        let expected = self.graph.input_shape();
        match inputs.into_iter().find(|x| x.shape() != expected) {
            Some(x) => Err(ExecError::ShapeMismatch {
                expected,
                got: x.shape(),
            }),
            None => Ok(()),
        }
    }

    /// Runs a batch of images at an **explicit** base image coordinate:
    /// image `i` of the batch evaluates at global invocation coordinate
    /// `base_image_index + i` (wrapping past `u64::MAX`), regardless of
    /// what the internal counter says — the contiguous convenience over
    /// [`AimcExecutor::try_infer_batch_indexed`].
    ///
    /// # Errors
    /// [`ExecError::ShapeMismatch`] on the first (lowest-index) mismatched
    /// input.
    pub fn try_infer_batch_at(
        &self,
        inputs: &[Tensor],
        base_image_index: u64,
        par: Parallelism,
    ) -> Result<Vec<Tensor>, ExecError> {
        let items: Vec<(u64, &Tensor)> = inputs
            .iter()
            .enumerate()
            .map(|(i, x)| (base_image_index.wrapping_add(i as u64), x))
            .collect();
        self.try_infer_batch_indexed(&items, par)
    }

    /// Runs a batch where **every image carries its own explicit global
    /// stream coordinate** — contiguity is not required. This is the entry
    /// point behind the serving fleet's invariance: a router that stamps
    /// each request with its global arrival index can hand any shard any
    /// non-contiguous slice of the stream, and each image still evaluates
    /// at exactly the invocation coordinates a solo single-session run
    /// would use, so the logits are bit-identical replica for replica
    /// (same programming seed ⇒ same conductances ⇒ same noise streams).
    ///
    /// The internal counter is advanced to at least `max(k) + 1` over the
    /// batch's coordinates `k`, so a later counter-claiming
    /// [`Executor::infer_batch`] never reuses a coordinate evaluated here —
    /// up to the top of the range: the counter saturates at `u64::MAX`,
    /// and a counter-claiming call from there wraps around. An empty batch
    /// is a no-op and does not touch the counter.
    ///
    /// # Errors
    /// [`ExecError::ShapeMismatch`] on the first (lowest-index) mismatched
    /// item; the call then leaves the counter alone and evaluates nothing.
    pub fn try_infer_batch_indexed(
        &self,
        items: &[(u64, &Tensor)],
        par: Parallelism,
    ) -> Result<Vec<Tensor>, ExecError> {
        self.check_inputs(items.iter().map(|&(_, x)| x))?;
        let Some(max_coord) = items.iter().map(|&(k, _)| k).max() else {
            return Ok(Vec::new());
        };
        self.images_seen
            .fetch_max(max_coord.saturating_add(1), Ordering::Relaxed);
        if items.len() == 1 {
            let (img, x) = items[0];
            let mut scratch = InferScratch::default();
            return Ok(vec![self.run_image(x, img, &mut scratch, par)]);
        }
        // Image-level parallelism: each image runs serially inside (one
        // scratch per worker), images spread across workers.
        Ok(map_with(
            par,
            items,
            InferScratch::default,
            |scratch, _, &(img, x)| self.run_image(x, img, scratch, Parallelism::Serial),
        ))
    }

    /// Images started so far — equivalently, the next image coordinate a
    /// counter-claiming call would receive.
    pub fn images_seen(&self) -> u64 {
        self.images_seen.load(Ordering::Relaxed)
    }

    /// One image, already checked against the graph's input shape, at an
    /// explicit image coordinate (shared by the one-image and batch paths).
    ///
    /// Nodes read their inputs by reference; each activation is dropped
    /// right after its last consumer (`last_use`), so an image holds only
    /// the activations some later node still needs.
    fn run_image(
        &self,
        input: &Tensor,
        img: u64,
        scratch: &mut InferScratch,
        par: Parallelism,
    ) -> Tensor {
        let mut outs: Vec<Option<Tensor>> = vec![None; self.graph.len()];
        for node in self.graph.nodes() {
            let arg = |slot: usize| -> &Tensor {
                match node.inputs.get(slot) {
                    Some(&p) => outs[p].as_ref().expect("read before its last use"),
                    None => input,
                }
            };
            let id = node.id;
            let analog = || self.analog.get(&id).expect("analog layer programmed");
            let y = match &node.kind {
                LayerKind::Input => input.clone(),
                LayerKind::Conv(_) => analog().conv(arg(0), img, scratch, par),
                LayerKind::DepthwiseConv(cfg) => {
                    // Depthwise runs digitally on the CORES (block-diagonal
                    // weights waste crossbar cells).
                    let w = self
                        .weights
                        .get(id)
                        .unwrap_or_else(|| panic!("missing weights for node {id}"));
                    ops::depthwise_conv2d(arg(0), w, cfg)
                }
                LayerKind::MaxPool { k, stride, pad } => ops::maxpool2d(arg(0), *k, *stride, *pad),
                LayerKind::GlobalAvgPool => ops::global_avgpool(arg(0)),
                LayerKind::Linear { .. } => {
                    let x = arg(0);
                    let flat =
                        Tensor::from_vec(Shape::new(x.shape().numel(), 1, 1), x.data().to_vec());
                    analog().conv(&flat, img, scratch, par)
                }
                LayerKind::Residual { projection } => {
                    let (main, skip) = (arg(0), arg(1));
                    match projection {
                        Some(_) => ops::add(main, &analog().conv(skip, img, scratch, par), true),
                        None => ops::add(main, skip, true),
                    }
                }
            };
            for &p in &node.inputs {
                if self.last_use[p] == id {
                    outs[p] = None;
                }
            }
            outs[id] = Some(y);
        }
        outs.pop().flatten().expect("non-empty graph")
    }
}

impl Executor for AimcExecutor {
    /// Runs a batch of images at the next `inputs.len()` coordinates of
    /// the executor's counter, parallelizing across images when `par`
    /// allows (each worker keeps one reusable scratch). Bit-identical to
    /// the serial loop for any thread count; a single-image batch falls
    /// back to tile-level parallelism inside each layer.
    ///
    /// An empty batch is a no-op: it returns `Ok(vec![])` without claiming
    /// image coordinates or touching any stream state.
    ///
    /// # Errors
    /// [`ExecError::ShapeMismatch`] on the first (lowest-index) mismatched
    /// input; the call then claims no coordinate and evaluates nothing.
    fn infer_batch(&self, inputs: &[Tensor], par: Parallelism) -> Result<Vec<Tensor>, ExecError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        self.check_inputs(inputs)?;
        let base = self
            .images_seen
            .fetch_add(inputs.len() as u64, Ordering::Relaxed);
        self.try_infer_batch_at(inputs, base, par)
    }

    fn infer_batch_indexed(
        &self,
        items: &[(u64, &Tensor)],
        par: Parallelism,
    ) -> Result<Vec<Tensor>, ExecError> {
        self.try_infer_batch_indexed(items, par)
    }

    fn images_seen(&self) -> u64 {
        AimcExecutor::images_seen(self)
    }

    fn backend_name(&self) -> &'static str {
        "analog"
    }

    fn tile_count(&self) -> usize {
        AimcExecutor::tile_count(self)
    }

    fn total_mvms(&self) -> u64 {
        AimcExecutor::total_mvms(self)
    }

    fn apply_drift(&mut self, t_hours: f64) -> bool {
        AimcExecutor::apply_drift(self, t_hours);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::infer_golden;
    use crate::graph::GraphBuilder;
    use crate::weights::he_init;
    use rand::Rng;

    fn small_cnn() -> Graph {
        let mut b = GraphBuilder::new(Shape::new(3, 8, 8));
        let c0 = b.conv("c0", b.input(), ConvCfg::k3(3, 8, 1));
        let c1 = b.conv("c1", Some(c0), ConvCfg::k3(8, 8, 1));
        let r = b.residual("r", c1, c0, None);
        let p = b.global_avgpool("gap", r);
        let _ = b.linear("fc", p, 4);
        b.finish()
    }

    fn try_program(
        g: &Graph,
        w: &Weights,
        cfg: &XbarConfig,
        seed: u64,
        par: Parallelism,
    ) -> Result<AimcExecutor, ExecError> {
        AimcExecutor::try_program_shared_with(
            Arc::new(g.clone()),
            Arc::new(w.clone()),
            cfg,
            seed,
            par,
        )
    }

    /// Programs `g` serially.
    fn program(g: &Graph, w: &Weights, cfg: &XbarConfig, seed: u64) -> AimcExecutor {
        try_program(g, w, cfg, seed, Parallelism::Serial).unwrap()
    }

    /// One image at the executor's next coordinate, serially.
    fn infer_one(exec: &AimcExecutor, x: &Tensor) -> Result<Tensor, ExecError> {
        let mut y = exec.infer_batch(std::slice::from_ref(x), Parallelism::Serial)?;
        Ok(y.pop().expect("one image in, one out"))
    }

    fn random_image(shape: Shape, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_vec(
            shape,
            (0..shape.numel())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
        )
    }

    #[test]
    fn ceil_split_covers_exactly() {
        // The canonical helper shared with `aimc_core::SplitPlan`.
        assert_eq!(ceil_split(576, 256), vec![(0, 192), (192, 192), (384, 192)]);
        assert_eq!(ceil_split(256, 256), vec![(0, 256)]);
        assert_eq!(ceil_split(512, 256), vec![(0, 256), (256, 256)]);
        assert_eq!(ceil_split(5, 2), vec![(0, 2), (2, 2), (4, 1)]);
        // Chunks tile the range with no gaps.
        for (total, max) in [(1000, 256), (77, 10), (1, 5)] {
            let chunks = ceil_split(total, max);
            let mut pos = 0;
            for (s, l) in chunks {
                assert_eq!(s, pos);
                assert!(l <= max);
                pos += l;
            }
            assert_eq!(pos, total);
        }
    }

    #[test]
    fn try_program_reports_missing_weights() {
        let g = small_cnn();
        let err = try_program(
            &g,
            &Weights::new(),
            &XbarConfig::ideal(32, 32),
            1,
            Parallelism::Serial,
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::MissingWeights { .. }));
    }

    #[test]
    fn infer_batch_reports_shape_mismatch() {
        let g = small_cnn();
        let w = he_init(&g, 0);
        let e = program(&g, &w, &XbarConfig::ideal(64, 64), 1);
        let err = infer_one(&e, &Tensor::zeros(Shape::new(3, 4, 4))).unwrap_err();
        assert!(matches!(err, ExecError::ShapeMismatch { .. }));
    }

    #[test]
    fn ideal_analog_matches_golden() {
        let g = small_cnn();
        let w = he_init(&g, 3);
        let x = random_image(g.input_shape(), 7);
        let golden = infer_golden(&g, &w, &x);
        let exec = program(&g, &w, &XbarConfig::ideal(256, 256), 1);
        let analog = infer_one(&exec, &x).unwrap();
        for (a, b) in analog.data().iter().zip(golden.data()) {
            let tol = 0.05 * b.abs().max(1.0);
            assert!((a - b).abs() < tol, "{a} vs {b}");
        }
    }

    #[test]
    fn row_splits_are_exercised_by_small_arrays() {
        let g = small_cnn();
        let w = he_init(&g, 3);
        // 8-channel 3x3 conv ⇒ 72 rows; a 32-row array forces 3 row splits.
        // c0: 27 rows→1 tile; c1: 72 rows→3 tiles; fc: 1 tile ⇒ 5 tiles.
        let cfg = XbarConfig::ideal(32, 16);
        let exec = program(&g, &w, &cfg, 1);
        assert_eq!(exec.tile_count(), 5);
        let x = random_image(g.input_shape(), 7);
        let golden = infer_golden(&g, &w, &x);
        let analog = infer_one(&exec, &x).unwrap();
        for (a, b) in analog.data().iter().zip(golden.data()) {
            let tol = 0.08 * b.abs().max(1.0);
            assert!((a - b).abs() < tol, "{a} vs {b}");
        }
        assert!(exec.total_mvms() > 0);
    }

    #[test]
    fn noisy_arrays_still_classify_like_golden() {
        let g = small_cnn();
        let w = he_init(&g, 5);
        let exec = program(&g, &w, &XbarConfig::hermes_256(), 2);
        let mut agree = 0;
        let n = 10;
        for i in 0..n {
            let x = random_image(g.input_shape(), 100 + i);
            let golden = infer_golden(&g, &w, &x);
            let analog = infer_one(&exec, &x).unwrap();
            if golden.argmax() == analog.argmax() {
                agree += 1;
            }
        }
        // Device noise may flip borderline decisions, but most must agree.
        assert!(agree >= n * 6 / 10, "only {agree}/{n} agreed");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = small_cnn();
        let w = he_init(&g, 5);
        let x = random_image(g.input_shape(), 3);
        let run = || {
            let e = program(&g, &w, &XbarConfig::hermes_256(), 9);
            infer_one(&e, &x).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tile_count_matches_split_arithmetic() {
        let g = small_cnn();
        let w = he_init(&g, 0);
        let cfg = XbarConfig::ideal(32, 4);
        let exec = program(&g, &w, &cfg, 1);
        // c0: rows 27→1 split, cols 8→2; c1: rows 72→3, cols 8→2;
        // fc: rows 8→1, cols 4→1. Total tiles = 2 + 6 + 1 = 9.
        assert_eq!(exec.tile_count(), 9);
    }

    /// The tentpole invariant at the executor level: thread count never
    /// changes a bit of the output, for programming, tile-level, and
    /// image-level parallelism alike.
    #[test]
    fn parallel_inference_is_bit_identical_to_serial() {
        let g = small_cnn();
        let w = he_init(&g, 5);
        // Small arrays force multiple tiles per layer (tile parallelism).
        let cfg = XbarConfig::hermes_256().with_size(32, 4);
        let images: Vec<Tensor> = (0..6)
            .map(|i| random_image(g.input_shape(), 40 + i))
            .collect();

        let serial_exec = program(&g, &w, &cfg, 9);
        let serial = serial_exec
            .infer_batch(&images, Parallelism::Serial)
            .unwrap();

        for n in [2, 4] {
            let par = Parallelism::Threads(n);
            let exec = try_program(&g, &w, &cfg, 9, par).unwrap();
            let threaded = exec.infer_batch(&images, par).unwrap();
            assert_eq!(serial, threaded, "Threads({n}) diverged from serial");
            // Same MVMs evaluated, none lost or duplicated.
            assert_eq!(serial_exec.total_mvms(), exec.total_mvms());
        }
    }

    /// Single-image batches take the tile-parallel path; it must match the
    /// serial path bit-for-bit too.
    #[test]
    fn tile_parallel_single_image_matches_serial() {
        let g = small_cnn();
        let w = he_init(&g, 5);
        let cfg = XbarConfig::hermes_256().with_size(32, 4);
        let x = random_image(g.input_shape(), 3);
        let a = program(&g, &w, &cfg, 7);
        let serial = a
            .infer_batch(std::slice::from_ref(&x), Parallelism::Serial)
            .unwrap();
        let b = program(&g, &w, &cfg, 7);
        let tiled = b
            .infer_batch(std::slice::from_ref(&x), Parallelism::Threads(4))
            .unwrap();
        assert_eq!(serial, tiled);
    }

    /// Repeated single-image calls and one batch claim the same image
    /// coordinates — the counter semantics behind retained crossbars.
    #[test]
    fn sequential_infers_match_one_batch() {
        let g = small_cnn();
        let w = he_init(&g, 2);
        let cfg = XbarConfig::hermes_256();
        let images: Vec<Tensor> = (0..3)
            .map(|i| random_image(g.input_shape(), 60 + i))
            .collect();
        let a = program(&g, &w, &cfg, 5);
        let one_by_one: Vec<Tensor> = images.iter().map(|x| infer_one(&a, x).unwrap()).collect();
        let b = program(&g, &w, &cfg, 5);
        let batched = b.infer_batch(&images, Parallelism::Threads(3)).unwrap();
        assert_eq!(one_by_one, batched);
    }

    #[test]
    fn executor_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<AimcExecutor>();
    }

    /// Regression for the empty-batch edge: no coordinates may be claimed
    /// and no stream state touched, so the surrounding stream replays
    /// exactly as if the empty call never happened.
    #[test]
    fn empty_batch_is_a_stream_no_op() {
        let g = small_cnn();
        let w = he_init(&g, 2);
        let cfg = XbarConfig::hermes_256();
        let images: Vec<Tensor> = (0..2)
            .map(|i| random_image(g.input_shape(), 80 + i))
            .collect();

        let a = program(&g, &w, &cfg, 5);
        let first = infer_one(&a, &images[0]).unwrap();
        assert_eq!(a.images_seen(), 1);
        assert_eq!(a.infer_batch(&[], Parallelism::Threads(4)).unwrap(), []);
        assert_eq!(
            a.try_infer_batch_at(&[], 99, Parallelism::Serial).unwrap(),
            []
        );
        assert_eq!(a.images_seen(), 1, "empty batch must not claim coordinates");
        let second = infer_one(&a, &images[1]).unwrap();

        // Reference stream without the interleaved empty calls.
        let b = program(&g, &w, &cfg, 5);
        assert_eq!(infer_one(&b, &images[0]).unwrap(), first);
        assert_eq!(infer_one(&b, &images[1]).unwrap(), second);
        let mvms = a.total_mvms();
        assert_eq!(mvms, b.total_mvms(), "empty batches must not evaluate MVMs");
    }

    /// Regression: every entry point validates its whole batch before it
    /// claims a coordinate, so a rejected call neither counts MVMs nor
    /// shifts the noise streams of later calls.
    #[test]
    fn rejected_inputs_claim_no_coordinates() {
        let g = small_cnn();
        let w = he_init(&g, 4);
        let cfg = XbarConfig::hermes_256().with_size(32, 4);
        let good: Vec<Tensor> = (0..2)
            .map(|i| random_image(g.input_shape(), 20 + i))
            .collect();
        let bad = Tensor::zeros(Shape::new(3, 4, 4));
        let mixed = [good[0].clone(), bad.clone()];
        let exec = program(&g, &w, &cfg, 6);
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            let rejected = [
                exec.infer_batch(std::slice::from_ref(&bad), par),
                exec.infer_batch(&mixed, par),
                exec.try_infer_batch_at(&mixed, 40, par),
                exec.try_infer_batch_indexed(&[(9, &good[0]), (3, &bad)], par),
            ];
            for r in rejected {
                assert!(
                    matches!(r, Err(ExecError::ShapeMismatch { got, .. }) if got == bad.shape())
                );
            }
            assert_eq!(exec.images_seen(), 0, "{par:?}: a rejected call claimed");
            assert_eq!(exec.total_mvms(), 0, "{par:?}: a rejected call evaluated");
        }
        let fresh = program(&g, &w, &cfg, 6);
        assert_eq!(infer_one(&exec, &good[0]), infer_one(&fresh, &good[0]));
        assert_eq!(
            exec.infer_batch(&good, Parallelism::Threads(2)),
            fresh.infer_batch(&good, Parallelism::Threads(2))
        );
        assert_eq!(exec.images_seen(), 3);
    }

    /// The tentpole invariant at the executor level: chopping a request
    /// stream into arbitrary micro-batches via `try_infer_batch_at` yields
    /// bit-identical logits to solo inference of the same stream.
    #[test]
    fn explicit_coordinates_are_chop_invariant() {
        let g = small_cnn();
        let w = he_init(&g, 5);
        let cfg = XbarConfig::hermes_256().with_size(32, 4);
        let images: Vec<Tensor> = (0..6)
            .map(|i| random_image(g.input_shape(), 90 + i))
            .collect();

        let solo_exec = program(&g, &w, &cfg, 11);
        let solo: Vec<Tensor> = images
            .iter()
            .map(|x| infer_one(&solo_exec, x).unwrap())
            .collect();

        for chop in [
            vec![1, 1, 1, 1, 1, 1],
            vec![2, 2, 2],
            vec![3, 3],
            vec![6],
            vec![1, 4, 1],
        ] {
            let exec = program(&g, &w, &cfg, 11);
            let mut got = Vec::new();
            let mut base = 0u64;
            for len in chop.iter().copied() {
                let batch = &images[base as usize..base as usize + len];
                got.extend(
                    exec.try_infer_batch_at(batch, base, Parallelism::Threads(2))
                        .unwrap(),
                );
                base += len as u64;
            }
            assert_eq!(solo, got, "chopping {chop:?} diverged from solo");
            assert_eq!(exec.images_seen(), images.len() as u64);
        }
    }

    /// The generalized invariant behind the serving fleet: a batch of
    /// **non-contiguous, arbitrarily ordered** explicit coordinates yields,
    /// image for image, exactly the logits a solo stream produces at those
    /// coordinates — on a separately programmed replica with the same seed.
    #[test]
    fn non_contiguous_indexed_batches_match_solo_coordinates() {
        let g = small_cnn();
        let w = he_init(&g, 5);
        let cfg = XbarConfig::hermes_256().with_size(32, 4);
        let images: Vec<Tensor> = (0..6)
            .map(|i| random_image(g.input_shape(), 120 + i))
            .collect();

        // Solo reference: image i evaluated at coordinate i.
        let solo_exec = program(&g, &w, &cfg, 13);
        let solo: Vec<Tensor> = images
            .iter()
            .map(|x| infer_one(&solo_exec, x).unwrap())
            .collect();

        // A replica (same seed) evaluates interleaved non-contiguous slices
        // of the stream, out of order within each batch.
        let replica = program(&g, &w, &cfg, 13);
        let slice_a: Vec<(u64, &Tensor)> = vec![(4, &images[4]), (0, &images[0]), (2, &images[2])];
        let slice_b: Vec<(u64, &Tensor)> = vec![(5, &images[5]), (1, &images[1]), (3, &images[3])];
        let got_a = replica
            .try_infer_batch_indexed(&slice_a, Parallelism::Threads(2))
            .unwrap();
        let got_b = replica
            .try_infer_batch_indexed(&slice_b, Parallelism::Serial)
            .unwrap();
        assert_eq!(got_a[0], solo[4]);
        assert_eq!(got_a[1], solo[0]);
        assert_eq!(got_a[2], solo[2]);
        assert_eq!(got_b[0], solo[5]);
        assert_eq!(got_b[1], solo[1]);
        assert_eq!(got_b[2], solo[3]);
        // Counter advanced past the highest coordinate seen, not the count.
        assert_eq!(replica.images_seen(), 6);
    }

    /// Indexed batches advance the counter by max coordinate, and an empty
    /// indexed batch is a stream no-op.
    #[test]
    fn indexed_counter_tracks_max_coordinate() {
        let g = small_cnn();
        let w = he_init(&g, 1);
        let cfg = XbarConfig::hermes_256();
        let x = random_image(g.input_shape(), 71);
        let exec = program(&g, &w, &cfg, 3);
        assert_eq!(
            exec.try_infer_batch_indexed(&[], Parallelism::Serial)
                .unwrap(),
            []
        );
        assert_eq!(exec.images_seen(), 0);
        exec.try_infer_batch_indexed(&[(7, &x), (2, &x)], Parallelism::Serial)
            .unwrap();
        assert_eq!(exec.images_seen(), 8);
        // A later batch of lower coordinates never winds the counter back.
        exec.try_infer_batch_indexed(&[(0, &x)], Parallelism::Serial)
            .unwrap();
        assert_eq!(exec.images_seen(), 8);
    }

    /// `try_infer_batch_at` advances the counter past the batch, so later
    /// counter-claiming calls never reuse coordinates.
    #[test]
    fn explicit_base_advances_the_counter() {
        let g = small_cnn();
        let w = he_init(&g, 1);
        let cfg = XbarConfig::hermes_256();
        let x = random_image(g.input_shape(), 70);
        let exec = program(&g, &w, &cfg, 3);
        exec.try_infer_batch_at(std::slice::from_ref(&x), 4, Parallelism::Serial)
            .unwrap();
        assert_eq!(exec.images_seen(), 5);
        // A lower explicit base never winds the counter back.
        exec.try_infer_batch_at(std::slice::from_ref(&x), 0, Parallelism::Serial)
            .unwrap();
        assert_eq!(exec.images_seen(), 5);
        let claimed = infer_one(&exec, &x);
        assert!(claimed.is_ok());
        assert_eq!(exec.images_seen(), 6);
    }

    /// Any `u64` is a valid stream coordinate: coordinates near the top of
    /// the range wrap in the invocation arithmetic instead of overflowing
    /// (a debug build used to panic on them), the counter saturates at
    /// `u64::MAX`, and thread count still changes no bit.
    #[test]
    fn huge_coordinates_wrap_and_stay_parallelism_invariant() {
        let g = small_cnn();
        let w = he_init(&g, 8);
        // Small arrays force multiple tiles per layer, so a one-image call
        // at `Threads(2)` takes the tile-parallel path.
        let cfg = XbarConfig::hermes_256().with_size(32, 4);
        let images: Vec<Tensor> = (0..2)
            .map(|i| random_image(g.input_shape(), 140 + i))
            .collect();
        let run = |par: Parallelism| {
            let exec = program(&g, &w, &cfg, 17);
            let mut out = Vec::new();
            for k in [1u64 << 60, u64::MAX] {
                out.extend(
                    exec.try_infer_batch_indexed(&[(k, &images[0])], par)
                        .unwrap(),
                );
            }
            // Image-parallel: two images, one of them at `u64::MAX`.
            let pair = [(u64::MAX, &images[1]), (1 << 60, &images[1])];
            out.extend(exec.try_infer_batch_indexed(&pair, par).unwrap());
            // A contiguous batch from `u64::MAX` wraps to coordinate 0.
            out.extend(exec.try_infer_batch_at(&images, u64::MAX, par).unwrap());
            assert_eq!(exec.images_seen(), u64::MAX, "{par:?}");
            out
        };
        let serial = run(Parallelism::Serial);
        assert_eq!(serial, run(Parallelism::Threads(2)));
        // One image at one coordinate replays, whichever call carried it.
        assert_eq!(serial[1], serial[4]);
        // The wrapped coordinate 0 is the stream's first image.
        let fresh = program(&g, &w, &cfg, 17);
        assert_eq!(serial[5], infer_one(&fresh, &images[1]).unwrap());
    }
}
