//! Bit-packed MVM kernels and the reusable per-worker scratch.
//!
//! This module is the single-core engine room of the simulator: every
//! analog MVM — parallel-DAC ([`crate::Crossbar::mvm_batch_into_with`]) or
//! bit-serial ([`crate::Crossbar::mvm_bit_serial_into_with`]) — lands in
//! one of the *packed* kernels here. The packing idea comes straight from the
//! hardware being modeled: a bit-serial word-line pulse **is** a binary
//! row-selection mask, and on a CPU a row-selection mask is a `u64` word,
//! not a per-row branch test.
//!
//! ## Packing scheme
//!
//! ```text
//! rows   0..=63   64..=127  128..=191 …         (one u64 word per 64 rows)
//!        ┌──────┐ ┌──────┐ ┌──────┐
//! DAC    │ m₀   │ │ m₁   │ │ m₂   │   nonzero-input rows (xq[r] ≠ 0)
//!        └──────┘ └──────┘ └──────┘
//! plane(bit,φ)  one mask row per (bit-plane, phase) pair:
//!        bit 0 φ+ │……│……│  bit 0 φ− │……│……│
//!        bit 1 φ+ │……│……│  bit 1 φ− │……│……│   row r set ⇔ sign(xq[r]) = φ
//!        …                                     and bit `bit` of |xq[r]| set
//! ```
//!
//! * the **silent-plane scan** (does any row pulse?) becomes "is any packed
//!   word nonzero" — a handful of word compares instead of a `rows`-long
//!   predicate loop;
//! * **plane accumulation** walks set bits via `trailing_zeros`, visiting
//!   rows in ascending order;
//! * planes that share a row mask share their (noiseless) plane sum:
//!   identical row set + identical ascending order ⇒ bit-identical f64
//!   sum, so it is evaluated once and reused (noise is still drawn per
//!   plane, see below).
//!
//! ## Why bit-exactness survives
//!
//! The packed kernels promise outputs **bit-identical** to the scalar
//! reference kernels, the pre-packing row loops that the crate's unit
//! tests keep as oracles (`dac_reference` and `bit_serial_reference` in
//! `src/equivalence.rs`), because:
//!
//! 1. per column, f64 accumulation visits rows in exactly the reference's
//!    ascending order (`trailing_zeros` enumerates a word's set bits in
//!    increasing position; words are walked in increasing row order, and
//!    column-blocking reorders *columns*, never a column's row order);
//! 2. quantization goes through the same audited helpers
//!    ([`dac_quantize`], [`signed_quantize`], [`adc_readout`]) in the same
//!    element order;
//! 3. read noise comes from the same counter-based stream
//!    (`derive(noise_seed, invocation)`) through the same
//!    [`GaussianStream`] sampler, drawn in the same (bit, phase, column)
//!    order, with silent planes drawing nothing — so mask-sharing reuse
//!    of a plane *sum* never reuses its *noise*. The parallel-DAC kernels
//!    draw a column slice at a time through [`GaussianStream::add_to`],
//!    the references one draw at a time through [`GaussianStream::next`];
//!    both consume the same raw draws and add the same `sigma * z`.
//!
//! The proptests in `src/equivalence.rs` pin packed ≡ reference across
//! sizes, bit widths, sign patterns, and repeated invocations
//! (noise-stream parity), and a census test pins it on every tile shape
//! of a ResNet-18 deployment.
//!
//! ## Per-element stages
//!
//! Per MVM, the parallel-DAC kernels also do work per input row and per
//! column that no accumulation panel hides. Two of those stages are
//! written so that they run at register speed:
//!
//! * **Input scale.** [`max_abs`] is an integer max over the f32 bit
//!   patterns, which vectorizes; the `f64::max` fold it replaced (kept as
//!   the unit tests' oracle) ran as a serial chain.
//! * **Read noise.** [`GaussianStream::add_to`] runs the column loop with
//!   the generator's four state words in registers and only the rare
//!   wedge and tail steps out of line. The stream itself is built by
//!   `noise_stream`, which is kept out of line: inlined, its vectorized
//!   seeding leads LLVM to hold the generator state packed in vector
//!   registers through the draw loop, which roughly doubles the cost of
//!   each draw.
//!
//! ## Batch panels
//!
//! The batched kernel accumulates [`DAC_BATCH`] patches in lock-step, one
//! row block and one column panel at a time. Each panel slices the
//! block's conductance rows (`g[r0·cols..r1·cols]`) and each patch's
//! quantized rows (`xq[p·rows + r0..p·rows + r1]`) once, before its row
//! loop, and indexes only those slices. Indexed into `g` and `xq`
//! directly, every row recomputed `r·cols + c0` and `p·rows + r` and
//! checked each against its slice: the dense 16-column row loop wrapped
//! its 8 FMAs in about 40 instructions, six of them bounds-check branches
//! and four of them reloads of slice pointers spilled by the large
//! `dac_packed_batch`. Zipped, the dense loop checks nothing per row and
//! is unrolled by two rows (32 instructions for 16 FMAs), and a walk's
//! four input reads share one check. Rows, row order, the `mul_add`s and
//! the block continuation are unchanged, so no output bit moves.
//!
//! ## Zero allocation
//!
//! All kernel state lives in a caller-owned [`MvmScratch`] (plumbed into
//! the executors' per-worker scratch); after one warm-up call per shape no
//! path below allocates. `tests/no_alloc.rs` asserts the no-allocation
//! property with a counting global allocator.

use crate::crossbar::Crossbar;
use crate::noise::GaussianStream;
use crate::stream;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reusable buffers for the packed MVM kernels — one per worker thread.
///
/// Sized lazily on first use and grown monotonically; a warm scratch makes
/// every kernel in this module allocation-free. Construct with
/// [`MvmScratch::new`] (or `Default`) and pass to
/// [`crate::Crossbar::mvm_batch_into_with`] /
/// [`crate::Crossbar::mvm_bit_serial_into_with`].
#[derive(Debug, Default)]
pub struct MvmScratch {
    /// DAC-quantized inputs (parallel path).
    xq: Vec<f64>,
    /// Signed n-bit quantized inputs (bit-serial path).
    qint: Vec<i64>,
    /// Column accumulators (both paths).
    acc: Vec<f64>,
    /// Packed nonzero-input row mask (parallel path).
    mask: Vec<u64>,
    /// Packed per-(bit, phase) row-selection masks (bit-serial path).
    plane_masks: Vec<u64>,
    /// Union of the per-patch row masks (batched parallel path).
    umask: Vec<u64>,
    /// Noiseless plane sums, one stride-padded slot per plane (bit-serial
    /// path; accessed through [`aligned_view`]).
    plane_sums: Vec<f64>,
    /// Plane ids whose sums have been evaluated this call (reuse lookup).
    eval_ids: Vec<usize>,
}

impl MvmScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets for a parallel-DAC evaluation over `rows` input rows.
    ///
    /// `xq` and `mask` are sized but not zeroed: the fused quantize pass
    /// overwrites every element and every mask word it reads.
    fn prepare_dac(&mut self, rows: usize) {
        self.xq.resize(rows, 0.0);
        self.mask.resize(rows.div_ceil(64), 0);
    }

    /// Resets for a batched parallel-DAC evaluation of [`DAC_BATCH`]
    /// patches over `rows` input rows each. Same no-zeroing contract as
    /// [`MvmScratch::prepare_dac`]; `umask` is rebuilt from the per-patch
    /// masks.
    fn prepare_dac_batch(&mut self, rows: usize) {
        let words = rows.div_ceil(64);
        self.xq.resize(DAC_BATCH * rows, 0.0);
        self.mask.resize(DAC_BATCH * words, 0);
        self.umask.resize(words, 0);
    }

    /// Resets for a bit-serial evaluation with `n_planes` (bit, phase)
    /// planes over `rows` input rows, `words` mask words per plane.
    fn prepare_bit_serial(&mut self, rows: usize, n_planes: usize, words: usize) {
        self.qint.clear();
        self.qint.reserve(rows);
        self.plane_masks.clear();
        self.plane_masks.resize(n_planes * words, 0);
        self.eval_ids.clear();
    }
}

/// Returns a 64-byte-aligned `len`-element view of `buf`, growing it
/// (zero-filled, grow-only) as needed.
///
/// The scratch buffers are long-lived, so without this they would be stuck
/// with whatever placement the allocator happened to pick — a 16-but-not-
/// 64-byte-aligned accumulator makes a good fraction of the kernels' SIMD
/// loads straddle cache lines, which measures as a stable ~2× slowdown of
/// the accumulation loops on this workload. A fresh view is *not* zeroed;
/// callers fill the region they use.
fn aligned_view(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len + 7 {
        buf.resize(len + 7, 0.0);
    }
    // For f64 data, 64-byte alignment is at most 7 elements away; `min`
    // guards align_offset's pathological usize::MAX escape hatch.
    let off = buf.as_ptr().align_offset(64).min(7);
    &mut buf[off..off + len]
}

// ---------------------------------------------------------------------------
// Audited normalize / clamp / quantize helpers — the one place the DAC and
// bit-serial input stages (and the ADC readout) define their rounding.
// ---------------------------------------------------------------------------

/// `max |xᵢ|` of `x` in f64 (0.0 for an empty or all-zero vector), NaN
/// elements skipped.
///
/// An integer max over the f32 bit patterns. With the sign bit cleared,
/// non-NaN patterns order exactly as their magnitudes (±∞ and subnormals
/// included) and patterns above `0x7f80_0000` are NaN. Each pattern is
/// shifted down by `NAN_MIN` (wrapping), which moves the NaN patterns below
/// every non-NaN one, `+0.0` included, and keeps the non-NaN order; the
/// fold starts from `+0.0`'s image, so a NaN counts as 0, and the winner
/// shifts back and widens to f64 exactly. The result is bit-identical to a
/// fold of `f64::max` over `|xᵢ| as f64`, which skips NaN the same way, but
/// the integer max vectorizes where the float fold is a serial chain (and
/// a NaN-to-0 `if` in the fold defeats LLVM's reduction vectorizer).
#[inline]
pub fn max_abs(x: &[f32]) -> f64 {
    const NAN_MIN: u32 = 0x7f80_0001;
    let m = x.iter().fold(0u32.wrapping_sub(NAN_MIN), |m, &v| {
        m.max((v.to_bits() & 0x7fff_ffff).wrapping_sub(NAN_MIN))
    });
    f32::from_bits(m.wrapping_add(NAN_MIN)) as f64
}

/// Input scale of the parallel-DAC path: max-abs, with an all-zero vector
/// scaling by `1.0` (so zeros stay exactly zero instead of dividing 0/0).
#[inline]
pub fn dac_scale(x: &[f32]) -> f64 {
    let m = max_abs(x);
    if m > 0.0 {
        m
    } else {
        1.0
    }
}

/// Input scale of the bit-serial path: max-abs floored at `1e-30` (the
/// historical epsilon of the bit-serial path, kept so results do not move).
#[inline]
pub fn bit_serial_scale(x: &[f32]) -> f64 {
    max_abs(x).max(1e-30)
}

/// One DAC conversion: normalize by the reciprocal scale, clip to `±clip`,
/// and round to the converter grid of `dac_levels` levels per polarity
/// (round half away from zero, as `f64::round` does).
///
/// The converter math is defined over *reciprocal multiplies*
/// (`inv_scale = 1/scale`, `inv_dac_levels = 1/dac_levels`, computed once
/// per MVM) rather than per-element division — a divide per element was a
/// measurable fraction of the whole kernel. Relative to the historical
/// division form the quantized value can move by 1 ULP of the normalized
/// input, occasionally flipping a round decision at a grid midpoint; both
/// are equally valid realizations of the ideal quantizer, and the
/// determinism contract is within-version (this version also changed the
/// read-noise sampler, see [`GaussianStream`]).
#[inline]
pub fn dac_quantize(
    v: f64,
    inv_scale: f64,
    clip: f64,
    dac_levels: f64,
    inv_dac_levels: f64,
) -> f64 {
    let v = (v * inv_scale).clamp(-clip, clip);
    (v * dac_levels).round() * inv_dac_levels
}

/// One signed-integer conversion for the bit-serial path: normalize by the
/// reciprocal scale (see [`dac_quantize`] on the reciprocal-multiply
/// definition), clip to `±1`, and round to a signed magnitude of at most
/// `levels` (round half away from zero).
#[inline]
pub fn signed_quantize(v: f64, inv_scale: f64, levels: f64) -> i64 {
    ((v * inv_scale).clamp(-1.0, 1.0) * levels).round() as i64
}

/// One ADC readout: clip the accumulated bit-line value to full-scale
/// `±fs`, round to the converter code grid, and fold the weight and
/// activation scales back in.
///
/// `to_code = adc_levels / fs` and `from_code = fs / adc_levels` are the
/// per-MVM-precomputed conversion factors (see [`dac_quantize`] on the
/// reciprocal-multiply definition).
#[inline]
pub fn adc_readout(a: f64, fs: f64, to_code: f64, from_code: f64, back_scale: f64) -> f32 {
    let q = (a.clamp(-fs, fs) * to_code).round() * from_code;
    (q * back_scale) as f32
}

// ---------------------------------------------------------------------------
// Packed row walks
// ---------------------------------------------------------------------------
//
// The weighted accumulation is defined over `f64::mul_add` — one fused,
// correctly-rounded multiply-add per (row, column). `fma` is a single IEEE
// operation, so the result is the same on every target (hardware FMA and
// the soft-float fallback agree bit for bit; the fallback is just slower —
// build with `target-cpu=native` or any `+fma` target to stay fast, see
// `.cargo/config.toml`). Relative to the historical mul-then-add the sum
// loses one intermediate rounding per row — a version-scoped numeric
// change like the reciprocal-quantize one on `dac_quantize`, shared by the
// packed kernels *and* the scalar reference, so bit-identity between them
// is unaffected. Fusing halves the FP ops of the hot loop and is what
// makes the batched kernel pay: FMA latency is hidden by DAC_BATCH
// independent accumulator chains per column panel.
//
// The accumulation loops are *column-panelled*: a fixed-width `[f64; W]`
// local array per panel of columns, which LLVM keeps entirely in vector
// registers, so each row's contribution is one broadcast-multiply-add per
// vector with no store-to-load round trip through `acc`. Panel widths step
// 32 → 16 → 8 (+ a sub-8 tail) so narrow arrays still get multiple
// independent add chains to hide FP-add latency. Per column, rows are
// always visited in ascending order — the f64 accumulation order of the
// scalar reference loops, which is what makes every path bit-identical.

/// Calls `f(r)` for every set row of `mask`, in ascending row order.
#[inline]
fn for_each_set_row(mask: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let r = (w << 6) + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            f(r);
        }
    }
}

/// One `W`-column panel of `acc[c] += xq[r] · g[r][c]` over the set rows of
/// `mask`, ascending row order.
#[inline]
fn axpy_panel_walk<const W: usize>(
    g: &[f64],
    cols: usize,
    c0: usize,
    mask: &[u64],
    xq: &[f64],
    acc: &mut [f64],
) {
    let mut a = [0.0f64; W];
    for_each_set_row(mask, |r| {
        let xr = xq[r];
        let row = &g[r * cols + c0..r * cols + c0 + W];
        for j in 0..W {
            a[j] = xr.mul_add(row[j], a[j]);
        }
    });
    for j in 0..W {
        acc[c0 + j] += a[j];
    }
}

/// One `W`-column panel of `acc[c] += xq[r] · g[r][c]` over *all* rows.
///
/// Bit-identical to the masked walk: a row the mask excludes has
/// `xq[r] == ±0.0`, its products are `±0.0`, and adding a signed zero
/// never changes an accumulator (the panel starts at `+0.0` and a
/// round-to-nearest sum can only produce `+0.0`, and `+0.0 + ±0.0 ==
/// +0.0`). Skipping the branch and the bit walk lets dense inputs run at
/// pure SIMD throughput.
#[inline]
fn axpy_panel_dense<const W: usize>(
    g: &[f64],
    cols: usize,
    c0: usize,
    rows: usize,
    xq: &[f64],
    acc: &mut [f64],
) {
    let mut a = [0.0f64; W];
    for (r, &xr) in xq.iter().enumerate().take(rows) {
        let row = &g[r * cols + c0..r * cols + c0 + W];
        for j in 0..W {
            a[j] = xr.mul_add(row[j], a[j]);
        }
    }
    for j in 0..W {
        acc[c0 + j] += a[j];
    }
}

/// Sub-8-column tail of the weighted accumulation (masked walk).
fn axpy_tail_walk(g: &[f64], cols: usize, c0: usize, mask: &[u64], xq: &[f64], acc: &mut [f64]) {
    let w = cols - c0;
    let mut a = [0.0f64; 8];
    for_each_set_row(mask, |r| {
        let xr = xq[r];
        let row = &g[r * cols + c0..r * cols + cols];
        for j in 0..w {
            a[j] = xr.mul_add(row[j], a[j]);
        }
    });
    for j in 0..w {
        acc[c0 + j] += a[j];
    }
}

/// Walk→dense switch: the branch-free full-row sweep overtakes the bit
/// walk once roughly ⅜ of rows are active (measured on the reference
/// host). Both paths are bit-identical, so this is purely a performance
/// choice.
#[inline]
fn use_dense(active: usize, rows: usize) -> bool {
    active * 8 >= rows * 3
}

/// `acc[c] += xq[r] · g[r][c]` over the set rows of `mask`, panelled, with
/// an adaptive dense/sparse row strategy. Ascending row order per column.
fn axpy_masked_rows(
    g: &[f64],
    rows: usize,
    cols: usize,
    mask: &[u64],
    xq: &[f64],
    acc: &mut [f64],
) {
    let active: u32 = mask.iter().map(|w| w.count_ones()).sum();
    let dense = use_dense(active as usize, rows);
    let mut c0 = 0;
    // A 64-column panel needs 8 accumulator vectors; only AVX-512's 32
    // registers hold them without spilling (compile-time check, so the
    // branch is dead code on other targets). One pass instead of two
    // halves the conductance-matrix traffic of wide arrays, whose working
    // set exceeds L1.
    if cfg!(target_feature = "avx512f") {
        while cols - c0 >= 64 {
            if dense {
                axpy_panel_dense::<64>(g, cols, c0, rows, xq, acc);
            } else {
                axpy_panel_walk::<64>(g, cols, c0, mask, xq, acc);
            }
            c0 += 64;
        }
    }
    while cols - c0 >= 32 {
        if dense {
            axpy_panel_dense::<32>(g, cols, c0, rows, xq, acc);
        } else {
            axpy_panel_walk::<32>(g, cols, c0, mask, xq, acc);
        }
        c0 += 32;
    }
    if cols - c0 >= 16 {
        if dense {
            axpy_panel_dense::<16>(g, cols, c0, rows, xq, acc);
        } else {
            axpy_panel_walk::<16>(g, cols, c0, mask, xq, acc);
        }
        c0 += 16;
    }
    if cols - c0 >= 8 {
        if dense {
            axpy_panel_dense::<8>(g, cols, c0, rows, xq, acc);
        } else {
            axpy_panel_walk::<8>(g, cols, c0, mask, xq, acc);
        }
        c0 += 8;
    }
    if c0 < cols {
        axpy_tail_walk(g, cols, c0, mask, xq, acc);
    }
}

/// Patches per batched parallel-DAC evaluation (see `dac_packed_batch`):
/// four independent accumulator chains hide FP-add latency, and each
/// conductance row loaded from L2 is used four times.
pub const DAC_BATCH: usize = 4;

/// Calls `f(r)` for every set row of `mask` with `r0 <= r < r1`, in
/// ascending row order (the row-blocked batch walk).
#[inline]
#[allow(clippy::needless_range_loop)] // w is a word *index*; rows derive from it
fn for_each_set_row_range(mask: &[u64], r0: usize, r1: usize, mut f: impl FnMut(usize)) {
    let w1 = r1.div_ceil(64);
    for w in r0 >> 6..w1 {
        let mut bits = mask[w];
        if w == r0 >> 6 {
            bits &= !0u64 << (r0 & 63);
        }
        let hi = r1 - (w << 6); // ≥ 1 because w·64 < r1
        if hi < 64 {
            bits &= !0u64 >> (64 - hi);
        }
        while bits != 0 {
            let r = (w << 6) + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            f(r);
        }
    }
}

/// Row block `r0..r1` of a batch: the block's conductance rows and each
/// patch's quantized inputs on them, each sliced once (see "Batch panels"
/// in the module docs).
#[inline(always)]
fn block<'a>(
    g: &'a [f64],
    cols: usize,
    xq: &'a [f64],
    rows: usize,
    (r0, r1): (usize, usize),
) -> (&'a [f64], [&'a [f64]; DAC_BATCH]) {
    let x = std::array::from_fn(|p| &xq[p * rows + r0..p * rows + r1]);
    (&g[r0 * cols..r1 * cols], x)
}

/// `a[p][j] = x[p] · row[j] + a[p][j]` for every patch `p` and every
/// column `j` of `row` (at most `W`).
#[inline(always)]
fn fma_row<const W: usize>(a: &mut [[f64; W]; DAC_BATCH], row: &[f64], x: [f64; DAC_BATCH]) {
    for (ap, xr) in a.iter_mut().zip(x) {
        for j in 0..row.len() {
            ap[j] = xr.mul_add(row[j], ap[j]);
        }
    }
}

/// One `W`-column panel of `acc[p][c] += xq[p][r] · g[r][c]` for
/// [`DAC_BATCH`] patches over the set rows of the *union* mask within the
/// row block `r0..r1`, ascending row order.
///
/// A union row that patch `p` did not select carries `xq[p][r] == ±0.0`
/// (the DAC wrote the quantized zero there), so by the signed-zero
/// argument on [`axpy_panel_dense`] its adds leave patch `p`\'s
/// accumulators bit-identical to a walk of `p`\'s own mask.
///
/// The local accumulators are **loaded from and stored back to `acc`**
/// (not summed in fresh at zero): each block strictly continues the same
/// left-fold, so row-blocking never re-associates a column\'s sum.
#[inline]
#[allow(clippy::too_many_arguments)] // flat hot-loop ABI, mirrors the tail walk
fn axpy_panel_batch_walk<const W: usize>(
    g: &[f64],
    cols: usize,
    c0: usize,
    (r0, r1): (usize, usize),
    umask: &[u64],
    xq: &[f64],
    rows: usize,
    acc: &mut [f64],
    stride: usize,
) {
    let mut a = [[0.0f64; W]; DAC_BATCH];
    for (p, ap) in a.iter_mut().enumerate() {
        ap.copy_from_slice(&acc[p * stride + c0..p * stride + c0 + W]);
    }
    let (gb, [x0, x1, x2, x3]) = block(g, cols, xq, rows, (r0, r1));
    for_each_set_row_range(umask, r0, r1, |r| {
        let i = r - r0;
        fma_row(
            &mut a,
            &gb[i * cols + c0..][..W],
            [x0[i], x1[i], x2[i], x3[i]],
        );
    });
    for (p, ap) in a.iter().enumerate() {
        acc[p * stride + c0..p * stride + c0 + W].copy_from_slice(ap);
    }
}

/// Dense variant of [`axpy_panel_batch_walk`]: sweeps *all* rows of the
/// block branch-free (same signed-zero argument, applied per patch).
#[inline]
#[allow(clippy::too_many_arguments)] // flat hot-loop ABI, mirrors the tail walk
fn axpy_panel_batch_dense<const W: usize>(
    g: &[f64],
    cols: usize,
    c0: usize,
    (r0, r1): (usize, usize),
    xq: &[f64],
    rows: usize,
    acc: &mut [f64],
    stride: usize,
) {
    let mut a = [[0.0f64; W]; DAC_BATCH];
    for (p, ap) in a.iter_mut().enumerate() {
        ap.copy_from_slice(&acc[p * stride + c0..p * stride + c0 + W]);
    }
    let (gb, [x0, x1, x2, x3]) = block(g, cols, xq, rows, (r0, r1));
    let lanes = gb.chunks_exact(cols).zip(x0).zip(x1).zip(x2).zip(x3);
    for ((((row, &v0), &v1), &v2), &v3) in lanes {
        fma_row(&mut a, &row[c0..c0 + W], [v0, v1, v2, v3]);
    }
    for (p, ap) in a.iter().enumerate() {
        acc[p * stride + c0..p * stride + c0 + W].copy_from_slice(ap);
    }
}

/// Sub-8-column batched tail (masked walk over the union, row-blocked).
#[allow(clippy::too_many_arguments)]
fn axpy_tail_batch_walk(
    g: &[f64],
    cols: usize,
    c0: usize,
    (r0, r1): (usize, usize),
    umask: &[u64],
    xq: &[f64],
    rows: usize,
    acc: &mut [f64],
    stride: usize,
) {
    let w = cols - c0;
    let mut a = [[0.0f64; 8]; DAC_BATCH];
    for (p, ap) in a.iter_mut().enumerate() {
        ap[..w].copy_from_slice(&acc[p * stride + c0..p * stride + cols]);
    }
    let (gb, [x0, x1, x2, x3]) = block(g, cols, xq, rows, (r0, r1));
    for_each_set_row_range(umask, r0, r1, |r| {
        let i = r - r0;
        fma_row(
            &mut a,
            &gb[i * cols + c0..(i + 1) * cols],
            [x0[i], x1[i], x2[i], x3[i]],
        );
    });
    for (p, ap) in a.iter().enumerate() {
        acc[p * stride + c0..p * stride + cols].copy_from_slice(&ap[..w]);
    }
}

/// Rows per block of the batched accumulation: 48 rows of a 64-column
/// array are 24 KiB of conductances — resident in L1 while every column
/// panel of the block sweeps them, so wide arrays stream out of L2 once
/// per *batch* instead of once per panel.
const ROW_BLOCK: usize = 48;

/// Batched `acc[p][c] += xq[p][r] · g[r][c]`, panelled and row-blocked,
/// with the adaptive dense/sparse switch driven by the union mask\'s
/// density. Per patch and column, rows are visited in ascending order and
/// every block continues the previous block\'s fold exactly (accumulators
/// reload from `acc`) — bit-identical to [`axpy_masked_rows`] on each
/// patch alone.
fn axpy_masked_rows_batch(
    g: &[f64],
    rows: usize,
    cols: usize,
    umask: &[u64],
    xq: &[f64],
    acc: &mut [f64],
    stride: usize,
) {
    let active: u32 = umask.iter().map(|w| w.count_ones()).sum();
    let dense = use_dense(active as usize, rows);
    // Row-blocking only pays when the conductance matrix overflows L1;
    // small arrays take a single full-height block.
    let block = if rows * cols * 8 <= 40 * 1024 {
        rows
    } else {
        ROW_BLOCK
    };
    let mut r0 = 0;
    while r0 < rows {
        let rb = (r0, (r0 + block).min(rows));
        let mut c0 = 0;
        // Panels are capped at 16 columns: DAC_BATCH × 16 is already 8
        // wide accumulator vectors, and a 32-column batch panel measurably
        // spills.
        while cols - c0 >= 16 {
            if dense {
                axpy_panel_batch_dense::<16>(g, cols, c0, rb, xq, rows, acc, stride);
            } else {
                axpy_panel_batch_walk::<16>(g, cols, c0, rb, umask, xq, rows, acc, stride);
            }
            c0 += 16;
        }
        if cols - c0 >= 8 {
            if dense {
                axpy_panel_batch_dense::<8>(g, cols, c0, rb, xq, rows, acc, stride);
            } else {
                axpy_panel_batch_walk::<8>(g, cols, c0, rb, umask, xq, rows, acc, stride);
            }
            c0 += 8;
        }
        if c0 < cols {
            axpy_tail_batch_walk(g, cols, c0, rb, umask, xq, rows, acc, stride);
        }
        r0 = rb.1;
    }
}

/// One `W`-column panel of `acc[c] += g[r][c]` over the set rows of `mask`
/// (unweighted plane sum), ascending row order.
#[inline]
fn sum_panel_walk<const W: usize>(
    g: &[f64],
    cols: usize,
    c0: usize,
    mask: &[u64],
    acc: &mut [f64],
) {
    let mut a = [0.0f64; W];
    for_each_set_row(mask, |r| {
        let row = &g[r * cols + c0..r * cols + c0 + W];
        for j in 0..W {
            a[j] += row[j];
        }
    });
    for j in 0..W {
        acc[c0 + j] += a[j];
    }
}

/// `acc[c] += g[r][c]` over the set rows of `mask` (unweighted plane sum),
/// panelled, ascending row order per column. Bit-serial planes are sparse
/// by construction (each plane holds one magnitude bit of one sign), so
/// there is no dense variant: without a per-row weight, inactive rows
/// cannot be neutralized by a `·0.0`.
fn sum_masked_rows(g: &[f64], cols: usize, mask: &[u64], acc: &mut [f64]) {
    let mut c0 = 0;
    if cfg!(target_feature = "avx512f") {
        while cols - c0 >= 64 {
            sum_panel_walk::<64>(g, cols, c0, mask, acc);
            c0 += 64;
        }
    }
    while cols - c0 >= 32 {
        sum_panel_walk::<32>(g, cols, c0, mask, acc);
        c0 += 32;
    }
    if cols - c0 >= 16 {
        sum_panel_walk::<16>(g, cols, c0, mask, acc);
        c0 += 16;
    }
    if cols - c0 >= 8 {
        sum_panel_walk::<8>(g, cols, c0, mask, acc);
        c0 += 8;
    }
    if c0 < cols {
        let w = cols - c0;
        let mut a = [0.0f64; 8];
        for_each_set_row(mask, |r| {
            let row = &g[r * cols + c0..r * cols + cols];
            for j in 0..w {
                a[j] += row[j];
            }
        });
        for j in 0..w {
            acc[c0 + j] += a[j];
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel-DAC kernels
// ---------------------------------------------------------------------------

/// The read-noise stream of invocation `invocation` of `xb`: the same
/// `derive` → `seed_from_u64` → [`GaussianStream::new`] chain the
/// references build inline.
///
/// Kept out of line on purpose. Inlined, LLVM vectorizes the SplitMix
/// seeding and then keeps the xoshiro state packed in vector registers
/// through [`GaussianStream::add_to`]'s draw loop, shuffling words in and
/// out on every draw; returned from a call, the state loads into four
/// scalar registers.
#[inline(never)]
fn noise_stream(xb: &Crossbar, invocation: u64) -> GaussianStream<StdRng> {
    GaussianStream::new(StdRng::seed_from_u64(stream::derive(
        xb.noise_seed(),
        invocation,
    )))
}

/// Packed parallel-DAC evaluation of one patch (the single-patch kernel,
/// also the batch's remainder path).
///
/// Bit-identical to the scalar reference; see the module docs for why.
fn dac_packed(
    xb: &Crossbar,
    x: &[f32],
    out: &mut [f32],
    invocation: u64,
    scratch: &mut MvmScratch,
) {
    let rows = xb.rows_used();
    let cols = xb.cols_used();
    debug_assert_eq!(x.len(), rows);
    debug_assert_eq!(out.len(), cols);
    let cfg = xb.config();

    // --- DAC stage: quantize once, pack the nonzero-row mask ------------
    let dac_levels = ((1u64 << cfg.dac_bits) - 1) as f64 / 2.0; // per polarity
    let inv_dac_levels = 1.0 / dac_levels;
    let clip = cfg.x_clip;
    let x_scale = dac_scale(x);
    let inv_x_scale = 1.0 / x_scale;
    scratch.prepare_dac(rows);
    let MvmScratch { xq, acc, mask, .. } = scratch;
    let acc = aligned_view(acc, cols);
    acc.fill(0.0);
    // Fused quantize + mask build, one 64-element chunk per mask word so
    // the bit inserts stay branchless in a scalar register.
    for ((xc, qc), m) in x.chunks(64).zip(xq.chunks_mut(64)).zip(mask.iter_mut()) {
        // Quantize first (vectorizes cleanly), then gather the nonzero
        // bits; the serialized variable shift would otherwise keep the
        // converter loop scalar.
        for (&xi, q) in xc.iter().zip(qc.iter_mut()) {
            *q = dac_quantize(xi as f64, inv_x_scale, clip, dac_levels, inv_dac_levels);
        }
        let mut bits = 0u64;
        for (j, &q) in qc.iter().enumerate() {
            // `q != 0.0` excludes -0.0 too, matching the reference's skip.
            bits |= ((q != 0.0) as u64) << j;
        }
        *m = bits;
    }

    // --- Analog accumulation: masked row walk ----------------------------
    axpy_masked_rows(xb.g_all(), rows, cols, mask, xq, acc);

    // --- Read noise (per bit line, scales with sqrt(active rows)) --------
    if cfg.read_noise_sigma > 0.0 {
        let sigma = cfg.read_noise_sigma * (rows as f64).sqrt();
        noise_stream(xb, invocation).add_to(acc, sigma);
    }

    // --- ADC stage --------------------------------------------------------
    let fs = cfg.adc_headroom * rows as f64 * clip;
    let adc_levels = ((1u64 << cfg.adc_bits.min(31)) - 1) as f64 / 2.0;
    let (to_code, from_code) = (adc_levels / fs, fs / adc_levels);
    let back_scale = xb.weight_scale() * x_scale;
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        *o = adc_readout(a, fs, to_code, from_code, back_scale);
    }
}

/// Batched packed parallel-DAC evaluation: `k` patches against the same
/// array, each **bit-identical** to a [`dac_packed`] call with the same
/// patch and invocation index.
///
/// `xs` holds `k` row-vectors back to back (`k · rows_used`), `out` the
/// `k` results (`k · cols_used`); `invocations[p]` tags patch `p`'s noise
/// stream exactly as the single-patch call would.
///
/// The win over `k` single calls is arithmetic intensity: patches are
/// grouped [`DAC_BATCH`] at a time and accumulated in lock-step over the
/// union of their row masks, so every conductance row fetched from cache
/// feeds four independent FP-add chains (hiding add latency, and cutting
/// the `g` traffic of L2-resident arrays fourfold). Quantization, read
/// noise, and ADC readout stay strictly per patch — per-patch input
/// scales, per-patch counter-derived noise streams in column order —
/// which is what keeps the batch a pure reassociation-free regrouping of
/// the single-patch kernels. A `k % DAC_BATCH` remainder falls back to
/// [`dac_packed`] per patch.
pub(crate) fn dac_packed_batch(
    xb: &Crossbar,
    xs: &[f32],
    out: &mut [f32],
    invocations: &[u64],
    scratch: &mut MvmScratch,
) {
    let rows = xb.rows_used();
    let cols = xb.cols_used();
    let k = invocations.len();
    debug_assert_eq!(xs.len(), k * rows);
    debug_assert_eq!(out.len(), k * cols);
    let cfg = xb.config();

    let dac_levels = ((1u64 << cfg.dac_bits) - 1) as f64 / 2.0; // per polarity
    let inv_dac_levels = 1.0 / dac_levels;
    let clip = cfg.x_clip;
    let words = rows.div_ceil(64);
    let stride = cols.next_multiple_of(8);

    let quads = k / DAC_BATCH * DAC_BATCH;
    let mut q0 = 0;
    while q0 < quads {
        scratch.prepare_dac_batch(rows);
        let MvmScratch {
            xq,
            acc,
            mask,
            umask,
            ..
        } = scratch;
        let acc = aligned_view(acc, DAC_BATCH * stride);
        acc.fill(0.0);

        // --- DAC stage, per patch (same helpers, same element order) ----
        let mut x_scales = [0.0f64; DAC_BATCH];
        for p in 0..DAC_BATCH {
            let x = &xs[(q0 + p) * rows..(q0 + p + 1) * rows];
            let x_scale = dac_scale(x);
            x_scales[p] = x_scale;
            let inv_x_scale = 1.0 / x_scale;
            let xq = &mut xq[p * rows..(p + 1) * rows];
            let mask = &mut mask[p * words..(p + 1) * words];
            for ((xc, qc), m) in x.chunks(64).zip(xq.chunks_mut(64)).zip(mask.iter_mut()) {
                // Quantize first (vectorizes cleanly), then gather the
                // nonzero bits; the serialized variable shift would
                // otherwise keep the converter loop scalar.
                for (&xi, q) in xc.iter().zip(qc.iter_mut()) {
                    *q = dac_quantize(xi as f64, inv_x_scale, clip, dac_levels, inv_dac_levels);
                }
                let mut bits = 0u64;
                for (j, &q) in qc.iter().enumerate() {
                    // `q != 0.0` excludes -0.0 too, matching the reference's skip.
                    bits |= ((q != 0.0) as u64) << j;
                }
                *m = bits;
            }
        }
        for (w, u) in umask.iter_mut().enumerate() {
            *u = (0..DAC_BATCH).fold(0u64, |acc, p| acc | mask[p * words + w]);
        }

        // --- Lock-step accumulation over the union mask ------------------
        axpy_masked_rows_batch(xb.g_all(), rows, cols, umask, xq, acc, stride);

        // --- Read noise + ADC, strictly per patch ------------------------
        let fs = cfg.adc_headroom * rows as f64 * clip;
        let adc_levels = ((1u64 << cfg.adc_bits.min(31)) - 1) as f64 / 2.0;
        let (to_code, from_code) = (adc_levels / fs, fs / adc_levels);
        for p in 0..DAC_BATCH {
            let acc = &mut acc[p * stride..p * stride + cols];
            if cfg.read_noise_sigma > 0.0 {
                let sigma = cfg.read_noise_sigma * (rows as f64).sqrt();
                noise_stream(xb, invocations[q0 + p]).add_to(acc, sigma);
            }
            let back_scale = xb.weight_scale() * x_scales[p];
            let out = &mut out[(q0 + p) * cols..(q0 + p + 1) * cols];
            for (o, &a) in out.iter_mut().zip(acc.iter()) {
                *o = adc_readout(a, fs, to_code, from_code, back_scale);
            }
        }
        q0 += DAC_BATCH;
    }

    for p in quads..k {
        dac_packed(
            xb,
            &xs[p * rows..(p + 1) * rows],
            &mut out[p * cols..(p + 1) * cols],
            invocations[p],
            scratch,
        );
    }
}

// ---------------------------------------------------------------------------
// Bit-serial kernels
// ---------------------------------------------------------------------------

/// Packed bit-serial evaluation (the production hot path).
///
/// Bit-identical to the scalar reference; see the module docs for why
/// mask packing, popcount silence checks, and plane-sum reuse preserve
/// every bit.
pub(crate) fn bit_serial_packed(
    xb: &Crossbar,
    x: &[f32],
    n_bits: u32,
    out: &mut [f32],
    invocation: u64,
    scratch: &mut MvmScratch,
) {
    let rows = xb.rows_used();
    let cols = xb.cols_used();
    debug_assert_eq!(x.len(), rows);
    debug_assert_eq!(out.len(), cols);
    let cfg = xb.config();

    // --- Quantize once, scatter magnitude bits into plane masks ----------
    let x_scale = bit_serial_scale(x);
    let inv_x_scale = 1.0 / x_scale;
    let levels = (1i64 << (n_bits - 1)) - 1;
    let levels_f = levels as f64;
    let nb1 = (n_bits - 1) as usize;
    let n_planes = 2 * nb1;
    let words = rows.div_ceil(64);
    scratch.prepare_bit_serial(rows, n_planes, words);
    let MvmScratch {
        qint,
        acc,
        plane_masks,
        plane_sums,
        eval_ids,
        ..
    } = scratch;
    let acc = aligned_view(acc, cols);
    acc.fill(0.0);
    // Cache-line-aligned plane-sum slots: stride rounds cols up so every
    // plane's slot starts on a 64-byte boundary.
    let stride = cols.next_multiple_of(8);
    let plane_sums = aligned_view(plane_sums, n_planes * stride);
    for (r, &v) in x.iter().enumerate() {
        let q = signed_quantize(v as f64, inv_x_scale, levels_f);
        qint.push(q);
        let (mag, pi) = if q >= 0 {
            (q as u64, 0)
        } else {
            (-q as u64, 1)
        };
        let (word, bit) = (r >> 6, 1u64 << (r & 63));
        let mut m = mag; // |q| ≤ levels < 2^(n_bits-1): every set bit has a plane
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            plane_masks[(b * 2 + pi) * words + word] |= bit;
        }
    }

    // --- Shift-accumulate planes, noise in (bit, phase, column) order ----
    let rng = StdRng::seed_from_u64(stream::derive(xb.noise_seed(), invocation));
    let mut gs = GaussianStream::new(rng);
    let sigma = cfg.read_noise_sigma * (rows as f64).sqrt();
    let g = xb.g_all();
    for b in 0..nb1 {
        let weight = (1i64 << b) as f64;
        for (pi, phase) in [(0usize, 1.0f64), (1, -1.0)] {
            let p = b * 2 + pi;
            // Silent-plane scan over packed words (no pulse, no noise).
            if plane_masks[p * words..(p + 1) * words]
                .iter()
                .all(|&w| w == 0)
            {
                continue;
            }
            // Mask-sharing reuse: identical row mask ⇒ identical rows in
            // identical ascending order ⇒ bit-identical noiseless sum.
            let src = eval_ids
                .iter()
                .copied()
                .find(|&e| {
                    plane_masks[e * words..(e + 1) * words]
                        == plane_masks[p * words..(p + 1) * words]
                })
                .unwrap_or_else(|| {
                    let sums = &mut plane_sums[p * stride..p * stride + cols];
                    sums.fill(0.0);
                    sum_masked_rows(g, cols, &plane_masks[p * words..(p + 1) * words], sums);
                    eval_ids.push(p);
                    p
                });
            // Noise is drawn per plane even when the sum is reused.
            let sums = &plane_sums[src * stride..src * stride + cols];
            for (a, &pv) in acc.iter_mut().zip(sums) {
                let noisy = pv + gs.next(sigma);
                *a += phase * weight * noisy;
            }
        }
    }

    // Fold scales back: weights (w_scale) × activations (x_scale/levels).
    let back = xb.weight_scale() * x_scale / levels as f64;
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        *o = (a * back) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- rounding pins for the audited quantize helpers ------------------

    #[test]
    fn dac_quantize_rounds_half_away_from_zero() {
        // 2-bit DAC: 1.5 levels per polarity. 1/3 · 1.5 = 0.5 exactly.
        let l = 1.5;
        let inv = 1.0 / l;
        assert_eq!(dac_quantize(1.0 / 3.0, 1.0, 1.0, l, inv), inv);
        assert_eq!(dac_quantize(-1.0 / 3.0, 1.0, 1.0, l, inv), -inv);
        // 1.0·1.5 = 1.5 rounds *away from zero* to 2 — the fractional
        // per-polarity grid overshoots ±1 at the extremes (historical
        // behavior, pinned here).
        assert_eq!(dac_quantize(1.0, 1.0, 1.0, l, inv), 2.0 * inv);
        assert_eq!(dac_quantize(-1.0, 1.0, 1.0, l, inv), -2.0 * inv);
    }

    #[test]
    fn dac_quantize_clips_before_rounding() {
        let l = 127.5;
        let inv = 1.0 / l;
        // Clamp to ±1, then 127.5 rounds to 128: top code is 128·(1/127.5).
        assert_eq!(dac_quantize(5.0, 1.0, 1.0, l, inv), 128.0 * inv);
        assert_eq!(dac_quantize(-5.0, 1.0, 1.0, l, inv), -128.0 * inv);
        // Tighter analog clip applies after normalization.
        assert_eq!(dac_quantize(1.0, 1.0, 0.5, l, inv), 64.0 * inv);
    }

    #[test]
    fn signed_quantize_rounds_half_away_from_zero_and_saturates() {
        assert_eq!(signed_quantize(0.5, 1.0, 127.0), 64); // 63.5 → 64
        assert_eq!(signed_quantize(-0.5, 1.0, 127.0), -64);
        assert_eq!(signed_quantize(2.0, 1.0, 127.0), 127); // clipped
        assert_eq!(signed_quantize(-2.0, 1.0, 127.0), -127);
        assert_eq!(signed_quantize(0.0, 1.0, 127.0), 0);
    }

    #[test]
    fn scales_handle_zero_vectors() {
        assert_eq!(dac_scale(&[0.0, 0.0]), 1.0);
        assert_eq!(dac_scale(&[]), 1.0);
        assert_eq!(bit_serial_scale(&[0.0]), 1e-30);
        assert_eq!(dac_scale(&[-0.5, 0.25]), 0.5);
        assert_eq!(bit_serial_scale(&[-0.5, 0.25]), 0.5);
    }

    #[test]
    fn max_abs_matches_the_float_fold_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        // The fold `max_abs` replaced. The scalar reference kernels share
        // `max_abs`, so only this oracle can catch a fault in it.
        let fold = |x: &[f32]| x.iter().fold(0.0f64, |m, &v| m.max(v.abs() as f64));
        let special = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // smallest NaN pattern
            f32::from_bits(0xffff_ffff), // largest, sign set
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),            // smallest subnormal
            -f32::from_bits(0x007f_ffff), // largest subnormal
            f32::MIN_POSITIVE,
            f32::MAX,
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut cases: Vec<Vec<f32>> = vec![vec![], vec![0.0; 9], vec![-0.0; 70], special.to_vec()];
        for _ in 0..4000 {
            let len = rng.gen_range(0usize..200);
            cases.push(
                (0..len)
                    .map(|_| match rng.gen_range(0u32..4) {
                        0 => special[rng.gen_range(0..special.len())],
                        1 => f32::from_bits(rng.gen::<u32>()),
                        _ => rng.gen_range(-4.0f32..4.0),
                    })
                    .collect(),
            );
        }
        for x in &cases {
            assert_eq!(max_abs(x).to_bits(), fold(x).to_bits(), "{x:?}");
        }
    }

    #[test]
    fn adc_readout_clips_and_quantizes() {
        // fs 2.0, 1.5 levels, unit back-scale.
        let (fs, levels) = (2.0, 1.5);
        let (to, from) = (levels / fs, fs / levels);
        // Full-scale input clips to fs, then code 1.5 rounds away from
        // zero to 2: top readout is 2·(fs/levels).
        assert_eq!(adc_readout(10.0, fs, to, from, 1.0), (2.0 * from) as f32);
        assert_eq!(adc_readout(-10.0, fs, to, from, 1.0), (-2.0 * from) as f32);
        // 0.5·(1.5/2.0) = 0.375 → code 0 → 0.0
        assert_eq!(adc_readout(0.5, fs, to, from, 1.0), 0.0);
        // 1.0·(1.5/2.0) = 0.75 → code 1 → 2/1.5 = 4/3
        assert!((adc_readout(1.0, fs, to, from, 1.0) - 4.0 / 3.0).abs() < 1e-7);
    }

    // -- packed row walk ---------------------------------------------------

    #[test]
    fn set_row_walk_is_ascending_and_complete() {
        let mask = [0b1010_0001u64, 0, 1 << 63, 0b11];
        let mut seen = Vec::new();
        for_each_set_row(&mask, |r| seen.push(r));
        assert_eq!(seen, vec![0, 5, 7, 191, 192, 193]);
        let sorted = {
            let mut s = seen.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(seen, sorted, "walk must be ascending");
    }

    #[test]
    fn panelled_axpy_matches_flat_loop_across_panel_widths() {
        // 61 = 32 + 16 + 8 + 5 exercises every panel width plus the tail.
        let rows = 5;
        let cols = 61;
        let g: Vec<f64> = (0..rows * cols).map(|i| (i as f64).sin()).collect();
        // Kernel invariant: a masked-out row carries xq == 0.0.
        let mut xq: Vec<f64> = (0..rows).map(|r| r as f64 - 1.5).collect();
        xq[3] = 0.0;
        let mask = [0b10111u64];
        let mut packed = vec![0.0; cols];
        axpy_masked_rows(&g, rows, cols, &mask, &xq, &mut packed);
        let mut flat = vec![0.0; cols];
        for r in [0usize, 1, 2, 4] {
            for c in 0..cols {
                flat[c] = xq[r].mul_add(g[r * cols + c], flat[c]);
            }
        }
        assert_eq!(packed, flat);
    }

    #[test]
    fn batched_dac_is_bit_identical_to_single_calls() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cfg = crate::XbarConfig::hermes_256();
        let mut rng = StdRng::seed_from_u64(2024);
        let (rows, cols) = (70, 21); // straddles a mask word, odd tail
        let w: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let xb = Crossbar::program(&cfg, &w, rows, cols, &mut rng).unwrap();
        // 6 patches = one quad + a 2-patch remainder; patch 2 all-zero,
        // patch 3 dense (exercises the union dense switch).
        let k = 6;
        let mut xs = vec![0.0f32; k * rows];
        for (p, patch) in xs.chunks_mut(rows).enumerate() {
            if p == 2 {
                continue;
            }
            for v in patch.iter_mut() {
                let r: f32 = rng.gen_range(-1.0..1.0);
                *v = if p != 3 && r < 0.0 { 0.0 } else { r };
            }
        }
        let invocations: Vec<u64> = (0..k as u64).map(|p| 91 + 13 * p).collect();
        assert_batch_matches_single_calls(&xb, &xs, &invocations);
    }

    /// One batched call over the patches of `xs` equals a one-patch call
    /// per patch, bit for bit.
    fn assert_batch_matches_single_calls(xb: &Crossbar, xs: &[f32], invocations: &[u64]) {
        let (rows, cols) = (xb.rows_used(), xb.cols_used());
        let mut batch = vec![0.0f32; invocations.len() * cols];
        let mut scratch = MvmScratch::new();
        xb.mvm_batch_into_with(xs, &mut batch, invocations, &mut scratch)
            .unwrap();
        for (p, x) in xs.chunks(rows).enumerate() {
            let mut single = vec![0.0f32; cols];
            xb.mvm_batch_into_with(x, &mut single, &invocations[p..=p], &mut scratch)
                .unwrap();
            for (a, b) in single.iter().zip(&batch[p * cols..(p + 1) * cols]) {
                assert_eq!(a.to_bits(), b.to_bits(), "rows {rows}, patch {p}");
            }
        }
    }

    #[test]
    fn batched_dac_with_disjoint_patches_crosses_every_union_word() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cfg = crate::XbarConfig::hermes_256();
        let mut rng = StdRng::seed_from_u64(65);
        for rows in [63usize, 64, 65, 129] {
            let cols = 19;
            let w: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let xb = Crossbar::program(&cfg, &w, rows, cols, &mut rng).unwrap();
            // No row is nonzero in two patches. Round-robin rows give a
            // dense union; the rows on either side of each word boundary
            // alone give a sparse one (the walk path).
            let edges = [0, 62, 63, 64, 65, 127, 128, rows - 1];
            let layouts: [Vec<usize>; 2] = [(0..rows).collect(), edges.to_vec()];
            for owners in &layouts {
                let mut xs = vec![0.0f32; DAC_BATCH * rows];
                for (n, &r) in owners.iter().filter(|&&r| r < rows).enumerate() {
                    let p = n % DAC_BATCH;
                    if xs.chunks(rows).all(|patch| patch[r] == 0.0) {
                        xs[p * rows + r] = rng.gen_range(0.2f32..1.0) * [1.0, -1.0][n % 2];
                    }
                }
                let invocations: Vec<u64> = (0..DAC_BATCH as u64).map(|p| 7 + p).collect();
                assert_batch_matches_single_calls(&xb, &xs, &invocations);
            }
        }
    }

    #[test]
    fn dense_and_walk_axpy_are_bit_identical() {
        // Straddle the density threshold from both sides by calling the
        // panel kernels directly: a masked-out row carries xq == 0.0, so
        // the dense sweep must reproduce the walk bit for bit.
        let rows = 70; // > one mask word
        let cols = 48; // 32 + 16
        let g: Vec<f64> = (0..rows * cols)
            .map(|i| ((i * 2654435761usize % 1000) as f64 - 500.0) / 250.0)
            .collect();
        let mut xq = vec![0.0f64; rows];
        let mut mask = [0u64; 2];
        for r in (0..rows).step_by(3) {
            xq[r] = (r as f64 - 30.0) / 7.0;
            if xq[r] != 0.0 {
                mask[r / 64] |= 1 << (r % 64);
            }
        }
        let mut walk = vec![0.0; cols];
        axpy_panel_walk::<32>(&g, cols, 0, &mask, &xq, &mut walk);
        axpy_panel_walk::<16>(&g, cols, 32, &mask, &xq, &mut walk);
        let mut dense = vec![0.0; cols];
        axpy_panel_dense::<32>(&g, cols, 0, rows, &xq, &mut dense);
        axpy_panel_dense::<16>(&g, cols, 32, rows, &xq, &mut dense);
        for (a, b) in walk.iter().zip(&dense) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The batched accumulation leaves every patch's f64 column sums
        /// bit-identical to a single-patch accumulation of that patch, and
        /// the single-patch sums bit-identical to a flat row-order
        /// `mul_add` loop over the patch's masked rows.
        ///
        /// Checked before the ADC, because the ADC code grid and the f32
        /// output hide a last-place change of a sum: a row block that
        /// started its accumulators at zero, and added them in at its end,
        /// would re-associate each sum yet pass the kernel's end-to-end
        /// equivalence tests. Arrays up to 256×160 reach the 48-row blocks
        /// (more than 40 KiB of conductances) and every panel width (the
        /// 64-column one where AVX-512 builds it), and inputs with one row
        /// in sixteen or in ten nonzero reach the walk panels.
        #[test]
        fn batched_axpy_matches_single_patch_sums_bitwise(
            rows in 1usize..=256,
            cols in 1usize..=160,
            nonzero_i in 0usize..3,
            seed in proptest::any::<u64>(),
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let nonzero = [1.0 / 16.0, 1.0 / 10.0, 6.0 / 7.0][nonzero_i];
            let mut rng = StdRng::seed_from_u64(seed);
            let g: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let words = rows.div_ceil(64);
            let mut xq = vec![0.0f64; DAC_BATCH * rows];
            let mut masks = vec![0u64; DAC_BATCH * words];
            for (i, x) in xq.iter_mut().enumerate() {
                let (p, r) = (i / rows, i % rows);
                if rng.gen_range(0.0f64..1.0) < nonzero {
                    // A code on the 8-bit DAC grid; a zero code stays out
                    // of the mask, as in the DAC stage.
                    *x = rng.gen_range(-128i32..=128) as f64 / 127.5;
                } else if rng.gen_range(0u32..2) == 0 {
                    *x = -0.0;
                }
                if *x != 0.0 {
                    masks[p * words + r / 64] |= 1 << (r % 64);
                }
            }
            let umask: Vec<u64> = (0..words)
                .map(|w| (0..DAC_BATCH).fold(0, |u, p| u | masks[p * words + w]))
                .collect();
            let stride = cols.next_multiple_of(8);
            let mut batched = vec![0.0f64; DAC_BATCH * stride];
            axpy_masked_rows_batch(&g, rows, cols, &umask, &xq, &mut batched, stride);
            for p in 0..DAC_BATCH {
                let mut single = vec![0.0f64; cols];
                let mask = &masks[p * words..(p + 1) * words];
                axpy_masked_rows(&g, rows, cols, mask, &xq[p * rows..(p + 1) * rows], &mut single);
                let got = &batched[p * stride..p * stride + cols];
                proptest::prop_assert!(
                    single.iter().zip(got).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{rows}x{cols}: patch {p} sums diverged from its single accumulation"
                );
                let mut flat = vec![0.0f64; cols];
                for r in (0..rows).filter(|r| mask[r / 64] >> (r % 64) & 1 == 1) {
                    for (c, f) in flat.iter_mut().enumerate() {
                        *f = xq[p * rows + r].mul_add(g[r * cols + c], *f);
                    }
                }
                proptest::prop_assert!(
                    single.iter().zip(&flat).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{rows}x{cols}: patch {p} single sums diverged from the flat loop"
                );
            }
        }
    }
}
