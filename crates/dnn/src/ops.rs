//! Reference (golden) floating-point implementations of every operator.
//!
//! These are the ground truth against which the analog executor is checked.
//! Weight layout for convolutions is `[out_ch][in_ch][kh][kw]` (row-major);
//! for linear layers `[out_features][in_features]`.

use crate::layer::ConvCfg;
use crate::tensor::{Shape, Tensor};

/// 2-D convolution with zero padding and optional fused ReLU.
///
/// # Panics
/// Panics if shapes or weight length are inconsistent.
pub fn conv2d(x: &Tensor, weights: &[f32], cfg: &ConvCfg) -> Tensor {
    let ins = x.shape();
    assert_eq!(ins.c, cfg.in_ch, "input channel mismatch");
    assert_eq!(weights.len(), cfg.params(), "weight buffer length mismatch");
    let outs = cfg.out_shape(ins);
    let mut y = Tensor::zeros(outs);

    let kh = cfg.kh as isize;
    let kw = cfg.kw as isize;
    let pad = cfg.pad as isize;
    let stride = cfg.stride as isize;

    for oc in 0..outs.c {
        let w_oc =
            &weights[oc * cfg.in_ch * cfg.kh * cfg.kw..(oc + 1) * cfg.in_ch * cfg.kh * cfg.kw];
        for oh in 0..outs.h {
            for ow in 0..outs.w {
                let mut acc = 0.0f32;
                let ih0 = oh as isize * stride - pad;
                let iw0 = ow as isize * stride - pad;
                for ic in 0..ins.c {
                    let w_ic = &w_oc[ic * cfg.kh * cfg.kw..(ic + 1) * cfg.kh * cfg.kw];
                    for r in 0..kh {
                        let ih = ih0 + r;
                        if ih < 0 || ih >= ins.h as isize {
                            continue;
                        }
                        for s in 0..kw {
                            let iw = iw0 + s;
                            if iw < 0 || iw >= ins.w as isize {
                                continue;
                            }
                            acc +=
                                w_ic[(r * kw + s) as usize] * x.get(ic, ih as usize, iw as usize);
                        }
                    }
                }
                if cfg.relu && acc < 0.0 {
                    acc = 0.0;
                }
                y.set(oc, oh, ow, acc);
            }
        }
    }
    y
}

/// Depthwise 2-D convolution: channel `c` of the output convolves channel
/// `c` of the input with its own `kh × kw` filter. Weight layout:
/// `[channel][kh][kw]`.
///
/// # Panics
/// Panics if `cfg.in_ch != cfg.out_ch` or buffer lengths are inconsistent.
pub fn depthwise_conv2d(x: &Tensor, weights: &[f32], cfg: &ConvCfg) -> Tensor {
    let ins = x.shape();
    assert_eq!(cfg.in_ch, cfg.out_ch, "depthwise preserves channels");
    assert_eq!(ins.c, cfg.in_ch, "input channel mismatch");
    assert_eq!(weights.len(), cfg.out_ch * cfg.kh * cfg.kw, "weight length");
    let outs = cfg.out_shape(ins);
    let mut y = Tensor::zeros(outs);
    let pad = cfg.pad as isize;
    for c in 0..outs.c {
        let w_c = &weights[c * cfg.kh * cfg.kw..(c + 1) * cfg.kh * cfg.kw];
        for oh in 0..outs.h {
            for ow in 0..outs.w {
                let mut acc = 0.0f32;
                for r in 0..cfg.kh {
                    let ih = (oh * cfg.stride + r) as isize - pad;
                    if ih < 0 || ih >= ins.h as isize {
                        continue;
                    }
                    for scol in 0..cfg.kw {
                        let iw = (ow * cfg.stride + scol) as isize - pad;
                        if iw < 0 || iw >= ins.w as isize {
                            continue;
                        }
                        acc += w_c[r * cfg.kw + scol] * x.get(c, ih as usize, iw as usize);
                    }
                }
                if cfg.relu && acc < 0.0 {
                    acc = 0.0;
                }
                y.set(c, oh, ow, acc);
            }
        }
    }
    y
}

/// Max pooling with zero padding (padded positions never win: they compare
/// as `-inf`).
pub fn maxpool2d(x: &Tensor, k: usize, stride: usize, pad: usize) -> Tensor {
    let ins = x.shape();
    let oh = (ins.h + 2 * pad - k) / stride + 1;
    let ow = (ins.w + 2 * pad - k) / stride + 1;
    let mut y = Tensor::zeros(Shape::new(ins.c, oh, ow));
    for c in 0..ins.c {
        for i in 0..oh {
            for j in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for r in 0..k {
                    for s in 0..k {
                        let ih = (i * stride + r) as isize - pad as isize;
                        let iw = (j * stride + s) as isize - pad as isize;
                        if ih < 0 || iw < 0 || ih >= ins.h as isize || iw >= ins.w as isize {
                            continue;
                        }
                        best = best.max(x.get(c, ih as usize, iw as usize));
                    }
                }
                y.set(c, i, j, best);
            }
        }
    }
    y
}

/// Global average pooling to `C×1×1`.
pub fn global_avgpool(x: &Tensor) -> Tensor {
    let ins = x.shape();
    let mut y = Tensor::zeros(Shape::new(ins.c, 1, 1));
    let denom = (ins.h * ins.w) as f32;
    for c in 0..ins.c {
        let mut acc = 0.0f32;
        for h in 0..ins.h {
            for w in 0..ins.w {
                acc += x.get(c, h, w);
            }
        }
        y.set(c, 0, 0, acc / denom);
    }
    y
}

/// Fully connected layer over the flattened input.
///
/// # Panics
/// Panics if `weights.len() != out_features * x.numel()`.
pub fn linear(x: &Tensor, weights: &[f32], out_features: usize) -> Tensor {
    let in_features = x.shape().numel();
    assert_eq!(weights.len(), out_features * in_features, "weight length");
    let xd = x.data();
    let mut y = Tensor::zeros(Shape::new(out_features, 1, 1));
    for o in 0..out_features {
        let row = &weights[o * in_features..(o + 1) * in_features];
        let mut acc = 0.0f32;
        for (a, b) in row.iter().zip(xd) {
            acc += a * b;
        }
        y.set(o, 0, 0, acc);
    }
    y
}

/// Element-wise `a + b` with optional ReLU (the residual join).
///
/// # Panics
/// Panics on shape mismatch.
pub fn add(a: &Tensor, b: &Tensor, relu: bool) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "residual shapes must match");
    let mut out = a.clone();
    for (o, &bv) in out.data_mut().iter_mut().zip(b.data()) {
        *o += bv;
        if relu && *o < 0.0 {
            *o = 0.0;
        }
    }
    out
}

/// In-place ReLU.
pub fn relu_inplace(x: &mut Tensor) {
    for v in x.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Offset in `x`'s data of the first tap of output pixel `(oh, ow)`'s
/// window when the whole window lies inside the input, `None` when it
/// touches the zero padding.
fn interior_window(ins: Shape, cfg: &ConvCfg, oh: usize, ow: usize) -> Option<usize> {
    let ih0 = (oh * cfg.stride).checked_sub(cfg.pad)?;
    let iw0 = (ow * cfg.stride).checked_sub(cfg.pad)?;
    (ih0 + cfg.kh <= ins.h && iw0 + cfg.kw <= ins.w).then_some(ih0 * ins.w + iw0)
}

/// Offset of tap row `row = ic·kh + r` of an interior window from the
/// window's first tap.
fn tap_row(ins: Shape, kh: usize, row: usize) -> usize {
    (row / kh * ins.h + row % kh) * ins.w
}

/// Copies an interior window of `KW`-wide taps from `src` (starting at the
/// window's first tap) into `out`, one contiguous tap row per
/// `(channel, kernel row)`.
fn copy_taps<const KW: usize>(src: &[f32], ins: Shape, kh: usize, out: &mut [f32]) {
    let plane = ins.h * ins.w;
    for (ic, chan) in out.chunks_exact_mut(kh * KW).enumerate() {
        for (r, taps) in chan.chunks_exact_mut(KW).enumerate() {
            let at = ic * plane + r * ins.w;
            taps.copy_from_slice(&src[at..at + KW]);
        }
    }
}

/// Extracts the im2col patch for output pixel `(oh, ow)` into `out`, using
/// the crossbar row ordering `row = (ic·kh + r)·kw + s` — the same layout
/// [`crate::AimcExecutor`] programs weights with.
///
/// A window inside the input is copied `kw` contiguous taps at a time
/// (specialized for 1- and 3-wide kernels); only windows that touch the
/// zero padding take the bounds-checked element loop.
pub fn im2col_patch(x: &Tensor, cfg: &ConvCfg, oh: usize, ow: usize, out: &mut [f32]) {
    let ins = x.shape();
    debug_assert_eq!(out.len(), cfg.xbar_rows());
    if let Some(at) = interior_window(ins, cfg, oh, ow) {
        let src = &x.data()[at..];
        match cfg.kw {
            1 => copy_taps::<1>(src, ins, cfg.kh, out),
            3 => copy_taps::<3>(src, ins, cfg.kh, out),
            kw => {
                for (row, taps) in out.chunks_exact_mut(kw).enumerate() {
                    let at = tap_row(ins, cfg.kh, row);
                    taps.copy_from_slice(&src[at..at + kw]);
                }
            }
        }
        return;
    }
    let ih0 = (oh * cfg.stride) as isize - cfg.pad as isize;
    let iw0 = (ow * cfg.stride) as isize - cfg.pad as isize;
    let mut idx = 0;
    for ic in 0..cfg.in_ch {
        for r in 0..cfg.kh {
            let ih = ih0 + r as isize;
            for s in 0..cfg.kw {
                let iw = iw0 + s as isize;
                out[idx] = if ih < 0 || iw < 0 || ih >= ins.h as isize || iw >= ins.w as isize {
                    0.0
                } else {
                    x.get(ic, ih as usize, iw as usize)
                };
                idx += 1;
            }
        }
    }
}

/// Like [`im2col_patch`] but extracting only crossbar rows
/// `r0 .. r0 + out.len()` — exactly the slice a row-split tile consumes, so
/// the tile-parallel executor never builds patch elements it will not read.
/// Interior windows are copied tap row by tap row here too.
pub fn im2col_patch_range(
    x: &Tensor,
    cfg: &ConvCfg,
    oh: usize,
    ow: usize,
    r0: usize,
    out: &mut [f32],
) {
    let ins = x.shape();
    debug_assert!(r0 + out.len() <= cfg.xbar_rows());
    if let Some(at) = interior_window(ins, cfg, oh, ow) {
        let src = &x.data()[at..];
        // Tap row `row`, starting `s` taps in.
        let (mut row, mut s) = (r0 / cfg.kw, r0 % cfg.kw);
        let mut rest = out;
        while !rest.is_empty() {
            let n = (cfg.kw - s).min(rest.len());
            let from = tap_row(ins, cfg.kh, row) + s;
            let (taps, tail) = rest.split_at_mut(n);
            taps.copy_from_slice(&src[from..from + n]);
            rest = tail;
            row += 1;
            s = 0;
        }
        return;
    }
    let ih0 = (oh * cfg.stride) as isize - cfg.pad as isize;
    let iw0 = (ow * cfg.stride) as isize - cfg.pad as isize;
    // Decompose the first row index once, then step through (ic, r, s).
    let k = cfg.kh * cfg.kw;
    let mut ic = r0 / k;
    let mut r = (r0 % k) / cfg.kw;
    let mut s = r0 % cfg.kw;
    for o in out.iter_mut() {
        let ih = ih0 + r as isize;
        let iw = iw0 + s as isize;
        *o = if ih < 0 || iw < 0 || ih >= ins.h as isize || iw >= ins.w as isize {
            0.0
        } else {
            x.get(ic, ih as usize, iw as usize)
        };
        s += 1;
        if s == cfg.kw {
            s = 0;
            r += 1;
            if r == cfg.kh {
                r = 0;
                ic += 1;
            }
        }
    }
}

/// The paper's balanced ceil-split: divides `total` into
/// `ceil(total / max)` contiguous chunks whose sizes differ by at most one,
/// returned as `(start, len)` pairs (Sec. V-1).
///
/// This is the one canonical splitting rule shared by the functional
/// analog executor ([`crate::AimcExecutor`], tile geometry) and the mapping
/// compiler (`aimc_core::SplitPlan`, cluster counts) — the two must agree
/// or the mapper's IMA counts would diverge from the programmed tiles.
///
/// # Panics
/// Panics if `total` or `max` is zero.
///
/// # Examples
/// ```
/// use aimc_dnn::ceil_split;
/// assert_eq!(ceil_split(576, 256), vec![(0, 192), (192, 192), (384, 192)]);
/// assert_eq!(ceil_split(256, 256), vec![(0, 256)]);
/// ```
pub fn ceil_split(total: usize, max: usize) -> Vec<(usize, usize)> {
    assert!(total > 0, "cannot split an empty dimension");
    assert!(max > 0, "cannot split onto zero-size chunks");
    let n = total.div_ceil(max);
    let base = total / n;
    let rem = total % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let len = base + usize::from(i < rem);
        out.push((start, len));
        start += len;
    }
    out
}

/// Reorders conv weights `[oc][ic][kh][kw]` into the crossbar layout
/// `[rows = ic·kh·kw][cols = oc]` (row-major).
pub fn weights_to_xbar_layout(weights: &[f32], cfg: &ConvCfg) -> Vec<f32> {
    let rows = cfg.xbar_rows();
    let cols = cfg.xbar_cols();
    assert_eq!(weights.len(), rows * cols, "weight length");
    let mut out = vec![0.0f32; rows * cols];
    for oc in 0..cols {
        for r in 0..rows {
            out[r * cols + oc] = weights[oc * rows + r];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_identity_kernel() {
        // 1x1 conv with identity weight reproduces the input channel.
        let x = Tensor::from_vec(Shape::new(1, 2, 2), vec![1.0, -2.0, 3.0, -4.0]);
        let cfg = ConvCfg {
            in_ch: 1,
            out_ch: 1,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
            relu: false,
        };
        let y = conv2d(&x, &[1.0], &cfg);
        assert_eq!(y.data(), x.data());
        let cfg_relu = ConvCfg { relu: true, ..cfg };
        let y = conv2d(&x, &[1.0], &cfg_relu);
        assert_eq!(y.data(), &[1.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn conv_3x3_known_values() {
        // All-ones 3x3 kernel on all-ones 3x3 input with pad 1: each output
        // counts the valid neighbors.
        let x = Tensor::from_vec(Shape::new(1, 3, 3), vec![1.0; 9]);
        let cfg = ConvCfg {
            in_ch: 1,
            out_ch: 1,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
            relu: false,
        };
        let y = conv2d(&x, &[1.0; 9], &cfg);
        assert_eq!(y.data(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn conv_stride_subsamples() {
        let x = Tensor::from_vec(Shape::new(1, 4, 4), (0..16).map(|i| i as f32).collect());
        let cfg = ConvCfg {
            in_ch: 1,
            out_ch: 1,
            kh: 1,
            kw: 1,
            stride: 2,
            pad: 0,
            relu: false,
        };
        let y = conv2d(&x, &[1.0], &cfg);
        assert_eq!(y.shape(), Shape::new(1, 2, 2));
        assert_eq!(y.data(), &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn conv_multichannel_accumulates() {
        let x = Tensor::from_vec(Shape::new(2, 1, 1), vec![2.0, 3.0]);
        let cfg = ConvCfg {
            in_ch: 2,
            out_ch: 2,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
            relu: false,
        };
        // oc0 = 1*x0 + 10*x1 = 32; oc1 = -1*x0 + 0.5*x1 = -0.5
        let y = conv2d(&x, &[1.0, 10.0, -1.0, 0.5], &cfg);
        assert_eq!(y.data(), &[32.0, -0.5]);
    }

    #[test]
    fn depthwise_convolves_channels_independently() {
        // Two channels, distinct 1x1 "filters": pure per-channel scaling.
        let x = Tensor::from_vec(Shape::new(2, 1, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let cfg = ConvCfg {
            in_ch: 2,
            out_ch: 2,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
            relu: false,
        };
        let y = depthwise_conv2d(&x, &[10.0, -1.0], &cfg);
        assert_eq!(y.data(), &[10.0, 20.0, -3.0, -4.0]);
        // 3x3 depthwise equals grouped full conv: cross-check on one channel.
        let x1 = Tensor::from_vec(Shape::new(1, 3, 3), (0..9).map(|i| i as f32).collect());
        let dw = ConvCfg {
            in_ch: 1,
            out_ch: 1,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
            relu: false,
        };
        let w: Vec<f32> = (0..9).map(|i| (i as f32) * 0.1).collect();
        let a = depthwise_conv2d(&x1, &w, &dw);
        let b = conv2d(&x1, &w, &dw);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn maxpool_takes_window_max() {
        let x = Tensor::from_vec(Shape::new(1, 4, 4), (0..16).map(|i| i as f32).collect());
        let y = maxpool2d(&x, 2, 2, 0);
        assert_eq!(y.shape(), Shape::new(1, 2, 2));
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn maxpool_padding_never_wins() {
        let x = Tensor::from_vec(Shape::new(1, 2, 2), vec![-1.0, -2.0, -3.0, -4.0]);
        let y = maxpool2d(&x, 3, 2, 1);
        assert_eq!(y.shape(), Shape::new(1, 1, 1));
        assert_eq!(y.data(), &[-1.0]);
    }

    #[test]
    fn gap_averages() {
        let x = Tensor::from_vec(Shape::new(2, 1, 2), vec![1.0, 3.0, 10.0, 20.0]);
        let y = global_avgpool(&x);
        assert_eq!(y.data(), &[2.0, 15.0]);
    }

    #[test]
    fn linear_matvec() {
        let x = Tensor::from_vec(Shape::new(3, 1, 1), vec![1.0, 2.0, 3.0]);
        let w = vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let y = linear(&x, &w, 2);
        assert_eq!(y.data(), &[1.0, 6.0]);
    }

    #[test]
    fn add_with_relu() {
        let a = Tensor::from_vec(Shape::new(1, 1, 2), vec![1.0, -3.0]);
        let b = Tensor::from_vec(Shape::new(1, 1, 2), vec![1.0, 1.0]);
        assert_eq!(add(&a, &b, false).data(), &[2.0, -2.0]);
        assert_eq!(add(&a, &b, true).data(), &[2.0, 0.0]);
    }

    #[test]
    fn relu_inplace_clamps() {
        let mut t = Tensor::from_vec(Shape::new(1, 1, 3), vec![-1.0, 0.0, 2.0]);
        relu_inplace(&mut t);
        assert_eq!(t.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn im2col_matches_direct_conv() {
        // conv via im2col+matvec must equal conv2d.
        let cfg = ConvCfg::k3(2, 3, 1);
        let x = Tensor::from_vec(
            Shape::new(2, 4, 4),
            (0..32).map(|i| (i as f32) * 0.1 - 1.5).collect(),
        );
        let w: Vec<f32> = (0..cfg.params())
            .map(|i| ((i % 7) as f32 - 3.0) * 0.2)
            .collect();
        let direct = conv2d(&x, &w, &ConvCfg { relu: false, ..cfg });
        let wx = weights_to_xbar_layout(&w, &cfg);
        let rows = cfg.xbar_rows();
        let mut patch = vec![0.0f32; rows];
        let outs = cfg.out_shape(x.shape());
        for oh in 0..outs.h {
            for ow in 0..outs.w {
                im2col_patch(&x, &cfg, oh, ow, &mut patch);
                for oc in 0..outs.c {
                    let mut acc = 0.0;
                    for r in 0..rows {
                        acc += patch[r] * wx[r * outs.c + oc];
                    }
                    let d = direct.get(oc, oh, ow);
                    assert!((acc - d).abs() < 1e-4, "{acc} vs {d}");
                }
            }
        }
    }

    #[test]
    fn im2col_range_matches_full_patch() {
        // Both extractors against a bounds-checked loop, element for
        // element, over kernel, stride and pad geometries on inputs small
        // enough that border windows dominate. Every range slice starting
        // at each row (a partial first tap row), of length 1, of a tap row
        // and a bit, and to the end must agree too.
        for (h, w) in [(1, 1), (4, 4), (5, 7)] {
            let x = Tensor::from_vec(
                Shape::new(2, h, w),
                (0..2 * h * w).map(|i| (i as f32) * 0.07 - 2.0).collect(),
            );
            for (kh, kw) in [
                (1, 1),
                (3, 3),
                (5, 5),
                (7, 7),
                (3, 1),
                (1, 3),
                (3, 5),
                (5, 3),
            ] {
                for stride in [1, 2] {
                    for pad in 0..=3 {
                        if h + 2 * pad < kh || w + 2 * pad < kw {
                            continue;
                        }
                        let cfg = ConvCfg {
                            in_ch: 2,
                            out_ch: 1,
                            kh,
                            kw,
                            stride,
                            pad,
                            relu: false,
                        };
                        let geom = format!("{h}x{w} k{kh}x{kw} s{stride} p{pad}");
                        let rows = cfg.xbar_rows();
                        let outs = cfg.out_shape(x.shape());
                        let mut full = vec![f32::NAN; rows];
                        for oh in 0..outs.h {
                            for ow in 0..outs.w {
                                let mut want = Vec::with_capacity(rows);
                                for ic in 0..2 {
                                    for r in 0..kh {
                                        for s in 0..kw {
                                            let ih = (oh * stride + r) as isize - pad as isize;
                                            let iw = (ow * stride + s) as isize - pad as isize;
                                            let inside = (0..h as isize).contains(&ih)
                                                && (0..w as isize).contains(&iw);
                                            want.push(if inside {
                                                x.get(ic, ih as usize, iw as usize)
                                            } else {
                                                0.0
                                            });
                                        }
                                    }
                                }
                                im2col_patch(&x, &cfg, oh, ow, &mut full);
                                assert_eq!(full, want, "{geom} at ({oh}, {ow})");
                                for r0 in 0..rows {
                                    for rl in [1, kw + 1, rows - r0] {
                                        let rl = rl.min(rows - r0);
                                        let mut part = vec![f32::NAN; rl];
                                        im2col_patch_range(&x, &cfg, oh, ow, r0, &mut part);
                                        assert_eq!(
                                            part,
                                            want[r0..r0 + rl],
                                            "{geom} at ({oh}, {ow}), slice ({r0}, {rl})"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
