//! `mvm_kernels` — single-core analog-MVM kernel benchmark.
//!
//! Kernels over the ResNet-18/CIFAR-10 tile census of a `hermes_256`
//! deployment (the per-image analog hot loop):
//!
//! * **legacy** — a faithful in-bench reimplementation of the pre-packing
//!   `mvm_core`: per-call `Vec` allocations, divide-form normalize /
//!   quantize / ADC, Box–Muller read noise per bit line. This is the
//!   baseline the headline speedup is measured against, compiled with the
//!   same flags as everything else in this binary.
//! * **batched** — the production bit-packed kernel through
//!   [`Crossbar::mvm_batch_into_with`] with [`DAC_BATCH`] patches per call,
//!   as the executors' convolution loops issue it, with a warm
//!   caller-owned scratch.
//!
//! Before timing it checks that batched calls are bit-identical to
//! one-patch calls and that the legacy kernel agrees to within one ADC
//! step; the `kernel_equivalence_ok=true` line on stdout, and the same key
//! in `BENCH_mvm_kernels.json`, attest both. The packed ≡ scalar-reference
//! bit identity is pinned by `aimc-xbar`'s unit tests. The `--smoke` mode
//! used by CI runs the checks with shortened timing loops. The JSON names
//! the host's CPU count (`host_cpus`).
//!
//! Timing is min-of-rounds: the minimum mean ns/call over several
//! measurement rounds, which is robust against host frequency and steal
//! noise on small shared machines.
//!
//! The batched kernel is timed twice per shape, with `hermes_256`'s read
//! noise and with `read_noise_sigma = 0`, so every run splits the
//! Gaussian sampler's share from the rest of the kernel.

use aimc_xbar::{noise, stream, Crossbar, MvmScratch, XbarConfig, DAC_BATCH};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// ResNet-18/CIFAR-10 on 256×256 arrays: `(rows, cols, MVMs per image)`.
///
/// Every tile shape of the analog layers with its per-image invocation
/// count; the counts sum to `Session::total_mvms`' 7 937.
const CENSUS: [(usize, usize, u64); 8] = [
    (27, 16, 1024),
    (144, 16, 4096),
    (144, 32, 1792),
    (16, 32, 256),
    (144, 64, 128),
    (192, 64, 576),
    (32, 64, 64),
    (64, 10, 1),
];

/// Min-of-rounds ns/call.
fn time_min(rounds: usize, reps: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for i in 0..reps {
            f(i);
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64 * 1e9);
    }
    best
}

/// The pre-packing analog MVM kernel, reimplemented verbatim from the old
/// `mvm_core` against a conductance matrix read back from the array.
struct LegacyKernel {
    g: Vec<f64>,
    rows: usize,
    cols: usize,
    cfg: XbarConfig,
    noise_seed: u64,
    w_scale: f64,
}

impl LegacyKernel {
    /// Rebuilds the legacy kernel's state from a programmed array. The
    /// conductances round-trip through `stored_weight`'s f32, so legacy
    /// outputs match the packed kernel only to f32 precision — enough for
    /// the sanity check below; timing is unaffected.
    fn from_xbar(xb: &Crossbar) -> Self {
        let (rows, cols) = (xb.rows_used(), xb.cols_used());
        let w_scale = xb.weight_scale();
        let g = (0..rows)
            .flat_map(|r| (0..cols).map(move |c| xb.stored_weight(r, c) as f64 / w_scale))
            .collect();
        LegacyKernel {
            g,
            rows,
            cols,
            cfg: xb.config().clone(),
            noise_seed: xb.noise_seed(),
            w_scale,
        }
    }

    /// The old hot path: allocates `xq` and `acc` every call, normalizes
    /// and quantizes with divisions, draws Box–Muller read noise.
    fn mvm_into_at(&self, x: &[f32], out: &mut [f32], invocation: u64) {
        let dac_levels = ((1u64 << self.cfg.dac_bits) - 1) as f64 / 2.0; // per polarity
        let clip = self.cfg.x_clip;
        let mut xq = Vec::with_capacity(x.len());
        let mut x_scale = 0.0f64;
        for &xi in x {
            x_scale = x_scale.max(xi.abs() as f64);
        }
        let x_scale = if x_scale > 0.0 { x_scale } else { 1.0 };
        for &xi in x {
            let v = (xi as f64 / x_scale).clamp(-clip, clip);
            xq.push((v * dac_levels).round() / dac_levels);
        }

        let cols = self.cols;
        let mut acc = vec![0.0f64; cols];
        for (r, &xr) in xq.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let row = &self.g[r * cols..(r + 1) * cols];
            for (c, &g) in row.iter().enumerate() {
                acc[c] += xr * g;
            }
        }

        if self.cfg.read_noise_sigma > 0.0 {
            let mut rng = StdRng::seed_from_u64(stream::derive(self.noise_seed, invocation));
            let sigma = self.cfg.read_noise_sigma * (self.rows as f64).sqrt();
            for a in acc.iter_mut() {
                *a += noise::gaussian(&mut rng, sigma);
            }
        }

        let fs = self.cfg.adc_headroom * self.rows as f64 * clip;
        let adc_levels = ((1u64 << self.cfg.adc_bits.min(31)) - 1) as f64 / 2.0;
        let back_scale = self.w_scale * x_scale;
        for (c, a) in acc.iter().enumerate() {
            let clipped = a.clamp(-fs, fs);
            let q = (clipped / fs * adc_levels).round() / adc_levels * fs;
            out[c] = (q * back_scale) as f32;
        }
    }
}

/// A programmed array plus a ReLU-like input (≈half the rows silent, like
/// post-activation feature maps).
fn make_case(cfg: &XbarConfig, rows: usize, cols: usize, seed: u64) -> (Crossbar, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w: Vec<f32> = (0..rows * cols)
        .map(|i| ((i * 37 % 64) as f32 - 32.0) / 32.0)
        .collect();
    let xb = Crossbar::program(cfg, &w, rows, cols, &mut rng).unwrap();
    let x: Vec<f32> = (0..rows)
        .map(|_| {
            let v: f32 = rng.gen_range(-1.0..1.0);
            if v < 0.0 {
                0.0
            } else {
                v
            }
        })
        .collect();
    (xb, x)
}

/// Batched ≡ one-patch bit identity on every census shape, over a
/// ReLU-like input and adversarial patterns (zeros, sign flips,
/// saturation) as one full batch.
fn check_batching() -> bool {
    let cfg = XbarConfig::hermes_256();
    let mut scratch = MvmScratch::new();
    let mut ok = true;
    for &(rows, cols, _) in &CENSUS {
        let (xb, relu_x) = make_case(&cfg, rows, cols, 7 + rows as u64);
        let patterns: Vec<Vec<f32>> = vec![
            relu_x,
            vec![0.0; rows],
            (0..rows)
                .map(|i| if i % 2 == 0 { -1.0 } else { 1.0 })
                .collect(),
            (0..rows)
                .map(|i| (i as f32 - rows as f32 / 2.0) * 100.0)
                .collect(),
        ];
        // All patterns as one batch (remainders are covered by the unit
        // tests; this exercises census shapes), each patch bit-identical to
        // its one-patch call.
        let k = patterns.len();
        let xs: Vec<f32> = patterns.iter().flat_map(|p| p.iter().copied()).collect();
        let invocations: Vec<u64> = (0..k as u64).map(|p| 100 + 7 * p).collect();
        let mut batch = vec![0.0f32; k * cols];
        xb.mvm_batch_into_with(&xs, &mut batch, &invocations, &mut scratch)
            .unwrap();
        for (p, x) in patterns.iter().enumerate() {
            let mut single = vec![0.0f32; cols];
            xb.mvm_batch_into_with(x, &mut single, &invocations[p..=p], &mut scratch)
                .unwrap();
            if single
                .iter()
                .zip(&batch[p * cols..(p + 1) * cols])
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                eprintln!("MISMATCH batch {rows}x{cols} patch {p}");
                ok = false;
            }
        }
    }
    ok
}

/// Legacy ↔ packed agreement on a noiseless array. The legacy matrix is
/// an f32 read-back and its quantize divides where the packed kernel
/// multiplies by reciprocals, so a pre-ADC value sitting on a rounding
/// boundary may land one ADC code apart — the tolerance is one ADC step
/// (any indexing or scaling bug would miss by many steps).
fn check_legacy_sanity() -> bool {
    let mut cfg = XbarConfig::hermes_256();
    cfg.read_noise_sigma = 0.0;
    let mut scratch = MvmScratch::new();
    let mut ok = true;
    for &(rows, cols, _) in &CENSUS {
        let (xb, x) = make_case(&cfg, rows, cols, 19 + cols as u64);
        let legacy = LegacyKernel::from_xbar(&xb);
        let mut want = vec![0.0f32; cols];
        legacy.mvm_into_at(&x, &mut want, 5);
        let mut got = vec![0.0f32; cols];
        xb.mvm_batch_into_with(&x, &mut got, &[5], &mut scratch)
            .unwrap();
        let fs = cfg.adc_headroom * rows as f64 * cfg.x_clip;
        let adc_levels = ((1u64 << cfg.adc_bits.min(31)) - 1) as f64 / 2.0;
        let x_scale = x
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs() as f64))
            .max(1.0);
        let step = fs / adc_levels * xb.weight_scale() * x_scale;
        if want
            .iter()
            .zip(&got)
            .any(|(a, b)| (a - b).abs() as f64 > 1.01 * step)
        {
            eprintln!("LEGACY MISMATCH {rows}x{cols}");
            ok = false;
        }
    }
    ok
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rounds, reps) = if smoke { (2, 40) } else { (7, 2000) };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let equivalence_ok = check_batching() && check_legacy_sanity();
    println!("kernel_equivalence_ok={equivalence_ok}");
    assert!(
        equivalence_ok,
        "batched calls diverge from one-patch calls, or legacy from packed"
    );

    let cfg = XbarConfig::hermes_256();
    let cfg0 = XbarConfig {
        read_noise_sigma: 0.0,
        ..cfg.clone()
    };
    let mut scratch = MvmScratch::new();
    let mut census_rows = Vec::new();
    let (mut tot_legacy, mut tot_batch, mut tot_batch0) = (0.0f64, 0.0f64, 0.0f64);
    let mut tot_mvms = 0u64;
    for &(rows, cols, n) in &CENSUS {
        let (xb, x) = make_case(&cfg, rows, cols, 40 + rows as u64);
        let (xb0, _) = make_case(&cfg0, rows, cols, 40 + rows as u64);
        let legacy = LegacyKernel::from_xbar(&xb);
        let mut out = vec![0.0f32; cols];
        // Four distinct ReLU-like patches for the batched call, patch 0
        // being the legacy kernel's input.
        let mut rng = StdRng::seed_from_u64(77 + rows as u64);
        let mut xs = x.clone();
        for _ in 1..DAC_BATCH {
            xs.extend((0..rows).map(|_| {
                let v: f32 = rng.gen_range(-1.0..1.0);
                if v < 0.0 {
                    0.0
                } else {
                    v
                }
            }));
        }
        let mut outs = vec![0.0f32; DAC_BATCH * cols];

        let ns_legacy = time_min(rounds, reps, |i| {
            legacy.mvm_into_at(&x, &mut out, i);
            black_box(&out);
        });
        // Batched: amortized per MVM over a DAC_BATCH lock-step call (the
        // executors' convolution loops batch patches exactly like this),
        // with and without read noise.
        let mut ns_batched = |xb: &Crossbar| {
            time_min(rounds, reps / DAC_BATCH as u64, |i| {
                let b = DAC_BATCH as u64;
                let inv = [b * i, b * i + 1, b * i + 2, b * i + 3];
                xb.mvm_batch_into_with(&xs, &mut outs, &inv, &mut scratch)
                    .unwrap();
                black_box(&outs);
            }) / DAC_BATCH as f64
        };
        let ns_batch = ns_batched(&xb);
        let ns_batch0 = ns_batched(&xb0);
        println!(
            "dac {rows}x{cols}: legacy {ns_legacy:.0} ns, batched {ns_batch:.0} ns/mvm ({:.2}x vs legacy), batched sigma=0 {ns_batch0:.0} ns/mvm",
            ns_legacy / ns_batch
        );
        census_rows.push(format!(
            "{{\"rows\": {rows}, \"cols\": {cols}, \"mvms_per_image\": {n}, \"legacy_ns\": {ns_legacy:.1}, \"batched_ns_per_mvm\": {ns_batch:.1}, \"batched_sigma0_ns_per_mvm\": {ns_batch0:.1}}}"
        ));
        tot_legacy += ns_legacy * n as f64;
        tot_batch += ns_batch * n as f64;
        tot_batch0 += ns_batch0 * n as f64;
        tot_mvms += n;
    }

    // The headline compares the pre-packing kernel against the production
    // conv path, which batches DAC_BATCH patches per tile call.
    let speedup = tot_legacy / tot_batch;
    let images_per_s_legacy = 1e9 / tot_legacy;
    let images_per_s_batch = 1e9 / tot_batch;
    println!(
        "census ({tot_mvms} MVMs/image): legacy {:.2} ms/image ({images_per_s_legacy:.1} img/s), batched {:.2} ms/image ({images_per_s_batch:.1} img/s), batched sigma=0 {:.2} ms/image (read noise {:.0}%)",
        tot_legacy / 1e6,
        tot_batch / 1e6,
        tot_batch0 / 1e6,
        100.0 * (1.0 - tot_batch0 / tot_batch),
    );
    println!("speedup_hermes256_resnet18={speedup:.2}");

    let json = format!(
        "{{\n  \"bench\": \"mvm_kernels\",\n  \"workload\": \"resnet18_cifar10_analog\",\n  \"xbar\": \"hermes_256\",\n  \"read_noise_sigma\": {sigma},\n  \"smoke\": {smoke},\n  \"host_cpus\": {host_cpus},\n  \"timing\": \"min over {rounds} rounds of {reps} MVMs\",\n  \"kernel_equivalence_ok\": {equivalence_ok},\n  \"census\": [{census}],\n  \"census_totals\": {{\"mvms_per_image\": {tot_mvms}, \"legacy_ms_per_image\": {lm:.3}, \"batched_ms_per_image\": {bm:.3}, \"batched_sigma0_ms_per_image\": {bm0:.3}}},\n  \"analog_images_per_s\": {{\"legacy\": {il:.2}, \"batched\": {ib:.2}}},\n  \"serial_ns_per_mvm\": {npm:.1},\n  \"speedup_hermes256_resnet18\": {speedup:.2}\n}}\n",
        sigma = cfg.read_noise_sigma,
        census = census_rows.join(", "),
        lm = tot_legacy / 1e6,
        bm = tot_batch / 1e6,
        bm0 = tot_batch0 / 1e6,
        il = images_per_s_legacy,
        ib = images_per_s_batch,
        npm = tot_batch / tot_mvms as f64,
    );
    std::fs::write("BENCH_mvm_kernels.json", json).expect("write BENCH_mvm_kernels.json");
    println!("wrote BENCH_mvm_kernels.json");
}
