//! The analog executor's logits are a pure function of graph, weights,
//! crossbar configuration, programming seed, images and stream
//! coordinates, pinned bit for bit.
//!
//! Each pin is an FNV-1a-64 digest over the little-endian bytes of
//! `f32::to_bits()` of every logit, image by image in batch order. Any
//! change to the executor's data path (im2col, partial-sum reduction,
//! activation handling, batching) must reproduce them exactly.
//!
//! Together the pins cover the image-parallel path, the serial path, the
//! one-image tile-parallel path, row- and column-split layers, all-border
//! windows (`micro`), and a 7×7 stride-2 pad-3 stem with a 1×1 stride-2
//! projection (`stem`).

use aimc_platform::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn digest(logits: &[Tensor]) -> u64 {
    let mut h = FNV_OFFSET;
    for y in logits {
        for v in y.data() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

fn images(shape: Shape, seed: u64, n: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Tensor::from_vec(
                shape,
                (0..shape.numel())
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect(),
            )
        })
        .collect()
}

fn executor(graph: Graph, w_seed: u64, xbar: &XbarConfig, seed: u64) -> AimcExecutor {
    let weights = he_init(&graph, w_seed);
    AimcExecutor::try_program_shared_with(
        Arc::new(graph),
        Arc::new(weights),
        xbar,
        seed,
        Parallelism::Threads(2),
    )
    .expect("programs")
}

fn pinned(exec: &AimcExecutor, inputs: &[Tensor], base: u64, par: Parallelism) -> u64 {
    digest(&exec.try_infer_batch_at(inputs, base, par).expect("infers"))
}

/// A 4×4 CNN in which every 3×3 window touches the zero border.
fn micro() -> Graph {
    let mut b = GraphBuilder::new(Shape::new(3, 4, 4));
    let c0 = b.conv("c0", b.input(), ConvCfg::k3(3, 8, 1));
    let c1 = b.conv("c1", Some(c0), ConvCfg::k3(8, 8, 1));
    let r = b.residual("r", c1, c0, None);
    let gap = b.global_avgpool("gap", r);
    b.linear("fc", gap, 4);
    b.finish()
}

/// A ResNet-style stem: 7×7 stride-2 pad-3 conv, max pool, a strided
/// basic block with a 1×1 stride-2 projection, and a classifier head.
fn stem() -> Graph {
    let mut b = GraphBuilder::new(Shape::new(3, 16, 16));
    let conv7 = ConvCfg {
        in_ch: 3,
        out_ch: 8,
        kh: 7,
        kw: 7,
        stride: 2,
        pad: 3,
        relu: true,
    };
    let c0 = b.conv("conv7", b.input(), conv7);
    let pool = b.maxpool("pool", c0, 3, 2, 1);
    let c1 = b.conv("c1", Some(pool), ConvCfg::k3(8, 16, 2));
    let c2 = b.conv(
        "c2",
        Some(c1),
        ConvCfg {
            relu: false,
            ..ConvCfg::k3(16, 16, 1)
        },
    );
    let r = b.residual("r", c2, pool, Some(ConvCfg::k1(8, 16, 2)));
    let gap = b.global_avgpool("gap", r);
    b.linear("fc", gap, 5);
    b.finish()
}

#[test]
fn resnet18_hermes_logits_are_pinned() {
    let exec = executor(resnet18_cifar(10), 7, &XbarConfig::hermes_256(), 11);
    let x = images(Shape::new(3, 32, 32), 3, 4);
    assert_eq!(
        pinned(&exec, &x, 0, Parallelism::Threads(2)),
        0xf593_ecf5_05fb_0e00
    );
    assert_eq!(
        pinned(&exec, &x, 1_000_003, Parallelism::Serial),
        0xc5b2_9613_a6bb_68ad
    );
    // One image under a thread budget takes the tile-parallel path.
    assert_eq!(
        pinned(&exec, &x[..1], 77, Parallelism::Threads(2)),
        0x6024_6a8c_df0f_a9c9
    );
}

#[test]
fn resnet18_small_array_logits_are_pinned() {
    let xbar = XbarConfig::hermes_256().with_size(64, 24);
    let exec = executor(resnet18_cifar(10), 7, &xbar, 12);
    let x = images(Shape::new(3, 32, 32), 4, 2);
    assert_eq!(
        pinned(&exec, &x, 5, Parallelism::Threads(2)),
        0xb7cd_664d_338d_8e94
    );
}

#[test]
fn all_border_micro_logits_are_pinned() {
    let exec = executor(micro(), 5, &XbarConfig::hermes_256(), 9);
    let x = images(Shape::new(3, 4, 4), 99, 8);
    assert_eq!(
        pinned(&exec, &x, 5, Parallelism::Serial),
        0xdd0b_6d87_bc67_70ad
    );
}

#[test]
fn stem_logits_are_pinned() {
    let exec = executor(stem(), 3, &XbarConfig::hermes_256(), 21);
    let x = images(Shape::new(3, 16, 16), 8, 4);
    assert_eq!(
        pinned(&exec, &x, 0, Parallelism::Threads(2)),
        0xbc9f_639b_757c_9727
    );
}
