//! Cross-crate integration: functional correctness (golden vs analog
//! executors) composed with the mapping compiler and the timing simulator.

use aimc_platform::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn random_image(shape: Shape, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        shape,
        (0..shape.numel())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    )
}

/// `t` round-tripped through symmetric int8, `q = round(x / scale)`
/// clamped to `[-127, 127]` with `scale` covering `t`'s max-abs, and that
/// scale: the deployment precision of the paper's mapping arithmetic,
/// where one 256×256 array holds 64 K one-byte weights.
fn fake_quantize_int8(t: &Tensor) -> (Tensor, f32) {
    let max = t.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
    let data = t
        .data()
        .iter()
        .map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8 as f32 * scale)
        .collect();
    (Tensor::from_vec(t.shape(), data), scale)
}

fn small_cnn() -> Graph {
    let mut b = GraphBuilder::new(Shape::new(3, 16, 16));
    let c0 = b.conv("c0", b.input(), ConvCfg::k3(3, 8, 1));
    let c1 = b.conv("c1", Some(c0), ConvCfg::k3(8, 8, 1));
    let r = b.residual("r", c1, c0, None);
    let c2 = b.conv("c2", Some(r), ConvCfg::k3(8, 16, 2));
    let gap = b.global_avgpool("gap", c2);
    b.linear("fc", gap, 4);
    b.finish()
}

#[test]
fn analog_executor_tracks_golden_on_the_mapped_split_structure() {
    // The AimcExecutor splits layers across crossbars exactly like the
    // mapper (rows/cols beyond 256); its output must track the golden
    // executor within analog tolerance.
    let g = small_cnn();
    let w = he_init(&g, 3);
    let x = random_image(g.input_shape(), 11);
    let golden = infer_golden(&g, &w, &x);
    let analog = AimcExecutor::try_program_shared_with(
        Arc::new(g),
        Arc::new(w),
        &XbarConfig::ideal(256, 256),
        5,
        Parallelism::Serial,
    )
    .unwrap();
    let y = analog
        .infer_batch(std::slice::from_ref(&x), Parallelism::Serial)
        .unwrap();
    for (a, b) in y[0].data().iter().zip(golden.data()) {
        assert!((a - b).abs() < 0.05 * b.abs().max(1.0), "{a} vs {b}");
    }
}

#[test]
fn same_graph_flows_through_compiler_and_simulator() {
    let g = small_cnn();
    let arch = ArchConfig::small(4, 8);
    for strategy in [MappingStrategy::Naive, MappingStrategy::OnChipResiduals] {
        let m = map_network(&g, &arch, strategy).unwrap();
        let r = simulate(&g, &m, &arch, 4).unwrap();
        assert_eq!(r.batch, 4);
        assert!(r.image_completions.iter().all(|&t| t > SimTime::ZERO));
        assert_eq!(r.nominal_ops, g.total_ops() * 4);
    }
}

#[test]
fn breakdown_rows_cover_every_compute_cluster_exactly_once() {
    let g = small_cnn();
    let arch = ArchConfig::small(4, 8);
    let m = map_network(&g, &arch, MappingStrategy::OnChipResiduals).unwrap();
    let r = simulate(&g, &m, &arch, 2).unwrap();
    let mut ids: Vec<usize> = r.clusters.iter().map(|c| c.cluster).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), r.clusters.len(), "duplicate cluster rows");
    assert_eq!(ids.len(), m.n_clusters_used);
}

#[test]
fn batch_scaling_improves_throughput_until_saturation() {
    let g = resnet18(256, 256, 1000);
    let arch = ArchConfig::paper();
    let m = map_network(&g, &arch, MappingStrategy::OnChipResiduals).unwrap();
    let t1 = simulate(&g, &m, &arch, 1).unwrap().tops();
    let t4 = simulate(&g, &m, &arch, 4).unwrap().tops();
    let t16 = simulate(&g, &m, &arch, 16).unwrap().tops();
    assert!(t4 > t1, "batch 4 {t4} vs 1 {t1}");
    assert!(t16 > t4, "batch 16 {t16} vs 4 {t4}");
    // Saturation: going 4→16 gains less than 4x.
    assert!(t16 < t4 * 4.0);
}

#[test]
fn whole_stack_is_deterministic() {
    let g = resnet18(256, 256, 1000);
    let arch = ArchConfig::paper();
    let run = || {
        let m = map_network(&g, &arch, MappingStrategy::OnChipResiduals).unwrap();
        let r = simulate(&g, &m, &arch, 4).unwrap();
        (
            r.makespan,
            r.events,
            r.hbm_bytes,
            r.image_completions.clone(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn quantization_noise_is_small_relative_to_activations() {
    // int8 deployment sanity: fake-quantizing intermediate activations
    // perturbs logits by less than the inter-class margin on average.
    let g = resnet18_cifar(10);
    let w = he_init(&g, 1);
    let x = random_image(g.input_shape(), 3);
    let outs = execute_golden(&g, &w, &x);
    let logits = outs.last().unwrap();
    let (fq, scale) = fake_quantize_int8(logits);
    let max_err = logits
        .data()
        .iter()
        .zip(fq.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(max_err <= scale / 2.0 + 1e-6);
    assert_eq!(logits.argmax(), fq.argmax());
}
