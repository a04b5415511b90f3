//! The timing simulator's reports are a pure function of their inputs,
//! pinned bit for bit on the paper's platform.
//!
//! **Pins:** twelve ResNet-18 runs on the 512-cluster platform keep their
//! makespan, event count and an FNV-1a-64 digest of the whole
//! [`RunReport`], so any change to the event engine must reproduce them.
//!
//! **Invariants:** on random graphs two runs agree, per-link served bytes
//! conserve the bytes the injected transactions were routed across, and
//! every injected transaction completes.

use aimc_platform::prelude::*;
use proptest::prelude::*;

/// Builds a random plain CNN from a compact genome (same generator family
/// as `tests/invariants.rs`).
fn build_graph(widths: &[usize], with_residual: bool, classes: usize) -> Graph {
    let mut b = GraphBuilder::new(Shape::new(3, 16, 16));
    let mut prev = b.conv("c0", b.input(), ConvCfg::k3(3, widths[0], 1));
    let mut prev_width = widths[0];
    for (i, &w) in widths.iter().enumerate().skip(1) {
        let stride = if i % 2 == 0 { 2 } else { 1 };
        let id = b.conv(
            &format!("c{i}"),
            Some(prev),
            ConvCfg::k3(prev_width, w, stride),
        );
        prev = if with_residual && stride == 1 && w == prev_width {
            b.residual(&format!("r{i}"), id, prev, None)
        } else {
            id
        };
        prev_width = w;
    }
    let gap = b.global_avgpool("gap", prev);
    b.linear("fc", gap, classes);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random graphs × arch configs × batch sizes: the report is
    /// reproducible and the fabric conserves what was injected.
    #[test]
    fn random_graph_reports_are_deterministic(
        n_layers in 1usize..5,
        width_sel in 0usize..3,
        with_residual in any::<bool>(),
        batch in 1usize..5,
        quads in 0usize..2,
    ) {
        let widths: Vec<usize> = (0..n_layers)
            .map(|i| [8, 16, 32][(width_sel + i) % 3])
            .collect();
        let g = build_graph(&widths, with_residual, 4 + n_layers);
        let arch = ArchConfig::small(4, [8, 16][quads]);
        let Ok(m) = map_network(&g, &arch, MappingStrategy::OnChipResiduals) else {
            return Ok(()); // too big for the small test platform
        };
        let first = simulate(&g, &m, &arch, batch).unwrap();
        let second = simulate(&g, &m, &arch, batch).unwrap();
        prop_assert_eq!(&first, &second);
        // Per-link bytes conserve the injected transaction bytes.
        prop_assert_eq!(first.fabric.routed_bytes, first.fabric.link_bytes);
        prop_assert_eq!(first.fabric.injected, first.fabric.completed);
    }
}

/// FNV-1a-64 of the bytes of a report's `Debug` rendering: one number that
/// moves if any field of the report moves.
fn digest(report: &RunReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Simulates `graph` on the paper's platform and checks the report against
/// its pinned makespan, event count and digest.
fn pin(graph: Graph, strategy: MappingStrategy, batch: usize, pinned: (u64, u64, u64)) {
    let arch = ArchConfig::paper();
    let m = map_network(&graph, &arch, strategy).unwrap();
    let r = simulate(&graph, &m, &arch, batch).unwrap();
    let (makespan_ps, events, hash) = pinned;
    assert_eq!(r.makespan.as_ps(), makespan_ps, "makespan moved");
    assert_eq!(r.events, events, "event count moved");
    let got = digest(&r);
    assert_eq!(got, hash, "report digest moved: {got:#018x}");
}

macro_rules! pins {
    ($($name:ident: $graph:expr, $strategy:ident, $batch:literal => $pinned:expr;)*) => {
        $(
            #[test]
            fn $name() {
                pin($graph, MappingStrategy::$strategy, $batch, $pinned);
            }
        )*
    };
}

// The reports of the paper-platform runs, pinned as `(makespan ps, events,
// digest)`: any change to the event engine must reproduce them bit for bit.
pins! {
    pin_resnet18_naive_b2: resnet18(256, 256, 1000), Naive, 2
        => (4_843_338_000, 73_472, 0x52a4_53f4_5b45_89e3);
    pin_resnet18_naive_b16: resnet18(256, 256, 1000), Naive, 16
        => (34_702_090_000, 645_246, 0x1f15_5786_a931_f855);
    pin_resnet18_balanced_b2: resnet18(256, 256, 1000), Balanced, 2
        => (1_463_865_000, 84_836, 0xc0b3_38fd_b791_75e9);
    pin_resnet18_balanced_b16: resnet18(256, 256, 1000), Balanced, 16
        => (10_424_539_000, 676_622, 0xc699_bb8e_b52a_48b3);
    pin_resnet18_on_chip_b2: resnet18(256, 256, 1000), OnChipResiduals, 2
        => (708_770_000, 90_357, 0xa043_2f69_e2e5_e00a);
    pin_resnet18_on_chip_b16: resnet18(256, 256, 1000), OnChipResiduals, 16
        => (2_575_134_000, 786_091, 0x5ece_c67e_2761_b3fd);
    pin_cifar_naive_b2: resnet18_cifar(10), Naive, 2
        => (390_428_000, 29_070, 0x44cd_3046_6f19_a8bb);
    pin_cifar_naive_b16: resnet18_cifar(10), Naive, 16
        => (2_293_084_000, 547_841, 0x43c6_99a0_dcf6_0799);
    pin_cifar_balanced_b2: resnet18_cifar(10), Balanced, 2
        => (111_779_000, 40_426, 0xdc93_c31b_c896_a4ce);
    pin_cifar_balanced_b16: resnet18_cifar(10), Balanced, 16
        => (642_633_000, 315_206, 0x1756_1584_300a_1cab);
    pin_cifar_on_chip_b2: resnet18_cifar(10), OnChipResiduals, 2
        => (97_986_000, 44_809, 0x5e34_b7b9_97dc_0ede);
    pin_cifar_on_chip_b16: resnet18_cifar(10), OnChipResiduals, 16
        => (289_224_000, 378_588, 0x3cee_2c7e_435b_39dd);
}

#[test]
fn session_run_report_is_parallelism_invariant() {
    // End-to-end through the facade: the session's thread budget does not
    // change the timing simulator's results.
    let g = build_graph(&[8, 16], true, 6);
    let run = |par: Parallelism| {
        let mut s = Platform::builder()
            .graph(g.clone())
            .arch(ArchConfig::small(4, 8))
            .parallelism(par)
            .build()
            .unwrap()
            .session();
        s.run(RunSpec { batch: 3 }).unwrap().clone()
    };
    let serial = run(Parallelism::Serial);
    assert_eq!(serial, run(Parallelism::Threads(4)));
    assert!(serial.fabric.links.iter().any(|l| l.transactions > 0));
}
