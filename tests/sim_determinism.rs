//! The timing simulator's reports are a pure function of their inputs,
//! pinned bit for bit on the paper's platform.
//!
//! **Pins:** twelve ResNet-18 runs on the 512-cluster platform keep four
//! numbers each. The makespan and the *modeled digest*, an FNV-1a-64 digest
//! of the [`RunReport`] with both event counts zeroed, pin what the
//! simulator models: an engine change that keeps the platform model must
//! reproduce them bit for bit. The event count and the digest of the whole
//! report pin what the run costs the host: they move, and are re-pinned,
//! when the engine processes fewer or more events.
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

/// The digest of what the report models: every field but the two event
/// counts, which measure the simulator's own cost rather than the platform.
fn modeled_digest(report: &RunReport) -> u64 {
    let mut modeled = report.clone();
    modeled.events = 0;
    modeled.fabric.events = 0;
    digest(&modeled)
}

/// Simulates `graph` on the paper's platform and checks the report against
/// its pinned makespan, event count, digest and modeled digest.
fn pin(graph: Graph, strategy: MappingStrategy, batch: usize, pinned: (u64, u64, u64, u64)) {
    let arch = ArchConfig::paper();
    let m = map_network(&graph, &arch, strategy).unwrap();
    let r = simulate(&graph, &m, &arch, batch).unwrap();
    let (makespan_ps, events, hash, modeled) = pinned;
    assert_eq!(r.makespan.as_ps(), makespan_ps, "makespan moved");
    let got = modeled_digest(&r);
    assert_eq!(got, modeled, "modeled digest moved: {got:#018x}");
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
// digest, modeled digest)`.
pins! {
    pin_resnet18_naive_b2: resnet18(256, 256, 1000), Naive, 2
        => (4_843_338_000, 43_184, 0x5e6e_95d0_68fb_c9dd, 0xe520_103d_08c6_1b24);
    pin_resnet18_naive_b16: resnet18(256, 256, 1000), Naive, 16
        => (34_702_090_000, 346_018, 0x023f_2e23_fbad_d3c0, 0xc608_1442_e6ba_1667);
    pin_resnet18_balanced_b2: resnet18(256, 256, 1000), Balanced, 2
        => (1_463_865_000, 48_833, 0x7ca5_37c4_057a_2e1c, 0x51a1_d412_df5e_0e32);
    pin_resnet18_balanced_b16: resnet18(256, 256, 1000), Balanced, 16
        => (10_424_539_000, 395_670, 0x6dd6_910f_ebdb_359f, 0x8dfc_94d4_8ee6_e0c7);
    pin_resnet18_on_chip_b2: resnet18(256, 256, 1000), OnChipResiduals, 2
        => (708_770_000, 49_283, 0x8665_72e4_8275_3899, 0x55e1_8004_a7ef_fa15);
    pin_resnet18_on_chip_b16: resnet18(256, 256, 1000), OnChipResiduals, 16
        => (2_575_134_000, 394_832, 0x44bb_3578_289a_8a38, 0x4f4d_8b29_f697_8cad);
    pin_cifar_naive_b2: resnet18_cifar(10), Naive, 2
        => (390_428_000, 14_325, 0x9ec1_f637_c4a7_ad40, 0xa1d1_9dbe_c182_80e0);
    pin_cifar_naive_b16: resnet18_cifar(10), Naive, 16
        => (2_293_084_000, 115_003, 0xc8f9_fd9e_9308_0287, 0x4943_d193_8bc6_9957);
    pin_cifar_balanced_b2: resnet18_cifar(10), Balanced, 2
        => (111_779_000, 18_931, 0xdd4f_dcbf_b453_405b, 0x16ed_7ac3_c34d_0cd4);
    pin_cifar_balanced_b16: resnet18_cifar(10), Balanced, 16
        => (642_633_000, 180_336, 0x1932_72ae_dcf8_a401, 0x72eb_1b6a_a98c_e9d3);
    pin_cifar_on_chip_b2: resnet18_cifar(10), OnChipResiduals, 2
        => (97_986_000, 18_971, 0x48c0_eb7f_039e_a0e4, 0x18c0_0129_2c99_4264);
    pin_cifar_on_chip_b16: resnet18_cifar(10), OnChipResiduals, 16
        => (289_224_000, 158_833, 0x6490_5e53_5662_420b, 0x8b2c_0bce_1ee6_d180);
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
