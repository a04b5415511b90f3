//! Property-based tests of the interconnect's topology.

use aimc_noc::NocConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The common-ancestor level is symmetric and respects subtree nesting.
    #[test]
    fn ancestor_level_symmetry(a in 0usize..512, b in 0usize..512) {
        let cfg = NocConfig::paper_512();
        let ab = cfg.common_ancestor_level(a, b);
        let ba = cfg.common_ancestor_level(b, a);
        prop_assert_eq!(ab, ba);
        prop_assert!((1..=4).contains(&ab));
        if a / 4 == b / 4 {
            prop_assert_eq!(ab, 1);
        }
        if a / 64 != b / 64 {
            prop_assert_eq!(ab, 4);
        }
    }
}
