//! Counter-based RNG stream derivation for deterministic parallel noise.
//!
//! The crossbar models need randomness in two places — programming noise
//! (once, at deployment) and read noise (every MVM). Threading one shared
//! `&mut StdRng` through both makes every sample depend on global call
//! order, which serializes the whole simulator: two tiles cannot evaluate
//! concurrently without changing the numbers.
//!
//! This module replaces the shared stream with *derived* streams, in the
//! spirit of counter-based RNGs (Salmon et al., "Parallel random numbers:
//! as easy as 1, 2, 3"): every independent sampling site gets its own seed,
//! computed as a hash of where it sits in the deployment —
//!
//! ```text
//! tile stream  = stream_seed(root_seed, layer_id, tile_index)
//! call stream  = derive(tile_stream, invocation)
//! ```
//!
//! — and a fresh `StdRng` is seeded from that hash at each sampling site.
//! Two properties follow:
//!
//! 1. **Order independence.** A tile's noise depends only on `(root seed,
//!    layer, tile, invocation)`, never on what other tiles or threads did
//!    first. Serial and N-thread execution are bit-identical.
//! 2. **Statistical independence.** Seeds are decorrelated by SplitMix64
//!    (an avalanche-complete finalizer), so neighbouring `(layer, tile,
//!    invocation)` triples yield unrelated streams.
//!
//! The hash is **stable**: it is part of the reproducibility contract (a
//! stored seed must replay the same noise forever), so it must not change
//! across versions.
//!
//! Invocation tags are full-width `u64`s with no internal structure
//! assumed: the executors pass `image_index · patches_per_layer + patch`,
//! where `image_index` is a *global stream coordinate* assigned by the
//! serving layer. A long-lived server can push that product far beyond
//! 2^40 — [`derive()`] is a bijective mix composed with XOR, so distinct
//! tags can only collide through the XOR of two finalized values, which
//! the neighbourhood audits in `tests/proptests.rs` check at
//! serving-scale bases.

/// SplitMix64 finalizer: a bijective avalanche mix of a 64-bit value
/// (Steele et al., the seed expander `rand` itself uses in
/// `seed_from_u64`).
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a child stream seed from a parent seed and a tag (layer id,
/// tile index, invocation counter, …). Chainable:
/// `derive(derive(root, layer), tile)`.
#[inline]
pub fn derive(seed: u64, tag: u64) -> u64 {
    // Mix the tag through the finalizer before combining so that small
    // consecutive tags (0, 1, 2, …) land far apart, then finalize again.
    splitmix64(seed ^ splitmix64(tag))
}

/// The per-tile stream seed for tile `tile` of layer `layer` under the
/// deployment root seed — the `(seed, layer, tile)` coordinate of the
/// determinism contract.
#[inline]
pub fn stream_seed(root: u64, layer: u64, tile: u64) -> u64 {
    derive(derive(root, layer), tile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(stream_seed(42, 3, 7), stream_seed(42, 3, 7));
        assert_eq!(derive(1, 2), derive(1, 2));
    }

    #[test]
    fn coordinates_are_decorrelated() {
        // All coordinates in a small neighbourhood must give distinct seeds.
        let mut seen = HashSet::new();
        for root in 0..4u64 {
            for layer in 0..8u64 {
                for tile in 0..16u64 {
                    assert!(seen.insert(stream_seed(root, layer, tile)));
                }
            }
        }
    }

    #[test]
    fn derive_separates_consecutive_invocations() {
        let s = stream_seed(7, 0, 0);
        let a = derive(s, 0);
        let b = derive(s, 1);
        assert_ne!(a, b);
        // Avalanche: roughly half the bits flip between consecutive calls.
        let flips = (a ^ b).count_ones();
        assert!((8..=56).contains(&flips), "{flips} bits flipped");
    }

    #[test]
    fn layer_and_tile_axes_are_not_interchangeable() {
        assert_ne!(stream_seed(1, 2, 3), stream_seed(1, 3, 2));
    }

    #[test]
    fn splitmix_is_the_published_sequence() {
        // First outputs of SplitMix64 from seed 0 (cross-checked against the
        // reference implementation) — guards the stability contract.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
    }
}
