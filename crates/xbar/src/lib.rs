//! # aimc-xbar — analog PCM crossbar model
//!
//! Functional + statistical model of the non-volatile analog in-memory
//! computing core ("IMA computational memory") of the paper: a 2-D PCM array
//! with word-line DACs and bit-line ADCs that evaluates matrix-vector
//! products in the analog domain in a fixed 130 ns (Table I, after
//! Khaddam-Aljameh et al., HERMES).
//!
//! Three concerns are modeled:
//!
//! 1. **Function** — [`Crossbar::mvm_batch_into_with`] computes `y = Wᵀx`
//!    for a batch of input patches through the full signal chain: DAC clipping/quantization → differential-conductance
//!    weights with programming noise → Kirchhoff accumulation → bit-line read
//!    noise → ADC clipping/quantization. With [`XbarConfig::ideal`] the chain
//!    collapses to an exact mat-vec (validated by tests and property tests).
//! 2. **Timing** — a constant per-MVM latency ([`XbarConfig::mvm_latency_ns`]),
//!    consumed by the cluster-level IMA subsystem in `aimc-cluster`.
//! 3. **Energy** — a per-MVM energy ([`XbarConfig::mvm_energy_nj`]), consumed
//!    by the platform power model in `aimc-runtime`.
//!
//! ## Determinism and concurrency
//!
//! Evaluation is `&self` and thread-safe: read noise is drawn from
//! counter-based per-call streams ([`stream`]) derived from a noise seed
//! fixed at programming time plus an invocation index, and the MVM counter
//! is atomic. The same seed therefore produces bit-identical results
//! whether tiles are evaluated serially or concurrently — the invariant the
//! `aimc-parallel` execution engine is built on.
//!
//! ## Example
//! ```
//! use aimc_xbar::{Crossbar, MvmScratch, XbarConfig};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), aimc_xbar::XbarError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! // A 3x2 weight block in a 256x256 array (partial occupancy is the norm —
//! // it is the "local mapping" inefficiency of Fig. 6).
//! let weights = vec![0.2, -0.4, 0.6, 0.1, -0.3, 0.5];
//! let xbar = Crossbar::program(&XbarConfig::hermes_256(), &weights, 3, 2, &mut rng)?;
//! // Two patches, back to back, at invocation coordinates 0 and 1; the
//! // scratch is reused across calls, so a warm loop allocates nothing.
//! let xs = [1.0, 0.5, -0.25, 0.0, -1.0, 0.75];
//! let mut y = [0.0f32; 4];
//! let mut scratch = MvmScratch::new();
//! xbar.mvm_batch_into_with(&xs, &mut y, &[0, 1], &mut scratch)?;
//! assert_eq!(xbar.mvm_count(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitserial;
mod config;
mod crossbar;
pub mod kernel;
pub mod noise;
mod programming;
pub mod stream;

pub use config::XbarConfig;
pub use crossbar::{Crossbar, XbarError};
pub use kernel::{MvmScratch, DAC_BATCH};
pub use programming::{ProgrammingCost, ProgrammingModel};

#[cfg(test)]
mod equivalence;
