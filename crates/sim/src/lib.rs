//! # aimc-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the platform simulator used throughout the
//! workspace (the role GVSoC plays in the paper). It deliberately contains
//! *no* architecture knowledge: just simulated time, a deterministic event
//! queue, and measurement utilities. The platform model lives in
//! `aimc-noc`, `aimc-cluster` and `aimc-runtime`, which define their own event
//! payloads, key layouts and dispatch loops on top of [`OrderedEventQueue`].
//!
//! ## Design notes
//!
//! * **Determinism.** Every event encodes itself as one `u64` key
//!   ([`EventKey`]), and equal-time events pop in key order, never in
//!   insertion order; all randomness in the workspace flows through
//!   explicitly seeded RNGs. Two runs with the same configuration produce
//!   bit-identical results.
//! * **Cost.** A queue entry is one `u128` holding the time above the key,
//!   so a push or pop compares integers whatever the payload; the payload
//!   is rebuilt from its key when it pops.
//! * **Resolution.** Time is kept in integer picoseconds ([`SimTime`]), so a
//!   1 GHz core cycle (1000 ps) and the 130 ns analog MVM latency are both
//!   exact.
//! * **Granularity.** Components schedule at transaction/kernel granularity
//!   (a DMA burst, an IMA job, a digital kernel), not per instruction — the
//!   level of detail the paper's evaluation actually depends on.
//!
//! ## Example
//! ```
//! use aimc_sim::{EventKey, OrderedEventQueue, SimTime};
//!
//! #[derive(Debug, Clone, Copy, PartialEq)]
//! enum Ev { Ping(u32), Done }
//!
//! // Pings sort before `Done` at equal times, and by count among themselves.
//! impl EventKey for Ev {
//!     fn key(self) -> u64 {
//!         match self {
//!             Ev::Ping(n) => u64::from(n),
//!             Ev::Done => 1 << 32,
//!         }
//!     }
//!     fn from_key(key: u64) -> Self {
//!         match key >> 32 {
//!             0 => Ev::Ping(key as u32),
//!             _ => Ev::Done,
//!         }
//!     }
//! }
//!
//! let mut q = OrderedEventQueue::new();
//! q.push(SimTime::ZERO, Ev::Ping(0));
//! let mut pings = 0;
//! while let Some((t, ev)) = q.pop() {
//!     match ev {
//!         Ev::Ping(n) if n < 3 => {
//!             pings += 1;
//!             q.push(t + SimTime::from_ns(10), Ev::Ping(n + 1));
//!         }
//!         Ev::Ping(_) => q.push(t, Ev::Done),
//!         Ev::Done => break,
//!     }
//! }
//! assert_eq!(pings, 3);
//! assert_eq!(q.now(), SimTime::from_ns(30));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
pub mod stats;
mod time;

pub use queue::{EventKey, OrderedEventQueue};
pub use stats::{Activity, ActivityTracker};
pub use time::{Cycles, Frequency, SimTime};
