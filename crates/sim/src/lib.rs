//! # aimc-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the platform simulator used throughout the
//! workspace (the role GVSoC plays in the paper). It deliberately contains
//! *no* architecture knowledge: just simulated time, a deterministic event
//! queue, and measurement utilities. The platform model lives in
//! `aimc-noc`, `aimc-cluster` and `aimc-runtime`, which define their own event
//! payloads and dispatch loops on top of [`OrderedEventQueue`].
//!
//! ## Design notes
//!
//! * **Determinism.** Equal-time events pop in the payload's `Ord` order,
//!   never in insertion order; all randomness in the workspace flows through
//!   explicitly seeded RNGs. Two runs with the same configuration produce
//!   bit-identical results.
//! * **Resolution.** Time is kept in integer picoseconds ([`SimTime`]), so a
//!   1 GHz core cycle (1000 ps) and the 130 ns analog MVM latency are both
//!   exact.
//! * **Granularity.** Components schedule at transaction/kernel granularity
//!   (a DMA burst, an IMA job, a digital kernel), not per instruction — the
//!   level of detail the paper's evaluation actually depends on.
//!
//! ## Example
//! ```
//! use aimc_sim::{OrderedEventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
//! enum Ev { Ping(u32), Done }
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

pub use queue::OrderedEventQueue;
pub use stats::{Activity, ActivityTracker};
pub use time::{Cycles, Frequency, SimTime};
