//! # aimc-serve — async micro-batching serving layer
//!
//! The paper reaches its headline throughput by driving the AIMC fabric
//! with batch-16 streams: programming cost is paid once and the peripheral
//! pipeline is amortized over many images. This crate is the host-side
//! counterpart for *serving*: it accepts **single-image requests** on a
//! bounded MPSC queue, coalesces them into micro-batches under a
//! [`BatchPolicy`] latency budget, and drives a [`BatchRunner`] (typically
//! `Executor::infer_batch_indexed` behind the `aimc-platform` facade) —
//! with one hard guarantee on top of PR 2's thread-count invariance:
//!
//! > **Batch-composition invariance.** A fleet router numbers requests in
//! > arrival order and every request carries its stream index into its
//! > batch, so for a fixed seed the logits of request *k* are
//! > bit-identical no matter how the stream was chopped into
//! > micro-batches — max_batch 1, 16, or anything the wait budget
//! > produced under load.
//!
//! ## Anatomy
//!
//! * [`BatchPolicy`] — the two serving knobs (`max_batch`, `max_wait`)
//!   plus the queue bound.
//! * [`Coalescer`] — the pure batching state machine (size *or* deadline
//!   triggers a flush). It takes explicit `now` timestamps, so the latency
//!   budget is unit-testable under a fake clock.
//! * [`spawn`] — wires a bounded channel, the coalescer, and a worker
//!   thread around a [`BatchRunner`]; returns a clone-able [`ServeHandle`].
//! * [`ServeHandle::submit_at`] — enqueues one image at the stream index a
//!   router stamped, returning a [`Pending`] completion handle;
//!   [`ServeHandle::drain`] / [`ServeHandle::shutdown`] flush and stop the
//!   worker. A `ServeHandle` never numbers requests itself.
//! * [`FleetHandle`] — the serving ingress: a router that owns the global
//!   stream numbering (one lowest-first index per request), stamps every
//!   request with its global index, and routes blocks of consecutive
//!   requests ([`FleetPolicy`]) to N shards — with the invariance
//!   generalized to any shard count. A single session's server is a
//!   one-seat fleet, so every request takes this path.
//! * [`ShardTransport`] — the only interface the router speaks: submit an
//!   indexed request, probe load, drain/shutdown, fan shard control.
//!   [`LocalTransport`] is the in-process zero-copy path;
//!   [`TcpTransport`] + [`ShardServer`] speak the `aimc-wire` protocol so
//!   shards can live on other hosts — with the invariance extended
//!   verbatim to any transport mix.
//!
//! ## Example
//!
//! ```
//! use aimc_serve::{spawn, BatchPolicy};
//! use aimc_dnn::{Shape, Tensor};
//! use std::time::Duration;
//!
//! // A toy runner: doubles the first element of every image.
//! let runner = |_indices: &[u64], inputs: &[Tensor]| {
//!     Ok(inputs
//!         .iter()
//!         .map(|t| Tensor::from_vec(t.shape(), t.data().iter().map(|v| v * 2.0).collect()))
//!         .collect())
//! };
//! let handle = spawn(BatchPolicy::new(4, Duration::from_millis(1)), runner);
//! let pending = handle
//!     .submit_at(0, Tensor::from_vec(Shape::new(1, 1, 1), vec![21.0]))
//!     .unwrap();
//! assert_eq!(pending.wait().unwrap().data(), &[42.0]);
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coalesce;
mod handle;
mod indices;
pub mod qos;
mod recal;
mod remote;
mod router;
mod scheduler;
mod transport;

pub use aimc_wire::{NoiseSpec, ShardSpec};
pub use coalesce::Coalescer;
pub use handle::{Pending, ServeError, ServeHandle, ServeStats};
pub use qos::{
    Admission, AimdPacer, ClassStats, PacerConfig, Priority, QosClass, QosCoalescer, QosOrdering,
    QosPolicy, QosStats, ShardLoad, ShedReason,
};
pub use recal::{RecalHandle, RecalPolicy, RecalStats};
pub use remote::{Connect, RetryPolicy, ShardServer, TcpTransport};
pub use router::{FleetHandle, FleetPolicy, FleetStats, RoutePolicy, ShardHealth};
pub use scheduler::{spawn, BatchRunner};
pub use transport::{LocalTransport, Orphan, ShardControl, ShardTransport};

use aimc_dnn::{ExecError, Tensor};
use std::time::Duration;

/// Object-safe runner type for adapters that pick the execution path at
/// runtime (e.g. the platform session choosing a backend slot): a
/// `Box<DynRunner>` is itself a [`BatchRunner`]. The first slice holds the
/// global stream index of each input (same length as the input slice).
pub type DynRunner = dyn FnMut(&[u64], &[Tensor]) -> Result<Vec<Tensor>, ExecError> + Send;

/// The micro-batch scheduling policy: how many requests to coalesce and
/// how long the oldest queued request may wait for company.
///
/// A batch is dispatched as soon as **either** trigger fires:
/// `max_batch` requests are pending, or `max_wait` has elapsed since the
/// first request of the partial batch arrived. `max_batch = 1` degrades to
/// solo serving (every request is its own batch); a large `max_batch` with
/// a small `max_wait` keeps tail latency bounded under light load while
/// still filling batches under heavy load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Upper bound on images per dispatched batch (≥ 1; 0 is treated as 1).
    pub max_batch: usize,
    /// Latency budget: the longest the first request of a partial batch
    /// waits before the batch is dispatched anyway.
    pub max_wait: Duration,
    /// Bound of the request queue: once this many requests are in flight
    /// between submitters and the worker, [`ServeHandle::submit_at`]
    /// blocks (backpressure, never unbounded growth) and
    /// [`ServeHandle::submit_at_qos`] sheds with
    /// [`ShedReason::QueueFull`].
    pub queue_depth: usize,
    /// Admission-control knobs: per-class budgets, coalescer ordering,
    /// ECN threshold. The default is fully permissive FIFO, preserving
    /// pre-QoS behavior exactly.
    pub qos: QosPolicy,
}

impl BatchPolicy {
    /// A policy with the given batch bound and latency budget, and a
    /// default queue depth of `max(4 · max_batch, 64)`.
    pub fn new(max_batch: usize, max_wait: Duration) -> Self {
        BatchPolicy {
            max_batch,
            max_wait,
            queue_depth: (max_batch * 4).max(64),
            qos: QosPolicy::default(),
        }
    }

    /// Overrides the queue bound (clamped to at least 1).
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Overrides the admission-control policy.
    pub fn with_qos(mut self, qos: QosPolicy) -> Self {
        self.qos = qos;
        self
    }

    /// The policy with degenerate settings clamped to usable values.
    pub(crate) fn normalized(mut self) -> Self {
        self.max_batch = self.max_batch.max(1);
        self.queue_depth = self.queue_depth.max(1);
        self
    }
}

impl Default for BatchPolicy {
    /// The paper's batch of 16 with a 2 ms latency budget.
    fn default() -> Self {
        BatchPolicy::new(16, Duration::from_millis(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_defaults_and_normalization() {
        let p = BatchPolicy::default();
        assert_eq!(p.max_batch, 16);
        assert_eq!(p.max_wait, Duration::from_millis(2));
        assert_eq!(p.queue_depth, 64);

        let p = BatchPolicy::new(32, Duration::from_millis(1));
        assert_eq!(p.queue_depth, 128);
        assert_eq!(p.with_queue_depth(7).queue_depth, 7);

        let degenerate = BatchPolicy {
            max_batch: 0,
            max_wait: Duration::ZERO,
            queue_depth: 0,
            qos: QosPolicy::default(),
        }
        .normalized();
        assert_eq!(degenerate.max_batch, 1);
        assert_eq!(degenerate.queue_depth, 1);
    }
}
