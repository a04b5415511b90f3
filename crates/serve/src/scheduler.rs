//! The worker thread: bounded channel → [`QosCoalescer`] → [`BatchRunner`].
//!
//! One worker drains the queue in FIFO order (or earliest-deadline-first
//! within priority bands under
//! [`QosOrdering::EdfWithinPriority`](crate::QosOrdering)). Every request already
//! carries its global stream index (stamped at submission by a fleet
//! router, through [`ServeHandle::submit_at`]), and the worker hands the
//! per-request indices to the runner alongside the images. The runner
//! keys evaluation randomness to those indices
//! (`Executor::infer_batch_indexed`) — the mechanism behind
//! batch-composition invariance: a shard's batches need not be contiguous
//! in the global stream, nor in stream order.

use crate::handle::{Msg, Request, ServeError, ServeHandle, SharedState};
use crate::qos::QosCoalescer;
use crate::BatchPolicy;
use aimc_dnn::{ExecError, Tensor};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Instant;

/// Executes one coalesced micro-batch.
///
/// `indices[i]` is the global stream index of `inputs[i]` (the slices have
/// equal length). A shard receives whatever slice of the global stream the
/// router handed it. Runners that wrap a stateful backend must key
/// per-image randomness to the global index (not the position within the
/// batch) to preserve batch-composition invariance.
///
/// Implemented for any `FnMut(&[u64], &[Tensor]) -> Result<Vec<Tensor>,
/// ExecError>` closure.
pub trait BatchRunner: Send + 'static {
    /// Runs the batch, returning one output per input (same order).
    ///
    /// # Errors
    /// Any [`ExecError`]; it is broadcast to every request of the batch.
    fn run_batch(&mut self, indices: &[u64], inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError>;
}

impl<F> BatchRunner for F
where
    F: FnMut(&[u64], &[Tensor]) -> Result<Vec<Tensor>, ExecError> + Send + 'static,
{
    fn run_batch(&mut self, indices: &[u64], inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self(indices, inputs)
    }
}

/// Starts a micro-batch scheduler: a bounded MPSC queue in front of one
/// worker thread that coalesces requests under `policy` and drives
/// `runner` one batch at a time.
///
/// Returns the clone-able [`ServeHandle`] used to submit requests, drain,
/// and shut down. Dropping every handle without calling
/// [`ServeHandle::shutdown`] leaves queued requests canceled and detaches
/// the worker; prefer an explicit shutdown.
pub fn spawn<R: BatchRunner>(policy: BatchPolicy, runner: R) -> ServeHandle {
    let policy = policy.normalized();
    let (tx, rx) = mpsc::sync_channel(policy.queue_depth);
    let shared = Arc::new(SharedState::for_policy(&policy));
    let worker_shared = Arc::clone(&shared);
    let worker = std::thread::Builder::new()
        .name("aimc-serve".into())
        .spawn(move || worker_loop(rx, worker_shared, policy, runner))
        .expect("spawn aimc-serve worker");
    ServeHandle::new(tx, shared, worker)
}

fn worker_loop<R: BatchRunner>(
    rx: Receiver<Msg>,
    shared: Arc<SharedState>,
    policy: BatchPolicy,
    mut runner: R,
) {
    let epoch = Instant::now();
    let mut coal: QosCoalescer<Request> =
        QosCoalescer::new(policy.max_batch, policy.max_wait, policy.qos.ordering);
    // Queues a request with its EDF key: the absolute completion deadline
    // in the epoch clock domain (relative deadlines are anchored to the
    // *submission* instant, not the dequeue instant).
    let push = |coal: &mut QosCoalescer<Request>, req: Request| {
        let deadline = req
            .class
            .deadline
            .map(|d| req.submitted_at.saturating_duration_since(epoch) + d);
        let priority = req.class.priority;
        coal.push(req, priority, deadline, epoch.elapsed())
    };
    loop {
        let msg = match coal.deadline() {
            // A partial batch is pending: wait only until its deadline.
            Some(deadline) => {
                let now = epoch.elapsed();
                if now >= deadline {
                    flush(&mut coal, &mut runner, &shared);
                    continue;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => {
                        flush(&mut coal, &mut runner, &shared);
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            // Idle: block until the next request starts a batch.
            None => match rx.recv() {
                Ok(m) => m,
                Err(_) => break,
            },
        };
        match msg {
            Msg::Request(req) => {
                if push(&mut coal, req) {
                    flush(&mut coal, &mut runner, &shared);
                }
            }
            Msg::Shutdown => {
                // Drain everything accepted before the shutdown sentinel,
                // then exit. Requests racing past the closed flag (if any)
                // are canceled by their tickets when the channel drops.
                while let Ok(m) = rx.try_recv() {
                    if let Msg::Request(req) = m {
                        if push(&mut coal, req) {
                            flush(&mut coal, &mut runner, &shared);
                        }
                    }
                }
                break;
            }
        }
    }
    while !coal.is_empty() {
        flush(&mut coal, &mut runner, &shared);
    }
}

/// Dispatches one coalesced batch (if any) and fulfills its tickets.
fn flush<R: BatchRunner>(coal: &mut QosCoalescer<Request>, runner: &mut R, shared: &SharedState) {
    let reqs = coal.take_batch();
    if reqs.is_empty() {
        return;
    }
    let n = reqs.len();
    let mut indices = Vec::with_capacity(n);
    let mut images = Vec::with_capacity(n);
    let mut tickets = Vec::with_capacity(n);
    let mut waits = Vec::with_capacity(n);
    for r in reqs {
        waits.push(r.submitted_at.elapsed());
        indices.push(r.index);
        images.push(r.image);
        tickets.push(r.ticket);
    }
    shared.note_batch(n, &waits);
    let exec_start = Instant::now();
    let outcome = runner.run_batch(&indices, &images);
    // Service-time EWMA feeds deadline-feasibility admission checks.
    shared.note_exec(n, exec_start.elapsed());
    match outcome {
        Ok(outs) if outs.len() == n => {
            for (ticket, y) in tickets.into_iter().zip(outs) {
                ticket.fulfill(Ok(y));
            }
        }
        // Contract violation: the runner returned the wrong cardinality.
        // Cancel the batch rather than mis-assigning outputs (and keep the
        // worker alive for later batches).
        Ok(_) => {
            for ticket in tickets {
                ticket.fulfill(Err(ServeError::Canceled));
            }
        }
        Err(e) => {
            for ticket in tickets {
                ticket.fulfill(Err(ServeError::Exec(e.clone())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Pending;
    use aimc_dnn::Shape;
    use std::sync::Mutex;
    use std::time::Duration;

    fn tensor(v: f32) -> Tensor {
        Tensor::from_vec(Shape::new(1, 1, 1), vec![v])
    }

    /// Dispatched batches as seen by a recording runner: (indices, tags).
    type BatchLog = Arc<Mutex<Vec<(Vec<u64>, Vec<f32>)>>>;

    /// A runner that records every dispatched batch (per-request stream
    /// indices + tags) and echoes each input with +0.5.
    fn recording_runner(
        log: BatchLog,
    ) -> impl FnMut(&[u64], &[Tensor]) -> Result<Vec<Tensor>, ExecError> + Send + 'static {
        move |indices, inputs| {
            let tags: Vec<f32> = inputs.iter().map(|t| t.data()[0]).collect();
            log.lock().unwrap().push((indices.to_vec(), tags));
            Ok(inputs.iter().map(|t| tensor(t.data()[0] + 0.5)).collect())
        }
    }

    #[test]
    fn requests_complete_fifo_and_batches_are_contiguous() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let handle = spawn(
            BatchPolicy::new(3, Duration::from_millis(5)),
            recording_runner(Arc::clone(&log)),
        );
        let pendings: Vec<Pending> = (0..10)
            .map(|i| handle.submit_at(i, tensor(i as f32)).unwrap())
            .collect();
        for (i, p) in pendings.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().data(), &[i as f32 + 0.5]);
        }
        handle.shutdown();

        let log = log.lock().unwrap();
        // Batches cover the stream in order: concatenating them yields the
        // submission sequence, each request at the index it was stamped.
        let mut expect = 0u64;
        let mut flat = Vec::new();
        for (indices, tags) in log.iter() {
            assert!(tags.len() <= 3, "batch exceeded max_batch");
            for &idx in indices {
                assert_eq!(idx, expect, "stream index out of order");
                expect += 1;
            }
            flat.extend_from_slice(tags);
        }
        let want: Vec<f32> = (0..10).map(|i| i as f32).collect();
        assert_eq!(flat, want);
    }

    #[test]
    fn max_wait_flushes_partial_batches() {
        let log = Arc::new(Mutex::new(Vec::new()));
        // Huge max_batch: only the latency budget can flush.
        let handle = spawn(
            BatchPolicy::new(1000, Duration::from_millis(10)),
            recording_runner(Arc::clone(&log)),
        );
        let p = handle.submit_at(0, tensor(7.0)).unwrap();
        // Must complete without ever filling the batch.
        assert_eq!(p.wait().unwrap().data(), &[7.5]);
        assert_eq!(handle.stats().batches, 1);
        handle.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let log = Arc::new(Mutex::new(Vec::new()));
        // Long max_wait: nothing would flush on its own before shutdown.
        let handle = spawn(
            BatchPolicy::new(100, Duration::from_secs(3600)),
            recording_runner(Arc::clone(&log)),
        );
        let pendings: Vec<Pending> = (0..5)
            .map(|i| handle.submit_at(i, tensor(i as f32)).unwrap())
            .collect();
        handle.shutdown();
        for (i, p) in pendings.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().data(), &[i as f32 + 0.5]);
        }
        // Post-shutdown submissions are refused and counted.
        assert!(matches!(
            handle.submit_at(5, tensor(9.0)),
            Err(ServeError::ShutDown)
        ));
        assert!(handle.is_closed());
        let stats = handle.stats();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn shutdown_is_idempotent_across_clones() {
        let handle = spawn(BatchPolicy::default(), recording_runner(Default::default()));
        let clone = handle.clone();
        let p = clone.submit_at(0, tensor(1.0)).unwrap();
        handle.shutdown();
        clone.shutdown();
        handle.shutdown();
        assert_eq!(p.wait().unwrap().data(), &[1.5]);
        assert!(matches!(
            clone.submit_at(1, tensor(2.0)),
            Err(ServeError::ShutDown)
        ));
    }

    #[test]
    fn runner_errors_are_broadcast_to_the_whole_batch() {
        let bad = ExecError::ShapeMismatch {
            expected: Shape::new(1, 1, 1),
            got: Shape::new(2, 2, 2),
        };
        let e = bad.clone();
        let handle = spawn(
            BatchPolicy::new(2, Duration::from_millis(1)),
            move |_idx: &[u64], _inputs: &[Tensor]| Err(e.clone()),
        );
        let a = handle.submit_at(0, tensor(0.0)).unwrap();
        let b = handle.submit_at(1, tensor(1.0)).unwrap();
        assert_eq!(a.wait(), Err(ServeError::Exec(bad.clone())));
        assert_eq!(b.wait(), Err(ServeError::Exec(bad)));
        // The scheduler survives failing batches.
        let c = handle.submit_at(2, tensor(2.0)).unwrap();
        assert!(matches!(c.wait(), Err(ServeError::Exec(_))));
        handle.shutdown();
    }

    #[test]
    fn wrong_cardinality_runner_cancels_the_batch() {
        let handle = spawn(
            BatchPolicy::new(1, Duration::from_millis(1)),
            move |_idx: &[u64], _inputs: &[Tensor]| Ok(Vec::new()),
        );
        let p = handle.submit_at(0, tensor(3.0)).unwrap();
        // debug_assert fires only in the worker thread's debug builds; the
        // observable contract is cancellation either way.
        assert_eq!(p.wait(), Err(ServeError::Canceled));
        handle.shutdown();
    }

    /// Saturation/soak: ≥1k requests through a small queue, with
    /// images-seen parity — the runner observes exactly the submitted
    /// stream, each index once, in order.
    #[test]
    fn soak_1k_requests_keeps_image_parity() {
        let images_seen = Arc::new(Mutex::new(0u64));
        let seen = Arc::clone(&images_seen);
        let handle = spawn(
            BatchPolicy::new(16, Duration::from_millis(1)).with_queue_depth(8),
            move |indices: &[u64], inputs: &[Tensor]| {
                let mut count = seen.lock().unwrap();
                // Parity: single-threaded submission stamps in order, so
                // the batch continues exactly where the stream left off,
                // and every input carries its own stream index.
                for (&idx, t) in indices.iter().zip(inputs) {
                    assert_eq!(idx, *count);
                    assert_eq!(t.data()[0], idx as f32);
                    *count += 1;
                }
                Ok(inputs.iter().map(|t| tensor(-t.data()[0])).collect())
            },
        );

        const N: u64 = 1200;
        // Submit from two clones in lockstep order (single submitting
        // thread keeps the stream order deterministic; the tiny queue
        // depth forces backpressure blocking along the way).
        let clone = handle.clone();
        let pendings: Vec<Pending> = (0..N)
            .map(|i| {
                let h = if i % 2 == 0 { &handle } else { &clone };
                h.submit_at(i, tensor(i as f32)).unwrap()
            })
            .collect();
        handle.drain();
        assert_eq!(*images_seen.lock().unwrap(), N);
        for (i, p) in pendings.into_iter().enumerate() {
            assert!(p.is_ready(), "request {i} not completed after drain");
            assert_eq!(p.wait().unwrap().data(), &[-(i as f32)]);
        }
        let stats = handle.stats();
        assert_eq!(stats.submitted, N);
        assert_eq!(stats.completed, N);
        assert_eq!(stats.queue_waits.len() as u64, N);
        assert!(stats.max_batch_observed <= 16);
        assert!(stats.batches >= N / 16, "batches cannot undercount");
        assert!(stats.queue_wait_percentile(0.95).is_some());
        handle.shutdown();
        assert_eq!(*images_seen.lock().unwrap(), N);
    }
}
