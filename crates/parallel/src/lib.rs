//! # aimc-parallel — deterministic scoped-thread worker pool
//!
//! The paper's platform computes 512 tile-MVMs concurrently; this crate
//! gives the functional simulators the same concurrency on the host. It is
//! a minimal data-parallel layer over [`std::thread::scope`] — no external
//! dependencies (the build environment has no registry access, so rayon is
//! not an option), no unsafe code, and one hard guarantee:
//!
//! > **The result of a parallel map is bit-identical to the serial map.**
//!
//! That holds because workers never share mutable state: each worker claims
//! items off a shared atomic counter, computes into worker-local storage,
//! and the per-item results are merged back **in item order** after the
//! scope joins. Work distribution (which worker computed which item) is
//! nondeterministic; the merged output is not. Anything order-sensitive —
//! floating-point reduction order, RNG streams — must therefore be keyed to
//! the *item index*, never to the worker; the `aimc-xbar` per-call noise
//! streams exist precisely so this property survives down the stack.
//!
//! ## Example
//! ```
//! use aimc_parallel::{map_indexed, Parallelism};
//! let xs = vec![1u64, 2, 3, 4, 5];
//! let serial = map_indexed(Parallelism::Serial, &xs, |i, &x| x * i as u64);
//! let threaded = map_indexed(Parallelism::Threads(4), &xs, |i, &x| x * i as u64);
//! assert_eq!(serial, threaded);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How many worker threads a parallel region may use.
///
/// `Serial` executes on the calling thread with no pool at all — it is the
/// reference semantics every threaded run must reproduce bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Run on the calling thread (the reference execution).
    Serial,
    /// Run on up to `n` worker threads (`Threads(0)` and `Threads(1)`
    /// degrade to serial execution).
    Threads(usize),
}

impl Parallelism {
    /// The number of workers a region would use for `items` work items
    /// (never more workers than items, never zero).
    pub fn workers_for(&self, items: usize) -> usize {
        match *self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1).min(items.max(1)),
        }
    }

    /// Whether this setting can spawn worker threads at all.
    pub fn is_parallel(&self) -> bool {
        matches!(*self, Parallelism::Threads(n) if n > 1)
    }
}

impl Default for Parallelism {
    /// Serial — parallel execution is strictly opt-in.
    fn default() -> Self {
        Parallelism::Serial
    }
}

/// Maps `f` over `items`, preserving item order in the output.
///
/// `f` receives the item index alongside the item so callers can key
/// order-sensitive state (RNG streams, invocation counters) to the item
/// rather than to the worker.
pub fn map_indexed<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_with(par, items, || (), |(), i, x| f(i, x))
}

/// Fallible [`map_indexed`]: returns the error of the **lowest-indexed**
/// failing item (matching what a serial left-to-right loop would report),
/// regardless of which worker hit it first.
///
/// # Errors
/// The lowest-indexed `Err` produced by `f`, if any.
pub fn try_map_indexed<T, R, E, F>(par: Parallelism, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    try_map_with(par, items, || (), |(), i, x| f(i, x))
}

/// [`map_indexed`] with per-worker scratch state: `init` runs once per
/// worker (once total in serial mode) and the resulting scratch is reused
/// across every item that worker processes — the mechanism behind the
/// executors' reusable im2col/output buffers.
pub fn map_with<T, S, R, F, I>(par: Parallelism, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let out: Result<Vec<R>, Never> = try_map_with(par, items, init, |s, i, x| Ok(f(s, i, x)));
    match out {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// Uninhabited error type for the infallible wrappers.
enum Never {}

/// Fallible [`map_with`] — the core primitive every other entry point
/// delegates to.
///
/// Workers claim **chunks** of item indices from a shared atomic cursor
/// (chunk ≈ `len / (workers · 4)`, at least 1): dynamic load-balancing
/// without one cursor bump per item, which matters when the per-item work
/// is tiny (a small tile's MVM sweep) and the fetch-add itself becomes the
/// contention point. Each worker stashes `(index, result)` pairs locally,
/// and the pairs are merged back in index order after the scope joins. On
/// error the remaining workers stop claiming new chunks, the partial
/// results are discarded, and the reported error is still exactly the
/// serial loop's first failure: claimed chunks form a contiguous prefix
/// and always run to completion, so the lowest-indexed recorded error
/// precedes every unevaluated item.
///
/// # Errors
/// The lowest-indexed `Err` produced by `f`, if any.
///
/// # Panics
/// Panics propagate from `f` (a panicking worker aborts the region, and
/// the panic is re-raised on the calling thread by scope join).
pub fn try_map_with<T, S, R, E, F, I>(
    par: Parallelism,
    items: &[T],
    init: I,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
{
    let workers = par.workers_for(items.len());
    if workers <= 1 || items.len() <= 1 {
        let mut scratch = init();
        let mut out = Vec::with_capacity(items.len());
        for (i, x) in items.iter().enumerate() {
            out.push(f(&mut scratch, i, x)?);
        }
        return Ok(out);
    }

    // Chunked claiming: ~4 chunks per worker balances load (a slow chunk
    // does not stall the others) against cursor contention (one fetch-add
    // per chunk, not per item).
    let chunk = (items.len() / (workers * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    // Each worker returns its locally collected (index, result) pairs; the
    // merge below restores item order deterministically.
    let worker_results: Vec<Vec<(usize, Result<R, E>)>> = std::thread::scope(|scope| {
        let (cursor, failed, init, f) = (&cursor, &failed, &init, &f);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut scratch = init();
                    let mut local: Vec<(usize, Result<R, E>)> = Vec::new();
                    loop {
                        // Once any worker errors, stop claiming promptly —
                        // results are discarded on error anyway, so draining
                        // the remaining items would be pure waste. A claimed
                        // chunk always runs to completion, though: that is
                        // what keeps the lowest-indexed-error guarantee
                        // (the chunk holding the serial-first failure was
                        // claimed before any later chunk could fail).
                        if failed.load(Ordering::Relaxed) {
                            break;
                        }
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + chunk).min(items.len());
                        for (i, item) in items.iter().enumerate().take(end).skip(start) {
                            let r = f(&mut scratch, i, item);
                            if r.is_err() {
                                failed.store(true, Ordering::Relaxed);
                            }
                            local.push((i, r));
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<Result<R, E>>> = Vec::new();
    slots.resize_with(items.len(), || None);
    for (i, r) in worker_results.into_iter().flatten() {
        slots[i] = Some(r);
    }
    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        match slot {
            Some(Ok(r)) => out.push(r),
            // Lowest-indexed failure: slots are scanned in item order.
            Some(Err(e)) => return Err(e),
            // A worker bailed after an error before this item was claimed —
            // but an earlier slot must then hold that error, so scanning in
            // order never reaches an unclaimed slot. Defensive anyway:
            None => unreachable!("unclaimed item implies an earlier error"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_and_threaded_agree_in_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let serial = map_indexed(Parallelism::Serial, &xs, |i, &x| x * 3 + i as u64);
        for n in [2, 4, 8] {
            let par = map_indexed(Parallelism::Threads(n), &xs, |i, &x| x * 3 + i as u64);
            assert_eq!(serial, par, "Threads({n}) diverged");
        }
    }

    #[test]
    fn threads_zero_and_one_degrade_to_serial() {
        let xs = vec![1, 2, 3];
        assert_eq!(Parallelism::Threads(0).workers_for(3), 1);
        assert_eq!(Parallelism::Threads(1).workers_for(3), 1);
        assert!(!Parallelism::Threads(1).is_parallel());
        assert!(Parallelism::Threads(2).is_parallel());
        assert!(!Parallelism::Serial.is_parallel());
        let out = map_indexed(Parallelism::Threads(0), &xs, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn never_more_workers_than_items() {
        assert_eq!(Parallelism::Threads(8).workers_for(3), 3);
        assert_eq!(Parallelism::Threads(8).workers_for(0), 1);
        assert_eq!(Parallelism::Serial.workers_for(100), 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let xs: Vec<u32> = vec![];
        let out = map_indexed(Parallelism::Threads(4), &xs, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn scratch_is_initialized_at_most_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let xs: Vec<u32> = (0..100).collect();
        let out = map_with(
            Parallelism::Threads(4),
            &xs,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u32>::new()
            },
            |scratch, _, &x| {
                scratch.push(x); // scratch accumulates across items
                scratch.len()
            },
        );
        assert_eq!(out.len(), 100);
        let n = inits.load(Ordering::Relaxed);
        assert!(n <= 4, "scratch initialized {n} times for 4 workers");
        // Scratch persisted across items: some worker saw more than one.
        assert!(out.iter().any(|&len| len > 1));
    }

    #[test]
    fn error_reported_is_the_lowest_index() {
        let xs: Vec<u32> = (0..64).collect();
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let r: Result<Vec<u32>, usize> =
                try_map_indexed(par, &xs, |i, &x| if x % 10 == 7 { Err(i) } else { Ok(x) });
            assert_eq!(r.unwrap_err(), 7, "{par:?}");
        }
    }

    #[test]
    fn try_map_success_matches_serial() {
        let xs: Vec<i64> = (0..257).collect();
        let f = |i: usize, &x: &i64| -> Result<i64, ()> { Ok(x * x - i as i64) };
        let serial = try_map_indexed(Parallelism::Serial, &xs, f).unwrap();
        let par = try_map_indexed(Parallelism::Threads(3), &xs, f).unwrap();
        assert_eq!(serial, par);
    }

    /// Chunked claiming must cover every index exactly once for lengths
    /// that don't divide evenly into chunks (and for fewer items than
    /// workers, where the chunk degrades to 1).
    #[test]
    fn chunked_claiming_covers_ragged_lengths() {
        for len in [1usize, 2, 3, 5, 7, 15, 16, 17, 63, 64, 65, 1001] {
            let xs: Vec<usize> = (0..len).collect();
            let out = map_indexed(Parallelism::Threads(4), &xs, |i, &x| {
                assert_eq!(i, x);
                x
            });
            assert_eq!(out, xs, "len {len} lost or reordered items");
        }
    }

    /// The lowest-index-error guarantee survives chunked claiming even when
    /// failures land in different chunks: the chunk holding the serial-first
    /// failure is always claimed (chunks are claimed in index order) and
    /// always runs to completion.
    #[test]
    fn lowest_error_wins_across_chunks() {
        let xs: Vec<u32> = (0..997).collect();
        for par in [Parallelism::Serial, Parallelism::Threads(7)] {
            let r: Result<Vec<u32>, usize> =
                try_map_indexed(par, &xs, |i, &x| if x % 13 == 4 { Err(i) } else { Ok(x) });
            assert_eq!(r.unwrap_err(), 4, "{par:?}");
        }
    }
}
