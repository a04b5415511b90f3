//! The serving layer in action: an async micro-batch scheduler in front of
//! a programmed analog session. `Session::serve` returns a one-seat fleet
//! whose router stamps every request with its stream coordinate.
//!
//! Part 1 drives the scheduler from two concurrent submitter threads
//! (clone-able `FleetHandle`) and prints the coalescing statistics.
//! Part 2 demonstrates the *batch-composition invariance* guarantee: the
//! same deterministic request stream served under different `max_batch`
//! policies produces logits bit-identical to solo `Session::infer_one`
//! calls.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use aimc_platform::prelude::*;
use std::time::{Duration, Instant};

fn random_images(n: usize, shape: Shape, seed: u64) -> Vec<Tensor> {
    // Deterministic pseudo-images (xorshift), no RNG dependency needed.
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1 << 24) as f32 * 2.0 - 1.0
    };
    (0..n)
        .map(|_| Tensor::from_vec(shape, (0..shape.numel()).map(|_| next()).collect()))
        .collect()
}

fn main() -> Result<(), Error> {
    let platform = Platform::builder()
        .graph(resnet18_cifar(10))
        .arch(ArchConfig::small(8, 8))
        .he_weights(42)
        .build()?;
    let backend = Backend::analog(7, XbarConfig::hermes_256());
    let shape = Shape::new(3, 32, 32);

    // --- Part 1: concurrent submitters through one scheduler ---------------
    let mut session = platform.session();
    session.program(&backend)?;
    let handle = session.serve(BatchPolicy::new(4, Duration::from_millis(2)))?;
    let t0 = Instant::now();
    let submitters: Vec<std::thread::JoinHandle<usize>> = (0..2)
        .map(|who| {
            let h = handle.clone();
            let images = random_images(6, shape, 100 + who);
            std::thread::spawn(move || {
                let pendings: Vec<Pending> = images
                    .iter()
                    .map(|x| h.submit(x.clone()).expect("handle open"))
                    .collect();
                pendings
                    .into_iter()
                    .map(|p| p.wait())
                    .filter(Result::is_ok)
                    .count()
            })
        })
        .collect();
    let done: usize = submitters.into_iter().map(|t| t.join().unwrap()).sum();
    handle.shutdown();
    let stats = handle.stats().aggregate();
    println!(
        "served {done} requests from 2 threads in {:.2}s: {} batches, mean batch {:.2}, \
         queue wait p50 {:?} / p95 {:?}",
        t0.elapsed().as_secs_f64(),
        stats.batches,
        stats.mean_batch(),
        stats.queue_wait_percentile(0.50).unwrap_or_default(),
        stats.queue_wait_percentile(0.95).unwrap_or_default(),
    );

    // --- Part 2: batch-composition invariance -------------------------------
    let stream = random_images(6, shape, 7);
    let mut solo = platform.session();
    let reference: Vec<Tensor> = stream
        .iter()
        .map(|x| solo.infer_one(x, backend.clone()))
        .collect::<Result<_, _>>()?;

    for max_batch in [1usize, 3, 16] {
        let mut s = platform.session();
        s.program(&backend)?;
        let h = s.serve(BatchPolicy::new(max_batch, Duration::from_millis(1)))?;
        let pendings: Vec<Pending> = stream
            .iter()
            .map(|x| h.submit(x.clone()).expect("handle open"))
            .collect();
        let logits: Vec<Tensor> = pendings
            .into_iter()
            .map(|p| p.wait().expect("request completes"))
            .collect();
        h.shutdown();
        println!(
            "max_batch {max_batch:>2}: {} batches, bit-identical to solo: {}",
            h.stats().aggregate().batches,
            logits == reference
        );
        assert_eq!(logits, reference, "batch-composition invariance violated");
    }
    println!("same seed, any chopping of the stream => identical logits");
    Ok(())
}
