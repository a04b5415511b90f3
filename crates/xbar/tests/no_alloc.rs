//! The hot-loop allocation contract, asserted with a counting global
//! allocator: after one warm-up call per (shape, path), neither MVM entry
//! point may touch the heap when it is given a warm [`MvmScratch`].
//!
//! One test function on purpose — the counter is process-global, and a
//! sibling test allocating concurrently would produce false positives.

use aimc_xbar::{Crossbar, MvmScratch, XbarConfig, DAC_BATCH};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts every acquisition path
/// (`alloc`, `alloc_zeroed`, `realloc`) — frees are not counted, so a
/// shrink-in-place cannot mask a fresh allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn programmed(rows: usize, cols: usize) -> Crossbar {
    let weights: Vec<f32> = (0..rows * cols)
        .map(|i| ((i * 37 % 64) as f32 - 32.0) / 32.0)
        .collect();
    let mut rng = StdRng::seed_from_u64(11);
    Crossbar::program(&XbarConfig::hermes_256(), &weights, rows, cols, &mut rng).unwrap()
}

#[test]
fn warm_mvm_paths_never_allocate() {
    // Ragged shapes so masks have partial tail words and the scratch is
    // resized across shapes during warm-up (grow-only buffers must end at
    // the high-water mark before counting starts).
    let shapes = [(27usize, 16usize), (144, 32), (70, 21)];
    let xbars: Vec<Crossbar> = shapes.iter().map(|&(r, c)| programmed(r, c)).collect();
    let max_rows = 144;
    let max_cols = 32;

    let x: Vec<f32> = (0..DAC_BATCH * max_rows)
        .map(|i| (i as f32).sin())
        .collect();
    let mut out = vec![0.0f32; DAC_BATCH * max_cols];
    let mut scratch = MvmScratch::new();
    let invocations: Vec<u64> = (0..DAC_BATCH as u64).collect();

    let sweep = |scratch: &mut MvmScratch, out: &mut [f32], base: u64| {
        for xbar in &xbars {
            let (r, c) = (xbar.rows_used(), xbar.cols_used());
            // One patch runs the single-patch kernel.
            xbar.mvm_batch_into_with(&x[..r], &mut out[..c], &[base], scratch)
                .unwrap();
            // Full quad plus a remainder-sized batch: both batch paths.
            xbar.mvm_batch_into_with(
                &x[..DAC_BATCH * r],
                &mut out[..DAC_BATCH * c],
                &invocations,
                scratch,
            )
            .unwrap();
            xbar.mvm_batch_into_with(&x[..2 * r], &mut out[..2 * c], &invocations[..2], scratch)
                .unwrap();
            for bits in [1u32, 8, 16] {
                xbar.mvm_bit_serial_into_with(&x[..r], bits, &mut out[..c], base + 1, scratch)
                    .unwrap();
            }
        }
    };

    // Warm-up: sizes every grow-only buffer (including the lazily
    // initialized ziggurat tables).
    sweep(&mut scratch, &mut out, 0);

    let before = allocations();
    for rep in 0..10u64 {
        sweep(&mut scratch, &mut out, 100 + rep);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm MVM hot loops allocated {} times",
        after - before
    );
}
