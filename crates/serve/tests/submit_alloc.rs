//! A submit moves the caller's image; it never copies it. Asserted with a
//! counting global allocator that counts the bytes the submitting thread
//! allocates during one `FleetHandle::submit` of a 256 KiB image, to a
//! warm one-seat fleet over a local seat and over a loopback TCP seat.
//!
//! One test function on purpose, as in `crates/xbar/tests/no_alloc.rs`:
//! the counter is process-global (only the flagged thread adds to it).

use aimc_dnn::{ExecError, Shape, Tensor};
use aimc_parallel::Parallelism;
use aimc_serve::{
    BatchPolicy, FleetHandle, FleetPolicy, LocalTransport, ShardControl, ShardServer, ShardSpec,
    ShardTransport, TcpTransport,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// System allocator wrapper that adds every acquisition (`alloc`,
/// `alloc_zeroed`, and the new size of a `realloc`) made by a thread whose
/// [`COUNTING`] flag is set.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The bytes this thread allocates while running `f`, and its result.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNTING.with(|c| c.set(true));
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    let after = BYTES.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(false));
    (after - before, out)
}

/// A replica with nothing to drift, reprogram or parallelize.
struct Inert;

impl ShardControl for Inert {
    fn apply_drift(&self, _t_hours: f64) -> bool {
        false
    }
    fn reprogram(&self) -> Result<(), ExecError> {
        Ok(())
    }
    fn set_parallelism(&self, _par: Parallelism) {}
}

/// A seat whose runner answers each image with the sum of its elements.
fn seat() -> LocalTransport {
    let runner = |_indices: &[u64], inputs: &[Tensor]| {
        Ok(inputs
            .iter()
            .map(|t| Tensor::from_vec(Shape::new(1, 1, 1), vec![t.data().iter().sum()]))
            .collect())
    };
    LocalTransport::spawn(
        BatchPolicy::new(4, Duration::from_millis(1)),
        Box::new(runner),
        Box::new(Inert),
        ShardSpec::default(),
    )
}

/// A 256 KiB image whose elements sum to `n`.
fn image(n: usize) -> Tensor {
    let mut data = vec![0.0; 256 * 256];
    data[..n].fill(1.0);
    Tensor::from_vec(Shape::new(1, 256, 256), data)
}

/// The bytes one submit of a fresh 256 KiB image allocates on the
/// submitting thread, after a warm-up submit to the same fleet.
fn submit_bytes(fleet: &FleetHandle) -> u64 {
    let warm = fleet.submit(image(1)).unwrap();
    assert_eq!(warm.wait().unwrap().data(), &[1.0]);
    let request = image(2);
    let (bytes, pending) = allocated_by(|| fleet.submit(request).unwrap());
    assert_eq!(pending.wait().unwrap().data(), &[2.0]);
    bytes
}

#[test]
fn a_submit_moves_the_image_and_never_copies_it() {
    let image_bytes = (256 * 256 * std::mem::size_of::<f32>()) as u64;

    let seats: Vec<Box<dyn ShardTransport>> = vec![Box::new(seat())];
    let local = FleetHandle::new(seats, FleetPolicy::default()).unwrap();
    let bytes = submit_bytes(&local);
    local.shutdown();
    assert!(
        bytes < image_bytes,
        "a submit to a local seat allocated {bytes} bytes for a {image_bytes}-byte image"
    );

    // The TCP seat encodes its request frame on the submitting thread:
    // about one image of frame bytes, and no copy of the image itself.
    let server = ShardServer::new(Box::new(seat()));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serving = std::thread::spawn(move || server.serve_next(&listener));
    let seats: Vec<Box<dyn ShardTransport>> = vec![Box::new(TcpTransport::connect(addr).unwrap())];
    let remote = FleetHandle::new(seats, FleetPolicy::default()).unwrap();
    let bytes = submit_bytes(&remote);
    remote.shutdown();
    serving.join().unwrap().unwrap();
    assert!(
        bytes * 10 < image_bytes * 11,
        "a submit to a TCP seat allocated {bytes} bytes for a {image_bytes}-byte image"
    );
}
