//! Proves the zero-allocation claim of the `*_into` encode paths with a
//! counting global allocator: once buffers exist and the kernel dispatch is
//! warm, `ReedSolomon::encode_into`, `slice::linear_combination_into`,
//! `slice::matrix_mul_into` and the serial (1-wide pool) fused
//! `slice::copy_mul_into` perform no heap allocation at all.
//!
//! This lives in its own integration-test binary, and the counter only
//! counts allocations made by the *measured thread*: the libtest harness's
//! main thread blocks in a channel `recv` while the test body runs, and its
//! waker registration allocates at a nondeterministic moment — fast kernels
//! made that land inside the measured window often enough to flake.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use drc_gf::{slice, Gf256, ReedSolomon};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Marker address of the thread whose allocations are counted (0 = none).
static MEASURED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// A per-thread address that identifies the thread inside `alloc`
    /// without allocating (const-initialised TLS never lazily allocates).
    static THREAD_MARKER: u8 = const { 0 };
}

/// Whether the calling thread is the one registered by [`measure_this_thread`]
/// (false during thread teardown, when TLS is gone).
fn on_measured_thread() -> bool {
    THREAD_MARKER
        .try_with(|m| m as *const u8 as usize)
        .map(|addr| MEASURED.load(Ordering::Relaxed) == addr)
        .unwrap_or(false)
}

/// Registers the calling thread as the one whose allocations count.
fn measure_this_thread() {
    THREAD_MARKER.with(|m| MEASURED.store(m as *const u8 as usize, Ordering::Relaxed));
}

// SAFETY: `unsafe` is required by the `GlobalAlloc` contract; every call
// forwards to `System` with the caller's layout and pointer unchanged, so
// the contract is upheld verbatim and the counters touch no allocator state.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds the `GlobalAlloc` contract; forwarded to
    // `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_measured_thread() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same arguments the caller handed us.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds the `GlobalAlloc` contract; forwarded to
    // `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same arguments the caller handed us.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds the `GlobalAlloc` contract; forwarded to
    // `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_measured_thread() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same arguments the caller handed us.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn into_paths_are_allocation_free() {
    measure_this_thread();
    encode_into_is_allocation_free();
    slice_into_helpers_are_allocation_free();
    serial_fused_copy_encode_is_allocation_free();
}

fn encode_into_is_allocation_free() {
    let rs = ReedSolomon::new(10, 4).expect("valid parameters");
    let shard = 8 * 1024;
    let data: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8 + 1; shard]).collect();
    let mut parity = vec![vec![0u8; shard]; 4];

    // Warm up the cached kernel selection (and any lazy statics).
    rs.encode_into(&data, &mut parity).expect("encodes");

    let before = allocations();
    for _ in 0..32 {
        rs.encode_into(&data, &mut parity).expect("encodes");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "encode_into must not allocate with caller-owned buffers"
    );

    // The result is still correct, not just fast.
    let coded = rs.encode(&data).expect("encodes");
    assert_eq!(parity.as_slice(), &coded[10..]);
}

fn slice_into_helpers_are_allocation_free() {
    let len = 4 * 1024;
    let blocks: Vec<Vec<u8>> = (0..6).map(|i| vec![(i * 17 + 3) as u8; len]).collect();
    let coeffs: Vec<Gf256> = (1..=6).map(Gf256::new).collect();
    let mut out = vec![0u8; len];
    let mut outs = vec![vec![0u8; len]; 2];
    let matrix: Vec<Gf256> = (1..=12).map(Gf256::new).collect();

    slice::linear_combination_into(&coeffs, &blocks, &mut out);
    slice::matrix_mul_into(&matrix, 6, &blocks, &mut outs);

    let before = allocations();
    for _ in 0..32 {
        slice::linear_combination_into(&coeffs, &blocks, &mut out);
        slice::matrix_mul_into(&matrix, 6, &blocks, &mut outs);
    }
    assert_eq!(
        allocations() - before,
        0,
        "slice *_into helpers must not allocate"
    );
}

fn serial_fused_copy_encode_is_allocation_free() {
    // Long enough that only the 1-wide pool keeps the fused loop serial; the
    // file ends mid-way through the fifth block, so the sixth is all
    // padding.
    let len = slice::PAR_ENGAGE_MIN + 100;
    let file: Vec<u8> = (0..4 * len + len / 2).map(|i| (i * 13 + 1) as u8).collect();
    let sources: Vec<&[u8]> = (0..6)
        .map(|j| &file[(j * len).min(file.len())..((j + 1) * len).min(file.len())])
        .collect();
    let mut data = vec![vec![0u8; len]; 6];
    let mut outs = vec![vec![0u8; len]; 2];
    let matrix: Vec<Gf256> = (1..=12).map(Gf256::new).collect();

    rayon::with_num_threads(1, || {
        slice::copy_mul_into(&matrix, &sources, &mut data, &mut outs);
        let before = allocations();
        for _ in 0..8 {
            slice::copy_mul_into(&matrix, &sources, &mut data, &mut outs);
        }
        assert_eq!(
            allocations() - before,
            0,
            "the serial fused copy-and-encode must not allocate"
        );
    });
    assert_eq!(&data[4][..len / 2], &file[4 * len..]);
    assert!(data[5].iter().all(|&b| b == 0));
}
