//! Process-wide free list of reusable block-sized byte buffers.
//!
//! The experiment layer runs many independent simulation cells back to back
//! (and, with the cell harness, in parallel); each cell writes, repairs and
//! drops files made of megabyte-scale blocks. Without reuse every cell
//! mallocs and frees gigabytes of 1 MiB buffers — page-fault churn that
//! dwarfs the arithmetic. This pool keeps the allocations alive between
//! cells: [`take`] hands out a zeroed buffer (recycled when one of matching
//! capacity is shelved, freshly allocated otherwise), [`take_for_overwrite`]
//! hands out one whose contents the caller is about to overwrite, and
//! [`recycle`] shelves an allocation for the next taker.
//!
//! # Determinism
//!
//! [`take`] always returns `len` zeroed bytes, so a recycled buffer from it
//! is indistinguishable from a fresh one. [`take_for_overwrite`] skips that
//! zero-fill: its bytes are unspecified — whatever a previous owner left
//! behind — though always initialised (safe Rust, no `MaybeUninit`). It is
//! only for callers that overwrite every byte before reading any, such as
//! the fused copy-and-encode of a stripe, so stale contents never reach
//! simulation output. Either way output is byte-identical whether a buffer
//! was pooled or not; which allocation backs a buffer is the only thing
//! that varies (and races, under a parallel harness) — never the bytes.
//!
//! # Bounds
//!
//! Only buffers of at least [`MIN_POOLED_CAPACITY`] are pooled (small
//! vectors are cheap to allocate and would only churn the shelf), and the
//! shelf retains at most [`MAX_POOLED_BYTES`] in total — recycling beyond
//! the cap simply frees the buffer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Buffers with less capacity than this are never pooled.
pub const MIN_POOLED_CAPACITY: usize = 64 * 1024;

/// Total capacity the shelf may retain; recycling past it frees instead.
pub const MAX_POOLED_BYTES: usize = 512 * 1024 * 1024;

struct Shelf {
    bufs: Vec<Vec<u8>>,
    bytes: usize,
}

static SHELF: Mutex<Shelf> = Mutex::new(Shelf {
    bufs: Vec::new(),
    bytes: 0,
});
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn shelf() -> std::sync::MutexGuard<'static, Shelf> {
    SHELF.lock().unwrap_or_else(|e| e.into_inner())
}

/// Returns a buffer of exactly `len` zeroed bytes, reusing a shelved
/// allocation when one of sufficient capacity is available.
pub fn take(len: usize) -> Vec<u8> {
    match pop(len) {
        Some(mut b) => {
            b.clear();
            b.resize(len, 0);
            b
        }
        None => vec![0u8; len],
    }
}

/// Returns a buffer of exactly `len` bytes with **unspecified** contents,
/// reusing a shelved allocation when one of sufficient capacity is
/// available. Only for callers that overwrite every byte before reading
/// any: a reused buffer keeps whatever its previous owner wrote (only bytes
/// past its old length are zeroed), which saves [`take`]'s full zero-fill.
pub fn take_for_overwrite(len: usize) -> Vec<u8> {
    match pop(len) {
        Some(mut b) => {
            b.resize(len, 0);
            b
        }
        None => vec![0u8; len],
    }
}

/// The shelf lookup both takes share: pops the smallest shelved buffer of
/// at least `len` capacity (so a small request does not pin an oversized
/// allocation) and counts the pool-eligible request as a hit or a miss.
fn pop(len: usize) -> Option<Vec<u8>> {
    if len < MIN_POOLED_CAPACITY {
        return None;
    }
    let mut shelf = shelf();
    let mut best: Option<(usize, usize)> = None;
    for (i, b) in shelf.bufs.iter().enumerate() {
        let cap = b.capacity();
        if cap >= len && best.is_none_or(|(_, c)| cap < c) {
            best = Some((i, cap));
            if cap == len {
                break;
            }
        }
    }
    let popped = best.map(|(i, _)| {
        let b = shelf.bufs.swap_remove(i);
        shelf.bytes -= b.capacity();
        b
    });
    let counter = if popped.is_some() { &HITS } else { &MISSES };
    counter.fetch_add(1, Ordering::Relaxed);
    popped
}

/// Shelves an allocation for a later take. Buffers below
/// [`MIN_POOLED_CAPACITY`], or arriving once the shelf holds
/// [`MAX_POOLED_BYTES`], are simply dropped.
pub fn recycle(buf: Vec<u8>) {
    let cap = buf.capacity();
    if cap < MIN_POOLED_CAPACITY {
        return;
    }
    let mut shelf = shelf();
    if shelf.bytes + cap > MAX_POOLED_BYTES {
        return;
    }
    shelf.bytes += cap;
    shelf.bufs.push(buf);
}

/// Total capacity currently shelved.
pub fn pooled_bytes() -> usize {
    shelf().bytes
}

/// Number of takes (of either kind) served from the shelf so far.
pub fn hits() -> u64 {
    HITS.load(Ordering::Relaxed)
}

/// Number of pool-eligible takes that had to allocate fresh.
pub fn misses() -> u64 {
    MISSES.load(Ordering::Relaxed)
}

/// Frees every shelved buffer, returning how many bytes were released.
/// Intended for tests that want a cold pool.
pub fn drain() -> usize {
    let mut shelf = shelf();
    let freed = shelf.bytes;
    shelf.bufs.clear();
    shelf.bytes = 0;
    freed
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pool is process-global and libtest runs tests on parallel
    // threads; serialize the tests so one test's take cannot steal the
    // buffer another just shelved.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn take_returns_zeroed_exact_length() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let len = MIN_POOLED_CAPACITY + 13;
        let mut a = take(len);
        assert_eq!(a.len(), len);
        assert!(a.iter().all(|&b| b == 0));
        a.iter_mut().for_each(|b| *b = 0xA5);
        recycle(a);
        let b = take(len);
        assert_eq!(b.len(), len);
        assert!(b.iter().all(|&x| x == 0), "recycled buffer must be zeroed");
    }

    #[test]
    fn overwrite_take_reuses_without_zeroing_and_take_still_zeroes() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let len = MIN_POOLED_CAPACITY + 29;
        drain();
        recycle(vec![0xA5u8; len]);
        let hits_before = hits();
        let mut a = take_for_overwrite(len);
        assert_eq!(a.len(), len);
        assert_eq!(
            hits(),
            hits_before + 1,
            "the overwrite take shares the shelf"
        );
        assert!(
            a.iter().all(|&b| b == 0xA5),
            "the overwrite take skips the zero-fill"
        );
        a.iter_mut().for_each(|b| *b = 0x5A);
        recycle(a);
        let b = take(len);
        assert_eq!(b.len(), len);
        assert!(
            b.iter().all(|&x| x == 0),
            "a buffer recycled after an overwrite take comes back zeroed from take"
        );
    }

    #[test]
    fn small_buffers_are_not_pooled() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = pooled_bytes();
        recycle(vec![1u8; 16]);
        assert_eq!(pooled_bytes(), before);
        let misses_before = misses();
        let v = take(16);
        assert_eq!(v.len(), 16);
        assert_eq!(misses(), misses_before, "tiny takes are not pool-eligible");
    }

    #[test]
    fn recycle_then_take_is_a_hit() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let len = MIN_POOLED_CAPACITY * 2 + 7;
        recycle(vec![0u8; len]);
        let hits_before = hits();
        let v = take(len);
        assert_eq!(v.len(), len);
        assert!(
            hits() > hits_before,
            "a matching shelved buffer must be reused"
        );
    }
}
