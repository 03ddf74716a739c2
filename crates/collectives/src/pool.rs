//! Size-classed recycling pool for collective scratch buffers.
//!
//! Every nonblocking collective needs two transient `Vec<f32>`s: a copy of
//! the caller's input (so the caller may reuse its buffer immediately) and
//! an output the result lands in. Allocating those per collective put the
//! allocator on the hot path — at a few collectives per unit per step this
//! was a measurable slice of the `BENCH_overlap.json` regression. The
//! [`BufferPool`] recycles both: buffers are handed out by size class
//! (next power of two), returned after use, and reused across steps, so a
//! warmed-up training loop performs **zero** buffer allocations — the
//! property `tests/buffer_pool.rs` asserts through [`PoolStats`].
//!
//! The pool is `Arc`-shared between the rank thread and its comm thread.
//! Free lists sit behind (uncontended) mutexes — one lock round-trip per
//! collective, not per element — while the statistics counters are plain
//! atomics so tests and telemetry can read them without synchronising.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Buffers above this size class are never pooled (they would pin memory
/// for rare one-off giants); class 24 = 16 Mi elements = 64 MiB.
const MAX_CLASS: usize = 24;

/// Per-class free lists capped so a burst can't hoard unboundedly.
const MAX_FREE_PER_CLASS: usize = 32;

/// Monotonic usage counters (see [`BufferPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out in total.
    pub takes: u64,
    /// Takes served from a free list (no allocation).
    pub reuses: u64,
    /// Takes that had to allocate a fresh buffer.
    pub allocs: u64,
    /// Buffers returned to the pool.
    pub puts: u64,
}

impl PoolStats {
    /// Takes minus puts: buffers currently out in the wild (approximate
    /// under concurrency, exact when quiescent).
    pub fn outstanding(&self) -> i64 {
        self.takes as i64 - self.puts as i64
    }
}

/// A recycling pool of `Vec<f32>` scratch buffers, keyed by capacity class.
#[derive(Debug)]
pub struct BufferPool {
    classes: Vec<Mutex<Vec<Vec<f32>>>>,
    takes: AtomicU64,
    reuses: AtomicU64,
    allocs: AtomicU64,
    puts: AtomicU64,
}

/// Size class of a buffer of `len` elements: index of the next power of
/// two. Class capacity is `1 << class`.
fn class_of(len: usize) -> usize {
    len.next_power_of_two().trailing_zeros() as usize
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// New empty pool.
    pub fn new() -> Self {
        Self {
            classes: (0..=MAX_CLASS).map(|_| Mutex::new(Vec::new())).collect(),
            takes: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            puts: AtomicU64::new(0),
        }
    }

    /// Take an empty buffer with capacity for at least `len` elements.
    /// Served from the free list when possible; `len == 0` is allowed and
    /// pooled like any other class.
    pub fn take(&self, len: usize) -> Vec<f32> {
        self.takes.fetch_add(1, Ordering::Relaxed);
        let class = class_of(len);
        if class <= MAX_CLASS {
            if let Some(mut buf) = self.classes[class].lock().pop() {
                debug_assert!(buf.capacity() >= len);
                buf.clear();
                self.reuses.fetch_add(1, Ordering::Relaxed);
                return buf;
            }
        }
        self.allocs.fetch_add(1, Ordering::Relaxed);
        // allocate the full class capacity so the buffer is maximally
        // reusable when it comes back; unpoolable giants get exactly `len`
        Vec::with_capacity(if class <= MAX_CLASS { 1usize << class } else { len })
    }

    /// Take a buffer of exactly `len` elements, zero-filled.
    pub fn take_zeroed(&self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Take a buffer initialised to a copy of `src`.
    pub fn take_copy(&self, src: &[f32]) -> Vec<f32> {
        let mut buf = self.take(src.len());
        buf.extend_from_slice(src);
        buf
    }

    /// Return a buffer for reuse. Buffers land in the class their
    /// *capacity* belongs to (so a grown buffer is filed where it can
    /// serve the takes it now fits); oversized or surplus buffers are
    /// simply dropped.
    pub fn put(&self, buf: Vec<f32>) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        // file under the largest class the capacity fully covers
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let class = if cap.is_power_of_two() { class_of(cap) } else { class_of(cap) - 1 };
        if class > MAX_CLASS {
            return;
        }
        let mut list = self.classes[class].lock();
        if list.len() < MAX_FREE_PER_CLASS {
            list.push(buf);
        }
    }

    /// Snapshot the usage counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            takes: self.takes.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_of_is_next_power_of_two_exponent() {
        assert_eq!(class_of(0), 0);
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(2), 1);
        assert_eq!(class_of(3), 2);
        assert_eq!(class_of(1024), 10);
        assert_eq!(class_of(1025), 11);
    }

    #[test]
    fn take_put_take_reuses_the_buffer() {
        let pool = BufferPool::new();
        let buf = pool.take_copy(&[1.0, 2.0, 3.0]);
        let ptr = buf.as_ptr();
        pool.put(buf);
        let again = pool.take(3);
        assert_eq!(again.as_ptr(), ptr, "same-class take must reuse the freed buffer");
        assert!(again.is_empty(), "reused buffers come back cleared");
        let s = pool.stats();
        assert_eq!((s.takes, s.reuses, s.allocs, s.puts), (2, 1, 1, 1));
    }

    #[test]
    fn default_pool_takes_and_puts() {
        // `Default` must build the class free lists like `new` does
        let pool = BufferPool::default();
        let buf = pool.take(4);
        assert!(buf.capacity() >= 4);
        pool.put(buf);
        let again = pool.take(4);
        assert!(again.capacity() >= 4);
        let s = pool.stats();
        assert_eq!((s.takes, s.reuses, s.allocs, s.puts), (2, 1, 1, 1));
    }

    #[test]
    fn mismatched_class_allocates_fresh() {
        let pool = BufferPool::new();
        pool.put(Vec::with_capacity(4));
        let big = pool.take(1000);
        assert!(big.capacity() >= 1000);
        assert_eq!(pool.stats().allocs, 1);
    }

    #[test]
    fn zeroed_take_is_full_length() {
        let pool = BufferPool::new();
        let mut b = pool.take_zeroed(7);
        assert_eq!(b.len(), 7);
        assert!(b.iter().all(|&v| v == 0.0));
        b[0] = 5.0;
        pool.put(b);
        let again = pool.take_zeroed(7);
        assert!(again.iter().all(|&v| v == 0.0), "recycled buffers must be re-zeroed");
    }

    #[test]
    fn grown_buffer_refiles_by_capacity() {
        let pool = BufferPool::new();
        let mut b = pool.take(2);
        b.resize(100, 0.0); // grows past its class
        pool.put(b);
        // a take needing the grown capacity must find it
        let again = pool.take(64);
        assert_eq!(pool.stats().reuses, 1, "grown buffer should serve the larger class");
        assert!(again.capacity() >= 64);
    }
}
