//! A bounded lock-free single-producer / single-consumer job ring.
//!
//! This is the comm-thread submission path of [`crate::nonblocking`]: the
//! rank (compute) thread is the producer, the comm thread the consumer.
//! The previous design handed jobs through `std::sync::mpsc`, whose
//! mutex/condvar rendezvous showed up as real step-time regression in
//! `BENCH_overlap.json` — issuing a collective cost a lock acquisition,
//! a heap node and often a futex wake. This ring makes the steady-state
//! cost of issuing a job one slot write plus one release store, and a
//! whole batch of jobs one release store total ([`Producer::push_batch`]).
//!
//! ## Design (classic Lamport queue + cached indices + park/unpark)
//!
//! * Fixed power-of-two capacity; `head` is the consumer cursor, `tail`
//!   the producer cursor, both monotonically increasing `AtomicUsize`
//!   (slot = `index & mask`).
//! * Each side caches the other side's cursor and only re-loads it when
//!   the cached value implies full/empty, so the fast path touches one
//!   shared cache line per operation, not two.
//! * Blocking is cooperative, not built into the ring: a side that would
//!   block publishes its `std::thread::Thread` handle and parks; the
//!   peer unparks it *only* when the flag says someone is parked, so a
//!   streaming producer never pays a futex syscall.
//! * Dropping the [`Producer`] closes the ring: the consumer drains every
//!   queued item and then observes disconnection. Dropping the
//!   [`Consumer`] makes every subsequent push fail with the item handed
//!   back ([`PushError::Disconnected`]) — the shutdown-races-enqueue path
//!   a dying rank takes. Items still in the ring when *both* sides are
//!   gone are dropped with the ring itself: the shared `Arc` runs the
//!   ring's `Drop` exactly once, after the last handle is gone, with
//!   exclusive access to the slots. Neither handle decides it is the last
//!   by reading the other's `alive` flag — two overlapping drops would
//!   both read `false` and both drain.
//!
//! The suite in `tests/spsc_queue.rs` stress-tests FIFO order, the
//! full/empty boundaries, drop-while-nonempty, racing drops of both sides
//! and the shutdown race.

use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;

/// Why a push could not complete.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is full; the item is handed back for retry.
    Full(T),
    /// The consumer is gone; the item is handed back so nothing is lost.
    Disconnected(T),
}

impl<T> PushError<T> {
    /// Recover the item that could not be enqueued.
    pub fn into_inner(self) -> T {
        match self {
            Self::Full(v) | Self::Disconnected(v) => v,
        }
    }
}

/// One side's parked-thread slot: flag checked on the fast path, handle
/// behind a mutex touched only when the flag is up (slow path).
#[derive(Debug, Default)]
struct Parker {
    parked: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

impl Parker {
    /// Register the current thread and report readiness to park. The
    /// caller must re-check its wake condition *after* this call and
    /// before actually parking (standard flag/park protocol).
    fn prepare_park(&self) {
        *self.thread.lock() = Some(std::thread::current());
        self.parked.store(true, Ordering::SeqCst);
    }

    fn clear(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Wake the registered thread if (and only if) one is parked.
    fn wake(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            if let Some(t) = self.thread.lock().take() {
                t.unpark();
            }
        }
    }
}

#[derive(Debug)]
struct Ring<T> {
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer cursor (next index to pop).
    head: AtomicUsize,
    /// Producer cursor (next index to fill).
    tail: AtomicUsize,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
    /// Consumer parks here when the ring is empty.
    consumer_parker: Parker,
    /// Producer parks here when the ring is full.
    producer_parker: Parker,
}

// T moves across the channel; the ring itself is shared by exactly one
// producer and one consumer thread (enforced by the handle types).
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

/// Create a bounded SPSC ring with room for at least `capacity` items
/// (rounded up to a power of two, minimum 2).
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots: Box<[UnsafeCell<MaybeUninit<T>>]> =
        (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let ring = Arc::new(Ring {
        mask: cap - 1,
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        producer_alive: AtomicBool::new(true),
        consumer_alive: AtomicBool::new(true),
        consumer_parker: Parker::default(),
        producer_parker: Parker::default(),
    });
    (
        Producer { ring: Arc::clone(&ring), cached_head: 0 },
        Consumer { ring, cached_tail: 0 },
    )
}

/// The sending half of the ring. `!Sync` by construction — exactly one
/// thread may push.
#[derive(Debug)]
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Last observed consumer cursor; refreshed only when the ring looks
    /// full, so the fast path reads one shared atomic, not two.
    cached_head: usize,
}

impl<T> Producer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.ring.mask + 1
    }

    /// Items currently queued (racy snapshot, exact when quiescent).
    pub fn len(&self) -> usize {
        self.ring.tail.load(Ordering::Acquire).wrapping_sub(self.ring.head.load(Ordering::Acquire))
    }

    /// Whether the ring is empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the consumer is still attached.
    pub fn consumer_alive(&self) -> bool {
        self.ring.consumer_alive.load(Ordering::Acquire)
    }

    fn push_impl(&mut self, value: T, wake: bool) -> Result<(), PushError<T>> {
        if !self.consumer_alive() {
            return Err(PushError::Disconnected(value));
        }
        let tail = self.ring.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.cached_head) > self.ring.mask {
            self.cached_head = self.ring.head.load(Ordering::Acquire);
            if tail.wrapping_sub(self.cached_head) > self.ring.mask {
                return Err(PushError::Full(value));
            }
        }
        unsafe {
            (*self.ring.slots[tail & self.ring.mask].get()).write(value);
        }
        self.ring.tail.store(tail.wrapping_add(1), Ordering::Release);
        if wake {
            self.ring.consumer_parker.wake();
        }
        Ok(())
    }

    /// Nonblocking push: one slot write and one release store on success.
    pub fn push(&mut self, value: T) -> Result<(), PushError<T>> {
        self.push_impl(value, true)
    }

    /// [`Producer::push`] without the consumer wakeup: the item is
    /// published (visible to `pop`) but a consumer parked on empty stays
    /// parked. For callers whose consumer is a *fallback* executor — wake
    /// it explicitly with [`Producer::wake_consumer`] when its help is
    /// actually needed, or let its `Drop`-time drain pick the items up.
    pub fn push_quiet(&mut self, value: T) -> Result<(), PushError<T>> {
        self.push_impl(value, false)
    }

    /// Wake the consumer if it is parked on an empty ring (one atomic swap
    /// when nobody is parked). Pair with [`Producer::push_quiet`].
    pub fn wake_consumer(&self) {
        self.ring.consumer_parker.wake();
    }

    fn push_batch_impl(&mut self, values: impl IntoIterator<Item = T>, wake: bool) -> (usize, Vec<T>) {
        let mut values = values.into_iter();
        if !self.consumer_alive() {
            return (0, values.collect());
        }
        let tail = self.ring.tail.load(Ordering::Relaxed);
        let mut filled = 0usize;
        let mut overflow = Vec::new();
        for value in &mut values {
            let idx = tail.wrapping_add(filled);
            if idx.wrapping_sub(self.cached_head) > self.ring.mask {
                self.cached_head = self.ring.head.load(Ordering::Acquire);
                if idx.wrapping_sub(self.cached_head) > self.ring.mask {
                    overflow.push(value);
                    break;
                }
            }
            unsafe {
                (*self.ring.slots[idx & self.ring.mask].get()).write(value);
            }
            filled += 1;
        }
        if filled > 0 {
            self.ring.tail.store(tail.wrapping_add(filled), Ordering::Release);
            if wake {
                self.ring.consumer_parker.wake();
            }
        }
        overflow.extend(values);
        (filled, overflow)
    }

    /// Batched push: writes every slot, then publishes the whole batch
    /// with a **single** release store and at most one consumer wakeup.
    /// Returns the number of items enqueued; the rest are handed back in
    /// order if the ring fills or the consumer disconnects mid-batch.
    pub fn push_batch(&mut self, values: impl IntoIterator<Item = T>) -> (usize, Vec<T>) {
        self.push_batch_impl(values, true)
    }

    /// [`Producer::push_batch`] without the consumer wakeup (see
    /// [`Producer::push_quiet`]).
    pub fn push_batch_quiet(&mut self, values: impl IntoIterator<Item = T>) -> (usize, Vec<T>) {
        self.push_batch_impl(values, false)
    }

    /// Blocking push: parks until a slot frees up. Fails only when the
    /// consumer disconnects ([`PushError::Disconnected`]), racing shutdown
    /// included — the item always comes back to the caller.
    pub fn push_wait(&mut self, mut value: T) -> Result<(), PushError<T>> {
        loop {
            match self.push(value) {
                Ok(()) => return Ok(()),
                Err(PushError::Disconnected(v)) => return Err(PushError::Disconnected(v)),
                Err(PushError::Full(v)) => value = v,
            }
            // slow path: register, re-check, park
            self.ring.producer_parker.prepare_park();
            let tail = self.ring.tail.load(Ordering::Relaxed);
            let head = self.ring.head.load(Ordering::Acquire);
            if tail.wrapping_sub(head) <= self.ring.mask || !self.consumer_alive() {
                self.ring.producer_parker.clear();
                continue;
            }
            std::thread::park();
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.ring.producer_alive.store(false, Ordering::Release);
        // wake a consumer parked on empty so it observes the close
        self.ring.consumer_parker.wake();
    }
}

/// The receiving half of the ring.
#[derive(Debug)]
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Last observed producer cursor; refreshed only when the ring looks
    /// empty (mirror of [`Producer::cached_head`]).
    cached_tail: usize,
}

impl<T> Consumer<T> {
    /// Items currently queued (racy snapshot, exact when quiescent).
    pub fn len(&self) -> usize {
        self.ring.tail.load(Ordering::Acquire).wrapping_sub(self.ring.head.load(Ordering::Acquire))
    }

    /// Whether the ring is empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the producer is still attached.
    pub fn producer_alive(&self) -> bool {
        self.ring.producer_alive.load(Ordering::Acquire)
    }

    /// Nonblocking pop.
    pub fn pop(&mut self) -> Option<T> {
        let head = self.ring.head.load(Ordering::Relaxed);
        if head == self.cached_tail {
            self.cached_tail = self.ring.tail.load(Ordering::Acquire);
            if head == self.cached_tail {
                return None;
            }
        }
        let value = unsafe { (*self.ring.slots[head & self.ring.mask].get()).assume_init_read() };
        self.ring.head.store(head.wrapping_add(1), Ordering::Release);
        self.ring.producer_parker.wake();
        Some(value)
    }

    /// Blocking pop: parks until an item arrives. Returns `None` only
    /// when the producer has disconnected **and** the ring is drained —
    /// queued jobs always complete before shutdown is observed.
    pub fn pop_wait(&mut self) -> Option<T> {
        loop {
            if let Some(v) = self.pop() {
                return Some(v);
            }
            if !self.producer_alive() {
                // one final pop covers the publish-then-close race
                return self.pop();
            }
            // slow path: register, re-check, park
            self.ring.consumer_parker.prepare_park();
            if !self.is_empty() || !self.producer_alive() {
                self.ring.consumer_parker.clear();
                continue;
            }
            std::thread::park();
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.ring.consumer_alive.store(false, Ordering::Release);
        // wake a producer parked on full so it observes the close
        self.ring.producer_parker.wake();
    }
}

impl<T> Drop for Ring<T> {
    /// Drop every undrained item. The `Arc` runs this once, after the last
    /// handle is gone; its release-decrement / acquire-fence pair orders
    /// every slot write and cursor store before it, and `&mut self` proves
    /// no other thread can touch a slot.
    fn drop(&mut self) {
        let tail = *self.tail.get_mut();
        let mut head = *self.head.get_mut();
        while head != tail {
            // SAFETY: `head..tail` are exactly the slots the producer wrote
            // and the consumer never read, so each holds an initialised
            // value that is dropped here once.
            unsafe {
                self.slots[head & self.mask].get_mut().assume_init_drop();
            }
            head = head.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let (mut tx, mut rx) = ring::<u32>(4);
        for round in 0..100u32 {
            assert!(tx.push(round * 2).is_ok());
            assert!(tx.push(round * 2 + 1).is_ok());
            assert_eq!(rx.pop(), Some(round * 2));
            assert_eq!(rx.pop(), Some(round * 2 + 1));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn full_ring_rejects_then_accepts() {
        let (mut tx, mut rx) = ring::<u8>(2);
        assert!(tx.push(1).is_ok());
        assert!(tx.push(2).is_ok());
        assert_eq!(tx.push(3), Err(PushError::Full(3)));
        assert_eq!(rx.pop(), Some(1));
        assert!(tx.push(3).is_ok());
    }

    #[test]
    fn closed_consumer_hands_item_back() {
        let (mut tx, rx) = ring::<String>(4);
        drop(rx);
        match tx.push("job".into()) {
            Err(PushError::Disconnected(s)) => assert_eq!(s, "job"),
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn consumer_drains_after_producer_drop() {
        let (mut tx, mut rx) = ring::<u32>(8);
        for i in 0..5 {
            tx.push(i).unwrap();
        }
        drop(tx);
        for i in 0..5 {
            assert_eq!(rx.pop_wait(), Some(i));
        }
        assert_eq!(rx.pop_wait(), None);
    }

    #[test]
    fn push_batch_publishes_all() {
        let (mut tx, mut rx) = ring::<u32>(8);
        let (n, rest) = tx.push_batch(0..6);
        assert_eq!(n, 6);
        assert!(rest.is_empty());
        for i in 0..6 {
            assert_eq!(rx.pop(), Some(i));
        }
    }

    #[test]
    fn push_batch_hands_back_overflow_in_order() {
        let (mut tx, _rx) = ring::<u32>(4);
        let (n, rest) = tx.push_batch(0..10);
        assert_eq!(n, 4);
        assert_eq!(rest, vec![4, 5, 6, 7, 8, 9]);
    }

    /// Counts its drops.
    struct Tracked(Arc<AtomicUsize>);

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A few rounds of `tests/spsc_queue.rs`'s racing-drops test, small
    /// enough for Miri to interpret: both sides drop at once, from two
    /// threads, with items queued, and each item is dropped once.
    #[test]
    fn racing_drops_of_both_sides_drop_each_item_once() {
        for _ in 0..8 {
            let drops = Arc::new(AtomicUsize::new(0));
            let (mut tx, rx) = ring::<Tracked>(4);
            for _ in 0..3 {
                assert!(tx.push(Tracked(Arc::clone(&drops))).is_ok());
            }
            let ready = &AtomicUsize::new(0);
            let arrive = move || {
                ready.fetch_add(1, Ordering::SeqCst);
                while ready.load(Ordering::SeqCst) < 2 {
                    std::hint::spin_loop();
                }
            };
            std::thread::scope(|s| {
                s.spawn(move || {
                    arrive();
                    drop(rx);
                });
                arrive();
                drop(tx);
            });
            assert_eq!(drops.load(Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn cross_thread_handoff() {
        let (mut tx, mut rx) = ring::<u64>(16);
        let t = std::thread::spawn(move || {
            let mut sum = 0u64;
            while let Some(v) = rx.pop_wait() {
                sum += v;
            }
            sum
        });
        for i in 1..=1000u64 {
            tx.push_wait(i).unwrap();
        }
        drop(tx);
        assert_eq!(t.join().unwrap(), 500_500);
    }
}
