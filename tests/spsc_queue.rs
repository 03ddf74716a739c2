//! Concurrency suite for the lock-free SPSC job ring
//! (`geofm_collectives::spsc`) — the submission path under the comm
//! thread. The properties locked in here are exactly the ones the
//! nonblocking collectives rely on:
//!
//! * **FIFO, lossless, duplicate-free** under a real two-thread race
//!   (10 000 ops per seed × 32 seeds, randomised push/pop mix);
//! * **full/empty boundary** behaviour (`Full` hands the item back;
//!   `pop` on empty returns `None`; batched pushes overflow in order);
//! * **drop-while-nonempty drains cleanly** — every queued item is
//!   dropped exactly once, whichever side unplugs first, and when both
//!   sides unplug at the same moment;
//! * **shutdown racing enqueue** never loses an item: a push either lands
//!   (and is drained) or comes back as `Disconnected`;
//! * **job-cell pooling** above the ring reaches a steady state: after
//!   warmup, submissions are served by resetting retired cells in place
//!   (`reuses` tracks `takes`) and fresh allocations stop.

use geofm_collectives::spsc::{ring, PushError};
use geofm_collectives::{CommThread, Group};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Tiny deterministic RNG (splitmix64) so the stress schedules are
/// reproducible per seed without pulling in an RNG crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const OPS: u64 = 10_000;
const SEEDS: u64 = 32;

/// Two-thread stress: the producer pushes `0..OPS` using a seed-dependent
/// mix of `push` (with retry), `push_wait` and `push_batch`; the consumer
/// pops with a mix of `pop` and `pop_wait`. The consumer asserts values
/// arrive in strictly increasing order starting at 0 (FIFO ⇒ no loss, no
/// duplication, no reordering) and that exactly `OPS` values arrive.
#[test]
fn seeded_two_thread_stress_preserves_fifo() {
    for seed in 0..SEEDS {
        // small capacities exercise the full boundary constantly
        let cap = [2usize, 4, 8, 64][(seed % 4) as usize];
        let (mut tx, mut rx) = ring::<u64>(cap);
        let consumer = std::thread::spawn(move || {
            let mut rng = Rng(seed.wrapping_mul(0xA5A5_5A5A) + 1);
            let mut expect = 0u64;
            loop {
                let got = if rng.below(4) == 0 {
                    match rx.pop() {
                        Some(v) => Some(v),
                        None => {
                            if rng.below(8) == 0 {
                                std::thread::yield_now();
                            }
                            continue;
                        }
                    }
                } else {
                    rx.pop_wait()
                };
                match got {
                    Some(v) => {
                        assert_eq!(
                            v, expect,
                            "seed {seed}: out-of-order/lost/duplicated item (cap {cap})"
                        );
                        expect += 1;
                    }
                    None => return expect,
                }
            }
        });
        let mut rng = Rng(seed + 1);
        let mut next = 0u64;
        while next < OPS {
            match rng.below(3) {
                0 => {
                    // nonblocking push, retry on full
                    let mut v = next;
                    loop {
                        match tx.push(v) {
                            Ok(()) => break,
                            Err(PushError::Full(back)) => {
                                v = back;
                                std::thread::yield_now();
                            }
                            Err(PushError::Disconnected(_)) => {
                                panic!("seed {seed}: consumer vanished")
                            }
                        }
                    }
                    next += 1;
                }
                1 => {
                    tx.push_wait(next).unwrap();
                    next += 1;
                }
                _ => {
                    // batched window; overflow re-queued via push_wait
                    let upper = (next + 1 + rng.below(6)).min(OPS);
                    let (_, overflow) = tx.push_batch(next..upper);
                    for v in overflow {
                        tx.push_wait(v).unwrap();
                    }
                    next = upper;
                }
            }
        }
        drop(tx);
        let received = consumer.join().unwrap();
        assert_eq!(received, OPS, "seed {seed}: consumer count mismatch");
    }
}

#[test]
fn full_and_empty_boundaries() {
    let (mut tx, mut rx) = ring::<u32>(4);
    assert_eq!(tx.capacity(), 4);
    assert!(tx.is_empty() && rx.is_empty());
    assert_eq!(rx.pop(), None, "pop on empty must not block or fabricate");
    for i in 0..4 {
        tx.push(i).unwrap();
    }
    assert_eq!(tx.len(), 4);
    assert_eq!(tx.push(99), Err(PushError::Full(99)), "full ring hands the item back");
    // one slot frees, exactly one push fits again
    assert_eq!(rx.pop(), Some(0));
    tx.push(4).unwrap();
    assert_eq!(tx.push(5), Err(PushError::Full(5)));
    // FIFO across the wrap
    for expect in 1..5 {
        assert_eq!(rx.pop(), Some(expect));
    }
    assert_eq!(rx.pop(), None);
}

#[test]
fn batch_overflow_comes_back_in_order_and_nothing_is_lost() {
    let (mut tx, mut rx) = ring::<u32>(4);
    let (n, overflow) = tx.push_batch(0..11);
    assert_eq!(n, 4);
    assert_eq!(overflow, vec![4, 5, 6, 7, 8, 9, 10]);
    for expect in 0..4 {
        assert_eq!(rx.pop(), Some(expect));
    }
    // the handed-back tail continues the sequence seamlessly
    let (n2, overflow2) = tx.push_batch(overflow);
    assert_eq!(n2, 4);
    assert_eq!(overflow2, vec![8, 9, 10]);
    for expect in 4..8 {
        assert_eq!(rx.pop(), Some(expect));
    }
}

/// An item that counts its drops, to prove drain-exactly-once.
#[derive(Debug)]
struct Tracked(Arc<AtomicUsize>);

impl Drop for Tracked {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn drop_while_nonempty_drains_every_item_exactly_once() {
    // producer first, consumer last — the consumer side drains
    let drops = Arc::new(AtomicUsize::new(0));
    let (mut tx, rx) = ring::<Tracked>(8);
    for _ in 0..5 {
        tx.push(Tracked(Arc::clone(&drops))).unwrap();
    }
    drop(tx);
    assert_eq!(drops.load(Ordering::SeqCst), 0, "queued items must outlive the producer");
    drop(rx);
    assert_eq!(drops.load(Ordering::SeqCst), 5, "consumer drop must drain the leftovers");

    // consumer first, producer last — the producer side drains
    let drops = Arc::new(AtomicUsize::new(0));
    let (mut tx, rx) = ring::<Tracked>(8);
    for _ in 0..3 {
        tx.push(Tracked(Arc::clone(&drops))).unwrap();
    }
    drop(rx);
    drop(tx);
    assert_eq!(drops.load(Ordering::SeqCst), 3, "producer drop must drain the leftovers");
}

/// Spin until both threads of a round have arrived, so the steps each
/// takes next start together.
fn arrive(ready: &AtomicUsize) {
    ready.fetch_add(1, Ordering::SeqCst);
    while ready.load(Ordering::SeqCst) < 2 {
        std::hint::spin_loop();
    }
}

/// Both sides dropped at the same moment, from two threads, with items
/// still queued: whichever drop finishes last, each item is dropped
/// exactly once. A handle that decides it is the last one out by
/// reading the other side's `alive` flag sees `false` on both threads
/// when the drops overlap, and the leftovers are dropped twice.
#[test]
fn racing_drops_of_both_sides_drop_each_item_once() {
    const ROUNDS: usize = 20_000;
    for round in 0..ROUNDS {
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut tx, rx) = ring::<Tracked>(8);
        for _ in 0..4 {
            tx.push(Tracked(Arc::clone(&drops))).unwrap();
        }
        let ready = &AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                arrive(ready);
                drop(rx);
            });
            arrive(ready);
            drop(tx);
        });
        assert_eq!(drops.load(Ordering::SeqCst), 4, "round {round}: leftovers dropped twice");
    }
}

/// Shutdown racing enqueue: the consumer disconnects at a random point
/// while the producer streams. Every created item must end up dropped
/// exactly once — either consumed, handed back via `Disconnected`, or
/// drained by the last side out — across many seeds to hit the race
/// window from both sides.
#[test]
fn shutdown_racing_enqueue_never_loses_or_double_frees() {
    for seed in 0..SEEDS {
        let drops = Arc::new(AtomicUsize::new(0));
        let consumed = Arc::new(AtomicUsize::new(0));
        let (mut tx, mut rx) = ring::<Tracked>(4);
        let consumer = {
            let consumed = Arc::clone(&consumed);
            std::thread::spawn(move || {
                let mut rng = Rng(seed * 31 + 7);
                let quit_after = rng.below(200);
                for _ in 0..quit_after {
                    if rx.pop_wait().is_none() {
                        return;
                    }
                    consumed.fetch_add(1, Ordering::SeqCst);
                }
                // rx dropped here, mid-stream
            })
        };
        let mut created = 0usize;
        let mut returned = 0usize;
        for _ in 0..400 {
            created += 1;
            match tx.push_wait(Tracked(Arc::clone(&drops))) {
                Ok(()) => {}
                Err(PushError::Disconnected(item)) => {
                    returned += 1;
                    drop(item);
                    break;
                }
                Err(PushError::Full(_)) => unreachable!("push_wait never reports Full"),
            }
        }
        drop(tx);
        consumer.join().unwrap();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            created,
            "seed {seed}: every item must be dropped exactly once \
             (consumed {}, handed back {returned})",
            consumed.load(Ordering::SeqCst),
        );
    }
}

/// Steady-state cell pooling on the comm path that rides this ring: after
/// a warmup, every submitted collective must be served by recycling a
/// retired job cell — zero fresh `Arc<JobCell>` allocations per op — for
/// both the wait-and-recycle and the fire-many-then-wait submission
/// shapes. A regression that re-introduces the per-op allocation flips
/// `allocs` proportional to ops and fails loudly here.
#[test]
fn comm_path_cell_pool_reaches_zero_alloc_steady_state() {
    const WARMUP: u64 = 64;
    const OPS_STEADY: u64 = 2_000;
    let handles = Group::create(2);
    let stats: Vec<_> = std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .map(|h| {
                s.spawn(move || {
                    let data = vec![1.0f32; 256];
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    for _ in 0..WARMUP {
                        comm.recycle(comm.all_reduce_async(&g, &data).wait().unwrap());
                    }
                    let warm = comm.cell_stats();
                    // shape 1: submit → wait → recycle, one in flight
                    for _ in 0..OPS_STEADY {
                        comm.recycle(comm.all_reduce_async(&g, &data).wait().unwrap());
                    }
                    // shape 2: several in flight before the oldest is waited
                    for _ in 0..OPS_STEADY / 4 {
                        let pend: Vec<_> =
                            (0..4).map(|_| comm.all_reduce_async(&g, &data)).collect();
                        for p in pend {
                            comm.recycle(p.wait().unwrap());
                        }
                    }
                    let done = comm.cell_stats();
                    comm.join();
                    (warm, done)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    for (rank, (warm, done)) in stats.into_iter().enumerate() {
        let ops = done.takes - warm.takes;
        assert_eq!(ops, 2 * OPS_STEADY, "rank {rank}: unexpected op count");
        // Steady state is not literally zero-alloc: the LRU front cell can
        // still be ring-held inside the reclaim backlog window, forcing an
        // occasional fresh cell. The pooling invariant is that allocations
        // do NOT scale with ops — a per-op-alloc regression turns this
        // difference from ~0.1% of ops into 100% of them.
        let fresh = done.allocs - warm.allocs;
        assert!(
            fresh <= ops / 50,
            "rank {rank}: steady-state allocations scale with ops — pooling regressed \
             (warmup {warm:?}, final {done:?})"
        );
        assert_eq!(
            (done.reuses - warm.reuses) + fresh,
            ops,
            "rank {rank}: every op is either a pool reuse or a (rare) fresh alloc"
        );
        assert!(
            warm.allocs <= WARMUP + 8,
            "rank {rank}: warmup allocations should be bounded by the in-flight window, \
             got {warm:?}"
        );
    }
}

/// The parked-consumer wakeup path: a consumer blocked on an empty ring
/// must observe a push promptly, and a producer blocked on a full ring
/// must observe the pop — no missed-wakeup deadlock across many rounds.
#[test]
fn park_unpark_has_no_missed_wakeups() {
    let (mut tx, mut rx) = ring::<u64>(2);
    let t = std::thread::spawn(move || {
        let mut sum = 0u64;
        while let Some(v) = rx.pop_wait() {
            sum += v;
            // slow consumer forces the producer onto the full/park path
            if v % 97 == 0 {
                std::thread::yield_now();
            }
        }
        sum
    });
    for i in 1..=5000u64 {
        tx.push_wait(i).unwrap();
    }
    drop(tx);
    assert_eq!(t.join().unwrap(), 5000 * 5001 / 2);
}
