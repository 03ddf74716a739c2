//! The thread pool behind `for_each`.
//!
//! A pool of width `w` is the installing thread plus `w - 1` helper threads,
//! each with one [`Slot`]. The helpers start with the first `for_each` that
//! splits, so a pool that never splits never spawns a thread. `for_each`
//! cuts its items into `p = min(w, len)` contiguous pieces, posts pieces
//! `1..p` to the first `p - 1` slots, runs piece 0 itself, then takes back
//! and runs every piece no helper has started, and finally waits for the
//! pieces in flight. Panics are caught wherever a piece runs and the first
//! one, in piece order, is resumed on the caller once every piece is over.

use crate::iter::IndexedParallelIterator;
use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a helper spins for its next piece, and a caller for a piece in
/// flight, before parking on a condvar.
const SPIN: Duration = Duration::from_micros(50);

thread_local! {
    /// The pool this thread's `for_each` calls split across.
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Threads that `for_each` on this thread splits across: the width of the
/// pool this thread is installed in, and 1 anywhere else, helper threads
/// included.
pub fn current_num_threads() -> usize {
    CURRENT.with(|c| c.borrow().as_ref().map_or(1, |r| r.width()))
}

/// Builds a [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder for a pool as wide as `available_parallelism`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total threads, the installing thread included. 0 means
    /// `available_parallelism` (there is no `RAYON_NUM_THREADS`).
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// A pool of the configured width. Its helper threads start with the
    /// first `for_each` that splits, so building spawns nothing and never
    /// fails; the `Result` keeps rayon's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = match self.num_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Ok(ThreadPool {
            registry: Arc::new(Registry {
                slots: (1..width).map(|_| Slot::default()).collect(),
                busy: AtomicBool::new(false),
                helpers: Mutex::new(Vec::new()),
            }),
        })
    }
}

/// rayon's error for a pool that cannot be built. This shim never returns
/// it: a helper that fails to spawn leaves its `for_each` call sequential.
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    _private: (),
}

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("cannot build the thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A fixed-width pool that `for_each` calls made inside
/// [`install`](Self::install) split their items across. Dropping the pool
/// stops and joins its helper threads.
pub struct ThreadPool {
    registry: Arc<Registry>,
}

impl ThreadPool {
    /// Run `op` with this pool as the calling thread's current pool, and
    /// restore the previous one when `op` returns or unwinds. Unlike rayon,
    /// `op` runs on the calling thread, not on a pool thread.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(Option<Arc<Registry>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let previous = self.0.take();
                let _ = CURRENT.try_with(|c| *c.borrow_mut() = previous);
            }
        }
        let previous = CURRENT.with(|c| c.replace(Some(Arc::clone(&self.registry))));
        let _restore = Restore(previous);
        op()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for slot in self.registry.slots.iter() {
            slot.shut_down();
        }
        let helpers = std::mem::take(&mut *lock(&self.registry.helpers));
        for helper in helpers {
            // helpers catch every piece's panic, so this is always Ok
            let _ = helper.join();
        }
    }
}

/// What a pool's threads share.
struct Registry {
    /// One per helper thread.
    slots: Box<[Slot]>,
    /// Held by the one `for_each` that owns the slots. Acquire on claim
    /// pairs with Release on drop, so one caller's slot use happens before
    /// the next caller's.
    busy: AtomicBool,
    /// The helpers started so far; `helpers[i]` serves `slots[i]`.
    helpers: Mutex<Vec<JoinHandle<()>>>,
}

impl Registry {
    fn width(&self) -> usize {
        self.slots.len() + 1
    }

    /// Own the slots for one `for_each`, unless another call on this pool
    /// (a nested one, or one on another thread) already does.
    fn claim(&self) -> Option<Claim<'_>> {
        self.busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| Claim(&self.busy))
    }

    /// Start every helper not yet running. False if one fails to spawn:
    /// that call then runs in place, and the next one tries again.
    fn start_helpers(self: &Arc<Self>) -> bool {
        let mut helpers = lock(&self.helpers);
        while helpers.len() < self.slots.len() {
            let (registry, index) = (Arc::clone(self), helpers.len());
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-helper-{index}"))
                .spawn(move || helper_main(&registry, index));
            match spawned {
                Ok(helper) => helpers.push(helper),
                Err(_) => return false,
            }
        }
        true
    }
}

/// Lock `m`; no code panics while holding one of this module's locks, and
/// every update leaves the data valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Claim<'a>(&'a AtomicBool);

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// `for_each` on the current pool: see the module docs.
pub(crate) fn for_each<P, F>(items: P, op: F)
where
    P: IndexedParallelIterator,
    F: Fn(P::Item) + Sync + Send,
{
    let registry = CURRENT.with(|c| c.borrow().clone());
    if let Some(registry) = registry {
        let pieces = registry.width().min(items.len());
        if pieces > 1 {
            if let Some(_claim) = registry.claim() {
                if registry.start_helpers() {
                    split(&registry.slots[..pieces - 1], items, pieces, &op);
                    return;
                }
            }
        }
    }
    items.into_seq().for_each(op);
}

/// Run `items` as `pieces` contiguous pieces: piece 0 here, the others
/// posted one per slot.
fn split<P, F>(slots: &[Slot], items: P, pieces: usize, op: &F)
where
    P: IndexedParallelIterator,
    F: Fn(P::Item) + Sync,
{
    // the first `extra` pieces hold one item more than the rest
    let (base, extra) = (items.len() / pieces, items.len() % pieces);
    let size = |i: usize| base + usize::from(i < extra);
    let (head, mut rest) = items.split_at(size(0));
    let mut jobs = Vec::with_capacity(pieces - 1);
    for i in 1..pieces {
        let (piece, tail) = rest.split_at(size(i));
        jobs.push(Job { items: Mutex::new(Some(piece)), op, panic: Mutex::new(None) });
        rest = tail;
    }

    // Declared after `jobs`, so it is dropped first, on return and on unwind.
    let settle = Settle(slots);
    for (slot, job) in slots.iter().zip(&jobs) {
        let piece: &dyn Piece = job;
        // SAFETY: this only erases the lifetime of a reference to `jobs`.
        // A helper dereferences it between claiming the slot (POSTED ->
        // RUNNING) and marking it DONE, and never after. `Settle::drop`
        // waits, for every slot, until it is back to IDLE: taken back
        // before a helper claimed it, or finished. `settle` is dropped
        // before `jobs`, so no helper can reach a piece once `jobs` is gone.
        let piece: &'static dyn Piece = unsafe { std::mem::transmute(piece) };
        slot.post(piece);
    }
    let first = catch_unwind(AssertUnwindSafe(|| head.into_seq().for_each(op)));
    for (slot, job) in slots.iter().zip(&jobs) {
        if slot.take_back() {
            job.run();
        }
    }
    drop(settle);

    if let Err(payload) = first {
        resume_unwind(payload);
    }
    for job in jobs {
        if let Some(payload) = job.panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
            resume_unwind(payload);
        }
    }
}

/// A posted piece, type-erased for the helper that runs it.
trait Piece: Sync {
    /// Run the piece, keeping its panic for the caller.
    fn run(&self);
}

struct Job<'f, P, F> {
    items: Mutex<Option<P>>,
    op: &'f F,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<P, F> Piece for Job<'_, P, F>
where
    P: IndexedParallelIterator,
    F: Fn(P::Item) + Sync,
{
    fn run(&self) {
        let items = lock(&self.items).take();
        if let Some(items) = items {
            if let Err(payload) =
                catch_unwind(AssertUnwindSafe(|| items.into_seq().for_each(self.op)))
            {
                *lock(&self.panic) = Some(payload);
            }
        }
    }
}

/// Waits out every slot of one `for_each` when dropped.
struct Settle<'a>(&'a [Slot]);

impl Drop for Settle<'_> {
    fn drop(&mut self) {
        for slot in self.0 {
            slot.settle();
        }
    }
}

const IDLE: u8 = 0;
const POSTED: u8 = 1;
const RUNNING: u8 = 2;
const DONE: u8 = 3;
const SHUTDOWN: u8 = 4;

/// One helper's mailbox. The caller moves it IDLE -> POSTED, then back to
/// IDLE either directly (it took the piece back) or after the helper moved
/// it POSTED -> RUNNING -> DONE. Dropping the pool moves it to SHUTDOWN.
#[derive(Default)]
struct Slot {
    /// Written only while `mail` is locked, so a thread that read it under
    /// the lock and then waits on a condvar cannot miss a change. Read
    /// without the lock only to stop spinning early; the lock orders
    /// everything the state guards, so every access is Relaxed.
    state: AtomicU8,
    mail: Mutex<Mail>,
    /// The helper parks here for a piece or for shutdown.
    to_helper: Condvar,
    /// The caller parks here for a piece in flight.
    to_caller: Condvar,
}

#[derive(Default)]
struct Mail {
    /// The posted piece, while the state is POSTED.
    piece: Option<&'static dyn Piece>,
    helper_parked: bool,
    caller_parked: bool,
}

impl Slot {
    fn lock(&self) -> MutexGuard<'_, Mail> {
        lock(&self.mail)
    }

    fn state(&self) -> u8 {
        self.state.load(Ordering::Relaxed)
    }

    fn set(&self, state: u8) {
        self.state.store(state, Ordering::Relaxed);
    }

    /// Spin until `done(state)` holds or [`SPIN`] has passed.
    fn spin_until(&self, done: impl Fn(u8) -> bool) {
        let start = Instant::now();
        while !done(self.state()) && start.elapsed() < SPIN {
            for _ in 0..64 {
                std::hint::spin_loop();
            }
        }
    }

    /// Caller: hand `piece` to this slot's helper.
    fn post(&self, piece: &'static dyn Piece) {
        let mut mail = self.lock();
        debug_assert_eq!(self.state(), IDLE);
        mail.piece = Some(piece);
        self.set(POSTED);
        if mail.helper_parked {
            self.to_helper.notify_one();
        }
    }

    /// Caller: take the posted piece back if no helper has started it.
    fn take_back(&self) -> bool {
        let mut mail = self.lock();
        if self.state() != POSTED {
            return false;
        }
        mail.piece = None;
        self.set(IDLE);
        true
    }

    /// Caller: wait until the helper is done with this slot's piece, and
    /// leave the slot IDLE. A piece still POSTED (only when unwinding before
    /// `take_back`) is dropped unrun.
    fn settle(&self) {
        self.spin_until(|s| s != RUNNING);
        let mut mail = self.lock();
        while self.state() == RUNNING {
            mail.caller_parked = true;
            mail = self.to_caller.wait(mail).unwrap_or_else(PoisonError::into_inner);
            mail.caller_parked = false;
        }
        mail.piece = None;
        self.set(IDLE);
    }

    /// Helper: the next posted piece, or `None` once the pool shuts down.
    fn next(&self) -> Option<&'static dyn Piece> {
        self.spin_until(|s| s == POSTED || s == SHUTDOWN);
        let mut mail = self.lock();
        loop {
            match (self.state(), mail.piece.take()) {
                (POSTED, Some(piece)) => {
                    self.set(RUNNING);
                    return Some(piece);
                }
                (SHUTDOWN, _) => return None,
                _ => {
                    mail.helper_parked = true;
                    mail = self.to_helper.wait(mail).unwrap_or_else(PoisonError::into_inner);
                    mail.helper_parked = false;
                }
            }
        }
    }

    /// Helper: the piece from [`next`](Self::next) has run.
    fn finish(&self) {
        let mail = self.lock();
        self.set(DONE);
        if mail.caller_parked {
            self.to_caller.notify_one();
        }
    }

    /// Pool owner: stop the helper. No piece is posted or running, because
    /// `install` borrows the pool for as long as any `for_each` uses it.
    fn shut_down(&self) {
        let _mail = self.lock();
        self.set(SHUTDOWN);
        self.to_helper.notify_one();
    }
}

fn helper_main(registry: &Registry, index: usize) {
    let slot = &registry.slots[index];
    while let Some(piece) = slot.next() {
        piece.run();
        slot.finish();
    }
}
