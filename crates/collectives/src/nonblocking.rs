//! Nonblocking collectives: a per-rank communication thread that plays the
//! role of the GPU comm stream.
//!
//! Real FSDP hides collective latency by issuing all-gathers and
//! reduce-scatters on a dedicated stream while the compute stream keeps
//! working; the paper's throughput results (§IV-D, ~22 % exposed comm at
//! 64 nodes) depend on that overlap. This module gives the threaded engine
//! the same capability — and, since the PR-5 profile showed the *transport
//! of jobs to the comm thread* eating the overlap it bought, the hot path
//! is built so issuing a collective costs roughly one CAS:
//!
//! * jobs travel through a bounded **lock-free SPSC ring**
//!   ([`crate::spsc`]) instead of a mutex/condvar channel, with
//!   [`CommThread::submit_batch`] publishing a whole prefetch window with
//!   a single release store;
//! * groups are **registered once** ([`CommThread::register`] →
//!   [`CommGroup`]) so a job carries one `Arc` bump, not a full
//!   [`RankHandle`] clone per collective;
//! * input and output scratch come from a shared [`BufferPool`], so a
//!   warmed-up step allocates nothing on the comm path;
//! * a waiter that reaches an **unstarted** job *steals and runs it
//!   inline* (claim is one uncontended lock round-trip). On an
//!   oversubscribed core this converts the no-overlap-available case into
//!   exactly the blocking path — no handoff, no context switch — while
//!   truly concurrent hardware still gets the asynchronous pipeline;
//! * the worker is **lazy**: submissions publish quietly (no wakeup), so
//!   on a starved core the worker parks once and the whole step runs on
//!   the steal path with zero producer↔worker context switches. The
//!   worker is woken only when its help is needed — a waiter blocked on a
//!   non-head job, a ring full of retired jobs, or shutdown drain. On
//!   hardware with spare cores the first such wake keeps it draining the
//!   in-flight window concurrently, which is the overlap case;
//! * callers that stage their own input (padding a gradient unit into a
//!   pooled buffer) submit it **by value** ([`OwnedAsyncOp`],
//!   [`CommThread::submit_batch_owned`]) — copy parity with the blocking
//!   engine's scratch reuse.
//!
//! ## Why the async path is bit-identical to the blocking path
//!
//! Whoever executes a job — comm thread or stealing waiter — runs the
//! *exact same* collective implementations on the registered clone of the
//! caller's [`RankHandle`]: same deterministic rank-order reduction, same
//! checksum verification, same timeout/adaptive/sabotage state (those all
//! live behind `Arc`s shared by handle clones). Only *which thread blocks*
//! changes. Jobs execute strictly in submission order: the ring is FIFO,
//! the comm thread never starts job *k+1* before job *k* has completed
//! (a stolen job is awaited, not skipped), and a waiter can only steal the
//! oldest incomplete job (guarded by the completed-sequence counter). So
//! the cross-rank issue order of barriers is identical to the blocking
//! schedule and results match bit for bit.
//!
//! ## Failure semantics
//!
//! A collective that fails surfaces its [`CollectiveError`] from
//! [`CollectiveHandle::wait`]. A lost rank poisons the group exactly as in
//! the blocking path, so every queued and future job drains promptly with
//! `Lost` instead of hanging. Dropping a [`CommThread`] closes the ring
//! and detaches the worker, which still drains every queued job (keeping
//! the rank's barrier schedule aligned with its peers) before exiting; a
//! worker that dies abnormally fails its pending jobs with
//! `Lost(Poisoned)` instead of stranding their waiters.
//!
//! ## The comm contract
//!
//! The FSDP engine talks to its peers only through [`RankHandle`]'s
//! blocking verbs and this module. DESIGN.md §17 states the laws the two
//! share (FIFO completion, poison propagation, bounded quiesce,
//! checksum-verdict agreement, pooled-buffer steady state) and maps each
//! law to the unit test here or in `group.rs` that checks it.

use crate::barrier::RankLost;
use crate::group::RankHandle;
use crate::guard::CollectiveError;
use crate::pool::BufferPool;
use crate::spsc::{self, Producer, PushError};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

/// Ring capacity: deep enough that no realistic prefetch window ever
/// blocks on a full ring (the engine keeps ≤ prefetch_depth jobs alive).
const RING_CAPACITY: usize = 256;

/// Upper bound on pooled job cells. The pool self-sizes to the maximum
/// number of simultaneously outstanding cells (≤ ring capacity + live
/// handles); the cap is a safety bound above that, not a working limit.
const CELL_POOL_CAP: usize = RING_CAPACITY * 2;

/// Once this many retired jobs sit undrained in the ring, submission nudges
/// the lazily-parked worker awake so their `Arc`s come back to the cell
/// pool — one unpark per ~64 ops in the steal-dominated regime, instead of
/// letting retired cells pile up to a full ring.
const RECLAIM_WAKE_BACKLOG: u64 = 64;

/// One queued collective's operation, carrying its input buffer by value.
///
/// This is also the public *owned* submission type
/// ([`CommThread::submit_batch_owned`]): a caller that already stages its
/// input in a scratch buffer — e.g. padding a gradient unit — can take
/// that buffer from the comm thread's pool, fill it and hand it over
/// directly, skipping the defensive copy that the borrowed
/// [`AsyncOp`] path must make. The executor recycles the buffer into the
/// pool after the collective runs.
pub enum OwnedAsyncOp {
    /// All-gather of this rank's shard.
    AllGather(Vec<f32>),
    /// All-gather of `range` within a shared, immutable parameter store.
    /// Zero input copy: the job holds the store alive by `Arc` and reads
    /// the slice at execution time. The caller must not mutate the store
    /// until the job has been waited (the FSDP engine's gather phase
    /// guarantees this — parameters only change in the optimizer step,
    /// after every gather of the step completed).
    AllGatherShared(Arc<Vec<f32>>, std::ops::Range<usize>),
    /// Reduce-scatter of a full-length contribution.
    ReduceScatter(Vec<f32>),
    /// All-reduce, in place over the carried buffer.
    AllReduce(Vec<f32>),
}

use OwnedAsyncOp as Op;

impl Op {
    fn name(&self) -> &'static str {
        match self {
            Op::AllGather(_) | Op::AllGatherShared(..) => "all_gather",
            Op::ReduceScatter(_) => "reduce_scatter",
            Op::AllReduce(_) => "all_reduce",
        }
    }
}

/// A nonblocking collective to submit through [`CommThread::submit_batch`].
#[derive(Debug, Clone, Copy)]
pub enum AsyncOp<'a> {
    /// See [`CommThread::all_gather_async`].
    AllGather(&'a [f32]),
    /// See [`CommThread::reduce_scatter_async`].
    ReduceScatter(&'a [f32]),
    /// See [`CommThread::all_reduce_async`].
    AllReduce(&'a [f32]),
}

const PENDING: u8 = 0;
const DONE: u8 = 1;

/// Shared state of one in-flight job: the claimable op, the result slot
/// and the wakeup list. The op lives behind a mutex purely as a claim
/// token — `lock().take()` is one uncontended CAS, and exactly one of
/// {comm thread, stealing waiter} wins it.
struct JobCell {
    /// Issue-order sequence number (1-based) within this comm thread.
    seq: u64,
    /// The group the op runs on — registered once, shared by `Arc`.
    handle: Arc<RankHandle>,
    /// The operation; `None` once claimed by an executor.
    op: Mutex<Option<Op>>,
    /// `PENDING` → `DONE` once `result` is filled.
    state: AtomicU8,
    result: Mutex<Option<Result<Vec<f32>, CollectiveError>>>,
    /// Threads parked on completion (the waiter, and possibly the comm
    /// thread waiting out a stolen job before moving on).
    sleepers: Mutex<Vec<Thread>>,
    /// Completed-sequence counter shared with the comm thread (the
    /// steal-order guard).
    completed: Arc<AtomicU64>,
    /// The comm worker's thread handle, so a waiter that *cannot* steal
    /// (an older job is still pending) can wake the lazily-parked worker.
    worker: Thread,
    pool: Arc<BufferPool>,
}

impl JobCell {
    fn is_done(&self) -> bool {
        self.state.load(Ordering::Acquire) == DONE
    }

    /// Execute the op (if unclaimed) on the calling thread. Returns true
    /// if this call ran the job; false if another thread claimed it.
    fn try_execute(&self) -> bool {
        let Some(op) = self.op.lock().take() else {
            return false;
        };
        let result = match op {
            Op::AllGather(local) => {
                let mut out = self.pool.take(local.len() * self.handle.size());
                let r = self
                    .handle
                    .try_all_gather(&local, &mut out)
                    .map(|()| out)
                    .map_err(CollectiveError::from);
                self.pool.put(local);
                r
            }
            Op::AllGatherShared(buf, range) => {
                let local = &buf[range];
                let mut out = self.pool.take(local.len() * self.handle.size());
                self.handle
                    .try_all_gather(local, &mut out)
                    .map(|()| out)
                    .map_err(CollectiveError::from)
            }
            Op::ReduceScatter(buf) => {
                let mut out = self.pool.take(buf.len() / self.handle.size().max(1) + 1);
                let r = self.handle.try_reduce_scatter(&buf, &mut out).map(|()| out);
                self.pool.put(buf);
                r
            }
            Op::AllReduce(mut buf) => self.handle.try_all_reduce(&mut buf).map(move |()| buf),
        };
        self.complete(result);
        true
    }

    /// Publish the result, advance the completed-sequence counter and wake
    /// every sleeper.
    fn complete(&self, result: Result<Vec<f32>, CollectiveError>) {
        *self.result.lock() = Some(result);
        self.state.store(DONE, Ordering::Release);
        self.completed.store(self.seq, Ordering::Release);
        for t in self.sleepers.lock().drain(..) {
            t.unpark();
        }
    }

    /// Fail the job if nobody executed it (abnormal worker teardown).
    fn fail_if_unrun(&self) {
        if self.op.lock().take().is_some() {
            self.complete(Err(CollectiveError::Lost(RankLost::Poisoned)));
        }
    }

    /// Park until the job completes (no stealing — used by the comm
    /// thread to await a stolen job before starting the next one).
    fn wait_done(&self) {
        let mut spins = 0u32;
        while !self.is_done() {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
                continue;
            }
            self.sleepers.lock().push(std::thread::current());
            if self.is_done() {
                return; // completed between check and registration
            }
            std::thread::park();
        }
    }
}

/// An in-flight nonblocking collective. Obtain the result (or the failure)
/// with [`CollectiveHandle::wait`]; dropping the handle abandons the
/// result but the collective still runs to completion on the comm thread,
/// keeping the rank's barrier schedule aligned with its peers.
#[must_use = "an unawaited collective handle abandons its result"]
pub struct CollectiveHandle {
    cell: Arc<JobCell>,
    op: &'static str,
}

impl std::fmt::Debug for CollectiveHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectiveHandle")
            .field("op", &self.op)
            .field("seq", &self.cell.seq)
            .field("done", &self.cell.is_done())
            .finish()
    }
}

impl CollectiveHandle {
    /// Block until the collective completes and return its output buffer:
    /// the gathered vector (all-gather), this rank's owned chunk
    /// (reduce-scatter) or the fully reduced buffer (all-reduce). The
    /// buffer comes from the comm thread's [`BufferPool`]; hand it back
    /// via [`CommThread::recycle`] when done to keep the path
    /// allocation-free.
    ///
    /// If the job has not started yet and every earlier job of this comm
    /// thread has completed, the calling thread **claims and runs it
    /// inline** — semantically identical (same handle, same collective,
    /// same order), but with zero handoff cost when the comm thread is
    /// starved for CPU.
    ///
    /// On [`CollectiveError::Corrupt`] the collective *completed* (all
    /// barriers crossed, the group stays usable) but the data was garbage
    /// and is not returned — substitute a deterministic placeholder if the
    /// schedule must continue. On [`CollectiveError::Lost`] the group is
    /// poisoned. A comm thread that died surfaces as `Lost(Poisoned)`.
    pub fn wait(self) -> Result<Vec<f32>, CollectiveError> {
        let cell = &self.cell;
        if !cell.is_done() {
            // Steal only the oldest incomplete job: running job k while
            // the comm thread runs job k-1 would interleave two
            // collectives of the same rank. The engine waits handles in
            // issue order, so this is the common case, not the exception.
            if cell.completed.load(Ordering::Acquire) == cell.seq - 1 {
                cell.try_execute();
            } else {
                // an older job blocks the steal: wake the lazily-parked
                // worker to drive the queue up to (and through) this job.
                // The worker pops in ring order and awaits each job before
                // the next, so FIFO holds no matter who ends up running
                // which job.
                cell.worker.unpark();
            }
            cell.wait_done();
        }
        cell.result
            .lock()
            .take()
            .unwrap_or(Err(CollectiveError::Lost(RankLost::Poisoned)))
    }

    /// The operation this handle belongs to (for diagnostics).
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// Whether the collective has already completed (non-blocking probe).
    pub fn is_done(&self) -> bool {
        self.cell.is_done()
    }
}

impl Drop for CollectiveHandle {
    fn drop(&mut self) {
        // an abandoned-but-completed result goes back to the pool; an
        // abandoned pending job completes on the comm thread and its
        // buffer is recycled when the last JobCell reference drops
        if self.cell.is_done() {
            if let Some(Ok(buf)) = self.cell.result.lock().take() {
                self.cell.pool.put(buf);
            }
        }
    }
}

impl Drop for JobCell {
    fn drop(&mut self) {
        // recycle a result nobody consumed (handle dropped while pending)
        if let Some(Ok(buf)) = self.result.lock().take() {
            self.pool.put(buf);
        }
    }
}

/// A registered group: the comm thread's own clone of a [`RankHandle`],
/// shared into each job by `Arc` so submission never deep-clones handle
/// state. Obtain via [`CommThread::register`].
#[derive(Debug, Clone)]
pub struct CommGroup {
    handle: Arc<RankHandle>,
}

impl CommGroup {
    /// The underlying handle (same timeout/checksum/sabotage state as the
    /// handle that was registered).
    pub fn handle(&self) -> &RankHandle {
        &self.handle
    }
}

/// Producer-side job-cell pool counters: how many cells were requested,
/// how many were served by resetting a retired cell in place, and how many
/// had to be freshly allocated. In steady state `reuses` tracks `takes`
/// and `allocs` stays flat — the per-op `Arc<JobCell>` allocation is gone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellPoolStats {
    /// Job cells requested (one per submitted collective).
    pub takes: u64,
    /// Requests served by resetting a retired pooled cell.
    pub reuses: u64,
    /// Requests that allocated a fresh cell.
    pub allocs: u64,
}

/// Ensures pending jobs cannot strand their waiters if the worker dies
/// abnormally: on drop (normal exit *or* panic unwind) every job still in
/// the ring is failed with `Lost(Poisoned)`.
struct WorkerGuard {
    rx: spsc::Consumer<Arc<JobCell>>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        while let Some(job) = self.rx.pop() {
            job.fail_if_unrun();
        }
    }
}

/// A per-rank communication thread: the software twin of the GPU comm
/// stream. Jobs run strictly in submission order (FIFO), which is what
/// preserves the SPMD collective-ordering contract across ranks.
pub struct CommThread {
    /// SPSC producer side; `RefCell` keeps the type `!Sync` (one thread
    /// submits) while methods stay `&self`.
    tx: RefCell<Option<Producer<Arc<JobCell>>>>,
    worker: Option<JoinHandle<()>>,
    /// The worker's `Thread`, shared into every job for targeted wakeups.
    worker_thread: Thread,
    /// Issue-order sequence of the next job (1-based).
    next_seq: std::cell::Cell<u64>,
    /// Highest completed sequence (shared with every job).
    completed: Arc<AtomicU64>,
    /// Jobs the worker has popped *and released* — the producer's window
    /// into how many ring-held `Arc`s have come back to the cell pool.
    drained: Arc<AtomicU64>,
    pool: Arc<BufferPool>,
    /// LRU pool of job cells: one `Arc` per cell lives here permanently
    /// (up to [`CELL_POOL_CAP`]), ordered by last use. Because jobs retire
    /// in FIFO order, the front is the least-recently-used cell and frees
    /// first; a front cell that is uniquely owned again (handle dropped,
    /// ring slot drained) is reset in place instead of allocating.
    cells: RefCell<VecDeque<Arc<JobCell>>>,
    cell_takes: std::cell::Cell<u64>,
    cell_reuses: std::cell::Cell<u64>,
    cell_allocs: std::cell::Cell<u64>,
}

impl std::fmt::Debug for CommThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommThread")
            .field("issued", &(self.next_seq.get() - 1))
            .field("completed", &self.completed.load(Ordering::Relaxed))
            .finish()
    }
}

impl CommThread {
    /// Spawn the worker with a fresh buffer pool. One comm thread serves
    /// all of a rank's groups (world / shard / replica): register each
    /// once with [`CommThread::register`].
    pub fn spawn() -> Self {
        Self::spawn_with_pool(Arc::new(BufferPool::new()))
    }

    /// Spawn the worker over a caller-supplied [`BufferPool`] (shared
    /// pools let the engine recycle across subsystems).
    pub fn spawn_with_pool(pool: Arc<BufferPool>) -> Self {
        let (tx, rx) = spsc::ring::<Arc<JobCell>>(RING_CAPACITY);
        let drained = Arc::new(AtomicU64::new(0));
        let drained_w = Arc::clone(&drained);
        let worker = std::thread::Builder::new()
            .name("geofm-comm".into())
            .spawn(move || {
                let mut guard = WorkerGuard { rx };
                while let Some(job) = guard.rx.pop_wait() {
                    if !job.try_execute() {
                        // a waiter stole this job: await it so job k+1
                        // never starts before job k finishes (FIFO
                        // contract across the whole rank)
                        job.wait_done();
                    }
                    // release the ring's Arc before advertising the drain,
                    // so a producer that sees the new count can reuse the
                    // cell immediately
                    drop(job);
                    drained_w.fetch_add(1, Ordering::Release);
                }
            })
            .expect("cannot spawn comm thread");
        let worker_thread = worker.thread().clone();
        Self {
            tx: RefCell::new(Some(tx)),
            worker: Some(worker),
            worker_thread,
            next_seq: std::cell::Cell::new(1),
            completed: Arc::new(AtomicU64::new(0)),
            drained,
            pool,
            cells: RefCell::new(VecDeque::new()),
            cell_takes: std::cell::Cell::new(0),
            cell_reuses: std::cell::Cell::new(0),
            cell_allocs: std::cell::Cell::new(0),
        }
    }

    /// Register a group handle for nonblocking use. The one-time clone
    /// here is what each subsequent job shares by `Arc` — the per-job
    /// deep clone of the old design is gone.
    pub fn register(&self, handle: &RankHandle) -> CommGroup {
        CommGroup { handle: Arc::new(handle.clone()) }
    }

    /// The scratch pool used by this comm thread's collectives.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Hand a buffer obtained from [`CollectiveHandle::wait`] back for
    /// reuse.
    pub fn recycle(&self, buf: Vec<f32>) {
        self.pool.put(buf);
    }

    fn make_cell(&self, group: &CommGroup, op: Op) -> Arc<JobCell> {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        self.cell_takes.set(self.cell_takes.get() + 1);
        // In the steal-dominated regime the worker stays parked and
        // retired cells pile up in the ring; nudge it awake once the
        // backlog is deep enough that its Arcs are worth reclaiming.
        if (seq - 1).saturating_sub(self.drained.load(Ordering::Acquire)) >= RECLAIM_WAKE_BACKLOG {
            self.worker_thread.unpark();
        }
        let mut cells = self.cells.borrow_mut();
        // The front is the least-recently-used cell (jobs retire in FIFO
        // order), so it frees first. `Arc::get_mut` is both the uniqueness
        // check and the synchronization with the releasing decrements of
        // the handle's, ring's and worker's drops — a uniquely-owned cell
        // is safe to reset with plain stores.
        let front_free = cells.front_mut().is_some_and(|c| Arc::get_mut(c).is_some());
        if front_free {
            let mut cached = cells.pop_front().expect("front exists");
            {
                let cell = Arc::get_mut(&mut cached).expect("sole owner");
                cell.seq = seq;
                cell.handle = Arc::clone(&group.handle);
                *cell.op.get_mut() = Some(op);
                // recycle a result nobody consumed before the reset
                if let Some(Ok(buf)) = cell.result.get_mut().take() {
                    self.pool.put(buf);
                }
                cell.sleepers.get_mut().clear();
                *cell.state.get_mut() = PENDING;
            }
            self.cell_reuses.set(self.cell_reuses.get() + 1);
            let out = Arc::clone(&cached);
            cells.push_back(cached);
            return out;
        }
        self.cell_allocs.set(self.cell_allocs.get() + 1);
        let cell = Arc::new(JobCell {
            seq,
            handle: Arc::clone(&group.handle),
            op: Mutex::new(Some(op)),
            state: AtomicU8::new(PENDING),
            result: Mutex::new(None),
            sleepers: Mutex::new(Vec::new()),
            completed: Arc::clone(&self.completed),
            worker: self.worker_thread.clone(),
            pool: Arc::clone(&self.pool),
        });
        if cells.len() < CELL_POOL_CAP {
            cells.push_back(Arc::clone(&cell));
        }
        cell
    }

    /// Job-cell pool counters — the microbench's view of whether the
    /// per-op `Arc<JobCell>` allocation has been pooled away.
    pub fn cell_stats(&self) -> CellPoolStats {
        CellPoolStats {
            takes: self.cell_takes.get(),
            reuses: self.cell_reuses.get(),
            allocs: self.cell_allocs.get(),
        }
    }

    /// Jobs submitted but not yet completed (successfully or with error).
    pub fn in_flight(&self) -> u64 {
        (self.next_seq.get() - 1).saturating_sub(self.completed.load(Ordering::Acquire))
    }

    /// Drain every in-flight nonblocking collective: block until all
    /// submitted jobs have completed — successfully or with a structured
    /// error. Results stay claimable through their handles afterwards.
    ///
    /// This is the per-rank half of the elastic drain protocol: before a
    /// reshard, every surviving rank quiesces its comm thread so no
    /// collective from the old world is still running when groups are
    /// torn down. Termination is bounded by the collectives themselves
    /// (timeout/poison turns a wedged peer into an error, never a hang).
    pub fn quiesce(&self) {
        let target = self.next_seq.get() - 1;
        let mut spins = 0u32;
        while self.completed.load(Ordering::Acquire) < target {
            // the lazily-parked worker may be the only executor left
            self.worker_thread.unpark();
            spins = spins.wrapping_add(1);
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    fn submit(&self, group: &CommGroup, op: Op) -> CollectiveHandle {
        let name = op.name();
        let cell = self.make_cell(group, op);
        let mut tx = self.tx.borrow_mut();
        if let Some(tx) = tx.as_mut() {
            // quiet publish: the worker is a fallback executor, not the
            // hot path — waiters steal and run jobs inline, so waking it
            // per push would only buy a context switch. It is woken when
            // a waiter actually needs it (non-head wait), when the ring
            // fills with retired jobs, or at shutdown.
            match tx.push_quiet(Arc::clone(&cell)) {
                Ok(()) => {}
                Err(PushError::Full(job)) => {
                    // ring full (usually retired jobs nobody drained):
                    // wake the worker to drain, then block for a slot
                    tx.wake_consumer();
                    if let Err(PushError::Disconnected(job) | PushError::Full(job)) =
                        tx.push_wait(job)
                    {
                        job.fail_if_unrun();
                    }
                }
                // worker died: fail the job so wait() reports Lost
                Err(PushError::Disconnected(job)) => {
                    job.fail_if_unrun();
                }
            }
        } else {
            cell.fail_if_unrun();
        }
        CollectiveHandle { cell, op: name }
    }

    /// Submit a whole batch of collectives on one group, publishing them
    /// to the comm thread with a single release store — the cheap way to
    /// fill a prefetch window. Handles come back in submission order.
    pub fn submit_batch(&self, group: &CommGroup, ops: &[AsyncOp<'_>]) -> Vec<CollectiveHandle> {
        self.submit_cells(
            ops.iter()
                .map(|op| {
                    let op = match op {
                        AsyncOp::AllGather(local) => Op::AllGather(self.pool.take_copy(local)),
                        AsyncOp::ReduceScatter(buf) => Op::ReduceScatter(self.pool.take_copy(buf)),
                        AsyncOp::AllReduce(buf) => Op::AllReduce(self.pool.take_copy(buf)),
                    };
                    self.make_cell(group, op)
                })
                .collect(),
        )
    }

    /// [`CommThread::submit_batch`] for callers that already own their
    /// staged input buffers (ideally taken from [`CommThread::pool`]): the
    /// buffer rides into the job as-is — no defensive copy — and is
    /// recycled into the pool once the collective has run.
    pub fn submit_batch_owned(
        &self,
        group: &CommGroup,
        ops: Vec<OwnedAsyncOp>,
    ) -> Vec<CollectiveHandle> {
        self.submit_cells(ops.into_iter().map(|op| self.make_cell(group, op)).collect())
    }

    fn submit_cells(&self, cells: Vec<Arc<JobCell>>) -> Vec<CollectiveHandle> {
        let handles: Vec<CollectiveHandle> = cells
            .iter()
            .map(|cell| CollectiveHandle {
                cell: Arc::clone(cell),
                op: cell.op.lock().as_ref().map_or("collective", Op::name),
            })
            .collect();
        let mut tx = self.tx.borrow_mut();
        if let Some(tx) = tx.as_mut() {
            // quiet publish — see `submit` for the lazy-worker rationale
            let (_, mut overflow) = tx.push_batch_quiet(cells);
            // an overflowing window falls back to blocking pushes (after
            // waking the worker to drain); a dead worker fails the
            // remainder so waiters see Lost
            if !overflow.is_empty() {
                tx.wake_consumer();
            }
            while let Some(job) = overflow.first().cloned() {
                match tx.push_wait(job) {
                    Ok(()) => {
                        overflow.remove(0);
                    }
                    Err(_) => {
                        for job in overflow.drain(..) {
                            job.fail_if_unrun();
                        }
                    }
                }
            }
        } else {
            for h in &handles {
                h.cell.fail_if_unrun();
            }
        }
        handles
    }

    /// Nonblocking [`RankHandle::try_all_gather`] on the registered group:
    /// gathers `local` from every rank; `wait` yields the concatenation in
    /// rank order.
    pub fn all_gather_async(&self, group: &CommGroup, local: &[f32]) -> CollectiveHandle {
        self.submit(group, Op::AllGather(self.pool.take_copy(local)))
    }

    /// Zero-copy [`CommThread::all_gather_async`] over a shared parameter
    /// store — see [`OwnedAsyncOp::AllGatherShared`] for the no-mutation
    /// contract.
    pub fn all_gather_async_shared(
        &self,
        group: &CommGroup,
        store: &Arc<Vec<f32>>,
        range: std::ops::Range<usize>,
    ) -> CollectiveHandle {
        self.submit(group, Op::AllGatherShared(Arc::clone(store), range))
    }

    /// Nonblocking [`RankHandle::try_reduce_scatter`]: `wait` yields this
    /// rank's owned chunk of the sum. Runs on the same checksummed path as
    /// the blocking collective (sabotage injection included).
    pub fn reduce_scatter_async(&self, group: &CommGroup, buf: &[f32]) -> CollectiveHandle {
        self.submit(group, Op::ReduceScatter(self.pool.take_copy(buf)))
    }

    /// [`CommThread::reduce_scatter_async`] over a caller-owned buffer
    /// (ideally from [`CommThread::pool`]) — no input copy; the buffer is
    /// recycled after the collective runs.
    pub fn reduce_scatter_async_owned(&self, group: &CommGroup, buf: Vec<f32>) -> CollectiveHandle {
        self.submit(group, Op::ReduceScatter(buf))
    }

    /// Nonblocking [`RankHandle::try_all_reduce`]: `wait` yields the fully
    /// reduced buffer.
    pub fn all_reduce_async(&self, group: &CommGroup, buf: &[f32]) -> CollectiveHandle {
        self.submit(group, Op::AllReduce(self.pool.take_copy(buf)))
    }

    /// Close the queue and wait for the worker to drain. Only safe when no
    /// peer is wedged (tests); the `Drop` path detaches instead.
    pub fn join(mut self) {
        self.tx.borrow_mut().take();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

impl Drop for CommThread {
    fn drop(&mut self) {
        // close the queue; detach the worker (see module docs) — it still
        // drains every queued job before exiting
        self.tx.borrow_mut().take();
        drop(self.worker.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::Group;
    use std::time::Duration;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn async_all_reduce_matches_blocking() {
        let handles = Group::create(4);
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    let data: Vec<f32> = (0..13).map(|i| (i * (h.rank() + 1)) as f32).collect();
                    let mut blocking = data.clone();
                    h.try_all_reduce(&mut blocking).unwrap();
                    let from_async = comm.all_reduce_async(&g, &data).wait().unwrap();
                    assert_eq!(bits(&blocking), bits(&from_async));
                });
            }
        });
    }

    #[test]
    fn async_gather_and_scatter_match_blocking() {
        let handles = Group::create(3);
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    let local = vec![h.rank() as f32 + 0.5; 4];
                    let mut blocking = Vec::new();
                    h.try_all_gather(&local, &mut blocking).unwrap();
                    let gathered = comm.all_gather_async(&g, &local).wait().unwrap();
                    assert_eq!(bits(&blocking), bits(&gathered));

                    let buf: Vec<f32> = (0..10).map(|i| (i + h.rank() * 10) as f32).collect();
                    let mut rs = Vec::new();
                    h.try_reduce_scatter(&buf, &mut rs).unwrap();
                    let chunk = comm.reduce_scatter_async(&g, &buf).wait().unwrap();
                    assert_eq!(bits(&rs), bits(&chunk));
                });
            }
        });
    }

    #[test]
    fn pipelined_submissions_run_in_fifo_order() {
        // several collectives in flight at once: FIFO execution keeps every
        // rank's barrier order aligned, and results land in issue order
        let handles = Group::create(4);
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    let pending: Vec<CollectiveHandle> = (0..8)
                        .map(|round| {
                            let buf = vec![(h.rank() + round) as f32; 6];
                            comm.all_reduce_async(&g, &buf)
                        })
                        .collect();
                    for (round, handle) in pending.into_iter().enumerate() {
                        let out = handle.wait().unwrap();
                        let expect = (0..4).map(|r| (r + round) as f32).sum::<f32>();
                        assert!(out.iter().all(|&v| v == expect), "round {round}: {out:?}");
                    }
                });
            }
        });
    }

    #[test]
    fn batched_submission_matches_blocking() {
        // a whole window published at once (one release store) must be
        // indistinguishable from one-at-a-time submission
        let handles = Group::create(4);
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    let inputs: Vec<Vec<f32>> =
                        (0..6).map(|r| vec![(h.rank() * 10 + r) as f32; 5]).collect();
                    let mut expect = Vec::new();
                    for inp in &inputs {
                        let mut b = inp.clone();
                        h.try_all_reduce(&mut b).unwrap();
                        expect.push(b);
                    }
                    let ops: Vec<AsyncOp> =
                        inputs.iter().map(|i| AsyncOp::AllReduce(i)).collect();
                    let handles = comm.submit_batch(&g, &ops);
                    for (i, hd) in handles.into_iter().enumerate() {
                        assert_eq!(bits(&expect[i]), bits(&hd.wait().unwrap()));
                    }
                });
            }
        });
    }

    #[test]
    fn handles_redeemed_back_to_front_keep_issue_order() {
        // waiting on the newest handle first cannot steal (older jobs are
        // still pending), so the waiter wakes the lazily-parked worker,
        // which drains the queue in issue order; every result must still
        // match its blocking twin bit for bit
        const OPS: usize = 9;
        let handles = Group::create(2);
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    let input = |i: usize| -> Vec<f32> {
                        (0..4 + i % 3).map(|j| (h.rank() * 100 + i * 7 + j) as f32).collect()
                    };
                    let expect: Vec<Vec<f32>> = (0..OPS)
                        .map(|i| {
                            let mut out = input(i);
                            match i % 3 {
                                0 => h.try_all_reduce(&mut out).unwrap(),
                                1 => h.try_all_gather(&input(i), &mut out).unwrap(),
                                _ => h.try_reduce_scatter(&input(i), &mut out).unwrap(),
                            }
                            out
                        })
                        .collect();
                    let pending: Vec<CollectiveHandle> = (0..OPS)
                        .map(|i| match i % 3 {
                            0 => comm.all_reduce_async(&g, &input(i)),
                            1 => comm.all_gather_async(&g, &input(i)),
                            _ => comm.reduce_scatter_async(&g, &input(i)),
                        })
                        .collect();
                    for (i, hd) in pending.into_iter().enumerate().rev() {
                        assert_eq!(bits(&hd.wait().unwrap()), bits(&expect[i]), "op {i}");
                    }
                });
            }
        });
    }

    #[test]
    fn explicit_poison_fails_already_submitted_jobs() {
        // no timeout is configured, so only rank 0's poison can release
        // its peers' jobs, all submitted before the poison
        let handles = Group::create(3);
        let submitted = std::sync::Barrier::new(3);
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for h in handles {
                let submitted = &submitted;
                s.spawn(move || {
                    if h.rank() == 0 {
                        submitted.wait();
                        h.poison();
                        return;
                    }
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    let pending = [
                        comm.all_reduce_async(&g, &[1.0, 2.0]),
                        comm.all_gather_async(&g, &[3.0]),
                        comm.reduce_scatter_async(&g, &[4.0; 6]),
                    ];
                    submitted.wait();
                    for hd in pending {
                        let r = hd.wait();
                        assert!(matches!(r, Err(CollectiveError::Lost(_))), "got {r:?}");
                    }
                    comm.quiesce();
                    assert_eq!(comm.in_flight(), 0);
                });
            }
        });
        assert!(start.elapsed() < Duration::from_secs(10), "poison must release peers promptly");
    }

    #[test]
    fn dead_rank_fails_async_collectives_without_hanging() {
        let handles = Group::create(3);
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for h in handles.into_iter().take(2) {
                s.spawn(move || {
                    let h = h.with_timeout(Some(Duration::from_millis(100)));
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    let r = comm.all_reduce_async(&g, &[1.0f32; 8]).wait();
                    assert!(matches!(r, Err(CollectiveError::Lost(_))), "got {r:?}");
                });
            }
        });
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn corrupt_reduce_surfaces_from_wait_and_group_stays_usable() {
        let handles = Group::create(2);
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    let h = h.with_checksums(true);
                    if h.rank() == 0 {
                        h.arm_bitflip(9);
                    }
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    let r = comm.all_reduce_async(&g, &[1.0f32; 16]).wait();
                    assert!(matches!(r, Err(CollectiveError::Corrupt(_))), "got {r:?}");
                    // detection was in-band: the next async collective works
                    let again = comm.all_reduce_async(&g, &[2.0f32; 16]).wait().unwrap();
                    assert!(again.iter().all(|&v| v == 4.0));
                });
            }
        });
    }

    #[test]
    fn abandoned_handle_still_completes_the_collective() {
        // rank 0 drops its handle; the collective must still run on its
        // comm thread so rank 1's matching call completes
        let handles = Group::create(2);
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    let h = h.with_timeout(Some(Duration::from_secs(5)));
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    let first = comm.all_reduce_async(&g, &[1.0f32; 4]);
                    if h.rank() == 0 {
                        drop(first);
                    } else {
                        assert!(first.wait().unwrap().iter().all(|&v| v == 2.0));
                    }
                    // both ranks can still collectivise afterwards
                    let second = comm.all_reduce_async(&g, &[3.0f32; 4]).wait().unwrap();
                    assert!(second.iter().all(|&v| v == 6.0));
                    comm.join();
                });
            }
        });
    }

    #[test]
    fn job_cells_are_pooled_in_steady_state() {
        // the per-op Arc<JobCell> allocation must disappear once the pool
        // is warm: after the ring has cycled once, every take is a reuse
        let handles = Group::create(2);
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    // warm up past one full ring cycle so retired cells
                    // have drained back to the pool at least once
                    for _ in 0..300 {
                        let out = comm.all_reduce_async(&g, &[1.0f32; 8]).wait().unwrap();
                        comm.recycle(out);
                    }
                    let before = comm.cell_stats();
                    for _ in 0..400 {
                        let out = comm.all_reduce_async(&g, &[1.0f32; 8]).wait().unwrap();
                        comm.recycle(out);
                    }
                    let after = comm.cell_stats();
                    assert_eq!(after.takes - before.takes, 400);
                    let new_allocs = after.allocs - before.allocs;
                    assert!(
                        new_allocs <= 50,
                        "steady state must reuse job cells, allocated {new_allocs}/400"
                    );
                    assert!(after.reuses - before.reuses >= 350);
                });
            }
        });
    }

    #[test]
    fn quiesce_drains_all_inflight_jobs() {
        // a burst of unawaited collectives, then quiesce: every job must
        // be complete (in_flight == 0) and the results still claimable
        let handles = Group::create(2);
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    let pending: Vec<CollectiveHandle> = (0..5)
                        .map(|round| comm.all_reduce_async(&g, &[round as f32; 4]))
                        .collect();
                    comm.quiesce();
                    assert_eq!(comm.in_flight(), 0);
                    for (round, hd) in pending.into_iter().enumerate() {
                        assert!(hd.is_done(), "round {round} not done after quiesce");
                        let out = hd.wait().unwrap();
                        assert!(out.iter().all(|&v| v == 2.0 * round as f32), "{out:?}");
                    }
                });
            }
        });
    }

    #[test]
    fn blocking_verbs_and_barrier_work_after_quiesce() {
        let handles = Group::create(2);
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    let pending: Vec<CollectiveHandle> = (0..3)
                        .map(|round| comm.all_reduce_async(&g, &[round as f32; 4]))
                        .collect();
                    comm.quiesce();
                    let mut buf = vec![h.rank() as f32 + 1.0; 4];
                    h.try_all_reduce(&mut buf).unwrap();
                    assert_eq!(buf, vec![3.0; 4]);
                    let mut out = Vec::new();
                    h.try_all_gather(&[h.rank() as f32], &mut out).unwrap();
                    assert_eq!(out, vec![0.0, 1.0]);
                    h.try_reduce_scatter(&[1.0; 4], &mut out).unwrap();
                    assert_eq!(out, vec![2.0; 2]);
                    h.try_barrier().unwrap();
                    // drained results stay claimable, and the comm thread
                    // still takes new work
                    for (round, hd) in pending.into_iter().enumerate() {
                        assert_eq!(hd.wait().unwrap(), vec![2.0 * round as f32; 4]);
                    }
                    let again = comm.all_reduce_async(&g, &[5.0; 2]).wait().unwrap();
                    assert_eq!(again, vec![10.0; 2]);
                });
            }
        });
    }

    #[test]
    fn quiesce_after_peer_loss_terminates_with_errors() {
        // quiesce must never hang on a dead peer: the collectives time
        // out, poison the group, and every job completes with Lost
        let handles = Group::create(3);
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for h in handles.into_iter().take(2) {
                s.spawn(move || {
                    let h = h.with_timeout(Some(Duration::from_millis(100)));
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    let pending: Vec<CollectiveHandle> =
                        (0..4).map(|_| comm.all_reduce_async(&g, &[1.0f32; 8])).collect();
                    comm.quiesce();
                    assert_eq!(comm.in_flight(), 0);
                    for hd in pending {
                        assert!(matches!(hd.wait(), Err(CollectiveError::Lost(_))));
                    }
                });
            }
        });
        assert!(start.elapsed() < Duration::from_secs(30), "quiesce must not hang");
    }

    #[test]
    fn steady_state_collectives_allocate_nothing() {
        // after one warmup round the pool must serve every take
        let handles = Group::create(2);
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    let comm = CommThread::spawn();
                    let g = comm.register(&h);
                    for _ in 0..3 {
                        let out = comm.all_reduce_async(&g, &[1.0f32; 32]).wait().unwrap();
                        comm.recycle(out);
                    }
                    let before = comm.pool().stats().allocs;
                    for _ in 0..50 {
                        let out = comm.all_reduce_async(&g, &[1.0f32; 32]).wait().unwrap();
                        comm.recycle(out);
                    }
                    let after = comm.pool().stats().allocs;
                    assert_eq!(before, after, "steady-state all-reduce must not allocate");
                });
            }
        });
    }
}
