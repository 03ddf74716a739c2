//! The fault-tolerant streaming ingest plane.
//!
//! [`IngestPlane`] feeds FSDP ranks batches from a [`ShardStore`] in a
//! deterministic seeded shuffle order, defending every read:
//!
//! * **CRC verification** — a record whose checksum mismatches is never
//!   consumed; it is retried with exponential backoff and, if the rot is
//!   persistent, quarantined.
//! * **EWMA timeouts + hedged reads** — each read's latency feeds an
//!   EWMA; a read overrunning `multiplier ×` the EWMA (floored) gets a
//!   hedged second read racing the straggler, and the first finisher
//!   wins.
//! * **Quarantine-and-skip degradation** — records that are definitively
//!   unobtainable (persistent CRC failure, missing/truncated shard) are
//!   quarantined: their batch slots are dropped *in place* and the run
//!   continues over the survivors. The epoch order is a permutation of
//!   **all** records, independent of quarantine, so a faulted run is
//!   bit-identical to a clean run handed the same quarantine set up
//!   front — the contract the integrity guard established for steps,
//!   extended to records.
//!
//! Per rank, a `StreamingLoader` prefetches batches on a background
//! thread over a bounded channel (`prefetch_depth` = 2 ⇒ double
//! buffering); [`IngestPlane::next_batch`] keeps one loader per rank and
//! rebuilds it whenever a restart, rollback or elastic reshard makes the
//! requested `(step, world)` discontiguous — batch *content* depends
//! only on `(step, rank, world)`, never on prefetch state.

use crate::shard::RawRecord;
use crate::store::{ReadError, ShardStore, StoreMeta};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use geofm_resilience::{DataReport, RecordId};
use geofm_tensor::{Tensor, TensorRng};
use geofm_telemetry::{Stopwatch, Telemetry};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Defense-layer knobs. [`DefenseConfig::default`] turns everything on;
/// [`DefenseConfig::off`] is the undefended negative control (consume
/// whatever the store returns, wait however long it takes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseConfig {
    /// Verify per-record CRCs on every read; mismatches are retried and
    /// eventually quarantined, never consumed.
    pub verify_crc: bool,
    /// Retries after a checksum mismatch before quarantining.
    pub max_retries: u32,
    /// Base backoff after a failed read; doubles per retry.
    pub retry_backoff: Duration,
    /// Dispatch a hedged second read when a read overruns the EWMA
    /// timeout.
    pub hedge: bool,
    /// Timeout floor — hedges never fire faster than this.
    pub timeout_floor: Duration,
    /// Timeout = `max(floor, multiplier × EWMA read latency)`.
    pub timeout_multiplier: f64,
    /// Reads observed before the EWMA is trusted (floor applies before).
    pub warmup_reads: u64,
    /// Read-pool worker threads serving primary + hedged reads.
    pub pool_workers: usize,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        Self {
            verify_crc: true,
            max_retries: 2,
            retry_backoff: Duration::from_micros(200),
            hedge: true,
            timeout_floor: Duration::from_millis(15),
            timeout_multiplier: 8.0,
            warmup_reads: 8,
            pool_workers: 4,
        }
    }
}

impl DefenseConfig {
    /// Every defense disabled: reads are trusted and waited on forever.
    /// The negative control for chaos suites and the `figW` sweep.
    pub fn off() -> Self {
        Self { verify_crc: false, max_retries: 0, hedge: false, ..Self::default() }
    }
}

/// Configuration of an [`IngestPlane`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Global batch size; each rank receives its contiguous slice
    /// (`rank·B/world .. (rank+1)·B/world`) of the step's global slots.
    pub global_batch: usize,
    /// Shuffle seed. Each epoch reshuffles deterministically.
    pub seed: u64,
    /// Bounded prefetch depth per rank (2 = double buffering).
    pub prefetch_depth: usize,
    /// Defense-layer knobs.
    pub defense: DefenseConfig,
    /// Records to treat as quarantined from step 0 — how a recovery run
    /// reproduces a faulted run bit-identically.
    pub quarantine: BTreeSet<RecordId>,
}

impl StreamConfig {
    /// Defaults: double-buffered prefetch, all defenses on, nothing
    /// pre-quarantined.
    pub fn new(global_batch: usize, seed: u64) -> Self {
        Self {
            global_batch,
            seed,
            prefetch_depth: 2,
            defense: DefenseConfig::default(),
            quarantine: BTreeSet::new(),
        }
    }
}

/// One rank's slice of one step's global batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Step this batch feeds.
    pub step: usize,
    /// `[rows, record_len]` features; `rows` shrinks when slots dropped.
    pub images: Tensor,
    /// Labels for the surviving rows.
    pub labels: Vec<usize>,
    /// Slots dropped because their record is quarantined.
    pub dropped: usize,
}

/// Hard ingest failure — degradation exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// Every slot of the rank's slice was quarantined; there is nothing
    /// left to train on this step.
    EmptyBatch {
        /// Step whose batch came up empty.
        step: usize,
        /// Rank whose slice was empty.
        rank: usize,
        /// World size at the time.
        world: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyBatch { step, rank, world } => write!(
                f,
                "ingest failed: every slot of rank {rank}/{world}'s batch at step {step} is quarantined"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// Why a defended read gave up on a record.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ReadFailure {
    /// The store cannot produce the bytes at all.
    Structural(ReadError),
    /// Checksum mismatch survived every retry — persistent rot.
    Corrupt,
}

#[derive(Default)]
struct IngestStats {
    records_read: AtomicU64,
    bytes_read: AtomicU64,
    retries: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    dropped_rows: AtomicU64,
    prefetch_stalls: AtomicU64,
    wait_ns_max: AtomicU64,
    queue_depth_max: AtomicI64,
}

impl IngestStats {
    fn max_u64(cell: &AtomicU64, v: u64) {
        cell.fetch_max(v, Ordering::Relaxed);
    }
}

/// Per-read EWMA latency clock driving hedge timeouts.
struct ReadClock {
    ewma_ns: AtomicU64, // f64 bits
    observed: AtomicU64,
}

impl ReadClock {
    fn new() -> Self {
        Self { ewma_ns: AtomicU64::new(0f64.to_bits()), observed: AtomicU64::new(0) }
    }

    fn observe(&self, latency: Duration) {
        let sample = latency.as_nanos() as f64;
        let mut cur = self.ewma_ns.load(Ordering::Relaxed);
        loop {
            let prev = f64::from_bits(cur);
            let next = if self.observed.load(Ordering::Relaxed) == 0 {
                sample
            } else {
                0.8 * prev + 0.2 * sample
            };
            match self.ewma_ns.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.observed.fetch_add(1, Ordering::Relaxed);
    }

    fn timeout(&self, d: &DefenseConfig) -> Duration {
        if self.observed.load(Ordering::Relaxed) < d.warmup_reads {
            return d.timeout_floor;
        }
        let ewma = f64::from_bits(self.ewma_ns.load(Ordering::Relaxed));
        let scaled = Duration::from_nanos((ewma * d.timeout_multiplier) as u64);
        scaled.max(d.timeout_floor)
    }
}

struct ReadJob {
    id: RecordId,
    attempt: u8,
    reply: Sender<(u8, Result<RawRecord, ReadError>, Duration)>,
}

/// Shared worker pool executing (possibly hedged) store reads.
struct ReadPool {
    tx: Sender<ReadJob>,
    workers: Vec<JoinHandle<()>>,
}

impl ReadPool {
    fn new(store: Arc<dyn ShardStore>, workers: usize) -> Self {
        let (tx, rx) = crossbeam::channel::unbounded::<ReadJob>();
        let workers = (0..workers.max(1))
            .map(|_| {
                let rx = rx.clone();
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let t0 = Instant::now();
                        let res = store.read(job.id);
                        // receiver gone = caller took the other attempt
                        let _ = job.reply.send((job.attempt, res, t0.elapsed()));
                    }
                })
            })
            .collect();
        Self { tx, workers }
    }

    fn submit(&self, job: ReadJob) {
        assert!(
            self.tx.send(job).is_ok(),
            "read pool workers alive while the plane lives"
        );
    }
}

impl Drop for ReadPool {
    fn drop(&mut self) {
        let (dead_tx, _dead_rx) = crossbeam::channel::bounded(1);
        drop(std::mem::replace(&mut self.tx, dead_tx));
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Everything shared between consumers and prefetch threads.
struct PlaneCore {
    cfg: StreamConfig,
    meta: StoreMeta,
    pool: ReadPool,
    clock: ReadClock,
    stats: IngestStats,
    /// Quarantined records (pre-seeded from the config) + the shards
    /// condemned wholesale. BTreeSets so reports come out sorted.
    quarantine: Mutex<(BTreeSet<RecordId>, BTreeSet<usize>)>,
    /// Cache of the last epoch permutation computed.
    perm: Mutex<Option<(usize, Arc<Vec<usize>>)>>,
    telemetry: Option<Arc<Telemetry>>,
}

impl PlaneCore {
    fn counter(&self, name: &'static str, by: u64) {
        if let Some(tel) = &self.telemetry {
            tel.metrics.counter(name).inc(by);
        }
    }

    fn epoch_perm(&self, epoch: usize) -> Arc<Vec<usize>> {
        let mut cache = self.perm.lock().unwrap();
        if let Some((e, p)) = cache.as_ref() {
            if *e == epoch {
                return Arc::clone(p);
            }
        }
        let n = self.meta.total_records();
        let salt = (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = TensorRng::seed_from(self.cfg.seed ^ salt);
        let p = Arc::new(rng.permutation(n));
        *cache = Some((epoch, Arc::clone(&p)));
        p
    }

    fn is_quarantined(&self, id: RecordId) -> bool {
        let q = self.quarantine.lock().unwrap();
        q.0.contains(&id)
    }

    /// Condemn a record — or, for shard-fatal failures, its whole shard
    /// (every read of it fails identically, so quarantining all its
    /// records keeps the set independent of discovery order).
    fn quarantine(&self, id: RecordId, why: &ReadFailure) {
        let mut q = self.quarantine.lock().unwrap();
        let shard_fatal = matches!(why, ReadFailure::Structural(e) if e.shard_fatal());
        if shard_fatal {
            if q.1.insert(id.shard) {
                self.counter("data.quarantine.shards", 1);
            }
            for record in 0..self.meta.records_per_shard {
                if q.0.insert(RecordId { shard: id.shard, record }) {
                    self.counter("data.quarantine.records", 1);
                }
            }
        } else if q.0.insert(id) {
            self.counter("data.quarantine.records", 1);
        }
    }

    /// One read through the pool, hedged when the EWMA timeout trips.
    fn pool_read(&self, id: RecordId) -> (Result<RawRecord, ReadError>, Duration) {
        let d = &self.cfg.defense;
        let (reply_tx, reply_rx) = bounded(2);
        self.pool.submit(ReadJob { id, attempt: 1, reply: reply_tx.clone() });
        if !d.hedge {
            drop(reply_tx);
            let (_, res, lat) = reply_rx.recv().expect("pool worker replies");
            return (res, lat);
        }
        match reply_rx.recv_timeout(self.clock.timeout(d)) {
            Ok((_, res, lat)) => {
                drop(reply_tx);
                (res, lat)
            }
            Err(RecvTimeoutError::Timeout) => {
                self.stats.hedges.fetch_add(1, Ordering::Relaxed);
                self.counter("data.hedges", 1);
                self.pool.submit(ReadJob { id, attempt: 2, reply: reply_tx });
                let (attempt, res, lat) =
                    reply_rx.recv().expect("one of the two reads completes");
                if attempt == 2 {
                    self.stats.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    self.counter("data.hedge_wins", 1);
                }
                (res, lat)
            }
            Err(RecvTimeoutError::Disconnected) => {
                unreachable!("reply sender held until a verdict arrives")
            }
        }
    }

    /// CRC-verified read with retry/backoff; `Err` is a quarantine
    /// verdict, never silently-consumed corruption (unless verification
    /// is explicitly disabled).
    fn defended_read(&self, id: RecordId) -> Result<RawRecord, ReadFailure> {
        let d = self.cfg.defense;
        let mut attempt = 0u32;
        loop {
            let (res, latency) = self.pool_read(id);
            match res {
                Err(e) => return Err(ReadFailure::Structural(e)),
                Ok(raw) => {
                    self.clock.observe(latency);
                    if !d.verify_crc || raw.intact() {
                        return Ok(raw);
                    }
                    if attempt >= d.max_retries {
                        return Err(ReadFailure::Corrupt);
                    }
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    self.counter("data.retries", 1);
                    std::thread::sleep(d.retry_backoff * 2u32.pow(attempt.min(16)));
                    attempt += 1;
                }
            }
        }
    }

    /// Assemble `(step, rank, world)`'s batch. Pure in the deterministic
    /// sense: content depends only on the arguments, the seed and the
    /// (timing-independent) quarantine set.
    fn fetch_batch(&self, step: usize, rank: usize, world: usize) -> Result<Batch, IngestError> {
        assert!(world > 0 && rank < world, "rank {rank} outside world {world}");
        let b = self.cfg.global_batch;
        let n = self.meta.total_records();
        let batches_per_epoch = n / b;
        let perm = self.epoch_perm(step / batches_per_epoch);
        let base = (step % batches_per_epoch) * b;
        let lo = base + rank * b / world;
        let hi = base + (rank + 1) * b / world;
        let mut rows: Vec<RawRecord> = Vec::with_capacity(hi - lo);
        let mut dropped = 0usize;
        for slot in lo..hi {
            let id = self.meta.locate(perm[slot]);
            if self.is_quarantined(id) {
                dropped += 1;
                continue;
            }
            match self.defended_read(id) {
                Ok(raw) => rows.push(raw),
                Err(why) => {
                    self.quarantine(id, &why);
                    dropped += 1;
                }
            }
        }
        self.stats.dropped_rows.fetch_add(dropped as u64, Ordering::Relaxed);
        if dropped > 0 {
            self.counter("data.dropped_rows", dropped as u64);
        }
        if rows.is_empty() {
            return Err(IngestError::EmptyBatch { step, rank, world });
        }
        let pix = self.meta.record_len;
        let mut images = Tensor::zeros(&[rows.len(), pix]);
        let mut labels = Vec::with_capacity(rows.len());
        for (i, raw) in rows.iter().enumerate() {
            images.data_mut()[i * pix..(i + 1) * pix].copy_from_slice(&raw.features);
            labels.push(raw.label as usize);
        }
        Ok(Batch { step, images, labels, dropped })
    }

    /// Count a batch as fed to training. Called where a batch is handed
    /// over, not where it is assembled: the prefetch worker runs ahead of
    /// the consumer, and batches it assembled but nobody took are not read.
    fn account_delivered(&self, batch: &Batch) {
        let rows = batch.images.dim(0) as u64;
        self.stats.records_read.fetch_add(rows, Ordering::Relaxed);
        self.stats.bytes_read.fetch_add(batch.images.numel() as u64 * 4, Ordering::Relaxed);
        self.counter("data.records", rows);
    }
}

/// One rank's double-buffered prefetcher over an [`IngestPlane`].
///
/// A background thread assembles batches for consecutive steps into a
/// bounded channel. Dropping the loader disconnects the channel and
/// joins the thread — no detached workers.
struct StreamingLoader {
    rx: Receiver<(usize, Result<Batch, IngestError>)>,
    worker: Option<JoinHandle<()>>,
    core: Arc<PlaneCore>,
    next_step: usize,
    world: usize,
}

impl StreamingLoader {
    fn spawn(core: Arc<PlaneCore>, rank: usize, world: usize, start_step: usize) -> Self {
        let (tx, rx) = bounded(core.cfg.prefetch_depth.max(1));
        let fetch_core = Arc::clone(&core);
        let worker = std::thread::spawn(move || {
            let mut step = start_step;
            loop {
                let batch = fetch_core.fetch_batch(step, rank, world);
                if tx.send((step, batch)).is_err() {
                    return; // consumer resynced or the plane is gone
                }
                step += 1;
            }
        });
        Self { rx, worker: Some(worker), core, next_step: start_step, world }
    }

    /// Consume the next prefetched batch, recording wait time, queue
    /// depth and stalls.
    fn next_batch(&mut self) -> Result<Batch, IngestError> {
        let depth = self.rx.len() as i64;
        self.core.stats.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
        if let Some(tel) = &self.core.telemetry {
            tel.metrics.gauge("data.queue_depth").set(depth);
        }
        if depth == 0 {
            self.core.stats.prefetch_stalls.fetch_add(1, Ordering::Relaxed);
            self.core.counter("data.prefetch.stalls", 1);
        }
        let wait = Stopwatch::start();
        let (step, batch) = self.rx.recv().expect("prefetch worker outlives the loader");
        let wait_ns = wait.elapsed_ns();
        IngestStats::max_u64(&self.core.stats.wait_ns_max, wait_ns);
        if let Some(tel) = &self.core.telemetry {
            tel.metrics.histogram("data.wait.ns").record(wait_ns);
            tel.metrics.counter("data.batches").inc(1);
        }
        debug_assert_eq!(step, self.next_step);
        self.next_step = step + 1;
        if let Ok(b) = &batch {
            self.core.account_delivered(b);
        }
        batch
    }
}

impl Drop for StreamingLoader {
    fn drop(&mut self) {
        // disconnect so a worker blocked on the full channel unblocks,
        // then join
        while self.rx.try_recv().is_ok() {}
        drop(std::mem::replace(&mut self.rx, bounded(1).1));
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

/// The streaming ingest plane: a [`ShardStore`] behind per-rank
/// prefetchers, CRC verification, retry/hedge defenses and a
/// quarantine-and-skip degradation policy.
pub struct IngestPlane {
    core: Arc<PlaneCore>,
    cursors: Mutex<HashMap<usize, StreamingLoader>>,
}

impl IngestPlane {
    /// Build a plane over `store`. `cfg.global_batch` must fit the
    /// corpus (at least one batch per epoch).
    pub fn new(store: Arc<dyn ShardStore>, cfg: StreamConfig) -> Self {
        Self::build(store, cfg, None)
    }

    /// [`IngestPlane::new`] with `data.*` telemetry recorded into `tel`.
    pub fn with_telemetry(store: Arc<dyn ShardStore>, cfg: StreamConfig, tel: Arc<Telemetry>) -> Self {
        Self::build(store, cfg, Some(tel))
    }

    fn build(store: Arc<dyn ShardStore>, cfg: StreamConfig, telemetry: Option<Arc<Telemetry>>) -> Self {
        let meta = store.meta();
        assert!(cfg.global_batch > 0, "global batch must be positive");
        assert!(
            cfg.global_batch <= meta.total_records(),
            "global batch {} exceeds corpus of {} records",
            cfg.global_batch,
            meta.total_records()
        );
        let pool = ReadPool::new(store, cfg.defense.pool_workers);
        let quarantine = Mutex::new((cfg.quarantine.clone(), BTreeSet::new()));
        let core = Arc::new(PlaneCore {
            meta,
            pool,
            clock: ReadClock::new(),
            stats: IngestStats::default(),
            quarantine,
            perm: Mutex::new(None),
            telemetry,
            cfg,
        });
        Self { core, cursors: Mutex::new(HashMap::new()) }
    }

    /// Corpus geometry.
    pub fn meta(&self) -> StoreMeta {
        self.core.meta
    }

    /// Assemble `(step, rank, world)`'s batch directly, bypassing
    /// prefetch — the random-access path (restart, rollback, reshard
    /// reference runs). Deterministic for fixed arguments + quarantine.
    pub fn fetch_batch(&self, step: usize, rank: usize, world: usize) -> Result<Batch, IngestError> {
        let batch = self.core.fetch_batch(step, rank, world);
        if let Ok(b) = &batch {
            self.core.account_delivered(b);
        }
        batch
    }

    /// The prefetched path: returns the same batch `fetch_batch` would,
    /// served from rank-local double buffering. A discontiguous request
    /// (restart, rollback, world change) transparently resyncs the
    /// rank's prefetcher.
    pub fn next_batch(&self, step: usize, rank: usize, world: usize) -> Result<Batch, IngestError> {
        let cursor = self.cursors.lock().unwrap().remove(&rank);
        let mut cursor = match cursor {
            Some(c) if c.next_step == step && c.world == world => c,
            _ => StreamingLoader::spawn(Arc::clone(&self.core), rank, world, step),
        };
        let out = cursor.next_batch();
        self.cursors.lock().unwrap().insert(rank, cursor);
        out
    }

    /// Snapshot the plane's accounting.
    pub fn report(&self) -> DataReport {
        let s = &self.core.stats;
        let q = self.core.quarantine.lock().unwrap();
        DataReport {
            records_read: s.records_read.load(Ordering::Relaxed),
            bytes_read: s.bytes_read.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            hedges: s.hedges.load(Ordering::Relaxed),
            hedge_wins: s.hedge_wins.load(Ordering::Relaxed),
            quarantined: q.0.iter().copied().collect(),
            quarantined_shards: q.1.iter().copied().collect(),
            dropped_rows: s.dropped_rows.load(Ordering::Relaxed),
            prefetch_stalls: s.prefetch_stalls.load(Ordering::Relaxed),
            wait_ns_max: s.wait_ns_max.load(Ordering::Relaxed),
            queue_depth_max: s.queue_depth_max.load(Ordering::Relaxed),
        }
    }
}

impl Drop for IngestPlane {
    fn drop(&mut self) {
        // cursors join their prefetch threads; pool workers join when the
        // last PlaneCore reference (held by those threads) dies
        self.cursors.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;
    use crate::store::SimShardStore;
    use geofm_resilience::FaultPlan;

    const SHARDS: usize = 3;
    const PER_SHARD: usize = 8;

    fn plane_with(plan: FaultPlan, cfg: StreamConfig) -> IngestPlane {
        let store = Arc::new(SimShardStore::generate(
            DatasetKind::Ucm,
            SHARDS,
            PER_SHARD,
            4,
            1,
            7,
            Arc::new(plan),
        ));
        IngestPlane::new(store, cfg)
    }

    fn collect(plane: &IngestPlane, steps: usize, world: usize) -> Vec<Vec<Batch>> {
        (0..world)
            .map(|rank| {
                (0..steps).map(|s| plane.next_batch(s, rank, world).unwrap()).collect()
            })
            .collect()
    }

    #[test]
    fn prefetched_and_random_access_paths_agree() {
        let a = plane_with(FaultPlan::none(), StreamConfig::new(8, 5));
        let b = plane_with(FaultPlan::none(), StreamConfig::new(8, 5));
        for step in 0..6 {
            for rank in 0..2 {
                let direct = a.fetch_batch(step, rank, 2).unwrap();
                let streamed = b.next_batch(step, rank, 2).unwrap();
                assert_eq!(direct, streamed, "step {step} rank {rank}");
            }
        }
    }

    #[test]
    fn epoch_covers_every_record_once() {
        let plane = plane_with(FaultPlan::none(), StreamConfig::new(8, 3));
        // 24 records, batch 8 → 3 steps per epoch
        let mut labels = Vec::new();
        for step in 0..3 {
            for rank in 0..2 {
                labels.extend(plane.next_batch(step, rank, 2).unwrap().labels);
            }
        }
        assert_eq!(labels.len(), 24);
        // next epoch reshuffles: same multiset, different order
        let mut epoch2 = Vec::new();
        for step in 3..6 {
            for rank in 0..2 {
                epoch2.extend(plane.next_batch(step, rank, 2).unwrap().labels);
            }
        }
        let mut a = labels.clone();
        let mut b = epoch2.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "epochs cover the same records");
        assert_ne!(labels, epoch2, "epochs are reshuffled");
    }

    #[test]
    fn resync_after_discontiguous_step_matches_random_access() {
        let plane = plane_with(FaultPlan::none(), StreamConfig::new(8, 9));
        let _ = plane.next_batch(0, 0, 2).unwrap();
        let _ = plane.next_batch(1, 0, 2).unwrap();
        // rollback to step 0, as a guard recovery would
        let replay = plane.next_batch(0, 0, 2).unwrap();
        assert_eq!(replay, plane.fetch_batch(0, 0, 2).unwrap());
        // world change, as an elastic reshard would
        let shrunk = plane.next_batch(2, 0, 1).unwrap();
        assert_eq!(shrunk, plane.fetch_batch(2, 0, 1).unwrap());
    }

    #[test]
    fn corrupt_record_is_quarantined_not_consumed() {
        let store_plan = FaultPlan::none().with_corrupt_record(1, 3);
        let plane = plane_with(store_plan, StreamConfig::new(8, 3));
        let mut total_rows = 0;
        let mut total_dropped = 0;
        for step in 0..6 {
            let b = plane.next_batch(step, 0, 1).unwrap();
            total_rows += b.labels.len();
            total_dropped += b.dropped;
        }
        let report = plane.report();
        assert_eq!(report.quarantined, vec![RecordId { shard: 1, record: 3 }]);
        assert!(report.retries >= 2, "persistent rot must exhaust retries");
        // 2 epochs × 24 slots, the rotten record dropped each epoch
        assert_eq!(total_dropped, 2);
        assert_eq!(total_rows, 46);
        assert_eq!(report.dropped_rows, 2);
    }

    #[test]
    fn faulted_run_matches_clean_run_with_quarantine_upfront() {
        let faulted = plane_with(
            FaultPlan::none()
                .with_corrupt_record(1, 3)
                .with_missing_shard(2)
                .with_flaky_read(0, 2),
            StreamConfig::new(8, 11),
        );
        let faulted_batches = collect(&faulted, 6, 2);
        let report = faulted.report();
        assert!(report.quarantined.len() == 1 + PER_SHARD);
        assert_eq!(report.quarantined_shards, vec![2]);

        let mut cfg = StreamConfig::new(8, 11);
        cfg.quarantine = report.quarantined.iter().copied().collect();
        let clean = plane_with(FaultPlan::none(), cfg);
        let clean_batches = collect(&clean, 6, 2);
        assert_eq!(faulted_batches, clean_batches, "degradation contract violated");
        // and the clean comparator saw zero defense activity
        let clean_report = clean.report();
        assert_eq!(clean_report.retries, 0);
        assert_eq!(clean_report.quarantined, report.quarantined);
    }

    #[test]
    fn flaky_read_heals_without_quarantine() {
        let plane = plane_with(
            FaultPlan::none().with_flaky_read(0, 1),
            StreamConfig::new(8, 3),
        );
        for step in 0..3 {
            plane.next_batch(step, 0, 1).unwrap();
        }
        let report = plane.report();
        assert!(report.quarantined.is_empty(), "transient flake must not quarantine");
        assert!(report.retries >= 1, "the flake must have cost a retry");
        assert_eq!(report.dropped_rows, 0);
    }

    #[test]
    fn stalled_read_is_hedged_past() {
        let mut cfg = StreamConfig::new(8, 3);
        cfg.defense.timeout_floor = Duration::from_millis(10);
        let plane = plane_with(
            FaultPlan::none().with_stalled_read(0, 4, Duration::from_millis(150)),
            cfg,
        );
        let t0 = Instant::now();
        for step in 0..3 {
            plane.next_batch(step, 0, 1).unwrap();
        }
        let elapsed = t0.elapsed();
        let report = plane.report();
        assert!(report.hedges >= 1, "stall must trigger a hedge");
        assert!(report.hedge_wins >= 1, "hedged read must beat the straggler");
        assert!(
            elapsed < Duration::from_millis(150),
            "hedge must not wait out the stall ({elapsed:?})"
        );
    }

    #[test]
    fn undefended_plane_consumes_rot_silently() {
        let mut cfg = StreamConfig::new(8, 3);
        cfg.defense = DefenseConfig::off();
        let dirty = plane_with(FaultPlan::none().with_corrupt_record(0, 0), cfg.clone());
        let clean = plane_with(FaultPlan::none(), cfg);
        let a = collect(&dirty, 3, 1);
        let b = collect(&clean, 3, 1);
        assert_ne!(a, b, "defenses off: rot must flow through (negative control)");
        assert!(dirty.report().quarantined.is_empty());
    }

    #[test]
    fn empty_batch_is_a_structured_error() {
        // quarantine everything up front: first fetch must error, not hang
        let mut cfg = StreamConfig::new(8, 3);
        cfg.quarantine = (0..SHARDS)
            .flat_map(|s| (0..PER_SHARD).map(move |r| RecordId { shard: s, record: r }))
            .collect();
        let plane = plane_with(FaultPlan::none(), cfg);
        assert_eq!(
            plane.fetch_batch(0, 0, 1),
            Err(IngestError::EmptyBatch { step: 0, rank: 0, world: 1 })
        );
    }

    #[test]
    fn telemetry_records_ingest_vocabulary() {
        let tel = Telemetry::new();
        let store = Arc::new(SimShardStore::generate(
            DatasetKind::Ucm,
            SHARDS,
            PER_SHARD,
            4,
            1,
            7,
            Arc::new(FaultPlan::none().with_corrupt_record(0, 1)),
        ));
        let plane = IngestPlane::with_telemetry(store, StreamConfig::new(8, 3), tel.clone());
        for step in 0..3 {
            let _ = plane.next_batch(step, 0, 1).unwrap();
        }
        drop(plane);
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("data.batches"), 3);
        assert!(snap.counter("data.records") > 0);
        assert!(snap.counter("data.retries") >= 2);
        assert_eq!(snap.counter("data.quarantine.records"), 1);
        assert_eq!(snap.histograms["data.wait.ns"].count, 3);
        assert!(snap.gauges["data.queue_depth"].max >= 0);
    }

    #[test]
    fn report_surfaces_wait_and_queue_watermarks() {
        let plane = plane_with(FaultPlan::none(), StreamConfig::new(8, 3));
        for step in 0..3 {
            let _ = plane.next_batch(step, 0, 1).unwrap();
        }
        let r = plane.report();
        assert!(r.wait_ns_max > 0, "first batch always waits on the prefetcher");
        assert!(r.records_read == 24);
        assert_eq!(r.bytes_read, 24 * 16 * 4);
    }

    #[test]
    fn dropping_plane_mid_stream_joins_all_threads() {
        let plan = FaultPlan::none().with_slow_shard(0, Duration::from_millis(5));
        let store = Arc::new(SimShardStore::generate(
            DatasetKind::Ucm,
            SHARDS,
            PER_SHARD,
            4,
            1,
            7,
            Arc::new(plan),
        ));
        let plane = IngestPlane::new(Arc::clone(&store) as Arc<dyn ShardStore>, StreamConfig::new(8, 3));
        let _ = plane.next_batch(0, 0, 2).unwrap();
        let _ = plane.next_batch(0, 1, 2).unwrap();
        drop(plane);
        // all pool + prefetch threads released their store references
        assert_eq!(Arc::strong_count(&store), 1, "threads must be joined, not detached");
    }
}
