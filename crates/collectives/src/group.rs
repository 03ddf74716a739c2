//! Process groups and the chunk-parallel collectives.
//!
//! Every collective comes in two flavours: the classic infallible form
//! (`all_reduce`, …) used by code that assumes a healthy world, and a
//! fallible `try_*` form that returns [`RankLost`] when a peer of the
//! group has died or stopped responding. The fallible path is what the
//! resilient FSDP trainer drives: a handle configured via
//! [`RankHandle::with_timeout`] bounds every internal barrier wait, and a
//! rank that detects a failure calls [`RankHandle::poison`] so all peers
//! unblock within one timeout period instead of deadlocking.
//!
//! The reduce-type collectives (`try_all_reduce`, `try_reduce_scatter`)
//! additionally carry a checksum layer against *silent data corruption*:
//! every rank publishes per-chunk CRC32s of its contribution before the
//! data exchange, and a handle configured via
//! [`RankHandle::with_checksums`] re-verifies every chunk it read after
//! the exchange. A detected bit flip surfaces as
//! [`CollectiveError::Corrupt`] on **every** rank — the collective still
//! completes all of its barriers, so the group is not poisoned and the
//! caller can recover in-band (discard the garbage result, roll back,
//! retry or skip).

use crate::adaptive::AdaptiveTimeout;
use crate::barrier::{RankLost, SenseBarrier};
use crate::guard::{self, CollectiveError, CorruptPayload, SabotageCell};
use crate::traffic::{CollectiveKind, TrafficCounter};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared state of one process group.
#[derive(Debug)]
pub struct Group {
    size: usize,
    /// Per-rank contribution slots.
    mailboxes: Vec<RwLock<Vec<f32>>>,
    /// Per-chunk reduction results (chunk owner = rank index).
    chunk_results: Vec<RwLock<Vec<f32>>>,
    /// Published contribution checksums for the reduce collectives,
    /// sender-major: `checksums[sender * size + chunk]` is the CRC32 of
    /// `sender`'s true payload over `chunk_bounds(len, size, chunk)`.
    /// Rewritten by every checksummed reduce before its first barrier.
    checksums: Vec<AtomicU32>,
    /// Per-collective checksum-verification cost, recorded into the
    /// traffic counter's registry as the `guard.checksum.ns` histogram.
    checksum_ns: Arc<geofm_telemetry::Histogram>,
    barrier: SenseBarrier,
    traffic: Arc<TrafficCounter>,
}

/// One rank's handle to a [`Group`]. Collectives must be called by **every**
/// rank of the group, in the same order (standard SPMD contract).
#[derive(Debug, Clone)]
pub struct RankHandle {
    rank: usize,
    timeout: Option<Duration>,
    adaptive: Option<Arc<AdaptiveTimeout>>,
    /// Emulated link slowdown factor for this rank, as `f64` bits (1.0 =
    /// healthy). Clones of a handle share it, so a fault injector can
    /// degrade a rank's link while its worker thread holds its own clone.
    link_slowdown: Arc<AtomicU64>,
    /// Whether this handle verifies contribution checksums after a reduce.
    /// SPMD contract: all ranks of a group must agree on this setting.
    verify_checksums: bool,
    /// One-shot in-flight corruption injector. Shared across a rank's
    /// handles (like `link_slowdown`) so the fault driver can arm it from
    /// outside the worker thread; consumed by the next reduce collective.
    sabotage: Arc<SabotageCell>,
    group: Arc<Group>,
}

/// `[start, end)` of the chunk owned by `rank` when `len` elements are split
/// across `n` ranks (remainder spread over the first ranks).
pub fn chunk_bounds(len: usize, n: usize, rank: usize) -> (usize, usize) {
    let base = len / n;
    let rem = len % n;
    let start = rank * base + rank.min(rem);
    let extra = usize::from(rank < rem);
    (start, start + base + extra)
}

impl Group {
    /// Create a group of `size` ranks sharing a fresh traffic counter.
    pub fn create(size: usize) -> Vec<RankHandle> {
        Self::create_with_traffic(size, Arc::new(TrafficCounter::new()))
    }

    /// Create a group whose collectives record into `traffic`.
    pub fn create_with_traffic(size: usize, traffic: Arc<TrafficCounter>) -> Vec<RankHandle> {
        assert!(size > 0, "group must have at least one rank");
        let group = Arc::new(Group {
            size,
            mailboxes: (0..size).map(|_| RwLock::new(Vec::new())).collect(),
            chunk_results: (0..size).map(|_| RwLock::new(Vec::new())).collect(),
            checksums: (0..size * size).map(|_| AtomicU32::new(0)).collect(),
            checksum_ns: traffic.registry().histogram("guard.checksum.ns"),
            barrier: SenseBarrier::new(size),
            traffic,
        });
        (0..size)
            .map(|rank| RankHandle {
                rank,
                timeout: None,
                adaptive: None,
                link_slowdown: Arc::new(AtomicU64::new(1f64.to_bits())),
                verify_checksums: false,
                sabotage: Arc::new(SabotageCell::new()),
                group: Arc::clone(&group),
            })
            .collect()
    }

    /// Traffic counter shared by this group.
    pub fn traffic(&self) -> &Arc<TrafficCounter> {
        &self.traffic
    }
}

impl RankHandle {
    /// This rank's index within the group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.group.size
    }

    /// Bound every internal barrier wait of this handle's collectives. A
    /// wait that exceeds `timeout` poisons the group and returns
    /// [`RankLost::Timeout`] from the `try_*` call. `None` (the default)
    /// waits indefinitely but still observes poisoning by peers.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Attach an adaptive timeout tracker. Every successful barrier wait
    /// feeds its latency EWMA; once warmed up, the adaptive bound
    /// (`multiplier × EWMA`, clamped to its floor) *tightens* the static
    /// timeout — the effective bound is the minimum of the two, with the
    /// static bound acting as warmup fallback and hard cap. Share one
    /// tracker across a rank's world/shard/replica handles so all its
    /// collectives feed one estimate.
    pub fn with_adaptive(mut self, adaptive: Arc<AdaptiveTimeout>) -> Self {
        self.adaptive = Some(adaptive);
        self
    }

    /// The attached adaptive timeout tracker, if any.
    pub fn adaptive(&self) -> Option<&Arc<AdaptiveTimeout>> {
        self.adaptive.as_ref()
    }

    /// The bound actually applied to the next barrier wait: the minimum of
    /// the static timeout and the (warmed-up) adaptive bound.
    pub fn effective_timeout(&self) -> Option<Duration> {
        let adaptive = self.adaptive.as_ref().and_then(|a| a.current());
        match (adaptive, self.timeout) {
            (Some(a), Some(s)) => Some(a.min(s)),
            (Some(a), None) => Some(a),
            (None, s) => s,
        }
    }

    /// Emulate a degraded link for this rank: every successful barrier
    /// wait is stretched by `slowdown` (1.0 = healthy). Shared with all
    /// clones of this handle.
    pub fn set_link_slowdown(&self, slowdown: f64) {
        self.link_slowdown.store(slowdown.max(1.0).to_bits(), Ordering::Release);
    }

    /// The currently emulated link slowdown factor.
    pub fn link_slowdown(&self) -> f64 {
        f64::from_bits(self.link_slowdown.load(Ordering::Acquire))
    }

    /// Enable (or disable) post-reduce checksum verification on this
    /// handle's reduce collectives. All ranks of a group must agree on
    /// the setting (SPMD contract); mixed configurations yield spurious
    /// verdicts on the verifying ranks only.
    pub fn with_checksums(mut self, verify: bool) -> Self {
        self.verify_checksums = verify;
        self
    }

    /// Whether this handle verifies reduce checksums.
    pub fn verifies_checksums(&self) -> bool {
        self.verify_checksums
    }

    /// Share a caller-supplied corruption injector with this handle (see
    /// [`SabotageCell`]); used by the hierarchy wiring so one cell covers
    /// a rank's world/shard/replica handles.
    pub fn with_sabotage(mut self, cell: Arc<SabotageCell>) -> Self {
        self.sabotage = cell;
        self
    }

    /// This handle's corruption injector.
    pub fn sabotage(&self) -> &Arc<SabotageCell> {
        &self.sabotage
    }

    /// Arm a one-shot bit flip: the next reduce collective on any handle
    /// sharing this cell corrupts one element of this rank's contribution
    /// *after* its checksums are computed (in-flight corruption). Fires
    /// regardless of [`RankHandle::with_checksums`] — with verification
    /// off the corruption is silent, which is the point.
    pub fn arm_bitflip(&self, bit: u32) {
        self.sabotage.arm(bit);
    }

    /// Poison the group: every current and future collective on any peer's
    /// handle fails with [`RankLost::Poisoned`]. Called by a rank that is
    /// about to die (panic, injected crash) so peers unblock promptly.
    pub fn poison(&self) {
        self.group.barrier.poison();
    }

    /// Whether the group has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.group.barrier.is_poisoned()
    }

    /// The group's traffic counter.
    pub fn traffic(&self) -> Arc<TrafficCounter> {
        Arc::clone(&self.group.traffic)
    }

    /// Synchronise all ranks of the group.
    ///
    /// # Panics
    /// Panics if the group is poisoned (see [`RankHandle::try_barrier`]).
    pub fn barrier(&self) {
        self.try_barrier().expect("collective failed: peer rank lost");
    }

    /// Synchronise all ranks; `Err(RankLost)` if the group is poisoned or
    /// this handle's [`RankHandle::effective_timeout`] expires first.
    ///
    /// Successful waits feed the adaptive latency EWMA (if attached) and
    /// are stretched by the emulated link slowdown (if degraded) — this is
    /// the single choke point through which every collective passes, so
    /// both gray-failure injection and detection live here.
    #[must_use = "a failed barrier means the group is lost and must be handled"]
    pub fn try_barrier(&self) -> Result<(), RankLost> {
        let start = Instant::now();
        self.group.barrier.wait_timeout(self.effective_timeout())?;
        let elapsed = start.elapsed();
        if let Some(a) = &self.adaptive {
            a.observe(elapsed);
        }
        let slowdown = self.link_slowdown();
        if slowdown > 1.0 {
            // A healthy shared-memory wait can be sub-microsecond, which
            // would make the emulated degradation invisible; model the
            // wire latency a real collective always pays so a degraded
            // link injects measurable delay.
            const LINK_BASE_LATENCY: Duration = Duration::from_micros(100);
            std::thread::sleep(elapsed.max(LINK_BASE_LATENCY).mul_f64(slowdown - 1.0));
        }
        Ok(())
    }

    fn record(&self, kind: CollectiveKind, elems: usize) {
        let bytes = kind.ring_bytes_per_rank(elems as u64 * 4, self.group.size);
        self.group.traffic.record(kind, bytes);
    }

    /// Publish this rank's reduce contribution: per-chunk CRC32s of the
    /// *true* payload first, then the mailbox copy — with any armed
    /// in-flight corruption applied after checksumming, so the checksum
    /// vouches for what the rank meant to send while receivers see what
    /// actually arrived.
    fn publish_guarded(&self, buf: &[f32]) {
        let g = &*self.group;
        let n = g.size;
        for chunk in 0..n {
            let (lo, hi) = chunk_bounds(buf.len(), n, chunk);
            g.checksums[self.rank * n + chunk]
                .store(guard::payload_crc(&buf[lo..hi]), Ordering::Release);
        }
        let mut payload = buf.to_vec();
        if let Some(bit) = self.sabotage.take() {
            guard::apply_bitflip(&mut payload, bit);
        }
        *g.mailboxes[self.rank].write() = payload;
    }

    /// Re-verify every chunk of every published contribution against its
    /// sender's checksum. Every rank scans in the same (sender-major,
    /// then chunk) order over the same shared state, so all ranks reach
    /// the identical verdict — the property the trainer's globally-agreed
    /// rollback decision rests on. `None` when this handle does not
    /// verify, or when everything matches.
    fn verify_mailboxes(&self, len: usize) -> Option<CorruptPayload> {
        if !self.verify_checksums {
            return None;
        }
        let t0 = Instant::now();
        let g = &*self.group;
        let n = g.size;
        let mut verdict = None;
        'scan: for sender in 0..n {
            let mb = g.mailboxes[sender].read();
            for chunk in 0..n {
                let (lo, hi) = chunk_bounds(len, n, chunk);
                let want = g.checksums[sender * n + chunk].load(Ordering::Acquire);
                if guard::payload_crc(&mb[lo..hi]) != want {
                    verdict = Some(CorruptPayload { rank: sender, chunk });
                    break 'scan;
                }
            }
        }
        g.checksum_ns.record(t0.elapsed().as_nanos() as u64);
        verdict
    }

    /// Shared prologue of the checksummed reduce collectives
    /// (`try_all_reduce` / `try_reduce_scatter`): publish this rank's
    /// guarded contribution, cross the entry barrier, then scan every
    /// mailbox for a checksum mismatch. Paired with
    /// [`RankHandle::reduce_epilogue`], this keeps the timeout/poison/
    /// verdict plumbing in exactly one place — the blocking ops and the
    /// nonblocking comm-thread path all funnel through it instead of each
    /// op carrying its own copy.
    fn reduce_prologue(&self, buf: &[f32]) -> Result<Option<CorruptPayload>, RankLost> {
        self.publish_guarded(buf);
        self.try_barrier()?;
        // every rank reads every mailbox, so the verification verdict is
        // identical on all ranks (see `verify_mailboxes`)
        Ok(self.verify_mailboxes(buf.len()))
    }

    /// Shared epilogue of the checksummed reduce collectives: cross the
    /// exit barrier — even on a corrupt verdict, so every rank crosses
    /// every barrier and the error surfaces in lockstep instead of
    /// desynchronising the group — then turn the verdict into the
    /// collective's result.
    fn reduce_epilogue(&self, verdict: Option<CorruptPayload>) -> Result<(), CollectiveError> {
        self.try_barrier()?;
        match verdict {
            Some(c) => Err(c.into()),
            None => Ok(()),
        }
    }

    /// Sum-reduce `buf` across all ranks; every rank ends with the total.
    ///
    /// # Panics
    /// Panics if a peer rank is lost or a checksum-verified contribution
    /// is corrupt (see [`RankHandle::try_all_reduce`]).
    pub fn all_reduce(&self, buf: &mut [f32]) {
        self.try_all_reduce(buf).expect("collective failed");
    }

    /// Fallible [`RankHandle::all_reduce`].
    ///
    /// On [`CollectiveError::Lost`] the contents of `buf` are unspecified
    /// (partially reduced) and the group is poisoned. On
    /// [`CollectiveError::Corrupt`] the collective *completed* — all
    /// barriers were crossed and the group stays usable — but `buf` holds
    /// a reduction over a corrupted contribution and must be discarded;
    /// every rank of the group observes the identical error.
    #[must_use = "a failed all-reduce leaves buf unusable and must be handled"]
    pub fn try_all_reduce(&self, buf: &mut [f32]) -> Result<(), CollectiveError> {
        self.record(CollectiveKind::AllReduce, buf.len());
        if self.group.size == 1 {
            return Ok(());
        }
        let g = &*self.group;
        let n = g.size;
        // 1. publish (checksums first, then the possibly-corrupted copy)
        //    and verify — shared with try_reduce_scatter
        let verdict = self.reduce_prologue(buf)?;
        // 2. reduce own chunk across all mailboxes — even on a corrupt
        // verdict, so the group stays in lockstep (see reduce_epilogue)
        let (lo, hi) = chunk_bounds(buf.len(), n, self.rank);
        {
            let mut acc = vec![0.0f32; hi - lo];
            for m in &g.mailboxes {
                let mb = m.read();
                debug_assert_eq!(mb.len(), buf.len(), "all ranks must pass equal-length buffers");
                for (a, &v) in acc.iter_mut().zip(&mb[lo..hi]) {
                    *a += v;
                }
            }
            *g.chunk_results[self.rank].write() = acc;
        }
        self.try_barrier()?;
        // 3. gather all reduced chunks
        for r in 0..n {
            let (clo, chi) = chunk_bounds(buf.len(), n, r);
            let res = g.chunk_results[r].read();
            buf[clo..chi].copy_from_slice(&res);
        }
        self.reduce_epilogue(verdict)
    }

    /// Gather equal-length shards from every rank; `out` is resized to
    /// `size · local.len()` and filled in rank order.
    ///
    /// # Panics
    /// Panics if a peer rank is lost (see [`RankHandle::try_all_gather`]).
    pub fn all_gather(&self, local: &[f32], out: &mut Vec<f32>) {
        self.try_all_gather(local, out).expect("collective failed: peer rank lost");
    }

    /// Fallible [`RankHandle::all_gather`]. On `Err` the contents of `out`
    /// are unspecified and the group is poisoned.
    #[must_use = "a failed all-gather leaves out unusable and must be handled"]
    pub fn try_all_gather(&self, local: &[f32], out: &mut Vec<f32>) -> Result<(), RankLost> {
        let n = self.group.size;
        out.resize(n * local.len(), 0.0);
        self.record(CollectiveKind::AllGather, out.len());
        if n == 1 {
            out.copy_from_slice(local);
            return Ok(());
        }
        let g = &*self.group;
        *g.mailboxes[self.rank].write() = local.to_vec();
        self.try_barrier()?;
        for r in 0..n {
            let mb = g.mailboxes[r].read();
            debug_assert_eq!(mb.len(), local.len(), "all-gather shards must be equal length");
            out[r * local.len()..(r + 1) * local.len()].copy_from_slice(&mb);
        }
        self.try_barrier()
    }

    /// Sum-reduce `buf` and leave this rank with its owned chunk
    /// (`chunk_bounds(buf.len(), size, rank)`), written into `out`.
    ///
    /// # Panics
    /// Panics if a peer rank is lost or a checksum-verified contribution
    /// is corrupt (see [`RankHandle::try_reduce_scatter`]).
    pub fn reduce_scatter(&self, buf: &[f32], out: &mut Vec<f32>) {
        self.try_reduce_scatter(buf, out).expect("collective failed");
    }

    /// Fallible [`RankHandle::reduce_scatter`].
    ///
    /// On [`CollectiveError::Lost`] the contents of `out` are unspecified
    /// and the group is poisoned. On [`CollectiveError::Corrupt`] the
    /// collective completed (group stays usable) but `out` must be
    /// discarded; every rank observes the identical error.
    #[must_use = "a failed reduce-scatter leaves out unusable and must be handled"]
    pub fn try_reduce_scatter(
        &self,
        buf: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<(), CollectiveError> {
        let n = self.group.size;
        self.record(CollectiveKind::ReduceScatter, buf.len());
        let (lo, hi) = chunk_bounds(buf.len(), n, self.rank);
        out.resize(hi - lo, 0.0);
        if n == 1 {
            out.copy_from_slice(buf);
            return Ok(());
        }
        let g = &*self.group;
        let verdict = self.reduce_prologue(buf)?;
        out.iter_mut().for_each(|v| *v = 0.0);
        for m in &g.mailboxes {
            let mb = m.read();
            debug_assert_eq!(mb.len(), buf.len(), "reduce-scatter buffers must be equal length");
            for (o, &v) in out.iter_mut().zip(&mb[lo..hi]) {
                *o += v;
            }
        }
        self.reduce_epilogue(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_group<F>(size: usize, f: F)
    where
        F: Fn(RankHandle) + Sync,
    {
        let handles = Group::create(size);
        std::thread::scope(|s| {
            for h in handles {
                let f = &f;
                s.spawn(move || f(h));
            }
        });
    }

    #[test]
    fn chunk_bounds_partition_exactly() {
        for len in [0usize, 1, 7, 16, 33] {
            for n in [1usize, 2, 3, 8] {
                let mut covered = 0;
                for r in 0..n {
                    let (lo, hi) = chunk_bounds(len, n, r);
                    assert_eq!(lo, covered);
                    covered = hi;
                }
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn all_reduce_sums() {
        run_group(4, |h| {
            let mut buf = vec![(h.rank() + 1) as f32; 10];
            h.all_reduce(&mut buf);
            assert!(buf.iter().all(|&v| v == 10.0), "rank {}: {:?}", h.rank(), buf);
        });
    }

    #[test]
    fn all_reduce_uneven_length() {
        run_group(3, |h| {
            let mut buf: Vec<f32> = (0..7).map(|i| (i * (h.rank() + 1)) as f32).collect();
            h.all_reduce(&mut buf);
            for (i, &v) in buf.iter().enumerate() {
                assert_eq!(v, (i * 6) as f32);
            }
        });
    }

    #[test]
    fn repeated_all_reduce_is_stable() {
        run_group(4, |h| {
            for round in 0..50 {
                let mut buf = vec![h.rank() as f32 + round as f32; 5];
                h.all_reduce(&mut buf);
                let expect = (0..4).map(|r| r as f32 + round as f32).sum::<f32>();
                assert!(buf.iter().all(|&v| (v - expect).abs() < 1e-5));
            }
        });
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        run_group(3, |h| {
            let local = vec![h.rank() as f32; 2];
            let mut out = Vec::new();
            h.all_gather(&local, &mut out);
            assert_eq!(out, vec![0., 0., 1., 1., 2., 2.]);
        });
    }

    #[test]
    fn reduce_scatter_gives_owned_chunk() {
        run_group(2, |h| {
            let buf: Vec<f32> = (0..6).map(|i| i as f32 * (h.rank() + 1) as f32).collect();
            let mut out = Vec::new();
            h.reduce_scatter(&buf, &mut out);
            // sum over ranks: element i = i*1 + i*2 = 3i; rank0 owns [0,3), rank1 [3,6)
            let expect: Vec<f32> = if h.rank() == 0 {
                vec![0., 3., 6.]
            } else {
                vec![9., 12., 15.]
            };
            assert_eq!(out, expect);
        });
    }

    #[test]
    fn reduce_scatter_then_all_gather_equals_all_reduce() {
        run_group(4, |h| {
            let base: Vec<f32> = (0..8).map(|i| (i + h.rank() * 8) as f32).collect();
            let mut via_ar = base.clone();
            h.all_reduce(&mut via_ar);
            let mut shard = Vec::new();
            h.reduce_scatter(&base, &mut shard);
            let mut gathered = Vec::new();
            h.all_gather(&shard, &mut gathered);
            assert_eq!(gathered, via_ar);
        });
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        run_group(1, |h| {
            let mut buf = vec![3.0, 4.0];
            h.all_reduce(&mut buf);
            assert_eq!(buf, vec![3.0, 4.0]);
            let mut out = Vec::new();
            h.all_gather(&[1.0, 2.0], &mut out);
            assert_eq!(out, vec![1.0, 2.0]);
            let mut rs = Vec::new();
            h.reduce_scatter(&[5.0, 6.0], &mut rs);
            assert_eq!(rs, vec![5.0, 6.0]);
        });
    }

    #[test]
    fn traffic_is_recorded() {
        let handles = Group::create(2);
        let traffic = handles[0].traffic();
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    let mut buf = vec![0.0f32; 100];
                    h.all_reduce(&mut buf);
                });
            }
        });
        let snap = traffic.snapshot();
        assert_eq!(snap.calls, 2);
        // per-rank ring bytes: 2 * (1/2) * 400 = 400; two ranks → 800
        assert_eq!(snap.all_reduce, 800);
    }

    #[test]
    fn mixed_collective_sequences_do_not_interfere() {
        run_group(4, |h| {
            for _ in 0..20 {
                let mut a = vec![1.0f32; 9];
                h.all_reduce(&mut a);
                assert!(a.iter().all(|&v| v == 4.0));
                let mut g = Vec::new();
                h.all_gather(&[h.rank() as f32], &mut g);
                assert_eq!(g, vec![0., 1., 2., 3.]);
                let mut rs = Vec::new();
                h.reduce_scatter(&[2.0f32; 4], &mut rs);
                assert_eq!(rs, vec![8.0]);
            }
        });
    }

    #[test]
    fn dead_rank_surfaces_rank_lost_on_all_peers() {
        // rank 3 never calls the collective: every survivor must get
        // Err(RankLost) within a bounded wait instead of deadlocking.
        let handles = Group::create(4);
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for h in handles.into_iter().take(3) {
                s.spawn(move || {
                    let h = h.with_timeout(Some(Duration::from_millis(100)));
                    let mut buf = vec![1.0f32; 8];
                    let r = h.try_all_reduce(&mut buf);
                    assert!(r.is_err(), "rank {} must observe the lost peer", h.rank());
                });
            }
        });
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn poisoned_group_fails_every_collective() {
        let handles = Group::create(2);
        handles[0].poison();
        let h = handles[1].clone();
        let mut buf = vec![1.0f32; 4];
        assert!(h.try_all_reduce(&mut buf).is_err());
        let mut out = Vec::new();
        assert!(h.try_all_gather(&buf, &mut out).is_err());
        assert!(h.try_reduce_scatter(&buf, &mut out).is_err());
        assert!(h.try_barrier().is_err());
        assert!(h.is_poisoned());
    }

    #[test]
    fn chunk_bounds_more_ranks_than_elements() {
        // len < n: the first `len` ranks own one element, the rest own
        // empty (but well-formed) ranges.
        let (len, n) = (3usize, 8usize);
        for r in 0..n {
            let (lo, hi) = chunk_bounds(len, n, r);
            if r < len {
                assert_eq!((lo, hi), (r, r + 1));
            } else {
                assert_eq!(lo, hi, "rank {r} must own an empty range");
                assert!(hi <= len);
            }
        }
    }

    #[test]
    fn chunk_bounds_empty_buffer() {
        for n in [1usize, 2, 5] {
            for r in 0..n {
                assert_eq!(chunk_bounds(0, n, r), (0, 0));
            }
        }
    }

    /// Every `try_*` collective must surface an error on **all** survivors
    /// when a peer never shows up — no partial hang where some ranks error
    /// and others block forever. Generic over the error type since the
    /// reduce collectives return [`CollectiveError`] and the rest
    /// [`RankLost`].
    fn assert_survivors_all_err<E: std::fmt::Debug>(
        op: impl Fn(&RankHandle) -> Result<(), E> + Sync,
    ) {
        let handles = Group::create(4);
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for h in handles.into_iter().take(3) {
                let op = &op;
                s.spawn(move || {
                    let h = h.with_timeout(Some(Duration::from_millis(100)));
                    assert!(op(&h).is_err(), "rank {} must observe the lost peer", h.rank());
                });
            }
        });
        assert!(start.elapsed() < Duration::from_secs(10), "survivors must unblock promptly");
    }

    #[test]
    fn dead_rank_barrier_errors_on_all_survivors() {
        assert_survivors_all_err(|h| h.try_barrier());
    }

    #[test]
    fn dead_rank_all_gather_errors_on_all_survivors() {
        assert_survivors_all_err(|h| {
            let mut out = Vec::new();
            h.try_all_gather(&[1.0, 2.0], &mut out)
        });
    }

    #[test]
    fn dead_rank_reduce_scatter_errors_on_all_survivors() {
        assert_survivors_all_err(|h| {
            let mut out = Vec::new();
            h.try_reduce_scatter(&[1.0f32; 8], &mut out)
        });
    }

    #[test]
    fn adaptive_timeout_detects_hang_faster_than_static_bound() {
        use crate::adaptive::{AdaptiveTimeout, AdaptiveTimeoutConfig};

        // Static bound is generous (10 s); the adaptive tracker warms up on
        // fast collectives and must then catch a hung peer in ~floor time.
        let handles = Group::create(3);
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for (i, h) in handles.into_iter().enumerate() {
                s.spawn(move || {
                    let tracker = Arc::new(AdaptiveTimeout::new(AdaptiveTimeoutConfig {
                        floor: Duration::from_millis(50),
                        multiplier: 16.0,
                        warmup: 4,
                    }));
                    let h = h
                        .with_timeout(Some(Duration::from_secs(10)))
                        .with_adaptive(tracker);
                    let mut buf = vec![1.0f32; 8];
                    for _ in 0..4 {
                        h.try_all_reduce(&mut buf).unwrap();
                    }
                    // rank 2 hangs; the others must error well before 10 s
                    if i == 2 {
                        return;
                    }
                    assert!(h.try_all_reduce(&mut buf).is_err());
                });
            }
        });
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "adaptive bound must beat the static 10 s timeout, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn adaptive_timeout_tolerates_healthy_variance() {
        use crate::adaptive::{AdaptiveTimeout, AdaptiveTimeoutConfig};

        // Ranks with mildly skewed arrival times must not false-positive.
        let handles = Group::create(4);
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    let tracker = Arc::new(AdaptiveTimeout::new(AdaptiveTimeoutConfig {
                        floor: Duration::from_millis(50),
                        multiplier: 16.0,
                        warmup: 4,
                    }));
                    let h = h.with_timeout(Some(Duration::from_secs(10))).with_adaptive(tracker);
                    let mut buf = vec![1.0f32; 8];
                    for round in 0..30 {
                        std::thread::sleep(Duration::from_micros(((h.rank() * round) % 7) as u64 * 100));
                        h.try_all_reduce(&mut buf).unwrap_or_else(|e| {
                            panic!("rank {} false positive at round {round}: {e:?}", h.rank())
                        });
                    }
                });
            }
        });
    }

    #[test]
    fn link_slowdown_stretches_collectives_without_changing_results() {
        let handles = Group::create(2);
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    if h.rank() == 1 {
                        h.set_link_slowdown(5.0);
                    }
                    let mut buf = vec![(h.rank() + 1) as f32; 4];
                    h.all_reduce(&mut buf);
                    assert!(buf.iter().all(|&v| v == 3.0), "degraded link must not corrupt data");
                });
            }
        });
    }

    #[test]
    fn checksummed_all_reduce_passes_clean_payloads() {
        run_group(4, |h| {
            let h = h.with_checksums(true);
            for round in 0..10 {
                let mut buf = vec![(h.rank() + round) as f32; 9];
                h.try_all_reduce(&mut buf).unwrap();
                let expect = (0..4).map(|r| (r + round) as f32).sum::<f32>();
                assert!(buf.iter().all(|&v| v == expect));
            }
        });
    }

    #[test]
    fn unverified_bitflip_corrupts_silently() {
        // guard off: the armed flip changes the result on every rank with
        // no error — the silent regime the checksum layer exists to close.
        use std::sync::Mutex;
        let results: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());
        let handles = Group::create(4);
        std::thread::scope(|s| {
            for h in handles {
                let results = &results;
                s.spawn(move || {
                    if h.rank() == 1 {
                        h.arm_bitflip(22);
                    }
                    let mut buf = vec![1.0f32; 16];
                    h.try_all_reduce(&mut buf).unwrap();
                    results.lock().unwrap().push(buf);
                });
            }
        });
        let results = results.into_inner().unwrap();
        assert!(
            results.iter().all(|r| r == &results[0]),
            "all ranks agree on the (wrong) reduction"
        );
        assert!(
            results[0].iter().any(|&v| v != 4.0),
            "the flip must actually change the sum"
        );
    }

    #[test]
    fn verified_bitflip_surfaces_identical_corrupt_error_on_all_ranks() {
        use std::sync::Mutex;
        let verdicts: Mutex<Vec<CollectiveError>> = Mutex::new(Vec::new());
        let handles = Group::create(4);
        std::thread::scope(|s| {
            for h in handles {
                let verdicts = &verdicts;
                s.spawn(move || {
                    let h = h.with_checksums(true);
                    if h.rank() == 1 {
                        h.arm_bitflip(22);
                    }
                    let mut buf = vec![1.0f32; 16];
                    let err = h.try_all_reduce(&mut buf).unwrap_err();
                    verdicts.lock().unwrap().push(err);

                    // corruption does not poison the group: the next
                    // (clean) collective must succeed and be correct
                    let mut again = vec![2.0f32; 16];
                    h.try_all_reduce(&mut again).unwrap();
                    assert!(again.iter().all(|&v| v == 8.0));
                });
            }
        });
        let verdicts = verdicts.into_inner().unwrap();
        assert_eq!(verdicts.len(), 4);
        for v in &verdicts {
            match v {
                CollectiveError::Corrupt(c) => {
                    assert_eq!(c.rank, 1, "the corrupted contribution is rank 1's");
                    assert_eq!(*v, verdicts[0], "all ranks must agree on the verdict");
                }
                CollectiveError::Lost(l) => panic!("expected Corrupt, got Lost({l:?})"),
            }
        }
    }

    #[test]
    fn verified_bitflip_detected_in_reduce_scatter() {
        run_group(4, |h| {
            let h = h.with_checksums(true);
            if h.rank() == 2 {
                h.arm_bitflip(7);
            }
            let buf = vec![1.0f32; 12];
            let mut out = Vec::new();
            match h.try_reduce_scatter(&buf, &mut out) {
                Err(CollectiveError::Corrupt(c)) => assert_eq!(c.rank, 2),
                other => panic!("rank {}: expected Corrupt, got {other:?}", h.rank()),
            }
            // group stays usable
            let mut again = Vec::new();
            h.try_reduce_scatter(&buf, &mut again).unwrap();
            assert!(again.iter().all(|&v| v == 4.0));
        });
    }

    #[test]
    fn sabotage_is_one_shot_across_collectives() {
        run_group(2, |h| {
            let h = h.with_checksums(true);
            if h.rank() == 0 {
                h.arm_bitflip(5);
            }
            let mut buf = vec![1.0f32; 8];
            assert!(h.try_all_reduce(&mut buf).is_err(), "first reduce is corrupt");
            for _ in 0..5 {
                let mut clean = vec![1.0f32; 8];
                h.try_all_reduce(&mut clean).unwrap();
                assert!(clean.iter().all(|&v| v == 2.0), "later reduces are clean");
            }
        });
    }

    #[test]
    fn single_rank_reduce_leaves_sabotage_armed() {
        // a size-1 group performs no exchange, so an armed flip must stay
        // armed for the first real multi-rank reduce on a sibling handle
        let handles = Group::create(1);
        let h = handles.into_iter().next().unwrap().with_checksums(true);
        h.arm_bitflip(3);
        let mut buf = vec![1.0f32; 4];
        h.try_all_reduce(&mut buf).unwrap();
        assert!(h.sabotage().is_armed());
    }
}
