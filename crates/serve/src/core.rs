//! The serving-plane state machine: admission, deadline-aware batching,
//! shedding, degradation.
//!
//! [`ServeCore`] is deliberately clock-free: every entry point takes an
//! explicit `now_ns`, so the *same* scheduler logic runs under the real
//! threaded plane ([`crate::plane`], `Instant`-derived nanoseconds) and
//! the deterministic virtual-time harness ([`crate::sim`]). That is what
//! makes 100+ chaos schedules bit-replayable: all nondeterminism lives
//! outside this module.
//!
//! ## Admission chain (defended mode)
//!
//! `shutdown → ladder (L3 sheds low-priority) → circuit breaker → token
//! bucket → bounded queue`. Every rejection carries an honest
//! `retry_after_ns` estimated from the specific defense that fired. In
//! undefended mode ([`ServeConfig::undefended`], the figX negative
//! control) the chain collapses to "enqueue, unbounded, FIFO" — the
//! classic head-of-line death spiral this crate exists to prevent.
//!
//! ## Batching
//!
//! `form_batch` first sheds queue entries whose deadlines already passed
//! (*before* compute — dead work never reaches the backbone), then fills
//! a batch highest-priority-first, round-robin across tenants within a
//! class. A linger window trades p50 for throughput: small batches wait
//! up to `linger_ns` for company unless the ladder says otherwise.

use crate::backbone::Backbone;
use crate::cache::{CacheGen, CacheKey, EmbeddingCache};
use crate::degrade::{DegradeController, DegradeLevel};
use crate::report::{CacheReport, ServeReport, TenantReport};
use crate::request::{Outcome, Priority, RejectReason, Request, TenantId, TileId, Verdict};
use crate::tenant::{TenantConfig, TenantState};
use geofm_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Server-wide policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Max requests per backbone batch at L0.
    pub max_batch: usize,
    /// Shrunken max batch at L1+ (latency over throughput).
    pub tight_max_batch: usize,
    /// How long a non-full batch waits for company at L0 — the
    /// p50-vs-throughput knob. L1+ forces it to zero.
    pub linger_ns: u64,
    /// Consecutive deadline failures that trip a tenant's breaker. Set
    /// high enough that a single stalled batch (which sheds everything
    /// queued behind it) does not read as tenant-specific doom.
    pub breaker_threshold: u32,
    /// Breaker open time before a half-open probe. Sized to roughly the
    /// time a full bounded queue takes to drain — long enough for the
    /// backlog to clear, short enough that a transient stall does not
    /// black-hole the tenant for many deadline budgets.
    pub breaker_cooldown_ns: u64,
    /// Embedding-cache capacity, entries.
    pub cache_capacity: usize,
    /// Fraction of wall-clock the backbone may burn before CPU overrun
    /// feeds the pressure signal (the CPU-budget load shedder).
    pub cpu_budget: f64,
    /// Ladder thresholds.
    pub degrade: crate::degrade::DegradeConfig,
    /// Master defense switch. `false` = naive server: unbounded FIFO, no
    /// limits, no shedding, everything computed eventually.
    pub defended: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            tight_max_batch: 4,
            linger_ns: 2_000_000,
            breaker_threshold: 16,
            breaker_cooldown_ns: 25_000_000,
            cache_capacity: 1024,
            cpu_budget: 0.85,
            degrade: crate::degrade::DegradeConfig::default(),
            defended: true,
        }
    }
}

impl ServeConfig {
    /// The negative control: identical capacity, every defense off.
    pub fn undefended() -> Self {
        Self { defended: false, ..Self::default() }
    }
}

/// A formed batch awaiting backbone execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Monotonic batch id (the hedge-injection coordinate in chaos runs).
    pub id: u64,
    /// Requests in service order.
    pub requests: Vec<Request>,
}

impl Batch {
    /// `(tenant, tile)` pairs in request order, as the backbone wants.
    pub fn entries(&self) -> Vec<(TenantId, TileId)> {
        self.requests.iter().map(|r| (r.tenant, r.tile)).collect()
    }
}

struct ServeMetrics {
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    shed: Arc<Counter>,
    completed: Arc<Counter>,
    cache_hits: Arc<Counter>,
    hedges: Arc<Counter>,
    hedge_wins: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    degrade_level: Arc<Gauge>,
    latency: Arc<Histogram>,
    batch_size: Arc<Histogram>,
}

impl ServeMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        Self {
            admitted: reg.counter("serve.admitted"),
            rejected: reg.counter("serve.rejected"),
            shed: reg.counter("serve.shed"),
            completed: reg.counter("serve.completed"),
            cache_hits: reg.counter("serve.cache_hits"),
            hedges: reg.counter("serve.hedge_launched"),
            hedge_wins: reg.counter("serve.hedge_wins"),
            queue_depth: reg.gauge("serve.queue_depth"),
            degrade_level: reg.gauge("serve.degrade_level"),
            latency: reg.histogram("serve.latency_ns"),
            batch_size: reg.histogram("serve.batch_size"),
        }
    }
}

/// The clock-free scheduler (see module docs).
pub struct ServeCore {
    cfg: ServeConfig,
    tenants: Vec<TenantState>,
    acc: Vec<TenantReport>,
    cache: EmbeddingCache,
    degrade: DegradeController,
    backbone: Arc<dyn Backbone>,
    next_req_id: u64,
    next_batch_id: u64,
    start_ns: u64,
    busy_ns: u64,
    shutting_down: bool,
    latencies: Vec<u64>,
    batches: u64,
    batched_requests: u64,
    hedges_launched: u64,
    hedge_wins: u64,
    window_done: u64,
    window_missed: u64,
    metrics: Option<ServeMetrics>,
}

impl ServeCore {
    /// New core over `backbone` with one [`TenantState`] per config.
    /// `start_ns` anchors the CPU-budget elapsed clock.
    pub fn new(
        cfg: ServeConfig,
        tenant_cfgs: &[TenantConfig],
        backbone: Arc<dyn Backbone>,
        start_ns: u64,
    ) -> Self {
        let tenants: Vec<TenantState> = tenant_cfgs
            .iter()
            .map(|&t| {
                let (thr, cool) = if cfg.defended {
                    (cfg.breaker_threshold, cfg.breaker_cooldown_ns)
                } else {
                    (u32::MAX, 0)
                };
                let t = if cfg.defended {
                    t
                } else {
                    // naive server: no rate limiting either
                    TenantConfig { rate_per_s: f64::INFINITY, ..t }
                };
                TenantState::new(t, thr, cool)
            })
            .collect();
        let acc = vec![TenantReport::default(); tenants.len()];
        Self {
            cache: EmbeddingCache::new(cfg.cache_capacity),
            degrade: DegradeController::new(cfg.degrade),
            cfg,
            tenants,
            acc,
            backbone,
            next_req_id: 0,
            next_batch_id: 0,
            start_ns,
            busy_ns: 0,
            shutting_down: false,
            latencies: Vec::new(),
            batches: 0,
            batched_requests: 0,
            hedges_launched: 0,
            hedge_wins: 0,
            window_done: 0,
            window_missed: 0,
            metrics: None,
        }
    }

    /// Wire `serve.*` metrics into `registry`.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(ServeMetrics::new(registry));
        self
    }

    /// Current degradation rung.
    pub fn degrade_level(&self) -> DegradeLevel {
        self.degrade.level()
    }

    /// Total requests currently queued across tenants.
    pub fn queued_total(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.len()).sum()
    }

    fn gen_for(&self, tenant: TenantId) -> CacheGen {
        CacheGen {
            backbone: self.backbone.backbone_gen(),
            adapter: self.backbone.adapter_gen(tenant),
        }
    }

    fn record_outcome(&mut self, req: &Request, outcome: Outcome, now_ns: u64) {
        let tr = &mut self.acc[req.tenant];
        match outcome {
            Outcome::Completed { latency_ns, in_deadline, from_cache, stale } => {
                if in_deadline {
                    tr.completed_in_deadline += 1;
                    self.window_done += 1;
                } else {
                    tr.completed_late += 1;
                    self.window_missed += 1;
                }
                if from_cache {
                    tr.from_cache += 1;
                }
                if stale {
                    tr.stale_served += 1;
                }
                self.latencies.push(latency_ns);
                self.tenants[req.tenant].breaker.record(in_deadline, now_ns);
                if let Some(m) = &self.metrics {
                    m.completed.inc(1);
                    m.latency.record(latency_ns);
                    if from_cache {
                        m.cache_hits.inc(1);
                    }
                }
            }
            Outcome::ShedDeadline | Outcome::ShedCacheMiss | Outcome::ShedShutdown => {
                match outcome {
                    Outcome::ShedDeadline => tr.shed_deadline += 1,
                    Outcome::ShedCacheMiss => tr.shed_cache_miss += 1,
                    _ => tr.shed_shutdown += 1,
                }
                self.window_missed += 1;
                self.tenants[req.tenant].breaker.record(false, now_ns);
                if let Some(m) = &self.metrics {
                    m.shed.inc(1);
                }
            }
        }
    }

    fn reject(&mut self, tenant: TenantId, reason: RejectReason, retry_after_ns: u64) -> Verdict {
        *self.acc[tenant].rejected.entry(reason).or_insert(0) += 1;
        if let Some(m) = &self.metrics {
            m.rejected.inc(1);
        }
        Verdict::Rejected { reason, retry_after_ns }
    }

    /// Rough time for the tenant's queue to drain at current batch sizing.
    fn drain_estimate_ns(&self, queued: usize) -> u64 {
        let per_batch = self.backbone.batch_cost_ns(self.cfg.max_batch.max(1));
        let batches = queued.div_ceil(self.cfg.max_batch.max(1)) as u64;
        (batches + 1) * per_batch
    }

    /// Submit one request. Returns its id and **exactly one** verdict; if
    /// the verdict is `Admitted`, exactly one [`Outcome`] will follow
    /// (possibly within this call, for cache fast-path completions).
    pub fn submit(&mut self, tenant: TenantId, tile: TileId, now_ns: u64) -> (u64, Verdict) {
        let id = self.next_req_id;
        self.next_req_id += 1;
        self.acc[tenant].submitted += 1;

        if self.shutting_down {
            let v = self.reject(tenant, RejectReason::ShuttingDown, 0);
            return (id, v);
        }

        let cfg = self.tenants[tenant].cfg;
        let req = Request {
            id,
            tenant,
            tile,
            priority: cfg.priority,
            arrival_ns: now_ns,
            deadline_ns: now_ns.saturating_add(cfg.deadline_ns),
        };

        if self.cfg.defended {
            // L3: lowest class is turned away at the door
            if self.degrade.level() >= DegradeLevel::ShedLow && cfg.priority == Priority::Low {
                let retry = self.drain_estimate_ns(self.queued_total());
                let v = self.reject(tenant, RejectReason::Degraded, retry);
                return (id, v);
            }
            if !self.tenants[tenant].breaker.allow(now_ns) {
                let retry = self.tenants[tenant].breaker.ns_until_probe(now_ns);
                let v = self.reject(tenant, RejectReason::CircuitOpen, retry);
                return (id, v);
            }
            if !self.tenants[tenant].bucket.try_take(now_ns) {
                let retry = self.tenants[tenant].bucket.ns_until_token(now_ns);
                let v = self.reject(tenant, RejectReason::RateLimited, retry);
                return (id, v);
            }
            if self.tenants[tenant].queue.len() >= cfg.queue_capacity {
                let retry = self.drain_estimate_ns(self.tenants[tenant].queue.len());
                let v = self.reject(tenant, RejectReason::QueueFull, retry);
                return (id, v);
            }
        }

        self.acc[tenant].admitted += 1;
        if let Some(m) = &self.metrics {
            m.admitted.inc(1);
        }

        // L2 cache-only service for the lowest class: stale hits are
        // served flagged, misses are shed instead of computed.
        let cache_only = self.cfg.defended
            && self.degrade.level() >= DegradeLevel::CacheOnly
            && cfg.priority == Priority::Low;
        let gen = self.gen_for(tenant);
        let key = CacheKey { tenant, tile };
        if let Some(hit) = self.cache.get(key, gen, cache_only) {
            let outcome = Outcome::Completed {
                latency_ns: 0,
                in_deadline: true,
                from_cache: true,
                stale: hit.stale,
            };
            self.record_outcome(&req, outcome, now_ns);
            return (id, Verdict::Admitted);
        }
        if cache_only {
            self.record_outcome(&req, Outcome::ShedCacheMiss, now_ns);
            return (id, Verdict::Admitted);
        }

        self.tenants[tenant].enqueue(req);
        if let Some(m) = &self.metrics {
            m.queue_depth.set(self.queued_total() as i64);
        }
        (id, Verdict::Admitted)
    }

    /// Shed every queued request whose deadline has already passed —
    /// before it can waste backbone time.
    fn shed_expired(&mut self, now_ns: u64) {
        if !self.cfg.defended {
            return;
        }
        for t in 0..self.tenants.len() {
            while let Some(front) = self.tenants[t].queue.front() {
                if front.deadline_ns > now_ns {
                    break; // per-tenant FIFO + uniform budget => deadline-ordered
                }
                let req = self.tenants[t].queue.pop_front().expect("front exists");
                self.record_outcome(&req, Outcome::ShedDeadline, now_ns);
            }
        }
    }

    fn effective_max_batch(&self) -> usize {
        if self.cfg.defended && self.degrade.level() >= DegradeLevel::TightBatch {
            self.cfg.tight_max_batch
        } else {
            self.cfg.max_batch
        }
    }

    fn effective_linger(&self) -> u64 {
        if self.cfg.defended && self.degrade.level() >= DegradeLevel::TightBatch {
            0
        } else {
            self.cfg.linger_ns
        }
    }

    /// Fold queue occupancy, the recent deadline-miss window, and CPU
    /// overrun into the ladder.
    fn observe_pressure(&mut self, now_ns: u64) {
        if !self.cfg.defended {
            return;
        }
        let capacity: usize = self.tenants.iter().map(|t| t.cfg.queue_capacity).sum();
        let queue_frac = if capacity == 0 {
            0.0
        } else {
            self.queued_total() as f64 / capacity as f64
        };
        let total = self.window_done + self.window_missed;
        let miss_frac = if total == 0 { 0.0 } else { self.window_missed as f64 / total as f64 };
        // windowed, not lifetime: decay so recovery is observable
        self.window_done = (self.window_done * 3) / 4;
        self.window_missed = (self.window_missed * 3) / 4;
        let elapsed = now_ns.saturating_sub(self.start_ns).max(1);
        let cpu_frac = self.busy_ns as f64 / elapsed as f64;
        let overrun = if self.cfg.cpu_budget < 1.0 {
            ((cpu_frac - self.cfg.cpu_budget) / (1.0 - self.cfg.cpu_budget)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.degrade.observe(queue_frac.max(overrun), miss_frac, now_ns);
        if let Some(m) = &self.metrics {
            m.degrade_level.set(self.degrade.level() as i64);
            m.queue_depth.set(self.queued_total() as i64);
        }
    }

    /// Try to form the next batch at `now_ns`.
    ///
    /// Returns `None` when nothing is ready — either the queues are empty
    /// or the linger window says a small batch should wait for company.
    pub fn form_batch(&mut self, now_ns: u64) -> Option<Batch> {
        if self.shutting_down {
            return None;
        }
        self.shed_expired(now_ns);
        self.observe_pressure(now_ns);
        let queued = self.queued_total();
        if queued == 0 {
            return None;
        }
        let max = self.effective_max_batch().max(1);
        if queued < max {
            let oldest =
                self.tenants.iter().filter_map(|t| t.queue.front()).map(|r| r.arrival_ns).min();
            if let Some(oldest) = oldest {
                if now_ns.saturating_sub(oldest) < self.effective_linger() {
                    return None;
                }
            }
        }
        // highest class first; round-robin one-per-tenant inside a class
        let mut requests = Vec::with_capacity(max);
        for class in [Priority::Premium, Priority::Standard, Priority::Low] {
            loop {
                let mut took = false;
                for t in 0..self.tenants.len() {
                    if requests.len() >= max {
                        break;
                    }
                    if self.tenants[t].cfg.priority != class {
                        continue;
                    }
                    if let Some(req) = self.tenants[t].queue.pop_front() {
                        requests.push(req);
                        took = true;
                    }
                }
                if !took || requests.len() >= max {
                    break;
                }
            }
            if requests.len() >= max {
                break;
            }
        }
        if requests.is_empty() {
            return None;
        }
        let id = self.next_batch_id;
        self.next_batch_id += 1;
        if let Some(m) = &self.metrics {
            m.batch_size.record(requests.len() as u64);
            m.queue_depth.set(self.queued_total() as i64);
        }
        Some(Batch { id, requests })
    }

    /// Earliest future instant at which `form_batch` could do something
    /// it can't do now: linger expiry or the next queued deadline. `None`
    /// when the queues are empty. Drives the virtual-time harness.
    pub fn next_event_ns(&self, now_ns: u64) -> Option<u64> {
        let oldest =
            self.tenants.iter().filter_map(|t| t.queue.front()).map(|r| r.arrival_ns).min()?;
        let linger_at = oldest.saturating_add(self.effective_linger());
        let deadline = self
            .tenants
            .iter()
            .flat_map(|t| t.queue.iter())
            .map(|r| r.deadline_ns)
            .min()
            .unwrap_or(u64::MAX);
        Some(linger_at.min(deadline).max(now_ns))
    }

    /// Record a finished batch: one embedding per request, computed in
    /// `compute_ns`, finishing at `now_ns`. Inserts into the cache at the
    /// backbone's *current* generations (a swap mid-batch means the batch
    /// results are already stale and will be refused by strict lookups).
    pub fn complete_batch(
        &mut self,
        batch: &Batch,
        results: &[Arc<Vec<f32>>],
        compute_ns: u64,
        now_ns: u64,
    ) {
        assert_eq!(batch.requests.len(), results.len(), "one embedding per request");
        self.busy_ns += compute_ns;
        self.batches += 1;
        self.batched_requests += batch.requests.len() as u64;
        for (req, val) in batch.requests.iter().zip(results) {
            let gen = self.gen_for(req.tenant);
            self.cache.insert(CacheKey { tenant: req.tenant, tile: req.tile }, gen, Arc::clone(val));
            let latency_ns = now_ns.saturating_sub(req.arrival_ns);
            let outcome = Outcome::Completed {
                latency_ns,
                in_deadline: now_ns <= req.deadline_ns,
                from_cache: false,
                stale: false,
            };
            self.record_outcome(req, outcome, now_ns);
        }
        self.observe_pressure(now_ns);
    }

    /// Account an in-flight batch that will never complete (shutdown).
    pub fn shed_batch(&mut self, batch: &Batch, now_ns: u64) {
        for req in batch.requests.clone() {
            self.record_outcome(&req, Outcome::ShedShutdown, now_ns);
        }
    }

    /// A hedged duplicate execution was launched for a straggling batch.
    pub fn note_hedge_launched(&mut self) {
        self.hedges_launched += 1;
        if let Some(m) = &self.metrics {
            m.hedges.inc(1);
        }
    }

    /// The duplicate finished before the original.
    pub fn note_hedge_win(&mut self) {
        self.hedge_wins += 1;
        if let Some(m) = &self.metrics {
            m.hedge_wins.inc(1);
        }
    }

    /// Invalidate cache entries after a backbone swap (delegates to the
    /// backbone's current generation).
    pub fn on_backbone_swap(&mut self) {
        self.cache.invalidate_backbone(self.backbone.backbone_gen());
    }

    /// Begin shutdown: refuse new work and shed everything still queued.
    /// In-flight batches must be finished or [`Self::shed_batch`]-ed by
    /// the caller before the report balances.
    pub fn drain_shutdown(&mut self, now_ns: u64) {
        self.shutting_down = true;
        for t in 0..self.tenants.len() {
            while let Some(req) = self.tenants[t].queue.pop_front() {
                self.record_outcome(&req, Outcome::ShedShutdown, now_ns);
            }
        }
        if let Some(m) = &self.metrics {
            m.queue_depth.set(0);
        }
    }

    /// Assemble the final (or interim) report.
    pub fn report(&self) -> ServeReport {
        let mut tenants = BTreeMap::new();
        for (i, (acc, state)) in self.acc.iter().zip(&self.tenants).enumerate() {
            let mut tr = acc.clone();
            tr.queue_depth_max = state.queue_depth_max;
            tr.breaker_trips = state.breaker.trips;
            tenants.insert(i, tr);
        }
        let mut latencies = self.latencies.clone();
        latencies.sort_unstable();
        ServeReport {
            tenants,
            batches: self.batches,
            batched_requests: self.batched_requests,
            hedges_launched: self.hedges_launched,
            hedge_wins: self.hedge_wins,
            cache: CacheReport {
                hits: self.cache.hits,
                misses: self.cache.misses,
                evictions: self.cache.evictions,
                invalidations: self.cache.invalidations,
            },
            degrade_transitions: self.degrade.transitions.clone(),
            degrade_peak: self.degrade.peak,
            latencies_ns: latencies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::SimBackbone;

    const MS: u64 = 1_000_000;

    fn core_with(cfg: ServeConfig, tenant_cfgs: &[TenantConfig]) -> ServeCore {
        let backbone = Arc::new(SimBackbone::new(8, MS, MS / 10));
        ServeCore::new(cfg, tenant_cfgs, backbone, 0)
    }

    fn run_batch(core: &mut ServeCore, now_ns: u64) -> Option<(Batch, u64)> {
        let batch = core.form_batch(now_ns)?;
        let backbone = Arc::new(SimBackbone::new(8, MS, MS / 10));
        let results = backbone.encode(&batch.entries());
        let cost = backbone.batch_cost_ns(batch.requests.len());
        let done = now_ns + cost;
        core.complete_batch(&batch, &results, cost, done);
        Some((batch, done))
    }

    #[test]
    fn admit_batch_complete_balances_books() {
        let cfg = ServeConfig { linger_ns: 0, ..ServeConfig::default() };
        let mut core = core_with(cfg, &[TenantConfig::standard(f64::INFINITY)]);
        for tile in 0..5u64 {
            let (_, v) = core.submit(0, tile, 0);
            assert!(v.admitted());
        }
        run_batch(&mut core, 0).expect("batch forms");
        let r = core.report();
        r.assert_conservation();
        assert_eq!(r.goodput(), 5);
        assert_eq!(r.batches, 1);
    }

    #[test]
    fn queue_overflow_rejects_with_retry_after() {
        let mut t = TenantConfig::standard(f64::INFINITY);
        t.queue_capacity = 2;
        let mut core = core_with(ServeConfig::default(), &[t]);
        assert!(core.submit(0, 0, 0).1.admitted());
        assert!(core.submit(0, 1, 0).1.admitted());
        match core.submit(0, 2, 0).1 {
            Verdict::Rejected { reason: RejectReason::QueueFull, retry_after_ns } => {
                assert!(retry_after_ns > 0, "retry-after must be an honest estimate");
            }
            v => panic!("expected QueueFull, got {v:?}"),
        }
        core.drain_shutdown(1); // conservation is a terminal-state property
        core.report().assert_conservation();
    }

    #[test]
    fn rate_limit_rejects_beyond_bucket() {
        let mut t = TenantConfig::standard(10.0);
        t.burst = 2.0;
        let mut core = core_with(ServeConfig::default(), &[t]);
        assert!(core.submit(0, 0, 0).1.admitted());
        assert!(core.submit(0, 1, 0).1.admitted());
        match core.submit(0, 2, 0).1 {
            Verdict::Rejected { reason: RejectReason::RateLimited, retry_after_ns } => {
                assert!(retry_after_ns > 0);
            }
            v => panic!("expected RateLimited, got {v:?}"),
        }
    }

    #[test]
    fn expired_requests_shed_before_compute() {
        let mut t = TenantConfig::standard(f64::INFINITY);
        t.deadline_ns = 10 * MS;
        let cfg = ServeConfig { linger_ns: 0, ..ServeConfig::default() };
        let mut core = core_with(cfg, &[t]);
        core.submit(0, 0, 0);
        core.submit(0, 1, 0);
        // both deadlines long gone: no batch forms, both shed
        assert!(core.form_batch(100 * MS).is_none());
        let r = core.report();
        r.assert_conservation();
        assert_eq!(r.tenants[&0].shed_deadline, 2);
        assert_eq!(r.batches, 0, "dead work never reached the backbone");
    }

    #[test]
    fn linger_holds_small_batches_then_releases() {
        let cfg = ServeConfig { linger_ns: 5 * MS, ..ServeConfig::default() };
        let mut core = core_with(cfg, &[TenantConfig::standard(f64::INFINITY)]);
        core.submit(0, 0, 0);
        assert!(core.form_batch(MS).is_none(), "inside the linger window");
        assert_eq!(core.next_event_ns(MS), Some(5 * MS), "wake at linger expiry");
        let b = core.form_batch(6 * MS).expect("linger expired");
        assert_eq!(b.requests.len(), 1);
    }

    #[test]
    fn full_batch_skips_linger() {
        let cfg =
            ServeConfig { linger_ns: 5 * MS, max_batch: 2, ..ServeConfig::default() };
        let mut core = core_with(cfg, &[TenantConfig::standard(f64::INFINITY)]);
        core.submit(0, 0, 0);
        core.submit(0, 1, 0);
        assert!(core.form_batch(0).is_some(), "a full batch goes immediately");
    }

    #[test]
    fn premium_rides_ahead_of_low() {
        let low = TenantConfig::standard(f64::INFINITY).with_priority(Priority::Low);
        let premium = TenantConfig::standard(f64::INFINITY).with_priority(Priority::Premium);
        let cfg = ServeConfig { linger_ns: 0, max_batch: 2, ..ServeConfig::default() };
        let mut core = core_with(cfg, &[low, premium]);
        core.submit(0, 0, 0);
        core.submit(0, 1, 0);
        core.submit(1, 2, 0);
        let b = core.form_batch(0).unwrap();
        assert_eq!(b.requests[0].tenant, 1, "premium first despite arriving last");
        assert_eq!(b.requests.len(), 2);
    }

    #[test]
    fn cache_fast_path_completes_at_submit() {
        let cfg = ServeConfig { linger_ns: 0, ..ServeConfig::default() };
        let mut core = core_with(cfg, &[TenantConfig::standard(f64::INFINITY)]);
        core.submit(0, 7, 0);
        run_batch(&mut core, 0);
        let (_, v) = core.submit(0, 7, 10 * MS);
        assert!(v.admitted());
        let r = core.report();
        r.assert_conservation();
        assert_eq!(r.tenants[&0].from_cache, 1, "second request served from cache");
        assert_eq!(r.batches, 1, "no second backbone batch");
    }

    #[test]
    fn shutdown_sheds_queue_and_refuses_new_work() {
        let mut core = core_with(ServeConfig::default(), &[TenantConfig::standard(f64::INFINITY)]);
        core.submit(0, 0, 0);
        core.submit(0, 1, 0);
        core.drain_shutdown(MS);
        assert_eq!(core.queued_total(), 0);
        match core.submit(0, 2, 2 * MS).1 {
            Verdict::Rejected { reason: RejectReason::ShuttingDown, .. } => {}
            v => panic!("expected ShuttingDown, got {v:?}"),
        }
        let r = core.report();
        r.assert_conservation();
        assert_eq!(r.tenants[&0].shed_shutdown, 2);
    }

    #[test]
    fn undefended_mode_queues_without_limit_and_never_sheds() {
        let mut t = TenantConfig::standard(1.0);
        t.queue_capacity = 2;
        t.deadline_ns = MS;
        let cfg = ServeConfig { linger_ns: 0, ..ServeConfig::undefended() };
        let mut core = core_with(cfg, &[t]);
        for tile in 0..50u64 {
            assert!(core.submit(0, tile, 0).1.admitted(), "no admission control");
        }
        assert_eq!(core.queued_total(), 50, "unbounded queue growth");
        // far past every deadline, the naive server still computes it all
        let mut now = 100 * MS;
        while let Some((_, done)) = run_batch(&mut core, now) {
            now = done;
        }
        let r = core.report();
        r.assert_conservation();
        assert_eq!(r.tenants[&0].shed_deadline, 0);
        assert_eq!(r.completed(), 50);
        assert_eq!(r.goodput(), 0, "every completion was late — the naive failure mode");
    }

    #[test]
    fn sustained_overload_climbs_ladder_and_sheds_low_at_door() {
        let mut low = TenantConfig::standard(f64::INFINITY).with_priority(Priority::Low);
        low.queue_capacity = 8;
        low.deadline_ns = 5 * MS;
        let cfg = ServeConfig { linger_ns: 0, max_batch: 2, ..ServeConfig::default() };
        let mut core = core_with(cfg, &[low]);
        // flood: queues saturate, deadlines miss, ladder climbs
        let mut now;
        let mut degraded_reject = false;
        for step in 0..400u64 {
            now = step * MS;
            for tile in 0..6u64 {
                let (_, v) = core.submit(0, step * 100 + tile, now);
                if matches!(v, Verdict::Rejected { reason: RejectReason::Degraded, .. }) {
                    degraded_reject = true;
                }
            }
            // a slow server: one small batch per ms
            if let Some(batch) = core.form_batch(now) {
                let n = batch.requests.len();
                let cost = 10 * MS; // pathologically slow => guaranteed misses
                let results: Vec<_> = (0..n).map(|_| Arc::new(vec![0.0f32; 8])).collect();
                core.complete_batch(&batch, &results, cost, now + cost);
            }
        }
        let r = core.report();
        r.assert_conservation();
        assert_eq!(r.degrade_peak, DegradeLevel::ShedLow, "ladder reached L3");
        assert!(degraded_reject, "low-priority turned away at the door");
        assert!(!r.degrade_transitions.is_empty());
    }

    #[test]
    fn backbone_swap_invalidates_served_cache() {
        let backbone = Arc::new(SimBackbone::new(8, MS, MS / 10));
        let cfg = ServeConfig { linger_ns: 0, ..ServeConfig::default() };
        let mut core = ServeCore::new(
            cfg,
            &[TenantConfig::standard(f64::INFINITY)],
            Arc::clone(&backbone) as Arc<dyn Backbone>,
            0,
        );
        core.submit(0, 7, 0);
        let batch = core.form_batch(0).unwrap();
        let results = backbone.encode(&batch.entries());
        core.complete_batch(&batch, &results, MS, MS);
        backbone.swap_backbone();
        core.on_backbone_swap();
        // the old embedding must not serve: request re-enters the queue
        let (_, v) = core.submit(0, 7, 2 * MS);
        assert!(v.admitted());
        assert_eq!(core.queued_total(), 1, "stale entry did not fast-path");
        let r = core.report();
        assert_eq!(r.tenants[&0].from_cache, 0);
        assert!(r.cache.invalidations >= 1);
    }
}
