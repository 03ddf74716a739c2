//! Structured, comparable end-of-run report for the serving plane.
//!
//! The report is the serving twin of the trainer's "structured report,
//! never hang" contract: every run — healthy, overloaded, or chaotic —
//! terminates in a [`ServeReport`] whose counters obey the conservation
//! law and which derives `PartialEq`, so `tests/serve_chaos.rs` can pin
//! bit-identical replay under a pinned seed by comparing whole reports.

use crate::degrade::{DegradeLevel, DegradeTransition};
use crate::request::RejectReason;
use std::collections::BTreeMap;

/// Per-tenant terminal accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantReport {
    /// Requests submitted by this tenant.
    pub submitted: u64,
    /// Requests admitted past the door.
    pub admitted: u64,
    /// Rejections by reason.
    pub rejected: BTreeMap<RejectReason, u64>,
    /// Completions within deadline (goodput).
    pub completed_in_deadline: u64,
    /// Completions past deadline (throughput but not goodput).
    pub completed_late: u64,
    /// Cache-served completions.
    pub from_cache: u64,
    /// Stale-cache completions (degraded service).
    pub stale_served: u64,
    /// Shed in queue at deadline expiry.
    pub shed_deadline: u64,
    /// Shed on cache miss under cache-only degradation.
    pub shed_cache_miss: u64,
    /// Shed at shutdown drain.
    pub shed_shutdown: u64,
    /// Deepest the tenant's bounded queue ever got.
    pub queue_depth_max: usize,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
}

impl TenantReport {
    /// Total rejections across reasons.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.values().sum()
    }

    /// Total completions (in-deadline + late).
    pub fn completed_total(&self) -> u64 {
        self.completed_in_deadline + self.completed_late
    }

    /// Total sheds across causes.
    pub fn shed_total(&self) -> u64 {
        self.shed_deadline + self.shed_cache_miss + self.shed_shutdown
    }
}

/// Whole-run report (see module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Per-tenant accounting, keyed by tenant id (BTreeMap for
    /// deterministic iteration and `PartialEq`).
    pub tenants: BTreeMap<usize, TenantReport>,
    /// Batches executed on the backbone.
    pub batches: u64,
    /// Requests served per batch, summed (for mean batch size).
    pub batched_requests: u64,
    /// Hedged (duplicate) batch executions launched.
    pub hedges_launched: u64,
    /// Hedges whose duplicate finished first.
    pub hedge_wins: u64,
    /// Embedding-cache hits / misses / evictions / invalidations.
    pub cache: CacheReport,
    /// Every degradation-ladder transition, in order.
    pub degrade_transitions: Vec<DegradeTransition>,
    /// Highest rung reached.
    pub degrade_peak: DegradeLevel,
    /// Exact completion latencies (in-deadline *and* late), nanoseconds,
    /// sorted — late completions must inflate p99, that is the naive
    /// server's failure signature. Percentiles are exact, not bucketed.
    pub latencies_ns: Vec<u64>,
}

/// Cache counters snapshot for the report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheReport {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Capacity evictions.
    pub evictions: u64,
    /// Generation invalidations.
    pub invalidations: u64,
}

impl ServeReport {
    /// Sum of a per-tenant field across tenants.
    fn sum(&self, f: impl Fn(&TenantReport) -> u64) -> u64 {
        self.tenants.values().map(f).sum()
    }

    /// Total submitted across tenants.
    pub fn submitted(&self) -> u64 {
        self.sum(|t| t.submitted)
    }

    /// Total admitted across tenants.
    pub fn admitted(&self) -> u64 {
        self.sum(|t| t.admitted)
    }

    /// Total rejected across tenants and reasons.
    pub fn rejected(&self) -> u64 {
        self.sum(|t| t.rejected_total())
    }

    /// Total completions.
    pub fn completed(&self) -> u64 {
        self.sum(|t| t.completed_total())
    }

    /// Goodput: completions that met their deadline.
    pub fn goodput(&self) -> u64 {
        self.sum(|t| t.completed_in_deadline)
    }

    /// Total sheds.
    pub fn shed(&self) -> u64 {
        self.sum(|t| t.shed_total())
    }

    /// Exact percentile over completion latencies (`q` in `[0, 1]`);
    /// `None` when nothing completed.
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        if self.latencies_ns.is_empty() {
            return None;
        }
        let idx = ((self.latencies_ns.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(self.latencies_ns[idx])
    }

    /// Check the conservation law; returns the violations (empty = holds).
    ///
    /// For every tenant: `submitted == admitted + rejected` and
    /// `admitted == completed + shed`. A request that vanished or was
    /// double-counted shows up here, which is how the chaos suite proves
    /// "zero unaccounted requests".
    pub fn conservation_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (id, t) in &self.tenants {
            if t.submitted != t.admitted + t.rejected_total() {
                v.push(format!(
                    "tenant {id}: submitted {} != admitted {} + rejected {}",
                    t.submitted,
                    t.admitted,
                    t.rejected_total()
                ));
            }
            if t.admitted != t.completed_total() + t.shed_total() {
                v.push(format!(
                    "tenant {id}: admitted {} != completed {} + shed {}",
                    t.admitted,
                    t.completed_total(),
                    t.shed_total()
                ));
            }
        }
        v
    }

    /// Panic with the violation list unless the conservation law holds.
    pub fn assert_conservation(&self) {
        let v = self.conservation_violations();
        assert!(v.is_empty(), "request conservation violated: {v:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(submitted: u64, admitted: u64, done: u64, shed: u64) -> TenantReport {
        let mut t = TenantReport { submitted, admitted, ..Default::default() };
        t.completed_in_deadline = done;
        t.shed_deadline = shed;
        if submitted > admitted {
            t.rejected.insert(RejectReason::QueueFull, submitted - admitted);
        }
        t
    }

    #[test]
    fn conservation_holds_for_balanced_books() {
        let mut r = ServeReport::default();
        r.tenants.insert(0, tenant(10, 7, 5, 2));
        r.tenants.insert(1, tenant(4, 4, 4, 0));
        assert!(r.conservation_violations().is_empty());
        assert_eq!(r.submitted(), 14);
        assert_eq!(r.goodput(), 9);
        r.assert_conservation();
    }

    #[test]
    fn conservation_catches_lost_requests() {
        let mut r = ServeReport::default();
        let mut t = tenant(10, 7, 5, 2);
        t.shed_deadline = 1; // one admitted request unaccounted for
        r.tenants.insert(0, t);
        let v = r.conservation_violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("admitted 7 != completed 5 + shed 1"), "{v:?}");
    }

    #[test]
    fn percentiles_are_exact_on_sorted_latencies() {
        let r = ServeReport { latencies_ns: (1..=100).collect(), ..Default::default() };
        assert_eq!(r.latency_percentile(0.0), Some(1));
        assert_eq!(r.latency_percentile(0.5), Some(51));
        assert_eq!(r.latency_percentile(0.99), Some(99));
        assert_eq!(r.latency_percentile(1.0), Some(100));
        assert_eq!(ServeReport::default().latency_percentile(0.5), None);
    }

    #[test]
    fn reports_compare_by_value_for_replay_pinning() {
        let mut a = ServeReport::default();
        a.tenants.insert(0, tenant(3, 3, 3, 0));
        let b = a.clone();
        assert_eq!(a, b);
        a.tenants.get_mut(&0).unwrap().from_cache += 1;
        assert_ne!(a, b, "any drift must break equality");
    }
}
