//! Pricing **elastic shrink-and-continue** against **wait-for-checkpoint
//! restart** at Frontier scale.
//!
//! `geofm-fsdp`'s elastic trainer implements the mechanism: on a permanent
//! rank loss the survivors drain in-flight collectives, re-derive their
//! shards from the world-size-independent GEOFMCK3 image and keep training
//! at world − 1; when a spare rejoins the world grows back. In that
//! one-process engine the restart loop alone decides the new world, so it
//! runs no agreement round; a multi-node job must also agree on the
//! survivor set. This module prices that policy on the machine model, the
//! same way [`crate::faults`] prices classic checkpoint/restart:
//!
//! * **Shrink cost** — quiesce + survivor agreement ([`ElasticModel::
//!   consensus_alpha_s`]) plus redistributing the 3 × param-bytes
//!   optimizer image across the surviving interconnect at
//!   [`ElasticModel::reshard_bw`]. The failed step itself is lost (the
//!   in-memory snapshot is at most one step old), but *nothing waits on
//!   the batch scheduler*.
//! * **Degraded throughput** — a shrunken world strong-scales the fixed
//!   global batch: each step at `a` of `n` nodes costs `n/a ×` the
//!   full-world step time until a spare arrives after
//!   [`ElasticModel::spare_wait_s`] and a grow reshard restores full
//!   speed.
//! * **Restart baseline** — the classic policy pays the spare wait *and*
//!   [`ElasticModel::restart_cost_s`] (re-queue, re-init, checkpoint
//!   read-back) *and* reworks everything since the last durable
//!   checkpoint, priced by `geofm_resilience::simulate_campaign` on the
//!   identical failure process.
//!
//! The `figV` repro binary sweeps node-MTBF × job size over both policies
//! and CI enforces the headline: at high failure rates shrink-and-continue
//! strictly dominates, because its per-failure cost is seconds of reshard
//! plus a throughput haircut while restart's is minutes of queue + rework
//! that *recur* at the full-world failure rate.

use crate::workload::StepWorkload;
use geofm_resilience::{simulate_campaign, CampaignConfig, NodeFailureModel};

/// Cost/environment model for the elastic-vs-restart comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticModel {
    /// Mean time between failures of a single node, in hours (the sweep
    /// variable; the default matches [`crate::FaultModel`]).
    pub node_mtbf_hours: f64,
    /// Time until a replacement node is available to rejoin (spare-pool
    /// draw or repair), seconds. Both policies wait this long for the
    /// *node*; only the restart policy also stalls the *job* on it.
    pub spare_wait_s: f64,
    /// Restart-policy overhead per failure beyond the spare wait:
    /// re-queue, re-init, checkpoint read-back (seconds).
    pub restart_cost_s: f64,
    /// Sustained bandwidth for redistributing the global param + AdamW
    /// image during a reshard (bytes/s). Bounded by a node's Slingshot
    /// injection bandwidth (4 × 25 GB/s on Frontier) — default 100 GB/s.
    pub reshard_bw: f64,
    /// Latency of the drain plus the survivors' membership agreement that
    /// a multi-node job pays (seconds). The one-process engine needs no
    /// such round, so nothing here measures it; the default budgets
    /// 250 ms for a full-system barrier plus software overhead.
    pub consensus_alpha_s: f64,
    /// Fraction of the original world below which the shrunken job stops
    /// and waits for spares instead of continuing (memory and goodput both
    /// collapse if the survivors must hold the whole model).
    pub min_world_frac: f64,
}

impl Default for ElasticModel {
    fn default() -> Self {
        Self {
            node_mtbf_hours: 25_000.0,
            spare_wait_s: 600.0,
            restart_cost_s: 300.0,
            reshard_bw: 1e11,
            consensus_alpha_s: 0.25,
            min_world_frac: 0.5,
        }
    }
}

/// One cell of the elastic-vs-restart sweep (one MTBF, one job size),
/// averaged over seeded failure realisations.
#[derive(Debug, Clone, Copy)]
pub struct ElasticPoint {
    /// Node MTBF at this cell (hours).
    pub node_mtbf_hours: f64,
    /// Nodes in the job.
    pub nodes: usize,
    /// Mean failures per campaign under the elastic policy.
    pub failures: f64,
    /// Mean shrink transitions (= failures absorbed without a restart).
    pub shrinks: f64,
    /// Mean grow transitions (spares that rejoined mid-campaign).
    pub grows: f64,
    /// Fraction of elastic wall time spent below full world.
    pub degraded_frac: f64,
    /// Goodput of shrink-and-continue: useful full-world step-seconds over
    /// wall time.
    pub goodput_elastic: f64,
    /// Goodput of wait-for-checkpoint-restart on the same failure process.
    pub goodput_restart: f64,
}

/// Deterministic splitmix64 — the same generator the workspace test
/// harnesses use, so sweeps replay exactly per seed without an RNG crate
/// in this crate's dependency set.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Accounting of one elastic campaign realisation.
#[derive(Debug, Clone, Copy, Default)]
struct ElasticOutcome {
    wall_s: f64,
    degraded_s: f64,
    shrinks: u64,
    grows: u64,
}

impl ElasticModel {
    /// Cost of one reshard transition (shrink or grow): drain + consensus
    /// plus moving the params and both AdamW moments once across the
    /// reshard bandwidth.
    pub fn reshard_cost_s(&self, workload: &StepWorkload) -> f64 {
        self.consensus_alpha_s + 3.0 * workload.param_bytes() as f64 / self.reshard_bw
    }

    fn node_failure(&self) -> NodeFailureModel {
        NodeFailureModel { node_mtbf_s: self.node_mtbf_hours * 3600.0 }
    }

    /// One seeded realisation of the shrink-and-continue policy.
    ///
    /// Per-step discrete simulation: each step runs at `nodes/active ×`
    /// the full-world step time (strong scaling of the fixed global
    /// batch); a failure inside a step loses the partial step, pays one
    /// reshard, schedules the spare's return, and retries; due spares
    /// rejoin at step boundaries for another reshard. Durable checkpoints
    /// keep being written at their cadence — insurance, not the recovery
    /// path.
    #[allow(clippy::too_many_arguments)]
    fn simulate_elastic(
        &self,
        step_time_s: f64,
        total_steps: usize,
        nodes: usize,
        ckpt_every_steps: usize,
        ckpt_cost_s: f64,
        reshard_cost_s: f64,
        seed: u64,
    ) -> ElasticOutcome {
        assert!(nodes > 0 && total_steps > 0);
        let mtbf_s = self.node_failure().node_mtbf_s;
        let floor = ((nodes as f64 * self.min_world_frac).ceil() as usize).clamp(1, nodes);
        let mut rng = Rng(seed.wrapping_mul(0x5851_F42D_4C95_7F2D) + 1);
        let mut out = ElasticOutcome::default();
        let mut t = 0.0f64;
        let mut active = nodes;
        // return times of spares in flight, earliest first
        let mut repairs: Vec<f64> = Vec::new();
        let mut step = 0usize;
        while step < total_steps {
            // spares whose wait elapsed rejoin at the step boundary
            while active < nodes && repairs.first().is_some_and(|&r| r <= t) {
                repairs.remove(0);
                active += 1;
                t += reshard_cost_s;
                out.grows += 1;
            }
            // below the floor the job stalls until the next spare returns
            while active < floor {
                let r = repairs.remove(0);
                let stall = (r - t).max(0.0);
                t += stall;
                out.degraded_s += stall;
                active += 1;
                t += reshard_cost_s;
                out.grows += 1;
            }
            let dt = step_time_s * nodes as f64 / active as f64;
            // P(some active node fails inside this step)
            let p_fail = 1.0 - (-dt * active as f64 / mtbf_s).exp();
            if rng.f64() < p_fail {
                // partial step lost; survivors drain, agree, reshard
                let partial = dt * rng.f64();
                t += partial + reshard_cost_s;
                if active < nodes {
                    out.degraded_s += partial + reshard_cost_s;
                }
                active -= 1;
                repairs.push(t + self.spare_wait_s);
                repairs.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
                out.shrinks += 1;
                continue; // retry the step at the smaller world
            }
            t += dt;
            if active < nodes {
                out.degraded_s += dt;
            }
            step += 1;
            if step.is_multiple_of(ckpt_every_steps.max(1)) {
                t += ckpt_cost_s;
            }
        }
        out.wall_s = t;
        out
    }

    /// Price one (MTBF, nodes) cell: both policies on the same failure
    /// environment, averaged over `seeds` realisations. `useful` work is
    /// `total_steps × step_time_s` for both — an optimizer step is equally
    /// useful whichever world executed it.
    #[allow(clippy::too_many_arguments)]
    pub fn expected(
        &self,
        step_time_s: f64,
        total_steps: usize,
        nodes: usize,
        ckpt_every_steps: usize,
        ckpt_cost_s: f64,
        workload: &StepWorkload,
        seeds: u64,
    ) -> ElasticPoint {
        assert!(seeds > 0, "need at least one failure realisation");
        let reshard = self.reshard_cost_s(workload);
        let useful_s = total_steps as f64 * step_time_s;
        let (mut wall, mut degraded, mut shrinks, mut grows) = (0.0, 0.0, 0u64, 0u64);
        let mut restart_wall = 0.0;
        for seed in 0..seeds {
            let e = self.simulate_elastic(
                step_time_s,
                total_steps,
                nodes,
                ckpt_every_steps,
                ckpt_cost_s,
                reshard,
                seed,
            );
            wall += e.wall_s;
            degraded += e.degraded_s;
            shrinks += e.shrinks;
            grows += e.grows;
            // identical environment for the baseline: every failure costs
            // the spare wait plus the restart overhead plus rework
            let r = simulate_campaign(&CampaignConfig {
                step_time_s,
                total_steps,
                ckpt_every_steps,
                ckpt_cost_s,
                restart_cost_s: self.restart_cost_s + self.spare_wait_s,
                nodes,
                failure: self.node_failure(),
                seed,
            });
            restart_wall += r.wall_s;
        }
        let n = seeds as f64;
        ElasticPoint {
            node_mtbf_hours: self.node_mtbf_hours,
            nodes,
            failures: shrinks as f64 / n,
            shrinks: shrinks as f64 / n,
            grows: grows as f64 / n,
            degraded_frac: degraded / wall,
            goodput_elastic: useful_s / (wall / n),
            goodput_restart: useful_s / (restart_wall / n),
        }
    }

    /// Sweep node MTBFs (hours) for one job size; points come back in the
    /// order of `mtbf_hours`.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep(
        &self,
        step_time_s: f64,
        total_steps: usize,
        nodes: usize,
        ckpt_every_steps: usize,
        ckpt_cost_s: f64,
        workload: &StepWorkload,
        mtbf_hours: &[f64],
        seeds: u64,
    ) -> Vec<ElasticPoint> {
        mtbf_hours
            .iter()
            .map(|&h| {
                let m = Self { node_mtbf_hours: h, ..*self };
                m.expected(
                    step_time_s,
                    total_steps,
                    nodes,
                    ckpt_every_steps,
                    ckpt_cost_s,
                    workload,
                    seeds,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::MaeWorkload;
    use geofm_vit::{VitConfig, VitVariant};

    fn workload() -> StepWorkload {
        MaeWorkload::build(&VitConfig::table1(VitVariant::B3), 32, 0.75)
    }

    #[test]
    fn reshard_is_orders_of_magnitude_cheaper_than_restart() {
        let m = ElasticModel::default();
        let cost = m.reshard_cost_s(&workload());
        assert!(cost > m.consensus_alpha_s, "the image move is not free");
        assert!(
            cost * 20.0 < m.restart_cost_s + m.spare_wait_s,
            "reshard ({cost:.1}s) must be far below a restart round trip"
        );
    }

    #[test]
    fn elastic_dominates_restart_at_high_failure_rates() {
        // the figV headline, held at test scale: with nodes failing every
        // few hundred hours a 64-node campaign restarts constantly, while
        // the elastic job absorbs each loss for seconds of reshard
        let m = ElasticModel { node_mtbf_hours: 200.0, ..Default::default() };
        let p = m.expected(10.0, 2_000, 64, 50, 20.0, &workload(), 8);
        assert!(p.shrinks > 1.0, "the environment must actually fail: {p:?}");
        assert!(
            p.goodput_elastic > p.goodput_restart,
            "shrink-and-continue must dominate under frequent failures: {p:?}"
        );
    }

    #[test]
    fn policies_converge_when_failures_are_rare() {
        let m = ElasticModel { node_mtbf_hours: 1e7, ..Default::default() };
        let p = m.expected(10.0, 1_000, 64, 50, 20.0, &workload(), 4);
        assert!(p.shrinks < 0.5, "near-zero failure rate expected: {p:?}");
        let rel = (p.goodput_elastic - p.goodput_restart).abs() / p.goodput_restart;
        assert!(rel < 0.05, "with no failures the policies are the same job: {p:?}");
    }

    #[test]
    fn degradation_and_shrinks_grow_as_mtbf_drops() {
        let m = ElasticModel::default();
        let pts = m.sweep(10.0, 2_000, 64, 50, 20.0, &workload(), &[10_000.0, 500.0, 50.0], 6);
        assert!(pts[0].shrinks <= pts[1].shrinks && pts[1].shrinks < pts[2].shrinks);
        assert!(pts[2].degraded_frac > pts[0].degraded_frac);
        assert!(pts[2].grows <= pts[2].shrinks, "cannot rejoin more spares than departed");
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let m = ElasticModel { node_mtbf_hours: 300.0, ..Default::default() };
        let a = m.expected(10.0, 1_000, 32, 50, 20.0, &workload(), 5);
        let b = m.expected(10.0, 1_000, 32, 50, 20.0, &workload(), 5);
        assert_eq!(a.goodput_elastic.to_bits(), b.goodput_elastic.to_bits());
        assert_eq!(a.goodput_restart.to_bits(), b.goodput_restart.to_bits());
        assert_eq!(a.shrinks.to_bits(), b.shrinks.to_bits());
    }

    #[test]
    fn min_world_floor_stalls_instead_of_vanishing() {
        // an MTBF so low the job keeps shrinking: the floor must hold the
        // world at or above half, waiting for spares instead of running on
        // a sliver (or underflowing)
        let m = ElasticModel {
            node_mtbf_hours: 0.5,
            spare_wait_s: 5_000.0,
            ..Default::default()
        };
        let p = m.expected(10.0, 200, 8, 50, 20.0, &workload(), 3);
        assert!(p.grows > 0.0, "long spare waits at the floor force stall-and-regrow: {p:?}");
        assert!(p.goodput_elastic > 0.0 && p.goodput_elastic.is_finite());
    }
}
