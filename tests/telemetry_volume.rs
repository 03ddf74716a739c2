//! Golden communication-volume tests.
//!
//! For one training step of every sharding strategy, the bytes recorded by
//! the telemetry-backed [`TrafficCounter`] must equal — **exactly**, to the
//! byte — the analytic prediction obtained by replaying the engine's
//! collective call sequence through
//! [`CollectiveKind::ring_bytes_per_rank`]. This pins the contract between
//! the threaded FSDP engine and the Frontier cost model: both derive
//! communication cost from the same per-rank ring formulas, so any drift in
//! either the step's collective schedule or the accounting shows up here as
//! a byte-level mismatch.
//!
//! The analytic model mirrors `FsdpRank::step`:
//!
//! 1. forward gather: per unit, all-gather of the padded unit over the
//!    shard group (issued even when the group has one rank — zero bytes,
//!    one call);
//! 2. backward re-gather: same again for FULL_SHARD / HYBRID when the
//!    shard group is larger than one rank;
//! 3. gradient reduction: DDP buckets all-reduces over the replica group;
//!    NO_SHARD all-reduces per unit; sharded strategies reduce-scatter the
//!    padded unit over the shard group, then all-reduce the shard over the
//!    replica group when replicas exist;
//! 4. grad-norm exchange: one 1-element all-reduce over the shard group
//!    when it is larger than one rank.

use geofm_collectives::{
    CollectiveKind, HierarchyLayout, ProcessGroups, TrafficCounter, TrafficSnapshot,
};
use geofm_fsdp::{FlatLayout, FsdpConfig, FsdpRank, ShardingStrategy};
use geofm_nn::{Linear, Module, ParamVisitor};
use geofm_tensor::{Tensor, TensorRng};
use geofm_telemetry::Telemetry;
use std::sync::Arc;

/// Two-unit toy model (mirrors the engine's own tests): two independent
/// linear layers summed, giving two FSDP units of different sizes so that
/// padding actually kicks in.
struct Toy {
    a: Linear,
    b: Linear,
}

impl Module for Toy {
    fn visit_params(&mut self, f: &mut ParamVisitor) {
        self.a.visit_params(f);
        self.b.visit_params(f);
    }
}

impl Toy {
    fn new(seed: u64) -> (Self, Vec<usize>) {
        let mut rng = TensorRng::seed_from(seed);
        let mut a = Linear::new(3, 2, &mut rng, "a");
        let mut b = Linear::new(3, 2, &mut rng, "b");
        let units = vec![a.num_params(), b.num_params()];
        (Self { a, b }, units)
    }

    fn compute(&mut self, x: &Tensor, y: &Tensor) -> f32 {
        self.zero_grad();
        let ya = self.a.forward(x);
        let yb = self.b.forward(x);
        let out = ya.add(&yb);
        let diff = out.sub(y);
        let n = diff.numel() as f32;
        let loss = diff.sum_sq() / n;
        let dy = diff.scale(2.0 / n);
        let _ = self.a.backward(&dy);
        let _ = self.b.backward(&dy);
        loss
    }
}

/// Replay one step's collective schedule analytically. Returns the traffic
/// one rank records; every rank records identical volume (padded shards are
/// equal length by construction), so the shared counter holds `world ×`
/// this.
fn expected_per_rank(strategy: ShardingStrategy, world: usize, unit_sizes: &[usize]) -> TrafficSnapshot {
    use CollectiveKind::*;
    let k = strategy.shard_group_size(world);
    let replicas = world / k;
    let layout = FlatLayout::new(unit_sizes, k);
    let mut s = TrafficSnapshot::default();

    // 1. forward gather (always issued, zero bytes when k == 1)
    for u in 0..layout.num_units() {
        s.all_gather += AllGather.ring_bytes_per_rank(layout.padded_lens[u] as u64 * 4, k);
        s.calls += 1;
    }

    // 2. backward re-gather
    if strategy.regathers_in_backward() && k > 1 {
        for u in 0..layout.num_units() {
            s.all_gather += AllGather.ring_bytes_per_rank(layout.padded_lens[u] as u64 * 4, k);
            s.calls += 1;
        }
    }

    // 3. gradient reduction
    match strategy {
        ShardingStrategy::Ddp { bucket_bytes } => {
            let total: usize = unit_sizes.iter().sum();
            let bucket_elems = (bucket_bytes / 4).max(1);
            let mut start = 0;
            while start < total {
                let end = (start + bucket_elems).min(total);
                s.all_reduce += AllReduce.ring_bytes_per_rank((end - start) as u64 * 4, replicas);
                s.calls += 1;
                start = end;
            }
        }
        ShardingStrategy::NoShard => {
            for &len in unit_sizes {
                s.all_reduce += AllReduce.ring_bytes_per_rank(len as u64 * 4, replicas);
                s.calls += 1;
            }
        }
        ShardingStrategy::FullShard | ShardingStrategy::ShardGradOp | ShardingStrategy::Hybrid { .. } => {
            for u in 0..layout.num_units() {
                s.reduce_scatter +=
                    ReduceScatter.ring_bytes_per_rank(layout.padded_lens[u] as u64 * 4, k);
                s.calls += 1;
                if replicas > 1 {
                    s.all_reduce +=
                        AllReduce.ring_bytes_per_rank(layout.shard_len(u) as u64 * 4, replicas);
                    s.calls += 1;
                }
            }
        }
    }

    // 4. grad-norm exchange (one f32)
    if k > 1 {
        s.all_reduce += AllReduce.ring_bytes_per_rank(4, k);
        s.calls += 1;
    }

    s
}

fn scale(s: TrafficSnapshot, by: u64) -> TrafficSnapshot {
    TrafficSnapshot {
        all_reduce: s.all_reduce * by,
        all_gather: s.all_gather * by,
        reduce_scatter: s.reduce_scatter * by,
        calls: s.calls * by,
    }
}

/// Run exactly one collective step of `strategy` on `world` rank threads,
/// recording through a telemetry-backed traffic counter; return the counter
/// snapshot and the registry's view of the same bytes.
fn run_one_step(strategy: ShardingStrategy, world: usize) -> (TrafficSnapshot, Arc<Telemetry>) {
    let tel = Telemetry::new();
    let traffic = Arc::new(TrafficCounter::with_registry(tel.metrics.clone()));
    let shard_size = strategy.shard_group_size(world);
    let groups =
        ProcessGroups::hierarchy_with_traffic(HierarchyLayout { world, shard_size }, traffic.clone());
    let config = FsdpConfig::tuned(strategy);
    std::thread::scope(|s| {
        for g in groups {
            s.spawn(move || {
                let rank = g.rank;
                let (model, units) = Toy::new(42);
                let mut fr = FsdpRank::new(model, &units, config, g, 0.0);
                let mut rng = TensorRng::seed_from(1000);
                let x = rng.randn(&[8, 3], 1.0);
                let y = rng.randn(&[8, 2], 1.0);
                let per = 8 / world;
                let xl = x.rows(rank * per, (rank + 1) * per);
                let yl = y.rows(rank * per, (rank + 1) * per);
                fr.step(0.01, |m| m.compute(&xl, &yl));
            });
        }
    });
    (traffic.snapshot(), tel)
}

fn strategies() -> Vec<ShardingStrategy> {
    vec![
        ShardingStrategy::NoShard,
        ShardingStrategy::FullShard,
        ShardingStrategy::ShardGradOp,
        ShardingStrategy::Hybrid { shard_size: 2 },
        ShardingStrategy::Ddp { bucket_bytes: 16 },
    ]
}

#[test]
fn recorded_bytes_match_analytic_prediction_exactly() {
    let world = 4;
    let (_, unit_sizes) = Toy::new(42);
    for strategy in strategies() {
        let expect = scale(expected_per_rank(strategy, world, &unit_sizes), world as u64);
        let (got, _) = run_one_step(strategy, world);
        assert_eq!(
            got,
            expect,
            "{}: recorded traffic diverges from the analytic ring model",
            strategy.name()
        );
    }
}

#[test]
fn registry_counters_agree_with_traffic_snapshot() {
    let world = 4;
    let (_, unit_sizes) = Toy::new(42);
    for strategy in strategies() {
        let expect = scale(expected_per_rank(strategy, world, &unit_sizes), world as u64);
        let (_, tel) = run_one_step(strategy, world);
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("comm.all_gather.bytes"), expect.all_gather, "{}", strategy.name());
        assert_eq!(snap.counter("comm.all_reduce.bytes"), expect.all_reduce, "{}", strategy.name());
        assert_eq!(
            snap.counter("comm.reduce_scatter.bytes"),
            expect.reduce_scatter,
            "{}",
            strategy.name()
        );
        let calls: u64 = CollectiveKind::ALL
            .iter()
            .map(|k| snap.counter(&format!("comm.{}.calls", k.name())))
            .sum();
        assert_eq!(calls, expect.calls, "{}", strategy.name());
    }
}

#[test]
fn ddp_and_noshard_move_identical_reduce_volume_when_unbucketed() {
    // With a bucket at least as large as the whole gradient, DDP's traffic
    // degenerates to NO_SHARD's per-step all-reduce volume except for unit
    // granularity; both must match their own analytic predictions and agree
    // on totals because integer ring division never truncates here
    // (world = 4 divides every 4-byte-scaled payload).
    let world = 4;
    let (_, unit_sizes) = Toy::new(42);
    let total: usize = unit_sizes.iter().sum();
    let ddp = expected_per_rank(ShardingStrategy::Ddp { bucket_bytes: total * 4 }, world, &unit_sizes);
    let noshard = expected_per_rank(ShardingStrategy::NoShard, world, &unit_sizes);
    assert_eq!(ddp.all_reduce, noshard.all_reduce);
    let (got, _) = run_one_step(ShardingStrategy::Ddp { bucket_bytes: total * 4 }, world);
    assert_eq!(got, scale(ddp, world as u64));
}
