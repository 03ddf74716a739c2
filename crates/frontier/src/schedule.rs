//! Builds the per-step task DAG for each sharding strategy — the simulator
//! twin of `geofm-fsdp`'s real communication schedule.

use crate::engine::{Stream, Task};
use crate::machine::{CommOp, FrontierMachine};
use crate::workload::StepWorkload;
use geofm_fsdp::{PrefetchPolicy, ShardingStrategy};

/// Bytes of unit `u` padded to a multiple of the shard-group size (FSDP
/// pads its flat parameters; also what `geofm_fsdp::FlatLayout` does).
fn padded_bytes(bytes: u64, k: usize) -> u64 {
    let elems = bytes / 4;
    elems.div_ceil(k as u64) * k as u64 * 4
}

/// Build one training step's task graph.
///
/// Streams: GPU compute and NIC comm. Units are gathered (sharded
/// strategies), computed forward, recomputed backward with the configured
/// prefetch policy, and reduced (reduce-scatter within the shard group,
/// all-reduce across replicas).
pub fn build_step(
    machine: &FrontierMachine,
    workload: &StepWorkload,
    strategy: ShardingStrategy,
    prefetch: PrefetchPolicy,
    limit_all_gathers: bool,
) -> Vec<Task> {
    let world = machine.world();
    let k = strategy.shard_group_size(world).min(world);
    let shard_geom = machine.shard_geom(k);
    let replica_geom =
        if k == 1 { machine.world_geom() } else { machine.replica_geom(k) };
    let m = replica_geom.m;
    let cal = machine.cal;
    let nunits = workload.units.len();
    let mut tasks: Vec<Task> = Vec::with_capacity(nunits * 6);

    let mut push = |dur: f64, stream: Stream, deps: Vec<usize>, label: String| -> usize {
        tasks.push(Task { dur, stream, deps, label });
        tasks.len() - 1
    };

    let gather_dur = |u: usize, order_in_phase: usize| -> f64 {
        let bytes = padded_bytes(workload.units[u].param_bytes, k);
        let mut d = machine.collective_time(CommOp::AllGather, bytes, &shard_geom);
        if !limit_all_gathers && order_in_phase >= 2 {
            // unthrottled in-flight gathers thrash the caching allocator
            d *= cal.unthrottled_gather_penalty;
        }
        d
    };

    // ---------- forward ----------
    let mut fwd_gather: Vec<Option<usize>> = vec![None; nunits];
    let mut fwd: Vec<usize> = Vec::with_capacity(nunits);
    for u in 0..nunits {
        if k > 1 {
            let mut deps = Vec::new();
            if limit_all_gathers && u >= 2 {
                // at most two gathered units in flight
                deps.push(fwd_gather[u - 2].unwrap());
            }
            let id = push(gather_dur(u, u), Stream::Comm, deps, format!("ag_fwd{}", u));
            fwd_gather[u] = Some(id);
        }
        let mut deps = Vec::new();
        if let Some(g) = fwd_gather[u] {
            deps.push(g);
        }
        if u > 0 {
            deps.push(fwd[u - 1]);
        }
        let unit = &workload.units[u];
        // sharded strategies unflatten gathered parameters on the compute
        // stream (the paper's model-sharding synchronization overhead)
        let copy = if k > 1 { machine.shard_copy_time(unit.param_bytes) } else { 0.0 };
        let id = push(
            machine.compute_time(unit.fwd_flops, unit.width) + copy,
            Stream::Compute,
            deps,
            format!("fwd{}", u),
        );
        fwd.push(id);
    }
    let last_fwd = fwd[nunits - 1];

    // ---------- backward ----------
    let regathers = strategy.regathers_in_backward() && k > 1;
    let mut bwd_prev: Option<usize> = None;
    let mut reduce_prev: Option<usize> = None;
    let mut regather_prev2: Option<usize> = None;
    let mut regather_prev: Option<usize> = None;
    let mut reduce_tasks: Vec<usize> = Vec::new();

    // DDP bucket assembly state
    let is_ddp = matches!(strategy, ShardingStrategy::Ddp { .. });
    let bucket_bytes_cfg = match strategy {
        ShardingStrategy::Ddp { bucket_bytes } => bucket_bytes as u64,
        _ => 0,
    };
    let mut bucket_fill: u64 = 0;

    for step_idx in 0..nunits {
        let u = nunits - 1 - step_idx;
        // backward re-gather (FULL_SHARD / HYBRID semantics)
        let regather = if regathers {
            let mut deps: Vec<usize> = Vec::new();
            match prefetch {
                PrefetchPolicy::BackwardPre => {
                    // issue as early as the comm stream allows once backward begins
                    if step_idx == 0 {
                        deps.push(last_fwd);
                    }
                }
                PrefetchPolicy::BackwardPost => {
                    if let Some(b) = bwd_prev {
                        deps.push(b);
                    } else {
                        deps.push(last_fwd);
                    }
                }
                PrefetchPolicy::None => {
                    if let Some(r) = reduce_prev {
                        deps.push(r);
                    } else {
                        deps.push(last_fwd);
                    }
                }
            }
            if limit_all_gathers {
                if let Some(g) = regather_prev2 {
                    deps.push(g);
                }
            }
            let id = push(gather_dur(u, step_idx), Stream::Comm, deps, format!("ag_bwd{}", u));
            regather_prev2 = regather_prev;
            regather_prev = Some(id);
            Some(id)
        } else {
            None
        };

        // backward compute
        let mut deps = vec![if let Some(b) = bwd_prev { b } else { last_fwd }];
        if let Some(g) = regather {
            deps.push(g);
        }
        let unit = &workload.units[u];
        // grad flatten (all sharded) + param unflatten (re-gathering ones)
        let copy = if k > 1 {
            let n_copies = if regathers { 2.0 } else { 1.0 };
            n_copies * machine.shard_copy_time(unit.param_bytes)
        } else {
            0.0
        };
        let bwd = push(
            machine.compute_time(unit.bwd_flops, unit.width) + copy,
            Stream::Compute,
            deps,
            format!("bwd{}", u),
        );
        bwd_prev = Some(bwd);

        // gradient reduction
        if is_ddp {
            // fixed-size buckets fire as gradients accumulate
            bucket_fill += workload.units[u].param_bytes;
            while bucket_fill >= bucket_bytes_cfg {
                bucket_fill -= bucket_bytes_cfg;
                let dur = machine.collective_time(
                    CommOp::AllReduce,
                    bucket_bytes_cfg,
                    &replica_geom,
                );
                let id = push(dur, Stream::Comm, vec![bwd], "ddp_bucket".into());
                reduce_tasks.push(id);
            }
        } else if k > 1 {
            let bytes = padded_bytes(unit.param_bytes, k);
            let rs = machine.collective_time(CommOp::ReduceScatter, bytes, &shard_geom);
            let rs_id = push(rs, Stream::Comm, vec![bwd], format!("rs{}", u));
            reduce_prev = Some(rs_id);
            reduce_tasks.push(rs_id);
            if m > 1 {
                let ar =
                    machine.collective_time(CommOp::AllReduce, bytes / k as u64, &replica_geom);
                let ar_id = push(ar, Stream::Comm, vec![rs_id], format!("ar{}", u));
                reduce_prev = Some(ar_id);
                reduce_tasks.push(ar_id);
            }
        } else {
            // NO_SHARD / HYBRID_1GPU: per-unit all-reduce across the world
            let mut dur =
                machine.collective_time(CommOp::AllReduce, unit.param_bytes, &replica_geom);
            if matches!(strategy, ShardingStrategy::NoShard) {
                dur += cal.alpha_call * (cal.no_shard_call_penalty - 1.0);
            }
            let id = push(dur, Stream::Comm, vec![bwd], format!("ar{}", u));
            reduce_prev = Some(id);
            reduce_tasks.push(id);
        }
    }
    // flush the last partial DDP bucket
    if is_ddp && bucket_fill > 0 {
        let dur = machine.collective_time(CommOp::AllReduce, bucket_fill, &replica_geom);
        let id = push(dur, Stream::Comm, vec![bwd_prev.unwrap()], "ddp_flush".into());
        reduce_tasks.push(id);
    }

    // ---------- optimizer ----------
    let owned_bytes = padded_bytes(workload.param_bytes(), k) / k as u64;
    let opt_dur = 50e-6 + 3.0 * owned_bytes as f64 / 1.0e12; // 3 passes at ~1 TB/s HBM
    let mut deps = reduce_tasks;
    deps.push(bwd_prev.unwrap());
    push(opt_dur, Stream::Compute, deps, "optimizer".into());

    tasks
}

/// Collapse the two-stream schedule into a fully serialized one: every
/// task additionally depends on its predecessor in issue order, so
/// communication is never concurrent with compute and the makespan is the
/// plain sum of all durations. This is the "overlap off" counterfactual
/// the `figU` sweep prices against the overlapped schedule — the DES twin
/// of the threaded `geofm-fsdp` engine, where every collective blocks the
/// compute thread.
pub fn serialize_streams(tasks: &[Task]) -> Vec<Task> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut deps = t.deps.clone();
            if i > 0 && !deps.contains(&(i - 1)) {
                deps.push(i - 1);
            }
            Task { dur: t.dur, stream: t.stream, deps, label: t.label.clone() }
        })
        .collect()
}

/// Identify comm tasks (used by the "syn no comm" variant of Figure 1).
pub fn strip_comm(tasks: &[Task]) -> Vec<Task> {
    tasks
        .iter()
        .map(|t| Task {
            dur: if t.stream == Stream::Comm { 0.0 } else { t.dur },
            stream: t.stream,
            deps: t.deps.clone(),
            label: t.label.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute;
    use crate::workload::VitWorkload;
    use geofm_vit::{VitConfig, VitVariant};

    fn wl(v: VitVariant) -> StepWorkload {
        VitWorkload::build(&VitConfig::table1(v), 32, 224)
    }

    fn run(nodes: usize, v: VitVariant, strategy: ShardingStrategy) -> f64 {
        let m = FrontierMachine::new(nodes);
        let tasks = build_step(&m, &wl(v), strategy, PrefetchPolicy::BackwardPre, true);
        execute(&tasks).makespan
    }

    #[test]
    fn graphs_execute_for_all_strategies() {
        for strategy in [
            ShardingStrategy::NoShard,
            ShardingStrategy::ddp_default(),
            ShardingStrategy::FullShard,
            ShardingStrategy::ShardGradOp,
            ShardingStrategy::Hybrid { shard_size: 1 },
            ShardingStrategy::Hybrid { shard_size: 2 },
            ShardingStrategy::Hybrid { shard_size: 8 },
        ] {
            let t = run(2, VitVariant::Base, strategy);
            assert!(t.is_finite() && t > 0.0, "{}", strategy.name());
        }
    }

    #[test]
    fn single_gpu_equivalent_has_no_comm_cost() {
        // 1 node, HYBRID_8 = shard across all 8 GPUs; NO_SHARD on 1 node
        // still all-reduces. A world of 8 with NoShard must be slower than
        // the pure-compute lower bound.
        let m = FrontierMachine::new(1);
        let tasks =
            build_step(&m, &wl(VitVariant::Base), ShardingStrategy::NoShard, PrefetchPolicy::BackwardPre, true);
        let with = execute(&tasks).makespan;
        let without = execute(&strip_comm(&tasks)).makespan;
        assert!(with >= without);
    }

    #[test]
    fn full_shard_gathers_twice_as_many_bytes_as_sgo() {
        let m = FrontierMachine::new(4);
        let count_gathers = |s: ShardingStrategy| -> usize {
            build_step(&m, &wl(VitVariant::B1), s, PrefetchPolicy::BackwardPre, true)
                .iter()
                .filter(|t| t.label.starts_with("ag_"))
                .count()
        };
        let fs = count_gathers(ShardingStrategy::FullShard);
        let sgo = count_gathers(ShardingStrategy::ShardGradOp);
        assert_eq!(fs, 2 * sgo, "FULL_SHARD re-gathers every unit in backward");
    }

    #[test]
    fn ddp_emits_more_collectives_for_bigger_models() {
        let m = FrontierMachine::new(2);
        let buckets = |v: VitVariant| -> usize {
            build_step(&m, &wl(v), ShardingStrategy::ddp_default(), PrefetchPolicy::BackwardPre, true)
                .iter()
                .filter(|t| t.label.starts_with("ddp"))
                .count()
        };
        assert!(buckets(VitVariant::B3) > 4 * buckets(VitVariant::Base));
    }

    #[test]
    fn prefetch_pre_is_at_least_as_fast_as_none() {
        let m = FrontierMachine::new(8);
        let wl5 = wl(VitVariant::B5);
        let t = |p: PrefetchPolicy| {
            execute(&build_step(&m, &wl5, ShardingStrategy::FullShard, p, true)).makespan
        };
        assert!(t(PrefetchPolicy::BackwardPre) <= t(PrefetchPolicy::None) * 1.001);
    }

    #[test]
    fn limit_all_gathers_helps_when_comm_bound() {
        let m = FrontierMachine::new(8);
        let wl5 = wl(VitVariant::B5);
        let t = |limit: bool| {
            execute(&build_step(&m, &wl5, ShardingStrategy::Hybrid { shard_size: 2 }, PrefetchPolicy::BackwardPre, limit))
                .makespan
        };
        assert!(t(true) <= t(false), "throttled gathers should not be slower");
    }

    #[test]
    fn weak_scaling_step_time_grows_with_nodes() {
        // comm costs grow with world size → per-step time must not shrink
        let t1 = run(1, VitVariant::B3, ShardingStrategy::NoShard);
        let t64 = run(64, VitVariant::B3, ShardingStrategy::NoShard);
        assert!(t64 >= t1);
    }

    #[test]
    fn serialized_makespan_is_the_sum_of_durations() {
        let m = FrontierMachine::new(4);
        let tasks = build_step(
            &m,
            &wl(VitVariant::Base),
            ShardingStrategy::FullShard,
            PrefetchPolicy::BackwardPre,
            true,
        );
        let serial = serialize_streams(&tasks);
        let sum: f64 = tasks.iter().map(|t| t.dur).sum();
        let makespan = execute(&serial).makespan;
        assert!(
            (makespan - sum).abs() < 1e-12 * sum.max(1.0),
            "serialized makespan {makespan} vs duration sum {sum}"
        );
    }

    #[test]
    fn serialization_never_speeds_up_a_schedule() {
        for strategy in [
            ShardingStrategy::NoShard,
            ShardingStrategy::FullShard,
            ShardingStrategy::Hybrid { shard_size: 8 },
        ] {
            let m = FrontierMachine::new(8);
            let tasks =
                build_step(&m, &wl(VitVariant::B1), strategy, PrefetchPolicy::BackwardPre, true);
            let overlapped = execute(&tasks).makespan;
            let serial = execute(&serialize_streams(&tasks)).makespan;
            assert!(
                serial >= overlapped - 1e-12,
                "{}: serial {serial} < overlapped {overlapped}",
                strategy.name()
            );
        }
    }
}
