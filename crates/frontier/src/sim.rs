//! Top-level simulation entry point.

use crate::engine::{execute, record_timeline, Task, Timeline};
use crate::io::IoModel;
use crate::machine::FrontierMachine;
use crate::memory::{MemoryEstimate, MemoryModel};
use crate::power::{sample_trace, PowerTrace};
use crate::schedule::{build_step, serialize_streams, strip_comm};
use crate::workload::StepWorkload;
use geofm_fsdp::{PrefetchPolicy, ShardingStrategy};

/// One simulated configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The machine allocation.
    pub machine: FrontierMachine,
    /// Sharding strategy.
    pub strategy: ShardingStrategy,
    /// Prefetch policy.
    pub prefetch: PrefetchPolicy,
    /// Limit in-flight all-gathers.
    pub limit_all_gathers: bool,
    /// Comm/compute overlap: `true` (the default, what FSDP actually does)
    /// runs comm and compute on independent streams; `false` serializes
    /// every task in issue order, fully exposing communication — what the
    /// threaded `geofm-fsdp` engine does, since every one of its
    /// collectives blocks the rank thread.
    pub overlap: bool,
    /// The per-rank step workload.
    pub workload: StepWorkload,
    /// IO model (for `io`/`real` curves).
    pub io: IoModel,
}

impl SimConfig {
    /// Build with the paper's tuned knobs (BACKWARD_PRE + limit_all_gathers
    /// + overlapped streams).
    pub fn tuned(machine: FrontierMachine, strategy: ShardingStrategy, workload: StepWorkload) -> Self {
        Self {
            machine,
            strategy,
            prefetch: PrefetchPolicy::BackwardPre,
            limit_all_gathers: true,
            overlap: true,
            workload,
            io: IoModel::default(),
        }
    }

    /// [`SimConfig::tuned`] with overlap disabled (fully serialized
    /// schedule; comm is entirely exposed).
    pub fn tuned_no_overlap(
        machine: FrontierMachine,
        strategy: ShardingStrategy,
        workload: StepWorkload,
    ) -> Self {
        Self { overlap: false, ..Self::tuned(machine, strategy, workload) }
    }
}

/// Simulation output for one configuration.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Step time on synthetic (cached) data — compute + communication.
    pub step_time_syn: f64,
    /// Step time with communication removed ("syn no comm").
    pub step_time_no_comm: f64,
    /// Real application step time (syn + exposed loader overhead).
    pub step_time_real: f64,
    /// Aggregate images/s on synthetic data.
    pub ips_syn: f64,
    /// Aggregate images/s without communication.
    pub ips_no_comm: f64,
    /// Aggregate images/s of the real application.
    pub ips_real: f64,
    /// Aggregate images/s of the dataloader in isolation.
    pub ips_io: f64,
    /// Ideal linear-scaling images/s (single-node no-comm rate × nodes).
    pub ips_ideal: f64,
    /// Busy time of the comm stream per step.
    pub comm_busy: f64,
    /// Busy time of the compute stream per step.
    pub compute_busy: f64,
    /// Per-GPU memory estimate.
    pub memory: MemoryEstimate,
    /// Whether the configuration fits in HBM.
    pub fits: bool,
    /// The step timeline (for power traces).
    pub timeline: Timeline,
    /// The step's task DAG, aligned with `timeline.spans` (for trace export).
    pub tasks: Vec<Task>,
}

impl SimResult {
    /// Fraction of the step attributable to exposed communication:
    /// `1 − t_no_comm / t_syn`.
    pub fn comm_share(&self) -> f64 {
        if self.step_time_syn <= 0.0 {
            0.0
        } else {
            1.0 - self.step_time_no_comm / self.step_time_syn
        }
    }

    /// Sample a rocm-smi-style telemetry trace for this configuration.
    pub fn power_trace(&self, machine: &FrontierMachine, samples: usize) -> PowerTrace {
        sample_trace(&self.timeline, &machine.cal, self.memory.total_gib(), samples)
    }

    /// Export this step's DES schedule as virtual-time trace spans under
    /// process `pid` (see [`record_timeline`]).
    pub fn record_trace(&self, trace: &geofm_telemetry::TraceRecorder, pid: u64) {
        record_timeline(&self.tasks, &self.timeline, trace, pid);
    }
}

/// Simulate one training step of `cfg`.
pub fn simulate(cfg: &SimConfig) -> SimResult {
    let step_tasks = |machine: &FrontierMachine| -> Vec<Task> {
        let t = build_step(machine, &cfg.workload, cfg.strategy, cfg.prefetch, cfg.limit_all_gathers);
        if cfg.overlap {
            t
        } else {
            serialize_streams(&t)
        }
    };
    let tasks = step_tasks(&cfg.machine);
    let timeline = execute(&tasks);
    // pure-compute counterfactual: comm durations zeroed on the *same*
    // (possibly serialized) DAG, so comm_share() prices exactly what the
    // overlap knob changes
    let no_comm = execute(&strip_comm(&tasks));

    let global_batch = (cfg.machine.world() * cfg.workload.local_batch) as f64;
    let step_time_syn = timeline.makespan;
    let step_time_no_comm = no_comm.makespan;
    let step_time_real = step_time_syn + cfg.io.exposed_overhead(step_time_syn);

    // ideal: single-node rate (with its own single-node comm) scaled linearly
    let one_node = FrontierMachine { nodes: 1, ..cfg.machine };
    let one_tasks = step_tasks(&one_node);
    let one_time = execute(&one_tasks).makespan;
    let ips_ideal = (one_node.world() * cfg.workload.local_batch) as f64 / one_time
        * cfg.machine.nodes as f64;

    let memory = MemoryModel::estimate(&cfg.workload, cfg.strategy, cfg.machine.world());
    let fits = memory.total() <= cfg.machine.hbm_per_gpu;

    SimResult {
        step_time_syn,
        step_time_no_comm,
        step_time_real,
        ips_syn: global_batch / step_time_syn,
        ips_no_comm: global_batch / step_time_no_comm,
        ips_real: global_batch / step_time_real,
        ips_io: cfg.io.io_ips(&cfg.machine, cfg.workload.image_bytes),
        ips_ideal,
        comm_busy: timeline.comm_busy,
        compute_busy: timeline.compute_busy,
        memory,
        fits,
        timeline,
        tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{MaeWorkload, VitWorkload};
    use geofm_vit::{VitConfig, VitVariant};

    fn sim(nodes: usize, v: VitVariant, strategy: ShardingStrategy) -> SimResult {
        let machine = FrontierMachine::new(nodes);
        let wl = VitWorkload::build(&VitConfig::table1(v), 32, 224);
        simulate(&SimConfig::tuned(machine, strategy, wl))
    }

    #[test]
    fn ordering_of_curves_matches_figure1_structure() {
        // io > no-comm ≥ syn ≥ real (in ips)
        let machine = FrontierMachine::new(8);
        let wl = MaeWorkload::build(&VitConfig::table1(VitVariant::B3), 32, 0.75);
        let r = simulate(&SimConfig::tuned(machine, ShardingStrategy::NoShard, wl));
        assert!(r.ips_io > r.ips_no_comm, "io {} vs no_comm {}", r.ips_io, r.ips_no_comm);
        assert!(r.ips_no_comm >= r.ips_syn);
        assert!(r.ips_syn > r.ips_real);
    }

    #[test]
    fn comm_share_grows_with_scale() {
        let machine1 = FrontierMachine::new(1);
        let machine64 = FrontierMachine::new(64);
        let wl = MaeWorkload::build(&VitConfig::table1(VitVariant::B3), 32, 0.75);
        let r1 = simulate(&SimConfig::tuned(machine1, ShardingStrategy::NoShard, wl.clone()));
        let r64 = simulate(&SimConfig::tuned(machine64, ShardingStrategy::NoShard, wl));
        assert!(r64.comm_share() > r1.comm_share());
    }

    #[test]
    fn figure1_comm_cost_near_22_percent_at_64_nodes() {
        // §IV-A: communication cost ≈ 22 % at 64 nodes for MAE-3B NO_SHARD
        let machine = FrontierMachine::new(64);
        let wl = MaeWorkload::build(&VitConfig::table1(VitVariant::B3), 32, 0.75);
        let r = simulate(&SimConfig::tuned(machine, ShardingStrategy::NoShard, wl));
        let share = r.comm_share();
        assert!(
            share > 0.10 && share < 0.35,
            "comm share at 64 nodes = {:.2} (paper ≈ 0.22)",
            share
        );
    }

    #[test]
    fn overlap_off_exposes_strictly_more_comm() {
        let wl = MaeWorkload::build(&VitConfig::table1(VitVariant::B3), 32, 0.75);
        for nodes in [1usize, 8, 64] {
            let machine = FrontierMachine::new(nodes);
            let on = simulate(&SimConfig::tuned(machine, ShardingStrategy::NoShard, wl.clone()));
            let off = simulate(&SimConfig::tuned_no_overlap(machine, ShardingStrategy::NoShard, wl.clone()));
            assert!(
                off.comm_share() > on.comm_share(),
                "{nodes} nodes: off {:.3} must exceed on {:.3}",
                off.comm_share(),
                on.comm_share()
            );
        }
    }

    #[test]
    fn weak_scaling_efficiency_below_one_and_decreasing() {
        let wl_eff = |nodes: usize| {
            let r = sim(nodes, VitVariant::B1, ShardingStrategy::NoShard);
            r.ips_syn / r.ips_ideal
        };
        let e1 = wl_eff(1);
        let e16 = wl_eff(16);
        let e64 = wl_eff(64);
        assert!(e1 <= 1.0 + 1e-9);
        assert!(e16 <= e1 + 1e-9);
        assert!(e64 <= e16 + 1e-9);
    }

    #[test]
    fn memory_flag_blocks_oversized_configs() {
        let r = sim(2, VitVariant::B15, ShardingStrategy::NoShard);
        assert!(!r.fits);
        let r2 = sim(2, VitVariant::B15, ShardingStrategy::Hybrid { shard_size: 4 });
        assert!(r2.fits);
    }

    #[test]
    fn power_trace_has_expected_sampling() {
        let r = sim(2, VitVariant::Base, ShardingStrategy::FullShard);
        let machine = FrontierMachine::new(2);
        let trace = r.power_trace(&machine, 100);
        assert_eq!(trace.t.len(), 100);
        assert!(trace.mean_power() > machine.cal.power_idle);
    }
}
