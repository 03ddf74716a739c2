//! The per-rank FSDP engine: parameter gathering, gradient reduction,
//! sharded optimizer steps.

use crate::flat::FlatLayout;
use crate::strategy::{FsdpConfig, ShardingStrategy};
use geofm_collectives::{CollectiveError, CorruptPayload, RankGroups, RankLost};
use geofm_nn::{AdamW, AdamWState, Module, Optimizer};
use geofm_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

/// Charge the wall time of a blocking collective call to this step's
/// exposed-comm clock. A macro rather than a method so the timed
/// expression can borrow disjoint fields of `$self`.
macro_rules! exposed {
    ($self:ident, $e:expr) => {{
        let t0 = Instant::now();
        let r = $e;
        $self.exposed_ns += t0.elapsed().as_nanos() as u64;
        r
    }};
}

/// The reduce-path error contract: a corrupt verdict is *noted*, not
/// short-circuited — the remaining collectives still run (their payloads
/// are garbage, which is fine — no update gets applied) so every rank of
/// every group crosses the same barrier sequence and the error surfaces in
/// lockstep. Only a lost rank aborts immediately — its group is poisoned
/// and nothing can complete.
fn note(corrupt: &mut Option<CorruptPayload>, r: Result<(), CollectiveError>) -> Result<(), RankLost> {
    match r {
        Ok(()) => Ok(()),
        Err(CollectiveError::Corrupt(c)) => {
            corrupt.get_or_insert(c);
            Ok(())
        }
        Err(CollectiveError::Lost(l)) => Err(l),
    }
}

/// Statistics from one distributed step (local to this rank).
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// This rank's local loss.
    pub loss: f32,
    /// Global gradient norm (identical on every rank), post-averaging.
    pub grad_norm: f32,
    /// Learning rate applied.
    pub lr: f32,
}

/// Why a distributed step failed.
#[must_use = "a failed step must be handled (restart or rollback), not dropped"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepError {
    /// A peer rank died or stopped responding: the groups are poisoned and
    /// the attempt must be abandoned (elastic restart path).
    Lost(RankLost),
    /// A reduce contribution failed checksum verification. The step ran
    /// its full collective schedule — every rank of the affected group
    /// crossed every barrier and observed the identical error, and *no
    /// optimizer update was applied on this rank* — so the world is still
    /// barrier-aligned and can recover in-band (rollback-and-skip).
    Corrupt(CorruptPayload),
}

impl From<RankLost> for StepError {
    fn from(l: RankLost) -> Self {
        Self::Lost(l)
    }
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Lost(l) => write!(f, "{l}"),
            Self::Corrupt(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for StepError {}

/// One rank of an FSDP training job.
///
/// Construction contract (mirrors `torch.distributed` + FSDP wrapping):
///
/// * every rank builds the model **identically** (same seed);
/// * `groups` comes from [`geofm_collectives::ProcessGroups::hierarchy`]
///   with `shard_size = config.strategy.shard_group_size(world)`;
/// * all ranks call [`FsdpRank::try_step`] collectively, in lockstep.
pub struct FsdpRank<M: Module> {
    /// The wrapped model (parameters authoritative only after
    /// [`FsdpRank::try_materialize`] or at the top of each step).
    pub model: M,
    config: FsdpConfig,
    groups: RankGroups,
    layout: FlatLayout,
    world: usize,
    shard_rank: usize,
    /// Owned parameter shards, concatenated across units.
    owned_params: Vec<f32>,
    /// Offsets of each unit's shard within `owned_params`.
    shard_offsets: Vec<usize>,
    optimizer: AdamW,
    /// Optional shared telemetry: phase timings land in histograms
    /// `fsdp.<phase>.ns` and as trace spans on thread track = global rank.
    telemetry: Option<Arc<Telemetry>>,
    /// Nanoseconds of the current step spent *blocked* on communication
    /// (exposed comm). Reset at the top of each step.
    exposed_ns: u64,
    // scratch buffers reused across steps
    flat: Vec<f32>,
    grads: Vec<f32>,
    gathered: Vec<f32>,
    padded: Vec<f32>,
    rs_out: Vec<f32>,
    owned_grads: Vec<f32>,
}

impl<M: Module> FsdpRank<M> {
    /// Wrap `model` for distributed training.
    pub fn new(
        mut model: M,
        unit_sizes: &[usize],
        config: FsdpConfig,
        groups: RankGroups,
        weight_decay: f32,
    ) -> Self {
        let world = groups.world.size();
        let shard_n = config.strategy.shard_group_size(world);
        assert_eq!(
            groups.shard.size(),
            shard_n,
            "group hierarchy shard size {} must match strategy {}",
            groups.shard.size(),
            config.strategy.name()
        );
        let layout = FlatLayout::new(unit_sizes, shard_n);
        assert_eq!(layout.total_len(), model.num_params(), "unit sizes must cover the model");
        let shard_rank = groups.shard.rank();

        let mut flat = Vec::new();
        model.pack_values(&mut flat);

        // carve out this rank's parameter shards
        let mut owned_params = Vec::with_capacity(layout.total_shard_len());
        let mut shard_offsets = Vec::with_capacity(layout.num_units());
        for u in 0..layout.num_units() {
            shard_offsets.push(owned_params.len());
            owned_params.extend(layout.extract_shard(&flat, u, shard_rank));
        }

        // sharded weight-decay mask aligned to the owned layout
        let full_mask = model.decay_mask();
        let mask_f32: Vec<f32> = full_mask.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let mut owned_mask = Vec::with_capacity(owned_params.len());
        for u in 0..layout.num_units() {
            owned_mask.extend(layout.extract_shard(&mask_f32, u, shard_rank));
        }
        let optimizer = AdamW::new(owned_params.len(), weight_decay)
            .with_decay_mask(owned_mask.iter().map(|&v| v > 0.5).collect());

        Self {
            model,
            config,
            groups,
            layout,
            world,
            shard_rank,
            owned_params,
            shard_offsets,
            optimizer,
            telemetry: None,
            exposed_ns: 0,
            flat,
            grads: Vec::new(),
            gathered: Vec::new(),
            padded: Vec::new(),
            rs_out: Vec::new(),
            owned_grads: Vec::new(),
        }
    }

    /// Record per-step phase timings (gather / compute / regather / reduce /
    /// optimizer) into a shared [`Telemetry`] bundle.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        telemetry.trace.name_thread(0, self.groups.rank as u64, &format!("rank{}", self.groups.rank));
        self.telemetry = Some(telemetry);
        self
    }

    /// This rank's global index.
    pub fn rank(&self) -> usize {
        self.groups.rank
    }

    /// This rank's index within its shard group.
    pub fn shard_rank(&self) -> usize {
        self.shard_rank
    }

    /// Per-rank parameter memory actually held by this strategy (elements):
    /// owned shards + the transiently materialised full model.
    pub fn owned_param_elems(&self) -> usize {
        self.owned_params.len()
    }

    fn owned_range(&self, u: usize) -> std::ops::Range<usize> {
        let s = self.shard_offsets[u];
        s..s + self.layout.shard_len(u)
    }

    /// All-gather every unit's parameters into the model.
    fn try_gather_params(&mut self) -> Result<(), RankLost> {
        for u in 0..self.layout.num_units() {
            let r = self.owned_range(u);
            exposed!(
                self,
                self.groups.shard.try_all_gather(&self.owned_params[r], &mut self.gathered)
            )?;
            self.layout.write_gathered(&mut self.flat, u, &self.gathered);
        }
        self.model.unpack_values(&self.flat);
        Ok(())
    }

    /// Re-issue the gathers for the backward pass (FULL_SHARD/HYBRID
    /// semantics). Numerically a no-op here — parameters are unchanged —
    /// but it reproduces the strategy's communication volume exactly.
    fn try_regather_for_backward(&mut self) -> Result<(), RankLost> {
        for u in 0..self.layout.num_units() {
            let r = self.owned_range(u);
            exposed!(
                self,
                self.groups.shard.try_all_gather(&self.owned_params[r], &mut self.gathered)
            )?;
        }
        Ok(())
    }

    /// Gradient reduction, strategy by strategy; fills `owned_grads`.
    fn try_reduce_grads(
        &mut self,
        corrupt: &mut Option<CorruptPayload>,
    ) -> Result<(), RankLost> {
        match self.config.strategy {
            ShardingStrategy::Ddp { bucket_bytes } => {
                // fixed-size buckets over the whole flat gradient
                let bucket_elems = (bucket_bytes / 4).max(1);
                let mut start = 0;
                while start < self.grads.len() {
                    let end = (start + bucket_elems).min(self.grads.len());
                    note(
                        corrupt,
                        exposed!(
                            self,
                            self.groups.replica.try_all_reduce(&mut self.grads[start..end])
                        ),
                    )?;
                    start = end;
                }
                self.owned_grads.extend_from_slice(&self.grads);
            }
            ShardingStrategy::NoShard => {
                // per-unit all-reduce (FSDP's NO_SHARD message sizing)
                for u in 0..self.layout.num_units() {
                    let r = self.layout.unit_ranges[u].clone();
                    note(
                        corrupt,
                        exposed!(self, self.groups.replica.try_all_reduce(&mut self.grads[r])),
                    )?;
                }
                self.owned_grads.extend_from_slice(&self.grads);
            }
            ShardingStrategy::FullShard
            | ShardingStrategy::ShardGradOp
            | ShardingStrategy::Hybrid { .. } => {
                for u in 0..self.layout.num_units() {
                    self.layout.padded_unit(&self.grads, u, &mut self.padded);
                    note(
                        corrupt,
                        exposed!(
                            self,
                            self.groups.shard.try_reduce_scatter(&self.padded, &mut self.rs_out)
                        ),
                    )?;
                    if self.groups.replica.size() > 1 {
                        note(
                            corrupt,
                            exposed!(self, self.groups.replica.try_all_reduce(&mut self.rs_out)),
                        )?;
                    }
                    self.owned_grads.extend_from_slice(&self.rs_out);
                }
            }
        }
        Ok(())
    }

    /// Run one collective training step. `compute` must zero grads, run
    /// forward + backward on this rank's microbatch, and return the local
    /// loss; the engine handles everything else.
    ///
    /// A lost peer (poisoned group or barrier timeout) surfaces as
    /// [`StepError::Lost`]; a checksum-detected reduce corruption as
    /// [`StepError::Corrupt`]. On either error the model parameters and
    /// optimizer state are those of the last *completed* step — a failed
    /// step applies no partial update, so recovery can resume from the
    /// previous checkpoint (or, for `Corrupt`, roll back in-band) without
    /// unwinding half-applied state.
    ///
    /// On `Corrupt` the step still issues its **entire** collective
    /// schedule with garbage payloads before returning: in a hierarchy,
    /// a corruption seen only inside one shard group must not desync that
    /// group's ranks from the replica-group collectives their peers in
    /// other shard groups are still running.
    pub fn try_step(
        &mut self,
        lr: f32,
        compute: impl FnOnce(&mut M) -> f32,
    ) -> Result<StepReport, StepError> {
        let tel = self.telemetry.clone();
        let tid = self.groups.rank as u64;
        let phase = |name: &str| tel.as_deref().map(|t| t.phase(name, tid));
        if let Some(t) = tel.as_deref() {
            t.metrics.counter("fsdp.steps").inc(1);
        }
        let step_t0 = Instant::now();
        self.exposed_ns = 0;

        // 1. materialise parameters
        {
            let _p = phase("fsdp.gather");
            self.try_gather_params()?;
        }

        // 2. local compute
        let loss = {
            let _p = phase("fsdp.compute");
            compute(&mut self.model)
        };

        // 3. backward re-gather (strategy-dependent communication)
        if self.config.strategy.regathers_in_backward() && self.layout.shard_n > 1 {
            let _p = phase("fsdp.regather");
            self.try_regather_for_backward()?;
        }

        let _reduce_phase = phase("fsdp.reduce");
        // 4. reduce gradients — a corrupt verdict is noted, not
        // short-circuited (see `note`)
        self.model.pack_grads(&mut self.grads);
        self.owned_grads.clear();
        let mut corrupt: Option<CorruptPayload> = None;
        self.try_reduce_grads(&mut corrupt)?;

        // 5. average over the data-parallel degree
        let inv = 1.0 / self.world as f32;
        for g in &mut self.owned_grads {
            *g *= inv;
        }

        // 6. global grad norm (sum of owned squares; shard group partitions
        // the parameters, replica members hold identical copies)
        let mut sumsq = [self
            .owned_grads
            .iter()
            .map(|g| (*g as f64) * (*g as f64))
            .sum::<f64>() as f32];
        if self.layout.shard_n > 1 {
            note(&mut corrupt, exposed!(self, self.groups.shard.try_all_reduce(&mut sumsq)))?;
        }
        let grad_norm = sumsq[0].sqrt();

        // exposed-comm telemetry: how much of the step's comm-bearing span
        // this rank actually spent blocked on collectives
        if let Some(t) = tel.as_deref() {
            let step_ns = step_t0.elapsed().as_nanos() as u64;
            t.metrics.histogram("overlap.exposed.ns").record(self.exposed_ns);
            t.metrics.histogram("overlap.step.ns").record(step_ns);
            if let Some(permille) = self.exposed_ns.saturating_mul(1000).checked_div(step_ns) {
                t.metrics.histogram("overlap.exposed.permille").record(permille);
            }
        }

        if let Some(c) = corrupt {
            // full collective schedule completed; parameters and optimizer
            // untouched — surface the agreed verdict for rollback-and-skip
            return Err(StepError::Corrupt(c));
        }

        drop(_reduce_phase);

        // 7. sharded optimizer step
        {
            let _p = phase("fsdp.optimizer");
            self.optimizer.step(&mut self.owned_params, &self.owned_grads, lr);
        }

        Ok(StepReport { loss, grad_norm, lr })
    }

    /// Gather the final parameters into the model (collective call). A
    /// lost peer surfaces as `Err(RankLost)`.
    pub fn try_materialize(&mut self) -> Result<(), RankLost> {
        self.try_gather_params()
    }

    /// Pack the (materialised) model parameters; call after
    /// [`FsdpRank::try_materialize`].
    pub fn packed_params(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.model.pack_values(&mut out);
        out
    }

    /// Snapshot this rank's durable state for a checkpoint: the owned
    /// parameter shards and the sharded AdamW state. Exact f32 values — a
    /// restore from this snapshot resumes bit-identically.
    pub fn export_state(&self) -> (Vec<f32>, AdamWState) {
        (self.owned_params.clone(), self.optimizer.export_state())
    }

    /// Restore state captured by [`FsdpRank::export_state`] on an
    /// identically-configured rank (same model, strategy, world and shard
    /// position).
    ///
    /// # Panics
    /// Panics on a layout mismatch (the checkpoint belongs to a different
    /// configuration).
    pub fn restore_state(&mut self, params: &[f32], state: AdamWState) {
        assert_eq!(
            params.len(),
            self.owned_params.len(),
            "checkpoint shard length does not match this rank's layout"
        );
        self.owned_params.copy_from_slice(params);
        self.optimizer.load_state(state);
    }

    /// Poison every group this rank belongs to, unblocking all peers with
    /// `Err(RankLost)`. Called on the way down when this rank dies.
    pub fn poison_groups(&self) {
        self.groups.poison_all();
    }

    /// Synchronise on the world group (fallible).
    pub fn try_world_barrier(&self) -> Result<(), RankLost> {
        self.groups.world.try_barrier()
    }

    /// All-reduce a small scalar buffer across the **world** group —
    /// the trainer's per-step guard exchange (mean loss + corruption
    /// flag). Runs on the same checksummed path as the gradient reduces.
    pub fn try_world_all_reduce(&self, buf: &mut [f32]) -> Result<(), StepError> {
        match self.groups.world.try_all_reduce(buf) {
            Ok(()) => Ok(()),
            Err(CollectiveError::Lost(l)) => Err(StepError::Lost(l)),
            Err(CollectiveError::Corrupt(c)) => Err(StepError::Corrupt(c)),
        }
    }

    /// Arm a one-shot bit flip in this rank's next reduce contribution
    /// (see [`geofm_collectives::RankGroups::arm_bitflip`]) — the
    /// `BitFlipGrad` fault injection point.
    pub fn arm_bitflip(&self, bit: u32) {
        self.groups.arm_bitflip(bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geofm_collectives::{HierarchyLayout, ProcessGroups};
    use geofm_nn::{Linear, ParamVisitor};
    use geofm_tensor::{Tensor, TensorRng};

    /// A 2-unit toy model: two independent linear layers summed.
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

        /// loss = mean over batch of ‖(A+B)x − y‖²
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

    fn global_batch(step: usize) -> (Tensor, Tensor) {
        let mut rng = TensorRng::seed_from(1000 + step as u64);
        (rng.randn(&[8, 3], 1.0), rng.randn(&[8, 2], 1.0))
    }

    fn train(strategy: ShardingStrategy, world: usize, steps: usize) -> Vec<f32> {
        let shard_size = strategy.shard_group_size(world);
        let groups =
            ProcessGroups::hierarchy(HierarchyLayout { world, shard_size });
        let config = FsdpConfig::tuned(strategy);
        let results: Vec<std::sync::Mutex<Option<Vec<f32>>>> =
            (0..world).map(|_| std::sync::Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for g in groups {
                let results = &results;
                s.spawn(move || {
                    let rank = g.rank;
                    let (model, units) = Toy::new(42);
                    let mut fr = FsdpRank::new(model, &units, config, g, 0.0);
                    let per = 8 / world;
                    for step in 0..steps {
                        let (x, y) = global_batch(step);
                        let xl = x.rows(rank * per, (rank + 1) * per);
                        let yl = y.rows(rank * per, (rank + 1) * per);
                        fr.try_step(0.01, |m| m.compute(&xl, &yl)).expect("clean step");
                    }
                    fr.try_materialize().expect("clean gather");
                    *results[rank].lock().unwrap() = Some(fr.packed_params());
                });
            }
        });
        let out = results[0].lock().unwrap().take().unwrap();
        out
    }

    #[test]
    fn all_strategies_match_single_rank() {
        let baseline = train(ShardingStrategy::NoShard, 1, 4);
        for strategy in [
            ShardingStrategy::NoShard,
            ShardingStrategy::Ddp { bucket_bytes: 16 },
            ShardingStrategy::FullShard,
            ShardingStrategy::ShardGradOp,
            ShardingStrategy::Hybrid { shard_size: 2 },
            ShardingStrategy::Hybrid { shard_size: 1 },
            ShardingStrategy::Hybrid { shard_size: 4 },
        ] {
            let result = train(strategy, 4, 4);
            let max_diff = baseline
                .iter()
                .zip(&result)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                max_diff < 1e-4,
                "{} diverges from single-rank: max diff {}",
                strategy.name(),
                max_diff
            );
        }
    }

    #[test]
    fn ranks_agree_after_materialize() {
        let world = 4;
        let strategy = ShardingStrategy::FullShard;
        let groups = ProcessGroups::hierarchy(HierarchyLayout { world, shard_size: world });
        let config = FsdpConfig::tuned(strategy);
        let results: Vec<std::sync::Mutex<Option<Vec<f32>>>> =
            (0..world).map(|_| std::sync::Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for g in groups {
                let results = &results;
                s.spawn(move || {
                    let rank = g.rank;
                    let (model, units) = Toy::new(7);
                    let mut fr = FsdpRank::new(model, &units, config, g, 0.01);
                    for step in 0..3 {
                        let (x, y) = global_batch(step);
                        let xl = x.rows(rank * 2, rank * 2 + 2);
                        let yl = y.rows(rank * 2, rank * 2 + 2);
                        fr.try_step(0.01, |m| m.compute(&xl, &yl)).expect("clean step");
                    }
                    fr.try_materialize().expect("clean gather");
                    *results[rank].lock().unwrap() = Some(fr.packed_params());
                });
            }
        });
        let first = results[0].lock().unwrap().take().unwrap();
        for (r, slot) in results.iter().enumerate().skip(1) {
            let other = slot.lock().unwrap().take().unwrap();
            assert_eq!(first, other, "rank {} differs after materialize", r);
        }
    }

    #[test]
    fn full_shard_owns_fraction_of_params() {
        let world = 4;
        let groups = ProcessGroups::hierarchy(HierarchyLayout { world, shard_size: world });
        let config = FsdpConfig::tuned(ShardingStrategy::FullShard);
        std::thread::scope(|s| {
            for g in groups {
                s.spawn(move || {
                    let (mut model, units) = Toy::new(7);
                    let total = model.num_params();
                    let fr = FsdpRank::new(model, &units, config, g, 0.0);
                    // padded shares: each rank owns ~1/4 of the params
                    assert!(fr.owned_param_elems() <= total / 2);
                    assert!(fr.owned_param_elems() >= total / 8);
                });
            }
        });
    }

    #[test]
    fn traffic_profile_distinguishes_strategies() {
        // FULL_SHARD must move ~2× the all-gather bytes of SHARD_GRAD_OP
        // (backward re-gather), and NO_SHARD must move zero gather bytes.
        let volume = |strategy: ShardingStrategy| {
            let world = 4;
            let shard_size = strategy.shard_group_size(world);
            let groups = ProcessGroups::hierarchy(HierarchyLayout { world, shard_size });
            let traffic = groups[0].world.traffic();
            let config = FsdpConfig::tuned(strategy);
            std::thread::scope(|s| {
                for g in groups {
                    s.spawn(move || {
                        let rank = g.rank;
                        let (model, units) = Toy::new(3);
                        let mut fr = FsdpRank::new(model, &units, config, g, 0.0);
                        let (x, y) = global_batch(0);
                        let xl = x.rows(rank * 2, rank * 2 + 2);
                        let yl = y.rows(rank * 2, rank * 2 + 2);
                        fr.try_step(0.01, |m| m.compute(&xl, &yl)).expect("clean step");
                    });
                }
            });
            traffic.snapshot()
        };
        let full = volume(ShardingStrategy::FullShard);
        let sgo = volume(ShardingStrategy::ShardGradOp);
        let noshard = volume(ShardingStrategy::NoShard);
        assert!(full.all_gather > (sgo.all_gather as f64 * 1.8) as u64,
            "FULL_SHARD gathers {} vs SHARD_GRAD_OP {}", full.all_gather, sgo.all_gather);
        assert_eq!(noshard.all_gather, 0, "NO_SHARD must not all-gather");
        assert!(noshard.all_reduce > 0);
        // FULL_SHARD's only all-reduce is the scalar grad-norm exchange
        assert!(
            full.all_reduce < 64,
            "FULL_SHARD reduces grads via reduce-scatter, not all-reduce (got {})",
            full.all_reduce
        );
        assert!(full.reduce_scatter > 0 && sgo.reduce_scatter > 0);
    }

    #[test]
    fn hybrid_uses_both_reduction_kinds() {
        let world = 4;
        let strategy = ShardingStrategy::Hybrid { shard_size: 2 };
        let groups = ProcessGroups::hierarchy(HierarchyLayout { world, shard_size: 2 });
        let traffic = groups[0].world.traffic();
        let config = FsdpConfig::tuned(strategy);
        std::thread::scope(|s| {
            for g in groups {
                s.spawn(move || {
                    let rank = g.rank;
                    let (model, units) = Toy::new(3);
                    let mut fr = FsdpRank::new(model, &units, config, g, 0.0);
                    let (x, y) = global_batch(0);
                    let xl = x.rows(rank * 2, rank * 2 + 2);
                    let yl = y.rows(rank * 2, rank * 2 + 2);
                    fr.try_step(0.01, |m| m.compute(&xl, &yl)).expect("clean step");
                });
            }
        });
        let snap = traffic.snapshot();
        assert!(snap.all_gather > 0, "hybrid gathers in shard group");
        assert!(snap.reduce_scatter > 0, "hybrid reduce-scatters in shard group");
        assert!(snap.all_reduce > 0, "hybrid all-reduces across replicas");
    }

    #[test]
    fn ddp_bucket_count_scales_with_bucket_size() {
        let calls = |bucket_bytes: usize| {
            let world = 2;
            let groups = ProcessGroups::hierarchy(HierarchyLayout { world, shard_size: 1 });
            let traffic = groups[0].world.traffic();
            let config = FsdpConfig::tuned(ShardingStrategy::Ddp { bucket_bytes });
            std::thread::scope(|s| {
                for g in groups {
                    s.spawn(move || {
                        let rank = g.rank;
                        let (model, units) = Toy::new(3);
                        let mut fr = FsdpRank::new(model, &units, config, g, 0.0);
                        let (x, y) = global_batch(0);
                        let xl = x.rows(rank * 4, rank * 4 + 4);
                        let yl = y.rows(rank * 4, rank * 4 + 4);
                        fr.try_step(0.01, |m| m.compute(&xl, &yl)).expect("clean step");
                    });
                }
            });
            traffic.snapshot().calls
        };
        // Toy has 16 params → 64 bytes of grads; 8-byte buckets → many calls
        assert!(calls(8) > calls(1024), "smaller buckets must issue more collectives");
    }
}
