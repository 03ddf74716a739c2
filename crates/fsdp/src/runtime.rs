//! The rank loop's stateful policies: the SDC guard, fault injection and
//! the two-barrier GEOFMCK3 checkpoint.
//!
//! The rank loop in `trainer.rs` is straight-line code that calls each
//! policy at its one point in the step, in one fixed order:
//!
//! | phase    | call                                                      |
//! |----------|-----------------------------------------------------------|
//! | screen   | [`Guard::skips`]: a skipped step ends here                |
//! | draw     | [`FaultInjector::draw`]: this step's faults               |
//! | step     | `FsdpRank::try_step`: the step's collective schedule      |
//! | verdict  | [`Guard::verdict`]: exchange, sentinel, rollback-and-skip |
//! | accept   | health record, [`Guard::snapshot`], [`Checkpointer::after_step`] |
//! | leave    | `FsdpRank::poison_groups` where a rank departs, a spare rejoins or a peer is lost |
//!
//! Four ordering laws ride on that order:
//!
//! 1. **Health before guard** — a rollback re-executes steps, so each
//!    execution's health is recorded before a later rollback can discard
//!    it, and the skip screen must not hide a straggler observation.
//! 2. **Skip screen before fault draws** — a skipped step consumes no
//!    faults, so a clean comparator told to skip the same steps replays
//!    the identical fault schedule (the bit-identical-recovery law).
//! 3. **Guard before checkpoint** — never persist state a pending verdict
//!    could roll back.
//! 4. **Checkpoint before drain** — nothing is persisted once the rank
//!    has poisoned its groups.
//!
//! Laws 1, 3 and 4 are held by step phase: health and the checkpoint run
//! only in the accept phase, right after the step's own verdict (a
//! skipped step draws no straggler delay), and the drain only on the way
//! out of the loop. Law 2 is the only one held by position — the skip
//! screen and the fault draws share the phase before the step — and
//! `tests/rank_loop.rs` pins it. DESIGN.md §17 is the prose version.

use crate::flat::FlatLayout;
use crate::rank::{FsdpRank, StepError, StepReport};
use crate::reshard::shards_to_global;
use crate::sentinel::Sentinel;
use crate::trainer::{GuardConfig, ResilienceConfig};
use geofm_collectives::{CorruptPayload, RankGroups};
use geofm_nn::{AdamWState, Module};
use geofm_resilience::{ElasticCheckpoint, FaultPlan, GuardReport, RankFailure};
use geofm_telemetry::Telemetry;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The guard takes its in-memory rollback snapshot every this many
/// completed steps: fewer means less re-executed work per rollback and
/// more snapshot copies.
const SNAPSHOT_EVERY: usize = 2;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn count(tel: Option<&Telemetry>, name: &str) {
    if let Some(t) = tel {
        t.metrics.counter(name).inc(1);
    }
}

fn fail(rank: usize, step: usize, cause: String) -> RankFailure {
    RankFailure { rank, step, cause }
}

// ---------------------------------------------------------------------------
// Guard
// ---------------------------------------------------------------------------

/// The SDC/loss-spike guard: deterministic skip screen, world-wide
/// verdict exchange, [`Sentinel`] screening, rollback-and-skip with a
/// bounded budget, and the cadenced in-memory rollback snapshot.
///
/// All guard state is deterministic and identical across ranks: the
/// sentinel sees only globally-agreed statistics and the skip set only
/// changes on globally-agreed trips, so every rank reaches the identical
/// verdict at the identical step — no extra agreement round needed.
pub(crate) struct Guard<'a> {
    gc: &'a GuardConfig,
    slot: &'a Mutex<Option<GuardReport>>,
    tel: Option<Arc<Telemetry>>,
    sentinel: Sentinel,
    skip: BTreeSet<usize>,
    gr: GuardReport,
    snap_params: Vec<f32>,
    snap_adam: AdamWState,
    snap_step: usize,
    snap_losses_len: usize,
}

impl<'a> Guard<'a> {
    /// Build the guard for one rank. Must be constructed **after** the
    /// resume restore so the initial rollback snapshot captures the
    /// restored state. Every attempt starts with an empty rank-local loss
    /// series (a resume's earlier losses live in the checkpoint), so the
    /// initial snapshot truncates the series to nothing.
    pub(crate) fn new<M: Module>(
        gc: &'a GuardConfig,
        fr: &FsdpRank<M>,
        start_step: usize,
        slot: &'a Mutex<Option<GuardReport>>,
        tel: Option<Arc<Telemetry>>,
    ) -> Self {
        let (snap_params, snap_adam) = fr.export_state();
        Self {
            gc,
            slot,
            tel,
            sentinel: Sentinel::new(gc.sentinel),
            skip: gc.skip_steps.clone(),
            gr: GuardReport::default(),
            snap_params,
            snap_adam,
            snap_step: start_step,
            snap_losses_len: 0,
        }
    }

    /// The skip screen: `step` is passed over entirely — no collectives,
    /// no fault draws, no update. Every rank holds the same skip set, so
    /// all pass over in lockstep.
    pub(crate) fn skips(&self, step: usize) -> bool {
        self.skip.contains(&step)
    }

    /// The verdict on a step whose collective schedule completed with
    /// `outcome` (a report, or the checksum layer's corrupt reduce):
    /// spread this rank's `(loss, corrupt?)` world-wide, screen the agreed
    /// statistics, and on a trip roll model, optimizer, loss series and
    /// sentinel back to the last snapshot and skip `step` from then on.
    /// `Ok(None)` means the update stands; `Ok(Some(to_step))` means the
    /// loop resumes from `to_step`.
    pub(crate) fn verdict<M: Module>(
        &mut self,
        fr: &mut FsdpRank<M>,
        rank: usize,
        world: usize,
        step: usize,
        outcome: &Result<StepReport, CorruptPayload>,
        local_losses: &mut Vec<f32>,
    ) -> Result<Option<usize>, RankFailure> {
        let corrupt = outcome.as_ref().err().copied();
        let mut exchange_corrupt: Option<CorruptPayload> = None;
        let mut ex = [
            outcome.as_ref().map_or(0.0, |r| r.loss),
            if corrupt.is_some() { 1.0 } else { 0.0 },
        ];
        match fr.try_world_all_reduce(&mut ex) {
            Ok(()) => {}
            Err(StepError::Corrupt(c)) => exchange_corrupt = Some(c),
            Err(e) => {
                count(self.tel.as_deref(), "fault.rank_lost");
                fr.poison_groups();
                return Err(fail(rank, step, e.to_string()));
            }
        }
        let trip_cause: Option<String> = if ex[1] > 0.0 || exchange_corrupt.is_some() {
            self.gr.checksum_trips += 1;
            Some(match corrupt.or(exchange_corrupt) {
                Some(c) => {
                    format!("corrupt reduce payload (rank {}, chunk {})", c.rank, c.chunk)
                }
                None => "corrupt reduce payload detected by a peer group".into(),
            })
        } else {
            let mean_loss = ex[0] / world as f32;
            let r = outcome.as_ref().expect("no corruption implies a completed step");
            self.sentinel.screen(step, mean_loss, r.grad_norm).map(|t| {
                self.gr.sentinel_trips += 1;
                t.to_string()
            })
        };

        let Some(cause) = trip_cause else { return Ok(None) };
        // every rank reached this identical verdict at this identical
        // step — roll back and skip in lockstep
        self.gr.trips += 1;
        count(self.tel.as_deref(), "guard.trip");
        if self.gr.rollbacks >= self.gc.max_rollbacks {
            self.deposit();
            fr.poison_groups();
            return Err(fail(rank, step, format!("guard rollback budget exhausted: {cause}")));
        }
        self.gr.rollbacks += 1;
        self.gr.skipped_steps.push(step);
        self.gr.wasted_steps += step - self.snap_step;
        count(self.tel.as_deref(), "guard.rollbacks");
        if let Some(t) = self.tel.as_deref() {
            t.metrics.histogram("guard.rollback.steps").record((step - self.snap_step) as u64);
        }
        fr.restore_state(&self.snap_params, self.snap_adam.clone());
        local_losses.truncate(self.snap_losses_len);
        self.sentinel.truncate(self.snap_step);
        self.skip.insert(step);
        Ok(Some(self.snap_step))
    }

    /// Step `step` was accepted and its loss committed: take the cadenced
    /// rollback snapshot.
    pub(crate) fn snapshot<M: Module>(&mut self, fr: &FsdpRank<M>, step: usize, losses_len: usize) {
        let done = step + 1;
        if done.is_multiple_of(SNAPSHOT_EVERY) {
            let (p, a) = fr.export_state();
            self.snap_params = p;
            self.snap_adam = a;
            self.snap_step = done;
            self.snap_losses_len = losses_len;
        }
    }

    /// Publish this rank's guard report for the harness. Every rank's is
    /// identical: rank 0 deposits it at the end of a clean attempt, and
    /// any rank that exhausts the rollback budget deposits it on the way
    /// out.
    pub(crate) fn deposit(&self) {
        *lock(self.slot) = Some(self.gr.clone());
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Consumes the [`FaultPlan`]'s per-(rank, step) draws: stragglers,
/// crashes, hangs, permanent departures, spare rejoins, degraded
/// ranks/links, bit flips and loss poisons — the chaos harness's whole
/// vocabulary, in the exact order the draws must be consumed.
pub(crate) struct FaultInjector<'a> {
    plan: &'a FaultPlan,
    /// A clone of this rank's groups, used to watch for peer poison
    /// during an injected hang and to set the link-slowdown factor.
    groups: RankGroups,
    collective_timeout: Option<Duration>,
    elastic_on: bool,
    can_grow: bool,
    tel: Option<Arc<Telemetry>>,
}

/// What one step's fault draws leave for the step to carry out.
pub(crate) struct Draws {
    /// Injected straggler delay, already slept: rank-local work the
    /// health monitor counts.
    pub(crate) delay: Duration,
    /// Degraded-GCD slowdown, applied to compute.
    pub(crate) degraded: Option<f64>,
    /// One-shot loss poison: the reported local loss becomes NaN.
    pub(crate) poison_loss: bool,
}

impl<'a> FaultInjector<'a> {
    /// Build the injector for one rank.
    pub(crate) fn new(
        plan: &'a FaultPlan,
        groups: RankGroups,
        collective_timeout: Option<Duration>,
        elastic_on: bool,
        can_grow: bool,
        tel: Option<Arc<Telemetry>>,
    ) -> Self {
        Self { plan, groups, collective_timeout, elastic_on, can_grow, tel }
    }

    /// Consume rank `rank`'s draws for `step`. A fail-stop fault (crash,
    /// hang, departure or spare rejoin) poisons the rank's groups and
    /// returns the failure.
    pub(crate) fn draw<M: Module>(
        &self,
        fr: &FsdpRank<M>,
        rank: usize,
        step: usize,
    ) -> Result<Draws, RankFailure> {
        let tel = self.tel.as_deref();
        let mut delay = Duration::ZERO;
        if let Some(d) = self.plan.slow_delay(rank, step) {
            count(tel, "fault.straggler");
            std::thread::sleep(d);
            delay = d;
        }
        if self.plan.take_crash(rank, step) {
            count(tel, "fault.injected_crash");
            fr.poison_groups();
            return Err(fail(rank, step, "injected rank crash".into()));
        }
        if self.plan.take_hang(rank, step) {
            // A hung rank never enters the step's collectives. Peers
            // detect the silence via the (adaptive) timeout, get
            // Err(RankLost) and poison their groups; once that happens —
            // or after a hard cap, if nobody is waiting with a timeout —
            // this rank folds into the normal restart path. The hang is
            // one-shot, so the restarted world runs through.
            count(tel, "fault.injected_hang");
            let cap =
                self.collective_timeout.map(|t| t * 4).unwrap_or(Duration::from_secs(30));
            let hung_at = Instant::now();
            while !self.groups.any_poisoned() && hung_at.elapsed() < cap {
                std::thread::sleep(Duration::from_millis(1));
            }
            fr.poison_groups();
            return Err(fail(rank, step, "rank hung in collective".into()));
        }
        if self.plan.take_leave(rank, step) {
            // permanent departure: poison so every peer's collective
            // terminates fast
            count(tel, "fault.rank_leave");
            fr.poison_groups();
            return Err(fail(rank, step, crate::trainer::CAUSE_LEAVE.into()));
        }
        if self.elastic_on && self.can_grow && self.plan.take_rejoin(step) {
            // a spare arrived: the observing rank tears the attempt down
            // so the restart loop can re-grow the world
            count(tel, "fault.spare_rejoin");
            fr.poison_groups();
            return Err(fail(rank, step, crate::trainer::CAUSE_REJOIN.into()));
        }
        let degraded = self.plan.degraded_slowdown(rank, step);
        if degraded.is_some() {
            count(tel, "fault.degraded_rank");
        }
        let link = self.plan.link_slowdown(rank, step);
        if link.is_some() {
            count(tel, "fault.degraded_link");
        }
        self.groups.set_link_slowdown(link.unwrap_or(1.0));
        // SDC injection: a one-shot bit flip lands in this rank's next
        // reduce contribution; a one-shot loss poison turns the reported
        // local loss into NaN (well-formed bits, wrong number — only the
        // sentinel can catch it)
        if let Some(bit) = self.plan.take_bitflip(rank, step) {
            count(tel, "fault.injected_bitflip");
            fr.arm_bitflip(bit);
        }
        let poison_loss = self.plan.take_poison(rank, step);
        if poison_loss {
            count(tel, "fault.injected_poison");
        }
        Ok(Draws { delay, degraded, poison_loss })
    }
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

/// One rank's deposit in the two-barrier checkpoint protocol: its owned
/// shards, AdamW state and the attempt's local losses.
pub(crate) struct RankSlot {
    params: Vec<f32>,
    adam: AdamWState,
    losses: Vec<f32>,
}

/// The two-barrier checkpoint protocol: every rank deposits its slot,
/// barrier, rank 0 assembles the world-size-independent
/// [`ElasticCheckpoint`], keeps it in memory for restarts and persists it
/// when a path is configured, barrier. Also carries the injected
/// checkpoint-writer crash (torn half-write of the `.tmp` sibling).
pub(crate) struct Checkpointer<'a> {
    resilience: &'a ResilienceConfig,
    disk: Option<&'a Path>,
    snapshot: &'a Mutex<Option<ElasticCheckpoint>>,
    slots: &'a [Mutex<Option<RankSlot>>],
    loss_prefix: &'a [f32],
    units: Vec<usize>,
    shard_size: usize,
    tel: Option<Arc<Telemetry>>,
}

impl<'a> Checkpointer<'a> {
    /// Build the checkpointer for one rank.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        resilience: &'a ResilienceConfig,
        disk: Option<&'a Path>,
        snapshot: &'a Mutex<Option<ElasticCheckpoint>>,
        slots: &'a [Mutex<Option<RankSlot>>],
        loss_prefix: &'a [f32],
        units: Vec<usize>,
        shard_size: usize,
        tel: Option<Arc<Telemetry>>,
    ) -> Self {
        Self { resilience, disk, snapshot, slots, loss_prefix, units, shard_size, tel }
    }

    /// Step `step` was accepted and its loss committed: run the protocol
    /// when the cadence is due.
    pub(crate) fn after_step<M: Module>(
        &self,
        fr: &FsdpRank<M>,
        rank: usize,
        world: usize,
        step: usize,
        local_losses: &[f32],
    ) -> Result<(), RankFailure> {
        let done = step + 1;
        let every = self.resilience.checkpoint_every;
        if every == 0 || !done.is_multiple_of(every) {
            return Ok(());
        }
        let (params, adam) = fr.export_state();
        *lock(&self.slots[rank]) = Some(RankSlot { params, adam, losses: local_losses.to_vec() });
        if let Err(lost) = fr.try_world_barrier() {
            fr.poison_groups();
            return Err(fail(rank, step, lost.to_string()));
        }
        if rank == 0 {
            let ranks: Vec<RankSlot> = self
                .slots
                .iter()
                .map(|m| lock(m).take().expect("every rank deposits a slot pre-barrier"))
                .collect();
            // assemble the GEOFMCK3 image: state is replicated across shard
            // groups, so the first group's shards carry everything
            let layout = FlatLayout::new(&self.units, self.shard_size);
            let take = |f: fn(&RankSlot) -> &Vec<f32>| -> Vec<Vec<f32>> {
                ranks[..self.shard_size].iter().map(|s| f(s).clone()).collect()
            };
            let mut mean_losses = self.loss_prefix.to_vec();
            for i in 0..ranks[0].losses.len() {
                mean_losses.push(ranks.iter().map(|s| s.losses[i]).sum::<f32>() / world as f32);
            }
            let ck = ElasticCheckpoint {
                step: done as u64,
                world_written: world as u64,
                shard_n_written: self.shard_size as u64,
                adam_t: ranks[0].adam.t,
                unit_sizes: self.units.clone(),
                params: shards_to_global(&layout, &take(|s| &s.params)),
                adam_m: shards_to_global(&layout, &take(|s| &s.adam.m)),
                adam_v: shards_to_global(&layout, &take(|s| &s.adam.v)),
                mean_losses,
            };
            if self.resilience.fault_plan.take_checkpoint_crash(step) {
                // writer dies before any durable or in-memory image
                // commits; with a path, half the image lands in the .tmp
                // sibling (torn write) — the previous checkpoint survives
                count(self.tel.as_deref(), "fault.injected_ckpt_crash");
                if let Some(path) = self.disk {
                    let bytes = ck.to_bytes();
                    if let Some(parent) = path.parent() {
                        let _ = std::fs::create_dir_all(parent);
                    }
                    let _ = std::fs::write(path.with_extension("tmp"), &bytes[..bytes.len() / 2]);
                }
                fr.poison_groups();
                return Err(fail(rank, step, "injected checkpoint-writer crash".into()));
            }
            if let Some(path) = self.disk {
                let span = self.tel.as_deref().map(|t| t.phase("ckpt.write", rank as u64));
                let saved = ck.save(path);
                drop(span);
                if let Err(e) = saved {
                    fr.poison_groups();
                    return Err(fail(rank, step, format!("checkpoint write failed: {e}")));
                }
            }
            *lock(self.snapshot) = Some(ck);
            count(self.tel.as_deref(), "fault.checkpoints");
        }
        if let Err(lost) = fr.try_world_barrier() {
            fr.poison_groups();
            return Err(fail(rank, step, lost.to_string()));
        }
        Ok(())
    }
}
