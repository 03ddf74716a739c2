//! The workloads, their seeded fixtures, and the one adapter through which
//! the benchmark drives the FSDP engine.

use geofm_data::shard::HEADER_LEN;
use geofm_data::{
    build_corpus, Batch, CorpusManifest, DatasetKind, FsShardStore, IngestPlane, SceneDataset,
    StoreMeta, StreamConfig,
};
use geofm_fsdp::{
    try_run_data_parallel, try_run_streaming, DistReport, ElasticConfig, FsdpConfig,
    ResilienceConfig, ShardingStrategy,
};
use geofm_mae::{MaeConfig, MaeModel, MaskPlan, MaskSampler};
use geofm_nn::Module;
use geofm_resilience::FailureReport;
use geofm_telemetry::Telemetry;
use geofm_tensor::{Tensor, TensorRng};
use geofm_vit::VitConfig;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Constant learning rate of every workload.
pub const LR: f32 = 1e-3;
/// AdamW weight decay of every workload.
pub const WEIGHT_DECAY: f32 = 0.05;
/// Steps of the world-1 reference whose losses a world-2 run must match.
pub const REFERENCE_STEPS: usize = 3;
/// Relative tolerance of that match (the `tests/end_to_end.rs` contract).
pub const REFERENCE_REL_TOL: f32 = 1e-4;

/// Where a workload's batches come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedSpec {
    /// Rows indexed from an in-memory `SceneDataset` of `images` scenes.
    Memory { images: usize },
    /// GEOFMSH1 shards on disk, streamed through an `IngestPlane`, with a
    /// GEOFMCK3 elastic checkpoint written every `ckpt_every` steps.
    Shards {
        shards: usize,
        per_shard: usize,
        ckpt_every: usize,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Tiny-family encoder (`VitConfig::tiny_family` name).
    pub model: &'static str,
    /// Rank threads.
    pub world: usize,
    /// Sharding strategy, run with its `FsdpConfig::tuned` defaults.
    pub strategy: ShardingStrategy,
    /// Global batch (images per step across all ranks).
    pub global_batch: usize,
    /// Batch source.
    pub feed: FeedSpec,
    /// Steps per engine call (one episode).
    pub steps: usize,
    /// Leading steps of each episode left out of the timing.
    pub warmup: usize,
}

/// All workloads, in `BENCHMARK.json` order.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "t3b_w1",
        model: "T-3B",
        world: 1,
        strategy: ShardingStrategy::NoShard,
        global_batch: 16,
        feed: FeedSpec::Memory { images: 256 },
        steps: 32,
        warmup: 2,
    },
    Spec {
        name: "t3b_w2_full_shard",
        model: "T-3B",
        world: 2,
        strategy: ShardingStrategy::FullShard,
        global_batch: 16,
        feed: FeedSpec::Memory { images: 256 },
        steps: 32,
        warmup: 2,
    },
    Spec {
        name: "tbase_w2_stream_ckpt",
        model: "T-Base",
        world: 2,
        strategy: ShardingStrategy::NoShard,
        global_batch: 16,
        feed: FeedSpec::Shards {
            shards: 8,
            per_shard: 64,
            ckpt_every: 8,
        },
        steps: 192,
        warmup: 2,
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The MAE configuration: `MaeConfig::tiny` over the named encoder.
    pub fn mae_config(&self) -> MaeConfig {
        let enc: VitConfig = VitConfig::tiny_family()
            .into_iter()
            .find(|c| c.name == self.model)
            .expect("spec names a tiny-family model");
        MaeConfig::tiny(enc)
    }

    /// Images per rank per step.
    pub fn per_rank(&self) -> usize {
        self.global_batch / self.world
    }

    /// Ranks that share one parameter shard group.
    pub fn shard_n(&self) -> usize {
        self.strategy.shard_group_size(self.world)
    }

    /// Steps that together consume the whole corpus once.
    pub fn epoch_steps(&self) -> usize {
        let images = match self.feed {
            FeedSpec::Memory { images } => images,
            FeedSpec::Shards {
                shards, per_shard, ..
            } => shards * per_shard,
        };
        images / self.global_batch
    }

    /// True when step `step` (0-based) ends with a checkpoint write.
    pub fn checkpoints_after(&self, step: usize) -> bool {
        matches!(self.feed, FeedSpec::Shards { ckpt_every, .. } if (step + 1).is_multiple_of(ckpt_every))
    }
}

/// Deliberate input corruption, to show a broken run is reported as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Flip a byte of one shard record (disk feed) or poison one pixel
    /// with NaN (memory feed).
    CorruptInput,
    /// Initialise the world-1 reference from another seed.
    BadReference,
}

impl Inject {
    /// Parse a `--inject` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "corrupt-input" => Some(Self::CorruptInput),
            "bad-reference" => Some(Self::BadReference),
            _ => None,
        }
    }
}

/// Mix the workload seed with a purpose salt and an index.
fn mix(seed: u64, salt: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ salt.rotate_left(17)
        ^ i.wrapping_mul(0xD1B5_4A32_D192_ED69)
}

const SALT_INIT: u64 = 0x1417;
const SALT_MASK: u64 = 0x3A5C;
const SALT_CORPUS: u64 = 0x77E1;

/// Built inputs of one workload and seed.
enum FeedFixture {
    Memory(SceneDataset),
    Shards(CorpusManifest),
}

/// Everything a workload needs before the engine is called; all of it is
/// derived from the seed.
pub struct Fixture {
    /// The workload.
    pub spec: Spec,
    /// The workload seed.
    pub seed: u64,
    /// MAE geometry.
    pub cfg: MaeConfig,
    feed: FeedFixture,
    /// Scratch directory for shards and checkpoints (removed on drop).
    dir: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Fixture {
    /// Generate the corpus (and shards) for `spec` from `seed` under
    /// `scratch`, applying `inject`.
    pub fn build(
        spec: Spec,
        seed: u64,
        scratch: &Path,
        inject: Option<Inject>,
    ) -> Result<Self, String> {
        let cfg = spec.mae_config();
        let enc = &cfg.encoder;
        let dir = scratch.join(format!(
            "{}-seed{}-pid{}",
            spec.name,
            seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let feed = match spec.feed {
            FeedSpec::Memory { images } => {
                // the pretraining scenes, in a seed-shuffled order
                let mut ds = SceneDataset::generate(
                    DatasetKind::MillionAid,
                    images,
                    enc.img,
                    enc.channels,
                    2_000_000,
                    mix(seed, SALT_CORPUS, 0),
                );
                if inject == Some(Inject::CorruptInput) {
                    ds.images.data_mut()[0] = f32::NAN;
                }
                FeedFixture::Memory(ds)
            }
            FeedSpec::Shards {
                shards, per_shard, ..
            } => {
                let manifest = build_corpus(
                    &dir.join("shards"),
                    DatasetKind::MillionAid,
                    shards,
                    per_shard,
                    enc.img,
                    enc.channels,
                    mix(seed, SALT_CORPUS, 0),
                )
                .map_err(|e| format!("build corpus: {e}"))?;
                if inject == Some(Inject::CorruptInput) {
                    flip_record_byte(&manifest.shard_files[0])?;
                }
                FeedFixture::Shards(manifest)
            }
        };
        Ok(Self {
            spec,
            seed,
            cfg,
            feed,
            dir,
        })
    }

    /// Path of the elastic checkpoint a checkpointing workload writes.
    pub fn ckpt_path(&self) -> PathBuf {
        self.dir.join("elastic.ck3")
    }

    /// A freshly initialised model and its FSDP units: the encoder's
    /// units, then the decoder's (embed + mask token + positions, one per
    /// block, final LayerNorm + prediction head) in `visit_params` order.
    pub fn make_model(&self, init_seed: u64) -> (MaeModel, Vec<usize>) {
        let mut rng = TensorRng::seed_from(mix(init_seed, SALT_INIT, 0));
        let mut m = MaeModel::new(&self.cfg, &mut rng);
        let mut units = m.encoder.unit_param_counts();
        units.push(m.decoder_embed.num_params() + m.mask_token.numel() + m.decoder_pos.numel());
        for blk in &mut m.decoder_blocks {
            units.push(blk.num_params());
        }
        units.push(m.decoder_ln.num_params() + m.pred.num_params());
        assert_eq!(
            units.iter().sum::<usize>(),
            m.num_params(),
            "units cover the model"
        );
        (m, units)
    }

    /// Rows `lo..lo + n` of `step`'s global batch from the in-memory corpus.
    fn memory_rows(&self, step: usize, lo: usize, n: usize) -> Tensor {
        let FeedFixture::Memory(ds) = &self.feed else {
            unreachable!("memory feed")
        };
        let start = (step * self.spec.global_batch) % ds.len() + lo;
        ds.images.rows(start, start + n)
    }

    /// Rows `lo..lo + rows` of `step`'s global mask plan.
    fn mask_for(&self, sampler: &MaskSampler, step: usize, lo: usize, rows: usize) -> MaskPlan {
        let mut rng = TensorRng::seed_from(mix(self.seed, SALT_MASK, step as u64));
        let plan = sampler.sample(self.spec.global_batch, &mut rng);
        MaskPlan {
            tokens: plan.tokens,
            visible: plan.visible,
            visible_idx: plan.visible_idx[lo..lo + rows].to_vec(),
            masked_idx: plan.masked_idx[lo..lo + rows].to_vec(),
        }
    }

    /// A fresh ingest plane over the shards (one read-pool worker, CRC on).
    fn plane(&self, telemetry: Option<&Arc<Telemetry>>) -> Option<Arc<IngestPlane>> {
        let FeedFixture::Shards(m) = &self.feed else {
            return None;
        };
        let meta = StoreMeta {
            shards: m.shard_files.len(),
            records_per_shard: m.records_per_shard,
            record_len: m.record_len,
            img: m.img,
            channels: m.channels,
            classes: m.kind.classes(),
        };
        let store = Arc::new(FsShardStore::new(m.shard_files.clone(), meta));
        let mut cfg = StreamConfig::new(self.spec.global_batch, mix(self.seed, SALT_CORPUS, 1));
        cfg.defense.pool_workers = 1;
        Some(Arc::new(match telemetry {
            Some(t) => IngestPlane::with_telemetry(store, cfg, Arc::clone(t)),
            None => IngestPlane::new(store, cfg),
        }))
    }
}

/// Flip one payload byte of the last record of a shard, so its CRC fails.
fn flip_record_byte(path: &Path) -> Result<(), String> {
    let mut bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    assert!(bytes.len() > HEADER_LEN + 16, "shard holds records");
    let at = bytes.len() - 10;
    bytes[at] ^= 0x40;
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Instants one rank records inside its compute closure for one step.
#[derive(Debug, Clone, Copy)]
pub struct StepMarks {
    /// Closure entered.
    pub entry: Instant,
    /// Batch rows in hand.
    pub data_end: Instant,
    /// Mask plan sampled.
    pub mask_end: Instant,
    /// `MaeModel::forward` called (after zeroing grads).
    pub fwd_start: Instant,
    /// `MaeModel::forward` returned.
    pub fwd_end: Instant,
    /// `MaeModel::backward` returned; closure about to return.
    pub exit: Instant,
}

/// One engine call.
pub struct Episode {
    /// Steps asked of the engine.
    pub steps: usize,
    /// Engine call → rank 0's first closure entry, seconds.
    pub setup_s: f64,
    /// Per rank, per step closure marks.
    pub marks: Vec<Vec<StepMarks>>,
    /// The engine's verdict.
    pub result: Result<DistReport, FailureReport>,
    /// Engine telemetry, present on traced episodes.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Size of the GEOFMCK3 file the episode left, if it wrote one.
    pub ckpt_bytes: Option<u64>,
}

/// How one episode runs.
#[derive(Clone)]
pub struct Job {
    /// Rank threads.
    pub world: usize,
    /// Engine steps.
    pub steps: usize,
    /// Hand the engine a `Telemetry` (traced episodes only).
    pub traced: bool,
    /// Write the workload's periodic checkpoint.
    pub checkpoint: bool,
    /// Model-init seed.
    pub init_seed: u64,
}

/// The one place the benchmark calls the trainer API. Everything
/// workload-specific arrives as arguments.
#[allow(clippy::too_many_arguments)]
fn drive<FM, FC>(
    strategy: ShardingStrategy,
    world: usize,
    steps: usize,
    plane: Option<Arc<IngestPlane>>,
    checkpoint: Option<(usize, PathBuf)>,
    telemetry: Option<Arc<Telemetry>>,
    make_model: FM,
    compute: FC,
) -> Result<DistReport, FailureReport>
where
    FM: Fn(usize) -> (MaeModel, Vec<usize>) + Sync,
    FC: Fn(&mut MaeModel, Option<&Batch>, usize, usize) -> f32 + Sync,
{
    let config = FsdpConfig::tuned(strategy);
    let mut resilience = ResilienceConfig::disabled();
    if let Some((every, path)) = checkpoint {
        resilience.checkpoint_every = every;
        resilience.elastic = Some(ElasticConfig {
            checkpoint_path: Some(path),
            ..ElasticConfig::default()
        });
    }
    match plane {
        Some(plane) => try_run_streaming(
            config,
            world,
            WEIGHT_DECAY,
            steps,
            make_model,
            plane,
            |m: &mut MaeModel, b: &Batch, rank, _world, step| compute(m, Some(b), rank, step),
            |_| LR,
            telemetry,
            resilience,
        ),
        None => try_run_data_parallel(
            config,
            world,
            WEIGHT_DECAY,
            steps,
            make_model,
            |m: &mut MaeModel, rank, step| compute(m, None, rank, step),
            |_| LR,
            telemetry,
            resilience,
        ),
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run one episode of `fx`'s workload.
pub fn run_episode(fx: &Fixture, job: &Job) -> Episode {
    let spec = fx.spec;
    let world = job.world;
    let per_rank = spec.global_batch / world;
    let enc = &fx.cfg.encoder;
    let sampler = MaskSampler::new(enc.tokens(), fx.cfg.mask_ratio);
    let marks: Vec<Mutex<Vec<StepMarks>>> = (0..world)
        .map(|_| Mutex::new(Vec::with_capacity(job.steps)))
        .collect();
    let checkpoint = match spec.feed {
        FeedSpec::Shards { ckpt_every, .. } if job.checkpoint => {
            // a leftover image would make the engine resume instead of start
            let _ = std::fs::remove_file(fx.ckpt_path());
            Some((ckpt_every, fx.ckpt_path()))
        }
        _ => None,
    };
    let telemetry = job.traced.then(Telemetry::new);

    let call = Instant::now();
    let plane = fx.plane(telemetry.as_ref());
    let compute = |m: &mut MaeModel, batch: Option<&Batch>, rank: usize, step: usize| -> f32 {
        let entry = Instant::now();
        let x = match batch {
            Some(b) => b.images.clone(),
            None => fx.memory_rows(step, rank * per_rank, per_rank),
        };
        let data_end = Instant::now();
        let plan = fx.mask_for(&sampler, step, rank * per_rank, x.dim(0).min(per_rank));
        let mask_end = Instant::now();
        m.zero_grad();
        let fwd_start = Instant::now();
        let (loss, dpred) = m.forward(&x, &plan);
        let fwd_end = Instant::now();
        m.backward(&dpred);
        let exit = Instant::now();
        lock(&marks[rank]).push(StepMarks {
            entry,
            data_end,
            mask_end,
            fwd_start,
            fwd_end,
            exit,
        });
        loss
    };
    let result = drive(
        spec.strategy,
        world,
        job.steps,
        plane,
        checkpoint.clone(),
        telemetry.clone(),
        |_rank| fx.make_model(job.init_seed),
        compute,
    );
    let marks: Vec<Vec<StepMarks>> = marks
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    let setup_s = marks[0]
        .first()
        .map_or(f64::NAN, |m| (m.entry - call).as_secs_f64());
    let ckpt_bytes = checkpoint
        .and_then(|(_, p)| std::fs::metadata(p).ok())
        .map(|meta| meta.len());
    Episode {
        steps: job.steps,
        setup_s,
        marks,
        result,
        telemetry,
        ckpt_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_consistent() {
        for s in SPECS {
            assert_eq!(
                s.global_batch % s.world,
                0,
                "{}: batch splits evenly",
                s.name
            );
            assert_eq!(
                s.steps % s.epoch_steps(),
                0,
                "{}: episodes end on an epoch",
                s.name
            );
            assert!(s.steps >= s.warmup + 2 + REFERENCE_STEPS, "{}", s.name);
            assert_eq!(find(s.name), Some(s));
        }
        assert!(find("nope").is_none());
        let stream = find("tbase_w2_stream_ckpt").unwrap();
        assert!(stream.checkpoints_after(7) && !stream.checkpoints_after(8));
        assert!(
            !SPECS[0].checkpoints_after(7),
            "memory feeds never checkpoint"
        );
    }

    #[test]
    fn model_units_cover_every_parameter() {
        let dir = std::env::temp_dir().join(format!("perfbench-units-{}", std::process::id()));
        let fx = Fixture::build(SPECS[1], 1, &dir, None).unwrap();
        let (mut m, units) = fx.make_model(0);
        let depth = fx.cfg.encoder.depth + fx.cfg.dec_depth;
        assert_eq!(units.len(), depth + 4, "embed + blocks + final LN, twice");
        assert_eq!(units.iter().sum::<usize>(), m.num_params());
        drop(fx);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let dir = std::env::temp_dir().join(format!("perfbench-seed-{}", std::process::id()));
        let a = Fixture::build(SPECS[0], 1, &dir, None).unwrap();
        let b = Fixture::build(SPECS[0], 1, &dir.join("b"), None).unwrap();
        let c = Fixture::build(SPECS[0], 2, &dir.join("c"), None).unwrap();
        let sampler = MaskSampler::new(64, 0.75);
        assert_eq!(
            a.memory_rows(3, 0, 16).data(),
            b.memory_rows(3, 0, 16).data()
        );
        assert_ne!(
            a.memory_rows(3, 0, 16).data(),
            c.memory_rows(3, 0, 16).data()
        );
        assert_eq!(
            a.mask_for(&sampler, 5, 8, 8).visible_idx,
            b.mask_for(&sampler, 5, 8, 8).visible_idx
        );
        assert_ne!(
            a.mask_for(&sampler, 5, 0, 8).visible_idx,
            c.mask_for(&sampler, 5, 0, 8).visible_idx
        );
        drop((a, b, c));
        let _ = std::fs::remove_dir_all(dir);
    }
}
