//! End-to-end integration: distributed MAE pretraining through the real
//! FSDP engine must match single-rank MAE pretraining — the full paper
//! stack (data → masking → MAE → sharded training) in one assertion — and
//! the figure pipeline's `pretrain`, which runs on that engine, must match
//! a plain single-process loop bit for bit.

use geofm::core::RecipeConfig;
use geofm::data::{DatasetKind, SceneDataset};
use geofm::fsdp::{try_run_data_parallel, FsdpConfig, ResilienceConfig, ShardingStrategy};
use geofm::mae::{MaeConfig, MaeModel, MaskPlan, MaskSampler};
use geofm::nn::{clip_grad_norm, AdamW, CosineSchedule, Module, Optimizer};
use geofm::tensor::{Tensor, TensorRng};
use geofm::vit::VitConfig;

fn tiny_mae() -> MaeConfig {
    let enc = VitConfig {
        name: "e2e".into(),
        width: 16,
        depth: 2,
        mlp: 32,
        heads: 4,
        patch: 4,
        img: 8,
        channels: 1,
    };
    MaeConfig { encoder: enc, dec_width: 8, dec_depth: 1, dec_heads: 2, mask_ratio: 0.5 }
}

/// Deterministic global batch + mask plan for a step.
fn global_step_data(cfg: &MaeConfig, step: usize, global: usize) -> (geofm::tensor::Tensor, MaskPlan) {
    let mut rng = TensorRng::seed_from(31_000 + step as u64);
    let imgs = rng.randn(&[global, cfg.encoder.channels * 64], 1.0);
    let sampler = MaskSampler::new(cfg.encoder.tokens(), cfg.mask_ratio);
    let plan = sampler.sample(global, &mut rng);
    (imgs, plan)
}

/// Slice a per-sample mask plan for one rank's microbatch.
fn slice_plan(plan: &MaskPlan, start: usize, end: usize) -> MaskPlan {
    MaskPlan {
        tokens: plan.tokens,
        visible: plan.visible,
        visible_idx: plan.visible_idx[start..end].to_vec(),
        masked_idx: plan.masked_idx[start..end].to_vec(),
    }
}

fn run_mae(strategy: ShardingStrategy, world: usize, steps: usize) -> Vec<f32> {
    let report = try_run_data_parallel(
        FsdpConfig::tuned(strategy),
        world,
        0.0,
        steps,
        |_| {
            let cfg = tiny_mae();
            let mut rng = TensorRng::seed_from(77);
            let mut model = MaeModel::new(&cfg, &mut rng);
            // one FSDP unit per encoder unit + one for the whole decoder
            let enc_units = model.encoder.unit_param_counts();
            let total = model.num_params();
            let dec_unit = total - enc_units.iter().sum::<usize>();
            let mut units = enc_units;
            units.push(dec_unit);
            (model, units)
        },
        move |model, rank, step| {
            let cfg = tiny_mae();
            let global = 4;
            let per = global / world;
            let (imgs, plan) = global_step_data(&cfg, step, global);
            let xl = imgs.rows(rank * per, (rank + 1) * per);
            let pl = slice_plan(&plan, rank * per, (rank + 1) * per);
            model.zero_grad();
            let (loss, dpred) = model.forward(&xl, &pl);
            model.backward(&dpred);
            loss
        },
        |_| 1e-3,
        None,
        ResilienceConfig::disabled(),
    )
    .expect("clean run");
    report.final_params
}

#[test]
fn distributed_mae_pretraining_matches_single_rank() {
    let baseline = run_mae(ShardingStrategy::NoShard, 1, 3);
    for strategy in [
        ShardingStrategy::FullShard,
        ShardingStrategy::ShardGradOp,
        ShardingStrategy::Hybrid { shard_size: 2 },
    ] {
        let dist = run_mae(strategy, 2, 3);
        let max_diff = baseline
            .iter()
            .zip(&dist)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 1e-3,
            "{}: distributed MAE diverges from single rank by {}",
            strategy.name(),
            max_diff
        );
    }
}

/// A plain single-process MAE pretraining loop on one packed parameter
/// vector: AdamW (weight decay 0.05, decay mask), a cosine schedule with
/// 5 % warmup to `lr` and a floor of 1 % of it, and the 5.0 gradient clip.
struct PlainLoop {
    model: MaeModel,
    sampler: MaskSampler,
    optimizer: AdamW,
    schedule: CosineSchedule,
    step: usize,
}

impl PlainLoop {
    fn new(cfg: &MaeConfig, lr: f32, total_steps: usize, seed: u64) -> Self {
        let mut model = MaeModel::new(cfg, &mut TensorRng::seed_from(seed));
        let optimizer = AdamW::new(model.num_params(), 0.05).with_decay_mask(model.decay_mask());
        let warmup = (total_steps / 20).max(1).min(total_steps);
        Self {
            model,
            sampler: MaskSampler::new(cfg.encoder.tokens(), cfg.mask_ratio),
            optimizer,
            schedule: CosineSchedule::new(lr, lr * 0.01, warmup, total_steps),
            step: 0,
        }
    }

    /// One step on `images`; returns the loss and the pre-clip grad norm.
    fn step(&mut self, images: &Tensor, rng: &mut TensorRng) -> (f32, f32) {
        let plan = self.sampler.sample(images.dim(0), rng);
        self.model.zero_grad();
        let (loss, dpred) = self.model.forward(images, &plan);
        self.model.backward(&dpred);
        let norm = clip_grad_norm(&mut self.model, 5.0);
        let (mut flat, mut grads) = (Vec::new(), Vec::new());
        self.model.pack_values(&mut flat);
        self.model.pack_grads(&mut grads);
        self.optimizer.step(&mut flat, &grads, self.schedule.lr(self.step));
        self.model.unpack_values(&flat);
        self.step += 1;
        (loss, norm)
    }

    /// Masked loss on `images` under a fixed-seed mask, without updating.
    fn eval_loss(&mut self, images: &Tensor, seed: u64) -> f32 {
        let plan = self.sampler.sample(images.dim(0), &mut TensorRng::seed_from(seed));
        self.model.forward(images, &plan).0
    }
}

fn bits(curve: &[(usize, f32)]) -> Vec<(usize, u32)> {
    curve.iter().map(|&(s, l)| (s, l.to_bits())).collect()
}

/// The figure pipeline trains through the FSDP engine at world 1. Fed the
/// pipeline's batches (a fresh corpus slice per epoch, shuffled with
/// `seed + epoch`) and masks (one `seed ^ 0xDA7A` stream in step order),
/// the plain loop must reach the same encoder, loss curve and eval curve,
/// bit for bit. T-Huge at 64 images clips its gradient at step 0.
#[test]
fn pipeline_pretrain_is_bit_identical_to_a_plain_loop() {
    let cfg = VitConfig::tiny_family()[1].clone();
    let rc = RecipeConfig { pretrain_images: 64, pretrain_epochs: 2, ..RecipeConfig::default() };
    let out = geofm::core::pretrain(&cfg, &rc);

    let mut plain = PlainLoop::new(&MaeConfig::tiny(cfg.clone()), rc.pretrain_lr, rc.pretrain_steps(), rc.seed);
    let (n, b) = (rc.pretrain_images, rc.batch);
    let eval = SceneDataset::generate(DatasetKind::MillionAid, b.max(16), cfg.img, cfg.channels, 9_000_000, 23);
    let mut mask_rng = TensorRng::seed_from(rc.seed ^ 0xDA7A);
    let (mut loss_curve, mut eval_curve, mut norms) = (Vec::new(), Vec::new(), Vec::new());
    for epoch in 0..rc.pretrain_epochs {
        let corpus = SceneDataset::generate(
            DatasetKind::MillionAid,
            n,
            cfg.img,
            cfg.channels,
            2_000_000 + (epoch * n) as u64,
            17,
        );
        let order = TensorRng::seed_from(rc.seed + epoch as u64).permutation(n);
        for i in 0..n / b {
            let (images, _) = corpus.batch(&order[i * b..(i + 1) * b]);
            let step = epoch * (n / b) + i;
            let (loss, norm) = plain.step(&images, &mut mask_rng);
            if step % 4 == 0 {
                loss_curve.push((step, loss));
            }
            norms.push(norm);
        }
        eval_curve.push((epoch, plain.eval_loss(&eval.images, 4242)));
    }
    assert!(norms.iter().any(|&g| g > 5.0), "the clip must fire at least once: {norms:?}");

    let (mut got, mut expect) = (Vec::new(), Vec::new());
    let mut encoder = out.encoder;
    encoder.pack_values(&mut got);
    plain.model.encoder.pack_values(&mut expect);
    assert_eq!(got.len(), expect.len());
    assert!(
        got.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits()),
        "encoder parameters differ from the plain loop"
    );
    assert_eq!(bits(&out.loss_curve), bits(&loss_curve), "loss curve");
    assert_eq!(bits(&out.eval_curve), bits(&eval_curve), "eval curve");
}

/// The complete small pipeline: generate scenes → MAE pretrain → the loss
/// must drop; features of the pretrained encoder must be usable.
#[test]
fn scenes_to_pretrained_features() {
    use geofm::mae::LinearProbe;
    let cfg = tiny_mae();
    let data = SceneDataset::generate(DatasetKind::Ucm, 64, cfg.encoder.img, cfg.encoder.channels, 0, 3);
    let mut trainer = PlainLoop::new(&cfg, 3e-3, 40, 5);
    let first = trainer.eval_loss(&data.images, 111);
    let mut data_rng = TensorRng::seed_from(6);
    for step in 0..40 {
        let start = (step * 16) % 48;
        let batch = data.images.rows(start, start + 16);
        trainer.step(&batch, &mut data_rng);
    }
    let last = trainer.eval_loss(&data.images, 111);
    assert!(last < first, "MAE loss must drop: {} -> {}", first, last);

    let feats = LinearProbe::extract_moment_features(&trainer.model.encoder, &data.images, 16);
    assert_eq!(feats.shape(), &[64, 2 * cfg.encoder.width]);
    assert!(!feats.has_non_finite());
}
