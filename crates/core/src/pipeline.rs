//! The pretrain → probe pipeline.

use crate::recipe::RecipeConfig;
use geofm_data::{DatasetKind, SceneDataset};
use geofm_fsdp::{try_run_data_parallel, FsdpConfig, ResilienceConfig, ShardingStrategy};
use geofm_mae::{LinearProbe, MaeConfig, MaeModel, MaskSampler};
use geofm_nn::{clip_grad_norm, CosineSchedule, Module};
use geofm_tensor::TensorRng;
use geofm_vit::{VitConfig, VitModel};
use std::sync::Mutex;

/// Result of pretraining one encoder.
pub struct PretrainOutcome {
    /// The pretrained encoder (decoder is discarded, as in the paper).
    pub encoder: VitModel,
    /// `(step, loss)` samples of the training curve (Figure 5).
    pub loss_curve: Vec<(usize, f32)>,
    /// Fixed-mask evaluation losses at epoch boundaries.
    pub eval_curve: Vec<(usize, f32)>,
}

/// MAE-pretrain `cfg` on synthetic MillionAID under the recipe (paper
/// §V-B: AdamW with weight decay 0.05, cosine schedule with 5 % warmup to
/// `rc.pretrain_lr` and a floor of 1 % of it, 75 % masking), through the
/// FSDP engine at world 1 (NO_SHARD), so the kernels run on the rank's
/// pool of all the machine's cores.
pub fn pretrain(cfg: &VitConfig, rc: &RecipeConfig) -> PretrainOutcome {
    let mae_cfg = MaeConfig::tiny(cfg.clone());
    let make_model = || MaeModel::new(&mae_cfg, &mut TensorRng::seed_from(rc.seed));
    let (n, b) = (rc.pretrain_images, rc.batch);
    let per_epoch = n / b;
    let total = rc.pretrain_steps();
    let warmup = (total / 20).max(1).min(total);
    let schedule = CosineSchedule::new(rc.pretrain_lr, rc.pretrain_lr * 0.01, warmup, total);
    let sampler = MaskSampler::new(cfg.tokens(), mae_cfg.mask_ratio);

    // fixed eval batch (disjoint offset) and fixed mask, for loss curves
    // comparable across models
    let eval = SceneDataset::generate(DatasetKind::MillionAid, b.max(16), cfg.img, cfg.channels, 9_000_000, 23);
    let eval_loss = |model: &mut MaeModel| {
        let plan = sampler.sample(eval.len(), &mut TensorRng::seed_from(4242));
        model.forward(&eval.images, &plan).0
    };

    // Each epoch streams a FRESH slice of the synthetic corpus: the paper's
    // 990 848-image MillionAID never repeats within our scaled step budget,
    // so neither do we (the generator is the dataset). One slot holds the
    // current epoch's corpus and its shuffle.
    let epoch_data: Mutex<Option<(usize, SceneDataset, Vec<usize>)>> = Mutex::new(None);
    let mask_rng = Mutex::new(TensorRng::seed_from(rc.seed ^ 0xDA7A));
    let eval_curve = Mutex::new(Vec::with_capacity(rc.pretrain_epochs));

    // At world 1 every collective returns early, so the engine's AdamW
    // step over the flat parameters is a plain single-process update
    // (`tests/end_to_end.rs` holds the two to the bit).
    let report = try_run_data_parallel(
        FsdpConfig::tuned(ShardingStrategy::NoShard),
        1,
        0.05,
        per_epoch * rc.pretrain_epochs,
        |_rank| {
            let mut model = make_model();
            // one FSDP unit per encoder unit + one for the whole decoder
            let mut units = model.encoder.unit_param_counts();
            units.push(model.num_params() - units.iter().sum::<usize>());
            (model, units)
        },
        |model, _rank, step| {
            let (epoch, i) = (step / per_epoch, step % per_epoch);
            if i == 0 && epoch > 0 {
                // the engine has just gathered the parameters after the
                // previous epoch's last update
                eval_curve.lock().unwrap().push((epoch - 1, eval_loss(model)));
            }
            let images = {
                let mut slot = epoch_data.lock().unwrap();
                if slot.as_ref().is_none_or(|(e, ..)| *e != epoch) {
                    let corpus = SceneDataset::generate(
                        DatasetKind::MillionAid,
                        n,
                        cfg.img,
                        cfg.channels,
                        2_000_000 + (epoch * n) as u64,
                        17,
                    );
                    let order = TensorRng::seed_from(rc.seed.wrapping_add(epoch as u64)).permutation(n);
                    *slot = Some((epoch, corpus, order));
                }
                let (_, corpus, order) = slot.as_ref().expect("filled above");
                corpus.batch(&order[i * b..(i + 1) * b]).0
            };
            let plan = sampler.sample(b, &mut mask_rng.lock().unwrap());
            model.zero_grad();
            let (loss, dpred) = model.forward(&images, &plan);
            model.backward(&dpred);
            // at world 1 the local gradient is the global one
            clip_grad_norm(model, 5.0);
            loss
        },
        |step| schedule.lr(step),
        None,
        ResilienceConfig::disabled(),
    )
    .unwrap_or_else(|failure| panic!("pretraining {} failed: {failure}", cfg.name));

    let mut model = make_model();
    model.unpack_values(&report.final_params);
    let mut eval_curve = eval_curve.into_inner().unwrap();
    // the last epoch's eval (every epoch's, if an epoch has no full batch)
    while eval_curve.len() < rc.pretrain_epochs {
        eval_curve.push((eval_curve.len(), eval_loss(&mut model)));
    }
    let loss_curve = report.mean_losses.iter().copied().enumerate().step_by(4).collect();
    PretrainOutcome { encoder: model.encoder, loss_curve, eval_curve }
}

/// One point of the probe learning curve.
#[derive(Debug, Clone, Copy)]
pub struct ProbePoint {
    /// Probe epoch (0-based).
    pub epoch: usize,
    /// Training loss.
    pub train_loss: f32,
    /// Test top-1 accuracy in `[0, 1]`.
    pub top1: f32,
    /// Test top-5 accuracy in `[0, 1]`.
    pub top5: f32,
}

/// Full probe results for one (encoder, dataset) pair.
#[derive(Debug, Clone)]
pub struct DatasetProbe {
    /// The dataset.
    pub kind: DatasetKind,
    /// Accuracy per epoch (Figure 6 curves).
    pub curve: Vec<ProbePoint>,
    /// Final top-1 (Table III entry).
    pub final_top1: f32,
    /// Final top-5.
    pub final_top5: f32,
    /// Training samples used.
    pub train_n: usize,
    /// Test samples used.
    pub test_n: usize,
}

/// Linear-probe a frozen encoder on one benchmark (paper §V-C protocol).
pub fn probe_dataset(encoder: &VitModel, kind: DatasetKind, rc: &RecipeConfig) -> DatasetProbe {
    let cfg = &encoder.config;
    let (train, mut test) = SceneDataset::probe_split(kind, rc.probe_scale, cfg.img, cfg.channels);
    if test.len() > rc.max_test {
        let keep: Vec<usize> = (0..rc.max_test).collect();
        let (imgs, labels) = test.batch(&keep);
        test = SceneDataset { kind, images: imgs, labels, img: cfg.img, channels: cfg.channels };
    }

    // frozen mean+std pooled features, extracted once; standardized with
    // train-set stats (the MAE paper's affine-free BatchNorm before the
    // classifier)
    let mut train_feats = LinearProbe::extract_moment_features(encoder, &train.images, 64);
    let mut test_feats = LinearProbe::extract_moment_features(encoder, &test.images, 64);
    let (mean, std) = LinearProbe::feature_stats(&train_feats);
    LinearProbe::standardize(&mut train_feats, &mean, &std);
    LinearProbe::standardize(&mut test_feats, &mean, &std);

    let mut rng = TensorRng::seed_from(rc.seed ^ kind.salt());
    let mut probe =
        LinearProbe::new(2 * cfg.width, kind.classes(), rc.probe_lr, rc.probe_epochs, &mut rng);
    let mut curve = Vec::with_capacity(rc.probe_epochs);
    for epoch in 0..rc.probe_epochs {
        let train_loss = probe.train_epoch(&train_feats, &train.labels, rc.probe_batch, &mut rng);
        let (top1, top5) = probe.evaluate(&test_feats, &test.labels);
        curve.push(ProbePoint { epoch, train_loss, top1, top5 });
    }
    let last = curve.last().copied().unwrap_or(ProbePoint {
        epoch: 0,
        train_loss: f32::NAN,
        top1: 0.0,
        top5: 0.0,
    });
    DatasetProbe {
        kind,
        curve,
        final_top1: last.top1,
        final_top5: last.top5,
        train_n: train.len(),
        test_n: test.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_recipe() -> RecipeConfig {
        RecipeConfig {
            pretrain_images: 96,
            pretrain_epochs: 2,
            batch: 16,
            probe_epochs: 5,
            probe_scale: 0.03,
            max_test: 120,
            ..RecipeConfig::default()
        }
    }

    #[test]
    fn pipeline_runs_end_to_end_on_smallest_model() {
        let fam = VitConfig::tiny_family();
        let rc = quick_recipe();
        let out = pretrain(&fam[0], &rc);
        assert!(!out.loss_curve.is_empty());
        assert!(out.loss_curve.iter().all(|(_, l)| l.is_finite()));
        let probe = probe_dataset(&out.encoder, DatasetKind::Ucm, &rc);
        assert_eq!(probe.curve.len(), 5);
        assert!(probe.final_top1 >= 0.0 && probe.final_top1 <= 1.0);
        assert!(probe.final_top5 >= probe.final_top1);
        assert!(probe.test_n <= 120);
    }

    #[test]
    fn pretraining_loss_improves() {
        let fam = VitConfig::tiny_family();
        let mut rc = quick_recipe();
        rc.pretrain_images = 256;
        rc.pretrain_epochs = 4;
        let out = pretrain(&fam[0], &rc);
        let first = out.eval_curve.first().unwrap().1;
        let last = out.eval_curve.last().unwrap().1;
        assert!(last < first, "eval loss {} -> {}", first, last);
    }
}
