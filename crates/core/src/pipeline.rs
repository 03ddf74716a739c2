//! The pretrain → probe pipeline.

use crate::recipe::RecipeConfig;
use geofm_data::{DataLoader, DatasetKind, SceneDataset};
use geofm_mae::{LinearProbe, MaeConfig, MaePretrainer};
use geofm_tensor::TensorRng;
use geofm_vit::{VitConfig, VitModel};
use std::sync::Arc;

/// Result of pretraining one encoder.
pub struct PretrainOutcome {
    /// The pretrained encoder (decoder is discarded, as in the paper).
    pub encoder: VitModel,
    /// `(step, loss)` samples of the training curve (Figure 5).
    pub loss_curve: Vec<(usize, f32)>,
    /// Fixed-mask evaluation losses at epoch boundaries.
    pub eval_curve: Vec<(usize, f32)>,
}

/// MAE-pretrain `cfg` on synthetic MillionAID under the recipe.
pub fn pretrain(cfg: &VitConfig, rc: &RecipeConfig) -> PretrainOutcome {
    let mae_cfg = MaeConfig::tiny(cfg.clone());
    let mut rng = TensorRng::seed_from(rc.seed);
    let mut trainer = MaePretrainer::new(&mae_cfg, rc.pretrain_lr, rc.pretrain_steps(), &mut rng);

    // fixed eval batch (disjoint offset) for comparable loss curves
    let eval = SceneDataset::generate(DatasetKind::MillionAid, rc.batch.max(16), cfg.img, cfg.channels, 9_000_000, 23);

    let mut data_rng = TensorRng::seed_from(rc.seed ^ 0xDA7A);
    let mut loss_curve = Vec::new();
    let mut eval_curve = Vec::new();
    let mut step = 0usize;
    for epoch in 0..rc.pretrain_epochs {
        // Each epoch streams a FRESH slice of the synthetic corpus: the
        // paper's 990 848-image MillionAID never repeats within our scaled
        // step budget, so neither do we (the generator is the dataset).
        let corpus = Arc::new(SceneDataset::generate(
            DatasetKind::MillionAid,
            rc.pretrain_images,
            cfg.img,
            cfg.channels,
            2_000_000 + (epoch * rc.pretrain_images) as u64,
            17,
        ));
        let loader = DataLoader::new(
            Arc::clone(&corpus),
            rc.batch,
            rc.loader_workers,
            rc.seed.wrapping_add(epoch as u64),
        );
        for (images, _labels) in loader {
            let stats = trainer.step(&images, &mut data_rng);
            if step.is_multiple_of(4) {
                loss_curve.push((step, stats.loss));
            }
            step += 1;
        }
        eval_curve.push((epoch, trainer.eval_loss(&eval.images, 4242)));
    }

    PretrainOutcome { encoder: trainer.model.encoder, loss_curve, eval_curve }
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
