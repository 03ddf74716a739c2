//! Beyond linear probing: the other adaptation modes the paper discusses —
//! full fine-tuning (§II "fine-tuning configurations") and few-shot
//! evaluation (§VI envisioned next steps) — on a pretrained encoder.
//!
//! ```sh
//! cargo run --release --example downstream_adaptation
//! ```

use geofm::core::{pretrain, RecipeConfig};
use geofm::data::{DatasetKind, SceneDataset, SceneRenderer};
use geofm::mae::{few_shot_eval, patch_labels, FineTuner, LinearProbe, SegProbe};
use geofm::tensor::{Tensor, TensorRng};
use geofm::vit::VitConfig;

fn main() {
    let rc = RecipeConfig {
        pretrain_images: 256,
        pretrain_epochs: 8,
        ..RecipeConfig::default()
    };
    let cfg = &VitConfig::tiny_family()[1]; // T-Huge
    println!("pretraining {} ({} params)...", cfg.name, cfg.param_count());
    let out = pretrain(cfg, &rc);

    // a small UCM-syn task
    let (train, test) = SceneDataset::probe_split(DatasetKind::Ucm, 0.25, cfg.img, cfg.channels);
    let classes = DatasetKind::Ucm.classes();
    let mut rng = TensorRng::seed_from(7);

    // 1) few-shot: nearest class-mean on frozen moment features
    let feats = LinearProbe::extract_moment_features(&out.encoder, &test.images, 64);
    for k in [1usize, 5] {
        let r = few_shot_eval(&feats, &test.labels, classes, k, 10, &mut rng);
        println!(
            "  {}-shot nearest-prototype accuracy: {:.1}%  (chance {:.1}%)",
            k,
            r.accuracy * 100.0,
            100.0 / classes as f32
        );
    }

    // 2) full fine-tuning with layer-wise lr decay (0.75, the ViT default)
    println!("fine-tuning end-to-end ({} train images)...", train.len());
    let mut ft = FineTuner::new(out.encoder, classes, 1e-3, 0.75, 15, &mut rng);
    for epoch in 0..15 {
        let loss = ft.train_epoch(&train.images, &train.labels, 16, &mut rng);
        if epoch % 3 == 0 {
            println!("  epoch {:>2}: train loss {:.3}", epoch, loss);
        }
    }
    let acc = ft.evaluate(&test.images, &test.labels);
    println!("  fine-tuned top-1 on UCM-syn: {:.1}%", acc * 100.0);

    // 3) semantic segmentation probe (the encoder was consumed by the
    //    fine-tuner, so reuse its now-adapted weights for the seg head demo)
    println!("semantic-segmentation probing (per-token head, generator masks)...");
    let renderer = SceneRenderer::new(cfg.img, cfg.channels, 7);
    let num_classes = 6;
    let collect = |offset: u64| {
        let mut feats: Vec<f32> = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        for class in 0..6 {
            let (imgs, masks) = renderer.render_class_segmented(class, 6, offset);
            let f = SegProbe::token_features(&ft.encoder, &imgs);
            feats.extend_from_slice(f.data());
            for m in &masks {
                labels.extend(patch_labels(m, cfg.img, cfg.patch, num_classes));
            }
        }
        let rows = feats.len() / cfg.width;
        (Tensor::from_vec(&[rows, cfg.width], feats), labels)
    };
    let (mut train_f, train_l) = collect(0);
    let (mut test_f, test_l) = collect(50_000);
    let (mean, std) = LinearProbe::feature_stats(&train_f);
    LinearProbe::standardize(&mut train_f, &mean, &std);
    LinearProbe::standardize(&mut test_f, &mean, &std);
    let mut seg = SegProbe::new(cfg.width, num_classes, 6.0, 25, &mut rng);
    for _ in 0..25 {
        seg.train_epoch(&train_f, &train_l, 128, &mut rng);
    }
    let m = seg.evaluate(&test_f, &test_l);
    println!("  patch accuracy {:.1}%  mIoU {:.3}", m.pixel_acc * 100.0, m.miou);

    println!("\nAs the paper notes (§V), fine-tuning adapts more parameters than probing;");
    println!("the paper evaluates with probing because fine-tuned accuracy saturates.");
}
