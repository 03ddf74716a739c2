//! MAE forward + backward benchmarks across the tiny model family — the
//! compute of one pretraining step without the engine around it (the
//! reproduction's analogue of the paper's images-per-second baselines,
//! Table I models measured in §IV).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geofm_bench::quick_criterion;
use geofm_mae::{MaeConfig, MaeModel, MaskSampler};
use geofm_nn::Module;
use geofm_tensor::TensorRng;
use geofm_vit::VitConfig;
use std::hint::black_box;

fn bench_mae_family(c: &mut Criterion) {
    let mut group = c.benchmark_group("mae_fwd_bwd");
    for cfg in VitConfig::tiny_family() {
        let mae = MaeConfig::tiny(cfg.clone());
        let mut rng = TensorRng::seed_from(1);
        let mut model = MaeModel::new(&mae, &mut rng);
        let sampler = MaskSampler::new(cfg.tokens(), mae.mask_ratio);
        let mut data_rng = TensorRng::seed_from(2);
        let imgs = data_rng.randn(&[8, cfg.channels * cfg.img * cfg.img], 1.0);
        group.bench_with_input(BenchmarkId::new("bs8", &cfg.name), &cfg, |b, _| {
            b.iter(|| {
                let plan = sampler.sample(8, &mut data_rng);
                model.zero_grad();
                let (loss, dpred) = model.forward(&imgs, &plan);
                model.backward(&dpred);
                black_box(loss)
            })
        });
    }
    group.finish();
}

fn bench_probe_features(c: &mut Criterion) {
    use geofm_mae::LinearProbe;
    use geofm_vit::VitModel;
    let cfg = &VitConfig::tiny_family()[1];
    let mut rng = TensorRng::seed_from(3);
    let encoder = VitModel::new(cfg, &mut rng);
    let imgs = rng.randn(&[32, cfg.channels * cfg.img * cfg.img], 1.0);
    c.bench_function("extract_features_32", |b| {
        b.iter(|| black_box(LinearProbe::extract_features(&encoder, &imgs, 16)))
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_mae_family, bench_probe_features
}
criterion_main!(benches);
