//! Intra-rank parallelism is bit-exact: the MAE step and the scene generator
//! give identical bits at every pool width, and the engine gives each rank
//! `max(1, available_parallelism / world)` threads, per attempt.
//!
//! Every `par_*` call site writes disjoint outputs and no reduction crosses a
//! piece, so the contract is bit-identity with no tolerance. Width 3
//! oversubscribes a 2-core machine, which must not change any result.

use geofm::data::{DatasetKind, SceneDataset, SceneRenderer};
use geofm::fsdp::{
    try_run_data_parallel, try_run_elastic, ElasticConfig, FsdpConfig, ResilienceConfig,
    ShardingStrategy,
};
use geofm::mae::{MaeConfig, MaeModel, MaskSampler};
use geofm::nn::{AdamW, Linear, Module, Optimizer};
use geofm::resilience::FaultPlan;
use geofm::tensor::TensorRng;
use geofm::vit::VitConfig;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn pool(width: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(width).build().expect("spawn pool helpers")
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Loss, gradients and post-AdamW parameters of one MAE step, as bits.
#[derive(Debug, PartialEq)]
struct StepBits {
    loss: u32,
    grads: Vec<u32>,
    params: Vec<u32>,
}

fn mae_step(model: &str) -> StepBits {
    const BATCH: usize = 8;
    let enc = VitConfig::tiny_family()
        .into_iter()
        .find(|c| c.name == model)
        .expect("a tiny-family model");
    let cfg = MaeConfig::tiny(enc);
    let mut rng = TensorRng::seed_from(11);
    let mut mae = MaeModel::new(&cfg, &mut rng);
    let images = SceneDataset::generate(
        DatasetKind::MillionAid,
        BATCH,
        cfg.encoder.img,
        cfg.encoder.channels,
        0,
        5,
    )
    .images;
    let plan = MaskSampler::new(cfg.encoder.tokens(), cfg.mask_ratio).sample(BATCH, &mut rng);
    mae.zero_grad();
    let (loss, dpred) = mae.forward(&images, &plan);
    mae.backward(&dpred);
    let (mut params, mut grads) = (Vec::new(), Vec::new());
    mae.pack_values(&mut params);
    mae.pack_grads(&mut grads);
    AdamW::new(params.len(), 0.05).step(&mut params, &grads, 1e-3);
    StepBits { loss: loss.to_bits(), grads: bits(&grads), params: bits(&params) }
}

#[test]
fn mae_step_is_bit_identical_at_every_width() {
    for model in ["T-Base", "T-3B"] {
        let want = pool(1).install(|| mae_step(model));
        for width in [2, 3] {
            let got = pool(width).install(|| mae_step(model));
            assert!(got == want, "{model}: width {width} differs from width 1");
        }
    }
}

#[test]
fn scene_generation_is_bit_identical_at_every_width() {
    let generate = || {
        let ds = SceneDataset::generate(DatasetKind::Ucm, 42, 24, 3, 7, 99);
        let (seg, labels) = SceneRenderer::new(24, 3, 5).render_class_segmented(2, 9, 3);
        (bits(ds.images.data()), ds.labels, bits(seg.data()), labels)
    };
    let want = pool(1).install(generate);
    assert!(pool(3).install(generate) == want, "width 3 renders different scenes");
}

/// A one-layer model for the engine tests.
fn tiny_model(_rank: usize) -> (Linear, Vec<usize>) {
    let mut rng = TensorRng::seed_from(3);
    let mut lin = Linear::new(8, 8, &mut rng, "lin");
    let n = lin.num_params();
    (lin, vec![n])
}

fn tiny_step(lin: &mut Linear, step: usize) -> f32 {
    let x = TensorRng::seed_from(100 + step as u64).randn(&[4, 8], 1.0);
    lin.zero_grad();
    let y = lin.forward(&x);
    lin.backward(&y);
    y.sum()
}

fn share(world: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / world).max(1)
}

#[test]
fn each_rank_gets_its_share_of_the_cores() {
    for world in [1, 2] {
        let seen = Mutex::new(BTreeSet::new());
        try_run_data_parallel(
            FsdpConfig::tuned(ShardingStrategy::NoShard),
            world,
            0.0,
            2,
            tiny_model,
            |lin, _rank, step| {
                seen.lock().unwrap().insert(rayon::current_num_threads());
                tiny_step(lin, step)
            },
            |_| 1e-2,
            None,
            ResilienceConfig::disabled(),
        )
        .expect("clean run");
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, BTreeSet::from([share(world)]), "world {world}");
    }
}

#[test]
fn an_elastic_shrink_widens_the_survivors_pool() {
    let resilience = ResilienceConfig {
        fault_plan: Arc::new(FaultPlan::none().with_rank_leave(1, 2)),
        checkpoint_every: 1,
        collective_timeout: Some(Duration::from_secs(5)),
        max_restarts: 2,
        elastic: Some(ElasticConfig::default()),
        ..ResilienceConfig::disabled()
    };
    let seen = Mutex::new(BTreeSet::new());
    let report = try_run_elastic(
        FsdpConfig::tuned(ShardingStrategy::NoShard),
        2,
        0.0,
        4,
        tiny_model,
        |lin, _rank, world, step| {
            seen.lock().unwrap().insert((world, rayon::current_num_threads()));
            tiny_step(lin, step)
        },
        |_| 1e-2,
        None,
        resilience,
    )
    .expect("the survivor finishes the run");
    assert_eq!(report.reshard.shrinks(), 1);
    let seen = seen.into_inner().unwrap();
    assert_eq!(seen, BTreeSet::from([(1, share(1)), (2, share(2))]));
}
