//! FSDP equivalence demo: train the same tiny ViT under every sharding
//! strategy (4 rank threads) and show that all of them produce the same
//! weights as single-rank training — while moving very different traffic.
//!
//! ```sh
//! cargo run --release --example fsdp_equivalence
//! ```

use geofm::fsdp::{try_run_data_parallel, FsdpConfig, ResilienceConfig, ShardingStrategy};
use geofm::tensor::{Tensor, TensorRng};
use geofm::vit::{VitConfig, VitModel};

fn tiny() -> VitConfig {
    VitConfig {
        name: "demo".into(),
        width: 16,
        depth: 2,
        mlp: 32,
        heads: 4,
        patch: 4,
        img: 8,
        channels: 1,
    }
}

fn global_batch(cfg: &VitConfig, step: usize) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seed_from(7000 + step as u64);
    let imgs = rng.randn(&[8, cfg.channels * cfg.img * cfg.img], 1.0);
    let tgt = rng.randn(&[8, cfg.tokens(), cfg.width], 0.5);
    (imgs, tgt)
}

fn run(strategy: ShardingStrategy, world: usize) -> geofm::fsdp::DistReport {
    let cfg = tiny();
    try_run_data_parallel(
        FsdpConfig::tuned(strategy),
        world,
        0.01,
        6,
        |_| {
            let mut rng = TensorRng::seed_from(99);
            let cfg = tiny();
            let mut m = VitModel::new(&cfg, &mut rng);
            let units = m.unit_param_counts();
            (m, units)
        },
        move |m, rank, step| {
            use geofm::nn::Module;
            let per = 8 / world;
            let (imgs, tgt) = global_batch(&cfg, step);
            let xl = imgs.rows(rank * per, (rank + 1) * per);
            let tw = cfg.tokens() * cfg.width;
            let tl = Tensor::from_vec(
                &[per, cfg.tokens(), cfg.width],
                tgt.data()[rank * per * tw..(rank + 1) * per * tw].to_vec(),
            );
            m.zero_grad();
            let enc = m.forward(&xl);
            let diff = enc.sub(&tl);
            let n = diff.numel() as f32;
            let loss = diff.sum_sq() / n;
            m.backward(&diff.scale(2.0 / n));
            loss
        },
        |_| 1e-3,
        None,
        ResilienceConfig::disabled(),
    )
    .expect("clean run")
}

fn main() {
    println!("training a tiny ViT for 6 steps under each strategy (world=4 threads)...\n");
    let baseline = run(ShardingStrategy::NoShard, 1);
    println!(
        "{:<16} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "strategy", "max |Δw|", "loss[last]", "AG[B]", "RS[B]", "AR[B]"
    );
    for strategy in [
        ShardingStrategy::NoShard,
        ShardingStrategy::ddp_default(),
        ShardingStrategy::FullShard,
        ShardingStrategy::ShardGradOp,
        ShardingStrategy::Hybrid { shard_size: 2 },
    ] {
        let r = run(strategy, 4);
        let max_diff = baseline
            .final_params
            .iter()
            .zip(&r.final_params)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        println!(
            "{:<16} {:>12.2e} {:>12.5} {:>10} {:>10} {:>8}",
            strategy.name(),
            max_diff,
            r.mean_losses.last().unwrap(),
            r.traffic.all_gather,
            r.traffic.reduce_scatter,
            r.traffic.all_reduce,
        );
    }
    println!("\nEvery strategy reproduces single-rank training (max |Δw| ≈ f32 noise),");
    println!("while the traffic columns show each strategy's distinct communication pattern.");
}
