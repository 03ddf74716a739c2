//! Figure U: exposed-communication share vs node count per sharding
//! strategy, comm/compute overlap on vs off (MAE ViT-3B, the paper's
//! Figure 1 workload). The "on" curves run the DES with its two
//! independent streams — the schedule FSDP's backward prefetch actually
//! achieves — while "off" serializes every task in issue order, the world
//! where each collective blocks the compute stream.
//!
//! Anchors: §IV-A reports ~22 % of step time lost to communication at
//! 64 nodes for MAE-3B NO_SHARD *with* overlap; the binary hard-fails if
//! the overlap-on share leaves [10 %, 35 %] there, or if overlap-off is
//! not strictly worse at every scale. The threaded `geofm-fsdp` engine
//! runs the "off" schedule: every collective blocks its rank thread, and
//! the time blocked is recorded as `overlap.exposed.ns`.

use geofm_frontier::{simulate, FrontierMachine, MaeWorkload, SimConfig};
use geofm_fsdp::ShardingStrategy;
use geofm_repro::{append_metrics_csv, ascii_chart_labeled, write_csv};
use geofm_telemetry::Telemetry;
use geofm_vit::{VitConfig, VitVariant};

fn main() {
    println!("FIGURE U — exposed-comm share vs nodes, overlap on/off (MAE ViT-3B)");
    let node_counts = [1usize, 2, 4, 8, 16, 32, 64];
    let cfg = VitConfig::table1(VitVariant::B3);
    let wl = MaeWorkload::build(&cfg, 32, 0.75);
    let strategies = [
        ShardingStrategy::NoShard,
        ShardingStrategy::FullShard,
        ShardingStrategy::ShardGradOp,
        ShardingStrategy::Hybrid { shard_size: 8 },
    ];

    let tel = Telemetry::new();
    let mut rows = Vec::new();
    let mut chart = Vec::new();
    let mut anchor_share = None;
    for strategy in strategies {
        println!("\n  {}", strategy.name());
        println!(
            "{:>7} {:>12} {:>12} {:>10} {:>10} {:>8}",
            "nodes", "step_on_s", "step_off_s", "share_on", "share_off", "hidden"
        );
        let mut on_curve = Vec::with_capacity(node_counts.len());
        for nodes in node_counts {
            let machine = FrontierMachine::new(nodes);
            let on = simulate(&SimConfig::tuned(machine, strategy, wl.clone()));
            let off = simulate(&SimConfig::tuned_no_overlap(machine, strategy, wl.clone()));
            let (share_on, share_off) = (on.comm_share(), off.comm_share());
            // fraction of total comm the overlapped schedule hides
            let hidden = if share_off > 0.0 { 1.0 - share_on / share_off } else { 0.0 };
            tel.metrics.counter("figU.points").inc(1);
            println!(
                "{:>7} {:>12.4} {:>12.4} {:>10.3} {:>10.3} {:>7.0}%",
                nodes,
                on.step_time_syn,
                off.step_time_syn,
                share_on,
                share_off,
                hidden * 100.0
            );
            rows.push(format!(
                "{},{},on,{:.6},{:.6},{:.6}",
                strategy.name(),
                nodes,
                on.step_time_syn,
                on.step_time_no_comm,
                share_on
            ));
            rows.push(format!(
                "{},{},off,{:.6},{:.6},{:.6}",
                strategy.name(),
                nodes,
                off.step_time_syn,
                off.step_time_no_comm,
                share_off
            ));
            on_curve.push(share_on * 100.0);
            assert!(
                share_off > share_on,
                "{} at {} nodes: overlap off ({share_off:.3}) must expose strictly more \
                 comm than overlap on ({share_on:.3})",
                strategy.name(),
                nodes
            );
            if strategy == ShardingStrategy::NoShard && nodes == 64 {
                anchor_share = Some(share_on);
            }
        }
        chart.push((format!("{} (on)", strategy.name()), on_curve));
    }
    // one "off" curve for scale reference: NO_SHARD fully serialized
    let off_curve: Vec<f64> = node_counts
        .iter()
        .map(|&nodes| {
            let machine = FrontierMachine::new(nodes);
            simulate(&SimConfig::tuned_no_overlap(machine, ShardingStrategy::NoShard, wl.clone()))
                .comm_share()
                * 100.0
        })
        .collect();
    chart.push(("NO_SHARD (off)".to_string(), off_curve));

    let csv_path =
        write_csv("figU.csv", "strategy,nodes,overlap,step_s,step_no_comm_s,comm_share", &rows);
    append_metrics_csv(&csv_path, &tel.metrics.snapshot());
    ascii_chart_labeled(
        "exposed-comm share (%) vs nodes, overlap on per strategy + NO_SHARD off",
        "nodes",
        node_counts.as_ref(),
        &chart,
        4,
    );

    let anchor = anchor_share.expect("NO_SHARD @ 64 nodes is in the sweep");
    assert!(
        anchor > 0.10 && anchor < 0.35,
        "NO_SHARD overlap-on share at 64 nodes = {anchor:.3}, paper anchor ≈ 0.22"
    );
    println!(
        "\nReading: with overlap on, NO_SHARD exposes {:.0}% of its step to communication at \
         64 nodes — the paper's ~22% §IV-A anchor — and the sharded strategies sit lower \
         because backward-prefetched gathers and double-buffered reduce-scatters hide most \
         of their (larger) comm volume behind backward compute. Turning overlap off \
         serializes the same task DAG: every curve jumps, and the gap between a strategy's \
         on/off curves is exactly the comm the engine hides — the quantity the real \
         rank-thread engine now also reports as overlap.exposed telemetry.",
        anchor * 100.0
    );
}
