//! Figure 5 + Figure 6 + Table III from one pretraining of each encoder.
//!
//! Figure 5 is the MAE pretraining loss vs steps for the (scaled) model
//! family: larger models should reach lower loss. Figure 6 is linear-probe
//! top-1/top-5 accuracy vs probe epoch for every (model, dataset) pair; the
//! final-epoch top-1 values are the Table III reproduction.

use geofm_core::{pretrain, probe_dataset, RecipeConfig};
use geofm_data::DatasetKind;
use geofm_repro::write_csv;
use geofm_vit::VitConfig;

/// Per-model row: (model name, per-dataset (kind, top1, top5)).
type ModelRow = (String, Vec<(DatasetKind, f32, f32)>);

fn main() {
    let rc = RecipeConfig::from_env();
    println!(
        "FIGURE 5 — MAE pretraining loss (scaled family, {} imgs × {} epochs, mask 75%)",
        rc.pretrain_images, rc.pretrain_epochs
    );
    println!(
        "FIGURE 6 / TABLE III — linear probing ({} probe epochs, LARS, frozen encoders)",
        rc.probe_epochs
    );
    let mut loss_rows = Vec::new();
    let mut finals = Vec::new();
    let mut curve_rows = Vec::new();
    let mut final_rows = Vec::new();
    let mut table: Vec<ModelRow> = Vec::new();

    for cfg in VitConfig::tiny_family() {
        let t0 = std::time::Instant::now();
        let out = pretrain(&cfg, &rc);
        for &(step, loss) in &out.loss_curve {
            loss_rows.push(format!("{},{},{:.6}", cfg.name, step, loss));
        }
        let final_eval = out.eval_curve.last().map(|&(_, l)| l).unwrap_or(f32::NAN);
        let first_eval = out.eval_curve.first().map(|&(_, l)| l).unwrap_or(f32::NAN);
        println!(
            "  {:<8} ({:>7} params): eval loss {:.4} -> {:.4}   [pretrained in {:.0?}]",
            cfg.name,
            cfg.param_count(),
            first_eval,
            final_eval,
            t0.elapsed()
        );
        finals.push((cfg.name.clone(), final_eval));
        // sparkline of the eval curve
        print!("   eval: ");
        for &(_, l) in &out.eval_curve {
            print!("{:.3} ", l);
        }
        println!();

        let mut per_ds = Vec::new();
        for kind in DatasetKind::all() {
            let probe = probe_dataset(&out.encoder, kind, &rc);
            for p in &probe.curve {
                curve_rows.push(format!(
                    "{},{},{},{:.4},{:.4},{:.4}",
                    cfg.name,
                    kind.name(),
                    p.epoch,
                    p.train_loss,
                    p.top1,
                    p.top5
                ));
            }
            println!(
                "    {:<10} train {:>5} test {:>5}: top1 {:>5.1}%  top5 {:>5.1}%",
                kind.name(),
                probe.train_n,
                probe.test_n,
                probe.final_top1 * 100.0,
                probe.final_top5 * 100.0
            );
            final_rows.push(format!(
                "{},{},{:.4},{:.4}",
                cfg.name,
                kind.name(),
                probe.final_top1,
                probe.final_top5
            ));
            per_ds.push((kind, probe.final_top1, probe.final_top5));
        }
        table.push((cfg.name.clone(), per_ds));
    }
    write_csv("fig5.csv", "model,step,loss", &loss_rows);
    let fig5_final: Vec<String> =
        finals.iter().map(|(n, l)| format!("{},{:.6}", n, l)).collect();
    write_csv("fig5_final.csv", "model,final_eval_loss", &fig5_final);
    write_csv("fig6.csv", "model,dataset,epoch,train_loss,top1,top5", &curve_rows);
    write_csv("table3.csv", "model,dataset,top1,top5", &final_rows);

    let monotone = finals.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-4);
    println!(
        "\nPaper claim (larger model ⇒ lower pretraining loss): {}",
        if monotone { "REPRODUCED" } else { "NOT monotone — see EXPERIMENTS.md discussion" }
    );

    // Table III view
    println!("\nTABLE III — linear probing top-1 accuracy (%)");
    print!("{:<10}", "Model");
    for kind in DatasetKind::all() {
        print!("{:>12}", kind.name());
    }
    println!();
    for (name, per_ds) in &table {
        print!("{:<10}", name);
        for (_, top1, _) in per_ds {
            print!("{:>11.1}%", top1 * 100.0);
        }
        println!();
    }

    // monotonicity check per dataset
    let mut all_monotone = true;
    for (d, kind) in DatasetKind::all().iter().enumerate() {
        let accs: Vec<f32> = table.iter().map(|(_, p)| p[d].1).collect();
        let monotone = accs.windows(2).all(|w| w[1] >= w[0] - 0.02);
        if !monotone {
            all_monotone = false;
            println!("  note: {} not strictly monotone: {:?}", kind.name(), accs);
        }
    }
    let smallest = &table.first().unwrap().1;
    let largest = &table.last().unwrap().1;
    let gains: Vec<f32> =
        smallest.iter().zip(largest).map(|(s, l)| (l.1 - s.1) * 100.0).collect();
    println!(
        "\nGain largest-vs-smallest model (top-1 points): {:?}",
        gains.iter().map(|g| format!("{:+.1}", g)).collect::<Vec<_>>()
    );
    println!(
        "Paper claim (accuracy grows with scale on all datasets): {}",
        if all_monotone { "REPRODUCED" } else { "PARTIALLY — see EXPERIMENTS.md" }
    );
}
