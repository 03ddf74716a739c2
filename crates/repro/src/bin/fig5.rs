//! Figure 5: MAE pretraining loss vs steps for the (scaled) model family —
//! larger models reach lower loss.

use geofm_core::{pretrain, RecipeConfig};
use geofm_repro::write_csv;
use geofm_vit::VitConfig;

fn main() {
    let rc = RecipeConfig::from_env();
    println!(
        "FIGURE 5 — MAE pretraining loss (scaled family, {} imgs × {} epochs, mask 75%)",
        rc.pretrain_images, rc.pretrain_epochs
    );
    let mut rows = Vec::new();
    let mut finals = Vec::new();
    for cfg in VitConfig::tiny_family() {
        let t0 = std::time::Instant::now();
        let out = pretrain(&cfg, &rc);
        for &(step, loss) in &out.loss_curve {
            rows.push(format!("{},{},{:.6}", cfg.name, step, loss));
        }
        let final_eval = out.eval_curve.last().map(|&(_, l)| l).unwrap_or(f32::NAN);
        let first_eval = out.eval_curve.first().map(|&(_, l)| l).unwrap_or(f32::NAN);
        println!(
            "  {:<8} ({:>7} params): eval loss {:.4} -> {:.4}   [{:.0?}]",
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
    }
    write_csv("fig5.csv", "model,step,loss", &rows);
    let final_rows: Vec<String> =
        finals.iter().map(|(n, l)| format!("{},{:.6}", n, l)).collect();
    write_csv("fig5_final.csv", "model,final_eval_loss", &final_rows);

    let monotone = finals.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-4);
    println!(
        "\nPaper claim (larger model ⇒ lower pretraining loss): {}",
        if monotone { "REPRODUCED" } else { "NOT monotone — see EXPERIMENTS.md discussion" }
    );
}
