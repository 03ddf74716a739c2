//! # geofm-repro
//!
//! One binary per table/figure of the paper. Each binary prints the
//! reproduced rows/series to stdout (with simple ASCII charts where the
//! paper has a plot) and writes machine-readable CSV/JSON under
//! `results/`, which `EXPERIMENTS.md` references.
//!
//! | binary  | reproduces |
//! |---------|------------|
//! | `table1`| Table I — ViT variants and parameter counts |
//! | `table2`| Table II — dataset splits |
//! | `fig1`  | Fig. 1 — MAE ViT-3B weak scaling (real/syn/no-comm/io/ideal) |
//! | `fig2`  | Fig. 2 — ViT-5B sharding × prefetch × limit_all_gathers |
//! | `fig3`  | Fig. 3 — weak scaling ViT-B/H/1B/3B + memory panels |
//! | `fig4`  | Fig. 4 — ViT-5B/15B sharding at scale + memory + power trace |
//! | `fig6`  | Fig. 5 + Fig. 6 + Table III from one pretraining per encoder — MAE pretraining loss for the (scaled) model family, probe accuracy vs epoch per dataset and model, and the final top-1/top-5 per (model, dataset) |
//! | `figR`  | Resilience — goodput vs checkpoint interval × node count, with the Young/Daly analytic optimum (not in the paper; supports the fault-tolerance analysis in §III) |
//! | `figS`  | Gray failures — ips vs degradation fraction per sharding strategy under degraded-GCD/degraded-link models (not in the paper; quantifies the regime §IV-D assumes away) |
//! | `figT`  | SDC guard — goodput vs silent-corruption rate per strategy, guard on/off (not in the paper; prices the integrity defense of DESIGN.md §11) |
//! | `figU`  | Overlap — exposed-comm share vs nodes per strategy, comm/compute overlap on/off (not in the paper; isolates the mechanism behind Fig. 1's ~22 % anchor, DESIGN.md §12) |
//! | `figV`  | Elastic — goodput of shrink-and-continue vs wait-for-restart across node MTBF and job size (not in the paper; prices the elastic resharding of DESIGN.md §14) |
//! | `figW`  | Ingest — achieved ips vs ingest fault rate × stripe contention, defenses on/off (not in the paper; prices the fault-tolerant ingest plane of DESIGN.md §15) |

use geofm_telemetry::MetricsSnapshot;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory where result artifacts are written.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("GEOFM_RESULTS").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    fs::create_dir_all(&p).expect("cannot create results dir");
    p
}

/// Write a CSV file under an explicit directory (created if absent).
pub fn write_csv_to(dir: &Path, name: &str, header: &str, rows: &[String]) -> PathBuf {
    fs::create_dir_all(dir).expect("cannot create results dir");
    let path = dir.join(name);
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    fs::write(&path, body).expect("cannot write csv");
    println!("  -> wrote {}", path.display());
    path
}

/// Write a CSV file under the results dir.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    write_csv_to(&results_dir(), name, header, rows)
}

/// Render a set of named series as a log-x ASCII chart.
///
/// `xs` are shared x positions (e.g. node counts); each series is
/// `(name, values)` with `values.len() == xs.len()` (NaN = missing).
pub fn ascii_chart(title: &str, xs: &[usize], series: &[(String, Vec<f64>)], width: usize) {
    ascii_chart_labeled(title, "x (nodes)", xs, series, width);
}

/// [`ascii_chart`] with a custom x-axis label (e.g. checkpoint interval).
pub fn ascii_chart_labeled(
    title: &str,
    xlabel: &str,
    xs: &[usize],
    series: &[(String, Vec<f64>)],
    width: usize,
) {
    println!("\n  {}", title);
    let max = series
        .iter()
        .flat_map(|(_, v)| v.iter())
        .cloned()
        .filter(|v| v.is_finite())
        .fold(f64::MIN, f64::max);
    if !max.is_finite() || max <= 0.0 {
        println!("  (no data)");
        return;
    }
    for (name, vals) in series {
        print!("  {:>16} |", name);
        for v in vals {
            if v.is_finite() {
                let bar = ((v / max) * width as f64).round() as usize;
                print!("{:>width$}", "*".repeat(bar.max(1)), width = width + 1);
            } else {
                print!("{:>width$}", "-", width = width + 1);
            }
        }
        println!();
    }
    print!("  {:>16} |", xlabel);
    for x in xs {
        print!("{:>width$}", x, width = width + 1);
    }
    println!();
}

/// Parse the shared `--trace-out <path>` CLI flag (also accepts
/// `--trace-out=<path>`). When present, binaries export their telemetry
/// span recorder as Chrome-trace JSON to the given path.
pub fn trace_out_arg() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            return args.next().map(PathBuf::from);
        }
        if let Some(v) = a.strip_prefix("--trace-out=") {
            return Some(PathBuf::from(v));
        }
    }
    None
}

/// Append a metrics summary to an existing CSV artifact: a blank separator
/// line, a `metric,value` header, then one row per metric (histograms expand
/// to count/sum/mean/p50/max).
pub fn append_metrics_csv(path: &Path, snapshot: &MetricsSnapshot) {
    use std::io::Write;
    let mut f = fs::OpenOptions::new()
        .append(true)
        .open(path)
        .expect("metrics summary target csv must exist");
    write!(f, "\nmetric,value\n{}", snapshot.to_csv_rows()).expect("cannot append metrics");
    println!("  -> appended metrics summary to {}", path.display());
}

/// Format an images-per-second value compactly.
pub fn fmt_ips(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.0}", v)
    } else if v >= 100.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.2}", v)
    }
}

/// The standard weak-scaling node ladder used by the paper's figures.
pub fn node_ladder(max: usize) -> Vec<usize> {
    [1usize, 2, 4, 8, 16, 32, 64].into_iter().filter(|&n| n <= max).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ladder_caps() {
        assert_eq!(node_ladder(8), vec![1, 2, 4, 8]);
        assert_eq!(node_ladder(64).len(), 7);
    }

    #[test]
    fn fmt_ips_ranges() {
        assert_eq!(fmt_ips(1234.6), "1235"); // note: {:.0} rounds half-to-even
        assert_eq!(fmt_ips(123.45), "123.5");
        assert_eq!(fmt_ips(12.345), "12.35");
    }

    fn test_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("geofm-repro-{tag}-{}", std::process::id()))
    }

    #[test]
    fn csv_roundtrip() {
        // explicit directory: no env-var mutation, safe under parallel tests
        let dir = test_dir("csv");
        let p = write_csv_to(&dir, "t.csv", "a,b", &["1,2".into()]);
        let s = std::fs::read_to_string(p).unwrap();
        assert_eq!(s, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_summary_appends_to_csv() {
        let dir = test_dir("metrics");
        let p = write_csv_to(&dir, "m.csv", "a,b", &["1,2".into()]);
        let tel = geofm_telemetry::Telemetry::new();
        tel.metrics.counter("comm.all_gather.bytes").inc(640);
        append_metrics_csv(&p, &tel.metrics.snapshot());
        let s = std::fs::read_to_string(&p).unwrap();
        assert!(s.starts_with("a,b\n1,2\n\nmetric,value\n"));
        assert!(s.contains("comm.all_gather.bytes,640\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
