//! Perf-budget gate over `BENCH_step.json`: each strategy's median
//! ns/step, as `bench_step` just measured it, must stay within
//! `REGRESSION_FRAC` of the committed baseline `results/BENCH_step.json`.
//! A strategy absent from the baseline is reported and skipped.
//!
//! JSON parsing is hand-rolled against the exact shape `bench_step` emits
//! (no new dependencies; the format is ours).
//!
//! Usage: `perf_budget <current.json> <baseline.json>`
//! Exit status 0 = within budget, 1 = budget violated, 2 = bad input.

use std::process::ExitCode;

/// Allowed regression of a strategy's ns/step median vs the committed
/// baseline artifact.
const REGRESSION_FRAC: f64 = 0.05;

#[derive(Debug, Clone, PartialEq)]
struct Row {
    strategy: String,
    ns: u64,
}

/// Extract the string value of `"key": "value"` from a JSON object body.
fn str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let rest = &obj[obj.find(&pat)? + pat.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extract the integer value of `"key": n`.
fn int_field(obj: &str, key: &str) -> Option<i64> {
    let pat = format!("\"{key}\"");
    let rest = &obj[obj.find(&pat)? + pat.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse the `rows` array of a `BENCH_step.json` document.
fn parse_rows(doc: &str) -> Result<Vec<Row>, String> {
    let rows_at = doc.find("\"rows\"").ok_or("no \"rows\" key")?;
    let body = &doc[rows_at..];
    let open = body.find('[').ok_or("no rows array")?;
    let close = body.find(']').ok_or("unterminated rows array")?;
    let mut rows = Vec::new();
    let mut rest = &body[open + 1..close];
    while let Some(start) = rest.find('{') {
        let end = rest[start..].find('}').ok_or("unterminated row object")? + start;
        let obj = &rest[start..=end];
        let ns = int_field(obj, "ns_per_step").ok_or("row missing ns_per_step")?;
        if ns <= 0 {
            return Err(format!("degenerate timing in row: {obj}"));
        }
        rows.push(Row {
            strategy: str_field(obj, "strategy").ok_or("row missing strategy")?,
            ns: ns as u64,
        });
        rest = &rest[end + 1..];
    }
    if rows.is_empty() {
        return Err("rows array is empty".into());
    }
    Ok(rows)
}

fn check_baseline(rows: &[Row], baseline: &[Row]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in rows {
        let Some(b) = baseline.iter().find(|b| b.strategy == r.strategy) else {
            println!("  {:>14}: not in baseline, skipping", r.strategy);
            continue;
        };
        let limit = (b.ns as f64 * (1.0 + REGRESSION_FRAC)) as u64;
        let verdict = if r.ns > limit {
            violations.push(format!(
                "{}: {} ns/step vs baseline {} ns/step (limit {})",
                r.strategy, r.ns, b.ns, limit
            ));
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "  {:>14}: {:>10} ns  baseline {:>10} ns  ({:+.1}%)  [{}]",
            r.strategy,
            r.ns,
            b.ns,
            (r.ns as f64 / b.ns as f64 - 1.0) * 100.0,
            verdict
        );
    }
    violations
}

/// Read and parse one bench artifact.
fn load(path: &str) -> Result<Vec<Row>, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_rows(&doc).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [current_path, baseline_path] = args.as_slice() else {
        eprintln!("usage: perf_budget <current.json> <baseline.json>");
        return ExitCode::from(2);
    };
    let (rows, baseline) = match (load(current_path), load(baseline_path)) {
        (Ok(r), Ok(b)) => (r, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf_budget: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "perf_budget: {current_path} vs baseline {baseline_path} (limit +{:.0}%)",
        REGRESSION_FRAC * 100.0
    );
    let violations = check_baseline(&rows, &baseline);
    if violations.is_empty() {
        println!("perf_budget: PASS");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("perf_budget: VIOLATION: {v}");
        }
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "bench": "fsdp_step",
  "world": 4,
  "rows": [
    {"strategy": "no_shard", "ns_per_step": 1000},
    {"strategy": "full_shard", "ns_per_step": 2000}
  ]
}"#;

    #[test]
    fn parses_rows() {
        let rows = parse_rows(DOC).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].strategy, "no_shard");
        assert_eq!(rows[0].ns, 1000);
        assert_eq!(rows[1].ns, 2000);
    }

    #[test]
    fn baseline_regression_detected_per_strategy() {
        let baseline = parse_rows(DOC).unwrap();
        let mut current = baseline.clone();
        assert!(check_baseline(&current, &baseline).is_empty());
        // exactly at the limit passes; past it fails, for that strategy only
        current[1].ns = (baseline[1].ns as f64 * (1.0 + REGRESSION_FRAC)) as u64;
        assert!(check_baseline(&current, &baseline).is_empty());
        current[1].ns = (baseline[1].ns as f64 * 1.06) as u64;
        let v = check_baseline(&current, &baseline);
        assert_eq!(v.len(), 1);
        assert!(v[0].starts_with("full_shard:"));
    }

    #[test]
    fn strategy_absent_from_baseline_is_skipped() {
        let baseline = parse_rows(DOC).unwrap();
        let extra = r#"{"rows": [{"strategy": "hybrid_2", "ns_per_step": 900}]}"#;
        let current = parse_rows(extra).unwrap();
        assert!(check_baseline(&current, &baseline).is_empty());
    }

    #[test]
    fn malformed_documents_error() {
        assert!(parse_rows("{}").is_err());
        assert!(parse_rows(r#"{"rows": []}"#).is_err());
        assert!(parse_rows(r#"{"rows": [{"strategy": "x"}]}"#).is_err());
        assert!(parse_rows(r#"{"rows": [{"strategy": "x", "ns_per_step": 0}]}"#).is_err());
        assert!(parse_rows(r#"{"rows": [{"ns_per_step": 5}]}"#).is_err());
    }
}
