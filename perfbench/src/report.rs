//! The metric catalogue and the result line the benchmark prints last.

use crate::json;

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    def("ips", "images/s", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
    def("loss_final", "mse", "lower"),
];

/// Printed by traced runs (`--trace 1`).
pub const PER_LAYER: [MetricDef; 33] = [
    def("data.wait_ms_p50", "ms", "lower"),
    def("data.wait_share", "ratio", "lower"),
    def("data.retries", "count", "lower"),
    def("data.hedges", "count", "lower"),
    def("data.quarantined", "count", "lower"),
    def("mae.mask_ms_p50", "ms", "lower"),
    def("mae.fwd_ms_p50", "ms", "lower"),
    def("mae.bwd_ms_p50", "ms", "lower"),
    def("mae.gflops", "GFLOP/s", "higher"),
    def("nn.block_enc.fwd_bwd_ms", "ms", "lower"),
    def("nn.block_dec.fwd_bwd_ms", "ms", "lower"),
    def("nn.attention.fwd_bwd_ms", "ms", "lower"),
    def("nn.gelu.ns_per_elem", "ns", "lower"),
    def("nn.layernorm.ns_per_elem", "ns", "lower"),
    def("nn.adamw.ns_per_param", "ns", "lower"),
    def("tensor.matmul.gflops", "GFLOP/s", "higher"),
    def("tensor.matmul_at_b.gflops", "GFLOP/s", "higher"),
    def("tensor.matmul_a_bt.gflops", "GFLOP/s", "higher"),
    def("tensor.bmm.gflops", "GFLOP/s", "higher"),
    def("fsdp.self_ms_p50", "ms", "lower"),
    def("fsdp.compute_share", "ratio", "higher"),
    def("fsdp.rank_skew_ms", "ms", "lower"),
    def("fsdp.gather_ms", "ms", "lower"),
    def("fsdp.regather_ms", "ms", "lower"),
    def("fsdp.reduce_ms", "ms", "lower"),
    def("fsdp.optimizer_ms", "ms", "lower"),
    def("fsdp.exposed_comm_share", "ratio", "lower"),
    def("collectives.bytes_per_step", "bytes", "lower"),
    def("collectives.calls_per_step", "count", "lower"),
    def("resilience.ckpt_stall_ms", "ms", "lower"),
    def("resilience.ckpt_bytes", "bytes", "lower"),
    def("telemetry.overhead_pct", "%", "lower"),
    def("fail_ratio", "ratio", "lower"),
];

/// Measured values for one catalogue, in catalogue order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(MetricDef, f64)>,
}

impl Metrics {
    /// Record `name` from `catalogue`.
    ///
    /// # Panics
    /// Panics if `name` is not in the catalogue: a typo is a bug here.
    pub fn set(&mut self, catalogue: &[MetricDef], name: &str, value: f64) {
        let d = *catalogue
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values.retain(|(v, _)| v.name != name);
        self.values.push((d, value));
    }

    /// Value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|&(_, v)| v)
    }

    /// Names in `catalogue` that were never recorded.
    pub fn missing(&self, catalogue: &[MetricDef]) -> Vec<&'static str> {
        catalogue
            .iter()
            .filter(|d| self.get(d.name).is_none())
            .map(|d| d.name)
            .collect()
    }

    /// Rows in catalogue order.
    pub fn rows<'a>(
        &'a self,
        catalogue: &'a [MetricDef],
    ) -> impl Iterator<Item = (MetricDef, f64)> + 'a {
        catalogue
            .iter()
            .filter_map(|d| self.get(d.name).map(|v| (*d, v)))
    }
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
/// A value that is not finite is written as 0 and makes the run incorrect.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    catalogue: &[MetricDef],
    m: &Metrics,
) -> String {
    let finite = m.rows(catalogue).all(|(_, v)| v.is_finite());
    let body: Vec<String> = m
        .rows(catalogue)
        .map(|(d, v)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(d.name),
                json::number(v),
                json::string(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && finite,
        attempted,
        if correct && finite { failed } else { attempted },
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn result_line_reads_back() {
        let mut m = Metrics::default();
        m.set(&END_TO_END, "ips", 127.125);
        m.set(&END_TO_END, "setup_s", 0.012_345_678_9);
        let line = result_line(true, 400, 0, &END_TO_END, &m);
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::num), Some(400.0));
        assert_eq!(v.get("failed").and_then(Value::num), Some(0.0));
        let ips = v.get("metrics").and_then(|x| x.get("ips")).unwrap();
        assert_eq!(ips.get("value").and_then(Value::num), Some(127.125));
        assert_eq!(ips.get("unit").and_then(Value::str), Some("images/s"));
        let setup = v
            .get("metrics")
            .and_then(|x| x.get("setup_s"))
            .and_then(|x| x.get("value"));
        assert_eq!(
            setup.and_then(Value::num),
            Some(0.012_345_678_9),
            "all digits kept"
        );
        let Value::Obj(top) = &v else {
            panic!("object")
        };
        assert_eq!(
            top.keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let mut m = Metrics::default();
        m.set(&END_TO_END, "ips", f64::NAN);
        let v = crate::json::parse(&result_line(true, 10, 0, &END_TO_END, &m)).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(
            v.get("failed").and_then(Value::num),
            Some(10.0),
            "all-failed"
        );
    }

    #[test]
    fn failed_checks_count_every_step_as_failed() {
        let v = crate::json::parse(&result_line(false, 10, 0, &END_TO_END, &Metrics::default()))
            .unwrap();
        assert_eq!(v.get("failed").and_then(Value::num), Some(10.0));
    }

    /// The catalogue and `BENCHMARK.json` name the same metrics, with the
    /// same units and directions, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = crate::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, cat) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Value::arr).unwrap();
            assert_eq!(listed.len(), cat.len(), "{key}");
            for (entry, d) in listed.iter().zip(cat) {
                assert_eq!(entry.get("name").and_then(Value::str), Some(d.name));
                assert_eq!(
                    entry.get("unit").and_then(Value::str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    entry.get("better").and_then(Value::str),
                    Some(d.better),
                    "{}",
                    d.name
                );
            }
        }
        let names: Vec<_> = doc
            .get("workloads")
            .and_then(Value::arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::str).unwrap())
            .collect();
        let specs: Vec<_> = crate::workload::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(names, specs);
    }
}
