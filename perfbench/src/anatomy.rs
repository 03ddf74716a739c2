//! Step anatomy of traced episodes: the benchmark's own spans around its
//! calls into each layer, placed on the engine telemetry's clock so they
//! nest under the engine's `fsdp.*` phases in one Chrome trace.

use crate::json::{self, Value};
use crate::stats::{self_time, Interval};
use crate::workload::StepMarks;
use geofm_telemetry::Telemetry;
use std::time::Instant;

/// The spans of one step on one rank, in µs on the trace clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSpans {
    /// From this step's data wait to the next step's: the step period.
    pub step: Interval,
    /// Engine asks for the batch → rows in hand.
    pub data: Interval,
    /// `MaskSampler::sample`.
    pub mask: Interval,
    /// `MaeModel::forward`.
    pub fwd: Interval,
    /// `MaeModel::backward`.
    pub bwd: Interval,
    /// The whole compute closure.
    pub closure: Interval,
    /// Closure exit → next step's data wait: the engine's own work
    /// (re-gather, reduce, optimizer, middleware, next gather).
    pub engine: Interval,
}

impl StepSpans {
    /// Engine time of the step: the step period not covered by the data
    /// wait or the compute closure.
    pub fn engine_self(&self) -> f64 {
        self_time(self.step, &[self.data, self.closure])
    }

    /// The child spans written to the trace, with their names.
    pub fn children(&self) -> [(&'static str, Interval); 5] {
        [
            ("data.wait", self.data),
            ("mae.mask", self.mask),
            ("mae.fwd", self.fwd),
            ("mae.bwd", self.bwd),
            ("fsdp.self", self.engine),
        ]
    }
}

/// Maps `Instant`s onto a trace recorder's µs clock.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    at: Instant,
    us: f64,
}

impl Clock {
    /// Anchor on `tel`'s recorder: both clocks are read back to back and
    /// are monotonic, so the offset holds for the recorder's lifetime.
    pub fn of(tel: &Telemetry) -> Self {
        Self {
            at: Instant::now(),
            us: tel.trace.now_us(),
        }
    }

    /// `t` on the recorder clock.
    pub fn us(&self, t: Instant) -> f64 {
        if t >= self.at {
            self.us + (t - self.at).as_secs_f64() * 1e6
        } else {
            self.us - (self.at - t).as_secs_f64() * 1e6
        }
    }
}

/// Per rank, the start of each `fsdp.compute` phase in a Chrome trace, in
/// step order: the moment the engine enters the step's compute, before the
/// batch is fetched.
pub fn compute_starts(trace: &Value, world: usize) -> Vec<Vec<f64>> {
    let mut starts = vec![Vec::new(); world];
    let events = trace.get("traceEvents").and_then(Value::arr).unwrap_or(&[]);
    for e in events {
        let is_compute = e.get("name").and_then(Value::str) == Some("fsdp.compute")
            && e.get("ph").and_then(Value::str) == Some("X");
        let tid = e.get("tid").and_then(Value::num).map(|t| t as usize);
        if let (true, Some(tid), Some(ts)) = (is_compute, tid, e.get("ts").and_then(Value::num)) {
            if tid < world {
                starts[tid].push(ts);
            }
        }
    }
    for s in &mut starts {
        s.sort_by(f64::total_cmp);
    }
    starts
}

/// Spans of every step of one rank that has a successor (the last step's
/// period is unknown). `starts` are the rank's engine compute starts; when
/// they do not line up one per step, the closure entry stands in.
pub fn step_spans(marks: &[StepMarks], starts: &[f64], clock: Clock) -> Vec<StepSpans> {
    let aligned = starts.len() == marks.len();
    let begin = |k: usize| {
        if aligned {
            starts[k]
        } else {
            clock.us(marks[k].entry)
        }
    };
    (0..marks.len().saturating_sub(1))
        .map(|k| {
            let m = &marks[k];
            let us = |t| clock.us(t);
            StepSpans {
                step: Interval::new(begin(k), begin(k + 1)),
                data: Interval::new(begin(k), us(m.data_end)),
                mask: Interval::new(us(m.data_end), us(m.mask_end)),
                fwd: Interval::new(us(m.fwd_start), us(m.fwd_end)),
                bwd: Interval::new(us(m.fwd_end), us(m.exit)),
                closure: Interval::new(us(m.entry), us(m.exit)),
                engine: Interval::new(us(m.exit), begin(k + 1)),
            }
        })
        .collect()
}

/// Add one rank's step spans to the recorder, on the rank's track.
pub fn record(tel: &Telemetry, rank: usize, spans: &[StepSpans]) {
    let tid = rank as u64;
    tel.trace.name_thread(0, tid, &format!("rank {rank}"));
    for (k, s) in spans.iter().enumerate() {
        let step = [("step", k.to_string())];
        tel.trace.complete_with_args(
            "bench.step",
            "bench",
            0,
            tid,
            s.step.start,
            s.step.len(),
            &step,
        );
        for (name, iv) in s.children() {
            tel.trace
                .complete(name, "bench", 0, tid, iv.start, iv.len());
        }
    }
}

/// Parse an exported trace.
pub fn parse_trace(tel: &Telemetry) -> Value {
    json::parse(&tel.trace.export_json()).expect("the recorder exports valid JSON")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Marks at fixed µs offsets from `base`.
    fn marks(base: Instant, at: [u64; 6]) -> StepMarks {
        let t = |us| base + Duration::from_micros(us);
        StepMarks {
            entry: t(at[0]),
            data_end: t(at[1]),
            mask_end: t(at[2]),
            fwd_start: t(at[3]),
            fwd_end: t(at[4]),
            exit: t(at[5]),
        }
    }

    #[test]
    fn spans_split_a_step_into_data_compute_and_engine() {
        let tel = Telemetry::default();
        let base = Instant::now();
        let clock = Clock {
            at: base,
            us: 1000.0,
        };
        // the engine enters compute at 1000 and 2000 µs on the trace clock;
        // the closure runs 1100..1800 (base + 100..800)
        tel.trace
            .complete("fsdp.compute", "phase", 0, 0, 1000.0, 800.0);
        tel.trace
            .complete("fsdp.compute", "phase", 0, 0, 2000.0, 800.0);
        tel.trace.complete("fsdp.compute", "phase", 0, 1, 5.0, 1.0);
        let starts = compute_starts(&parse_trace(&tel), 2);
        assert_eq!(starts[0], vec![1000.0, 2000.0]);
        assert_eq!(starts[1], vec![5.0]);
        let m = [
            marks(base, [100, 150, 160, 170, 470, 800]),
            marks(base, [1100, 1150, 1160, 1170, 1470, 1800]),
        ];
        let spans = step_spans(&m, &starts[0], clock);
        assert_eq!(spans.len(), 1, "the last step has no successor");
        let s = spans[0];
        assert!((s.step.len() - 1000.0).abs() < 1e-6);
        assert!(
            (s.data.len() - 150.0).abs() < 1e-6,
            "engine compute start → rows in hand"
        );
        assert!((s.fwd.len() - 300.0).abs() < 1e-6);
        assert!((s.bwd.len() - 330.0).abs() < 1e-6);
        assert!(
            (s.engine.len() - 200.0).abs() < 1e-6,
            "closure exit → next step"
        );
        // step − (data ∪ closure) = the engine's own time
        assert!((s.engine_self() - 200.0).abs() < 1e-6);
        // without aligned engine starts the closure entry stands in
        let fallback = step_spans(&m, &[], clock);
        assert!((fallback[0].data.len() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn recorded_spans_land_on_the_rank_track() {
        let tel = Telemetry::default();
        let base = Instant::now();
        let m = [
            marks(base, [0, 10, 20, 30, 40, 50]),
            marks(base, [100, 110, 120, 130, 140, 150]),
        ];
        let spans = step_spans(&m, &[], Clock::of(&tel));
        record(&tel, 1, &spans);
        let trace = parse_trace(&tel);
        let names: Vec<&str> = trace
            .get("traceEvents")
            .and_then(Value::arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("tid").and_then(Value::num) == Some(1.0))
            .filter_map(|e| e.get("name").and_then(Value::str))
            .collect();
        assert_eq!(
            names,
            [
                "thread_name",
                "bench.step",
                "data.wait",
                "mae.mask",
                "mae.fwd",
                "mae.bwd",
                "fsdp.self"
            ]
        );
    }
}
