//! The benchmark's arithmetic: percentiles, span self time and failure
//! ratios. Kept free of I/O so the unit tests pin it exactly.

/// Percentile `p` (0..=100) of `samples` by linear interpolation between
/// closest ranks (the "type 7" estimator). `None` when `samples` is empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (p.clamp(0.0, 100.0) / 100.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// Median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Items per second when each period (ms) handles `items`, taken at the
/// `p`-th percentile period (`None` when `periods_ms` is empty).
pub fn rate_at(periods_ms: &[f64], p: f64, items: usize) -> Option<f64> {
    percentile(periods_ms, p).map(|ms| items as f64 * 1e3 / ms)
}

/// Samples strictly above the `p`-th percentile's rank: a tail percentile
/// is only reported once at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    ((n as f64) * (100.0 - p) / 100.0 + 1e-9).floor() as usize
}

/// Smallest sample count for which percentile `p` has `beyond` samples
/// past it (100 for p90 with ten beyond).
pub fn samples_needed(p: f64, beyond: usize) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= beyond)
        .expect("a finite count exists")
}

/// A closed time interval `[start, end]` in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Start, µs.
    pub start: f64,
    /// End, µs (≥ start).
    pub end: f64,
}

impl Interval {
    /// Interval from its two ends.
    pub fn new(start: f64, end: f64) -> Self {
        Self {
            start,
            end: end.max(start),
        }
    }

    /// Length in µs.
    pub fn len(&self) -> f64 {
        self.end - self.start
    }
}

/// Self time of `parent`: its duration minus the part of it that the
/// union of `children` covers. Children may overlap each other and may
/// stick out of the parent; only the covered share of the parent counts.
pub fn self_time(parent: Interval, children: &[Interval]) -> f64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval::new(c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|c| c.len() > 0.0)
        .collect();
    clipped.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut covered = 0.0;
    let mut cur: Option<Interval> = None;
    for c in clipped {
        cur = match cur {
            Some(u) if c.start <= u.end => Some(Interval::new(u.start, u.end.max(c.end))),
            Some(u) => {
                covered += u.len();
                Some(c)
            }
            None => Some(c),
        };
    }
    covered += cur.map_or(0.0, |u| u.len());
    parent.len() - covered
}

/// Steps lost ÷ steps attempted. A step is lost when it failed, was
/// skipped (NaN placeholder loss) or was re-run after a restart. A run
/// whose output checks failed counts as entirely lost.
pub fn fail_ratio(attempted: usize, lost: usize, checks_passed: bool) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    if !checks_passed {
        return 1.0;
    }
    lost.min(attempted) as f64 / attempted as f64
}

/// `|a − b| ≤ rel_tol · max(|a|, |b|)`, false for any non-finite input.
pub fn rel_close(a: f32, b: f32, rel_tol: f32) -> bool {
    a.is_finite() && b.is_finite() && (a - b).abs() <= rel_tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(3.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
        assert_eq!(percentile(&xs, 25.0), Some(2.0));
        assert_eq!(percentile(&[4.0, 1.0], 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn rate_is_items_over_the_percentile_period() {
        let periods = [100.0, 100.0, 100.0, 200.0, 400.0];
        assert_eq!(rate_at(&periods, 50.0, 16), Some(160.0));
        assert_eq!(rate_at(&periods, 75.0, 16), Some(80.0));
        assert_eq!(rate_at(&[], 75.0, 16), None);
    }

    #[test]
    fn p90_of_a_hundred_samples_has_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&xs, 90.0).unwrap();
        assert!((p90 - 90.1).abs() < 1e-9, "{p90}");
        assert_eq!(xs.iter().filter(|&&x| x > p90).count(), 10);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_needed(90.0, 10), 100);
        assert_eq!(samples_needed(50.0, 10), 20);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = Interval::new(0.0, 100.0);
        assert_eq!(self_time(parent, &[]), 100.0);
        // disjoint children
        let kids = [Interval::new(10.0, 20.0), Interval::new(30.0, 60.0)];
        assert_eq!(self_time(parent, &kids), 60.0);
        // overlapping children are not double counted
        let kids = [Interval::new(10.0, 40.0), Interval::new(30.0, 50.0)];
        assert_eq!(self_time(parent, &kids), 60.0);
        // a child sticking out of the parent only covers its inside part
        let kids = [Interval::new(-20.0, 10.0), Interval::new(90.0, 130.0)];
        assert_eq!(self_time(parent, &kids), 80.0);
        // a child outside the parent covers nothing
        assert_eq!(self_time(parent, &[Interval::new(200.0, 300.0)]), 100.0);
        // full cover leaves nothing
        assert_eq!(self_time(parent, &[Interval::new(0.0, 100.0)]), 0.0);
    }

    #[test]
    fn fail_ratio_counts_lost_steps_and_failed_checks() {
        assert_eq!(fail_ratio(200, 0, true), 0.0);
        assert_eq!(fail_ratio(200, 50, true), 0.25);
        assert_eq!(fail_ratio(200, 0, false), 1.0);
        assert_eq!(fail_ratio(200, 500, true), 1.0);
        assert_eq!(fail_ratio(0, 0, true), 1.0);
    }

    #[test]
    fn rel_close_is_relative_and_rejects_nan() {
        assert!(rel_close(1.0, 1.00005, 1e-4));
        assert!(!rel_close(1.0, 1.001, 1e-4));
        assert!(rel_close(1000.0, 1000.05, 1e-4));
        assert!(!rel_close(f32::NAN, f32::NAN, 1e-4));
        assert!(!rel_close(1.0, f32::INFINITY, 1e-4));
    }
}
