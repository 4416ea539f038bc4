//! Order statistics over timing samples.

/// Sample count, quartiles and the 90th percentile of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p25: quantile(&sorted, 0.25),
            p50: quantile(&sorted, 0.50),
            p75: quantile(&sorted, 0.75),
            p90: quantile(&sorted, 0.90),
        })
    }

    /// A single exact value (a count, or one measurement).
    pub fn exact(value: f64) -> Summary {
        Summary {
            n: 1,
            p25: value,
            p50: value,
            p75: value,
            p90: value,
        }
    }
}

/// Linear interpolation between the closest ranks of a sorted,
/// non-empty sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`, `0.0` when empty.
fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// How much slower the traced ops of a run were than the untraced ones,
/// matching like with like: `groups` holds, per input (a flow seed, a
/// pool request), the traced and the untraced latencies. Each latency
/// is divided by its input's typical cost (the geometric mean of the
/// two sides' medians) before the two sides' medians are compared, so
/// the input mix cannot masquerade as overhead. Inputs seen on only one
/// side are skipped.
pub fn overhead(groups: &[(Vec<f64>, Vec<f64>)]) -> f64 {
    let mut traced = Vec::new();
    let mut plain = Vec::new();
    for (t, p) in groups {
        if t.is_empty() || p.is_empty() {
            continue;
        }
        let scale = (median(t) * median(p)).sqrt();
        traced.extend(t.iter().map(|ms| ms / scale));
        plain.extend(p.iter().map(|ms| ms / scale));
    }
    median(&traced) / median(&plain) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.n, s.p25, s.p50, s.p75), (5, 2.0, 3.0, 4.0));
        assert!((s.p90 - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn overhead_ignores_the_input_mix() {
        // Two inputs, 10x apart in cost; tracing adds 10 % to each, and
        // the traced side sees the slow input more often.
        let groups = [
            (vec![1.1, 1.1, 1.1], vec![1.0]),
            (vec![11.0], vec![10.0, 10.0, 10.0]),
        ];
        assert!(
            (overhead(&groups) - 0.1).abs() < 0.02,
            "{}",
            overhead(&groups)
        );
    }
}
