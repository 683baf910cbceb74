//! Percentiles and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// the closest ranks; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`, or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The geometric mean, over the classes of `samples` (class, value), of
/// each class's median value, or 0 when empty. Every class weighs the same
/// however many samples it has, so a seed that shifts the mix a little
/// does not move the figure, and a median never falls on the boundary
/// between two classes of very different cost.
pub fn class_p50(samples: impl IntoIterator<Item = (usize, f64)>) -> f64 {
    let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (class, value) in samples {
        by_class.entry(class).or_default().push(value);
    }
    if by_class.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = by_class.values().map(|v| median(v).ln()).sum();
    (log_sum / by_class.len() as f64).exp()
}

/// Durations in milliseconds.
pub fn ms(durations: impl IntoIterator<Item = Duration>) -> Vec<f64> {
    durations
        .into_iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; they can only come from a bug,
        // and the smoke test rejects the resulting null.
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn class_p50_weighs_classes_equally() {
        let samples = [(0, 1.0), (0, 1.0), (0, 1.0), (0, 9.0), (1, 4.0)];
        assert!((class_p50(samples) - 2.0).abs() < 1e-12);
        assert_eq!(class_p50([]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
