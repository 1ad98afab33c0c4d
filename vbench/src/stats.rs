//! Percentiles from the benchmark's own raw samples, and the result line.
//!
//! Latencies are never read from the store's `LatencyHistogram`: its
//! power-of-two buckets cannot resolve a 10% change. Every percentile here
//! is a nearest-rank value over the raw per-request samples.

use std::collections::BTreeMap;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of `samples` (`None` when empty); no tail rule applies.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// `true` when `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit, e.g. `ms`.
    pub unit: &'static str,
}

/// The metrics of one run, by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    /// Record `name`; panics on an invalid name, a duplicate or a
    /// non-finite value, all of which are bugs in this benchmark.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let old = self.0.insert(name.clone(), Metric { value, unit });
        assert!(old.is_none(), "metric {name} recorded twice");
    }

    /// Every metric, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Metric)> {
        self.0.iter()
    }

    /// Check that exactly the `declared` metrics were recorded.
    pub fn check_declared(&self, declared: &[&str]) -> Result<(), String> {
        let mut want: Vec<&str> = declared.to_vec();
        want.sort_unstable();
        let got: Vec<&str> = self.0.keys().map(String::as_str).collect();
        if got == want {
            Ok(())
        } else {
            Err(format!("recorded metrics {got:?}, declared {want:?}"))
        }
    }
}

/// What one run prints as its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every response matched its reference and every check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or answered wrongly.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// The one-line JSON object that ends a run's standard output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&samples, 0.9),
            None,
            "99 samples leave 9 beyond p90"
        );
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(10.0));
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order_and_median_averages() {
        let mut samples: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let p = percentile(&samples, 0.9);
        samples.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&samples, 0.9));
        assert_eq!(p, Some(179.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "query.self_ms",
            "trace.unattributed_pct.query",
            "9x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "p90/ms", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_refused() {
        Metrics::default().put("bad name", 1.0, "ms");
    }

    #[test]
    fn outcome_renders_one_json_line() {
        let mut metrics = Metrics::default();
        metrics.put("p50_ms", 1.25, "ms");
        let line = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        }
        .to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
