//! Sample summaries and the metric list the benchmark prints.

use hermes_types::BoxplotSummary;

/// Median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    BoxplotSummary::from_samples(xs).map(|b| b.median)
}

/// `num / den`, or `None` when the denominator has no samples.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| hermes_types::geomean(xs))
}

/// One named measurement; `value` is `None` when the workload produced
/// no samples for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// The measurement.
    pub value: Option<f64>,
}

/// An ordered metric list.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: Option<f64>) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value: value.filter(|v| v.is_finite()),
        });
    }

    /// Appends the median and quartiles of `samples` as `name`,
    /// `name.q1` and `name.q3`.
    pub fn push_quartiles(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let b = BoxplotSummary::from_samples(samples);
        self.push(name, unit, b.map(|b| b.median));
        self.push(format!("{name}.q1"), unit, b.map(|b| b.q1));
        self.push(format!("{name}.q3"), unit, b.map(|b| b.q3));
    }

    /// The value of metric `name`, if present and sampled.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).and_then(|m| m.value)
    }

    /// Human-readable lines, one per sampled metric; metrics without
    /// samples are left out.
    pub fn render(&self) -> String {
        self.0
            .iter()
            .filter_map(|m| {
                m.value
                    .map(|v| format!("  {:<34} {:>16.6} {}\n", m.name, v, m.unit))
            })
            .collect()
    }

    /// The `"metrics"` JSON object. The result line must carry every
    /// metric, so one without samples is written as 0.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value.unwrap_or(0.0)),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s == "-0.0" {
        "0.0".to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsampled_metrics_are_omitted_from_the_report() {
        let mut m = Metrics::default();
        m.push("a", "s", Some(1.5));
        m.push("b", "s", None);
        m.push("c", "s", Some(f64::NAN));
        assert!(m.render().contains('a'));
        assert!(!m.render().contains('b'));
        assert!(!m.render().contains('c'));
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"b\": {\"value\": 0.0, \"unit\": \"s\"}, \
             \"c\": {\"value\": 0.0, \"unit\": \"s\"}}"
        );
    }
}
