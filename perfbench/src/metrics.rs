//! Reported metrics: a name, a value, a unit, and where the value is a
//! percentile, which percentile and how many samples it came from.

use crate::stats::{self, Quantile};

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The metric name (`BENCHMARK.json`).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// For percentiles: the percentile really reported and the sample count.
    pub quantile: Option<(f64, usize)>,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    /// Every metric, in insertion order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a plain value.
    pub fn value(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            quantile: None,
        });
    }

    fn quantile(&mut self, name: &str, q: Option<Quantile>, scale: f64, unit: &'static str) {
        let q = q.unwrap_or(Quantile {
            value: f64::NAN,
            percentile: 0.0,
            samples: 0,
        });
        self.metrics.push(Metric {
            name: name.to_string(),
            value: q.value * scale,
            unit,
            quantile: Some((q.percentile, q.samples)),
        });
    }

    /// Adds `<prefix>_p50_<unit>` and `<prefix>_p99_<unit>` (or, with a
    /// dotted prefix, `<prefix>_p50…` likewise) from samples in ns, scaled
    /// by `scale`.
    pub fn p50_p99(&mut self, prefix: &str, samples_ns: &[f64], scale: f64, unit: &'static str) {
        self.quantile(
            &format!("{prefix}_p50_{unit}"),
            stats::median(samples_ns),
            scale,
            unit,
        );
        self.quantile(
            &format!("{prefix}_p99_{unit}"),
            stats::tail(samples_ns),
            scale,
            unit,
        );
    }

    /// Adds only the median.
    pub fn p50(&mut self, name: &str, samples_ns: &[f64], scale: f64, unit: &'static str) {
        self.quantile(name, stats::median(samples_ns), scale, unit);
    }

    /// Adds only the tail.
    pub fn p99(&mut self, name: &str, samples_ns: &[f64], scale: f64, unit: &'static str) {
        self.quantile(name, stats::tail(samples_ns), scale, unit);
    }

    /// Prints the human-readable table: every metric with its unit and,
    /// for percentiles, the percentile and sample count.
    pub fn print_table(&self, title: &str) {
        println!("# {title}");
        for m in &self.metrics {
            match m.quantile {
                Some((p, n)) => println!(
                    "  {:<30} {:>16.4} {:<6} (p{p:.1} of n={n})",
                    m.name, m.value, m.unit
                ),
                None => println!("  {:<30} {:>16.4} {:<6}", m.name, m.value, m.unit),
            }
        }
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN: a metric without samples reads -1.
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name,
                    json_number(value),
                    m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
            body.join(",")
        )
    }
}

/// A float with all its digits, as JSON.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
