//! Metric records and the output format: a table of every metric with its
//! unit and sample count, then one JSON result line.

use serde::{Number, Value};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value (0 when `absent`).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: u64,
    /// The program does not record the counter this metric reads.
    pub absent: bool,
}

impl Metric {
    /// A measured metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            absent: false,
        }
    }

    /// A metric read from an optional program counter: absent counters
    /// are reported as absent (value 0), never as a failure.
    pub fn counter(name: &'static str, value: Option<u64>) -> Metric {
        Metric {
            name,
            value: value.unwrap_or(0) as f64,
            unit: "count",
            samples: 1,
            absent: value.is_none(),
        }
    }
}

/// Outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (requests submitted).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Output-check failures; empty means correct.
    pub problems: Vec<String>,
    /// Metrics to report.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records an output-check failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Prints the metric table, the problems and the JSON result line.
    pub fn print(&self) {
        for m in &self.metrics {
            let shown = if m.absent {
                "absent".to_string()
            } else {
                format!("{}", m.value)
            };
            println!(
                "metric {:<28} {:>22} {:<8} n={}",
                m.name, shown, m.unit, m.samples
            );
        }
        // Failures also travel in the result line as `failed`/`attempted`;
        // the share is printed for readers but kept out of the metrics
        // because it is 0 on a healthy run.
        println!(
            "metric {:<28} {:>22} {:<8} n={}",
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            "share",
            self.attempted
        );
        for p in &self.problems {
            println!("check FAILED: {p}");
        }
        println!("{}", self.result_json().to_json());
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Number(Number::F64(m.value))),
                        ("unit".to_string(), Value::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.problems.is_empty())),
            (
                "attempted".to_string(),
                Value::Number(Number::U64(self.attempted.max(1))),
            ),
            (
                "failed".to_string(),
                Value::Number(Number::U64(self.failed)),
            ),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }
}

/// Peak resident set size of this process in MB (`VmHWM`); `None` where
/// the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
