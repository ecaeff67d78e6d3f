//! Measurement plumbing: distributions, percentiles, time series.
//!
//! Experiments record raw samples (`Samples`), summarize them
//! (`Summary`), and track values over time (`TimeSeries`). The serving
//! metrics the paper reports — TTFT, TPOT, JCT, throughput, SLO attainment —
//! are computed from these primitives by `LatencyStats`.

use crate::time::{SimDuration, SimTime};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// A bag of raw `f64` samples supporting exact percentile queries.
///
/// Simulation runs produce at most a few million samples, so keeping the raw
/// values and sorting on demand is both exact and fast enough; sortedness is
/// cached and invalidated on insert.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Records one sample. Non-finite values are a logic error upstream.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on NaN/inf input; release builds drop the
    /// sample (a poisoned percentile is worse than a missing point).
    pub fn record(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "Samples::record: non-finite {value}");
        if value.is_finite() {
            self.values.push(value);
            self.sorted = false;
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Exact percentile via nearest-rank on the sorted samples.
    /// `q` is in `[0, 1]`; returns `None` if empty.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if !self.sorted {
            self.values.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = ((q * self.values.len() as f64).ceil() as usize).clamp(1, self.values.len());
        Some(self.values[rank - 1])
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| {
            Some(acc.map_or(v, |m: f64| if v > m { v } else { m }))
        })
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| {
            Some(acc.map_or(v, |m: f64| if v < m { v } else { m }))
        })
    }

    /// Fraction of samples at or below `threshold` — SLO attainment.
    fn fraction_le(&self, threshold: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let hits = self.values.iter().filter(|&&v| v <= threshold).count();
        Some(hits as f64 / self.values.len() as f64)
    }

    /// Summarizes the distribution. An empty distribution yields a
    /// [`Summary`] with `count == 0` and zeroed statistics in memory;
    /// serialization makes the emptiness explicit by emitting `null` for
    /// every statistic (a genuine 0.0 latency and "no samples" must not
    /// be confusable in artifacts). Use [`Summary::non_empty`] before
    /// reading the plain fields when emptiness is possible.
    pub fn summary(&mut self) -> Summary {
        Summary {
            count: self.len(),
            mean: self.mean().unwrap_or(0.0),
            p50: self.percentile(0.50).unwrap_or(0.0),
            p90: self.percentile(0.90).unwrap_or(0.0),
            p95: self.percentile(0.95).unwrap_or(0.0),
            p99: self.percentile(0.99).unwrap_or(0.0),
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
        }
    }

    /// Read-only view of the raw samples (unsorted order not guaranteed).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// A distribution summary: count, mean and standard percentiles.
///
/// When `count == 0` the statistic fields hold 0.0 placeholders; the
/// `Serialize` impl emits `null` for them so an empty distribution can
/// never masquerade as an all-zero one in JSON artifacts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p95: f64,
    pub p99: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// `Some(self)` iff at least one sample was recorded — the gate every
    /// artifact writer should pass a summary through before reading the
    /// plain `f64` fields, so "no data" serializes as `null` rather than
    /// a fabricated zero.
    pub fn non_empty(self) -> Option<Summary> {
        if self.count == 0 {
            None
        } else {
            Some(self)
        }
    }
}

impl Serialize for Summary {
    fn to_value(&self) -> serde::Value {
        use serde::value::{Number, Value};
        // Same shape and field order the derive would emit, but with the
        // statistics nulled out when the distribution is empty.
        let stat = |x: f64| {
            if self.count == 0 {
                Value::Null
            } else {
                Value::Number(Number::F64(x))
            }
        };
        Value::Object(vec![
            (
                "count".to_string(),
                Value::Number(Number::U64(self.count as u64)),
            ),
            ("mean".to_string(), stat(self.mean)),
            ("p50".to_string(), stat(self.p50)),
            ("p90".to_string(), stat(self.p90)),
            ("p95".to_string(), stat(self.p95)),
            ("p99".to_string(), stat(self.p99)),
            ("min".to_string(), stat(self.min)),
            ("max".to_string(), stat(self.max)),
        ])
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0 (no samples)");
        }
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// A `(time, value)` series, e.g. queue depth or instance count over time.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a point. Points must be appended in non-decreasing time order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `t` precedes the last recorded point.
    pub fn record(&mut self, t: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(last, _)| t >= last),
            "TimeSeries::record: out-of-order point at {t}"
        );
        self.points.push((t, value));
    }

    /// All points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Per-request serving latency metrics, in the units the paper reports.
#[derive(Debug, Clone, Copy)]
pub struct RequestLatency {
    /// Time to first token.
    pub ttft: SimDuration,
    /// Mean time per output token (excluding the first).
    pub tpot: SimDuration,
    /// Job completion time: arrival to last token.
    pub jct: SimDuration,
    /// Number of output tokens generated.
    pub output_tokens: u64,
}

/// Aggregates request latencies into the paper's reported metrics.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    ttft_ms: Samples,
    tpot_ms: Samples,
    jct_ms: Samples,
    total_output_tokens: u64,
    completed: u64,
}

impl LatencyStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// Records one completed request.
    pub fn record(&mut self, lat: RequestLatency) {
        self.ttft_ms.record(lat.ttft.as_millis_f64());
        self.tpot_ms.record(lat.tpot.as_millis_f64());
        self.jct_ms.record(lat.jct.as_millis_f64());
        self.total_output_tokens += lat.output_tokens;
        self.completed += 1;
    }

    /// Number of completed requests recorded.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// TTFT distribution in milliseconds.
    pub fn ttft_ms(&mut self) -> Summary {
        self.ttft_ms.summary()
    }

    /// TPOT distribution in milliseconds.
    pub fn tpot_ms(&mut self) -> Summary {
        self.tpot_ms.summary()
    }

    /// JCT distribution in milliseconds.
    pub fn jct_ms(&mut self) -> Summary {
        self.jct_ms.summary()
    }

    /// Fraction of requests with TPOT at or under `sla`.
    pub fn tpot_sla_attainment(&self, sla_ms: f64) -> Option<f64> {
        self.tpot_ms.fraction_le(sla_ms)
    }

    /// Fraction of requests with TTFT at or under `sla`.
    pub fn ttft_sla_attainment(&self, sla_ms: f64) -> Option<f64> {
        self.ttft_ms.fraction_le(sla_ms)
    }

    /// Output-token throughput over the given makespan, tokens/second.
    pub fn decode_throughput(&self, makespan: SimDuration) -> f64 {
        let secs = makespan.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_output_tokens as f64 / secs
        }
    }
}

/// A string-keyed set of counters, for coarse accounting (cache hits,
/// preemptions, scale events). BTreeMap keeps iteration order stable for
/// deterministic report output.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    map: BTreeMap<&'static str, u64>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `n` to counter `key`.
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.map.entry(key).or_insert(0) += n;
    }

    /// Increments counter `key` by one.
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Current value of `key` (zero if never touched).
    pub fn get(&self, key: &'static str) -> u64 {
        self.map.get(key).copied().unwrap_or(0)
    }

    /// Iterates `(key, value)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }
}

/// One metric behind a registry handle.
#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Samples(Samples),
    Series(TimeSeries),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Samples(_) => "samples",
            Metric::Series(_) => "series",
        }
    }
}

/// Handle to a registered metric; cheap to copy and use on hot paths
/// (index lookup, no hashing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// A named registry unifying the three metric primitives — [`Counters`]-style
/// counters, [`Samples`] distributions, and [`TimeSeries`] — behind string
/// names and queryable [`MetricId`] handles, with JSON export/import.
///
/// Registration is idempotent: asking for the same name returns the same
/// handle. Names are namespaced by convention (`engine.`, `rtc.`, `sim.`).
///
/// # Panics
///
/// Re-registering a name as a different metric kind panics — that is a
/// wiring bug, not a runtime condition.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    index: BTreeMap<String, usize>,
    entries: Vec<(String, Metric)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register(&mut self, name: &str, make: fn() -> Metric) -> MetricId {
        if let Some(&i) = self.index.get(name) {
            let want = make();
            assert_eq!(
                self.entries[i].1.kind(),
                want.kind(),
                "metric {name:?} already registered as {}",
                self.entries[i].1.kind()
            );
            return MetricId(i);
        }
        let i = self.entries.len();
        self.entries.push((name.to_string(), make()));
        self.index.insert(name.to_string(), i);
        MetricId(i)
    }

    /// Registers (or looks up) a counter.
    pub fn counter(&mut self, name: &str) -> MetricId {
        self.register(name, || Metric::Counter(0))
    }

    /// Registers (or looks up) a sample distribution.
    pub fn samples(&mut self, name: &str) -> MetricId {
        self.register(name, || Metric::Samples(Samples::new()))
    }

    /// Registers (or looks up) a time series.
    pub fn series(&mut self, name: &str) -> MetricId {
        self.register(name, || Metric::Series(TimeSeries::new()))
    }

    /// Adds `n` to a counter handle.
    pub fn add(&mut self, id: MetricId, n: u64) {
        match &mut self.entries[id.0].1 {
            Metric::Counter(v) => *v += n,
            other => {
                debug_assert!(false, "MetricsRegistry::add on a {}", other.kind());
            }
        }
    }

    /// Increments a counter handle.
    pub fn incr(&mut self, id: MetricId) {
        self.add(id, 1);
    }

    /// Records one sample on a samples handle.
    pub fn record(&mut self, id: MetricId, value: f64) {
        match &mut self.entries[id.0].1 {
            Metric::Samples(s) => s.record(value),
            other => {
                debug_assert!(false, "MetricsRegistry::record on a {}", other.kind());
            }
        }
    }

    /// Appends a point to a series handle.
    pub fn record_at(&mut self, id: MetricId, t: SimTime, value: f64) {
        match &mut self.entries[id.0].1 {
            Metric::Series(s) => s.record(t, value),
            other => {
                debug_assert!(false, "MetricsRegistry::record_at on a {}", other.kind());
            }
        }
    }

    /// Current value of a counter by name (zero if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.index.get(name).map(|&i| &self.entries[i].1) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Distribution summary of a samples metric by name.
    pub fn summary(&mut self, name: &str) -> Option<Summary> {
        let &i = self.index.get(name)?;
        match &mut self.entries[i].1 {
            Metric::Samples(s) => Some(s.summary()),
            _ => None,
        }
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> + '_ {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Copies every counter from a [`Counters`] set into this registry
    /// (added onto any existing values).
    pub fn import_counters(&mut self, counters: &Counters) {
        for (k, v) in counters.iter() {
            let id = self.counter(k);
            self.add(id, v);
        }
    }

    /// Exports the registry as a JSON object: name -> typed record.
    /// Counters carry their exact value; samples their raw values plus a
    /// summary; series their `[t_ns, value]` points. Sorted by name.
    pub fn to_json(&mut self) -> serde::Value {
        use serde::value::{Number, Value};
        let mut out: Vec<(String, Value)> = Vec::new();
        // Summaries need &mut (percentile sorting); precompute them.
        let summaries: BTreeMap<String, Summary> = self
            .entries
            .iter_mut()
            .filter_map(|(n, m)| match m {
                Metric::Samples(s) => Some((n.clone(), s.summary())),
                _ => None,
            })
            .collect();
        for (name, metric) in &self.entries {
            let v = match metric {
                Metric::Counter(c) => Value::Object(vec![
                    ("type".to_string(), Value::String("counter".to_string())),
                    ("value".to_string(), Value::Number(Number::U64(*c))),
                ]),
                Metric::Samples(s) => Value::Object(vec![
                    ("type".to_string(), Value::String("samples".to_string())),
                    (
                        "values".to_string(),
                        Value::Array(
                            s.values()
                                .iter()
                                .map(|&x| Value::Number(Number::F64(x)))
                                .collect(),
                        ),
                    ),
                    (
                        "summary".to_string(),
                        serde::Serialize::to_value(&summaries[name]),
                    ),
                ]),
                Metric::Series(s) => Value::Object(vec![
                    ("type".to_string(), Value::String("series".to_string())),
                    (
                        "points".to_string(),
                        Value::Array(
                            s.points()
                                .iter()
                                .map(|&(t, x)| {
                                    Value::Array(vec![
                                        Value::Number(Number::U64(t.as_nanos())),
                                        Value::Number(Number::F64(x)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            };
            out.push((name.clone(), v));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        serde::Value::Object(out)
    }

    /// Rebuilds a registry from [`MetricsRegistry::to_json`] output.
    /// Counter values and series points round-trip exactly; sample values
    /// round-trip through Rust's shortest-representation float formatting,
    /// which is bit-exact.
    pub fn from_json(v: &serde::Value) -> Result<MetricsRegistry, String> {
        use serde::Value;
        let Value::Object(entries) = v else {
            return Err("metrics JSON root must be an object".to_string());
        };
        let mut reg = MetricsRegistry::new();
        for (name, entry) in entries {
            let kind = entry
                .get("type")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("metric {name:?}: missing type"))?;
            match kind {
                "counter" => {
                    let val = entry
                        .get("value")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("metric {name:?}: bad counter value"))?;
                    let id = reg.counter(name);
                    reg.add(id, val);
                }
                "samples" => {
                    let vals = entry
                        .get("values")
                        .and_then(Value::as_array)
                        .ok_or_else(|| format!("metric {name:?}: missing values"))?;
                    let id = reg.samples(name);
                    for x in vals {
                        let x = x
                            .as_f64()
                            .ok_or_else(|| format!("metric {name:?}: non-numeric sample"))?;
                        reg.record(id, x);
                    }
                }
                "series" => {
                    let pts = entry
                        .get("points")
                        .and_then(Value::as_array)
                        .ok_or_else(|| format!("metric {name:?}: missing points"))?;
                    let id = reg.series(name);
                    for p in pts {
                        let t = p
                            .at(0)
                            .and_then(Value::as_u64)
                            .ok_or_else(|| format!("metric {name:?}: bad point time"))?;
                        let x = p
                            .at(1)
                            .and_then(Value::as_f64)
                            .ok_or_else(|| format!("metric {name:?}: bad point value"))?;
                        reg.record_at(id, SimTime::from_nanos(t), x);
                    }
                }
                other => return Err(format!("metric {name:?}: unknown type {other:?}")),
            }
        }
        Ok(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.record(v as f64);
        }
        assert_eq!(s.percentile(0.50), Some(50.0));
        assert_eq!(s.percentile(0.90), Some(90.0));
        assert_eq!(s.percentile(0.99), Some(99.0));
        assert_eq!(s.percentile(1.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
    }

    #[test]
    fn empty_samples_yield_none() {
        let mut s = Samples::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.fraction_le(1.0), None);
    }

    #[test]
    fn record_after_percentile_stays_correct() {
        let mut s = Samples::new();
        s.record(10.0);
        assert_eq!(s.percentile(0.5), Some(10.0));
        s.record(1.0);
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.max(), Some(10.0));
    }

    #[test]
    fn fraction_le_counts_slo_attainment() {
        let mut s = Samples::new();
        for v in [10.0, 20.0, 30.0, 40.0] {
            s.record(v);
        }
        assert_eq!(s.fraction_le(25.0), Some(0.5));
        assert_eq!(s.fraction_le(5.0), Some(0.0));
        assert_eq!(s.fraction_le(100.0), Some(1.0));
    }

    #[test]
    fn latency_stats_aggregate() {
        let mut ls = LatencyStats::new();
        ls.record(RequestLatency {
            ttft: SimDuration::from_millis(100),
            tpot: SimDuration::from_millis(40),
            jct: SimDuration::from_secs(5),
            output_tokens: 200,
        });
        ls.record(RequestLatency {
            ttft: SimDuration::from_millis(300),
            tpot: SimDuration::from_millis(60),
            jct: SimDuration::from_secs(9),
            output_tokens: 100,
        });
        assert_eq!(ls.completed(), 2);
        assert_eq!(ls.total_output_tokens, 300);
        assert!((ls.ttft_ms().mean - 200.0).abs() < 1e-9);
        assert_eq!(ls.tpot_sla_attainment(50.0), Some(0.5));
        let thr = ls.decode_throughput(SimDuration::from_secs(10));
        assert!((thr - 30.0).abs() < 1e-9);
    }

    #[test]
    fn counters_accumulate_in_stable_order() {
        let mut c = Counters::new();
        c.incr("b");
        c.add("a", 5);
        c.incr("b");
        assert_eq!(c.get("a"), 5);
        assert_eq!(c.get("b"), 2);
        assert_eq!(c.get("never"), 0);
        let keys: Vec<_> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    /// Points of a series metric, read back through the JSON export.
    fn series_len(r: &mut MetricsRegistry, name: &str) -> Option<usize> {
        Some(r.to_json().get(name)?.get("points")?.as_array()?.len())
    }

    #[test]
    fn registry_handles_are_idempotent_and_queryable() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("sim.completed");
        assert_eq!(r.counter("sim.completed"), c, "same name, same handle");
        r.add(c, 3);
        r.incr(c);
        assert_eq!(r.counter_value("sim.completed"), 4);
        assert_eq!(r.counter_value("absent"), 0);

        let s = r.samples("ttft_ms");
        r.record(s, 10.0);
        r.record(s, 30.0);
        let sum = r.summary("ttft_ms").unwrap();
        assert_eq!(sum.count, 2);
        assert!((sum.mean - 20.0).abs() < 1e-9);

        let ts = r.series("queue_depth");
        r.record_at(ts, SimTime::ZERO, 1.0);
        r.record_at(ts, SimTime::from_secs(1), 2.0);
        assert_eq!(series_len(&mut r, "queue_depth"), Some(2));
        assert_eq!(
            r.names().collect::<Vec<_>>(),
            vec!["sim.completed", "ttft_ms", "queue_depth"]
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_change() {
        let mut r = MetricsRegistry::new();
        r.counter("x");
        r.samples("x");
    }

    #[test]
    fn registry_imports_counters() {
        let mut c = Counters::new();
        c.add("a", 2);
        c.add("b", 7);
        let mut r = MetricsRegistry::new();
        let a = r.counter("a");
        r.add(a, 1);
        r.import_counters(&c);
        assert_eq!(r.counter_value("a"), 3);
        assert_eq!(r.counter_value("b"), 7);
    }

    #[test]
    fn registry_round_trips_through_json() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("sim.completed");
        r.add(c, 41);
        let s = r.samples("ttft_ms");
        for v in [12.5, 800.0, 0.125, 3.0] {
            r.record(s, v);
        }
        let ts = r.series("kv_blocks");
        r.record_at(ts, SimTime::from_nanos(17), 1.0);
        r.record_at(ts, SimTime::from_millis(5), 2.5);

        // record -> export JSON text -> parse -> rebuild -> re-export.
        let text = r.to_json().to_json();
        let parsed = serde::Value::parse(&text).unwrap();
        let mut rebuilt = MetricsRegistry::from_json(&parsed).unwrap();
        assert_eq!(rebuilt.counter_value("sim.completed"), 41);
        assert_eq!(rebuilt.summary("ttft_ms").unwrap().count, 4);
        assert_eq!(series_len(&mut rebuilt, "kv_blocks"), Some(2));
        assert_eq!(rebuilt.to_json().to_json(), text, "export is a fixed point");
    }

    #[test]
    fn empty_summary_serializes_nulls_not_zeros() {
        let mut s = Samples::new();
        let sum = s.summary();
        assert_eq!(sum.count, 0);
        assert!(sum.non_empty().is_none());
        let v = serde::Serialize::to_value(&sum);
        assert_eq!(v.get("count").and_then(serde::Value::as_u64), Some(0));
        for field in ["mean", "p50", "p90", "p95", "p99", "min", "max"] {
            assert!(
                matches!(v.get(field), Some(serde::Value::Null)),
                "empty summary field {field} must be null"
            );
        }
        assert_eq!(sum.to_string(), "n=0 (no samples)");
        // Non-empty summaries keep plain numbers.
        s.record(2.0);
        let sum = s.summary();
        assert!(sum.non_empty().is_some());
        let v = serde::Serialize::to_value(&sum);
        assert_eq!(v.get("mean").and_then(serde::Value::as_f64), Some(2.0));
    }

    #[test]
    fn empty_samples_round_trip_through_registry_json() {
        let mut r = MetricsRegistry::new();
        r.samples("never.recorded");
        let text = r.to_json().to_json();
        assert!(text.contains("null"), "empty stats must export as null");
        let parsed = serde::Value::parse(&text).unwrap();
        let mut rebuilt = MetricsRegistry::from_json(&parsed).unwrap();
        assert_eq!(rebuilt.summary("never.recorded").unwrap().count, 0);
        assert_eq!(rebuilt.to_json().to_json(), text, "export is a fixed point");
    }

    #[test]
    fn registry_from_json_rejects_garbage() {
        assert!(MetricsRegistry::from_json(&serde::Value::Null).is_err());
        let bad = serde::Value::parse(r#"{"x": {"type": "gauge"}}"#).unwrap();
        assert!(MetricsRegistry::from_json(&bad).is_err());
    }
}
