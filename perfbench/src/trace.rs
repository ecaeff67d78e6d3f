//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark makes into the program: its name, its
//! start and end on the benchmark's monotonic clock, the span that was open
//! when it began (its parent) and, where one applies, a request id. Spans
//! live in memory and are written out once, when the run ends.
//!
//! A span's *self time* is its duration minus the time covered by its
//! child spans. Spans nest strictly (one thread, begin/end in LIFO order),
//! so the children of a span never overlap and their durations simply add.

use crate::clock::Stopwatch;
use serde::{Number, Value};

/// Spans kept in the written trace per span name; the self-time table
/// still covers every span. Keeps trace files small when a replay makes
/// tens of thousands of identical calls.
pub const WRITTEN_PER_NAME: usize = 2_000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `sim.slice` or `je.schedule`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the call served, if it served one.
    pub req: Option<u64>,
    /// Numbers read at the end of the call (counters, sizes).
    pub attrs: Vec<(&'static str, f64)>,
}

/// An open span. Dropping it without [`Recorder::end`] leaves the span
/// open; the recorder asserts LIFO order on `end`.
#[derive(Debug)]
#[must_use = "an open span must be ended"]
pub struct Open {
    idx: Option<usize>,
    start_ns: u64,
}

/// Aggregated time of all spans with one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Number of spans.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// Records spans when enabled; when disabled it still times calls (so
/// measuring code is identical in traced and untraced runs) but keeps
/// nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_req(name, None)
    }

    /// Opens a span that serves request `req`.
    pub fn begin_req(&mut self, name: &'static str, req: Option<u64>) -> Open {
        let start_ns = self.origin.ns();
        if !self.enabled {
            return Open {
                idx: None,
                start_ns,
            };
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
            attrs: Vec::new(),
        });
        self.open.push(idx);
        Open {
            idx: Some(idx),
            start_ns,
        }
    }

    /// Closes `span`; returns its duration in nanoseconds.
    pub fn end(&mut self, span: Open) -> u64 {
        self.end_with(span, Vec::new())
    }

    /// Closes `span`, attaching `attrs`; returns its duration in ns.
    pub fn end_with(&mut self, span: Open, attrs: Vec<(&'static str, f64)>) -> u64 {
        let end_ns = self.origin.ns();
        if let Some(idx) = span.idx {
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans must close in LIFO order");
            let s = &mut self.spans[idx];
            s.end_ns = end_ns;
            s.attrs = attrs;
        }
        end_ns.saturating_sub(span.start_ns)
    }

    /// Every recorded span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals and self times, sorted by descending self time.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<SelfTime> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns[i]);
            match out.iter_mut().find(|t| t.name == s.name) {
                Some(t) => {
                    t.count += 1;
                    t.total_ns += dur;
                    t.self_ns += own;
                }
                None => out.push(SelfTime {
                    name: s.name,
                    count: 1,
                    total_ns: dur,
                    self_ns: own,
                }),
            }
        }
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        out
    }

    /// The spans as JSON (at most [`WRITTEN_PER_NAME`] per name) plus the
    /// number left out.
    pub fn spans_json(&self) -> (Value, u64) {
        let mut written: Vec<(&'static str, usize)> = Vec::new();
        let mut dropped = 0u64;
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let n = match written.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, n)) => n,
                None => {
                    written.push((s.name, 0));
                    &mut written.last_mut().expect("just pushed").1
                }
            };
            if *n >= WRITTEN_PER_NAME {
                dropped += 1;
                continue;
            }
            *n += 1;
            out.push(Value::Object(vec![
                ("id".to_string(), u(i as u64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Value::Null, |p| u(p as u64)),
                ),
                ("name".to_string(), Value::String(s.name.to_string())),
                ("start_ns".to_string(), u(s.start_ns)),
                ("end_ns".to_string(), u(s.end_ns)),
                ("req".to_string(), s.req.map_or(Value::Null, u)),
                (
                    "attrs".to_string(),
                    Value::Object(
                        s.attrs
                            .iter()
                            .map(|(k, v)| (k.to_string(), f(*v)))
                            .collect(),
                    ),
                ),
            ]));
        }
        (Value::Array(out), dropped)
    }

    /// The self-time table as JSON.
    pub fn self_times_json(&self) -> Value {
        Value::Array(
            self.self_times()
                .into_iter()
                .map(|t| {
                    Value::Object(vec![
                        ("name".to_string(), Value::String(t.name.to_string())),
                        ("count".to_string(), u(t.count)),
                        ("total_ns".to_string(), u(t.total_ns)),
                        ("self_ns".to_string(), u(t.self_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// JSON unsigned integer.
pub fn u(v: u64) -> Value {
    Value::Number(Number::U64(v))
}

/// JSON float.
pub fn f(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true);
        let outer = r.begin("outer");
        let inner = r.begin("inner");
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i * i);
        }
        assert!(x > 0);
        r.end(inner);
        r.end(outer);
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(0));
        let t = r.self_times();
        let outer_t = t.iter().find(|t| t.name == "outer").unwrap();
        let inner_t = t.iter().find(|t| t.name == "inner").unwrap();
        assert_eq!(outer_t.self_ns, outer_t.total_ns - inner_t.total_ns);
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut r = Recorder::new(false);
        let s = r.begin("x");
        let _ = r.end(s);
        assert!(r.spans().is_empty());
    }
}
