//! Running the simulator: set-up, fixed-length `step_until` slices, and
//! report assembly, with every call wrapped in a span.
//!
//! Timed and traced runs execute exactly the same calls; the traced run
//! additionally reads `metrics_snapshot_json()` after each slice, so
//! counters such as `rtc.swap_out` are known per slice.

use crate::spec::{ReqStream, Workload};
use crate::stats::fnv1a;
use crate::trace::Recorder;
use deepserve::{ClusterSim, RunReport};
use serde::Value;
use simcore::SimTime;

/// Host cost and counters of one slice.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Sim-time end of the slice, seconds.
    pub until_s: f64,
    /// Host nanoseconds spent in `step_until`.
    pub wall_ns: u64,
    /// Events the slice processed.
    pub events: u64,
    /// Cumulative `rtc.swap_out` after the slice (traced runs only).
    pub swap_out: Option<u64>,
    /// Cumulative completions after the slice (traced runs only).
    pub completed: Option<u64>,
}

impl Slice {
    /// Host nanoseconds per event in this slice.
    pub fn ns_per_event(&self) -> Option<f64> {
        (self.events > 0).then(|| self.wall_ns as f64 / self.events as f64)
    }
}

/// Everything one simulated run yields.
#[derive(Debug)]
pub struct SimRun {
    /// Requests the stream submitted.
    pub submitted: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Host seconds for `ClusterSim::new` + `inject_stream`.
    pub setup_s: f64,
    /// Host seconds from the first slice to the finished report.
    pub run_s: f64,
    /// Events processed.
    pub events: u64,
    /// Per-slice host cost.
    pub slices: Vec<Slice>,
    /// The canonical report JSON (`RunReport::to_json`).
    pub report_json: String,
    /// FNV-1a digest of `report_json`.
    pub digest: u64,
    /// The report (metrics registry, latency stats).
    pub report: RunReport,
}

/// A counter from a metrics snapshot; `None` when the program does not
/// record it.
pub fn snapshot_counter(snap: &Value, name: &str) -> Option<u64> {
    snap.get(name)?.get("value")?.as_u64()
}

/// Builds and injects a simulator; returns it with the set-up host time.
pub fn setup(w: &Workload, stream: ReqStream, rec: &mut Recorder) -> (ClusterSim, f64) {
    let span = rec.begin("sim.setup");
    let mut sim = w.new_sim();
    sim.inject_stream(stream);
    let ns = rec.end(span);
    (sim, ns as f64 * 1e-9)
}

/// Runs `w` (or its first `n` requests) to completion in slices.
pub fn run(w: &Workload, n: Option<usize>, rec: &mut Recorder) -> SimRun {
    let submitted = n.unwrap_or_else(|| w.count()) as u64;
    let (mut sim, setup_s) = setup(w, w.stream_n(n), rec);
    let run = rec.begin("sim.run");
    let mut slices = Vec::new();
    let mut limit = SimTime::ZERO;
    let mut events_before = sim.events_processed();
    loop {
        limit += w.slice;
        let span = rec.begin("sim.slice");
        let next = sim.step_until(limit);
        let events = sim.events_processed() - events_before;
        events_before += events;
        let (swap_out, completed) = if rec.enabled() {
            let snap = sim.metrics_snapshot_json();
            (
                snapshot_counter(&snap, "rtc.swap_out"),
                snapshot_counter(&snap, "sim.completed"),
            )
        } else {
            (None, None)
        };
        let mut attrs = vec![("until_s", limit.as_secs_f64()), ("events", events as f64)];
        if let Some(s) = swap_out {
            attrs.push(("rtc.swap_out", s as f64));
        }
        if let Some(c) = completed {
            attrs.push(("sim.completed", c as f64));
        }
        let wall_ns = rec.end_with(span, attrs);
        slices.push(Slice {
            until_s: limit.as_secs_f64(),
            wall_ns,
            events,
            swap_out,
            completed,
        });
        if next.is_none() {
            break;
        }
    }
    let span = rec.begin("sim.report");
    let mut report = sim.run_to_completion();
    let report_json = report.to_json().to_json();
    let digest = fnv1a(report_json.as_bytes());
    rec.end(span);
    let run_s = rec.end(run) as f64 * 1e-9;
    SimRun {
        submitted,
        completed: report.latency.completed(),
        failed: report.failed,
        setup_s,
        run_s,
        events: sim.events_processed(),
        slices,
        report_json,
        digest,
        report,
    }
}

/// User-visible outcome of a run: sim-time latency percentiles and SLO
/// attainment.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// TTFT median, sim ms.
    pub ttft_p50: f64,
    /// TTFT p99, sim ms.
    pub ttft_p99: f64,
    /// TPOT median, sim ms.
    pub tpot_p50: f64,
    /// TPOT p99, sim ms.
    pub tpot_p99: f64,
    /// Share of submitted requests meeting both limits (see
    /// [`Latency::of`] for how the pair is bounded).
    pub slo_attain: f64,
    /// Whether `slo_attain` is exact (one limit met by every completion)
    /// rather than a lower bound.
    pub slo_exact: bool,
}

impl Latency {
    /// Reads the outcome from a finished run. The report keeps TTFT and
    /// TPOT as separate distributions, so the share meeting both is
    /// computed as `max(0, ttft_ok + tpot_ok - completed)`: exact when
    /// either limit is met by every completed request, a lower bound
    /// otherwise. Failed requests count as misses.
    pub fn of(run: &mut SimRun, ttft_limit: f64, tpot_limit: f64) -> Latency {
        let lat = &mut run.report.latency;
        let ttft = lat.ttft_ms();
        let tpot = lat.tpot_ms();
        let c = run.completed as f64;
        let ttft_ok = lat.ttft_sla_attainment(ttft_limit).unwrap_or(0.0) * c;
        let tpot_ok = lat.tpot_sla_attainment(tpot_limit).unwrap_or(0.0) * c;
        let both = (ttft_ok + tpot_ok - c).max(0.0);
        Latency {
            ttft_p50: ttft.p50,
            ttft_p99: ttft.p99,
            tpot_p50: tpot.p50,
            tpot_p99: tpot.p99,
            slo_attain: both / run.submitted.max(1) as f64,
            slo_exact: ttft_ok == c || tpot_ok == c,
        }
    }
}
