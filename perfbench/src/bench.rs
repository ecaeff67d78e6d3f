//! The timed run (end-to-end metrics, tracing off) and the traced run
//! (spans around every call, per-layer metrics).

use crate::clock::Stopwatch;
use crate::layers;
use crate::output::{peak_rss_mb, Metric, Outcome};
use crate::sim::{self, Latency, SimRun, Slice};
use crate::spec::Workload;
use crate::stats::{mean, median, percentile};
use crate::trace::{f, u, Recorder};
use serde::Value;

/// Set-ups per timed run before the timed repetitions (at least
/// `SETUP_MIN`, then more until `SETUP_BUDGET_S` host seconds or
/// `SETUP_MAX`), so `setup_s` is a median of many.
pub const SETUP_MIN: usize = 10;
/// Upper bound on set-up samples.
pub const SETUP_MAX: usize = 60;
/// Host seconds spent on extra set-up samples.
pub const SETUP_BUDGET_S: f64 = 1.0;

/// A counter from a finished report; `None` when the program does not
/// record it.
pub fn report_counter(run: &SimRun, name: &str) -> Option<u64> {
    run.report
        .metrics
        .names()
        .any(|n| n == name)
        .then(|| run.report.metrics.counter_value(name))
}

fn conserve(out: &mut Outcome, run: &SimRun) {
    out.check(run.completed + run.failed == run.submitted, || {
        format!(
            "completed {} + failed {} != submitted {}",
            run.completed, run.failed, run.submitted
        )
    });
}

/// Runs `w` repeatedly for `seconds` of host time with tracing off and
/// reports the end-to-end metrics. Every repetition uses the same inputs,
/// so every report must have the same digest.
pub fn timed(w: &Workload, seconds: f64) -> (Outcome, u64) {
    let mut rec = Recorder::new(false);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let clock = Stopwatch::start();
    while setups.len() < SETUP_MIN || (setups.len() < SETUP_MAX && clock.secs() < SETUP_BUDGET_S) {
        let (sim, s) = sim::setup(w, w.stream(), &mut rec);
        drop(sim);
        setups.push(s);
    }
    let clock = Stopwatch::start();
    let mut rates = Vec::new();
    let mut first: Option<SimRun> = None;
    loop {
        let run = sim::run(w, None, &mut rec);
        conserve(&mut out, &run);
        out.attempted += run.submitted;
        out.failed += run.failed;
        setups.push(run.setup_s);
        rates.push(run.completed as f64 / run.run_s);
        match &first {
            None => first = Some(run),
            Some(f0) => out.check(f0.digest == run.digest, || {
                format!(
                    "report digest {:016x} differs from {:016x} on the same seed",
                    run.digest, f0.digest
                )
            }),
        }
        if clock.secs() >= seconds {
            break;
        }
    }
    let mut first = first.expect("at least one repetition");
    let lat = Latency::of(&mut first, w.slo_ttft_ms, w.slo_tpot_ms);
    let completed = first.completed;
    let reps = rates.len() as u64;
    out.metrics = vec![
        Metric::new(
            "setup_s",
            median(&setups).unwrap_or(0.0),
            "s",
            setups.len() as u64,
        ),
        Metric::new("sim_reqs_per_s", median(&rates).unwrap_or(0.0), "1/s", reps),
        Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB", 1),
        Metric::new("ttft_p50_ms", lat.ttft_p50, "ms", completed),
        Metric::new("ttft_tail_ms", lat.ttft_p99, "ms", completed),
        Metric::new("tpot_p50_ms", lat.tpot_p50, "ms", completed),
        Metric::new("tpot_p99_ms", lat.tpot_p99, "ms", completed),
        Metric::new("slo_attain", lat.slo_attain, "share", first.submitted),
    ];
    if !lat.slo_exact {
        println!("note slo_attain is a lower bound: neither limit is met by every request");
    }
    (out, first.digest)
}

/// Inputs the gateway workload hands the traced run.
#[derive(Debug, Default)]
pub struct GatewayInputs {
    /// Host seconds the live server ran.
    pub server_wall_s: Option<f64>,
    /// The request bytes the client sent, back to back.
    pub request_bytes: Option<Vec<u8>>,
    /// Digest of the live run's report, which the replays must match.
    pub live_digest: Option<u64>,
}

/// What the traced run produced besides its metrics.
#[derive(Debug)]
pub struct Traced {
    /// Metrics, checks and counts.
    pub outcome: Outcome,
    /// The trace document (spans, self times, slices, cliff).
    pub trace: Value,
    /// Digest of the traced report.
    pub digest: u64,
}

fn slices_json(slices: &[Slice]) -> Value {
    Value::Array(
        slices
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("until_s".to_string(), f(s.until_s)),
                    ("wall_ns".to_string(), u(s.wall_ns)),
                    ("events".to_string(), u(s.events)),
                    (
                        "ns_per_event".to_string(),
                        s.ns_per_event().map_or(Value::Null, f),
                    ),
                    (
                        "rtc.swap_out".to_string(),
                        s.swap_out.map_or(Value::Null, u),
                    ),
                    (
                        "sim.completed".to_string(),
                        s.completed.map_or(Value::Null, u),
                    ),
                ])
            })
            .collect(),
    )
}

/// Host cost per event before and after the first slice that saw an RTC
/// swap-out: `(first swap slice end s, completed then, median ns/event
/// before, median ns/event from then on)`.
pub fn cliff(slices: &[Slice]) -> Option<(f64, u64, f64, f64)> {
    let k = slices
        .iter()
        .position(|s| s.swap_out.is_some_and(|n| n > 0))?;
    let before: Vec<f64> = slices[..k].iter().filter_map(Slice::ns_per_event).collect();
    let after: Vec<f64> = slices[k..].iter().filter_map(Slice::ns_per_event).collect();
    Some((
        slices[k].until_s,
        slices[k].completed.unwrap_or(0),
        median(&before)?,
        median(&after)?,
    ))
}

/// The traced run: the workload run untraced, traced, and untraced again
/// (all three reports must match; the overhead compares the traced run
/// with the mean of the two untraced ones), then every layer replay and —
/// where the workload has one — the cliff probe.
pub fn traced(w: &Workload, gw: &GatewayInputs) -> Traced {
    let mut out = Outcome::default();
    let plain = sim::run(w, None, &mut Recorder::new(false));
    let mut rec = Recorder::new(true);
    let top = rec.begin("bench.traced_run");
    let mut run = sim::run(w, None, &mut rec);
    rec.end(top);
    let again = sim::run(w, None, &mut Recorder::new(false));
    let top = rec.begin("bench.layer_replays");
    conserve(&mut out, &run);
    out.attempted = run.submitted;
    out.failed = run.failed;
    out.check(plain.digest == run.digest, || {
        format!(
            "traced report {:016x} != untraced {:016x}",
            run.digest, plain.digest
        )
    });
    if let Some(live) = gw.live_digest {
        out.check(live == run.digest, || {
            format!(
                "session-log run {:016x} != live report {live:016x}",
                run.digest
            )
        });
    }
    out.check(again.digest == plain.digest, || {
        format!(
            "repeated report {:016x} != {:016x}",
            again.digest, plain.digest
        )
    });
    let untraced_s = (plain.run_s + again.run_s) / 2.0;
    let overhead = run.run_s / untraced_s - 1.0;

    let span = rec.begin("layer.je");
    let je = layers::je(w, &mut rec);
    rec.end(span);
    let span = rec.begin("layer.event");
    let op_ns = layers::event_queue(w, plain.events, &mut rec);
    rec.end(span);
    let span = rec.begin("layer.engine");
    let eng = layers::engine(w, &mut rec);
    rec.end(span);
    let span = rec.begin("layer.cost");
    let step_ns = layers::cost(w, &eng.batches, &mut rec);
    rec.end(span);
    let span = rec.begin("layer.rtc");
    let rtc = layers::rtc(w, layers::RTC_POST_FILL, &mut rec);
    rec.end(span);
    let span = rec.begin("layer.distflow");
    let df = layers::distflow(w, &mut rec);
    rec.end(span);
    let span = rec.begin("layer.workloads");
    let gen_ns = layers::generate(w, &mut rec);
    rec.end(span);
    let span = rec.begin("layer.gateway");
    let rendered: Vec<u8>;
    let bytes = match &gw.request_bytes {
        Some(b) => b.as_slice(),
        None => {
            rendered = w
                .stream()
                .take(512)
                .flat_map(|r| layers::http_request(&r))
                .collect();
            &rendered
        }
    };
    let (parse_us, parsed) = layers::parse(bytes, &mut rec);
    let (replay_s, replay_digest) = layers::replay(w, &mut rec);
    rec.end(span);
    out.check(replay_digest == run.digest, || {
        format!(
            "log::replay report {replay_digest:016x} != streamed run {:016x}",
            run.digest
        )
    });
    out.check(je.decisions == run.submitted, || {
        format!(
            "JE replay made {} decisions for {} arrivals",
            je.decisions, run.submitted
        )
    });

    let probe = w.probe_requests.map(|n| {
        let span = rec.begin("bench.cliff_probe");
        let p = sim::run(w, Some(n), &mut rec);
        rec.end(span);
        p
    });
    rec.end(top);

    let slice_ns: Vec<f64> = run.slices.iter().filter_map(Slice::ns_per_event).collect();
    let te_busy_s = run
        .report
        .metrics
        .summary("cluster.te_busy_s")
        .map_or(0.0, |s| s.mean * s.count as f64);
    let makespan_s = run.report.makespan.as_secs_f64();
    let loc = report_counter(&run, "je.combined_locality");
    let load = report_counter(&run, "je.combined_load");
    let locality_frac = match (loc, load) {
        (Some(a), Some(b)) if a + b > 0 => a as f64 / (a + b) as f64,
        (Some(_), None) => 1.0,
        _ => 0.0,
    };
    let n = |v: &Vec<f64>| v.len() as u64;
    let p = |v: &Vec<f64>, q| percentile(v, q).unwrap_or(0.0);
    let reference_s = gw.server_wall_s.unwrap_or(untraced_s);
    out.metrics = vec![
        Metric::new(
            "cluster.events_per_req",
            run.events as f64 / run.completed.max(1) as f64,
            "count",
            run.completed,
        ),
        Metric::new(
            "cluster.ns_per_event_p50",
            p(&slice_ns, 0.5),
            "ns",
            n(&slice_ns),
        ),
        Metric::new(
            "cluster.ns_per_event_p99",
            p(&slice_ns, 0.99),
            "ns",
            n(&slice_ns),
        ),
        Metric::new(
            "cluster.te_busy_frac",
            te_busy_s / (w.tes() as f64 * makespan_s).max(f64::MIN_POSITIVE),
            "share",
            w.tes() as u64,
        ),
        Metric::new(
            "je.schedule_us_p50",
            p(&je.schedule_us, 0.5),
            "us",
            n(&je.schedule_us),
        ),
        Metric::new(
            "je.schedule_us_p99",
            p(&je.schedule_us, 0.99),
            "us",
            n(&je.schedule_us),
        ),
        Metric::new("je.locality_frac", locality_frac, "share", run.submitted),
        Metric::new("event.op_ns", op_ns, "ns", 2 * plain.events),
        Metric::new(
            "engine.advance_us_p50",
            p(&eng.advance_us, 0.5),
            "us",
            n(&eng.advance_us),
        ),
        Metric::new(
            "engine.advance_us_p99",
            p(&eng.advance_us, 0.99),
            "us",
            n(&eng.advance_us),
        ),
        Metric::new(
            "engine.ff_absorb_frac",
            eng.ff_iterations as f64 / eng.iterations.max(1) as f64,
            "share",
            eng.iterations,
        ),
        Metric::counter(
            "engine.preemptions",
            report_counter(&run, "engine.preemptions"),
        ),
        Metric::counter(
            "engine.kv_admission_stalls",
            report_counter(&run, "engine.kv_admission_stalls"),
        ),
        Metric::new(
            "cost.decode_step_ns",
            step_ns,
            "ns",
            eng.batches.len() as u64,
        ),
        Metric::new(
            "rtc.match_us_p50",
            p(&rtc.match_us, 0.5),
            "us",
            n(&rtc.match_us),
        ),
        Metric::new(
            "rtc.match_us_p99",
            p(&rtc.match_us, 0.99),
            "us",
            n(&rtc.match_us),
        ),
        Metric::new(
            "rtc.alloc_us_p50",
            p(&rtc.alloc_us, 0.5),
            "us",
            n(&rtc.alloc_us),
        ),
        Metric::new(
            "rtc.alloc_us_p99",
            p(&rtc.alloc_us, 0.99),
            "us",
            n(&rtc.alloc_us),
        ),
        Metric::new(
            "rtc.hit_token_frac",
            rtc.hit_tokens as f64 / rtc.prompt_tokens.max(1) as f64,
            "share",
            rtc.requests,
        ),
        Metric::new("rtc.swap_out", rtc.swap_out as f64, "count", rtc.requests),
        Metric::new(
            "rtc.evict_drop",
            rtc.evict_drop as f64,
            "count",
            rtc.requests,
        ),
        Metric::new(
            "distflow.transfer_us",
            mean(&df.transfer_us).unwrap_or(0.0),
            "us",
            n(&df.transfer_us),
        ),
        Metric::counter(
            "sim.kv_migrations",
            report_counter(&run, "sim.kv_migrations"),
        ),
        Metric::new("workloads.gen_ns_per_req", gen_ns, "ns", run.submitted),
        Metric::new(
            "gateway.parse_us",
            mean(&parse_us).unwrap_or(0.0),
            "us",
            parsed,
        ),
        Metric::new("gateway.replay_s", replay_s, "s", 1),
        Metric::new("gateway.replay_share", replay_s / reference_s, "share", 1),
        Metric::new("bench.trace_overhead_frac", overhead, "share", 1),
    ];

    let cliff_of = |slices: &[Slice]| {
        cliff(slices).map_or(Value::Null, |(at, done, before, after)| {
            Value::Object(vec![
                ("first_swap_slice_end_s".to_string(), f(at)),
                ("completed_at_first_swap".to_string(), u(done)),
                ("ns_per_event_before".to_string(), f(before)),
                ("ns_per_event_after".to_string(), f(after)),
                ("ratio".to_string(), f(after / before)),
            ])
        })
    };
    if let Some(p) = &probe {
        if let Some((at, done, before, after)) = cliff(&p.slices) {
            println!(
                "cliff first rtc.swap_out by sim {at:.0} s ({done} completed): \
                 cluster.ns_per_event {before:.0} ns before, {after:.0} ns after ({:.1}x)",
                after / before
            );
        }
    }
    let (spans, dropped) = rec.spans_json();
    let trace = Value::Object(vec![
        (
            "format".to_string(),
            Value::String("perfbench-trace-1".to_string()),
        ),
        ("workload".to_string(), Value::String(w.name.to_string())),
        ("seed".to_string(), u(w.seed)),
        ("trace_overhead_frac".to_string(), f(overhead)),
        ("self_time".to_string(), rec.self_times_json()),
        ("slices".to_string(), slices_json(&run.slices)),
        ("cliff".to_string(), cliff_of(&run.slices)),
        (
            "probe".to_string(),
            probe.as_ref().map_or(Value::Null, |p| {
                Value::Object(vec![
                    ("requests".to_string(), u(p.submitted)),
                    ("host_s".to_string(), f(p.run_s)),
                    ("slices".to_string(), slices_json(&p.slices)),
                    ("cliff".to_string(), cliff_of(&p.slices)),
                ])
            }),
        ),
        (
            "rtc_replay".to_string(),
            Value::Object(vec![
                ("requests".to_string(), u(rtc.requests)),
                (
                    "first_swap_request".to_string(),
                    rtc.first_swap.map_or(Value::Null, |i| u(i as u64)),
                ),
                ("alloc_failed".to_string(), u(rtc.alloc_failed)),
            ]),
        ),
        ("spans".to_string(), spans),
        ("dropped_spans".to_string(), u(dropped)),
    ]);
    Traced {
        outcome: out,
        trace,
        digest: run.digest,
    }
}
