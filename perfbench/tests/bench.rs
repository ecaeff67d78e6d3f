//! Tests of the benchmark itself: tiny workloads complete, every metric
//! `BENCHMARK.json` names is emitted with a valid name and unit, the layer
//! replays count what the program counts, traced and untraced runs agree,
//! and the workspace determinism lint stays clean with this package in it.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::bench::{self, report_counter, GatewayInputs};
use perfbench::layers;
use perfbench::output::Metric;
use perfbench::sim;
use perfbench::spec::{Size, Workload};
use perfbench::trace::Recorder;
use serde::Value;
use std::path::PathBuf;

const SIM_WORKLOADS: [&str; 3] = ["scale_dispatch", "decode_steady", "prefix_pd"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives under the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn assert_emits(section: &str, metrics: &[Metric]) {
    let want = listed(section);
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(
        got, want,
        "{section} metrics must match BENCHMARK.json, in order"
    );
    for m in metrics {
        assert!(valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        assert!(m.value.is_finite(), "{} is not finite", m.name);
    }
}

fn tiny(name: &str) -> Workload {
    Workload::sim(name, 7, Size::Tiny).expect("known workload")
}

#[test]
fn tiny_workloads_complete() {
    for name in SIM_WORKLOADS {
        let w = tiny(name);
        let run = sim::run(&w, None, &mut Recorder::new(false));
        assert!(run.completed > 0, "{name}: nothing completed");
        assert_eq!(
            run.completed + run.failed,
            run.submitted,
            "{name}: conservation"
        );
        assert_eq!(run.submitted, w.count() as u64);
    }
}

#[test]
fn same_seed_same_inputs_and_report() {
    let w = tiny("scale_dispatch");
    let a = sim::run(&w, None, &mut Recorder::new(false));
    let b = sim::run(&w, None, &mut Recorder::new(true));
    assert_eq!(
        a.digest, b.digest,
        "a traced run must reproduce the untraced report"
    );
    let other = Workload::sim("scale_dispatch", 8, Size::Tiny).expect("known");
    let c = sim::run(&other, None, &mut Recorder::new(false));
    assert_ne!(a.digest, c.digest, "another seed must give other inputs");
}

#[test]
fn timed_run_emits_every_end_to_end_metric() {
    for name in SIM_WORKLOADS {
        let (out, _) = bench::timed(&tiny(name), 0.0);
        assert!(out.problems.is_empty(), "{name}: {:?}", out.problems);
        assert_emits("end_to_end", &out.metrics);
        for m in &out.metrics {
            assert!(
                m.value > 0.0,
                "{name}: end-to-end metric {} is zero",
                m.name
            );
        }
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric_and_matches_untraced() {
    for name in SIM_WORKLOADS {
        let w = tiny(name);
        let (_, untraced) = bench::timed(&w, 0.0);
        let t = bench::traced(&w, &GatewayInputs::default());
        assert!(
            t.outcome.problems.is_empty(),
            "{name}: {:?}",
            t.outcome.problems
        );
        assert_eq!(
            t.digest, untraced,
            "{name}: traced report differs from untraced"
        );
        assert_emits("per_layer", &t.outcome.metrics);
        let spans = t
            .trace
            .get("spans")
            .and_then(Value::as_array)
            .expect("spans");
        assert!(!spans.is_empty(), "{name}: no spans written");
    }
}

#[test]
fn je_replay_decides_once_per_arrival_like_the_program() {
    for name in ["scale_dispatch", "prefix_pd"] {
        let w = tiny(name);
        let run = sim::run(&w, None, &mut Recorder::new(false));
        let je = layers::je(&w, &mut Recorder::new(false));
        assert_eq!(
            je.decisions, run.submitted,
            "{name}: one decision per arrival"
        );
        let program = report_counter(&run, "je.combined_locality").unwrap_or(0)
            + report_counter(&run, "je.combined_load").unwrap_or(0);
        assert_eq!(
            je.decisions, program,
            "{name}: JE replay vs the program's JE counters"
        );
    }
}

#[test]
fn distflow_replay_plans_one_transfer_per_migration() {
    let w = tiny("prefix_pd");
    let run = sim::run(&w, None, &mut Recorder::new(false));
    let df = layers::distflow(&w, &mut Recorder::new(false));
    assert_eq!(
        Some(df.transfers),
        report_counter(&run, "sim.kv_migrations")
    );
    let colocated = sim::run(&tiny("decode_steady"), None, &mut Recorder::new(false));
    assert_eq!(
        report_counter(&colocated, "sim.kv_migrations").unwrap_or(0),
        0
    );
}

#[test]
fn rtc_replay_swaps_out_on_prefix_inputs_only() {
    let full = |name| Workload::sim(name, 3, Size::Full).expect("known");
    let prefix = layers::rtc(&full("prefix_pd"), 2, &mut Recorder::new(false));
    assert!(
        prefix.swap_out > 0,
        "prefix_pd inputs must push the RTC past HBM fill"
    );
    assert!(prefix.first_swap.is_some());
    let scale = layers::rtc(&full("scale_dispatch"), 2, &mut Recorder::new(false));
    assert_eq!(scale.swap_out, 0, "scale_dispatch prompts fit in HBM");
    assert_eq!(scale.requests, full("scale_dispatch").count() as u64);
}

#[test]
fn engine_replay_serves_its_share() {
    let w = tiny("decode_steady");
    let share = layers::te0_share(&w).len() as u64;
    let e = layers::engine(&w, &mut Recorder::new(false));
    assert_eq!(e.submitted, share);
    assert!(e.iterations > 0 && e.ff_iterations <= e.iterations);
}

#[test]
fn workspace_determinism_lint_stays_clean() {
    let report = detlint::scan(&repo_root()).expect("workspace scan");
    assert!(report.is_clean(), "{}", report.render_text(false));
    assert!(
        report
            .waivers
            .iter()
            .all(|w| w.used && !w.justification.is_empty()),
        "every waiver must be justified and used"
    );
}
