//! Fixture-corpus tests: one deliberate violation and one valid waiver per
//! rule, scope exemptions (bench, cluster coordinator, id-map module, test
//! code), lexer tricky cases, and the JSON report shape.
//! `simcore/tests/callers.rs` calls every fixture `pub fn` but the
//! `dead-pub` subjects, so each file's expectations stay those of the rule
//! it is about. The corpus lives in `fixtures/ws/` and is excluded from
//! real scans by `scan::SKIP_PREFIXES`.

use detlint::scan;
use std::path::Path;

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws")
}

fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("detlint lives two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn fixture_violations_exact() {
    let report = scan(&fixture_root()).expect("fixture scan");
    let got: Vec<(String, usize, String)> = report
        .violations
        .iter()
        .map(|v| (v.file.clone(), v.line, v.rule.clone()))
        .collect();
    let expected: Vec<(String, usize, String)> = [
        ("crates/core/src/fleet.rs", 9, "panic"),
        ("crates/core/src/fleet.rs", 14, "unordered-iter"),
        ("crates/gateway/src/facade.rs", 5, "panic"),
        ("crates/gateway/src/facade.rs", 11, "unordered-iter"),
        ("crates/simcore/src/bad_iter.rs", 10, "unordered-iter"),
        ("crates/simcore/src/bad_waiver.rs", 2, "bad-waiver"),
        ("crates/simcore/src/bad_waiver.rs", 3, "bad-waiver"),
        ("crates/simcore/src/clock.rs", 2, "wall-clock"),
        ("crates/simcore/src/dead_pub.rs", 4, "dead-pub"),
        ("crates/simcore/src/panics.rs", 2, "panic"),
        ("crates/simcore/src/panics.rs", 12, "panic"),
        ("crates/simcore/src/randomness.rs", 2, "rng"),
        ("crates/simcore/src/raw_sync.rs", 2, "raw-sync"),
        ("crates/simcore/src/std_hasher.rs", 5, "std-hasher"),
        ("crates/simcore/src/std_hasher.rs", 12, "unordered-iter"),
        ("crates/simcore/src/sync.rs", 11, "lock-order"),
        ("crates/simcore/src/threading.rs", 2, "thread"),
        ("crates/simcore/src/unsafe_block.rs", 2, "unsafe"),
        ("crates/simcore/tests/integration.rs", 17, "unsafe"),
    ]
    .iter()
    .map(|(f, l, r)| (f.to_string(), *l, r.to_string()))
    .collect();
    assert_eq!(got, expected, "violation set must match the corpus exactly");
    assert_eq!(report.files_scanned, 20);
    assert!(!report.is_clean());
}

#[test]
fn fixture_diagnostics_render_exact() {
    let report = scan(&fixture_root()).expect("fixture scan");
    let text = report.render_text(false);

    // One exact diagnostic block per rule.
    for block in [
        "crates/core/src/fleet.rs:9: [panic] `unwrap()`: library code must degrade \
         gracefully (debug_assert + fallback) instead of panicking\n    \
         self.hosts.get(&model).unwrap()[0]\n",
        "crates/core/src/fleet.rs:14: [unordered-iter] `for … in self.hosts`: \
         `hosts` is a HashMap/HashSet — iteration order is the hasher's, not the program's\n    \
         for (_, tes) in &self.hosts {\n",
        "crates/gateway/src/facade.rs:5: [panic] `unwrap()`: library code must degrade \
         gracefully (debug_assert + fallback) instead of panicking\n    v.unwrap()\n",
        "crates/gateway/src/facade.rs:11: [unordered-iter] `for … in sessions`: \
         `sessions` is a HashMap/HashSet — iteration order is the hasher's, not the program's\n",
        "crates/simcore/src/std_hasher.rs:12: [unordered-iter] `by_name.values()`: \
         `by_name` is a HashMap/HashSet — iteration order is the hasher's, not the program's\n    \
         self.by_name.values().copied().collect()\n",
        "crates/simcore/src/bad_iter.rs:10: [unordered-iter] `for … in self.loads`: \
         `loads` is a HashMap/HashSet — iteration order is the hasher's, not the program's\n    \
         for (_, v) in &self.loads {\n",
        "crates/simcore/src/clock.rs:2: [wall-clock] `std::time`: sim code must read \
         SimTime, never the host clock\n",
        "crates/simcore/src/threading.rs:2: [thread] `thread::spawn`: threads are allowed \
         only in crates/core/src/cluster.rs\n",
        "crates/simcore/src/randomness.rs:2: [rng] `thread_rng`: randomness must flow \
         through simcore::SimRng\n",
        "crates/simcore/src/raw_sync.rs:2: [raw-sync] `std::sync::Mutex`: the simulator \
         is single-threaded — waive with the reason a raw sync primitive is needed\n    \
         let m = std::sync::Mutex::new(7u32);\n",
        "crates/simcore/src/sync.rs:11: [lock-order] `.lock()` while `ga` is held: \
         nested lock acquisition risks deadlock by order inversion — waive with the \
         intended global lock order\n    \
         let gb = self.b.lock().unwrap_or_else(PoisonError::into_inner);\n",
        "crates/simcore/src/panics.rs:2: [panic] `unwrap()`: library code must degrade \
         gracefully (debug_assert + fallback) instead of panicking\n    v.unwrap()\n",
        "crates/simcore/src/unsafe_block.rs:2: [unsafe] `unsafe` without a `// SAFETY:` \
         comment on or directly above the line\n",
        "crates/simcore/src/dead_pub.rs:4: [dead-pub] `pub fn never_called` is named in \
         no other file — delete it, or drop `pub` if this file still calls it\n    \
         pub fn never_called() -> u32 {\n",
        "crates/simcore/src/std_hasher.rs:5: [std-hasher] `HashMap`: key program-minted \
         ids with simcore::IdMap/IdSet — waive with the reason std's seeded hasher is \
         needed\n    pub by_ticket: std::collections::HashMap<u64, u32>,\n",
        "crates/simcore/src/bad_waiver.rs:3: [bad-waiver] malformed waiver: expected \
         `detlint: allow(<rule>) — <justification>`\n",
        "crates/simcore/src/bad_waiver.rs:2: [bad-waiver] waiver names unknown rule \
         `nonexistent-rule`\n",
    ] {
        assert!(
            text.contains(block),
            "missing diagnostic:\n{block}\n--- got ---\n{text}"
        );
    }

    // A waiver without a written justification does not suppress.
    assert!(
        text.contains(
            "crates/simcore/src/panics.rs:12: [panic] `unwrap()`: library code must degrade \
             gracefully (debug_assert + fallback) instead of panicking \
             (waiver present but missing justification)"
        ),
        "missing-justification waiver must still report:\n{text}"
    );

    // Summary footer.
    assert!(
        text.contains("detlint: 20 file(s) scanned, 19 violation(s), 17 waiver(s)"),
        "summary mismatch:\n{text}"
    );
}

#[test]
fn fixture_waiver_audit() {
    let report = scan(&fixture_root()).expect("fixture scan");
    assert_eq!(report.waivers.len(), 17);

    let by_loc: Vec<(&str, usize, &str, bool, bool)> = report
        .waivers
        .iter()
        .map(|w| {
            (
                w.file.as_str(),
                w.line,
                w.rule.as_str(),
                w.used,
                w.justification.is_empty(),
            )
        })
        .collect();
    let expected = [
        (
            "crates/core/src/fleet.rs",
            21,
            "unordered-iter",
            true,
            false,
        ),
        ("crates/gateway/src/facade.rs", 1, "std-hasher", true, false),
        ("crates/gateway/src/facade.rs", 8, "std-hasher", true, false),
        (
            "crates/gateway/src/facade.rs",
            18,
            "wall-clock",
            true,
            false,
        ),
        (
            "crates/simcore/src/bad_iter.rs",
            17,
            "unordered-iter",
            true,
            false,
        ),
        (
            "crates/simcore/src/bad_waiver.rs",
            2,
            "nonexistent-rule",
            false,
            false,
        ),
        ("crates/simcore/src/clock.rs", 7, "wall-clock", true, false),
        ("crates/simcore/src/dead_pub.rs", 8, "dead-pub", true, false),
        ("crates/simcore/src/panics.rs", 6, "panic", true, false),
        ("crates/simcore/src/panics.rs", 11, "panic", true, true),
        ("crates/simcore/src/randomness.rs", 7, "rng", true, false),
        ("crates/simcore/src/raw_sync.rs", 6, "raw-sync", true, false),
        (
            "crates/simcore/src/std_hasher.rs",
            6,
            "std-hasher",
            true,
            false,
        ),
        ("crates/simcore/src/sync.rs", 1, "raw-sync", true, false),
        ("crates/simcore/src/sync.rs", 17, "lock-order", true, false),
        ("crates/simcore/src/threading.rs", 6, "thread", true, false),
        ("crates/simcore/src/tricky.rs", 21, "panic", false, false),
    ];
    assert_eq!(
        by_loc, expected,
        "waiver audit must match the corpus exactly"
    );

    let audit = report.render_waivers();
    assert!(audit.starts_with("17 waiver(s) declared:\n"));
    assert!(audit.contains(
        "crates/simcore/src/std_hasher.rs:6: allow(std-hasher) — \
         fixture: keys are client-chosen strings"
    ));
    assert!(audit.contains(
        "crates/simcore/src/dead_pub.rs:8: allow(dead-pub) — \
         fixture: the embedding API of an out-of-tree plugin"
    ));
    assert!(audit.contains(
        "crates/simcore/src/raw_sync.rs:6: allow(raw-sync) — \
         one-shot init flag for a doc example, not sim state"
    ));
    assert!(audit.contains(
        "crates/simcore/src/sync.rs:17: allow(lock-order) — \
         global order is a-then-b, held everywhere"
    ));
    assert!(audit.contains(
        "crates/core/src/fleet.rs:21: allow(unordered-iter) — \
         commutative count; order is irrelevant"
    ));
    assert!(audit.contains(
        "crates/gateway/src/facade.rs:18: allow(wall-clock) — \
         the facade's sole sim-to-wall bridge"
    ));
    assert!(audit.contains(
        "crates/simcore/src/bad_iter.rs:17: allow(unordered-iter) — \
         commutative sum; order is irrelevant"
    ));
    assert!(audit.contains("crates/simcore/src/tricky.rs:21: allow(panic) [UNUSED]"));
    assert!(
        audit.contains("crates/simcore/src/panics.rs:11: allow(panic) — <missing justification>")
    );
}

#[test]
fn fixture_scope_exemptions_hold() {
    let report = scan(&fixture_root()).expect("fixture scan");
    // Wall-clock reads in crates/bench, threads in the cluster coordinator,
    // std's hash types in simcore's id-map module, and anything (but
    // unjustified `unsafe`) in tests/ are all exempt.
    for exempt in [
        "crates/bench/src/timing.rs",
        "crates/core/src/cluster.rs",
        "crates/simcore/src/cfg_test.rs",
        "crates/simcore/src/tricky.rs",
        "crates/simcore/src/idmap.rs",
    ] {
        assert!(
            report.violations.iter().all(|v| v.file != exempt),
            "{exempt} must scan clean"
        );
    }
    // The tests/ file is exempt from determinism rules but not from the
    // SAFETY-comment rule.
    let test_file_rules: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.file == "crates/simcore/tests/integration.rs")
        .map(|v| v.rule.as_str())
        .collect();
    assert_eq!(test_file_rules, ["unsafe"]);
    // A file that waives raw-sync to hold real locks still gets its lock
    // nesting checked: the nested acquisition is flagged while the
    // waived `use std::sync::Mutex` is not.
    let sync_rules: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.file == "crates/simcore/src/sync.rs")
        .map(|v| v.rule.as_str())
        .collect();
    assert_eq!(sync_rules, ["lock-order"]);
    // `dead-pub` counts code tokens in every other file, test blocks
    // included: the `pub fn` named only inside `cfg_test.rs`'s
    // `#[cfg(test)]` module is used, while the one named only by its own
    // file, a comment and a string literal is dead.
    let dead: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.rule == "dead-pub")
        .map(|v| v.snippet.as_str())
        .collect();
    assert_eq!(dead, ["pub fn never_called() -> u32 {"]);
}

#[test]
fn json_report_round_trips() {
    let report = scan(&fixture_root()).expect("fixture scan");
    let json = report.to_json();
    let value = serde_json::from_str(&json).expect("report JSON must parse");

    assert_eq!(
        value.get("schema_version").and_then(|v| v.as_u64()),
        Some(4)
    );
    assert_eq!(
        value.get("files_scanned").and_then(|v| v.as_u64()),
        Some(20)
    );

    let violations = value
        .get("violations")
        .and_then(|v| v.as_array())
        .expect("violations array");
    assert_eq!(violations.len(), report.violations.len());
    // Spot-check the first violation object field-for-field.
    let first = &violations[0];
    assert_eq!(
        first.get("file").and_then(|v| v.as_str()),
        Some("crates/core/src/fleet.rs")
    );
    assert_eq!(first.get("line").and_then(|v| v.as_u64()), Some(9));
    assert_eq!(first.get("rule").and_then(|v| v.as_str()), Some("panic"));
    assert_eq!(
        first.get("snippet").and_then(|v| v.as_str()),
        Some("self.hosts.get(&model).unwrap()[0]")
    );

    let waivers = value
        .get("waivers")
        .and_then(|v| v.as_array())
        .expect("waivers array");
    assert_eq!(waivers.len(), 17);
    assert_eq!(waivers[0].get("used").and_then(|v| v.as_bool()), Some(true));

    // Every diagnostic record carries its rule name.
    for v in violations {
        assert!(
            v.get("rule").and_then(|r| r.as_str()).is_some(),
            "violation record without a rule name: {v}"
        );
    }
    for w in waivers {
        assert!(
            w.get("rule").and_then(|r| r.as_str()).is_some(),
            "waiver record without a rule name: {w}"
        );
    }

    // Per-rule tallies: all ten rules in declaration order, then the
    // bad-waiver tally.
    let per_rule = value
        .get("per_rule")
        .and_then(|v| v.as_array())
        .expect("per_rule array");
    let rules: Vec<&str> = per_rule
        .iter()
        .filter_map(|rc| rc.get("rule").and_then(|v| v.as_str()))
        .collect();
    let expected_rules: Vec<&str> = detlint::RULES
        .iter()
        .copied()
        .chain(std::iter::once("bad-waiver"))
        .collect();
    assert_eq!(rules, expected_rules);
    for rc in per_rule {
        assert!(rc.get("violations").and_then(|v| v.as_u64()).is_some());
        assert!(rc.get("waivers").and_then(|v| v.as_u64()).is_some());
    }
    let bad = per_rule.last().expect("bad-waiver tally");
    assert_eq!(
        bad.get("violations").and_then(|v| v.as_u64()),
        Some(2),
        "the corpus seeds one malformed and one unknown-rule waiver"
    );

    // Full round trip: re-rendering the parsed value and parsing it again
    // loses nothing.
    let reparsed = serde_json::from_str(&value.to_string()).expect("re-parse");
    assert_eq!(value, reparsed, "JSON report must round-trip losslessly");
}

#[test]
fn exit_codes_split_bad_waivers_from_findings() {
    // The fixture corpus seeds bad waivers: internal-error exit code 2.
    let report = scan(&fixture_root()).expect("fixture scan");
    assert_eq!(report.exit_code(), 2);

    // Ordinary unwaived findings alone: exit code 1.
    let mut findings_only = detlint::Report::new("synthetic".to_string());
    findings_only.violations.push(detlint::Violation {
        rule: "panic".to_string(),
        file: "crates/simcore/src/x.rs".to_string(),
        line: 1,
        message: "synthetic".to_string(),
        snippet: String::new(),
    });
    findings_only.finish(1);
    assert_eq!(findings_only.exit_code(), 1);

    // Clean: 0.
    let mut clean = detlint::Report::new("synthetic".to_string());
    clean.finish(0);
    assert_eq!(clean.exit_code(), 0);
}

#[test]
fn walker_skips_build_and_bench_output() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("detlint_walker");
    for rel in [
        "target/a.rs",
        ".bench_build/b.rs",
        ".bench_out/c.rs",
        "perfbench/target/d.rs",
        "perfbench/src/kept.rs",
    ] {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
        std::fs::write(&path, "fn f() {}\n").expect("write");
    }
    let files = detlint::scan::collect_rust_files(&root).expect("walk");
    assert_eq!(files, ["perfbench/src/kept.rs"]);
}

#[test]
fn real_workspace_is_clean() {
    let report = scan(&repo_root()).expect("workspace scan");
    assert!(
        report.is_clean(),
        "the workspace must pass its own determinism lint:\n{}",
        report.render_text(false)
    );
    // Every waiver in the real tree carries a written justification and
    // actually suppresses something.
    for w in &report.waivers {
        assert!(
            !w.justification.is_empty(),
            "{}:{}: waiver without justification",
            w.file,
            w.line
        );
        assert!(
            w.used,
            "{}:{}: unused waiver should be deleted",
            w.file, w.line
        );
    }
}
