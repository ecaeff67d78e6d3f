//! Workspace walker: finds the `.rs` files detlint owns and runs the rule
//! pass over each, in a deterministic order.

use crate::lexer;
use crate::report::Report;
use crate::rules::{self, RefIndex, Scope};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory prefixes (workspace-relative) that are never scanned.
///
/// - `target`: build output.
/// - `vendor`: offline stand-ins for external crates — not our code, and
///   deliberately mirroring foreign APIs.
/// - `crates/detlint/fixtures`: the lint's own test corpus of deliberate
///   violations.
/// - `.bench_build`, `.bench_out`, `perfbench/target`: perfbench's build
///   and run output.
const SKIP_PREFIXES: [&str; 7] = [
    "target",
    "vendor",
    ".git",
    "crates/detlint/fixtures",
    ".bench_build",
    ".bench_out",
    "perfbench/target",
];

/// Recursively collects workspace-relative paths of `.rs` files under
/// `root`, sorted for deterministic reports.
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let rel = rel_path(root, &path);
        if SKIP_PREFIXES
            .iter()
            .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
        {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Scans the workspace rooted at `root` and returns the full report.
///
/// Every file is lexed first so the `dead-pub` reference index covers the
/// whole tree; the rule pass then runs file by file.
pub fn scan(root: &Path) -> io::Result<Report> {
    let files = collect_rust_files(root)?;
    let lexed = files
        .iter()
        .map(|rel| Ok(lexer::lex(&fs::read_to_string(root.join(rel))?)))
        .collect::<io::Result<Vec<_>>>()?;
    let refs = RefIndex::build(&lexed);
    let mut report = Report::new(root.display().to_string());
    for (rel, file) in files.iter().zip(&lexed) {
        report.absorb(rules::check_file(rel, file, Scope::for_path(rel), &refs));
    }
    report.finish(files.len());
    Ok(report)
}
