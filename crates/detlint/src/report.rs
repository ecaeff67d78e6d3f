//! Aggregated scan results: text rendering and the machine-readable JSON
//! report (`target/detlint.json`).

use crate::rules::{FileReport, Violation, Waiver, RULES};

/// Schema version of the JSON report. Bump on any breaking shape change;
/// the fixture suite pins the current shape. v2: added the `raw-sync` and
/// `lock-order` rules and a `bad-waiver` entry in `per_rule`. v3: added the
/// `dead-pub` rule. v4: added the `std-hasher` rule.
pub const SCHEMA_VERSION: u64 = 4;

/// Per-rule tallies in the JSON report.
#[derive(Debug, serde::Serialize)]
pub struct RuleCount {
    /// Rule id.
    pub rule: String,
    /// Unwaived violations of this rule.
    pub violations: usize,
    /// Declared waivers naming this rule.
    pub waivers: usize,
}

/// The whole scan result. Serialized to `target/detlint.json`.
#[derive(Debug, serde::Serialize)]
pub struct Report {
    /// JSON schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Scan root (absolute path, informational only).
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Unwaived violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Every declared waiver, sorted by (file, line, rule).
    pub waivers: Vec<Waiver>,
    /// Per-rule tallies, in [`RULES`] order, with a trailing `bad-waiver`
    /// entry (malformed or unknown-rule waivers).
    pub per_rule: Vec<RuleCount>,
}

impl Report {
    /// An empty report for the given root.
    pub fn new(root: String) -> Report {
        Report {
            schema_version: SCHEMA_VERSION,
            root,
            files_scanned: 0,
            violations: Vec::new(),
            waivers: Vec::new(),
            per_rule: Vec::new(),
        }
    }

    /// Folds one file's findings in.
    pub fn absorb(&mut self, file: FileReport) {
        self.violations.extend(file.violations);
        self.waivers.extend(file.waivers);
    }

    /// Sorts findings and computes tallies once all files are absorbed.
    pub fn finish(&mut self, files_scanned: usize) {
        self.files_scanned = files_scanned;
        self.violations
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.waivers
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.per_rule = RULES
            .iter()
            .copied()
            .chain(std::iter::once("bad-waiver"))
            .map(|r| RuleCount {
                rule: r.to_string(),
                violations: self.violations.iter().filter(|v| v.rule == r).count(),
                waivers: self.waivers.iter().filter(|w| w.rule == r).count(),
            })
            .collect();
    }

    /// Whether the scan is clean (no unwaived violations).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Process exit code for this report: 0 clean, 1 unwaived rule
    /// violations, 2 when any waiver itself is broken (`bad-waiver`). A
    /// broken waiver means the suppression surface cannot be trusted, so
    /// it outranks ordinary findings the way an internal error would.
    pub fn exit_code(&self) -> u8 {
        if self.violations.iter().any(|v| v.rule == "bad-waiver") {
            2
        } else if self.violations.is_empty() {
            0
        } else {
            1
        }
    }

    /// Human-readable diagnostics, one violation per block.
    pub fn render_text(&self, quiet: bool) -> String {
        let mut out = String::new();
        if !quiet {
            for v in &self.violations {
                out.push_str(&format!(
                    "{}:{}: [{}] {}\n    {}\n",
                    v.file, v.line, v.rule, v.message, v.snippet
                ));
            }
        }
        out.push_str(&format!(
            "detlint: {} file(s) scanned, {} violation(s), {} waiver(s)\n",
            self.files_scanned,
            self.violations.len(),
            self.waivers.len()
        ));
        for rc in &self.per_rule {
            if rc.violations > 0 || rc.waivers > 0 {
                out.push_str(&format!(
                    "  {:<15} {} violation(s), {} waiver(s)\n",
                    rc.rule, rc.violations, rc.waivers
                ));
            }
        }
        out
    }

    /// The `--list-waivers` audit view.
    pub fn render_waivers(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} waiver(s) declared:\n", self.waivers.len()));
        for w in &self.waivers {
            out.push_str(&format!(
                "{}:{}: allow({}){} — {}\n",
                w.file,
                w.line,
                w.rule,
                if w.used { "" } else { " [UNUSED]" },
                if w.justification.is_empty() {
                    "<missing justification>"
                } else {
                    &w.justification
                }
            ));
        }
        out
    }

    /// Serializes the report to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}
