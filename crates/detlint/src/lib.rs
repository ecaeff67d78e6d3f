//! `detlint` — the workspace determinism & robustness lint.
//!
//! The simulator's crown-jewel guarantee is bit-identical replay: a run is
//! a pure function of `(seed, plan)`, and reports/traces are byte-equal
//! across fast-forward and thread counts. That guarantee rests on a handful
//! of coding invariants (no hash-order iteration on report paths, no wall
//! clock, no stray threads, no foreign RNG, no panicking library paths,
//! justified `unsafe`, raw `std::sync` primitives contained to the
//! model-checked shim surface, and no nested locking without a written
//! lock order), plus two hygiene rules: no report-crate `pub fn` that
//! nothing else in the workspace names, and no std SipHash map where
//! `simcore::IdMap` fits. This crate enforces them
//! statically: a hand-rolled lexer strips comments/literals, a line-level
//! rule engine flags violations, and an inline waiver syntax records the
//! justification for every deliberate exception.
//!
//! Run it with `cargo run -p detlint`; audit exceptions with
//! `cargo run -p detlint -- --list-waivers`. The machine-readable report
//! lands in `target/detlint.json`. See DESIGN.md §"Determinism lint".

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;

pub use report::Report;
pub use rules::{Scope, Violation, Waiver, RULES};
pub use scan::scan;
