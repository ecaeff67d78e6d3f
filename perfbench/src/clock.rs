//! The benchmark's single host-clock touchpoint: a monotonic stopwatch.
//!
//! The simulator itself never reads the host clock (detlint's wall-clock
//! rule). The benchmark has to, so every host timing in this package goes
//! through this module and its two waived lines.

// detlint: allow(wall-clock) — the benchmark times host execution by design; this module is its only clock
use std::time::Instant;

/// A started monotonic stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a stopwatch now.
    pub fn start() -> Self {
        // detlint: allow(wall-clock) — benchmark timing origin
        Stopwatch(Instant::now())
    }

    /// Elapsed host seconds.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Elapsed host nanoseconds.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}
