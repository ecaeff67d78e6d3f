//! Decode-length predictors for PD-aware scheduling.
//!
//! §5.3.2: "we predict the decode length for an incoming request using a set
//! of decode length predictors with varying accuracy. One such predictor is
//! the oracle, which assumes perfect accuracy and is an upper bound for
//! performance. In practice, we use a predictor with 90% accuracy to balance
//! prediction precision and overhead."

use crate::api::ApiRequest;
use simcore::SimRng;

/// Predicts how many tokens a request will decode.
///
/// `Send` is required so a whole [`crate::ClusterSim`] can move across
/// threads (the gateway runs one in a serving thread).
pub trait DecodePredictor: Send {
    /// A human-readable name for reports.
    fn name(&self) -> &'static str;
    /// Predicted decode length for `req`.
    fn predict(&mut self, req: &ApiRequest) -> u32;
}

/// Perfect prediction — the upper bound for PD-aware scheduling.
#[derive(Debug, Default)]
pub struct Oracle;

impl DecodePredictor for Oracle {
    fn name(&self) -> &'static str {
        "oracle"
    }
    fn predict(&mut self, req: &ApiRequest) -> u32 {
        req.target_output
    }
}

/// Predicts the true length with probability `accuracy`; otherwise errs by
/// a log-uniform factor in `[1/max_error, max_error]` — a mispredict lands
/// in the wrong heatmap bucket, which is exactly the failure mode that
/// matters to the scheduler.
pub struct FixedAccuracy {
    accuracy: f64,
    max_error: f64,
    rng: SimRng,
}

impl FixedAccuracy {
    /// Creates a predictor with the given hit probability.
    ///
    /// # Panics
    ///
    /// Panics if `accuracy` is outside `[0, 1]` or `max_error < 1`.
    pub fn new(accuracy: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&accuracy),
            "accuracy must be in [0, 1], got {accuracy}"
        );
        FixedAccuracy {
            accuracy,
            max_error: 8.0,
            rng: SimRng::seed_from_u64(seed),
        }
    }
}

impl DecodePredictor for FixedAccuracy {
    fn name(&self) -> &'static str {
        "fixed-accuracy"
    }
    fn predict(&mut self, req: &ApiRequest) -> u32 {
        if self.rng.chance(self.accuracy) {
            req.target_output
        } else {
            // Log-uniform multiplicative error.
            let sign: f64 = if self.rng.chance(0.5) { 1.0 } else { -1.0 };
            let mag = self.rng.f64() * self.max_error.ln();
            let factor = (sign * mag).exp();
            ((req.target_output as f64 * factor).round() as u32).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowserve::synthetic_tokens;
    use simcore::SimTime;

    fn req(output: u32) -> ApiRequest {
        ApiRequest::chat(1, synthetic_tokens(1, 100, 64_000), output, SimTime::ZERO)
    }

    #[test]
    fn oracle_is_exact() {
        let mut o = Oracle;
        for out in [1u32, 100, 5000] {
            assert_eq!(o.predict(&req(out)), out);
        }
    }

    #[test]
    fn accuracy_rate_is_respected() {
        let mut p = FixedAccuracy::new(0.9, 7);
        let r = req(200);
        let n = 10_000;
        let hits = (0..n).filter(|_| p.predict(&r) == 200).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.9).abs() < 0.02, "hit rate {rate}");
    }

    #[test]
    fn mispredictions_are_bounded_and_positive() {
        let mut p = FixedAccuracy::new(0.0, 3); // always wrong
        let r = req(64);
        for _ in 0..1000 {
            let v = p.predict(&r);
            assert!(v >= 1);
            assert!(v <= 64 * 9, "error factor must stay under 8x: {v}");
        }
    }

    #[test]
    fn zero_accuracy_still_mostly_differs() {
        let mut p = FixedAccuracy::new(0.0, 5);
        let r = req(300);
        let same = (0..1000).filter(|_| p.predict(&r) == 300).count();
        assert!(same < 50, "always-wrong predictor matched {same} times");
    }
}
