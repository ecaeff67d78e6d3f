//! Deterministic fault injection: seeded, replayable fault plans.
//!
//! A [`FaultPlan`] is an ordinary piece of simulation input — a time-sorted
//! list of [`FaultEvent`]s that a driver schedules into its deterministic
//! event queue before the run starts. Nothing here touches wall-clock time
//! or global state, so a run is replayable bit-for-bit from
//! `(workload seed, plan)`: the same plan against the same workload always
//! produces the same trace, the same metrics, the same report.
//!
//! The fault vocabulary mirrors what a serverless serving cluster actually
//! sees (DeepServe §4, "occasional hardware failures"):
//!
//! * [`FaultKind::TeCrash`] — a TE dies instantly, losing all engine state
//!   (in-flight batches, KV cache, RTC index).
//! * [`FaultKind::Straggler`] — a TE keeps running but every iteration is
//!   slowed by a factor for a window (thermal throttling, a sick NPU).
//! * [`FaultKind::LinkDegrade`] — inter-TE transfer bandwidth is scaled
//!   down for a window (congestion, a flapping switch).
//! * [`FaultKind::TransferFlake`] — KV transfers started inside the window
//!   fail once and must be retried (transient DistFlow / fabric errors).
//!
//! TEs are addressed by their pool index (`u32`) because this crate sits
//! below the platform layer and must not know its id types.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use serde::Serialize;

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultKind {
    /// TE `te` crashes at the event time, losing all state.
    TeCrash {
        /// Pool index of the crashed TE.
        te: u32,
    },
    /// TE `te` runs `factor`x slower for `duration`.
    Straggler {
        /// Pool index of the straggling TE.
        te: u32,
        /// Iteration wall-time multiplier (> 1.0 = slower).
        factor: f64,
        /// How long the slowdown lasts.
        duration: SimDuration,
    },
    /// Inter-TE link bandwidth is multiplied by `factor` for `duration`.
    LinkDegrade {
        /// Bandwidth multiplier in (0, 1] (0.5 = half speed).
        factor: f64,
        /// How long the degradation lasts.
        duration: SimDuration,
    },
    /// KV transfers started within `duration` fail once and are retried.
    TransferFlake {
        /// How long the flaky window lasts.
        duration: SimDuration,
    },
}

/// A fault scheduled at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A complete, time-sorted fault schedule for one run.
///
/// Build one with the `with_*` methods (which keep the list sorted) or
/// generate one with [`FaultPlan::random_crashes`]. An empty plan is the
/// explicit "no faults" input: drivers must treat it as a no-op so healthy
/// runs are bit-identical with or without the fault layer armed.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultPlan {
    /// The schedule, sorted by time (stable on ties).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: inject nothing, change nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds an event, keeping the schedule time-sorted (stable: an event
    /// added later at the same instant fires after earlier ones).
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, FaultEvent { at, kind });
    }

    /// Builder: crash TE `te` at `at`.
    pub fn with_crash(mut self, at: SimTime, te: u32) -> Self {
        self.push(at, FaultKind::TeCrash { te });
        self
    }

    /// Builder: slow TE `te` by `factor`x for `duration` starting at `at`.
    pub fn with_straggler(
        mut self,
        at: SimTime,
        te: u32,
        factor: f64,
        duration: SimDuration,
    ) -> Self {
        self.push(
            at,
            FaultKind::Straggler {
                te,
                factor,
                duration,
            },
        );
        self
    }

    /// Builder: make transfers flaky for `duration` starting at `at`.
    pub fn with_transfer_flake(mut self, at: SimTime, duration: SimDuration) -> Self {
        self.push(at, FaultKind::TransferFlake { duration });
        self
    }

    /// Generates a Poisson crash schedule: TE crashes arrive at
    /// `rate_per_sec` over `[0, horizon)`, each hitting a uniformly chosen
    /// TE in `[0, n_tes)`. Deterministic in `seed`; a zero rate yields the
    /// empty plan.
    ///
    /// # Panics
    ///
    /// Panics if `n_tes == 0` while `rate_per_sec > 0`, or if the rate is
    /// negative or non-finite.
    pub fn random_crashes(seed: u64, n_tes: u32, horizon: SimDuration, rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec >= 0.0 && rate_per_sec.is_finite(),
            "crash rate must be non-negative and finite, got {rate_per_sec}"
        );
        let mut plan = FaultPlan::none();
        if rate_per_sec == 0.0 {
            return plan;
        }
        assert!(n_tes > 0, "cannot crash TEs in an empty pool");
        let mut rng = SimRng::seed_from_u64(seed ^ 0xfa_17);
        let mut t = 0.0;
        loop {
            t += rng.exp(rate_per_sec);
            if t >= horizon.as_secs_f64() {
                break;
            }
            let te = rng.range(0, n_tes as u64) as u32;
            plan.push(
                SimTime::ZERO + SimDuration::from_secs_f64(t),
                FaultKind::TeCrash { te },
            );
        }
        plan
    }

    /// Largest TE index referenced by the plan, if any TE-scoped fault
    /// exists. Drivers use it to validate the plan against their pool size.
    pub fn max_te(&self) -> Option<u32> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::TeCrash { te } | FaultKind::Straggler { te, .. } => Some(te),
                _ => None,
            })
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_keeps_plan_sorted_and_stable() {
        let mut plan = FaultPlan::none();
        plan.push(SimTime::from_secs(2), FaultKind::TeCrash { te: 0 });
        plan.push(SimTime::from_secs(1), FaultKind::TeCrash { te: 1 });
        plan.push(SimTime::from_secs(2), FaultKind::TeCrash { te: 2 });
        let tes: Vec<u32> = plan
            .events
            .iter()
            .map(|e| match e.kind {
                FaultKind::TeCrash { te } => te,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tes, vec![1, 0, 2], "sorted by time, stable on ties");
        assert!(plan.events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn random_crashes_is_deterministic_in_seed() {
        let a = FaultPlan::random_crashes(7, 4, SimDuration::from_secs(60), 0.1);
        let b = FaultPlan::random_crashes(7, 4, SimDuration::from_secs(60), 0.1);
        let c = FaultPlan::random_crashes(8, 4, SimDuration::from_secs(60), 0.1);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        assert!(a.events.iter().all(|e| e.at < SimTime::from_secs(60)));
        assert!(a.max_te().is_none_or(|m| m < 4));
    }

    #[test]
    fn zero_rate_yields_empty_plan() {
        let p = FaultPlan::random_crashes(1, 4, SimDuration::from_secs(60), 0.0);
        assert!(p.is_empty());
        assert_eq!(p, FaultPlan::none());
        assert!(p.max_te().is_none());
    }

    #[test]
    fn builders_compose() {
        let mut plan = FaultPlan::none()
            .with_crash(SimTime::from_secs(5), 1)
            .with_straggler(SimTime::from_secs(1), 0, 3.0, SimDuration::from_secs(10))
            .with_transfer_flake(SimTime::from_secs(3), SimDuration::from_secs(2));
        plan.push(
            SimTime::from_secs(2),
            FaultKind::LinkDegrade {
                factor: 0.25,
                duration: SimDuration::from_secs(4),
            },
        );
        assert_eq!(plan.events.len(), 4);
        assert!(plan.events.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(plan.max_te(), Some(1));
    }

    #[test]
    fn plan_serializes() {
        use serde::Serialize;
        let plan = FaultPlan::none().with_crash(SimTime::from_secs(1), 2);
        let text = plan.to_value().to_json();
        assert!(text.contains("TeCrash"), "{text}");
    }
}
