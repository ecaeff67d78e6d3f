//! The cluster manager: pre-warmed resource pools, predictive DRAM
//! pre-loading, and the AUTOSCALER policy (§3, §6, §6.1, §6.2).
//!
//! "The cluster manager is a highly available system that oversees and
//! scales all JEs and TEs." High availability is organizational (replicated
//! deployment); what this module implements is the decision logic: when to
//! scale, which resources a scale-up can grab warm, and which checkpoints
//! to keep hot in each server's page cache.

use crate::prompt_tree::TeId;
use llm_model::Checkpoint;
use npu::pagecache::PageCache;
use serde::Serialize;
use simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Pool of pre-warmed pods (workload-independent, infra-managed; §6.1
/// "usually managed by the infrastructure layer, such as Kubernetes, and
/// can be shared across services").
#[derive(Debug, Clone)]
pub struct PodPool {
    warm: usize,
}

impl PodPool {
    /// Creates a pool holding `target` warm pods.
    pub fn new(target: usize) -> Self {
        PodPool { warm: target }
    }

    /// Warm pods currently available.
    pub fn available(&self) -> usize {
        self.warm
    }

    /// Takes a warm pod if any; `false` means the scale-up pays the cold
    /// pod-allocation price.
    pub fn acquire(&mut self) -> bool {
        if self.warm > 0 {
            self.warm -= 1;
            true
        } else {
            false
        }
    }
}

/// Pool of pre-warmed TEs. Stage one made them model-agnostic; stage two
/// parallelism-agnostic, by pooling SPMD masters and executors separately
/// and packing them on demand (§6.1).
#[derive(Debug, Clone)]
pub struct TePool {
    masters: usize,
    executors: usize,
}

impl TePool {
    /// Creates a pool with the given warm master/executor counts.
    pub fn new(masters: usize, executors: usize) -> Self {
        TePool { masters, executors }
    }

    /// Warm `(masters, executors)` currently available.
    pub fn available(&self) -> (usize, usize) {
        (self.masters, self.executors)
    }

    /// Packs one pre-warmed TE for an engine of `world_size` executors:
    /// one master plus `world_size` executors, all-or-nothing.
    pub fn acquire(&mut self, world_size: usize) -> bool {
        if self.masters >= 1 && self.executors >= world_size {
            self.masters -= 1;
            self.executors -= world_size;
            true
        } else {
            false
        }
    }
}

/// Predictive DRAM pre-loading: tracks model demand and keeps the most
/// popular checkpoints resident in each server's page cache (§6.2: "The
/// cluster manager predicts models likely to scale and pre-loads them into
/// DRAM pagecache").
pub struct PreloadManager {
    /// Demand counts. A `BTreeMap`: `ranking()` iterates it and feeds
    /// preload decisions, so order must be the keys', not a hasher's.
    popularity: BTreeMap<&'static str, u64>,
}

impl PreloadManager {
    /// Creates an empty demand tracker.
    pub fn new() -> Self {
        PreloadManager {
            popularity: BTreeMap::new(),
        }
    }

    /// Records demand for a model (a request arrival, a scale event).
    pub fn note_demand(&mut self, model_name: &'static str) {
        *self.popularity.entry(model_name).or_insert(0) += 1;
    }

    /// Demand-ranked model names, most popular first (ties by name for
    /// determinism).
    fn ranking(&self) -> Vec<&'static str> {
        let mut v: Vec<(&'static str, u64)> =
            self.popularity.iter().map(|(&k, &v)| (k, v)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v.into_iter().map(|(k, _)| k).collect()
    }

    /// Pre-loads checkpoints into `cache` in popularity order until the
    /// cache cannot hold the next one. Returns the names made hot.
    pub fn preload_into(&self, cache: &mut PageCache, catalog: &[Checkpoint]) -> Vec<&'static str> {
        let mut hot = Vec::new();
        for name in self.ranking() {
            let Some(ckpt) = catalog.iter().find(|c| c.model.name == name) else {
                continue;
            };
            let size = ckpt.total_bytes();
            if cache.used() + size > cache.capacity() {
                continue; // try smaller, less popular models
            }
            cache.preload(ckpt.file, npu::ByteRange::new(0, size));
            hot.push(name);
        }
        hot
    }
}

impl Default for PreloadManager {
    fn default() -> Self {
        Self::new()
    }
}

/// Health-monitoring thresholds (the cluster manager's HA loop: "oversees
/// ... all JEs and TEs").
#[derive(Debug, Clone, Copy, Serialize)]
pub struct HealthConfig {
    /// How often TEs heartbeat and the manager sweeps.
    pub heartbeat_interval: SimDuration,
    /// Consecutive missed heartbeats before a TE is declared down.
    pub miss_threshold: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            heartbeat_interval: SimDuration::from_millis(500),
            miss_threshold: 3,
        }
    }
}

impl HealthConfig {
    /// Time from a silent TE's last heartbeat to detection.
    fn detection_timeout(&self) -> SimDuration {
        self.heartbeat_interval
            .saturating_mul(self.miss_threshold as u64)
    }
}

/// Heartbeat bookkeeping: which TEs are alive, when each last reported,
/// and which have been declared down. Deterministic by construction
/// (BTree-ordered state, sorted sweep results).
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    last_beat: BTreeMap<TeId, SimTime>,
    down: BTreeSet<TeId>,
}

impl HealthMonitor {
    /// Creates a monitor with no registered TEs.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthMonitor {
            cfg,
            last_beat: BTreeMap::new(),
            down: BTreeSet::new(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Starts (or resumes, after repair) tracking a TE; counts as a
    /// heartbeat at `now`.
    pub fn register(&mut self, te: TeId, now: SimTime) {
        self.last_beat.insert(te, now);
        self.down.remove(&te);
    }

    /// Records a heartbeat from a live TE.
    pub fn heartbeat(&mut self, te: TeId, now: SimTime) {
        if let Some(last) = self.last_beat.get_mut(&te) {
            *last = (*last).max(now);
        }
    }

    /// Whether `te` has been declared down (and not re-registered since).
    pub fn is_down(&self, te: TeId) -> bool {
        self.down.contains(&te)
    }

    /// Sweeps for TEs whose last heartbeat is at least the detection
    /// timeout ago. Newly detected TEs are marked down and returned in id
    /// order; already-down TEs are not re-reported.
    pub fn sweep(&mut self, now: SimTime) -> Vec<TeId> {
        let timeout = self.cfg.detection_timeout();
        let mut newly_down = Vec::new();
        for (&te, &last) in &self.last_beat {
            // Deadline form (`last + timeout`) rather than `now - last`:
            // a beat stamped ahead of `now` must not underflow the sweep.
            if !self.down.contains(&te) && last + timeout <= now {
                newly_down.push(te);
            }
        }
        for &te in &newly_down {
            self.down.insert(te);
        }
        newly_down
    }
}

/// Signals the autoscaler reads each tick ("based on metrics like load or
/// SLO-violation rates", §6).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct AutoscaleSignal {
    /// Requests queued + running across the TE group.
    pub total_load: usize,
    /// TEs currently serving (excludes ones still scaling up).
    pub active_tes: usize,
    /// TEs in flight (scale-ups not yet serving).
    pub scaling_tes: usize,
    /// Fraction of recent requests violating their TPOT SLO.
    pub slo_violation_rate: f64,
}

/// What the autoscaler wants done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ScaleAction {
    /// Add this many TEs.
    Up(usize),
    /// Retire this many TEs.
    Down(usize),
}

/// Autoscaler thresholds.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct AutoscalerConfig {
    /// Scale up when load per active TE exceeds this.
    pub high_load_per_te: f64,
    /// Scale down when load per active TE falls below this.
    pub low_load_per_te: f64,
    /// Scale up when SLO violations exceed this rate regardless of load.
    pub max_slo_violation_rate: f64,
    /// Minimum time between actions.
    pub cooldown: SimDuration,
    /// Never go below this many TEs.
    pub min_tes: usize,
    /// Never exceed this many TEs.
    pub max_tes: usize,
    /// TEs added per scale-up decision (DeepServe scales "up to 64
    /// instances in parallel").
    pub step: usize,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            high_load_per_te: 12.0,
            low_load_per_te: 2.0,
            max_slo_violation_rate: 0.1,
            cooldown: SimDuration::from_secs(5),
            min_tes: 1,
            max_tes: 64,
            step: 4,
        }
    }
}

/// The AUTOSCALER decision loop.
#[derive(Debug)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    last_action: Option<SimTime>,
}

impl Autoscaler {
    /// Creates an autoscaler.
    pub fn new(cfg: AutoscalerConfig) -> Self {
        Autoscaler {
            cfg,
            last_action: None,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.cfg
    }

    /// Evaluates the signal; returns an action or `None` (in cooldown, or
    /// nothing to do).
    pub fn decide(&mut self, now: SimTime, s: AutoscaleSignal) -> Option<ScaleAction> {
        if let Some(last) = self.last_action {
            if now.since(last) < self.cfg.cooldown {
                return None;
            }
        }
        let provisioned = s.active_tes + s.scaling_tes;
        let per_te = if s.active_tes == 0 {
            f64::INFINITY
        } else {
            s.total_load as f64 / s.active_tes as f64
        };
        let want_up = (per_te > self.cfg.high_load_per_te
            || s.slo_violation_rate > self.cfg.max_slo_violation_rate)
            && provisioned < self.cfg.max_tes;
        if want_up {
            let n = self.cfg.step.min(self.cfg.max_tes - provisioned);
            if n > 0 {
                self.last_action = Some(now);
                return Some(ScaleAction::Up(n));
            }
        }
        let want_down = per_te < self.cfg.low_load_per_te
            && s.scaling_tes == 0
            && s.active_tes > self.cfg.min_tes
            && s.slo_violation_rate < self.cfg.max_slo_violation_rate / 2.0;
        if want_down {
            let n = self.cfg.step.min(s.active_tes - self.cfg.min_tes);
            if n > 0 {
                self.last_action = Some(now);
                return Some(ScaleAction::Down(n));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_model::ModelSpec;
    use npu::pagecache::FileId;

    #[test]
    fn pod_pool_exhausts() {
        let mut p = PodPool::new(2);
        assert!(p.acquire());
        assert!(p.acquire());
        assert!(!p.acquire(), "pool empty -> cold path");
    }

    #[test]
    fn te_pool_packs_masters_and_executors() {
        let mut p = TePool::new(2, 8);
        assert!(p.acquire(4)); // 1 master + 4 executors
        assert_eq!(p.available(), (1, 4));
        assert!(!p.acquire(8), "not enough executors");
        assert!(p.acquire(4));
        assert!(!p.acquire(1), "no masters left");
    }

    #[test]
    fn preload_fills_by_popularity_within_capacity() {
        // 1.5 TB DRAM: "sufficient for pre-loading 10 70B models or 100 7B
        // models" (§6.2).
        let server = npu::specs::ServerSpec::standard(npu::specs::ChipSpec::gen2());
        let mut cache = PageCache::new(server.dram_bytes);
        let seventy = Checkpoint::new(FileId(1), ModelSpec::llama3_70b());
        assert!(
            server.dram_bytes / seventy.total_bytes() >= 10,
            "paper's 10x-70B claim must hold"
        );
        let mut pm = PreloadManager::new();
        let catalog = vec![
            Checkpoint::new(FileId(1), ModelSpec::llama3_70b()),
            Checkpoint::new(FileId(2), ModelSpec::internal_34b()),
            Checkpoint::new(FileId(3), ModelSpec::llama3_8b()),
        ];
        pm.note_demand("internal-34b");
        pm.note_demand("internal-34b");
        pm.note_demand("llama3-8b");
        let hot = pm.preload_into(&mut cache, &catalog);
        assert_eq!(hot[0], "internal-34b");
        assert!(hot.contains(&"llama3-8b"));
        assert!(cache.used() > 0);
    }

    #[test]
    fn preload_skips_oversized_but_takes_smaller() {
        let mut cache = PageCache::new(20 * (1u64 << 30)); // 20 GB only
        let mut pm = PreloadManager::new();
        pm.note_demand("llama3-70b");
        pm.note_demand("llama3-70b");
        pm.note_demand("llama3-8b");
        let catalog = vec![
            Checkpoint::new(FileId(1), ModelSpec::llama3_70b()), // 131 GB: no
            Checkpoint::new(FileId(2), ModelSpec::llama3_8b()),  // 15 GB: yes
        ];
        let hot = pm.preload_into(&mut cache, &catalog);
        assert_eq!(hot, vec!["llama3-8b"]);
    }

    #[test]
    fn autoscaler_scales_up_on_load_and_respects_cooldown() {
        let mut a = Autoscaler::new(AutoscalerConfig::default());
        let hot = AutoscaleSignal {
            total_load: 100,
            active_tes: 2,
            scaling_tes: 0,
            slo_violation_rate: 0.0,
        };
        assert_eq!(a.decide(SimTime::ZERO, hot), Some(ScaleAction::Up(4)));
        // Cooldown suppresses immediate repeat.
        assert_eq!(a.decide(SimTime::from_secs(1), hot), None);
        assert!(a.decide(SimTime::from_secs(10), hot).is_some());
    }

    #[test]
    fn autoscaler_scales_up_on_slo_violations_alone() {
        let mut a = Autoscaler::new(AutoscalerConfig::default());
        let s = AutoscaleSignal {
            total_load: 4, // light load
            active_tes: 2,
            scaling_tes: 0,
            slo_violation_rate: 0.5,
        };
        assert!(matches!(
            a.decide(SimTime::ZERO, s),
            Some(ScaleAction::Up(_))
        ));
    }

    #[test]
    fn autoscaler_scales_down_when_idle() {
        let mut a = Autoscaler::new(AutoscalerConfig::default());
        let s = AutoscaleSignal {
            total_load: 2,
            active_tes: 8,
            scaling_tes: 0,
            slo_violation_rate: 0.0,
        };
        assert_eq!(a.decide(SimTime::ZERO, s), Some(ScaleAction::Down(4)));
    }

    #[test]
    fn autoscaler_honors_bounds() {
        let cfg = AutoscalerConfig {
            max_tes: 4,
            min_tes: 2,
            ..AutoscalerConfig::default()
        };
        let mut a = Autoscaler::new(cfg);
        // Already at max: no up.
        let s = AutoscaleSignal {
            total_load: 1000,
            active_tes: 4,
            scaling_tes: 0,
            slo_violation_rate: 1.0,
        };
        assert_eq!(a.decide(SimTime::ZERO, s), None);
        // At min: no down.
        let s2 = AutoscaleSignal {
            total_load: 0,
            active_tes: 2,
            scaling_tes: 0,
            slo_violation_rate: 0.0,
        };
        assert_eq!(a.decide(SimTime::from_secs(100), s2), None);
    }

    #[test]
    fn health_monitor_detects_silent_te_once() {
        let cfg = HealthConfig {
            heartbeat_interval: SimDuration::from_secs(1),
            miss_threshold: 3,
        };
        let mut hm = HealthMonitor::new(cfg);
        hm.register(TeId(0), SimTime::ZERO);
        hm.register(TeId(1), SimTime::ZERO);
        // TE 1 keeps beating; TE 0 goes silent.
        for s in 1..=3 {
            hm.heartbeat(TeId(1), SimTime::from_secs(s));
        }
        assert_eq!(hm.sweep(SimTime::from_secs(2)), vec![], "within timeout");
        assert_eq!(hm.sweep(SimTime::from_secs(3)), vec![TeId(0)]);
        assert!(hm.is_down(TeId(0)));
        assert!(!hm.is_down(TeId(1)));
        assert_eq!(
            hm.sweep(SimTime::from_secs(10)),
            vec![TeId(1)],
            "no re-report of TE 0"
        );
    }

    #[test]
    fn health_monitor_reregister_resumes_tracking() {
        let mut hm = HealthMonitor::new(HealthConfig::default());
        hm.register(TeId(0), SimTime::ZERO);
        let t = SimTime::ZERO + hm.config().detection_timeout();
        assert_eq!(hm.sweep(t), vec![TeId(0)]);
        // Repair: re-register. The TE is healthy again until it goes silent.
        hm.register(TeId(0), t);
        assert!(!hm.is_down(TeId(0)));
        assert_eq!(hm.sweep(t), vec![]);
        assert_eq!(hm.sweep(t + hm.config().detection_timeout()), vec![TeId(0)]);
    }

    #[test]
    fn health_monitor_ignores_unregistered_heartbeats() {
        let mut hm = HealthMonitor::new(HealthConfig::default());
        hm.heartbeat(TeId(7), SimTime::from_secs(1));
        assert_eq!(hm.sweep(SimTime::from_secs(100)), vec![]);
    }

    #[test]
    fn zero_active_tes_forces_scale_up() {
        let mut a = Autoscaler::new(AutoscalerConfig::default());
        let s = AutoscaleSignal {
            total_load: 1,
            active_tes: 0,
            scaling_tes: 0,
            slo_violation_rate: 0.0,
        };
        assert!(matches!(
            a.decide(SimTime::ZERO, s),
            Some(ScaleAction::Up(_))
        ));
    }
}
