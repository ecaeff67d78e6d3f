//! Property-based tests for platform-layer invariants: the distributed
//! scheduler, the heatmap, the autoscaler, and the scaling cost model.

use deepserve::{
    ApiRequest, AutoscaleSignal, Autoscaler, AutoscalerConfig, Decision, DecodePredictor,
    GlobalPromptTree, Heatmap, JobExecutor, LoadIndex, LoadPath, Oracle, Policy, ScaleAction,
    ScalingModel, ScalingOptimizations, SchedPool, SourceLoad, Target, TeId, TeSnapshot,
};
use flowserve::synthetic_tokens;
use llm_model::{Checkpoint, ModelSpec, Parallelism};
use npu::pagecache::FileId;
use npu::specs::ClusterSpec;
use proptest::prelude::*;
use simcore::{Counters, SimTime};
use std::collections::{BTreeSet, HashMap};

fn pool(n_coloc: usize, n_pairs: usize, loads: &[usize]) -> SchedPool {
    let mut p = SchedPool::default();
    let mut id = 0u32;
    for _ in 0..n_coloc {
        p.colocated.push(TeId(id));
        id += 1;
    }
    for _ in 0..n_pairs {
        p.pairs.push((TeId(id), TeId(id + 1)));
        id += 2;
    }
    let mut loads_map = HashMap::new();
    for t in 0..id {
        loads_map.insert(
            TeId(t),
            TeSnapshot {
                load: loads.get(t as usize).copied().unwrap_or(0),
            },
        );
    }
    p.loads = loads_map;
    p
}

proptest! {
    /// Every policy always returns a target that exists in the pool.
    #[test]
    fn scheduler_targets_are_in_pool(
        n_coloc in 0usize..4,
        n_pairs in 0usize..3,
        loads in prop::collection::vec(0usize..50, 10),
        prefill in 1usize..10_000,
        output in 1u32..2_000,
        policy_idx in 0usize..5,
    ) {
        prop_assume!(n_coloc + n_pairs > 0);
        let policy = [
            Policy::RoundRobin,
            Policy::LoadAware,
            Policy::LocalityAware,
            Policy::PdAware,
            Policy::Combined,
        ][policy_idx];
        let p = pool(n_coloc, n_pairs, &loads);
        let mut je = JobExecutor::new(
            policy,
            Heatmap::default_production(),
            Box::new(Oracle),
            16,
        );
        let req = ApiRequest::chat(1, synthetic_tokens(1, prefill, 64_000), output, SimTime::ZERO);
        let d = je.schedule(SimTime::ZERO, &req, &p);
        match d.target {
            Target::Colocated(te) => prop_assert!(p.colocated.contains(&te)),
            Target::Disaggregated { prefill, decode } => {
                prop_assert!(p.pairs.contains(&(prefill, decode)));
            }
        }
        prop_assert!(d.predicted_decode >= 1);
    }

    /// Load-aware scheduling never picks a strictly more loaded colocated
    /// TE than the minimum.
    #[test]
    fn load_aware_is_greedy(loads in prop::collection::vec(0usize..100, 4)) {
        let p = pool(4, 0, &loads);
        let mut je = JobExecutor::new(
            Policy::LoadAware,
            Heatmap::default_production(),
            Box::new(Oracle),
            16,
        );
        let req = ApiRequest::chat(1, synthetic_tokens(1, 512, 64_000), 100, SimTime::ZERO);
        let d = je.schedule(SimTime::ZERO, &req, &p);
        let Target::Colocated(te) = d.target else {
            return Err(TestCaseError::fail("no pairs configured"));
        };
        let min = loads.iter().copied().min().unwrap_or(0);
        prop_assert_eq!(loads[te.0 as usize], min);
    }

    /// Heatmap bucketing is monotone: longer prefill never maps to a lower
    /// row; higher ratio never maps to a lower column.
    #[test]
    fn heatmap_buckets_are_monotone(a in 1usize..40_000, b in 1usize..40_000) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(Heatmap::prefill_bucket(lo) <= Heatmap::prefill_bucket(hi));
        let (rl, rh) = (lo as f64 / 1000.0, hi as f64 / 1000.0);
        prop_assert!(Heatmap::ratio_bucket(rl) <= Heatmap::ratio_bucket(rh));
    }

    /// The autoscaler never exceeds its bounds in either direction.
    #[test]
    fn autoscaler_respects_bounds(
        load in 0usize..10_000,
        active in 0usize..100,
        scaling in 0usize..20,
        viol in 0.0f64..1.0,
    ) {
        let cfg = AutoscalerConfig {
            min_tes: 2,
            max_tes: 32,
            ..AutoscalerConfig::default()
        };
        let mut a = Autoscaler::new(cfg);
        let action = a.decide(SimTime::ZERO, AutoscaleSignal {
            total_load: load,
            active_tes: active,
            scaling_tes: scaling,
            slo_violation_rate: viol,
        });
        match action {
            Some(ScaleAction::Up(n)) => {
                prop_assert!(active + scaling + n <= 32);
                prop_assert!(n >= 1);
            }
            Some(ScaleAction::Down(n)) => {
                prop_assert!(active - n >= 2);
                prop_assert!(n >= 1);
            }
            None => {}
        }
    }

    /// Scaling cost model: optimizations never make any step slower, for
    /// any model/parallelism in the catalog.
    #[test]
    fn optimizations_never_hurt(model_idx in 0usize..4, tp_pow in 0u32..4) {
        let specs = [
            ModelSpec::generic_7b(),
            ModelSpec::llama3_8b(),
            ModelSpec::internal_34b(),
            ModelSpec::llama3_70b(),
        ];
        let spec = specs[model_idx].clone();
        let tp = 1u32 << tp_pow;
        prop_assume!(spec.num_kv_heads.is_multiple_of(tp));
        let par = Parallelism::tp(tp);
        let m = ScalingModel::new(ClusterSpec::gen2_cluster(4));
        let ckpt = Checkpoint::new(FileId(1), spec);
        let before = m.breakdown(
            &ckpt, par,
            ScalingOptimizations::none(),
            LoadPath::DramMiss,
            SourceLoad::idle(),
        );
        let after = m.breakdown(
            &ckpt, par,
            ScalingOptimizations::all(),
            LoadPath::DramHit,
            SourceLoad::idle(),
        );
        prop_assert!(after.scaler_pre <= before.scaler_pre);
        prop_assert!(after.te_pre_load <= before.te_pre_load);
        prop_assert!(after.te_load <= before.te_load);
        prop_assert!(after.te_post_load <= before.te_post_load);
        prop_assert!(after.scaler_post <= before.scaler_post);
    }

    /// NPU-fork time is monotone in fan-out and bounded by the pipelined
    /// broadcast's flatness.
    #[test]
    fn fork_monotone_and_flat(f1 in 1usize..64, f2 in 1usize..64) {
        prop_assume!(f1 < f2);
        let m = ScalingModel::new(ClusterSpec::gen2_cluster(16));
        let ckpt = Checkpoint::new(FileId(1), ModelSpec::llama3_8b());
        let par = Parallelism::tp(1);
        let t1 = m.te_load(&ckpt, par, LoadPath::NpuForkHccs { fanout: f1 }, SourceLoad::idle());
        let t2 = m.te_load(&ckpt, par, LoadPath::NpuForkHccs { fanout: f2 }, SourceLoad::idle());
        prop_assert!(t2 >= t1, "fork time must be monotone in fan-out");
        prop_assert!(t2.as_secs_f64() <= 2.0 * t1.as_secs_f64(), "and nearly flat");
    }
}

/// Reference Algorithm 1: the linear scans over a [`SchedPool`] that
/// `JobExecutor::schedule` ran before the dispatch load index, kept as the
/// oracle for `schedule_matches_reference_scan`. It mirrors the JE's state
/// (prompt trees, round-robin cursor, removed set, counters) and applies
/// the same notifications.
struct ScanJe {
    policy: Policy,
    heatmap: Heatmap,
    tree_colocated: GlobalPromptTree,
    tree_prefill: GlobalPromptTree,
    balance_threshold: usize,
    overload_factor: f64,
    rr_cursor: usize,
    removed: BTreeSet<TeId>,
    counters: Counters,
}

/// The removed-TE-filtered pool the reference scans.
struct ScanView<'a> {
    colocated: Vec<TeId>,
    pairs: Vec<(TeId, TeId)>,
    loads: &'a HashMap<TeId, TeSnapshot>,
}

impl ScanView<'_> {
    fn load(&self, te: TeId) -> usize {
        self.loads.get(&te).map_or(0, |s| s.load)
    }

    fn pair_load(&self, pair: (TeId, TeId)) -> usize {
        self.load(pair.0).max(self.load(pair.1))
    }
}

impl ScanJe {
    fn new(policy: Policy, block_size: usize, balance_threshold: usize) -> Self {
        ScanJe {
            policy,
            heatmap: Heatmap::default_production(),
            tree_colocated: GlobalPromptTree::new(block_size, 200_000),
            tree_prefill: GlobalPromptTree::new(block_size, 200_000),
            balance_threshold,
            overload_factor: 2.0,
            rr_cursor: 0,
            removed: BTreeSet::new(),
            counters: Counters::new(),
        }
    }

    fn note_cached(&mut self, te: TeId, is_prefill_te: bool, tokens: &[flowserve::TokenId]) {
        if is_prefill_te {
            self.tree_prefill.insert(SimTime::ZERO, te, tokens);
        } else {
            self.tree_colocated.insert(SimTime::ZERO, te, tokens);
        }
    }

    fn note_te_removed(&mut self, te: TeId) {
        self.tree_colocated.remove_te(te);
        self.tree_prefill.remove_te(te);
        self.removed.insert(te);
        self.counters.incr("je.te_removed");
    }

    fn note_te_added(&mut self, te: TeId) {
        self.removed.remove(&te);
        self.counters.incr("je.te_added");
    }

    fn view<'a>(&self, pool: &'a SchedPool) -> ScanView<'a> {
        ScanView {
            colocated: pool
                .colocated
                .iter()
                .copied()
                .filter(|t| !self.removed.contains(t))
                .collect(),
            pairs: pool
                .pairs
                .iter()
                .copied()
                .filter(|(p, d)| !self.removed.contains(p) && !self.removed.contains(d))
                .collect(),
            loads: &pool.loads,
        }
    }

    /// `None` when the filtered pool is empty (the JE panics there).
    fn schedule(&mut self, req: &ApiRequest, pool: &SchedPool) -> Option<Decision> {
        let view = self.view(pool);
        if view.colocated.is_empty() && view.pairs.is_empty() {
            return None;
        }
        let predicted = Oracle.predict(req);
        let (target, heat) = match self.policy {
            Policy::RoundRobin => {
                let slots = view.colocated.len() + view.pairs.len();
                let slot = self.rr_cursor % slots;
                self.rr_cursor += 1;
                let target = if slot < view.colocated.len() {
                    Target::Colocated(view.colocated[slot])
                } else {
                    let (prefill, decode) = view.pairs[slot - view.colocated.len()];
                    Target::Disaggregated { prefill, decode }
                };
                self.counters.incr("je.rr");
                (target, 0.0)
            }
            Policy::LoadAware => {
                let target = self.least_loaded_any(&view);
                self.counters.incr("je.load");
                (target, 0.0)
            }
            Policy::LocalityAware => {
                let target = self
                    .best_locality(req, &view, true)
                    .or_else(|| self.best_locality(req, &view, false))
                    .unwrap_or_else(|| self.least_loaded_any(&view));
                self.counters.incr("je.locality");
                (target, 0.0)
            }
            Policy::PdAware => {
                let (subgroup, heat) = self.select_tes_pd_heatmap(req, &view, predicted);
                let target = self.least_loaded_in(&view, &subgroup);
                self.counters.incr("je.pd");
                (target, heat)
            }
            Policy::Combined => {
                let (subgroup, heat) = self.select_tes_pd_heatmap(req, &view, predicted);
                let target = if self.is_load_balanced(&view, &subgroup) {
                    self.counters.incr("je.combined_locality");
                    self.select_tes_prefix_match(req, &subgroup)
                        .unwrap_or_else(|| self.least_loaded_in(&view, &subgroup))
                } else {
                    self.counters.incr("je.combined_load");
                    self.least_loaded_in(&view, &subgroup)
                };
                (target, heat)
            }
        };
        Some(Decision {
            target,
            predicted_decode: predicted,
            heat,
            matched_tokens: self.match_at(req, target),
        })
    }

    fn select_tes_pd_heatmap(
        &mut self,
        req: &ApiRequest,
        view: &ScanView<'_>,
        predicted: u32,
    ) -> (Vec<Target>, f64) {
        let heat = self.heatmap.lookup(req.prefill_len(), predicted);
        let mut prefer_disagg = heat >= 0.0;
        let disagg: Vec<Target> = view
            .pairs
            .iter()
            .map(|&(prefill, decode)| Target::Disaggregated { prefill, decode })
            .collect();
        let coloc: Vec<Target> = view
            .colocated
            .iter()
            .map(|&t| Target::Colocated(t))
            .collect();
        if !disagg.is_empty() && !coloc.is_empty() {
            let min_disagg = view
                .pairs
                .iter()
                .map(|&p| view.pair_load(p))
                .min()
                .unwrap_or(0) as f64;
            let min_coloc = view
                .colocated
                .iter()
                .map(|&t| view.load(t))
                .min()
                .unwrap_or(0) as f64;
            let thresh = self.balance_threshold as f64;
            if prefer_disagg && min_disagg > self.overload_factor * min_coloc + thresh {
                prefer_disagg = false;
                self.counters.incr("je.heatmap_overridden");
            } else if !prefer_disagg && min_coloc > self.overload_factor * min_disagg + thresh {
                prefer_disagg = true;
                self.counters.incr("je.heatmap_overridden");
            }
        }
        let chosen = if prefer_disagg && !disagg.is_empty() {
            self.counters.incr("je.heatmap_disagg");
            disagg
        } else if !prefer_disagg && !coloc.is_empty() {
            self.counters.incr("je.heatmap_coloc");
            coloc
        } else if !coloc.is_empty() {
            coloc
        } else {
            disagg
        };
        (chosen, heat)
    }

    fn select_tes_prefix_match(&self, req: &ApiRequest, subgroup: &[Target]) -> Option<Target> {
        let coloc_matches = self.tree_colocated.match_tokens(&req.prompt);
        let prefill_matches = self.tree_prefill.match_tokens(&req.prompt);
        subgroup
            .iter()
            .filter_map(|&t| {
                let m = match t {
                    Target::Colocated(te) => coloc_matches.get(&te).copied(),
                    Target::Disaggregated { prefill, .. } => prefill_matches.get(&prefill).copied(),
                };
                m.map(|tokens| (t, tokens))
            })
            .max_by(|a, b| {
                a.1.cmp(&b.1)
                    .then_with(|| b.0.locality_te().cmp(&a.0.locality_te()))
            })
            .map(|(t, _)| t)
    }

    fn is_load_balanced(&self, view: &ScanView<'_>, subgroup: &[Target]) -> bool {
        let loads: Vec<usize> = subgroup
            .iter()
            .map(|&t| match t {
                Target::Colocated(te) => view.load(te),
                Target::Disaggregated { prefill, decode } => view.pair_load((prefill, decode)),
            })
            .collect();
        match (loads.iter().max(), loads.iter().min()) {
            (Some(&max), Some(&min)) => max - min <= self.balance_threshold,
            _ => true,
        }
    }

    fn least_loaded_in(&self, view: &ScanView<'_>, subgroup: &[Target]) -> Target {
        *subgroup
            .iter()
            .min_by_key(|&&t| match t {
                Target::Colocated(te) => (view.load(te), te),
                Target::Disaggregated { prefill, decode } => {
                    (view.pair_load((prefill, decode)), prefill)
                }
            })
            .expect("subgroup is non-empty by construction")
    }

    fn least_loaded_any(&self, view: &ScanView<'_>) -> Target {
        let mut all: Vec<Target> = view
            .colocated
            .iter()
            .map(|&t| Target::Colocated(t))
            .collect();
        all.extend(
            view.pairs
                .iter()
                .map(|&(prefill, decode)| Target::Disaggregated { prefill, decode }),
        );
        self.least_loaded_in(view, &all)
    }

    fn best_locality(
        &self,
        req: &ApiRequest,
        view: &ScanView<'_>,
        colocated: bool,
    ) -> Option<Target> {
        if colocated {
            let m = self.tree_colocated.match_tokens(&req.prompt);
            view.colocated
                .iter()
                .filter_map(|&te| m.get(&te).map(|&tok| (te, tok)))
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
                .map(|(te, _)| Target::Colocated(te))
        } else {
            let m = self.tree_prefill.match_tokens(&req.prompt);
            view.pairs
                .iter()
                .filter_map(|&(p, d)| m.get(&p).map(|&tok| ((p, d), tok)))
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| (b.0).0.cmp(&(a.0).0)))
                .map(|((prefill, decode), _)| Target::Disaggregated { prefill, decode })
        }
    }

    fn match_at(&self, req: &ApiRequest, target: Target) -> usize {
        let tree = match target {
            Target::Colocated(_) => &self.tree_colocated,
            Target::Disaggregated { .. } => &self.tree_prefill,
        };
        tree.match_tokens(&req.prompt)
            .get(&target.locality_te())
            .copied()
            .unwrap_or(0)
    }
}

/// Prompt `family` truncated to `len` tokens: prompts of one family share
/// prefixes, so the prompt trees produce partial and tied matches.
fn family_prompt(family: u32, len: usize) -> Vec<flowserve::TokenId> {
    synthetic_tokens(u64::from(family), len, 64_000)
}

proptest! {
    /// `JobExecutor::schedule` (the load index) returns the reference
    /// scan's decision and leaves the same counters, over decision
    /// sequences interleaved with load changes (including `loads` entries
    /// dropped from the map, which read as 0), cache reports, and TE
    /// removal/re-admission. Pools have sparse TeIds, decode TEs shared by
    /// several prefill TEs, optionally a prefill TE heading two pairs or
    /// also listed as colocated, and list orders that differ from TeId
    /// order. A third JE schedules
    /// against one incrementally maintained index (`set_load` /
    /// `set_down`, as the cluster does), which must equal a fresh build
    /// after every step.
    #[test]
    fn schedule_matches_reference_scan(
        shape in (0usize..5, 0usize..4, 1usize..3),
        gaps in prop::collection::vec(0u32..3, 12),
        flags in (0u8..2, 0u8..3, 0usize..6, 0usize..5),
        ops in prop::collection::vec((0u8..10, 0u32..1_000_000, 0u32..1_000_000), 1..150),
    ) {
        let (n_coloc, n_prefill, n_decode) = shape;
        let (reverse_coloc, shared_prefill, threshold, policy_idx) = flags;
        prop_assume!(n_coloc + n_prefill > 0);
        let policy = [
            Policy::RoundRobin,
            Policy::LoadAware,
            Policy::LocalityAware,
            Policy::PdAware,
            Policy::Combined,
        ][policy_idx];
        // Sparse ids: each TE skips 0-2 ids past its predecessor.
        let mut next = 0u32;
        let mut fresh = |i: usize| {
            next += gaps[i % gaps.len()];
            let id = TeId(next);
            next += 1;
            id
        };
        let mut pool = SchedPool::default();
        let mut all = Vec::new();
        for i in 0..n_coloc {
            let t = fresh(i);
            pool.colocated.push(t);
            all.push(t);
        }
        if reverse_coloc == 1 {
            pool.colocated.reverse();
        }
        if n_prefill > 0 {
            let prefills: Vec<TeId> = (0..n_prefill).map(|i| fresh(n_coloc + i)).collect();
            let decodes: Vec<TeId> = (0..n_decode).map(|i| fresh(n_coloc + n_prefill + i)).collect();
            all.extend(&prefills);
            all.extend(&decodes);
            for (i, &p) in prefills.iter().enumerate() {
                pool.pairs.push((p, decodes[i % decodes.len()]));
            }
            match shared_prefill {
                1 => pool.pairs.push((prefills[0], decodes[decodes.len() - 1])),
                2 => pool.colocated.push(prefills[0]),
                _ => {}
            }
        }
        let mut je = JobExecutor::new(policy, Heatmap::default_production(), Box::new(Oracle), 16);
        je.balance_threshold = threshold;
        let mut reference = ScanJe::new(policy, 16, threshold);
        let mut je_ix = JobExecutor::new(policy, Heatmap::default_production(), Box::new(Oracle), 16);
        je_ix.balance_threshold = threshold;
        let mut index = LoadIndex::build(&pool.colocated, &pool.pairs, |_| false, |_| 0);
        let lens = [64usize, 256, 512, 2048, 8192];
        let outs = [16u32, 64, 400, 1500];
        for (i, &(op, a, b)) in ops.iter().enumerate() {
            let te = all[a as usize % all.len()];
            match op {
                0..=2 => {
                    let load = if b % 5 == 0 { 30 + b as usize % 30 } else { b as usize % 8 };
                    pool.loads.insert(te, TeSnapshot { load });
                    index.set_load(te, load);
                }
                3 => {
                    pool.loads.remove(&te);
                    index.set_load(te, 0);
                }
                4 => {
                    let prompt = family_prompt(b % 3, lens[(b as usize / 3) % lens.len()]);
                    let is_prefill = pool.pairs.iter().any(|&(p, _)| p == te);
                    je.note_cached(SimTime::ZERO, te, is_prefill, &prompt);
                    je_ix.note_cached(SimTime::ZERO, te, is_prefill, &prompt);
                    reference.note_cached(te, is_prefill, &prompt);
                }
                5 => {
                    je.note_te_removed(te);
                    je_ix.note_te_removed(te);
                    index.set_down(te, true);
                    reference.note_te_removed(te);
                }
                6 => {
                    je.note_te_added(te);
                    je_ix.note_te_added(te);
                    index.set_down(te, false);
                    reference.note_te_added(te);
                }
                _ => {
                    let prompt = family_prompt(a % 3, lens[b as usize % lens.len()]);
                    let out = outs[(b as usize / lens.len()) % outs.len()];
                    let req = ApiRequest::chat(i as u64, prompt, out, SimTime::ZERO);
                    let Some(want) = reference.schedule(&req, &pool) else {
                        continue; // every TE removed: both sides refuse
                    };
                    let got = je.schedule(SimTime::ZERO, &req, &pool);
                    prop_assert_eq!(got, want, "op {}: decision diverged", i);
                    let got_ix = je_ix.schedule_indexed(SimTime::ZERO, &req, &index);
                    prop_assert_eq!(got_ix, want, "op {}: indexed decision diverged", i);
                }
            }
            let fresh = LoadIndex::build(
                &pool.colocated,
                &pool.pairs,
                |t| je.is_removed(t),
                |t| pool.loads.get(&t).map_or(0, |s| s.load),
            );
            prop_assert_eq!(&index, &fresh, "op {}: incremental index drifted", i);
            let got: Vec<(&str, u64)> = je.counters().iter().collect();
            let want: Vec<(&str, u64)> = reference.counters.iter().collect();
            prop_assert_eq!(got, want, "op {}: counters diverged", i);
        }
    }
}
