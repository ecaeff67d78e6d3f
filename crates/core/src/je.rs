//! Job Executor: frontend dispatch and the distributed scheduling policy
//! (Algorithm 1).
//!
//! ```text
//! Function dist_sched(req, tes):
//!     tes <- PD_aware(req, tes)
//!     if tes.is_load_balanced():
//!         tes <- locality_aware(req, tes)
//!     else:
//!         tes <- load_aware(req, tes)
//!     return tes
//! ```
//!
//! `PD_aware` consults the combined heatmap with the request's prefill
//! length and *predicted* decode length (`select_tes_PD_heatmap`);
//! `locality_aware` walks the global prompt tree
//! (`select_tes_prefix_match`); `load_aware` picks the least-loaded TE.

use crate::api::ApiRequest;
use crate::heatmap::Heatmap;
use crate::predictor::DecodePredictor;
use crate::prompt_tree::{GlobalPromptTree, TeId};
use simcore::trace::{Trace, TraceLevel, Tracer};
use simcore::{Counters, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Scheduling policy selector (the Figure 6 comparison set plus ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Cycle through targets regardless of anything.
    RoundRobin,
    /// Least-loaded target only.
    LoadAware,
    /// Longest prefix match only (load ignored).
    LocalityAware,
    /// Heatmap-based type selection, then least load.
    PdAware,
    /// The full Algorithm 1: PD-aware + locality-aware + load-aware.
    Combined,
}

/// Where a request should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// One PD-colocated TE.
    Colocated(TeId),
    /// A prefill/decode TE pair.
    Disaggregated {
        /// Prefill-side TE.
        prefill: TeId,
        /// Decode-side TE.
        decode: TeId,
    },
}

impl Target {
    /// The TE whose cache locality matters (colocated TE or prefill TE).
    pub fn locality_te(&self) -> TeId {
        match *self {
            Target::Colocated(t) => t,
            Target::Disaggregated { prefill, .. } => prefill,
        }
    }
}

/// Point-in-time load view of one TE, provided by the platform each
/// scheduling decision (the TE-shell's health/load reporting).
#[derive(Debug, Clone, Copy)]
pub struct TeSnapshot {
    /// Requests queued + running on the TE.
    pub load: usize,
}

/// The schedulable pool: colocated TEs and disaggregated pairs, plus their
/// load snapshots.
#[derive(Debug, Default)]
pub struct SchedPool {
    /// PD-colocated TEs.
    pub colocated: Vec<TeId>,
    /// (prefill TE, decode TE) pairs.
    pub pairs: Vec<(TeId, TeId)>,
    /// Load per TE.
    pub loads: HashMap<TeId, TeSnapshot>,
}

/// One TE type: the subgroups `select_tes_PD_heatmap` chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Colocated,
    Disaggregated,
}

/// The dispatch load index: the routable targets of a pool with their
/// loads, ordered so every question Algorithm 1 asks is a `first()` /
/// `last()` away.
///
/// Colocated TEs are keyed `(load, TeId)`; pairs `(max(prefill load,
/// decode load), prefill TeId, position in the routable pair list)` —
/// a pair is as loaded as its busier half. Ending each key in TeId or
/// list position makes `first()` the first minimum in list order, the
/// tie-break Algorithm 1 has always used (DESIGN.md explains why).
///
/// The owner keeps it current: [`LoadIndex::set_load`] after every
/// change to a TE's load (O(log TEs) per affected target) and
/// [`LoadIndex::set_down`] when a TE leaves or rejoins service (a
/// rebuild; rare). See DESIGN.md "Dispatch load index".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadIndex {
    /// Every colocated TE of the pool, routable or not, in pool order.
    pool_colocated: Vec<TeId>,
    /// Every pair of the pool, in pool order.
    pool_pairs: Vec<(TeId, TeId)>,
    /// Per TeId: barred from scheduling.
    down: Vec<bool>,
    /// Per TeId: current load (0 until reported).
    loads: Vec<usize>,
    /// Routable colocated TEs, in pool order.
    colocated: Vec<TeId>,
    /// Routable pairs (both halves up), in pool order.
    pairs: Vec<(TeId, TeId)>,
    /// Per TeId: member of `colocated`.
    in_colocated: Vec<bool>,
    /// Per TeId: positions in `pairs` of the pairs it is a half of.
    pairs_of: Vec<Vec<u32>>,
    /// Routable colocated TEs by `(load, TeId)`.
    colocated_by_load: BTreeSet<(usize, TeId)>,
    /// Routable pairs by `(pair load, prefill TeId, position)`.
    pairs_by_load: BTreeSet<(usize, TeId, u32)>,
}

impl LoadIndex {
    /// Indexes a pool: `colocated` TEs and `pairs` in the pool's order,
    /// minus TEs for which `is_down` holds, with `load` read once per TE.
    pub fn build(
        colocated: &[TeId],
        pairs: &[(TeId, TeId)],
        is_down: impl Fn(TeId) -> bool,
        load: impl Fn(TeId) -> usize,
    ) -> Self {
        let n = colocated
            .iter()
            .chain(pairs.iter().flat_map(|(p, d)| [p, d]))
            .map(|t| t.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut ix = LoadIndex {
            pool_colocated: colocated.to_vec(),
            pool_pairs: pairs.to_vec(),
            down: (0..n).map(|i| is_down(TeId(i as u32))).collect(),
            loads: (0..n).map(|i| load(TeId(i as u32))).collect(),
            ..LoadIndex::default()
        };
        ix.reindex();
        ix
    }

    /// Rebuilds the routable lists and both ordered sets from the pool
    /// lists, `down` and `loads`.
    fn reindex(&mut self) {
        let n = self.loads.len();
        let down = &self.down;
        self.colocated = self
            .pool_colocated
            .iter()
            .copied()
            .filter(|t| !down[t.0 as usize])
            .collect();
        self.pairs = self
            .pool_pairs
            .iter()
            .copied()
            .filter(|(p, d)| !down[p.0 as usize] && !down[d.0 as usize])
            .collect();
        self.in_colocated = vec![false; n];
        for t in &self.colocated {
            self.in_colocated[t.0 as usize] = true;
        }
        self.pairs_of = vec![Vec::new(); n];
        for (pos, &(p, d)) in self.pairs.iter().enumerate() {
            self.pairs_of[p.0 as usize].push(pos as u32);
            self.pairs_of[d.0 as usize].push(pos as u32);
        }
        let loads = &self.loads;
        self.colocated_by_load = self
            .colocated
            .iter()
            .map(|&t| (loads[t.0 as usize], t))
            .collect();
        self.pairs_by_load = self
            .pairs
            .iter()
            .enumerate()
            .map(|(pos, &(p, d))| (loads[p.0 as usize].max(loads[d.0 as usize]), p, pos as u32))
            .collect();
    }

    /// Records TE `te`'s current load. TEs outside the pool are ignored.
    pub fn set_load(&mut self, te: TeId, load: usize) {
        let i = te.0 as usize;
        let Some(&old) = self.loads.get(i) else {
            return;
        };
        if old == load {
            return;
        }
        let LoadIndex {
            loads,
            pairs,
            in_colocated,
            pairs_of,
            colocated_by_load,
            pairs_by_load,
            ..
        } = self;
        let pair_key = |loads: &[usize], pos: u32| {
            let (p, d) = pairs[pos as usize];
            (loads[p.0 as usize].max(loads[d.0 as usize]), p, pos)
        };
        if in_colocated[i] {
            colocated_by_load.remove(&(old, te));
            colocated_by_load.insert((load, te));
        }
        for &pos in &pairs_of[i] {
            pairs_by_load.remove(&pair_key(loads, pos));
        }
        loads[i] = load;
        for &pos in &pairs_of[i] {
            pairs_by_load.insert(pair_key(loads, pos));
        }
    }

    /// Bars TE `te` from scheduling (`down`) or re-admits it. A pair is
    /// routable only while both halves are up. TEs outside the pool are
    /// ignored.
    pub fn set_down(&mut self, te: TeId, down: bool) {
        let Some(flag) = self.down.get_mut(te.0 as usize) else {
            return;
        };
        if *flag != down {
            *flag = down;
            self.reindex();
        }
    }

    /// Whether no target is routable.
    pub fn is_empty(&self) -> bool {
        self.colocated.is_empty() && self.pairs.is_empty()
    }

    /// `(lowest, highest)` load in a subgroup; `None` when it has no
    /// routable target.
    fn load_range(&self, kind: Kind) -> Option<(usize, usize)> {
        match kind {
            Kind::Colocated => Some((
                self.colocated_by_load.first()?.0,
                self.colocated_by_load.last()?.0,
            )),
            Kind::Disaggregated => {
                Some((self.pairs_by_load.first()?.0, self.pairs_by_load.last()?.0))
            }
        }
    }

    fn pair_target(&self, pos: u32) -> Target {
        let (prefill, decode) = self.pairs[pos as usize];
        Target::Disaggregated { prefill, decode }
    }

    /// Least-loaded target of a subgroup, ties to the lower TeId, then
    /// the earlier pair.
    fn least_loaded(&self, kind: Kind) -> Option<Target> {
        match kind {
            Kind::Colocated => self
                .colocated_by_load
                .first()
                .map(|&(_, t)| Target::Colocated(t)),
            Kind::Disaggregated => self
                .pairs_by_load
                .first()
                .map(|&(_, _, pos)| self.pair_target(pos)),
        }
    }

    /// Least-loaded target of the whole pool: colocated TEs come first in
    /// the pool's order, so they win ties against a pair keyed the same.
    fn least_loaded_any(&self) -> Option<Target> {
        match (self.colocated_by_load.first(), self.pairs_by_load.first()) {
            (Some(&(l, t)), Some(&(pl, p, _))) if (l, t) <= (pl, p) => Some(Target::Colocated(t)),
            (Some(&(_, t)), None) => Some(Target::Colocated(t)),
            (_, Some(&(_, _, pos))) => Some(self.pair_target(pos)),
            (None, None) => None,
        }
    }

    /// `select_tes_prefix_match`: the subgroup target with the longest
    /// prompt-tree match, with its length. Ties go to the lower TeId; a
    /// prefill TE heading several pairs stands for the last of them.
    /// Walks only the match map (TEs that matched), not the pool.
    fn best_match(&self, kind: Kind, matches: &BTreeMap<TeId, usize>) -> Option<(Target, usize)> {
        let mut best: Option<(Target, usize)> = None;
        // Ascending TeId with a strict `>`: the first of equal matches
        // (the lowest TeId) stays.
        for (&te, &tokens) in matches {
            let i = te.0 as usize;
            let target = match kind {
                Kind::Colocated if self.in_colocated.get(i) == Some(&true) => Target::Colocated(te),
                Kind::Colocated => continue,
                Kind::Disaggregated => {
                    let last = self.pairs_of.get(i).and_then(|ps| {
                        ps.iter()
                            .rev()
                            .find(|&&pos| self.pairs[pos as usize].0 == te)
                    });
                    match last {
                        Some(&pos) => self.pair_target(pos),
                        None => continue,
                    }
                }
            };
            if best.is_none_or(|(_, b)| tokens > b) {
                best = Some((target, tokens));
            }
        }
        best
    }
}

/// The scheduling outcome, with the intermediate signals for
/// observability/benchmarks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Where to run.
    pub target: Target,
    /// Predicted decode length used by PD-aware.
    pub predicted_decode: u32,
    /// Heatmap cell value consulted (0 when PD-aware was skipped).
    pub heat: f64,
    /// Prompt-tree match length at the chosen locality TE, in tokens.
    pub matched_tokens: usize,
}

/// Prompt-tree match length of `target`'s locality TE in `matches`.
fn matched_at(matches: &BTreeMap<TeId, usize>, target: Target) -> usize {
    matches.get(&target.locality_te()).copied().unwrap_or(0)
}

/// The model-serving Job Executor.
pub struct JobExecutor {
    policy: Policy,
    heatmap: Heatmap,
    predictor: Box<dyn DecodePredictor>,
    /// Global prompt tree for colocated TEs.
    tree_colocated: GlobalPromptTree,
    /// Global prompt tree for prefill TEs.
    tree_prefill: GlobalPromptTree,
    /// Load-imbalance threshold for `is_load_balanced` (absolute request
    /// spread).
    pub balance_threshold: usize,
    /// Overload spill-over: when the heatmap-preferred TE type's
    /// least-loaded target carries more than `overload_factor` x the other
    /// type's least-loaded target (plus the balance threshold), the
    /// preference is overridden. This is the "dynamics of online serving"
    /// part of the PD-aware policy (§5.3.2): a correct static preference
    /// must not pile the whole workload onto a saturated subgroup.
    pub overload_factor: f64,
    rr_cursor: usize,
    /// TEs removed from service (failed or scaled down). [`Self::schedule`]
    /// leaves these out of the caller's pool, so a stale pool snapshot can
    /// never route to a removed TE.
    removed: BTreeSet<TeId>,
    counters: Counters,
    tracer: Tracer,
}

impl JobExecutor {
    /// Creates a JE with the given policy, heatmap and predictor.
    pub fn new(
        policy: Policy,
        heatmap: Heatmap,
        predictor: Box<dyn DecodePredictor>,
        block_size: usize,
    ) -> Self {
        JobExecutor {
            policy,
            heatmap,
            predictor,
            tree_colocated: GlobalPromptTree::new(block_size, 200_000),
            tree_prefill: GlobalPromptTree::new(block_size, 200_000),
            balance_threshold: 4,
            overload_factor: 2.0,
            rr_cursor: 0,
            removed: BTreeSet::new(),
            counters: Counters::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Turns on sim-time tracing of scheduling decisions.
    pub fn enable_tracing(&mut self, level: TraceLevel, capacity: usize) {
        self.tracer = Tracer::enabled(level, capacity);
    }

    /// Drains everything traced so far.
    pub fn take_trace(&mut self) -> Trace {
        self.tracer.take()
    }

    /// Active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Scheduling statistics.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// TE -> JE tree sync: a TE reports it now caches `tokens`' prefix.
    pub fn note_cached(
        &mut self,
        now: SimTime,
        te: TeId,
        is_prefill_te: bool,
        tokens: &[flowserve::TokenId],
    ) {
        if is_prefill_te {
            self.tree_prefill.insert(now, te, tokens);
        } else {
            self.tree_colocated.insert(now, te, tokens);
        }
    }

    /// Forgets a TE (scale-down / failure): purges its prompt-tree state
    /// and bars it from scheduling until [`JobExecutor::note_te_added`].
    pub fn note_te_removed(&mut self, te: TeId) {
        self.tree_colocated.remove_te(te);
        self.tree_prefill.remove_te(te);
        self.removed.insert(te);
        self.counters.incr("je.te_removed");
    }

    /// Re-admits a TE after repair / scale-up. Its prompt trees start
    /// empty (a replaced TE holds no cache).
    pub fn note_te_added(&mut self, te: TeId) {
        self.removed.remove(&te);
        self.counters.incr("je.te_added");
    }

    /// Whether `te` is currently barred from scheduling.
    pub fn is_removed(&self, te: TeId) -> bool {
        self.removed.contains(&te)
    }

    /// Locality-aware cold-start placement (the fleet analogue of the
    /// locality policy): among `candidates` — `(te, storage tier rank of
    /// the checkpoint on that TE's server, current engine load)` — prefer
    /// the TE whose local storage already holds the model (lowest tier
    /// rank: DRAM beats SSD beats remote), breaking ties by load, then
    /// TeId. Removed TEs never win. Returns `None` when every candidate
    /// is removed.
    pub fn place_cold_start(&mut self, candidates: &[(TeId, u8, usize)]) -> Option<TeId> {
        let &(te, rank, _) = candidates
            .iter()
            .filter(|(te, _, _)| !self.removed.contains(te))
            .min_by_key(|&&(te, rank, load)| (rank, load, te))?;
        self.counters.incr("je.cold_start_placed");
        if rank <= 2 {
            // DRAM (1) or SSD (2) already holds bytes locally; rank 0
            // (HBM) only appears for scale-out from a live replica.
            self.counters.incr("je.cold_start_local_hit");
        }
        Some(te)
    }

    /// Algorithm 1 over a caller-built pool snapshot: indexes the pool
    /// minus removed TEs (a `loads` entry missing from the map reads as
    /// load 0) and runs [`JobExecutor::schedule_indexed`].
    ///
    /// # Panics
    ///
    /// Panics if no pool target survives the removed-TE filter.
    pub fn schedule(&mut self, now: SimTime, req: &ApiRequest, pool: &SchedPool) -> Decision {
        let index = LoadIndex::build(
            &pool.colocated,
            &pool.pairs,
            |t| self.removed.contains(&t),
            |t| pool.loads.get(&t).map_or(0, |s| s.load),
        );
        self.schedule_indexed(now, req, &index)
    }

    /// Algorithm 1 entry point, against a load index the caller keeps
    /// current (the cluster's dispatch path).
    ///
    /// # Panics
    ///
    /// Panics if the index has no routable target.
    pub fn schedule_indexed(
        &mut self,
        now: SimTime,
        req: &ApiRequest,
        index: &LoadIndex,
    ) -> Decision {
        assert!(!index.is_empty(), "dist_sched: empty TE pool");
        let predicted = self.predictor.predict(req);
        let decision = match self.policy {
            Policy::RoundRobin => self.round_robin(req, index, predicted),
            Policy::LoadAware => self.load_only(req, index, predicted),
            Policy::LocalityAware => self.locality_only(req, index, predicted),
            Policy::PdAware => self.pd_then_load(req, index, predicted),
            Policy::Combined => self.combined(req, index, predicted),
        };
        if self.tracer.is_enabled() {
            let policy = match self.policy {
                Policy::RoundRobin => "round_robin",
                Policy::LoadAware => "load_aware",
                Policy::LocalityAware => "locality_aware",
                Policy::PdAware => "pd_aware",
                Policy::Combined => "combined",
            };
            let (kind, te) = match decision.target {
                Target::Colocated(te) => ("colocated", te),
                Target::Disaggregated { prefill, .. } => ("disaggregated", prefill),
            };
            self.tracer.event(
                now,
                "je.schedule",
                vec![
                    ("req", req.id.0.into()),
                    ("policy", policy.into()),
                    ("predicted_decode", decision.predicted_decode.into()),
                    ("heat", decision.heat.into()),
                    ("matched_tokens", decision.matched_tokens.into()),
                    ("target_kind", kind.into()),
                    ("target_te", te.0.into()),
                ],
            );
        }
        decision
    }

    // ---- policies ----

    fn round_robin(&mut self, req: &ApiRequest, ix: &LoadIndex, predicted: u32) -> Decision {
        let slots = ix.colocated.len() + ix.pairs.len();
        let slot = self.rr_cursor % slots;
        self.rr_cursor += 1;
        let target = if slot < ix.colocated.len() {
            Target::Colocated(ix.colocated[slot])
        } else {
            ix.pair_target((slot - ix.colocated.len()) as u32)
        };
        self.counters.incr("je.rr");
        self.decide(req, target, predicted, 0.0)
    }

    fn load_only(&mut self, req: &ApiRequest, ix: &LoadIndex, predicted: u32) -> Decision {
        let target = least_loaded(ix, None);
        self.counters.incr("je.load");
        self.decide(req, target, predicted, 0.0)
    }

    /// Longest colocated match, else longest prefill match, else least
    /// loaded. Walks the prefill tree only when no colocated TE matched.
    fn locality_only(&mut self, req: &ApiRequest, ix: &LoadIndex, predicted: u32) -> Decision {
        let coloc = self.tree_colocated.match_tokens(&req.prompt);
        let (target, matched_tokens) = ix
            .best_match(Kind::Colocated, &coloc)
            .or_else(|| {
                let prefill = self.tree_prefill.match_tokens(&req.prompt);
                ix.best_match(Kind::Disaggregated, &prefill)
            })
            // No routable TE of either type matched, so the fallback's
            // locality TE matches nothing either.
            .unwrap_or_else(|| (least_loaded(ix, None), 0));
        self.counters.incr("je.locality");
        Decision {
            target,
            predicted_decode: predicted,
            heat: 0.0,
            matched_tokens,
        }
    }

    fn pd_then_load(&mut self, req: &ApiRequest, ix: &LoadIndex, predicted: u32) -> Decision {
        let (kind, heat) = self.select_tes_pd_heatmap(req, ix, predicted);
        let target = least_loaded(ix, Some(kind));
        self.counters.incr("je.pd");
        self.decide(req, target, predicted, heat)
    }

    /// Algorithm 1: PD-aware narrows the group; balanced -> locality,
    /// imbalanced -> load. One prompt-tree walk, of the chosen subgroup's
    /// tree, serves both the locality choice and `matched_tokens`.
    fn combined(&mut self, req: &ApiRequest, ix: &LoadIndex, predicted: u32) -> Decision {
        let (kind, heat) = self.select_tes_pd_heatmap(req, ix, predicted);
        let matches = self.tree(kind).match_tokens(&req.prompt);
        // `is_load_balanced`: the subgroup's load spread is within the
        // threshold.
        let balanced = ix
            .load_range(kind)
            .is_none_or(|(min, max)| max - min <= self.balance_threshold);
        let target = if balanced {
            self.counters.incr("je.combined_locality");
            ix.best_match(kind, &matches)
                .map_or_else(|| least_loaded(ix, Some(kind)), |(t, _)| t)
        } else {
            self.counters.incr("je.combined_load");
            least_loaded(ix, Some(kind))
        };
        Decision {
            target,
            predicted_decode: predicted,
            heat,
            matched_tokens: matched_at(&matches, target),
        }
    }

    // ---- Algorithm 1 helpers ----

    fn tree(&self, kind: Kind) -> &GlobalPromptTree {
        match kind {
            Kind::Colocated => &self.tree_colocated,
            Kind::Disaggregated => &self.tree_prefill,
        }
    }

    /// A decision for a target chosen without consulting the prompt
    /// trees: walks the target's tree once for `matched_tokens`.
    fn decide(&self, req: &ApiRequest, target: Target, predicted: u32, heat: f64) -> Decision {
        let kind = match target {
            Target::Colocated(_) => Kind::Colocated,
            Target::Disaggregated { .. } => Kind::Disaggregated,
        };
        Decision {
            target,
            predicted_decode: predicted,
            heat,
            matched_tokens: matched_at(&self.tree(kind).match_tokens(&req.prompt), target),
        }
    }

    /// `select_tes_PD_heatmap`: positive cell -> disaggregated pairs,
    /// negative -> colocated; falls back when the preferred type has no
    /// instances. Returns the chosen (non-empty) subgroup plus the cell
    /// value.
    fn select_tes_pd_heatmap(
        &mut self,
        req: &ApiRequest,
        ix: &LoadIndex,
        predicted: u32,
    ) -> (Kind, f64) {
        let heat = self.heatmap.lookup(req.prefill_len(), predicted);
        let mut prefer_disagg = heat >= 0.0;
        let min_disagg = ix.load_range(Kind::Disaggregated).map(|r| r.0);
        let min_coloc = ix.load_range(Kind::Colocated).map(|r| r.0);
        // Overload spill-over: override a static preference whose best
        // target is drowning while the other type has headroom.
        if let (Some(min_disagg), Some(min_coloc)) = (min_disagg, min_coloc) {
            let (min_disagg, min_coloc) = (min_disagg as f64, min_coloc as f64);
            let thresh = self.balance_threshold as f64;
            if prefer_disagg && min_disagg > self.overload_factor * min_coloc + thresh {
                prefer_disagg = false;
                self.counters.incr("je.heatmap_overridden");
            } else if !prefer_disagg && min_coloc > self.overload_factor * min_disagg + thresh {
                prefer_disagg = true;
                self.counters.incr("je.heatmap_overridden");
            }
        }
        let (has_disagg, has_coloc) = (min_disagg.is_some(), min_coloc.is_some());
        let kind = if prefer_disagg && has_disagg {
            self.counters.incr("je.heatmap_disagg");
            Kind::Disaggregated
        } else if !prefer_disagg && has_coloc {
            self.counters.incr("je.heatmap_coloc");
            Kind::Colocated
        } else if has_coloc {
            Kind::Colocated
        } else {
            Kind::Disaggregated
        };
        (kind, heat)
    }
}

/// Least-loaded target of subgroup `kind` (`None`: the whole pool).
fn least_loaded(ix: &LoadIndex, kind: Option<Kind>) -> Target {
    match kind {
        Some(kind) => ix.least_loaded(kind),
        None => ix.least_loaded_any(),
    }
    // detlint: allow(panic) — callers pass a non-empty pool (`schedule_indexed` asserts it) or a subgroup `select_tes_pd_heatmap` chose for being non-empty
    .expect("subgroup is non-empty by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::Oracle;
    use flowserve::synthetic_tokens;

    fn req(id: u64, seed: u64, prefill: usize, output: u32) -> ApiRequest {
        ApiRequest::chat(
            id,
            synthetic_tokens(seed, prefill, 64_000),
            output,
            SimTime::ZERO,
        )
    }

    fn pool_2c_1pair() -> SchedPool {
        let mut loads = HashMap::new();
        for t in [0, 1, 2, 3] {
            loads.insert(TeId(t), TeSnapshot { load: 0 });
        }
        SchedPool {
            colocated: vec![TeId(0), TeId(1)],
            pairs: vec![(TeId(2), TeId(3))],
            loads,
        }
    }

    fn je(policy: Policy) -> JobExecutor {
        JobExecutor::new(policy, Heatmap::default_production(), Box::new(Oracle), 16)
    }

    #[test]
    fn round_robin_cycles_all_slots() {
        let mut j = je(Policy::RoundRobin);
        let pool = pool_2c_1pair();
        let r = req(1, 1, 1024, 128);
        let t1 = j.schedule(SimTime::ZERO, &r, &pool).target;
        let t2 = j.schedule(SimTime::ZERO, &r, &pool).target;
        let t3 = j.schedule(SimTime::ZERO, &r, &pool).target;
        let t4 = j.schedule(SimTime::ZERO, &r, &pool).target;
        assert_eq!(t1, Target::Colocated(TeId(0)));
        assert_eq!(t2, Target::Colocated(TeId(1)));
        assert_eq!(
            t3,
            Target::Disaggregated {
                prefill: TeId(2),
                decode: TeId(3)
            }
        );
        assert_eq!(t4, t1, "wraps around");
    }

    #[test]
    fn pd_aware_sends_long_prefill_short_decode_to_disagg() {
        let mut j = je(Policy::PdAware);
        let pool = pool_2c_1pair();
        // Long prefill, tiny decode: heatmap strongly positive.
        let d = j.schedule(SimTime::ZERO, &req(1, 1, 8192, 64), &pool);
        assert!(d.heat > 0.0);
        assert!(matches!(d.target, Target::Disaggregated { .. }));
        // Short prefill, long decode: colocated.
        let d2 = j.schedule(SimTime::ZERO, &req(2, 2, 256, 512), &pool);
        assert!(d2.heat < 0.0);
        assert!(matches!(d2.target, Target::Colocated(_)));
    }

    #[test]
    fn pd_aware_falls_back_when_type_missing() {
        let mut j = je(Policy::PdAware);
        let mut pool = pool_2c_1pair();
        pool.pairs.clear(); // no disaggregated TEs at all
        let d = j.schedule(SimTime::ZERO, &req(1, 1, 8192, 64), &pool);
        assert!(matches!(d.target, Target::Colocated(_)));
    }

    #[test]
    fn locality_routes_repeat_prompts_to_same_te() {
        let mut j = je(Policy::Combined);
        let pool = pool_2c_1pair();
        // Pick a shape the heatmap sends to colocated TEs.
        let r = req(1, 5, 512, 400);
        let d1 = j.schedule(SimTime::ZERO, &r, &pool);
        let te = match d1.target {
            Target::Colocated(te) => te,
            other => panic!("expected colocated, got {other:?}"),
        };
        // TE reports it cached the prompt.
        j.note_cached(SimTime::ZERO, te, false, &r.prompt);
        // Same prompt again: must go back to the same TE with a match.
        let d2 = j.schedule(SimTime::ZERO, &req(2, 5, 512, 400), &pool);
        assert_eq!(d2.target, Target::Colocated(te));
        assert!(d2.matched_tokens >= 512 - 16);
    }

    #[test]
    fn imbalance_overrides_locality() {
        let mut j = je(Policy::Combined);
        let mut pool = pool_2c_1pair();
        let r = req(1, 5, 512, 400);
        // TE 0 holds the cache but is massively loaded.
        j.note_cached(SimTime::ZERO, TeId(0), false, &r.prompt);
        pool.loads.insert(TeId(0), TeSnapshot { load: 50 });
        let d = j.schedule(SimTime::ZERO, &req(2, 5, 512, 400), &pool);
        assert_eq!(
            d.target,
            Target::Colocated(TeId(1)),
            "load-aware must beat locality when imbalanced"
        );
    }

    #[test]
    fn balanced_load_prefers_locality() {
        let mut j = je(Policy::Combined);
        let mut pool = pool_2c_1pair();
        let r = req(1, 5, 512, 400);
        j.note_cached(SimTime::ZERO, TeId(1), false, &r.prompt);
        // Loads within threshold.
        pool.loads.insert(TeId(0), TeSnapshot { load: 1 });
        pool.loads.insert(TeId(1), TeSnapshot { load: 3 });
        let d = j.schedule(SimTime::ZERO, &req(2, 5, 512, 400), &pool);
        assert_eq!(d.target, Target::Colocated(TeId(1)));
    }

    #[test]
    fn load_aware_picks_least_loaded() {
        let mut j = je(Policy::LoadAware);
        let mut pool = pool_2c_1pair();
        pool.loads.insert(TeId(0), TeSnapshot { load: 9 });
        pool.loads.insert(TeId(1), TeSnapshot { load: 2 });
        pool.loads.insert(TeId(2), TeSnapshot { load: 9 });
        pool.loads.insert(TeId(3), TeSnapshot { load: 9 });
        let d = j.schedule(SimTime::ZERO, &req(1, 1, 1024, 64), &pool);
        assert_eq!(d.target, Target::Colocated(TeId(1)));
    }

    #[test]
    fn te_removal_clears_locality() {
        let mut j = je(Policy::LocalityAware);
        let pool = pool_2c_1pair();
        let r = req(1, 5, 512, 64);
        j.note_cached(SimTime::ZERO, TeId(0), false, &r.prompt);
        j.note_te_removed(TeId(0));
        let d = j.schedule(SimTime::ZERO, &req(2, 5, 512, 64), &pool);
        assert_eq!(d.matched_tokens, 0);
    }

    #[test]
    fn overload_spills_to_the_other_type() {
        let mut j = je(Policy::PdAware);
        let mut pool = pool_2c_1pair();
        // The lone pair is drowning; colocated TEs are idle.
        pool.loads.insert(TeId(2), TeSnapshot { load: 40 });
        pool.loads.insert(TeId(3), TeSnapshot { load: 40 });
        // Shape prefers disaggregation, but the guard must override.
        let d = j.schedule(SimTime::ZERO, &req(1, 1, 8192, 64), &pool);
        assert!(d.heat > 0.0);
        assert!(matches!(d.target, Target::Colocated(_)));
        assert_eq!(j.counters().get("je.heatmap_overridden"), 1);
    }

    #[test]
    fn removed_te_never_scheduled_from_stale_pool() {
        for policy in [
            Policy::RoundRobin,
            Policy::LoadAware,
            Policy::LocalityAware,
            Policy::PdAware,
            Policy::Combined,
        ] {
            let mut j = je(policy);
            // Stale pool still lists TE 0 and the (2, 3) pair; TE 0 and the
            // pair's decode half are removed. Make removed TEs look idle so
            // load-based policies would otherwise pick them.
            let mut pool = pool_2c_1pair();
            pool.loads.insert(TeId(1), TeSnapshot { load: 50 });
            j.note_cached(SimTime::ZERO, TeId(0), false, &req(9, 5, 512, 64).prompt);
            j.note_te_removed(TeId(0));
            j.note_te_removed(TeId(3));
            for i in 0..20 {
                let d = j.schedule(SimTime::ZERO, &req(i, 5, 512, 64), &pool);
                match d.target {
                    Target::Colocated(te) => {
                        assert_ne!(te, TeId(0), "{policy:?} routed to removed TE")
                    }
                    Target::Disaggregated { prefill, decode } => panic!(
                        "{policy:?} routed to pair ({prefill:?}, {decode:?}) with removed decode"
                    ),
                }
            }
        }
    }

    #[test]
    fn readded_te_is_schedulable_again() {
        let mut j = je(Policy::LoadAware);
        let mut pool = pool_2c_1pair();
        pool.loads.insert(TeId(1), TeSnapshot { load: 50 });
        pool.loads.insert(TeId(2), TeSnapshot { load: 50 });
        pool.loads.insert(TeId(3), TeSnapshot { load: 50 });
        j.note_te_removed(TeId(0));
        assert!(j.is_removed(TeId(0)));
        let d = j.schedule(SimTime::ZERO, &req(1, 1, 512, 64), &pool);
        assert_ne!(d.target, Target::Colocated(TeId(0)));
        j.note_te_added(TeId(0));
        assert!(!j.is_removed(TeId(0)));
        let d2 = j.schedule(SimTime::ZERO, &req(2, 1, 512, 64), &pool);
        assert_eq!(
            d2.target,
            Target::Colocated(TeId(0)),
            "idle again after re-add"
        );
    }

    #[test]
    #[should_panic(expected = "empty TE pool")]
    fn all_tes_removed_panics_like_empty_pool() {
        let mut j = je(Policy::Combined);
        let pool = pool_2c_1pair();
        for t in [0, 1, 2, 3] {
            j.note_te_removed(TeId(t));
        }
        j.schedule(SimTime::ZERO, &req(1, 1, 100, 10), &pool);
    }

    #[test]
    #[should_panic(expected = "empty TE pool")]
    fn empty_pool_panics() {
        let mut j = je(Policy::Combined);
        let pool = SchedPool::default();
        j.schedule(SimTime::ZERO, &req(1, 1, 100, 10), &pool);
    }
}
