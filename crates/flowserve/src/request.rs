//! Engine-level request state.

use crate::block::BlockTable;
use crate::rtc::{AcquiredPrefix, CacheId, PopulateTicket};
use crate::tokenizer::Prompt;
use simcore::{IdMap, SimDuration, SimTime};

/// Globally unique request identifier (assigned by the platform frontend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub struct RequestId(pub u64);

/// What a caller hands the engine.
#[derive(Debug, Clone)]
pub struct NewRequest {
    /// Identity.
    pub id: RequestId,
    /// Tokenized prompt (shared by reference; see [`Prompt`]).
    pub prompt: Prompt,
    /// Ground-truth decode length (simulation oracle; the engine stops
    /// there, schedulers may only see a noisy prediction of it).
    pub target_output: u32,
    /// Platform arrival time (for JCT accounting).
    pub arrival: SimTime,
    /// Optional explicit context-cache id to match/register.
    pub cache_id: Option<CacheId>,
}

/// Engine-side lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting for an asynchronous KV populate before becoming schedulable.
    WaitingPopulate,
    /// In the admission queue.
    Queued,
    /// Prefill chunks in flight.
    Prefilling,
    /// Generating tokens.
    Decoding,
    /// Prefill done on a prefill-only TE; KV awaiting migration.
    AwaitingMigration,
    /// Done (all tokens emitted, or migrated out).
    Finished,
}

/// One request as the engine tracks it.
#[derive(Debug)]
pub struct EngineRequest {
    /// Immutable submission data.
    pub new: NewRequest,
    /// Current phase.
    pub phase: Phase,
    /// Prompt tokens satisfied from cache at admission.
    pub cached_tokens: usize,
    /// Prompt tokens prefilled so far (including cached).
    pub prefilled_tokens: usize,
    /// Output tokens generated so far.
    pub generated: u32,
    /// Physical KV mapping.
    pub table: BlockTable,
    /// Pinned cached prefix, if any.
    pub acquired: Option<AcquiredPrefix>,
    /// In-flight populate ticket, if any.
    pub populate: Option<PopulateTicket>,
    /// When the first output token was emitted.
    pub first_token_at: Option<SimTime>,
    /// When the request finished.
    pub finished_at: Option<SimTime>,
    /// Number of times this request was preempted (recompute restarts).
    pub preemptions: u32,
}

impl EngineRequest {
    /// Wraps a submission.
    pub fn new(new: NewRequest, block_size: usize) -> Self {
        EngineRequest {
            new,
            phase: Phase::Queued,
            cached_tokens: 0,
            prefilled_tokens: 0,
            generated: 0,
            table: BlockTable::new(block_size),
            acquired: None,
            populate: None,
            first_token_at: None,
            finished_at: None,
            preemptions: 0,
        }
    }

    /// Prompt length in tokens.
    pub fn prompt_len(&self) -> usize {
        self.new.prompt.len()
    }

    /// Tokens still needing prefill. After a recompute preemption the
    /// already-generated output tokens are part of the context that must be
    /// re-prefilled, so they count here; in the normal flow `generated` is
    /// zero throughout the prefill phase.
    pub fn prefill_remaining(&self) -> usize {
        (self.prompt_len() + self.generated as usize).saturating_sub(self.prefilled_tokens)
    }

    /// Whether decode has produced everything it should.
    pub fn decode_done(&self) -> bool {
        self.generated >= self.new.target_output
    }

    /// Request-level latency metrics; `None` until finished.
    pub fn latency(&self) -> Option<simcore::RequestLatency> {
        let first = self.first_token_at?;
        let end = self.finished_at?;
        let ttft = first.since(self.new.arrival);
        let jct = end.since(self.new.arrival);
        let tpot = if self.generated > 1 {
            SimDuration::from_nanos(end.since(first).as_nanos() / (self.generated as u64 - 1))
        } else {
            SimDuration::ZERO
        };
        Some(simcore::RequestLatency {
            ttft,
            tpot,
            jct,
            output_tokens: self.generated as u64,
        })
    }
}

/// Slot-addressed arena for engine request state.
///
/// The engine resolves `RequestId -> state` many times per iteration; a
/// plain hash map of `RequestId -> EngineRequest` additionally rehashes the
/// whole table as load grows and offers only hasher-ordered iteration,
/// which the determinism lint must waive around. The arena keeps requests
/// in a slab of reusable slots (freed slots recycled LIFO — a pure function
/// of the submit/finish history, so replays are bit-identical) with a
/// compact id -> slot `IdMap`. Iteration is in slot order: deterministic by
/// construction, no waiver needed. Memory stays O(peak in-flight), not
/// O(total submitted).
#[derive(Debug, Default)]
pub struct RequestArena {
    slots: Vec<Option<EngineRequest>>,
    free: Vec<u32>,
    index: IdMap<RequestId, u32>,
}

impl RequestArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests currently stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Inserts `req` under `id`, reusing a freed slot when one exists.
    /// Inserting an id that is already present replaces the old state
    /// (loud in debug builds — the engine never does this on purpose).
    pub fn insert(&mut self, id: RequestId, req: EngineRequest) {
        if let Some(&slot) = self.index.get(&id) {
            debug_assert!(false, "arena invariant: duplicate insert of {id:?}");
            self.slots[slot as usize] = Some(req);
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(req);
                s
            }
            None => {
                self.slots.push(Some(req));
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(id, slot);
    }

    /// Shared access by id.
    pub fn get(&self, id: RequestId) -> Option<&EngineRequest> {
        let &slot = self.index.get(&id)?;
        self.slots[slot as usize].as_ref()
    }

    /// Mutable access by id.
    pub fn get_mut(&mut self, id: RequestId) -> Option<&mut EngineRequest> {
        let &slot = self.index.get(&id)?;
        self.slots[slot as usize].as_mut()
    }

    /// Removes and returns the request, recycling its slot.
    pub fn remove(&mut self, id: RequestId) -> Option<EngineRequest> {
        let slot = self.index.remove(&id)?;
        let req = self.slots[slot as usize].take();
        debug_assert!(req.is_some(), "arena invariant: indexed slot was empty");
        self.free.push(slot);
        req
    }

    /// All stored requests in slot order (deterministic: slot assignment is
    /// a pure function of the submit/finish history).
    pub fn values(&self) -> impl Iterator<Item = &EngineRequest> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// All stored ids in slot order.
    pub fn ids(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.values().map(|r| r.new.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(prompt_len: usize, target: u32) -> EngineRequest {
        EngineRequest::new(
            NewRequest {
                id: RequestId(1),
                prompt: crate::tokenizer::synthetic_tokens(1, prompt_len, 64_000).into(),
                target_output: target,
                arrival: SimTime::from_secs(1),
                cache_id: None,
            },
            16,
        )
    }

    #[test]
    fn fresh_request_state() {
        let r = req(100, 50);
        assert_eq!(r.phase, Phase::Queued);
        assert_eq!(r.prefill_remaining(), 100);
        assert!(!r.decode_done());
        assert!(r.latency().is_none());
    }

    #[test]
    fn latency_math() {
        let mut r = req(100, 3);
        r.first_token_at = Some(SimTime::from_secs(2));
        r.finished_at = Some(SimTime::from_secs(4));
        r.generated = 3;
        let lat = r.latency().unwrap();
        assert_eq!(lat.ttft, SimDuration::from_secs(1));
        assert_eq!(lat.jct, SimDuration::from_secs(3));
        // 2 inter-token gaps over 2 seconds.
        assert_eq!(lat.tpot, SimDuration::from_secs(1));
        assert_eq!(lat.output_tokens, 3);
    }

    #[test]
    fn single_token_request_has_zero_tpot() {
        let mut r = req(10, 1);
        r.first_token_at = Some(SimTime::from_secs(2));
        r.finished_at = Some(SimTime::from_secs(2));
        r.generated = 1;
        assert_eq!(r.latency().unwrap().tpot, SimDuration::ZERO);
    }

    fn arena_req(id: u64) -> EngineRequest {
        EngineRequest::new(
            NewRequest {
                id: RequestId(id),
                prompt: crate::tokenizer::synthetic_tokens(id, 8, 64_000).into(),
                target_output: 4,
                arrival: SimTime::ZERO,
                cache_id: None,
            },
            16,
        )
    }

    #[test]
    fn arena_reuses_slots_and_iterates_in_slot_order() {
        let mut a = RequestArena::new();
        for i in 0..4 {
            a.insert(RequestId(i), arena_req(i));
        }
        assert_eq!(a.len(), 4);
        assert!(a.get(RequestId(2)).is_some());
        // Free two, insert two: slots recycle LIFO, capacity stays at 4.
        a.remove(RequestId(1));
        a.remove(RequestId(2));
        a.insert(RequestId(10), arena_req(10));
        a.insert(RequestId(11), arena_req(11));
        assert_eq!(a.slots.len(), 4);
        // Slot order: 0 kept slot 0, 10 took freed slot 2 (LIFO), 11 took
        // slot 1, 3 kept slot 3.
        let ids: Vec<u64> = a.ids().map(|r| r.0).collect();
        assert_eq!(ids, vec![0, 11, 10, 3]);
        assert!(a.get(RequestId(1)).is_none());
        assert!(a.remove(RequestId(1)).is_none());
        assert_eq!(a.values().count(), 4);
    }
}
