//! `RequestArena` against a reference model: random insert / get /
//! get_mut / remove sequences over a small id space, so freed slots are
//! reused often. The model is a `BTreeMap` for contents plus a slot vector
//! with a LIFO free stack for iteration order.

use flowserve::{synthetic_tokens, EngineRequest, NewRequest, RequestArena, RequestId};
use proptest::prelude::*;
use simcore::SimTime;
use std::collections::BTreeMap;

fn req(id: u64) -> EngineRequest {
    EngineRequest::new(
        NewRequest {
            id: RequestId(id),
            prompt: synthetic_tokens(id, 4, 64_000).into(),
            target_output: 8,
            arrival: SimTime::ZERO,
            cache_id: None,
        },
        16,
    )
}

proptest! {
    #[test]
    fn arena_matches_reference_model(
        ops in prop::collection::vec((0u8..4, 0u64..24), 1..400),
    ) {
        let mut arena = RequestArena::new();
        // id -> the value last written to `generated` through get_mut.
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        let mut slots: Vec<Option<u64>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        for (step, (op, id)) in ops.into_iter().enumerate() {
            let rid = RequestId(id);
            match op {
                0 => {
                    // The arena never sees a duplicate insert from the engine.
                    if model.contains_key(&id) {
                        continue;
                    }
                    arena.insert(rid, req(id));
                    model.insert(id, 0);
                    match free.pop() {
                        Some(s) => slots[s] = Some(id),
                        None => slots.push(Some(id)),
                    }
                }
                1 => {
                    let got = arena.get(rid).map(|r| (r.new.id, r.generated));
                    prop_assert_eq!(got, model.get(&id).map(|&g| (rid, g)));
                }
                2 => {
                    let mark = step as u32;
                    match arena.get_mut(rid) {
                        Some(r) => {
                            prop_assert_eq!(r.new.id, rid);
                            r.generated = mark;
                            prop_assert!(model.insert(id, mark).is_some());
                        }
                        None => prop_assert!(!model.contains_key(&id)),
                    }
                }
                _ => {
                    let got = arena.remove(rid).map(|r| (r.new.id, r.generated));
                    prop_assert_eq!(got, model.remove(&id).map(|g| (rid, g)));
                    if got.is_some() {
                        let s = slots.iter().position(|&x| x == Some(id));
                        prop_assert!(s.is_some());
                        if let Some(s) = s {
                            slots[s] = None;
                            free.push(s);
                        }
                    }
                }
            }
            prop_assert_eq!(arena.len(), model.len());
            prop_assert_eq!(arena.is_empty(), model.is_empty());
        }
        // Iteration is slot order, and slots recycle LIFO.
        let ids: Vec<u64> = arena.ids().map(|r| r.0).collect();
        let expected: Vec<u64> = slots.iter().flatten().copied().collect();
        prop_assert_eq!(ids, expected);
        let marks: Vec<u32> = arena.values().map(|r| r.generated).collect();
        let expected: Vec<u32> = slots.iter().flatten().map(|id| model[id]).collect();
        prop_assert_eq!(marks, expected);
    }
}
