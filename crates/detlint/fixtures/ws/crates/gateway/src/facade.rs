// detlint: allow(std-hasher) — fixture: session keys are client-chosen strings
use std::collections::HashMap;

pub fn bad_unwrap(v: Option<u32>) -> u32 {
    v.unwrap()
}

// detlint: allow(std-hasher) — fixture: session keys are client-chosen strings
pub fn bad_iter(sessions: HashMap<String, u64>) -> u64 {
    let mut sum = 0;
    for (_, v) in &sessions {
        sum += v;
    }
    sum
}

pub fn paced_now() -> u64 {
    // detlint: allow(wall-clock) — the facade's sole sim-to-wall bridge
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}
