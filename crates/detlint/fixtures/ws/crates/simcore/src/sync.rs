use std::sync::{Mutex, PoisonError}; // detlint: allow(raw-sync) — fixture: the lock-order subject needs real locks

pub struct Pair {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Pair {
    pub fn nested_bad(&self) -> u32 {
        let ga = self.a.lock().unwrap_or_else(PoisonError::into_inner);
        let gb = self.b.lock().unwrap_or_else(PoisonError::into_inner);
        *ga + *gb
    }

    pub fn nested_waived(&self) -> u32 {
        let ga = self.a.lock().unwrap_or_else(PoisonError::into_inner);
        // detlint: allow(lock-order) — global order is a-then-b, held everywhere
        let gb = self.b.lock().unwrap_or_else(PoisonError::into_inner);
        *ga + *gb
    }

    pub fn sequential_ok(&self) -> u32 {
        let ga = self.a.lock().unwrap_or_else(PoisonError::into_inner);
        let first = *ga;
        drop(ga);
        let gb = self.b.lock().unwrap_or_else(PoisonError::into_inner);
        first + *gb
    }
}
