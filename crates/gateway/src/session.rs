//! Session layer: maps caller identities to RTC context-cache ids.
//!
//! A multi-turn conversation resends its growing transcript as the prompt.
//! The engine's radix tree already shares any common token prefix, but the
//! platform's explicit context-cache path ([`flowserve::CacheId`]) lets a
//! session *pin* its prefix KV: the session layer hands every request from
//! the same session the same cache id, so turn N's prefill registers the
//! chain that turn N+1 reuses (§5.2's global prompt tree / RTC pairing).
//!
//! A session key is whatever the client offers, in priority order: the
//! `session` field of the request JSON, else the `Authorization` header
//! (API key), else no session (anonymous requests still benefit from
//! implicit radix-prefix sharing, they just never pin).
//!
//! The table is bounded: a long-lived gateway sees an unbounded stream of
//! API keys, so sessions are capped with deterministic LRU eviction (the
//! recency order is an explicit vector, never hash-map iteration). An
//! evicted session that comes back gets a *fresh* cache id — its pinned
//! prefix is gone, and resurrecting the old id would alias another
//! session's KV.

/// Default cap on live sessions ([`SessionTable::new`]).
pub const DEFAULT_SESSION_CAPACITY: usize = 1024;

/// Allocates stable per-session cache ids, LRU-capped.
///
/// detlint note: the map is point-lookup only (never iterated); eviction
/// order comes from the `recency` vector.
#[derive(Debug)]
pub struct SessionTable {
    // detlint: allow(std-hasher) — keys are client-chosen strings: std's seeded SipHash resists hash flooding, a seedless id hasher would not
    ids: std::collections::HashMap<String, u64>,
    /// Keys from coldest (front) to hottest (back).
    recency: Vec<String>,
    capacity: usize,
    next: u64,
}

impl Default for SessionTable {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionTable {
    /// An empty table with the default capacity; cache ids are handed out
    /// sequentially from 1.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SESSION_CAPACITY)
    }

    /// An empty table evicting beyond `capacity` sessions (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        SessionTable {
            ids: Default::default(),
            recency: Vec::new(),
            capacity: capacity.max(1),
            next: 1,
        }
    }

    /// The cache id for `key`, allocating one on first sight (and evicting
    /// the least-recently-used session at capacity). Ids are never reused:
    /// an evicted key seen again gets a new id, because its pinned prefix
    /// KV died with the old one.
    pub fn cache_id(&mut self, key: &str) -> u64 {
        if let Some(&id) = self.ids.get(key) {
            self.touch(key);
            return id;
        }
        if self.ids.len() >= self.capacity {
            // Coldest first; `recency` and `ids` shrink together.
            let victim = self.recency.remove(0);
            self.ids.remove(&victim);
        }
        let id = self.next;
        self.next += 1;
        self.ids.insert(key.to_string(), id);
        self.recency.push(key.to_string());
        id
    }

    fn touch(&mut self, key: &str) {
        if let Some(pos) = self.recency.iter().position(|k| k == key) {
            let k = self.recency.remove(pos);
            self.recency.push(k);
        }
    }

    /// Number of live (non-evicted) sessions.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no session is live.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_id_distinct_keys_distinct_ids() {
        let mut t = SessionTable::new();
        let a = t.cache_id("alice");
        let b = t.cache_id("bob");
        assert_ne!(a, b);
        assert_eq!(t.cache_id("alice"), a);
        assert_eq!(t.cache_id("bob"), b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn capacity_evicts_lru_and_evicted_keys_get_fresh_ids() {
        let mut t = SessionTable::with_capacity(2);
        let a = t.cache_id("alice");
        let b = t.cache_id("bob");
        // Touch alice so bob is the LRU victim when carol arrives.
        assert_eq!(t.cache_id("alice"), a);
        let c = t.cache_id("carol");
        assert_eq!(t.len(), 2, "capacity must hold");
        // Alice survived (recently used); her pinned id is intact.
        assert_eq!(t.cache_id("alice"), a);
        // Bob was evicted: his pinned prefix is gone, so re-seeing the key
        // must mint a NEW id, never resurrect the old one.
        let b2 = t.cache_id("bob");
        assert_ne!(b2, b, "evicted session must lose its pinned cache id");
        assert!(b2 > c, "ids are never reused");
    }

    #[test]
    fn eviction_order_is_deterministic() {
        // Same access sequence -> same evictions -> same ids, every run.
        let run = || {
            let mut t = SessionTable::with_capacity(3);
            let keys = ["a", "b", "c", "d", "b", "e", "a", "f", "c"];
            keys.iter().map(|k| t.cache_id(k)).collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }
}
