//! Host DRAM page-cache model for model-weight loading.
//!
//! DeepServe stores weights as safetensors files: tensors live in contiguous
//! blocks that are `mmap`ed and only touch storage on page faults (§6.2).
//! Pre-loading a model therefore means faulting its file into the page
//! cache; a later TE-Load from a "DRAM-hit" streams from DRAM over PCIe,
//! while a "DRAM-miss" faults from SSD.
//!
//! We model residency at *byte-range* granularity per file: each TP rank of
//! an engine maps only its own partition, so a partially resident file
//! yields a mixed hit/miss read — exactly the behaviour that makes
//! safetensors + on-demand partition reads attractive in the paper.

use simcore::IdMap;
use std::collections::BTreeMap;

/// Identifies a weight file (one model checkpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// A half-open byte range `[start, end)` within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteRange {
    pub start: u64,
    pub end: u64,
}

impl ByteRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "ByteRange: start {start} > end {end}");
        ByteRange { start, end }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Residency map for one file: non-overlapping, coalesced resident ranges,
/// keyed by start offset.
#[derive(Debug, Default, Clone)]
struct Residency {
    ranges: BTreeMap<u64, u64>, // start -> end
}

impl Residency {
    /// Bytes of `want` that are resident.
    fn resident_bytes(&self, want: ByteRange) -> u64 {
        let mut hit = 0;
        for (&s, &e) in self.ranges.range(..want.end) {
            if e <= want.start {
                continue;
            }
            let lo = s.max(want.start);
            let hi = e.min(want.end);
            if hi > lo {
                hit += hi - lo;
            }
        }
        hit
    }

    /// Marks `r` resident, coalescing with neighbours. Returns newly
    /// resident bytes (i.e. bytes that were not already cached).
    fn insert(&mut self, r: ByteRange) -> u64 {
        if r.is_empty() {
            return 0;
        }
        let already = self.resident_bytes(r);
        let mut new_start = r.start;
        let mut new_end = r.end;
        // Collect overlapping or adjacent ranges.
        let mut to_remove = Vec::new();
        for (&s, &e) in self.ranges.range(..=new_end) {
            if e >= new_start {
                new_start = new_start.min(s);
                new_end = new_end.max(e);
                to_remove.push(s);
            }
        }
        for s in to_remove {
            self.ranges.remove(&s);
        }
        self.ranges.insert(new_start, new_end);
        r.len() - already
    }

    fn total_bytes(&self) -> u64 {
        self.ranges.iter().map(|(&s, &e)| e - s).sum()
    }
}

/// What a read cost, split by source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadBreakdown {
    /// Bytes served from the DRAM page cache.
    pub hit_bytes: u64,
    /// Bytes faulted in from SSD.
    pub miss_bytes: u64,
}

/// A server's DRAM page cache with LRU eviction at file granularity.
///
/// Eviction granularity is whole files because DeepServe pre-loads and
/// evicts checkpoints as units (the cluster manager predicts "models likely
/// to scale" and pre-loads those models).
#[derive(Debug, Clone)]
pub struct PageCache {
    capacity: u64,
    used: u64,
    files: IdMap<FileId, Residency>,
    /// LRU order: front = least recently used.
    lru: Vec<FileId>,
}

impl PageCache {
    /// Creates a cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        PageCache {
            capacity,
            used: 0,
            files: IdMap::default(),
            lru: Vec::new(),
        }
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes of `range` in `file` currently resident.
    pub fn resident_bytes(&self, file: FileId, range: ByteRange) -> u64 {
        self.files.get(&file).map_or(0, |r| r.resident_bytes(range))
    }

    fn touch(&mut self, file: FileId) {
        if let Some(pos) = self.lru.iter().position(|&f| f == file) {
            self.lru.remove(pos);
        }
        self.lru.push(file);
    }

    /// Evicts least-recently-used files (never `protect`) until `need` bytes
    /// fit. Returns files evicted. If even evicting everything else cannot
    /// make room, admits anyway (the OS would thrash; we saturate).
    fn make_room(&mut self, need: u64, protect: FileId) -> Vec<FileId> {
        let mut evicted = Vec::new();
        let mut i = 0;
        while self.used + need > self.capacity && i < self.lru.len() {
            let victim = self.lru[i];
            if victim == protect {
                i += 1;
                continue;
            }
            self.lru.remove(i);
            if let Some(res) = self.files.remove(&victim) {
                self.used -= res.total_bytes();
            }
            evicted.push(victim);
        }
        evicted
    }

    /// Reads `range` of `file` through the cache: resident bytes hit, the
    /// rest fault from SSD and become resident. Returns the hit/miss split;
    /// the caller prices each source at its own bandwidth.
    pub fn read(&mut self, file: FileId, range: ByteRange) -> ReadBreakdown {
        let hit = self.resident_bytes(file, range);
        let miss = range.len() - hit;
        if miss > 0 {
            self.make_room(miss, file);
            let res = self.files.entry(file).or_default();
            let new_bytes = res.insert(range);
            debug_assert_eq!(new_bytes, miss);
            self.used += new_bytes;
        }
        if !range.is_empty() {
            self.touch(file);
        }
        ReadBreakdown {
            hit_bytes: hit,
            miss_bytes: miss,
        }
    }

    /// Pre-loads `range` of `file` (predictive DRAM pre-loading). Returns
    /// bytes actually faulted in (already-resident bytes are free).
    pub fn preload(&mut self, file: FileId, range: ByteRange) -> u64 {
        self.read(file, range).miss_bytes
    }

    /// Drops a file from the cache entirely (e.g. checkpoint deleted).
    pub fn drop_file(&mut self, file: FileId) {
        if let Some(res) = self.files.remove(&file) {
            self.used -= res.total_bytes();
        }
        self.lru.retain(|&f| f != file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    #[test]
    fn cold_read_is_all_miss_then_hot() {
        let mut pc = PageCache::new(10 * GB);
        let f = FileId(1);
        let r = ByteRange::new(0, 2 * GB);
        let first = pc.read(f, r);
        assert_eq!(first.miss_bytes, 2 * GB);
        assert_eq!(first.hit_bytes, 0);
        let second = pc.read(f, r);
        assert_eq!(second.hit_bytes, 2 * GB);
        assert_eq!(second.miss_bytes, 0);
    }

    #[test]
    fn partial_residency_splits_hit_miss() {
        let mut pc = PageCache::new(10 * GB);
        let f = FileId(1);
        pc.preload(f, ByteRange::new(0, GB));
        let b = pc.read(f, ByteRange::new(0, 2 * GB));
        assert_eq!(b.hit_bytes, GB);
        assert_eq!(b.miss_bytes, GB);
    }

    #[test]
    fn tp_partitions_do_not_interfere() {
        // Two TP ranks read disjoint halves; each only faults its own half.
        let mut pc = PageCache::new(10 * GB);
        let f = FileId(7);
        let rank0 = pc.read(f, ByteRange::new(0, GB));
        assert_eq!(rank0.miss_bytes, GB);
        let rank1 = pc.read(f, ByteRange::new(GB, 2 * GB));
        assert_eq!(rank1.miss_bytes, GB);
        assert_eq!(pc.used(), 2 * GB);
    }

    #[test]
    fn ranges_coalesce() {
        let mut pc = PageCache::new(10 * GB);
        let f = FileId(1);
        pc.preload(f, ByteRange::new(0, GB));
        pc.preload(f, ByteRange::new(GB, 2 * GB));
        assert_eq!(pc.resident_bytes(f, ByteRange::new(0, 2 * GB)), 2 * GB);
        assert_eq!(pc.used(), 2 * GB);
        // Overlapping preload adds only the new part.
        let faulted = pc.preload(f, ByteRange::new(GB / 2, 3 * GB));
        assert_eq!(faulted, GB);
        assert_eq!(pc.used(), 3 * GB);
    }

    #[test]
    fn lru_evicts_cold_files() {
        let mut pc = PageCache::new(3 * GB);
        let (a, b, c) = (FileId(1), FileId(2), FileId(3));
        pc.preload(a, ByteRange::new(0, GB));
        pc.preload(b, ByteRange::new(0, GB));
        pc.preload(c, ByteRange::new(0, GB));
        // Touch `a` so `b` is the LRU victim.
        pc.read(a, ByteRange::new(0, GB));
        pc.preload(FileId(4), ByteRange::new(0, 2 * GB));
        assert_eq!(pc.resident_bytes(b, ByteRange::new(0, GB)), 0);
        assert!(pc.used() <= pc.capacity());
        // `a` survived (it was warmer than b and c).
        assert!(pc.resident_bytes(a, ByteRange::new(0, GB)) > 0);
    }

    #[test]
    fn drop_file_frees_space() {
        let mut pc = PageCache::new(4 * GB);
        pc.preload(FileId(1), ByteRange::new(0, 2 * GB));
        assert_eq!(pc.used(), 2 * GB);
        pc.drop_file(FileId(1));
        assert_eq!(pc.used(), 0);
    }

    #[test]
    fn empty_read_is_free_hit() {
        let mut pc = PageCache::new(GB);
        let b = pc.read(FileId(1), ByteRange::new(5, 5));
        assert_eq!(b.hit_bytes + b.miss_bytes, 0);
    }
}
