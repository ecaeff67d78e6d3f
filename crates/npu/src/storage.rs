//! Four-tier checkpoint storage hierarchy: HBM ← DRAM ← local SSD ← remote.
//!
//! ServerlessLLM's observation (PAPERS.md) is that serverless cold starts
//! are dominated by where the checkpoint *is*, not by the model itself:
//! a weight file already staged in host DRAM loads over PCIe in seconds,
//! one on the local SSD pays the NVMe read, and one that only exists in
//! the remote model store pays a WAN-ish pull before any local tier can
//! serve it. This module models that chain per server, deterministically:
//!
//! * **DRAM** reuses [`crate::pagecache::PageCache`] (byte-range residency,
//!   whole-file LRU) — the same structure the DRAM-hit/miss scaling paths
//!   already price.
//! * **SSD** is a whole-file resident set with capacity and deterministic
//!   LRU eviction (insertion/touch order only; no clocks, no hashes).
//! * **Remote** holds everything, always — the tier of last resort.
//! * **HBM** residency is tracked by the fleet layer above (weights pinned
//!   on a TE); this module prices everything up to "bytes in DRAM".
//!
//! [`ServerStore::fault_in`] is the single mutating entry point: it
//! reports how many bytes each tier must move to make a range
//! DRAM-resident, updates residency (remote → SSD → DRAM), and
//! [`fault_time`] turns that breakdown into sim time.

use crate::pagecache::{ByteRange, FileId, PageCache};
use crate::specs::ServerSpec;
use serde::{Number, Serialize, Value};
use simcore::{IdMap, SimDuration};

/// A storage tier in the checkpoint hierarchy, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// On-device weights (already loaded on a TE).
    Hbm,
    /// Host DRAM page cache.
    Dram,
    /// Local NVMe SSD.
    Ssd,
    /// The remote model store (object storage / registry).
    Remote,
}

impl Tier {
    /// Stable lowercase label (metric keys, JSON, trace attrs).
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Hbm => "hbm",
            Tier::Dram => "dram",
            Tier::Ssd => "ssd",
            Tier::Remote => "remote",
        }
    }

    /// Locality rank for placement: lower is closer (HBM = 0).
    pub fn rank(self) -> u8 {
        match self {
            Tier::Hbm => 0,
            Tier::Dram => 1,
            Tier::Ssd => 2,
            Tier::Remote => 3,
        }
    }
}

impl Serialize for Tier {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

/// The remote model store's link, shared by every server.
#[derive(Debug, Clone, Copy)]
pub struct RemoteStoreSpec {
    /// Sustained pull bandwidth per server, bytes/s.
    pub bandwidth: f64,
    /// Fixed per-pull latency (control plane + first byte).
    pub latency: SimDuration,
}

impl Default for RemoteStoreSpec {
    fn default() -> Self {
        // A 100 Gb/s storage frontend shared across tenants: ~5 GB/s
        // effective per server, tens of ms to first byte.
        RemoteStoreSpec {
            bandwidth: 5.0e9,
            latency: SimDuration::from_millis(20),
        }
    }
}

/// Whole-file SSD resident set with deterministic LRU eviction.
///
/// detlint note: the byte-count map is point-lookup only (never
/// iterated); LRU order lives in the `lru` vector.
#[derive(Debug, Clone)]
struct SsdStore {
    capacity: u64,
    used: u64,
    bytes: IdMap<FileId, u64>,
    /// Least-recently-used first.
    lru: Vec<FileId>,
}

impl SsdStore {
    fn new(capacity: u64) -> Self {
        SsdStore {
            capacity,
            used: 0,
            bytes: IdMap::default(),
            lru: Vec::new(),
        }
    }

    fn contains(&self, file: FileId) -> bool {
        self.bytes.contains_key(&file)
    }

    fn touch(&mut self, file: FileId) {
        if let Some(pos) = self.lru.iter().position(|&f| f == file) {
            let f = self.lru.remove(pos);
            self.lru.push(f);
        }
    }

    /// Admits `file` (whole-file granularity), evicting LRU files as
    /// needed. Returns the evicted files, oldest first. A file larger
    /// than the whole SSD is not admitted.
    fn admit(&mut self, file: FileId, size: u64) -> Vec<FileId> {
        if self.contains(file) {
            self.touch(file);
            return Vec::new();
        }
        if size > self.capacity {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used + size > self.capacity {
            let Some(victim) = self.lru.first().copied() else {
                break;
            };
            self.lru.remove(0);
            if let Some(b) = self.bytes.remove(&victim) {
                self.used -= b;
            }
            evicted.push(victim);
        }
        self.bytes.insert(file, size);
        self.used += size;
        self.lru.push(file);
        evicted
    }
}

/// How a [`ServerStore::fault_in`] satisfied a range: bytes moved per
/// hierarchy link, plus the deepest tier that had to participate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBreakdown {
    /// Deepest tier touched (DRAM if everything was already resident).
    pub source: Tier,
    /// Bytes already DRAM-resident (no movement).
    pub dram_hit_bytes: u64,
    /// Bytes read SSD → DRAM.
    pub ssd_bytes: u64,
    /// Bytes pulled remote → SSD (then SSD → DRAM).
    pub remote_bytes: u64,
}

impl FaultBreakdown {
    /// Total bytes the caller asked to fault in.
    pub fn total_bytes(&self) -> u64 {
        self.dram_hit_bytes + self.ssd_bytes + self.remote_bytes
    }
}

impl Serialize for FaultBreakdown {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("source".to_string(), self.source.to_value()),
            (
                "dram_hit_bytes".to_string(),
                Value::Number(Number::U64(self.dram_hit_bytes)),
            ),
            (
                "ssd_bytes".to_string(),
                Value::Number(Number::U64(self.ssd_bytes)),
            ),
            (
                "remote_bytes".to_string(),
                Value::Number(Number::U64(self.remote_bytes)),
            ),
        ])
    }
}

/// Per-server storage hierarchy below HBM: DRAM page cache over an SSD
/// resident set over the (infinite) remote store.
#[derive(Debug, Clone)]
pub struct ServerStore {
    dram: PageCache,
    ssd: SsdStore,
}

impl ServerStore {
    /// A store sized from the server spec: the whole DRAM is page cache,
    /// the whole SSD is checkpoint cache.
    pub fn for_server(server: &ServerSpec) -> Self {
        ServerStore {
            dram: PageCache::new(server.dram_bytes),
            ssd: SsdStore::new(server.ssd_bytes),
        }
    }

    /// The closest tier that can serve `range` of `file` right now,
    /// without mutating residency. DRAM counts when at least half the
    /// range is cached (partial residency still pays most of the SSD
    /// read, so it does not rank as a DRAM hit).
    pub fn locate(&self, file: FileId, range: ByteRange) -> Tier {
        let resident = self.dram.resident_bytes(file, range);
        if !range.is_empty() && resident * 2 >= range.len() {
            return Tier::Dram;
        }
        if self.ssd.contains(file) {
            return Tier::Ssd;
        }
        Tier::Remote
    }

    /// Makes `range` of `file` DRAM-resident, pulling through the
    /// hierarchy, and reports the bytes each link moved. `file_size` is
    /// the whole file's size (SSD admission is whole-file). Mutates LRU
    /// state on every tier, so call order matters — callers must invoke
    /// this from deterministic event order only.
    pub fn fault_in(&mut self, file: FileId, range: ByteRange, file_size: u64) -> FaultBreakdown {
        let from_remote = if self.ssd.contains(file) {
            self.ssd.touch(file);
            0
        } else {
            // Whole-file pull into SSD; evicted victims also leave DRAM so
            // the tiers never disagree about what is local.
            for victim in self.ssd.admit(file, file_size) {
                self.dram.drop_file(victim);
            }
            file_size
        };
        let read = self.dram.read(file, range);
        let ssd_to_dram = read.miss_bytes;
        // The remote pull covers the whole file; the DRAM read only the
        // requested range. Bytes that came over the WAN and were then read
        // up count once per link, which is exactly what the time model
        // charges.
        let source = if from_remote > 0 {
            Tier::Remote
        } else if ssd_to_dram > 0 {
            Tier::Ssd
        } else {
            Tier::Dram
        };
        FaultBreakdown {
            source,
            dram_hit_bytes: read.hit_bytes,
            ssd_bytes: ssd_to_dram.saturating_sub(from_remote.min(ssd_to_dram)),
            remote_bytes: from_remote,
        }
    }

    /// Pre-stages `file` onto the SSD only.
    pub fn prime_ssd(&mut self, file: FileId, file_size: u64) {
        for victim in self.ssd.admit(file, file_size) {
            self.dram.drop_file(victim);
        }
    }
}

/// Time to execute a [`FaultBreakdown`] on `server`'s hardware: the
/// remote pull (latency + bytes over the shared frontend), then the SSD
/// read of every non-DRAM-resident byte. The links are used in sequence
/// — the remote object must land on SSD before NVMe can stream it up —
/// which matches ServerlessLLM's chained-loading model and keeps the
/// cost monotone in tier depth.
pub fn fault_time(b: FaultBreakdown, server: &ServerSpec, remote: &RemoteStoreSpec) -> SimDuration {
    let mut t = SimDuration::ZERO;
    if b.remote_bytes > 0 {
        t += remote.latency + SimDuration::from_secs_f64(b.remote_bytes as f64 / remote.bandwidth);
    }
    let ssd_read = b.remote_bytes + b.ssd_bytes;
    if ssd_read > 0 {
        t += SimDuration::from_secs_f64(ssd_read as f64 / server.ssd_bw);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::ClusterSpec;

    const GB: u64 = 1_000_000_000;

    fn server() -> ServerSpec {
        ClusterSpec::gen2_cluster(1).server
    }

    fn store(dram_bytes: u64, ssd_bytes: u64) -> ServerStore {
        ServerStore {
            dram: PageCache::new(dram_bytes),
            ssd: SsdStore::new(ssd_bytes),
        }
    }

    #[test]
    fn cold_file_faults_from_remote_then_is_ssd_then_dram_resident() {
        let mut s = store(64 * GB, 256 * GB);
        let f = FileId(7);
        let r = ByteRange::new(0, 8 * GB);
        assert_eq!(s.locate(f, r), Tier::Remote);

        let b1 = s.fault_in(f, r, 8 * GB);
        assert_eq!(b1.source, Tier::Remote);
        assert_eq!(b1.remote_bytes, 8 * GB);
        assert_eq!(b1.dram_hit_bytes, 0);

        // Second fault: everything is DRAM-resident.
        let b2 = s.fault_in(f, r, 8 * GB);
        assert_eq!(b2.source, Tier::Dram);
        assert_eq!(b2.dram_hit_bytes, 8 * GB);
        assert_eq!(b2.total_bytes(), 8 * GB);
        assert_eq!(s.locate(f, r), Tier::Dram);
    }

    #[test]
    fn dram_eviction_falls_back_to_ssd_tier() {
        // DRAM fits one file, SSD fits both.
        let mut s = store(10 * GB, 100 * GB);
        let (a, b) = (FileId(1), FileId(2));
        let r = ByteRange::new(0, 8 * GB);
        s.fault_in(a, r, 8 * GB);
        s.fault_in(b, r, 8 * GB); // evicts `a` from DRAM, not from SSD
        assert_eq!(s.locate(a, r), Tier::Ssd);
        let back = s.fault_in(a, r, 8 * GB);
        assert_eq!(back.source, Tier::Ssd);
        assert_eq!(back.remote_bytes, 0);
        assert_eq!(back.ssd_bytes, 8 * GB);
    }

    #[test]
    fn ssd_eviction_is_lru_and_drops_dram_too() {
        // SSD fits two 8 GB files; the third evicts the least recent.
        let mut s = store(64 * GB, 16 * GB);
        let r = ByteRange::new(0, 8 * GB);
        s.fault_in(FileId(1), r, 8 * GB);
        s.fault_in(FileId(2), r, 8 * GB);
        s.fault_in(FileId(1), r, 8 * GB); // touch 1 → 2 is now LRU
        s.fault_in(FileId(3), r, 8 * GB); // evicts 2
        assert!(s.ssd.contains(FileId(1)));
        assert!(!s.ssd.contains(FileId(2)));
        assert!(s.ssd.contains(FileId(3)));
        assert_eq!(s.locate(FileId(2), r), Tier::Remote);
        assert_eq!(s.dram.resident_bytes(FileId(2), r), 0, "coherent with SSD");
    }

    #[test]
    fn fault_time_is_monotone_in_tier_depth() {
        let sv = server();
        let remote = RemoteStoreSpec::default();
        let size = 8 * GB;
        let hit = FaultBreakdown {
            source: Tier::Dram,
            dram_hit_bytes: size,
            ssd_bytes: 0,
            remote_bytes: 0,
        };
        let ssd = FaultBreakdown {
            source: Tier::Ssd,
            dram_hit_bytes: 0,
            ssd_bytes: size,
            remote_bytes: 0,
        };
        let rem = FaultBreakdown {
            source: Tier::Remote,
            dram_hit_bytes: 0,
            ssd_bytes: 0,
            remote_bytes: size,
        };
        let t_hit = fault_time(hit, &sv, &remote);
        let t_ssd = fault_time(ssd, &sv, &remote);
        let t_rem = fault_time(rem, &sv, &remote);
        assert_eq!(t_hit, SimDuration::ZERO);
        assert!(t_ssd > t_hit);
        assert!(t_rem > t_ssd, "remote pays WAN + the same SSD read");
    }

    #[test]
    fn locate_ranks_follow_tier_order() {
        assert!(Tier::Hbm.rank() < Tier::Dram.rank());
        assert!(Tier::Dram.rank() < Tier::Ssd.rank());
        assert!(Tier::Ssd.rank() < Tier::Remote.rank());
        assert_eq!(Tier::Remote.as_str(), "remote");
    }

    #[test]
    fn oversized_file_is_never_admitted_to_ssd() {
        let mut s = store(64 * GB, 4 * GB);
        let r = ByteRange::new(0, 8 * GB);
        let b = s.fault_in(FileId(9), r, 8 * GB);
        // Streams straight through: remote each time, no SSD residency.
        assert_eq!(b.source, Tier::Remote);
        assert!(!s.ssd.contains(FileId(9)));
    }
}
