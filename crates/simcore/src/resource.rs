//! Time-shared resource models.
//!
//! Two queueing primitives cover every piece of hardware the cluster model
//! needs:
//!
//! * [`FifoChannel`] — a serial resource: one user at a time, back-to-back.
//!   Models DMA engines and NPU compute streams, where kernels/copies are
//!   issued in order and each runs alone.
//! * [`SharedLink`] — a processor-sharing resource: concurrent flows split
//!   the capacity equally (max-min fair with equal demands). Models PCIe
//!   links shared by TP ranks and HCCS/RoCE fabric ports carrying multiple
//!   simultaneous transfers. This is where the paper's observed "local
//!   loading time increases with larger TP ranks due to PCIe link sharing"
//!   comes from.

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Identifier for an in-flight flow on a [`SharedLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(u64);

/// A resource that serves one job at a time, in submission order.
#[derive(Debug, Clone)]
pub struct FifoChannel {
    /// Sustained bandwidth, bytes per second.
    bandwidth: f64,
    /// Fixed per-job setup latency.
    latency: SimDuration,
    /// Time the channel becomes free.
    busy_until: SimTime,
}

impl FifoChannel {
    /// Creates a channel with the given bandwidth (bytes/s) and fixed
    /// per-job latency.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not strictly positive and finite.
    pub fn new(bandwidth: f64, latency: SimDuration) -> Self {
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "FifoChannel: bandwidth must be positive and finite, got {bandwidth}"
        );
        FifoChannel {
            bandwidth,
            latency,
            busy_until: SimTime::ZERO,
        }
    }

    /// Duration a `bytes`-sized job occupies the channel (latency + transfer).
    fn service_time(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth)
    }

    /// Enqueues a `bytes`-sized job at time `now`; returns its completion
    /// time. The job starts when the channel frees up.
    pub fn enqueue(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.busy_until.max_of(now);
        let done = start + self.service_time(bytes);
        self.busy_until = done;
        done
    }

    /// Configured bandwidth, bytes per second.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }
}

#[derive(Debug, Clone)]
struct Flow {
    remaining: f64,
}

/// A processor-sharing link: all active flows progress simultaneously at
/// `capacity / n` each.
///
/// Usage is a three-step dance driven by the caller's event loop:
///
/// 1. [`SharedLink::start_flow`] when a transfer begins,
/// 2. [`SharedLink::next_completion`] to learn when the earliest flow ends
///    (schedule an event there),
/// 3. [`SharedLink::advance_to`] when that event fires, which drains progress
///    and returns the flows that finished.
///
/// Starting or finishing a flow changes every other flow's rate, so callers
/// must re-query `next_completion` after any mutation (completion events that
/// were scheduled earlier are then stale; callers detect that by checking the
/// returned completion set).
#[derive(Debug, Clone)]
pub struct SharedLink {
    capacity: f64,
    latency: SimDuration,
    /// In-flight flows. A `BTreeMap` so every iteration (min-remaining
    /// scan, completion drain) runs in `FlowId` order — flow completion
    /// order feeds transfer completion order, which feeds reports.
    flows: BTreeMap<FlowId, Flow>,
    last_update: SimTime,
    next_id: u64,
}

/// Flows smaller than this (in bytes) are considered complete; guards against
/// float residue keeping a flow alive forever.
const COMPLETION_EPSILON: f64 = 0.5;

impl SharedLink {
    /// Creates a link with the given total capacity (bytes/s) and per-flow
    /// setup latency (added to each flow's size as `latency * capacity`
    /// equivalent bytes, so it degrades gracefully under sharing).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn new(capacity: f64, latency: SimDuration) -> Self {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "SharedLink: capacity must be positive and finite, got {capacity}"
        );
        SharedLink {
            capacity,
            latency,
            flows: BTreeMap::new(),
            last_update: SimTime::ZERO,
            next_id: 0,
        }
    }

    /// Total link capacity, bytes per second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of flows currently sharing the link.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Per-flow rate at the current occupancy (bytes/s).
    fn current_rate(&self) -> f64 {
        if self.flows.is_empty() {
            self.capacity
        } else {
            self.capacity / self.flows.len() as f64
        }
    }

    /// Begins a transfer of `bytes` at time `now`; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the link's last update (time went backwards).
    pub fn start_flow(&mut self, now: SimTime, bytes: u64) -> FlowId {
        self.drain_to(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        // Account setup latency as extra bytes at full-capacity rate: a
        // latency of L behaves like L * capacity extra bytes for a lone
        // flow and slightly more under sharing, matching the intuition that
        // setup handshakes also slow down under congestion.
        let effective = bytes as f64 + self.latency.as_secs_f64() * self.capacity;
        self.flows.insert(
            id,
            Flow {
                remaining: effective.max(COMPLETION_EPSILON * 2.0),
            },
        );
        id
    }

    /// The earliest time any active flow completes, given current sharing.
    /// `None` if the link is idle.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        if self.flows.is_empty() {
            return None;
        }
        debug_assert!(now >= self.last_update);
        let rate = self.current_rate();
        let min_remaining = self
            .flows
            .values()
            .map(|f| f.remaining)
            .fold(f64::INFINITY, f64::min);
        // Remaining work at the time of the last drain; the caller passes
        // `now == last_update` in the common case (they just mutated).
        let elapsed = now.since(self.last_update).as_secs_f64();
        let left = (min_remaining - rate * elapsed).max(0.0);
        // Overshoot by one nanosecond: rounding `left / rate` to the nearest
        // nanosecond can land *before* the true completion instant, and an
        // advance_to() at that instant would leave a residue above the
        // completion epsilon — the caller would then spin on the same time
        // forever. One extra nanosecond guarantees progress.
        Some(now + SimDuration::from_secs_f64(left / rate) + SimDuration::from_nanos(1))
    }

    /// Advances the link to `now`, draining progress at the shared rate, and
    /// returns the ids of flows that completed (in id order, for
    /// determinism).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last update.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<FlowId> {
        self.drain_to(now);
        // BTreeMap iteration is already id order — no sort needed.
        let done: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, f)| f.remaining <= COMPLETION_EPSILON)
            .map(|(&id, _)| id)
            .collect();
        for id in &done {
            self.flows.remove(id);
        }
        done
    }

    fn drain_to(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "SharedLink: time went backwards ({now} < {})",
            self.last_update
        );
        if self.flows.is_empty() {
            self.last_update = now;
            return;
        }
        let dt = now.since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            let rate = self.current_rate();
            for f in self.flows.values_mut() {
                f.remaining = (f.remaining - rate * dt).max(0.0);
            }
        }
        self.last_update = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    #[test]
    fn fifo_serializes_jobs() {
        let mut ch = FifoChannel::new(1e9, SimDuration::ZERO); // 1 GB/s
        let t0 = SimTime::ZERO;
        let d1 = ch.enqueue(t0, 1_000_000_000); // 1s
        let d2 = ch.enqueue(t0, 1_000_000_000); // queued behind
        assert_eq!(d1, SimTime::from_secs(1));
        assert_eq!(d2, SimTime::from_secs(2));
        // Enqueue after idle gap starts immediately.
        let d3 = ch.enqueue(SimTime::from_secs(10), 500_000_000);
        assert_eq!(d3, SimTime::from_millis(10_500));
    }

    #[test]
    fn fifo_adds_latency_per_job() {
        let mut ch = FifoChannel::new(1e9, SimDuration::from_millis(5));
        let done = ch.enqueue(SimTime::ZERO, 1_000_000_000);
        assert_eq!(done, SimTime::from_millis(1005));
    }

    #[test]
    fn lone_flow_runs_at_full_capacity() {
        let mut link = SharedLink::new(1e9, SimDuration::ZERO);
        let t0 = SimTime::ZERO;
        link.start_flow(t0, GB);
        let done = link.next_completion(t0).unwrap();
        let expect = GB as f64 / 1e9;
        assert!((done.as_secs_f64() - expect).abs() < 1e-6);
    }

    #[test]
    fn two_flows_halve_the_rate() {
        let mut link = SharedLink::new(1e9, SimDuration::ZERO);
        let t0 = SimTime::ZERO;
        let a = link.start_flow(t0, 1_000_000_000);
        let _b = link.start_flow(t0, 1_000_000_000);
        // Equal flows sharing equally finish together at 2s.
        let done = link.next_completion(t0).unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6, "{done}");
        let finished = link.advance_to(done);
        assert_eq!(finished.len(), 2);
        assert!(finished.contains(&a));
    }

    #[test]
    fn late_joiner_slows_existing_flow() {
        let mut link = SharedLink::new(1e9, SimDuration::ZERO);
        let t0 = SimTime::ZERO;
        let a = link.start_flow(t0, 1_000_000_000); // alone: would finish at 1s
        let t_half = SimTime::from_millis(500);
        let b = link.start_flow(t_half, 1_000_000_000); // joins at 0.5s
                                                        // a has 0.5 GB left, now at 0.5 GB/s => finishes at 1.5s.
        let next = link.next_completion(t_half).unwrap();
        assert!((next.as_secs_f64() - 1.5).abs() < 1e-6, "{next}");
        let done_a = link.advance_to(next);
        assert_eq!(done_a, vec![a]);
        // b alone again: 0.5 GB left at 1 GB/s => finishes at 2.0s.
        let next_b = link.next_completion(next).unwrap();
        assert!((next_b.as_secs_f64() - 2.0).abs() < 1e-6, "{next_b}");
        assert_eq!(link.advance_to(next_b), vec![b]);
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn conservation_of_work() {
        // Total bytes delivered must equal capacity * busy time, regardless
        // of how flows interleave.
        let mut link = SharedLink::new(2e9, SimDuration::ZERO);
        let t0 = SimTime::ZERO;
        link.start_flow(t0, 3 * GB);
        link.start_flow(t0, GB);
        link.start_flow(SimTime::from_millis(200), GB);
        let mut now = SimTime::from_millis(200);
        let mut last_done = SimTime::ZERO;
        while link.active_flows() > 0 {
            let next = link.next_completion(now).unwrap();
            let finished = link.advance_to(next);
            assert!(!finished.is_empty());
            now = next;
            last_done = next;
        }
        let total_bytes = (5 * GB) as f64;
        let busy_secs = last_done.as_secs_f64();
        assert!(
            (busy_secs - total_bytes / 2e9).abs() < 1e-6,
            "busy {busy_secs}, expected {}",
            total_bytes / 2e9
        );
    }

    #[test]
    fn zero_byte_flow_completes_quickly() {
        let mut link = SharedLink::new(1e9, SimDuration::ZERO);
        let id = link.start_flow(SimTime::ZERO, 0);
        let done = link.next_completion(SimTime::ZERO).unwrap();
        assert!(done <= SimTime::from_micros(1));
        assert_eq!(link.advance_to(done), vec![id]);
    }
}
