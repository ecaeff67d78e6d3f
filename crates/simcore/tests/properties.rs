//! Property-based tests for the simulation kernel's core invariants.

use proptest::prelude::*;
use simcore::{
    Clock, EventQueue, Samples, SharedLink, SimDuration, SimRng, SimTime, CLASS_ARRIVAL,
    CLASS_DEFAULT,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

proptest! {
    /// Events always pop in non-decreasing time order, with FIFO tie-breaks.
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut prev_t = None;
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t >= last_time);
            if prev_t == Some(t) {
                // FIFO tie-break: indices at equal time must be increasing.
                prop_assert!(seen_at_time.last().copied().unwrap() < idx);
                seen_at_time.push(idx);
            } else {
                seen_at_time.clear();
                seen_at_time.push(idx);
            }
            prev_t = Some(t);
            last_time = t;
        }
    }

    /// The two-lane queue pops exactly like one heap keyed
    /// `(time, class, seq)`, and its horizon is the earliest pending event
    /// not pushed to the local lane.
    #[test]
    fn event_queue_lanes_match_one_heap(ops in prop::collection::vec((0u8..5, 0u64..32), 1..300)) {
        let mut q = EventQueue::new();
        let mut reference = BinaryHeap::new();
        // Pending non-local events as (time, seq).
        let mut shadow: Vec<(SimTime, u64)> = Vec::new();
        let mut seq = 0u64;
        for (op, t) in ops {
            let t = SimTime::from_nanos(t);
            match op {
                0 | 1 => {
                    let class = if op == 0 { CLASS_DEFAULT } else { CLASS_ARRIVAL };
                    q.push_class(t, class, seq);
                    reference.push(Reverse((t, class, seq)));
                    shadow.push((t, seq));
                    seq += 1;
                }
                2 => {
                    q.push_local(t, seq);
                    reference.push(Reverse((t, CLASS_DEFAULT, seq)));
                    seq += 1;
                }
                _ => {
                    let want = reference.pop().map(|Reverse((t, _, s))| (t, s));
                    prop_assert_eq!(q.pop(), want);
                    if let Some((_, s)) = want {
                        shadow.retain(|&(_, x)| x != s);
                    }
                }
            }
            prop_assert_eq!(q.peek_time(), reference.peek().map(|Reverse(k)| k.0));
            prop_assert_eq!(q.horizon(), shadow.iter().map(|&(t, _)| t).min());
            prop_assert_eq!(q.len(), reference.len());
        }
    }

    /// The clock never moves backwards no matter the schedule order.
    #[test]
    fn clock_is_monotone(delays in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let mut c: Clock<usize> = Clock::new();
        for (i, &d) in delays.iter().enumerate() {
            c.schedule(c.now() + SimDuration::from_nanos(d), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = c.next() {
            prop_assert!(t >= last);
            prop_assert_eq!(c.now(), t);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, delays.len());
    }

    /// Percentiles are order statistics: p0 = min, p100 = max, monotone in q.
    #[test]
    fn percentiles_are_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..500)) {
        let mut s = Samples::new();
        for &v in &values {
            s.record(v);
        }
        let p0 = s.percentile(0.0).unwrap();
        let p50 = s.percentile(0.5).unwrap();
        let p100 = s.percentile(1.0).unwrap();
        prop_assert!(p0 <= p50 && p50 <= p100);
        prop_assert_eq!(p0, s.min().unwrap());
        prop_assert_eq!(p100, s.max().unwrap());
    }

    /// Work conservation on a shared link: total busy time equals total
    /// bytes / capacity when the link is never idle between flows.
    #[test]
    fn shared_link_conserves_work(
        sizes in prop::collection::vec(1u64..5_000_000_000, 1..20),
        cap_gbps in 1u64..100,
    ) {
        let capacity = cap_gbps as f64 * 1e9;
        let mut link = SharedLink::new(capacity, SimDuration::ZERO);
        let t0 = SimTime::ZERO;
        for &s in &sizes {
            link.start_flow(t0, s);
        }
        let mut now = t0;
        let mut completions = 0usize;
        while link.active_flows() > 0 {
            let next = link.next_completion(now).unwrap();
            prop_assert!(next >= now);
            let done = link.advance_to(next);
            completions += done.len();
            now = next;
        }
        prop_assert_eq!(completions, sizes.len());
        let total: u64 = sizes.iter().sum();
        let expect = total as f64 / capacity;
        let got = now.as_secs_f64();
        // Allow a tiny epsilon per flow for the completion threshold.
        prop_assert!((got - expect).abs() < 1e-5 * sizes.len() as f64 + 1e-6,
            "busy {got}, expected {expect}");
    }

    /// Identical seeds give identical draws across all distributions.
    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..20 {
            prop_assert_eq!(a.f64(), b.f64());
            prop_assert_eq!(a.exp(1.5), b.exp(1.5));
            prop_assert_eq!(a.gaussian(), b.gaussian());
            prop_assert_eq!(a.zipf(10, 1.2), b.zipf(10, 1.2));
        }
    }

    /// lognormal_mean_cv always returns positive, finite values.
    #[test]
    fn lognormal_is_positive(seed in any::<u64>(), mean in 1.0f64..1e6, cv in 0.0f64..3.0) {
        let mut r = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            let v = r.lognormal_mean_cv(mean, cv);
            prop_assert!(v > 0.0 && v.is_finite());
        }
    }
}
