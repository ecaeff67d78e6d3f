//! Core-level tests for the live-ingress API (`enable_live_ingress` /
//! `submit_live` / `step_until`) the gateway's serve loop relies on.

use deepserve::{ApiRequest, ClusterConfig, ClusterSim, LiveEvent, TeRole};
use flowserve::{synthetic_tokens, CacheId};
use simcore::{SimDuration, SimTime};

fn sim() -> ClusterSim {
    ClusterSim::new(
        ClusterConfig::standard_34b(),
        &[TeRole::Colocated, TeRole::Colocated],
    )
}

fn req(id: u64, at: SimTime) -> ApiRequest {
    ApiRequest::chat(id, synthetic_tokens(id, 96, 64_000), 4, at)
}

#[test]
fn live_arrivals_are_bumped_monotonic_and_recorded() {
    let mut s = sim();
    s.enable_live_ingress();
    // Three submissions claiming the same instant: each must land on its
    // own, strictly later nanosecond.
    let t0 = SimTime::ZERO + SimDuration::from_millis(5);
    let a = s.submit_live(req(1, t0));
    let b = s.submit_live(req(2, t0));
    let c = s.submit_live(req(3, t0));
    assert!(a < b && b < c, "arrivals must be strictly increasing");

    let log = s.ingress_log().to_vec();
    assert_eq!(log.len(), 3);
    assert_eq!(
        log.iter().map(|r| r.id).collect::<Vec<_>>(),
        vec![1, 2, 3],
        "ingress log keeps submission order"
    );
    for (rec, at) in log.iter().zip([a, b, c]) {
        assert_eq!(
            rec.arrival_ns,
            at.as_nanos(),
            "log records the bumped stamp"
        );
    }
}

#[test]
fn step_until_only_advances_to_the_pace_limit() {
    let mut s = sim();
    s.enable_live_ingress();
    s.submit_live(req(1, SimTime::ZERO + SimDuration::from_millis(1)));
    s.submit_live(req(2, SimTime::ZERO + SimDuration::from_secs(30)));

    let limit = SimTime::ZERO + SimDuration::from_secs(5);
    let next = s.step_until(limit);
    // Request 1 (arrival + full decode) fits well inside 5 s; request 2
    // has not even arrived, so the next pending event is its arrival.
    let next = next.expect("request 2 still pending");
    assert!(next > limit, "no event at or before the limit may remain");
    assert_eq!(next, SimTime::ZERO + SimDuration::from_secs(30));

    let events = s.take_live_events();
    let finished: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            LiveEvent::Finished { id, .. } => Some(id.0),
            _ => None,
        })
        .collect();
    assert_eq!(finished, vec![1], "only request 1 can finish by 5 s");

    // Draining the rest completes request 2 as well.
    let mut report = s.run_to_completion();
    assert_eq!(report.latency.completed(), 2);
    let _ = report.to_json();
}

#[test]
fn live_run_report_matches_injected_replay() {
    // Live path: submissions trickle in while the sim steps.
    let mut live = sim();
    live.enable_live_ingress();
    live.submit_live(req(1, SimTime::ZERO));
    live.step_until(SimTime::ZERO + SimDuration::from_secs(2));
    let mut r2 = req(2, SimTime::ZERO + SimDuration::from_secs(1));
    r2.cache_id = Some(CacheId(9));
    live.submit_live(r2);
    live.step_until(SimTime::ZERO + SimDuration::from_secs(4));
    let log = live.ingress_log().to_vec();
    let live_json = live.run_to_completion().to_json().to_json();

    // Replay path: the recorded log injected into a fresh sim up front.
    let mut replay = sim();
    replay.inject(log.iter().map(|r| r.to_request()).collect());
    let replay_json = replay.run_to_completion().to_json().to_json();
    assert_eq!(
        live_json, replay_json,
        "live and replay must be byte-identical"
    );
}

#[test]
fn arrival_on_a_pending_event_instant_keeps_its_stamp() {
    for ff in [true, false] {
        let mut live = sim();
        live.set_fast_forward(ff);
        live.enable_live_ingress();
        live.submit_live(req(1, SimTime::ZERO));
        // Stop while request 1 is still running: the next pending event is
        // its engine wake, not an arrival.
        live.step_until(SimTime::ZERO + SimDuration::from_millis(1));
        let busy = live.next_event_time().expect("request 1 still running");
        // An arrival requested on that very instant keeps it: the arrival
        // class settles the tie, so there is no reason to move the stamp.
        let at = live.submit_live(req(2, busy));
        assert_eq!(at, busy, "ff={ff}: stamp must not be nudged");
        let log = live.ingress_log().to_vec();
        let live_json = live.run_to_completion().to_json().to_json();

        let mut replay = sim();
        replay.set_fast_forward(ff);
        replay.inject(log.iter().map(|r| r.to_request()).collect());
        let replay_json = replay.run_to_completion().to_json().to_json();
        assert_eq!(
            live_json, replay_json,
            "ff={ff}: live and replay must be byte-identical"
        );
    }
}

#[test]
fn token_events_cover_the_decode_stream() {
    let mut s = sim();
    s.enable_live_ingress();
    s.set_token_events(true);
    s.submit_live(req(1, SimTime::ZERO));
    let mut report = s.run_to_completion();
    assert_eq!(report.latency.completed(), 1);

    let events = s.take_live_events();
    let mut first = 0u64;
    let mut streamed = 0u64;
    let mut finished_total = 0u64;
    for ev in &events {
        match *ev {
            LiveEvent::FirstToken { .. } => first += 1,
            LiveEvent::Tokens { n, .. } => streamed += u64::from(n),
            LiveEvent::Finished { output_tokens, .. } => finished_total = output_tokens,
            LiveEvent::Failed { .. } => panic!("unexpected failure"),
        }
    }
    assert_eq!(first, 1, "exactly one first-token event");
    assert_eq!(finished_total, 4);
    assert!(
        first + streamed >= finished_total,
        "token events must cover all {finished_total} outputs, saw {streamed}+{first}"
    );
    let _ = report.to_json();
}
