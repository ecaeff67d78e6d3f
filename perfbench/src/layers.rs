//! Layer replays: each layer's public functions driven directly with the
//! workload's own inputs, one span per call. These give the per-layer
//! timings; the counts they produce are checked against the program's own
//! counters in the benchmark's tests.

use crate::spec::Workload;
use crate::trace::Recorder;
use deepserve::{
    ApiRequest, DecodePredictor, FixedAccuracy, IngressRecord, JobExecutor, Oracle, SchedPool,
    Target, TeId, TeRole, TeSnapshot,
};
use flowserve::{
    BufferInfo, DistFlow, Engine, EngineConfig, EngineMode, MemTier, NewRequest, Pacing, Rtc,
    RtcConfig,
};
use llm_model::ExecCostModel;
use npu::{Fabric, NpuId};
use simcore::{EventQueue, SimDuration, SimRng, SimTime, CLASS_DEFAULT};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Prompts the RTC replay keeps feeding after its first swap-out.
pub const RTC_POST_FILL: usize = 64;

fn cost_model(w: &Workload) -> ExecCostModel {
    let cfg = w.config();
    ExecCostModel::new(
        cfg.cluster.server.chip.clone(),
        cfg.cluster.hccs,
        cfg.model.clone(),
        cfg.parallelism,
    )
}

/// The requests the single-TE replays see: TE 0's round-robin share.
pub fn te0_share(w: &Workload) -> Vec<ApiRequest> {
    w.stream()
        .enumerate()
        .filter(|(i, _)| w.share_of(*i) == 0)
        .map(|(_, r)| r)
        .collect()
}

/// Result of the JE replay.
#[derive(Debug, Default)]
pub struct JeReplay {
    /// `schedule` calls made (one per arrival).
    pub decisions: u64,
    /// Host µs per `schedule` call.
    pub schedule_us: Vec<f64>,
}

/// Replays every arrival through `JobExecutor::schedule` on a `SchedPool`
/// of the workload's TEs, rebuilt per arrival as the cluster does. Loads
/// follow a synthetic service model (50 µs per prompt token plus 30 ms per
/// output token) because no engines run here.
pub fn je(w: &Workload, rec: &mut Recorder) -> JeReplay {
    let cfg = w.config();
    let predictor: Box<dyn DecodePredictor> = match cfg.predictor_accuracy {
        None => Box::new(Oracle),
        Some(a) => Box::new(FixedAccuracy::new(a, cfg.seed ^ 0x9e37)),
    };
    let mut je = JobExecutor::new(
        cfg.policy,
        cfg.heatmap.clone(),
        predictor,
        cfg.engine.block_size,
    );
    let colocated: Vec<TeId> = (0..w.tes())
        .filter(|&i| w.roles[i] == TeRole::Colocated)
        .map(|i| TeId(i as u32))
        .collect();
    let pairs = pairs_of(&w.roles);
    let mut loads = vec![0usize; w.tes()];
    let mut busy: BinaryHeap<Reverse<(SimTime, u32)>> = BinaryHeap::new();
    let mut out = JeReplay::default();
    for req in w.stream() {
        let now = req.arrival;
        while busy.peek().is_some_and(|Reverse((t, _))| *t <= now) {
            if let Some(Reverse((_, te))) = busy.pop() {
                loads[te as usize] -= 1;
            }
        }
        let pool = SchedPool {
            colocated: colocated.clone(),
            pairs: pairs.clone(),
            loads: (0..w.tes())
                .map(|i| (TeId(i as u32), TeSnapshot { load: loads[i] }))
                .collect::<HashMap<_, _>>(),
        };
        let span = rec.begin_req("je.schedule", Some(req.id.0));
        let d = je.schedule(now, &req, &pool);
        out.schedule_us.push(rec.end(span) as f64 * 1e-3);
        out.decisions += 1;
        let service = SimDuration::from_micros(50 * req.prompt.len() as u64)
            + SimDuration::from_millis(30 * u64::from(req.target_output));
        let (tes, is_prefill) = match d.target {
            Target::Colocated(t) => (vec![t], false),
            Target::Disaggregated { prefill, decode } => (vec![prefill, decode], true),
        };
        for t in &tes {
            loads[t.0 as usize] += 1;
            busy.push(Reverse((now + service, t.0)));
        }
        je.note_cached(now, d.target.locality_te(), is_prefill, &req.prompt);
    }
    out
}

/// Prefill/decode pairs in the cluster's order: each prefill TE with the
/// decode TEs taken round robin.
pub fn pairs_of(roles: &[TeRole]) -> Vec<(TeId, TeId)> {
    let of = |role| {
        roles
            .iter()
            .enumerate()
            .filter(move |(_, r)| **r == role)
            .map(|(i, _)| TeId(i as u32))
            .collect::<Vec<_>>()
    };
    let (p, d) = (of(TeRole::Prefill), of(TeRole::Decode));
    p.iter()
        .enumerate()
        .map(|(i, &pt)| (pt, d[i % d.len()]))
        .collect()
}

/// Host ns per `EventQueue` operation when `events` pops (each followed
/// by a push) run over a queue with one pending event per shard, sharded
/// like the cluster's (one shard per TE plus one).
pub fn event_queue(w: &Workload, events: u64, rec: &mut Recorder) -> f64 {
    let shards = w.tes() + 1;
    let mut rng = SimRng::seed_from_u64(w.seed ^ 0xE7E7);
    let mut q: EventQueue<u32> = EventQueue::new();
    let gap = |rng: &mut SimRng| SimDuration::from_secs_f64(rng.exp(1.0 / 0.03));
    for s in 0..shards {
        q.push_sharded(s, SimTime::ZERO + gap(&mut rng), CLASS_DEFAULT, s as u32);
    }
    let events = events.max(1);
    let span = rec.begin("event.push_pop");
    for _ in 0..events {
        let Some((t, s)) = q.pop() else { break };
        q.push_sharded(s as usize, t + gap(&mut rng), CLASS_DEFAULT, s);
    }
    let ns = rec.end_with(span, vec![("ops", 2.0 * events as f64)]);
    ns as f64 / (2.0 * events as f64)
}

/// Result of the engine replay.
#[derive(Debug, Default)]
pub struct EngineReplay {
    /// Host µs per `advance_paced` call.
    pub advance_us: Vec<f64>,
    /// Logical iterations executed.
    pub iterations: u64,
    /// Iterations absorbed by fast-forward.
    pub ff_iterations: u64,
    /// Requests submitted.
    pub submitted: u64,
    /// `(running sequences, mean context tokens)` after each advance that
    /// left work running: the batch shapes the cost replay prices.
    pub batches: Vec<(u64, u64)>,
}

/// Drives one colocated `Engine` with TE 0's share of the requests via
/// `submit` + `advance_paced` (fast-forward bounded by the next arrival or
/// populate), pricing populates at the engine's populate bandwidth.
pub fn engine(w: &Workload, rec: &mut Recorder) -> EngineReplay {
    let cfg = w.config();
    let ecfg = EngineConfig {
        mode: EngineMode::Colocated,
        ..cfg.engine.clone()
    };
    let kv_bytes = cfg.model.kv_bytes_per_token() as f64;
    let bw = ecfg.populate_bandwidth;
    let mut eng = Engine::new(ecfg, cost_model(w));
    let arrivals = te0_share(w);
    let mut next = 0usize;
    let mut populates: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
    let mut events = Vec::new();
    let mut now = SimTime::ZERO;
    let mut stalled_at: Option<SimTime> = None;
    let mut out = EngineReplay::default();
    loop {
        let t_arr = arrivals.get(next).map(|r| r.arrival);
        let t_pop = populates.peek().map(|Reverse((t, _))| *t);
        let t_wake = eng.next_wake(now).filter(|t| Some(*t) != stalled_at);
        let Some(t) = [t_arr, t_pop, t_wake].into_iter().flatten().min() else {
            break;
        };
        now = now.max_of(t);
        if t_pop == Some(t) {
            if let Some(Reverse((_, ticket))) = populates.pop() {
                eng.populate_transfer_done(now, flowserve::PopulateTicket(ticket));
                stalled_at = None;
            }
        } else if t_arr == Some(t) {
            let r = &arrivals[next];
            next += 1;
            let outcome = eng.submit(
                now,
                NewRequest {
                    id: r.id,
                    prompt: r.prompt.clone(),
                    target_output: r.target_output,
                    arrival: r.arrival,
                    cache_id: r.cache_id,
                },
            );
            out.submitted += 1;
            if let Some(p) = outcome.populate {
                let secs = p.tokens as f64 * kv_bytes / bw;
                populates.push(Reverse((
                    now + SimDuration::from_secs_f64(secs),
                    p.ticket.0,
                )));
            }
            stalled_at = None;
        } else {
            let horizon = [t_arr, t_pop].into_iter().flatten().min();
            let before = eng.stats().iterations;
            let span = rec.begin("engine.advance_paced");
            eng.advance_paced(now, Pacing::FastForward { horizon }, &mut events);
            out.advance_us.push(rec.end(span) as f64 * 1e-3);
            events.clear();
            let active = eng.active_len() as u64;
            if active > 0 {
                out.batches
                    .push((active, eng.kv_tokens_held() as u64 / active));
            }
            if eng.stats().iterations == before && eng.next_wake(now) == Some(now) {
                stalled_at = Some(now);
            }
        }
    }
    let s = eng.stats();
    out.iterations = s.iterations;
    out.ff_iterations = s.ff_iterations;
    out
}

/// Host ns per priced decode step over the engine replay's batch shapes
/// (64-step windows, as fast-forward prices them).
pub fn cost(w: &Workload, batches: &[(u64, u64)], rec: &mut Recorder) -> f64 {
    let cost = cost_model(w);
    let mut buf = Vec::with_capacity(64);
    let mut steps = 0u64;
    let mut ns = 0u64;
    let stride = (batches.len() / 20_000).max(1);
    for &(seqs, ctx) in batches.iter().step_by(stride) {
        buf.clear();
        let span = rec.begin("cost.decode_step_times_into");
        cost.decode_step_times_into(seqs, ctx, 64, &mut buf);
        ns += rec.end(span);
        steps += buf.len() as u64;
    }
    if steps == 0 {
        let span = rec.begin("cost.decode_step_times_into");
        cost.decode_step_times_into(1, 128, 64, &mut buf);
        ns += rec.end(span);
        steps = buf.len() as u64;
    }
    ns as f64 / steps.max(1) as f64
}

/// Result of the RTC replay.
#[derive(Debug, Default)]
pub struct RtcReplay {
    /// Prompts fed.
    pub requests: u64,
    /// Host µs per `match_by_prefix_token`.
    pub match_us: Vec<f64>,
    /// Host µs per `alloc_blocks`.
    pub alloc_us: Vec<f64>,
    /// Index of the first prompt after which `rtc.swap_out` was nonzero.
    pub first_swap: Option<usize>,
    /// Prompt tokens matched from cache.
    pub hit_tokens: u64,
    /// Prompt tokens fed.
    pub prompt_tokens: u64,
    /// `rtc.swap_out` at the end.
    pub swap_out: u64,
    /// `rtc.evict_drop` at the end.
    pub evict_drop: u64,
    /// Allocations the RTC refused.
    pub alloc_failed: u64,
}

/// Feeds the workload's whole prompt stream through one `Rtc` sized like a
/// TE's (a TE that receives every prompt: the cache pressure of a long-
/// lived server, reached within one run): match,
/// acquire the cached prefix, `alloc_blocks` for the rest, `insert_prefix`,
/// release, then the engine's background swapper. Stops `post_fill`
/// prompts (normally [`RTC_POST_FILL`]) after the first swap-out: past HBM
/// fill every allocation evicts, and the replay shows what that costs per
/// call.
pub fn rtc(w: &Workload, post_fill: usize, rec: &mut Recorder) -> RtcReplay {
    let cfg = w.config();
    let bs = cfg.engine.block_size;
    let npu_blocks = cost_model(w).kv_capacity_tokens(cfg.engine.kv_reserve_frac) as usize / bs;
    let mut rtc = Rtc::new(RtcConfig {
        block_size: bs,
        npu_blocks,
        dram_blocks: cfg.engine.dram_blocks,
    });
    let mut out = RtcReplay::default();
    for (i, req) in w.stream().enumerate() {
        if out.first_swap.is_some_and(|f| i > f + post_fill) {
            break;
        }
        let now = req.arrival;
        let prompt: &[flowserve::TokenId] = &req.prompt;
        let span = rec.begin_req("rtc.match_by_prefix_token", Some(req.id.0));
        let m = rtc.match_by_prefix_token(prompt);
        out.match_us.push(rec.end(span) as f64 * 1e-3);
        let acquired = rtc.acquire_prefix(now, &m);
        out.hit_tokens += (acquired.blocks.len() * bs) as u64;
        out.prompt_tokens += prompt.len() as u64;
        let need = prompt
            .len()
            .div_ceil(bs)
            .saturating_sub(acquired.blocks.len());
        let span = rec.begin_req("rtc.alloc_blocks", Some(req.id.0));
        let fresh = rtc.alloc_blocks(need);
        out.alloc_us.push(rec.end(span) as f64 * 1e-3);
        match fresh {
            Ok(fresh) => {
                let mut table = acquired.blocks.clone();
                table.extend(fresh);
                let span = rec.begin_req("rtc.insert_prefix", Some(req.id.0));
                rtc.insert_prefix(now, prompt, &table);
                rec.end(span);
                rtc.release_prefix(&acquired);
                rtc.free(&table);
            }
            Err(_) => {
                out.alloc_failed += 1;
                rtc.release_prefix(&acquired);
                rtc.free(&acquired.blocks);
            }
        }
        rtc.copy_to_dram(cfg.engine.swap_low_watermark_blocks);
        out.requests += 1;
        if out.first_swap.is_none() && rtc.counters().get("rtc.swap_out") > 0 {
            out.first_swap = Some(i);
        }
    }
    out.swap_out = rtc.counters().get("rtc.swap_out");
    out.evict_drop = rtc.counters().get("rtc.evict_drop");
    out
}

/// Result of the DistFlow replay.
#[derive(Debug, Default)]
pub struct DistflowReplay {
    /// Host µs per `transfer_at` call.
    pub transfer_us: Vec<f64>,
    /// `distflow.transfers` after the replay.
    pub transfers: u64,
}

/// Plans one prompt-sized KV transfer per request with
/// `DistFlow::transfer_at`, between the head NPUs of the request's TE
/// pair (prefill→decode pairs; neighbouring TEs on colocated workloads,
/// which never migrate in the cluster).
pub fn distflow(w: &Workload, rec: &mut Recorder) -> DistflowReplay {
    let cfg = w.config();
    let world = cfg.parallelism.world_size() as usize;
    let per_server = cfg.cluster.server.chips_per_server / world;
    let heads: Vec<NpuId> = (0..w.tes())
        .map(|i| NpuId::new(i / per_server, (i % per_server) * world))
        .collect();
    let fabric = Fabric::new(cfg.cluster.clone());
    let mut df = DistFlow::new(cfg.cluster.server.chip.generation == npu::Generation::Gen3SuperPod);
    df.link_cluster(&heads);
    let pairs: Vec<(usize, usize)> = if w.is_pd() {
        pairs_of(&w.roles)
            .into_iter()
            .map(|(p, d)| (p.0 as usize, d.0 as usize))
            .collect()
    } else {
        (0..w.tes()).map(|i| (i, (i + 1) % w.tes())).collect()
    };
    let kv = cfg.model.kv_bytes_per_token();
    let mut out = DistflowReplay::default();
    for (i, req) in w.stream().enumerate() {
        let (a, b) = pairs[i % pairs.len()];
        let (src, dst) = (heads[a], heads[b]);
        let bytes = req.prompt.len() as u64 * kv;
        let buf = |npu| BufferInfo {
            npu,
            tier: MemTier::Hbm,
            bytes,
        };
        let kind = fabric.link_kind(src, dst);
        let span = rec.begin_req("distflow.transfer_at", Some(req.id.0));
        let plan = df.transfer_at(req.arrival, buf(src), buf(dst), kind);
        out.transfer_us.push(rec.end(span) as f64 * 1e-3);
        debug_assert!(plan.is_ok(), "linked heads must plan");
    }
    out.transfers = df.counters().get("distflow.transfers");
    out
}

/// Host ns per request to generate and materialize the workload's stream
/// with no simulator attached.
pub fn generate(w: &Workload, rec: &mut Recorder) -> f64 {
    let span = rec.begin("workloads.stream");
    let mut n = 0u64;
    let mut tokens = 0usize;
    for r in w.stream() {
        n += 1;
        tokens += r.prompt.len();
    }
    let ns = rec.end_with(
        span,
        vec![("requests", n as f64), ("tokens", tokens as f64)],
    );
    ns as f64 / n.max(1) as f64
}

/// Renders one completion request the way an HTTP client sends it: the
/// prompt as words, streamed.
pub fn http_request(req: &ApiRequest) -> Vec<u8> {
    let words: Vec<String> = req
        .prompt
        .iter()
        .map(|t| format!("w{}", t.0 % 4096))
        .collect();
    let body = format!(
        "{{\"prompt\": \"{}\", \"max_tokens\": {}, \"stream\": true}}",
        words.join(" "),
        req.target_output
    );
    format!(
        "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

/// Host µs per `http::parse_request` over a buffer of back-to-back
/// requests, consumed as the server consumes a pipelined buffer. Returns
/// the per-call times and the number of requests parsed.
pub fn parse(bytes: &[u8], rec: &mut Recorder) -> (Vec<f64>, u64) {
    use deepserve_gateway::http::{parse_request, Parse};
    let mut off = 0;
    let mut us = Vec::new();
    while off < bytes.len() {
        let span = rec.begin("gateway.parse_request");
        let p = parse_request(&bytes[off..]);
        us.push(rec.end(span) as f64 * 1e-3);
        match p {
            Parse::Complete(_, used) => off += used,
            Parse::NeedMore | Parse::Invalid(_) => break,
        }
    }
    let n = us.len() as u64;
    (us, n)
}

/// `log::replay` of the workload's inputs as a session log; returns host
/// seconds and the replayed report's digest.
pub fn replay(w: &Workload, rec: &mut Recorder) -> (f64, u64) {
    let records: Vec<IngressRecord> = w
        .stream()
        .map(|r| IngressRecord::from_request(&r))
        .collect();
    let span = rec.begin("gateway.log_replay");
    let mut report = deepserve_gateway::log::replay(&records, || w.new_sim());
    let json = report.to_json().to_json();
    let ns = rec.end(span);
    (ns as f64 * 1e-9, crate::stats::fnv1a(json.as_bytes()))
}
