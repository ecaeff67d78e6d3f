//! The serving-cluster simulation: Job Executors dispatching onto a pool of
//! FlowServe TEs over the NPU fabric.
//!
//! This is where everything composes (Figure 1): arrivals hit the JE's
//! distributed scheduler (Algorithm 1), colocated TEs serve whole requests,
//! disaggregated pairs run prefill then migrate KV over DistFlow/fabric to
//! the decode TE, populate transfers stream KV from host DRAM over each
//! TE's PCIe channel, and the JE's global prompt trees stay in sync with
//! TE-side cache insertions.

use crate::api::{ApiRequest, IngressRecord};
use crate::fleet::{ColdStartMode, FleetConfig, LoadState, ModelRegistry};
use crate::heatmap::Heatmap;
use crate::je::{Decision, JobExecutor, LoadIndex, Policy, Target};
use crate::manager::{HealthConfig, HealthMonitor};
use crate::predictor::{DecodePredictor, FixedAccuracy, Oracle};
use crate::prompt_tree::TeId;
use crate::scaling::{LoadPath, ScalingModel, ScalingOptimizations, SourceLoad};
use flowserve::{
    BufferInfo, DistFlow, Engine, EngineConfig, EngineEvent, EngineMode, MemTier, NewRequest,
    Pacing, PopulateTicket, RequestId,
};
use llm_model::{Checkpoint, ExecCostModel, ModelSpec, Parallelism};
use npu::fabric::{Fabric, TransferId};
use npu::pagecache::{ByteRange, FileId};
use npu::specs::{ClusterSpec, NpuId};
use npu::storage::{fault_time, ServerStore, Tier};
use simcore::fault::{FaultEvent, FaultKind, FaultPlan};
use simcore::trace::{SpanId, Trace, TraceLevel, Tracer};
use simcore::{
    Clock, Counters, FifoChannel, IdMap, IdSet, LatencyStats, MetricsRegistry, SimDuration,
    SimTime, CLASS_ARRIVAL,
};
use std::collections::BTreeMap;

/// Livelock guard: the event loop panics once the cumulative count of
/// events processed by [`ClusterSim::step_until`] and
/// [`ClusterSim::run_to_completion`] over the sim's lifetime reaches this.
const EVENT_BUDGET: u64 = 200_000_000;

// detlint note: the `IdMap`/`IdSet` fields below are point-lookup only
// (insert/remove/get/contains) — never iterated, so hash order cannot leak
// into reports or traces. Anything iterated is a BTreeMap.

/// Role of one TE in the serving pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum TeRole {
    /// PD-colocated engine.
    Colocated,
    /// Prefill half of a disaggregated pair.
    Prefill,
    /// Decode half of a disaggregated pair.
    Decode,
}

/// A streaming notification surfaced to a live frontend (the gateway).
/// Purely additive observability: buffering these never changes scheduling,
/// stats, or counters, so a replay with live mode off is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveEvent {
    /// First output token (prefill finished) for `id` at sim time `at`.
    FirstToken { id: RequestId, at: SimTime },
    /// `n` further output tokens for `id`, the last at sim time `at`.
    /// Emitted only when [`ClusterSim::set_token_events`] is on; a
    /// fast-forward window reports all absorbed iterations in one batch.
    Tokens { id: RequestId, at: SimTime, n: u32 },
    /// `id` finished; `output_tokens` counts the whole stream.
    Finished {
        id: RequestId,
        at: SimTime,
        output_tokens: u64,
    },
    /// `id` failed permanently (rejected, or recovery retries exhausted).
    Failed { id: RequestId, at: SimTime },
}

/// State for live (gateway-fed) ingress. See the "Serving façade" section
/// of DESIGN.md for the determinism contract this upholds.
struct LiveState {
    /// Most recent accepted arrival instant; live arrivals are strictly
    /// increasing so the replayed workload is sorted. A same-instant tie
    /// with any other pending event is settled by `CLASS_ARRIVAL`, which
    /// orders the live run and its replay alike.
    last_arrival: SimTime,
    /// The ingress log: every accepted submission with its final arrival
    /// stamp. `inject`ing these into a fresh sim replays the live
    /// run bit-for-bit.
    ingress: Vec<IngressRecord>,
    /// Notifications buffered since the last `take_live_events`.
    events: Vec<LiveEvent>,
    /// Wall frontier while inside `step_until`: fast-forward may absorb
    /// iterations ending at or before this instant but never beyond it.
    pace_limit: Option<SimTime>,
}

/// Cluster-simulation configuration.
pub struct ClusterConfig {
    /// Hardware.
    pub cluster: ClusterSpec,
    /// Model every TE serves.
    pub model: ModelSpec,
    /// Engine parallelism (the paper's serving tests use TP=4).
    pub parallelism: Parallelism,
    /// Engine template; `mode` is overridden per role.
    pub engine: EngineConfig,
    /// JE scheduling policy.
    pub policy: Policy,
    /// Decode-length predictor accuracy; `None` = oracle.
    pub predictor_accuracy: Option<f64>,
    /// PD heatmap for the PD-aware policy.
    pub heatmap: Heatmap,
    /// Fraction of a migrated KV transfer overlapped with prefill
    /// (by-layer streaming; 0.0 = pure by-req transfer after prefill).
    pub kv_transfer_overlap: f64,
    /// RNG seed (predictor noise).
    pub seed: u64,
}

impl ClusterConfig {
    /// The paper's standard serving testbed: a Gen2 cluster serving the
    /// internal 34B model at TP=4 with the combined policy.
    pub fn standard_34b() -> Self {
        ClusterConfig {
            cluster: ClusterSpec::gen2_cluster(4),
            model: ModelSpec::internal_34b(),
            parallelism: Parallelism::tp(4),
            engine: EngineConfig::colocated(),
            policy: Policy::Combined,
            predictor_accuracy: Some(0.9),
            heatmap: Heatmap::default_production(),
            kv_transfer_overlap: 0.8,
            seed: 42,
        }
    }
}

/// Detection and recovery knobs for fault-injected runs.
///
/// Only consulted once [`ClusterSim::install_faults`] arms the fault layer;
/// fault-free simulations never read these values, which keeps healthy runs
/// bit-identical to builds without the fault machinery.
#[derive(Debug, Clone, Copy)]
pub struct FaultRecoveryConfig {
    /// Heartbeat cadence and miss threshold for the cluster manager.
    pub health: HealthConfig,
    /// Re-dispatch attempts per request before it fails permanently.
    pub max_retries: u32,
    /// First re-dispatch backoff; doubles per attempt.
    pub backoff_base: SimDuration,
    /// Backoff ceiling.
    pub backoff_cap: SimDuration,
    /// Fast-scaling optimizations applied when re-provisioning a dead TE
    /// (the 5-step pipeline decides the repair latency).
    pub repair: ScalingOptimizations,
}

impl Default for FaultRecoveryConfig {
    fn default() -> Self {
        FaultRecoveryConfig {
            health: HealthConfig::default(),
            max_retries: 5,
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_secs(2),
            repair: ScalingOptimizations::all(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(u32),
    Wake(TeId),
    /// Populate completion, guarded by the TE's engine epoch so transfers
    /// started before a crash cannot land on the replacement engine.
    Populate(TeId, u32, PopulateTicket),
    FabricAdvance,
    /// Injected fault (index into the installed plan's events).
    Fault(u32),
    /// Periodic cluster-manager heartbeat sweep.
    HealthCheck,
    /// Re-dispatch of a requeued or deferred request: `arrivals` slot
    /// index plus the slot generation at scheduling time. Terminal states
    /// free slots for reuse and bump the generation, so a stale redispatch
    /// self-invalidates instead of touching an unrelated request.
    Redispatch(u32, u32),
    /// A replacement TE comes online after the fast-scaling pipeline.
    RepairDone(TeId),
    /// A straggler slowdown window expires.
    StragglerEnd(TeId),
    /// Retry a KV migration that hit a transient DistFlow failure.
    MigrationRetry(RequestId),
    /// A fleet checkpoint load (cold start or scale-out) completes for
    /// model `m`.
    ModelReady(u32),
}

struct Te {
    id: TeId,
    role: TeRole,
    engine: Engine,
    npus: Vec<NpuId>,
    /// Host-DRAM -> HBM channel for populate transfers.
    pcie: FifoChannel,
    scheduled_wake: Option<SimTime>,
    /// False between a crash and the end of its repair.
    alive: bool,
    /// True once the health monitor has noticed the crash (the JE stops
    /// routing here) and until the repair completes.
    detected: bool,
    /// When the current outage started.
    failed_at: Option<SimTime>,
    /// Bumped whenever the engine is replaced; stale-epoch events no-op.
    epoch: u32,
    /// Busy time salvaged from engines discarded by earlier repairs.
    prior_busy: SimDuration,
}

/// One in-flight fleet checkpoint load.
struct InflightLoad {
    /// TEs receiving the model, each with the engine epoch at load start;
    /// a crash bumps the epoch and invalidates that target.
    targets: Vec<(TeId, u32)>,
    /// Deepest storage tier the load had to reach (labels SLA counters).
    tier: Tier,
    /// Covering trace span (NONE when tracing is off).
    span: SpanId,
}

/// Fleet mode: a model registry plus per-server storage tiers and per-TE
/// HBM residency. `None` keeps every single-model path byte-identical to
/// pre-fleet builds.
struct FleetState {
    registry: ModelRegistry,
    cfg: FleetConfig,
    /// One DRAM-over-SSD storage stack per physical server.
    stores: Vec<ServerStore>,
    /// Requests parked behind a load: model -> `(arrival slot, slot
    /// generation)`, FIFO. BTreeMap so any whole-map drain is
    /// deterministic; the generation invalidates entries whose request
    /// reached a terminal state while parked.
    waiting: BTreeMap<u32, Vec<(u32, u32)>>,
    /// In-flight loads by model (coalesces duplicate cold starts).
    inflight: BTreeMap<u32, InflightLoad>,
    /// HBM-resident models per TE in LRU order (front = coldest).
    resident: Vec<Vec<u32>>,
    /// Weight bytes pinned per TE.
    resident_bytes: Vec<u64>,
    /// Per-TE pinned-weight budget, bytes; exceeding it evicts LRU models.
    te_budget: u64,
}

struct Migration {
    new: NewRequest,
    from: TeId,
    to: TeId,
    kv_tokens: usize,
    first_token_at: SimTime,
    /// Trace span covering the transfer (NONE when tracing is off).
    span: SpanId,
}

/// Per-run results.
#[derive(Debug, Default)]
pub struct RunReport {
    /// End-to-end latency metrics across completed requests.
    pub latency: LatencyStats,
    /// Wall-clock span from first arrival to last completion.
    pub makespan: SimDuration,
    /// Requests that failed permanently (retry budget exhausted or
    /// rejected); always zero in fault-free runs.
    pub failed: u64,
    /// Event counters.
    pub counters: Counters,
    /// Per-TE busy time (includes busy time salvaged from engines that
    /// were replaced by a repair).
    pub te_busy: Vec<(TeId, SimDuration)>,
    /// Merged sim-time trace (empty unless [`ClusterSim::enable_tracing`]
    /// was called). Components: `cluster`, `je`, `distflow`, `te<N>`, `rtc`.
    pub trace: Trace,
    /// Named metrics: counters from every component plus `cluster.ttft_ms`
    /// / `cluster.tpot_ms` / `cluster.jct_ms` samples and the
    /// `cluster.queue_depth` series.
    pub metrics: MetricsRegistry,
}

impl RunReport {
    /// Decode throughput over the makespan (tokens/s).
    pub fn throughput(&self) -> f64 {
        self.latency.decode_throughput(self.makespan)
    }

    /// Renders the report as a deterministic JSON value (the trace is
    /// excluded — compare it separately via `trace.to_json()`). Keys and
    /// counter entries come out in a fixed order, so two bit-identical runs
    /// produce byte-identical JSON.
    pub fn to_json(&mut self) -> serde::Value {
        use serde::{Serialize, Value};
        let counters: Vec<(String, Value)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        // `sim.events_processed` measures how the simulator executed (it
        // legitimately differs between fast-forward and single-stepping),
        // not what the simulation produced — keep it out of the
        // replay-comparable surface.
        let mut metrics = self.metrics.to_json();
        if let Value::Object(entries) = &mut metrics {
            entries.retain(|(k, _)| k != "sim.events_processed");
        }
        Value::Object(vec![
            ("completed".to_string(), self.latency.completed().to_value()),
            ("failed".to_string(), self.failed.to_value()),
            (
                "makespan_ns".to_string(),
                self.makespan.as_nanos().to_value(),
            ),
            ("ttft_ms".to_string(), self.latency.ttft_ms().to_value()),
            ("tpot_ms".to_string(), self.latency.tpot_ms().to_value()),
            ("jct_ms".to_string(), self.latency.jct_ms().to_value()),
            ("counters".to_string(), Value::Object(counters)),
            ("metrics".to_string(), metrics),
        ])
    }
}

/// The serving cluster.
pub struct ClusterSim {
    cfg: ClusterConfig,
    clock: Clock<Event>,
    fabric: Fabric,
    fabric_wake: Option<SimTime>,
    tes: Vec<Te>,
    pairs: Vec<(TeId, TeId)>,
    /// Dispatch view of `tes`: every TE's engine load plus the routable
    /// (not detected-down) colocated TEs and pairs. Kept current by
    /// `sync_load` after every engine mutation and by detection/repair;
    /// see DESIGN.md "Dispatch load index".
    load_index: LoadIndex,
    je: JobExecutor,
    /// In-flight request store: slot-addressed, recycled LIFO once a
    /// request reaches a terminal state. `None` = free slot. Memory is
    /// O(peak in-flight), not O(total injected) — the streaming path
    /// relies on this to run million-request workloads flat.
    arrivals: Vec<Option<ApiRequest>>,
    /// Free `arrivals` slots, reused LIFO (a pure function of the
    /// inject/terminal history, so replays are bit-identical).
    free_slots: Vec<u32>,
    /// Per-slot generation, bumped when the slot is freed; stale
    /// `Redispatch`/fleet-waiter references check it before acting.
    slot_gen: Vec<u32>,
    /// Total requests accepted (injected, streamed, or submitted live);
    /// replaces `arrivals.len()` for completion accounting now that
    /// slots recycle.
    injected_total: u64,
    /// Lazily-pulled workload stream (`inject_stream`). Exactly one
    /// pending `Arrival` is materialized at a time; `None` once drained.
    stream: Option<Box<dyn Iterator<Item = ApiRequest> + Send>>,
    /// Last streamed arrival stamp (sortedness check).
    stream_last_arrival: SimTime,
    /// Disaggregated routing: request -> decode TE.
    decode_route: IdMap<RequestId, TeId>,
    /// Prompt + metadata stash for requests in the prefill half.
    pending_migration: IdMap<RequestId, NewRequest>,
    /// In-flight KV migrations. A `BTreeMap`: crash handling iterates it
    /// to find doomed transfers, in id order by construction.
    in_flight_migrations: BTreeMap<TransferId, Migration>,
    latency: LatencyStats,
    counters: Counters,
    first_arrival: Option<SimTime>,
    last_completion: SimTime,
    completed: u64,
    submitted: u64,
    /// KV-transfer planning layer; linked over the TE head NPUs.
    distflow: DistFlow,
    tracer: Tracer,
    metrics: MetricsRegistry,
    /// Drive quiescent decode engines with [`Pacing::FastForward`]
    /// (macro-stepping). On by default; outcome is bit-identical either
    /// way, only event counts and wall-clock change.
    fast_forward: bool,
    /// Events processed across all `step_until` and `run_to_completion`
    /// calls.
    events_processed: u64,
    /// Reused engine-event buffer for `on_wake`.
    events_scratch: Vec<EngineEvent>,
    // --- fault layer (inert until `install_faults`) ---
    fault_cfg: FaultRecoveryConfig,
    fault_events: Vec<FaultEvent>,
    health: Option<HealthMonitor>,
    /// Active link degradation: `(bandwidth factor, expiry)`.
    link_degrade: Option<(f64, SimTime)>,
    /// KV transfers started before this instant fail once.
    flaky_until: Option<SimTime>,
    /// Requests that already consumed their one transient transfer failure.
    flaked: IdSet<RequestId>,
    /// Stash for flaked migrations awaiting retry: `(from, kv_tokens,
    /// first_token_at)`.
    migration_retry: IdMap<RequestId, (TeId, usize, SimTime)>,
    /// Re-dispatch attempts per request.
    retries: IdMap<RequestId, u32>,
    failed: u64,
    repairs_pending: u32,
    /// Request id -> `arrivals` slot, for re-dispatch and prompt lookup.
    /// Presence here *is* liveness: a terminal state removes the entry
    /// (and frees the slot), so "not indexed" means "finished or failed".
    arrival_index: IdMap<RequestId, u32>,
    /// Traces salvaged from engines replaced by repairs.
    salvaged_traces: Vec<(String, Trace)>,
    /// Counters salvaged from engines replaced by repairs.
    salvaged_counters: Counters,
    /// Tracing config, replayed onto replacement engines.
    trace_cfg: Option<(TraceLevel, usize)>,
    /// Model-fleet state; `None` outside fleet mode.
    fleet: Option<FleetState>,
    /// Live (gateway-fed) ingress state; `None` for offline trace replay.
    live: Option<LiveState>,
    /// Whether engines emit per-iteration `Tokens` events (replayed onto
    /// replacement engines after a repair).
    token_events: bool,
}

impl ClusterSim {
    /// Builds a cluster with the given TE roles placed round-robin across
    /// servers (`world_size` NPUs each, packed per server).
    ///
    /// # Panics
    ///
    /// Panics if the hardware cannot host all TEs, or if prefill/decode
    /// roles are unpaired.
    pub fn new(cfg: ClusterConfig, roles: &[TeRole]) -> Self {
        let world = cfg.parallelism.world_size() as usize;
        let per_server = cfg.cluster.server.chips_per_server / world;
        assert!(per_server >= 1, "one TE needs {world} NPUs per server");
        let capacity = cfg.cluster.num_servers * per_server;
        assert!(
            roles.len() <= capacity,
            "cluster fits {capacity} TEs, asked for {}",
            roles.len()
        );

        let mut tes = Vec::new();
        for (i, &role) in roles.iter().enumerate() {
            let server = i / per_server;
            let first_chip = (i % per_server) * world;
            let npus: Vec<NpuId> = (0..world)
                .map(|k| NpuId::new(server, first_chip + k))
                .collect();
            tes.push(Te {
                id: TeId(i as u32),
                role,
                engine: Self::build_engine(&cfg, role),
                npus,
                pcie: FifoChannel::new(
                    cfg.cluster.server.pcie_bw_per_npu(world.min(8)) * world as f64,
                    SimDuration::from_micros(100),
                ),
                scheduled_wake: None,
                alive: true,
                detected: false,
                failed_at: None,
                epoch: 0,
                prior_busy: SimDuration::ZERO,
            });
        }

        // Pair prefill and decode TEs in order of appearance; a decode TE
        // may back several prefill TEs (the paper's 2P1D setup).
        let prefills: Vec<TeId> = tes
            .iter()
            .filter(|t| t.role == TeRole::Prefill)
            .map(|t| t.id)
            .collect();
        let decodes: Vec<TeId> = tes
            .iter()
            .filter(|t| t.role == TeRole::Decode)
            .map(|t| t.id)
            .collect();
        assert!(
            prefills.is_empty() == decodes.is_empty(),
            "prefill TEs require decode TEs and vice versa"
        );
        let pairs: Vec<(TeId, TeId)> = prefills
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, decodes[i % decodes.len()]))
            .collect();

        let predictor: Box<dyn DecodePredictor> = match cfg.predictor_accuracy {
            None => Box::new(Oracle),
            Some(a) => Box::new(FixedAccuracy::new(a, cfg.seed ^ 0x9e37)),
        };
        let je = JobExecutor::new(
            cfg.policy,
            cfg.heatmap.clone(),
            predictor,
            cfg.engine.block_size,
        );
        let fabric = Fabric::new(cfg.cluster.clone());
        // DistFlow control plane: link every TE's head NPU with every other
        // (the paper's LinkCluster over the serving pool).
        let mut distflow = DistFlow::new(
            cfg.cluster.server.chip.generation == npu::specs::Generation::Gen3SuperPod,
        );
        let heads: Vec<NpuId> = tes.iter().map(|t| t.npus[0]).collect();
        distflow.link_cluster(&heads);
        let load_index = Self::build_load_index(&tes, &pairs);
        ClusterSim {
            cfg,
            clock: Clock::new(),
            fabric,
            fabric_wake: None,
            tes,
            pairs,
            load_index,
            je,
            arrivals: Vec::new(),
            free_slots: Vec::new(),
            slot_gen: Vec::new(),
            injected_total: 0,
            stream: None,
            stream_last_arrival: SimTime::ZERO,
            decode_route: IdMap::default(),
            pending_migration: IdMap::default(),
            in_flight_migrations: BTreeMap::new(),
            latency: LatencyStats::new(),
            counters: Counters::new(),
            first_arrival: None,
            last_completion: SimTime::ZERO,
            completed: 0,
            submitted: 0,
            distflow,
            tracer: Tracer::disabled(),
            metrics: MetricsRegistry::new(),
            fast_forward: true,
            events_processed: 0,
            events_scratch: Vec::new(),
            fault_cfg: FaultRecoveryConfig::default(),
            fault_events: Vec::new(),
            health: None,
            link_degrade: None,
            flaky_until: None,
            flaked: IdSet::default(),
            migration_retry: IdMap::default(),
            retries: IdMap::default(),
            failed: 0,
            repairs_pending: 0,
            arrival_index: IdMap::default(),
            salvaged_traces: Vec::new(),
            salvaged_counters: Counters::new(),
            trace_cfg: None,
            fleet: None,
            live: None,
            token_events: false,
        }
    }

    /// Builds one TE's engine from the cluster config; also used to stand up
    /// a fresh engine (empty KV, empty RTC) when a repair replaces a dead TE.
    fn build_engine(cfg: &ClusterConfig, role: TeRole) -> Engine {
        let mode = match role {
            TeRole::Colocated => EngineMode::Colocated,
            TeRole::Prefill => EngineMode::PrefillOnly,
            TeRole::Decode => EngineMode::DecodeOnly,
        };
        let engine_cfg = EngineConfig {
            mode,
            prefill_chunk_tokens: if role == TeRole::Prefill {
                4096
            } else {
                cfg.engine.prefill_chunk_tokens
            },
            ..cfg.engine.clone()
        };
        let cost = ExecCostModel::new(
            cfg.cluster.server.chip.clone(),
            cfg.cluster.hccs,
            cfg.model.clone(),
            cfg.parallelism,
        );
        Engine::new(engine_cfg, cost)
    }

    /// Turns on sim-time tracing across the whole cluster: the sim itself,
    /// the JE's scheduling decisions, DistFlow transfer plans, and every
    /// TE's engine + RTC. `capacity` bounds each component's span and event
    /// ring buffers.
    pub fn enable_tracing(&mut self, level: TraceLevel, capacity: usize) {
        self.trace_cfg = Some((level, capacity));
        self.tracer = Tracer::enabled(level, capacity);
        self.je.enable_tracing(level, capacity);
        self.distflow.enable_tracing(level, capacity);
        for te in &mut self.tes {
            te.engine.enable_tracing(level, capacity);
        }
    }

    /// The TE roles in play.
    pub fn roles(&self) -> Vec<(TeId, TeRole)> {
        self.tes.iter().map(|t| (t.id, t.role)).collect()
    }

    /// Disables (or re-enables) decode fast-forward. Single-stepping is the
    /// reference execution; fast-forward must match it bit-for-bit, so this
    /// switch exists for A/B verification and benchmarking, not for
    /// correctness.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Events processed so far across `step_until` and
    /// `run_to_completion` calls (also surfaced as the
    /// `sim.events_processed` counter metric).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedules `ev` on the queue lane its kind calls for. All event
    /// scheduling must go through here (not `clock.schedule`) or
    /// fast-forward could absorb past an interaction.
    ///
    /// Arrivals carry the arrival class so a streamed arrival scheduled
    /// late (one-lookahead) still wins same-instant ties exactly like its
    /// materialized twin with a globally-early sequence number would.
    /// Non-prefill `Wake`s go to the local lane, which the fast-forward
    /// horizon ignores: their handlers only progress their own engine and
    /// emit events that never touch another TE. Everything else can mutate
    /// an engine mid-window (arrivals, populates, fabric completions,
    /// faults, repairs, health sweeps) and bounds the horizon — prefill
    /// wakes too, since a completed prefill starts a KV migration toward a
    /// decode TE.
    fn sched(&mut self, at: SimTime, ev: Event) {
        match ev {
            Event::Arrival(_) => self.clock.schedule_class(at, CLASS_ARRIVAL, ev),
            Event::Wake(te) if self.tes[te.0 as usize].role != TeRole::Prefill => {
                self.clock.schedule_local(at, ev)
            }
            _ => self.clock.schedule(at, ev),
        }
    }

    /// Queues a workload (arrivals must be time-sorted).
    ///
    /// # Panics
    ///
    /// Panics if arrivals are out of order.
    pub fn inject(&mut self, requests: Vec<ApiRequest>) {
        assert!(
            self.stream.is_none(),
            "inject and inject_stream are mutually exclusive"
        );
        let mut last = SimTime::ZERO;
        for r in &requests {
            assert!(r.arrival >= last, "arrivals must be sorted by time");
            last = r.arrival;
        }
        for r in requests {
            let at = r.arrival;
            let idx = self.alloc_slot(r);
            self.sched(at, Event::Arrival(idx));
        }
    }

    /// Queues a lazily generated workload. The stream is pulled with
    /// one-arrival lookahead: exactly one materialized arrival is pending
    /// at any instant, and handling it pulls (and schedules) its successor
    /// *before* dispatching — the successor is therefore queued during the
    /// dispatch exactly as a fully materialized [`ClusterSim::inject`]
    /// would have it, so the run is bit-identical while holding
    /// O(in-flight) request state instead of O(total).
    ///
    /// # Panics
    ///
    /// Panics if a workload was already injected or streamed, or in live
    /// mode; panics lazily (on pull) if the stream's arrivals are
    /// unsorted.
    pub fn inject_stream(&mut self, stream: impl Iterator<Item = ApiRequest> + Send + 'static) {
        assert!(
            self.stream.is_none() && self.arrivals.is_empty() && self.live.is_none(),
            "inject_stream requires a fresh offline sim"
        );
        self.stream = Some(Box::new(stream));
        self.pull_next_stream();
    }

    /// Materializes and schedules the next streamed arrival, if any;
    /// drops the exhausted stream so completion accounting can settle.
    fn pull_next_stream(&mut self) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        let Some(r) = stream.next() else {
            self.stream = None;
            return;
        };
        assert!(
            r.arrival >= self.stream_last_arrival,
            "streamed arrivals must be sorted by time"
        );
        self.stream_last_arrival = r.arrival;
        let at = r.arrival;
        let idx = self.alloc_slot(r);
        self.sched(at, Event::Arrival(idx));
    }

    /// Stores one accepted request in a reusable arrival slot and indexes
    /// it by id. Slots recycle LIFO — a pure function of the
    /// inject/terminal history, so replays are bit-identical.
    fn alloc_slot(&mut self, r: ApiRequest) -> u32 {
        let id = r.id;
        let idx = match self.free_slots.pop() {
            Some(i) => {
                debug_assert!(self.arrivals[i as usize].is_none());
                self.arrivals[i as usize] = Some(r);
                i
            }
            None => {
                self.arrivals.push(Some(r));
                self.slot_gen.push(0);
                (self.arrivals.len() - 1) as u32
            }
        };
        let prev = self.arrival_index.insert(id, idx);
        debug_assert!(prev.is_none(), "duplicate request id {id:?}");
        self.injected_total += 1;
        idx
    }

    /// Retires `id`: frees its arrival slot for reuse (bumping the slot
    /// generation so stale `Redispatch`s and fleet waiters self-invalidate)
    /// and drops it from the index. Returns false when already terminal.
    fn mark_terminal(&mut self, id: RequestId) -> bool {
        let Some(idx) = self.arrival_index.remove(&id) else {
            return false;
        };
        self.arrivals[idx as usize] = None;
        self.slot_gen[idx as usize] = self.slot_gen[idx as usize].wrapping_add(1);
        self.free_slots.push(idx);
        true
    }

    /// Switches the sim into live-ingress mode: requests arrive one at a
    /// time via [`ClusterSim::submit_live`], time advances in bounded
    /// slices via [`ClusterSim::step_until`], and every accepted
    /// submission is appended to a replayable ingress log.
    ///
    /// # Panics
    ///
    /// Panics if anything was already scheduled or injected — the ingress
    /// log must record every arrival from the start.
    pub fn enable_live_ingress(&mut self) {
        assert!(
            self.clock.peek_time().is_none() && self.arrivals.is_empty(),
            "enable_live_ingress must be called on a fresh sim"
        );
        self.live = Some(LiveState {
            last_arrival: SimTime::ZERO,
            ingress: Vec::new(),
            events: Vec::new(),
            pace_limit: None,
        });
    }

    /// Submits one live request. `req.arrival` is the caller's wall-clock
    /// mapping of "now" in sim time; the sim may move it later — never
    /// earlier — so that arrivals are strictly increasing and strictly
    /// after the current instant. The stamp may equal another pending
    /// event's time: arrivals carry `CLASS_ARRIVAL`, which wins that tie in
    /// the live run and in its replay alike. Returns the final arrival
    /// stamp, which is what the ingress log records and what a replay will
    /// use verbatim.
    ///
    /// # Panics
    ///
    /// Panics without [`ClusterSim::enable_live_ingress`], or on a
    /// duplicate request id.
    pub fn submit_live(&mut self, mut req: ApiRequest) -> SimTime {
        assert!(
            self.live.is_some(),
            "submit_live requires enable_live_ingress()"
        );
        assert!(
            !self.arrival_index.contains_key(&req.id),
            "duplicate live request id {:?}",
            req.id
        );
        let one = SimDuration::from_nanos(1);
        let floor = self.clock.now() + one;
        let at = {
            let Some(live) = self.live.as_mut() else {
                unreachable!("asserted above");
            };
            let at = req.arrival.max_of(floor).max_of(live.last_arrival + one);
            live.last_arrival = at;
            req.arrival = at;
            live.ingress.push(IngressRecord::from_request(&req));
            at
        };
        let idx = self.alloc_slot(req);
        self.sched(at, Event::Arrival(idx));
        at
    }

    /// Processes every event due at or before `limit`, then stops; the
    /// queue keeps everything later. Fast-forward absorption is clamped
    /// to `limit` for the duration, so the execution is the same
    /// event-for-event prefix the unclamped run would produce. Returns the
    /// next pending event time, if any — the caller's cue for how long to
    /// sleep.
    ///
    /// # Panics
    ///
    /// Panics if the cumulative event budget is exceeded (livelock guard),
    /// like [`ClusterSim::run_to_completion`].
    pub fn step_until(&mut self, limit: SimTime) -> Option<SimTime> {
        if let Some(live) = &mut self.live {
            live.pace_limit = Some(limit);
        }
        self.run_events(Some(limit));
        if let Some(live) = &mut self.live {
            live.pace_limit = None;
        }
        self.clock.peek_time()
    }

    /// The earliest pending event time (the live loop's sleep target).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.clock.peek_time()
    }

    /// Drains the live notifications buffered since the last call.
    /// Empty (and free) outside live mode.
    pub fn take_live_events(&mut self) -> Vec<LiveEvent> {
        self.live
            .as_mut()
            .map(|l| std::mem::take(&mut l.events))
            .unwrap_or_default()
    }

    /// The ingress log so far: every accepted live submission with its
    /// final arrival stamp, in arrival order. Empty outside live mode.
    pub fn ingress_log(&self) -> &[IngressRecord] {
        self.live.as_ref().map_or(&[], |l| l.ingress.as_slice())
    }

    /// Turns per-iteration token notifications on for every engine
    /// (surfaced as [`LiveEvent::Tokens`]; replacement engines provisioned
    /// by repairs inherit the setting). Purely additive: reports stay
    /// bit-identical either way.
    pub fn set_token_events(&mut self, on: bool) {
        self.token_events = on;
        for te in &mut self.tes {
            te.engine.set_token_events(on);
        }
    }

    /// A point-in-time JSON snapshot of the metrics registry with every
    /// component's counters folded in — the `/metrics` endpoint. Works on
    /// a clone: `Summary` computation sorts sample values in place, and
    /// perturbing the registry's internal order mid-run would break the
    /// live-vs-replay byte identity of the final report.
    pub fn metrics_snapshot_json(&self) -> serde::Value {
        let mut snap = self.metrics.clone();
        self.import_all_counters(&mut snap);
        snap.to_json()
    }

    /// Folds every component's counters into `metrics`, in the report's
    /// fixed order: cluster, JE, DistFlow, engines a repair replaced, then
    /// each TE's engine and RTC.
    fn import_all_counters(&self, metrics: &mut MetricsRegistry) {
        metrics.import_counters(&self.counters);
        metrics.import_counters(self.je.counters());
        metrics.import_counters(self.distflow.counters());
        metrics.import_counters(&self.salvaged_counters);
        for te in &self.tes {
            metrics.import_counters(te.engine.counters());
            metrics.import_counters(te.engine.rtc().counters());
        }
    }

    /// Arms the fault layer: schedules every event in `plan` into the
    /// deterministic queue and starts cluster-manager health monitoring.
    /// A run is then replayable bit-for-bit from `(workload, plan, cfg)`.
    ///
    /// An empty plan is a guaranteed no-op — nothing is scheduled, no
    /// health monitoring starts, and the run stays bit-identical to one
    /// that never called this method. Call after [`ClusterSim::inject`]
    /// and before [`ClusterSim::run_to_completion`].
    ///
    /// # Panics
    ///
    /// Panics if the plan names a TE index outside the pool.
    pub fn install_faults(&mut self, plan: &FaultPlan, cfg: FaultRecoveryConfig) {
        if plan.is_empty() {
            return;
        }
        if let Some(max) = plan.max_te() {
            assert!(
                (max as usize) < self.tes.len(),
                "fault plan names TE {max}, but the pool has {} TEs",
                self.tes.len()
            );
        }
        self.fault_cfg = cfg;
        self.fault_events = plan.events.clone();
        for i in 0..self.fault_events.len() {
            let at = self.fault_events[i].at;
            self.sched(at, Event::Fault(i as u32));
        }
        let mut health = HealthMonitor::new(cfg.health);
        for te in &self.tes {
            health.register(te.id, SimTime::ZERO);
        }
        let first = SimTime::ZERO + cfg.health.heartbeat_interval;
        self.health = Some(health);
        self.sched(first, Event::HealthCheck);
    }

    /// Runs until all injected requests complete (or nothing can progress).
    ///
    /// # Panics
    ///
    /// Panics once 200M events have been processed over the sim's
    /// lifetime (cumulative across `step_until` slices) — almost
    /// certainly a livelock.
    pub fn run_to_completion(&mut self) -> RunReport {
        self.run_events(None);
        self.report()
    }

    /// The event loop behind [`ClusterSim::step_until`] and
    /// [`ClusterSim::run_to_completion`]: pops and handles events in queue
    /// order until the queue is empty or the next event is past `limit`.
    fn run_events(&mut self, limit: Option<SimTime>) {
        let before = self.events_processed;
        while self
            .clock
            .peek_time()
            .is_some_and(|t| limit.is_none_or(|l| t <= l))
        {
            let Some((now, ev)) = self.clock.next() else {
                break; // unreachable: peek_time above returned Some
            };
            self.handle(now, ev);
            self.events_processed += 1;
            assert!(
                self.events_processed < EVENT_BUDGET,
                "cluster sim exceeded event budget (livelock?)"
            );
        }
        // Meta-metric: measures simulator execution, not simulated outcome.
        // `RunReport::to_json` filters it so fast-forward stays
        // bit-comparable against single-stepping.
        let id = self.metrics.counter("sim.events_processed");
        self.metrics.add(id, self.events_processed - before);
    }

    fn report(&mut self) -> RunReport {
        let start = self.first_arrival.unwrap_or(SimTime::ZERO);
        let makespan = self.last_completion.since(start.min(self.last_completion));
        let mut latency = LatencyStats::new();
        std::mem::swap(&mut latency, &mut self.latency);

        // Merge every component's trace into one timeline.
        let mut trace = Trace::default();
        trace.absorb("cluster", self.tracer.take());
        trace.absorb("je", self.je.take_trace());
        trace.absorb("distflow", self.distflow.take_trace());
        // Traces salvaged from engines that a repair replaced, under the
        // same `te<N>` component as the replacement so one TE slot reads
        // as one timeline.
        for (component, t) in std::mem::take(&mut self.salvaged_traces) {
            trace.absorb(&component, t);
        }
        for i in 0..self.tes.len() {
            let component = format!("te{i}");
            let t = self.tes[i].engine.take_trace();
            trace.absorb(&component, t);
        }

        // Fold all counters into the registry (values accumulate across
        // report() calls on the same sim, matching Counters semantics).
        let mut metrics = std::mem::take(&mut self.metrics);
        self.import_all_counters(&mut metrics);
        let busy_id = metrics.samples("cluster.te_busy_s");
        for te in &self.tes {
            let busy = te.prior_busy + te.engine.stats().busy;
            metrics.record(busy_id, busy.as_secs_f64());
        }

        RunReport {
            latency,
            makespan,
            failed: self.failed,
            counters: self.counters.clone(),
            te_busy: self
                .tes
                .iter()
                .map(|t| (t.id, t.prior_busy + t.engine.stats().busy))
                .collect(),
            trace,
            metrics,
        }
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Arrival(idx) => self.on_arrival(now, idx),
            Event::Wake(te) => self.on_wake(now, te),
            Event::Populate(te, epoch, ticket) => {
                let current = {
                    let t = &self.tes[te.0 as usize];
                    t.alive && t.epoch == epoch
                };
                if current {
                    self.with_engine(te, |e| e.populate_transfer_done(now, ticket));
                    self.reschedule_wake(now, te);
                }
            }
            Event::FabricAdvance => self.on_fabric(now),
            Event::Fault(idx) => self.on_fault(now, idx),
            Event::HealthCheck => self.on_health_check(now),
            Event::Redispatch(idx, gen) => {
                // A bumped generation means the request went terminal (and
                // the slot may hold a different request by now): no-op.
                if self.slot_gen[idx as usize] == gen {
                    self.dispatch(now, idx);
                }
            }
            Event::RepairDone(te) => self.on_repair_done(now, te),
            Event::StragglerEnd(te) => {
                // Harmless on a replacement engine: its slowdown is 1.0.
                let t = self.te_mut(te);
                if t.alive {
                    t.engine.set_slowdown(1.0);
                    self.reschedule_wake(now, te);
                }
            }
            Event::MigrationRetry(id) => self.on_migration_retry(now, id),
            Event::ModelReady(m) => self.on_model_ready(now, m),
        }
    }

    fn te_mut(&mut self, id: TeId) -> &mut Te {
        &mut self.tes[id.0 as usize]
    }

    /// Indexes the pool from scratch. TEs the health monitor has declared
    /// down are not routable; TEs that crashed but are not yet detected
    /// stay routable — the platform cannot know about a failure before
    /// its heartbeats go missing.
    fn build_load_index(tes: &[Te], pairs: &[(TeId, TeId)]) -> LoadIndex {
        let colocated: Vec<TeId> = tes
            .iter()
            .filter(|t| t.role == TeRole::Colocated)
            .map(|t| t.id)
            .collect();
        LoadIndex::build(
            &colocated,
            pairs,
            |t| tes[t.0 as usize].detected,
            |t| tes[t.0 as usize].engine.load(),
        )
    }

    /// Re-reads TE `te_id`'s engine load into the dispatch index.
    fn sync_load(&mut self, te_id: TeId) {
        let load = self.tes[te_id.0 as usize].engine.load();
        self.load_index.set_load(te_id, load);
    }

    /// Runs `f` on TE `te_id`'s engine, then re-indexes its load. Every
    /// engine call that can change `Engine::load` goes through here.
    fn with_engine<R>(&mut self, te_id: TeId, f: impl FnOnce(&mut Engine) -> R) -> R {
        let r = f(&mut self.tes[te_id.0 as usize].engine);
        self.sync_load(te_id);
        r
    }

    fn on_arrival(&mut self, now: SimTime, idx: u32) {
        // One-lookahead streaming: pull and schedule the successor before
        // dispatching, so the queue holds the next arrival during this
        // dispatch exactly as a materialized inject would.
        if self.stream.is_some() {
            self.pull_next_stream();
        }
        self.first_arrival = Some(self.first_arrival.unwrap_or(now).min(now));
        if self.tracer.is_enabled() {
            if let Some(req) = &self.arrivals[idx as usize] {
                self.tracer.event(
                    now,
                    "arrival",
                    vec![
                        ("req", req.id.0.into()),
                        ("prompt_tokens", req.prompt.len().into()),
                        ("target_output", req.target_output.into()),
                    ],
                );
            }
            let depth: usize = self.tes.iter().map(|t| t.engine.queue_len()).sum();
            let qid = self.metrics.series("cluster.queue_depth");
            self.metrics.record_at(qid, now, depth as f64);
        }
        self.submitted += 1;
        self.dispatch(now, idx);
    }

    /// Routes one arrival (or re-dispatch) through the JE. The request
    /// keeps its original arrival stamp, so TTFT/JCT of a requeued request
    /// include the full failure + backoff delay.
    fn dispatch(&mut self, now: SimTime, idx: u32) {
        // A freed slot means the request already reached a terminal
        // state; stale redispatches land here and no-op.
        let Some(req) = self.arrivals[idx as usize].clone() else {
            return;
        };
        if self.fleet.is_some() {
            if let Some(m) = req.model {
                // Model-tagged request: route through the fleet registry.
                // Untagged requests keep the single-model path below.
                self.fleet_dispatch(now, idx, m);
                return;
            }
        }
        debug_assert_eq!(
            self.load_index,
            Self::build_load_index(&self.tes, &self.pairs),
            "dispatch load index drifted from the engines"
        );
        if self.load_index.is_empty() {
            // Every routable TE is detected-down; park the request until a
            // repair restores capacity.
            self.counters.incr("sim.dispatch_deferred");
            let gen = self.slot_gen[idx as usize];
            self.sched(
                now + self.fault_cfg.backoff_cap,
                Event::Redispatch(idx, gen),
            );
            return;
        }
        let decision: Decision = self.je.schedule_indexed(now, &req, &self.load_index);
        let new = NewRequest {
            id: req.id,
            prompt: req.prompt.clone(),
            target_output: req.target_output,
            arrival: req.arrival,
            cache_id: req.cache_id,
        };
        match decision.target {
            Target::Colocated(te_id) => {
                self.counters.incr("sim.routed_colocated");
                self.submit_to(now, te_id, new);
            }
            Target::Disaggregated { prefill, decode } => {
                self.counters.incr("sim.routed_disaggregated");
                self.decode_route.insert(req.id, decode);
                self.pending_migration.insert(req.id, new.clone());
                self.submit_to(now, prefill, new);
            }
        }
    }

    fn submit_to(&mut self, now: SimTime, te_id: TeId, new: NewRequest) {
        let kv_bytes_tok = self.cfg.model.kv_bytes_per_token();
        let id = new.id;
        let outcome = self.with_engine(te_id, |e| e.submit(now, new));
        if !outcome.accepted {
            self.counters.incr("sim.rejected");
            self.note_failed(now, id, "rejected");
        }
        if let Some(p) = outcome.populate {
            // Populate streams each rank's slice in parallel; the channel
            // is sized for the aggregate, so charge total bytes.
            let bytes = p.tokens as u64 * kv_bytes_tok;
            let te = self.te_mut(te_id);
            let done = te.pcie.enqueue(now, bytes);
            let epoch = te.epoch;
            self.sched(done, Event::Populate(te_id, epoch, p.ticket));
        }
        self.reschedule_wake(now, te_id);
    }

    fn reschedule_wake(&mut self, now: SimTime, te_id: TeId) {
        if !self.tes[te_id.0 as usize].alive {
            return;
        }
        let wake = {
            let te = self.te_mut(te_id);
            te.engine.next_wake(now)
        };
        let Some(wake) = wake else { return };
        let te = self.te_mut(te_id);
        // Dedup: skip if an equal-or-earlier wake is already scheduled.
        if te.scheduled_wake.is_some_and(|w| w <= wake && w >= now) {
            return;
        }
        te.scheduled_wake = Some(wake);
        self.sched(wake.max_of(now), Event::Wake(te_id));
    }

    /// Whether TE `te_id` should advance for a wake due at `now`, applying
    /// the gate's side effect (clearing a consumed `scheduled_wake`).
    fn wake_gate(&mut self, now: SimTime, te_id: TeId) -> bool {
        // A crashed TE computes nothing; stale wakes fall on the floor.
        if !self.tes[te_id.0 as usize].alive {
            return false;
        }
        let te = self.te_mut(te_id);
        match te.scheduled_wake {
            Some(w) if w == now => {
                te.scheduled_wake = None;
                true
            }
            // Superseded wake: a later reschedule moved this TE's next
            // deadline past `now` (fast-forward pushing `ends_at` out),
            // so the engine provably has nothing to do yet.
            Some(w) if w > now => false,
            _ => true,
        }
    }

    fn current_pacing(&self) -> Pacing {
        if self.fast_forward {
            let mut horizon = self.clock.horizon();
            // Live pacing: clamp absorption to the wall frontier. The
            // fence sits one nanosecond past the limit so an iteration
            // ending exactly at the limit (which `step_until` would still
            // process) can be absorbed, but nothing beyond it.
            if let Some(limit) = self.live.as_ref().and_then(|l| l.pace_limit) {
                let fence = limit + SimDuration::from_nanos(1);
                horizon = Some(horizon.map_or(fence, |h| h.min(fence)));
            }
            Pacing::FastForward { horizon }
        } else {
            Pacing::SingleStep
        }
    }

    fn on_wake(&mut self, now: SimTime, te_id: TeId) {
        if !self.wake_gate(now, te_id) {
            return;
        }
        let pacing = self.current_pacing();
        let mut events = std::mem::take(&mut self.events_scratch);
        events.clear();
        self.with_engine(te_id, |e| e.advance_paced(now, pacing, &mut events));
        for ev in events.drain(..) {
            self.on_engine_event(now, te_id, ev);
        }
        self.events_scratch = events;
        self.reschedule_wake(now, te_id);
    }

    fn on_engine_event(&mut self, now: SimTime, te_id: TeId, ev: EngineEvent) {
        match ev {
            EngineEvent::FirstToken { id, at } => {
                // Cache insertion happened inside the engine; sync the JE
                // tree for locality scheduling.
                let role = self.tes[te_id.0 as usize].role;
                if role == TeRole::Colocated {
                    if let Some(new) = self.arrival_prompt(id) {
                        self.je.note_cached(now, te_id, false, &new);
                    }
                }
                if let Some(live) = &mut self.live {
                    live.events.push(LiveEvent::FirstToken { id, at });
                }
            }
            EngineEvent::Tokens { id, at, n } => {
                // Streaming-only notification; no scheduling or stats
                // bookkeeping hangs off it.
                if let Some(live) = &mut self.live {
                    live.events.push(LiveEvent::Tokens { id, at, n });
                }
            }
            EngineEvent::PrefillComplete { id, at, kv_tokens } => {
                let role = self.tes[te_id.0 as usize].role;
                debug_assert_eq!(role, TeRole::Prefill);
                if let Some(prompt) = self.arrival_prompt(id) {
                    self.je.note_cached(now, te_id, true, &prompt);
                }
                self.start_migration(now, te_id, id, kv_tokens, at);
            }
            EngineEvent::Finished {
                id,
                latency,
                cached_tokens,
                ..
            } => {
                if !self.mark_terminal(id) {
                    // A request must finish exactly once; a second finish
                    // means recovery bookkeeping double-submitted it.
                    self.counters.incr("sim.double_terminal");
                    debug_assert!(false, "request {id:?} reached a terminal state twice");
                    return;
                }
                if self.retries.get(&id).is_some_and(|&n| n > 0) {
                    // RTC prefix hits on re-dispatch shrink the re-prefill
                    // cost of recovered requests; measure the savings.
                    self.counters
                        .add("sim.requeue_cache_hit_tokens", cached_tokens as u64);
                }
                let ttft_id = self.metrics.samples("cluster.ttft_ms");
                self.metrics.record(ttft_id, latency.ttft.as_millis_f64());
                let tpot_id = self.metrics.samples("cluster.tpot_ms");
                self.metrics.record(tpot_id, latency.tpot.as_millis_f64());
                let jct_id = self.metrics.samples("cluster.jct_ms");
                self.metrics.record(jct_id, latency.jct.as_millis_f64());
                self.latency.record(latency);
                self.completed += 1;
                self.last_completion = now;
                self.counters.incr("sim.completed");
                if let Some(live) = &mut self.live {
                    live.events.push(LiveEvent::Finished {
                        id,
                        at: now,
                        output_tokens: latency.output_tokens,
                    });
                }
            }
            EngineEvent::Rejected { id } => {
                self.counters.incr("sim.rejected");
                self.note_failed(now, id, "rejected");
            }
        }
    }

    fn arrival_prompt(&self, id: RequestId) -> Option<flowserve::Prompt> {
        let &idx = self.arrival_index.get(&id)?;
        self.arrivals[idx as usize]
            .as_ref()
            .map(|r| r.prompt.clone())
    }

    fn start_migration(
        &mut self,
        now: SimTime,
        from: TeId,
        id: RequestId,
        kv_tokens: usize,
        first_token_at: SimTime,
    ) {
        if let Some(until) = self.flaky_until {
            // Transient DistFlow failure: the transfer attempt errors out
            // once per request inside the flaky window; back off and retry
            // with the route still intact.
            if now < until && self.flaked.insert(id) {
                self.counters.incr("sim.transfer_flaked");
                if self.tracer.is_enabled() {
                    self.tracer
                        .event(now, "distflow.transfer_failed", vec![("req", id.0.into())]);
                }
                self.migration_retry
                    .insert(id, (from, kv_tokens, first_token_at));
                self.sched(now + self.fault_cfg.backoff_base, Event::MigrationRetry(id));
                return;
            }
        }
        let Some(to) = self.decode_route.remove(&id) else {
            // No route (e.g. context-cache-create): release immediately.
            self.with_engine(from, |e| e.release_migrated(now, id));
            return;
        };
        if !self.tes[to.0 as usize].alive {
            // The decode endpoint died before the transfer started; free
            // the prefill copy and send the request back through the JE.
            self.pending_migration.remove(&id);
            self.counters.incr("sim.migrations_aborted");
            self.with_engine(from, |e| e.release_migrated(now, id));
            self.reschedule_wake(now, from);
            self.requeue(now, id);
            return;
        }
        let Some(new) = self.pending_migration.remove(&id) else {
            // Metadata lost (bookkeeping bug): loud in debug builds; in
            // release, free the prefill TE's copy instead of wedging it.
            debug_assert!(false, "disaggregated request {id:?} lacks stashed metadata");
            self.with_engine(from, |e| e.release_migrated(now, id));
            return;
        };
        // By-layer streaming overlaps most of the transfer with prefill;
        // only the residual tail is exposed (§4.5: "by-req or by-layer").
        let total_bytes = kv_tokens as u64 * self.cfg.model.kv_bytes_per_token();
        let mut exposed_f = (total_bytes as f64 * (1.0 - self.cfg.kv_transfer_overlap)).max(1.0);
        if let Some((factor, until)) = self.link_degrade {
            // Degraded bandwidth is modeled as proportionally more exposed
            // bytes over the unchanged fabric rate.
            if now < until {
                exposed_f /= factor;
                self.counters.incr("sim.transfers_degraded");
            }
        }
        let exposed = exposed_f as u64;
        let src = self.tes[from.0 as usize].npus[0];
        let dst = self.tes[to.0 as usize].npus[0];
        // Plan the move through DistFlow (backend selection + occupancy
        // accounting); the fabric then spends the simulated time.
        let link_kind = self.fabric.link_kind(src, dst);
        // TE head NPUs are linked by `DistFlow::link_cluster` at
        // construction, so planning can only fail if that wiring changes.
        let plan = match self.distflow.transfer_at(
            now,
            BufferInfo {
                npu: src,
                tier: MemTier::Hbm,
                bytes: total_bytes,
            },
            BufferInfo {
                npu: dst,
                tier: MemTier::Hbm,
                bytes: total_bytes,
            },
            link_kind,
        ) {
            Ok(plan) => plan,
            Err(e) => {
                debug_assert!(false, "unlinked TE pair {src:?} -> {dst:?}: {e:?}");
                self.with_engine(from, |e| e.release_migrated(now, id));
                return;
            }
        };
        let tid = self.fabric.start_transfer(now, src, dst, exposed);
        let span = if self.tracer.is_enabled() {
            self.tracer.start_span(
                now,
                "kv_migration",
                vec![
                    ("req", id.0.into()),
                    ("from_te", from.0.into()),
                    ("to_te", to.0.into()),
                    ("kv_tokens", kv_tokens.into()),
                    ("total_bytes", total_bytes.into()),
                    ("exposed_bytes", exposed.into()),
                    ("crosses_fabric", plan.crosses_fabric.into()),
                ],
            )
        } else {
            SpanId::NONE
        };
        self.in_flight_migrations.insert(
            tid,
            Migration {
                new,
                from,
                to,
                kv_tokens,
                first_token_at,
                span,
            },
        );
        self.counters.incr("sim.kv_migrations");
        self.counters.add("sim.kv_bytes_migrated", total_bytes);
        self.schedule_fabric(now);
    }

    fn schedule_fabric(&mut self, now: SimTime) {
        let Some(next) = self.fabric.next_event(now) else {
            return;
        };
        if self.fabric_wake.is_some_and(|w| w <= next && w >= now) {
            return;
        }
        self.fabric_wake = Some(next);
        self.sched(next.max_of(now), Event::FabricAdvance);
    }

    fn on_fabric(&mut self, now: SimTime) {
        if self.fabric_wake == Some(now) {
            self.fabric_wake = None;
        }
        let done = self.fabric.advance_to(now);
        for tid in done {
            let Some(m) = self.in_flight_migrations.remove(&tid) else {
                continue;
            };
            self.tracer.end_span(now, m.span);
            let from_alive = self.tes[m.from.0 as usize].alive;
            let to_alive = self.tes[m.to.0 as usize].alive;
            if !from_alive || !to_alive {
                // An endpoint died mid-transfer (crash not yet detected):
                // the KV never lands. A surviving source frees its copy and
                // the request requeues; a dead source still holds the
                // request, so its detection drain requeues it instead
                // (requeueing here too would double-submit).
                self.counters.incr("sim.migrations_aborted");
                if from_alive {
                    self.with_engine(m.from, |e| e.release_migrated(now, m.new.id));
                    self.reschedule_wake(now, m.from);
                    self.requeue(now, m.new.id);
                }
                continue;
            }
            self.with_engine(m.from, |e| e.release_migrated(now, m.new.id));
            let to = m.to;
            self.with_engine(to, |e| {
                e.submit_with_kv(now, m.new, m.kv_tokens, m.first_token_at)
            });
            self.reschedule_wake(now, m.from);
            self.reschedule_wake(now, to);
        }
        self.schedule_fabric(now);
    }

    // --- fault layer -----------------------------------------------------

    fn on_fault(&mut self, now: SimTime, idx: u32) {
        let FaultEvent { kind, .. } = self.fault_events[idx as usize];
        match kind {
            FaultKind::TeCrash { te } => self.on_te_crash(now, TeId(te)),
            FaultKind::Straggler {
                te,
                factor,
                duration,
            } => {
                let te_id = TeId(te);
                if !self.tes[te_id.0 as usize].alive {
                    return;
                }
                self.te_mut(te_id).engine.set_slowdown(factor);
                self.counters.incr("cluster.stragglers");
                if self.tracer.is_enabled() {
                    self.tracer.event(
                        now,
                        "te.straggler",
                        vec![("te", te.into()), ("factor", factor.into())],
                    );
                }
                self.sched(now + duration, Event::StragglerEnd(te_id));
            }
            FaultKind::LinkDegrade { factor, duration } => {
                self.link_degrade = Some((factor.clamp(0.01, 1.0), now + duration));
                self.counters.incr("cluster.link_degrades");
                if self.tracer.is_enabled() {
                    self.tracer
                        .event(now, "fabric.degraded", vec![("factor", factor.into())]);
                }
            }
            FaultKind::TransferFlake { duration } => {
                self.flaky_until = Some(now + duration);
                self.counters.incr("cluster.transfer_flakes");
                if self.tracer.is_enabled() {
                    self.tracer.event(now, "distflow.flaky", vec![]);
                }
            }
        }
    }

    /// The TE dies instantly: in-flight batches, KV cache and RTC contents
    /// are gone. Nothing else in the platform learns about it until the
    /// health monitor misses enough heartbeats.
    fn on_te_crash(&mut self, now: SimTime, te_id: TeId) {
        let te = self.te_mut(te_id);
        if !te.alive {
            return;
        }
        te.alive = false;
        te.failed_at = Some(now);
        te.scheduled_wake = None;
        self.counters.incr("cluster.failures");
        if self.tracer.is_enabled() {
            self.tracer
                .event(now, "te.failed", vec![("te", te_id.0.into())]);
        }
    }

    /// Cluster-manager heartbeat sweep: live TEs beat, silent TEs accrue
    /// misses, and TEs past the threshold enter detection + repair.
    fn on_health_check(&mut self, now: SimTime) {
        let Some(mut health) = self.health.take() else {
            return;
        };
        for te in &self.tes {
            if te.alive {
                health.heartbeat(te.id, now);
            }
        }
        let newly_down = health.sweep(now);
        let interval = health.config().heartbeat_interval;
        self.health = Some(health);
        for te in newly_down {
            self.on_te_detected(now, te);
        }
        // Keep sweeping while anything is outstanding; stop once every
        // request terminated and no repair is in flight, so the sim ends.
        let outstanding = (self.completed + self.failed) < self.injected_total
            || self.stream.is_some()
            || self.repairs_pending > 0;
        if outstanding {
            self.sched(now + interval, Event::HealthCheck);
        }
    }

    /// The platform reacts to a detected failure: deregister the TE from
    /// scheduling and DistFlow, abort its transfers, re-queue everything it
    /// was holding, and kick off a replacement through the fast-scaling
    /// pipeline.
    fn on_te_detected(&mut self, now: SimTime, te_id: TeId) {
        let detection_ms = {
            let te = self.te_mut(te_id);
            te.detected = true;
            now.since(te.failed_at.unwrap_or(now)).as_millis_f64()
        };
        self.counters.incr("cluster.detected_down");
        if self.tracer.is_enabled() {
            self.tracer.event(
                now,
                "te.detected_down",
                vec![
                    ("te", te_id.0.into()),
                    ("detection_latency_ms", detection_ms.into()),
                ],
            );
        }
        self.je.note_te_removed(te_id);
        self.load_index.set_down(te_id, true);
        let head = self.tes[te_id.0 as usize].npus[0];
        self.distflow.unlink_npu(head);

        // Abort in-flight KV migrations touching the dead TE (BTreeMap
        // iteration makes the order deterministic: ascending TransferId).
        let doomed: Vec<TransferId> = self
            .in_flight_migrations
            .iter()
            .filter(|(_, m)| m.from == te_id || m.to == te_id)
            .map(|(&tid, _)| tid)
            .collect();
        for tid in doomed {
            let Some(m) = self.in_flight_migrations.remove(&tid) else {
                continue; // collected from this map just above
            };
            self.tracer.end_span(now, m.span);
            self.counters.incr("sim.migrations_aborted");
            if self.tes[m.from.0 as usize].alive {
                self.with_engine(m.from, |e| e.release_migrated(now, m.new.id));
                self.reschedule_wake(now, m.from);
                self.requeue(now, m.new.id);
            }
            // Dead source: the drain below requeues the request.
        }

        // Replace the engine (all KV and cache state is lost) and salvage
        // the dead one's observability into the final report.
        let idx = te_id.0 as usize;
        let role = self.tes[idx].role;
        let mut old = Self::build_engine(&self.cfg, role);
        if let Some((level, cap)) = self.trace_cfg {
            old.enable_tracing(level, cap);
        }
        old.set_token_events(self.token_events);
        std::mem::swap(&mut self.tes[idx].engine, &mut old);
        self.sync_load(te_id);
        self.tes[idx].epoch += 1;
        self.tes[idx].scheduled_wake = None;
        let orphans = old.active_request_ids();
        for (k, v) in old.counters().iter() {
            self.salvaged_counters.add(k, v);
        }
        for (k, v) in old.rtc().counters().iter() {
            self.salvaged_counters.add(k, v);
        }
        self.tes[idx].prior_busy += old.stats().busy;
        self.salvaged_traces
            .push((format!("te{idx}"), old.take_trace()));

        // Everything the TE was holding restarts from scratch elsewhere.
        for id in orphans {
            self.decode_route.remove(&id);
            self.pending_migration.remove(&id);
            self.migration_retry.remove(&id);
            self.requeue(now, id);
        }
        // Fleet residency died with the engine: the replacement comes up
        // with empty HBM, so every model hosted here loses this replica
        // (orphans re-dispatch through the registry and reload if needed).
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.resident[idx].clear();
            fleet.resident_bytes[idx] = 0;
            fleet.registry.drop_host_everywhere(te_id);
        }
        self.start_repair(now, te_id);
    }

    /// Provisions a replacement TE via the 5-step fast-scaling pipeline;
    /// the configured [`ScalingOptimizations`] decide the repair latency.
    fn start_repair(&mut self, now: SimTime, te_id: TeId) {
        let model = ScalingModel::new(self.cfg.cluster.clone());
        let ckpt = Checkpoint::new(FileId(1), self.cfg.model.clone());
        let opts = self.fault_cfg.repair;
        let any_alive = self.tes.iter().any(|t| t.alive);
        let path = if opts.npu_fork && any_alive {
            // Fork weights HBM-to-HBM from a surviving replica.
            LoadPath::NpuForkHccs { fanout: 1 }
        } else if opts.dram_preload {
            LoadPath::DramHit
        } else {
            LoadPath::DramMiss
        };
        let breakdown =
            model.breakdown(&ckpt, self.cfg.parallelism, opts, path, SourceLoad::idle());
        breakdown.emit_trace(&mut self.tracer, now);
        self.repairs_pending += 1;
        self.counters.incr("cluster.repairs_started");
        self.sched(now + breakdown.total(), Event::RepairDone(te_id));
    }

    fn on_repair_done(&mut self, now: SimTime, te_id: TeId) {
        self.repairs_pending = self.repairs_pending.saturating_sub(1);
        let failed_at = {
            let te = self.te_mut(te_id);
            te.alive = true;
            te.detected = false;
            te.failed_at.take()
        };
        let outage = now.since(failed_at.unwrap_or(now));
        self.counters.incr("cluster.repaired");
        let lat_id = self.metrics.samples("cluster.repair_latency_ms");
        self.metrics.record(lat_id, outage.as_millis_f64());
        if self.tracer.is_enabled() {
            self.tracer.event(
                now,
                "te.repaired",
                vec![
                    ("te", te_id.0.into()),
                    ("outage_ms", outage.as_millis_f64().into()),
                ],
            );
        }
        self.je.note_te_added(te_id);
        self.load_index.set_down(te_id, false);
        if let Some(h) = self.health.as_mut() {
            h.register(te_id, now);
        }
        // Re-link DistFlow over the live pool (idempotent set insertion).
        let heads: Vec<NpuId> = self
            .tes
            .iter()
            .filter(|t| t.alive)
            .map(|t| t.npus[0])
            .collect();
        self.distflow.link_cluster(&heads);
        self.reschedule_wake(now, te_id);
    }

    /// Sends a request back through the JE after capped exponential
    /// backoff, or fails it permanently once the retry budget is spent.
    fn requeue(&mut self, now: SimTime, id: RequestId) {
        let Some(&idx) = self.arrival_index.get(&id) else {
            return; // already terminal
        };
        let attempts = {
            let n = self.retries.entry(id).or_insert(0);
            *n += 1;
            *n
        };
        if attempts > self.fault_cfg.max_retries {
            self.note_failed(now, id, "retries_exhausted");
            return;
        }
        let backoff = self
            .fault_cfg
            .backoff_base
            .saturating_mul(1u64 << (attempts.min(16) - 1))
            .min(self.fault_cfg.backoff_cap);
        self.counters.incr("sim.requeued");
        if self.tracer.is_enabled() {
            self.tracer.event(
                now,
                "request.requeued",
                vec![("req", id.0.into()), ("attempt", attempts.into())],
            );
        }
        let gen = self.slot_gen[idx as usize];
        self.sched(now + backoff, Event::Redispatch(idx, gen));
    }

    fn note_failed(&mut self, now: SimTime, id: RequestId, reason: &'static str) {
        if !self.mark_terminal(id) {
            self.counters.incr("sim.double_terminal");
            debug_assert!(false, "request {id:?} reached a terminal state twice");
            return;
        }
        self.decode_route.remove(&id);
        self.pending_migration.remove(&id);
        self.migration_retry.remove(&id);
        self.failed += 1;
        self.counters.incr("sim.failed");
        self.last_completion = self.last_completion.max_of(now);
        if let Some(live) = &mut self.live {
            live.events.push(LiveEvent::Failed { id, at: now });
        }
        if self.tracer.is_enabled() {
            self.tracer.event(
                now,
                "request.failed",
                vec![
                    ("req", id.0.into()),
                    ("reason", reason.into()),
                    (
                        "retries",
                        self.retries.get(&id).copied().unwrap_or(0).into(),
                    ),
                ],
            );
        }
    }

    fn on_migration_retry(&mut self, now: SimTime, id: RequestId) {
        let Some((from, kv_tokens, first_token_at)) = self.migration_retry.remove(&id) else {
            // Already handled elsewhere (source crash drain, terminal).
            return;
        };
        if !self.arrival_index.contains_key(&id) || !self.tes[from.0 as usize].alive {
            return;
        }
        self.start_migration(now, from, id, kv_tokens, first_token_at);
    }

    // --- model fleet ------------------------------------------------------

    /// Switches the sim into model-fleet mode: requests tagged with a
    /// model index ([`ApiRequest::with_model`]) route through the registry,
    /// paying a cold start through the storage hierarchy when the model is
    /// not HBM-resident anywhere. Untagged requests keep the single-model
    /// path, so a fleet sim with no tagged traffic is byte-identical to a
    /// plain one. Call before injecting or submitting anything.
    ///
    /// Execution cost remains the configured engine template for every
    /// model (the fleet layer measures cold-start economics, not per-model
    /// decode speed — see DESIGN.md "Model fleet & storage hierarchy").
    ///
    /// # Panics
    ///
    /// Panics if any TE is not colocated: the fleet layer schedules whole
    /// requests onto single TEs.
    pub fn enable_fleet(&mut self, registry: ModelRegistry, cfg: FleetConfig) {
        assert!(
            self.tes.iter().all(|t| t.role == TeRole::Colocated),
            "fleet mode requires an all-colocated pool"
        );
        let world = self.cfg.parallelism.world_size() as u64;
        let te_budget = cfg
            .hbm_weight_budget
            .unwrap_or(world * self.cfg.cluster.server.chip.hbm_bytes * 7 / 10);
        let stores = (0..self.cfg.cluster.num_servers)
            .map(|_| ServerStore::for_server(&self.cfg.cluster.server))
            .collect();
        self.fleet = Some(FleetState {
            registry,
            cfg,
            stores,
            waiting: BTreeMap::new(),
            inflight: BTreeMap::new(),
            resident: vec![Vec::new(); self.tes.len()],
            resident_bytes: vec![0; self.tes.len()],
            te_budget,
        });
    }

    /// Registry access for frontends (`/v1/models`); `None` outside fleet
    /// mode.
    pub fn fleet_registry(&self) -> Option<&ModelRegistry> {
        self.fleet.as_ref().map(|f| &f.registry)
    }

    /// Pre-seeds a model's checkpoint into every server's SSD (the common
    /// steady state: the whole fleet is staged on local SSD, only DRAM and
    /// HBM are scarce). Deterministic setup, not a simulated action.
    pub fn stage_fleet_on_ssd(&mut self) {
        let Some(fleet) = self.fleet.as_mut() else {
            return;
        };
        for m in 0..fleet.registry.len() as u32 {
            let Some(entry) = fleet.registry.entry(m) else {
                continue;
            };
            let (file, size) = (entry.ckpt.file, entry.ckpt.total_bytes());
            for store in &mut fleet.stores {
                store.prime_ssd(file, size);
            }
        }
    }

    /// Pre-seeds one model's checkpoint onto one server's SSD (tests and
    /// benches shaping locality scenarios). Deterministic setup.
    pub fn prime_model_on_server(&mut self, m: u32, server: usize) {
        let Some(fleet) = self.fleet.as_mut() else {
            return;
        };
        let Some(entry) = fleet.registry.entry(m) else {
            return;
        };
        let (file, size) = (entry.ckpt.file, entry.ckpt.total_bytes());
        if let Some(store) = fleet.stores.get_mut(server) {
            store.prime_ssd(file, size);
        }
    }

    fn tier_load_counter(tier: Tier) -> &'static str {
        match tier {
            Tier::Hbm => "fleet.loads_hbm",
            Tier::Dram => "fleet.loads_dram",
            Tier::Ssd => "fleet.loads_ssd",
            Tier::Remote => "fleet.loads_remote",
        }
    }

    fn tier_sla_counter(tier: Tier, ok: bool) -> &'static str {
        match (tier, ok) {
            (Tier::Hbm, true) => "fleet.cold_sla_ok.hbm",
            (Tier::Hbm, false) => "fleet.cold_sla_miss.hbm",
            (Tier::Dram, true) => "fleet.cold_sla_ok.dram",
            (Tier::Dram, false) => "fleet.cold_sla_miss.dram",
            (Tier::Ssd, true) => "fleet.cold_sla_ok.ssd",
            (Tier::Ssd, false) => "fleet.cold_sla_miss.ssd",
            (Tier::Remote, true) => "fleet.cold_sla_ok.remote",
            (Tier::Remote, false) => "fleet.cold_sla_miss.remote",
        }
    }

    /// Routes one model-tagged arrival: hot models go straight to their
    /// least-loaded host, cold models start a checkpoint load and park the
    /// request behind it.
    fn fleet_dispatch(&mut self, now: SimTime, idx: u32, m: u32) {
        let state = {
            let Some(fleet) = self.fleet.as_ref() else {
                return;
            };
            if fleet.registry.entry(m).is_none() {
                // The gateway validates names, so an unknown index is a
                // driver bug; fail the request rather than wedge it.
                let Some(id) = self.arrivals[idx as usize].as_ref().map(|r| r.id) else {
                    return;
                };
                self.counters.incr("fleet.unknown_model");
                self.note_failed(now, id, "unknown_model");
                return;
            }
            fleet.registry.state(m)
        };
        let gen = self.slot_gen[idx as usize];
        match state {
            LoadState::Loaded => self.fleet_dispatch_hot(now, idx, m),
            LoadState::Loading => {
                if let Some(fleet) = self.fleet.as_mut() {
                    fleet.waiting.entry(m).or_default().push((idx, gen));
                }
                self.counters.incr("fleet.queued");
            }
            LoadState::Unloaded => {
                if self.start_model_load(now, m, false) {
                    if let Some(fleet) = self.fleet.as_mut() {
                        fleet.waiting.entry(m).or_default().push((idx, gen));
                    }
                    self.counters.incr("fleet.queued");
                } else {
                    // No routable TE (everything detected-down): park until
                    // a repair restores capacity, like the single-model path.
                    self.counters.incr("sim.dispatch_deferred");
                    self.sched(
                        now + self.fault_cfg.backoff_cap,
                        Event::Redispatch(idx, gen),
                    );
                }
            }
        }
    }

    fn fleet_dispatch_hot(&mut self, now: SimTime, idx: u32, m: u32) {
        let host = {
            let Some(fleet) = self.fleet.as_ref() else {
                return;
            };
            fleet
                .registry
                .hosts(m)
                .iter()
                .copied()
                .filter(|t| !self.tes[t.0 as usize].detected)
                .min_by_key(|&t| (self.tes[t.0 as usize].engine.load(), t))
        };
        let Some(host) = host else {
            // Defensive: detection removes hosts from the registry, so a
            // Loaded model always has a routable host. Back off if not.
            self.counters.incr("sim.dispatch_deferred");
            let gen = self.slot_gen[idx as usize];
            self.sched(
                now + self.fault_cfg.backoff_cap,
                Event::Redispatch(idx, gen),
            );
            return;
        };
        let load = self.tes[host.0 as usize].engine.load();
        let scale_out = {
            let Some(fleet) = self.fleet.as_mut() else {
                return;
            };
            // LRU touch: `m` is now this TE's most recently used model.
            let lru = &mut fleet.resident[host.0 as usize];
            if let Some(pos) = lru.iter().position(|&x| x == m) {
                lru.remove(pos);
                lru.push(m);
            }
            load >= fleet.cfg.scale_out_queue && !fleet.inflight.contains_key(&m)
        };
        if scale_out {
            // Queue pressure on the hottest replica: scale the model out.
            let _ = self.start_model_load(now, m, true);
        }
        self.counters.incr("fleet.dispatch_hot");
        let Some(req) = self.arrivals[idx as usize].clone() else {
            return;
        };
        let new = NewRequest {
            id: req.id,
            prompt: req.prompt.clone(),
            target_output: req.target_output,
            arrival: req.arrival,
            cache_id: req.cache_id,
        };
        self.submit_to(now, host, new);
    }

    /// Starts a checkpoint load for model `m` — a cold start, or a
    /// scale-out onto extra TEs when `scale_out`. Returns false when no TE
    /// can take the model right now (the caller defers the request).
    fn start_model_load(&mut self, now: SimTime, m: u32, scale_out: bool) -> bool {
        let (file, ckpt, hosts, mode) = {
            let Some(fleet) = self.fleet.as_ref() else {
                return false;
            };
            if fleet.inflight.contains_key(&m) {
                return true; // coalesce with the load already in flight
            }
            let Some(entry) = fleet.registry.entry(m) else {
                return false;
            };
            (
                entry.ckpt.file,
                entry.ckpt.clone(),
                fleet.registry.hosts(m).to_vec(),
                fleet.cfg.mode,
            )
        };
        let total = ckpt.total_bytes();
        // Candidates: routable TEs not already hosting `m`, annotated with
        // the storage tier holding the checkpoint on their server and the
        // current engine load. Tes iteration order is fixed, so placement
        // is deterministic.
        let mut candidates: Vec<(TeId, u8, usize)> = Vec::new();
        {
            let Some(fleet) = self.fleet.as_ref() else {
                return false;
            };
            for te in &self.tes {
                if te.detected || hosts.contains(&te.id) {
                    continue;
                }
                let tier = match mode {
                    // The baseline ignores local storage entirely.
                    ColdStartMode::PrewarmMiss => Tier::Remote,
                    _ => fleet.stores[te.npus[0].server].locate(file, ByteRange::new(0, total)),
                };
                candidates.push((te.id, tier.rank(), te.engine.load()));
            }
        }
        if candidates.is_empty() {
            return false;
        }
        // Locality-aware startup: the JE prefers TEs whose DRAM/SSD
        // already holds the checkpoint.
        let Some(primary) = self.je.place_cold_start(&candidates) else {
            return false;
        };
        let mut targets = vec![primary];
        if scale_out && mode == ColdStartMode::HierarchyMulticast {
            // Binary-tree multicast reaches several TEs in ~log2 rounds,
            // so one distribution wave installs up to three new replicas.
            candidates.sort_by_key(|&(te, rank, load)| (rank, load, te));
            for &(te, _, _) in candidates.iter().filter(|c| c.0 != primary).take(2) {
                targets.push(te);
            }
        }
        // Price the load: tier fault-in (or remote streaming) up front,
        // then the five-step scaling pipeline onto the NPUs.
        let (pre, path, tier) = match mode {
            ColdStartMode::PrewarmMiss => {
                let (latency, bandwidth) = {
                    let Some(fleet) = self.fleet.as_ref() else {
                        return false;
                    };
                    (fleet.cfg.remote.latency, fleet.cfg.remote.bandwidth)
                };
                let pre = latency + SimDuration::from_secs_f64(total as f64 / bandwidth);
                (pre, LoadPath::DramMiss, Tier::Remote)
            }
            _ if scale_out => {
                // Weights fork HBM-to-HBM from the live replicas; the
                // storage hierarchy is never touched.
                let path = if mode == ColdStartMode::HierarchyMulticast {
                    LoadPath::Multicast {
                        fanout: targets.len(),
                    }
                } else {
                    LoadPath::NpuForkRoce { fanout: 1 }
                };
                (SimDuration::ZERO, path, Tier::Hbm)
            }
            _ => {
                let server = self.tes[primary.0 as usize].npus[0].server;
                let Some(fleet) = self.fleet.as_mut() else {
                    return false;
                };
                let fb = fleet.stores[server].fault_in(file, ByteRange::new(0, total), total);
                let pre = fault_time(fb, &self.cfg.cluster.server, &fleet.cfg.remote);
                (pre, LoadPath::DramHit, fb.source)
            }
        };
        // A scale-out's source replica is busy (that is why we scale);
        // initial cold starts pull from storage, not a serving TE.
        let source = if scale_out {
            let busiest = hosts
                .iter()
                .filter(|t| !self.tes[t.0 as usize].detected)
                .map(|t| self.tes[t.0 as usize].engine.load())
                .max()
                .unwrap_or(0);
            let denom = {
                let Some(fleet) = self.fleet.as_ref() else {
                    return false;
                };
                fleet.cfg.scale_out_queue.max(1) as f64
            };
            SourceLoad {
                intensity: (busiest as f64 / denom).min(1.0),
            }
        } else {
            SourceLoad::idle()
        };
        let opts = {
            let Some(fleet) = self.fleet.as_ref() else {
                return false;
            };
            fleet.cfg.scaling
        };
        let scaling = ScalingModel::new(self.cfg.cluster.clone());
        let breakdown = scaling.breakdown(&ckpt, self.cfg.parallelism, opts, path, source);
        breakdown.emit_trace(&mut self.tracer, now + pre);
        let total_time = pre + breakdown.total();

        let span = if self.tracer.is_enabled() {
            self.tracer.start_span(
                now,
                "fleet.cold_start",
                vec![
                    ("model", m.into()),
                    ("target", primary.0.into()),
                    ("fanout", targets.len().into()),
                    ("tier", tier.as_str().into()),
                    ("scale_out", scale_out.into()),
                    ("pre_ms", pre.as_millis_f64().into()),
                    ("total_ms", total_time.as_millis_f64().into()),
                ],
            )
        } else {
            SpanId::NONE
        };
        self.counters.incr("fleet.cold_starts");
        self.counters.incr(Self::tier_load_counter(tier));
        let cs_id = self.metrics.samples("fleet.cold_start_ms");
        self.metrics.record(cs_id, total_time.as_millis_f64());

        let targets_ep: Vec<(TeId, u32)> = targets
            .iter()
            .map(|&t| (t, self.tes[t.0 as usize].epoch))
            .collect();
        {
            let Some(fleet) = self.fleet.as_mut() else {
                return false;
            };
            if !scale_out {
                fleet.registry.set_loading(m);
            }
            fleet.inflight.insert(
                m,
                InflightLoad {
                    targets: targets_ep,
                    tier,
                    span,
                },
            );
        }
        self.sched(now + total_time, Event::ModelReady(m));
        true
    }

    /// A fleet checkpoint load lands: install the model on every target
    /// that survived the load window, then drain the queue behind it.
    fn on_model_ready(&mut self, now: SimTime, m: u32) {
        let Some(load) = self.fleet.as_mut().and_then(|f| f.inflight.remove(&m)) else {
            return;
        };
        self.tracer.end_span(now, load.span);
        let valid: Vec<TeId> = load
            .targets
            .iter()
            .filter(|&&(te, epoch)| {
                let t = &self.tes[te.0 as usize];
                t.alive && !t.detected && t.epoch == epoch
            })
            .map(|&(te, _)| te)
            .collect();
        if valid.is_empty() {
            // Every target crashed mid-load; the checkpoint never lands.
            // Waiters re-dispatch immediately and the first one restarts
            // the load on whatever capacity remains.
            self.counters.incr("fleet.loads_aborted");
            let waiters = {
                let Some(fleet) = self.fleet.as_mut() else {
                    return;
                };
                fleet.registry.abort_loading(m);
                fleet.waiting.remove(&m).unwrap_or_default()
            };
            for (idx, gen) in waiters {
                self.sched(now, Event::Redispatch(idx, gen));
            }
            return;
        }
        for &te in &valid {
            if let Some(fleet) = self.fleet.as_mut() {
                fleet.registry.set_loaded(m, te);
            }
            self.fleet_install(now, te, m);
        }
        self.counters
            .add("fleet.replicas_added", valid.len() as u64);
        let (waiters, sla) = {
            let Some(fleet) = self.fleet.as_mut() else {
                return;
            };
            (
                fleet.waiting.remove(&m).unwrap_or_default(),
                fleet.cfg.cold_sla,
            )
        };
        for (idx, gen) in waiters {
            if self.slot_gen[idx as usize] != gen {
                continue; // reached a terminal state while parked
            }
            let Some(req) = &self.arrivals[idx as usize] else {
                continue;
            };
            let wait = now.since(req.arrival);
            let wid = self.metrics.samples("fleet.cold_wait_ms");
            self.metrics.record(wid, wait.as_millis_f64());
            self.counters
                .incr(Self::tier_sla_counter(load.tier, wait <= sla));
            self.dispatch(now, idx);
        }
    }

    /// Pins `m` into `te`'s HBM residency, evicting LRU models past the
    /// per-TE weight budget (never the model just installed).
    fn fleet_install(&mut self, now: SimTime, te: TeId, m: u32) {
        let idx = te.0 as usize;
        let mut evicted: Vec<u32> = Vec::new();
        {
            let Some(fleet) = self.fleet.as_mut() else {
                return;
            };
            let bytes = fleet.registry.entry(m).map_or(0, |e| e.spec.weight_bytes());
            let lru = &mut fleet.resident[idx];
            if let Some(pos) = lru.iter().position(|&x| x == m) {
                lru.remove(pos);
            } else {
                fleet.resident_bytes[idx] += bytes;
            }
            lru.push(m);
            while fleet.resident_bytes[idx] > fleet.te_budget && fleet.resident[idx].len() > 1 {
                let victim = fleet.resident[idx].remove(0);
                let vb = fleet
                    .registry
                    .entry(victim)
                    .map_or(0, |e| e.spec.weight_bytes());
                fleet.resident_bytes[idx] = fleet.resident_bytes[idx].saturating_sub(vb);
                fleet.registry.remove_host(victim, te);
                evicted.push(victim);
            }
        }
        for victim in evicted {
            self.counters.incr("fleet.evictions");
            if self.tracer.is_enabled() {
                self.tracer.event(
                    now,
                    "fleet.evicted",
                    vec![("model", victim.into()), ("te", te.0.into())],
                );
            }
        }
    }

    /// Completed / submitted counts (for progress checks in tests).
    pub fn progress(&self) -> (u64, u64) {
        (self.completed, self.submitted)
    }

    /// Requests that failed permanently (always zero without faults).
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Sum of every live engine's statistics (benches/diagnostics). The
    /// `iterations` total counts logical iterations, so it is invariant
    /// under fast-forward — a useful cross-check that macro-stepping did
    /// the same work.
    pub fn engine_stats_total(&self) -> flowserve::EngineStats {
        let mut total = flowserve::EngineStats::default();
        for te in &self.tes {
            let s = te.engine.stats();
            total.iterations += s.iterations;
            total.busy += s.busy;
            total.output_tokens += s.output_tokens;
            total.finished += s.finished;
            total.preemptions += s.preemptions;
            total.ff_windows += s.ff_windows;
            total.ff_iterations += s.ff_iterations;
        }
        total
    }
}
