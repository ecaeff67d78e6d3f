//! The four benchmark workloads: their topology, their input generator,
//! their size and their fixed latency limits.
//!
//! Inputs are a pure function of the seed: the program receives only the
//! generated requests, through `stream_trace` + `inject_stream`.

use deepserve::{
    stream_trace, ApiRequest, ClusterConfig, ClusterSim, IngressRecord, Policy, TeRole,
};
use npu::specs::ClusterSpec;
use simcore::{SimDuration, SimRng};
use workloads::{CodeGenTrace, ScaleTrace};

/// Names of every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "scale_dispatch",
    "decode_steady",
    "prefix_pd",
    "gateway_sse",
];

/// A boxed request stream the simulator can own.
pub type ReqStream = Box<dyn Iterator<Item = ApiRequest> + Send>;

/// Run size: `Full` for measurement, `Tiny` for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few hundred requests: exercises every path quickly.
    Tiny,
}

impl Size {
    /// Parses `full` / `tiny`.
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

/// Where a workload's requests come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// `ScaleTrace`: fixed request shape over a user population.
    Scale(ScaleTrace),
    /// `CodeGenTrace`: Zipf-shared long contexts, `count` requests.
    CodeGen(CodeGenTrace, usize),
    /// A gateway session log (the inputs a live run let in).
    Log(Vec<IngressRecord>),
}

/// One workload at one seed and size.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// TE roles, in TE-id order.
    pub roles: Vec<TeRole>,
    /// Request source.
    pub source: Source,
    /// Seed the source draws from.
    pub seed: u64,
    /// Sim-time length of one `step_until` slice.
    pub slice: SimDuration,
    /// `DEEPSERVE_THREADS` for this workload.
    pub threads: usize,
    /// TTFT limit of the SLO, milliseconds.
    pub slo_ttft_ms: f64,
    /// TPOT limit of the SLO, milliseconds.
    pub slo_tpot_ms: f64,
    /// Request count of the traced run's cliff probe: a longer run of the
    /// same stream, past the first RTC swap-out (`None`: no probe).
    pub probe_requests: Option<usize>,
}

/// Host threads available to load generation and the simulator.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn colocated(n: usize) -> Vec<TeRole> {
    vec![TeRole::Colocated; n]
}

fn pd_pairs(n: usize) -> Vec<TeRole> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                TeRole::Prefill
            } else {
                TeRole::Decode
            }
        })
        .collect()
}

/// The Figure 6 code-generation trace with the shared-context count
/// raised so the context working set exceeds one TE's HBM KV.
pub fn prefix_trace() -> CodeGenTrace {
    CodeGenTrace {
        contexts: 512,
        ..CodeGenTrace::paper(8.0)
    }
}

impl Workload {
    /// The simulated workload `name` (the gateway's inputs come from its
    /// session log instead; see [`Workload::from_log`]).
    pub fn sim(name: &str, seed: u64, size: Size) -> Option<Workload> {
        let tiny = size == Size::Tiny;
        let w = match name {
            "scale_dispatch" => Workload {
                name: "scale_dispatch",
                roles: colocated(256),
                source: Source::Scale(ScaleTrace {
                    prefill: 128,
                    decode: 64,
                    rps: 24.0 * 256.0,
                    count: if tiny { 512 } else { 32_768 },
                    users: 1024,
                }),
                seed,
                slice: SimDuration::from_millis(250),
                threads: 1,
                slo_ttft_ms: 100.0,
                slo_tpot_ms: 40.0,
                probe_requests: None,
            },
            "decode_steady" => Workload {
                name: "decode_steady",
                roles: colocated(16),
                source: Source::Scale(ScaleTrace {
                    prefill: 128,
                    decode: 1024,
                    rps: 8.0 * 16.0,
                    count: if tiny { 128 } else { 16_384 },
                    users: 256,
                }),
                seed,
                slice: SimDuration::from_secs(8),
                threads: 1,
                slo_ttft_ms: 125.0,
                slo_tpot_ms: 150.0,
                probe_requests: None,
            },
            "prefix_pd" => Workload {
                name: "prefix_pd",
                roles: pd_pairs(32),
                source: Source::CodeGen(prefix_trace(), if tiny { 256 } else { 8_192 }),
                seed,
                slice: SimDuration::from_secs(25),
                threads: 2,
                slo_ttft_ms: 500.0,
                slo_tpot_ms: 30.0,
                probe_requests: Some(if tiny { 384 } else { 10_240 }),
            },
            _ => return None,
        };
        Some(w)
    }

    /// The gateway workload's simulated side: the `serve` topology fed the
    /// recorded session log (`seed` is the run's, for naming and replays
    /// that draw their own randomness).
    pub fn from_log(records: Vec<IngressRecord>, tes: usize, seed: u64) -> Workload {
        Workload {
            name: "gateway_sse",
            roles: colocated(tes),
            source: Source::Log(records),
            seed,
            slice: SimDuration::from_secs(1),
            threads: 1,
            slo_ttft_ms: f64::INFINITY,
            slo_tpot_ms: f64::INFINITY,
            probe_requests: None,
        }
    }

    /// The workload's thread count, capped at the host's cores.
    pub fn effective_threads(&self) -> usize {
        self.threads.min(nproc()).max(1)
    }

    /// Number of TEs.
    pub fn tes(&self) -> usize {
        self.roles.len()
    }

    /// Whether TEs come in prefill/decode pairs.
    pub fn is_pd(&self) -> bool {
        self.roles.iter().any(|r| *r != TeRole::Colocated)
    }

    /// Requests the source yields.
    pub fn count(&self) -> usize {
        match &self.source {
            Source::Scale(t) => t.count,
            Source::CodeGen(_, n) => *n,
            Source::Log(r) => r.len(),
        }
    }

    /// The cluster configuration: the paper's standard 34B testbed sized
    /// to the TE count (the gateway keeps `serve`'s own configuration).
    pub fn config(&self) -> ClusterConfig {
        let std = ClusterConfig::standard_34b();
        if matches!(self.source, Source::Log(_)) {
            return std;
        }
        ClusterConfig {
            cluster: ClusterSpec::gen2_cluster(self.tes().div_ceil(2)),
            policy: Policy::Combined,
            ..std
        }
    }

    /// A fresh simulator for this workload. Thread count reaches the sim
    /// only through `DEEPSERVE_THREADS`.
    pub fn new_sim(&self) -> ClusterSim {
        std::env::set_var("DEEPSERVE_THREADS", self.effective_threads().to_string());
        ClusterSim::new(self.config(), &self.roles)
    }

    /// The request stream, `n` requests long (`None`: the workload's own
    /// size). Equal seeds give equal streams.
    pub fn stream_n(&self, n: Option<usize>) -> ReqStream {
        let rng = SimRng::seed_from_u64(self.seed);
        match &self.source {
            Source::Scale(t) => {
                let t = ScaleTrace {
                    count: n.unwrap_or(t.count),
                    ..*t
                };
                Box::new(stream_trace(t.stream(rng), 64_000))
            }
            Source::CodeGen(t, count) => {
                Box::new(stream_trace(t.stream(rng, n.unwrap_or(*count)), 64_000))
            }
            Source::Log(records) => {
                let records = records.clone();
                let n = n.unwrap_or(records.len());
                Box::new(
                    records
                        .into_iter()
                        .take(n)
                        .map(|r| IngressRecord::to_request(&r)),
                )
            }
        }
    }

    /// The workload's request stream.
    pub fn stream(&self) -> ReqStream {
        self.stream_n(None)
    }

    /// The TE that serves request index `i` in the single-TE layer
    /// replays: round robin over colocated TEs or prefill/decode pairs.
    pub fn share_of(&self, i: usize) -> usize {
        let lanes = if self.is_pd() {
            self.tes() / 2
        } else {
            self.tes()
        };
        i % lanes.max(1)
    }
}
