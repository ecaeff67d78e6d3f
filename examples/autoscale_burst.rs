//! Fast scaling under a traffic burst (§6): the AUTOSCALER reacts to a
//! 10x load spike, and we compare how quickly capacity arrives with the
//! full optimization stack (pre-warmed pods/TEs, DRAM pre-loading,
//! NPU-fork) versus a cold pipeline.
//!
//! Each added TE needs one warm pod and one packed pre-warmed TE. A
//! scale-up counts as pre-warmed only when both pools cover all of it;
//! the pools start with 8 of each and do not refill within the window,
//! so later scale-ups pay the cold pod and TE start-up.
//!
//! Run with: `cargo run --release --example autoscale_burst`

use deepserve_repro::deepserve::{
    AutoscaleSignal, Autoscaler, AutoscalerConfig, PodPool, PreloadManager, ScaleAction,
    ScalingModel, ScalingOptimizations, SourceLoad, TePool,
};
use deepserve_repro::llm_model::{Checkpoint, ModelSpec, Parallelism};
use deepserve_repro::npu::pagecache::{FileId, PageCache};
use deepserve_repro::npu::specs::ClusterSpec;
use deepserve_repro::simcore::{SimDuration, SimRng, SimTime};
use deepserve_repro::workloads::{BurstLoad, ChatTrace};

/// Requests each active TE can absorb per autoscaler tick.
const TE_CAPACITY_PER_TICK: usize = 10;

struct Scenario {
    name: &'static str,
    opts: ScalingOptimizations,
}

fn main() {
    let cluster = ClusterSpec::gen2_cluster(16);
    let model = ModelSpec::internal_34b();
    let par = Parallelism::tp(4);
    let ckpt = Checkpoint::new(FileId(1), model.clone());
    let scaling = ScalingModel::new(cluster.clone());

    // A 5-minute window with a 10x burst at t=60s.
    let burst = BurstLoad {
        base_rps: 2.0,
        burst_rps: 20.0,
        burst_at: SimTime::from_secs(60),
        burst_secs: 120.0,
        shape: ChatTrace::paper(2.0),
    };
    let mut rng = SimRng::seed_from_u64(21);
    let arrivals = burst.generate(&mut rng, 300.0);
    println!(
        "burst workload: {} requests over 300s (2 rps -> 20 rps at t=60s)\n",
        arrivals.len()
    );

    for scenario in [
        Scenario {
            name: "cold pipeline (no optimizations)",
            opts: ScalingOptimizations::none(),
        },
        Scenario {
            name: "optimized (pre-warm + DRAM preload + NPU-fork)",
            opts: ScalingOptimizations::all(),
        },
    ] {
        simulate(&scaling, &ckpt, par, &arrivals, scenario);
    }
    println!(
        "Expected shape (Figure 7/8): the optimized pipeline brings new TEs\n\
         up in seconds (NPU-fork from a running TE), the cold pipeline in\n\
         over a minute — the burst is long over before cold capacity lands."
    );
}

fn simulate(
    scaling: &ScalingModel,
    ckpt: &Checkpoint,
    par: Parallelism,
    arrivals: &[deepserve_repro::workloads::ReqSpec],
    scenario: Scenario,
) {
    let mut pods = PodPool::new(8);
    let mut tes = TePool::new(8, 64);
    let mut preload = PreloadManager::new();
    preload.note_demand(ckpt.model.name);
    let mut cache = PageCache::new(scaling.cluster().server.dram_bytes);
    if scenario.opts.dram_preload {
        preload.preload_into(&mut cache, std::slice::from_ref(ckpt));
    }

    let mut scaler = Autoscaler::new(AutoscalerConfig {
        high_load_per_te: 8.0,
        step: 8,
        cooldown: SimDuration::from_secs(5),
        ..AutoscalerConfig::default()
    });

    let mut active: usize = 2;
    // (ready_at, count) for in-flight scale-ups.
    let mut pending: Vec<(SimTime, usize)> = Vec::new();
    let mut backlog: usize = 0;
    let mut idx = 0usize;
    let mut first_scale: Option<(SimTime, SimDuration)> = None;
    let mut peak_backlog = 0usize;

    // 1-second autoscaler ticks over the 300s window.
    for sec in 0..300u64 {
        let now = SimTime::from_secs(sec);
        // Arrivals this tick.
        while idx < arrivals.len() && arrivals[idx].arrival < now + SimDuration::from_secs(1) {
            backlog += 1;
            idx += 1;
        }
        // Scale-ups completing.
        pending.retain(|&(ready, n)| {
            if ready <= now {
                active += n;
                false
            } else {
                true
            }
        });
        // Service.
        backlog = backlog.saturating_sub(active * TE_CAPACITY_PER_TICK);
        peak_backlog = peak_backlog.max(backlog);

        let signal = AutoscaleSignal {
            total_load: backlog,
            active_tes: active,
            scaling_tes: pending.iter().map(|&(_, n)| n).sum(),
            slo_violation_rate: 0.0,
        };
        if let Some(ScaleAction::Up(n)) = scaler.decide(now, signal) {
            // Resolve the pipeline latency for this scale-up.
            let mut opts = scenario.opts;
            let ws = par.world_size() as usize;
            let (masters, executors) = tes.available();
            let warm = pods.available() >= n && masters >= n && executors >= n * ws;
            if warm {
                for _ in 0..n {
                    let took = pods.acquire() && tes.acquire(ws);
                    debug_assert!(took, "pool coverage was checked above");
                }
            }
            opts.prewarmed_pods &= warm;
            opts.prewarmed_tes &= warm;
            let path = scaling.choose_path(opts, active, &cache, ckpt, par, true, n);
            let total = scaling
                .breakdown(ckpt, par, opts, path, SourceLoad { intensity: 0.7 })
                .total();
            pending.push((now + total, n));
            if first_scale.is_none() && sec >= 60 {
                first_scale = Some((now, total));
                println!(
                    "[{}] t={sec}s scale +{n} TEs via {path:?}, pipeline {total}",
                    scenario.name
                );
            }
        }
    }
    println!(
        "[{}] final TEs: {active}, peak backlog: {peak_backlog} requests\n",
        scenario.name
    );
}
