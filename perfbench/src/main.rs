//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]
//! perfbench gateway-layers --log SESSION.json --requests BYTES --report LIVE.json
//!               --server-wall S --tes N --seed N
//! ```
//!
//! `run` covers the simulated workloads. `gateway-layers` is the traced
//! half of `gateway_sse`: it replays the live run's session log through
//! every layer (the client side lives in `gateway.py`). Both print a
//! metric table and, last, one JSON result line; both exit non-zero when
//! an output check fails. Trace files go to `.bench_out/`.

use perfbench::bench::{self, GatewayInputs};
use perfbench::spec::{nproc, Size, Workload};
use perfbench::stats::fnv1a;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    cmd: String,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let cmd = it
            .next()
            .ok_or("missing subcommand: run | gateway-layers")?;
        let mut flags = Vec::new();
        while let Some(k) = it.next() {
            let name = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {k:?}"))?
                .to_string();
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name, v));
        }
        Ok(Args { cmd, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn req(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.req(name)?;
        v.parse()
            .map_err(|_| format!("--{name}: cannot parse {v:?}"))
    }
}

fn context(w: &Workload) {
    println!(
        "context {{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"deepserve_threads\":{},\"profile\":\"{}\",\"git_rev\":\"{}\"}}",
        w.name,
        w.seed,
        nproc(),
        w.effective_threads(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".to_string()),
    );
}

/// Where trace files are written, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

fn write_trace(name: &str, seed: u64, suffix: &str, trace: &serde::Value) -> Result<(), String> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}-seed{seed}{suffix}.json"));
    std::fs::write(&path, trace.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace written to {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    match args.cmd.as_str() {
        "run" => {
            let name = args.req("workload")?;
            let seed: u64 = args.num("seed")?;
            let seconds: f64 = args.num("seconds")?;
            let traced = args.req("trace")? == "1";
            let size = Size::parse(args.get("size").unwrap_or("full"))
                .ok_or("--size must be full or tiny")?;
            let w = Workload::sim(name, seed, size)
                .ok_or_else(|| format!("unknown simulated workload {name:?}"))?;
            context(&w);
            let (outcome, digest) = if traced {
                let t = bench::traced(&w, &GatewayInputs::default());
                write_trace(w.name, seed, ".trace", &t.trace)?;
                (t.outcome, t.digest)
            } else {
                bench::timed(&w, seconds)
            };
            println!("digest {} seed={seed} {digest:016x}", w.name);
            outcome.print();
            Ok(outcome.problems.is_empty())
        }
        "gateway-layers" => {
            let log = std::fs::read_to_string(args.req("log")?)
                .map_err(|e| format!("session log: {e}"))?;
            let records = deepserve_gateway::log::from_json(&log)?;
            let bytes =
                std::fs::read(args.req("requests")?).map_err(|e| format!("requests: {e}"))?;
            let live =
                std::fs::read(args.req("report")?).map_err(|e| format!("live report: {e}"))?;
            let seed: u64 = args.num("seed")?;
            let w = Workload::from_log(records, args.num("tes")?, seed);
            context(&w);
            let t = bench::traced(
                &w,
                &GatewayInputs {
                    server_wall_s: Some(args.num("server-wall")?),
                    request_bytes: Some(bytes),
                    live_digest: Some(fnv1a(&live)),
                },
            );
            write_trace(w.name, seed, ".layers", &t.trace)?;
            println!("digest {} seed={seed} {:016x}", w.name, t.digest);
            t.outcome.print();
            Ok(t.outcome.problems.is_empty())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
