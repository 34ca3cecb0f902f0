//! Fleet benchmark for the landmark-explanation fleet.
//!
//! ```text
//! cargo run --release --offline --manifest-path fleetbench/Cargo.toml -- \
//!     --workload <serve_cold|serve_hot|batch> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Three workloads run against the real
//! fleet, all in this process: em-route in front of two em-serve
//! backends over loopback TCP (`serve_cold`, `serve_hot`), and em-batch
//! plan → `execute` → `verify_run` on disk (`batch`). Every input derives
//! from `--seed`. Every output byte is checked against a direct
//! in-process computation; a mismatch fails the run (exit code 1).
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports per-layer metrics from an outside-in trace:
//! live traffic with client-side spans, then a single-threaded replay
//! through each crate's public calls. `LAYERS.md` maps each per-layer
//! metric to the end-to-end metric it should move, and says why
//! `BENCHMARK.json` runs only `serve_cold` and `batch`. Working files go to
//! `.fleetbench-work/` under the current directory; span files stay
//! there after the run.

mod batch;
mod fleet;
mod load;
mod replay;
mod report;
mod rng;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use report::{Report, Runner};

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 5;

const USAGE: &str =
    "usage: fleetbench --workload <serve_cold|serve_hot|batch> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or(format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(runner: &Runner, started: Instant) -> Result<Report, String> {
    let io = |e: std::io::Error| e.to_string();
    match (runner.workload.as_str(), runner.trace) {
        ("serve_cold", false) => serve::run(serve::COLD, runner, started).map_err(io),
        ("serve_cold", true) => serve::run_traced(serve::COLD, runner, started).map_err(io),
        ("serve_hot", false) => serve::run(serve::HOT, runner, started).map_err(io),
        ("serve_hot", true) => serve::run_traced(serve::HOT, runner, started).map_err(io),
        ("batch", false) => batch::run(runner, started).map_err(io),
        ("batch", true) => batch::run_traced(runner, started).map_err(io),
        (other, _) => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = PathBuf::from(".fleetbench-work");
    let runner = Runner {
        work: out.join(format!("{}-{}", args.workload, std::process::id())),
        out,
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        setups: SETUPS,
    };
    if let Err(e) = std::fs::create_dir_all(&runner.work) {
        eprintln!("fleetbench: cannot create {}: {e}", runner.work.display());
        std::process::exit(2);
    }
    println!(
        "# fleetbench {} seed={} seconds={} trace={} nproc={}",
        runner.workload,
        runner.seed,
        runner.seconds,
        u8::from(runner.trace),
        runner.nproc
    );
    let jiffies = report::cpu_jiffies();
    let result = run(&runner, started);
    let _ = std::fs::remove_dir_all(&runner.work);
    match result {
        Ok(mut report) => {
            if let (Some((s0, t0)), Some((s1, t1))) = (jiffies, report::cpu_jiffies()) {
                let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
                report.note(format!(
                    "host steal: {:.1}% of CPU time during the run",
                    share * 100.0
                ));
            }
            report.print(runner.trace);
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("fleetbench: {e}");
            std::process::exit(1);
        }
    }
}
