//! Layered benchmark of the SnapBPF simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-snapbpf --seed 42 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics: host-time simulator
//! throughput, set-up time and peak memory, and the virtual-time
//! latencies of the modelled serverless host. `--trace 1` runs the
//! same workload with a recording tracer and per-layer probes and
//! prints the per-layer metrics. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; the exit code is non-zero when any correctness check
//! failed. See `perfbench/README.md` for the workloads, the metric
//! definitions and the layer map.

mod calib;
mod e2e;
mod layers;
mod probes;
mod report;
mod stats;
mod workload;

use std::process::ExitCode;

use report::Report;
use workload::Kind;

/// Parsed command line.
enum Mode {
    /// One benchmark run.
    Bench {
        kind: Kind,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    /// The set-up probe: generate schedule 0 and run it once, in a
    /// fresh process (see [`e2e::setup_child`]).
    SetupChild { kind: Kind, seed: u64 },
}

const USAGE: &str = "usage: snapbpf-perfbench --workload <cluster-warm|cold-snapbpf|cold-reap> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args() -> Result<Mode, String> {
    let mut kind = None;
    let mut seed = 42u64;
    let mut seconds = 30u64;
    let mut trace = false;
    let mut setup_child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be within 1..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-child" => setup_child = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let kind = kind.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(if setup_child {
        Mode::SetupChild { kind, seed }
    } else {
        Mode::Bench {
            kind,
            seed,
            seconds,
            trace,
        }
    })
}

/// Runs the mode the arguments select; a set-up child has no report.
fn run() -> Result<Option<Report>, String> {
    match parse_args()? {
        Mode::SetupChild { kind, seed } => e2e::setup_child(kind, seed).map(|()| None),
        Mode::Bench {
            kind,
            seed,
            seconds,
            trace,
        } => {
            println!(
                "workload {} seed {seed} seconds {seconds} trace {} (threads {}, nproc {})",
                kind.name(),
                u8::from(trace),
                workload::cluster_threads(),
                workload::nproc()
            );
            if trace {
                layers::run(kind, seed, seconds).map(Some)
            } else {
                e2e::run(kind, seed, seconds).map(Some)
            }
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(report)) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("a correctness check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
