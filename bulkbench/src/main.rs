//! bulkbench — the repository's end-to-end and per-layer benchmark.
//!
//! One process runs one workload: it generates the workload's inputs from
//! `--seed`, precomputes their reference outputs on the scalar machine,
//! then drives the engine (`oblivious::run_sharded`) or in-process servers
//! (`bulkd`, `repl`, `router`) through their public entry points, checks
//! every output bit for bit, and prints one JSON result line.
//!
//! ```text
//! bulkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics, timed from outside around calls into each layer.
//! See `NOTES.md` beside this crate for the workloads and their layers.

mod layers;
mod offline;
mod serving;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's workloads (see `NOTES.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 11 shape: bulk prefix-sums, n=1024, p=8192 per job.
    OfflinePrefix,
    /// Fig. 12 shape: bulk OPT triangulation, n=64, p=1024 per job.
    OfflineOpt,
    /// Open loop, 100 single-instance submits/s to one bulkd, no WAL.
    ServeTrickle,
    /// Closed loop, 2 connections × 32 instances through router → primary
    /// (WAL fsync always) → standby.
    ServeReplicated,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "offline-prefix" => Ok(Workload::OfflinePrefix),
            "offline-opt" => Ok(Workload::OfflineOpt),
            "serve-trickle" => Ok(Workload::ServeTrickle),
            "serve-replicated" => Ok(Workload::ServeReplicated),
            _ => Err(format!(
                "unknown workload {name:?} (offline-prefix, offline-opt, serve-trickle, \
                 serve-replicated)"
            )),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    /// Print per-layer metrics (`true`) or end-to-end metrics (`false`).
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (offline: bulk jobs; serving: submits).
    pub attempted: u64,
    /// Operations that errored, were refused, or returned a wrong output.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Append one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

/// A per-process scratch directory inside the current directory (the
/// benchmark reads and writes nothing outside its checkout), removed when
/// the run ends.
pub struct Scratch {
    /// The directory itself.
    pub dir: PathBuf,
}

impl Scratch {
    fn create() -> Result<Self, String> {
        let dir = PathBuf::from(".bulkbench_scratch").join(std::process::id().to_string());
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave no empty parent behind once the last concurrent run ends.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.  Values
/// print with Rust's shortest round-trip formatting, i.e. every digit the
/// `f64` carries.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { format!("{value:?}") } else { "null".into() };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bulkbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bulkbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Workload::OfflinePrefix | Workload::OfflineOpt => Ok(offline::run(&args)),
        Workload::ServeTrickle | Workload::ServeReplicated => serving::run(&args, &scratch),
    };
    drop(scratch);
    match result {
        Ok(outcome) => {
            println!("{}", result_line(&outcome));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "bulkbench: {} of {} operations failed",
                    outcome.failed, outcome.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("bulkbench: {e}");
            ExitCode::from(1)
        }
    }
}
