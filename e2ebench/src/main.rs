//! The benchmark of the compiler and its serving stack.
//!
//! ```text
//! mps-e2ebench --workload <compile_mix|serve_hits>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates the workload's inputs from `--seed`, measures for
//! `--seconds`, checks every output against an independent oracle and
//! prints one JSON line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Any wrong output or failed
//! validity check exits non-zero. The metric names and units are listed
//! in [`report::END_TO_END`] and [`report::PER_LAYER`].

mod compile_mix;
mod inputs;
mod layers;
mod oracle;
mod report;
mod serve;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measured time of the run. In a traced run it is split evenly
    /// between an untraced and a traced pass of the same workload.
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    /// Measured time of one pass: all of it untraced, half of it traced.
    pub fn pass(&self) -> Duration {
        if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        }
    }
}

const USAGE: &str = "usage: mps-e2ebench --workload <compile_mix|serve_hits> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "threads_available = {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let report = match args.workload.as_str() {
        "compile_mix" => compile_mix::run(&args),
        "serve_hits" => serve::hits(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report.finish(&args)
}
