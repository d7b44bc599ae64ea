//! The repository's benchmark: three seeded, closed-loop sampling
//! workloads, their end-to-end metrics (untraced run) or per-layer
//! metrics (traced run), and output checks that fail the run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload inproc|loopback|direct-l2 --seed 77 --seconds 10 --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed output check
//! prints `"correct": false` and exits with code 1. See `README.md` in
//! this directory for why each workload exists.

mod codec;
mod common;
mod direct_l2;
mod layers;
mod metrics;
mod report;
mod trace;
mod web;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Opts, Report};

/// Where runs keep their L2 logs and trace files (inside the checkout).
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

const USAGE: &str = "usage: perfbench --workload inproc|loopback|direct-l2 [--seed N] \
                     [--seconds S] [--trace 0|1] [--tiny]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 77,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--tiny" => opts.tiny = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::default();
    let run = match opts.workload.as_str() {
        "inproc" => web::inproc(&opts, &mut rep),
        "loopback" => web::loopback(&opts, &mut rep),
        "direct-l2" => direct_l2::run(&opts, &mut rep),
        other => Err(format!("unknown workload `{other}`")),
    };
    if let Err(e) = run {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let (correct, line) = rep.result(opts.trace);
    for e in &rep.errors {
        eprintln!("check failed: {e}");
    }
    if let Some(names) = rep.unmeasured_line().filter(|_| opts.trace) {
        println!("{names}");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
