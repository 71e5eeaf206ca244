//! kdmark — the repository's benchmark. See `benchmark/README.md`.
//!
//! `kdmark --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints one JSON result as its last line of
//! standard output. Without `--workload` it runs every workload, both ways,
//! each in a child process of its own, and writes `result.json`.

mod alloc;
mod compare;
mod gen;
mod json;
mod layers;
mod metrics;
mod probe;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

const USAGE: &str =
    "usage: kdmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
       kdmark compare DIR_A DIR_B
       kdmark manifest";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::WORKLOADS.iter().any(|(n, _)| n == name) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare::main(&argv[1..]),
        Some("manifest") => {
            println!("{}", report::manifest());
            Ok(true)
        }
        _ => parse(&argv).and_then(|args| match &args.workload {
            Some(name) => report::run_one(name, &args),
            None => report::run_all(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(msg) => {
            eprintln!("kdmark: {msg}");
            ExitCode::from(1)
        }
    }
}
