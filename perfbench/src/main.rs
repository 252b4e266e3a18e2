//! `cpe-perfbench`: the cpe simulator's end-to-end and per-layer host
//! speed benchmark. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-replay --seed 1 --seconds 55 --trace 0 [--repeat N]
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer ones. `--repeat N` is the
//! stability mode: N runs in child processes with seeds `seed..seed+N`,
//! summarised as median and quartiles per metric.

mod engine;
mod host;
mod layers;
mod measure;
mod metrics;
mod spans;
mod stability;
mod workloads;

use std::process::ExitCode;

use engine::Sizes;
use metrics::{end_to_end, per_layer};

/// The layers spans are attributed to.
pub const LAYERS: [&str; 7] = ["bench", "workloads", "isa", "cpu", "mem", "core", "exec"];

const USAGE: &str = "usage: cpe-perfbench --workload <full-direct|sweep-replay|mem-synth> \
                     --seed <n> --seconds <s> --trace <0|1> [--repeat <runs>]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => parsed.repeat = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("cpe-perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.repeat {
        let ok = stability::run(&args.workload, args.seed, args.seconds, args.trace, runs);
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let host_start = host::read();
    let sizes = Sizes::REAL;
    let mut bench = workloads::build(&args.workload, args.seed, &sizes).expect("name checked");
    println!(
        "cpe-perfbench: {} (seed {}, {} s, trace {}, 1 simulating thread, {} CPUs available)",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("inputs: {}", bench.describe());
    let label = format!("{}-seed{}", args.workload, args.seed);
    let report = engine::run(bench.as_mut(), args.seconds, args.trace, &sizes, &label);
    drop(bench);
    println!(
        "host: {}",
        host::describe(host_start.as_ref(), host::read().as_ref())
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    if args.trace {
        println!("end to end, from this run's untraced passes:");
        println!("{}", report.table(&end_to_end()[..3]));
    }
    let defs = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    println!(
        "{}:",
        if args.trace {
            "per layer"
        } else {
            "end to end"
        }
    );
    println!("{}", report.table(&defs));
    for check in &report.checks {
        println!(
            "check {}: {} ({})",
            if check.passed { "pass" } else { "FAIL" },
            check.name,
            check.detail
        );
    }
    println!(
        "cells attempted {}, failed {}",
        report.attempted,
        report.failed_total()
    );
    match report.json_line(&defs) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("cpe-perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|arg| arg.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse_args(&strings(&[
            "--workload",
            "mem-synth",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args.workload, "mem-synth");
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.repeat),
            (3, 10.0, true, None)
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "mem-synth", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "mem-synth", "--seed"])).is_err());
        assert!(parse_args(&strings(&["--bogus", "1"])).is_err());
    }
}
