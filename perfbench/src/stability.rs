//! Stability mode: run one workload several times, each in its own
//! process with its own seed, and print every metric's median and
//! quartiles with the spread the acceptance rule reads.

use std::process::Command;

use cpe::{parse_json, JsonValue};

use crate::measure::quartiles;
use crate::metrics::{end_to_end, per_layer, Def};

fn member<'a>(value: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match value {
        JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The metric values of one result line, keyed by name.
pub fn parse_result(line: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = parse_json(line)?;
    if member(&doc, "correct") != Some(&JsonValue::Bool(true)) {
        return Err(format!("run not correct: {line}"));
    }
    let Some(JsonValue::Object(metrics)) = member(&doc, "metrics") else {
        return Err("result line has no metrics".to_string());
    };
    metrics
        .iter()
        .map(|(name, metric)| match member(metric, "value") {
            Some(JsonValue::Number(value)) => Ok((name.clone(), *value)),
            _ => Err(format!("metric {name} has no value")),
        })
        .collect()
}

/// Run `runs` child processes of this benchmark and summarise them.
/// Returns whether every run was correct.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool, runs: usize) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("perfbench: cannot find own executable: {error}");
            return false;
        }
    };
    let defs: Vec<Def> = if trace { per_layer() } else { end_to_end() };
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); defs.len()];
    let mut all_correct = true;
    for run in 0..runs {
        let run_seed = seed + run as u64;
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &run_seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .output();
        let line = match &output {
            Ok(output) => String::from_utf8_lossy(&output.stdout)
                .lines()
                .last()
                .unwrap_or_default()
                .to_string(),
            Err(error) => format!("spawn failed: {error}"),
        };
        match parse_result(&line) {
            Ok(metrics) => {
                let shown: Vec<String> = defs
                    .iter()
                    .take(4)
                    .map(|def| {
                        let value = metrics
                            .iter()
                            .find(|(n, _)| *n == def.name)
                            .map_or(f64::NAN, |m| m.1);
                        format!("{} {value:.4}", def.name)
                    })
                    .collect();
                println!("run {run} seed {run_seed}: {}", shown.join(", "));
                for (def, column) in defs.iter().zip(values.iter_mut()) {
                    if let Some((_, value)) = metrics.iter().find(|(name, _)| *name == def.name) {
                        column.push(*value);
                    }
                }
            }
            Err(error) => {
                all_correct = false;
                println!("run {run} seed {run_seed}: FAILED: {error}");
            }
        }
    }
    println!(
        "{:<34} {:>14} {:>14} {:>14} {:>9} {:>7}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (def, column) in defs.iter().zip(&values) {
        let Some((q1, median, q3)) = quartiles(column) else {
            println!("{:<34} fewer than two runs", def.name);
            continue;
        };
        let spread = if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median.abs()
        };
        let bound = def
            .bound
            .map_or("-".to_string(), |bound| format!("{bound}"));
        let verdict = match def.bound {
            Some(bound) if def.name != "setup_s" && spread > bound / 3.0 => {
                "  above a third of bound"
            }
            _ => "",
        };
        println!(
            "{:<34} {q1:>14.6} {median:>14.6} {q3:>14.6} {spread:>9.4} {bound:>7}{verdict}",
            def.name
        );
    }
    all_correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_and_incorrect_runs_are_refused() {
        let line = "{\"correct\":true,\"attempted\":2,\"failed\":0,\"metrics\":\
                    {\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}}}";
        assert_eq!(parse_result(line), Ok(vec![("wall_s".to_string(), 1.5)]));
        assert!(parse_result(&line.replace("true", "false")).is_err());
        assert!(parse_result("not json").is_err());
    }
}
