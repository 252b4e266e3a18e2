//! The metric catalogue and the report a run prints.
//!
//! The catalogue here is the one `BENCHMARK.json` declares; a test holds
//! the two equal. A run fills a [`Report`] by name, and the result line
//! carries exactly the catalogue's metrics for the mode: a metric the run
//! failed to measure is an error, not a silent gap.

use std::collections::BTreeMap;

use cpe::StallCause;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// For end-to-end metrics, the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> Def {
    Def {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, printed by an untraced run.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("minsts_per_s", "Minst/s", "higher", Some(0.25)),
        def("mcycles_per_s", "Mcycle/s", "higher", Some(0.25)),
        def("wall_s", "s", "lower", Some(0.25)),
        def("setup_s", "s", "lower", Some(0.25)),
        def("peak_rss_mib", "MiB", "lower", Some(0.1)),
        def("paper_gap_pp", "pp", "lower", Some(0.1)),
    ]
}

/// The per-layer metrics, printed by a traced run.
pub fn per_layer() -> Vec<Def> {
    let mut defs = vec![
        def("isa.emu_ns_per_inst", "ns", "lower", None),
        def("isa.frontend_share", "share", "lower", None),
        def("isa.record_ns_per_inst", "ns", "lower", None),
        def("isa.cper_decode_ns_per_inst", "ns", "lower", None),
        def("isa.cper_bytes_per_record", "B", "lower", None),
        def("cpu.ns_per_step", "ns", "lower", None),
        def("cpu.cycles_per_step", "cycles", "higher", None),
        def("cpu.sched_events_peak", "count", "lower", None),
    ];
    defs.extend(
        StallCause::ALL
            .iter()
            .map(|cause| def(&format!("cpu.cpi.{}", cause.name()), "cpi", "lower", None)),
    );
    defs.extend([
        def("mem.ns_per_access", "ns", "lower", None),
        def("mem.port_utilisation", "share", "higher", None),
        def("mem.portless_load_fraction", "share", "higher", None),
        def("mem.dcache_mpki", "mpki", "lower", None),
        def("mem.store_combined_fraction", "share", "higher", None),
        def("mem.store_stall_per_kcycle", "1/kcycle", "lower", None),
        def("core.profile_tax", "ratio", "lower", None),
        def("core.profile_json_ms", "ms", "lower", None),
        def("core.profile_json_kb", "KiB", "lower", None),
        def("exec.record_all_s", "s", "lower", None),
        def("exec.cache_store_ms", "ms", "lower", None),
        def("exec.cache_lookup_ms", "ms", "lower", None),
        def("exec.aggregate_ms", "ms", "lower", None),
        def("exec.cell_ms_p50", "ms", "lower", None),
        def("exec.cell_ms_tail", "ms", "lower", None),
    ]);
    defs.extend(
        crate::LAYERS
            .iter()
            .map(|layer| def(&format!("self_share.{layer}"), "share", "lower", None)),
    );
    defs.push(def("trace.overhead_minsts_per_s", "Minst/s", "lower", None));
    defs
}

/// One correctness verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// What was seen.
    pub detail: String,
}

/// Everything one run measured and verified.
#[derive(Debug, Clone, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Correctness verdicts, in the order they ran.
    pub checks: Vec<Check>,
    /// Cells run (every repetition counts).
    pub attempted: u64,
    /// Cells that failed to run.
    pub failed: u64,
    /// Free-form lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record a correctness verdict.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    /// Failed cells plus failed checks: a failed check counts as a failed
    /// cell, never as a silent pass.
    pub fn failed_total(&self) -> u64 {
        self.failed + self.checks.iter().filter(|check| !check.passed).count() as u64
    }

    /// The metric table, one `name value unit` row per declared metric.
    pub fn table(&self, defs: &[Def]) -> String {
        defs.iter()
            .map(|def| match self.get(&def.name) {
                Some(value) => format!("  {:<34} {:>16.6} {}", def.name, value, def.unit),
                None => format!("  {:<34} {:>16} {}", def.name, "missing", def.unit),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The result line: exactly the keys `correct`, `attempted`, `failed`
    /// and `metrics`, with every metric of `defs`.
    ///
    /// # Errors
    ///
    /// When a declared metric was not measured or is not a finite number.
    pub fn json_line(&self, defs: &[Def]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for def in defs {
            let value = self
                .get(&def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", def.name));
            }
            metrics.push(format!(
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                def.name, def.unit
            ));
        }
        let failed = self.failed_total();
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
            failed == 0,
            self.attempted.max(1),
            metrics.join(",")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpe::{parse_json, JsonValue};

    fn field<'a>(value: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
        match value {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    type Row = (String, String, String, Option<f64>);

    fn declared(section: &str) -> Vec<Row> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let Some(JsonValue::Array(items)) = field(&doc, section) else {
            panic!("{section} is an array");
        };
        items
            .iter()
            .map(|item| {
                let text = |key: &str| match field(item, key) {
                    Some(JsonValue::Text(text)) => text.clone(),
                    other => panic!("{key}: {other:?}"),
                };
                let bound = match field(item, "bound") {
                    Some(JsonValue::Number(bound)) => Some(*bound),
                    _ => None,
                };
                (text("name"), text("unit"), text("better"), bound)
            })
            .collect()
    }

    fn rows(defs: Vec<Def>) -> Vec<Row> {
        defs.into_iter()
            .map(|def| {
                (
                    def.name,
                    def.unit.to_string(),
                    def.better.to_string(),
                    def.bound,
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), rows(end_to_end()));
        assert_eq!(declared("per_layer"), rows(per_layer()));
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let defs = end_to_end();
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        for (index, def) in defs.iter().enumerate() {
            report.set(&def.name, index as f64 + 0.5);
        }
        report.set("not_declared", 1.0);
        let line = report.json_line(&defs).expect("every metric set");
        let doc = parse_json(&line).expect("result line parses");
        let Some(JsonValue::Object(metrics)) = field(&doc, "metrics") else {
            panic!("metrics object");
        };
        let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
        let expected: Vec<&str> = defs.iter().map(|def| def.name.as_str()).collect();
        assert_eq!(names, expected);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));

        report.check("golden", false, "1 leaf differs");
        assert!(report.json_line(&defs).unwrap().contains("\"failed\":1"));
        let mut missing = Report::default();
        missing.set("minsts_per_s", 1.0);
        assert!(missing.json_line(&defs).is_err());
    }
}
