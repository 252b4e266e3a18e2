//! Cached, parallel configuration × workload sweeps.
//!
//! A [`SweepPlan`] is the grid `cpe sweep` runs: every cell is one
//! [`Job`], executed through the work-stealing scheduler with the result
//! cache in front. Aggregates (the IPC table and the sweep metrics
//! document) are built exclusively from what each cell's document says
//! once parsed, via the deterministic renderer, so they are
//! **byte-identical** across worker counts and across fresh-vs-cached
//! runs — the property `crates/exec/tests/parallel_matches_serial.rs`
//! pins down.
//!
//! [`SweepResults::assemble`] parses each document once and keeps only
//! what the aggregates read: the parsed `summary` (the table's source)
//! and the rendered `,"summary":…,"distributions":…,"cpi_stack":…}`
//! fragment the aggregate document splices after the cell's head. The
//! tree — `epochs`, `config` and `self_profile` included — is dropped
//! before the next document is parsed, so a result set holds each
//! cell's document plus about 4.3 KB instead of a ~105 KB tree. The
//! fragment is the same `parse` → `member` → `render` output an
//! aggregate built from the whole tree would splice, so the bytes
//! cannot differ; a test keeps that tree-holding path as an oracle.

use std::fmt;
use std::time::Instant;

use cpe_core::{parse_json, BackendKind, JsonValue, SimConfig, SimError, METRICS_SCHEMA};
use cpe_stats::{geometric_mean, Table};
use cpe_workloads::{Scale, Workload};

use crate::cache::ResultCache;
use crate::job::{
    execute_jobs_traced, preset_configs, scale_name, CacheStatus, Job, JobOutcome, SweepProgress,
};
use crate::render::{escape_text, member, number_at, render};
use crate::traces::TraceStore;

/// The grid a sweep executes: configurations × workloads at one scale
/// and instruction window.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Configurations, in column order.
    pub configs: Vec<SimConfig>,
    /// Workloads, in row order.
    pub workloads: Vec<Workload>,
    /// Problem-size preset for every cell.
    pub scale: Scale,
    /// Committed-instruction window for every cell.
    pub max_insts: Option<u64>,
    /// Execution backend for every cell. With [`BackendKind::Replay`],
    /// each distinct `(workload, scale, max_insts)` tuple is recorded
    /// exactly once *before* any cell is scheduled, and every cell
    /// replays the shared recording.
    pub backend: BackendKind,
}

impl SweepPlan {
    /// The standard port-count grid: every preset configuration over the
    /// six paper workloads.
    pub fn standard(scale: Scale, max_insts: Option<u64>) -> SweepPlan {
        SweepPlan {
            configs: preset_configs(),
            workloads: Workload::ALL.to_vec(),
            scale,
            max_insts,
            backend: BackendKind::Direct,
        }
    }

    /// This plan with a different execution backend.
    pub fn with_backend(mut self, backend: BackendKind) -> SweepPlan {
        self.backend = backend;
        self
    }

    /// The grid as jobs, workload-major (matching the serial
    /// `Experiment` order).
    pub fn jobs(&self) -> Vec<Job> {
        self.workloads
            .iter()
            .flat_map(|&workload| {
                self.configs.iter().map(move |config| Job {
                    config: config.clone(),
                    workload,
                    scale: self.scale,
                    max_insts: self.max_insts,
                    backend: self.backend,
                })
            })
            .collect()
    }

    /// Validate the whole grid up front — each configuration exactly
    /// once — so a bad base config is rejected before any cell starts.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for the first inconsistent
    /// configuration; the sweep should not start.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.configs.is_empty() || self.workloads.is_empty() {
            return Err(SimError::InvalidConfig(cpe_core::ConfigError {
                config: "(sweep)".to_string(),
                message: "add at least one configuration and one workload".to_string(),
            }));
        }
        for config in &self.configs {
            config.validate()?;
        }
        Ok(())
    }

    /// Execute the grid across `workers` threads, through `cache` when
    /// attached. Cell failures land in their cells; this call only fails
    /// when the grid itself is invalid (see [`SweepPlan::validate`]).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the grid is empty.
    pub fn run(
        &self,
        workers: usize,
        cache: Option<&ResultCache>,
    ) -> Result<SweepResults, SimError> {
        self.run_with_progress(workers, cache, None)
    }

    /// [`SweepPlan::run`] with an optional live progress line on stderr.
    /// Progress never touches the results — the table and metrics stay
    /// byte-identical to an unobserved run.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the grid is empty.
    pub fn run_with_progress(
        &self,
        workers: usize,
        cache: Option<&ResultCache>,
        progress: Option<&SweepProgress>,
    ) -> Result<SweepResults, SimError> {
        if self.configs.is_empty() || self.workloads.is_empty() {
            self.validate()?;
        }
        let started = Instant::now();
        let jobs = self.jobs();
        // Record-once happens here, before any cell is scheduled: a
        // replay sweep's functional cost is one recording per distinct
        // (workload, scale, max_insts) tuple, never one per cell.
        let traces = match self.backend {
            BackendKind::Direct => None,
            BackendKind::Replay => {
                let store = TraceStore::new();
                store.record_all(&jobs);
                Some(store)
            }
        };
        let (outcomes, scheduler) =
            execute_jobs_traced(&jobs, workers, cache, progress, traces.as_ref());
        if let Some(progress) = progress {
            progress.finish();
        }
        let mut results = SweepResults::assemble(
            self.clone(),
            outcomes,
            scheduler.workers,
            scheduler.steals,
            started.elapsed().as_secs_f64(),
        );
        if let Some(traces) = &traces {
            let (recorded, reused) = traces.counts();
            results.stats.traces_recorded = recorded;
            results.stats.traces_reused = reused;
        }
        Ok(results)
    }
}

/// What a sweep cost and how the cache served it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SweepStats {
    /// Grid cells executed.
    pub cells: usize,
    /// Cells served from the cache.
    pub hits: usize,
    /// Cells computed and stored.
    pub misses: usize,
    /// Cells computed with no cache attached.
    pub bypassed: usize,
    /// Cells that failed (`FAILED(<kind>)` in the table).
    pub failed: usize,
    /// Wall seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Work-stealing migrations between workers.
    pub steals: u64,
    /// Recordings made by the replay backend (zero on a direct sweep).
    pub traces_recorded: u64,
    /// Cells that replayed an existing recording.
    pub traces_reused: u64,
}

impl SweepStats {
    /// Cache hit rate over the cells that went through the cache.
    pub fn hit_rate(&self) -> f64 {
        let through_cache = self.hits + self.misses;
        if through_cache == 0 {
            0.0
        } else {
            self.hits as f64 / through_cache as f64
        }
    }
}

impl fmt::Display for SweepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cells in {:.2}s across {} worker(s), {} steal(s): \
             {} hit(s), {} miss(es), {} uncached, {} failed — hit rate {:.1}%",
            self.cells,
            self.wall_seconds,
            self.workers,
            self.steals,
            self.hits,
            self.misses,
            self.bypassed,
            self.failed,
            self.hit_rate() * 100.0
        )?;
        if self.traces_recorded + self.traces_reused > 0 {
            write!(
                f,
                ", trace: {} recorded, {} reused",
                self.traces_recorded, self.traces_reused
            )?;
        }
        Ok(())
    }
}

/// What a cell's aggregates read of its document, extracted once at
/// assembly time so the document's tree (its `epochs`, `config` and
/// `self_profile` included) is dropped before the next cell is parsed.
#[derive(Debug, Clone)]
struct CellAggregate {
    /// The parsed `summary` object, when the document has one: the
    /// source of every table cell.
    summary: Option<JsonValue>,
    /// The cell's entry in the aggregate document after its head:
    /// `,"summary":…,"distributions":…,"cpi_stack":…}` rendered from the
    /// parsed members, or `,"failed":"malformed"}` when one is missing.
    fragment: String,
}

impl CellAggregate {
    /// Parse one cell document and keep only what the aggregates read.
    /// The members go through the same `parse` → `member` → `render`
    /// pipeline an aggregate built from the whole tree would use, so the
    /// output bytes are the same by construction.
    fn extract(document: &str) -> Result<CellAggregate, SimError> {
        let tree = parse_json(document).map_err(|message| SimError::Trace { index: 0, message })?;
        let summary = member(&tree, "summary");
        let fragment = match (
            summary,
            member(&tree, "distributions"),
            member(&tree, "cpi_stack"),
        ) {
            (Some(summary), Some(distributions), Some(cpi_stack)) => format!(
                ",\"summary\":{},\"distributions\":{},\"cpi_stack\":{}}}",
                render(summary),
                render(distributions),
                render(cpi_stack)
            ),
            _ => ",\"failed\":\"malformed\"}".to_string(),
        };
        Ok(CellAggregate {
            summary: summary.cloned(),
            fragment,
        })
    }
}

/// The completed sweep: every cell's outcome plus what the aggregates
/// read of its document.
#[derive(Debug, Clone)]
pub struct SweepResults {
    plan: SweepPlan,
    outcomes: Vec<JobOutcome>,
    cells: Vec<Result<CellAggregate, SimError>>,
    /// Cost and cache accounting for the run.
    pub stats: SweepStats,
}

impl SweepResults {
    /// Assemble results from already-executed outcomes in workload-major
    /// grid order. Fresh and cached documents alike go through the same
    /// parse → render pipeline here, which is what makes the aggregates
    /// byte-identical across cache states and worker counts.
    ///
    /// `outcomes` must be one per grid cell, in submission order.
    pub fn assemble(
        plan: SweepPlan,
        outcomes: Vec<JobOutcome>,
        workers: usize,
        steals: u64,
        wall_seconds: f64,
    ) -> SweepResults {
        assert_eq!(
            outcomes.len(),
            plan.configs.len() * plan.workloads.len(),
            "one outcome per grid cell"
        );
        let cells: Vec<Result<CellAggregate, SimError>> = outcomes
            .iter()
            .map(|outcome| match &outcome.document {
                Ok(document) => CellAggregate::extract(document),
                Err(error) => Err(error.clone()),
            })
            .collect();
        let mut stats = SweepStats {
            cells: outcomes.len(),
            workers,
            steals,
            wall_seconds,
            ..SweepStats::default()
        };
        for outcome in &outcomes {
            match (&outcome.document, outcome.cache) {
                (Err(_), _) => stats.failed += 1,
                (Ok(_), CacheStatus::Hit) => stats.hits += 1,
                (Ok(_), CacheStatus::Miss) => stats.misses += 1,
                (Ok(_), CacheStatus::Bypass) => stats.bypassed += 1,
            }
        }
        SweepResults {
            plan,
            outcomes,
            cells,
            stats,
        }
    }

    /// Every cell outcome, in workload-major grid order.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// The plan this sweep ran.
    pub fn plan(&self) -> &SweepPlan {
        &self.plan
    }

    fn cell(&self, workload_index: usize, config_index: usize) -> &Result<CellAggregate, SimError> {
        &self.cells[workload_index * self.plan.configs.len() + config_index]
    }

    /// A numeric summary metric for one cell, when it succeeded.
    pub fn summary_number(
        &self,
        workload_index: usize,
        config_index: usize,
        field: &str,
    ) -> Option<f64> {
        let cell = self.cell(workload_index, config_index).as_ref().ok()?;
        number_at(cell.summary.as_ref()?, &[field])
    }

    fn cell_text(&self, workload_index: usize, config_index: usize, field: &str) -> String {
        match self.cell(workload_index, config_index) {
            Ok(_) => self
                .summary_number(workload_index, config_index, field)
                .map(|value| format!("{value:.3}"))
                .unwrap_or_else(|| "-".to_string()),
            Err(error) => format!("FAILED({})", error.kind()),
        }
    }

    /// IPC per workload per configuration, plus a geomean row — the same
    /// shape the serial `Experiment::ipc_table` renders.
    pub fn ipc_table(&self) -> Table {
        self.metric_table("IPC", "ipc", true)
    }

    /// Any summary metric as a (workload × config) table.
    pub fn metric_table(&self, label: &str, field: &str, geomean: bool) -> Table {
        let mut header = vec![format!("workload ({label})")];
        header.extend(self.plan.configs.iter().map(|c| c.name.clone()));
        let mut table = Table::new(header);
        for (workload_index, workload) in self.plan.workloads.iter().enumerate() {
            let mut row = vec![workload.name().to_string()];
            for config_index in 0..self.plan.configs.len() {
                row.push(self.cell_text(workload_index, config_index, field));
            }
            table.row(row);
        }
        if geomean {
            let mut geo = vec!["geomean".to_string()];
            for config_index in 0..self.plan.configs.len() {
                let mean = geometric_mean(
                    (0..self.plan.workloads.len())
                        .filter_map(|w| self.summary_number(w, config_index, field)),
                )
                .unwrap_or(0.0);
                geo.push(format!("{mean:.3}"));
            }
            table.row(geo);
        }
        table
    }

    /// The aggregate sweep document: grid shape plus each cell's
    /// deterministic `summary`, `distributions` and `cpi_stack` objects
    /// (never the self-profile or wall times, which vary run to run).
    /// Byte-identical across worker counts and cache states.
    pub fn aggregate_json(&self) -> String {
        let configs: Vec<String> = self
            .plan
            .configs
            .iter()
            .map(|c| format!("\"{}\"", escape_text(&c.name)))
            .collect();
        let workloads: Vec<String> = self
            .plan
            .workloads
            .iter()
            .map(|w| format!("\"{}\"", w.name()))
            .collect();
        let window = match self.plan.max_insts {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        let mut cells = Vec::with_capacity(self.cells.len());
        for (workload_index, workload) in self.plan.workloads.iter().enumerate() {
            for (config_index, config) in self.plan.configs.iter().enumerate() {
                let head = format!(
                    "{{\"config\":\"{}\",\"workload\":\"{}\"",
                    escape_text(&config.name),
                    workload.name()
                );
                let cell = match self.cell(workload_index, config_index) {
                    Ok(cell) => format!("{head}{}", cell.fragment),
                    Err(error) => format!("{head},\"failed\":\"{}\"}}", error.kind()),
                };
                cells.push(cell);
            }
        }
        format!(
            "{{\"schema\":{METRICS_SCHEMA},\"kind\":\"sweep\",\"scale\":\"{}\",\
             \"max_insts\":{window},\"configs\":[{}],\"workloads\":[{}],\"cells\":[{}]}}",
            scale_name(self.plan.scale),
            configs.join(","),
            workloads.join(","),
            cells.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::run_job;
    use crate::render::member_path;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn tiny_plan() -> SweepPlan {
        SweepPlan {
            configs: vec![SimConfig::naive_single_port(), SimConfig::dual_port()],
            workloads: vec![Workload::Compress, Workload::Sort],
            scale: Scale::Test,
            max_insts: Some(4_000),
            backend: BackendKind::Direct,
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_aggregates_parse() {
        let results = tiny_plan().run(2, None).expect("grid is valid");
        assert_eq!(results.outcomes().len(), 4);
        assert_eq!(results.stats.cells, 4);
        assert_eq!(results.stats.bypassed, 4);
        let table = results.ipc_table();
        assert_eq!(table.len(), 3, "two workloads + geomean");
        let doc = results.aggregate_json();
        let parsed = parse_json(&doc).expect("aggregate parses");
        assert_eq!(number_at(&parsed, &["schema"]), Some(3.0));
        assert!(doc.contains("\"kind\":\"sweep\""));
        assert!(doc.contains("\"summary\":{"));
        assert!(doc.contains("\"distributions\":{"));
        assert!(doc.contains("\"cpi_stack\":{\"commit_width\":"));
        assert!(!doc.contains("self_profile"), "no nondeterministic fields");
        assert!(!doc.contains("wall_seconds"), "no nondeterministic fields");
    }

    #[test]
    fn invalid_grid_is_rejected_before_any_cell() {
        let mut plan = tiny_plan();
        plan.configs.push(SimConfig::dual_port().with_ports(0));
        let error = plan.validate().expect_err("zero ports");
        assert_eq!(error.kind(), "config");
        let empty = SweepPlan {
            configs: vec![],
            workloads: vec![],
            scale: Scale::Test,
            max_insts: None,
            backend: BackendKind::Direct,
        };
        assert!(empty.validate().is_err());
        assert!(empty.run(1, None).is_err());
    }

    #[test]
    fn replay_sweep_records_once_per_workload_and_matches_direct() {
        let direct = tiny_plan().run(2, None).expect("direct sweep runs");
        let replay = tiny_plan()
            .with_backend(BackendKind::Replay)
            .run(2, None)
            .expect("replay sweep runs");
        assert_eq!(
            direct.ipc_table().to_csv(),
            replay.ipc_table().to_csv(),
            "replay must be byte-identical to direct"
        );
        assert_eq!(direct.aggregate_json(), replay.aggregate_json());
        assert_eq!(replay.stats.traces_recorded, 2, "one per workload");
        assert_eq!(replay.stats.traces_reused, 4, "every cell reuses");
        assert_eq!(direct.stats.traces_recorded, 0);
        let footer = replay.stats.to_string();
        assert!(footer.ends_with("trace: 2 recorded, 4 reused"), "{footer}");
        assert!(
            !direct.stats.to_string().contains("trace:"),
            "direct footer stays unchanged"
        );
    }

    #[test]
    fn failed_cells_render_failed_kind_in_table_and_json() {
        let mut plan = tiny_plan();
        plan.configs
            .push(SimConfig::naive_single_port().with_ports(0).named("bad"));
        // validate() would reject it; run the grid anyway to check cell
        // isolation when a caller skips validation.
        let results = plan.run(2, None).expect("grid is non-empty");
        assert_eq!(results.stats.failed, 2);
        let csv = results.ipc_table().to_csv();
        assert!(csv.contains("FAILED(config)"), "{csv}");
        assert!(results.aggregate_json().contains("\"failed\":\"config\""));
    }

    /// The tree-holding assembly this module used before cells were
    /// reduced at assembly time: every document parsed and kept whole,
    /// the aggregate rendered from the trees. Config names go through the
    /// JSON escaper here too, so the oracle covers any name.
    fn oracle_aggregate_json(results: &SweepResults) -> String {
        let plan = results.plan();
        let trees: Vec<Result<JsonValue, SimError>> = results
            .outcomes()
            .iter()
            .map(|outcome| match &outcome.document {
                Ok(document) => {
                    parse_json(document).map_err(|message| SimError::Trace { index: 0, message })
                }
                Err(error) => Err(error.clone()),
            })
            .collect();
        let configs: Vec<String> = plan
            .configs
            .iter()
            .map(|c| format!("\"{}\"", escape_text(&c.name)))
            .collect();
        let workloads: Vec<String> = plan
            .workloads
            .iter()
            .map(|w| format!("\"{}\"", w.name()))
            .collect();
        let window = match plan.max_insts {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        let mut cells = Vec::with_capacity(trees.len());
        for (workload_index, workload) in plan.workloads.iter().enumerate() {
            for (config_index, config) in plan.configs.iter().enumerate() {
                let head = format!(
                    "{{\"config\":\"{}\",\"workload\":\"{}\"",
                    escape_text(&config.name),
                    workload.name()
                );
                let cell = match &trees[workload_index * plan.configs.len() + config_index] {
                    Ok(document) => {
                        let summary = member(document, "summary").map(render);
                        let distributions = member(document, "distributions").map(render);
                        let cpi_stack = member(document, "cpi_stack").map(render);
                        match (summary, distributions, cpi_stack) {
                            (Some(summary), Some(distributions), Some(cpi_stack)) => format!(
                                "{head},\"summary\":{summary},\"distributions\":{distributions},\
                                 \"cpi_stack\":{cpi_stack}}}"
                            ),
                            _ => format!("{head},\"failed\":\"malformed\"}}"),
                        }
                    }
                    Err(error) => format!("{head},\"failed\":\"{}\"}}", error.kind()),
                };
                cells.push(cell);
            }
        }
        format!(
            "{{\"schema\":{METRICS_SCHEMA},\"kind\":\"sweep\",\"scale\":\"{}\",\
             \"max_insts\":{window},\"configs\":[{}],\"workloads\":[{}],\"cells\":[{}]}}",
            scale_name(plan.scale),
            configs.join(","),
            workloads.join(","),
            cells.join(",")
        )
    }

    /// Every aggregate of `results` against the oracle: the document byte
    /// for byte, and each cell's summary numbers (the table's source)
    /// against the whole tree's.
    fn assert_matches_oracle(results: &SweepResults) {
        assert_eq!(results.aggregate_json(), oracle_aggregate_json(results));
        let configs = results.plan().configs.len();
        for (index, outcome) in results.outcomes().iter().enumerate() {
            let (workload_index, config_index) = (index / configs, index % configs);
            let tree = outcome
                .document
                .as_ref()
                .ok()
                .and_then(|d| parse_json(d).ok());
            let summary = tree.as_ref().and_then(|tree| member(tree, "summary"));
            let mut fields = vec!["ipc".to_string(), "no_such_field".to_string()];
            if let Some(JsonValue::Object(members)) = summary {
                fields.extend(members.iter().map(|(key, _)| key.clone()));
            }
            for field in &fields {
                assert_eq!(
                    results.summary_number(workload_index, config_index, field),
                    tree.as_ref()
                        .and_then(|tree| number_at(tree, &["summary", field])),
                    "cell {index}, summary field {field}"
                );
            }
        }
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cpe-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn streamed_assembly_matches_the_tree_oracle_fresh_and_cached() {
        let dir = tempdir("oracle");
        let cache = ResultCache::new(&dir);
        let plan = tiny_plan().with_backend(BackendKind::Replay);
        let fresh = plan.run(2, Some(&cache)).expect("grid is valid");
        assert_eq!(fresh.stats.misses, 4);
        assert_matches_oracle(&fresh);
        let cached = plan.run(2, Some(&cache)).expect("grid is valid");
        assert_eq!(cached.stats.hits, 4, "the re-run is served from the cache");
        assert_matches_oracle(&cached);
        assert_eq!(fresh.aggregate_json(), cached.aggregate_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_and_failed_cells_match_the_tree_oracle() {
        let fresh = tiny_plan().run(2, None).expect("grid is valid");
        let mut outcomes = fresh.outcomes().to_vec();
        // Cell 0: a well-formed document that lacks `cpi_stack`.
        let document = outcomes[0].document.clone().expect("cell 0 ran");
        let JsonValue::Object(members) = parse_json(&document).expect("document parses") else {
            panic!("document is an object");
        };
        let without_cpi_stack = JsonValue::Object(
            members
                .into_iter()
                .filter(|(key, _)| key != "cpi_stack")
                .collect(),
        );
        outcomes[0].document = Ok(render(&without_cpi_stack));
        // Cell 1: a document cut off mid-way.
        let document = outcomes[1].document.clone().expect("cell 1 ran");
        outcomes[1].document = Ok(document[..document.len() / 2].to_string());
        // Cell 2: a cell that failed outright.
        outcomes[2].document = Err(SimError::WorkerPanic {
            message: "injected".to_string(),
        });
        let results = SweepResults::assemble(tiny_plan(), outcomes, 1, 0, 0.0);
        assert_matches_oracle(&results);
        let doc = results.aggregate_json();
        assert!(doc.contains("\"failed\":\"malformed\""), "{doc}");
        assert!(doc.contains("\"failed\":\"trace\""), "{doc}");
        assert!(doc.contains("\"failed\":\"panic\""), "{doc}");
        let csv = results.ipc_table().to_csv();
        assert!(csv.contains("FAILED(trace)"), "{csv}");
        assert!(csv.contains("FAILED(panic)"), "{csv}");
        assert_eq!(
            results.summary_number(0, 0, "ipc"),
            fresh.summary_number(0, 0, "ipc"),
            "a malformed cell still shows its summary in the table"
        );
        assert_eq!(
            results.summary_number(1, 1, "ipc"),
            fresh.summary_number(1, 1, "ipc")
        );
        assert_eq!(results.stats.failed, 1);
    }

    #[test]
    fn config_names_are_json_escaped_in_the_aggregate() {
        let name = "2-port \\ \"quoted\" tab\there";
        let plan = SweepPlan {
            configs: vec![SimConfig::dual_port().named(name)],
            workloads: vec![Workload::Sort],
            scale: Scale::Test,
            max_insts: Some(2_000),
            backend: BackendKind::Direct,
        };
        let results = plan.run(1, None).expect("grid is valid");
        let doc = results.aggregate_json();
        let parsed = parse_json(&doc).expect("the aggregate is valid JSON");
        assert_eq!(
            member(&parsed, "configs"),
            Some(&JsonValue::Array(vec![JsonValue::Text(name.to_string())]))
        );
        let Some(JsonValue::Array(cells)) = member(&parsed, "cells") else {
            panic!("cells is an array: {doc}");
        };
        let name_value = JsonValue::Text(name.to_string());
        assert_eq!(member_path(&cells[0], &["config"]), Some(&name_value));
        assert_eq!(
            member_path(&cells[0], &["summary", "config"]),
            Some(&name_value)
        );
        assert_matches_oracle(&results);
    }

    /// One real cell document, computed once for the property tests.
    fn real_document() -> &'static str {
        static DOCUMENT: OnceLock<String> = OnceLock::new();
        DOCUMENT.get_or_init(|| {
            let job = tiny_plan().jobs().remove(0);
            run_job(&job, None).document.expect("cell runs")
        })
    }

    /// Assemble a 1 × 2 grid whose first cell reads `document` back from
    /// the cache and whose second is a real document, then render every
    /// aggregate: nothing may panic, the aggregate must parse, and it
    /// must equal the oracle's.
    fn check_cached_document(document: String) -> Result<(), TestCaseError> {
        let plan = SweepPlan {
            workloads: vec![Workload::Compress],
            ..tiny_plan()
        };
        let outcomes = [document, real_document().to_string()]
            .into_iter()
            .enumerate()
            .map(|(index, document)| JobOutcome {
                index,
                document: Ok(document),
                cache: CacheStatus::Hit,
                wall_seconds: 0.0,
            })
            .collect();
        let results = SweepResults::assemble(plan, outcomes, 1, 0, 0.0);
        let _ = results.ipc_table().to_string();
        let doc = results.aggregate_json();
        prop_assert!(parse_json(&doc).is_ok(), "aggregate does not parse: {doc}");
        prop_assert_eq!(doc, oracle_aggregate_json(&results));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Arbitrary bytes as a cached cell document.
        #[test]
        fn arbitrary_cached_documents_aggregate_cleanly(
            bytes in prop::collection::vec(any::<u8>(), 0..300),
            brace in any::<bool>(),
        ) {
            // The cache serves only UTF-8 entries that open with `{`.
            let text = String::from_utf8_lossy(&bytes);
            check_cached_document(if brace { format!("{{{text}") } else { text.into_owned() })?;
        }

        /// A real cached document with one byte overwritten and its tail
        /// possibly cut off.
        #[test]
        fn damaged_real_documents_aggregate_cleanly(
            position in any::<prop::sample::Index>(),
            byte in any::<u8>(),
            cut in any::<prop::sample::Index>(),
            truncate in any::<bool>(),
        ) {
            let mut bytes = real_document().as_bytes().to_vec();
            let at = position.index(bytes.len());
            bytes[at] = byte;
            if truncate {
                bytes.truncate(cut.index(bytes.len()));
            }
            check_cached_document(String::from_utf8_lossy(&bytes).into_owned())?;
        }
    }
}
