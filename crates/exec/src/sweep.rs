//! Parallel configuration × workload sweeps.
//!
//! A [`SweepPlan`] is the grid `cpe sweep` runs: every cell is one
//! [`Job`], executed through the work-stealing scheduler, no result cache
//! involved. [`SweepPlan::run_all`] runs many grids as one batch (the
//! path `cpe sweep` and `reproduce` both take): each distinct cell once,
//! each trace recorded once, one scheduler pass. Aggregates (the IPC
//! table and the sweep metrics document) are built exclusively from what
//! each cell's document says once parsed, via the deterministic renderer,
//! so they are **byte-identical** across worker counts and backends —
//! the property `crates/exec/tests/parallel_matches_serial.rs` pins down.
//!
//! [`SweepResults::assemble`] parses each document once and keeps only
//! what the aggregates read: the parsed `summary` (the table's source)
//! and the rendered `,"summary":…,"distributions":…,"cpi_stack":…}`
//! fragment the aggregate document splices after the cell's head. The
//! tree — `epochs`, `config` and `self_profile` included — is dropped
//! before the next document is parsed, so a result set holds each
//! cell's document plus about 4.3 KB instead of a ~105 KB tree. The
//! fragment is the same `parse` → `get` → `render` output an
//! aggregate built from the whole tree would splice, so the bytes
//! cannot differ; a test keeps that tree-holding path as an oracle.

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use cpe_core::json::escape;
use cpe_core::{parse_json, BackendKind, JsonValue, SimConfig, SimError, METRICS_SCHEMA};
use cpe_stats::{geometric_mean, Table};
use cpe_workloads::{Scale, Workload};

use crate::job::{execute_jobs_traced, preset_configs, scale_name, Job, JobOutcome, SweepProgress};
use crate::render::render;
use crate::traces::TraceStore;

/// The grid a sweep executes: configurations × workloads at one scale
/// and instruction window.
///
/// ```no_run
/// use cpe_core::{BackendKind, SimConfig};
/// use cpe_exec::SweepPlan;
/// use cpe_workloads::{Scale, Workload};
///
/// let plan = SweepPlan {
///     configs: vec![SimConfig::naive_single_port(), SimConfig::dual_port()],
///     workloads: Workload::ALL.to_vec(),
///     scale: Scale::Small,
///     max_insts: Some(200_000),
///     backend: BackendKind::Replay,
/// };
/// let results = plan.run(0).expect("the grid is not empty");
/// println!("{}", results.ipc_table());
/// println!("{}", results.relative_table(1));
/// ```
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
    /// replays the shared recording. [`BackendKind::Direct`] remains as
    /// the oracle that replay is checked against.
    pub backend: BackendKind,
}

impl SweepPlan {
    /// The standard port-count grid: every preset configuration over the
    /// six paper workloads, replayed.
    pub fn standard(scale: Scale, max_insts: Option<u64>) -> SweepPlan {
        SweepPlan {
            configs: preset_configs(),
            workloads: Workload::ALL.to_vec(),
            scale,
            max_insts,
            backend: BackendKind::Replay,
        }
    }

    /// This plan with a different execution backend.
    pub fn with_backend(mut self, backend: BackendKind) -> SweepPlan {
        self.backend = backend;
        self
    }

    /// The grid as jobs, workload-major.
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

    /// Execute the grid across `workers` threads: [`SweepPlan::run_all`]
    /// over this plan alone.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the grid is empty.
    pub fn run(&self, workers: usize) -> Result<SweepResults, SimError> {
        Ok(SweepPlan::run_all(std::slice::from_ref(self), workers, None)?.remove(0))
    }

    /// Execute every plan's grid as one batch across `workers` threads
    /// and return each plan's results in order, every one carrying the
    /// batch's [`SweepStats`]. A cell several plans hold (equal
    /// [`Job::cache_key`], so equal config *and* name) runs once; each
    /// trace a replay cell needs is recorded once before any cell is
    /// scheduled; the distinct cells run in one scheduler pass. Each plan's results equal that plan run
    /// alone, and `progress`, which counts the distinct cells as they
    /// finish, never touches them. Cell failures land in their cells.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when some plan's grid is empty.
    pub fn run_all(
        plans: &[SweepPlan],
        workers: usize,
        progress: Option<&SweepProgress>,
    ) -> Result<Vec<SweepResults>, SimError> {
        let empty = plans
            .iter()
            .find(|plan| plan.configs.is_empty() || plan.workloads.is_empty());
        if let Some(plan) = empty {
            plan.validate()?;
        }
        let started = Instant::now();
        // Each plan's cells, as indices into the distinct jobs.
        let (mut seen, mut distinct) = (HashMap::new(), Vec::new());
        let mut cell_of = |job: Job| {
            *seen.entry(job.cache_key()).or_insert_with(|| {
                distinct.push(job);
                distinct.len() - 1
            })
        };
        let grids: Vec<Vec<usize>> = plans
            .iter()
            .map(|plan| plan.jobs().into_iter().map(&mut cell_of).collect())
            .collect();
        let replayed: Vec<Job> = distinct
            .iter()
            .filter(|job| job.backend == BackendKind::Replay)
            .cloned()
            .collect();
        let traces = (!replayed.is_empty()).then(TraceStore::new);
        let recording_seconds = traces.as_ref().map_or(0.0, |store| {
            let recording = Instant::now();
            store.record_all(&replayed);
            recording.elapsed().as_secs_f64()
        });
        let (outcomes, scheduler) =
            execute_jobs_traced(&distinct, workers, None, progress, traces.as_ref());
        let (traces_recorded, traces_reused) = traces.map_or((0, 0), |store| store.counts());
        let mut stats = SweepStats {
            cells: outcomes.len(),
            failed: failures(&outcomes),
            workers: scheduler.workers,
            steals: scheduler.steals,
            traces_recorded,
            traces_reused,
            recording_seconds,
            ..SweepStats::default()
        };

        // A distinct outcome is cloned into each grid cell that holds it
        // but the last, which takes it: no document is held twice.
        let mut uses = vec![0usize; outcomes.len()];
        grids.iter().flatten().for_each(|&cell| uses[cell] += 1);
        let mut outcomes: Vec<Option<JobOutcome>> = outcomes.into_iter().map(Some).collect();
        let mut cell_outcome = |cell: usize| {
            uses[cell] -= 1;
            let outcome = match uses[cell] {
                0 => outcomes[cell].take(),
                _ => outcomes[cell].clone(),
            };
            outcome.expect("an outcome is taken only at its last use")
        };
        let mut results: Vec<SweepResults> = plans
            .iter()
            .zip(&grids)
            .map(|(plan, grid)| {
                let outcomes = grid
                    .iter()
                    .enumerate()
                    .map(|(index, &cell)| JobOutcome {
                        index,
                        ..cell_outcome(cell)
                    })
                    .collect();
                SweepResults::assemble(plan.clone(), outcomes, 0, 0, 0.0)
            })
            .collect();
        // The batch's stats, timed over the whole sweep (assembly too),
        // replace each plan's own tally.
        stats.wall_seconds = started.elapsed().as_secs_f64();
        for result in &mut results {
            result.stats = stats;
        }
        if let Some(progress) = progress {
            progress.finish();
        }
        Ok(results)
    }
}

/// Cells whose document is a failure.
fn failures(outcomes: &[JobOutcome]) -> usize {
    outcomes
        .iter()
        .filter(|outcome| outcome.document.is_err())
        .count()
}

/// What a sweep cost. Under [`SweepPlan::run_all`] these are the whole
/// batch's, shared by each plan's results.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SweepStats {
    /// Cells executed: each distinct cell of the batch once.
    pub cells: usize,
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
    /// Wall seconds spent recording before any cell was scheduled.
    pub recording_seconds: f64,
}

impl fmt::Display for SweepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cells in {:.2}s across {} worker(s), {} steal(s): {} failed",
            self.cells, self.wall_seconds, self.workers, self.steals, self.failed
        )?;
        if self.traces_recorded + self.traces_reused > 0 {
            write!(
                f,
                ", trace: {} recorded, {} reused (recording {:.3}s)",
                self.traces_recorded, self.traces_reused, self.recording_seconds
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
    /// The members go through the same `parse` → `get` → `render`
    /// pipeline an aggregate built from the whole tree would use, so the
    /// output bytes are the same by construction.
    fn extract(document: &str) -> Result<CellAggregate, SimError> {
        let tree = parse_json(document).map_err(|message| SimError::Trace { index: 0, message })?;
        let summary = tree.get("summary");
        let fragment = match (summary, tree.get("distributions"), tree.get("cpi_stack")) {
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
    /// Cost accounting for the run (the batch, under
    /// [`SweepPlan::run_all`]).
    pub stats: SweepStats,
}

impl SweepResults {
    /// Assemble results from already-executed outcomes in workload-major
    /// grid order. Every document, however it was obtained, goes through
    /// the same parse → render pipeline here, which is what makes the
    /// aggregates byte-identical across worker counts and backends.
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
        let stats = SweepStats {
            cells: outcomes.len(),
            failed: failures(&outcomes),
            workers,
            steals,
            wall_seconds,
            ..SweepStats::default()
        };
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

    /// Why one cell has no document to read, when it failed.
    pub fn cell_failure(&self, workload_index: usize, config_index: usize) -> Option<&SimError> {
        self.cell(workload_index, config_index).as_ref().err()
    }

    /// A numeric summary metric for one cell, when it succeeded.
    pub fn summary_number(
        &self,
        workload_index: usize,
        config_index: usize,
        field: &str,
    ) -> Option<f64> {
        let cell = self.cell(workload_index, config_index).as_ref().ok()?;
        cell.summary.as_ref()?.number_at(&[field])
    }

    /// The number at `path` in one completed cell's document, such as
    /// `["summary", "ipc"]` or `["counters", "mem", "write_throughs"]`.
    /// A `summary` path reads the member [`SweepResults::assemble`] kept;
    /// any other path parses the cell's document again, so what a result
    /// set holds per cell does not grow.
    pub fn cell_number(
        &self,
        workload_index: usize,
        config_index: usize,
        path: &[&str],
    ) -> Option<f64> {
        if let Some((&"summary", [field])) = path.split_first() {
            return self.summary_number(workload_index, config_index, field);
        }
        self.cell(workload_index, config_index).as_ref().ok()?;
        let index = workload_index * self.plan.configs.len() + config_index;
        let document = self.outcomes[index].document.as_ref().ok()?;
        parse_json(document).ok()?.number_at(path)
    }

    /// One cell's IPC relative to the reference configuration's on the
    /// same workload (0 when the reference IPC is 0), when both ran.
    pub fn relative_ipc(
        &self,
        workload_index: usize,
        config_index: usize,
        reference_index: usize,
    ) -> Option<f64> {
        let ipc = self.summary_number(workload_index, config_index, "ipc")?;
        let reference = self.summary_number(workload_index, reference_index, "ipc")?;
        Some(if reference == 0.0 {
            0.0
        } else {
            ipc / reference
        })
    }

    /// Geometric mean over the workloads whose `value` is known; 0 when
    /// none is. Failed cells drop out: the table marks them, the mean
    /// covers what ran.
    fn geomean(&self, value: impl Fn(usize) -> Option<f64>) -> f64 {
        geometric_mean((0..self.plan.workloads.len()).filter_map(value)).unwrap_or(0.0)
    }

    /// Geometric-mean IPC across workloads for one configuration.
    pub fn geomean_ipc(&self, config_index: usize) -> f64 {
        self.geomean(|w| self.summary_number(w, config_index, "ipc"))
    }

    /// Geometric mean of [`SweepResults::relative_ipc`] across workloads.
    pub fn geomean_relative(&self, config_index: usize, reference_index: usize) -> f64 {
        self.geomean(|w| self.relative_ipc(w, config_index, reference_index))
    }

    /// A (workload × config) table of `metric(workload_index,
    /// config_index)` to three decimals: `FAILED(<kind>)` for a failed
    /// cell, `-` where the metric is unknown.
    pub fn table_with(&self, label: &str, metric: impl Fn(usize, usize) -> Option<f64>) -> Table {
        let mut header = vec![format!("workload ({label})")];
        header.extend(self.plan.configs.iter().map(|c| c.name.clone()));
        let mut table = Table::new(header);
        for (workload_index, workload) in self.plan.workloads.iter().enumerate() {
            let mut row = vec![workload.name().to_string()];
            for config_index in 0..self.plan.configs.len() {
                row.push(match self.cell_failure(workload_index, config_index) {
                    None => metric(workload_index, config_index)
                        .map(|value| format!("{value:.3}"))
                        .unwrap_or_else(|| "-".to_string()),
                    Some(error) => format!("FAILED({})", error.kind()),
                });
            }
            table.row(row);
        }
        table
    }

    /// A geomean row over every configuration column.
    fn geomean_row(&self, table: &mut Table, mean: impl Fn(usize) -> f64) {
        let mut row = vec!["geomean".to_string()];
        row.extend((0..self.plan.configs.len()).map(|c| format!("{:.3}", mean(c))));
        table.row(row);
    }

    /// IPC per workload per configuration, plus a geomean row.
    pub fn ipc_table(&self) -> Table {
        self.metric_table("IPC", "ipc", true)
    }

    /// IPC normalised to the reference configuration, plus a geomean
    /// row.
    pub fn relative_table(&self, reference_index: usize) -> Table {
        let mut table = self.table_with("relative IPC", |w, c| {
            self.relative_ipc(w, c, reference_index)
        });
        self.geomean_row(&mut table, |c| self.geomean_relative(c, reference_index));
        table
    }

    /// Any summary metric as a (workload × config) table.
    pub fn metric_table(&self, label: &str, field: &str, geomean: bool) -> Table {
        let mut table = self.table_with(label, |w, c| self.summary_number(w, c, field));
        if geomean {
            self.geomean_row(&mut table, |c| {
                self.geomean(|w| self.summary_number(w, c, field))
            });
        }
        table
    }

    /// The aggregate sweep document: grid shape plus each cell's
    /// deterministic `summary`, `distributions` and `cpi_stack` objects
    /// (never the self-profile or wall times, which vary run to run).
    /// Byte-identical across worker counts and backends.
    pub fn aggregate_json(&self) -> String {
        let configs: Vec<String> = self
            .plan
            .configs
            .iter()
            .map(|c| format!("\"{}\"", escape(&c.name)))
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
                    escape(&config.name),
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
    use crate::cache::ResultCache;
    use crate::job::{run_job, CacheStatus};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// The cells of a rendered table's data rows.
    fn rows(table: &Table) -> Vec<Vec<String>> {
        let markdown = table.to_string();
        markdown
            .lines()
            .skip(2)
            .map(|line| {
                let inner = line.trim_start_matches('|').trim_end_matches('|');
                inner
                    .split('|')
                    .map(|cell| cell.trim().to_string())
                    .collect()
            })
            .collect()
    }

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
        let results = tiny_plan().run(2).expect("grid is valid");
        assert_eq!(results.outcomes().len(), 4);
        assert_eq!(results.stats.cells, 4);
        assert_eq!(results.stats.failed, 0);
        let table = results.ipc_table();
        assert_eq!(table.len(), 3, "two workloads + geomean");
        let doc = results.aggregate_json();
        let parsed = parse_json(&doc).expect("aggregate parses");
        assert_eq!(parsed.number_at(&["schema"]), Some(3.0));
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
        assert!(empty.run(1).is_err());
    }

    #[test]
    fn sweep_covers_the_grid() {
        let results = tiny_plan().run(1).expect("grid is valid");
        assert_eq!(results.outcomes().len(), 4);
        for (index, outcome) in results.outcomes().iter().enumerate() {
            assert_eq!(outcome.index, index, "outcomes come back in grid order");
        }
        for w in 0..2 {
            for c in 0..2 {
                assert!(results.cell_failure(w, c).is_none());
                let ipc = results.summary_number(w, c, "ipc").expect("cell ran");
                assert!(ipc > 0.0, "cell ({w}, {c}) ipc {ipc}");
            }
        }
        assert_eq!(results.summary_number(0, 0, "no_such_field"), None);
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        let serial = tiny_plan().run(1).expect("grid is valid");
        let parallel = tiny_plan().run(3).expect("grid is valid");
        assert_eq!(serial.outcomes().len(), parallel.outcomes().len());
        for w in 0..2 {
            for c in 0..2 {
                for field in ["cycles", "insts", "ipc"] {
                    assert_eq!(
                        serial.summary_number(w, c, field),
                        parallel.summary_number(w, c, field),
                        "cell ({w}, {c}) {field}"
                    );
                }
            }
        }
        assert_eq!(
            serial.ipc_table().to_string(),
            parallel.ipc_table().to_string()
        );
        assert_eq!(serial.aggregate_json(), parallel.aggregate_json());
    }

    #[test]
    fn empty_plan_is_an_error() {
        for empty in [
            SweepPlan {
                configs: vec![],
                ..tiny_plan()
            },
            SweepPlan {
                workloads: vec![],
                ..tiny_plan()
            },
        ] {
            let error = empty.run(1).expect_err("nothing to sweep");
            assert_eq!(error.kind(), "config");
            assert!(
                error.to_string().contains("at least one configuration"),
                "{error}"
            );
        }
    }

    #[test]
    fn invalid_configs_never_reach_a_runner() {
        // Validation is hoisted: an invalid config's cells fail up front,
        // never compute and never touch the job-level cache — serially and
        // with two workers — while the healthy cells run and are stored.
        let mut plan = tiny_plan();
        plan.configs[1] = SimConfig::dual_port().with_ports(0).named("broken");
        for workers in [1, 2] {
            let results = plan.run(workers).expect("grid is non-empty");
            assert_eq!(results.stats.failed, 2);
            for w in 0..2 {
                let broken = &results.outcomes()[w * 2 + 1];
                assert_eq!(broken.document.as_ref().unwrap_err().kind(), "config");
                assert_eq!(broken.wall_seconds, 0.0, "cell never ran");
                assert!(results.outcomes()[w * 2].wall_seconds > 0.0);
                assert!(results.summary_number(w, 0, "ipc").is_some());
            }

            let dir = tempdir(&format!("invalid-{workers}"));
            let cache = ResultCache::new(&dir);
            let (outcomes, _) =
                execute_jobs_traced(&plan.jobs(), workers, Some(&cache), None, None);
            let results = SweepResults::assemble(plan.clone(), outcomes, workers, 0, 0.0);
            assert_eq!(results.stats.failed, 2);
            for w in 0..2 {
                let broken = &results.outcomes()[w * 2 + 1];
                assert_eq!(broken.document.as_ref().unwrap_err().kind(), "config");
                assert_eq!(broken.cache, CacheStatus::Bypass, "cache never consulted");
                assert_eq!(broken.wall_seconds, 0.0, "cell never ran");
                assert_eq!(results.outcomes()[w * 2].cache, CacheStatus::Miss);
                assert!(results.summary_number(w, 0, "ipc").is_some());
            }
            assert_eq!(
                std::fs::read_dir(&dir).unwrap().count(),
                2,
                "one entry per healthy cell"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn replay_sweep_records_once_per_workload_and_matches_direct() {
        let direct = tiny_plan().run(2).expect("direct sweep runs");
        let replay = tiny_plan()
            .with_backend(BackendKind::Replay)
            .run(2)
            .expect("replay sweep runs");
        assert_eq!(
            direct.ipc_table().to_string(),
            replay.ipc_table().to_string(),
            "replay must be byte-identical to direct"
        );
        assert_eq!(direct.aggregate_json(), replay.aggregate_json());
        assert_eq!(replay.stats.traces_recorded, 2, "one per workload");
        assert_eq!(replay.stats.traces_reused, 4, "every cell reuses");
        assert_eq!(direct.stats.traces_recorded, 0);
        let footer = replay.stats.to_string();
        assert!(
            footer.ends_with(&format!(
                "trace: 2 recorded, 4 reused (recording {:.3}s)",
                replay.stats.recording_seconds
            )),
            "{footer}"
        );
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
        let results = plan.run(2).expect("grid is non-empty");
        assert_eq!(results.stats.failed, 2);
        let table = results.ipc_table().to_string();
        assert!(table.contains("FAILED(config)"), "{table}");
        assert!(results.aggregate_json().contains("\"failed\":\"config\""));
    }

    #[test]
    fn tables_have_the_right_shape() {
        let results = tiny_plan().run(2).expect("grid is valid");
        let relative = results.relative_table(1);
        assert_eq!(relative.len(), 3, "two workloads + geomean");
        // The reference column normalises to 1.000 on every row.
        for row in rows(&relative) {
            assert_eq!(row.last().map(String::as_str), Some("1.000"), "{row:?}");
        }
        assert_eq!(
            results
                .metric_table("util", "port_utilisation", false)
                .len(),
            2
        );
        let lb = results.table_with("lb", |w, c| {
            results.cell_number(w, c, &["counters", "mem", "load_lb_hits"])
        });
        assert_eq!(lb.len(), 2);
        assert!(lb
            .to_string()
            .starts_with("| workload (lb) | 1-port naive | 2-port"));
        let unknown = results.table_with("none", |_, _| None);
        assert_eq!(rows(&unknown).last().unwrap(), &["sort", "-", "-"]);
    }

    #[test]
    fn geomeans_are_positive_and_ordered_sanely() {
        let results = tiny_plan().run(2).expect("grid is valid");
        let (naive, dual) = (results.geomean_ipc(0), results.geomean_ipc(1));
        assert!(naive > 0.0 && dual > 0.0);
        assert!(
            dual >= naive * 0.95,
            "dual-ported should not lose: {dual} vs {naive}"
        );
        let relative = results.geomean_relative(0, 1);
        assert!(relative <= 1.05, "naive relative to dual: {relative}");
        assert_eq!(results.geomean_relative(1, 1), 1.0);
        let geomean_row = rows(&results.ipc_table()).pop().expect("geomean row");
        assert_eq!(
            geomean_row,
            [
                "geomean".to_string(),
                format!("{naive:.3}"),
                format!("{dual:.3}")
            ]
        );
    }

    #[test]
    fn poisoned_cell_fails_alone() {
        // One inconsistent configuration marks its own cells FAILED while
        // every healthy cell matches a clean sweep bit for bit, serially
        // and with two workers.
        let clean = tiny_plan().run(1).expect("grid is valid");
        let mut plan = tiny_plan();
        plan.configs.insert(
            1,
            SimConfig::naive_single_port()
                .with_ports(0)
                .named("poisoned"),
        );
        for workers in [1, 2] {
            let poisoned = plan.run(workers).expect("grid is non-empty");
            assert_eq!(poisoned.stats.failed, 2);
            for w in 0..2 {
                for (c, clean_c) in [(0, 0), (2, 1)] {
                    for field in ["cycles", "insts", "ipc"] {
                        assert_eq!(
                            poisoned.summary_number(w, c, field),
                            clean.summary_number(w, clean_c, field)
                        );
                    }
                }
            }
            let table = poisoned.ipc_table().to_string();
            assert_eq!(table.matches("FAILED(config)").count(), 2, "{table}");
            assert!(
                poisoned.geomean_ipc(0) > 0.0,
                "healthy columns still average"
            );
            assert_eq!(poisoned.geomean_ipc(1), 0.0);
            assert_eq!(poisoned.relative_ipc(0, 1, 2), None);
        }
    }

    #[test]
    fn watchdog_cells_fail_in_table_and_aggregate_and_rerun_as_misses() {
        // A watchdog far below the pipeline fill latency aborts the cell.
        // The failure is typed, shown in both outputs, never cached by the
        // job-level cache, and never retried at a smaller window.
        let mut livelocked = SimConfig::naive_single_port().named("livelocked");
        livelocked.cpu.watchdog_cycles = 4;
        let plan = SweepPlan {
            configs: vec![livelocked, SimConfig::dual_port()],
            workloads: vec![Workload::Sort],
            ..tiny_plan()
        };
        let dir = tempdir("watchdog");
        let cache = ResultCache::new(&dir);
        for run in 0..2 {
            let (outcomes, _) = execute_jobs_traced(&plan.jobs(), 2, Some(&cache), None, None);
            let results = SweepResults::assemble(plan.clone(), outcomes, 2, 0, 0.0);
            let outcome = &results.outcomes()[0];
            assert_eq!(outcome.document.as_ref().unwrap_err().kind(), "watchdog");
            assert_eq!(
                outcome.cache,
                CacheStatus::Miss,
                "run {run}: failures are not cached"
            );
            let table = results.ipc_table().to_string();
            assert!(table.contains("FAILED(watchdog)"), "{table}");
            assert!(results.aggregate_json().contains("\"failed\":\"watchdog\""));
            assert_eq!(results.stats.failed, 1);
            let expected = if run == 0 {
                CacheStatus::Miss
            } else {
                CacheStatus::Hit
            };
            assert_eq!(results.outcomes()[1].cache, expected);
        }
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "only the healthy cell is stored"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counters_match_the_raw_run_and_stay_out_of_the_aggregate() {
        let plan = SweepPlan {
            configs: vec![SimConfig::combined_single_port()],
            workloads: vec![Workload::Compress],
            ..tiny_plan()
        };
        let results = plan.run(1).expect("grid is valid");
        let raw = cpe_core::Simulator::try_new(SimConfig::combined_single_port())
            .expect("the config validates")
            .try_run(Workload::Compress, plan.scale, plan.max_insts)
            .expect("the run completes")
            .raw;
        for (half, counters) in [("cpu", raw.cpu.counters()), ("mem", raw.mem.counters())] {
            let document = parse_json(results.outcomes()[0].document.as_ref().unwrap()).unwrap();
            let Some(JsonValue::Object(members)) = document.at(&["counters", half]) else {
                panic!("no counters.{half} object");
            };
            assert_eq!(members.len(), counters.len(), "counters.{half}");
            for (name, value) in counters {
                assert_eq!(
                    results.cell_number(0, 0, &["counters", half, name]),
                    Some(value as f64),
                    "counters.{half}.{name}"
                );
            }
        }
        assert_eq!(
            results.cell_number(0, 0, &["counters", "mem", "loads"]),
            Some(raw.mem.loads.get() as f64)
        );
        assert_eq!(
            results.cell_number(0, 0, &["summary", "ipc"]),
            results.summary_number(0, 0, "ipc")
        );
        assert!(!results.aggregate_json().contains("counters"));
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
            .map(|c| format!("\"{}\"", escape(&c.name)))
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
                    escape(&config.name),
                    workload.name()
                );
                let cell = match &trees[workload_index * plan.configs.len() + config_index] {
                    Ok(document) => {
                        let summary = document.get("summary").map(render);
                        let distributions = document.get("distributions").map(render);
                        let cpi_stack = document.get("cpi_stack").map(render);
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
            let summary = tree.as_ref().and_then(|tree| tree.get("summary"));
            let mut fields = vec!["ipc".to_string(), "no_such_field".to_string()];
            if let Some(JsonValue::Object(members)) = summary {
                fields.extend(members.iter().map(|(key, _)| key.clone()));
            }
            for field in &fields {
                assert_eq!(
                    results.summary_number(workload_index, config_index, field),
                    tree.as_ref()
                        .and_then(|tree| tree.number_at(&["summary", field])),
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
        // Cached documents come from the job-level cache; a sweep itself
        // never reads one.
        let dir = tempdir("oracle");
        let cache = ResultCache::new(&dir);
        let plan = tiny_plan().with_backend(BackendKind::Replay);
        let assemble = |status| {
            let (outcomes, _) = execute_jobs_traced(&plan.jobs(), 2, Some(&cache), None, None);
            assert!(outcomes.iter().all(|outcome| outcome.cache == status));
            SweepResults::assemble(plan.clone(), outcomes, 2, 0, 0.0)
        };
        let fresh = assemble(CacheStatus::Miss);
        assert_matches_oracle(&fresh);
        let cached = assemble(CacheStatus::Hit);
        assert_matches_oracle(&cached);
        assert_eq!(fresh.aggregate_json(), cached.aggregate_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_and_failed_cells_match_the_tree_oracle() {
        let fresh = tiny_plan().run(2).expect("grid is valid");
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
        let table = results.ipc_table().to_string();
        assert!(table.contains("FAILED(trace)"), "{table}");
        assert!(table.contains("FAILED(panic)"), "{table}");
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
        let results = plan.run(1).expect("grid is valid");
        let doc = results.aggregate_json();
        let parsed = parse_json(&doc).expect("the aggregate is valid JSON");
        assert_eq!(
            parsed.get("configs"),
            Some(&JsonValue::Array(vec![JsonValue::Text(name.to_string())]))
        );
        let Some(JsonValue::Array(cells)) = parsed.get("cells") else {
            panic!("cells is an array: {doc}");
        };
        let name_value = JsonValue::Text(name.to_string());
        assert_eq!(cells[0].get("config"), Some(&name_value));
        assert_eq!(cells[0].at(&["summary", "config"]), Some(&name_value));
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
