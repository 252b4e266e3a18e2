//! Jobs: one `(SimConfig, workload)` cell, the parallel executor a
//! sweep goes through, and the progress line it feeds.

use std::io::IsTerminal;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use cpe_core::{profile_json, BackendKind, ProfileOptions, SimConfig, SimError, Simulator};
use cpe_workloads::{Scale, Workload};

use crate::cache::{CacheKey, ResultCache};
use crate::scheduler::{run_work_stealing, SchedulerStats};
use crate::traces::TraceStore;

/// The stable name of a [`Scale`], used in cache keys and the sweep
/// metrics document.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// The named configuration presets every front end offers, in report
/// order.
pub fn preset_configs() -> Vec<SimConfig> {
    vec![
        SimConfig::naive_single_port(),
        SimConfig::single_port(),
        SimConfig::dual_port(),
        SimConfig::quad_port(),
        SimConfig::ideal_ports(),
        SimConfig::combined_single_port(),
    ]
}

/// One independent unit of work: run `config` on `workload` and produce
/// the schema-stamped metrics document.
#[derive(Debug, Clone)]
pub struct Job {
    /// The machine configuration.
    pub config: SimConfig,
    /// The workload to run on it.
    pub workload: Workload,
    /// Problem-size preset.
    pub scale: Scale,
    /// Committed-instruction window (`None` runs to completion).
    pub max_insts: Option<u64>,
    /// How the cell obtains its instruction stream. Replay and direct
    /// produce byte-identical documents; the backend is still part of
    /// the cache key so the equivalence stays *checkable* from cold
    /// caches (see `CacheKey::for_job`).
    pub backend: BackendKind,
}

impl Job {
    /// This job's content address.
    pub fn cache_key(&self) -> CacheKey {
        CacheKey::for_job(self)
    }
}

/// How a job's document was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Read back from the result cache.
    Hit,
    /// Computed, then stored.
    Miss,
    /// Computed with no cache attached.
    Bypass,
}

impl CacheStatus {
    /// The display label (`"hit"`, `"miss"`, `"bypass"`).
    pub fn label(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Bypass => "bypass",
        }
    }
}

/// One executed job: its index in the submitted order, the document (or
/// the typed failure that replaced it), and how it was served.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Index of the job in the submitted slice.
    pub index: usize,
    /// The metrics document, or the failure.
    pub document: Result<String, SimError>,
    /// Hit, miss, or bypass.
    pub cache: CacheStatus,
    /// Wall seconds this job cost (near zero for a hit).
    pub wall_seconds: f64,
}

/// Run `cell` behind a panic boundary: an unwind becomes
/// [`SimError::WorkerPanic`] carrying the panic message, so one
/// panicking cell fails alone instead of taking its worker down.
fn isolate(cell: impl FnOnce() -> Result<String, SimError>) -> Result<String, SimError> {
    catch_unwind(AssertUnwindSafe(cell)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(SimError::WorkerPanic { message })
    })
}

/// Compute one job's document (no cache involvement), with panic
/// isolation.
///
/// A replay-backend job pulls its recording from `traces` (recording on
/// the fly into a private store when the caller attached none), then
/// profiles over the replayed stream; the document is byte-identical to
/// the direct path's.
fn compute(job: &Job, traces: Option<&TraceStore>) -> Result<String, SimError> {
    isolate(|| {
        let simulator = Simulator::try_new(job.config.clone())?;
        let run = match job.backend {
            BackendKind::Direct => simulator.try_profile(
                job.workload,
                job.scale,
                job.max_insts,
                ProfileOptions::default(),
            )?,
            BackendKind::Replay => {
                let own_store;
                let store = match traces {
                    Some(store) => store,
                    None => {
                        own_store = TraceStore::new();
                        &own_store
                    }
                };
                let recorded = store.get(job);
                simulator.try_profile_recorded(
                    &recorded,
                    job.max_insts,
                    ProfileOptions::default(),
                )?
            }
        };
        Ok(profile_json(&run, simulator.config()))
    })
}

/// Run one job through the cache: lookup, compute on miss, store.
/// Failures are never cached — a watchdog abort or panic re-runs next
/// time rather than becoming a sticky error.
pub fn run_job(job: &Job, cache: Option<&ResultCache>) -> JobOutcome {
    run_job_traced(job, cache, None)
}

/// [`run_job`] with an optional shared recording store for
/// replay-backend jobs. Direct-backend jobs never touch the store.
pub fn run_job_traced(
    job: &Job,
    cache: Option<&ResultCache>,
    traces: Option<&TraceStore>,
) -> JobOutcome {
    let started = Instant::now();
    let (document, status) = match cache {
        None => (compute(job, traces), CacheStatus::Bypass),
        Some(cache) => {
            let key = job.cache_key();
            match cache.lookup(&key) {
                Some(document) => (Ok(document), CacheStatus::Hit),
                None => {
                    let document = compute(job, traces);
                    if let Ok(document) = &document {
                        // Best-effort: an unwritable cache degrades to
                        // recomputation, never to a failed job.
                        let _ = cache.store(&key, document);
                    }
                    (document, CacheStatus::Miss)
                }
            }
        }
    };
    JobOutcome {
        index: 0,
        document,
        cache: status,
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

/// Execute a batch of jobs across `workers` threads, through `cache`
/// when attached. Replay-backend cells pull their workload's recording
/// from `traces` instead of re-running the functional emulator per cell;
/// the sweep layer pre-populates the store before scheduling (see
/// `SweepPlan::run_all`). `progress`, when attached, is fed
/// from the worker threads as cells finish (completion order, not
/// submission order — progress is observability, not output).
///
/// Configuration validation is hoisted out of the cells: every distinct
/// config is validated exactly once, before any cell starts, and the
/// cells of an invalid config fail immediately with
/// [`SimError::InvalidConfig`] without ever occupying a worker.
///
/// Results come back in submission order regardless of worker count or
/// completion order.
pub fn execute_jobs_traced(
    jobs: &[Job],
    workers: usize,
    cache: Option<&ResultCache>,
    progress: Option<&SweepProgress>,
    traces: Option<&TraceStore>,
) -> (Vec<JobOutcome>, SchedulerStats) {
    // One validation per distinct config, not one per cell.
    let mut seen: Vec<(&SimConfig, Option<SimError>)> = Vec::new();
    let prechecked: Vec<Option<SimError>> = jobs
        .iter()
        .map(|job| {
            if let Some((_, verdict)) = seen.iter().find(|(config, _)| *config == &job.config) {
                verdict.clone()
            } else {
                let verdict = job.config.validate().err().map(SimError::from);
                seen.push((&job.config, verdict.clone()));
                verdict
            }
        })
        .collect();

    let runnable: Vec<usize> = (0..jobs.len())
        .filter(|&index| prechecked[index].is_none())
        .collect();
    let (ran, stats) = run_work_stealing(&runnable, workers, |_, &job_index| {
        let outcome = JobOutcome {
            index: job_index,
            ..run_job_traced(&jobs[job_index], cache, traces)
        };
        if let Some(progress) = progress {
            progress.cell_done(outcome.document.is_err());
        }
        outcome
    });

    let mut outcomes: Vec<Option<JobOutcome>> = prechecked
        .into_iter()
        .enumerate()
        .map(|(index, verdict)| {
            verdict.map(|error| {
                if let Some(progress) = progress {
                    progress.cell_done(true);
                }
                JobOutcome {
                    index,
                    document: Err(error),
                    cache: CacheStatus::Bypass,
                    wall_seconds: 0.0,
                }
            })
        })
        .collect();
    for outcome in ran {
        let index = outcome.index;
        outcomes[index] = Some(outcome);
    }
    (
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every job has an outcome"))
            .collect(),
        stats,
    )
}

/// A live sweep progress line on stderr. On a TTY it redraws in place
/// (throttled); otherwise it prints plain incremental lines at a slow
/// cadence, so logs stay readable and short runs stay silent.
///
/// All output goes to stderr: stdout stays byte-identical across observed
/// and unobserved runs, and progress is observability, not output.
pub struct SweepProgress {
    total: usize,
    done: AtomicUsize,
    failed: AtomicUsize,
    tty: bool,
    started: Instant,
    last_render_ms: AtomicU64,
}

impl SweepProgress {
    /// Progress over `total` cells, TTY-gated on stderr.
    pub fn auto(total: usize) -> SweepProgress {
        SweepProgress::with_tty(total, std::io::stderr().is_terminal())
    }

    /// Progress with an explicit TTY decision (tests).
    pub fn with_tty(total: usize, tty: bool) -> SweepProgress {
        SweepProgress {
            total,
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            tty,
            started: Instant::now(),
            last_render_ms: AtomicU64::new(0),
        }
    }

    /// Record one finished cell and redraw when due.
    pub fn cell_done(&self, failed: bool) {
        if failed {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.maybe_render(done);
    }

    fn line(&self, done: usize) -> String {
        format!(
            "sweep: {done}/{} cell(s), {} failed ({:.1}s)",
            self.total,
            self.failed.load(Ordering::Relaxed),
            self.started.elapsed().as_secs_f64()
        )
    }

    fn maybe_render(&self, done: usize) {
        // In-place redraws refresh fast; plain lines stay sparse so a
        // piped log is incremental, not spammed.
        let interval_ms: u64 = if self.tty { 100 } else { 2_000 };
        let elapsed_ms = self.started.elapsed().as_millis() as u64;
        let last = self.last_render_ms.load(Ordering::Relaxed);
        let due =
            elapsed_ms.saturating_sub(last) >= interval_ms || (self.tty && done == self.total);
        if !due {
            return;
        }
        // One renderer at a time; a lost race just skips this redraw.
        if self
            .last_render_ms
            .compare_exchange(last, elapsed_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        if self.tty {
            eprint!("\r{}\x1b[K", self.line(done));
        } else {
            eprintln!("{}", self.line(done));
        }
    }

    /// Clear the in-place line so the stats footer starts clean.
    pub fn finish(&self) {
        if self.tty {
            eprint!("\r\x1b[K");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_jobs() -> Vec<Job> {
        [SimConfig::naive_single_port(), SimConfig::dual_port()]
            .into_iter()
            .flat_map(|config| {
                [Workload::Compress, Workload::Sort]
                    .into_iter()
                    .map(move |workload| Job {
                        config: config.clone(),
                        workload,
                        scale: Scale::Test,
                        max_insts: Some(3_000),
                        backend: BackendKind::Direct,
                    })
            })
            .collect()
    }

    /// The deterministic projection of a document: everything except the
    /// host-timing `self_profile`, rendered canonically.
    fn deterministic_part(document: &str) -> String {
        let parsed = cpe_core::parse_json(document).expect("document parses");
        let cpe_core::JsonValue::Object(members) = &parsed else {
            panic!("document is an object");
        };
        members
            .iter()
            .filter(|(key, _)| key != "self_profile")
            .map(|(_, member)| crate::render::render(member))
            .collect::<Vec<_>>()
            .join(",")
    }

    #[test]
    fn uncached_execution_is_deterministic_across_worker_counts() {
        let jobs = tiny_jobs();
        let (serial, _) = execute_jobs_traced(&jobs, 1, None, None, None);
        let (parallel, _) = execute_jobs_traced(&jobs, 3, None, None, None);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.index, b.index);
            assert_eq!(
                deterministic_part(a.document.as_ref().unwrap()),
                deterministic_part(b.document.as_ref().unwrap()),
                "cell {} must be byte-identical outside self_profile",
                a.index
            );
            assert_eq!(b.cache, CacheStatus::Bypass);
        }
    }

    #[test]
    fn cells_attach_no_event_ring() {
        let mut jobs = tiny_jobs();
        jobs[1].backend = BackendKind::Replay;
        let (outcomes, _) = execute_jobs_traced(&jobs, 1, None, None, None);
        for outcome in outcomes {
            let document = outcome.document.expect("cell completes");
            assert!(
                document.contains("\"capture_enabled\":false,\"ring\":null}"),
                "cell {}: {document}",
                outcome.index
            );
        }
    }

    #[test]
    fn cache_turns_the_second_run_into_pure_hits() {
        let dir = std::env::temp_dir().join(format!("cpe-exec-hits-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let jobs = tiny_jobs();
        let (first, _) = execute_jobs_traced(&jobs, 2, Some(&cache), None, None);
        assert!(first.iter().all(|o| o.cache == CacheStatus::Miss));
        let (second, _) = execute_jobs_traced(&jobs, 2, Some(&cache), None, None);
        assert!(second.iter().all(|o| o.cache == CacheStatus::Hit));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.document.as_ref().unwrap(), b.document.as_ref().unwrap());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_configs_fail_before_any_cell_starts() {
        let mut jobs = tiny_jobs();
        jobs[0].config = SimConfig::naive_single_port().with_ports(0).named("bad");
        jobs[1].config = jobs[0].config.clone();
        let (outcomes, _) = execute_jobs_traced(&jobs, 2, None, None, None);
        for index in [0, 1] {
            let error = outcomes[index].document.as_ref().unwrap_err();
            assert_eq!(error.kind(), "config");
            assert_eq!(outcomes[index].wall_seconds, 0.0, "cell never ran");
        }
        assert!(outcomes[2].document.is_ok());
        assert!(outcomes[3].document.is_ok());
    }

    #[test]
    fn panics_become_typed_worker_panics() {
        let ok = isolate(|| Ok("{}".to_string()));
        assert_eq!(ok.expect("no panic"), "{}");
        let typed = isolate(|| {
            Err(SimError::Trace {
                index: 3,
                message: "torn record".into(),
            })
        });
        assert_eq!(typed.expect_err("errors pass through").kind(), "trace");
        let text = isolate(|| panic!("synthetic worker crash"));
        let owned = isolate(|| panic!("cell {} crashed", 7));
        let opaque = isolate(|| std::panic::panic_any(42_u8));
        for (outcome, message) in [
            (text, "synthetic worker crash"),
            (owned, "cell 7 crashed"),
            (opaque, "non-string panic payload"),
        ] {
            let error = outcome.expect_err("a panic is a failed cell");
            assert_eq!(error.kind(), "panic");
            assert!(error.to_string().contains(message), "{error}");
        }
    }

    #[test]
    fn progress_line_reports_the_running_tally() {
        let progress = SweepProgress::with_tty(4, false);
        progress.cell_done(false);
        progress.cell_done(false);
        progress.cell_done(true);
        let line = progress.line(3);
        assert!(line.starts_with("sweep: 3/4 cell(s), 1 failed ("), "{line}");
    }
}
