//! Parallel execution of simulation jobs: a work-stealing scheduler, a
//! record-once trace store, and the sweep grids built on them.
//!
//! The simulator itself is deliberately single-threaded and
//! deterministic; what *is* parallel is the experiment space around it —
//! configurations × workloads grids. This crate supplies the execution
//! layer behind `cpe sweep`:
//!
//! - [`scheduler`]: dependency-free work stealing over `std::thread`,
//!   with results returned in submission order so aggregates are
//!   independent of worker count.
//! - [`cache`]: a job-level on-disk result cache addressed by an FNV-1a
//!   hash of the canonical (key-sorted) configuration JSON plus workload,
//!   scale, instruction window, and schema versions. Only callers of
//!   [`run_job`] and [`job::execute_jobs_traced`] that attach one use it
//!   (the perfbench harness measures it); sweeps never do.
//! - [`job`]: the `(SimConfig, workload)` unit of work with panic
//!   isolation and hoisted config validation, plus the stderr progress
//!   line a sweep feeds as cells finish.
//! - [`sweep`]: the parallel, replayed grid batches behind `cpe sweep` and
//!   `reproduce`.
//! - [`traces`]: the record-once store replay-backend cells share.
//!
//! The layer's core promise, pinned by
//! `crates/exec/tests/parallel_matches_serial.rs` and
//! `crates/exec/tests/replay_matches_direct.rs`: for any worker count, a
//! sweep's aggregate table and metrics document are **byte-identical** to
//! the serial run's, and a replayed sweep's to the direct one's.

pub mod cache;
pub mod job;
pub mod render;
pub mod scheduler;
pub mod sweep;
pub mod traces;

pub use cache::{canonical_json, fnv1a64, CacheKey, ResultCache};
pub use job::{
    preset_configs, run_job, run_job_traced, scale_name, CacheStatus, Job, JobOutcome,
    SweepProgress,
};
pub use scheduler::{effective_workers, run_work_stealing, SchedulerStats};
pub use sweep::{SweepPlan, SweepResults, SweepStats};
pub use traces::TraceStore;
