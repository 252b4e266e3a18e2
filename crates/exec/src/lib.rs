//! Parallel execution of simulation jobs: a work-stealing scheduler and a
//! content-addressed result cache.
//!
//! The simulator itself is deliberately single-threaded and
//! deterministic; what *is* parallel is the experiment space around it —
//! configurations × workloads grids. This crate supplies the execution
//! layer behind `cpe sweep`:
//!
//! - [`scheduler`]: dependency-free work stealing over `std::thread`,
//!   with results returned in submission order so aggregates are
//!   independent of worker count.
//! - [`cache`]: an on-disk result cache addressed by an FNV-1a hash of
//!   the canonical (key-sorted) configuration JSON plus workload, scale,
//!   instruction window, and schema versions. A cache hit returns the
//!   byte-identical schema-stamped metrics document a fresh run would produce.
//! - [`job`]: the `(SimConfig, workload)` unit of work with panic
//!   isolation and hoisted config validation, plus the stderr progress
//!   line a sweep feeds as cells finish.
//! - [`sweep`]: the cached, parallel grid behind `cpe sweep`.
//! - [`traces`]: the record-once store replay-backend cells share.
//!
//! The layer's core promise, pinned by
//! `crates/exec/tests/parallel_matches_serial.rs`: for any worker count
//! and any cache state, a sweep's aggregate table and metrics document
//! are **byte-identical** to the serial, uncached run's.

pub mod cache;
pub mod job;
pub mod render;
pub mod scheduler;
pub mod sweep;
pub mod traces;

pub use cache::{canonical_json, fnv1a64, CacheKey, CacheStats, ResultCache, DEFAULT_CACHE_DIR};
pub use job::{
    preset_configs, run_job, run_job_traced, scale_name, CacheStatus, Job, JobOutcome,
    SweepProgress,
};
pub use scheduler::{effective_workers, run_work_stealing, SchedulerStats};
pub use sweep::{SweepPlan, SweepResults, SweepStats};
pub use traces::TraceStore;
