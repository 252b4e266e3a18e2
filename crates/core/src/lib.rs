//! `cpe-core` — the top-level API of the cache-port efficiency suite.
//!
//! This crate packages the reproduced paper's contribution as a library a
//! downstream user can drive directly:
//!
//! * [`SimConfig`] — a named machine configuration, with constructors for
//!   every design point the paper compares: the naive single-ported cache,
//!   true dual/quad porting, and each single-port technique (store
//!   buffering with port stealing, wide ports with load combining, line
//!   buffers) separately and [combined](SimConfig::combined_single_port);
//! * [`Simulator`] — binds a configuration to a workload and runs the
//!   cycle-level model end to end;
//! * [`RunSummary`] — the flattened metrics a study needs (IPC, port
//!   utilisation, portless-load fraction, miss ratios, kernel/user
//!   breakdowns);
//! * [`Experiment`] — a sweep runner producing `cpe-stats` tables, used by
//!   the benchmark harness to regenerate the paper's tables and figures;
//! * [`Simulator::try_profile`] — an instrumented run producing interval
//!   ("epoch") metrics, a self-profile, and — with the `trace` feature —
//!   the retained `cpe-trace` event window; [`profile_json`] renders the
//!   whole thing as a self-describing `--metrics-json` document —
//!   including the run's latency and occupancy *distributions* (per-path
//!   load-latency histograms with p50/p95/p99, store-commit wait, MSHR
//!   residency, and per-cycle structure occupancy);
//! * [`BenchReport`] — host-side benchmarking of the simulator itself
//!   (wall time, simulated cycles/sec, peak RSS) over the standard
//!   workloads, exported as `BENCH_*.json`;
//! * [`diff_json`] — a dependency-free, field-by-field comparison of two
//!   exported JSON documents with a relative tolerance: the regression
//!   gate behind `cpe diff`.
//!
//! # Quickstart
//!
//! ```
//! use cpe_core::{SimConfig, Simulator};
//! use cpe_workloads::{Scale, Workload};
//!
//! let dual = Simulator::new(SimConfig::dual_port())
//!     .run(Workload::Compress, Scale::Test, Some(30_000));
//! let naive = Simulator::new(SimConfig::naive_single_port())
//!     .run(Workload::Compress, Scale::Test, Some(30_000));
//! assert!(dual.ipc >= naive.ipc);
//! ```

mod backend;
mod bench;
mod config;
mod diff;
mod error;
mod experiment;
pub mod faultinject;
pub mod json;
mod metrics;
mod observe;
mod report;
mod simulator;
mod validate;

pub use backend::{check_replayable, BackendKind, RecordedWorkload, RECORD_HEADROOM};
pub use bench::{peak_rss_bytes, BenchEntry, BenchReport};
pub use config::SimConfig;
pub use diff::{diff_json, parse_json, DiffEntry, DiffReport, JsonValue};
pub use error::{ConfigError, SimError};
pub use experiment::{Experiment, ResultRow};
pub use json::{config_json, profile_json, summary_json, METRICS_SCHEMA};
pub use metrics::RunSummary;
pub use observe::{EpochMetrics, MetricsSeries, ProfileOptions, ProfiledRun, SelfProfile};
pub use report::{detailed_report, explain_report};
pub use simulator::Simulator;
pub use validate::validate_cpi_stacks;
// The commit-slot accounting types surface here because the CPI stack is
// part of this crate's exported documents and reports; the execution
// backend seam surfaces because [`BackendKind`] selects implementations
// of it.
pub use cpe_cpu::{CpiStack, ExecBackend, StallCause};
