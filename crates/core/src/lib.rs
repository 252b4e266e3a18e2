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
//! * [`Simulator::try_profile`] — an instrumented run producing interval
//!   ("epoch") metrics, a self-profile, and — with the `trace` feature —
//!   the retained `cpe-trace` event window; [`profile_json`] renders the
//!   whole thing as a self-describing `--metrics-json` document —
//!   including the run's latency and occupancy *distributions* (per-path
//!   load-latency histograms with p50/p95/p99, store-commit wait, MSHR
//!   residency, and per-cycle structure occupancy);
//! * [`peak_rss_bytes`] — the process's peak resident set, the host
//!   memory figure the benchmark package (`perfbench/`) reports;
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
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dual = Simulator::try_new(SimConfig::dual_port())?
//!     .try_run(Workload::Compress, Scale::Test, Some(30_000))?;
//! let naive = Simulator::try_new(SimConfig::naive_single_port())?
//!     .try_run(Workload::Compress, Scale::Test, Some(30_000))?;
//! assert!(dual.ipc >= naive.ipc);
//! # Ok(())
//! # }
//! ```

mod backend;
mod config;
mod diff;
mod error;
#[cfg(test)]
mod faultinject;
pub mod json;
mod metrics;
mod observe;
mod report;
mod simulator;
mod validate;

pub use backend::{check_replayable, BackendKind, RecordedWorkload, RECORD_HEADROOM};
pub use config::SimConfig;
pub use diff::{diff_json, parse_json, DiffEntry, DiffReport, JsonValue};
pub use error::{ConfigError, SimError};
pub use json::{config_json, profile_json, summary_json, METRICS_SCHEMA};
pub use metrics::RunSummary;
pub use observe::{
    peak_rss_bytes, EpochMetrics, MetricsSeries, ProfileOptions, ProfiledRun, SelfProfile,
};
pub use report::{detailed_report, explain_report};
pub use simulator::Simulator;
pub use validate::validate_cpi_stacks;
// The commit-slot accounting types surface here because the CPI stack is
// part of this crate's exported documents and reports.
pub use cpe_cpu::{CpiStack, StallCause};
