//! `cpe` — Cache-Port Efficiency simulation suite.
//!
//! A from-scratch Rust reproduction of Wilson, Olukotun and Rosenblum,
//! *"Increasing Cache Port Efficiency for Dynamic Superscalar
//! Microprocessors"* (ISCA '96). See `README.md` for the project overview,
//! `DESIGN.md` for the system inventory and substitutions, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`isa`] | `cpe-isa` | the miniature RISC ISA, assembler, functional emulator |
//! | [`mem`] | `cpe-mem` | the cache hierarchy with ports, line buffers, store buffer, MSHRs |
//! | [`cpu`] | `cpe-cpu` | the dynamic superscalar out-of-order core |
//! | [`workloads`] | `cpe-workloads` | the six applications + OS-activity injection |
//! | [`stats`] | `cpe-stats` | counters, histograms, tables, time series |
//! | [`trace`] | `cpe-trace` | event tracing: ring buffer, Chrome/JSONL sinks |
//! | [`exec`] | `cpe-exec` | parallel sweep scheduler, result cache |
//! | top level | `cpe-core` | [`SimConfig`], [`Simulator`], [`Experiment`], [`RunSummary`], [`ProfiledRun`] |
//!
//! # Quickstart
//!
//! ```
//! use cpe::{SimConfig, Simulator};
//! use cpe::workloads::{Scale, Workload};
//!
//! // How much of a dual-ported cache's performance does the paper's
//! // single-ported design recover on one workload?
//! let window = Some(20_000);
//! let dual = Simulator::new(SimConfig::dual_port())
//!     .run(Workload::Sort, Scale::Test, window);
//! let combined = Simulator::new(SimConfig::combined_single_port())
//!     .run(Workload::Sort, Scale::Test, window);
//! let recovered = combined.relative_ipc(&dual);
//! assert!(recovered > 0.5 && recovered <= 1.2);
//! ```

pub use cpe_core::{
    check_replayable, config_json, detailed_report, diff_json, explain_report, faultinject,
    parse_json, peak_rss_bytes, profile_json, summary_json, validate_cpi_stacks, BackendKind,
    BenchEntry, BenchReport, ConfigError, CpiStack, DiffEntry, DiffReport, EpochMetrics,
    ExecBackend, Experiment, JsonValue, MetricsSeries, ProfileOptions, ProfiledRun,
    RecordedWorkload, ResultRow, RunSummary, SelfProfile, SimConfig, SimError, Simulator,
    StallCause, METRICS_SCHEMA, RECORD_HEADROOM,
};

/// The miniature RISC ISA: instructions, assembler, functional emulator.
pub mod isa {
    pub use cpe_isa::*;
}

/// The memory hierarchy: caches, ports, line buffers, store buffer, MSHRs.
pub mod mem {
    pub use cpe_mem::*;
}

/// The dynamic superscalar core model.
pub mod cpu {
    pub use cpe_cpu::*;
}

/// Workloads: six applications, synthetic generators, OS injection.
pub mod workloads {
    pub use cpe_workloads::*;
}

/// Statistics substrate: counters, histograms, summary, tables.
pub mod stats {
    pub use cpe_stats::*;
}

/// Observability substrate: compact trace events, the capture ring, and
/// the Chrome/JSONL/null sinks. See `docs/OBSERVABILITY.md`.
pub mod trace {
    pub use cpe_trace::*;
}

/// Execution layer: work-stealing scheduler, content-addressed result
/// cache, and the `cpe sweep` grid. See `docs/EXECUTION.md`.
pub mod exec {
    pub use cpe_exec::*;
}
