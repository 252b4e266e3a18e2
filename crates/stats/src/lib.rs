//! `cpe-stats` — counters, histograms, summary statistics and table
//! rendering for the cache-port efficiency simulation suite.
//!
//! Every simulator component in the workspace reports through these types so
//! that the benchmark harness can print the paper-style tables and figure
//! series uniformly.
//!
//! # Example
//!
//! ```
//! use cpe_stats::{geometric_mean, Table};
//!
//! let speedups = [1.10, 0.95, 1.30];
//! let geo = geometric_mean(speedups.iter().copied()).unwrap();
//! assert!((geo - 1.104).abs() < 0.01);
//!
//! let mut table = Table::new(["workload", "speedup"]);
//! table.row(["compress", "1.10"]);
//! let markdown = table.to_markdown();
//! assert!(markdown.contains("compress"));
//! assert_eq!(markdown.lines().count(), 3); // header, rule, one row
//! ```

mod counter;
mod histogram;
mod log2hist;
mod summary;
mod table;
mod timeseries;

pub use counter::{Counter, Ratio};
pub use histogram::Histogram;
pub use log2hist::Log2Histogram;
pub use summary::{geometric_mean, mean, percent};
pub use table::Table;
pub use timeseries::TimeSeries;
