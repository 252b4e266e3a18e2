//! Typed failures of the simulation pipeline.
//!
//! Everything that can go wrong between "here is a configuration and a
//! workload" and "here is a [`crate::RunSummary`]" is enumerated here, so
//! sweep drivers can isolate a failed design point, label it, and keep
//! going — a panic in one cell must never take down a table.

use std::fmt;

use cpe_cpu::WatchdogReport;

/// An inconsistent machine configuration, rejected before any cycle runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Name of the offending configuration.
    pub config: String,
    /// The first inconsistency found.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid configuration `{}`: {}",
            self.config, self.message
        )
    }
}

impl std::error::Error for ConfigError {}

/// Any way a single simulation run can fail.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration never could have run.
    InvalidConfig(ConfigError),
    /// The input trace was unreadable or corrupt.
    Trace {
        /// Zero-based index of the first bad record; 0 when the trace was
        /// rejected whole, before any record ran.
        index: u64,
        /// The decoder's diagnosis.
        message: String,
    },
    /// The pipeline stopped committing instructions and the livelock
    /// watchdog aborted the run.
    Watchdog(Box<WatchdogReport>),
    /// An isolated worker (a sweep cell) panicked.
    WorkerPanic {
        /// Best-effort rendering of the panic payload.
        message: String,
    },
}

impl SimError {
    /// Short category label, used in `FAILED(<kind>)` table cells.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::InvalidConfig(_) => "config",
            SimError::Trace { .. } => "trace",
            SimError::Watchdog(_) => "watchdog",
            SimError::WorkerPanic { .. } => "panic",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(error) => error.fmt(f),
            SimError::Trace { index, message } => {
                write!(f, "trace unusable at record {index}: {message}")
            }
            SimError::Watchdog(report) => report.fmt(f),
            SimError::WorkerPanic { message } => {
                write!(f, "simulation worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidConfig(error) => Some(error),
            SimError::Watchdog(report) => Some(report.as_ref()),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(error: ConfigError) -> SimError {
        SimError::InvalidConfig(error)
    }
}

impl From<Box<WatchdogReport>> for SimError {
    fn from(report: Box<WatchdogReport>) -> SimError {
        SimError::Watchdog(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_labels() {
        let config = SimError::from(ConfigError {
            config: "weird".to_string(),
            message: "zero ports".to_string(),
        });
        assert_eq!(config.kind(), "config");
        let trace = SimError::Trace {
            index: 7,
            message: "bad flags".to_string(),
        };
        assert_eq!(trace.kind(), "trace");
        let panic = SimError::WorkerPanic {
            message: "boom".to_string(),
        };
        assert_eq!(panic.kind(), "panic");
    }

    #[test]
    fn display_carries_the_diagnosis() {
        let error = SimError::Trace {
            index: 3,
            message: "undefined flags 0x88".to_string(),
        };
        let text = error.to_string();
        assert!(text.contains("record 3"), "{text}");
        assert!(text.contains("undefined flags"), "{text}");
        let config = ConfigError {
            config: "1-port naive".to_string(),
            message: "issue width must be positive".to_string(),
        };
        let text = config.to_string();
        assert!(text.contains("`1-port naive`"), "{text}");
        assert!(text.contains("issue width"), "{text}");
    }
}
