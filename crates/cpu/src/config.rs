//! Processor-core configuration.

use std::fmt;

/// Which direction predictor drives fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirPredictorKind {
    /// Static backward-taken/forward-not-taken (no state).
    Btfn,
    /// Per-PC 2-bit saturating counters.
    Bimodal {
        /// Table entries (a power of two).
        entries: usize,
    },
    /// Global history XOR PC indexing a 2-bit counter table.
    Gshare {
        /// Table entries (a power of two).
        entries: usize,
        /// Global-history bits.
        history_bits: u32,
    },
    /// Two-level local (PAg): a per-branch history table indexing a
    /// shared pattern table of 2-bit counters.
    Local {
        /// Per-branch history registers (a power of two).
        history_entries: usize,
        /// Bits of local history per branch (the pattern table has
        /// `2^history_bits` counters).
        history_bits: u32,
    },
}

/// One functional-unit class: how many units, their latency, and whether
/// they accept a new operation every cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuSpec {
    /// Number of identical units.
    pub count: u32,
    /// Cycles from issue to result.
    pub latency: u64,
    /// `true` when a unit can start a new operation each cycle.
    pub pipelined: bool,
}

impl FuSpec {
    /// Shorthand constructor.
    pub const fn new(count: u32, latency: u64, pipelined: bool) -> FuSpec {
        FuSpec {
            count,
            latency,
            pipelined,
        }
    }
}

/// Latency/bandwidth of every functional-unit class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Integer ALUs.
    pub int_alu: FuSpec,
    /// Integer multiplier.
    pub int_mul: FuSpec,
    /// Integer divider.
    pub int_div: FuSpec,
    /// FP adder.
    pub fp_add: FuSpec,
    /// FP multiplier.
    pub fp_mul: FuSpec,
    /// FP divide/sqrt.
    pub fp_div: FuSpec,
    /// Address-generation units (loads and stores compute addresses here).
    pub agu: FuSpec,
}

impl Default for FuConfig {
    /// R10000-flavoured latencies.
    fn default() -> FuConfig {
        FuConfig {
            int_alu: FuSpec::new(4, 1, true),
            int_mul: FuSpec::new(1, 4, true),
            int_div: FuSpec::new(1, 20, false),
            fp_add: FuSpec::new(1, 2, true),
            fp_mul: FuSpec::new(1, 3, true),
            fp_div: FuSpec::new(1, 18, false),
            agu: FuSpec::new(2, 1, true),
        }
    }
}

/// The dynamic superscalar core's parameters.
///
/// Memory ordering is not a parameter: a load waits only for older
/// stores that actually overlap it (oracle disambiguation, as in the
/// MXS-class simulators of the paper's era), so cache-port bandwidth,
/// not address-resolution serialisation, is the bottleneck under study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Instructions fetched per cycle (fetch stops at a taken branch).
    pub fetch_width: u32,
    /// Instructions renamed/dispatched into the window per cycle.
    pub dispatch_width: u32,
    /// Instructions issued to functional units per cycle.
    pub issue_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Reorder-buffer entries (the instruction window).
    pub rob_entries: usize,
    /// Load-queue entries.
    pub load_queue: usize,
    /// Store-queue entries (pre-commit).
    pub store_queue: usize,
    /// Bytes per instruction-fetch block.
    pub fetch_bytes: u64,
    /// Direction predictor.
    pub predictor: DirPredictorKind,
    /// Branch-target-buffer entries (a power of two; 0 disables).
    pub btb_entries: usize,
    /// Return-address-stack depth.
    pub ras_entries: usize,
    /// Cycles from a mispredicted branch's resolution to useful fetch.
    pub mispredict_penalty: u64,
    /// Fetch bubble for a taken branch whose target missed the BTB.
    pub misfetch_penalty: u64,
    /// Extra serialisation cycles charged to `syscall`/`eret`.
    pub trap_penalty: u64,
    /// Functional units.
    pub fu: FuConfig,
    /// Cycles for a load forwarded from the pre-commit store queue.
    pub lsq_forward_latency: u64,
    /// Model wrong-path instruction fetch: while a mispredicted transfer
    /// resolves, the frontend keeps fetching down the wrong path (whose
    /// start is known for direction mispredicts and RAS/BTB-predicted
    /// indirections), polluting the instruction cache and occupying fill
    /// bandwidth. Off by default — the recorded experiments in
    /// `EXPERIMENTS.md` were run without it.
    pub wrong_path_fetch: bool,
    /// Livelock watchdog: abort the run with a diagnostic snapshot if no
    /// instruction commits for this many consecutive cycles (0 disables
    /// the watchdog). A healthy machine's longest possible commit gap is
    /// bounded by a few DRAM round-trips, so the default of 100k cycles
    /// only fires on a genuine modelling deadlock or a pathological
    /// configuration.
    pub watchdog_cycles: u64,
}

impl Default for CpuConfig {
    /// The paper-class 4-issue dynamic superscalar machine.
    fn default() -> CpuConfig {
        CpuConfig {
            // The frontend fetches ahead of the 4-wide core (up to 8
            // instructions from one 32-byte block per cycle), as the
            // MXS-class frontends of the paper's era did; otherwise taken
            // branches cap fetch below the core's width and mask the
            // cache-port effects under study.
            fetch_width: 8,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_entries: 64,
            load_queue: 16,
            store_queue: 16,
            fetch_bytes: 32,
            predictor: DirPredictorKind::Gshare {
                entries: 4096,
                history_bits: 8,
            },
            btb_entries: 512,
            ras_entries: 8,
            mispredict_penalty: 3,
            misfetch_penalty: 1,
            trap_penalty: 8,
            fu: FuConfig::default(),
            lsq_forward_latency: 1,
            wrong_path_fetch: false,
            watchdog_cycles: 100_000,
        }
    }
}

impl CpuConfig {
    /// Validate cross-field constraints, returning the first violation as
    /// a message suitable for a typed error.
    pub fn try_validate(&self) -> Result<(), String> {
        fn check(ok: bool, message: &str) -> Result<(), String> {
            if ok {
                Ok(())
            } else {
                Err(message.to_string())
            }
        }
        check(self.fetch_width >= 1, "fetch width must be at least 1")?;
        check(
            self.dispatch_width >= 1,
            "dispatch width must be at least 1",
        )?;
        check(self.issue_width >= 1, "issue width must be at least 1")?;
        check(self.commit_width >= 1, "commit width must be at least 1")?;
        check(self.rob_entries >= 1, "the ROB needs at least one entry")?;
        check(
            self.load_queue >= 1,
            "the load queue needs at least one entry",
        )?;
        check(
            self.store_queue >= 1,
            "the store queue needs at least one entry",
        )?;
        check(
            self.fetch_bytes.is_power_of_two(),
            "fetch block must be a power of two",
        )?;
        match self.predictor {
            DirPredictorKind::Btfn => {}
            DirPredictorKind::Bimodal { entries } | DirPredictorKind::Gshare { entries, .. } => {
                check(
                    entries.is_power_of_two(),
                    "predictor table must be a power of two",
                )?;
            }
            DirPredictorKind::Local {
                history_entries,
                history_bits,
            } => {
                check(
                    history_entries.is_power_of_two(),
                    "predictor table must be a power of two",
                )?;
                check(history_bits <= 16, "local history limited to 16 bits")?;
            }
        }
        if self.btb_entries > 0 {
            check(
                self.btb_entries.is_power_of_two(),
                "BTB must be a power of two",
            )?;
        }
        Ok(())
    }

    /// Validate cross-field constraints.
    ///
    /// # Panics
    ///
    /// Panics on zero widths, a zero-entry ROB, or a non-power-of-two
    /// fetch block. [`CpuConfig::try_validate`] is the non-panicking form.
    pub fn validate(&self) {
        if let Err(message) = self.try_validate() {
            panic!("{message}");
        }
    }
}

impl fmt::Display for CpuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-wide OoO, {}-entry ROB, {}/{} LQ/SQ",
            self.issue_width, self.rob_entries, self.load_queue, self.store_queue
        )
    }
}

#[cfg(test)]
mod tests {
    // Tests tweak one field of a default config at a time; the
    // struct-update suggestion reads worse there.
    #![allow(clippy::field_reassign_with_default)]

    use super::*;

    #[test]
    fn default_validates() {
        CpuConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "fetch block")]
    fn bad_fetch_block_rejected() {
        let mut c = CpuConfig::default();
        c.fetch_bytes = 12;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_predictor_table_rejected() {
        let mut c = CpuConfig::default();
        c.predictor = DirPredictorKind::Gshare {
            entries: 1000,
            history_bits: 8,
        };
        c.validate();
    }

    #[test]
    fn try_validate_reports_instead_of_panicking() {
        let mut c = CpuConfig::default();
        assert!(c.try_validate().is_ok());
        c.issue_width = 0;
        let message = c.try_validate().unwrap_err();
        assert!(message.contains("issue width"), "{message}");
    }

    #[test]
    fn display_mentions_the_window() {
        let text = CpuConfig::default().to_string();
        assert!(text.contains("64-entry ROB"), "{text}");
    }
}
