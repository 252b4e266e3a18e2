//! Processor-core statistics.

use crate::cpi::CpiStack;
use cpe_stats::{Counter, Histogram, Ratio};

/// Counters maintained by the timing core.
#[derive(Debug, Clone)]
pub struct CpuStats {
    /// Total simulated cycles.
    pub cycles: Counter,
    /// Cycles whose oldest in-flight instruction was user code.
    pub user_cycles: Counter,
    /// Cycles whose oldest in-flight instruction was kernel code.
    pub kernel_cycles: Counter,
    /// Instructions committed.
    pub committed: Counter,
    /// User-mode instructions committed.
    pub committed_user: Counter,
    /// Kernel-mode instructions committed.
    pub committed_kernel: Counter,
    /// Loads committed.
    pub loads: Counter,
    /// Stores committed.
    pub stores: Counter,

    // --- Control flow -----------------------------------------------------
    /// Conditional branches fetched.
    pub branches: Counter,
    /// Conditional branches whose direction was mispredicted.
    pub mispredicts: Counter,
    /// Indirect jumps whose target was mispredicted (RAS/BTB miss).
    pub indirect_mispredicts: Counter,
    /// Correct-direction taken transfers that missed the BTB (fetch
    /// bubble).
    pub misfetches: Counter,

    // --- Pipeline friction ----------------------------------------------------
    /// Loads forwarded from the pre-commit store queue.
    pub lsq_forwards: Counter,
    /// Load issue attempts blocked by memory-ordering hazards.
    pub lsq_order_stalls: Counter,
    /// Cycles fetch waited on the instruction cache.
    pub fetch_icache_stall_cycles: Counter,
    /// Cycles fetch waited on a branch redirect or trap serialisation.
    pub fetch_redirect_stall_cycles: Counter,
    /// Dispatch halts because the ROB was full.
    pub dispatch_rob_full: Counter,
    /// Dispatch halts because the load or store queue was full.
    pub dispatch_lsq_full: Counter,
    /// Cycles commit was blocked by a rejected store (memory back-pressure
    /// — the signature of an under-ported cache).
    pub commit_store_stall_cycles: Counter,
    /// Wrong-path instruction blocks fetched while mispredictions resolved
    /// (only when `wrong_path_fetch` is enabled).
    pub wrong_path_blocks: Counter,
    /// Longest observed run of consecutive cycles without a commit — the
    /// quantity the livelock watchdog bounds.
    pub max_commit_gap: Counter,
    /// High-water mark of the scheduler's pending wakeup-event queue
    /// (in-flight completions awaiting their ready cycle). A wakeup-side
    /// capacity figure: it bounds how much completion traffic the
    /// event-driven scheduler buffers at once. Reported by perfbench as
    /// `cpu.sched_events_peak` (see `perfbench/README.md`); deliberately
    /// absent from the architectural metrics exports, which must stay
    /// bit-identical across scheduler implementations.
    pub sched_events_peak: Counter,
    /// Distribution of ROB occupancy per cycle.
    pub rob_occupancy: Histogram,
    /// Distribution of combined load+store queue occupancy per cycle.
    pub lsq_occupancy: Histogram,
    /// Instructions committed per cycle.
    pub commits_per_cycle: Histogram,
    /// Commit-slot cycle accounting: every slot of every cycle attributed
    /// to exactly one cause. Components sum to `cycles × commit_width`.
    pub cpi_stack: CpiStack,
    /// Maximum commits per cycle — the slot width of the conservation
    /// contract above.
    pub commit_width: u64,
}

impl CpuStats {
    /// Zeroed statistics for a machine with `rob_entries` window slots,
    /// `commit_width` maximum commits per cycle, and `lsq_entries`
    /// combined load+store queue slots.
    pub fn new(rob_entries: usize, commit_width: usize, lsq_entries: usize) -> CpuStats {
        CpuStats {
            cycles: Counter::new(),
            user_cycles: Counter::new(),
            kernel_cycles: Counter::new(),
            committed: Counter::new(),
            committed_user: Counter::new(),
            committed_kernel: Counter::new(),
            loads: Counter::new(),
            stores: Counter::new(),
            branches: Counter::new(),
            mispredicts: Counter::new(),
            indirect_mispredicts: Counter::new(),
            misfetches: Counter::new(),
            lsq_forwards: Counter::new(),
            lsq_order_stalls: Counter::new(),
            fetch_icache_stall_cycles: Counter::new(),
            fetch_redirect_stall_cycles: Counter::new(),
            dispatch_rob_full: Counter::new(),
            dispatch_lsq_full: Counter::new(),
            commit_store_stall_cycles: Counter::new(),
            wrong_path_blocks: Counter::new(),
            max_commit_gap: Counter::new(),
            sched_events_peak: Counter::new(),
            rob_occupancy: Histogram::new(rob_entries),
            lsq_occupancy: Histogram::new(lsq_entries),
            commits_per_cycle: Histogram::new(commit_width),
            cpi_stack: CpiStack::new(),
            commit_width: commit_width as u64,
        }
    }

    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles.get() == 0 {
            0.0
        } else {
            self.committed.as_f64() / self.cycles.as_f64()
        }
    }

    /// Conditional-branch misprediction rate.
    pub fn mispredict_ratio(&self) -> Ratio {
        self.mispredicts.ratio(self.branches)
    }

    /// Fraction of committed instructions that were kernel-mode.
    pub fn kernel_fraction(&self) -> Ratio {
        self.committed_kernel.ratio(self.committed)
    }

    /// Every architectural scalar counter as `(field name, value)`, in
    /// declaration order: the `cpu` half of a metrics document's
    /// `counters` member. `sched_events_peak` stays out, as its field doc
    /// says.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        cpe_stats::named_counters!(self, CpuStats {
            cycles,
            user_cycles,
            kernel_cycles,
            committed,
            committed_user,
            committed_kernel,
            loads,
            stores,
            branches,
            mispredicts,
            indirect_mispredicts,
            misfetches,
            lsq_forwards,
            lsq_order_stalls,
            fetch_icache_stall_cycles,
            fetch_redirect_stall_cycles,
            dispatch_rob_full,
            dispatch_lsq_full,
            commit_store_stall_cycles,
            wrong_path_blocks,
            max_commit_gap,
        } not {
            sched_events_peak,
            rob_occupancy,
            lsq_occupancy,
            commits_per_cycle,
            cpi_stack,
            commit_width,
        })
    }
}

impl Default for CpuStats {
    fn default() -> CpuStats {
        CpuStats::new(64, 4, 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_ratios() {
        let mut s = CpuStats::default();
        s.cycles.add(100);
        s.committed.add(250);
        s.committed_kernel.add(50);
        s.branches.add(40);
        s.mispredicts.add(4);
        assert_eq!(s.ipc(), 2.5);
        assert_eq!(s.mispredict_ratio().percent(), 10.0);
        assert_eq!(s.kernel_fraction().percent(), 20.0);
    }

    #[test]
    fn zeroed_stats_are_safe() {
        let s = CpuStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_ratio().percent(), 0.0);
    }
}
