//! Flattened per-run metrics.

use cpe_cpu::SimResult;

/// Everything a study needs from one simulation run, in plain numbers.
///
/// Derived from the raw [`SimResult`] counters; the original result is
/// kept in [`RunSummary::raw`] for deeper digging.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Configuration label.
    pub config: String,
    /// Workload label.
    pub workload: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub insts: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Fraction of committed instructions in kernel mode.
    pub kernel_fraction: f64,
    /// IPC over user-attributed cycles.
    pub user_ipc: f64,
    /// IPC over kernel-attributed cycles.
    pub kernel_ipc: f64,
    /// Loads per 1000 instructions.
    pub loads_per_kinst: f64,
    /// Stores per 1000 instructions.
    pub stores_per_kinst: f64,
    /// Data-cache demand misses per 1000 instructions.
    pub dcache_mpki: f64,
    /// Instruction-cache misses per 1000 instructions.
    pub icache_mpki: f64,
    /// Fraction of offered data-port slots used.
    pub port_utilisation: f64,
    /// Fraction of loads satisfied without a port (line buffer, load
    /// combining, store-buffer forward).
    pub portless_load_fraction: f64,
    /// Fraction of stores that write-combined into an existing buffer
    /// entry.
    pub store_combined_fraction: f64,
    /// Conditional-branch misprediction rate.
    pub mispredict_rate: f64,
    /// Cycles commit was blocked behind a rejected store, per 1000
    /// cycles.
    pub store_stall_per_kcycle: f64,
    /// Bank conflicts per 1000 instructions (banked caches only).
    pub bank_conflicts_per_kinst: f64,
    /// Fraction of issued prefetches that proved useful.
    pub prefetch_accuracy: f64,
    /// Victim-cache hits per 1000 instructions.
    pub victim_hits_per_kinst: f64,
    /// Median completed-load latency in cycles (`None` when no load
    /// completed).
    pub load_latency_p50: Option<u64>,
    /// 95th-percentile completed-load latency in cycles.
    pub load_latency_p95: Option<u64>,
    /// 99th-percentile completed-load latency in cycles.
    pub load_latency_p99: Option<u64>,
    /// The raw simulation result.
    pub raw: SimResult,
}

impl RunSummary {
    /// Build from a raw result.
    pub fn new(config: &str, workload: &str, raw: SimResult) -> RunSummary {
        let cpu = &raw.cpu;
        let mem = &raw.mem;
        let insts = raw.committed.max(1);
        let user_cycles = cpu.user_cycles.get().max(1);
        let kernel_cycles = cpu.kernel_cycles.get();
        let load_latency = mem.load_latency();
        RunSummary {
            config: config.to_string(),
            workload: workload.to_string(),
            cycles: raw.cycles,
            insts: raw.committed,
            ipc: raw.ipc(),
            kernel_fraction: cpu.kernel_fraction().value(),
            user_ipc: cpu.committed_user.as_f64() / user_cycles as f64,
            kernel_ipc: if kernel_cycles == 0 {
                0.0
            } else {
                cpu.committed_kernel.as_f64() / kernel_cycles as f64
            },
            loads_per_kinst: cpu.loads.get() as f64 * 1000.0 / insts as f64,
            stores_per_kinst: cpu.stores.get() as f64 * 1000.0 / insts as f64,
            dcache_mpki: (mem.load_misses.get() + mem.store_misses.get()) as f64 * 1000.0
                / insts as f64,
            icache_mpki: mem.icache_misses.get() as f64 * 1000.0 / insts as f64,
            port_utilisation: mem.port_utilisation().value(),
            portless_load_fraction: mem.portless_load_fraction().value(),
            store_combined_fraction: mem.store_combined.get() as f64
                / mem.stores.get().max(1) as f64,
            mispredict_rate: cpu.mispredict_ratio().value(),
            store_stall_per_kcycle: cpu.commit_store_stall_cycles.get() as f64 * 1000.0
                / raw.cycles.max(1) as f64,
            bank_conflicts_per_kinst: mem.bank_conflicts.get() as f64 * 1000.0 / insts as f64,
            prefetch_accuracy: mem.prefetch_useful.get() as f64
                / mem.prefetches.get().max(1) as f64,
            victim_hits_per_kinst: mem.victim_hits.get() as f64 * 1000.0 / insts as f64,
            load_latency_p50: load_latency.p50(),
            load_latency_p95: load_latency.p95(),
            load_latency_p99: load_latency.p99(),
            raw,
        }
    }

    /// This run's IPC relative to a reference run (e.g. dual-ported).
    pub fn relative_ipc(&self, reference: &RunSummary) -> f64 {
        if reference.ipc == 0.0 {
            0.0
        } else {
            self.ipc / reference.ipc
        }
    }
}

impl std::fmt::Display for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: IPC {:.3} over {} insts ({} cycles), port util {:.1}%, portless loads {:.1}%",
            self.workload,
            self.config,
            self.ipc,
            self.insts,
            self.cycles,
            self.port_utilisation * 100.0,
            self.portless_load_fraction * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpe_cpu::CpuStats;
    use cpe_mem::MemStats;

    fn fake_result() -> SimResult {
        let mut cpu = CpuStats::default();
        cpu.cycles.add(1_000);
        cpu.committed.add(2_000);
        cpu.committed_user.add(1_500);
        cpu.committed_kernel.add(500);
        cpu.user_cycles.add(700);
        cpu.kernel_cycles.add(300);
        cpu.loads.add(600);
        cpu.stores.add(300);
        cpu.branches.add(200);
        cpu.mispredicts.add(10);
        let mut mem = MemStats::default();
        mem.loads.add(600);
        mem.stores.add(300);
        mem.load_misses.add(20);
        mem.store_misses.add(10);
        mem.load_lb_hits.add(150);
        mem.port_slots_used.add(700);
        mem.port_slots_offered.add(1_000);
        mem.store_combined.add(60);
        SimResult {
            cycles: 1_000,
            committed: 2_000,
            cpu,
            mem,
        }
    }

    #[test]
    fn derivations_are_correct() {
        let s = RunSummary::new("cfg", "wl", fake_result());
        assert_eq!(s.ipc, 2.0);
        assert_eq!(s.bank_conflicts_per_kinst, 0.0);
        assert_eq!(s.prefetch_accuracy, 0.0);
        assert_eq!(s.victim_hits_per_kinst, 0.0);
        assert_eq!(s.kernel_fraction, 0.25);
        assert!((s.user_ipc - 1500.0 / 700.0).abs() < 1e-12);
        assert!((s.kernel_ipc - 500.0 / 300.0).abs() < 1e-12);
        assert_eq!(s.loads_per_kinst, 300.0);
        assert_eq!(s.dcache_mpki, 15.0);
        assert_eq!(s.port_utilisation, 0.7);
        assert_eq!(s.portless_load_fraction, 0.25);
        assert_eq!(s.store_combined_fraction, 0.2);
        assert_eq!(s.mispredict_rate, 0.05);
        assert_eq!(s.load_latency_p50, None, "no latency samples recorded");
    }

    #[test]
    fn latency_percentiles_flow_from_the_distribution() {
        let mut result = fake_result();
        for latency in [1, 2, 3, 100] {
            result
                .mem
                .record_load_latency(cpe_mem::LoadSource::L1Hit, latency);
        }
        let s = RunSummary::new("cfg", "wl", result);
        assert_eq!(s.load_latency_p50, Some(2));
        assert_eq!(s.load_latency_p99, Some(100));
    }

    #[test]
    fn relative_ipc() {
        let a = RunSummary::new("a", "wl", fake_result());
        let mut b_result = fake_result();
        b_result.committed = 1_000;
        let b = RunSummary::new(
            "b",
            "wl",
            SimResult {
                committed: 1_000,
                ..b_result
            },
        );
        // b has half the instructions in the same cycles → half the IPC.
        assert!((b.relative_ipc(&a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_has_the_headline_numbers() {
        let text = RunSummary::new("cfg", "wl", fake_result()).to_string();
        assert!(text.contains("IPC 2.000"), "{text}");
        assert!(text.contains("70.0%"), "{text}");
    }
}
