//! Binding a configuration to a workload and running it.

use cpe_cpu::Core;
use cpe_isa::DynInst;
use cpe_mem::MemSystem;
use cpe_workloads::{Scale, Workload};

use crate::config::SimConfig;
use crate::error::{ConfigError, SimError};
use crate::metrics::RunSummary;

/// Runs the cycle-level machine described by a [`SimConfig`].
///
/// A `Simulator` is reusable: each [`Simulator::run`] builds a fresh cold
/// machine, so runs never contaminate each other.
///
/// ```
/// use cpe_core::{SimConfig, Simulator};
/// use cpe_workloads::{Scale, Workload};
///
/// let summary = Simulator::new(SimConfig::combined_single_port())
///     .run(Workload::Sort, Scale::Test, Some(20_000));
/// assert!(summary.ipc > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Create a simulator for the given configuration, rejecting
    /// inconsistent ones with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the configuration and the first
    /// inconsistency.
    pub fn try_new(config: SimConfig) -> Result<Simulator, ConfigError> {
        config.validate()?;
        Ok(Simulator { config })
    }

    /// Create a simulator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is inconsistent; sweep drivers that
    /// must survive bad cells use [`Simulator::try_new`].
    pub fn new(config: SimConfig) -> Simulator {
        match Simulator::try_new(config) {
            Ok(simulator) => simulator,
            Err(error) => panic!("{error}"),
        }
    }

    /// The configuration this simulator runs.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Run a named workload at `scale`, optionally capping committed
    /// instructions (recommended for comparative sweeps so every
    /// configuration executes the same instruction window).
    ///
    /// # Panics
    ///
    /// Panics when the livelock watchdog aborts the run; use
    /// [`Simulator::try_run`] to handle that as an error.
    pub fn run(&self, workload: Workload, scale: Scale, max_insts: Option<u64>) -> RunSummary {
        match self.try_run(workload, scale, max_insts) {
            Ok(summary) => summary,
            Err(error) => panic!("{error}"),
        }
    }

    /// Fallible form of [`Simulator::run`].
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] when the pipeline stops making progress.
    pub fn try_run(
        &self,
        workload: Workload,
        scale: Scale,
        max_insts: Option<u64>,
    ) -> Result<RunSummary, SimError> {
        let trace = workload.trace(scale);
        self.try_run_trace(workload.name(), trace, max_insts)
    }

    /// Run an arbitrary committed-path instruction stream.
    ///
    /// # Panics
    ///
    /// Panics when the livelock watchdog aborts the run.
    pub fn run_trace<I>(&self, label: &str, trace: I, max_insts: Option<u64>) -> RunSummary
    where
        I: Iterator<Item = DynInst>,
    {
        match self.try_run_trace(label, trace, max_insts) {
            Ok(summary) => summary,
            Err(error) => panic!("{error}"),
        }
    }

    /// Fallible form of [`Simulator::run_trace`].
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] when the pipeline stops making progress.
    pub fn try_run_trace<I>(
        &self,
        label: &str,
        trace: I,
        max_insts: Option<u64>,
    ) -> Result<RunSummary, SimError>
    where
        I: Iterator<Item = DynInst>,
    {
        let mem = MemSystem::new(self.config.mem);
        let core = Core::new(self.config.cpu, mem, trace);
        let result = core.try_run(max_insts)?;
        Ok(RunSummary::new(&self.config.name, label, result))
    }

    /// Run with a warm-up window: statistics reset after `warmup_insts`
    /// committed instructions (structures stay warm), and `max_insts`
    /// bounds the measured window — the standard sampled-simulation
    /// methodology.
    ///
    /// # Panics
    ///
    /// Panics when the livelock watchdog aborts the run.
    pub fn run_warmed(
        &self,
        workload: Workload,
        scale: Scale,
        warmup_insts: u64,
        max_insts: Option<u64>,
    ) -> RunSummary {
        match self.try_run_warmed(workload, scale, warmup_insts, max_insts) {
            Ok(summary) => summary,
            Err(error) => panic!("{error}"),
        }
    }

    /// Fallible form of [`Simulator::run_warmed`].
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] when the pipeline stops making progress.
    pub fn try_run_warmed(
        &self,
        workload: Workload,
        scale: Scale,
        warmup_insts: u64,
        max_insts: Option<u64>,
    ) -> Result<RunSummary, SimError> {
        let mem = MemSystem::new(self.config.mem);
        let core = Core::new(self.config.cpu, mem, workload.trace(scale));
        let result = core.try_run_warmed(warmup_insts, max_insts)?;
        Ok(RunSummary::new(&self.config.name, workload.name(), result))
    }
}

#[cfg(test)]
mod tests {
    // Tests tweak one field of a default config at a time; the
    // struct-update suggestion reads worse there.
    #![allow(clippy::field_reassign_with_default)]

    use super::*;
    use cpe_workloads::synth::{SynthConfig, SyntheticTrace};

    #[test]
    fn runs_are_reproducible_and_cold() {
        let sim = Simulator::new(SimConfig::naive_single_port());
        let a = sim.run(Workload::Compress, Scale::Test, Some(20_000));
        let b = sim.run(Workload::Compress, Scale::Test, Some(20_000));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.insts, b.insts);
    }

    #[test]
    fn max_insts_caps_the_window() {
        let sim = Simulator::new(SimConfig::naive_single_port());
        let capped = sim.run(Workload::Compress, Scale::Test, Some(5_000));
        assert!(
            capped.insts >= 5_000 && capped.insts < 6_000,
            "{}",
            capped.insts
        );
    }

    #[test]
    fn synthetic_traces_run_too() {
        let mut synth = SynthConfig::default();
        synth.insts = 20_000;
        let sim = Simulator::new(SimConfig::dual_port());
        let summary = sim.run_trace("synth", SyntheticTrace::new(synth), None);
        assert_eq!(summary.insts, 20_000);
        assert!(summary.ipc > 0.1);
        assert_eq!(summary.workload, "synth");
        assert_eq!(summary.config, "2-port");
    }

    #[test]
    fn try_new_rejects_inconsistent_configs() {
        let mut config = SimConfig::naive_single_port();
        config.cpu.issue_width = 0;
        let error = Simulator::try_new(config).expect_err("zero issue width");
        assert!(error.message.contains("issue width"), "{}", error.message);
    }

    #[test]
    fn warmup_excludes_cold_start_misses() {
        let sim = Simulator::new(SimConfig::dual_port());
        // Windows wide enough to average over program phases: the warmed
        // run measures a shifted window, so a narrow one would compare
        // different code regions rather than cold-start effects.
        let cold = sim.run(Workload::Fft, Scale::Test, Some(30_000));
        let warmed = sim.run_warmed(Workload::Fft, Scale::Test, 5_000, Some(30_000));
        // The measured window starts with warm caches: fewer misses per
        // instruction and at least equal IPC.
        assert!(
            warmed.dcache_mpki < cold.dcache_mpki,
            "{} vs {}",
            warmed.dcache_mpki,
            cold.dcache_mpki
        );
        assert!(
            warmed.ipc >= cold.ipc * 0.95,
            "{} vs {}",
            warmed.ipc,
            cold.ipc
        );
        assert!(warmed.insts <= 31_000);
    }

    #[test]
    fn headline_ordering_on_a_port_hungry_workload() {
        // mpeg (dense sequential refs) at test scale: naive 1-port <=
        // combined 1-port <= 2-port should hold as a trend.
        let window = Some(40_000);
        let naive =
            Simulator::new(SimConfig::naive_single_port()).run(Workload::Mpeg, Scale::Test, window);
        let combined = Simulator::new(SimConfig::combined_single_port()).run(
            Workload::Mpeg,
            Scale::Test,
            window,
        );
        let dual = Simulator::new(SimConfig::dual_port()).run(Workload::Mpeg, Scale::Test, window);
        assert!(
            combined.ipc > naive.ipc,
            "{} vs {}",
            combined.ipc,
            naive.ipc
        );
        assert!(
            combined.relative_ipc(&dual) > 0.7,
            "combined should recover most of the dual-port gap: {:.3}",
            combined.relative_ipc(&dual)
        );
    }
}
