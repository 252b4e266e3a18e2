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
/// A `Simulator` is reusable: each [`Simulator::try_run`] builds a fresh
/// cold machine, so runs never contaminate each other.
///
/// ```
/// use cpe_core::{SimConfig, Simulator};
/// use cpe_workloads::{Scale, Workload};
///
/// let summary = Simulator::try_new(SimConfig::combined_single_port())
///     .expect("preset configs validate")
///     .try_run(Workload::Sort, Scale::Test, Some(20_000))
///     .expect("the run completes");
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

    /// The configuration this simulator runs.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Run a named workload at `scale`, optionally capping committed
    /// instructions (recommended for comparative sweeps so every
    /// configuration executes the same instruction window).
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
}

#[cfg(test)]
mod tests {
    // Tests tweak one field of a default config at a time; the
    // struct-update suggestion reads worse there.
    #![allow(clippy::field_reassign_with_default)]

    use super::*;
    use cpe_workloads::synth::{SynthConfig, SyntheticTrace};

    fn simulator(config: SimConfig) -> Simulator {
        Simulator::try_new(config).expect("preset configs validate")
    }

    fn run(sim: &Simulator, workload: Workload, window: u64) -> RunSummary {
        sim.try_run(workload, Scale::Test, Some(window))
            .expect("the run completes")
    }

    #[test]
    fn runs_are_reproducible_and_cold() {
        let sim = simulator(SimConfig::naive_single_port());
        let a = run(&sim, Workload::Compress, 20_000);
        let b = run(&sim, Workload::Compress, 20_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.insts, b.insts);
    }

    #[test]
    fn max_insts_caps_the_window() {
        let capped = run(
            &simulator(SimConfig::naive_single_port()),
            Workload::Compress,
            5_000,
        );
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
        let summary = simulator(SimConfig::dual_port())
            .try_run_trace("synth", SyntheticTrace::new(synth), None)
            .expect("the run completes");
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
    fn headline_ordering_on_a_port_hungry_workload() {
        // mpeg (dense sequential refs) at test scale: naive 1-port <=
        // combined 1-port <= 2-port should hold as a trend.
        let mpeg = |config| run(&simulator(config), Workload::Mpeg, 40_000);
        let naive = mpeg(SimConfig::naive_single_port());
        let combined = mpeg(SimConfig::combined_single_port());
        let dual = mpeg(SimConfig::dual_port());
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
