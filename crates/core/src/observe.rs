//! Profiled runs: event capture, interval ("epoch") metrics and
//! self-profiling.
//!
//! [`Simulator::try_profile`] drives the core cycle by cycle instead of
//! through [`Core::try_run`](cpe_cpu::Core), snapshotting counter deltas
//! every `interval` cycles into a [`MetricsSeries`] and — only when the
//! caller asks for a ring ([`ProfileOptions::ring_capacity`] > 0) and the
//! `trace` feature is on — collecting the retained [`TraceEvent`] window
//! from it. The stepping order and per-cycle work are identical to a
//! plain run, so a profiled run's timing and counters match the
//! unprofiled run exactly — observation never perturbs the machine.

use std::time::Instant;

use cpe_cpu::{Core, SimResult, StallCause};
use cpe_isa::DynInst;
use cpe_mem::MemSystem;
use cpe_stats::{Log2Histogram, TimeSeries};
use cpe_trace::{RingStats, TraceEvent, TraceHandle};
use cpe_workloads::{Scale, Workload};

use crate::error::SimError;
use crate::metrics::RunSummary;
use crate::simulator::Simulator;

/// Knobs for a profiled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileOptions {
    /// Cycles per metrics epoch (0 is clamped to 1).
    pub interval: u64,
    /// Trace ring capacity in events. 0 (the default) attaches no ring:
    /// nothing is captured and the run pays nothing for capture. Above 0
    /// the ring retains the newest `ring_capacity` events and counts what
    /// it drops. Ignored when the `trace` feature is off.
    pub ring_capacity: usize,
}

impl ProfileOptions {
    /// The ring the event-reading callers (`cpe profile`, `cpe pipeview`)
    /// attach when not told otherwise.
    pub const CAPTURE_RING: usize = 65_536;
}

impl Default for ProfileOptions {
    fn default() -> ProfileOptions {
        ProfileOptions {
            interval: 1_000,
            ring_capacity: 0,
        }
    }
}

/// Counter deltas over one epoch of `interval` cycles (the last epoch of
/// a run may be shorter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMetrics {
    /// First cycle of the epoch (inclusive).
    pub start_cycle: u64,
    /// One past the last cycle of the epoch.
    pub end_cycle: u64,
    /// Instructions committed in the epoch.
    pub insts: u64,
    /// Loads initiated in the epoch (memory-side).
    pub loads: u64,
    /// Stores accepted in the epoch (memory-side).
    pub stores: u64,
    /// Demand data misses (load + store) in the epoch.
    pub dcache_misses: u64,
    /// Committed IPC over the epoch.
    pub ipc: f64,
    /// Fraction of offered port slots used in the epoch.
    pub port_utilisation: f64,
    /// Fraction of the epoch's loads served without a port.
    pub portless_load_fraction: f64,
    /// Demand data misses per 1000 committed instructions in the epoch.
    pub dcache_mpki: f64,
    /// Fraction of the epoch's stores that write-combined.
    pub store_combine_rate: f64,
    /// Median latency of the loads completed in the epoch (`None` when no
    /// load completed).
    pub load_latency_p50: Option<u64>,
    /// 95th-percentile latency of the loads completed in the epoch.
    pub load_latency_p95: Option<u64>,
    /// Commit-slot attribution deltas for the epoch, indexed by
    /// [`StallCause`] declaration order ([`StallCause::ALL`]). The
    /// conservation invariant holds per epoch: the components sum to
    /// `(end_cycle - start_cycle) × commit_width`.
    pub cpi_slots: [u64; StallCause::COUNT],
}

/// Cumulative counter values at an epoch boundary.
#[derive(Debug, Clone)]
struct Snapshot {
    cycles: u64,
    committed: u64,
    loads: u64,
    stores: u64,
    portless_loads: u64,
    dcache_misses: u64,
    slots_used: u64,
    slots_offered: u64,
    store_combined: u64,
    /// The cumulative load-latency distribution; epoch percentiles come
    /// from subtracting consecutive snapshots ([`Log2Histogram::delta`]).
    load_latency: Log2Histogram,
    /// Cumulative commit-slot attribution ([`StallCause::ALL`] order).
    cpi: [u64; StallCause::COUNT],
}

impl Snapshot {
    fn take<I: Iterator<Item = DynInst>>(core: &Core<I>) -> Snapshot {
        let cpu = core.stats();
        let mem = core.mem().stats();
        Snapshot {
            cycles: cpu.cycles.get(),
            committed: cpu.committed.get(),
            loads: mem.loads.get(),
            stores: mem.stores.get(),
            portless_loads: mem.load_sb_forwards.get()
                + mem.load_lb_hits.get()
                + mem.load_combined.get(),
            dcache_misses: mem.load_misses.get() + mem.store_misses.get(),
            slots_used: mem.port_slots_used.get(),
            slots_offered: mem.port_slots_offered.get(),
            store_combined: mem.store_combined.get(),
            load_latency: mem.load_latency.clone(),
            cpi: cpu.cpi_stack.slots(),
        }
    }

    fn delta(&self, prev: &Snapshot) -> EpochMetrics {
        let cycles = self.cycles - prev.cycles;
        let insts = self.committed - prev.committed;
        let loads = self.loads - prev.loads;
        let stores = self.stores - prev.stores;
        let misses = self.dcache_misses - prev.dcache_misses;
        let epoch_latency = self.load_latency.delta(&prev.load_latency);
        let mut cpi_slots = [0u64; StallCause::COUNT];
        for (slot, (now, then)) in cpi_slots
            .iter_mut()
            .zip(self.cpi.iter().zip(prev.cpi.iter()))
        {
            *slot = now - then;
        }
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        EpochMetrics {
            start_cycle: prev.cycles,
            end_cycle: self.cycles,
            insts,
            loads,
            stores,
            dcache_misses: misses,
            ipc: ratio(insts, cycles),
            port_utilisation: ratio(
                self.slots_used - prev.slots_used,
                self.slots_offered - prev.slots_offered,
            ),
            portless_load_fraction: ratio(self.portless_loads - prev.portless_loads, loads),
            dcache_mpki: if insts == 0 {
                0.0
            } else {
                misses as f64 * 1000.0 / insts as f64
            },
            store_combine_rate: ratio(self.store_combined - prev.store_combined, stores),
            load_latency_p50: epoch_latency.p50(),
            load_latency_p95: epoch_latency.p95(),
            cpi_slots,
        }
    }
}

/// The interval-metrics time series of one profiled run.
#[derive(Debug, Clone, Default)]
pub struct MetricsSeries {
    /// Nominal cycles per epoch.
    pub interval: u64,
    /// One entry per epoch, in time order.
    pub epochs: Vec<EpochMetrics>,
}

impl MetricsSeries {
    /// Instructions committed across every epoch — equals the run's
    /// committed-instruction count.
    pub fn total_insts(&self) -> u64 {
        self.epochs.iter().map(|e| e.insts).sum()
    }

    /// Loads initiated across every epoch.
    pub fn total_loads(&self) -> u64 {
        self.epochs.iter().map(|e| e.loads).sum()
    }

    /// Stores accepted across every epoch.
    pub fn total_stores(&self) -> u64 {
        self.epochs.iter().map(|e| e.stores).sum()
    }

    /// Demand data misses across every epoch.
    pub fn total_dcache_misses(&self) -> u64 {
        self.epochs.iter().map(|e| e.dcache_misses).sum()
    }

    /// One named per-epoch metric as a [`TimeSeries`] (for summaries and
    /// sparklines).
    pub fn series(&self, name: &str, select: impl Fn(&EpochMetrics) -> f64) -> TimeSeries {
        let mut ts = TimeSeries::new(name, self.interval);
        for epoch in &self.epochs {
            ts.push(select(epoch));
        }
        ts
    }

    /// Per-epoch IPC.
    pub fn ipc_series(&self) -> TimeSeries {
        self.series("ipc", |e| e.ipc)
    }

    /// Per-epoch port utilisation.
    pub fn port_utilisation_series(&self) -> TimeSeries {
        self.series("port_utilisation", |e| e.port_utilisation)
    }
}

/// How the simulator itself performed — host-side cost of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfProfile {
    /// Host wall-clock seconds for the simulation loop.
    pub wall_seconds: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub insts: u64,
    /// Simulated cycles per host second.
    pub cycles_per_sec: f64,
    /// Whether this run had an event ring attached (needs the `trace`
    /// feature and a nonzero [`ProfileOptions::ring_capacity`]).
    pub capture_enabled: bool,
    /// Ring-buffer accounting (`None` when capture is off).
    pub ring: Option<RingStats>,
}

impl SelfProfile {
    /// The one-line form printed at the end of detailed runs.
    pub fn one_liner(&self) -> String {
        let ring = match &self.ring {
            Some(ring) => format!(
                ", ring peak {}/{} ({} dropped)",
                ring.peak, ring.capacity, ring.dropped
            ),
            None => String::new(),
        };
        format!(
            "self-profile: {:.3}s wall, {:.0} sim cycles/sec over {} cycles{}",
            self.wall_seconds, self.cycles_per_sec, self.cycles, ring
        )
    }
}

/// The process's peak resident set (VmHWM) in bytes, from
/// `/proc/self/status`. `None` on platforms without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Everything a profiled run produces.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// The same summary a plain run would produce.
    pub summary: RunSummary,
    /// Interval metrics, one epoch per `interval` cycles.
    pub series: MetricsSeries,
    /// The retained trace-event window (empty when capture is off).
    pub events: Vec<TraceEvent>,
    /// Host-side cost of the run.
    pub self_profile: SelfProfile,
}

impl Simulator {
    /// Profile a named workload: run it to completion (or `max_insts`)
    /// while collecting interval metrics, and trace events when
    /// `options` asks for a ring.
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] when the pipeline stops making progress.
    pub fn try_profile(
        &self,
        workload: Workload,
        scale: Scale,
        max_insts: Option<u64>,
        options: ProfileOptions,
    ) -> Result<ProfiledRun, SimError> {
        self.try_profile_trace(workload.name(), workload.trace(scale), max_insts, options)
    }

    /// Profile an arbitrary committed-path instruction stream.
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] when the pipeline stops making progress.
    pub fn try_profile_trace<I>(
        &self,
        label: &str,
        trace: I,
        max_insts: Option<u64>,
        options: ProfileOptions,
    ) -> Result<ProfiledRun, SimError>
    where
        I: Iterator<Item = DynInst>,
    {
        let interval = options.interval.max(1);
        let mem = MemSystem::new(self.config().mem);
        let mut core = Core::new(self.config().cpu, mem, trace);
        // A zero capacity attaches no ring: the handle stays detached.
        let handle = TraceHandle::attached(options.ring_capacity);
        core.set_trace(handle.clone());
        // Epoch snapshots fire on multiples of the interval; bound the
        // core's cycle-skipping so it lands on every one of them.
        core.set_step_quantum(interval);

        let limit = max_insts.unwrap_or(u64::MAX);
        let mut epochs = Vec::new();
        let mut last = Snapshot::take(&core);
        let started = Instant::now();
        loop {
            let more = core.try_step()?;
            let cycles = core.stats().cycles.get();
            let done = !more || core.stats().committed.get() >= limit;
            if done || cycles.is_multiple_of(interval) {
                let snapshot = Snapshot::take(&core);
                if snapshot.cycles > last.cycles {
                    epochs.push(snapshot.delta(&last));
                    last = snapshot;
                }
                if done {
                    break;
                }
            }
        }
        let wall_seconds = started.elapsed().as_secs_f64();

        let result = SimResult {
            cycles: core.stats().cycles.get(),
            committed: core.stats().committed.get(),
            cpu: core.stats().clone(),
            mem: core.mem().stats().clone(),
        };
        let summary = RunSummary::new(&self.config().name, label, result);
        let events = handle.snapshot().unwrap_or_default();
        let ring = handle.ring_stats();
        let self_profile = SelfProfile {
            wall_seconds,
            cycles: summary.cycles,
            insts: summary.insts,
            cycles_per_sec: if wall_seconds > 0.0 {
                summary.cycles as f64 / wall_seconds
            } else {
                0.0
            },
            capture_enabled: handle.is_active(),
            ring,
        };
        Ok(ProfiledRun {
            summary,
            series: MetricsSeries { interval, epochs },
            events,
            self_profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn profile(interval: u64) -> ProfiledRun {
        profile_with_ring(interval, 0)
    }

    fn profile_with_ring(interval: u64, ring_capacity: usize) -> ProfiledRun {
        Simulator::new(SimConfig::combined_single_port())
            .try_profile(
                Workload::Compress,
                Scale::Test,
                Some(10_000),
                ProfileOptions {
                    interval,
                    ring_capacity,
                },
            )
            .expect("profiled run completes")
    }

    #[test]
    fn epoch_cumulative_counters_match_the_summary() {
        let run = profile(500);
        assert_eq!(run.series.total_insts(), run.summary.insts);
        assert_eq!(run.series.total_loads(), run.summary.raw.mem.loads.get());
        assert_eq!(run.series.total_stores(), run.summary.raw.mem.stores.get());
        assert_eq!(
            run.series.total_dcache_misses(),
            run.summary.raw.mem.load_misses.get() + run.summary.raw.mem.store_misses.get()
        );
        // Epochs tile the run's cycles without gaps or overlap.
        let mut expected_start = 0;
        for epoch in &run.series.epochs {
            assert_eq!(epoch.start_cycle, expected_start);
            assert!(epoch.end_cycle > epoch.start_cycle);
            expected_start = epoch.end_cycle;
        }
        assert_eq!(expected_start, run.summary.cycles);
    }

    #[test]
    fn epoch_cpi_slots_conserve_commit_slots() {
        let run = profile(500);
        let width = run.summary.raw.cpu.commit_width;
        let mut totals = [0u64; StallCause::COUNT];
        for epoch in &run.series.epochs {
            let sum: u64 = epoch.cpi_slots.iter().sum();
            assert_eq!(
                sum,
                (epoch.end_cycle - epoch.start_cycle) * width,
                "epoch {}..{} leaks commit slots",
                epoch.start_cycle,
                epoch.end_cycle
            );
            for (total, slots) in totals.iter_mut().zip(epoch.cpi_slots.iter()) {
                *total += slots;
            }
        }
        // Epoch deltas tile the run's attribution exactly, and the Base
        // component is the committed-instruction count by construction.
        assert_eq!(totals, run.summary.raw.cpu.cpi_stack.slots());
        assert_eq!(
            run.summary.raw.cpu.cpi_stack.get(StallCause::Base),
            run.summary.insts
        );
    }

    #[test]
    fn profiling_matches_the_plain_run_exactly() {
        let sim = Simulator::new(SimConfig::combined_single_port());
        let plain = sim.run(Workload::Compress, Scale::Test, Some(10_000));
        let profiled = profile(1_000);
        assert_eq!(profiled.summary.cycles, plain.cycles);
        assert_eq!(profiled.summary.insts, plain.insts);
        assert_eq!(profiled.summary.ipc, plain.ipc);
        assert_eq!(
            profiled.summary.raw.mem.port_slots_used.get(),
            plain.raw.mem.port_slots_used.get()
        );
    }

    #[test]
    fn interval_zero_is_clamped_not_fatal() {
        let run = Simulator::new(SimConfig::naive_single_port())
            .try_profile(
                Workload::Sort,
                Scale::Test,
                Some(2_000),
                ProfileOptions {
                    interval: 0,
                    ring_capacity: 16,
                },
            )
            .expect("clamped interval");
        // Interval 1 → one epoch per cycle.
        assert_eq!(run.series.epochs.len() as u64, run.summary.cycles);
    }

    #[test]
    fn epoch_load_latency_percentiles_track_the_epochs() {
        let run = profile(500);
        let mut saw_loads = false;
        for epoch in &run.series.epochs {
            if epoch.loads > 0 {
                saw_loads = true;
                // Every initiated load records a latency sample, so an
                // epoch with loads always has percentiles.
                let p50 = epoch.load_latency_p50.expect("loads imply a median");
                let p95 = epoch.load_latency_p95.expect("loads imply a p95");
                assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
            } else {
                assert_eq!(epoch.load_latency_p50, None);
            }
        }
        assert!(saw_loads, "compress must issue loads");
    }

    #[test]
    fn self_profile_is_plausible() {
        let run = profile(1_000);
        assert!(run.self_profile.wall_seconds >= 0.0);
        assert_eq!(run.self_profile.cycles, run.summary.cycles);
        assert_eq!(run.self_profile.insts, run.summary.insts);
        // The default attaches no ring, whatever the build.
        assert!(!run.self_profile.capture_enabled);
        assert_eq!(run.self_profile.ring, None);
        assert!(run.events.is_empty());
        let line = run.self_profile.one_liner();
        assert!(line.contains("sim cycles/sec"), "{line}");
        assert!(!line.contains("ring"), "{line}");

        let captured = profile_with_ring(1_000, 16);
        assert_eq!(captured.self_profile.capture_enabled, TraceHandle::CAPTURE);
        assert_eq!(captured.self_profile.ring.is_some(), TraceHandle::CAPTURE);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn capture_collects_events_and_ring_stats() {
        let run = profile_with_ring(1_000, ProfileOptions::CAPTURE_RING);
        assert!(!run.events.is_empty());
        let ring = run.self_profile.ring.expect("capture is on");
        assert!(ring.emitted > 0);
        assert!(ring.peak > 0);
        // Commit events alone outnumber... at least exist; every committed
        // instruction emits one, so emitted >= insts.
        assert!(ring.emitted >= run.summary.insts);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_reads_procfs() {
        let rss = peak_rss_bytes().expect("procfs present on Linux");
        assert!(rss > 1024 * 1024, "a test process uses more than 1 MiB");
    }
}
