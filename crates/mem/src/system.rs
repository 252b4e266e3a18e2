//! The complete memory system as one object.

use crate::config::MemConfig;
use crate::dcache::{DCache, LoadOutcome, StoreOutcome};
use crate::icache::{FetchOutcome, ICache};
use crate::l2::Backside;
use crate::stats::MemStats;
use crate::tlb::Tlb;
use crate::{Addr, Cycle};

/// Point-in-time view of the memory system's transient occupancy — what
/// a stuck machine was waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemDiagnostics {
    /// Entries waiting in the store buffer.
    pub store_buffer_len: usize,
    /// Data-side misses outstanding in the MSHRs.
    pub outstanding_misses: usize,
    /// `true` when no buffered store or outstanding miss remains.
    pub quiesced: bool,
}

/// The full hierarchy: L1 I/D, line/store buffers, MSHRs, L2, fill bus,
/// DRAM, and all statistics.
///
/// See the crate docs for the per-cycle protocol. The system is
/// deterministic: a fixed configuration and reference stream always
/// produce identical timing and statistics.
#[derive(Debug, Clone)]
pub struct MemSystem {
    config: MemConfig,
    dcache: DCache,
    icache: ICache,
    backside: Backside,
    dtlb: Tlb,
    itlb: Tlb,
    stats: MemStats,
}

impl MemSystem {
    /// Build a cold memory system.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is inconsistent (see
    /// [`MemConfig::validate`]).
    pub fn new(config: MemConfig) -> MemSystem {
        config.validate();
        MemSystem {
            config,
            dcache: DCache::new(&config),
            icache: ICache::new(config.icache),
            backside: Backside::new(config.l2, config.latencies),
            dtlb: Tlb::new(config.dtlb),
            itlb: Tlb::new(config.itlb),
            stats: MemStats::new(
                config.ports.count as usize,
                config.mshrs,
                config.store_buffer.entries,
            ),
        }
    }

    /// Phase 1 of a cycle: install completed fills, reset port slots.
    pub fn begin_cycle(&mut self, now: Cycle) {
        self.dcache
            .begin_cycle(now, &mut self.backside, &mut self.stats);
    }

    /// Attempt a `bytes`-wide load at `addr` (phase 2; loads have port
    /// priority).
    pub fn try_load(&mut self, now: Cycle, addr: Addr, bytes: u64) -> LoadOutcome {
        let outcome = self
            .dcache
            .try_load(now, addr, bytes, &mut self.backside, &mut self.stats);
        // Translation happens alongside the access; a refill delays the
        // data (charged only on successfully initiated loads, so retried
        // rejections are not double-billed).
        match outcome {
            LoadOutcome::Ready { at, source } => {
                let penalty = self.dtlb.access(addr);
                let at = at + penalty;
                // The latency the consumer experiences: initiation to
                // data-ready, translation included.
                self.stats
                    .record_load_latency(source, at.saturating_sub(now));
                LoadOutcome::Ready { at, source }
            }
            other => other,
        }
    }

    /// Present a committed store (phase 2).
    pub fn commit_store(&mut self, now: Cycle, addr: Addr, bytes: u64) -> StoreOutcome {
        let outcome =
            self.dcache
                .commit_store(now, addr, bytes, &mut self.backside, &mut self.stats);
        if outcome == StoreOutcome::Accepted {
            // The refill overlaps the store's stay in the store buffer;
            // the mapping is installed and counted but commit proceeds.
            let _ = self.dtlb.access(addr);
        }
        outcome
    }

    /// Fetch an instruction block (independent of data-port slots).
    pub fn fetch(&mut self, now: Cycle, addr: Addr) -> FetchOutcome {
        let mut outcome = self
            .icache
            .fetch(now, addr, &mut self.backside, &mut self.stats);
        outcome.ready_at += self.itlb.access(addr);
        outcome
    }

    /// Phase 3 of a cycle: drain the store buffer into idle slots and
    /// close the books on the cycle.
    pub fn end_cycle(&mut self, now: Cycle) {
        self.dcache
            .end_cycle(now, &mut self.backside, &mut self.stats);
    }

    /// `true` when no buffered store or outstanding miss remains.
    pub fn is_quiesced(&self) -> bool {
        self.dcache.is_quiesced()
    }

    /// Earliest cycle at which the hierarchy acts on its own (an
    /// outstanding fill installing at `begin_cycle`), if any. The CPU's
    /// cycle-skipping scheduler must resume simulation no later than this.
    pub fn next_event_at(&self) -> Option<Cycle> {
        self.dcache.next_fill_at()
    }

    /// `true` when the last closed cycle changed no data-cache state and
    /// rejected no committed store (see [`DCache::last_cycle_parked`]).
    pub fn last_cycle_parked(&self) -> bool {
        self.dcache.last_cycle_parked()
    }

    /// Account `n` skipped cycles: idle ones (no access presented, an
    /// empty store buffer) or, with `parked`, exact repeats of the last
    /// closed cycle. Keeps the per-cycle memory statistics bit-identical
    /// to having stepped those cycles.
    pub fn record_skipped_cycles(&mut self, n: u64, parked: bool) {
        self.dcache
            .record_skipped_cycles(n, parked, &mut self.stats);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Attach a trace handle; the data cache emits port-attribution
    /// events through it. A detached handle (the default) is a no-op.
    pub fn set_trace(&mut self, trace: cpe_trace::TraceHandle) {
        self.dcache.set_trace(trace);
    }

    /// Entries currently waiting in the store buffer.
    pub fn store_buffer_len(&self) -> usize {
        self.dcache.store_buffer_len()
    }

    /// Outstanding data-side misses.
    pub fn outstanding_misses(&self) -> usize {
        self.dcache.outstanding_misses()
    }

    /// Snapshot of the hierarchy's transient state, for diagnostics such
    /// as the CPU watchdog's abort report.
    pub fn diagnostics(&self) -> MemDiagnostics {
        MemDiagnostics {
            store_buffer_len: self.dcache.store_buffer_len(),
            outstanding_misses: self.dcache.outstanding_misses(),
            quiesced: self.dcache.is_quiesced(),
        }
    }
}

#[cfg(test)]
mod tests {
    // Tests tweak one field of a default config at a time; the
    // struct-update suggestion reads worse there.
    #![allow(clippy::field_reassign_with_default)]

    use super::*;
    use crate::dcache::LoadSource;

    #[test]
    fn end_to_end_single_load_roundtrip() {
        let mut mem = MemSystem::new(MemConfig::default());
        mem.begin_cycle(0);
        let LoadOutcome::Ready {
            at,
            source: LoadSource::Miss,
        } = mem.try_load(0, Addr::new(0x1000), 8)
        else {
            panic!("cold load should miss");
        };
        mem.end_cycle(0);
        // After the fill arrives the line hits.
        mem.begin_cycle(at + 1);
        let hit = mem.try_load(at + 1, Addr::new(0x1000), 8);
        assert!(matches!(
            hit,
            LoadOutcome::Ready {
                source: LoadSource::L1Hit,
                ..
            }
        ));
        mem.end_cycle(at + 1);
        assert!(mem.is_quiesced());
        assert_eq!(mem.stats().loads.get(), 2);
    }

    #[test]
    fn store_then_drain_quiesces() {
        let mut config = MemConfig::default();
        config.store_buffer.entries = 4;
        let mut mem = MemSystem::new(config);
        mem.begin_cycle(0);
        assert_eq!(
            mem.commit_store(0, Addr::new(0x2000), 8),
            StoreOutcome::Accepted
        );
        mem.end_cycle(0);
        let mut now = 1;
        while !mem.is_quiesced() {
            mem.begin_cycle(now);
            mem.end_cycle(now);
            now += 1;
            assert!(now < 1000, "store must eventually drain");
        }
        assert_eq!(mem.stats().store_drains.get(), 1);
    }

    #[test]
    fn determinism_same_stream_same_stats() {
        let run = || {
            let mut config = MemConfig::default();
            config.line_buffers.entries = 2;
            config.line_buffers.width_bytes = 16;
            config.store_buffer.entries = 4;
            config.ports.width_bytes = 16;
            config.ports.load_combining = true;
            let mut mem = MemSystem::new(config);
            for cycle in 0..200u64 {
                mem.begin_cycle(cycle);
                let addr = Addr::new(0x1000 + (cycle * 24) % 4096);
                let _ = mem.try_load(cycle, addr, 8);
                if cycle % 3 == 0 {
                    let _ = mem.commit_store(cycle, Addr::new(0x8000 + cycle * 8), 8);
                }
                mem.end_cycle(cycle);
            }
            (
                mem.stats().loads.get(),
                mem.stats().load_lb_hits.get(),
                mem.stats().load_misses.get(),
                mem.stats().port_slots_used.get(),
                mem.stats().store_drains.get(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn latency_and_occupancy_distributions_accumulate() {
        let mut config = MemConfig::default();
        config.store_buffer.entries = 4;
        let mut mem = MemSystem::new(config);
        let mut cycles = 0u64;
        for cycle in 0..300u64 {
            mem.begin_cycle(cycle);
            let _ = mem.try_load(cycle, Addr::new(0x1000 + (cycle * 40) % 8192), 8);
            if cycle % 4 == 0 {
                let _ = mem.commit_store(cycle, Addr::new(0x9000 + cycle * 8), 8);
            }
            mem.end_cycle(cycle);
            cycles += 1;
        }
        // Run the machine dry so every miss retires and every buffered
        // store drains — the residency totals then close exactly.
        while !mem.is_quiesced() {
            mem.begin_cycle(cycles);
            mem.end_cycle(cycles);
            cycles += 1;
            assert!(cycles < 10_000, "machine must quiesce");
        }
        let s = mem.stats();
        // Every initiated load recorded exactly one latency sample, on the
        // path its source counter names.
        let load_latency = s.load_latency();
        assert_eq!(load_latency.total(), s.loads.get());
        let sources = s.load_l1_hits.get()
            + s.load_lb_hits.get()
            + s.load_sb_forwards.get()
            + s.load_combined.get()
            + s.load_miss_merged.get()
            + s.load_misses.get();
        assert_eq!(s.loads.get(), sources, "each load has one source");
        assert!(load_latency.p50().is_some());
        assert!(load_latency.p99().unwrap() <= load_latency.max_seen());
        // A cold stream misses: the miss path saw real memory latencies.
        assert!(s.load_latency_miss.total() > 0);
        assert!(s.load_latency_miss.mean() > 1.0);
        // Occupancy histograms sample once per cycle, store drains record
        // their buffer wait, and retired misses their residency.
        assert_eq!(s.mshr_occupancy.total(), cycles);
        assert_eq!(s.store_buffer_occupancy.total(), cycles);
        assert_eq!(s.port_queue_depth.total(), cycles);
        assert_eq!(s.store_commit_latency.total(), s.store_drains.get());
        assert_eq!(
            s.mshr_residency.total(),
            s.load_misses.get() + s.store_misses.get()
        );
    }

    #[test]
    fn dtlb_misses_delay_loads_once_per_page() {
        let mut config = MemConfig::default();
        config.dtlb = crate::tlb::TlbConfig::classic();
        let cold_load = |config: MemConfig| {
            let mut mem = MemSystem::new(config);
            mem.begin_cycle(0);
            let LoadOutcome::Ready { at, .. } = mem.try_load(0, Addr::new(0x1000), 8) else {
                panic!()
            };
            mem.end_cycle(0);
            (mem, at)
        };
        let (mut mem, first) = cold_load(config);
        let (_, untranslated) = cold_load(MemConfig::default());
        // The first access to the page pays the refill on top of its miss.
        assert_eq!(first, untranslated + config.dtlb.miss_penalty);
        // Same page, after the fill: TLB hit, no refill penalty.
        let now = first + 1;
        mem.begin_cycle(now);
        let LoadOutcome::Ready { at: second, .. } = mem.try_load(now, Addr::new(0x1008), 8) else {
            panic!()
        };
        assert_eq!(second, now + config.latencies.l1_hit);
    }

    #[test]
    fn itlb_misses_delay_fetch() {
        let mut config = MemConfig::default();
        config.itlb = crate::tlb::TlbConfig::classic();
        let mut mem = MemSystem::new(config);
        let cold = mem.fetch(0, Addr::new(0x1000));
        let mut plain_config = MemConfig::default();
        plain_config.itlb.entries = 0;
        let mut plain = MemSystem::new(plain_config);
        let reference = plain.fetch(0, Addr::new(0x1000));
        assert_eq!(cold.ready_at, reference.ready_at + config.itlb.miss_penalty);
        // The second fetch from the page pays no refill.
        let now = cold.ready_at + 1;
        assert_eq!(
            mem.fetch(now, Addr::new(0x1040)).ready_at,
            plain.fetch(now, Addr::new(0x1040)).ready_at
        );
    }

    #[test]
    fn fetch_path_reports_through_stats() {
        let mut mem = MemSystem::new(MemConfig::default());
        let out = mem.fetch(0, Addr::new(0x1000));
        assert!(!out.hit);
        let out2 = mem.fetch(out.ready_at + 1, Addr::new(0x1010));
        assert!(out2.hit);
        assert_eq!(mem.stats().fetches.get(), 2);
    }
}
