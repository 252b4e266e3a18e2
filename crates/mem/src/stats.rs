//! Memory-system statistics.

use cpe_stats::{Counter, Histogram, Log2Histogram, Ratio};

use crate::dcache::LoadSource;

/// Dense-bucket cap for the port-request-queue depth histogram: how many
/// rejected port requests pile up in one cycle is bounded by the machine's
/// issue width in practice, far below this.
const PORT_QUEUE_BUCKETS: usize = 16;

/// Every counter the memory hierarchy maintains.
///
/// The benchmark harness turns these into the paper's port-utilisation and
/// miss-rate tables; the field groups mirror the techniques under study.
#[derive(Debug, Clone)]
pub struct MemStats {
    // --- Demand references -------------------------------------------------
    /// Loads successfully initiated (each architectural load counts once).
    pub loads: Counter,
    /// Stores accepted (buffered or written directly).
    pub stores: Counter,
    /// Instruction-fetch block accesses.
    pub fetches: Counter,

    // --- Where loads were satisfied ----------------------------------------
    /// Loads forwarded from the post-commit store buffer (no port).
    pub load_sb_forwards: Counter,
    /// Loads satisfied by a line buffer (no port).
    pub load_lb_hits: Counter,
    /// Loads that shared another load's port access this cycle.
    pub load_combined: Counter,
    /// Loads that took a port and hit in L1.
    pub load_l1_hits: Counter,
    /// Loads that took a port and merged into an outstanding miss.
    pub load_miss_merged: Counter,
    /// Loads that took a port and started a new miss.
    pub load_misses: Counter,

    // --- Rejections (the CPU retries these next cycle) ---------------------
    /// Load attempts rejected because every port slot was taken.
    pub load_no_port: Counter,
    /// Load attempts rejected because the MSHR file was full.
    pub load_mshr_full: Counter,
    /// Load attempts rejected by a partial store-buffer overlap.
    pub load_sb_conflicts: Counter,
    /// Store commits rejected (buffer full, or no port when unbuffered).
    pub store_rejected: Counter,
    /// Accesses rejected by an intra-cycle bank conflict (banked caches).
    pub bank_conflicts: Counter,

    // --- Store path ----------------------------------------------------------
    /// Stores that merged into an existing store-buffer entry.
    pub store_combined: Counter,
    /// Store-buffer entries drained through idle port slots.
    pub store_drains: Counter,
    /// Drained/direct stores that hit in L1.
    pub store_l1_hits: Counter,
    /// Drained/direct stores that missed (allocated or merged an MSHR).
    pub store_misses: Counter,

    // --- Port accounting ------------------------------------------------------
    /// Port slots consumed (loads + drained stores).
    pub port_slots_used: Counter,
    /// Port slots offered (ports × cycles).
    pub port_slots_offered: Counter,
    /// Distribution of slots used per cycle.
    pub slots_per_cycle: Histogram,

    // --- Latency distributions (cycles from initiation to data-ready) ----
    // Each initiated load is recorded once, in its serving path's
    // histogram; `load_latency()` merges them.
    /// Loads that took a port and hit (L1 or victim-cache swap).
    pub load_latency_l1: Log2Histogram,
    /// Loads served by a line buffer.
    pub load_latency_lb: Log2Histogram,
    /// Loads forwarded from the store buffer.
    pub load_latency_forward: Log2Histogram,
    /// Loads that shared another load's port access.
    pub load_latency_combined: Log2Histogram,
    /// Loads merged into an outstanding miss.
    pub load_latency_merged: Log2Histogram,
    /// Loads that started a new miss.
    pub load_latency_miss: Log2Histogram,
    /// Cycles a committed store waited from buffer entry to its cache
    /// write (0 for unbuffered direct writes).
    pub store_commit_latency: Log2Histogram,
    /// Cycles each MSHR entry stayed allocated (miss issue to fill).
    pub mshr_residency: Log2Histogram,

    // --- Occupancy distributions (one sample per cycle) ------------------
    /// Outstanding misses at end of cycle.
    pub mshr_occupancy: Histogram,
    /// Store-buffer entries at end of cycle.
    pub store_buffer_occupancy: Histogram,
    /// Port requests denied this cycle (loads and unbuffered stores that
    /// found no slot or hit a bank conflict) — the depth of the implicit
    /// retry queue in front of the ports.
    pub port_queue_depth: Histogram,

    // --- Hierarchy ------------------------------------------------------------
    /// Dirty L1 lines written back on eviction.
    pub writebacks: Counter,
    /// L1-miss fills that hit in L2.
    pub l2_hits: Counter,
    /// L1-miss fills that went to DRAM.
    pub l2_misses: Counter,
    /// Instruction-cache hits.
    pub icache_hits: Counter,
    /// Instruction-cache misses.
    pub icache_misses: Counter,
    /// Next-line prefetches issued.
    pub prefetches: Counter,
    /// Prefetched lines later touched by a demand access before eviction.
    pub prefetch_useful: Counter,
    /// L1 misses satisfied by the victim cache (swapped back in).
    pub victim_hits: Counter,
    /// Stores forwarded to L2 under the write-through policy.
    pub write_throughs: Counter,
}

impl MemStats {
    /// Zeroed statistics. The dense occupancy histograms are sized to the
    /// structures they observe: `max_slots` port slots per cycle, `mshrs`
    /// outstanding misses, `sb_entries` store-buffer entries.
    pub fn new(max_slots: usize, mshrs: usize, sb_entries: usize) -> MemStats {
        MemStats {
            loads: Counter::new(),
            stores: Counter::new(),
            fetches: Counter::new(),
            load_sb_forwards: Counter::new(),
            load_lb_hits: Counter::new(),
            load_combined: Counter::new(),
            load_l1_hits: Counter::new(),
            load_miss_merged: Counter::new(),
            load_misses: Counter::new(),
            load_no_port: Counter::new(),
            load_mshr_full: Counter::new(),
            load_sb_conflicts: Counter::new(),
            store_rejected: Counter::new(),
            bank_conflicts: Counter::new(),
            store_combined: Counter::new(),
            store_drains: Counter::new(),
            store_l1_hits: Counter::new(),
            store_misses: Counter::new(),
            port_slots_used: Counter::new(),
            port_slots_offered: Counter::new(),
            slots_per_cycle: Histogram::new(max_slots),
            load_latency_l1: Log2Histogram::new(),
            load_latency_lb: Log2Histogram::new(),
            load_latency_forward: Log2Histogram::new(),
            load_latency_combined: Log2Histogram::new(),
            load_latency_merged: Log2Histogram::new(),
            load_latency_miss: Log2Histogram::new(),
            store_commit_latency: Log2Histogram::new(),
            mshr_residency: Log2Histogram::new(),
            mshr_occupancy: Histogram::new(mshrs),
            store_buffer_occupancy: Histogram::new(sb_entries),
            port_queue_depth: Histogram::new(PORT_QUEUE_BUCKETS),
            writebacks: Counter::new(),
            l2_hits: Counter::new(),
            l2_misses: Counter::new(),
            icache_hits: Counter::new(),
            icache_misses: Counter::new(),
            prefetches: Counter::new(),
            prefetch_useful: Counter::new(),
            victim_hits: Counter::new(),
            write_throughs: Counter::new(),
        }
    }

    /// Record an initiated load's latency in its serving path's
    /// distribution.
    pub fn record_load_latency(&mut self, source: LoadSource, latency: u64) {
        let path = match source {
            LoadSource::L1Hit | LoadSource::VictimHit => &mut self.load_latency_l1,
            LoadSource::LineBuffer => &mut self.load_latency_lb,
            LoadSource::StoreForward => &mut self.load_latency_forward,
            LoadSource::Combined => &mut self.load_latency_combined,
            LoadSource::MissMerged => &mut self.load_latency_merged,
            LoadSource::Miss => &mut self.load_latency_miss,
        };
        path.record(latency);
    }

    /// The per-path load-latency histograms with their report labels, in
    /// presentation order.
    pub fn load_latency_paths(&self) -> [(&'static str, &Log2Histogram); 6] {
        [
            ("l1_port_hit", &self.load_latency_l1),
            ("line_buffer", &self.load_latency_lb),
            ("store_forward", &self.load_latency_forward),
            ("combined", &self.load_latency_combined),
            ("mshr_merge", &self.load_latency_merged),
            ("miss", &self.load_latency_miss),
        ]
    }

    /// Every initiated load's latency, whatever its path: the per-path
    /// histograms merged, which loses nothing (buckets, sum, count and
    /// maximum all merge exactly).
    pub fn load_latency(&self) -> Log2Histogram {
        let mut all = Log2Histogram::new();
        for (_, path) in self.load_latency_paths() {
            all.merge(path);
        }
        all
    }

    /// Fraction of offered port slots actually used.
    pub fn port_utilisation(&self) -> Ratio {
        self.port_slots_used.ratio(self.port_slots_offered)
    }

    /// Fraction of loads satisfied without consuming a port (line buffer,
    /// combining, or store-buffer forward).
    pub fn portless_load_fraction(&self) -> Ratio {
        let portless =
            self.load_sb_forwards.get() + self.load_lb_hits.get() + self.load_combined.get();
        Ratio::new(portless, self.loads.get())
    }

    /// Data-cache load miss ratio (new misses / loads that reached the
    /// cache port).
    pub fn load_miss_ratio(&self) -> Ratio {
        let port_loads =
            self.load_l1_hits.get() + self.load_miss_merged.get() + self.load_misses.get();
        Ratio::new(self.load_misses.get(), port_loads)
    }

    /// Total demand data references accepted.
    pub fn data_refs(&self) -> u64 {
        self.loads.get() + self.stores.get()
    }

    /// Every scalar counter as `(field name, value)`, in declaration
    /// order: the `mem` half of a metrics document's `counters` member.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        cpe_stats::named_counters!(self, MemStats {
            loads,
            stores,
            fetches,
            load_sb_forwards,
            load_lb_hits,
            load_combined,
            load_l1_hits,
            load_miss_merged,
            load_misses,
            load_no_port,
            load_mshr_full,
            load_sb_conflicts,
            store_rejected,
            bank_conflicts,
            store_combined,
            store_drains,
            store_l1_hits,
            store_misses,
            port_slots_used,
            port_slots_offered,
            writebacks,
            l2_hits,
            l2_misses,
            icache_hits,
            icache_misses,
            prefetches,
            prefetch_useful,
            victim_hits,
            write_throughs,
        } not {
            slots_per_cycle,
            load_latency_l1,
            load_latency_lb,
            load_latency_forward,
            load_latency_combined,
            load_latency_merged,
            load_latency_miss,
            store_commit_latency,
            mshr_residency,
            mshr_occupancy,
            store_buffer_occupancy,
            port_queue_depth,
        })
    }
}

impl Default for MemStats {
    fn default() -> MemStats {
        MemStats::new(4, 8, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let mut s = MemStats::new(2, 8, 8);
        s.loads.add(100);
        s.load_lb_hits.add(25);
        s.load_combined.add(5);
        s.load_sb_forwards.add(10);
        s.port_slots_used.add(60);
        s.port_slots_offered.add(100);
        assert_eq!(s.portless_load_fraction().percent(), 40.0);
        assert_eq!(s.port_utilisation().percent(), 60.0);
    }

    #[test]
    fn miss_ratio_counts_only_port_loads() {
        let mut s = MemStats::new(2, 8, 8);
        s.load_l1_hits.add(90);
        s.load_misses.add(10);
        s.load_lb_hits.add(100); // must not dilute the ratio
        assert_eq!(s.load_miss_ratio().percent(), 10.0);
    }

    #[test]
    fn zeroed_stats_are_safe() {
        let s = MemStats::default();
        assert_eq!(s.port_utilisation().percent(), 0.0);
        assert_eq!(s.portless_load_fraction().percent(), 0.0);
        assert_eq!(s.data_refs(), 0);
        assert_eq!(s.load_latency().p99(), None);
    }

    #[test]
    fn load_latency_routes_to_the_right_path() {
        let mut s = MemStats::default();
        s.record_load_latency(LoadSource::L1Hit, 2);
        s.record_load_latency(LoadSource::VictimHit, 4);
        s.record_load_latency(LoadSource::LineBuffer, 1);
        s.record_load_latency(LoadSource::Miss, 80);
        assert_eq!(s.load_latency().total(), 4);
        assert_eq!(s.load_latency_l1.total(), 2, "victim hits fold into l1");
        assert_eq!(s.load_latency_lb.total(), 1);
        assert_eq!(s.load_latency_miss.total(), 1);
        assert_eq!(s.load_latency_forward.total(), 0);
        assert_eq!(s.load_latency().max_seen(), 80);
        assert_eq!(s.load_latency().sum(), 2 + 4 + 1 + 80);
    }
}
