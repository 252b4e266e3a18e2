//! Translation lookaside buffers.
//!
//! The paper's full-system methodology charged address-translation costs
//! (the MIPS machines of its era took software-refill traps). This model
//! is deliberately simple: a fully associative, LRU-replaced TLB whose
//! miss adds a fixed refill penalty to the access that suffered it. It is
//! **disabled by default** — the recorded experiments in
//! `EXPERIMENTS.md` ran without it — and enabled through
//! [`TlbConfig::entries`] for the TLB-sensitivity extension experiment.

use crate::replacement::Replacement;
use crate::{Addr, Cycle};

/// TLB provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Mapped pages held (0 disables the TLB: every access hits).
    pub entries: usize,
    /// Page size in bytes (a power of two).
    pub page_bytes: u64,
    /// Cycles added to an access that misses (a software-refill trap on
    /// the modelled machines).
    pub miss_penalty: u64,
}

impl Default for TlbConfig {
    /// Disabled.
    fn default() -> TlbConfig {
        TlbConfig {
            entries: 0,
            page_bytes: 4096,
            miss_penalty: 30,
        }
    }
}

impl TlbConfig {
    /// A 64-entry, 4 KiB-page TLB with a 30-cycle refill — R4000-flavoured.
    pub fn classic() -> TlbConfig {
        TlbConfig {
            entries: 64,
            page_bytes: 4096,
            miss_penalty: 30,
        }
    }
}

/// A fully associative, LRU-replaced TLB.
///
/// ```
/// use cpe_mem::{Tlb, TlbConfig, Addr};
///
/// let mut tlb = Tlb::new(TlbConfig { entries: 2, page_bytes: 4096, miss_penalty: 30 });
/// assert_eq!(tlb.access(Addr::new(0x1000)), 30, "cold miss refills");
/// assert_eq!(tlb.access(Addr::new(0x1ff8)), 0, "same page hits");
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// The mapped page per entry; `None` when the entry is invalid.
    pages: Vec<Option<u64>>,
    lru: Replacement,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// A cold TLB.
    ///
    /// # Panics
    ///
    /// Panics when the page size is not a power of two.
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            config,
            pages: vec![None; config.entries],
            lru: Replacement::new(1, config.entries),
            hits: 0,
            misses: 0,
        }
    }

    /// Translate an access to `addr`: returns the extra cycles it costs
    /// (0 on a hit or when the TLB is disabled; the refill penalty on a
    /// miss, which also installs the mapping).
    pub fn access(&mut self, addr: Addr) -> Cycle {
        if self.pages.is_empty() {
            return 0;
        }
        let page = addr.get() / self.config.page_bytes;
        if let Some(way) = self.pages.iter().position(|&held| held == Some(page)) {
            self.lru.touch(0, way);
            self.hits += 1;
            return 0;
        }
        self.misses += 1;
        let way = self.lru.victim(0);
        self.pages[way] = Some(page);
        self.lru.touch(0, way);
        self.config.miss_penalty
    }

    /// Drop every mapping (an address-space switch).
    pub fn flush(&mut self) {
        self.pages.fill(None);
        self.lru.forget_all();
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(entries: usize) -> Tlb {
        Tlb::new(TlbConfig {
            entries,
            page_bytes: 4096,
            miss_penalty: 25,
        })
    }

    #[test]
    fn disabled_tlb_never_costs() {
        let mut t = Tlb::new(TlbConfig::default());
        for page in 0..100u64 {
            assert_eq!(t.access(Addr::new(page * 4096)), 0);
        }
        assert_eq!(t.misses(), 0);
    }

    #[test]
    fn miss_then_hit_within_a_page() {
        let mut t = tlb(4);
        assert_eq!(t.access(Addr::new(0x5000)), 25);
        assert_eq!(t.access(Addr::new(0x5fff)), 0);
        assert_eq!(t.access(Addr::new(0x6000)), 25, "next page misses");
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn lru_evicts_the_coldest_mapping() {
        let mut t = tlb(2);
        t.access(Addr::new(0x1000)); // page 1
        t.access(Addr::new(0x2000)); // page 2
        t.access(Addr::new(0x1000)); // touch page 1 → page 2 is LRU
        t.access(Addr::new(0x3000)); // evicts page 2
        assert_eq!(t.access(Addr::new(0x1000)), 0);
        assert_eq!(t.access(Addr::new(0x2000)), 25, "page 2 was evicted");
    }

    #[test]
    fn flush_empties_everything() {
        let mut t = tlb(4);
        t.access(Addr::new(0x1000));
        t.flush();
        assert_eq!(t.access(Addr::new(0x1000)), 25);
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut t = tlb(8);
        // Touch 8 pages twice: 8 cold misses, then all hits.
        for round in 0..2 {
            for page in 0..8u64 {
                let cost = t.access(Addr::new(page * 4096));
                if round == 0 {
                    assert_eq!(cost, 25);
                } else {
                    assert_eq!(cost, 0);
                }
            }
        }
    }
}
