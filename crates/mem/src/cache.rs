//! The set-associative tag array used by every cache level.

use crate::config::CacheGeometry;
use crate::replacement::Replacement;
use crate::Addr;

/// Outcome of probing a cache for an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// The line is present.
    Hit,
    /// The line is absent. Call [`Cache::fill`] once the fill arrives.
    Miss,
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line address of the evicted line.
    pub line_addr: u64,
    /// Whether the line was dirty (needs writing back).
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
}

/// A set-associative cache modelling tags and line state only.
///
/// Data values are intentionally absent: the functional emulator in
/// `cpe-cpu` owns architectural memory, and the timing model needs only
/// presence, dirtiness and recency. Timing (latencies, ports, MSHRs) also
/// lives outside, in [`crate::DCache`]/[`crate::ICache`]/[`crate::Backside`],
/// so this type stays reusable across levels.
///
/// ```
/// use cpe_mem::{Cache, CacheGeometry, ProbeResult, Addr};
///
/// let mut cache = Cache::new(CacheGeometry::new(1024, 2, 32));
/// assert_eq!(cache.probe(Addr::new(0x40), false), ProbeResult::Miss);
/// cache.fill(Addr::new(0x40), false);
/// assert_eq!(cache.probe(Addr::new(0x5f), false), ProbeResult::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    ways: Vec<Way>,
    replacement: Replacement,
}

impl Cache {
    /// An empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Cache {
        let sets = geometry.sets() as usize;
        let ways_per_set = geometry.ways as usize;
        Cache {
            geometry,
            ways: vec![Way::default(); sets * ways_per_set],
            replacement: Replacement::new(geometry.replacement, sets, ways_per_set),
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    fn set_range(&self, addr: Addr) -> std::ops::Range<usize> {
        let set = self.geometry.set_index(addr.get());
        let ways = self.geometry.ways as usize;
        set * ways..(set + 1) * ways
    }

    /// Probe for `addr`. On a hit, recency updates and `is_write` marks the
    /// line dirty. On a miss, no state changes — allocation is a separate
    /// [`Cache::fill`] so callers can model fill latency.
    pub fn probe(&mut self, addr: Addr, is_write: bool) -> ProbeResult {
        let tag = self.geometry.tag(addr.get());
        let set = self.geometry.set_index(addr.get());
        let range = self.set_range(addr);
        for (i, way) in self.ways[range.clone()].iter_mut().enumerate() {
            if way.valid && way.tag == tag {
                way.dirty |= is_write;
                self.replacement.on_hit(set, i);
                return ProbeResult::Hit;
            }
        }
        ProbeResult::Miss
    }

    /// `true` when the line containing `addr` is present (no recency
    /// side-effects).
    pub fn contains(&self, addr: Addr) -> bool {
        let tag = self.geometry.tag(addr.get());
        self.ways[self.set_range(addr)]
            .iter()
            .any(|way| way.valid && way.tag == tag)
    }

    /// Install the line containing `addr`, marking it dirty when the fill
    /// came from a write miss. Returns the evicted line, if any.
    ///
    /// Filling a line that is already present only updates its state (this
    /// happens when two misses to one line race; the MSHR file normally
    /// merges them first).
    pub fn fill(&mut self, addr: Addr, dirty: bool) -> Option<Victim> {
        let tag = self.geometry.tag(addr.get());
        let set = self.geometry.set_index(addr.get());
        let range = self.set_range(addr);

        // Already present: refresh.
        for (i, way) in self.ways[range.clone()].iter_mut().enumerate() {
            if way.valid && way.tag == tag {
                way.dirty |= dirty;
                self.replacement.on_hit(set, i);
                return None;
            }
        }
        // Free way available.
        for (i, way) in self.ways[range.clone()].iter_mut().enumerate() {
            if !way.valid {
                *way = Way {
                    tag,
                    valid: true,
                    dirty,
                };
                self.replacement.on_fill(set, i);
                return None;
            }
        }
        // Evict.
        let victim_way = self.replacement.victim(set);
        let slot = &mut self.ways[range.start + victim_way];
        let victim = Victim {
            line_addr: slot.tag,
            dirty: slot.dirty,
        };
        *slot = Way {
            tag,
            valid: true,
            dirty,
        };
        self.replacement.on_fill(set, victim_way);
        Some(victim)
    }

    /// Remove the line containing `addr`. Returns `true` when a line was
    /// present (its dirty data is discarded — callers model writeback
    /// before invalidating when needed).
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let tag = self.geometry.tag(addr.get());
        let range = self.set_range(addr);
        for way in &mut self.ways[range] {
            if way.valid && way.tag == tag {
                way.valid = false;
                way.dirty = false;
                return true;
            }
        }
        false
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;
    use crate::replacement::ReplacementPolicy;
    use proptest::prelude::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 32B lines.
        Cache::new(CacheGeometry::new(128, 2, 32))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        let a = Addr::new(0x100);
        assert_eq!(c.probe(a, false), ProbeResult::Miss);
        assert!(c.fill(a, false).is_none());
        assert_eq!(c.probe(a, false), ProbeResult::Hit);
        assert_eq!(
            c.probe(Addr::new(0x11f), false),
            ProbeResult::Hit,
            "same line"
        );
        assert_eq!(
            c.probe(Addr::new(0x120), false),
            ProbeResult::Miss,
            "next line"
        );
    }

    #[test]
    fn eviction_returns_dirty_victims() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line addr multiples of 64 with bit 5 clear).
        let (a, b, d) = (Addr::new(0x000), Addr::new(0x040), Addr::new(0x080));
        c.fill(a, false);
        c.probe(a, true); // dirty it
        c.fill(b, false);
        let victim = c.fill(d, false).expect("set full, must evict");
        assert_eq!(victim.line_addr, 0x000, "LRU victim is the oldest");
        assert!(victim.dirty);
    }

    #[test]
    fn lru_honours_recency() {
        let mut c = tiny();
        let (a, b, d) = (Addr::new(0x000), Addr::new(0x040), Addr::new(0x080));
        c.fill(a, false);
        c.fill(b, false);
        c.probe(a, false); // touch a → b becomes LRU
        let victim = c.fill(d, false).unwrap();
        assert_eq!(victim.line_addr, 0x040);
    }

    #[test]
    fn invalidate_removes_and_reports() {
        let mut c = tiny();
        let a = Addr::new(0x200);
        c.fill(a, true);
        assert!(c.contains(a));
        assert!(c.invalidate(a));
        assert!(!c.contains(a));
        assert!(!c.invalidate(a));
        assert_eq!(c.probe(a, false), ProbeResult::Miss);
    }

    #[test]
    fn refill_of_resident_line_keeps_single_copy() {
        let mut c = tiny();
        let a = Addr::new(0x300);
        c.fill(a, false);
        assert!(c.fill(a, true).is_none());
        assert_eq!(c.resident_lines(), 1);
        // Dirtiness merged from the second fill.
        let b = Addr::new(0x340);
        let d = Addr::new(0x380);
        c.fill(b, false);
        let victim = c.fill(d, false).unwrap();
        assert!(victim.dirty);
    }

    #[test]
    fn writes_dirty_on_hit() {
        let mut c = tiny();
        let a = Addr::new(0x40);
        c.fill(a, false);
        c.probe(a, true);
        let _ = c.fill(Addr::new(0xc0), false);
        let victim = c.fill(Addr::new(0x140), false).unwrap();
        assert_eq!(victim.line_addr, 0x40);
        assert!(victim.dirty);
    }

    proptest! {
        /// The cache never holds more lines than its capacity allows, and a
        /// filled line is observable until evicted or invalidated.
        #[test]
        fn residency_is_bounded(addrs in prop::collection::vec(0u64..0x4000, 1..300)) {
            let mut c = Cache::new(CacheGeometry::new(256, 2, 32));
            for &raw in &addrs {
                let a = Addr::new(raw);
                if c.probe(a, false) == ProbeResult::Miss {
                    c.fill(a, false);
                }
                prop_assert!(c.contains(a));
                prop_assert!(c.resident_lines() <= 8);
            }
        }

        /// Random replacement stays within capacity too.
        #[test]
        fn random_replacement_is_sound(addrs in prop::collection::vec(0u64..0x4000, 1..300)) {
            let geometry = CacheGeometry::new(256, 4, 32)
                .with_replacement(ReplacementPolicy::Random);
            let mut c = Cache::new(geometry);
            for &raw in &addrs {
                let a = Addr::new(raw);
                c.fill(a, false);
                prop_assert!(c.contains(a));
                prop_assert!(c.resident_lines() <= 8);
            }
        }
    }
}
