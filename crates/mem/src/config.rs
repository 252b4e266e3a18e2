//! Memory-system configuration.

use std::fmt;

use crate::tlb::TlbConfig;

/// Geometry of one cache level. Every cache replaces LRU within a set.
///
/// ```
/// use cpe_mem::CacheGeometry;
///
/// let l1 = CacheGeometry::new(32 * 1024, 2, 32);
/// assert_eq!(l1.sets(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes. Must be a power of two.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes. Must be a power of two.
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Construct and validate a geometry.
    ///
    /// # Panics
    ///
    /// Panics when capacity or line size is not a power of two, when the
    /// line size exceeds the capacity, or when `capacity / (ways * line)`
    /// is not a whole power-of-two number of sets.
    pub fn new(capacity_bytes: u64, ways: u32, line_bytes: u64) -> CacheGeometry {
        let geometry = CacheGeometry {
            capacity_bytes,
            ways,
            line_bytes,
        };
        geometry.validate();
        geometry
    }

    /// Check the geometry's invariants, returning the first violation as
    /// a message suitable for a typed error.
    pub fn try_validate(&self) -> Result<(), String> {
        if !self.capacity_bytes.is_power_of_two() {
            return Err("capacity must be a power of two".to_string());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".to_string());
        }
        if self.ways < 1 {
            return Err("at least one way".to_string());
        }
        match self.line_bytes.checked_mul(u64::from(self.ways)) {
            Some(way_bytes) if way_bytes <= self.capacity_bytes => {}
            _ => return Err("line size × ways exceeds capacity".to_string()),
        }
        if !self.sets().is_power_of_two() {
            return Err(format!(
                "set count must be a power of two (capacity {} / ways {} / line {})",
                self.capacity_bytes, self.ways, self.line_bytes
            ));
        }
        Ok(())
    }

    fn validate(&self) {
        if let Err(message) = self.try_validate() {
            panic!("{message}");
        }
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (u64::from(self.ways) * self.line_bytes)
    }

    /// Set index for an address.
    #[inline]
    pub fn set_index(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) & (self.sets() - 1)) as usize
    }

    /// Tag for an address (the line address; cheap and unambiguous).
    #[inline]
    pub fn tag(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB {}-way {}B-line LRU",
            self.capacity_bytes / 1024,
            self.ways,
            self.line_bytes
        )
    }
}

/// Data-cache port provisioning — the paper's independent variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortConfig {
    /// Number of true ports (1 = the cheap design, 2 = the expensive
    /// reference, higher values approximate an ideal cache).
    pub count: u32,
    /// Width of one port access in bytes (8 = one double-word; 16/32 are
    /// the paper's "wider cache port"). Must be a power of two no larger
    /// than the line size.
    pub width_bytes: u64,
    /// Allow two or more loads to the same aligned `width_bytes` chunk to
    /// share a single port access in the same cycle ("dual-word load").
    pub load_combining: bool,
    /// Interleaved banking (0 or 1 = true multi-porting). With `banks > 1`
    /// the cache offers `count` access slots per cycle, but two accesses
    /// in one cycle must target different banks (selected by low chunk
    /// address bits) — the era's cheap alternative to true dual porting,
    /// which trades area for bank conflicts.
    pub banks: u32,
}

impl Default for PortConfig {
    /// One 8-byte port without combining — the naive single-ported cache.
    fn default() -> PortConfig {
        PortConfig {
            count: 1,
            width_bytes: 8,
            load_combining: false,
            banks: 0,
        }
    }
}

impl PortConfig {
    /// The bank an access to `addr` falls in (`None` when unbanked).
    pub fn bank_of(&self, addr: u64) -> Option<u32> {
        if self.banks <= 1 {
            None
        } else {
            Some(((addr / self.width_bytes) % u64::from(self.banks)) as u32)
        }
    }
}

/// Line-buffer ("load-all") provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineBufferConfig {
    /// Number of buffers (0 disables the technique).
    pub entries: usize,
    /// Bytes captured per buffer. Defaults to the port width; setting it to
    /// the full line size models "load all data at an index".
    pub width_bytes: u64,
}

impl Default for LineBufferConfig {
    fn default() -> LineBufferConfig {
        LineBufferConfig {
            entries: 0,
            width_bytes: 8,
        }
    }
}

/// Store-buffer provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreBufferConfig {
    /// Entries (0 disables buffering: stores contend with loads at commit).
    pub entries: usize,
    /// Merge stores that fall in the same aligned port-width chunk into one
    /// buffered entry and hence one port access (write combining).
    pub combining: bool,
}

/// How stores update the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WritePolicy {
    /// Writeback, write-allocate (the default and the paper's model):
    /// stores dirty the L1 line, misses fetch it, evictions write back.
    #[default]
    WritebackAllocate,
    /// Write-through, no-allocate: every store is forwarded to the L2
    /// over the fill bus; store misses do not fetch the line. Lines are
    /// never dirty, so evictions are silent.
    WriteThroughNoAllocate,
}

/// Fixed latencies and bandwidths of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Cycles from a port access that hits in L1 to data ready.
    pub l1_hit: u64,
    /// Cycles for a load satisfied from a line buffer.
    pub line_buffer_hit: u64,
    /// Cycles for a load forwarded from the store buffer.
    pub store_forward: u64,
    /// Additional cycles for an L1 miss that hits in L2.
    pub l2_hit: u64,
    /// Additional cycles for an L2 miss serviced by DRAM.
    pub dram: u64,
    /// Minimum cycles between consecutive line fills on the shared fill bus.
    pub fill_interval: u64,
}

impl Default for Latencies {
    /// R10000-era defaults: 1-cycle L1, 8-cycle L2, 50-cycle memory.
    fn default() -> Latencies {
        Latencies {
            l1_hit: 1,
            line_buffer_hit: 1,
            store_forward: 1,
            l2_hit: 8,
            dram: 50,
            fill_interval: 4,
        }
    }
}

/// Complete memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 data cache geometry.
    pub dcache: CacheGeometry,
    /// L1 instruction cache geometry.
    pub icache: CacheGeometry,
    /// Unified L2 geometry.
    pub l2: CacheGeometry,
    /// Data-cache ports.
    pub ports: PortConfig,
    /// Line buffers.
    pub line_buffers: LineBufferConfig,
    /// Store buffer.
    pub store_buffer: StoreBufferConfig,
    /// Outstanding-miss registers on the data side.
    pub mshrs: usize,
    /// Hierarchy latencies.
    pub latencies: Latencies,
    /// Data TLB (disabled by default; see [`TlbConfig`]).
    pub dtlb: TlbConfig,
    /// Instruction TLB (disabled by default).
    pub itlb: TlbConfig,
    /// Prefetch the next sequential line on a demand miss (tagged
    /// next-line prefetching; disabled by default).
    pub next_line_prefetch: bool,
    /// Victim-cache entries behind the L1 D-cache (0 disables).
    pub victim_cache: usize,
    /// Store update policy.
    pub write_policy: WritePolicy,
}

impl Default for MemConfig {
    /// The naive single-ported machine: 32KB 2-way L1s, 1MB 4-way L2, one
    /// 8-byte port, no buffering techniques.
    fn default() -> MemConfig {
        MemConfig {
            dcache: CacheGeometry::new(32 * 1024, 2, 32),
            icache: CacheGeometry::new(32 * 1024, 2, 32),
            l2: CacheGeometry::new(1024 * 1024, 4, 64),
            ports: PortConfig::default(),
            line_buffers: LineBufferConfig::default(),
            store_buffer: StoreBufferConfig::default(),
            mshrs: 8,
            latencies: Latencies::default(),
            dtlb: TlbConfig::default(),
            itlb: TlbConfig::default(),
            next_line_prefetch: false,
            victim_cache: 0,
            write_policy: WritePolicy::default(),
        }
    }
}

impl MemConfig {
    /// Validate cross-field constraints (including every cache geometry),
    /// returning the first violation as a message suitable for a typed
    /// error.
    pub fn try_validate(&self) -> Result<(), String> {
        fn check(ok: bool, message: &str) -> Result<(), String> {
            if ok {
                Ok(())
            } else {
                Err(message.to_string())
            }
        }
        for (label, geometry) in [
            ("D-cache", &self.dcache),
            ("I-cache", &self.icache),
            ("L2", &self.l2),
        ] {
            geometry
                .try_validate()
                .map_err(|message| format!("{label}: {message}"))?;
        }
        check(self.ports.count >= 1, "at least one data-cache port")?;
        check(
            self.ports.width_bytes.is_power_of_two(),
            "port width must be a power of two",
        )?;
        check(
            self.ports.width_bytes <= self.dcache.line_bytes,
            "port wider than the cache line",
        )?;
        check(
            self.line_buffers.width_bytes.is_power_of_two(),
            "line-buffer width must be a power of two",
        )?;
        check(
            self.ports.banks <= 1 || self.ports.banks.is_power_of_two(),
            "bank count must be a power of two",
        )?;
        check(
            self.line_buffers.width_bytes <= self.dcache.line_bytes,
            "line buffer wider than the cache line",
        )?;
        check(self.mshrs >= 1, "at least one MSHR")?;
        check(
            self.latencies.fill_interval >= 1,
            "fill interval must be at least 1",
        )?;
        Ok(())
    }

    /// Validate cross-field constraints.
    ///
    /// # Panics
    ///
    /// Panics when the port or line-buffer width is not a power of two, is
    /// wider than the L1 line, or when `ports.count` is zero.
    /// [`MemConfig::try_validate`] is the non-panicking form.
    pub fn validate(&self) {
        if let Err(message) = self.try_validate() {
            panic!("{message}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derives_sets_and_indexing() {
        let g = CacheGeometry::new(32 * 1024, 2, 32);
        assert_eq!(g.sets(), 512);
        assert_eq!(g.set_index(0), 0);
        assert_eq!(g.set_index(32), 1);
        assert_eq!(g.set_index(32 * 512), 0); // wraps around the sets
        assert_eq!(g.tag(0x1234), 0x1220);
    }

    #[test]
    fn direct_mapped_and_fully_associative_extremes() {
        let dm = CacheGeometry::new(1024, 1, 32);
        assert_eq!(dm.sets(), 32);
        let fa = CacheGeometry::new(1024, 32, 32);
        assert_eq!(fa.sets(), 1);
        assert_eq!(fa.set_index(0xffff_ffff), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_rejected() {
        CacheGeometry::new(3000, 2, 32);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_line_rejected() {
        CacheGeometry::new(64, 4, 32);
    }

    #[test]
    fn default_memconfig_validates() {
        MemConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "wider than the cache line")]
    fn port_wider_than_line_rejected() {
        let mut c = MemConfig::default();
        c.ports.width_bytes = 64;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one data-cache port")]
    fn zero_ports_rejected() {
        let mut c = MemConfig::default();
        c.ports.count = 0;
        c.validate();
    }

    #[test]
    fn try_validate_covers_the_geometries() {
        let mut c = MemConfig::default();
        assert!(c.try_validate().is_ok());
        c.dcache.ways = 0;
        let message = c.try_validate().unwrap_err();
        assert!(message.contains("D-cache"), "{message}");
        // Direct field mutation used to bypass geometry validation
        // entirely; a zero-way cache must now be caught before it can
        // divide by zero inside set indexing.
        assert!(message.contains("way"), "{message}");
    }

    #[test]
    fn displays_read_naturally() {
        let g = CacheGeometry::new(32 * 1024, 2, 32);
        assert_eq!(g.to_string(), "32KB 2-way 32B-line LRU");
    }
}
