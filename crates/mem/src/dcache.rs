//! The level-one data cache with configurable ports and the paper's
//! port-efficiency techniques.
//!
//! Per-cycle protocol (driven by [`crate::MemSystem`]):
//!
//! 1. `begin_cycle` — completed misses install, port slots reset;
//! 2. `try_load` / `commit_store` — loads take slots with priority;
//! 3. `end_cycle` — the store buffer drains into idle slots.

use std::collections::HashSet;

use cpe_trace::{
    EventKind, TraceHandle, PORT_GRANT_L1_HIT, PORT_GRANT_MISS, PORT_GRANT_MISS_MERGED,
    PORT_GRANT_VICTIM_HIT,
};

use crate::cache::{Cache, ProbeResult};
use crate::config::{
    Latencies, LineBufferConfig, MemConfig, PortConfig, StoreBufferConfig, WritePolicy,
};
use crate::l2::Backside;
use crate::line_buffer::LineBufferFile;
use crate::mshr::{MshrFile, MshrResult};
use crate::stats::MemStats;
use crate::store_buffer::{ForwardResult, StoreBuffer};
use crate::victim::VictimCache;
use crate::{Addr, Cycle};

/// Where a load's data came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSource {
    /// Forwarded from a buffered (committed but undrained) store.
    StoreForward,
    /// Satisfied by a line buffer — no port consumed.
    LineBuffer,
    /// Missed the L1 but swapped back in from the victim cache.
    VictimHit,
    /// Shared another load's port access to the same chunk this cycle.
    Combined,
    /// Took a port slot and hit in L1.
    L1Hit,
    /// Took a port slot and merged into an outstanding miss.
    MissMerged,
    /// Took a port slot and started a new miss.
    Miss,
}

/// Outcome of a load attempt. Rejections leave no side-effects the CPU
/// must remember — it simply retries next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The load was initiated; data is usable at cycle `at`.
    Ready {
        /// Cycle the value is available to dependents.
        at: Cycle,
        /// Which structure satisfied the load.
        source: LoadSource,
    },
    /// Every port slot this cycle was already taken.
    NoPort,
    /// The access needed a new MSHR and none was free (the probing slot is
    /// consumed, as the tag array was accessed).
    MshrFull,
    /// Buffered stores overlap the load only partially; it must wait for
    /// the store buffer to drain past them.
    Conflict,
}

/// Outcome of presenting a committed store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The store was buffered (or written directly when unbuffered).
    Accepted,
    /// No room (buffer full / no port / MSHR full) — retry next cycle.
    Rejected,
}

/// Fixed-size per-cycle map from port-width chunk address to the cycle
/// that chunk's data becomes ready, for load combining.
///
/// The map is consulted once per access per cycle, so the old linear
/// `Vec::iter().find()` scan sat on the hot path. Only port-granted
/// accesses insert (at most one per slot, so at most `ports.count` per
/// cycle); a table of twice the port count therefore never fills, probes
/// stay short, and clearing is a generation bump instead of a scan.
/// A duplicate insert keeps the existing entry, matching the old
/// find-first-match semantics exactly.
#[derive(Debug, Clone)]
struct ChunkSlotMap {
    /// `(generation, chunk_addr, data_ready)`; a stale generation marks
    /// the slot empty for the current cycle.
    slots: Vec<(u64, u64, Cycle)>,
    generation: u64,
    mask: usize,
}

impl ChunkSlotMap {
    fn new(ports: u32) -> ChunkSlotMap {
        let capacity = (ports.max(1) as usize * 2).next_power_of_two();
        ChunkSlotMap {
            slots: vec![(0, 0, 0); capacity],
            generation: 1,
            mask: capacity - 1,
        }
    }

    /// Forget every entry (start a new cycle).
    fn clear(&mut self) {
        self.generation += 1;
    }

    fn index(&self, chunk: u64) -> usize {
        // Fibonacci hashing spreads the port-width-aligned addresses,
        // whose low bits are all zero.
        (chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    /// The data-ready cycle of `chunk`, when it was read this cycle.
    fn get(&self, chunk: u64) -> Option<Cycle> {
        let mut i = self.index(chunk);
        loop {
            let (generation, key, ready) = self.slots[i];
            if generation != self.generation {
                return None;
            }
            if key == chunk {
                return Some(ready);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn insert(&mut self, chunk: u64, ready: Cycle) {
        let mut i = self.index(chunk);
        loop {
            let (generation, key, _) = self.slots[i];
            if generation != self.generation {
                self.slots[i] = (self.generation, chunk, ready);
                return;
            }
            if key == chunk {
                return; // the first access this cycle stands
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// What one cycle did at the data-cache ports without changing any
/// state: the slots its MSHR-full probes took, the requests turned away,
/// and the rejection counters they bumped. A parked cycle's tally is
/// what each of its exact repeats would record again.
#[derive(Debug, Clone, Copy, Default)]
struct ParkedTally {
    slots_used: u32,
    port_rejects: u32,
    mshr_full: u64,
    no_port: u64,
    bank_conflicts: u64,
    sb_conflicts: u64,
}

/// Counter readings taken at `begin_cycle`, so `end_cycle` can tell what
/// the cycle did from the differences.
#[derive(Debug, Clone, Copy, Default)]
struct CycleMarks {
    /// Loads accepted + stores accepted + stores drained + stores
    /// rejected: any change means the cycle moved state (or, for a
    /// rejected committed store, retries on the CPU side).
    activity: u64,
    mshr_full: u64,
    no_port: u64,
    bank_conflicts: u64,
    sb_conflicts: u64,
}

impl CycleMarks {
    fn read(stats: &MemStats) -> CycleMarks {
        CycleMarks {
            activity: stats.loads.get()
                + stats.stores.get()
                + stats.store_drains.get()
                + stats.store_rejected.get(),
            mshr_full: stats.load_mshr_full.get(),
            no_port: stats.load_no_port.get(),
            bank_conflicts: stats.bank_conflicts.get(),
            sb_conflicts: stats.load_sb_conflicts.get(),
        }
    }
}

/// The L1 data cache and its port-efficiency structures.
#[derive(Debug, Clone)]
pub struct DCache {
    cache: Cache,
    mshr: MshrFile,
    line_buffers: LineBufferFile,
    store_buffer: StoreBuffer,
    ports: PortConfig,
    latencies: Latencies,
    slots_used: u32,
    /// Chunks already read through a port this cycle, with their data-ready
    /// times, for load combining.
    cycle_chunks: ChunkSlotMap,
    /// Banks already accessed this cycle (banked configurations only).
    cycle_banks: Vec<u32>,
    /// Port requests denied this cycle (no free slot or bank conflict);
    /// the CPU holds these in its queues and retries, so the count is the
    /// depth of the implicit port request queue.
    cycle_port_rejects: u32,
    /// Counter readings at the start of this cycle.
    cycle_marks: CycleMarks,
    /// The last closed cycle's tally, when that cycle accepted, drained
    /// and rejected nothing (it was parked on the memory system).
    parked: Option<ParkedTally>,
    /// Tagged next-line prefetching on demand misses.
    next_line_prefetch: bool,
    /// Prefetched lines not yet touched by a demand access.
    prefetched_pending: HashSet<u64>,
    /// Recently evicted lines (victim cache; may be empty).
    victims: VictimCache,
    write_policy: WritePolicy,
    /// Observability tap: a detached handle (the default) costs one
    /// branch per emission site, and a capture-less build none at all.
    trace: TraceHandle,
}

impl DCache {
    /// Build from the memory-system configuration.
    pub fn new(config: &MemConfig) -> DCache {
        let LineBufferConfig {
            entries: lb_entries,
            width_bytes: lb_width,
        } = config.line_buffers;
        let StoreBufferConfig {
            entries: sb_entries,
            combining,
        } = config.store_buffer;
        DCache {
            cache: Cache::new(config.dcache),
            mshr: MshrFile::new(config.mshrs),
            line_buffers: LineBufferFile::new(lb_entries, lb_width),
            store_buffer: StoreBuffer::new(sb_entries, combining, config.ports.width_bytes),
            ports: config.ports,
            latencies: config.latencies,
            slots_used: 0,
            cycle_chunks: ChunkSlotMap::new(config.ports.count),
            cycle_banks: Vec::with_capacity(config.ports.count as usize),
            cycle_port_rejects: 0,
            cycle_marks: CycleMarks::default(),
            parked: None,
            next_line_prefetch: config.next_line_prefetch,
            prefetched_pending: HashSet::new(),
            victims: VictimCache::new(config.victim_cache),
            write_policy: config.write_policy,
            trace: TraceHandle::off(),
        }
    }

    /// Attach (or detach) the event tracer. Tracing only observes; it
    /// never alters timing.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Route an evicted L1 line through the victim cache; whatever the
    /// victim cache displaces (or the line itself, when there is no
    /// victim cache) is written back if dirty.
    fn retire_victim(
        &mut self,
        now: Cycle,
        line_addr: u64,
        dirty: bool,
        backside: &mut Backside,
        stats: &mut MemStats,
    ) {
        if let Some((displaced, displaced_dirty)) = self.victims.insert(Addr::new(line_addr), dirty)
        {
            if displaced_dirty {
                backside.writeback(now, Addr::new(displaced), stats);
            }
        }
    }

    /// On an L1 miss, try to swap the line in from the victim cache.
    /// Returns the data-ready cycle on a victim hit.
    fn try_victim_swap(
        &mut self,
        now: Cycle,
        line: Addr,
        write: bool,
        backside: &mut Backside,
        stats: &mut MemStats,
    ) -> Option<Cycle> {
        let dirty = self.victims.take(line)?;
        stats.victim_hits.inc();
        // The line moves back into the L1; whatever it displaces takes
        // its slot in the victim cache.
        if let Some(evicted) = self.cache.fill(line, dirty || write) {
            let line_bytes = self.line_bytes();
            self.line_buffers
                .invalidate_overlapping(Addr::new(evicted.line_addr), line_bytes);
            self.forget_prefetch(evicted.line_addr);
            self.retire_victim(now, evicted.line_addr, evicted.dirty, backside, stats);
        }
        Some(now + self.latencies.l1_hit + VictimCache::SWAP_LATENCY)
    }

    /// On a demand miss for `line`, also request the next sequential line
    /// (tagged next-line prefetching) when it is absent and an MSHR is
    /// free. Prefetches ride the ordinary miss machinery, so they contend
    /// for fill-bus bandwidth but never for port slots.
    fn maybe_prefetch(
        &mut self,
        now: Cycle,
        line: Addr,
        backside: &mut Backside,
        stats: &mut MemStats,
    ) {
        if !self.next_line_prefetch {
            return;
        }
        let next = Addr::new(line.get() + self.line_bytes());
        if self.cache.contains(next)
            || self.mshr.lookup(next.get()).is_some()
            || self.mshr.is_full()
        {
            return;
        }
        let fill_at = backside.fetch_line(now, next, stats);
        self.mshr.request(now, next.get(), fill_at, false);
        self.prefetched_pending.insert(next.get());
        stats.prefetches.inc();
    }

    /// A demand access touched `line`; if a prefetch brought it, credit it.
    /// The set is empty unless prefetching is on, so the hash is skipped
    /// on the common path.
    fn credit_prefetch(&mut self, line: u64, stats: &mut MemStats) {
        if !self.prefetched_pending.is_empty() && self.prefetched_pending.remove(&line) {
            stats.prefetch_useful.inc();
        }
    }

    /// `line` left the L1: if a prefetch brought it and no demand access
    /// touched it, it can no longer earn credit.
    fn forget_prefetch(&mut self, line: u64) {
        if !self.prefetched_pending.is_empty() {
            self.prefetched_pending.remove(&line);
        }
    }

    fn line_bytes(&self) -> u64 {
        self.cache.geometry().line_bytes
    }

    /// Phase 1: install completed fills and reset the port slots.
    pub fn begin_cycle(&mut self, now: Cycle, backside: &mut Backside, stats: &mut MemStats) {
        self.slots_used = 0;
        self.cycle_chunks.clear();
        self.cycle_banks.clear();
        self.cycle_port_rejects = 0;
        self.cycle_marks = CycleMarks::read(stats);
        let line_bytes = self.line_bytes();
        for (line_addr, dirty, allocated_at) in self.mshr.take_completed(now) {
            stats
                .mshr_residency
                .record(now.saturating_sub(allocated_at));
            self.trace.emit(now, EventKind::MshrRetire, line_addr, 0);
            if let Some(victim) = self.cache.fill(Addr::new(line_addr), dirty) {
                // Anything buffered from the departing line is stale, and
                // an unused prefetched victim can no longer earn credit.
                self.line_buffers
                    .invalidate_overlapping(Addr::new(victim.line_addr), line_bytes);
                self.forget_prefetch(victim.line_addr);
                self.retire_victim(now, victim.line_addr, victim.dirty, backside, stats);
            }
        }
    }

    /// Attempt a `bytes`-wide load at `addr` during cycle `now`.
    pub fn try_load(
        &mut self,
        now: Cycle,
        addr: Addr,
        bytes: u64,
        backside: &mut Backside,
        stats: &mut MemStats,
    ) -> LoadOutcome {
        // 1. Post-commit store buffer: youngest data wins, portlessly.
        match self.store_buffer.forward(addr, bytes) {
            ForwardResult::Full => {
                stats.loads.inc();
                stats.load_sb_forwards.inc();
                self.trace.emit(now, EventKind::StoreForward, addr.get(), 0);
                return LoadOutcome::Ready {
                    at: now + self.latencies.store_forward,
                    source: LoadSource::StoreForward,
                };
            }
            ForwardResult::Partial => {
                stats.load_sb_conflicts.inc();
                self.trace.emit(now, EventKind::SbConflict, addr.get(), 0);
                return LoadOutcome::Conflict;
            }
            ForwardResult::None => {}
        }

        // 2. Line buffers: a previous access already read these bytes.
        if let Some(data_ready) = self.line_buffers.lookup(addr, bytes) {
            let at = data_ready.max(now + self.latencies.line_buffer_hit);
            stats.loads.inc();
            stats.load_lb_hits.inc();
            self.trace
                .emit(now, EventKind::LineBufferHit, addr.get(), 0);
            return LoadOutcome::Ready {
                at,
                source: LoadSource::LineBuffer,
            };
        }

        // 3. Load combining: share a chunk already read this cycle.
        let width = self.ports.width_bytes;
        let fits_chunk = addr.fits_in_block(bytes, width);
        let chunk = addr.align_down(width);
        if self.ports.load_combining && fits_chunk {
            if let Some(ready) = self.cycle_chunks.get(chunk.get()) {
                stats.loads.inc();
                stats.load_combined.inc();
                self.trace.emit(now, EventKind::LoadCombine, addr.get(), 0);
                return LoadOutcome::Ready {
                    at: ready,
                    source: LoadSource::Combined,
                };
            }
        }

        // 4. A real port access.
        if self.slots_used >= self.ports.count {
            stats.load_no_port.inc();
            self.cycle_port_rejects += 1;
            self.trace.emit(now, EventKind::PortConflict, addr.get(), 0);
            return LoadOutcome::NoPort;
        }
        if let Some(bank) = self.ports.bank_of(addr.get()) {
            if self.cycle_banks.contains(&bank) {
                stats.bank_conflicts.inc();
                stats.load_no_port.inc();
                self.cycle_port_rejects += 1;
                self.trace
                    .emit(now, EventKind::BankConflict, addr.get(), bank);
                return LoadOutcome::NoPort;
            }
            self.cycle_banks.push(bank);
        }
        let line = Addr::new(self.cache.geometry().tag(addr.get()));
        let (at, source) = match self.cache.probe(addr, false) {
            ProbeResult::Hit => {
                self.credit_prefetch(line.get(), stats);
                (now + self.latencies.l1_hit, LoadSource::L1Hit)
            }
            ProbeResult::Miss => {
                if let Some(ready) = self.try_victim_swap(now, line, false, backside, stats) {
                    (ready, LoadSource::VictimHit)
                } else if let Some(fill_at) = self.mshr.lookup(line.get()) {
                    self.mshr.request(now, line.get(), fill_at, false);
                    self.credit_prefetch(line.get(), stats);
                    self.trace.emit(now, EventKind::MshrMerge, line.get(), 0);
                    (
                        fill_at.max(now + self.latencies.l1_hit),
                        LoadSource::MissMerged,
                    )
                } else if self.mshr.is_full() {
                    self.slots_used += 1;
                    stats.load_mshr_full.inc();
                    self.trace.emit(now, EventKind::MshrFull, addr.get(), 0);
                    return LoadOutcome::MshrFull;
                } else {
                    let fill_at = backside.fetch_line(now, line, stats);
                    let result = self.mshr.request(now, line.get(), fill_at, false);
                    debug_assert_eq!(result, MshrResult::Allocated(fill_at));
                    self.maybe_prefetch(now, line, backside, stats);
                    self.trace.emit(now, EventKind::MshrAlloc, line.get(), 0);
                    (fill_at, LoadSource::Miss)
                }
            }
        };
        self.slots_used += 1;
        stats.loads.inc();
        let grant_code = match source {
            LoadSource::L1Hit => {
                stats.load_l1_hits.inc();
                PORT_GRANT_L1_HIT
            }
            LoadSource::VictimHit => {
                stats.load_l1_hits.inc();
                PORT_GRANT_VICTIM_HIT
            }
            LoadSource::MissMerged => {
                stats.load_miss_merged.inc();
                PORT_GRANT_MISS_MERGED
            }
            LoadSource::Miss => {
                stats.load_misses.inc();
                PORT_GRANT_MISS
            }
            _ => unreachable!("port path sources only"),
        };
        self.trace
            .emit(now, EventKind::PortGrant, addr.get(), grant_code);
        if fits_chunk {
            self.cycle_chunks.insert(chunk.get(), at);
        }
        // "Load-all": the data array read captures a line-buffer chunk
        // around the access. The buffer may be wider than the port (the
        // array reads a whole row regardless); capture whatever
        // buffer-width chunk the access falls inside.
        let lb_width = self.line_buffers.width_bytes();
        if addr.fits_in_block(bytes, lb_width) {
            self.line_buffers.insert(addr.align_down(lb_width), at);
        }
        LoadOutcome::Ready { at, source }
    }

    /// Present a committed store of `bytes` at `addr` during cycle `now`.
    pub fn commit_store(
        &mut self,
        now: Cycle,
        addr: Addr,
        bytes: u64,
        backside: &mut Backside,
        stats: &mut MemStats,
    ) -> StoreOutcome {
        if self.store_buffer.capacity() > 0 {
            let combined_before = self.store_buffer.combined();
            if self.store_buffer.push(now, addr, bytes) {
                stats.stores.inc();
                if self.store_buffer.combined() > combined_before {
                    stats.store_combined.inc();
                    self.trace.emit(now, EventKind::StoreCombine, addr.get(), 0);
                } else {
                    self.trace.emit(now, EventKind::StoreCommit, addr.get(), 0);
                }
                // The stored bytes supersede anything a line buffer holds.
                self.line_buffers.invalidate_overlapping(addr, bytes);
                StoreOutcome::Accepted
            } else {
                stats.store_rejected.inc();
                self.trace.emit(now, EventKind::StoreReject, addr.get(), 0);
                StoreOutcome::Rejected
            }
        } else {
            // Unbuffered: the store needs a port slot right now.
            if self.slots_used >= self.ports.count {
                stats.store_rejected.inc();
                self.cycle_port_rejects += 1;
                self.trace.emit(now, EventKind::StoreReject, addr.get(), 0);
                return StoreOutcome::Rejected;
            }
            if let Some(bank) = self.ports.bank_of(addr.get()) {
                if self.cycle_banks.contains(&bank) {
                    stats.bank_conflicts.inc();
                    stats.store_rejected.inc();
                    self.cycle_port_rejects += 1;
                    self.trace
                        .emit(now, EventKind::BankConflict, addr.get(), bank);
                    return StoreOutcome::Rejected;
                }
                self.cycle_banks.push(bank);
            }
            match self.write_access(now, addr, backside, stats) {
                Ok(()) => {
                    self.slots_used += 1;
                    stats.stores.inc();
                    // A direct write never waited in the buffer.
                    stats.store_commit_latency.record(0);
                    self.line_buffers.invalidate_overlapping(addr, bytes);
                    self.trace.emit(now, EventKind::StoreCommit, addr.get(), 0);
                    StoreOutcome::Accepted
                }
                Err(()) => {
                    // MSHR full: the tag probe consumed the slot.
                    self.slots_used += 1;
                    stats.store_rejected.inc();
                    self.trace.emit(now, EventKind::StoreReject, addr.get(), 0);
                    StoreOutcome::Rejected
                }
            }
        }
    }

    /// Phase 3: drain buffered stores through idle port slots and account
    /// for the cycle's port usage.
    pub fn end_cycle(&mut self, now: Cycle, backside: &mut Backside, stats: &mut MemStats) {
        while self.slots_used < self.ports.count {
            let Some(entry) = self.store_buffer.peek().copied() else {
                break;
            };
            if let Some(bank) = self.ports.bank_of(entry.chunk_addr) {
                if self.cycle_banks.contains(&bank) {
                    stats.bank_conflicts.inc();
                    break;
                }
                self.cycle_banks.push(bank);
            }
            match self.write_access(now, Addr::new(entry.chunk_addr), backside, stats) {
                Ok(()) => {
                    self.slots_used += 1;
                    self.store_buffer.pop();
                    stats.store_drains.inc();
                    stats
                        .store_commit_latency
                        .record(now.saturating_sub(entry.pushed_at));
                    self.trace
                        .emit(now, EventKind::StoreDrain, entry.chunk_addr, 0);
                }
                Err(()) => break, // MSHR full: try again next cycle
            }
        }
        stats.port_slots_used.add(u64::from(self.slots_used));
        stats.port_slots_offered.add(u64::from(self.ports.count));
        stats.slots_per_cycle.record(u64::from(self.slots_used));
        stats.mshr_occupancy.record(self.mshr.len() as u64);
        stats
            .store_buffer_occupancy
            .record(self.store_buffer.len() as u64);
        stats
            .port_queue_depth
            .record(u64::from(self.cycle_port_rejects));
        let (start, end) = (self.cycle_marks, CycleMarks::read(stats));
        self.parked = (start.activity == end.activity).then_some(ParkedTally {
            slots_used: self.slots_used,
            port_rejects: self.cycle_port_rejects,
            mshr_full: end.mshr_full - start.mshr_full,
            no_port: end.no_port - start.no_port,
            bank_conflicts: end.bank_conflicts - start.bank_conflicts,
            sb_conflicts: end.sb_conflicts - start.sb_conflicts,
        });
    }

    /// Write `addr`'s line in the cache (hit) or route it through the MSHR
    /// file (miss, write-allocate). `Err(())` means the MSHR file is full.
    fn write_access(
        &mut self,
        now: Cycle,
        addr: Addr,
        backside: &mut Backside,
        stats: &mut MemStats,
    ) -> Result<(), ()> {
        let line = Addr::new(self.cache.geometry().tag(addr.get()));
        if self.write_policy == WritePolicy::WriteThroughNoAllocate {
            // The store updates the L1 copy when present (clean — the
            // write goes through) and always travels to L2 on the bus;
            // misses do not allocate.
            match self.cache.probe(addr, false) {
                ProbeResult::Hit => stats.store_l1_hits.inc(),
                ProbeResult::Miss => stats.store_misses.inc(),
            }
            backside.write_through(now, line, stats);
            return Ok(());
        }
        match self.cache.probe(addr, true) {
            ProbeResult::Hit => {
                self.credit_prefetch(line.get(), stats);
                stats.store_l1_hits.inc();
                Ok(())
            }
            ProbeResult::Miss => {
                if self
                    .try_victim_swap(now, line, true, backside, stats)
                    .is_some()
                {
                    stats.store_l1_hits.inc();
                    return Ok(());
                }
                if let Some(fill_at) = self.mshr.lookup(line.get()) {
                    self.mshr.request(now, line.get(), fill_at, true);
                    self.credit_prefetch(line.get(), stats);
                    stats.store_misses.inc();
                    return Ok(());
                }
                if self.mshr.is_full() {
                    return Err(());
                }
                let fill_at = backside.fetch_line(now, line, stats);
                self.mshr.request(now, line.get(), fill_at, true);
                self.maybe_prefetch(now, line, backside, stats);
                stats.store_misses.inc();
                Ok(())
            }
        }
    }

    /// `true` when the last closed cycle accepted no load, accepted,
    /// drained and rejected no store — so, absent a fill, the next cycle
    /// presented with the same requests repeats it exactly.
    pub fn last_cycle_parked(&self) -> bool {
        self.parked.is_some()
    }

    /// Account `n` cycles the CPU skipped. Idle cycles (`parked` false)
    /// saw no access, an empty store buffer and no fill; parked cycles
    /// repeated the last closed cycle, which [`DCache::last_cycle_parked`]
    /// reported. Either way this mirrors the accounting
    /// [`end_cycle`] would have performed on each of those cycles, so
    /// skipping leaves every statistic bit-identical to stepping.
    ///
    /// [`end_cycle`]: DCache::end_cycle
    pub fn record_skipped_cycles(&self, n: u64, parked: bool, stats: &mut MemStats) {
        let tally = if parked {
            self.parked.expect("the last closed cycle was parked")
        } else {
            ParkedTally::default()
        };
        stats
            .port_slots_used
            .add(u64::from(tally.slots_used).saturating_mul(n));
        stats
            .port_slots_offered
            .add(u64::from(self.ports.count).saturating_mul(n));
        stats
            .slots_per_cycle
            .record_n(u64::from(tally.slots_used), n);
        stats.mshr_occupancy.record_n(self.mshr.len() as u64, n);
        stats
            .store_buffer_occupancy
            .record_n(self.store_buffer.len() as u64, n);
        stats
            .port_queue_depth
            .record_n(u64::from(tally.port_rejects), n);
        stats.load_mshr_full.add(tally.mshr_full.saturating_mul(n));
        stats.load_no_port.add(tally.no_port.saturating_mul(n));
        stats
            .bank_conflicts
            .add(tally.bank_conflicts.saturating_mul(n));
        stats
            .load_sb_conflicts
            .add(tally.sb_conflicts.saturating_mul(n));
    }

    /// Earliest cycle an outstanding fill arrives, if any — the bound the
    /// CPU's cycle-skipping scheduler must not skip past, because fills
    /// install at `begin_cycle` of exactly that cycle.
    pub fn next_fill_at(&self) -> Option<Cycle> {
        self.mshr.next_ready_at()
    }

    /// `true` when no buffered store and no outstanding miss remains —
    /// used to run the machine dry at the end of a program.
    pub fn is_quiesced(&self) -> bool {
        self.store_buffer.is_empty() && self.mshr.is_empty()
    }

    /// Entries currently waiting in the store buffer.
    pub fn store_buffer_len(&self) -> usize {
        self.store_buffer.len()
    }

    /// Outstanding misses.
    pub fn outstanding_misses(&self) -> usize {
        self.mshr.len()
    }

    /// The tag array (inspection only).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Port provisioning.
    pub fn ports(&self) -> PortConfig {
        self.ports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    struct Rig {
        d: DCache,
        b: Backside,
        s: MemStats,
    }

    fn rig(mutate: impl FnOnce(&mut MemConfig)) -> Rig {
        let mut config = MemConfig::default();
        mutate(&mut config);
        config.validate();
        Rig {
            d: DCache::new(&config),
            b: Backside::new(config.l2, config.latencies),
            s: MemStats::new(
                config.ports.count as usize,
                config.mshrs,
                config.store_buffer.entries,
            ),
        }
    }

    /// Warm one line into the cache and start the next cycle.
    fn warm(r: &mut Rig, addr: u64) -> Cycle {
        r.d.begin_cycle(0, &mut r.b, &mut r.s);
        let LoadOutcome::Ready {
            at,
            source: LoadSource::Miss,
        } = r.d.try_load(0, Addr::new(addr), 8, &mut r.b, &mut r.s)
        else {
            panic!("expected a cold miss");
        };
        r.d.end_cycle(0, &mut r.b, &mut r.s);
        let now = at + 1;
        r.d.begin_cycle(now, &mut r.b, &mut r.s);
        now
    }

    #[test]
    fn single_port_admits_one_load_per_cycle() {
        let mut r = rig(|_| {});
        let now = warm(&mut r, 0x1000);
        let first = r.d.try_load(now, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        assert!(matches!(
            first,
            LoadOutcome::Ready {
                source: LoadSource::L1Hit,
                ..
            }
        ));
        let second = r.d.try_load(now, Addr::new(0x2000), 8, &mut r.b, &mut r.s);
        assert_eq!(second, LoadOutcome::NoPort);
        assert_eq!(r.s.load_no_port.get(), 1);
    }

    #[test]
    fn dual_port_admits_two() {
        let mut r = rig(|c| c.ports.count = 2);
        let now = warm(&mut r, 0x1000);
        for addr in [0x1000u64, 0x3000] {
            let out = r.d.try_load(now, Addr::new(addr), 8, &mut r.b, &mut r.s);
            assert!(
                matches!(out, LoadOutcome::Ready { .. }),
                "{addr:#x}: {out:?}"
            );
        }
        let third = r.d.try_load(now, Addr::new(0x4000), 8, &mut r.b, &mut r.s);
        assert_eq!(third, LoadOutcome::NoPort);
    }

    #[test]
    fn load_combining_shares_a_wide_port() {
        let mut r = rig(|c| {
            c.ports.width_bytes = 16;
            c.ports.load_combining = true;
        });
        let now = warm(&mut r, 0x1000);
        let a = r.d.try_load(now, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        let b = r.d.try_load(now, Addr::new(0x1008), 8, &mut r.b, &mut r.s);
        assert!(matches!(
            a,
            LoadOutcome::Ready {
                source: LoadSource::L1Hit,
                ..
            }
        ));
        assert!(matches!(
            b,
            LoadOutcome::Ready {
                source: LoadSource::Combined,
                ..
            }
        ));
        // A third load to a different chunk is out of slots.
        let c = r.d.try_load(now, Addr::new(0x1010), 8, &mut r.b, &mut r.s);
        assert_eq!(c, LoadOutcome::NoPort);
        assert_eq!(r.s.load_combined.get(), 1);
    }

    #[test]
    fn combining_disabled_means_no_sharing() {
        let mut r = rig(|c| {
            c.ports.width_bytes = 16;
            c.ports.load_combining = false;
        });
        let now = warm(&mut r, 0x1000);
        let _ = r.d.try_load(now, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        let b = r.d.try_load(now, Addr::new(0x1008), 8, &mut r.b, &mut r.s);
        assert_eq!(b, LoadOutcome::NoPort);
    }

    #[test]
    fn line_buffer_hits_do_not_consume_the_port() {
        let mut r = rig(|c| {
            c.line_buffers.entries = 2;
            c.line_buffers.width_bytes = 16;
            c.ports.width_bytes = 16;
        });
        // Cycle 0: a cold load's port access captures the chunk into a
        // line buffer (with the fill's ready time).
        let now = warm(&mut r, 0x1000);
        // The sibling double-word hits the line buffer, leaving the single
        // port slot free for an unrelated (cold) load.
        let lb = r.d.try_load(now, Addr::new(0x1008), 8, &mut r.b, &mut r.s);
        assert!(
            matches!(
                lb,
                LoadOutcome::Ready {
                    source: LoadSource::LineBuffer,
                    ..
                }
            ),
            "{lb:?}"
        );
        let other = r.d.try_load(now, Addr::new(0x5000), 8, &mut r.b, &mut r.s);
        assert!(
            matches!(
                other,
                LoadOutcome::Ready {
                    source: LoadSource::Miss,
                    ..
                }
            ),
            "port must still be free: {other:?}"
        );
        let third = r.d.try_load(now, Addr::new(0x6000), 8, &mut r.b, &mut r.s);
        assert_eq!(third, LoadOutcome::NoPort);
        assert_eq!(r.s.load_lb_hits.get(), 1);
    }

    #[test]
    fn stores_invalidate_line_buffers() {
        let mut r = rig(|c| {
            c.line_buffers.entries = 2;
            c.line_buffers.width_bytes = 16;
            c.store_buffer.entries = 8;
        });
        let now = warm(&mut r, 0x1000);
        let _ = r.d.try_load(now, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        let st =
            r.d.commit_store(now, Addr::new(0x1004), 4, &mut r.b, &mut r.s);
        assert_eq!(st, StoreOutcome::Accepted);
        r.d.end_cycle(now, &mut r.b, &mut r.s);
        let now = now + 1;
        r.d.begin_cycle(now, &mut r.b, &mut r.s);
        // The line-buffer copy is stale; but the store buffer was drained
        // last end_cycle, so this is a fresh port access, not a forward.
        let out = r.d.try_load(now, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        assert!(
            matches!(
                out,
                LoadOutcome::Ready {
                    source: LoadSource::L1Hit,
                    ..
                }
            ),
            "{out:?}"
        );
    }

    #[test]
    fn store_buffer_drains_only_into_idle_slots() {
        let mut r = rig(|c| c.store_buffer.entries = 8);
        let now = warm(&mut r, 0x1000);
        // Two stores buffered; the single slot is taken by a load.
        r.d.commit_store(now, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        r.d.commit_store(now, Addr::new(0x2000), 8, &mut r.b, &mut r.s);
        assert_eq!(r.d.store_buffer_len(), 2);
        let _ = r.d.try_load(now, Addr::new(0x1008), 8, &mut r.b, &mut r.s);
        r.d.end_cycle(now, &mut r.b, &mut r.s);
        assert_eq!(r.d.store_buffer_len(), 2, "no idle slot, nothing drained");
        // Next cycle nothing loads → one drain.
        let now = now + 1;
        r.d.begin_cycle(now, &mut r.b, &mut r.s);
        r.d.end_cycle(now, &mut r.b, &mut r.s);
        assert_eq!(r.d.store_buffer_len(), 1);
        assert_eq!(r.s.store_drains.get(), 1);
    }

    #[test]
    fn store_forwarding_and_partial_conflicts() {
        let mut r = rig(|c| {
            c.store_buffer.entries = 8;
            c.store_buffer.combining = true;
        });
        let now = warm(&mut r, 0x1000);
        r.d.commit_store(now, Addr::new(0x3000), 8, &mut r.b, &mut r.s);
        let fwd = r.d.try_load(now, Addr::new(0x3000), 8, &mut r.b, &mut r.s);
        assert!(matches!(
            fwd,
            LoadOutcome::Ready {
                source: LoadSource::StoreForward,
                ..
            }
        ));
        let partial = r.d.try_load(now, Addr::new(0x3004), 8, &mut r.b, &mut r.s);
        assert_eq!(partial, LoadOutcome::Conflict);
        assert_eq!(r.s.load_sb_forwards.get(), 1);
        assert_eq!(r.s.load_sb_conflicts.get(), 1);
    }

    #[test]
    fn unbuffered_stores_contend_with_loads() {
        let mut r = rig(|_| {});
        let now = warm(&mut r, 0x1000);
        let _ = r.d.try_load(now, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        let st =
            r.d.commit_store(now, Addr::new(0x1008), 8, &mut r.b, &mut r.s);
        assert_eq!(st, StoreOutcome::Rejected, "slot taken by the load");
        // A fresh cycle admits the store.
        let now = now + 1;
        r.d.begin_cycle(now, &mut r.b, &mut r.s);
        let st =
            r.d.commit_store(now, Addr::new(0x1008), 8, &mut r.b, &mut r.s);
        assert_eq!(st, StoreOutcome::Accepted);
    }

    #[test]
    fn store_buffer_full_rejects_commit() {
        let mut r = rig(|c| c.store_buffer.entries = 1);
        let now = warm(&mut r, 0x1000);
        let _ = r.d.try_load(now, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        assert_eq!(
            r.d.commit_store(now, Addr::new(0x2000), 8, &mut r.b, &mut r.s),
            StoreOutcome::Accepted
        );
        assert_eq!(
            r.d.commit_store(now, Addr::new(0x3000), 8, &mut r.b, &mut r.s),
            StoreOutcome::Rejected
        );
        assert_eq!(r.s.store_rejected.get(), 1);
    }

    #[test]
    fn mshr_exhaustion_rejects_new_misses() {
        let mut r = rig(|c| {
            c.mshrs = 1;
            c.ports.count = 2;
        });
        r.d.begin_cycle(0, &mut r.b, &mut r.s);
        let first = r.d.try_load(0, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        assert!(matches!(
            first,
            LoadOutcome::Ready {
                source: LoadSource::Miss,
                ..
            }
        ));
        let second = r.d.try_load(0, Addr::new(0x2000), 8, &mut r.b, &mut r.s);
        assert_eq!(second, LoadOutcome::MshrFull);
        // Same line as the first: merges rather than needing an entry.
        let third = r.d.try_load(0, Addr::new(0x1008), 8, &mut r.b, &mut r.s);
        assert_eq!(third, LoadOutcome::NoPort, "both slots consumed above");
    }

    #[test]
    fn miss_merge_returns_first_miss_fill_time() {
        let mut r = rig(|c| c.ports.count = 2);
        r.d.begin_cycle(0, &mut r.b, &mut r.s);
        let LoadOutcome::Ready { at: first_at, .. } =
            r.d.try_load(0, Addr::new(0x1000), 8, &mut r.b, &mut r.s)
        else {
            panic!()
        };
        let LoadOutcome::Ready {
            at: second_at,
            source,
        } = r.d.try_load(0, Addr::new(0x1010), 8, &mut r.b, &mut r.s)
        else {
            panic!()
        };
        assert_eq!(source, LoadSource::MissMerged);
        assert_eq!(second_at, first_at);
        assert_eq!(r.s.load_miss_merged.get(), 1);
    }

    #[test]
    fn quiesce_reflects_buffers_and_misses() {
        let mut r = rig(|c| c.store_buffer.entries = 4);
        assert!(r.d.is_quiesced());
        r.d.begin_cycle(0, &mut r.b, &mut r.s);
        r.d.commit_store(0, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        assert!(!r.d.is_quiesced());
        r.d.end_cycle(0, &mut r.b, &mut r.s);
        // The drain itself missed → an MSHR is outstanding.
        assert!(!r.d.is_quiesced());
        let far = 1000;
        r.d.begin_cycle(far, &mut r.b, &mut r.s);
        assert!(r.d.is_quiesced());
    }

    #[test]
    fn write_through_stores_never_allocate_or_dirty() {
        let mut r = rig(|c| {
            c.write_policy = WritePolicy::WriteThroughNoAllocate;
            c.store_buffer.entries = 4;
        });
        r.d.begin_cycle(0, &mut r.b, &mut r.s);
        // A store miss: travels to L2, does not fetch the line.
        r.d.commit_store(0, Addr::new(0x3000), 8, &mut r.b, &mut r.s);
        r.d.end_cycle(0, &mut r.b, &mut r.s);
        assert_eq!(r.s.write_throughs.get(), 1);
        assert_eq!(r.d.outstanding_misses(), 0, "no-allocate: no MSHR used");
        assert!(!r.d.cache().contains(Addr::new(0x3000)));
        // A store hit on a resident line keeps it clean.
        let now = warm(&mut r, 0x1000);
        r.d.commit_store(now, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        r.d.end_cycle(now, &mut r.b, &mut r.s);
        assert_eq!(r.s.store_l1_hits.get(), 1);
        // Evict the line by filling its set; clean lines write back nothing.
        let wb_before = r.s.writebacks.get();
        let now = now + 100;
        r.d.begin_cycle(now, &mut r.b, &mut r.s);
        let _ = r.d.try_load(
            now,
            Addr::new(0x1000 + 32 * 1024 / 2),
            8,
            &mut r.b,
            &mut r.s,
        );
        let _ = r.d.try_load(
            now + 1,
            Addr::new(0x1000 + 32 * 1024),
            8,
            &mut r.b,
            &mut r.s,
        );
        r.d.begin_cycle(now + 200, &mut r.b, &mut r.s);
        assert_eq!(
            r.s.writebacks.get(),
            wb_before,
            "write-through lines are never dirty"
        );
    }

    #[test]
    fn victim_cache_swaps_conflict_victims_back() {
        // Tiny direct-mapped cache: two lines aliasing to one set ping-pong.
        let mut r = rig(|c| {
            c.dcache = crate::config::CacheGeometry::new(128, 1, 32); // 4 sets
            c.victim_cache = 2;
        });
        let (a, b) = (0x1000u64, 0x1080); // same set, 4-set direct-mapped
                                          // Cold-miss both; b evicts a into the victim cache.
        let now = warm(&mut r, a);
        let LoadOutcome::Ready { at, .. } = r.d.try_load(now, Addr::new(b), 8, &mut r.b, &mut r.s)
        else {
            panic!()
        };
        r.d.end_cycle(now, &mut r.b, &mut r.s);
        let now = at + 10;
        r.d.begin_cycle(now, &mut r.b, &mut r.s);
        // `a` was evicted by `b`'s fill — but the victim cache has it.
        let swapped = r.d.try_load(now, Addr::new(a), 8, &mut r.b, &mut r.s);
        assert!(
            matches!(swapped, LoadOutcome::Ready { source: LoadSource::VictimHit, at }
                if at == now + 2),
            "{swapped:?}"
        );
        assert_eq!(r.s.victim_hits.get(), 1);
        assert_eq!(
            r.s.load_misses.get(),
            2,
            "only the two cold misses went to L2"
        );
    }

    #[test]
    fn victim_cache_disabled_means_full_misses() {
        let mut r = rig(|c| {
            c.dcache = crate::config::CacheGeometry::new(128, 1, 32);
        });
        let (a, b) = (0x1000u64, 0x1080);
        let now = warm(&mut r, a);
        let LoadOutcome::Ready { at, .. } = r.d.try_load(now, Addr::new(b), 8, &mut r.b, &mut r.s)
        else {
            panic!()
        };
        r.d.end_cycle(now, &mut r.b, &mut r.s);
        let now = at + 10;
        r.d.begin_cycle(now, &mut r.b, &mut r.s);
        let again = r.d.try_load(now, Addr::new(a), 8, &mut r.b, &mut r.s);
        assert!(
            matches!(
                again,
                LoadOutcome::Ready {
                    source: LoadSource::Miss,
                    ..
                }
            ),
            "{again:?}"
        );
        assert_eq!(r.s.victim_hits.get(), 0);
    }

    #[test]
    fn banked_dual_access_requires_distinct_banks() {
        let mut r = rig(|c| {
            c.ports.count = 2;
            c.ports.banks = 2;
        });
        let now = warm(&mut r, 0x1000);
        // Also warm the sibling chunks used below.
        let _ = r.d.try_load(now, Addr::new(0x1008), 8, &mut r.b, &mut r.s);
        let _ = r.d.try_load(now, Addr::new(0x1010), 8, &mut r.b, &mut r.s);
        r.d.end_cycle(now, &mut r.b, &mut r.s);
        let now = now + 50;
        r.d.begin_cycle(now, &mut r.b, &mut r.s);
        // 0x1000 and 0x1010 are the same bank (bank = (addr/8) % 2);
        // 0x1008 is the other.
        let first = r.d.try_load(now, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        assert!(matches!(first, LoadOutcome::Ready { .. }), "{first:?}");
        let conflict = r.d.try_load(now, Addr::new(0x1010), 8, &mut r.b, &mut r.s);
        assert_eq!(conflict, LoadOutcome::NoPort, "same bank must conflict");
        assert_eq!(r.s.bank_conflicts.get(), 1);
        let other_bank = r.d.try_load(now, Addr::new(0x1008), 8, &mut r.b, &mut r.s);
        assert!(
            matches!(other_bank, LoadOutcome::Ready { .. }),
            "different bank must proceed: {other_bank:?}"
        );
    }

    #[test]
    fn unbanked_config_never_conflicts() {
        let mut r = rig(|c| c.ports.count = 2);
        let now = warm(&mut r, 0x1000);
        let _ = r.d.try_load(now, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        let _ = r.d.try_load(now, Addr::new(0x1010), 8, &mut r.b, &mut r.s);
        assert_eq!(r.s.bank_conflicts.get(), 0);
    }

    #[test]
    fn next_line_prefetch_brings_the_sequential_line() {
        let mut r = rig(|c| {
            c.next_line_prefetch = true;
            c.mshrs = 8;
        });
        r.d.begin_cycle(0, &mut r.b, &mut r.s);
        let LoadOutcome::Ready { at, .. } =
            r.d.try_load(0, Addr::new(0x1000), 8, &mut r.b, &mut r.s)
        else {
            panic!("cold miss expected");
        };
        assert_eq!(r.s.prefetches.get(), 1);
        assert_eq!(r.d.outstanding_misses(), 2, "demand + prefetch in flight");
        // Once both fills land, the next line hits without a miss.
        let now = at + 20;
        r.d.begin_cycle(now, &mut r.b, &mut r.s);
        let next = r.d.try_load(now, Addr::new(0x1020), 8, &mut r.b, &mut r.s);
        assert!(
            matches!(
                next,
                LoadOutcome::Ready {
                    source: LoadSource::L1Hit,
                    ..
                }
            ),
            "{next:?}"
        );
        assert_eq!(r.s.prefetch_useful.get(), 1);
    }

    #[test]
    fn prefetch_disabled_by_default() {
        let mut r = rig(|_| {});
        r.d.begin_cycle(0, &mut r.b, &mut r.s);
        let _ = r.d.try_load(0, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        assert_eq!(r.s.prefetches.get(), 0);
        assert_eq!(r.d.outstanding_misses(), 1);
    }

    #[test]
    fn prefetch_never_steals_the_last_mshr_chain() {
        // With one MSHR the demand miss takes it; the prefetcher must
        // quietly decline rather than fail.
        let mut r = rig(|c| {
            c.next_line_prefetch = true;
            c.mshrs = 1;
        });
        r.d.begin_cycle(0, &mut r.b, &mut r.s);
        let out = r.d.try_load(0, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        assert!(matches!(out, LoadOutcome::Ready { .. }));
        assert_eq!(r.s.prefetches.get(), 0);
    }

    #[test]
    fn port_accounting_adds_up() {
        let mut r = rig(|c| c.ports.count = 2);
        let now = warm(&mut r, 0x1000);
        let _ = r.d.try_load(now, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        r.d.end_cycle(now, &mut r.b, &mut r.s);
        // warm() closed one cycle (1 slot used) and this test closed a
        // second (1 of 2 used).
        assert_eq!(r.s.port_slots_offered.get(), 2 + 2);
        assert_eq!(r.s.port_slots_used.get(), 1 + 1);
        assert_eq!(r.s.slots_per_cycle.total(), 2);
        assert_eq!(r.s.slots_per_cycle.count(1), 2);
    }
}
