//! The level-one data cache with configurable ports and the paper's
//! port-efficiency techniques.
//!
//! Per-cycle protocol (driven by [`crate::MemSystem`]):
//!
//! 1. `begin_cycle` — completed misses install, port slots reset;
//! 2. `try_load` / `commit_store` — loads take slots with priority;
//! 3. `end_cycle` — the store buffer drains into idle slots.
//!
//! Every port access — a load, an unbuffered store, a drain — claims its
//! slot and bank through one claim (`claim_port`), which records the
//! grant in the cycle's one grant list; the bank check and load combining
//! both read that list. Every L1 miss runs one miss sequence (`access`).
//! A port refusal is counted into the cycle's tally where it happens, and
//! stepped and skipped cycles record their per-cycle statistics, the
//! refusal counters among them, through one close (`close_cycles`).

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

/// Why [`DCache::claim_port`] turned an access away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortDenied {
    /// Every port slot this cycle was already claimed.
    NoSlot,
    /// Another access this cycle already claimed the address's bank.
    Bank,
}

/// Outcome of presenting a committed store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The store was buffered (or written directly when unbuffered).
    Accepted,
    /// No room (buffer full / no port / MSHR full) — retry next cycle.
    Rejected,
}

/// One port slot granted this cycle.
#[derive(Debug, Clone, Copy)]
struct Grant {
    /// The bank the access claimed (banked ports only).
    bank: Option<u32>,
    /// For a load that fits one port-width chunk: that chunk and the cycle
    /// its data is ready, which later loads to the chunk share when
    /// combining.
    chunk: Option<(u64, Cycle)>,
}

/// What one cycle did at the data-cache ports besides its grants: the
/// port requests it refused, counted where each refusal happens. Only
/// [`DCache::close_cycles`] adds them to [`MemStats`]; a parked cycle's
/// tally is what each of its exact repeats records again.
#[derive(Debug, Clone, Copy, Default)]
struct CycleTally {
    /// Port requests denied (no free slot or bank conflict); the CPU holds
    /// these in its queues and retries, so the count is the depth of the
    /// implicit port request queue.
    port_rejects: u64,
    /// Loads refused for a full MSHR file (`load_mshr_full`).
    mshr_full: u64,
    /// Loads refused a port (`load_no_port`).
    no_port: u64,
    /// Accesses that lost their bank (`bank_conflicts`).
    bank_conflicts: u64,
    /// Loads refused by a partial store-buffer overlap
    /// (`load_sb_conflicts`).
    sb_conflicts: u64,
}

/// Loads accepted + stores accepted + stores drained + stores rejected:
/// a cycle that changes this moved state (or, for a rejected committed
/// store, retries on the CPU side).
fn activity(stats: &MemStats) -> u64 {
    stats.loads.get() + stats.stores.get() + stats.store_drains.get() + stats.store_rejected.get()
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
    /// This cycle's port grants, in grant order (never more than
    /// `ports.count`).
    grants: Vec<Grant>,
    /// This cycle's port refusals so far.
    tally: CycleTally,
    /// [`activity`] at the start of this cycle.
    activity_at_begin: u64,
    /// The last closed cycle's tally, when that cycle accepted, drained
    /// and rejected nothing (it was parked on the memory system); its
    /// grants stay in `grants` until the next `begin_cycle`.
    parked: Option<CycleTally>,
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
            grants: Vec::with_capacity(config.ports.count as usize),
            tally: CycleTally::default(),
            activity_at_begin: 0,
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
        if self.cache.contains(next) {
            return;
        }
        // An outstanding line merges (a clean merge changes nothing) and a
        // full file declines; only an allocation fetches.
        let fetch = || backside.fetch_line(now, next, stats);
        if let MshrResult::Allocated(_) = self.mshr.request(now, next.get(), false, fetch) {
            self.prefetched_pending.insert(next.get());
            stats.prefetches.inc();
        }
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
        self.grants.clear();
        self.tally = CycleTally::default();
        self.activity_at_begin = activity(stats);
        let line_bytes = self.line_bytes();
        while let Some((line_addr, dirty, allocated_at)) = self.mshr.pop_completed(now) {
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
                self.tally.sb_conflicts += 1;
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
        let chunk = addr
            .fits_in_block(bytes, width)
            .then(|| addr.align_down(width).get());
        if let Some(chunk) = chunk.filter(|_| self.ports.load_combining) {
            let first = self
                .grants
                .iter()
                .find_map(|g| g.chunk.filter(|c| c.0 == chunk));
            if let Some((_, ready)) = first {
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
        if let Err(denied) = self.claim_port(now, addr.get()) {
            self.tally.no_port += 1;
            self.tally.port_rejects += 1;
            if denied == PortDenied::NoSlot {
                self.trace.emit(now, EventKind::PortConflict, addr.get(), 0);
            }
            return LoadOutcome::NoPort;
        }
        let Some((at, source)) = self.access(now, addr, false, backside, stats) else {
            // The tag probe consumed the slot.
            self.tally.mshr_full += 1;
            self.trace.emit(now, EventKind::MshrFull, addr.get(), 0);
            return LoadOutcome::MshrFull;
        };
        stats.loads.inc();
        let line = self.cache.geometry().tag(addr.get());
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
                self.trace.emit(now, EventKind::MshrMerge, line, 0);
                PORT_GRANT_MISS_MERGED
            }
            LoadSource::Miss => {
                stats.load_misses.inc();
                self.trace.emit(now, EventKind::MshrAlloc, line, 0);
                PORT_GRANT_MISS
            }
            _ => unreachable!("port path sources only"),
        };
        self.trace
            .emit(now, EventKind::PortGrant, addr.get(), grant_code);
        if let Some(chunk) = chunk {
            self.grants.last_mut().expect("this load's grant").chunk = Some((chunk, at));
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
            if let Err(denied) = self.claim_port(now, addr.get()) {
                stats.store_rejected.inc();
                self.tally.port_rejects += 1;
                if denied == PortDenied::NoSlot {
                    self.trace.emit(now, EventKind::StoreReject, addr.get(), 0);
                }
                return StoreOutcome::Rejected;
            }
            if self.write_access(now, addr, backside, stats).is_err() {
                // MSHR full: the tag probe consumed the slot.
                stats.store_rejected.inc();
                self.trace.emit(now, EventKind::StoreReject, addr.get(), 0);
                return StoreOutcome::Rejected;
            }
            stats.stores.inc();
            // A direct write never waited in the buffer.
            stats.store_commit_latency.record(0);
            self.line_buffers.invalidate_overlapping(addr, bytes);
            self.trace.emit(now, EventKind::StoreCommit, addr.get(), 0);
            StoreOutcome::Accepted
        }
    }

    /// Phase 3: drain buffered stores through idle port slots and account
    /// for the cycle's port usage.
    pub fn end_cycle(&mut self, now: Cycle, backside: &mut Backside, stats: &mut MemStats) {
        while let Some(entry) = self.store_buffer.peek().copied() {
            if self.claim_port(now, entry.chunk_addr).is_err() {
                break;
            }
            let addr = Addr::new(entry.chunk_addr);
            if self.write_access(now, addr, backside, stats).is_err() {
                // MSHR full: the tag probe consumed the slot; try again
                // next cycle.
                break;
            }
            self.store_buffer.pop();
            stats.store_drains.inc();
            stats
                .store_commit_latency
                .record(now.saturating_sub(entry.pushed_at));
            self.trace
                .emit(now, EventKind::StoreDrain, entry.chunk_addr, 0);
        }
        debug_assert!(self.grants.len() <= self.ports.count as usize);
        self.close_cycles(1, self.grants.len() as u64, self.tally, stats);
        self.parked = (activity(stats) == self.activity_at_begin).then_some(self.tally);
    }

    /// Record the per-cycle statistics of `n` closed cycles that each used
    /// `slots` port slots and refused what `tally` says, with the MSHR file
    /// and store buffer as they stand: the one close stepped and skipped
    /// cycles share, and the only writer of the refusal counters.
    fn close_cycles(&self, n: u64, slots: u64, tally: CycleTally, stats: &mut MemStats) {
        stats.port_slots_used.add(slots.saturating_mul(n));
        stats
            .port_slots_offered
            .add(u64::from(self.ports.count).saturating_mul(n));
        stats.slots_per_cycle.record_n(slots, n);
        stats.mshr_occupancy.record_n(self.mshr.len() as u64, n);
        stats
            .store_buffer_occupancy
            .record_n(self.store_buffer.len() as u64, n);
        stats.port_queue_depth.record_n(tally.port_rejects, n);
        stats.load_mshr_full.add(tally.mshr_full.saturating_mul(n));
        stats.load_no_port.add(tally.no_port.saturating_mul(n));
        stats
            .bank_conflicts
            .add(tally.bank_conflicts.saturating_mul(n));
        stats
            .load_sb_conflicts
            .add(tally.sb_conflicts.saturating_mul(n));
    }

    /// Claim a port slot, and `addr`'s bank when the ports are banked,
    /// for an access during cycle `now`: the one arbitration rule loads,
    /// unbuffered stores and store-buffer drains share. A slot is free
    /// while fewer than `ports.count` were claimed this cycle, a bank
    /// while no access this cycle claimed it. A grant joins the cycle's
    /// grant list. Losing the bank tallies and traces a bank conflict;
    /// every other consequence of a refusal is the caller's.
    fn claim_port(&mut self, now: Cycle, addr: u64) -> Result<(), PortDenied> {
        if self.grants.len() >= self.ports.count as usize {
            return Err(PortDenied::NoSlot);
        }
        let bank = self.ports.bank_of(addr);
        if let Some(taken) = bank.filter(|&b| self.grants.iter().any(|g| g.bank == Some(b))) {
            self.tally.bank_conflicts += 1;
            self.trace.emit(now, EventKind::BankConflict, addr, taken);
            return Err(PortDenied::Bank);
        }
        self.grants.push(Grant { bank, chunk: None });
        debug_assert!(
            bank.is_none() || self.grants.iter().filter(|g| g.bank == bank).count() == 1,
            "a bank was granted twice in cycle {now}"
        );
        Ok(())
    }

    /// Probe the tags for `addr` (a store when `write`) through a claimed
    /// port, and run an L1 miss through the one miss sequence: swap the
    /// line back from the victim cache, else merge into an outstanding
    /// miss, else give up when the MSHR file is full (`None`), else
    /// allocate (the only case that fetches from the backside) and let the
    /// prefetcher follow. Returns when the data is ready and where the
    /// line was found.
    fn access(
        &mut self,
        now: Cycle,
        addr: Addr,
        write: bool,
        backside: &mut Backside,
        stats: &mut MemStats,
    ) -> Option<(Cycle, LoadSource)> {
        let line = Addr::new(self.cache.geometry().tag(addr.get()));
        if self.cache.probe(addr, write) == ProbeResult::Hit {
            self.credit_prefetch(line.get(), stats);
            return Some((now + self.latencies.l1_hit, LoadSource::L1Hit));
        }
        if let Some(dirty) = self.victims.take(line) {
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
            let ready = now + self.latencies.l1_hit + VictimCache::SWAP_LATENCY;
            return Some((ready, LoadSource::VictimHit));
        }
        let fetch = || backside.fetch_line(now, line, stats);
        match self.mshr.request(now, line.get(), write, fetch) {
            MshrResult::Merged(fill_at) => {
                self.credit_prefetch(line.get(), stats);
                let ready = fill_at.max(now + self.latencies.l1_hit);
                Some((ready, LoadSource::MissMerged))
            }
            MshrResult::Full => None,
            MshrResult::Allocated(fill_at) => {
                self.maybe_prefetch(now, line, backside, stats);
                Some((fill_at, LoadSource::Miss))
            }
        }
    }

    /// Write `addr`'s line through a claimed port: in the cache (hit) or
    /// through the miss sequence (write-allocate), or, write-through, to
    /// the L2. `Err(())` means the MSHR file is full.
    fn write_access(
        &mut self,
        now: Cycle,
        addr: Addr,
        backside: &mut Backside,
        stats: &mut MemStats,
    ) -> Result<(), ()> {
        if self.write_policy == WritePolicy::WriteThroughNoAllocate {
            // The store updates the L1 copy when present (clean — the
            // write goes through) and always travels to L2 on the bus;
            // misses do not allocate.
            match self.cache.probe(addr, false) {
                ProbeResult::Hit => stats.store_l1_hits.inc(),
                ProbeResult::Miss => stats.store_misses.inc(),
            }
            let line = Addr::new(self.cache.geometry().tag(addr.get()));
            backside.write_through(now, line, stats);
            return Ok(());
        }
        match self.access(now, addr, true, backside, stats).ok_or(())? {
            (_, LoadSource::L1Hit | LoadSource::VictimHit) => stats.store_l1_hits.inc(),
            _ => stats.store_misses.inc(),
        }
        Ok(())
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
    /// reported. Either way the cycles close through the one close
    /// [`end_cycle`] uses, with the parked cycle's slots and tally or none,
    /// so skipping leaves every statistic bit-identical to stepping.
    ///
    /// [`end_cycle`]: DCache::end_cycle
    pub fn record_skipped_cycles(&self, n: u64, parked: bool, stats: &mut MemStats) {
        let (slots, tally) = if parked {
            let tally = self.parked.expect("the last closed cycle was parked");
            (self.grants.len() as u64, tally)
        } else {
            (0, CycleTally::default())
        };
        self.close_cycles(n, slots, tally, stats);
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
        // Refusals reach the statistics when the cycle closes.
        assert_eq!(r.s.load_no_port.get(), 0);
        r.d.end_cycle(now, &mut r.b, &mut r.s);
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
        r.d.end_cycle(now, &mut r.b, &mut r.s);
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

    /// L2 accesses so far and when the fill bus is next free: the
    /// backside state a fetch changes.
    fn backside_state(r: &Rig) -> (u64, Cycle) {
        (r.s.l2_hits.get() + r.s.l2_misses.get(), r.b.bus_free_at())
    }

    #[test]
    fn only_an_mshr_allocation_reaches_the_backside() {
        let mut r = rig(|c| {
            c.mshrs = 1;
            c.ports.count = 2;
        });
        r.d.begin_cycle(0, &mut r.b, &mut r.s);
        let before = backside_state(&r);
        let first = r.d.try_load(0, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        assert!(matches!(
            first,
            LoadOutcome::Ready {
                source: LoadSource::Miss,
                ..
            }
        ));
        let after_alloc = backside_state(&r);
        assert_eq!(after_alloc.0, before.0 + 1, "one fetch per allocation");
        assert_eq!(after_alloc.1, before.1 + r.d.latencies.fill_interval);
        // A merge into the outstanding line and a refusal for the full
        // file both leave the L2 and the fill bus alone.
        let merged = r.d.try_load(0, Addr::new(0x1010), 8, &mut r.b, &mut r.s);
        assert!(matches!(
            merged,
            LoadOutcome::Ready {
                source: LoadSource::MissMerged,
                ..
            }
        ));
        assert_eq!(backside_state(&r), after_alloc);
        r.d.end_cycle(0, &mut r.b, &mut r.s);
        r.d.begin_cycle(1, &mut r.b, &mut r.s);
        let full = r.d.try_load(1, Addr::new(0x2000), 8, &mut r.b, &mut r.s);
        assert_eq!(full, LoadOutcome::MshrFull);
        // Stores take the same path.
        assert_eq!(
            r.d.commit_store(1, Addr::new(0x3000), 8, &mut r.b, &mut r.s),
            StoreOutcome::Rejected
        );
        assert_eq!(backside_state(&r), after_alloc);
        r.d.end_cycle(1, &mut r.b, &mut r.s);
        assert_eq!(r.s.load_miss_merged.get(), 1);
        assert_eq!(r.s.load_mshr_full.get(), 1);
    }

    #[test]
    fn a_prefetch_probe_of_an_outstanding_line_is_not_a_merge() {
        let mut r = rig(|c| {
            c.next_line_prefetch = true;
            c.ports.count = 2;
        });
        r.d.begin_cycle(0, &mut r.b, &mut r.s);
        // 0x1020 misses and prefetches 0x1040; 0x1000 misses, and its
        // prefetch finds 0x1020 already outstanding.
        for addr in [0x1020, 0x1000] {
            let out = r.d.try_load(0, Addr::new(addr), 8, &mut r.b, &mut r.s);
            assert!(matches!(
                out,
                LoadOutcome::Ready {
                    source: LoadSource::Miss,
                    ..
                }
            ));
        }
        assert_eq!(r.s.prefetches.get(), 1);
        assert_eq!(r.s.load_miss_merged.get(), 0);
        assert_eq!(r.d.outstanding_misses(), 3);
        assert_eq!(
            backside_state(&r).0,
            3,
            "two demand fetches and one prefetch"
        );
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
        let other_bank = r.d.try_load(now, Addr::new(0x1008), 8, &mut r.b, &mut r.s);
        assert!(
            matches!(other_bank, LoadOutcome::Ready { .. }),
            "different bank must proceed: {other_bank:?}"
        );
        r.d.end_cycle(now, &mut r.b, &mut r.s);
        assert_eq!(r.s.bank_conflicts.get(), 1);
    }

    #[test]
    fn unbanked_config_never_conflicts() {
        let mut r = rig(|c| c.ports.count = 2);
        let now = warm(&mut r, 0x1000);
        let _ = r.d.try_load(now, Addr::new(0x1000), 8, &mut r.b, &mut r.s);
        let _ = r.d.try_load(now, Addr::new(0x1010), 8, &mut r.b, &mut r.s);
        r.d.end_cycle(now, &mut r.b, &mut r.s);
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
