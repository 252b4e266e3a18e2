//! Model-based testing: the data cache's port arbiter against the rule it
//! states, checked on every cycle of random load, store and drain mixes.
//!
//! The rule: a port access (a load the store buffer, line buffers and
//! combining could not serve, an unbuffered store, a store-buffer drain)
//! is granted while fewer than `ports.count` slots were claimed this
//! cycle and, on a banked cache, no access this cycle claimed its bank.
//! A granted access keeps its slot whatever its tag probe finds, a full
//! MSHR file included.
//! The model keeps its own slot count and bank set, and a shadow
//! [`StoreBuffer`] fed the same stores, whose front is what each drain
//! writes. Per cycle it checks:
//!
//! * every grant found a free slot and a free bank, so grants never
//!   exceed the ports and no bank is granted twice;
//! * a `NoPort` (or a store turned away at the port) happens only when
//!   the slots or that bank were already taken;
//! * the cycle's `port_slots_used` and `bank_conflicts` are exactly what
//!   the model's grants and lost banks add up to;
//! * a parked cycle (one that accepted, drained and rejected nothing)
//!   presented again with the same requests repeats exactly: stepping a
//!   few repeats on a clone records the same statistics as skipping them
//!   with `record_skipped_cycles`.

use cpe_mem::{
    Addr, Backside, DCache, LoadOutcome, LoadSource, MemConfig, MemStats, StoreBuffer, StoreOutcome,
};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Request {
    Load { addr: u64, bytes: u64 },
    Store { addr: u64, bytes: u64 },
}

#[derive(Debug, Clone, Copy)]
struct Machine {
    ports: u32,
    banks: u32,
    combining: bool,
    store_buffer: usize,
    mshrs: usize,
    width: u64,
}

impl Machine {
    fn config(self) -> MemConfig {
        let mut config = MemConfig::default();
        config.ports.count = self.ports;
        config.ports.banks = self.banks;
        config.ports.width_bytes = self.width;
        config.ports.load_combining = self.combining;
        config.store_buffer.entries = self.store_buffer;
        config.store_buffer.combining = self.combining;
        config.line_buffers.entries = 2;
        config.line_buffers.width_bytes = 16;
        config.mshrs = self.mshrs;
        config.validate();
        config
    }
}

/// The model's view of one cycle's ports.
struct Ports {
    count: u32,
    banks: u32,
    width: u64,
    slots: u32,
    claimed: Vec<u32>,
    /// Accesses that found a free slot but a taken bank.
    lost_banks: u64,
}

impl Ports {
    fn new(machine: Machine) -> Ports {
        Ports {
            count: machine.ports,
            banks: machine.banks,
            width: machine.width,
            slots: 0,
            claimed: Vec::new(),
            lost_banks: 0,
        }
    }

    fn bank_of(&self, addr: u64) -> Option<u32> {
        (self.banks > 1).then(|| ((addr / self.width) % u64::from(self.banks)) as u32)
    }

    /// Would an access to `addr` be granted now? Counts a lost bank.
    fn free(&mut self, addr: u64) -> bool {
        if self.slots >= self.count {
            return false;
        }
        let bank_taken = self
            .bank_of(addr)
            .is_some_and(|bank| self.claimed.contains(&bank));
        self.lost_banks += u64::from(bank_taken);
        !bank_taken
    }

    /// Record a grant the arbiter made; it must have been free.
    fn grant(&mut self, addr: u64) {
        assert!(self.slots < self.count, "a grant beyond the port count");
        if let Some(bank) = self.bank_of(addr) {
            assert!(!self.claimed.contains(&bank), "bank {bank} granted twice");
            self.claimed.push(bank);
        }
        self.slots += 1;
    }
}

fn request() -> impl Strategy<Value = Request> {
    // 2 KiB of 4-byte-aligned addresses: 64 lines, many sharing a chunk,
    // a line buffer or a bank, and cold enough to fill a small MSHR file.
    let word = 0u64..512;
    prop_oneof![
        (word.clone(), any::<bool>()).prop_map(|(word, wide)| {
            let bytes = if wide { 8 } else { 4 };
            Request::Load {
                addr: 0x1_0000 + word * 4 / bytes * bytes,
                bytes,
            }
        }),
        (word, any::<bool>()).prop_map(|(word, wide)| {
            let bytes = if wide { 8 } else { 4 };
            Request::Store {
                addr: 0x1_0000 + word * 4 / bytes * bytes,
                bytes,
            }
        }),
    ]
}

/// Run `cycles` (each a gap to its cycle and the requests presented in
/// it) and check the arbiter on every one.
fn check_machine(machine: Machine, cycles: &[(u64, Vec<Request>)]) -> Result<(), TestCaseError> {
    let config = machine.config();
    let mut dcache = DCache::new(&config);
    let mut backside = Backside::new(config.l2, config.latencies);
    let mut stats = MemStats::new(
        config.ports.count as usize,
        config.mshrs,
        machine.store_buffer,
    );
    let mut shadow = StoreBuffer::new(machine.store_buffer, machine.combining, machine.width);
    let mut now = 0;
    for (cycle, (gap, requests)) in cycles.iter().enumerate() {
        now += gap;
        let slots_before = stats.port_slots_used.get();
        let conflicts_before = stats.bank_conflicts.get();
        let drains_before = stats.store_drains.get();
        let mut ports = Ports::new(machine);
        dcache.begin_cycle(now, &mut backside, &mut stats);
        for &request in requests {
            match request {
                Request::Load { addr, bytes } => {
                    let outcome =
                        dcache.try_load(now, Addr::new(addr), bytes, &mut backside, &mut stats);
                    let portless = matches!(
                        outcome,
                        LoadOutcome::Conflict
                            | LoadOutcome::Ready {
                                source: LoadSource::StoreForward
                                    | LoadSource::LineBuffer
                                    | LoadSource::Combined,
                                ..
                            }
                    );
                    if portless {
                        continue;
                    }
                    let free = ports.free(addr);
                    if outcome == LoadOutcome::NoPort {
                        prop_assert!(
                            !free,
                            "cycle {}: NoPort for {:#x} with a slot and its bank free",
                            cycle,
                            addr
                        );
                    } else {
                        // A grant, or an MSHR-full probe that took the slot.
                        prop_assert!(
                            free,
                            "cycle {}: {:?} for {:#x} without a free slot and bank",
                            cycle,
                            outcome,
                            addr
                        );
                        ports.grant(addr);
                    }
                }
                Request::Store { addr, bytes } => {
                    let outcome =
                        dcache.commit_store(now, Addr::new(addr), bytes, &mut backside, &mut stats);
                    if machine.store_buffer > 0 {
                        // Buffered: no port now; the shadow takes the same store.
                        let accepted = shadow.push(now, Addr::new(addr), bytes);
                        prop_assert_eq!(accepted, outcome == StoreOutcome::Accepted);
                        continue;
                    }
                    let free = ports.free(addr);
                    if outcome == StoreOutcome::Accepted {
                        prop_assert!(
                            free,
                            "cycle {}: store to {:#x} granted without a free slot and bank",
                            cycle,
                            addr
                        );
                    }
                    if free {
                        // Accepted, or refused by a full MSHR file after
                        // its tag probe took the slot.
                        ports.grant(addr);
                    }
                }
            }
        }
        dcache.end_cycle(now, &mut backside, &mut stats);

        // Drains write the buffer's front, oldest first, into idle slots.
        let drains = stats.store_drains.get() - drains_before;
        for _ in 0..drains {
            let entry = shadow.pop().expect("a drain empties a buffered store");
            prop_assert!(
                ports.free(entry.chunk_addr),
                "cycle {}: drain of {:#x} without a free slot and bank",
                cycle,
                entry.chunk_addr
            );
            ports.grant(entry.chunk_addr);
        }
        // The first store left behind stopped the drain: no slot, a lost
        // bank, or (slot and bank free) a full MSHR file after its tag
        // probe took the slot.
        if let Some(entry) = shadow.peek() {
            if ports.free(entry.chunk_addr) {
                ports.grant(entry.chunk_addr);
            }
        }
        prop_assert_eq!(dcache.store_buffer_len(), shadow.len(), "cycle {}", cycle);
        let slots = stats.port_slots_used.get() - slots_before;
        prop_assert!(
            slots <= u64::from(machine.ports),
            "cycle {}: {} slots",
            cycle,
            slots
        );
        prop_assert_eq!(slots, u64::from(ports.slots), "cycle {}: slots used", cycle);
        prop_assert_eq!(
            stats.bank_conflicts.get() - conflicts_before,
            ports.lost_banks,
            "cycle {}: bank conflicts",
            cycle
        );
        if dcache.last_cycle_parked() {
            check_parked_repeats(&dcache, &backside, &stats, now, requests, cycle)?;
        }
    }
    Ok(())
}

/// The most repeats of a parked cycle [`check_parked_repeats`] steps.
const PARKED_REPEATS: u64 = 5;

/// Step up to [`PARKED_REPEATS`] repeats of the parked cycle just closed
/// at `now` on clones of the cache, backside and statistics, presenting
/// the same `requests`, and skip as many on another clone of the
/// statistics: the two must be equal. The repeats stop short of the next
/// fill, which installs at the start of its cycle and ends the parking.
fn check_parked_repeats(
    dcache: &DCache,
    backside: &Backside,
    stats: &MemStats,
    now: u64,
    requests: &[Request],
    cycle: usize,
) -> Result<(), TestCaseError> {
    let repeats = dcache.next_fill_at().map_or(PARKED_REPEATS, |fill_at| {
        (fill_at - now - 1).min(PARKED_REPEATS)
    });
    if repeats == 0 {
        return Ok(());
    }
    let mut stepped = dcache.clone();
    let mut stepped_backside = backside.clone();
    let mut stepped_stats = stats.clone();
    for at in now + 1..=now + repeats {
        stepped.begin_cycle(at, &mut stepped_backside, &mut stepped_stats);
        for &request in requests {
            let b = &mut stepped_backside;
            match request {
                Request::Load { addr, bytes } => {
                    stepped.try_load(at, Addr::new(addr), bytes, b, &mut stepped_stats);
                }
                Request::Store { addr, bytes } => {
                    stepped.commit_store(at, Addr::new(addr), bytes, b, &mut stepped_stats);
                }
            }
        }
        stepped.end_cycle(at, &mut stepped_backside, &mut stepped_stats);
        prop_assert!(
            stepped.last_cycle_parked(),
            "cycle {}: repeat at {} did not park",
            cycle,
            at
        );
    }
    let mut skipped_stats = stats.clone();
    dcache.record_skipped_cycles(repeats, true, &mut skipped_stats);
    prop_assert_eq!(
        format!("{stepped_stats:?}"),
        format!("{skipped_stats:?}"),
        "cycle {}: {} parked repeats stepped and skipped",
        cycle,
        repeats
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn grants_keep_to_the_ports_and_banks(
        ports in prop::sample::select(vec![1u32, 2, 4]),
        banks in prop::sample::select(vec![0u32, 2, 4]),
        combining in any::<bool>(),
        store_buffer in prop::sample::select(vec![0usize, 4]),
        mshrs in prop::sample::select(vec![1usize, 2, 8]),
        width in prop::sample::select(vec![8u64, 16]),
        cycles in prop::collection::vec(
            (
                prop::sample::select(vec![1u64, 1, 1, 2, 7, 40]),
                prop::collection::vec(request(), 0..7),
            ),
            1..120,
        ),
    ) {
        let machine = Machine { ports, banks, combining, store_buffer, mshrs, width };
        check_machine(machine, &cycles)?;
    }
}

/// Every port configuration the property samples, run once over one
/// fixed, store-heavy mix, so each combination is exercised on every run
/// whatever the random draw.
#[test]
fn every_machine_keeps_to_the_rule() {
    let mut cycles = Vec::new();
    for cycle in 0..200u64 {
        let requests = (0..5)
            .map(|slot| {
                let word = (cycle * 37 + slot * 11) % 512;
                let addr = 0x1_0000 + word / 2 * 8;
                if (cycle + slot) % 3 == 0 {
                    Request::Store { addr, bytes: 8 }
                } else {
                    Request::Load { addr, bytes: 8 }
                }
            })
            .collect();
        cycles.push((if cycle % 17 == 0 { 30 } else { 1 }, requests));
    }
    for ports in [1, 2, 4] {
        for banks in [0, 2, 4] {
            for combining in [false, true] {
                for store_buffer in [0, 4] {
                    let machine = Machine {
                        ports,
                        banks,
                        combining,
                        store_buffer,
                        mshrs: 2,
                        width: 8,
                    };
                    check_machine(machine, &cycles)
                        .unwrap_or_else(|error| panic!("{machine:?}: {error:?}"));
                }
            }
        }
    }
}
