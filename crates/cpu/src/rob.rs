//! The reorder buffer: a fixed window of slots addressed by sequence
//! number.

use std::ops::{Index, IndexMut};

use cpe_isa::{DynInst, Inst, Mode, OpClass};
use cpe_mem::Cycle;

/// Why an entry is not making progress — recorded each time the issue
/// stage examines it (and, once issued, what is serving it), so commit
/// can attribute the head's stalled cycles to a cause without replaying
/// the issue logic. See `cpe_cpu::cpi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Operands (or a store's address/data) not yet ready. The dispatch
    /// default: an entry the issue stage has never examined waits here.
    Deps,
    /// A load held back by the memory-ordering disambiguation gate.
    Order,
    /// A functional unit (or AGU) was busy.
    Fu,
    /// A load lost data-cache port arbitration (no slot, or a bank
    /// conflict) and will retry.
    NoPort,
    /// A load needed a fresh MSHR and none was free.
    MshrFull,
    /// Issued; an ALU/branch/L1-class latency is in flight.
    Exec,
    /// Issued; the load is being served by an outstanding miss.
    ExecMiss,
    /// Issued; the load is being served from a line buffer.
    ExecLineBuffer,
}

/// One reorder-buffer slot.
///
/// Rename is seq-based: each dispatched instruction receives a
/// monotonically increasing sequence number, and operands record the
/// sequence numbers of their producers. A producer older than the ROB head
/// has retired and is architecturally ready.
#[derive(Debug, Clone)]
pub(crate) struct RobEntry {
    /// The executed-path record.
    pub di: DynInst,
    /// The opcode's class, decoded once (at fetch) and read here by
    /// issue, wakeup and commit.
    pub class: OpClass,
    /// Producers of the register sources (excluding memory/data, below).
    pub src_seqs: [Option<u64>; 2],
    /// For loads/stores: producer of the base (address) register.
    pub addr_seq: Option<u64>,
    /// For stores: producer of the data register.
    pub data_seq: Option<u64>,
    /// Result availability: `Cycle::MAX` until the entry issues, so
    /// "issued and done by `now`" is the one compare `ready_at <= now`.
    pub ready_at: Cycle,
    /// For stores: cycle the effective address became known (address
    /// generation fired), used for load/store disambiguation.
    pub addr_known_at: Option<Cycle>,
    /// Fetch-time annotation: the direction/target prediction was wrong,
    /// so fetch is blocked until this entry resolves.
    pub mispredicted: bool,
    /// Latest stall reason observed by the issue stage (execution-service
    /// class once issued). Feeds commit-slot attribution.
    pub wait: WaitKind,
    /// Wakeup list: sequence numbers of younger consumers to re-evaluate
    /// when this entry's result becomes available. Maintained by the
    /// event-driven scheduler; drained exactly once, at `ready_at`. The
    /// slot keeps the allocation for the life of the core.
    pub waiters: Vec<u64>,
}

impl RobEntry {
    /// An unoccupied slot; [`Rob::push`] overwrites every field.
    fn vacant() -> RobEntry {
        RobEntry {
            di: DynInst {
                pc: 0,
                inst: Inst::nop(),
                mem_addr: None,
                taken: false,
                next_pc: 0,
                mode: Mode::User,
            },
            class: OpClass::IntAlu,
            src_seqs: [None, None],
            addr_seq: None,
            data_seq: None,
            ready_at: Cycle::MAX,
            addr_known_at: None,
            mispredicted: false,
            wait: WaitKind::Deps,
            waiters: Vec::new(),
        }
    }

    /// `true` once the entry has issued.
    pub fn issued(&self) -> bool {
        self.ready_at != Cycle::MAX
    }

    /// `true` once the result is available at cycle `now`.
    pub fn done(&self, now: Cycle) -> bool {
        self.ready_at <= now
    }

    /// `true` for store instructions.
    pub fn is_store(&self) -> bool {
        self.class == OpClass::Store
    }

    /// Byte range `[start, end)` of the memory access, when any.
    pub fn mem_range(&self) -> Option<(u64, u64)> {
        let addr = self.di.mem_addr?;
        Some((addr, addr + self.di.mem_bytes()))
    }
}

/// The in-flight window: `rob_entries.next_power_of_two()` slots, the
/// instruction with sequence number `seq` in slot `seq & mask`.
///
/// The live sequence numbers are `head..tail`, never more than the slot
/// count, so no two live instructions share a slot. Dispatch fills the
/// slot at `tail` in place and commit retires by advancing `head`: no
/// entry moves, and a slot's waiter-list allocation is reused by every
/// instruction that occupies it.
#[derive(Debug)]
pub(crate) struct Rob {
    slots: Box<[RobEntry]>,
    mask: u64,
    /// Sequence number of the oldest in-flight instruction.
    head: u64,
    /// Sequence number the next dispatched instruction receives.
    tail: u64,
}

impl Rob {
    /// An empty window with room for at least `entries` instructions.
    pub fn new(entries: usize) -> Rob {
        let slots = entries.next_power_of_two();
        Rob {
            slots: (0..slots).map(|_| RobEntry::vacant()).collect(),
            mask: slots as u64 - 1,
            head: 0,
            tail: 0,
        }
    }

    /// Instructions in flight.
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// `true` when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Sequence number of the oldest in-flight instruction (equal to
    /// [`Rob::tail`] when empty).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Sequence number the next dispatched instruction receives.
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// The oldest in-flight instruction.
    pub fn front(&self) -> Option<&RobEntry> {
        (!self.is_empty()).then(|| &self[self.head])
    }

    /// Is the producer with sequence number `seq` ready at `now`? A
    /// retired producer is, whatever now occupies its slot.
    pub fn seq_ready(&self, seq: u64, now: Cycle) -> bool {
        seq < self.head || self[seq].done(now)
    }

    /// [`Rob::seq_ready`] for an optional producer (`None` is ready).
    pub fn dep_ready(&self, dep: Option<u64>, now: Cycle) -> bool {
        dep.is_none_or(|seq| self.seq_ready(seq, now))
    }

    /// Dispatch `di` (of opcode class `class`) into the slot at the
    /// tail, with no resolved operands, and return its sequence number.
    /// The caller checks for room first.
    pub fn push(&mut self, di: DynInst, class: OpClass, mispredicted: bool) -> u64 {
        debug_assert!(self.len() < self.slots.len(), "the window is full");
        let seq = self.tail;
        self.tail += 1;
        let entry = &mut self[seq];
        entry.di = di;
        entry.class = class;
        entry.src_seqs = [None, None];
        entry.addr_seq = None;
        entry.data_seq = None;
        entry.ready_at = Cycle::MAX;
        entry.addr_known_at = None;
        entry.mispredicted = mispredicted;
        entry.wait = WaitKind::Deps;
        entry.waiters.clear();
        seq
    }

    /// Retire the oldest instruction. Its slot keeps its contents until
    /// the next dispatch into it.
    pub fn pop_front(&mut self) {
        debug_assert!(!self.is_empty(), "nothing to retire");
        self.head += 1;
    }
}

impl Index<u64> for Rob {
    type Output = RobEntry;

    fn index(&self, seq: u64) -> &RobEntry {
        debug_assert!(
            (self.head..self.tail).contains(&seq),
            "seq {seq} is not in flight"
        );
        &self.slots[(seq & self.mask) as usize]
    }
}

impl IndexMut<u64> for Rob {
    fn index_mut(&mut self, seq: u64) -> &mut RobEntry {
        debug_assert!(
            (self.head..self.tail).contains(&seq),
            "seq {seq} is not in flight"
        );
        &mut self.slots[(seq & self.mask) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpe_isa::{Op, Reg};

    fn di(op: Op) -> DynInst {
        let inst = match op.class() {
            OpClass::Load => Inst::load(op, Reg::x(1), Reg::SP, 0),
            OpClass::Store => Inst::store(op, Reg::x(1), Reg::SP, 0),
            _ => Inst::nop(),
        };
        DynInst {
            pc: 0x1000,
            inst,
            mem_addr: op.is_mem().then_some(0x2000),
            taken: false,
            next_pc: 0x1004,
            mode: Mode::User,
        }
    }

    fn entry(op: Op) -> RobEntry {
        let mut rob = Rob::new(1);
        let seq = rob.push(di(op), op.class(), false);
        rob[seq].clone()
    }

    #[test]
    fn done_requires_issue_and_elapsed_latency() {
        let mut e = entry(Op::Add);
        assert!(!e.done(100) && !e.issued());
        e.ready_at = 10;
        assert!(e.issued());
        assert!(!e.done(9));
        assert!(e.done(10));
    }

    #[test]
    fn classification_and_ranges() {
        assert_eq!(entry(Op::Ld).class, OpClass::Load);
        assert!(entry(Op::Sw).is_store());
        assert!(!entry(Op::Ld).is_store());
        assert_eq!(entry(Op::Ld).mem_range(), Some((0x2000, 0x2008)));
        assert_eq!(entry(Op::Sw).mem_range(), Some((0x2000, 0x2004)));
        assert_eq!(entry(Op::Add).mem_range(), None);
    }

    #[test]
    fn window_rounds_up_to_a_power_of_two_and_wraps() {
        let mut rob = Rob::new(5);
        assert_eq!(rob.slots.len(), 8);
        for round in 0..3u64 {
            for k in 0..5 {
                assert_eq!(
                    rob.push(di(Op::Add), OpClass::IntAlu, k % 2 == 0),
                    round * 5 + k
                );
            }
            assert_eq!(rob.len(), 5);
            for k in 0..5 {
                assert_eq!(rob[round * 5 + k].mispredicted, k % 2 == 0);
            }
            while !rob.is_empty() {
                rob.pop_front();
            }
            assert_eq!(rob.head(), rob.tail());
        }
    }

    #[test]
    fn retired_producer_is_ready_after_its_slot_is_refilled() {
        for entries in [1usize, 5] {
            let slots = entries.next_power_of_two() as u64;
            let mut rob = Rob::new(entries);
            let producer = rob.push(di(Op::Add), OpClass::IntAlu, false);
            rob[producer].ready_at = 3;
            rob[producer].waiters.push(producer + 1);
            assert!(!rob.seq_ready(producer, 2));
            assert!(rob.seq_ready(producer, 3));
            rob.pop_front();
            // Dispatch (retiring as the window fills) until the
            // producer's slot holds a younger, unissued instruction.
            for _ in 0..slots {
                if rob.len() == entries {
                    rob.pop_front();
                }
                rob.push(di(Op::Ld), OpClass::Load, false);
            }
            let refill = rob.tail() - 1;
            assert_eq!(refill & rob.mask, producer & rob.mask);
            assert!(rob[refill].class == OpClass::Load && !rob[refill].issued());
            assert!(rob[refill].waiters.is_empty(), "refill clears waiters");
            // The retired producer stays ready; its successor is not.
            assert!(rob.seq_ready(producer, 0));
            assert!(!rob.seq_ready(refill, u64::MAX - 1));
            assert!(rob.dep_ready(None, 0));
        }
    }
}
