//! Commit-slot cycle accounting: the CPI stack.
//!
//! Every simulated cycle offers `commit_width` commit slots. Each slot
//! either retires an instruction ([`StallCause::Base`]) or is lost to
//! exactly one cause in the fixed taxonomy below — attributed at the
//! ROB head, the top-down way: *why did the oldest instruction not
//! retire this cycle?* The resulting [`CpiStack`] obeys a hard
//! conservation invariant,
//!
//! ```text
//! sum(slots per cause) == cycles × commit_width
//! ```
//!
//! enforced by a `debug_assert!` after every step (including the
//! scheduler's cycle-skipping bulk path) and by property tests across
//! random programs and window sizes. Dividing
//! each component by `commit_width × instructions` decomposes CPI into
//! additive per-cause terms, so two configurations' stacks subtract
//! into an explanation ("the 1-port machine loses 0.21 CPI to port
//! conflicts") — the `cpe explain` view.

/// Where a commit slot went. One cause per slot, no overlaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum StallCause {
    /// The slot committed an instruction — the useful-work component.
    Base,
    /// The frontend had nothing ready: fetch latency, a decode gap, or
    /// an instruction-cache stall starved the window.
    FetchStarved,
    /// Fetch was squashed behind an unresolved mispredicted branch or a
    /// redirect/trap penalty.
    BranchRecovery,
    /// The head was waiting on operands while dispatch was blocked by a
    /// full reorder buffer (window pressure, not a memory event).
    RobFull,
    /// The head was waiting on operands while dispatch was blocked by a
    /// full load or store queue.
    LsqFull,
    /// The head was executing (or waiting for) a functional unit: ALU
    /// latency, a busy AGU, or an L1-class access in flight.
    FuBusy,
    /// The head load lost data-cache port arbitration (no free slot, or
    /// a bank conflict) and retries next cycle — the paper's subject.
    DcachePortConflict,
    /// The head load was in flight serving from a line buffer.
    LineBufferWait,
    /// The head load needed a new MSHR and none was free.
    MshrFull,
    /// The head load was in flight waiting on an outstanding miss (a new
    /// miss or one it merged into).
    MshrWait,
    /// Commit stalled behind a store the memory system rejected (store
    /// buffer full / no drain slot).
    StoreBufferFull,
    /// The head was waiting on operands or memory ordering with no more
    /// specific backend cause.
    DependencyWait,
    /// The machine was draining: no instruction anywhere in flight (the
    /// cycle-skipped quiesce tail).
    Idle,
}

impl StallCause {
    /// Number of causes in the taxonomy.
    pub const COUNT: usize = 13;

    /// Every cause, in declaration (and export) order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::Base,
        StallCause::FetchStarved,
        StallCause::BranchRecovery,
        StallCause::RobFull,
        StallCause::LsqFull,
        StallCause::FuBusy,
        StallCause::DcachePortConflict,
        StallCause::LineBufferWait,
        StallCause::MshrFull,
        StallCause::MshrWait,
        StallCause::StoreBufferFull,
        StallCause::DependencyWait,
        StallCause::Idle,
    ];

    /// Stable snake_case name, used verbatim by the report, the JSON
    /// export and `cpe explain`.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Base => "base",
            StallCause::FetchStarved => "fetch_starved",
            StallCause::BranchRecovery => "branch_recovery",
            StallCause::RobFull => "rob_full",
            StallCause::LsqFull => "lsq_full",
            StallCause::FuBusy => "fu_busy",
            StallCause::DcachePortConflict => "dcache_port_conflict",
            StallCause::LineBufferWait => "line_buffer_wait",
            StallCause::MshrFull => "mshr_full",
            StallCause::MshrWait => "mshr_wait",
            StallCause::StoreBufferFull => "store_buffer_full",
            StallCause::DependencyWait => "dependency_wait",
            StallCause::Idle => "idle",
        }
    }

    /// One-line description for tables and docs.
    pub fn describe(self) -> &'static str {
        match self {
            StallCause::Base => "slot committed an instruction",
            StallCause::FetchStarved => "frontend starved (fetch/decode/icache)",
            StallCause::BranchRecovery => "mispredict or redirect recovery",
            StallCause::RobFull => "operand wait under a full ROB",
            StallCause::LsqFull => "operand wait under a full LSQ",
            StallCause::FuBusy => "functional unit latency or contention",
            StallCause::DcachePortConflict => "d-cache port/bank conflict retry",
            StallCause::LineBufferWait => "load in flight from a line buffer",
            StallCause::MshrFull => "load blocked: no free MSHR",
            StallCause::MshrWait => "load waiting on an outstanding miss",
            StallCause::StoreBufferFull => "commit blocked on a rejected store",
            StallCause::DependencyWait => "operand or ordering wait",
            StallCause::Idle => "machine drained (quiesce tail)",
        }
    }

    /// Position of this cause in [`StallCause::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-cause commit-slot totals. Pure bookkeeping: recording can never
/// change timing, so the stack is always on (no feature gate).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CpiStack {
    slots: [u64; StallCause::COUNT],
}

impl CpiStack {
    /// A zeroed stack.
    pub fn new() -> CpiStack {
        CpiStack::default()
    }

    /// Attribute `slots` commit slots to `cause`.
    #[inline]
    pub fn record(&mut self, cause: StallCause, slots: u64) {
        self.slots[cause.index()] += slots;
    }

    /// Slots attributed to `cause` so far.
    pub fn get(&self, cause: StallCause) -> u64 {
        self.slots[cause.index()]
    }

    /// Total slots attributed — equals `cycles × commit_width` by the
    /// conservation invariant.
    pub fn total(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// `(cause, slots)` in [`StallCause::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL
            .iter()
            .map(move |&c| (c, self.slots[c.index()]))
    }

    /// The raw per-cause array, in [`StallCause::ALL`] order.
    pub fn slots(&self) -> [u64; StallCause::COUNT] {
        self.slots
    }

    /// Component-wise difference against an earlier snapshot, for epoch
    /// deltas.
    pub fn delta(&self, earlier: &CpiStack) -> CpiStack {
        let mut out = CpiStack::new();
        for (i, slot) in out.slots.iter_mut().enumerate() {
            *slot = self.slots[i] - earlier.slots[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for cause in StallCause::ALL {
            let name = cause.name();
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{name}"
            );
        }
        assert_eq!(seen.len(), StallCause::COUNT);
    }

    #[test]
    fn all_is_in_index_order() {
        for (position, cause) in StallCause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), position);
        }
    }

    #[test]
    fn record_and_total() {
        let mut stack = CpiStack::new();
        stack.record(StallCause::Base, 7);
        stack.record(StallCause::DcachePortConflict, 3);
        stack.record(StallCause::Base, 2);
        assert_eq!(stack.get(StallCause::Base), 9);
        assert_eq!(stack.get(StallCause::DcachePortConflict), 3);
        assert_eq!(stack.get(StallCause::Idle), 0);
        assert_eq!(stack.total(), 12);
        assert_eq!(stack.iter().count(), StallCause::COUNT);
    }

    #[test]
    fn delta_subtracts_componentwise() {
        let mut early = CpiStack::new();
        early.record(StallCause::Base, 4);
        let mut late = early.clone();
        late.record(StallCause::Base, 6);
        late.record(StallCause::MshrWait, 2);
        let delta = late.delta(&early);
        assert_eq!(delta.get(StallCause::Base), 6);
        assert_eq!(delta.get(StallCause::MshrWait), 2);
        assert_eq!(delta.total(), 8);
    }
}
