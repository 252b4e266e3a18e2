//! The cycle-level out-of-order core.

use std::collections::VecDeque;
use std::iter::Peekable;

use cpe_isa::{DynInst, Mode, Op, OpClass, Reg, INST_BYTES};
use cpe_mem::{Addr, Cycle, LoadOutcome, LoadSource, MemStats, MemSystem, StoreOutcome};
use cpe_trace::{EventKind, TraceHandle};

use crate::bpred::{Btb, DirectionPredictor, Ras};
use crate::config::{CpuConfig, DirPredictorKind};
use crate::cpi::StallCause;
use crate::fu::FuPool;
#[cfg(test)]
use crate::lsq::ranges_overlap;
use crate::lsq::{range_covers, LoadGate};
use crate::rob::{Rob, RobEntry, WaitKind};
use crate::sched::Scheduler;
use crate::stats::CpuStats;
use crate::watchdog::WatchdogReport;

/// A simulation's outputs: cycle count, instruction count, and the full
/// processor/memory statistics.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Core-side counters.
    pub cpu: CpuStats,
    /// Memory-side counters.
    pub mem: MemStats,
}

impl SimResult {
    /// Committed instructions per cycle — the paper's figure of merit.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Fetched {
    di: DynInst,
    /// The opcode's class, decoded once at fetch.
    class: OpClass,
    mispredicted: bool,
    available_at: Cycle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallReason {
    Redirect,
    ICache,
}

/// What fetch would do at a cycle: [`Core::fetch_gate`]'s answer, read by
/// fetch itself, the cycle skipper and the commit-slot attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchGate {
    /// Fetch the next block.
    Go,
    /// Blocked on a mispredicted branch, dragging a wrong-path block
    /// through the instruction cache.
    WrongPath,
    /// The stream is drained.
    Drained,
    /// Blocked on a mispredicted branch with no wrong path to fetch.
    Blocked,
    /// Stalled until `fetch_resume_at` for a redirect or an icache miss.
    Stalled(StallReason),
    /// The fetch buffer is full.
    Full,
}

/// What dispatch would do with the fetch-buffer front at a cycle:
/// [`Core::dispatch_gate`]'s answer, read by dispatch itself, the cycle
/// skipper and the commit-slot attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchGate {
    /// Dispatch the front.
    Go,
    /// Nothing to dispatch, or a serialising instruction must wait;
    /// `Some(t)` when the front becomes dispatchable by itself at `t`.
    Wait(Option<Cycle>),
    /// The reorder buffer is full.
    RobFull,
    /// The front's load or store queue is full.
    LsqFull,
}

/// The dynamic superscalar timing model.
///
/// Consumes a committed-path [`DynInst`] stream from any iterator —
/// usually an [`crate::Emulator`] (possibly wrapped by the OS-activity
/// injector from `cpe-workloads`) on the direct path, or a replayed
/// recording on the replay path — and owns the [`MemSystem`] whose
/// data-cache port behaviour is under study. The stream must be
/// deterministic: the same records in the same order on every run. See
/// the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Core<I: Iterator<Item = DynInst>> {
    config: CpuConfig,
    mem: MemSystem,
    /// The stream, with the one instruction of lookahead the frontend
    /// needs for block-boundary and end-of-stream decisions.
    trace: Peekable<I>,
    now: Cycle,
    /// The reorder buffer; its tail is the next sequence number.
    rob: Rob,
    fetch_buffer: VecDeque<Fetched>,
    /// Architectural register → sequence number of its latest in-flight
    /// producer.
    map: [Option<u64>; Reg::COUNT],
    predictor: DirectionPredictor,
    btb: Btb,
    ras: Ras,
    fu: FuPool,
    /// Fetch produces nothing before this cycle.
    fetch_resume_at: Cycle,
    stall_reason: StallReason,
    /// Fetch halted until an in-flight mispredicted transfer resolves.
    fetch_blocked_on_branch: bool,
    /// Next wrong-path fetch address and blocks remaining, while blocked
    /// on a misprediction (only with `wrong_path_fetch`).
    wrong_path: Option<(u64, u32)>,
    /// A serialising instruction (syscall/eret) is in flight.
    serialize: bool,
    /// Load-queue occupancy: claimed at dispatch, released at commit.
    /// The store queue's is the scheduler's in-flight store count; their
    /// sum is sampled into `stats.lsq_occupancy` each cycle.
    loads_in_flight: usize,
    stats: CpuStats,
    last_mode: Mode,
    /// Deadlock detector: cycles since the last commit or dispatch.
    stuck_cycles: u64,
    /// Event-driven wakeup/select state: issue candidates, completion
    /// wakeups, and the in-flight store queue for disambiguation.
    sched: Scheduler,
    /// The last stepped cycle when it was *parked* — nothing moved
    /// except loads bouncing off the memory system — with the candidate
    /// add count read when its issue walk began; see
    /// [`Core::try_skip_idle`].
    parked: Option<(Cycle, u64)>,
    /// Cycle-skipping never jumps past a multiple of this count of
    /// `stats.cycles` (0 = unbounded); see [`Core::set_step_quantum`].
    step_quantum: u64,
    /// Observability: pipeline-stage events flow through here. Detached
    /// (a no-op) unless [`Core::set_trace`] attaches a ring.
    tracer: TraceHandle,
    /// Drive issue with the legacy per-cycle broadcast scan instead of
    /// the event-driven candidate walk — the reference oracle the
    /// property tests compare against.
    #[cfg(test)]
    oracle: bool,
    /// Every `(cycle, seq)` issue, in order — for oracle comparison.
    #[cfg(test)]
    issue_log: Vec<(Cycle, u64)>,
    /// Every `(cycle, seq)` commit, in order — for oracle comparison.
    #[cfg(test)]
    commit_log: Vec<(Cycle, u64)>,
    /// Skips taken over a non-empty candidate set or store buffer.
    #[cfg(test)]
    parked_skips: u64,
}

impl<I: Iterator<Item = DynInst>> Core<I> {
    /// Build a core over a memory system and an instruction stream.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`CpuConfig::validate`].
    pub fn new(config: CpuConfig, mem: MemSystem, trace: I) -> Core<I> {
        config.validate();
        let sched = Scheduler::new(config.rob_entries);
        let rob = Rob::new(config.rob_entries);
        Core {
            predictor: DirectionPredictor::new(config.predictor),
            btb: Btb::new(config.btb_entries),
            ras: Ras::new(config.ras_entries),
            fu: FuPool::new(config.fu),
            stats: CpuStats::new(
                config.rob_entries,
                config.commit_width as usize,
                config.load_queue + config.store_queue,
            ),
            loads_in_flight: 0,
            config,
            mem,
            trace: trace.peekable(),
            now: 0,
            rob,
            fetch_buffer: VecDeque::new(),
            map: [None; Reg::COUNT],
            fetch_resume_at: 0,
            stall_reason: StallReason::Redirect,
            fetch_blocked_on_branch: false,
            wrong_path: None,
            serialize: false,
            last_mode: Mode::User,
            stuck_cycles: 0,
            sched,
            parked: None,
            step_quantum: 0,
            tracer: TraceHandle::off(),
            #[cfg(test)]
            oracle: false,
            #[cfg(test)]
            issue_log: Vec::new(),
            #[cfg(test)]
            commit_log: Vec::new(),
            #[cfg(test)]
            parked_skips: 0,
        }
    }

    /// Bound cycle-skipping so `stats.cycles` lands exactly on every
    /// multiple of `quantum` (0, the default, leaves it unbounded). The
    /// profiler sets this to its sampling interval so epoch snapshots
    /// observe the same cycle boundaries as per-cycle stepping.
    pub fn set_step_quantum(&mut self, quantum: u64) {
        self.step_quantum = quantum;
    }

    /// Attach a trace handle. The core emits fetch/issue/commit and
    /// watchdog events through it, and a clone is forwarded to the
    /// memory system for the port-attribution events. With the `trace`
    /// feature off (or a detached handle) every emission is a no-op.
    pub fn set_trace(&mut self, handle: TraceHandle) {
        self.mem.set_trace(handle.clone());
        self.tracer = handle;
    }

    /// Run until the stream is drained and the machine quiesces, or until
    /// `max_insts` instructions have committed. The livelock watchdog
    /// aborts the run with a diagnostic [`WatchdogReport`] when the
    /// pipeline makes no progress for [`CpuConfig::watchdog_cycles`]
    /// cycles (a modelling bug, not a program property).
    pub fn try_run(mut self, max_insts: Option<u64>) -> Result<SimResult, Box<WatchdogReport>> {
        let limit = max_insts.unwrap_or(u64::MAX);
        while self.try_step()? {
            if self.stats.committed.get() >= limit {
                break;
            }
        }
        Ok(SimResult {
            cycles: self.stats.cycles.get(),
            committed: self.stats.committed.get(),
            cpu: self.stats,
            mem: self.mem.stats().clone(),
        })
    }

    /// `true` when nothing remains anywhere in the machine.
    fn finished(&mut self) -> bool {
        self.trace.peek().is_none()
            && self.fetch_buffer.is_empty()
            && self.rob.is_empty()
            && self.mem.is_quiesced()
    }

    /// Simulate one cycle. `Ok(false)` once the machine has finished;
    /// `Err` with a diagnostic snapshot when no instruction has committed
    /// for [`CpuConfig::watchdog_cycles`] consecutive cycles (0 disables
    /// the watchdog).
    pub fn try_step(&mut self) -> Result<bool, Box<WatchdogReport>> {
        if self.finished() {
            return Ok(false);
        }
        let now = self.now;
        #[cfg(test)]
        let event_driven = !self.oracle;
        #[cfg(not(test))]
        let event_driven = true;
        if event_driven {
            self.wake(now);
            if self.try_skip_idle(now)? {
                self.assert_cpi_conservation();
                return Ok(true);
            }
        }
        self.mem.begin_cycle(now);
        self.fu.begin_cycle(now);

        let committed_before = self.stats.committed.get();
        self.commit(now);
        let adds_at_walk = self.sched.candidate_adds();
        let walk_parked = self.issue(now);
        self.dispatch(now);
        self.fetch(now);
        self.mem.end_cycle(now);
        let parked = walk_parked
            && self.stats.committed.get() == committed_before
            && self.mem.last_cycle_parked();
        self.parked = parked.then_some((now, adds_at_walk));
        self.close_cycles(now, 1, self.stats.committed.get() != committed_before)?;
        self.assert_cpi_conservation();
        self.now += 1;
        Ok(true)
    }

    /// The bookkeeping every closed cycle records, for the `n` cycles
    /// from `now` on (one stepped cycle, or a skipped span): the cycle
    /// count, window and queue occupancy, user/kernel mode, and a step
    /// of the stuck-cycle watchdog. `committed` says whether any of them
    /// committed. `Err` when the watchdog fires; its report names the
    /// last of the `n` cycles.
    fn close_cycles(
        &mut self,
        now: Cycle,
        n: u64,
        committed: bool,
    ) -> Result<(), Box<WatchdogReport>> {
        self.stats.cycles.add(n);
        self.stats.rob_occupancy.record_n(self.rob.len() as u64, n);
        self.stats.lsq_occupancy.record_n(
            (self.loads_in_flight + self.sched.stores_in_flight()) as u64,
            n,
        );
        let mode = self
            .rob
            .front()
            .map(|e| e.di.mode)
            .or_else(|| self.fetch_buffer.front().map(|f| f.di.mode))
            .unwrap_or(self.last_mode);
        self.last_mode = mode;
        match mode {
            Mode::User => self.stats.user_cycles.add(n),
            Mode::Kernel => self.stats.kernel_cycles.add(n),
        }
        if committed {
            self.stuck_cycles = 0;
            return Ok(());
        }
        self.stuck_cycles += n;
        self.stats.max_commit_gap.record_max(self.stuck_cycles);
        let limit = self.config.watchdog_cycles;
        if limit > 0 && self.stuck_cycles >= limit {
            return Err(Box::new(self.watchdog_report(now + n - 1, limit)));
        }
        Ok(())
    }

    /// Snapshot everything the stalled machine could be waiting on.
    fn watchdog_report(&mut self, now: Cycle, limit: u64) -> WatchdogReport {
        self.tracer.emit(
            now,
            EventKind::WatchdogSnapshot,
            self.rob.front().map_or(0, |head| head.di.pc),
            self.rob.len() as u32,
        );
        WatchdogReport {
            cycle: now,
            committed: self.stats.committed.get(),
            limit,
            rob_len: self.rob.len(),
            rob_head: self.rob.front().map(|head| {
                (
                    head.di.pc,
                    head.di.inst.op.to_string(),
                    if head.issued() { "Issued" } else { "Waiting" }.to_string(),
                )
            }),
            fetch_buffer_len: self.fetch_buffer.len(),
            fetch_pc: self
                .fetch_buffer
                .front()
                .map(|fetched| fetched.di.pc)
                .or_else(|| self.trace.peek().map(|di| di.pc)),
            loads_in_flight: self.loads_in_flight,
            stores_in_flight: self.sched.stores_in_flight(),
            serialize: self.serialize,
            fetch_blocked_on_branch: self.fetch_blocked_on_branch,
            mem: self.mem.diagnostics(),
        }
    }

    // --- event-driven wakeup ----------------------------------------------

    /// Process every completion wakeup due by `now`: drain the producer's
    /// waiter list and reconsider each waiter for the candidate set.
    /// Runs before commit, so a producer committing this very cycle still
    /// holds its waiters when its event fires.
    fn wake(&mut self, now: Cycle) {
        while let Some(seq) = self.sched.pop_due(now) {
            self.drain_waiters(seq, now);
        }
    }

    /// Reconsider every consumer parked on `producer`, leaving its
    /// waiter list empty (the slot keeps the allocation).
    fn drain_waiters(&mut self, producer: u64, now: Cycle) {
        let mut waiters = std::mem::take(&mut self.rob[producer].waiters);
        for &waiter in &waiters {
            self.reconsider(waiter, now);
        }
        waiters.clear();
        self.rob[producer].waiters = waiters;
    }

    /// Re-evaluate a woken instruction's candidacy. Deliberately an
    /// over-approximation of "the broadcast scan would act on it":
    /// operands are re-checked against ROB ground truth, so firing order
    /// within a cycle cannot matter, and a not-yet-eligible waiter simply
    /// stays parked on its remaining producers.
    fn reconsider(&mut self, seq: u64, now: Cycle) {
        if seq < self.rob.head() {
            return; // already retired
        }
        let entry = &self.rob[seq];
        if entry.issued() {
            return;
        }
        if self.operands_ready(entry, now) {
            self.sched.add_candidate(seq);
        }
    }

    /// Does `entry` belong in the candidate set at `now`? Memory ops
    /// enter the window on address-operand readiness; data readiness
    /// (stores) and ordering (loads) are checked at examination, exactly
    /// as the broadcast scan did.
    fn operands_ready(&self, entry: &RobEntry, now: Cycle) -> bool {
        match entry.class {
            OpClass::Load | OpClass::Store => self.rob.dep_ready(entry.addr_seq, now),
            _ => entry
                .src_seqs
                .iter()
                .all(|&dep| self.rob.dep_ready(dep, now)),
        }
    }

    /// Bookkeeping common to every issue: leave the candidate set and
    /// schedule the completion wakeup. A result already available (a
    /// zero-latency completion) short-circuits: waiters drain inline, and
    /// since consumers are always younger than their producer, the
    /// ongoing candidate walk still visits them this cycle — exactly when
    /// the broadcast scan would have seen the result.
    fn finish_issue(&mut self, seq: u64, now: Cycle) {
        #[cfg(test)]
        self.issue_log.push((now, seq));
        self.sched.remove_candidate(seq);
        let ready_at = self.rob[seq].ready_at;
        // Future-dated: stamped with the completion cycle at issue time.
        self.tracer.emit(
            ready_at,
            EventKind::Complete,
            self.rob[seq].di.pc,
            seq as u32,
        );
        if ready_at <= now {
            self.drain_waiters(seq, now);
        } else {
            self.sched.push_event(ready_at, seq);
            self.stats
                .sched_events_peak
                .record_max(self.sched.pending_events() as u64);
        }
    }

    // --- cycle skipping ---------------------------------------------------

    /// When no pipeline stage can act at `now`, jump the clock to the
    /// next cycle something happens, bulk-recording exactly the
    /// statistics the idle cycles would have recorded one by one.
    /// Returns `true` when a skip was taken (the step is complete).
    ///
    /// Eligibility reads each stage's own gate: commit needs an undone
    /// head, select an empty candidate set, the store buffer must be
    /// empty (else `end_cycle` would drain it), and [`Core::fetch_gate`]
    /// and [`Core::dispatch_gate`] must answer that their stage cannot
    /// act by itself. The skip is bounded by every externally scheduled
    /// event: completion wakeups, MSHR fills, the fetch-resume cycle,
    /// fetch-buffer availability, the profiler's step quantum, and the
    /// watchdog.
    ///
    /// Candidates and buffered stores are also admitted when the previous
    /// cycle was *parked*: it committed nothing, its issue walk issued
    /// nothing and saw every candidate refused by the data cache
    /// (`MshrFull`, `NoPort`, `Conflict`), no candidate has joined the set
    /// since that walk began, and the data cache accepted, drained and
    /// rejected no store and accepted no load. Such a cycle changes no
    /// state, so each cycle up to the next scheduled event repeats it
    /// exactly, memory-side tally included. Not while tracing: the
    /// repeats would each emit their retry events.
    fn try_skip_idle(&mut self, now: Cycle) -> Result<bool, Box<WatchdogReport>> {
        let parked = self
            .parked
            .is_some_and(|(at, adds)| at + 1 == now && adds == self.sched.candidate_adds())
            && !self.tracer.is_active();
        if !parked && (self.sched.has_candidates() || self.mem.store_buffer_len() != 0) {
            return Ok(false);
        }
        if self.rob.front().is_some_and(|head| head.done(now)) {
            return Ok(false); // commit would act
        }
        let fetch = self.fetch_gate(now);
        if matches!(fetch, FetchGate::Go | FetchGate::WrongPath) {
            return Ok(false);
        }
        let dispatch = self.dispatch_gate(now);
        if dispatch == DispatchGate::Go {
            return Ok(false);
        }

        // The machine is provably idle until the earliest external event.
        let mut until: Option<Cycle> = None;
        let mut bound = |t: Option<Cycle>| {
            if let Some(t) = t {
                until = Some(until.map_or(t, |u| u.min(t)));
            }
        };
        bound(self.sched.next_event_at());
        bound(self.mem.next_event_at());
        if let FetchGate::Stalled(_) = fetch {
            bound(Some(self.fetch_resume_at));
        }
        if let DispatchGate::Wait(ready_at) = dispatch {
            bound(ready_at);
        }
        let Some(until) = until else {
            return Ok(false); // nothing scheduled: step normally
        };
        let mut n = until.saturating_sub(now);
        if self.step_quantum > 0 {
            let done = self.stats.cycles.get() % self.step_quantum;
            n = n.min(self.step_quantum - done);
        }
        let limit = self.config.watchdog_cycles;
        if limit > 0 {
            n = n.min(limit - self.stuck_cycles);
        }
        if n == 0 {
            return Ok(false);
        }

        // Bulk-record what n idle cycles would have recorded.
        self.stats.commits_per_cycle.record_n(0, n);
        // The skip preconditions freeze everything the slot-cause
        // function reads (head state and wait reason, both gates, the
        // skip bounds), so each skipped cycle would have attributed its
        // commit_width empty slots to this same cause.
        let cause = self.stall_slot_cause(now, false);
        self.stats
            .cpi_stack
            .record(cause, n * u64::from(self.config.commit_width));
        self.count_fetch_stall(fetch, n);
        self.count_dispatch_stall(dispatch, n);
        self.mem.record_skipped_cycles(n, parked);
        if parked {
            // The skipped cycles repeated the parked one; the last of them
            // is just as parked.
            self.parked = self.parked.map(|(_, adds)| (now + n - 1, adds));
            #[cfg(test)]
            {
                self.parked_skips += 1;
            }
        }
        // Like the stepped path, a watchdog abort leaves `self.now`.
        self.close_cycles(now, n, false)?;
        self.now = now + n;
        Ok(true)
    }

    /// May the load `load_seq` leave for the cache? The legacy backwards
    /// window walk, kept as the oracle the event-driven
    /// [`Core::gate_load_indexed`] is property-tested against.
    #[cfg(test)]
    fn gate_load(rob: &Rob, load_seq: u64, now: Cycle) -> LoadGate {
        let load_range = rob[load_seq].mem_range().expect("loads have addresses");
        // Youngest older store that overlaps decides forwarding.
        for older in (rob.head()..load_seq).rev() {
            let store = &rob[older];
            if !store.is_store() {
                continue;
            }
            let store_range = store.mem_range().expect("stores have addresses");
            if !ranges_overlap(store_range, load_range) {
                continue;
            }
            if store.addr_known_at.is_none_or(|t| t > now) {
                return LoadGate::Wait;
            }
            if range_covers(store_range, load_range) && rob.dep_ready(store.data_seq, now) {
                return LoadGate::Forward;
            }
            return LoadGate::Wait;
        }
        LoadGate::Go
    }

    /// May the load `seq` leave for the cache?
    ///
    /// Loads order against older stores by oracle disambiguation: only
    /// the youngest older store that actually overlaps the load decides.
    /// The load waits while that store's address is unknown, forwards
    /// when the store covers it and its data is ready, and otherwise
    /// waits for the store to commit. Same decision as the backwards
    /// window walk, answered from the in-flight store queue, which holds
    /// only the stores of the window.
    fn gate_load_indexed(&self, seq: u64, now: Cycle) -> LoadGate {
        let load_range = self.rob[seq].mem_range().expect("loads have addresses");
        let Some(store_seq) = self
            .sched
            .youngest_overlapping_store_before(seq, load_range)
        else {
            return LoadGate::Go;
        };
        let store = &self.rob[store_seq];
        debug_assert!(store.is_store());
        let store_range = store.mem_range().expect("stores have addresses");
        if store.addr_known_at.is_none_or(|t| t > now) {
            return LoadGate::Wait;
        }
        if range_covers(store_range, load_range) && self.rob.dep_ready(store.data_seq, now) {
            return LoadGate::Forward;
        }
        LoadGate::Wait
    }

    // --- pipeline stages ---------------------------------------------------------

    fn commit(&mut self, now: Cycle) {
        let mut committed = 0u64;
        let mut store_rejected = false;
        while committed < u64::from(self.config.commit_width) {
            let Some(head) = self.rob.front() else { break };
            if !head.done(now) {
                break;
            }
            if head.is_store() {
                let addr = Addr::new(head.di.mem_addr.expect("stores have addresses"));
                let bytes = head.di.mem_bytes();
                if self.mem.commit_store(now, addr, bytes) == StoreOutcome::Rejected {
                    self.stats.commit_store_stall_cycles.inc();
                    store_rejected = true;
                    break;
                }
            }
            let seq = self.rob.head();
            let (class, op, pc, mode) = (head.class, head.di.inst.op, head.di.pc, head.di.mode);
            self.rob.pop_front();
            self.tracer.emit(now, EventKind::Commit, pc, seq as u32);
            #[cfg(test)]
            self.commit_log.push((now, seq));
            match class {
                OpClass::Load => {
                    debug_assert!(self.loads_in_flight > 0, "retiring a load never dispatched");
                    self.loads_in_flight -= 1;
                    self.stats.loads.inc();
                }
                OpClass::Store => {
                    self.stats.stores.inc();
                    self.sched.retire_store(seq);
                }
                _ => {}
            }
            // In the event-driven path a committed instruction has issued,
            // which already removed it from the candidate set; only the
            // broadcast oracle (which bypasses select's bookkeeping) needs
            // the cleanup.
            #[cfg(test)]
            if self.oracle {
                self.sched.retire(seq);
            }
            if matches!(op, Op::Syscall | Op::Eret) {
                self.serialize = false;
            }
            self.stats.committed.inc();
            match mode {
                Mode::User => self.stats.committed_user.inc(),
                Mode::Kernel => self.stats.committed_kernel.inc(),
            }
            committed += 1;
        }
        self.stats.commits_per_cycle.record(committed);

        // Commit-slot accounting: every one of this cycle's
        // `commit_width` slots gets a cause — committed slots are Base,
        // and all empty slots share the one cause the ROB head (or the
        // frontend) presents. The per-cause totals therefore sum to
        // `cycles × commit_width` exactly (the conservation invariant).
        let width = u64::from(self.config.commit_width);
        self.stats.cpi_stack.record(StallCause::Base, committed);
        if committed < width {
            let cause = self.stall_slot_cause(now, store_rejected);
            self.stats.cpi_stack.record(cause, width - committed);
        }
    }

    /// Why this cycle's empty commit slots went unused: one cause for
    /// all of them, read top-down at the ROB head. Pure with respect to
    /// machine state, so the cycle-skipping bulk path can evaluate it
    /// once and scale by the skip length — which is what keeps skipped
    /// and stepped runs' stacks identical.
    fn stall_slot_cause(&mut self, now: Cycle, store_rejected: bool) -> StallCause {
        if store_rejected {
            return StallCause::StoreBufferFull;
        }
        let Some(head) = self.rob.front() else {
            return self.frontend_cause(now);
        };
        debug_assert!(!head.done(now));
        // Specific memory causes pass through unrefined; only the
        // generic waits (operands, FU latency) are re-attributed to
        // window pressure when dispatch is simultaneously blocked by a
        // full ROB/LSQ — so port conflicts stay visible as themselves.
        let generic = match head.wait {
            WaitKind::NoPort => return StallCause::DcachePortConflict,
            WaitKind::MshrFull => return StallCause::MshrFull,
            WaitKind::ExecMiss => return StallCause::MshrWait,
            WaitKind::ExecLineBuffer => return StallCause::LineBufferWait,
            WaitKind::Order => return StallCause::DependencyWait,
            WaitKind::Fu | WaitKind::Exec => StallCause::FuBusy,
            WaitKind::Deps => StallCause::DependencyWait,
        };
        match self.dispatch_gate(now) {
            DispatchGate::RobFull => StallCause::RobFull,
            DispatchGate::LsqFull => StallCause::LsqFull,
            _ => generic,
        }
    }

    /// The empty-ROB half of [`Core::stall_slot_cause`]: nothing is in
    /// flight, so the lost slots belong to whatever is holding the
    /// frontend back.
    fn frontend_cause(&mut self, now: Cycle) -> StallCause {
        if self.fetch_buffer.front().is_some() {
            // Fetched but not yet dispatchable: decode latency.
            return StallCause::FetchStarved;
        }
        match self.fetch_gate(now) {
            FetchGate::Drained => StallCause::Idle,
            FetchGate::WrongPath
            | FetchGate::Blocked
            | FetchGate::Stalled(StallReason::Redirect) => StallCause::BranchRecovery,
            FetchGate::Stalled(StallReason::ICache) | FetchGate::Full | FetchGate::Go => {
                StallCause::FetchStarved
            }
        }
    }

    /// What fetch would do at `now`, read top-down: a drained stream, a
    /// block on a mispredicted branch (running down its wrong path while
    /// blocks remain), a redirect or icache stall, a full buffer, or go.
    fn fetch_gate(&mut self, now: Cycle) -> FetchGate {
        if self.trace.peek().is_none() {
            FetchGate::Drained
        } else if self.fetch_blocked_on_branch {
            if self.wrong_path.is_some() {
                FetchGate::WrongPath
            } else {
                FetchGate::Blocked
            }
        } else if now < self.fetch_resume_at {
            FetchGate::Stalled(self.stall_reason)
        } else if self.fetch_buffer.len() >= 2 * self.config.fetch_width as usize {
            FetchGate::Full
        } else {
            FetchGate::Go
        }
    }

    /// Count `n` cycles of a fetch stall, when `gate` is one.
    fn count_fetch_stall(&mut self, gate: FetchGate, n: u64) {
        match gate {
            FetchGate::Stalled(StallReason::Redirect) => {
                self.stats.fetch_redirect_stall_cycles.add(n)
            }
            FetchGate::Stalled(StallReason::ICache) => self.stats.fetch_icache_stall_cycles.add(n),
            _ => {}
        }
    }

    /// What dispatch would do with the fetch-buffer front at `now`, read
    /// top-down: wait (serialising, nothing fetched, the front not yet
    /// decoded, or a serialising front behind a non-empty window), stop
    /// on a full window or load/store queue, or go.
    fn dispatch_gate(&self, now: Cycle) -> DispatchGate {
        if self.serialize {
            return DispatchGate::Wait(None);
        }
        let Some(front) = self.fetch_buffer.front() else {
            return DispatchGate::Wait(None);
        };
        if front.available_at > now {
            return DispatchGate::Wait(Some(front.available_at));
        }
        let lsq_full = match front.class {
            OpClass::Load => self.loads_in_flight >= self.config.load_queue,
            OpClass::Store => self.sched.stores_in_flight() >= self.config.store_queue,
            _ => false,
        };
        if matches!(front.di.inst.op, Op::Syscall | Op::Eret) && !self.rob.is_empty() {
            DispatchGate::Wait(None)
        } else if self.rob.len() >= self.config.rob_entries {
            DispatchGate::RobFull
        } else if lsq_full {
            DispatchGate::LsqFull
        } else {
            DispatchGate::Go
        }
    }

    /// Count `n` cycles of dispatch refused for a full window or queue,
    /// when `gate` is one.
    fn count_dispatch_stall(&mut self, gate: DispatchGate, n: u64) {
        match gate {
            DispatchGate::RobFull => self.stats.dispatch_rob_full.add(n),
            DispatchGate::LsqFull => self.stats.dispatch_lsq_full.add(n),
            _ => {}
        }
    }

    /// Conservation check, compiled to nothing in release builds.
    #[inline]
    fn assert_cpi_conservation(&self) {
        debug_assert_eq!(
            self.stats.cpi_stack.total(),
            self.stats.cycles.get() * u64::from(self.config.commit_width),
            "CPI-stack conservation violated at cycle {}",
            self.now,
        );
    }

    /// Select: walk the candidate set in age order — the same entries the
    /// broadcast scan would have acted on, in the same order — and issue
    /// up to `issue_width` instructions. Candidates whose examination
    /// comes up empty (gated load, busy functional unit, rejected cache
    /// access) linger and are re-examined next cycle, replaying the
    /// scan's per-cycle retries and statistics exactly.
    ///
    /// Returns `true` when the walk issued nothing and the data cache
    /// refused every candidate it examined — the issue half of a parked
    /// cycle (see [`Core::try_skip_idle`]).
    fn issue(&mut self, now: Cycle) -> bool {
        #[cfg(test)]
        if self.oracle {
            self.issue_broadcast(now);
            return false;
        }
        // The walk's live bounds are fixed for the whole cycle: dispatch
        // runs after issue, and commit ran before it.
        let end_seq = self.rob.tail();
        let mut issued = 0u32;
        let (mut examined, mut refused_by_memory) = (0u32, 0u32);
        let mut cursor = self.rob.head();
        while issued < self.config.issue_width {
            let Some(seq) = self.sched.next_candidate_in(cursor, end_seq) else {
                break;
            };
            cursor = seq + 1;
            examined += 1;
            debug_assert!(!self.rob[seq].issued());
            let class = self.rob[seq].class;
            match class {
                OpClass::Load => {
                    if !self.rob.dep_ready(self.rob[seq].addr_seq, now) {
                        self.rob[seq].wait = WaitKind::Deps;
                        continue;
                    }
                    // Address generation needs an AGU whichever path the
                    // data takes.
                    if !self.fu.can_start(OpClass::Load, now) {
                        self.rob[seq].wait = WaitKind::Fu;
                        continue;
                    }
                    match self.gate_load_indexed(seq, now) {
                        LoadGate::Wait => {
                            self.rob[seq].wait = WaitKind::Order;
                            self.stats.lsq_order_stalls.inc();
                            continue;
                        }
                        LoadGate::Forward => {
                            self.fu
                                .try_start(OpClass::Load, now)
                                .expect("can_start checked");
                            self.stats.lsq_forwards.inc();
                            let ready_at = now + self.config.lsq_forward_latency;
                            self.issue_entry(seq, now, ready_at, WaitKind::Exec);
                            issued += 1;
                        }
                        LoadGate::Go => {
                            let addr = Addr::new(self.rob[seq].di.mem_addr.expect("load address"));
                            let bytes = self.rob[seq].di.mem_bytes();
                            match self.mem.try_load(now, addr, bytes) {
                                LoadOutcome::Ready { at, source } => {
                                    self.fu
                                        .try_start(OpClass::Load, now)
                                        .expect("can_start checked");
                                    self.issue_entry(seq, now, at, Self::serving_wait(source));
                                    issued += 1;
                                }
                                refused => {
                                    self.rob[seq].wait = if refused == LoadOutcome::MshrFull {
                                        WaitKind::MshrFull
                                    } else {
                                        WaitKind::NoPort
                                    };
                                    let pc = self.rob[seq].di.pc;
                                    self.tracer.emit(now, EventKind::PortRetry, pc, seq as u32);
                                    refused_by_memory += 1;
                                }
                            }
                        }
                    }
                }
                OpClass::Store => {
                    let addr_ok = self.rob.dep_ready(self.rob[seq].addr_seq, now);
                    if addr_ok && self.rob[seq].addr_known_at.is_none() {
                        // Address generation fires as soon as the base
                        // register is ready, independent of the data.
                        self.rob[seq].addr_known_at = Some(now);
                    }
                    if !addr_ok {
                        self.rob[seq].wait = WaitKind::Deps;
                        continue;
                    }
                    if !self.rob.dep_ready(self.rob[seq].data_seq, now) {
                        // Address generation has fired; nothing further
                        // happens until the data arrives. Park on the
                        // data producer (registered at dispatch — the
                        // data was unready then too), whose wakeup
                        // re-adds this store.
                        self.rob[seq].wait = WaitKind::Deps;
                        self.sched.remove_candidate(seq);
                        continue;
                    }
                    if let Some(done_at) = self.fu.try_start(OpClass::Store, now) {
                        self.issue_entry(seq, now, done_at, WaitKind::Exec);
                        issued += 1;
                    } else {
                        self.rob[seq].wait = WaitKind::Fu;
                    }
                }
                _ => {
                    if !self.operands_ready(&self.rob[seq], now) {
                        self.rob[seq].wait = WaitKind::Deps;
                        continue;
                    }
                    if let Some(done_at) = self.fu.try_start(class, now) {
                        if self.rob[seq].mispredicted {
                            // The redirect leaves when the branch resolves.
                            self.fetch_resume_at = self
                                .fetch_resume_at
                                .max(done_at + self.config.mispredict_penalty);
                            self.stall_reason = StallReason::Redirect;
                            self.fetch_blocked_on_branch = false;
                            self.wrong_path = None;
                        }
                        self.issue_entry(seq, now, done_at, WaitKind::Exec);
                        issued += 1;
                    } else {
                        self.rob[seq].wait = WaitKind::Fu;
                    }
                }
            }
        }
        issued == 0 && refused_by_memory == examined
    }

    /// Issue `seq` at `now`: its result is ready at `ready_at`, and until
    /// then it waits as `wait`.
    fn issue_entry(&mut self, seq: u64, now: Cycle, ready_at: Cycle, wait: WaitKind) {
        let entry = &mut self.rob[seq];
        entry.ready_at = ready_at;
        entry.wait = wait;
        let pc = entry.di.pc;
        self.tracer.emit(now, EventKind::Issue, pc, seq as u32);
        self.finish_issue(seq, now);
    }

    /// The in-flight service class a just-issued load settles into,
    /// read from where the memory system said it would be served.
    fn serving_wait(source: LoadSource) -> WaitKind {
        match source {
            LoadSource::Miss | LoadSource::MissMerged => WaitKind::ExecMiss,
            LoadSource::LineBuffer => WaitKind::ExecLineBuffer,
            _ => WaitKind::Exec,
        }
    }

    /// The legacy issue stage: a full broadcast scan of the reorder
    /// buffer every cycle. Kept verbatim (plus issue-log bookkeeping) as
    /// the oracle the property tests run against the event-driven path.
    #[cfg(test)]
    fn issue_broadcast(&mut self, now: Cycle) {
        let mut issued = 0u32;
        for seq in self.rob.head()..self.rob.tail() {
            if issued >= self.config.issue_width {
                break;
            }
            if self.rob[seq].issued() {
                continue;
            }
            let class = self.rob[seq].class;
            match class {
                OpClass::Load => {
                    if !self.rob.dep_ready(self.rob[seq].addr_seq, now) {
                        self.rob[seq].wait = WaitKind::Deps;
                        continue;
                    }
                    // Address generation needs an AGU whichever path the
                    // data takes.
                    if !self.fu.can_start(OpClass::Load, now) {
                        self.rob[seq].wait = WaitKind::Fu;
                        continue;
                    }
                    match Self::gate_load(&self.rob, seq, now) {
                        LoadGate::Wait => {
                            self.rob[seq].wait = WaitKind::Order;
                            self.stats.lsq_order_stalls.inc();
                            continue;
                        }
                        LoadGate::Forward => {
                            self.fu
                                .try_start(OpClass::Load, now)
                                .expect("can_start checked");
                            let entry = &mut self.rob[seq];
                            entry.ready_at = now + self.config.lsq_forward_latency;
                            entry.wait = WaitKind::Exec;
                            self.stats.lsq_forwards.inc();
                            self.tracer.emit(
                                now,
                                EventKind::Issue,
                                self.rob[seq].di.pc,
                                seq as u32,
                            );
                            issued += 1;
                            self.issue_log.push((now, seq));
                        }
                        LoadGate::Go => {
                            let addr = Addr::new(self.rob[seq].di.mem_addr.expect("load address"));
                            let bytes = self.rob[seq].di.mem_bytes();
                            match self.mem.try_load(now, addr, bytes) {
                                LoadOutcome::Ready { at, source } => {
                                    self.fu
                                        .try_start(OpClass::Load, now)
                                        .expect("can_start checked");
                                    let entry = &mut self.rob[seq];
                                    entry.ready_at = at;
                                    entry.wait = Self::serving_wait(source);
                                    self.tracer.emit(
                                        now,
                                        EventKind::Issue,
                                        self.rob[seq].di.pc,
                                        seq as u32,
                                    );
                                    issued += 1;
                                    self.issue_log.push((now, seq));
                                }
                                LoadOutcome::MshrFull => {
                                    self.rob[seq].wait = WaitKind::MshrFull;
                                    continue;
                                }
                                LoadOutcome::NoPort | LoadOutcome::Conflict => {
                                    self.rob[seq].wait = WaitKind::NoPort;
                                    continue;
                                }
                            }
                        }
                    }
                }
                OpClass::Store => {
                    let addr_ok = self.rob.dep_ready(self.rob[seq].addr_seq, now);
                    if addr_ok && self.rob[seq].addr_known_at.is_none() {
                        // Address generation fires as soon as the base
                        // register is ready, independent of the data.
                        self.rob[seq].addr_known_at = Some(now);
                    }
                    if !addr_ok || !self.rob.dep_ready(self.rob[seq].data_seq, now) {
                        self.rob[seq].wait = WaitKind::Deps;
                        continue;
                    }
                    if let Some(done_at) = self.fu.try_start(OpClass::Store, now) {
                        let entry = &mut self.rob[seq];
                        entry.ready_at = done_at;
                        entry.wait = WaitKind::Exec;
                        self.tracer
                            .emit(now, EventKind::Issue, self.rob[seq].di.pc, seq as u32);
                        issued += 1;
                        self.issue_log.push((now, seq));
                    } else {
                        self.rob[seq].wait = WaitKind::Fu;
                    }
                }
                _ => {
                    if !self.operands_ready(&self.rob[seq], now) {
                        self.rob[seq].wait = WaitKind::Deps;
                        continue;
                    }
                    if let Some(done_at) = self.fu.try_start(class, now) {
                        let mispredicted = self.rob[seq].mispredicted;
                        let entry = &mut self.rob[seq];
                        entry.ready_at = done_at;
                        entry.wait = WaitKind::Exec;
                        self.tracer
                            .emit(now, EventKind::Issue, self.rob[seq].di.pc, seq as u32);
                        issued += 1;
                        self.issue_log.push((now, seq));
                        if mispredicted {
                            // The redirect leaves when the branch resolves.
                            self.fetch_resume_at = self
                                .fetch_resume_at
                                .max(done_at + self.config.mispredict_penalty);
                            self.stall_reason = StallReason::Redirect;
                            self.fetch_blocked_on_branch = false;
                            self.wrong_path = None;
                        }
                    } else {
                        self.rob[seq].wait = WaitKind::Fu;
                    }
                }
            }
        }
    }

    fn dispatch(&mut self, now: Cycle) {
        let mut dispatched = 0u32;
        while dispatched < self.config.dispatch_width {
            let gate = self.dispatch_gate(now);
            if gate != DispatchGate::Go {
                self.count_dispatch_stall(gate, 1);
                break;
            }
            let fetched = self.fetch_buffer.pop_front().expect("the gate saw a front");
            let (inst, class) = (fetched.di.inst, fetched.class);
            let serializing = matches!(inst.op, Op::Syscall | Op::Eret);
            // Rename: read the producers before this instruction's own
            // destination mapping can shadow them.
            let (src_seqs, addr_seq, data_seq) = match class {
                OpClass::Load => ([None, None], self.producer(inst.rs1), None),
                OpClass::Store => (
                    [None, None],
                    self.producer(inst.rs1),
                    self.producer(inst.rs2),
                ),
                _ => {
                    let mut src_seqs = [None, None];
                    for (slot, reg) in inst.sources().enumerate().take(2) {
                        src_seqs[slot] = self.producer(reg);
                    }
                    (src_seqs, None, None)
                }
            };
            let seq = self.rob.push(fetched.di, class, fetched.mispredicted);
            self.tracer
                .emit(now, EventKind::Dispatch, fetched.di.pc, seq as u32);
            let entry = &mut self.rob[seq];
            entry.src_seqs = src_seqs;
            entry.addr_seq = addr_seq;
            entry.data_seq = data_seq;
            if let Some(dest) = inst.dest() {
                self.map[dest.index()] = Some(seq);
            }
            if class == OpClass::Load {
                debug_assert!(self.loads_in_flight < self.config.load_queue);
                self.loads_in_flight += 1;
            }
            if class == OpClass::Store {
                let range = self.rob[seq].mem_range().expect("stores have addresses");
                self.sched.add_store(seq, range);
                debug_assert!(self.sched.stores_in_flight() <= self.config.store_queue);
            }
            if serializing {
                self.serialize = true;
            }

            // Wakeup registration: park this instruction on each producer
            // that is not yet done; its completion event re-evaluates the
            // consumer. Producers of unready operands are necessarily
            // still in flight (retired sequence numbers count as ready).
            let deps = [src_seqs[0], src_seqs[1], addr_seq, data_seq];
            for dep in deps.into_iter().flatten() {
                if !self.rob.seq_ready(dep, now) {
                    self.rob[dep].waiters.push(seq);
                }
            }
            if self.operands_ready(&self.rob[seq], now) {
                self.sched.add_candidate(seq);
            }
            dispatched += 1;
            self.stuck_cycles = 0;
        }
    }

    fn producer(&self, reg: Reg) -> Option<u64> {
        if reg.is_zero() {
            return None;
        }
        self.map[reg.index()]
    }

    fn fetch(&mut self, now: Cycle) {
        match self.fetch_gate(now) {
            FetchGate::Go => {}
            FetchGate::WrongPath => {
                // The real frontend does not idle on a misprediction: it
                // runs down the wrong path until the redirect, dragging
                // wrong-path blocks through the instruction cache.
                let (pc, blocks_left) = self.wrong_path.take().expect("the gate saw it");
                let block = pc & !(self.config.fetch_bytes - 1);
                let _ = self.mem.fetch(now, Addr::new(block));
                self.stats.wrong_path_blocks.inc();
                if blocks_left > 1 {
                    self.wrong_path = Some((block + self.config.fetch_bytes, blocks_left - 1));
                }
                return;
            }
            gate => {
                self.count_fetch_stall(gate, 1);
                return;
            }
        }
        let capacity = 2 * self.config.fetch_width as usize;

        // One instruction block per cycle through the instruction cache.
        let block_mask = !(self.config.fetch_bytes - 1);
        let first_pc = self.trace.peek().expect("checked above").pc;
        let block = first_pc & block_mask;
        let outcome = self.mem.fetch(now, Addr::new(block));
        if outcome.ready_at > now {
            self.fetch_resume_at = outcome.ready_at;
            self.stall_reason = StallReason::ICache;
            self.stats.fetch_icache_stall_cycles.inc();
            return;
        }

        let mut fetched = 0;
        while fetched < self.config.fetch_width && self.fetch_buffer.len() < capacity {
            let Some(peek) = self.trace.peek() else { break };
            if peek.pc & block_mask != block {
                break; // the next block waits for the next cycle
            }
            let di = self.trace.next().expect("peeked above");
            // Fetch buffer and dispatch are strictly FIFO, so the seq
            // this instruction will receive is already determined:
            // the ROB tail plus everything fetched ahead of it.
            let will_be_seq = self.rob.tail() + self.fetch_buffer.len() as u64;
            self.tracer
                .emit(now, EventKind::Fetch, di.pc, will_be_seq as u32);
            fetched += 1;
            let class = di.inst.op.class();
            let misprediction = self.predict(now, &di, class);
            let mispredicted = misprediction.is_some();
            let stop = mispredicted
                || di.diverted()
                || matches!(di.inst.op, Op::Syscall | Op::Eret | Op::Halt);
            self.fetch_buffer.push_back(Fetched {
                di,
                class,
                mispredicted,
                available_at: now + 1,
            });
            if let Some(wrong_start) = misprediction {
                self.fetch_blocked_on_branch = true;
                if self.config.wrong_path_fetch {
                    // Run ahead a bounded number of blocks, as a real
                    // fetch queue would.
                    self.wrong_path = wrong_start.map(|pc| (pc, 8));
                }
            }
            if stop {
                break;
            }
        }
    }

    /// Consult and train the predictors for a fetched instruction.
    ///
    /// Returns `None` for a correct prediction, and
    /// `Some(wrong_path_start)` for a misprediction that blocks fetch
    /// until resolve — where `wrong_path_start` is the address the
    /// frontend *would* have fetched next (`None` when unknowable, e.g.
    /// an indirect jump with no prediction at all).
    fn predict(&mut self, now: Cycle, di: &DynInst, class: OpClass) -> Option<Option<u64>> {
        let pc = di.pc;
        match class {
            OpClass::Branch => {
                self.stats.branches.inc();
                let predicted = match self.predictor.kind() {
                    DirPredictorKind::Btfn => DirectionPredictor::predict_btfn(di.inst.imm),
                    _ => self.predictor.predict(pc),
                };
                self.predictor.update(pc, di.taken);
                if predicted != di.taken {
                    self.stats.mispredicts.inc();
                    // Predicted taken → the frontend ran to the branch
                    // target; predicted not-taken → it fell through.
                    let wrong = if predicted {
                        pc.wrapping_add(di.inst.imm as u64)
                    } else {
                        pc + INST_BYTES
                    };
                    return Some(Some(wrong));
                }
                if di.taken {
                    if self.btb.lookup(pc) != Some(di.next_pc) {
                        self.stats.misfetches.inc();
                        self.fetch_resume_at = now + 1 + self.config.misfetch_penalty;
                        self.stall_reason = StallReason::Redirect;
                    }
                    self.btb.update(pc, di.next_pc);
                }
                None
            }
            OpClass::Jump => match di.inst.op {
                Op::Jal => {
                    if di.inst.rd == Reg::RA {
                        self.ras.push(pc + INST_BYTES);
                    }
                    if self.btb.lookup(pc) != Some(di.next_pc) {
                        self.stats.misfetches.inc();
                        self.fetch_resume_at = now + 1 + self.config.misfetch_penalty;
                        self.stall_reason = StallReason::Redirect;
                        self.btb.update(pc, di.next_pc);
                    }
                    None
                }
                _ => {
                    // jalr: returns predict through the RAS, other
                    // indirections through the BTB.
                    let is_return = di.inst.rd.is_zero() && di.inst.rs1 == Reg::RA;
                    let predicted = if is_return {
                        self.ras.pop()
                    } else {
                        self.btb.lookup(pc)
                    };
                    if di.inst.rd == Reg::RA {
                        self.ras.push(pc + INST_BYTES);
                    }
                    if predicted == Some(di.next_pc) {
                        None
                    } else {
                        self.stats.indirect_mispredicts.inc();
                        self.btb.update(pc, di.next_pc);
                        // The frontend ran down the *predicted* indirect
                        // target, when it had one.
                        Some(predicted)
                    }
                }
            },
            OpClass::System if matches!(di.inst.op, Op::Syscall | Op::Eret) => {
                // Pipeline drain + vectoring latency.
                self.fetch_resume_at = now + 1 + self.config.trap_penalty;
                self.stall_reason = StallReason::Redirect;
                None
            }
            _ => None,
        }
    }

    /// The memory system (for inspection mid-run in tests).
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Core statistics so far.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    // Tests tweak one field of a default config at a time; the
    // struct-update suggestion reads worse there.
    #![allow(clippy::field_reassign_with_default)]

    use super::*;
    use cpe_isa::asm::assemble;
    use cpe_mem::MemConfig;

    use cpe_isa::Emulator;

    fn run_src(src: &str, cpu: CpuConfig, mem: MemConfig) -> SimResult {
        let program = assemble(src).expect("assembles");
        let core = Core::new(cpu, MemSystem::new(mem), Emulator::new(program));
        core.try_run(None).expect("the run completes")
    }

    const SUM_LOOP: &str = "main: li a0, 200\n li a1, 0\nloop: add a1, a1, a0\n addi a0, a0, -1\n bnez a0, loop\n halt\n";

    #[test]
    fn commits_every_instruction_exactly_once() {
        let program = assemble(SUM_LOOP).unwrap();
        let expected = Emulator::new(program).count() as u64;
        let result = run_src(SUM_LOOP, CpuConfig::default(), MemConfig::default());
        assert_eq!(result.committed, expected);
        assert!(result.cycles > 0);
    }

    #[test]
    fn watchdog_trips_on_an_impossible_progress_bound() {
        // A 4-cycle no-commit limit is shorter than the cold-start
        // instruction-cache miss, so the very first fetch stall must trip
        // the watchdog and surface a diagnosable report instead of
        // spinning or asserting.
        let mut cpu = CpuConfig::default();
        cpu.watchdog_cycles = 4;
        let program = assemble(SUM_LOOP).expect("assembles");
        let core = Core::new(
            cpu,
            MemSystem::new(MemConfig::default()),
            Emulator::new(program),
        );
        let report = core
            .try_run(None)
            .expect_err("cold-start miss exceeds 4 cycles");
        assert_eq!(report.limit, 4);
        assert_eq!(report.committed, 0);
        let text = report.to_string();
        assert!(text.contains("no progress for 4 cycles"), "{text}");
    }

    #[test]
    fn watchdog_zero_disables_the_limit() {
        let mut cpu = CpuConfig::default();
        cpu.watchdog_cycles = 0;
        let result = run_src(SUM_LOOP, cpu, MemConfig::default());
        assert!(result.committed > 0);
    }

    #[test]
    fn tight_loop_reaches_reasonable_ipc() {
        let result = run_src(SUM_LOOP, CpuConfig::default(), MemConfig::default());
        // The loop carries a serial add chain; anything near 1+ IPC means
        // fetch/branch prediction are not pathological.
        assert!(result.ipc() > 0.8, "ipc = {}", result.ipc());
        assert!(
            result.cpu.mispredict_ratio().percent() < 10.0,
            "loop branch must become predictable: {}",
            result.cpu.mispredict_ratio()
        );
    }

    #[test]
    fn loads_and_stores_flow_through_the_memory_system() {
        let src = r#"
            .data
            buf: .space 4096
            .text
            main:
                la   t0, buf
                li   t1, 64
            fill:
                sd   t1, 0(t0)
                addi t0, t0, 8
                addi t1, t1, -1
                bnez t1, fill
                la   t0, buf
                li   t1, 64
                li   a0, 0
            sum:
                ld   t2, 0(t0)
                add  a0, a0, t2
                addi t0, t0, 8
                addi t1, t1, -1
                bnez t1, sum
                halt
        "#;
        let result = run_src(src, CpuConfig::default(), MemConfig::default());
        assert_eq!(result.cpu.stores.get(), 64);
        assert_eq!(result.cpu.loads.get(), 64);
        assert_eq!(result.mem.stores.get(), 64);
        assert!(result.mem.loads.get() >= 64);
    }

    #[test]
    fn ipc_improves_with_a_second_cache_port() {
        // A cache-resident working set with four independent loads per
        // iteration: the single port is the only bottleneck.
        let src = r#"
            .data
            buf: .space 1024
            .text
            main:
                li   s1, 20           # outer repeats (first pass warms L1)
            outer:
                la   t0, buf
                li   t1, 32           # 32 iterations x 32B = 1KB
            loop:
                ld   a0, 0(t0)
                ld   a1, 8(t0)
                ld   a2, 16(t0)
                ld   a3, 24(t0)
                addi t0, t0, 32
                addi t1, t1, -1
                bnez t1, loop
                addi s1, s1, -1
                bnez s1, outer
                halt
        "#;
        let one = run_src(src, CpuConfig::default(), MemConfig::default());
        let mut dual = MemConfig::default();
        dual.ports.count = 2;
        let two = run_src(src, CpuConfig::default(), dual);
        assert!(
            two.ipc() > one.ipc() * 1.2,
            "dual-ported should clearly win: {} vs {}",
            two.ipc(),
            one.ipc()
        );
    }

    #[test]
    fn store_to_load_forwarding_in_the_lsq() {
        // A store immediately followed by a covering load of the same slot.
        let src = r#"
            .data
            buf: .space 64
            .text
            main:
                la   t0, buf
                li   t1, 100
            loop:
                sd   t1, 0(t0)
                ld   a0, 0(t0)
                addi t1, t1, -1
                bnez t1, loop
                halt
        "#;
        let result = run_src(src, CpuConfig::default(), MemConfig::default());
        // Whether a given iteration forwards depends on whether the store
        // is still in flight when the load issues; a healthy LSQ forwards a
        // substantial fraction.
        assert!(
            result.cpu.lsq_forwards.get() > 20,
            "forwarding should satisfy a sizable share of these loads: {}",
            result.cpu.lsq_forwards.get()
        );
    }

    #[test]
    fn late_store_addresses_never_stall_disjoint_loads() {
        // The store's *address* is computed by a multiply, so it resolves
        // late; the loads target a disjoint array. Oracle disambiguation
        // orders a load only behind stores that overlap it, so these
        // loads never wait.
        let src = r#"
            .data
            a: .space 1024
            b: .space 8192
            .text
            main:
                la   s0, a
                la   s1, b
                li   t2, 300
            loop:
                mul  t3, t2, t2
                andi t3, t3, 1016     # 8-byte-aligned offset within a
                add  t3, t3, s0
                sd   t2, 0(t3)        # store address known late
                ld   a0, 0(s1)
                ld   a1, 8(s1)
                addi s1, s1, 16
                addi t2, t2, -1
                bnez t2, loop
                halt
        "#;
        let result = run_src(src, CpuConfig::default(), MemConfig::default());
        assert_eq!(result.cpu.lsq_order_stalls.get(), 0, "arrays never alias");
        assert!(result.committed > 2_000);
    }

    #[test]
    fn function_calls_exercise_the_ras() {
        let src = r#"
            main:
                li   s0, 50
            loop:
                li   a0, 3
                call work
                addi s0, s0, -1
                bnez s0, loop
                halt
            work:
                add  a0, a0, a0
                ret
        "#;
        let result = run_src(src, CpuConfig::default(), MemConfig::default());
        // After warm-up, returns predict through the RAS; only the first
        // couple of iterations may miss.
        assert!(
            result.cpu.indirect_mispredicts.get() <= 3,
            "RAS should predict returns: {}",
            result.cpu.indirect_mispredicts.get()
        );
    }

    #[test]
    fn syscalls_serialize_but_complete() {
        let src =
            "main: li t0, 10\nloop: li a7, 3\n syscall\n addi t0, t0, -1\n bnez t0, loop\n halt\n";
        let result = run_src(src, CpuConfig::default(), MemConfig::default());
        let baseline = run_src(
            "main: li t0, 10\nloop: li a7, 3\n nop\n addi t0, t0, -1\n bnez t0, loop\n halt\n",
            CpuConfig::default(),
            MemConfig::default(),
        );
        assert!(
            result.cycles > baseline.cycles + 50,
            "{} vs {}",
            result.cycles,
            baseline.cycles
        );
    }

    #[test]
    fn narrow_machine_is_slower() {
        let mut narrow = CpuConfig::default();
        narrow.fetch_width = 1;
        narrow.dispatch_width = 1;
        narrow.issue_width = 1;
        narrow.commit_width = 1;
        let slow = run_src(SUM_LOOP, narrow, MemConfig::default());
        let fast = run_src(SUM_LOOP, CpuConfig::default(), MemConfig::default());
        assert!(
            slow.cycles > fast.cycles,
            "{} vs {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn rob_occupancy_never_exceeds_capacity() {
        let mut cfg = CpuConfig::default();
        cfg.rob_entries = 16;
        let result = run_src(SUM_LOOP, cfg, MemConfig::default());
        assert!(result.cpu.rob_occupancy.max_seen() <= 16);
        assert!(result.cpu.rob_occupancy.overflow() == 0);
    }

    #[test]
    fn lsq_occupancy_never_exceeds_capacity() {
        let src = r#"
            .data
            buf: .space 1024
            .text
            main:
                la   t0, buf
                li   t1, 64
            fill:
                sd   t1, 0(t0)
                ld   t2, 0(t0)
                addi t0, t0, 8
                addi t1, t1, -1
                bnez t1, fill
                halt
        "#;
        let mut cfg = CpuConfig::default();
        cfg.load_queue = 4;
        cfg.store_queue = 4;
        let result = run_src(src, cfg, MemConfig::default());
        assert!(result.cpu.lsq_occupancy.max_seen() <= 8);
        assert_eq!(result.cpu.lsq_occupancy.overflow(), 0);
        assert_eq!(
            result.cpu.lsq_occupancy.total(),
            result.cycles,
            "one occupancy sample per cycle"
        );
        assert!(
            result.cpu.lsq_occupancy.max_seen() > 0,
            "a memory-heavy loop must occupy the LSQ"
        );
    }

    /// A loop of loads behind a long divide chain, whose head waits on
    /// the divider while younger loads fill the window or the load queue.
    const DIVIDE_AND_LOAD: &str = r#"
        .data
        buf: .space 64
        .text
        main:
            la   t0, buf
            li   t1, 40
            li   a0, 1000
            li   a1, 3
        loop:
            div  a0, a0, a1
            ld   t2, 0(t0)
            ld   t3, 8(t0)
            ld   t4, 16(t0)
            ld   t5, 24(t0)
            addi t1, t1, -1
            bnez t1, loop
            halt
    "#;

    /// [`DIVIDE_AND_LOAD`] with a store of each quotient ahead of the
    /// loads: the store holds its store-queue entry until the divide
    /// commits.
    const DIVIDE_STORE_AND_LOAD: &str = r#"
        .data
        buf: .space 64
        .text
        main:
            la   t0, buf
            li   t1, 40
            li   a0, 1000
            li   a1, 3
        loop:
            div  a0, a0, a1
            sd   a0, 32(t0)
            ld   t2, 0(t0)
            ld   t3, 8(t0)
            addi t1, t1, -1
            bnez t1, loop
            halt
    "#;

    #[test]
    fn a_full_window_and_a_full_load_queue_are_told_apart() {
        let mut tiny_rob = CpuConfig::default();
        tiny_rob.rob_entries = 4;
        let rob = run_src(DIVIDE_AND_LOAD, tiny_rob, MemConfig::default()).cpu;
        assert!(rob.dispatch_rob_full.get() > 0);
        assert_eq!(rob.dispatch_lsq_full.get(), 0);
        assert!(rob.cpi_stack.get(StallCause::RobFull) > 0);
        assert_eq!(rob.cpi_stack.get(StallCause::LsqFull), 0);

        let mut tiny_lsq = CpuConfig::default();
        tiny_lsq.load_queue = 2;
        let lsq = run_src(DIVIDE_AND_LOAD, tiny_lsq, MemConfig::default()).cpu;
        assert!(lsq.dispatch_lsq_full.get() > 0);
        assert_eq!(lsq.dispatch_rob_full.get(), 0);
        assert!(lsq.cpi_stack.get(StallCause::LsqFull) > 0);
        assert_eq!(lsq.cpi_stack.get(StallCause::RobFull), 0);

        // A full store queue refuses the next store but not a load.
        let mut one_store = CpuConfig::default();
        one_store.store_queue = 1;
        let program = assemble(DIVIDE_STORE_AND_LOAD).expect("assembles");
        let mem = MemSystem::new(MemConfig::default());
        let mut core = Core::new(one_store, mem, Emulator::new(program));
        let (mut loads_past_a_full_queue, mut stores_refused) = (0, 0);
        while core.try_step().expect("the run completes") {
            let now = core.now;
            let Some(front) = core.fetch_buffer.front() else {
                continue;
            };
            if core.sched.stores_in_flight() == 0 || front.available_at > now {
                continue;
            }
            let refused = core.dispatch_gate(now) == DispatchGate::LsqFull;
            match front.class {
                OpClass::Load => {
                    assert!(!refused, "a full store queue refused a load at {now}");
                    loads_past_a_full_queue += 1;
                }
                OpClass::Store => stores_refused += u32::from(refused),
                _ => {}
            }
        }
        assert!(loads_past_a_full_queue > 0 && stores_refused > 0);
        assert!(core.stats.dispatch_lsq_full.get() > 0);
        assert!(core.stats.cpi_stack.get(StallCause::LsqFull) > 0);
    }

    #[test]
    fn commit_width_bounds_per_cycle_commits() {
        let result = run_src(SUM_LOOP, CpuConfig::default(), MemConfig::default());
        assert!(result.cpu.commits_per_cycle.max_seen() <= 4);
        let total: u64 = result
            .cpu
            .commits_per_cycle
            .iter()
            .map(|(value, count)| value as u64 * count)
            .sum();
        assert_eq!(total, result.committed);
    }

    #[test]
    fn btfn_predictor_wins_on_backward_loops_only() {
        // SUM_LOOP's only branch is backward-taken: BTFN predicts it
        // perfectly except the final fall-through.
        let mut cfg = CpuConfig::default();
        cfg.predictor = DirPredictorKind::Btfn;
        let result = run_src(SUM_LOOP, cfg, MemConfig::default());
        assert_eq!(result.cpu.mispredicts.get(), 1, "only the loop exit");
    }

    #[test]
    fn local_predictor_runs_end_to_end() {
        let mut cfg = CpuConfig::default();
        cfg.predictor = DirPredictorKind::Local {
            history_entries: 256,
            history_bits: 6,
        };
        let result = run_src(SUM_LOOP, cfg, MemConfig::default());
        assert!(result.cpu.mispredict_ratio().percent() < 10.0);
    }

    #[test]
    fn misfetches_happen_once_per_cold_taken_target() {
        // A chain of calls to distinct targets: each first-taken transfer
        // misses the BTB once, then hits.
        let src = r#"
            main:
                li   s0, 20
            loop:
                call fn_a
                call fn_b
                addi s0, s0, -1
                bnez s0, loop
                halt
            fn_a: ret
            fn_b: ret
        "#;
        let result = run_src(src, CpuConfig::default(), MemConfig::default());
        // jal targets and the loop backedge warm up quickly; the
        // misfetch count stays far below the transfer count.
        assert!(
            result.cpu.misfetches.get() <= 8,
            "misfetches: {}",
            result.cpu.misfetches.get()
        );
    }

    #[test]
    fn fetch_stalls_are_counted_by_reason() {
        let cpu = CpuConfig::default();
        let result = run_src(SUM_LOOP, cpu, MemConfig::default());
        // The cold instruction-cache miss holds fetch, and so does the
        // redirect after the loop exit's mispredicted branch resolves.
        assert!(result.cpu.fetch_icache_stall_cycles.get() > 0);
        assert!(result.cpu.mispredicts.get() > 0);
        assert!(result.cpu.fetch_redirect_stall_cycles.get() >= cpu.mispredict_penalty);
        assert!(result.cpu.cpi_stack.get(StallCause::BranchRecovery) > 0);
    }

    #[test]
    fn serialization_drains_the_window_before_traps() {
        // A syscall must not dispatch alongside older instructions.
        let src = "main: li a7, 3
 li t0, 5
 li t1, 6
 syscall
 add t2, t0, t1
 halt
";
        let result = run_src(src, CpuConfig::default(), MemConfig::default());
        assert_eq!(result.committed, 6);
        // The trap penalty plus drain makes this far slower than 6/4 cycles.
        assert!(result.cycles > 10, "{}", result.cycles);
    }

    #[test]
    fn zero_latency_forwarding_does_not_exist() {
        // A chain of dependent adds commits at most one per cycle after
        // warmup: cycles >= chain length.
        let src = "main: li a0, 1
 add a0, a0, a0
 add a0, a0, a0
 add a0, a0, a0
 add a0, a0, a0
 add a0, a0, a0
 add a0, a0, a0
 halt
";
        let result = run_src(src, CpuConfig::default(), MemConfig::default());
        assert!(
            result.cycles >= 6,
            "dependent chain must serialise: {}",
            result.cycles
        );
    }

    #[test]
    fn wrong_path_fetch_pollutes_the_icache() {
        // A data-dependent unpredictable branch selecting between two far
        // code paths: wrong-path fetch drags the untaken side through the
        // i-cache.
        let src = r#"
            .data
            keys: .space 8192
            .text
            main:
                # pseudo-random keys
                la   t0, keys
                li   t1, 1024
                li   t2, 998877
            gen:
                slli t3, t2, 13
                xor  t2, t2, t3
                srli t3, t2, 7
                xor  t2, t2, t3
                slli t3, t2, 17
                xor  t2, t2, t3
                sd   t2, 0(t0)
                addi t0, t0, 8
                addi t1, t1, -1
                bnez t1, gen
                la   t0, keys
                li   t1, 1024
                li   a0, 0
            loop:
                ld   t2, 0(t0)
                andi t2, t2, 1
                bnez t2, odd
                addi a0, a0, 1
                j    next
            odd:
                addi a0, a0, 3
            next:
                addi t0, t0, 8
                addi t1, t1, -1
                bnez t1, loop
                halt
        "#;
        let without = run_src(src, CpuConfig::default(), MemConfig::default());
        let mut cfg = CpuConfig::default();
        cfg.wrong_path_fetch = true;
        let with = run_src(src, cfg, MemConfig::default());
        assert_eq!(without.cpu.wrong_path_blocks.get(), 0);
        assert!(
            with.cpu.wrong_path_blocks.get() > 100,
            "unpredictable branches must trigger wrong-path runs: {}",
            with.cpu.wrong_path_blocks.get()
        );
        // Same architectural work either way.
        assert_eq!(with.committed, without.committed);
        // Wrong-path fetch adds i-cache traffic (fetches counter includes
        // the wrong-path blocks).
        assert!(with.mem.fetches.get() > without.mem.fetches.get());
    }

    #[test]
    fn wrong_path_fetch_off_by_default_and_deterministic() {
        let mut cfg = CpuConfig::default();
        cfg.wrong_path_fetch = true;
        let a = run_src(SUM_LOOP, cfg, MemConfig::default());
        let b = run_src(SUM_LOOP, cfg, MemConfig::default());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.cpu.wrong_path_blocks.get(), b.cpu.wrong_path_blocks.get());
    }

    #[test]
    fn determinism_end_to_end() {
        let a = run_src(SUM_LOOP, CpuConfig::default(), MemConfig::default());
        let b = run_src(SUM_LOOP, CpuConfig::default(), MemConfig::default());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.mem.loads.get(), b.mem.loads.get());
    }

    #[test]
    fn cpi_stack_conserves_commit_slots() {
        let result = run_src(SUM_LOOP, CpuConfig::default(), MemConfig::default());
        let width = u64::from(CpuConfig::default().commit_width);
        assert_eq!(result.cpu.cpi_stack.total(), result.cycles * width);
        assert_eq!(
            result.cpu.cpi_stack.get(crate::StallCause::Base),
            result.committed,
            "one Base slot per committed instruction"
        );
    }

    #[test]
    fn port_conflicts_show_up_in_the_cpi_stack() {
        // Four independent cache-resident loads per iteration against a
        // single port: the conflict retries must be attributed.
        let src = r#"
            .data
            buf: .space 1024
            .text
            main:
                li   s1, 20
            outer:
                la   t0, buf
                li   t1, 32
            loop:
                ld   a0, 0(t0)
                ld   a1, 8(t0)
                ld   a2, 16(t0)
                ld   a3, 24(t0)
                addi t0, t0, 32
                addi t1, t1, -1
                bnez t1, loop
                addi s1, s1, -1
                bnez s1, outer
                halt
        "#;
        let one = run_src(src, CpuConfig::default(), MemConfig::default());
        let mut dual = MemConfig::default();
        dual.ports.count = 2;
        let two = run_src(src, CpuConfig::default(), dual);
        let cause = crate::StallCause::DcachePortConflict;
        assert!(
            one.cpu.cpi_stack.get(cause) > 0,
            "a single port under four loads/iteration must conflict"
        );
        assert!(
            one.cpu.cpi_stack.get(cause) > two.cpu.cpi_stack.get(cause),
            "the second port must absorb conflict slots: {} vs {}",
            one.cpu.cpi_stack.get(cause),
            two.cpu.cpi_stack.get(cause)
        );
    }

    #[test]
    fn max_inst_cap_stops_early() {
        let program = assemble(SUM_LOOP).unwrap();
        let core = Core::new(
            CpuConfig::default(),
            MemSystem::new(MemConfig::default()),
            Emulator::new(program),
        );
        let result = core.try_run(Some(100)).expect("the run completes");
        assert!(result.committed >= 100);
        assert!(result.committed < 200);
    }
}

/// Property tests pitting the event-driven scheduler against the
/// per-cycle broadcast oracle ([`Core::issue_broadcast`] and
/// [`Core::gate_load`]): on random programs, across window sizes, the
/// two paths must produce identical
/// per-cycle issue and commit sequences — not just the same end state.
#[cfg(test)]
mod oracle_props {
    use super::*;
    use cpe_isa::asm::assemble;
    use cpe_isa::Emulator;
    use cpe_mem::MemConfig;
    use proptest::prelude::*;

    /// Window sizes every equivalence property runs: the presets' powers
    /// of two, plus sizes that fill only part of the slot ring (5, 48)
    /// and the one-entry window whose every slot is the head.
    pub(super) const WINDOWS: [usize; 6] = [1, 5, 8, 32, 48, 128];

    /// Operand pool for generated programs. `t0` holds the data-buffer
    /// base and `s1` the loop counter, so neither appears here.
    const POOL: [&str; 12] = [
        "t1", "t2", "t3", "t4", "t5", "t6", "a0", "a1", "a2", "a3", "a4", "a5",
    ];

    /// One generated instruction, rendered to assembler text later.
    #[derive(Debug, Clone)]
    pub(super) enum GenInst {
        /// Register-register ALU op.
        Rrr(&'static str, u8, u8, u8),
        /// Register-immediate ALU op.
        Rri(&'static str, u8, u8, i64),
        /// Load of the given mnemonic at `offset(t0)`.
        Load(&'static str, u8, u64),
        /// Store of the given mnemonic at `offset(t0)`.
        Store(&'static str, u8, u64),
    }

    fn render(inst: &GenInst, src: &mut String) {
        use std::fmt::Write;
        match *inst {
            GenInst::Rrr(op, rd, rs1, rs2) => writeln!(
                src,
                "    {op} {}, {}, {}",
                POOL[rd as usize], POOL[rs1 as usize], POOL[rs2 as usize]
            ),
            GenInst::Rri(op, rd, rs1, imm) => {
                writeln!(
                    src,
                    "    {op} {}, {}, {imm}",
                    POOL[rd as usize], POOL[rs1 as usize]
                )
            }
            GenInst::Load(op, rd, offset) => {
                writeln!(src, "    {op} {}, {offset}(t0)", POOL[rd as usize])
            }
            GenInst::Store(op, rs, offset) => {
                writeln!(src, "    {op} {}, {offset}(t0)", POOL[rs as usize])
            }
        }
        .expect("writing to a String cannot fail");
    }

    /// A random instruction: ALU traffic for dependency chains, a rare
    /// long-latency divide to stretch the event queue, and loads/stores
    /// of every width packed into 64 bytes so partial overlaps (the
    /// store queue's range checks) are common.
    pub(super) fn arb_inst() -> impl Strategy<Value = GenInst> {
        let reg = 0u8..POOL.len() as u8;
        prop_oneof![
            3 => (
                prop::sample::select(vec!["add", "sub", "and", "or", "xor", "mul"]),
                reg.clone(), reg.clone(), reg.clone()
            ).prop_map(|(op, rd, rs1, rs2)| GenInst::Rrr(op, rd, rs1, rs2)),
            2 => (reg.clone(), reg.clone(), -64i64..64)
                .prop_map(|(rd, rs1, imm)| GenInst::Rri("addi", rd, rs1, imm)),
            1 => (reg.clone(), reg.clone(), reg.clone())
                .prop_map(|(rd, rs1, rs2)| GenInst::Rrr("div", rd, rs1, rs2)),
            2 => (
                prop::sample::select(vec![("ld", 8u64), ("lw", 4), ("lh", 2), ("lb", 1)]),
                reg.clone(), prop::sample::select(vec![0u64, 1, 2, 3, 4, 5, 6, 7])
            ).prop_map(|((op, size), rd, slot)| GenInst::Load(op, rd, slot * size)),
            2 => (
                prop::sample::select(vec![("sd", 8u64), ("sw", 4), ("sh", 2), ("sb", 1)]),
                reg, prop::sample::select(vec![0u64, 1, 2, 3, 4, 5, 6, 7])
            ).prop_map(|((op, size), rs, slot)| GenInst::Store(op, rs, slot * size)),
        ]
    }

    /// Wrap a generated body in a self-contained program: seed the pool,
    /// then run the body three times around a backward branch (redirects
    /// and re-dispatch exercise candidate-set teardown across the loop).
    pub(super) fn program_text(seeds: &[i64], body: &[GenInst]) -> String {
        use std::fmt::Write;
        let mut src = String::from(".data\nbuf: .space 4096\n.text\nmain:\n    la t0, buf\n");
        for (slot, &seed) in seeds.iter().enumerate() {
            writeln!(src, "    li {}, {seed}", POOL[slot]).expect("infallible");
        }
        src.push_str("    li s1, 3\nouter:\n");
        for inst in body {
            render(inst, &mut src);
        }
        src.push_str("    addi s1, s1, -1\n    bnez s1, outer\n    halt\n");
        src
    }

    /// The same instruction mix with its loads and stores spread 64
    /// bytes apart per slot, so they touch many cache lines and a small
    /// MSHR file fills up.
    fn arb_spread_inst() -> impl Strategy<Value = GenInst> {
        arb_inst().prop_map(|inst| match inst {
            GenInst::Load(op, rd, offset) => GenInst::Load(op, rd, offset * 64),
            GenInst::Store(op, rs, offset) => GenInst::Store(op, rs, offset * 64),
            other => other,
        })
    }

    /// Memory systems small enough that loads park on a full MSHR file
    /// while stores wait in the store buffer.
    #[allow(clippy::field_reassign_with_default)]
    fn parking_mems() -> [MemConfig; 3] {
        let mut one = MemConfig::default();
        one.mshrs = 1;
        one.store_buffer.entries = 4;
        let mut two = MemConfig::default();
        two.mshrs = 2;
        two.store_buffer.entries = 8;
        two.ports.count = 2;
        let mut banked = two;
        banked.ports.banks = 2;
        [one, two, banked]
    }

    /// Everything the two paths must agree on. The CPI stack and the
    /// memory-side counters ride along: the oracle path never
    /// cycle-skips while the event path does, so their equality proves
    /// the bulk-record attribution is exactly what per-cycle stepping
    /// would have produced.
    #[derive(Debug, PartialEq, Eq)]
    pub(super) struct RunLog {
        issues: Vec<(Cycle, u64)>,
        commits: Vec<(Cycle, u64)>,
        cycles: u64,
        committed: u64,
        order_stalls: u64,
        forwards: u64,
        cpi: crate::cpi::CpiStack,
        /// `Debug` of the full `MemStats`.
        mem: String,
    }

    fn run_mode(src: &str, window: usize, oracle: bool) -> RunLog {
        let program = assemble(src).expect("generated programs assemble");
        run_stream(Emulator::new(program), window, oracle)
    }

    /// Run any committed-path stream through a fresh core and log what
    /// the equivalence suites compare ([`run_mode`] for source text; the
    /// replay properties feed recorded traces through here directly).
    pub(super) fn run_stream(
        trace: impl Iterator<Item = DynInst>,
        window: usize,
        oracle: bool,
    ) -> RunLog {
        run_core(trace, window, MemConfig::default(), oracle).0
    }

    /// [`run_stream`] over any memory system; also returns how many
    /// skips the run took over parked cycles.
    fn run_core(
        trace: impl Iterator<Item = DynInst>,
        window: usize,
        mem: MemConfig,
        oracle: bool,
    ) -> (RunLog, u64) {
        let cpu = CpuConfig {
            rob_entries: window,
            ..CpuConfig::default()
        };
        let mut core = Core::new(cpu, MemSystem::new(mem), trace);
        core.oracle = oracle;
        while core.try_step().expect("the watchdog stays quiet") {}
        // The conservation invariant, on every generated program.
        assert_eq!(
            core.stats.cpi_stack.total(),
            core.stats.cycles.get() * u64::from(core.config.commit_width),
            "CPI stack must sum to cycles × commit_width"
        );
        assert_eq!(
            core.stats.cpi_stack.get(StallCause::Base),
            core.stats.committed.get(),
            "every committed instruction is one Base slot"
        );
        let log = RunLog {
            issues: core.issue_log,
            commits: core.commit_log,
            cycles: core.stats.cycles.get(),
            committed: core.stats.committed.get(),
            order_stalls: core.stats.lsq_order_stalls.get(),
            forwards: core.stats.lsq_forwards.get(),
            cpi: core.stats.cpi_stack.clone(),
            mem: format!("{:?}", core.mem.stats()),
        };
        (log, core.parked_skips)
    }

    #[test]
    fn parked_cycles_are_skipped_and_match_the_stepped_oracle() {
        // Independent loads to distinct lines behind one MSHR, with
        // stores queued in the store buffer: most cycles wait on the
        // fill with loads bouncing off the full MSHR file.
        let mut src = String::from(".data\nbuf: .space 8192\n.text\nmain:\n    la t0, buf\n");
        for line in 0..24 {
            src.push_str(&format!("    ld a{}, {}(t0)\n", line % 6, line * 256));
            if line % 3 == 0 {
                src.push_str(&format!(
                    "    sd a{}, {}(t0)\n",
                    line % 6,
                    line * 256 + 4096
                ));
            }
        }
        src.push_str("    halt\n");
        let program = assemble(&src).expect("assembles");
        for mem in parking_mems() {
            let (event, parked) = run_core(Emulator::new(program.clone()), 32, mem, false);
            let (oracle, _) = run_core(Emulator::new(program.clone()), 32, mem, true);
            assert!(parked > 0, "no parked skip with {} MSHR(s)", mem.mshrs);
            assert_eq!(event, oracle, "{} MSHR(s)", mem.mshrs);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn event_driven_select_matches_the_broadcast_oracle(
            seeds in prop::collection::vec(-1000i64..1000, 12),
            body in prop::collection::vec(arb_inst(), 1..40),
        ) {
            let src = program_text(&seeds, &body);
            for window in WINDOWS {
                let event = run_mode(&src, window, false);
                let oracle = run_mode(&src, window, true);
                prop_assert!(
                    !event.issues.is_empty() && !event.commits.is_empty(),
                    "the logs must see traffic for the comparison to mean anything"
                );
                prop_assert_eq!(&event, &oracle, "window {}", window);
            }
        }

        #[test]
        fn parked_skips_match_the_broadcast_oracle(
            seeds in prop::collection::vec(-1000i64..1000, 12),
            body in prop::collection::vec(arb_spread_inst(), 1..40),
        ) {
            let src = program_text(&seeds, &body);
            let program = assemble(&src).expect("generated programs assemble");
            for mem in parking_mems() {
                for window in WINDOWS {
                    let (event, _) = run_core(Emulator::new(program.clone()), window, mem, false);
                    let (oracle, _) = run_core(Emulator::new(program.clone()), window, mem, true);
                    prop_assert_eq!(
                        &event, &oracle,
                        "{} MSHR(s), window {}", mem.mshrs, window
                    );
                }
            }
        }
    }
}

/// Property tests pitting the replay backend against direct functional
/// execution: on random programs, for every window size, a core fed a
/// [`cpe_isa::replay::RecordedTrace`] must produce the identical per-cycle
/// issue and commit sequences — and the identical CPI stack — as a core
/// driving the emulator live. One recording serves all three timing
/// configurations, which is exactly the
/// record-once / replay-many contract the sweep relies on.
#[cfg(test)]
mod replay_props {
    use super::oracle_props::{arb_inst, program_text, run_stream, WINDOWS};
    use cpe_isa::asm::assemble;
    use cpe_isa::replay::RecordedTrace;
    use cpe_isa::Emulator;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn replay_matches_direct_execution_per_cycle(
            seeds in prop::collection::vec(-1000i64..1000, 12),
            body in prop::collection::vec(arb_inst(), 1..40),
        ) {
            let src = program_text(&seeds, &body);
            let program = assemble(&src).expect("generated programs assemble");
            // Record once; replay through every timing configuration.
            let recorded = RecordedTrace::record(Emulator::new(program.clone()), None);
            prop_assert!(recorded.complete());
            for window in WINDOWS {
                let direct = run_stream(Emulator::new(program.clone()), window, false);
                let replay = run_stream(recorded.iter(), window, false);
                prop_assert_eq!(&direct, &replay, "window {}", window);
            }
        }
    }
}
