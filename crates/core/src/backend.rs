//! Execution-backend selection: direct functional emulation vs
//! record-once / replay-many.
//!
//! The timing model is backend-agnostic (see [`cpe_cpu::ExecBackend`]);
//! what this module adds is the *policy* layer: a named [`BackendKind`]
//! that front ends select with `--backend`, and [`RecordedWorkload`] —
//! one workload's committed path captured once into a compact
//! [`RecordedTrace`] and replayed through any number of timing
//! configurations. Replay is byte-identical to direct execution by
//! construction: the core consumes the exact same [`cpe_isa::DynInst`]
//! sequence either way, so every counter, distribution and CPI stack
//! matches at zero tolerance.

use std::sync::Arc;

use cpe_isa::replay::{RecordedTrace, ReplayIter, REPLAY_FORMAT};
use cpe_workloads::{Scale, Workload};

use crate::error::SimError;
use crate::observe::{ProfileOptions, ProfiledRun};
use crate::simulator::Simulator;

/// How a run obtains its committed-path instruction stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Drive the functional emulator live, per run.
    #[default]
    Direct,
    /// Record the functional execution once, replay it per run.
    Replay,
}

impl BackendKind {
    /// Every backend, in presentation order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Direct, BackendKind::Replay];

    /// The stable name (`"direct"`, `"replay"`), used in cache keys and
    /// CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Direct => "direct",
            BackendKind::Replay => "replay",
        }
    }

    /// Parse a backend name (the inverse of [`BackendKind::name`]).
    pub fn from_name(name: &str) -> Option<BackendKind> {
        BackendKind::ALL
            .into_iter()
            .find(|backend| backend.name() == name)
    }

    /// The trace-format version this backend's results depend on — folded
    /// into result-cache keys so a format bump invalidates replay-path
    /// entries without touching direct-path ones. Direct execution
    /// involves no recorded trace, hence 0.
    pub fn trace_format(self) -> u32 {
        match self {
            BackendKind::Direct => 0,
            BackendKind::Replay => REPLAY_FORMAT,
        }
    }
}

/// Extra records captured past a run's committed-instruction window.
///
/// The core pulls ahead of commit: the fetch buffer (2 × fetch width)
/// plus the reorder buffer can hold instructions that never commit
/// inside the window, and the end-of-stream test (`fetch_idle`, frontend
/// stall attribution) observes the stream one instruction further. The
/// largest preset machine keeps fewer than 200 instructions in flight;
/// this headroom dwarfs that by two orders of magnitude so a capped
/// recording is indistinguishable from the live stream for the whole
/// measured window.
pub const RECORD_HEADROOM: u64 = 16_384;

/// One workload's committed path, recorded once per
/// `(workload, scale, max_insts)` and shared (behind [`Arc`] clones)
/// across every timing configuration that replays it.
#[derive(Debug, Clone)]
pub struct RecordedWorkload {
    label: String,
    trace: Arc<RecordedTrace>,
}

impl RecordedWorkload {
    /// Execute `workload` functionally and capture its committed path.
    /// With a committed-instruction window the recording stops at
    /// `max_insts + RECORD_HEADROOM` records; without one it runs to the
    /// workload's halt.
    pub fn record(workload: Workload, scale: Scale, max_insts: Option<u64>) -> RecordedWorkload {
        let cap = max_insts.map(|max| max.saturating_add(RECORD_HEADROOM));
        RecordedWorkload {
            label: workload.name().to_string(),
            trace: Arc::new(RecordedTrace::record(workload.trace(scale), cap)),
        }
    }

    /// The workload name the summary is labelled with.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The underlying recording.
    pub fn trace(&self) -> &RecordedTrace {
        &self.trace
    }

    /// A fresh replay of the recording from its start.
    pub fn iter(&self) -> ReplayIter<'_> {
        self.trace.iter()
    }
}

/// Admit a recording read from outside bytes to a timed run of at most
/// `max_insts` committed instructions. [`cpe_isa::replay::parse_recorded`]
/// has checked the format; this checks what the timing model assumes of
/// the stream:
///
/// * a capped recording covers the window plus [`RECORD_HEADROOM`], so
///   the run never reaches the cut and never times a truncated stream;
/// * every load and store carries an effective address whose access does
///   not wrap the address space, and no other instruction carries one.
///   The emulator only produces such records; a file may not.
///
/// # Errors
///
/// [`SimError::Trace`] naming the record the run cannot get past.
pub fn check_replayable(trace: &RecordedTrace, max_insts: Option<u64>) -> Result<(), SimError> {
    let records = trace.records();
    if !trace.complete()
        && max_insts.is_none_or(|max| max.saturating_add(RECORD_HEADROOM) > records)
    {
        return Err(SimError::Trace {
            index: records,
            message: format!(
                "the recording was capped at {records} record(s), so it can time at most {} \
                 instruction(s)",
                records.saturating_sub(RECORD_HEADROOM)
            ),
        });
    }
    let malformed = trace.iter().enumerate().find(|(_, di)| match di.mem_addr {
        Some(addr) => !di.inst.op.is_mem() || addr.checked_add(di.mem_bytes()).is_none(),
        None => di.inst.op.is_mem(),
    });
    match malformed {
        None => Ok(()),
        Some((index, di)) => Err(SimError::Trace {
            index: index as u64,
            message: format!(
                "`{}` at pc {:#x} has a malformed memory reference ({:?})",
                di.inst, di.pc, di.mem_addr
            ),
        }),
    }
}

impl Simulator {
    /// [`Simulator::try_profile`] over a shared recording instead of live
    /// functional execution — the replay backend's run path. Produces a
    /// byte-identical metrics document (outside the host-timing
    /// `self_profile`) to the direct path.
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] when the pipeline stops making progress.
    pub fn try_profile_recorded(
        &self,
        recorded: &RecordedWorkload,
        max_insts: Option<u64>,
        options: ProfileOptions,
    ) -> Result<ProfiledRun, SimError> {
        self.try_profile_trace(recorded.label(), recorded.iter(), max_insts, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_roundtrip() {
        for backend in BackendKind::ALL {
            assert_eq!(BackendKind::from_name(backend.name()), Some(backend));
        }
        assert_eq!(BackendKind::from_name("quantum"), None);
        assert_eq!(BackendKind::default(), BackendKind::Direct);
    }

    #[test]
    fn trace_format_separates_the_backends() {
        assert_eq!(BackendKind::Direct.trace_format(), 0);
        assert_eq!(BackendKind::Replay.trace_format(), REPLAY_FORMAT);
        assert_ne!(REPLAY_FORMAT, 0);
    }

    #[test]
    fn a_capped_recording_refuses_runs_past_its_window() {
        let recorded = RecordedWorkload::record(Workload::Sort, Scale::Test, Some(2_000));
        assert!(check_replayable(recorded.trace(), Some(2_000)).is_ok());
        for max in [None, Some(2_001)] {
            let error = check_replayable(recorded.trace(), max).expect_err("past the window");
            assert!(error.to_string().contains("at most 2000"), "{error}");
        }
    }

    #[test]
    fn malformed_memory_references_become_typed_errors() {
        let trace: Vec<_> = Workload::Sort.trace(Scale::Test).take(5_000).collect();
        let load = trace.iter().position(|di| di.inst.op.is_load()).unwrap();
        let alu = trace.iter().position(|di| !di.inst.op.is_mem()).unwrap();
        assert!(check_replayable(&RecordedTrace::record(trace.clone(), None), None).is_ok());
        for (at, mem_addr) in [(load, None), (load, Some(u64::MAX)), (alu, Some(0x1000))] {
            let mut bad = trace.clone();
            bad[at].mem_addr = mem_addr;
            match check_replayable(&RecordedTrace::record(bad, None), None) {
                Err(SimError::Trace { index, .. }) => assert_eq!(index, at as u64),
                other => panic!("record {at} with {mem_addr:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn recording_is_shared_not_copied() {
        let recorded = RecordedWorkload::record(Workload::Sort, Scale::Test, Some(2_000));
        let clone = recorded.clone();
        assert!(Arc::ptr_eq(&recorded.trace, &clone.trace));
        assert_eq!(recorded.label(), "sort");
        // The headroom keeps a capped recording ahead of any core's
        // in-flight window.
        assert!(recorded.trace().records() > 2_000);
    }
}
