//! Record/replay equivalence through the CPER file format: timing a
//! trace written to bytes and parsed back must be bit-identical to
//! timing the live emulator.

use cpe::isa::replay::{parse_recorded, write_recorded, RecordedTrace};
use cpe::workloads::{Scale, Workload};
use cpe::{SimConfig, Simulator};

/// `workload`'s whole committed path, through a CPER byte buffer.
fn file_roundtrip(workload: Workload) -> RecordedTrace {
    let mut buffer = Vec::new();
    write_recorded(
        &mut buffer,
        &RecordedTrace::record(workload.trace(Scale::Test), None),
    )
    .unwrap();
    parse_recorded(&buffer).unwrap()
}

#[test]
fn replayed_traces_time_identically() {
    for workload in [Workload::Sort, Workload::Pmake] {
        // Record (includes injected kernel activity).
        let recorded = file_roundtrip(workload);
        assert!(recorded.records() > 10_000);

        let sim = Simulator::new(SimConfig::combined_single_port());
        let live = sim.run(workload, Scale::Test, None);
        let replayed = sim.run_trace(workload.name(), recorded.iter(), None);
        assert_eq!(live.cycles, replayed.cycles, "{workload}");
        assert_eq!(live.insts, replayed.insts, "{workload}");
        assert_eq!(
            live.raw.mem.port_slots_used.get(),
            replayed.raw.mem.port_slots_used.get(),
            "{workload}"
        );
        assert_eq!(
            live.raw.cpu.mispredicts.get(),
            replayed.raw.cpu.mispredicts.get(),
            "{workload}"
        );
    }
}

#[test]
fn trace_files_round_trip_kernel_mode() {
    let kernel_records = file_roundtrip(Workload::Pmake)
        .iter()
        .filter(|di| di.mode.is_kernel())
        .count();
    let kernel_live = Workload::Pmake
        .trace(Scale::Test)
        .filter(|di| di.mode.is_kernel())
        .count();
    assert_eq!(kernel_records, kernel_live);
    assert!(kernel_records > 0);
}
