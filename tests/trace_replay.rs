//! Record/replay equivalence through the CPER file format: timing a
//! trace written to bytes and parsed back must be bit-identical to
//! timing the live emulator.

use cpe::exec::fnv1a64;
use cpe::isa::replay::{parse_recorded, write_recorded, RecordedTrace};
use cpe::workloads::{Scale, Workload};
use cpe::{RecordedWorkload, SimConfig, Simulator};

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

        let sim =
            Simulator::try_new(SimConfig::combined_single_port()).expect("the config validates");
        let live = sim
            .try_run(workload, Scale::Test, None)
            .expect("the run completes");
        let replayed = sim
            .try_run_trace(workload.name(), recorded.iter(), None)
            .expect("the run completes");
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

#[test]
fn cper_bytes_are_pinned() {
    // Test scale under `cpe sweep`'s default 20k window, recorded as a
    // replay sweep records it (window plus headroom). `pmake` carries
    // kernel records. A change to the dictionary order or the encoding
    // moves these numbers.
    for (workload, len, digest) in [
        (Workload::Compress, 50_710, 0xec7b_72fa_2926_83f1),
        (Workload::Pmake, 105_888, 0xcf05_49ed_a20b_97c3),
    ] {
        let recorded = RecordedWorkload::record(workload, Scale::Test, Some(20_000));
        let mut bytes = Vec::new();
        write_recorded(&mut bytes, recorded.trace()).unwrap();
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (len, digest),
            "{workload}: {} bytes, digest {:#018x}",
            bytes.len(),
            fnv1a64(&bytes)
        );
    }
}
