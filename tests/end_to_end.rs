//! Whole-stack integration: assembler → emulator → OS injection → timing
//! core → memory system, checked end to end.

use cpe::exec::render::{member, member_path, number_at};
use cpe::exec::SweepPlan;
use cpe::isa::{asm::assemble, Emulator, Mode};
use cpe::workloads::{Scale, Workload};
use cpe::{parse_json, BackendKind, JsonValue, SimConfig, Simulator};

/// The timing model must commit exactly the instructions the functional
/// model executes — no drops, no duplicates — for every workload.
#[test]
fn timing_commits_exactly_the_functional_stream() {
    for workload in Workload::ALL {
        let expected = workload.trace(Scale::Test).count() as u64;
        let summary =
            Simulator::new(SimConfig::naive_single_port()).run(workload, Scale::Test, None);
        assert_eq!(summary.insts, expected, "{workload}");
        assert!(summary.cycles > 0, "{workload}");
    }
}

/// Two identical runs must agree cycle-for-cycle and counter-for-counter.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let s = Simulator::new(SimConfig::combined_single_port()).run(
            Workload::Pmake,
            Scale::Test,
            None,
        );
        (
            s.cycles,
            s.insts,
            s.raw.mem.loads.get(),
            s.raw.mem.load_lb_hits.get(),
            s.raw.mem.store_drains.get(),
            s.raw.cpu.mispredicts.get(),
            s.raw.cpu.kernel_cycles.get(),
        )
    };
    assert_eq!(run(), run());
}

/// The committed load/store counts seen by the CPU must equal the demand
/// references accepted by the memory system.
#[test]
fn cpu_and_memory_agree_on_reference_counts() {
    for workload in [Workload::Compress, Workload::Sort, Workload::Pmake] {
        let summary = Simulator::new(SimConfig::dual_port()).run(workload, Scale::Test, None);
        // Loads reach the memory system exactly once — except those the
        // LSQ forwarded from an in-flight store, which never leave the
        // core at all.
        assert_eq!(
            summary.raw.cpu.loads.get(),
            summary.raw.mem.loads.get() + summary.raw.cpu.lsq_forwards.get(),
            "{workload}: every committed load was initiated exactly once"
        );
        assert_eq!(
            summary.raw.cpu.stores.get(),
            summary.raw.mem.stores.get(),
            "{workload}: every committed store was accepted exactly once"
        );
    }
}

/// IPC must not change the *architectural* result: run the same program
/// through the emulator standalone and confirm the timing run committed
/// the same instruction count (the timing model is execution-faithful).
#[test]
fn timing_is_architecturally_transparent() {
    let program = Workload::Fft.program(Scale::Test);
    let mut emu = Emulator::new(program.clone());
    emu.run_to_halt(10_000_000).expect("halts");
    let functional_count = emu.executed();

    let sim = Simulator::new(SimConfig::quad_port());
    let summary = sim.run_trace("fft", Emulator::new(program), None);
    assert_eq!(summary.insts, functional_count);
}

/// Kernel-mode instructions flow through the same pipeline and are
/// accounted per mode; user+kernel commits must sum to the total.
#[test]
fn mode_accounting_sums() {
    let summary = Simulator::new(SimConfig::single_port()).run(Workload::Pmake, Scale::Test, None);
    let cpu = &summary.raw.cpu;
    assert_eq!(
        cpu.committed_user.get() + cpu.committed_kernel.get(),
        cpu.committed.get()
    );
    assert_eq!(
        cpu.user_cycles.get() + cpu.kernel_cycles.get(),
        cpu.cycles.get()
    );
    assert!(
        cpu.committed_kernel.get() > 0,
        "pmake must have kernel activity"
    );
    // The trace itself agrees with the committed kernel fraction.
    let kernel_in_trace = Workload::Pmake
        .trace(Scale::Test)
        .filter(|di| di.mode == Mode::Kernel)
        .count() as u64;
    assert_eq!(cpu.committed_kernel.get(), kernel_in_trace);
}

/// A hand-written program goes all the way through the public API.
#[test]
fn custom_program_through_the_full_stack() {
    let program = assemble(
        r#"
        .data
        v: .quad 5, 4, 3, 2, 1
        .text
        main:
            la   t0, v
            li   t1, 5
            li   a0, 0
        sum:
            ld   t2, 0(t0)
            add  a0, a0, t2
            sd   a0, 0(t0)      # running prefix sums back into v
            addi t0, t0, 8
            addi t1, t1, -1
            bnez t1, sum
            halt
        "#,
    )
    .expect("assembles");

    // Functional check: v becomes prefix sums of 5,4,3,2,1.
    let mut emu = Emulator::new(program.clone());
    emu.run_to_halt(1_000).unwrap();
    let v = program.symbol("v").unwrap();
    let got: Vec<u64> = (0..5).map(|i| emu.mem().read_u64(v + i * 8)).collect();
    assert_eq!(got, vec![5, 9, 12, 14, 15]);

    // Timing check: the run completes and reports sane metrics.
    let summary = Simulator::new(SimConfig::combined_single_port()).run_trace(
        "prefix",
        Emulator::new(program),
        None,
    );
    assert_eq!(summary.insts, emu.executed());
    assert!(summary.ipc > 0.1 && summary.ipc <= 4.0);
}

/// Instruction windows cap comparative runs identically across configs.
#[test]
fn instruction_windows_align_comparisons() {
    let window = Some(10_000);
    let a =
        Simulator::new(SimConfig::naive_single_port()).run(Workload::Compress, Scale::Test, window);
    let b = Simulator::new(SimConfig::ideal_ports()).run(Workload::Compress, Scale::Test, window);
    // Both committed the same work (within one commit group).
    assert!(a.insts.abs_diff(b.insts) <= 4, "{} vs {}", a.insts, b.insts);
    assert!(
        b.cycles <= a.cycles,
        "more ports can never cost cycles here"
    );
}

/// Assert that every cell of a sweep aggregate counts each timed load on
/// exactly one path: `load_latency.count` equals the sum of the
/// `load_latency_paths.*.count`. Returns the number of cells checked.
fn assert_load_sources_reconcile(label: &str, aggregate: &str) -> usize {
    let doc = parse_json(aggregate).expect("aggregate parses");
    let Some(JsonValue::Array(cells)) = member(&doc, "cells") else {
        panic!("{label}: no `cells` array");
    };
    for cell in cells {
        let name = |key| match member(cell, key) {
            Some(JsonValue::Text(text)) => text.clone(),
            _ => panic!("{label}: a cell has no `{key}`"),
        };
        let cell_name = format!("{label}: {} / {}", name("config"), name("workload"));
        let total = number_at(cell, &["distributions", "load_latency", "count"])
            .unwrap_or_else(|| panic!("{cell_name}: no load_latency count"));
        let Some(JsonValue::Object(paths)) =
            member_path(cell, &["distributions", "load_latency_paths"])
        else {
            panic!("{cell_name}: no load_latency_paths");
        };
        let by_path: f64 = paths
            .iter()
            .map(|(path, histogram)| {
                number_at(histogram, &["count"])
                    .unwrap_or_else(|| panic!("{cell_name}: path `{path}` has no count"))
            })
            .sum();
        assert!(total > 0.0, "{cell_name}: no loads were timed");
        assert_eq!(total, by_path, "{cell_name}: load sources do not reconcile");
    }
    cells.len()
}

/// Load-source conservation over the committed golden grid and a fresh
/// sweep of every preset.
#[test]
fn load_latency_count_equals_the_sum_over_load_paths() {
    let golden = include_str!("../GOLDEN_metrics.json");
    assert_eq!(
        assert_load_sources_reconcile("GOLDEN_metrics.json", golden),
        12
    );
    let fresh = SweepPlan::standard(Scale::Test, Some(20_000))
        .with_backend(BackendKind::Replay)
        .run(0, None)
        .expect("the preset grid is valid");
    assert_eq!(fresh.stats.failed, 0);
    assert_eq!(
        assert_load_sources_reconcile("fresh sweep", &fresh.aggregate_json()),
        36
    );
}
