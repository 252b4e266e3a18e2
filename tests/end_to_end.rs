//! Whole-stack integration: assembler → emulator → OS injection → timing
//! core → memory system, checked end to end.

use cpe::exec::{fnv1a64, SweepPlan};
use cpe::isa::{asm::assemble, Emulator, Mode};
use cpe::stats::Histogram;
use cpe::workloads::{Scale, Workload};
use cpe::{
    parse_json, profile_json, validate_cpi_stacks, ProfileOptions, RunSummary, SimConfig, Simulator,
};

/// One Test-scale run of `workload` on `config`.
fn run(config: SimConfig, workload: Workload, max_insts: Option<u64>) -> RunSummary {
    Simulator::try_new(config)
        .expect("the config validates")
        .try_run(workload, Scale::Test, max_insts)
        .expect("the run completes")
}

/// The timing model must commit exactly the instructions the functional
/// model executes — no drops, no duplicates — for every workload.
#[test]
fn timing_commits_exactly_the_functional_stream() {
    for workload in Workload::ALL {
        let expected = workload.trace(Scale::Test).count() as u64;
        let summary = run(SimConfig::naive_single_port(), workload, None);
        assert_eq!(summary.insts, expected, "{workload}");
        assert!(summary.cycles > 0, "{workload}");
    }
}

/// Two identical runs must agree cycle-for-cycle and counter-for-counter.
#[test]
fn whole_stack_determinism() {
    let fingerprint = || {
        let s = run(SimConfig::combined_single_port(), Workload::Pmake, None);
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
    assert_eq!(fingerprint(), fingerprint());
}

/// The committed load/store counts seen by the CPU must equal the demand
/// references accepted by the memory system.
#[test]
fn cpu_and_memory_agree_on_reference_counts() {
    for workload in [Workload::Compress, Workload::Sort, Workload::Pmake] {
        let summary = run(SimConfig::dual_port(), workload, None);
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

    let sim = Simulator::try_new(SimConfig::quad_port()).expect("the config validates");
    let summary = sim
        .try_run_trace("fft", Emulator::new(program), None)
        .expect("the run completes");
    assert_eq!(summary.insts, functional_count);
}

/// Kernel-mode instructions flow through the same pipeline and are
/// accounted per mode; user+kernel commits must sum to the total.
#[test]
fn mode_accounting_sums() {
    let summary = run(SimConfig::single_port(), Workload::Pmake, None);
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
    let summary = Simulator::try_new(SimConfig::combined_single_port())
        .expect("the config validates")
        .try_run_trace("prefix", Emulator::new(program), None)
        .expect("the run completes");
    assert_eq!(summary.insts, emu.executed());
    assert!(summary.ipc > 0.1 && summary.ipc <= 4.0);
}

/// Instruction windows cap comparative runs identically across configs.
#[test]
fn instruction_windows_align_comparisons() {
    let window = Some(10_000);
    let a = run(SimConfig::naive_single_port(), Workload::Compress, window);
    let b = run(SimConfig::ideal_ports(), Workload::Compress, window);
    // Both committed the same work (within one commit group).
    assert!(a.insts.abs_diff(b.insts) <= 4, "{} vs {}", a.insts, b.insts);
    assert!(
        b.cycles <= a.cycles,
        "more ports can never cost cycles here"
    );
}

/// Port-slot and MSHR conservation on every cycle, stepped or skipped,
/// over whole runs: each cycle records one `slots_per_cycle` sample, the
/// samples' weighted sum is the slots used, and every cycle offers one
/// slot per port. A miss is outstanding at the end of each cycle from its
/// allocation to the one before its fill, and a whole run leaves none in
/// flight, so the `mshr_occupancy` samples' weighted sum is the retired
/// misses' total `mshr_residency`.
#[test]
fn port_slots_are_conserved_on_every_cycle() {
    let mut configs = cpe::exec::preset_configs();
    configs.push(SimConfig::banked(2));
    for config in configs {
        let ports = u64::from(config.mem.ports.count);
        for workload in Workload::EXTENDED {
            let cell = format!("{} / {workload}", config.name);
            let summary = run(config.clone(), workload, None);
            let (mem, cycles) = (&summary.raw.mem, summary.cycles);
            let weighted = |histogram: &Histogram| -> u64 {
                histogram.iter().map(|(k, n)| k as u64 * n).sum()
            };
            let slots = &mem.slots_per_cycle;
            assert_eq!(slots.total(), cycles, "{cell}: one sample per cycle");
            assert_eq!(slots.overflow(), 0, "{cell}: a cycle beyond the ports");
            assert_eq!(
                weighted(slots),
                mem.port_slots_used.get(),
                "{cell}: slots used"
            );
            assert_eq!(
                mem.port_slots_offered.get(),
                ports * cycles,
                "{cell}: slots offered"
            );
            let occupancy = &mem.mshr_occupancy;
            assert_eq!(
                occupancy.total(),
                cycles,
                "{cell}: one MSHR sample per cycle"
            );
            assert_eq!(occupancy.overflow(), 0, "{cell}: more misses than MSHRs");
            assert_eq!(
                u128::from(weighted(occupancy)),
                mem.mshr_residency.sum(),
                "{cell}: MSHR-cycles"
            );
        }
    }
}

/// Load-source conservation, with the rest of the document validator's
/// checks, over the committed golden grid and a fresh sweep of every
/// preset: each cell's `load_latency.count` equals the sum of its
/// `load_latency_paths` counts.
#[test]
fn load_latency_count_equals_the_sum_over_load_paths() {
    let golden = parse_json(include_str!("../GOLDEN_metrics.json")).expect("GOLDEN parses");
    assert_eq!(validate_cpi_stacks(&golden), Ok(12));
    let fresh = SweepPlan::standard(Scale::Test, Some(20_000))
        .run(0)
        .expect("the preset grid is valid");
    assert_eq!(fresh.stats.failed, 0);
    let fresh = parse_json(&fresh.aggregate_json()).expect("the aggregate parses");
    assert_eq!(validate_cpi_stacks(&fresh), Ok(36));
}

/// Windows no preset uses — one entry, and sizes off a power of two —
/// keep the documents they produced when pinned: an FNV-1a-64 digest of
/// each extended workload's metrics document (Test scale under `cpe
/// sweep`'s default 20k window), its host-timed `self_profile` member
/// cut. Any moved counter, CPI slot, distribution or epoch moves a
/// digest.
#[test]
fn odd_window_documents_are_pinned() {
    const PINNED: [(usize, [u64; 8]); 3] = [
        (
            1,
            [
                0xb3ed_928c_122e_2f92,
                0x47f9_21d7_354d_9654,
                0x6d56_ff88_87b1_ee45,
                0x60bb_4936_58f4_290a,
                0x1298_6a99_0555_2fc9,
                0xe0cb_d125_48c5_567f,
                0xf9c7_c268_e96e_6fa7,
                0xbdac_44f1_8d41_d577,
            ],
        ),
        (
            48,
            [
                0x3611_0a80_31af_f240,
                0xed02_4de8_7aa0_83f4,
                0x2515_be2d_2878_6178,
                0xfd22_aad3_f263_aea5,
                0x79d5_f280_6673_727c,
                0x33f8_b3d2_aee8_66fa,
                0xb59c_47c5_ee56_6e55,
                0x6df2_9917_0c8e_018d,
            ],
        ),
        (
            100,
            [
                0x55b1_a9cf_4649_631d,
                0x4d16_a765_6b09_3a06,
                0x057c_6e94_9994_2b7a,
                0x7499_fc0d_dc6a_ffde,
                0x9442_3b15_fa11_47a5,
                0xd8e3_ce44_2600_c42c,
                0xca12_3c5a_9238_629e,
                0xd670_701f_a440_096b,
            ],
        ),
    ];
    let mut actual = Vec::new();
    for (rob_entries, _) in PINNED {
        let mut config = SimConfig::combined_single_port();
        config.cpu.rob_entries = rob_entries;
        let sim = Simulator::try_new(config).expect("the config validates");
        let digests = Workload::EXTENDED.map(|workload| {
            let run = sim
                .try_profile(
                    workload,
                    Scale::Test,
                    Some(20_000),
                    ProfileOptions::default(),
                )
                .expect("the run completes");
            let document = profile_json(&run, sim.config());
            let (timed, _) = document
                .split_once(",\"self_profile\":")
                .expect("the document ends with its self-profile");
            fnv1a64(timed.as_bytes())
        });
        actual.push((rob_entries, digests));
    }
    assert_eq!(actual, PINNED, "{actual:#018x?}");
}
