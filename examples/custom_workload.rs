//! Bring your own workload: assembly in, cycle-level results out.
//!
//! Demonstrates the full library surface a downstream user touches:
//! write a program in the `cpe-isa` assembly language, check its
//! architectural result with the functional emulator, then time it on two
//! machines — and, separately, drive the simulator with a purely
//! synthetic reference stream for controlled experiments.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use cpe::isa::{asm::assemble, Emulator};
use cpe::workloads::synth::{AddressPattern, SynthConfig, SyntheticTrace};
use cpe::{SimConfig, Simulator};

/// A little stencil kernel: b[i] = (a[i-1] + a[i] + a[i+1]) for an
/// L1-resident array, repeated over several sweeps.
const STENCIL: &str = r#"
    .data
    a:    .space 8208          # 1026 elements (one halo each side)
    b:    .space 8192
    sink: .space 8
    .text
    main:
        # init a[i] = i & 63
        la   t0, a
        li   t1, 1026
        li   t2, 0
    init:
        andi t3, t2, 63
        sd   t3, 0(t0)
        addi t0, t0, 8
        addi t2, t2, 1
        addi t1, t1, -1
        bnez t1, init
        li   s0, 40            # sweeps
    sweep:
        la   t0, a
        la   t1, b
        li   t2, 1024
    row:
        ld   a0, 0(t0)
        ld   a1, 8(t0)
        ld   a2, 16(t0)
        add  a0, a0, a1
        add  a0, a0, a2
        sd   a0, 0(t1)
        addi t0, t0, 8
        addi t1, t1, 8
        addi t2, t2, -1
        bnez t2, row
        addi s0, s0, -1
        bnez s0, sweep
        # checksum: b[0] + b[1023]
        la   t1, b
        ld   a0, 0(t1)
        ld   a1, 8184(t1)
        add  a0, a0, a1
        la   t2, sink
        sd   a0, 0(t2)
        halt
"#;

fn main() {
    // 1. Assemble and check the program functionally.
    let program = assemble(STENCIL).expect("stencil assembles");
    let mut emu = Emulator::new(program.clone());
    emu.run_to_halt(50_000_000).expect("halts");
    let sink = program.symbol("sink").expect("sink label");
    println!("functional result: checksum = {}", emu.mem().read_u64(sink));
    println!("dynamic instructions: {}", emu.executed());

    // 2. Time it on two machines.
    for config in [
        SimConfig::naive_single_port(),
        SimConfig::combined_single_port(),
    ] {
        let sim = Simulator::try_new(config).expect("the config validates");
        let summary = sim
            .try_run_trace("stencil", Emulator::new(program.clone()), None)
            .expect("the run completes");
        println!(
            "{:>16}: IPC {:.3}  ({} cycles; {:.0}% of loads served portlessly)",
            summary.config,
            summary.ipc,
            summary.cycles,
            summary.portless_load_fraction * 100.0
        );
    }
    println!(
        "The stencil re-reads each element three times across neighbouring\n\
         iterations — prime territory for line buffers and load combining.\n"
    );

    // 3. A controlled synthetic stream: 50% loads over 8 KiB, strided.
    let synth = SynthConfig {
        insts: 200_000,
        load_fraction: 0.5,
        store_fraction: 0.1,
        working_set_bytes: 8 * 1024,
        pattern: AddressPattern::Strided(8),
        body_insts: 64,
        seed: 42,
    };
    for config in [SimConfig::single_port(), SimConfig::dual_port()] {
        let sim = Simulator::try_new(config).expect("the config validates");
        let summary = sim
            .try_run_trace("synthetic-50%-loads", SyntheticTrace::new(synth), None)
            .expect("the run completes");
        println!(
            "{:>16}: IPC {:.3} on a 50%-load synthetic stream (port util {:.0}%)",
            summary.config,
            summary.ipc,
            summary.port_utilisation * 100.0
        );
    }
}
