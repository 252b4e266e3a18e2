//! Operating-system activity and its effect on the memory system.
//!
//! The paper insisted on evaluating with workloads that *include the OS*:
//! kernel code disturbs user locality and adds differently-shaped memory
//! traffic. This example runs the build-driver workload under increasing
//! amounts of injected kernel activity and reports the per-mode breakdown.
//!
//! ```text
//! cargo run --release --example os_workload
//! ```

use cpe::isa::Emulator;
use cpe::stats::Table;
use cpe::workloads::os::{OsConfig, OsInjector};
use cpe::workloads::programs::pmake;
use cpe::{SimConfig, Simulator};

fn main() {
    let window = Some(150_000);
    let sim = Simulator::try_new(SimConfig::dual_port()).expect("the config validates");

    let mut table = Table::new([
        "OS presence",
        "kernel insts %",
        "IPC",
        "user IPC",
        "kernel IPC",
        "I-MPKI",
        "D-MPKI",
    ]);
    for (label, config) in [
        ("none", OsConfig::none()),
        ("light", OsConfig::light()),
        ("moderate", OsConfig::default()),
        ("heavy", OsConfig::heavy()),
    ] {
        eprintln!("  running pmake with {label} OS activity ...");
        let user = Emulator::new(pmake::program(400));
        let trace = OsInjector::new(user, config);
        let summary = sim
            .try_run_trace(&format!("pmake+{label}"), trace, window)
            .expect("the run completes");
        table.row([
            label.to_string(),
            format!("{:.1}", summary.kernel_fraction * 100.0),
            format!("{:.3}", summary.ipc),
            format!("{:.3}", summary.user_ipc),
            format!("{:.3}", summary.kernel_ipc),
            format!("{:.2}", summary.icache_mpki),
            format!("{:.2}", summary.dcache_mpki),
        ]);
    }

    println!("\npmake under increasing kernel activity (dual-ported cache):");
    println!("{table}");
    println!(
        "Kernel bursts trap-serialise the pipeline and drag their own code and data\n\
         through the L1s, so both instruction-cache pressure and overall IPC shift\n\
         with OS intensity — the effect the paper's full-system methodology captured\n\
         and user-only simulation misses."
    );
}
