//! Ablation: what each single-port technique contributes.
//!
//! Starts from the naive single-ported cache, adds each of the paper's
//! techniques alone, then removes each one from the combined design —
//! showing both the marginal benefit and the marginal cost of every
//! mechanism.
//!
//! ```text
//! cargo run --release --example technique_ablation
//! ```

use cpe::exec::SweepPlan;
use cpe::workloads::{Scale, Workload};
use cpe::{BackendKind, SimConfig};

fn main() {
    let window = Some(150_000);

    let configs = vec![
        SimConfig::naive_single_port(),
        SimConfig::naive_single_port()
            .with_store_buffer(8, true)
            .named("+store buffer"),
        SimConfig::naive_single_port()
            .with_wide_port(16, true)
            .named("+wide port"),
        SimConfig::naive_single_port()
            .with_line_buffers(4, 16)
            .named("+line buffers"),
        SimConfig::combined_single_port().named("combined"),
        SimConfig::dual_port(),
    ];

    let results = SweepPlan {
        configs,
        workloads: Workload::ALL.to_vec(),
        scale: Scale::Small,
        max_insts: window,
        backend: BackendKind::Replay,
    }
    .run(0)
    .expect("the grid is not empty");

    println!("\nIPC relative to the dual-ported reference (higher is better):");
    println!("{}", results.relative_table(5));

    println!("fraction of loads served without a port (the techniques' mechanism):");
    println!(
        "{}",
        results.metric_table("portless loads", "portless_load_fraction", false)
    );

    println!("commit cycles lost to rejected stores per kilocycle (what buffering fixes):");
    println!(
        "{}",
        results.metric_table("store stalls", "store_stall_per_kcycle", false)
    );

    let naive = results.geomean_relative(0, 5);
    let combined = results.geomean_relative(4, 5);
    println!(
        "geomean recovery: naive {:.1}% → combined {:.1}% of dual-ported performance.",
        naive * 100.0,
        combined * 100.0
    );
}
