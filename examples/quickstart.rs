//! Quickstart: reproduce the paper's headline claim in one page.
//!
//! Runs the six-workload suite on three machines — the naive single-ported
//! cache, the paper's combined single-port techniques, and the expensive
//! dual-ported reference — and prints how much of the dual-ported
//! performance the single-port design recovers (the paper reports 91%).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cpe::exec::SweepPlan;
use cpe::workloads::{Scale, Workload};
use cpe::{BackendKind, SimConfig};

fn main() {
    let window_insts = 300_000;
    let window = Some(window_insts);
    println!("cache-port efficiency quickstart");
    println!("  machines : naive 1-port | combined 1-port | 2-port reference");
    println!(
        "  workloads: {}",
        Workload::ALL.map(|w| w.name()).join(", ")
    );
    println!("  window   : {window_insts} committed instructions per run\n");

    let results = SweepPlan {
        configs: vec![
            SimConfig::naive_single_port(),
            SimConfig::combined_single_port(),
            SimConfig::dual_port(),
        ],
        workloads: Workload::ALL.to_vec(),
        scale: Scale::Small,
        max_insts: window,
        backend: BackendKind::Replay,
    }
    .run(0)
    .expect("the grid is not empty");

    println!("\nIPC:");
    println!("{}", results.ipc_table());
    println!("IPC relative to the dual-ported cache:");
    println!("{}", results.relative_table(2));

    let naive = results.geomean_relative(0, 2);
    let combined = results.geomean_relative(1, 2);
    println!(
        "geomean: naive single port reaches {:.0}% of dual-ported performance;",
        naive * 100.0
    );
    println!(
        "         the paper's combined single-port techniques reach {:.0}% (paper: 91%).",
        combined * 100.0
    );
}
