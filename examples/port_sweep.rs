//! Port sweep: how performance scales with true data-cache ports.
//!
//! Reproduces the paper's motivating observation: going from one port to
//! two buys a meaningful speedup on memory-dense code, while four or more
//! ports buy almost nothing — which is why the paper hunts for single-port
//! techniques instead of more ports.
//!
//! ```text
//! cargo run --release --example port_sweep
//! ```

use cpe::exec::SweepPlan;
use cpe::workloads::{Scale, Workload};
use cpe::{BackendKind, SimConfig};

fn main() {
    let window = Some(200_000);
    let results = SweepPlan {
        configs: vec![
            SimConfig::single_port(),
            SimConfig::dual_port(),
            SimConfig::quad_port(),
            SimConfig::ideal_ports(),
        ],
        workloads: Workload::ALL.to_vec(),
        scale: Scale::Small,
        max_insts: window,
        backend: BackendKind::Replay,
    }
    .run(0)
    .expect("the grid is not empty");

    println!("\nIPC by true port count:");
    println!("{}", results.ipc_table());
    println!("normalised to the single-ported machine:");
    println!("{}", results.relative_table(0));

    println!("data-port utilisation (fraction of offered slots used):");
    println!(
        "{}",
        results.metric_table("port util", "port_utilisation", false)
    );

    let two_vs_one = results.geomean_relative(1, 0);
    let four_vs_two = results.geomean_relative(2, 0) / two_vs_one;
    println!(
        "geomean: the second port is worth {:+.1}%, the third and fourth together {:+.1}% —",
        (two_vs_one - 1.0) * 100.0,
        (four_vs_two - 1.0) * 100.0,
    );
    println!("the classic diminishing-returns curve that motivates the paper.");
}
