//! Design-space exploration: a two-dimensional sweep of port width ×
//! store-buffer depth on the single-ported cache, rendered as a grid.
//!
//! Shows how to use the library for exploration beyond the paper's named
//! design points, and demonstrates the parallel sweep runner.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use cpe::exec::SweepPlan;
use cpe::stats::Table;
use cpe::workloads::{Scale, Workload};
use cpe::{BackendKind, SimConfig};

fn main() {
    let widths = [8u64, 16, 32];
    let depths = [0usize, 2, 4, 8];
    let window = Some(120_000);

    // Build the full grid as one experiment so runs share the window and
    // can execute in parallel.
    let mut configs = Vec::new();
    for &width in &widths {
        for &depth in &depths {
            configs.push(
                SimConfig::naive_single_port()
                    .with_wide_port(width, true)
                    .with_store_buffer(depth, true)
                    .with_line_buffers(4, width)
                    .named(&format!("{width}B/SB{depth}")),
            );
        }
    }
    configs.push(SimConfig::dual_port());
    let reference = configs.len() - 1;

    eprintln!(
        "sweeping {} configurations × {} workloads in parallel ...",
        configs.len(),
        Workload::ALL.len()
    );
    let results = SweepPlan {
        configs,
        workloads: Workload::ALL.to_vec(),
        scale: Scale::Small,
        max_insts: window,
        backend: BackendKind::Replay,
    }
    .run(0)
    .expect("the grid is not empty");

    // Render the grid: rows = width, columns = store-buffer depth, cells =
    // geomean IPC relative to the dual-ported reference.
    let mut header = vec!["port width \\ SB depth".to_string()];
    header.extend(depths.iter().map(|d| format!("SB{d}")));
    let mut grid = Table::new(header);
    let mut best = (String::new(), 0.0f64);
    for (w, &width) in widths.iter().enumerate() {
        let mut row = vec![format!("{width}B")];
        for (d, _) in depths.iter().enumerate() {
            let index = w * depths.len() + d;
            let relative = results.geomean_relative(index, reference);
            if relative > best.1 {
                best = (results.plan().configs[index].name.clone(), relative);
            }
            row.push(format!("{relative:.3}"));
        }
        grid.row(row);
    }

    println!("\ngeomean IPC relative to the dual-ported cache:\n");
    println!("{grid}");
    println!(
        "best single-port point: {} at {:.1}% of dual-ported performance —",
        best.0,
        best.1 * 100.0
    );
    println!("the paper's combined design sits at the knee of this surface.");
}
