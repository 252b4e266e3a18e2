//! Analytical cross-checks: steady-state throughput of degenerate
//! streams has a closed form, and the timing model must land on it.
//!
//! These catch whole-model calibration bugs that unit tests (which pin
//! mechanisms, not rates) can miss.

use cpe::workloads::synth::{AddressPattern, SynthConfig, SyntheticTrace};
use cpe::{SimConfig, Simulator};

fn run(config: SimConfig, synth: SynthConfig) -> cpe::RunSummary {
    Simulator::try_new(config)
        .expect("the config validates")
        .try_run_trace("analytical", SyntheticTrace::new(synth), None)
        .expect("the run completes")
}

fn stream(load_fraction: f64, store_fraction: f64) -> SynthConfig {
    SynthConfig {
        insts: 100_000,
        load_fraction,
        store_fraction,
        working_set_bytes: 4 * 1024, // L1-resident after one lap
        pattern: AddressPattern::Strided(8),
        body_insts: 64,
        seed: 11,
    }
}

/// A pure ALU stream with ample units is bounded by the 4-wide
/// dispatch/commit: IPC must sit just below 4.
#[test]
fn alu_stream_saturates_the_machine_width() {
    let summary = run(SimConfig::ideal_ports(), stream(0.0, 0.0));
    assert!(
        summary.ipc > 3.5 && summary.ipc <= 4.0,
        "expected ~4 IPC on pure ALU work, got {:.3}",
        summary.ipc
    );
}

/// A nearly-pure load stream on one 8-byte port without any technique is
/// bounded by one load per cycle: IPC ≈ 1 / load_fraction ≈ 1.18.
#[test]
fn load_stream_is_port_rate_limited() {
    let config = SimConfig::single_port();
    // ~85% loads (the loop branch and a few ALU slots make up the rest).
    let summary = run(config, stream(0.85, 0.0));
    let loads_per_inst = summary.loads_per_kinst / 1000.0;
    let bound = 1.0 / loads_per_inst;
    assert!(
        summary.ipc <= bound * 1.02,
        "IPC {:.3} cannot exceed the one-load-per-cycle bound {:.3}",
        summary.ipc,
        bound
    );
    assert!(
        summary.ipc > bound * 0.85,
        "the port should be nearly saturated: IPC {:.3} vs bound {:.3} (util {:.2})",
        summary.ipc,
        bound,
        summary.port_utilisation
    );
    assert!(summary.port_utilisation > 0.9);
}

/// Two ports double the load bound (the two AGUs exactly cover it).
#[test]
fn dual_port_doubles_the_load_bound() {
    let one = run(SimConfig::single_port(), stream(0.85, 0.0));
    let two = run(SimConfig::dual_port(), stream(0.85, 0.0));
    let speedup = two.ipc / one.ipc;
    assert!(
        speedup > 1.6 && speedup < 2.1,
        "two ports on a saturated load stream should be ~2x: {speedup:.2}"
    );
}

/// With full-line line buffers on an 8-byte-strided stream, only one
/// access in four touches the port (32-byte buffers hold four strides):
/// the portless fraction must approach 3/4.
#[test]
fn line_buffer_hit_rate_matches_the_stride_geometry() {
    let config = SimConfig::single_port().with_line_buffers(4, 32);
    let summary = run(config, stream(0.85, 0.0));
    assert!(
        (0.70..=0.78).contains(&summary.portless_load_fraction),
        "8B strides in 32B buffers should serve ~75% portlessly: {:.3}",
        summary.portless_load_fraction
    );
}

/// Write combining on an 8-byte-strided store stream merges pairs into
/// 16-byte chunks: about half the stores must combine.
#[test]
fn write_combining_rate_matches_the_stride_geometry() {
    let config = SimConfig::naive_single_port()
        .with_wide_port(16, false)
        .with_store_buffer(8, true);
    let summary = run(config, stream(0.0, 0.6));
    assert!(
        (0.40..=0.55).contains(&summary.store_combined_fraction),
        "8B strides in 16B chunks should combine ~50% of stores: {:.3}",
        summary.store_combined_fraction
    );
}

/// An unpredictable-direction stream cannot beat the mispredict-implied
/// fetch ceiling: with a mispredict every N instructions and a resolve
/// cost of several cycles, IPC is far below width.
#[test]
fn mispredicts_cap_ipc_from_above() {
    // The synthetic stream's single loop branch is almost always taken,
    // so instead use a real branchy workload: sort.
    use cpe::workloads::{Scale, Workload};
    let summary = Simulator::try_new(SimConfig::ideal_ports())
        .expect("the config validates")
        .try_run(Workload::Sort, Scale::Test, Some(40_000))
        .expect("the run completes");
    let mispredicts_per_inst =
        summary.mispredict_rate * summary.raw.cpu.branches.as_f64() / summary.insts.max(1) as f64;
    // Each mispredict costs at least resolve (≥2 cycles) + redirect (3).
    let ceiling = 1.0 / (0.25 + mispredicts_per_inst * 5.0);
    assert!(
        summary.ipc <= ceiling * 1.1,
        "IPC {:.3} should respect the mispredict ceiling {:.3}",
        summary.ipc,
        ceiling
    );
}
