//! Behavioural properties of the paper's techniques, checked across the
//! crate boundaries on real workloads and controlled synthetic streams.

use cpe::workloads::synth::{AddressPattern, SynthConfig, SyntheticTrace};
use cpe::workloads::{Scale, Workload};
use cpe::{RunSummary, SimConfig, Simulator};

/// One Test-scale run of `workload` on `config`.
fn run_workload(config: SimConfig, workload: Workload, max_insts: Option<u64>) -> RunSummary {
    Simulator::try_new(config)
        .expect("the config validates")
        .try_run(workload, Scale::Test, max_insts)
        .expect("the run completes")
}

fn run_synth(config: SimConfig, synth: SynthConfig) -> RunSummary {
    Simulator::try_new(config)
        .expect("the config validates")
        .try_run_trace("synth", SyntheticTrace::new(synth), None)
        .expect("the run completes")
}

fn memory_heavy_stream() -> SynthConfig {
    SynthConfig {
        insts: 120_000,
        load_fraction: 0.45,
        store_fraction: 0.15,
        working_set_bytes: 8 * 1024, // L1-resident
        pattern: AddressPattern::Strided(8),
        body_insts: 64,
        seed: 99,
    }
}

/// More true ports never hurt, and the second port clearly helps a
/// memory-saturated stream.
#[test]
fn port_count_is_monotone_on_saturated_streams() {
    let synth = memory_heavy_stream();
    let one = run_synth(SimConfig::single_port(), synth);
    let two = run_synth(SimConfig::dual_port(), synth);
    let four = run_synth(SimConfig::quad_port(), synth);
    assert!(two.ipc > one.ipc * 1.3, "{} vs {}", two.ipc, one.ipc);
    assert!(four.ipc >= two.ipc * 0.99, "{} vs {}", four.ipc, two.ipc);
}

/// The store buffer converts store-commit stalls into drained stores —
/// provided total demand stays within the port's bandwidth (a saturated
/// port cannot be buffered away, only widened or duplicated).
#[test]
fn store_buffer_removes_commit_stalls() {
    let mut synth = memory_heavy_stream();
    synth.load_fraction = 0.08;
    synth.store_fraction = 0.14;
    // The repeating body quantises the store fraction to the 63 slots the
    // generator actually draws; this seed yields a mix that stays within
    // the single port's drain bandwidth, which the property requires.
    synth.seed = 11;
    let unbuffered = run_synth(SimConfig::naive_single_port(), synth);
    let buffered = run_synth(
        SimConfig::naive_single_port()
            .with_store_buffer(8, false)
            .named("sb"),
        synth,
    );
    assert!(
        unbuffered.store_stall_per_kcycle > buffered.store_stall_per_kcycle * 2.0,
        "{} vs {}",
        unbuffered.store_stall_per_kcycle,
        buffered.store_stall_per_kcycle
    );
    assert!(buffered.ipc > unbuffered.ipc);
    assert!(buffered.raw.mem.store_drains.get() > 0);
}

/// Write combining merges same-chunk stores into fewer port accesses.
#[test]
fn write_combining_reduces_port_traffic() {
    let mut synth = memory_heavy_stream();
    synth.load_fraction = 0.1;
    synth.store_fraction = 0.5;
    synth.pattern = AddressPattern::Strided(8); // adjacent stores combine
    let base = SimConfig::naive_single_port().with_wide_port(16, false);
    let plain = run_synth(base.clone().with_store_buffer(8, false).named("sb"), synth);
    let combining = run_synth(base.with_store_buffer(8, true).named("sb+wc"), synth);
    assert!(
        combining.store_combined_fraction > 0.3,
        "{}",
        combining.store_combined_fraction
    );
    assert!(
        combining.raw.mem.store_drains.get() < plain.raw.mem.store_drains.get(),
        "{} vs {}",
        combining.raw.mem.store_drains.get(),
        plain.raw.mem.store_drains.get()
    );
    assert!(combining.ipc >= plain.ipc);
}

/// Line buffers serve spatially local loads without the port, freeing
/// slots — visible both in the portless fraction and in IPC.
#[test]
fn line_buffers_capture_spatial_locality() {
    let synth = memory_heavy_stream();
    let without = run_synth(SimConfig::single_port(), synth);
    let with = run_synth(
        SimConfig::single_port()
            .with_line_buffers(4, 32)
            .named("lb"),
        synth,
    );
    assert!(
        with.portless_load_fraction > 0.4,
        "{}",
        with.portless_load_fraction
    );
    assert_eq!(without.portless_load_fraction, 0.0);
    assert!(
        with.ipc > without.ipc * 1.2,
        "{} vs {}",
        with.ipc,
        without.ipc
    );
}

/// Load combining shares a wide port between same-chunk loads issued in
/// one cycle.
#[test]
fn load_combining_shares_wide_accesses() {
    let synth = memory_heavy_stream();
    let wide_only = run_synth(
        SimConfig::naive_single_port()
            .with_wide_port(16, false)
            .named("wide"),
        synth,
    );
    let combining = run_synth(
        SimConfig::naive_single_port()
            .with_wide_port(16, true)
            .named("wide+combine"),
        synth,
    );
    assert!(combining.raw.mem.load_combined.get() > 0);
    assert!(combining.ipc >= wide_only.ipc);
}

/// Scattered (random) references defeat the spatial techniques: the
/// combined design falls back towards naive behaviour, exactly as the
/// paper's analysis predicts.
#[test]
fn random_streams_defeat_spatial_techniques() {
    let mut synth = memory_heavy_stream();
    synth.pattern = AddressPattern::Random;
    let combined = run_synth(SimConfig::combined_single_port(), synth);
    synth.pattern = AddressPattern::Strided(8);
    let combined_strided = run_synth(SimConfig::combined_single_port(), synth);
    assert!(
        combined_strided.portless_load_fraction > combined.portless_load_fraction + 0.2,
        "{} vs {}",
        combined_strided.portless_load_fraction,
        combined.portless_load_fraction
    );
}

/// On the real workload suite, the paper's headline ordering holds:
/// naive single port < combined single port <= dual-ported, with the
/// combined design recovering most of the gap.
#[test]
fn headline_ordering_holds_on_the_suite() {
    let window = Some(60_000);
    let mut naive_rel = Vec::new();
    let mut combined_rel = Vec::new();
    for workload in Workload::ALL {
        let naive = run_workload(SimConfig::naive_single_port(), workload, window);
        let combined = run_workload(SimConfig::combined_single_port(), workload, window);
        let dual = run_workload(SimConfig::dual_port(), workload, window);
        naive_rel.push(naive.relative_ipc(&dual));
        combined_rel.push(combined.relative_ipc(&dual));
    }
    let geo = |v: &[f64]| cpe::stats::geometric_mean(v.iter().copied()).unwrap();
    let naive = geo(&naive_rel);
    let combined = geo(&combined_rel);
    assert!(
        naive < combined,
        "techniques must help: {naive} vs {combined}"
    );
    assert!(
        combined > 0.85 && combined <= 1.05,
        "combined single-port should land near the paper's 91% band: {combined}"
    );
    assert!(naive < 0.97, "the motivation gap must exist: {naive}");
}

/// Port utilisation reported by the memory system is consistent with the
/// slots histogram.
#[test]
fn port_accounting_is_internally_consistent() {
    let summary = run_workload(SimConfig::dual_port(), Workload::Mpeg, Some(40_000));
    let mem = &summary.raw.mem;
    let hist_slots: u64 = mem
        .slots_per_cycle
        .iter()
        .map(|(value, count)| value as u64 * count)
        .sum();
    assert_eq!(hist_slots, mem.port_slots_used.get());
    assert!(mem.port_slots_used.get() <= mem.port_slots_offered.get());
}
