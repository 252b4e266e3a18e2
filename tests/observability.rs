//! Observability integration tests.
//!
//! Two guarantees from the tracing subsystem are exercised end to end:
//!
//! 1. the event stream is *exact* — a hand-built three-cycle scenario
//!    (port conflict, retry that merges into an outstanding miss, then a
//!    portless line-buffer hit) produces precisely the expected sequence
//!    of `(cycle, kind, addr, arg)` tuples, nothing more;
//! 2. observation never perturbs — a profiled run with a (deliberately
//!    tiny, wrapping) capture ring attached produces bit-identical
//!    counters to the same run without any tracer, across randomly
//!    generated synthetic workloads;
//! 3. capture is side-channel in the metrics document too — every preset
//!    profiled with the capturing verbs' ring and with no ring at all
//!    produces the same document outside the host-timing `self_profile`.
//!
//! These run with the default feature set, where `trace` is enabled and
//! `TraceHandle::CAPTURE` is true.

use cpe::mem::{Addr, LoadOutcome, MemConfig, MemSystem};
use cpe::trace::{
    chrome_trace_json, EventKind, TraceHandle, PORT_GRANT_MISS, PORT_GRANT_MISS_MERGED,
};
use cpe::workloads::synth::{AddressPattern, SynthConfig, SyntheticTrace};
use cpe::workloads::{Scale, Workload};
use cpe::{parse_json, profile_json, JsonValue, ProfileOptions, SimConfig, Simulator};
use proptest::prelude::*;

/// The canonical micro-trace from the issue: a load that port-conflicts,
/// retries, and finally enables a line-buffer hit — with every
/// intermediate event accounted for.
///
/// Machine: one 8-byte port, no load combining, two 16-byte line
/// buffers, 32-byte D-cache lines. All three addresses fall in the same
/// cache line (0x1000..0x1020).
#[test]
fn micro_trace_conflict_retry_line_buffer_hit() {
    let mut config = MemConfig::default();
    config.line_buffers.entries = 2;
    config.line_buffers.width_bytes = 16;
    let handle = TraceHandle::attached(1024);
    let mut mem = MemSystem::new(config);
    mem.set_trace(handle.clone());

    // Cycle 0: a cold load at 0x1000 takes the only port (MSHR
    // allocation + grant), so the load at 0x1010 finds no slot left.
    mem.begin_cycle(0);
    assert!(matches!(
        mem.try_load(0, Addr::new(0x1000), 8),
        LoadOutcome::Ready { .. }
    ));
    assert!(matches!(
        mem.try_load(0, Addr::new(0x1010), 8),
        LoadOutcome::NoPort
    ));
    mem.end_cycle(0);

    // Cycle 1: the retry merges into the outstanding miss for the same
    // line and, as a port access, captures the 0x1010..0x1020 chunk
    // into a line buffer on the way.
    mem.begin_cycle(1);
    assert!(matches!(
        mem.try_load(1, Addr::new(0x1010), 8),
        LoadOutcome::Ready { .. }
    ));
    mem.end_cycle(1);

    // Cycle 2: 0x1018 lands inside the captured chunk — served
    // portlessly from the line buffer.
    mem.begin_cycle(2);
    assert!(matches!(
        mem.try_load(2, Addr::new(0x1018), 8),
        LoadOutcome::Ready { .. }
    ));
    mem.end_cycle(2);

    let events = handle
        .snapshot()
        .expect("the default build has capture enabled");
    let got: Vec<(u64, EventKind, u64, u32)> = events
        .iter()
        .map(|e| (e.cycle, e.kind, e.addr, e.arg))
        .collect();
    assert_eq!(
        got,
        vec![
            (0, EventKind::MshrAlloc, 0x1000, 0),
            (0, EventKind::PortGrant, 0x1000, PORT_GRANT_MISS),
            (0, EventKind::PortConflict, 0x1010, 0),
            (1, EventKind::MshrMerge, 0x1000, 0),
            (1, EventKind::PortGrant, 0x1010, PORT_GRANT_MISS_MERGED),
            (2, EventKind::LineBufferHit, 0x1018, 0),
        ],
        "exact event sequence for conflict → retry/merge → LB hit"
    );

    // The captured window renders as structurally sound Chrome JSON.
    let json = chrome_trace_json(&events);
    assert!(json.contains("\"traceEvents\""));
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "balanced braces:\n{json}"
    );
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

/// Counters that must not move by a single unit when a tracer watches.
fn counter_fingerprint(summary: &cpe::RunSummary) -> Vec<(&'static str, u64)> {
    let cpu = &summary.raw.cpu;
    let mem = &summary.raw.mem;
    let mut fingerprint = vec![
        ("cycles", summary.cycles),
        ("insts", summary.insts),
        ("ipc_bits", summary.ipc.to_bits()),
        ("loads", mem.loads.get()),
        ("stores", mem.stores.get()),
        ("load_l1_hits", mem.load_l1_hits.get()),
        ("load_lb_hits", mem.load_lb_hits.get()),
        ("load_combined", mem.load_combined.get()),
        ("load_sb_forwards", mem.load_sb_forwards.get()),
        ("load_misses", mem.load_misses.get()),
        ("load_miss_merged", mem.load_miss_merged.get()),
        ("load_no_port", mem.load_no_port.get()),
        ("store_combined", mem.store_combined.get()),
        ("store_drains", mem.store_drains.get()),
        ("port_slots_used", mem.port_slots_used.get()),
        ("port_slots_offered", mem.port_slots_offered.get()),
        ("l2_hits", mem.l2_hits.get()),
        ("l2_misses", mem.l2_misses.get()),
        ("mispredicts", cpu.mispredicts.get()),
        ("lsq_forwards", cpu.lsq_forwards.get()),
        ("commit_width", cpu.commit_width),
    ];
    // Every commit-slot bucket is an architectural counter too: the CPI
    // stack must not shift by a single slot when a tracer watches.
    for (cause, slots) in cpu.cpi_stack.iter() {
        fingerprint.push((cause.name(), slots));
    }
    fingerprint
}

/// The members of a metrics document outside the host-timing
/// `self_profile`.
fn deterministic(document: &str) -> Vec<(String, JsonValue)> {
    let JsonValue::Object(members) = parse_json(document).expect("document parses") else {
        panic!("metrics document is an object");
    };
    members
        .into_iter()
        .filter(|(key, _)| key != "self_profile")
        .collect()
}

#[test]
fn attaching_a_ring_never_changes_the_document() {
    let presets = [
        SimConfig::naive_single_port(),
        SimConfig::single_port(),
        SimConfig::dual_port(),
        SimConfig::banked(2),
        SimConfig::quad_port(),
        SimConfig::ideal_ports(),
        SimConfig::combined_single_port(),
        SimConfig::big_window(),
    ];
    for config in presets {
        let sim = Simulator::new(config);
        for workload in [Workload::Compress, Workload::Sort] {
            let profile = |ring_capacity| {
                sim.try_profile(
                    workload,
                    Scale::Test,
                    Some(5_000),
                    ProfileOptions {
                        ring_capacity,
                        ..ProfileOptions::default()
                    },
                )
                .expect("profiled run completes")
            };
            let captured = profile(ProfileOptions::CAPTURE_RING);
            let uncaptured = profile(0);
            let label = format!("{} / {}", sim.config().name, workload.name());
            assert_eq!(!captured.events.is_empty(), TraceHandle::CAPTURE, "{label}");
            assert_eq!(captured.self_profile.capture_enabled, TraceHandle::CAPTURE);
            assert!(uncaptured.events.is_empty(), "{label}: no ring, no events");
            assert!(!uncaptured.self_profile.capture_enabled, "{label}");
            assert_eq!(uncaptured.self_profile.ring, None, "{label}");
            assert_eq!(
                deterministic(&profile_json(&captured, sim.config())),
                deterministic(&profile_json(&uncaptured, sim.config())),
                "{label}: capture must not change the document"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tracing on vs. off never changes the simulation: the profiled run
    /// (tracer attached, 128-event ring chosen small enough to wrap and
    /// drop constantly) matches the plain run counter for counter.
    #[test]
    fn tracing_never_changes_the_simulation(
        insts in 200u64..1200,
        load_fraction in 0.05f64..0.55,
        store_fraction in 0.0f64..0.3,
        stride in prop::sample::select(vec![4u64, 8, 16, 32, 64]),
        random_pattern in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let synth = SynthConfig {
            insts,
            load_fraction,
            store_fraction,
            working_set_bytes: 16 * 1024,
            pattern: if random_pattern {
                AddressPattern::Random
            } else {
                AddressPattern::Strided(stride)
            },
            body_insts: 16,
            seed,
        };
        let config = SimConfig::combined_single_port();

        let plain = Simulator::new(config.clone()).run_trace(
            "synth",
            SyntheticTrace::new(synth),
            None,
        );
        let profiled = Simulator::new(config)
            .try_profile_trace(
                "synth",
                SyntheticTrace::new(synth),
                None,
                ProfileOptions { interval: 100, ring_capacity: 128 },
            )
            .expect("profiled run succeeds");

        prop_assert_eq!(
            counter_fingerprint(&plain),
            counter_fingerprint(&profiled.summary)
        );
        // The epochs really tiled the run they claim to describe.
        prop_assert_eq!(profiled.series.total_insts(), plain.insts);

        // Commit-slot conservation holds end to end: every slot of every
        // cycle is attributed to exactly one cause.
        let cpu = &plain.raw.cpu;
        let total: u64 = cpu.cpi_stack.slots().iter().sum();
        prop_assert_eq!(total, plain.cycles * cpu.commit_width);

        // The per-instruction pipeline view is a pure read of whatever
        // survived the (wrapping) ring: building and rendering it must
        // always produce a document the Konata validator accepts.
        let records = cpe::trace::build_records(&profiled.events);
        let konata = cpe::trace::konata_text(&records);
        prop_assert!(
            cpe::trace::validate_konata(&konata).is_ok(),
            "pipeview output must validate: {:?}",
            cpe::trace::validate_konata(&konata)
        );
    }
}
