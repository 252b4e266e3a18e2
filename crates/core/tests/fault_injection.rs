//! Property-based fault injection over the whole pipeline.
//!
//! The contract under test: **no input can panic or hang the
//! simulator** — corrupt trace bytes, hostile byte soup and adversarial
//! configurations all come back as a [`SimError`] or a clean summary.
//! Mutants are truncations, bit flips and byte overwrites of a pristine
//! CPER recording, and each one takes the path `cpe run` takes for a
//! trace file: [`parse_recorded`], then [`check_replayable`], then
//! [`Simulator::try_run_trace`]. A panic anywhere in a property body
//! fails the suite, so "calling it" is the assertion; the explicit
//! matches pin down *which* typed error is allowed where. Hangs are
//! bounded by the livelock watchdog, which every configuration here
//! leaves enabled.

use std::cell::Cell;

use proptest::prelude::*;
use proptest::sample::Index;

use cpe_core::{check_replayable, RunSummary, SimConfig, SimError, Simulator};
use cpe_isa::replay::{parse_recorded, write_recorded, RecordedTrace, REPLAY_FORMAT, REPLAY_MAGIC};
use cpe_workloads::synth::{SynthConfig, SyntheticTrace};

/// The window every property runs under: small enough that thousands of
/// replays stay cheap, large enough to cover the whole pristine trace.
const WINDOW: Option<u64> = Some(2_000);

/// One corruption of a recorded trace's byte stream, placed by an
/// [`Index`] so it lands inside whatever stream it is applied to.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Keep only a prefix — a torn write or a partial download,
    /// decapitated headers included.
    Truncate(Index),
    /// Flip one bit of one byte — media rot.
    BitFlip(Index, u8),
    /// Overwrite one byte — a stray write from another process.
    SetByte(Index, u8),
}

impl Mutation {
    fn apply(self, bytes: &mut Vec<u8>) {
        let len = bytes.len();
        if len == 0 {
            return;
        }
        match self {
            Mutation::Truncate(keep) => bytes.truncate(keep.index(len)),
            Mutation::BitFlip(at, bit) => bytes[at.index(len)] ^= 1 << bit,
            Mutation::SetByte(at, value) => bytes[at.index(len)] = value,
        }
    }
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<Index>().prop_map(Mutation::Truncate),
        (any::<Index>(), 0u8..8).prop_map(|(at, bit)| Mutation::BitFlip(at, bit)),
        (any::<Index>(), any::<u8>()).prop_map(|(at, value)| Mutation::SetByte(at, value)),
    ]
}

/// The pristine byte stream the mutants are derived from: a recorded
/// synthetic trace small enough that thousands of replays stay cheap.
fn pristine_trace_bytes() -> Vec<u8> {
    let synth = SynthConfig {
        insts: 1_500,
        ..SynthConfig::default()
    };
    let mut bytes = Vec::new();
    write_recorded(
        &mut bytes,
        &RecordedTrace::record(SyntheticTrace::new(synth), None),
    )
    .expect("in-memory write cannot fail");
    bytes
}

fn mutant(mutations: &[Mutation]) -> Vec<u8> {
    let mut bytes = pristine_trace_bytes();
    for &mutation in mutations {
        mutation.apply(&mut bytes);
    }
    bytes
}

/// Time serialised CPER bytes the way `cpe run` times a trace file:
/// decode, check the recording can serve the window, then run.
fn run_trace_bytes(
    config: &SimConfig,
    bytes: &[u8],
    max_insts: Option<u64>,
) -> Result<RunSummary, SimError> {
    let simulator = Simulator::try_new(config.clone())?;
    let trace = parse_recorded(bytes).map_err(|error| SimError::Trace {
        index: 0,
        message: error.to_string(),
    })?;
    check_replayable(&trace, max_insts)?;
    simulator.try_run_trace("fuzz", trace.iter(), max_insts)
}

/// Configurations at and beyond the edge of validity. The first six are
/// invalid and must be rejected before a cycle runs; the rest are valid
/// but extreme and must run, or be cut off by the watchdog.
fn adversarial_configs() -> Vec<SimConfig> {
    let base = SimConfig::naive_single_port;
    let mut zero_way = base().named("0-way cache");
    zero_way.mem.dcache.ways = 0;
    let mut fat_line = base().named("line > cache");
    fat_line.mem.dcache.line_bytes = 2 * fat_line.mem.dcache.capacity_bytes;
    let mut no_rob = base().named("empty window");
    no_rob.cpu.rob_entries = 0;
    let mut wide_port = base().named("port wider than line");
    wide_port.mem.ports.width_bytes = 4 * wide_port.mem.dcache.line_bytes;
    let mut glacial = base().named("glacial DRAM");
    glacial.mem.latencies.dram = 40_000;
    glacial.cpu.watchdog_cycles = 60_000;
    let mut tiny = SimConfig::combined_single_port().named("tiny everything");
    tiny.cpu.rob_entries = 1;
    tiny.cpu.load_queue = 1;
    tiny.cpu.store_queue = 1;
    tiny.mem.mshrs = 1;
    let mut starved = base().named("starved fill bus");
    starved.mem.latencies.fill_interval = 512;
    vec![
        base().with_ports(0).named("no ports"),
        base().with_issue_width(0).named("no issue"),
        zero_way,
        fat_line,
        no_rob,
        wide_port,
        glacial,
        tiny,
        starved,
        SimConfig::ideal_ports()
            .with_issue_width(16)
            .named("unhinged width"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_mutations_never_panic(mutation in mutation()) {
        let result = run_trace_bytes(&SimConfig::combined_single_port(), &mutant(&[mutation]), WINDOW);
        if let Err(error) = result {
            prop_assert!(
                matches!(error, SimError::Trace { .. } | SimError::Watchdog(_)),
                "valid config, corrupt bytes: unexpected {error:?}"
            );
        }
    }

    #[test]
    fn stacked_mutations_never_panic(mutations in prop::collection::vec(mutation(), 1..6)) {
        let result = run_trace_bytes(&SimConfig::naive_single_port(), &mutant(&mutations), WINDOW);
        if let Err(error) = result {
            prop_assert!(
                matches!(error, SimError::Trace { .. } | SimError::Watchdog(_)),
                "unexpected {error:?}"
            );
        }
    }

    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // Not even derived from a valid trace: most blobs die at the
        // header, some survive it by chance, none may unwind.
        let _ = run_trace_bytes(&SimConfig::dual_port(), &bytes, WINDOW);
    }

    #[test]
    fn valid_header_hostile_body_never_panics(
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // A correct magic/format gets the bytes past the gate and into
        // the header, dictionary and record decoders, which is where
        // panics and runaway allocations would hide.
        let mut bytes = REPLAY_MAGIC.to_vec();
        bytes.extend_from_slice(&REPLAY_FORMAT.to_le_bytes());
        bytes.extend_from_slice(&body);
        let _ = run_trace_bytes(&SimConfig::combined_single_port(), &bytes, WINDOW);
    }

    #[test]
    fn adversarial_configs_reject_or_run(which in any::<Index>(), mutation in mutation()) {
        let configs = adversarial_configs();
        let config = &configs[which.index(configs.len())];
        // Any SimError variant is acceptable here — the config itself
        // may be the invalid input — but an unwind is not.
        let _ = run_trace_bytes(config, &mutant(&[mutation]), Some(1_000));
    }
}

#[test]
fn pristine_bytes_replay_cleanly() {
    let summary = run_trace_bytes(&SimConfig::naive_single_port(), &mutant(&[]), None)
        .expect("uncorrupted trace runs");
    assert_eq!(summary.insts, 1_500);
}

#[test]
fn adversarial_configs_never_unwind() {
    let bytes = pristine_trace_bytes();
    for (at, config) in adversarial_configs().iter().enumerate() {
        match run_trace_bytes(config, &bytes, Some(1_000)) {
            Err(SimError::InvalidConfig(_)) => {
                assert!(at < 6, "valid config `{}` was rejected", config.name);
            }
            Ok(_) | Err(SimError::Watchdog(_)) => {
                assert!(at >= 6, "invalid config `{}` ran", config.name);
            }
            Err(error) => panic!("config `{}`: unexpected {error:?}", config.name),
        }
    }
}

#[test]
fn a_long_campaign_upholds_the_contract() {
    thread_local! {
        static CASES: Cell<u64> = const { Cell::new(0) };
        static DECODER_REJECTIONS: Cell<u64> = const { Cell::new(0) };
    }
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]
        fn campaign(mutation in mutation()) {
            let result = run_trace_bytes(&SimConfig::combined_single_port(), &mutant(&[mutation]), WINDOW);
            CASES.with(|cases| cases.set(cases.get() + 1));
            match result {
                Ok(_) | Err(SimError::Watchdog(_)) => {}
                Err(SimError::Trace { .. }) => {
                    DECODER_REJECTIONS.with(|count| count.set(count.get() + 1));
                }
                Err(error) => prop_assert!(false, "unexpected {error:?}"),
            }
        }
    }
    campaign();
    assert_eq!(CASES.with(Cell::get), 400);
    assert!(
        DECODER_REJECTIONS.with(Cell::get) > 0,
        "400 random corruptions must hit the decoder at least once"
    );
}
