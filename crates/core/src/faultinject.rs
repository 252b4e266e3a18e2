//! Fault injection: corrupted traces and adversarial configurations.
//!
//! The robustness contract of the pipeline is simple to state: **no
//! input may panic or hang the simulator — every failure is a typed
//! [`SimError`]**. This module is the harness that pounds on that
//! contract: it records a pristine CPER trace, applies deterministic
//! corruptions (bit flips, overwritten bytes, truncations), replays each
//! mutant through the full timing model, and classifies what comes back.
//! A panic caught at the boundary is a harness *failure*, not a
//! statistic.
//!
//! Everything is reproducible from `(seed, case index)` — the generator
//! is a self-contained SplitMix64, so a failing campaign names the exact
//! mutant to replay locally with [`fuzz_traces`] and the same seed.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cpe_isa::replay::{parse_recorded, write_recorded, RecordedTrace};
use cpe_workloads::synth::{SynthConfig, SyntheticTrace};

use crate::backend::check_replayable;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::metrics::RunSummary;
use crate::simulator::Simulator;

/// A tiny deterministic generator (SplitMix64) so the harness needs no
/// external dependency and every case is replayable from its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift range reduction; bias is irrelevant for fuzzing.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// A single deterministic corruption of a recorded trace's byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Keep only the first `keep` bytes — models a torn write or a
    /// partial download, including decapitated headers.
    Truncate { keep: usize },
    /// Flip bit `bit` of the byte at `offset` — models media rot.
    BitFlip { offset: usize, bit: u8 },
    /// Overwrite the byte at `offset` with `value` — models a stray
    /// write from another process.
    SetByte { offset: usize, value: u8 },
}

impl Mutation {
    /// Draw a mutation applicable to a stream of `len` bytes.
    pub fn random(rng: &mut SplitMix64, len: usize) -> Mutation {
        let len = len.max(1);
        match rng.below(3) {
            0 => Mutation::Truncate {
                keep: rng.below(len as u64) as usize,
            },
            1 => Mutation::BitFlip {
                offset: rng.below(len as u64) as usize,
                bit: rng.below(8) as u8,
            },
            _ => Mutation::SetByte {
                offset: rng.below(len as u64) as usize,
                value: rng.below(256) as u8,
            },
        }
    }

    /// The corrupted copy of `bytes`.
    pub fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        match *self {
            Mutation::Truncate { keep } => out.truncate(keep),
            Mutation::BitFlip { offset, bit } => {
                if let Some(byte) = out.get_mut(offset) {
                    *byte ^= 1 << (bit & 7);
                }
            }
            Mutation::SetByte { offset, value } => {
                if let Some(byte) = out.get_mut(offset) {
                    *byte = value;
                }
            }
        }
        out
    }
}

/// Run a serialised CPER trace (as produced by
/// [`cpe_isa::replay::write_recorded`]) through the timing model,
/// surfacing header and record corruption as [`SimError::Trace`] with
/// the byte offset in its message.
///
/// # Errors
///
/// Every failure mode is typed: [`SimError::InvalidConfig`] for a bad
/// configuration, [`SimError::Trace`] for an unreadable stream, and
/// [`SimError::Watchdog`] when the pipeline stops making progress.
pub fn run_trace_bytes(
    config: &SimConfig,
    label: &str,
    bytes: &[u8],
    max_insts: Option<u64>,
) -> Result<RunSummary, SimError> {
    let simulator = Simulator::try_new(config.clone())?;
    let trace = parse_recorded(bytes).map_err(|error| SimError::Trace {
        index: 0,
        message: error.to_string(),
    })?;
    check_replayable(&trace, max_insts)?;
    simulator.try_run_trace(label, trace.iter(), max_insts)
}

/// The tally of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Mutants replayed.
    pub cases: u64,
    /// Mutants that still decoded and ran to completion (corruption in
    /// padding, flag-compatible bit flips, truncation on a record
    /// boundary, ...).
    pub clean: u64,
    /// Typed rejections by [`SimError::kind`].
    pub errors: BTreeMap<&'static str, u64>,
    /// Contract violations: `(case index, panic message)`. Must be empty.
    pub panics: Vec<(u64, String)>,
}

impl FuzzReport {
    /// Whether the no-panic contract held over the whole campaign.
    pub fn passed(&self) -> bool {
        self.panics.is_empty()
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzzed {} corrupted traces: {} ran clean",
            self.cases, self.clean
        )?;
        for (kind, count) in &self.errors {
            writeln!(f, "  {count:>6} rejected as {kind}")?;
        }
        if self.passed() {
            write!(f, "no panics, no hangs — every failure was a typed error")
        } else {
            writeln!(f, "CONTRACT VIOLATIONS:")?;
            for (case, message) in &self.panics {
                writeln!(f, "  case {case}: panicked: {message}")?;
            }
            write!(f, "{} case(s) panicked", self.panics.len())
        }
    }
}

/// The pristine byte stream the mutants are derived from: a recorded
/// synthetic trace small enough that thousands of replays stay cheap.
pub fn pristine_trace_bytes() -> Vec<u8> {
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

/// Replay `cases` corrupted traces through `config`, one random mutation
/// each, and tally the outcomes. Panics are caught at the case boundary
/// and reported as contract violations instead of propagating.
pub fn fuzz_traces(config: &SimConfig, cases: u64, seed: u64) -> FuzzReport {
    let pristine = pristine_trace_bytes();
    let mut rng = SplitMix64::new(seed);
    let mut report = FuzzReport {
        cases,
        clean: 0,
        errors: BTreeMap::new(),
        panics: Vec::new(),
    };
    for case in 0..cases {
        let mutation = Mutation::random(&mut rng, pristine.len());
        let mutant = mutation.apply(&pristine);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_trace_bytes(config, "fuzz", &mutant, Some(2_000))
        }));
        match outcome {
            Ok(Ok(_)) => report.clean += 1,
            Ok(Err(error)) => *report.errors.entry(error.kind()).or_insert(0) += 1,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                report
                    .panics
                    .push((case, format!("{message} (mutation {mutation:?})")));
            }
        }
    }
    report
}

/// Configurations at and beyond the edge of validity. Invalid members
/// must come back as typed [`SimError::InvalidConfig`]; the
/// valid-but-extreme members must run — or be cut off by the watchdog —
/// without panicking. Either way the caller gets a value, never an
/// unwind.
pub fn adversarial_configs() -> Vec<SimConfig> {
    let mut configs: Vec<SimConfig> = Vec::new();

    // Outright invalid: every one must be rejected before a cycle runs.
    configs.push(
        SimConfig::naive_single_port()
            .with_ports(0)
            .named("no ports"),
    );
    configs.push(
        SimConfig::naive_single_port()
            .with_issue_width(0)
            .named("no issue"),
    );
    let mut zero_way = SimConfig::naive_single_port().named("0-way cache");
    zero_way.mem.dcache.ways = 0;
    configs.push(zero_way);
    let mut fat_line = SimConfig::naive_single_port().named("line > cache");
    fat_line.mem.dcache.line_bytes = 2 * fat_line.mem.dcache.capacity_bytes;
    configs.push(fat_line);
    let mut no_rob = SimConfig::naive_single_port().named("empty window");
    no_rob.cpu.rob_entries = 0;
    configs.push(no_rob);
    let mut wide_port = SimConfig::naive_single_port().named("port wider than line");
    wide_port.mem.ports.width_bytes = 4 * wide_port.mem.dcache.line_bytes;
    configs.push(wide_port);

    // Valid but extreme: stress the timing model's corners.
    let mut glacial = SimConfig::naive_single_port().named("glacial DRAM");
    glacial.mem.latencies.dram = 40_000;
    glacial.cpu.watchdog_cycles = 60_000;
    configs.push(glacial);
    let mut tiny = SimConfig::combined_single_port().named("tiny everything");
    tiny.cpu.rob_entries = 1;
    tiny.cpu.load_queue = 1;
    tiny.cpu.store_queue = 1;
    tiny.mem.mshrs = 1;
    configs.push(tiny);
    let mut starved = SimConfig::naive_single_port().named("starved fill bus");
    starved.mem.latencies.fill_interval = 512;
    configs.push(starved);
    configs.push(
        SimConfig::ideal_ports()
            .with_issue_width(16)
            .named("unhinged width"),
    );

    configs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutations_are_deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(
                Mutation::random(&mut a, 4096),
                Mutation::random(&mut b, 4096)
            );
        }
    }

    #[test]
    fn pristine_bytes_replay_cleanly() {
        let bytes = pristine_trace_bytes();
        let summary = run_trace_bytes(&SimConfig::naive_single_port(), "pristine", &bytes, None)
            .expect("uncorrupted trace runs");
        assert_eq!(summary.insts, 1_500);
    }

    #[test]
    fn a_short_campaign_upholds_the_contract() {
        // The full campaign lives in tests/fault_injection.rs; this is
        // the smoke test that keeps `cargo test -p cpe-core` honest.
        let report = fuzz_traces(&SimConfig::combined_single_port(), 40, 0xC0FFEE);
        assert!(report.passed(), "{report}");
        assert_eq!(report.cases, 40);
        assert_eq!(
            report.clean + report.errors.values().sum::<u64>(),
            report.cases
        );
        // Random corruption of a dense binary format must reject at
        // least sometimes.
        assert!(!report.errors.is_empty(), "{report}");
    }

    #[test]
    fn adversarial_configs_never_unwind() {
        for config in adversarial_configs() {
            let bytes = pristine_trace_bytes();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_trace_bytes(&config, &config.name.clone(), &bytes, Some(1_000))
            }));
            let result = outcome.unwrap_or_else(|_| panic!("config `{}` panicked", config.name));
            if let Err(error) = result {
                assert!(
                    matches!(error, SimError::InvalidConfig(_) | SimError::Watchdog(_)),
                    "config `{}`: unexpected {error:?}",
                    config.name
                );
            }
        }
    }
}
