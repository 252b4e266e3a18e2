//! Property-based fault injection over the whole pipeline.
//!
//! The contract under test: **no input can panic or hang the
//! simulator** — corrupt trace bytes, hostile byte soup and adversarial
//! configurations all come back as a [`SimError`] or a clean summary.
//! A panic anywhere in a property body fails the suite, so "calling it"
//! is the assertion; the explicit matches pin down *which* typed error
//! is allowed where. Hangs are bounded by the livelock watchdog, which
//! every configuration here leaves enabled.

use proptest::prelude::*;

use cpe_core::faultinject::{
    adversarial_configs, fuzz_traces, pristine_trace_bytes, run_trace_bytes, Mutation, SplitMix64,
};
use cpe_core::{SimConfig, SimError};
use cpe_isa::replay::{REPLAY_FORMAT, REPLAY_MAGIC};

/// The window every property runs under: small enough that thousands of
/// replays stay cheap, large enough to cover the whole pristine trace.
const WINDOW: Option<u64> = Some(2_000);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_mutations_never_panic(seed in any::<u64>()) {
        let pristine = pristine_trace_bytes();
        let mut rng = SplitMix64::new(seed);
        let mutant = Mutation::random(&mut rng, pristine.len()).apply(&pristine);
        let result = run_trace_bytes(&SimConfig::combined_single_port(), "fuzz", &mutant, WINDOW);
        if let Err(error) = result {
            prop_assert!(
                matches!(error, SimError::Trace { .. } | SimError::Watchdog(_)),
                "valid config, corrupt bytes: unexpected {error:?}"
            );
        }
    }

    #[test]
    fn stacked_mutations_never_panic(seed in any::<u64>(), depth in 1usize..6) {
        let mut bytes = pristine_trace_bytes();
        let mut rng = SplitMix64::new(seed);
        for _ in 0..depth {
            bytes = Mutation::random(&mut rng, bytes.len()).apply(&bytes);
        }
        let result = run_trace_bytes(&SimConfig::naive_single_port(), "fuzz", &bytes, WINDOW);
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
        let _ = run_trace_bytes(&SimConfig::dual_port(), "soup", &bytes, WINDOW);
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
        let _ = run_trace_bytes(&SimConfig::combined_single_port(), "hostile", &bytes, WINDOW);
    }

    #[test]
    fn adversarial_configs_reject_or_run(
        which in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
        let configs = adversarial_configs();
        let config = &configs[which.index(configs.len())];
        let pristine = pristine_trace_bytes();
        let mut rng = SplitMix64::new(seed);
        let mutant = Mutation::random(&mut rng, pristine.len()).apply(&pristine);
        // Any SimError variant is acceptable here — the config itself
        // may be the invalid input — but an unwind is not.
        let _ = run_trace_bytes(config, &config.name.clone(), &mutant, Some(1_000));
    }
}

#[test]
fn a_long_campaign_upholds_the_contract() {
    let report = fuzz_traces(&SimConfig::combined_single_port(), 400, 0xDEAD_BEEF);
    assert!(report.passed(), "{report}");
    assert_eq!(report.cases, 400);
    assert_eq!(
        report.clean + report.errors.values().sum::<u64>(),
        report.cases,
        "every case must be accounted for"
    );
    assert!(
        report.errors.contains_key("trace"),
        "400 random corruptions must hit the decoder at least once: {report}"
    );
}
