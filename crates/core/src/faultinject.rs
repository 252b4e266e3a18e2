//! Fault-injection smoke campaign, compiled only for this crate's unit
//! tests so `cargo test -p cpe-core --lib` checks the no-panic contract
//! on its own. The full campaign, with its mutation strategies and
//! adversarial configurations, lives in `tests/fault_injection.rs`.

mod tests {
    use std::cell::Cell;

    use proptest::prelude::*;
    use proptest::sample::Index;

    use cpe_isa::replay::{parse_recorded, write_recorded, RecordedTrace};
    use cpe_workloads::synth::{SynthConfig, SyntheticTrace};

    use crate::{check_replayable, SimConfig, SimError, Simulator};

    /// The recorded trace every mutant starts from.
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

    #[test]
    fn a_short_campaign_upholds_the_contract() {
        thread_local! {
            static CASES: Cell<u64> = const { Cell::new(0) };
            static DECODER_REJECTIONS: Cell<u64> = const { Cell::new(0) };
        }
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]
            // One truncation, bit flip or byte overwrite per case.
            fn campaign(kind in 0u8..3, at in any::<Index>(), value in any::<u8>()) {
                let mut bytes = pristine_trace_bytes();
                let at = at.index(bytes.len());
                match kind {
                    0 => bytes.truncate(at),
                    1 => bytes[at] ^= 1 << (value & 7),
                    _ => bytes[at] = value,
                }
                let simulator = Simulator::try_new(SimConfig::combined_single_port())
                    .expect("valid preset");
                let result = parse_recorded(&bytes)
                    .map_err(|error| SimError::Trace {
                        index: 0,
                        message: error.to_string(),
                    })
                    .and_then(|trace| {
                        check_replayable(&trace, Some(2_000))?;
                        simulator.try_run_trace("fuzz", trace.iter(), Some(2_000))
                    });
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
        assert_eq!(CASES.with(Cell::get), 40);
        // Random corruption of a dense binary format must reject at
        // least sometimes.
        assert!(
            DECODER_REJECTIONS.with(Cell::get) > 0,
            "40 random corruptions must hit the decoder at least once"
        );
    }
}
