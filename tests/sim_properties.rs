//! Property tests over the whole simulator: for arbitrary machine
//! configurations and synthetic reference streams, structural invariants
//! of the timing model must hold.

use cpe::workloads::synth::{AddressPattern, SynthConfig, SyntheticTrace};
use cpe::{SimConfig, Simulator};
use proptest::prelude::*;

fn arb_machine() -> impl Strategy<Value = SimConfig> {
    (
        prop::sample::select(vec![1u32, 2, 4]),   // ports
        prop::sample::select(vec![8u64, 16, 32]), // port width
        any::<bool>(),                            // load combining
        prop::sample::select(vec![0usize, 2, 8]), // store buffer
        any::<bool>(),                            // write combining
        prop::sample::select(vec![0usize, 2, 4]), // line buffers
        any::<bool>(),                            // prefetch
    )
        .prop_map(|(ports, width, combine, sb, wc, lb, pf)| {
            let mut config = SimConfig::naive_single_port()
                .with_ports(ports)
                .with_wide_port(width, combine)
                .with_store_buffer(sb, wc)
                .with_line_buffers(lb, width)
                .named("arb");
            config.mem.next_line_prefetch = pf;
            config
        })
}

fn arb_stream() -> impl Strategy<Value = SynthConfig> {
    (
        2_000u64..8_000,                                    // insts
        0.0f64..0.5,                                        // loads
        0.0f64..0.4,                                        // stores
        prop::sample::select(vec![4 * 1024u64, 64 * 1024]), // working set
        any::<bool>(),                                      // strided vs random
        any::<u64>(),                                       // seed
    )
        .prop_map(|(insts, loads, stores, set, strided, seed)| SynthConfig {
            insts,
            load_fraction: loads,
            store_fraction: stores.min(1.0 - loads),
            working_set_bytes: set,
            pattern: if strided {
                AddressPattern::Strided(8)
            } else {
                AddressPattern::Random
            },
            body_insts: 32,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn structural_invariants_hold_for_any_machine(
        machine in arb_machine(),
        stream in arb_stream(),
    ) {
        let insts = stream.insts;
        let summary = Simulator::try_new(machine.clone())
            .expect("the config validates")
            .try_run_trace("prop", SyntheticTrace::new(stream), None)
            .expect("the run completes");
        let cpu = &summary.raw.cpu;
        let mem = &summary.raw.mem;

        // Everything fetched commits exactly once.
        prop_assert_eq!(summary.insts, insts);
        // Commit width bounds progress.
        prop_assert!(summary.cycles * 4 >= summary.insts, "IPC cannot exceed commit width");
        // Loads either reached memory once or forwarded in the LSQ.
        prop_assert_eq!(
            cpu.loads.get(),
            mem.loads.get() + cpu.lsq_forwards.get(),
            "load conservation"
        );
        // Stores reach memory exactly once.
        prop_assert_eq!(cpu.stores.get(), mem.stores.get(), "store conservation");
        // Port accounting stays within what was offered.
        prop_assert!(mem.port_slots_used.get() <= mem.port_slots_offered.get());
        // The slots histogram is the same data as the counter.
        let histogram_total: u64 = mem
            .slots_per_cycle
            .iter()
            .map(|(value, count)| value as u64 * count)
            .sum();
        prop_assert_eq!(histogram_total, mem.port_slots_used.get());
        // Mode accounting sums (synthetic streams are all user mode).
        prop_assert_eq!(cpu.committed_user.get(), cpu.committed.get());
        prop_assert_eq!(cpu.user_cycles.get() + cpu.kernel_cycles.get(), cpu.cycles.get());
        // Every prefetch that proved useful was actually issued.
        prop_assert!(mem.prefetch_useful.get() <= mem.prefetches.get());
        // Nothing is left in flight at the end.
        prop_assert!(summary.cycles > 0);
    }

    /// Determinism across arbitrary configurations: the same machine and
    /// stream produce identical cycle counts and counters.
    #[test]
    fn determinism_for_any_machine(
        machine in arb_machine(),
        stream in arb_stream(),
    ) {
        let run = || {
            let s = Simulator::try_new(machine.clone())
                .expect("the config validates")
                .try_run_trace("prop", SyntheticTrace::new(stream), None)
                .expect("the run completes");
            (s.cycles, s.raw.mem.port_slots_used.get(), s.raw.mem.load_lb_hits.get())
        };
        prop_assert_eq!(run(), run());
    }
}
