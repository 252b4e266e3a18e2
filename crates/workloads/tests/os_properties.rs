//! Property tests over the OS-activity injector: for arbitrary
//! configurations, the spliced stream must remain structurally valid —
//! consistent pc chains inside bursts, correct resume addresses, proper
//! serialisation markers — because the timing core's fetch model depends
//! on these invariants.

use cpe_isa::{Emulator, Mode, Op, KERNEL_DATA_BASE, KERNEL_TEXT_BASE};
use cpe_workloads::os::{OsConfig, OsInjector};
use cpe_workloads::programs::pmake;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = OsConfig> {
    (
        prop::sample::select(vec![0usize, 40, 120, 250]),
        prop::sample::select(vec![0u64, 500, 2_000, 10_000]),
        prop::sample::select(vec![0usize, 80, 200]),
        prop::sample::select(vec![0u64, 1, 4]),
        prop::sample::select(vec![0usize, 300]),
        prop::sample::select(vec![16u64, 96]),
        any::<u64>(),
    )
        .prop_map(
            |(syscall, timer, timer_insts, cs_every, sched, kb, seed)| OsConfig {
                syscall_handler_insts: syscall,
                timer_interval: timer,
                timer_handler_insts: timer_insts,
                context_switch_every: cs_every,
                scheduler_insts: sched,
                kernel_data_kb: kb,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn injected_streams_are_structurally_valid(config in arb_config()) {
        let user = Emulator::new(pmake::program(4));
        let trace: Vec<_> = OsInjector::new(user, config).collect();
        prop_assert!(!trace.is_empty());

        for (index, window) in trace.windows(2).enumerate() {
            let (current, next) = (&window[0], &window[1]);
            match (current.mode, next.mode) {
                // Within a kernel burst the committed path must chain,
                // except across the eret boundary.
                (Mode::Kernel, Mode::Kernel) if current.inst.op != Op::Eret => {
                    prop_assert_eq!(
                        current.next_pc, next.pc,
                        "kernel chain broken at {}", index
                    );
                }
                // A kernel burst returns to user code via eret, whose
                // next_pc is the resumed user pc.
                (Mode::Kernel, Mode::User) => {
                    prop_assert_eq!(current.inst.op, Op::Eret, "at {}", index);
                    prop_assert_eq!(current.next_pc, next.pc, "resume at {}", index);
                }
                _ => {}
            }
            // Kernel text/data never alias user space.
            if current.mode == Mode::Kernel {
                prop_assert!(current.pc >= KERNEL_TEXT_BASE);
                if let Some(addr) = current.mem_addr {
                    prop_assert!(addr >= KERNEL_DATA_BASE);
                }
            } else {
                prop_assert!(current.pc < KERNEL_TEXT_BASE);
            }
        }

        // The user instructions pass through unchanged, in order.
        let user_side: Vec<_> = trace
            .iter()
            .filter(|di| di.mode == Mode::User)
            .cloned()
            .collect();
        let original: Vec<_> = Emulator::new(pmake::program(4)).collect();
        prop_assert_eq!(user_side, original, "user stream must be untouched");
    }

    /// Every kernel burst runs through the timing model without tripping
    /// its structural assertions (fetch-chain checks, deadlock detector).
    #[test]
    fn injected_streams_simulate_cleanly(config in arb_config()) {
        use cpe_core::{SimConfig, Simulator};
        let user = Emulator::new(pmake::program(3));
        let trace = OsInjector::new(user, config);
        let summary = Simulator::try_new(SimConfig::combined_single_port())
            .expect("the config validates")
            .try_run_trace("prop-os", trace, None)
            .expect("the run completes");
        prop_assert!(summary.insts > 0);
        prop_assert!(summary.ipc > 0.0);
    }
}
