//! The metrics half of the replay-equivalence property (the per-cycle
//! issue/commit-sequence half lives in `cpe-cpu`'s `replay_props`):
//! across instruction windows {8, 32, 128} and one or two cache ports,
//! the replay backend's full schema-3 metrics
//! document is **identical** to the direct backend's — every counter,
//! CPI stack and distribution — outside the host-timing `self_profile`.

use proptest::prelude::*;

use cpe_core::{
    parse_json, profile_json, JsonValue, ProfileOptions, RecordedWorkload, SimConfig, Simulator,
    METRICS_SCHEMA,
};
use cpe_workloads::{Scale, Workload};

/// The deterministic members of a parsed metrics document: everything
/// except `self_profile`, structurally comparable via `JsonValue: Eq`.
fn deterministic(document: &str) -> Vec<(String, JsonValue)> {
    let JsonValue::Object(members) = parse_json(document).expect("document parses") else {
        panic!("metrics document is an object");
    };
    members
        .into_iter()
        .filter(|(key, _)| key != "self_profile")
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn replay_reproduces_the_schema_3_document(
        workload in prop::sample::select(Workload::ALL.to_vec()),
        window in prop::sample::select(vec![8usize, 32, 128]),
        ports in 1u32..3,
    ) {
        let max_insts = Some(2_000);
        let mut config = SimConfig::dual_port();
        config.name = format!("replay-eq w{window}");
        config.cpu.rob_entries = window;
        config.mem.ports.count = ports;

        let recorded = RecordedWorkload::record(workload, Scale::Test, max_insts);
        let simulator = Simulator::try_new(config).expect("the config validates");
        let direct = simulator
            .try_profile(workload, Scale::Test, max_insts, ProfileOptions::default())
            .expect("direct run completes");
        let replay = simulator
            .try_profile_recorded(&recorded, max_insts, ProfileOptions::default())
            .expect("replay run completes");

        let direct_doc = profile_json(&direct, simulator.config());
        let replay_doc = profile_json(&replay, simulator.config());
        prop_assert!(
            direct_doc.contains(&format!("\"schema\":{METRICS_SCHEMA}")),
            "document carries the schema stamp"
        );
        prop_assert_eq!(
            deterministic(&direct_doc),
            deterministic(&replay_doc),
            "{} w{} {}-port: replay must reproduce the direct document",
            workload.name(),
            window,
            ports
        );
    }
}
