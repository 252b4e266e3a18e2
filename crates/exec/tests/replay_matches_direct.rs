//! The replay backend's zero-tolerance promise, end to end: a sweep run
//! through record-once / replay-many produces **byte-identical**
//! aggregate output to the direct path — same IPC table, same sweep
//! metrics document, same per-cell schema-3 documents outside the
//! host-timing self-profile — while recording each workload exactly
//! once. Also pins the cache-key separation: entries written by one
//! backend never serve the other.

use cpe_core::{parse_json, BackendKind, SimConfig};
use cpe_exec::render::{member, render};
use cpe_exec::{ResultCache, SweepPlan};
use cpe_workloads::{Scale, Workload};

fn plan(backend: BackendKind) -> SweepPlan {
    SweepPlan {
        configs: vec![
            SimConfig::naive_single_port(),
            SimConfig::dual_port(),
            SimConfig::combined_single_port(),
        ],
        workloads: vec![Workload::Compress, Workload::Sort, Workload::Fft],
        scale: Scale::Test,
        max_insts: Some(5_000),
        backend,
    }
}

/// The deterministic projection of a cell document: every top-level
/// member except the host-timing `self_profile`, rendered canonically.
fn deterministic_part(document: &str) -> String {
    let parsed = parse_json(document).expect("document parses");
    let cpe_core::JsonValue::Object(members) = &parsed else {
        panic!("document is an object");
    };
    members
        .iter()
        .filter(|(key, _)| key != "self_profile")
        .map(|(key, _)| render(member(&parsed, key).unwrap()))
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn replay_sweep_is_byte_identical_to_direct_and_records_once() {
    let direct = plan(BackendKind::Direct).run(2, None).expect("direct runs");
    let replay = plan(BackendKind::Replay).run(2, None).expect("replay runs");

    assert_eq!(
        direct.ipc_table().to_csv(),
        replay.ipc_table().to_csv(),
        "IPC table must not depend on the backend"
    );
    assert_eq!(
        direct.aggregate_json(),
        replay.aggregate_json(),
        "sweep metrics document must not depend on the backend"
    );
    // Cell-by-cell, the full schema-3 documents agree outside the
    // self-profile — not just the aggregated projections.
    for (a, b) in direct.outcomes().iter().zip(replay.outcomes()) {
        assert_eq!(
            deterministic_part(a.document.as_ref().expect("direct cell runs")),
            deterministic_part(b.document.as_ref().expect("replay cell runs")),
            "cell {} differs between backends",
            a.index
        );
    }

    assert_eq!(
        replay.stats.traces_recorded, 3,
        "one recording per distinct workload, made before scheduling"
    );
    assert_eq!(
        replay.stats.traces_reused,
        replay.outcomes().len() as u64,
        "every cell replays a shared recording"
    );
    assert_eq!(direct.stats.traces_recorded, 0);
    assert_eq!(direct.stats.traces_reused, 0);
}

#[test]
fn backends_never_serve_each_other_from_the_cache() {
    let dir = std::env::temp_dir().join(format!("cpe-replay-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(&dir);

    let direct = plan(BackendKind::Direct)
        .run(2, Some(&cache))
        .expect("direct warms the cache");
    assert_eq!(direct.stats.misses, 9, "cold cache computes every cell");

    // Same grid through replay: all misses — the direct entries must not
    // serve it, or the byte-identity would be unfalsifiable from cache.
    let replay = plan(BackendKind::Replay)
        .run(2, Some(&cache))
        .expect("replay runs against the direct-warmed cache");
    assert_eq!(replay.stats.hits, 0, "no cross-backend hits");
    assert_eq!(replay.stats.misses, 9);
    assert_eq!(direct.aggregate_json(), replay.aggregate_json());

    // And each backend hits its own entries on a re-run.
    let warm = plan(BackendKind::Replay)
        .run(2, Some(&cache))
        .expect("warm replay sweep runs");
    assert_eq!(warm.stats.hits, 9);
    assert_eq!(
        warm.stats.traces_recorded, 0,
        "a grid the cache serves whole records nothing"
    );
    assert_eq!(warm.aggregate_json(), replay.aggregate_json());

    let _ = std::fs::remove_dir_all(&dir);
}
