//! The execution layer's core promise, end to end: a parallel sweep
//! produces **byte-identical** aggregate output to the serial path —
//! same IPC table, same sweep metrics document — and a batch of
//! overlapping plans equals each plan run alone. The job-level result
//! cache keeps the promise too: a repeated batch is served entirely from
//! it without changing a byte.

use cpe_core::{BackendKind, SimConfig};
use cpe_exec::job::execute_jobs_traced;
use cpe_exec::{CacheStatus, ResultCache, SweepPlan, SweepResults};
use cpe_workloads::{Scale, Workload};

fn plan() -> SweepPlan {
    SweepPlan {
        configs: vec![
            SimConfig::naive_single_port(),
            SimConfig::dual_port(),
            SimConfig::combined_single_port(),
        ],
        workloads: vec![Workload::Compress, Workload::Sort, Workload::Fft],
        scale: Scale::Test,
        max_insts: Some(5_000),
        backend: BackendKind::Direct,
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cpe-exec-{tag}-{}", std::process::id()))
}

#[test]
fn two_worker_sweep_matches_the_serial_path_byte_for_byte() {
    let plan = plan();
    let serial = plan.run(1).expect("serial sweep runs");
    let parallel = plan.run(2).expect("parallel sweep runs");

    assert_eq!(
        serial.ipc_table().to_string(),
        parallel.ipc_table().to_string(),
        "IPC table must not depend on worker count"
    );
    assert_eq!(
        serial.aggregate_json(),
        parallel.aggregate_json(),
        "sweep metrics document must not depend on worker count"
    );
}

/// The plan's cells through the job-level cache on `workers` threads,
/// assembled as a sweep, with how many cells the cache served.
fn cached_run(plan: &SweepPlan, workers: usize, cache: &ResultCache) -> (SweepResults, usize) {
    let (outcomes, _) = execute_jobs_traced(&plan.jobs(), workers, Some(cache), None, None);
    let hits = outcomes
        .iter()
        .filter(|outcome| outcome.cache == CacheStatus::Hit)
        .count();
    let results = SweepResults::assemble(plan.clone(), outcomes, workers, 0, 0.0);
    (results, hits)
}

#[test]
fn cached_rerun_is_all_hits_and_byte_identical() {
    let dir = scratch_dir("rerun");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(&dir);
    let plan = plan();

    let serial = plan.run(1).expect("uncached serial sweep runs");
    let (first, hits) = cached_run(&plan, 2, &cache);
    assert_eq!(hits, 0, "cold cache: every cell computes");
    let (second, hits) = cached_run(&plan, 4, &cache);
    assert_eq!(hits, 9, "warm cache: every cell is a hit");

    // All three agree byte for byte: uncached serial, cold parallel,
    // warm parallel.
    let reference = serial.aggregate_json();
    assert_eq!(reference, first.aggregate_json());
    assert_eq!(reference, second.aggregate_json());
    let table = serial.ipc_table().to_string();
    assert_eq!(table, first.ipc_table().to_string());
    assert_eq!(table, second.ipc_table().to_string());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_survives_across_plan_objects_but_not_across_parameters() {
    let dir = scratch_dir("params");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(&dir);

    let (warm, _) = cached_run(&plan(), 2, &cache);

    // A freshly-built identical plan hits — content addressing, not
    // object identity.
    let (rebuilt, hits) = cached_run(&plan(), 2, &cache);
    assert_eq!(hits, 9);
    assert_eq!(rebuilt.aggregate_json(), warm.aggregate_json());

    // A different instruction window shares nothing.
    let mut shifted = plan();
    shifted.max_insts = Some(6_000);
    let (_, hits) = cached_run(&shifted, 2, &cache);
    assert_eq!(hits, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Three overlapping replay plans: the second shares a config with the
/// first, and the third holds the first's naive config under another
/// name beside a cell the first already has.
fn overlapping_plans() -> Vec<SweepPlan> {
    let replay = |configs, workloads| SweepPlan {
        configs,
        workloads,
        scale: Scale::Test,
        max_insts: Some(4_000),
        backend: BackendKind::Replay,
    };
    vec![
        replay(
            vec![SimConfig::naive_single_port(), SimConfig::dual_port()],
            vec![Workload::Compress, Workload::Sort],
        ),
        replay(
            vec![SimConfig::dual_port(), SimConfig::combined_single_port()],
            vec![Workload::Sort, Workload::Fft],
        ),
        replay(
            vec![
                SimConfig::naive_single_port().named("naive, renamed"),
                SimConfig::dual_port(),
            ],
            vec![Workload::Compress],
        ),
    ]
}

#[test]
fn a_batch_equals_each_plan_run_alone() {
    let plans = overlapping_plans();
    // 10 grid cells; the second plan's 2-port/sort and the third's
    // 2-port/compress repeat cells of the first, while the renamed
    // naive config is a cell of its own.
    let distinct = 8;
    let batch = SweepPlan::run_all(&plans, 2, None).expect("every grid is valid");
    assert_eq!(batch.len(), plans.len());
    let stats = batch[0].stats;
    assert!(
        batch.iter().all(|results| results.stats == stats),
        "the plans share the batch's stats"
    );
    for (plan, batched) in plans.iter().zip(&batch) {
        let alone = plan.run(2).expect("the plan runs alone");
        assert_eq!(batched.aggregate_json(), alone.aggregate_json());
        assert_eq!(
            batched.ipc_table().to_string(),
            alone.ipc_table().to_string()
        );
    }
    assert!(batch[2]
        .aggregate_json()
        .contains("\"config\":\"naive, renamed\""));
    assert_eq!(stats.cells, distinct, "each distinct cell runs once");
    assert_eq!(
        stats.traces_recorded, 3,
        "compress, sort and fft are each recorded once"
    );
    assert_eq!(stats.traces_reused, distinct as u64);
    assert_eq!(stats.failed, 0);

    // The job-level cache addresses cells by the identity the batch
    // dedups by: the plans' repeated cells hit, the renamed config
    // misses, and the cache ends with one entry per distinct cell.
    let dir = scratch_dir("batch");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(&dir);
    let mut hits = 0;
    for (plan, batched) in plans.iter().zip(&batch) {
        let (cached, plan_hits) = cached_run(plan, 2, &cache);
        hits += plan_hits;
        assert_eq!(batched.aggregate_json(), cached.aggregate_json());
    }
    assert_eq!(hits, 10 - distinct, "only the repeated cells hit");
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        distinct,
        "one entry per distinct cell"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
