//! Contention tests for the job-level on-disk result cache: many writers
//! racing on one key, torn entries recovering through the job path, and
//! entries deleted under an active batch of jobs. The cache's contract
//! under all of this is simple — readers see a complete document or a
//! miss, never a torn one, and a concurrent clear can only cause
//! recomputation, never a wrong result.

use std::sync::atomic::{AtomicBool, Ordering};

use cpe_core::{BackendKind, SimConfig};
use cpe_exec::job::execute_jobs_traced;
use cpe_exec::{run_job, CacheKey, CacheStatus, Job, ResultCache, SweepPlan, SweepResults};
use cpe_workloads::{Scale, Workload};

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cpe-contention-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `*.json` entries in a cache directory.
fn entries(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|entry| entry.path())
                .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
                .collect()
        })
        .unwrap_or_default()
}

fn tiny_job() -> Job {
    Job {
        config: SimConfig::dual_port(),
        workload: Workload::Sort,
        scale: Scale::Test,
        max_insts: Some(2_000),
        backend: BackendKind::Direct,
    }
}

#[test]
fn concurrent_writers_to_one_key_never_expose_a_torn_entry() {
    let dir = tempdir("writers");
    let cache = ResultCache::new(&dir);
    let key = CacheKey::for_job(&tiny_job());
    // A large, recognizable document: a torn write would be caught by
    // the full-equality check below.
    let document = format!("{{\"schema\":2,\"blob\":\"{}\"}}", "x".repeat(64 * 1024));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..25 {
                    cache.store(&key, &document).expect("store succeeds");
                    match cache.lookup(&key) {
                        None => {} // raced a rename; a miss is legal
                        Some(read) => assert_eq!(read, document, "never torn"),
                    }
                }
            });
        }
    });
    assert_eq!(cache.lookup(&key).as_deref(), Some(document.as_str()));
    assert_eq!(entries(&dir).len(), 1, "one key, one entry");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_entry_is_a_miss_and_heals_through_run_job() {
    let dir = tempdir("torn");
    let cache = ResultCache::new(&dir);
    let job = tiny_job();
    let key = job.cache_key();
    // Simulate a crash mid-write that somehow landed a torn final file.
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join(format!("{}.json", key.hex())),
        "\"schema\":2,\"trunc",
    )
    .unwrap();

    let healed = run_job(&job, Some(&cache));
    assert_eq!(
        healed.cache,
        CacheStatus::Miss,
        "torn entry reads as a miss"
    );
    let document = healed.document.expect("job recomputes");
    assert_eq!(
        cache.lookup(&key).as_deref(),
        Some(document.as_str()),
        "the recomputed document replaced the torn entry"
    );
    let again = run_job(&job, Some(&cache));
    assert_eq!(again.cache, CacheStatus::Hit, "healed entry now hits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_clear_racing_an_active_sweep_costs_only_recomputation() {
    let dir = tempdir("clear-race");
    let cache = ResultCache::new(&dir);
    let plan = SweepPlan {
        configs: vec![SimConfig::naive_single_port(), SimConfig::dual_port()],
        workloads: vec![Workload::Compress, Workload::Sort],
        scale: Scale::Test,
        max_insts: Some(2_000),
        backend: BackendKind::Direct,
    };
    let reference = plan.run(1).expect("uncached reference");

    let stop = AtomicBool::new(false);
    let results = std::thread::scope(|scope| {
        let clearer = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                for entry in entries(&dir) {
                    // Another pass may have removed it first.
                    let _ = std::fs::remove_file(entry);
                }
                std::thread::yield_now();
            }
        });
        // Run the grid repeatedly while the clearer deletes entries
        // under it.
        let mut last = None;
        for _ in 0..3 {
            let (outcomes, _) = execute_jobs_traced(&plan.jobs(), 3, Some(&cache), None, None);
            last = Some(SweepResults::assemble(plan.clone(), outcomes, 3, 0, 0.0));
        }
        stop.store(true, Ordering::Relaxed);
        clearer.join().expect("clearer exits");
        last.unwrap()
    });
    assert_eq!(
        results.aggregate_json(),
        reference.aggregate_json(),
        "clearing mid-sweep can cost recomputation, never correctness"
    );
    assert_eq!(results.stats.failed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
