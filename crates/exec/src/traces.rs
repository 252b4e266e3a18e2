//! The shared recording store behind the replay backend.
//!
//! A replay sweep must record each distinct `(workload, scale,
//! max_insts)` tuple **exactly once** and replay it for every
//! configuration cell — that is the backend's whole point. [`TraceStore`]
//! is that guarantee: a thread-safe map from tuple to shared
//! [`RecordedWorkload`], populated up front by
//! [`TraceStore::record_all`] before any cell is scheduled, and consumed
//! from the worker threads by [`TraceStore::get`]. `record_all` records
//! the tuples the store lacks in parallel, one per core, and inserts
//! them in job order; a recording's bytes do not depend on the thread
//! that made it. The recorded/reused counters feed the sweep footer's
//! `trace:` segment — observability only, never the results.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use cpe_core::RecordedWorkload;
use cpe_workloads::{Scale, Workload};

use crate::job::Job;
use crate::scheduler::run_work_stealing;

type TraceKey = (Workload, Scale, Option<u64>);

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<TraceKey, Arc<RecordedWorkload>>,
    recorded: u64,
    reused: u64,
}

/// Recorded traces shared across the cells of one replay run.
#[derive(Debug, Default)]
pub struct TraceStore {
    inner: Mutex<Inner>,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    fn key(job: &Job) -> TraceKey {
        (job.workload, job.scale, job.max_insts)
    }

    /// Record every distinct `(workload, scale, max_insts)` tuple in
    /// `jobs` that is not already in the store, in parallel (workers as
    /// for `--jobs 0`, at most one per tuple), and insert them in job
    /// order. Returns how many recordings this call made.
    pub fn record_all(&self, jobs: &[Job]) -> u64 {
        // The lock is held across the recording: a `get` racing this
        // call waits and then reuses, so no tuple is recorded twice.
        let mut inner = self.inner.lock().expect("trace store lock");
        let mut missing: Vec<TraceKey> = Vec::new();
        for key in jobs.iter().map(TraceStore::key) {
            if !inner.map.contains_key(&key) && !missing.contains(&key) {
                missing.push(key);
            }
        }
        let (recordings, _) = run_work_stealing(&missing, 0, |_, &(workload, scale, max_insts)| {
            RecordedWorkload::record(workload, scale, max_insts)
        });
        let made = missing.len() as u64;
        for (key, recorded) in missing.into_iter().zip(recordings) {
            inner.map.insert(key, Arc::new(recorded));
        }
        inner.recorded += made;
        made
    }

    /// The recording for `job`'s tuple, recording it first if the store
    /// does not hold it yet. A pre-populated store (see
    /// [`TraceStore::record_all`]) makes every call a reuse.
    pub fn get(&self, job: &Job) -> Arc<RecordedWorkload> {
        let key = TraceStore::key(job);
        let mut inner = self.inner.lock().expect("trace store lock");
        if let Some(recorded) = inner.map.get(&key) {
            let recorded = Arc::clone(recorded);
            inner.reused += 1;
            return recorded;
        }
        let recorded = Arc::new(RecordedWorkload::record(
            job.workload,
            job.scale,
            job.max_insts,
        ));
        inner.map.insert(key, Arc::clone(&recorded));
        inner.recorded += 1;
        recorded
    }

    /// `(recorded, reused)`: how many recordings were made, and how many
    /// [`TraceStore::get`] calls were served from an existing one.
    pub fn counts(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("trace store lock");
        (inner.recorded, inner.reused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepPlan;
    use cpe_core::SimConfig;
    use cpe_isa::replay::write_recorded;

    fn job(workload: Workload, max_insts: Option<u64>) -> Job {
        Job {
            config: SimConfig::dual_port(),
            workload,
            scale: Scale::Test,
            max_insts,
            backend: cpe_core::BackendKind::Replay,
        }
    }

    fn cper_bytes(recorded: &RecordedWorkload) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_recorded(&mut bytes, recorded.trace()).expect("writes to memory");
        bytes
    }

    #[test]
    fn record_all_records_each_tuple_exactly_once() {
        let store = TraceStore::new();
        let jobs = vec![
            job(Workload::Sort, Some(2_000)),
            job(Workload::Sort, Some(2_000)),
            job(Workload::Compress, Some(2_000)),
            job(Workload::Sort, Some(1_000)),
        ];
        assert_eq!(store.record_all(&jobs), 3, "distinct tuples only");
        assert_eq!(store.record_all(&jobs), 0, "idempotent");
        assert_eq!(store.counts(), (3, 0));

        // The default grid, recorded in parallel, holds the bytes a
        // direct serial recording of each workload makes.
        let grid = SweepPlan::standard(Scale::Test, Some(2_000)).jobs();
        let store = TraceStore::new();
        let workloads = Workload::ALL.len() as u64;
        assert_eq!(store.record_all(&grid), workloads);
        assert_eq!(store.counts(), (workloads, 0));
        assert_eq!(store.record_all(&grid), 0, "a second call records nothing");
        for workload in Workload::ALL {
            let direct = RecordedWorkload::record(workload, Scale::Test, Some(2_000));
            let shared = store.get(&job(workload, Some(2_000)));
            assert_eq!(cper_bytes(&shared), cper_bytes(&direct), "{workload}");
        }

        // A `get` racing `record_all` from another thread: whichever
        // takes the lock first records, the other reuses.
        let store = TraceStore::new();
        let (made, fetched) = std::thread::scope(|scope| {
            let getter = scope.spawn(|| store.get(&jobs[2]));
            let made = store.record_all(&jobs);
            (made, getter.join().expect("get does not panic"))
        });
        let (recorded, reused) = store.counts();
        assert_eq!(recorded, 3, "each tuple recorded exactly once");
        assert_eq!(made + 1 - reused, 3, "the get recorded or reused, once");
        assert!(Arc::ptr_eq(&fetched, &store.get(&jobs[2])));
    }

    #[test]
    fn get_reuses_prerecorded_traces_and_shares_them() {
        let store = TraceStore::new();
        let jobs = vec![job(Workload::Sort, Some(2_000))];
        store.record_all(&jobs);
        let a = store.get(&jobs[0]);
        let b = store.get(&jobs[0]);
        assert!(Arc::ptr_eq(&a, &b), "one recording, shared");
        assert_eq!(store.counts(), (1, 2));
    }

    #[test]
    fn get_records_on_the_fly_when_not_prepopulated() {
        let store = TraceStore::new();
        let first = job(Workload::Compress, None);
        let recorded = store.get(&first);
        assert_eq!(store.counts(), (1, 0));
        assert!(
            recorded.trace().complete(),
            "uncapped recording runs to halt"
        );
        store.get(&first);
        assert_eq!(store.counts(), (1, 1));
    }
}
