//! Work-stealing execution of independent items over `std::thread`.
//!
//! The scheduler is deliberately dependency-free: per-worker deques
//! seeded round-robin, each behind its own mutex. A worker pops from the
//! *front* of its own deque and, when empty, steals from the *back* of a
//! sibling's — the classic split that keeps owners and thieves off the
//! same end. All items are enqueued before any worker starts, so an
//! empty full scan is a correct termination condition.
//!
//! Results land in per-item slots keyed by the item's index, which makes
//! the returned vector's order — and therefore everything aggregated
//! from it — independent of completion order and worker count.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What a run cost the scheduler itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Worker threads used, the calling thread included.
    pub workers: usize,
    /// Items executed by a worker other than the one they were seeded to.
    pub steals: u64,
}

/// Resolve a `--jobs` request: `0` means the machine's available
/// parallelism, and no useful worker count exceeds the item count.
pub fn effective_workers(requested: usize, items: usize) -> usize {
    let workers = if requested == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        requested
    };
    workers.min(items).max(1)
}

/// Run `run(index, &items[index])` for every item across `workers`
/// threads, returning the results in item order.
///
/// `run` must not panic — job-level panic isolation belongs inside the
/// closure (see [`crate::job::execute_jobs_traced`]); a panic that does
/// escape propagates out of this call after the remaining items finish on
/// the surviving workers.
pub fn run_work_stealing<T, R>(
    items: &[T],
    workers: usize,
    run: impl Fn(usize, &T) -> R + Sync,
) -> (Vec<R>, SchedulerStats)
where
    T: Sync,
    R: Send,
{
    let workers = effective_workers(workers, items.len());
    if workers <= 1 || items.len() <= 1 {
        let results = items
            .iter()
            .enumerate()
            .map(|(index, item)| run(index, item))
            .collect();
        return (
            results,
            SchedulerStats {
                workers: 1,
                steals: 0,
            },
        );
    }

    // Round-robin seeding: worker w owns items w, w+workers, …
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|worker| Mutex::new((worker..items.len()).step_by(workers).collect()))
        .collect();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let steals = AtomicU64::new(0);

    let work = |worker: usize| loop {
        // Own work first, front of the deque.
        let mut next = queues[worker].lock().expect("queue lock").pop_front();
        if next.is_none() {
            // Steal from the back of the first non-empty sibling.
            for victim in 1..workers {
                let victim = (worker + victim) % workers;
                let stolen = queues[victim].lock().expect("queue lock").pop_back();
                if stolen.is_some() {
                    steals.fetch_add(1, Ordering::Relaxed);
                    next = stolen;
                    break;
                }
            }
        }
        match next {
            Some(index) => {
                let result = run(index, &items[index]);
                *slots[index].lock().expect("slot lock") = Some(result);
            }
            // Every queue is drained; nothing new ever arrives.
            None => break,
        }
    };
    // The calling thread works as worker 0 instead of idling on the
    // join: one thread fewer, and what it allocates and frees stays in
    // its own allocator arena, where the caller's later work reuses it
    // (a spawned thread's arena keeps that memory resident beside it).
    std::thread::scope(|scope| {
        for worker in 1..workers {
            let work = &work;
            scope.spawn(move || work(worker));
        }
        work(0);
    });

    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every item was executed")
        })
        .collect();
    (
        results,
        SchedulerStats {
            workers,
            steals: steals.load(Ordering::Relaxed),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..57).collect();
        for workers in [1, 2, 3, 8, 64] {
            let (results, stats) = run_work_stealing(&items, workers, |index, item| {
                assert_eq!(index as u64, *item);
                item * 3
            });
            assert_eq!(results, items.iter().map(|i| i * 3).collect::<Vec<_>>());
            assert!(stats.workers <= items.len());
        }
    }

    #[test]
    fn zero_requests_machine_parallelism_and_clamps_to_items() {
        assert_eq!(effective_workers(5, 2), 2);
        assert_eq!(effective_workers(1, 100), 1);
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(4, 0), 1);
    }

    #[test]
    fn uneven_items_get_stolen_not_stranded() {
        // One slow seeded lane: make worker 0's items heavy so siblings
        // must steal from it for the run to finish promptly.
        let items: Vec<usize> = (0..32).collect();
        let executed = AtomicUsize::new(0);
        let (results, stats) = run_work_stealing(&items, 4, |index, _| {
            if index % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            executed.fetch_add(1, Ordering::Relaxed);
            index
        });
        assert_eq!(executed.load(Ordering::Relaxed), 32);
        assert_eq!(results, items);
        assert!(stats.steals > 0, "siblings should have stolen work");
    }

    #[test]
    fn empty_input_is_fine() {
        let (results, _) = run_work_stealing(&[] as &[u8], 4, |_, _| 0u8);
        assert!(results.is_empty());
    }
}
