//! Deterministic fork/join over per-worker state.
//!
//! The campaign executor shards cells and the DPU runtime shards a
//! batch's images with the same primitive, [`run_indexed`]: scoped
//! threads pull indices from one atomic counter and the results merge
//! back in index order. Each worker owns one element of a caller-supplied
//! state slice (a worker id, a scratch arena), so a result may depend on
//! the index but never on which worker computed it. Together with the
//! derived seeds of [`crate::rng`], that keeps every output identical for
//! any worker count.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested worker count: `0` means the host's available
/// parallelism (1 when it cannot be queried); any other value stands.
pub fn resolve_workers(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        n => n,
    }
}

/// Computes `f(index, state)` for every index in `0..count` and returns
/// the results in index order. The first `min(workers.len(), count)`
/// states each drive one scoped thread that pulls indices from a shared
/// counter, so load balances dynamically while the output order stays
/// fixed. With one such worker everything runs inline on the caller's
/// thread. A state persists across calls, so a caller can keep scratch
/// memory warm from one batch to the next.
///
/// `f` must not depend on which state it is handed for its result.
///
/// # Panics
///
/// Panics if `workers` is empty while `count > 0`, and re-raises the
/// first worker panic on the calling thread.
pub fn run_indexed<S, T, F>(count: usize, workers: &mut [S], f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let used = workers.len().min(count);
    match &mut workers[..used] {
        [] => {
            assert!(count == 0, "run_indexed needs at least one worker");
            Vec::new()
        }
        [only] => (0..count).map(|index| f(index, only)).collect(),
        workers => {
            let next = AtomicUsize::new(0);
            let (next, f) = (&next, &f);
            let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = workers
                    .iter_mut()
                    .map(|state| {
                        scope.spawn(move || {
                            let mut produced = Vec::new();
                            loop {
                                // Relaxed: the counter only hands out
                                // indices; results come back through `join`.
                                let index = next.fetch_add(1, Ordering::Relaxed);
                                if index >= count {
                                    break produced;
                                }
                                produced.push((index, f(index, state)));
                            }
                        })
                    })
                    .collect();
                for handle in handles {
                    match handle.join() {
                        Ok(produced) => {
                            for (index, value) in produced {
                                slots[index] = Some(value);
                            }
                        }
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.expect("every index executed exactly once"))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worker ids `0..n`, the state the campaign executor hands out.
    fn ids(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn run_indexed_orders_results_and_covers_every_index() {
        for count in [0usize, 1, 17, 1000] {
            for workers in [1usize, 2, 3, 8, 64] {
                let out = run_indexed(count, &mut ids(workers), |i, _| i * i);
                assert_eq!(
                    out,
                    (0..count).map(|i| i * i).collect::<Vec<_>>(),
                    "count={count} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn each_state_sees_only_its_own_items() {
        // Every state records the indices it was handed; together they
        // must partition `0..count`, and each result names its state.
        for count in [1usize, 17, 1000] {
            for workers in [1usize, 2, 3, 8, 64] {
                let mut seen: Vec<(usize, Vec<usize>)> =
                    (0..workers).map(|id| (id, Vec::new())).collect();
                let owners = run_indexed(count, &mut seen, |i, (id, items)| {
                    items.push(i);
                    *id
                });
                let at = format!("count={count} workers={workers}");
                let total: usize = seen.iter().map(|(_, items)| items.len()).sum();
                assert_eq!(total, count, "{at}: per-state counts sum to the items");
                for (id, items) in &seen {
                    assert!(items.windows(2).all(|w| w[0] < w[1]), "{at}");
                    for &i in items {
                        assert_eq!(owners[i], *id, "{at}: item {i}");
                    }
                }
                let used = seen.iter().filter(|(_, items)| !items.is_empty()).count();
                assert!(used <= count.min(workers), "{at}: idle states stay idle");
            }
        }
    }

    #[test]
    fn state_persists_across_calls() {
        // Two calls on the same states: each state's counter keeps what
        // the first call added, like the runtime's reused scratch arenas.
        let mut counters = vec![0usize; 3];
        run_indexed(40, &mut counters, |_, n| *n += 1);
        let after_one: usize = counters.iter().sum();
        assert_eq!(after_one, 40);
        run_indexed(25, &mut counters, |_, n| *n += 1);
        assert_eq!(counters.iter().sum::<usize>(), 65);
        // Inline, the single state takes every item of every call.
        let mut single = [0usize];
        run_indexed(7, &mut single, |_, n| *n += 1);
        run_indexed(5, &mut single, |_, n| *n += 1);
        assert_eq!(single, [12]);
    }

    #[test]
    fn a_panicking_item_reraises_on_the_caller() {
        for workers in [1usize, 4] {
            let caught = std::panic::catch_unwind(|| {
                run_indexed(32, &mut ids(workers), |i, _| {
                    assert!(i != 13, "item 13 fails");
                    i
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            assert_eq!(message, Some("item 13 fails"), "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn work_without_a_worker_is_refused() {
        run_indexed(3, &mut [] as &mut [usize], |i, _| i);
    }

    #[test]
    fn no_work_needs_no_worker() {
        assert!(run_indexed(0, &mut [] as &mut [usize], |i, _| i).is_empty());
    }

    #[test]
    fn zero_means_available_parallelism() {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(resolve_workers(0), cores);
        assert_eq!(resolve_workers(1), 1);
        assert_eq!(resolve_workers(64), 64);
    }
}
