//! Deterministic sharding of per-item work across scoped worker threads.
//!
//! The whole workspace's parallelism runs through [`shard_map`]: up to
//! `workers` `std::thread::scope` threads each repeatedly claim the next
//! unmapped index from one shared atomic counter, and every result is
//! written back to its item's input slot. Because every item is mapped
//! by a pure function of the item itself, the output is
//! element-for-element identical to the sequential `items.iter().map(f)`
//! whatever the worker count or timing — which is what lets the
//! determinism suite demand byte-identical reports at any `concurrency`
//! setting. Claiming needs no cost estimate: where a single item
//! outweighs many others — one tier-1 origin of a 100k-AS propagation
//! does — it occupies one worker while the others drain the rest of the
//! list. [`shard_map_owned`] runs owned items through the same claims,
//! and two independent stages fork and join through [`join`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolve a `concurrency` knob to a worker count: `0` means "all
/// available parallelism", any other value is taken literally (`1` is the
/// fully sequential path).
pub fn effective_concurrency(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    } else {
        requested
    }
}

/// Map `f` over `items` on up to `workers` scoped threads, preserving
/// input order.
///
/// Each worker repeatedly takes the next unclaimed index from a shared
/// atomic counter and maps that item, so a worker busy with one expensive
/// item never strands the items behind it. Every result lands in its
/// item's slot, so the output is the sequential `items.iter().map(f)`
/// whatever the worker count or timing.
///
/// `workers` is used as given (resolve `0 = auto` with
/// [`effective_concurrency`] first). With one worker — or one item — no
/// thread is spawned at all, so `workers = 1` is exactly the sequential
/// path, not a single-thread simulation of the parallel one. A panic in
/// `f` is re-raised on the caller with its own payload, at any worker
/// count.
pub fn shard_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = Vec::new();
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let (f, next) = (&f, &next);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed suffices: the counter publishes no data
                        // (results travel back through `join`), and the
                        // read-modify-write alone hands each index out once.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            let done = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("claims cover every index exactly once")).collect()
}

/// Run two independent closures and return both results, `a`'s first.
///
/// With two or more workers, `a` runs on one scoped thread while `b` runs
/// on the caller; with one worker (`0` is taken as one) `a` then `b` run
/// inline and no thread is spawned. A panic in either closure is re-raised
/// on the caller. Nest it to fan out further:
/// `join(workers, a, || join(workers - 1, b, c))` keeps the three stages
/// within a budget of `workers` threads.
pub fn join<A, B, RA, RB>(workers: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    if workers <= 1 {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|scope| {
        let a = scope.spawn(a);
        let rb = b();
        (a.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)), rb)
    })
}

/// [`shard_map`] over owned items: `f` consumes each item instead of
/// borrowing it, which lets workers mutate heavyweight per-item state in
/// place (the incremental sweep moves each dirty source's distance map
/// through its repair without cloning it). Each item waits in a cell
/// until its claim moves it out, so the schedule, the in-order result and
/// the sequential fast path are [`shard_map`]'s own.
pub fn shard_map_owned<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let take = |cell: &Mutex<Option<T>>| cell.lock().expect("take never panics").take();
    shard_map(&cells, workers, |cell| f(take(cell).expect("each cell is claimed once")))
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;

    #[test]
    fn effective_concurrency_resolves_zero_to_at_least_one() {
        assert!(effective_concurrency(0) >= 1);
        assert_eq!(effective_concurrency(1), 1);
        assert_eq!(effective_concurrency(7), 7);
    }

    #[test]
    fn shard_map_preserves_order_for_any_worker_count() {
        let items: Vec<u32> = (0..101).collect();
        let expected: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3).collect();
        for workers in [0, 1, 2, 3, 8, 200] {
            let got = shard_map(&items, workers, |&x| u64::from(x) * 3);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn shard_map_handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(shard_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(shard_map(&[9u32], 4, |&x| x + 1), vec![10]);
    }

    #[test]
    fn shard_map_never_strands_items_behind_a_slow_one() {
        // Item 0 waits until every other item has run. With claims, the
        // second worker drains the rest of the list; a schedule that binds
        // items to workers up front (striping, LPT binning) parks some of
        // them behind item 0 on its worker. The wait is bounded, so such a
        // schedule fails this assertion instead of hanging the suite.
        let wait_for_the_rest = |finished: &AtomicUsize, x: u32, others: usize| {
            if x != 0 {
                finished.fetch_add(1, Ordering::SeqCst);
                return true;
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while finished.load(Ordering::SeqCst) < others {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        };
        let items: Vec<u32> = (0..64).collect();
        let others = items.len() - 1;
        let finished = AtomicUsize::new(0);
        let borrowed = shard_map(&items, 2, |&x| wait_for_the_rest(&finished, x, others));
        assert!(borrowed.iter().all(|&ok| ok), "shard_map stranded items behind item 0");
        let finished = AtomicUsize::new(0);
        let owned = shard_map_owned(items, 2, |x| wait_for_the_rest(&finished, x, others));
        assert!(owned.iter().all(|&ok| ok), "shard_map_owned stranded items behind item 0");
    }

    #[test]
    fn shard_map_propagates_a_panic_payload_at_any_worker_count() {
        let items: Vec<u32> = (0..8).collect();
        for workers in [1usize, 2] {
            let borrowed = std::panic::catch_unwind(|| {
                shard_map(&items, workers, |_| -> u32 { panic!("in f") })
            });
            let payload = borrowed.expect_err("a panic in `f` propagates");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"in f"), "workers={workers}");
            let owned = std::panic::catch_unwind(|| {
                shard_map_owned(items.clone(), workers, |_| -> u32 { panic!("in f") })
            });
            let payload = owned.expect_err("a panic in `f` propagates");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"in f"), "workers={workers}");
        }
    }

    #[test]
    fn join_returns_both_results_in_order() {
        for workers in [0usize, 1, 2, 8] {
            let (a, b) = join(workers, || vec![1u8, 2], || "b");
            assert_eq!((a, b), (vec![1, 2], "b"), "workers={workers}");
            let (a, (b, c)) =
                join(workers, || 1u32, || join(workers.saturating_sub(1), || 2u64, || 3i8));
            assert_eq!((a, b, c), (1, 2, 3), "workers={workers}");
        }
    }

    #[test]
    fn join_spawns_only_with_two_or_more_workers() {
        let caller = std::thread::current().id();
        for workers in [0usize, 1] {
            let (a, b) =
                join(workers, || std::thread::current().id(), || std::thread::current().id());
            assert_eq!((a, b), (caller, caller), "workers={workers} must not spawn");
        }
        for workers in [2usize, 8] {
            let (a, b) =
                join(workers, || std::thread::current().id(), || std::thread::current().id());
            assert_ne!(a, caller, "workers={workers}: `a` runs on its own thread");
            assert_eq!(b, caller, "workers={workers}: `b` runs on the caller");
        }
    }

    #[test]
    fn join_propagates_a_panic_in_either_closure() {
        for workers in [1usize, 2] {
            let in_a = std::panic::catch_unwind(|| join(workers, || panic!("in a"), || 1));
            let payload = in_a.expect_err("a panic in `a` propagates");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"in a"), "workers={workers}");
            let in_b = std::panic::catch_unwind(|| join(workers, || 1, || panic!("in b")));
            let payload = in_b.expect_err("a panic in `b` propagates");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"in b"), "workers={workers}");
        }
    }

    #[test]
    fn shard_map_owned_preserves_order_and_moves_items() {
        // Non-Clone payloads prove the items are moved, not copied.
        struct Payload(u32);
        for workers in [0usize, 1, 2, 3, 8, 200] {
            let items: Vec<Payload> = (0..101).map(Payload).collect();
            let got = shard_map_owned(items, workers, |p| u64::from(p.0) * 3);
            let expected: Vec<u64> = (0..101u32).map(|x| u64::from(x) * 3).collect();
            assert_eq!(got, expected, "workers={workers}");
        }
        assert!(shard_map_owned(Vec::<u32>::new(), 4, |x| x).is_empty());
        assert_eq!(shard_map_owned(vec![9u32], 4, |x| x + 1), vec![10]);
    }
}
