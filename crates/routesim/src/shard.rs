//! Deterministic sharding of per-item work across scoped worker threads.
//!
//! The whole workspace's parallelism runs through [`shard_map`]: the input
//! slice is striped across `std::thread::scope` workers (worker `w` maps
//! items `w, w + workers, w + 2·workers, …`) and the results are
//! reassembled in input order. Because every item is mapped by a pure
//! function of the item itself, the output is element-for-element
//! identical to the sequential `items.iter().map(f)` whatever the worker
//! count — which is what lets the determinism suite demand byte-identical
//! reports at any `concurrency` setting. Striping (rather than contiguous
//! chunking) keeps the shards balanced when a cost-skewed run of items
//! sits at the head of the list. Where a single item can outweigh a
//! whole stripe — one tier-1 origin of a 100k-AS propagation does —
//! [`shard_map_dynamic`] lets the workers claim items one at a time
//! instead, under the same in-order contract. Two independent stages
//! fork and join through [`join`].

use std::sync::atomic::{AtomicUsize, Ordering};

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
/// `workers` is used as given (resolve `0 = auto` with
/// [`effective_concurrency`] first). With one worker — or one item — no
/// thread is spawned at all, so `workers = 1` is exactly the sequential
/// path, not a single-thread simulation of the parallel one.
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
    // Stripe items across workers (worker w handles items w, w+workers,
    // …): deterministic, and it spreads a cost-skewed head of the list
    // over every worker instead of loading it onto shard 0.
    let mut shards: Vec<Vec<U>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope
                    .spawn(move || items.iter().skip(w).step_by(workers).map(f).collect::<Vec<U>>())
            })
            .collect();
        shards = handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect();
    });
    // Inverse of the striping: item i is element i / workers of shard
    // i % workers, so a round-robin drain restores input order.
    let mut drains: Vec<std::vec::IntoIter<U>> = shards.into_iter().map(Vec::into_iter).collect();
    (0..items.len())
        .map(|i| drains[i % workers].next().expect("stripes cover every index exactly once"))
        .collect()
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
/// through its repair without cloning it). Same striping, same in-order
/// reassembly, same sequential fast path — and therefore the same
/// determinism contract as [`shard_map`].
pub fn shard_map_owned<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Pre-stripe the owned items into one bucket per worker (item i goes
    // to bucket i % workers, preserving relative order within a bucket).
    let mut buckets: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % workers].push(item);
    }
    let mut shards: Vec<Vec<U>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| scope.spawn(move || bucket.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        shards = handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect();
    });
    let total: usize = shards.iter().map(Vec::len).sum();
    let mut drains: Vec<std::vec::IntoIter<U>> = shards.into_iter().map(Vec::into_iter).collect();
    (0..total)
        .map(|i| drains[i % workers].next().expect("stripes cover every index exactly once"))
        .collect()
}

/// [`shard_map`] with self-balancing claims: each worker repeatedly takes
/// the next unclaimed index from a shared atomic counter and maps that
/// item, so a worker busy with one expensive item never strands the items
/// behind it — the other workers keep draining the list. No cost estimate
/// is needed, and however skewed the per-item cost, no worker sits idle
/// while an item is still unclaimed.
///
/// Every result is written back to its item's input slot, so the output
/// is element-for-element the sequential `items.iter().map(f)` whatever
/// the worker count or timing, exactly like [`shard_map`] — including the
/// no-spawn sequential path at one worker or one item.
pub fn shard_map_dynamic<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
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
            for (i, result) in handle.join().expect("shard worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("claims cover every index exactly once")).collect()
}

/// Stripe a frontier scan across up to `workers` scoped threads and
/// return the concatenated per-item results in frontier order.
///
/// This is the within-origin counterpart of [`shard_map`]: one level of a
/// level-synchronous BFS hands its frontier here, `scan` emits each
/// frontier node's candidate routes into the provided buffer, and the
/// merged vector is exactly what the sequential
/// `for node in frontier { scan(node, &mut out) }` loop would have
/// produced — every worker count yields the same candidate sequence, so
/// the caller's deterministic merge (and therefore the report bytes)
/// never depends on `workers`. With one worker — or one frontier node —
/// no thread is spawned at all.
pub fn shard_frontier<T, U, F>(frontier: &[T], workers: usize, scan: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T, &mut Vec<U>) + Sync,
{
    let workers = workers.clamp(1, frontier.len().max(1));
    if workers <= 1 {
        let mut out = Vec::new();
        for item in frontier {
            scan(item, &mut out);
        }
        return out;
    }
    // Worker w scans frontier items w, w+workers, … into one buffer per
    // item, so the round-robin drain below can interleave the buffers
    // back into frontier order even though items emit different numbers
    // of candidates.
    let mut shards: Vec<Vec<Vec<U>>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let scan = &scan;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    frontier
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .map(|item| {
                            let mut out = Vec::new();
                            scan(item, &mut out);
                            out
                        })
                        .collect::<Vec<Vec<U>>>()
                })
            })
            .collect();
        shards = handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect();
    });
    let mut drains: Vec<std::vec::IntoIter<Vec<U>>> =
        shards.into_iter().map(Vec::into_iter).collect();
    let mut merged = Vec::new();
    for i in 0..frontier.len() {
        merged.extend(drains[i % workers].next().expect("stripes cover every index exactly once"));
    }
    merged
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
    fn shard_map_dynamic_preserves_order_for_any_worker_count() {
        let items: Vec<u32> = (0..101).collect();
        let expected: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3).collect();
        for workers in [0usize, 1, 2, 3, 8, 200] {
            let got = shard_map_dynamic(&items, workers, |&x| u64::from(x) * 3);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn shard_map_dynamic_handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(shard_map_dynamic(&empty, 4, |&x| x).is_empty());
        assert_eq!(shard_map_dynamic(&[9u32], 4, |&x| x + 1), vec![10]);
    }

    #[test]
    fn shard_map_dynamic_matches_shard_map_exactly() {
        let items: Vec<u32> = (0..57).collect();
        for workers in [1usize, 2, 5, 16] {
            let striped = shard_map(&items, workers, |&x| x.wrapping_mul(17));
            let claimed = shard_map_dynamic(&items, workers, |&x| x.wrapping_mul(17));
            assert_eq!(claimed, striped, "workers={workers}");
        }
    }

    #[test]
    fn shard_map_dynamic_never_strands_items_behind_a_slow_one() {
        // Item 0 waits until every other item has run. With claims, the
        // second worker drains the rest of the list; a schedule that binds
        // items to workers up front (striping, LPT binning) parks some of
        // them behind item 0 on its worker. The wait is bounded, so such a
        // schedule fails this assertion instead of hanging the suite.
        let items: Vec<u32> = (0..64).collect();
        let finished = AtomicUsize::new(0);
        let others = items.len() - 1;
        let completed = shard_map_dynamic(&items, 2, |&x| {
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
        });
        assert!(completed.iter().all(|&ok| ok), "item 0 timed out: items were stranded behind it");
    }

    #[test]
    fn shard_frontier_matches_the_sequential_scan_for_any_worker_count() {
        // Items emit variable-length runs (item x emits x % 4 values), so
        // the merge has to interleave buffers, not just concatenate.
        let frontier: Vec<u32> = (0..97).collect();
        let scan = |&x: &u32, out: &mut Vec<u64>| {
            for k in 0..(x % 4) {
                out.push(u64::from(x) * 10 + u64::from(k));
            }
        };
        let mut expected = Vec::new();
        for item in &frontier {
            scan(item, &mut expected);
        }
        for workers in [0usize, 1, 2, 3, 8, 200] {
            let got = shard_frontier(&frontier, workers, scan);
            assert_eq!(got, expected, "workers={workers}");
        }
        assert!(shard_frontier(&Vec::<u32>::new(), 4, scan).is_empty());
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
