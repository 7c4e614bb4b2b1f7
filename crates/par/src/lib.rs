//! Minimal data-parallel substrate for the MPS workspace.
//!
//! The multi-pattern scheduling pipeline contains two embarrassingly parallel
//! hot spots: span-limited antichain enumeration (one independent search tree
//! per root node) and the Monte-Carlo random-pattern baseline (independent
//! trials). `rayon` is not part of the approved offline dependency set, so
//! this crate provides the small slice of its functionality we need, built on
//! [`crossbeam`]'s scoped threads:
//!
//! * [`par_map`] / [`par_map_indexed`] — order-preserving parallel map.
//!   Workers claim contiguous index chunks from a shared atomic counter and
//!   write results directly into their final slots of the output buffer:
//!   no channel, no per-item message, no `Vec<Option<U>>` re-collect.
//! * [`par_fold`] — per-worker local accumulators merged once at the end,
//!   so reductions combine `T` thread-locals instead of one partial per
//!   item (the pattern-table builder's hot path).
//! * [`par_fold_irregular`] — the same fold over a pre-classified
//!   heavy/light item list: heavy items claimed one at a time and drained
//!   first, light items chunked. Built for skewed workloads (one
//!   enumeration root's split branches among thousands of trivial roots)
//!   where uniform chunking would lump several expensive items into one
//!   claim.
//! * [`par_reduce`] — parallel map + associative fold,
//! * [`par_for_each`] — side-effecting variant,
//! * [`parallelism`] — thread-count heuristic honouring `MPS_THREADS`,
//! * [`BoundedQueue`] — a blocking bounded MPMC queue, the admission
//!   primitive of the `mps-serve` daemon (backpressure on producers, clean
//!   drain-on-close for consumers; [`BoundedQueue::try_push`] for
//!   shed-instead-of-block admission),
//! * [`CancelToken`] — a cooperative stop flag with an optional deadline,
//!   polled by [`par_fold_irregular_cancel_in`]'s claim loops so a
//!   cancelled enumeration stops claiming work instead of running to
//!   completion,
//! * [`SingleFlight`] — a sharded single-flight map with LRU entry/byte
//!   budgets, the one mechanism behind both of the serving stack's cache
//!   tiers (pattern tables and whole compiles).
//!
//! All entry points fall back to straight sequential execution when the input
//! is small or only one hardware thread is available, so callers never pay
//! thread-spawn latency for tiny inputs.
//!
//! The only `unsafe` in the crate is the disjoint-chunk output write in
//! the `fill` module; everything else is `#[deny(unsafe_code)]`-clean.
//!
//! # Example
//!
//! ```
//! let squares = mps_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

mod cancel;
mod chunk;
#[allow(unsafe_code)] // isolated disjoint-chunk writes; see module docs
mod fill;
mod flight;
mod queue;
pub use cancel::{CancelKind, CancelToken};
pub use chunk::chunk_ranges;
pub use flight::{CacheBudget, FlightError, SingleFlight};
pub use queue::{BoundedQueue, PushError};

/// Inputs shorter than this are always processed sequentially. Two is the
/// smallest input that can be split at all; anything at or above it may be
/// worth threads because items can be arbitrarily expensive (one
/// enumeration root can own a search tree orders of magnitude larger than
/// another's), and per-item dispatch overhead is already amortized by
/// chunked claiming rather than by this cutoff.
const SEQUENTIAL_CUTOFF: usize = 2;

/// Target number of chunks each worker gets to claim over a run. Higher
/// values balance skewed per-item costs better; lower values reduce shared
/// counter traffic. 8 keeps the slowest worker within ~1/8 of a chunk of
/// the others for uniform items while costing only `8 × threads` atomic
/// increments in total.
const CHUNKS_PER_WORKER: usize = 8;

/// Upper bound on the chunk size, so enormous inputs still rebalance.
const MAX_CHUNK: usize = 1024;

/// How many items a worker claims per trip to the shared counter.
///
/// `len / (workers × CHUNKS_PER_WORKER)`, clamped to `1..=MAX_CHUNK`.
fn chunk_size(len: usize, workers: usize) -> usize {
    (len / (workers * CHUNKS_PER_WORKER).max(1)).clamp(1, MAX_CHUNK)
}

/// Number of worker threads to use for parallel operations.
///
/// Resolution order:
/// 1. the `MPS_THREADS` environment variable, if set and parseable (a value
///    of `1` disables parallelism entirely),
/// 2. [`std::thread::available_parallelism`],
/// 3. `1` as a last resort.
pub fn parallelism() -> usize {
    if let Ok(v) = std::env::var("MPS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Order-preserving parallel map: `out[i] = f(&items[i])`.
///
/// Work is distributed dynamically: each worker repeatedly claims the next
/// unprocessed chunk of indices from a shared atomic counter, so heavily
/// skewed per-item costs (common in antichain enumeration, where one root
/// node may own a search tree orders of magnitude larger than another's)
/// still balance well.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// [`par_map`] with an explicit worker count instead of [`parallelism`]'s
/// heuristic.
///
/// `workers` is clamped to the item count; `0` and `1` both mean
/// sequential execution in slice order. Exposed so callers that sweep
/// thread counts deterministically — batch-compile benches, scaling tests
/// — can pin the fan-out without touching the `MPS_THREADS` environment.
pub fn par_map_in<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let len = items.len();
    let workers = workers.min(len.max(1));
    if workers <= 1 || len < SEQUENTIAL_CUTOFF {
        return items.iter().map(f).collect();
    }
    fill::fill_indexed(len, workers, chunk_size(len, workers), |i| f(&items[i]))
}

/// Parallel map over the index range `0..len`, preserving index order.
///
/// This is the workhorse behind [`par_map`]; use it directly when the work
/// items are described by an index rather than a slice element. Results are
/// written straight into their final slots of the output vector (the
/// `fill` module), so the only coordination cost is one atomic increment per
/// claimed chunk.
pub fn par_map_indexed<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = parallelism().min(len.max(1));
    if workers <= 1 || len < SEQUENTIAL_CUTOFF {
        return (0..len).map(f).collect();
    }
    fill::fill_indexed(len, workers, chunk_size(len, workers), f)
}

/// Parallel fold: one private accumulator per worker, merged at the end.
///
/// Every worker builds an accumulator with `make`, folds each item of the
/// chunks it claims into it with `fold`, and the per-worker accumulators
/// are combined pairwise with `merge` once all items are consumed. Only
/// `T` partials are ever merged (T = worker count), independent of the
/// item count — the right shape for reductions whose accumulator is big
/// (histograms, frequency tables) where per-item partials would dominate.
///
/// Which items land in which accumulator depends on scheduling, so
/// `fold`/`merge` must be insensitive to grouping and order (counting,
/// summing and histogram merges are; appending to an ordered list is not).
/// `make` must return a neutral accumulator: `merge(make(), a) ≡ a`.
pub fn par_fold<T, A, M, F, R>(items: &[T], make: M, fold: F, merge: R) -> A
where
    T: Sync,
    A: Send,
    M: Fn() -> A + Sync,
    F: Fn(&mut A, &T) + Sync,
    R: Fn(A, A) -> A,
{
    let workers = parallelism().min(items.len().max(1));
    if workers <= 1 || items.len() < SEQUENTIAL_CUTOFF {
        let mut acc = make();
        for item in items {
            fold(&mut acc, item);
        }
        return acc;
    }
    let chunk = chunk_size(items.len(), workers);
    let next = AtomicUsize::new(0);
    let locals: Vec<A> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, make, fold) = (&next, &make, &fold);
                scope.spawn(move |_| {
                    let mut acc = make();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        for item in &items[start..(start + chunk).min(items.len())] {
                            fold(&mut acc, item);
                        }
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(acc) => acc,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
    .expect("worker thread panicked");
    locals
        .into_iter()
        .reduce(merge)
        .expect("at least one worker ran")
}

/// Claim granularities used by [`par_fold_irregular`] for a mixed
/// heavy/light work-item list: `(heavy_claim, light_chunk)`.
///
/// Heavy items are always claimed **one at a time** — any of them may be
/// orders of magnitude more expensive than the rest (an enumeration
/// root's depth-1 branch over a hub node), so batching two into one claim
/// can serialize half the useful work onto one worker. Light items reuse
/// the [`par_fold`] chunk policy (`len / (workers × 8)`, clamped to
/// `1..=1024`): they are individually cheap, so the goal is amortizing
/// counter traffic, not balance.
pub fn irregular_claim_sizes(heavy_len: usize, light_len: usize, workers: usize) -> (usize, usize) {
    let _ = heavy_len; // granularity 1 regardless of how many heavy items
    (1, chunk_size(light_len, workers))
}

/// [`par_fold`] over an irregular, pre-classified work-item list.
///
/// `heavy` holds the items whose individual cost may dominate a whole
/// chunk (e.g. the per-branch units a skewed enumeration root was split
/// into); `light` holds everything else. Workers drain `heavy` first,
/// claiming **one item per trip** to its shared counter, then fall
/// through to `light`, claimed in [`par_fold`]-sized chunks (see
/// [`irregular_claim_sizes`]). Draining heavy first is the classic
/// longest-processing-time heuristic: the expensive items land while
/// every worker is still busy, and the cheap tail backfills the stragglers.
///
/// The accumulator contract is exactly [`par_fold`]'s: which items land in
/// which accumulator depends on scheduling, so `fold`/`merge` must be
/// insensitive to grouping and order, and `make` must return a neutral
/// accumulator. Under that contract the result is deterministic across
/// runs and worker counts.
pub fn par_fold_irregular<T, A, M, F, R>(heavy: &[T], light: &[T], make: M, fold: F, merge: R) -> A
where
    T: Sync,
    A: Send,
    M: Fn() -> A + Sync,
    F: Fn(&mut A, &T) + Sync,
    R: Fn(A, A) -> A,
{
    par_fold_irregular_in(parallelism(), heavy, light, make, fold, merge)
}

/// [`par_fold_irregular`] with an explicit worker count.
///
/// `workers` is clamped to the item count; `0` and `1` both mean
/// sequential execution (heavy items first, then light, in slice order).
/// Exposed so tests and benches can pin the thread count without touching
/// the `MPS_THREADS` environment.
pub fn par_fold_irregular_in<T, A, M, F, R>(
    workers: usize,
    heavy: &[T],
    light: &[T],
    make: M,
    fold: F,
    merge: R,
) -> A
where
    T: Sync,
    A: Send,
    M: Fn() -> A + Sync,
    F: Fn(&mut A, &T) + Sync,
    R: Fn(A, A) -> A,
{
    par_fold_irregular_cancel_in(workers, heavy, light, None, make, fold, merge)
}

/// [`par_fold_irregular_in`] with cooperative cancellation.
///
/// When `cancel` is `Some`, every claim trip — one per heavy item, one
/// per light chunk (and one per item on the sequential path) — polls the
/// token first and stops claiming once it fires, so workers drain within
/// one in-flight item of the cancellation instead of running the list to
/// completion. The merged accumulator is returned either way, but after
/// a cancellation it covers only the items folded before the token
/// fired: **callers must treat the result as garbage whenever
/// `cancel.is_cancelled()` holds afterwards**. Because the token is
/// sticky, that single post-hoc check subsumes every per-claim poll a
/// worker might have raced past.
pub fn par_fold_irregular_cancel_in<T, A, M, F, R>(
    workers: usize,
    heavy: &[T],
    light: &[T],
    cancel: Option<&CancelToken>,
    make: M,
    fold: F,
    merge: R,
) -> A
where
    T: Sync,
    A: Send,
    M: Fn() -> A + Sync,
    F: Fn(&mut A, &T) + Sync,
    R: Fn(A, A) -> A,
{
    let fired = || cancel.is_some_and(|t| t.is_cancelled());
    let len = heavy.len() + light.len();
    let workers = workers.min(len.max(1));
    if workers <= 1 || len < SEQUENTIAL_CUTOFF {
        let mut acc = make();
        for item in heavy.iter().chain(light.iter()) {
            if fired() {
                break;
            }
            fold(&mut acc, item);
        }
        return acc;
    }
    let (_, light_chunk) = irregular_claim_sizes(heavy.len(), light.len(), workers);
    let heavy_next = AtomicUsize::new(0);
    let light_next = AtomicUsize::new(0);
    let locals: Vec<A> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (heavy_next, light_next, make, fold) = (&heavy_next, &light_next, &make, &fold);
                let fired = &fired;
                scope.spawn(move |_| {
                    let mut acc = make();
                    loop {
                        if fired() {
                            return acc;
                        }
                        let i = heavy_next.fetch_add(1, Ordering::Relaxed);
                        if i >= heavy.len() {
                            break;
                        }
                        fold(&mut acc, &heavy[i]);
                    }
                    loop {
                        if fired() {
                            return acc;
                        }
                        let start = light_next.fetch_add(light_chunk, Ordering::Relaxed);
                        if start >= light.len() {
                            break;
                        }
                        for item in &light[start..(start + light_chunk).min(light.len())] {
                            fold(&mut acc, item);
                        }
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(acc) => acc,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
    .expect("worker thread panicked");
    locals
        .into_iter()
        .reduce(merge)
        .expect("at least one worker ran")
}

/// Parallel map + associative fold.
///
/// Computes `f` for every element, then combines the results with `fold`,
/// starting from `identity`. `fold` must be associative and `identity` must
/// be its neutral element; the combination order is otherwise unspecified.
pub fn par_reduce<T, U, F, R>(items: &[T], identity: U, f: F, fold: R) -> U
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
    R: Fn(U, U) -> U,
{
    par_map(items, f).into_iter().fold(identity, fold)
}

/// Run `f` on every element, in parallel, for its side effects.
///
/// The closure only receives `&T`; shared mutable state must be synchronized
/// by the caller (e.g. with atomics or `parking_lot` locks).
pub fn par_for_each<T, F>(items: &[T], f: F)
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    par_map(items, |t| {
        f(t);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let out = par_map(&input, |&x| x * 2 + 1);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 2 + 1);
        }
    }

    #[test]
    fn par_map_empty() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_single_element() {
        assert_eq!(par_map(&[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn par_map_indexed_matches_sequential() {
        let par = par_map_indexed(257, |i| i * i);
        let seq: Vec<usize> = (0..257).map(|i| i * i).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_in_matches_sequential_at_any_worker_count() {
        let input: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = input.iter().map(|&x| x * 3 + 1).collect();
        for workers in [0usize, 1, 2, 3, 8, 64] {
            let out = par_map_in(workers, &input, |&x| x * 3 + 1);
            assert_eq!(out, expect, "workers={workers}");
        }
        assert!(par_map_in(4, &[] as &[u32], |&x| x).is_empty());
    }

    #[test]
    fn par_map_non_copy_values() {
        // Heap-owning results exercise the move-into-slot write path.
        let out = par_map_indexed(1000, |i| format!("item-{i}"));
        assert_eq!(out.len(), 1000);
        assert_eq!(out[0], "item-0");
        assert_eq!(out[999], "item-999");
    }

    #[test]
    fn par_map_around_chunk_boundaries() {
        // Lengths straddling worker/chunk boundaries must still cover every
        // index exactly once.
        for len in [1usize, 2, 3, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025] {
            let out = par_map_indexed(len, |i| i);
            let seq: Vec<usize> = (0..len).collect();
            assert_eq!(out, seq, "len={len}");
        }
    }

    #[test]
    fn par_reduce_sums() {
        let input: Vec<u64> = (1..=1000).collect();
        let sum = par_reduce(&input, 0u64, |&x| x, |a, b| a + b);
        assert_eq!(sum, 500_500);
    }

    #[test]
    fn par_reduce_identity_on_empty() {
        let sum = par_reduce(&[] as &[u64], 7u64, |&x| x, |a, b| a + b);
        assert_eq!(sum, 7);
    }

    #[test]
    fn par_fold_sums_like_sequential() {
        let items: Vec<u64> = (0..5000).collect();
        let total = par_fold(&items, || 0u64, |acc, &x| *acc += x, |a, b| a + b);
        assert_eq!(total, 5000 * 4999 / 2);
    }

    #[test]
    fn par_fold_histogram_merges() {
        let items: Vec<u64> = (0..997).collect();
        let hist = par_fold(
            &items,
            || [0u64; 7],
            |h, &x| h[(x % 7) as usize] += 1,
            |mut a, b| {
                for (d, s) in a.iter_mut().zip(b.iter()) {
                    *d += s;
                }
                a
            },
        );
        let mut expect = [0u64; 7];
        for x in 0..997u64 {
            expect[(x % 7) as usize] += 1;
        }
        assert_eq!(hist, expect);
    }

    #[test]
    fn par_fold_empty_returns_neutral() {
        let acc = par_fold(&[] as &[u64], || 42u64, |a, &x| *a += x, |a, b| a + b);
        assert_eq!(acc, 42);
    }

    #[test]
    fn par_fold_single_item() {
        let acc = par_fold(&[5u64], || 0u64, |a, &x| *a += x, |a, b| a + b);
        assert_eq!(acc, 5);
    }

    #[test]
    fn par_for_each_visits_everything() {
        use std::sync::atomic::AtomicU64;
        let input: Vec<u64> = (0..500).collect();
        let total = AtomicU64::new(0);
        par_for_each(&input, |&x| {
            total.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 500 * 499 / 2);
    }

    #[test]
    fn parallelism_is_positive() {
        assert!(parallelism() >= 1);
    }

    #[test]
    fn chunk_size_is_sane() {
        // Never zero, never above MAX_CHUNK, sequentializes nothing.
        for len in [1usize, 2, 10, 1000, 1_000_000] {
            for workers in [1usize, 2, 8, 64] {
                let c = chunk_size(len, workers);
                assert!((1..=MAX_CHUNK).contains(&c), "len={len} workers={workers}");
            }
        }
        // Small inputs get single-item chunks for best balance…
        assert_eq!(chunk_size(64, 8), 1);
        // …large inputs amortize counter traffic…
        assert_eq!(chunk_size(10_000, 8), 10_000 / (8 * CHUNKS_PER_WORKER));
        // …and huge inputs stay bounded so late rebalancing still happens.
        assert_eq!(chunk_size(100_000_000, 4), MAX_CHUNK);
    }

    #[test]
    fn irregular_fold_matches_sequential() {
        // Sum + histogram accumulator over a mixed heavy/light list must be
        // independent of worker count and of the heavy/light boundary.
        let heavy: Vec<u64> = (0..5).map(|i| 1_000_000 + i).collect();
        let light: Vec<u64> = (0..4000).collect();
        let expect_sum: u64 = heavy.iter().chain(light.iter()).sum();
        for workers in [0usize, 1, 2, 3, 8, 32] {
            let (sum, hist) = par_fold_irregular_in(
                workers,
                &heavy,
                &light,
                || (0u64, [0u64; 5]),
                |acc, &x| {
                    acc.0 += x;
                    acc.1[(x % 5) as usize] += 1;
                },
                |mut a, b| {
                    a.0 += b.0;
                    for (d, s) in a.1.iter_mut().zip(b.1.iter()) {
                        *d += s;
                    }
                    a
                },
            );
            assert_eq!(sum, expect_sum, "workers={workers}");
            assert_eq!(hist.iter().sum::<u64>() as usize, heavy.len() + light.len());
        }
    }

    #[test]
    fn irregular_fold_empty_sections() {
        let sum = |heavy: &[u64], light: &[u64]| {
            par_fold_irregular(heavy, light, || 0u64, |a, &x| *a += x, |a, b| a + b)
        };
        assert_eq!(sum(&[], &[]), 0);
        assert_eq!(sum(&[7], &[]), 7);
        assert_eq!(sum(&[], &[1, 2, 3]), 6);
        assert_eq!(sum(&[10], &[1, 2]), 13);
    }

    #[test]
    fn irregular_claim_policy() {
        // Heavy items are claimed one at a time no matter how many exist:
        // any single heavy item may dominate, so batching them risks
        // serializing half the expensive work onto one worker.
        for heavy_len in [0usize, 1, 5, 10_000] {
            for workers in [1usize, 2, 8] {
                let (h, _) = irregular_claim_sizes(heavy_len, 100, workers);
                assert_eq!(h, 1, "heavy_len={heavy_len} workers={workers}");
            }
        }
        // The light section reuses the par_fold chunk policy: sized for
        // counter-traffic amortization, clamped to 1..=MAX_CHUNK.
        for light_len in [0usize, 1, 10, 1000, 100_000_000] {
            for workers in [1usize, 2, 8, 64] {
                let (_, l) = irregular_claim_sizes(3, light_len, workers);
                assert_eq!(l, chunk_size(light_len, workers));
                assert!((1..=MAX_CHUNK).contains(&l));
            }
        }
        // The mixed root/branch shape the table builder produces: a few
        // hundred split branches + a few thousand unsplit roots on 8
        // workers must keep per-claim batches small enough to rebalance.
        let (h, l) = irregular_claim_sizes(300, 4000, 8);
        assert_eq!(h, 1);
        assert_eq!(l, 4000 / (8 * CHUNKS_PER_WORKER));
    }

    #[test]
    fn cancelled_irregular_fold_stops_claiming() {
        // A token cancelled from inside the fold stops the remaining
        // items from ever being folded: the accumulator stays well short
        // of the full sum and the caller can tell by re-checking the
        // token.
        use std::sync::atomic::AtomicU64;
        let light: Vec<u64> = (0..100_000).collect();
        for workers in [1usize, 4] {
            let token = CancelToken::new();
            let folded = AtomicU64::new(0);
            let tok = &token;
            par_fold_irregular_cancel_in(
                workers,
                &[] as &[u64],
                &light,
                Some(tok),
                || (),
                |_, _| {
                    if folded.fetch_add(1, Ordering::Relaxed) == 10 {
                        tok.cancel();
                    }
                },
                |a, _| a,
            );
            assert!(token.is_cancelled());
            let seen = folded.load(Ordering::Relaxed);
            // Workers stop at the next claim; in-flight chunks may finish,
            // but nothing close to the full list runs.
            assert!(
                seen < light.len() as u64 / 2,
                "workers={workers}: folded {seen} items after cancel"
            );
        }
    }

    #[test]
    fn pre_cancelled_fold_returns_neutral() {
        let token = CancelToken::new();
        token.cancel();
        let heavy: Vec<u64> = (0..5).collect();
        let light: Vec<u64> = (0..500).collect();
        for workers in [1usize, 4] {
            let sum = par_fold_irregular_cancel_in(
                workers,
                &heavy,
                &light,
                Some(&token),
                || 0u64,
                |a, &x| *a += x,
                |a, b| a + b,
            );
            assert_eq!(sum, 0, "workers={workers}");
        }
    }

    #[test]
    fn live_token_does_not_change_results() {
        let token = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let heavy: Vec<u64> = (0..3).map(|i| 1000 + i).collect();
        let light: Vec<u64> = (0..777).collect();
        let expect: u64 = heavy.iter().chain(light.iter()).sum();
        for workers in [1usize, 2, 8] {
            let sum = par_fold_irregular_cancel_in(
                workers,
                &heavy,
                &light,
                Some(&token),
                || 0u64,
                |a, &x| *a += x,
                |a, b| a + b,
            );
            assert_eq!(sum, expect, "workers={workers}");
        }
    }

    #[test]
    fn skewed_work_is_balanced() {
        // One very expensive item among many cheap ones must not break
        // order preservation.
        let input: Vec<u64> = (0..64).collect();
        let out = par_map(&input, |&x| {
            if x == 0 {
                (0..200_000u64).sum::<u64>()
            } else {
                x
            }
        });
        assert_eq!(out[0], 19_999_900_000);
        assert_eq!(out[63], 63);
    }
}
