//! The artifact cache: whole compile results keyed by
//! `(graph content hash, config content hash)`.
//!
//! This is the serving layer's second cache tier, above the process-wide
//! [`mps::TableCache`]: the table cache deduplicates the expensive
//! *enumeration* across configs that share a table, this one
//! deduplicates *whole compiles* of identical requests — a hot request
//! costs one hash lookup. Both tiers are instances of one mechanism,
//! [`mps::par::SingleFlight`]: keys shard across independent locks,
//! population is single-flight (N racing identical requests run one
//! compile and the whole burst records one `table_builds`), a compute
//! that panics abandons its slot so waiters re-claim, and optional
//! [`CacheBudget`]s evict least-recently-used published outcomes.
//!
//! Failed compiles are cached too: the pipeline is deterministic, so an
//! input that failed once fails identically forever, and re-running it
//! per request would make error-storms expensive. The exception is
//! *transient* outcomes ([`mps::MpsError::is_transient`]) — a compile
//! that died on one request's deadline says nothing about the next
//! request, so those abandon the slot instead of publishing, and any
//! waiters re-claim with their own budgets.

use mps::par::{FlightError, SingleFlight};
use mps::{CancelToken, CompileResult, MpsError};
use std::sync::Arc;

pub use mps::par::CacheBudget;

/// What one compile produced (results are shared, errors cloned).
pub type Outcome = Result<Arc<CompileResult>, MpsError>;

/// Cache key: graph content hash × config content hash.
pub type Key = (u64, u64);

/// Charged bytes for a cached error outcome: small, but non-zero so an
/// error-storm still pushes real results out of a byte-bounded cache
/// rather than accumulating rent-free.
const ERR_OUTCOME_BYTES: usize = 256;

/// The caller's deadline passed while an identical compile was in
/// flight on another request. Distinct from
/// [`mps::MpsError::DeadlineExceeded`] because no pipeline stage of
/// *this* request observed the expiry — it never ran one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimedOut;

/// A sharded, single-flight map from [`Key`] to compile [`Outcome`],
/// with hit/miss/eviction counters and optional budgets (charged in
/// [`mps::approx_result_bytes`] units).
#[derive(Debug)]
pub struct ArtifactCache(SingleFlight<Key, Outcome>);

impl ArtifactCache {
    /// An unbounded cache with `shards` independent lock domains
    /// (clamped ≥ 1).
    pub fn new(shards: usize) -> ArtifactCache {
        ArtifactCache::with_budget(shards, CacheBudget::default())
    }

    /// A cache with `shards` lock domains and the given caps.
    pub fn with_budget(shards: usize, budget: CacheBudget) -> ArtifactCache {
        ArtifactCache(SingleFlight::new(shards, budget, approx_outcome_bytes))
    }

    /// Fetch the outcome for `key`, running `compute` if no published or
    /// in-flight outcome exists. Returns the outcome and whether it was
    /// a cache hit (`true` = this call did not run `compute`; a hit may
    /// still block briefly on another request's in-flight compute).
    ///
    /// `cancel` is the request's token and bounds only the *wait* on
    /// someone else's compute — a call that claims the slot runs
    /// `compute` to completion (the compute itself is expected to watch
    /// the same token). `Err(WaitTimedOut)` counts neither a hit nor a
    /// miss: the call neither computed nor was served.
    pub fn get_or_compute(
        &self,
        key: Key,
        cancel: Option<&CancelToken>,
        compute: impl FnOnce() -> Outcome,
    ) -> Result<(Outcome, bool), WaitTimedOut> {
        // Transient outcomes reflect this request's budget, not the
        // program: failing the flight abandons the slot so the next
        // request recomputes. Every other outcome, errors included, is
        // published.
        let fetched = self.0.get_or_compute(key, cancel, || match compute() {
            Err(e) if e.is_transient() => Err(e),
            outcome => Ok(outcome),
        });
        match fetched {
            Ok(pair) => Ok(pair),
            Err(FlightError::Failed(e)) => Ok((Err(e), false)),
            Err(FlightError::Cancelled(_)) => Err(WaitTimedOut),
        }
    }

    /// Insert an already-computed outcome — the boot-time warm-start
    /// path, fed from [`mps::artifact::ArtifactStore::load_results`], and
    /// the landing point of a peer's `artifact_put`. An existing slot
    /// (published *or* in-flight) wins and the seed is dropped, so
    /// seeding can never clobber live serving state; an inserted seed is
    /// admitted through the same budget/LRU discipline as a computed
    /// outcome. Returns `true` if the outcome was inserted. Counts
    /// neither a hit nor a miss: no request was served.
    pub fn seed(&self, key: Key, outcome: Outcome) -> bool {
        self.0.seed(key, outcome)
    }

    /// Non-blocking peek: the published *successful* result for `key`,
    /// if one is resident. In-flight computes, cached errors and absent
    /// keys all answer `None`; the LRU stamp is not refreshed (peeks are
    /// bookkeeping — peer handoff, `artifact_get` — not serving traffic).
    pub fn peek(&self, key: Key) -> Option<Arc<CompileResult>> {
        self.0.peek(key)?.ok()
    }

    /// Requests answered from the cache (including waits on in-flight
    /// computes).
    pub fn hits(&self) -> u64 {
        self.0.hits()
    }

    /// Requests that ran the compute.
    pub fn misses(&self) -> u64 {
        self.0.misses()
    }

    /// Published outcomes pushed out by the budget since startup.
    pub fn evictions(&self) -> u64 {
        self.0.evictions()
    }

    /// Distinct artifacts (including in-flight ones) currently held.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Charged bytes of one outcome: the shared result's estimated
/// footprint, or a small flat tariff for a cached error.
fn approx_outcome_bytes(outcome: &Outcome) -> usize {
    match outcome {
        Ok(result) => mps::approx_result_bytes(result),
        Err(_) => ERR_OUTCOME_BYTES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps::Session;
    use std::time::Duration;

    fn compile_fig4() -> Outcome {
        Session::new(mps::workloads::fig4()).compile().map(Arc::new)
    }

    #[test]
    fn second_request_hits() {
        let cache = ArtifactCache::new(4);
        let (a, hit_a) = cache.get_or_compute((1, 2), None, compile_fig4).unwrap();
        let (b, hit_b) = cache
            .get_or_compute((1, 2), None, || panic!("must not recompute"))
            .unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(a.as_ref().unwrap(), b.as_ref().unwrap()));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        // A different key computes independently.
        let (_, hit_c) = cache.get_or_compute((1, 3), None, compile_fig4).unwrap();
        assert!(!hit_c);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn errors_are_cached_outcomes_too() {
        let cache = ArtifactCache::new(1);
        let fail = || Err(MpsError::from(mps::scheduler::ScheduleError::NoPatterns));
        let (a, _) = cache.get_or_compute((9, 9), None, fail).unwrap();
        let (b, hit) = cache
            .get_or_compute((9, 9), None, || panic!("must not recompute"))
            .unwrap();
        assert!(a.is_err() && b.is_err() && hit);
    }

    #[test]
    fn transient_outcomes_are_not_cached() {
        let cache = ArtifactCache::new(2);
        let transient = || {
            Err(MpsError::DeadlineExceeded {
                stage: mps::Stage::Enumerate,
            })
        };
        let (a, hit_a) = cache.get_or_compute((4, 4), None, transient).unwrap();
        assert!(a.is_err() && !hit_a);
        assert_eq!(cache.len(), 0, "transient outcomes must not be cached");
        // The next request with a fresh budget recomputes — and its
        // success is cached normally.
        let (b, hit_b) = cache.get_or_compute((4, 4), None, compile_fig4).unwrap();
        assert!(b.is_ok() && !hit_b);
        assert_eq!((cache.misses(), cache.len()), (2, 1));
    }

    #[test]
    fn panicked_compute_abandons_and_waiters_recover() {
        let cache = Arc::new(ArtifactCache::new(2));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_compute((7, 7), None, || panic!("chaos"));
        }));
        assert!(panicked.is_err());
        assert_eq!(cache.len(), 0, "panicked compute must clear its slot");

        // Concurrent shape: a claimer panics while a waiter blocks; the
        // waiter must wake, re-claim, and compute for real.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let claimer = {
                let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
                s.spawn(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _ = cache.get_or_compute((7, 7), None, || {
                            barrier.wait();
                            std::thread::sleep(Duration::from_millis(30));
                            panic!("chaos mid-flight")
                        });
                    }));
                    assert!(result.is_err());
                })
            };
            barrier.wait();
            let (outcome, hit) = cache.get_or_compute((7, 7), None, compile_fig4).unwrap();
            assert!(outcome.is_ok());
            assert!(!hit, "the waiter re-claims after the abandonment");
            claimer.join().unwrap();
        });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn waiter_deadline_times_out() {
        let cache = Arc::new(ArtifactCache::new(2));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let claimer = {
                let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
                s.spawn(move || {
                    cache
                        .get_or_compute((3, 3), None, || {
                            barrier.wait();
                            std::thread::sleep(Duration::from_millis(60));
                            compile_fig4()
                        })
                        .unwrap()
                })
            };
            barrier.wait();
            let token = CancelToken::with_deadline(Duration::from_millis(5));
            let timed_out = cache.get_or_compute((3, 3), Some(&token), || {
                panic!("the slot is claimed; the waiter must not compute")
            });
            assert!(matches!(timed_out, Err(WaitTimedOut)));
            let (outcome, _) = claimer.join().unwrap();
            assert!(outcome.is_ok());
        });
        // The timed-out wait counted neither hit nor miss; the slot
        // published normally behind it.
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        let (_, hit) = cache
            .get_or_compute((3, 3), None, || panic!("published — must not recompute"))
            .unwrap();
        assert!(hit);
    }
}
