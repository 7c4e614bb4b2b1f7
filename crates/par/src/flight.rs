//! Single-flight memoisation with LRU budgets: the one cache mechanism
//! behind both of the serving stack's cache tiers (`mps::TableCache`
//! and `mps_serve`'s artifact cache).
//!
//! [`SingleFlight`] maps keys to values that are expensive to compute,
//! in the shape of Go's `golang.org/x/sync/singleflight` plus an LRU:
//!
//! - **Single flight.** The first caller to ask for a missing key
//!   *claims* it and runs its `compute`; concurrent callers on the same
//!   key block on the claim's slot and share the published value, so a
//!   burst of N identical requests computes once.
//! - **Abandonment.** A compute that returns `Err` — or panics — abandons
//!   its slot (a drop guard unmaps it, so a panic cannot leave a pending
//!   slot behind). Waiters wake and re-claim with their own compute; the
//!   error goes back to the claimant only, never to the waiters.
//! - **Bounded waits.** A waiter may pass a [`CancelToken`]: it sleeps at
//!   most until the token's deadline, re-polling the explicit stop flag
//!   every 20 ms, and gives up with the token's [`CancelKind`] once
//!   either signal fires. The claimant's own compute is expected to
//!   watch the same token.
//! - **Budgets.** Optional entry and byte caps ([`CacheBudget`]) over the
//!   *published* values, kept by least-recently-used eviction when a
//!   value is admitted. In-flight computes are never evicted, and
//!   eviction only unmaps the key: callers already holding a clone keep
//!   it. Charged bytes come from a `fn(&V) -> usize` fixed at
//!   construction and are kept as a running total.
//!
//! Values are handed out by `Clone`, so `V` is typically an `Arc` (or a
//! `Result` of one).

use crate::cancel::{CancelKind, CancelToken};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Longest a waiter with a [`CancelToken`] sleeps before it re-polls the
/// token's explicit stop flag (a deadline ends the sleep exactly).
const CANCEL_POLL: Duration = Duration::from_millis(20);

/// Optional entry/byte caps on published values (`None` = unbounded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum published values resident at once.
    pub max_entries: Option<usize>,
    /// Maximum total charged bytes resident at once.
    pub max_bytes: Option<usize>,
}

/// Why [`SingleFlight::get_or_compute`] returned no value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlightError<E> {
    /// This call claimed the key and its compute returned `Err`; the
    /// slot was abandoned and nothing was cached.
    Failed(E),
    /// The caller's token fired while it waited on another caller's
    /// compute. The call neither computed nor was served.
    Cancelled(CancelKind),
}

/// Where one claimed key stands.
enum State<V> {
    /// The claimant is computing; waiters block on the condvar.
    Pending,
    /// The value is published.
    Ready(V),
    /// The compute failed or panicked and the slot is already unmapped:
    /// waiters re-claim.
    Abandoned,
}

struct Slot<V> {
    state: Mutex<State<V>>,
    cv: Condvar,
}

impl<V: Clone> Slot<V> {
    fn new(state: State<V>) -> Arc<Slot<V>> {
        Arc::new(Slot {
            state: Mutex::new(state),
            cv: Condvar::new(),
        })
    }

    /// Block until the slot is published (`Some`) or abandoned (`None`),
    /// or until `cancel` fires.
    fn wait(&self, cancel: Option<&CancelToken>) -> Result<Option<V>, CancelKind> {
        let mut state = self.state.lock().expect("flight slot poisoned");
        loop {
            match &*state {
                State::Ready(value) => return Ok(Some(value.clone())),
                State::Abandoned => return Ok(None),
                State::Pending => {}
            }
            state = match cancel {
                None => self.cv.wait(state).expect("flight slot poisoned"),
                Some(token) => {
                    if let Some(kind) = token.cancel_kind() {
                        return Err(kind);
                    }
                    let nap = token
                        .remaining()
                        .map_or(CANCEL_POLL, |d| d.min(CANCEL_POLL));
                    self.cv
                        .wait_timeout(state, nap)
                        .expect("flight slot poisoned")
                        .0
                }
            };
        }
    }

    fn settle(&self, state: State<V>) {
        *self.state.lock().expect("flight slot poisoned") = state;
        self.cv.notify_all();
    }
}

/// LRU order and charged bytes of the published values.
struct Lru<K> {
    /// Stamp → key, least recently used first.
    order: BTreeMap<u64, K>,
    /// Key → (stamp, charged bytes).
    entries: HashMap<K, (u64, usize)>,
    clock: u64,
    bytes: usize,
}

impl<K: Hash + Eq + Copy> Lru<K> {
    /// Account a key that is not resident yet: claims and seeds publish
    /// only into a vacant slot, and eviction unmaps what it unaccounts.
    fn insert(&mut self, key: K, bytes: usize) {
        self.clock += 1;
        self.order.insert(self.clock, key);
        self.entries.insert(key, (self.clock, bytes));
        self.bytes += bytes;
    }

    fn touch(&mut self, key: K) {
        if let Some((stamp, _)) = self.entries.get_mut(&key) {
            self.order.remove(stamp);
            self.clock += 1;
            *stamp = self.clock;
            self.order.insert(self.clock, key);
        }
    }

    fn over(&self, budget: &CacheBudget) -> bool {
        budget
            .max_entries
            .is_some_and(|max| self.entries.len() > max)
            || budget.max_bytes.is_some_and(|max| self.bytes > max)
    }

    fn pop_oldest(&mut self) -> Option<K> {
        let (_, key) = self.order.pop_first()?;
        let (_, bytes) = self.entries.remove(&key).expect("order and entries agree");
        self.bytes -= bytes;
        Some(key)
    }
}

/// A sharded, single-flight map from `K` to `V` with hit/miss/eviction
/// counters and optional LRU budgets. See the module docs.
pub struct SingleFlight<K, V> {
    shards: Vec<Mutex<HashMap<K, Arc<Slot<V>>>>>,
    /// Published values only. Lock order: `lru` may take a shard lock
    /// (eviction); never the reverse.
    lru: Mutex<Lru<K>>,
    budget: CacheBudget,
    charge: fn(&V) -> usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Abandons a claimed slot unless forgotten — the path a panicking
/// compute takes, which would otherwise leave its waiters blocked
/// forever.
struct AbandonOnDrop<'a, K: Hash + Eq + Copy, V: Clone> {
    flight: &'a SingleFlight<K, V>,
    key: K,
    slot: &'a Arc<Slot<V>>,
}

impl<K: Hash + Eq + Copy, V: Clone> Drop for AbandonOnDrop<'_, K, V> {
    fn drop(&mut self) {
        // Also runs while a compute unwinds, where a second panic would
        // abort: take the locks even if poisoned. Unmap first, so woken
        // waiters re-claim a fresh slot rather than find this one again.
        let mut shard = self
            .flight
            .shard(&self.key)
            .unwrap_or_else(PoisonError::into_inner);
        if shard
            .get(&self.key)
            .is_some_and(|s| Arc::ptr_eq(s, self.slot))
        {
            shard.remove(&self.key);
        }
        drop(shard);
        *self
            .slot
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = State::Abandoned;
        self.slot.cv.notify_all();
    }
}

impl<K: Hash + Eq + Copy, V: Clone> SingleFlight<K, V> {
    /// An empty map with `shards` independent lock domains (clamped
    /// ≥ 1), the given budgets, and `charge` pricing each published
    /// value in bytes.
    pub fn new(shards: usize, budget: CacheBudget, charge: fn(&V) -> usize) -> SingleFlight<K, V> {
        SingleFlight {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            lru: Mutex::new(Lru {
                order: BTreeMap::new(),
                entries: HashMap::new(),
                clock: 0,
                bytes: 0,
            }),
            budget,
            charge,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Lock the shard that owns `key`.
    fn shard(&self, key: &K) -> LockResult<MutexGuard<'_, HashMap<K, Arc<Slot<V>>>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        self.shards[(h.finish() % self.shards.len() as u64) as usize].lock()
    }

    /// Fetch the value for `key`, running `compute` if no published or
    /// in-flight value exists. Returns the value and whether it was a hit
    /// (`true` = this call did not run `compute`; a hit may still have
    /// waited on another caller's compute).
    ///
    /// `compute` runs at most once, and only in a call that claimed the
    /// key. Its `Err` abandons the slot and comes back as
    /// [`FlightError::Failed`]; waiters on the slot then re-claim.
    /// `cancel` bounds only the *wait* on someone else's compute
    /// ([`FlightError::Cancelled`], counted neither hit nor miss).
    pub fn get_or_compute<E>(
        &self,
        key: K,
        cancel: Option<&CancelToken>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), FlightError<E>> {
        // A waiter loops back to claim after an abandonment; the take()
        // proves the claiming pass, which always returns, is the only
        // one to run `compute`.
        let mut compute = Some(compute);
        loop {
            let (slot, claimed) = match self.shard(&key).expect("flight shard poisoned").entry(key)
            {
                Entry::Occupied(e) => (Arc::clone(e.get()), false),
                Entry::Vacant(e) => (Arc::clone(e.insert(Slot::new(State::Pending))), true),
            };
            if !claimed {
                match slot.wait(cancel) {
                    Ok(Some(value)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.lru.lock().expect("flight lru poisoned").touch(key);
                        return Ok((value, true));
                    }
                    Ok(None) => continue,
                    Err(kind) => return Err(FlightError::Cancelled(kind)),
                }
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            let guard = AbandonOnDrop {
                flight: self,
                key,
                slot: &slot,
            };
            let value = (compute.take().expect("claim happens at most once"))()
                .map_err(FlightError::Failed)?;
            std::mem::forget(guard);
            slot.settle(State::Ready(value.clone()));
            self.admit(key, &value);
            return Ok((value, false));
        }
    }

    /// Insert an already-computed value (a warm start). An existing slot,
    /// published *or* in flight, wins and the seed is dropped, so seeding
    /// never clobbers live state; an inserted seed is admitted under the
    /// same budgets as a computed value. Returns `true` if it was
    /// inserted. Counts neither a hit nor a miss.
    pub fn seed(&self, key: K, value: V) -> bool {
        match self.shard(&key).expect("flight shard poisoned").entry(key) {
            Entry::Occupied(_) => return false,
            Entry::Vacant(e) => {
                e.insert(Slot::new(State::Ready(value.clone())));
            }
        }
        self.admit(key, &value);
        true
    }

    /// The published value for `key`, if one is resident. Never blocks
    /// on an in-flight compute, never refreshes the LRU order, and counts
    /// neither a hit nor a miss.
    pub fn peek(&self, key: K) -> Option<V> {
        let slot = Arc::clone(self.shard(&key).expect("flight shard poisoned").get(&key)?);
        let state = slot.state.lock().expect("flight slot poisoned");
        match &*state {
            State::Ready(value) => Some(value.clone()),
            _ => None,
        }
    }

    /// Account a freshly published value and evict least-recently-used
    /// values until the budgets hold. The new value is the most recent,
    /// so it goes last — but one larger than the whole byte budget does
    /// evict itself.
    fn admit(&self, key: K, value: &V) {
        let mut lru = self.lru.lock().expect("flight lru poisoned");
        lru.insert(key, (self.charge)(value));
        while lru.over(&self.budget) {
            let victim = lru
                .pop_oldest()
                .expect("over budget implies a resident value");
            self.shard(&victim)
                .expect("flight shard poisoned")
                .remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Calls answered without running their compute (including waits on
    /// in-flight computes).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Calls that ran their compute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Published values pushed out by the budgets since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Keys currently mapped, in-flight computes included.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("flight shard poisoned").len())
            .sum()
    }

    /// `true` when no key is mapped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total charged bytes of the published values currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.lru.lock().expect("flight lru poisoned").bytes
    }
}

impl<K: Hash + Eq + Copy, V: Clone> fmt::Debug for SingleFlight<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SingleFlight")
            .field("len", &self.len())
            .field("resident_bytes", &self.resident_bytes())
            .field("budget", &self.budget)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier};

    /// Values charge their own magnitude, so byte budgets are easy to
    /// reason about.
    fn flight(budget: CacheBudget) -> SingleFlight<u32, usize> {
        SingleFlight::new(4, budget, |v| *v)
    }

    fn ok(v: usize) -> impl FnOnce() -> Result<usize, ()> {
        move || Ok(v)
    }

    #[test]
    fn racing_claims_compute_once() {
        let cache = flight(CacheBudget::default());
        let computes = AtomicU64::new(0);
        let outcomes = crate::par_map_in(4, &[(); 8], |_| {
            let compute = || -> Result<usize, ()> {
                computes.fetch_add(1, Ordering::SeqCst);
                std::thread::yield_now();
                Ok(42)
            };
            cache.get_or_compute(5, None, compute).unwrap()
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight");
        assert_eq!(outcomes.iter().filter(|(_, hit)| !hit).count(), 1);
        assert!(outcomes.iter().all(|(v, _)| *v == 42));
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (1, 7, 1));
    }

    #[test]
    fn panicked_compute_abandons_and_waiters_recover() {
        let cache = flight(CacheBudget::default());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute(7, None, || -> Result<usize, ()> { panic!("chaos") })
        }));
        assert!(panicked.is_err());
        assert_eq!(cache.len(), 0, "a panicked compute must clear its slot");

        // Concurrent shape, for both ways a compute can die: the claimer
        // fails while a waiter blocks, and the waiter must wake,
        // re-claim and compute for real rather than inherit the failure.
        for panics in [false, true] {
            let cache = flight(CacheBudget::default());
            let barrier = Barrier::new(2);
            std::thread::scope(|s| {
                let claimer = s.spawn(|| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cache.get_or_compute(7, None, || {
                            barrier.wait();
                            std::thread::sleep(Duration::from_millis(30));
                            if panics {
                                panic!("chaos mid-flight");
                            }
                            Err("failed")
                        })
                    }))
                });
                barrier.wait();
                assert_eq!(cache.get_or_compute(7, None, ok(3)), Ok((3, false)));
                match claimer.join().unwrap() {
                    Err(_) => assert!(panics),
                    Ok(r) => assert_eq!(r, Err(FlightError::Failed("failed"))),
                }
            });
            assert_eq!((cache.len(), cache.peek(7)), (1, Some(3)));
        }
    }

    #[test]
    fn waiter_deadline_and_cancel_flag_end_the_wait() {
        let cache = flight(CacheBudget::default());
        let barrier = Barrier::new(2);
        let (release, held) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let (cache, barrier) = (&cache, &barrier);
            let claimer = s.spawn(move || {
                cache.get_or_compute(3, None, || {
                    barrier.wait();
                    held.recv().unwrap();
                    Ok::<_, ()>(9)
                })
            });
            barrier.wait();
            // The slot stays pending until `release` fires, so both waits
            // below can only end through their own tokens.
            let token = CancelToken::with_deadline(Duration::from_millis(5));
            assert_eq!(
                cache.get_or_compute(3, Some(&token), ok(0)),
                Err(FlightError::Cancelled(CancelKind::DeadlineExceeded))
            );
            let token = CancelToken::new();
            let canceller = {
                let token = token.clone();
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(10));
                    token.cancel();
                })
            };
            assert_eq!(
                cache.get_or_compute(3, Some(&token), ok(0)),
                Err(FlightError::Cancelled(CancelKind::Cancelled))
            );
            canceller.join().unwrap();
            release.send(()).unwrap();
            assert_eq!(claimer.join().unwrap(), Ok((9, false)));
        });
        // The abandoned waits counted neither hit nor miss; the slot
        // published normally behind them.
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        assert_eq!(cache.get_or_compute(3, None, || Err(())), Ok((9, true)));
    }

    #[test]
    fn entry_budget_evicts_least_recently_used() {
        let cache = flight(CacheBudget {
            max_entries: Some(2),
            max_bytes: None,
        });
        cache.get_or_compute(1, None, ok(10)).unwrap();
        cache.get_or_compute(2, None, ok(20)).unwrap();
        // A hit refreshes 1, so 2 becomes the victim; a peek would not.
        assert_eq!(cache.get_or_compute(1, None, || Err(())), Ok((10, true)));
        assert_eq!(cache.peek(2), Some(20));
        cache.get_or_compute(3, None, ok(30)).unwrap();
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        assert_eq!((cache.peek(1), cache.peek(2)), (Some(10), None));
        // Recomputing the victim evicts again: the budget always holds.
        assert_eq!(cache.get_or_compute(2, None, ok(21)), Ok((21, false)));
        assert_eq!((cache.len(), cache.evictions()), (2, 2));
        assert_eq!(cache.peek(1), None, "1 was least recently used by now");
    }

    #[test]
    fn byte_budget_bounds_resident_bytes() {
        let cache = flight(CacheBudget {
            max_entries: None,
            max_bytes: Some(15),
        });
        cache.get_or_compute(1, None, ok(10)).unwrap();
        assert_eq!(cache.resident_bytes(), 10);
        cache.get_or_compute(2, None, ok(4)).unwrap();
        assert_eq!((cache.resident_bytes(), cache.evictions()), (14, 0));
        cache.get_or_compute(3, None, ok(5)).unwrap();
        assert_eq!(
            (cache.len(), cache.resident_bytes(), cache.evictions()),
            (2, 9, 1)
        );
        // A value larger than the whole budget evicts everything,
        // itself included, and the caller still gets it.
        assert_eq!(cache.get_or_compute(4, None, ok(16)), Ok((16, false)));
        assert_eq!(
            (cache.len(), cache.resident_bytes(), cache.evictions()),
            (0, 0, 4)
        );
    }

    #[test]
    fn seed_never_clobbers_a_live_slot() {
        let cache = flight(CacheBudget {
            max_entries: Some(2),
            max_bytes: None,
        });
        assert!(cache.seed(1, 10));
        assert_eq!(cache.get_or_compute(1, None, || Err(())), Ok((10, true)));
        assert!(!cache.seed(1, 11), "a published value wins");
        assert_eq!(cache.peek(1), Some(10));
        // An in-flight compute wins too, and publishes its own value.
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let claimer = s.spawn(|| {
                cache.get_or_compute(2, None, || {
                    barrier.wait();
                    barrier.wait();
                    Ok::<_, ()>(20)
                })
            });
            barrier.wait();
            assert!(!cache.seed(2, 21), "an in-flight compute wins");
            barrier.wait();
            assert_eq!(claimer.join().unwrap(), Ok((20, false)));
        });
        assert_eq!(cache.peek(2), Some(20));
        // Seeds are budget-admitted like computed values.
        assert!(cache.seed(3, 30));
        assert_eq!(
            (cache.len(), cache.evictions(), cache.peek(1)),
            (2, 1, None)
        );
        // Seeding counted no requests.
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }
}
