//! Model-based property test: random sequences of `SingleFlight`
//! operations under random budgets behave exactly like a sequential
//! `BTreeMap` plus an LRU order.
//!
//! Run single-threaded, no compute is ever in flight between
//! operations, so the model needs no pending state: a call on a
//! resident key is a hit that refreshes it, any other call claims and
//! computes, and a failed or panicking compute leaves nothing behind.

use mps_par::{CacheBudget, FlightError, SingleFlight};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The payload the injected panics carry, so the panic hook can keep
/// them quiet without hiding a real failure.
const INJECTED: &str = "injected compute panic";

#[derive(Clone, Copy, Debug)]
enum Op {
    /// `get_or_compute` whose compute returns `Ok(value)`.
    Ok(u8, usize),
    /// `get_or_compute` whose compute returns `Err`.
    Err(u8),
    /// `get_or_compute` whose compute panics.
    Panic(u8),
    Seed(u8, usize),
    Peek(u8),
}

fn op(raw: (u8, u8, usize)) -> Op {
    let (kind, key, value) = raw;
    match kind {
        0..=3 => Op::Ok(key, value),
        4 => Op::Err(key),
        5 => Op::Panic(key),
        6 => Op::Seed(key, value),
        _ => Op::Peek(key),
    }
}

/// The sequential reference: key → (value, LRU stamp).
#[derive(Default)]
struct Model {
    resident: BTreeMap<u8, (usize, u64)>,
    clock: u64,
    evictions: u64,
    hits: u64,
    misses: u64,
}

impl Model {
    fn bytes(&self) -> usize {
        self.resident.values().map(|(v, _)| v).sum()
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// A hit on a resident key: its value, with its stamp refreshed.
    fn hit(&mut self, key: u8) -> Option<usize> {
        let stamp = self.tick();
        let (value, old) = self.resident.get_mut(&key)?;
        *old = stamp;
        self.hits += 1;
        Some(*value)
    }

    fn admit(&mut self, key: u8, value: usize, budget: CacheBudget) {
        let stamp = self.tick();
        self.resident.insert(key, (value, stamp));
        while budget.max_entries.is_some_and(|m| self.resident.len() > m)
            || budget.max_bytes.is_some_and(|m| self.bytes() > m)
        {
            let oldest = *self
                .resident
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .expect("over budget implies a resident key")
                .0;
            self.resident.remove(&oldest);
            self.evictions += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn single_flight_matches_a_sequential_lru_model(
        shards in 1usize..4,
        max_entries in proptest::option::of(1usize..6),
        max_bytes in proptest::option::of(0usize..40),
        raw_ops in proptest::collection::vec((0u8..8, 0u8..8, 0usize..12), 1..80),
    ) {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&INJECTED) {
                default_hook(info);
            }
        }));
        let budget = CacheBudget { max_entries, max_bytes };
        let cache: SingleFlight<u8, usize> = SingleFlight::new(shards, budget, |v| *v);
        let mut model = Model::default();
        for op in raw_ops.into_iter().map(op) {
            match op {
                Op::Ok(key, value) => {
                    let got = cache.get_or_compute(key, None, || Ok::<_, ()>(value));
                    let want = match model.hit(key) {
                        Some(cached) => (cached, true),
                        None => {
                            model.misses += 1;
                            model.admit(key, value, budget);
                            (value, false)
                        }
                    };
                    prop_assert_eq!(got, Ok(want), "{:?}", op);
                }
                Op::Err(key) => {
                    let got = cache.get_or_compute(key, None, || Err(key));
                    let want = match model.hit(key) {
                        Some(cached) => Ok((cached, true)),
                        None => {
                            model.misses += 1;
                            Err(FlightError::Failed(key))
                        }
                    };
                    prop_assert_eq!(got, want, "{:?}", op);
                }
                Op::Panic(key) => {
                    let got = catch_unwind(AssertUnwindSafe(|| {
                        cache.get_or_compute(key, None, || -> Result<usize, ()> {
                            std::panic::panic_any(INJECTED)
                        })
                    }));
                    match model.hit(key) {
                        Some(cached) => prop_assert_eq!(got.ok(), Some(Ok((cached, true)))),
                        None => {
                            model.misses += 1;
                            prop_assert!(got.is_err(), "{:?} must have panicked", op);
                        }
                    }
                }
                Op::Seed(key, value) => {
                    let inserted = !model.resident.contains_key(&key);
                    if inserted {
                        model.admit(key, value, budget);
                    }
                    prop_assert_eq!(cache.seed(key, value), inserted, "{:?}", op);
                }
                Op::Peek(key) => {
                    let want = model.resident.get(&key).map(|(v, _)| *v);
                    prop_assert_eq!(cache.peek(key), want, "{:?}", op);
                }
            }
            // The resident set, values, byte total and counters agree
            // with the model after every operation; in particular a key
            // whose compute failed or panicked is never resident.
            for key in 0..8 {
                let want = model.resident.get(&key).map(|(v, _)| *v);
                prop_assert_eq!(cache.peek(key), want, "key {} after {:?}", key, op);
            }
            prop_assert_eq!(cache.len(), model.resident.len());
            prop_assert_eq!(cache.resident_bytes(), model.bytes());
            prop_assert_eq!(cache.evictions(), model.evictions);
            prop_assert_eq!((cache.hits(), cache.misses()), (model.hits, model.misses));
            prop_assert!(max_entries.is_none_or(|m| cache.len() <= m));
            prop_assert!(max_bytes.is_none_or(|m| cache.resident_bytes() <= m));
        }
        let _ = std::panic::take_hook();
    }
}
