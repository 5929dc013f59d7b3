//! Content-addressed response cache with single-flight deduplication.
//!
//! The determinism contract makes every queued response a pure function
//! of its canonical job body, so a repeated deck is a hash lookup, not
//! a Newton solve. This module provides the two mechanisms a
//! connection thread composes when it classifies a request:
//!
//! - **Sharded LRU over response bytes.** Sixteen lock-striped shards,
//!   each an LRU keyed by the canonical job key
//!   ([`carbon_json::Json::canonical_key`] of the request's `job`
//!   field). The cached value is the exact response byte frame *minus*
//!   the `{"id":<id>` prefix, so serving a hit is a memcpy plus an id
//!   splice — byte-identical to a fresh solve by construction. The
//!   stored bytes are one shared [`Suffix`]: the entry, the flight and
//!   every hit or waiter hold the same allocation, and the only copy a
//!   hit makes is its splice into the response, outside the lock. The
//!   byte budget is divided evenly across shards; inserting past a
//!   shard's budget evicts least-recently-touched entries first, in a
//!   deterministic order under single-thread replay. A response over
//!   64 KiB is served but never stored.
//!
//! - **Single-flight.** The first request to miss on a key becomes the
//!   *leader* and is queued for a worker to solve; concurrent requests
//!   with the same key get a [`Lookup::Wait`] handle and block their
//!   own connection thread on the leader's [`Flight`] instead of
//!   re-solving. A thundering herd of one fig7 campaign
//!   costs one solve. If the leader fails (error, timeout, panic), its
//!   [`FlightGuard`] publishes the failure and waiters retry the
//!   lookup — the next one in becomes the new leader, so a transient
//!   failure never wedges a key.
//!
//! Both structures for a key live under *one* per-shard mutex, so the
//! hit / lead / wait classification and the leader's completion are
//! each atomic with respect to the shard: there is no window in which
//! two requests can both elect themselves leader for a key, and no
//! window in which a waiter can register on a flight that has already
//! published.
//!
//! The cache never stores non-`ok` responses: errors and timeouts are
//! either load-dependent or carry messages describing a failure worth
//! re-attempting, and `busy` never reaches a worker at all.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Number of lock-striped shards. A power of two so the shard index is
/// a mask of the (well-mixed) FNV key.
const SHARDS: usize = 16;

/// Fixed per-entry overhead charged against the byte budget on top of
/// the suffix length, approximating the map/LRU bookkeeping so many
/// tiny entries cannot blow the budget by orders of magnitude.
const ENTRY_OVERHEAD: u64 = 64;

/// Largest entry the cache stores, overhead included. A bigger response
/// is still published to its waiters but not kept: stored, a stream of
/// distinct large responses (a 256-cell econ campaign renders ≈118 KB)
/// would fill the whole budget with bodies that are never asked for
/// again. Every circuit response of the benchmark workloads fits
/// (the largest seen is ≈51 KB).
const MAX_ENTRY_BYTES: u64 = 64 * 1024;

/// The bytes of an `ok` response after its `{"id":<id>` prefix,
/// shared between the cache entry, the leader's flight and every
/// request it answers.
pub type Suffix = Arc<Vec<u8>>;

/// One cached response: its suffix, plus the entry's position in the
/// shard's LRU order.
struct Entry {
    suffix: Suffix,
    tick: u64,
}

/// A shard: LRU entries and in-flight leaders for one sixteenth of the
/// key space, all under one mutex.
struct Shard {
    entries: HashMap<u64, Entry>,
    /// Recency order: logical tick -> key. The smallest tick is the
    /// least-recently-touched entry, i.e. the next eviction victim.
    lru: BTreeMap<u64, u64>,
    /// Keys currently being solved by a leader.
    flights: HashMap<u64, Arc<Flight>>,
    /// Bytes currently charged to this shard (suffixes + overhead).
    bytes: u64,
    /// Monotonic logical clock for LRU ordering; advanced on every
    /// touch and insert, never by wall time, so replay is exact.
    tick: u64,
}

impl Shard {
    fn new() -> Self {
        Self {
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            flights: HashMap::new(),
            bytes: 0,
            tick: 0,
        }
    }
}

/// Rendezvous between a single-flight leader and its waiters.
///
/// State is `None` while the leader is solving, `Some(Some(suffix))`
/// once it published a cacheable `ok` response, and `Some(None)` if it
/// failed (error, timeout, or panic via the guard's `Drop`).
pub struct Flight {
    state: Mutex<Option<Option<Suffix>>>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self {
            state: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, outcome: Option<Suffix>) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *state = Some(outcome);
        self.ready.notify_all();
    }

    /// Blocks until the leader publishes, or until `deadline` (the
    /// waiter's own request deadline) passes.
    pub fn wait(&self, deadline: Option<Instant>) -> WaitOutcome {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(outcome) = state.as_ref() {
                return match outcome {
                    Some(suffix) => WaitOutcome::Ready(Arc::clone(suffix)),
                    None => WaitOutcome::LeaderFailed,
                };
            }
            match deadline {
                None => {
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return WaitOutcome::TimedOut;
                    }
                    let (guard, _timeout) = self
                        .ready
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    state = guard;
                }
            }
        }
    }
}

/// What a waiter observed when its leader's flight resolved.
pub enum WaitOutcome {
    /// The leader produced an `ok` response; these are its bytes after
    /// the id prefix, ready to splice.
    Ready(Suffix),
    /// The leader failed; retry the lookup (the retrier may become the
    /// new leader).
    LeaderFailed,
    /// The waiter's own deadline expired before the leader finished.
    TimedOut,
}

/// Result of a cache lookup for one request.
pub enum Lookup {
    /// Cached: the response bytes after the id prefix.
    Hit(Suffix),
    /// This request leads the key: solve it, then resolve the guard
    /// with [`FlightGuard::complete_ok`] or [`FlightGuard::fail`].
    Lead(FlightGuard),
    /// Another request's solve of this key is in flight; block on it.
    Wait(Arc<Flight>),
}

/// What happened to the byte budget when a leader published.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Whether the suffix was stored (false when it alone exceeds a
    /// shard's budget or the per-entry cap — waiters are still served
    /// from the flight).
    pub inserted: bool,
    /// Bytes evicted (suffixes + overhead) to make room.
    pub evicted_bytes: u64,
    /// Bytes resident across all shards once this completion settled,
    /// as [`ResponseCache::bytes`] reports them.
    pub resident_bytes: u64,
}

/// Leadership over one in-flight key. Dropping the guard without
/// completing it publishes failure — a panicking worker can never
/// leave waiters blocked forever.
pub struct FlightGuard {
    cache: Arc<ResponseCache>,
    key: u64,
    flight: Arc<Flight>,
    armed: bool,
}

impl FlightGuard {
    /// Publishes an `ok` response's suffix to waiters and stores it in
    /// the LRU (evicting as needed). The bytes are moved, not copied.
    pub fn complete_ok(mut self, suffix: Vec<u8>) -> InsertOutcome {
        self.armed = false;
        self.cache
            .complete(self.key, &self.flight, Some(Arc::new(suffix)))
    }

    /// Publishes failure: waiters retry the lookup, nothing is cached.
    pub fn fail(mut self) {
        self.armed = false;
        self.cache.complete(self.key, &self.flight, None);
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        if self.armed {
            self.cache.complete(self.key, &self.flight, None);
        }
    }
}

/// The sharded LRU response cache. Construct with [`ResponseCache::new`]
/// and share via `Arc` across the connection threads.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total budget / shard count).
    shard_budget: u64,
    /// Live total across shards, for the `serve.cache.bytes` gauge.
    total_bytes: std::sync::atomic::AtomicU64,
}

impl ResponseCache {
    /// A cache with `byte_budget` total capacity, split evenly across
    /// the shards. `byte_budget` must be positive — a disabled cache is
    /// represented by *not constructing one* (`cache_bytes: 0` in the
    /// server config), not by a zero-capacity instance.
    pub fn new(byte_budget: u64) -> Arc<Self> {
        assert!(byte_budget > 0, "a zero-budget cache should not exist");
        Arc::new(Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: (byte_budget / SHARDS as u64).max(ENTRY_OVERHEAD + 1),
            total_bytes: std::sync::atomic::AtomicU64::new(0),
        })
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // FNV output is well mixed in the low bits; mask selects the stripe.
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Classifies one request: served from cache, leader, or waiter.
    /// Hits refresh the entry's LRU position.
    pub fn begin(self: &Arc<Self>, key: u64) -> Lookup {
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let shard = &mut *shard;
        if shard.entries.contains_key(&key) {
            shard.tick += 1;
            let tick = shard.tick;
            let entry = shard.entries.get_mut(&key).expect("checked above");
            let old_tick = std::mem::replace(&mut entry.tick, tick);
            let suffix = Arc::clone(&entry.suffix);
            shard.lru.remove(&old_tick);
            shard.lru.insert(tick, key);
            return Lookup::Hit(suffix);
        }
        if let Some(flight) = shard.flights.get(&key) {
            return Lookup::Wait(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        shard.flights.insert(key, Arc::clone(&flight));
        Lookup::Lead(FlightGuard {
            cache: Arc::clone(self),
            key,
            flight,
            armed: true,
        })
    }

    /// Read-only probe: is `key` resident? Does *not* refresh LRU order
    /// or interact with flights — for stats and tests only.
    pub fn peek(&self, key: u64) -> Option<Suffix> {
        let shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.entries.get(&key).map(|e| Arc::clone(&e.suffix))
    }

    /// Bytes currently charged across all shards (suffixes + fixed
    /// per-entry overhead).
    pub fn bytes(&self) -> u64 {
        self.total_bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Resident entry count across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .entries
                    .len()
            })
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Leader completion: removes the flight, publishes to waiters,
    /// and (on `ok`, within the per-entry cap) stores the suffix,
    /// evicting oldest-touched entries until it fits.
    fn complete(&self, key: u64, flight: &Flight, outcome: Option<Suffix>) -> InsertOutcome {
        use std::sync::atomic::Ordering;
        let mut result = InsertOutcome::default();
        {
            let mut shard = self
                .shard(key)
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let shard = &mut *shard;
            shard.flights.remove(&key);
            if let Some(suffix) = outcome.as_ref() {
                let cost = suffix.len() as u64 + ENTRY_OVERHEAD;
                if cost <= self.shard_budget.min(MAX_ENTRY_BYTES) {
                    while shard.bytes + cost > self.shard_budget {
                        let (&victim_tick, &victim_key) =
                            shard.lru.iter().next().expect("bytes > 0 implies entries");
                        shard.lru.remove(&victim_tick);
                        let victim = shard
                            .entries
                            .remove(&victim_key)
                            .expect("lru and entries agree");
                        let victim_cost = victim.suffix.len() as u64 + ENTRY_OVERHEAD;
                        shard.bytes -= victim_cost;
                        result.evicted_bytes += victim_cost;
                    }
                    shard.tick += 1;
                    let tick = shard.tick;
                    shard.lru.insert(tick, key);
                    shard.entries.insert(
                        key,
                        Entry {
                            suffix: Arc::clone(suffix),
                            tick,
                        },
                    );
                    shard.bytes += cost;
                    result.inserted = true;
                    self.total_bytes.fetch_add(cost, Ordering::Relaxed);
                }
            }
        }
        if result.evicted_bytes > 0 {
            self.total_bytes
                .fetch_sub(result.evicted_bytes, Ordering::Relaxed);
        }
        result.resident_bytes = self.bytes();
        // Publish after the shard lock is released: waiters woken here
        // may immediately re-enter `begin` and must not contend with a
        // lock we still hold.
        flight.publish(outcome);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys landing in shard 3: distinct multiples of 16, offset 3.
    fn key(i: u64) -> u64 {
        i * 16 + 3
    }

    fn put(cache: &Arc<ResponseCache>, k: u64, len: usize) -> InsertOutcome {
        match cache.begin(k) {
            Lookup::Lead(guard) => guard.complete_ok(vec![b'v'; len]),
            _ => panic!("expected to lead key {k}"),
        }
    }

    #[test]
    fn hit_returns_inserted_bytes_and_refreshes_lru() {
        let cache = ResponseCache::new(16 * 4096);
        assert!(cache.is_empty());
        let outcome = put(&cache, key(0), 100);
        assert!(outcome.inserted);
        assert_eq!(outcome.evicted_bytes, 0);
        match cache.begin(key(0)) {
            Lookup::Hit(suffix) => assert_eq!(*suffix, vec![b'v'; 100]),
            _ => panic!("expected a hit"),
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 100 + 64);
    }

    #[test]
    fn evicts_oldest_touched_deterministically() {
        // Shard budget = 65536/16 = 4096; each 1000-byte suffix costs
        // 1064, so three fit (3192) and a fourth (4256) evicts.
        let cache = ResponseCache::new(16 * 4096);
        put(&cache, key(0), 1000);
        put(&cache, key(1), 1000);
        put(&cache, key(2), 1000);
        // Touch key(0): key(1) is now the oldest-touched.
        assert!(matches!(cache.begin(key(0)), Lookup::Hit(_)));
        let outcome = put(&cache, key(3), 1000);
        assert!(outcome.inserted);
        assert_eq!(outcome.evicted_bytes, 1064);
        assert!(cache.peek(key(1)).is_none(), "oldest-touched evicted");
        for k in [key(0), key(2), key(3)] {
            assert!(cache.peek(k).is_some(), "key {k} survives");
        }
        // Next insert evicts key(2) — untouched since insertion, older
        // than both key(0)'s refresh and key(3)'s insert.
        let outcome = put(&cache, key(4), 1000);
        assert_eq!(outcome.evicted_bytes, 1064);
        assert!(cache.peek(key(2)).is_none());
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.bytes(), 3 * 1064);
    }

    #[test]
    fn oversized_value_is_served_but_not_stored() {
        // Over the 4096-byte shard budget, and under a 1 MiB shard
        // budget but over the 64 KiB entry cap.
        for (budget, len) in [(16 * 4096, 5000), (16 << 20, 70_000)] {
            let cache = ResponseCache::new(budget);
            put(&cache, key(1), 100);
            let resident = cache.bytes();
            let guard = match cache.begin(key(0)) {
                Lookup::Lead(guard) => guard,
                _ => panic!("first lookup leads"),
            };
            let flight = match cache.begin(key(0)) {
                Lookup::Wait(flight) => flight,
                _ => panic!("second lookup waits"),
            };
            let outcome = guard.complete_ok(vec![b'v'; len]);
            assert!(!outcome.inserted, "{len} bytes stored");
            assert_eq!(outcome.evicted_bytes, 0);
            assert_eq!(outcome.resident_bytes, resident);
            match flight.wait(None) {
                WaitOutcome::Ready(suffix) => assert_eq!(suffix.len(), len),
                _ => panic!("waiter sees the leader's bytes"),
            }
            assert!(cache.peek(key(0)).is_none());
            assert_eq!(cache.bytes(), resident);
        }
    }

    #[test]
    fn single_flight_coalesces_and_publishes() {
        let cache = ResponseCache::new(16 * 4096);
        let guard = match cache.begin(key(7)) {
            Lookup::Lead(guard) => guard,
            _ => panic!("first lookup leads"),
        };
        let flight = match cache.begin(key(7)) {
            Lookup::Wait(flight) => flight,
            _ => panic!("second lookup waits"),
        };
        guard.complete_ok(b"suffix".to_vec());
        match flight.wait(None) {
            WaitOutcome::Ready(suffix) => assert_eq!(suffix.as_slice(), b"suffix"),
            _ => panic!("waiter sees the leader's bytes"),
        }
        assert!(matches!(cache.begin(key(7)), Lookup::Hit(_)));
    }

    #[test]
    fn leader_failure_wakes_waiters_and_allows_retry() {
        let cache = ResponseCache::new(16 * 4096);
        let guard = match cache.begin(key(9)) {
            Lookup::Lead(guard) => guard,
            _ => panic!("first lookup leads"),
        };
        let flight = match cache.begin(key(9)) {
            Lookup::Wait(flight) => flight,
            _ => panic!("second lookup waits"),
        };
        drop(guard); // panic-safety path: unresolved guard publishes failure
        assert!(matches!(flight.wait(None), WaitOutcome::LeaderFailed));
        // The retrying waiter becomes the new leader.
        assert!(matches!(cache.begin(key(9)), Lookup::Lead(_)));
    }

    #[test]
    fn waiter_deadline_expires_without_leader() {
        let cache = ResponseCache::new(16 * 4096);
        let _guard = match cache.begin(key(11)) {
            Lookup::Lead(guard) => guard,
            _ => panic!("first lookup leads"),
        };
        let flight = match cache.begin(key(11)) {
            Lookup::Wait(flight) => flight,
            _ => panic!("second lookup waits"),
        };
        let deadline = Instant::now() + std::time::Duration::from_millis(10);
        assert!(matches!(flight.wait(Some(deadline)), WaitOutcome::TimedOut));
    }
}
