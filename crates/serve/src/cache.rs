//! Pattern-keyed schedule cache: LRU eviction + single-flight builds over
//! a tier of remembered orderings.
//!
//! The cache maps a [`ScheduleKey`] — structural hash of the CSC pattern
//! plus every front-end parameter (ordering, grain, scheme, processor
//! count) — to a frozen [`ScheduleArtifact`], itself a shared handle: the
//! cache stores it and hands out clones of it, never copies. Two properties
//! matter under concurrency:
//!
//! * **Single-flight**: when several threads miss on the same key at
//!   once, exactly one runs the (expensive) front-end build; the others
//!   block on that flight and share its result — including its error, so
//!   a failed build is observed once by everyone rather than retried in
//!   a stampede.
//! * **LRU eviction**: the cache holds at most `capacity` *ready*
//!   artifacts; inserting past capacity evicts the least-recently-used
//!   ready entry. In-flight builds are never evicted (a waiter holds
//!   them), so the resident count can transiently exceed capacity while
//!   builds race.
//!
//! Under the artifacts sits a second, much smaller tier: the fill-reducing
//! **permutation** of every artifact that came through, keyed by what an
//! ordering depends on — pattern hash, dimension, [`Ordering`] and
//! [`OrderEngine`], not grain, scheme or processor count. It outlives the
//! eviction of the artifacts built from it, so a miss on an evicted key (or
//! on another scheme or processor count of a pattern already seen) re-plans
//! from the permutation through [`ScheduleCache::get_or_plan`] instead of
//! ordering again. A permutation is 16 bytes a column against an artifact's
//! hundreds; the tier is LRU-bounded at [`ORDERINGS_PER_SLOT`] entries per
//! artifact slot.
//!
//! Hit/miss/wait/evict counts are kept in lock-free [`CacheStats`]
//! counters (always available, recorder or not) and mirrored onto the
//! recorder in scope ([`spfactor::trace::current`]) as `serve.cache.*`
//! metrics; builds run under the `serve.build` span.

use crate::resilience::lock_unpoisoned;
use crate::ServeError;
use spfactor::matrix::Permutation;
use spfactor::sched::{ScheduleArtifact, ScheduleKey};
use spfactor::{trace, OrderEngine, Ordering};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex};

/// Lock-free counters describing cache behaviour since construction.
/// Monotone; read them with [`ScheduleCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a ready artifact.
    pub hits: u64,
    /// Lookups that found nothing and started a build.
    pub misses: u64,
    /// Lookups that found a build already in flight and waited for it
    /// (coalesced misses — each of these is a build that single-flight
    /// deduplication saved).
    pub waits: u64,
    /// Ready artifacts evicted to respect the capacity bound.
    pub evictions: u64,
    /// Misses of [`ScheduleCache::get_or_plan`] that were built from a
    /// remembered permutation instead of a fresh ordering (a subset of
    /// `misses`).
    pub replans: u64,
}

impl CacheStats {
    /// Fraction of lookups served without building, `(hits + waits) /
    /// lookups`; `1.0` for an idle cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.waits;
        if total == 0 {
            1.0
        } else {
            (self.hits + self.waits) as f64 / total as f64
        }
    }
}

/// A point-in-time view of the resident entries, most recently used
/// first. In-flight builds are not listed.
#[derive(Clone, Debug)]
pub struct CacheSnapshot {
    /// Resident (ready) keys, most recently used first.
    pub keys: Vec<ScheduleKey>,
    /// The capacity the cache evicts down to.
    pub capacity: usize,
}

/// How an in-flight build ended.
enum Landing {
    Pending,
    Built(Result<ScheduleArtifact, ServeError>),
    /// The builder unwound: there is no result, and the key is free again.
    Abandoned,
}

/// One in-flight build: landed at most once, then immutable. Waiters
/// block on the condvar until it lands.
struct Flight {
    landing: Mutex<Landing>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            landing: Mutex::new(Landing::Pending),
            done: Condvar::new(),
        }
    }

    fn land(&self, landing: Landing) {
        let mut slot = lock_unpoisoned(&self.landing);
        debug_assert!(matches!(*slot, Landing::Pending), "flight landed twice");
        *slot = landing;
        self.done.notify_all();
    }

    /// The build's result, or `None` if its builder unwound.
    fn wait(&self) -> Option<Result<ScheduleArtifact, ServeError>> {
        let mut slot = lock_unpoisoned(&self.landing);
        loop {
            match &*slot {
                Landing::Pending => slot = self.done.wait(slot).unwrap_or_else(|p| p.into_inner()),
                Landing::Built(r) => return Some(r.clone()),
                Landing::Abandoned => return None,
            }
        }
    }
}

/// Held by a builder while its `build` closure runs: if the closure
/// panics, dropping it takes the `Building` placeholder out of the map and
/// lands the flight as abandoned, so the waiters look the key up again
/// instead of waiting on a build nobody will finish.
struct Unwinding<'a> {
    cache: &'a ScheduleCache,
    key: ScheduleKey,
    flight: &'a Flight,
}

impl Drop for Unwinding<'_> {
    fn drop(&mut self) {
        // Nothing else replaces a `Building` entry, so it is this flight's.
        lock_unpoisoned(&self.cache.inner).map.remove(&self.key);
        self.flight.land(Landing::Abandoned);
    }
}

enum Entry {
    Ready {
        artifact: ScheduleArtifact,
        last_used: u64,
    },
    Building(Arc<Flight>),
}

/// Remembered permutations kept per artifact slot: the ordering tier holds
/// at most `ORDERINGS_PER_SLOT * capacity` of them. At 16 bytes a column
/// against about 400 a column of a factored artifact that was never
/// scheduled (1,050 once a store's fingerprint has scheduled it), a full
/// tier is at most about a third again of what full slots hold
/// (docs/SERVING.md).
pub const ORDERINGS_PER_SLOT: usize = 8;

/// What a fill-reducing ordering depends on: the pattern (hash and
/// dimension) and how it is ordered. Every [`ScheduleKey`] that agrees on
/// these shares one permutation.
type OrderingKey = (u64, usize, Ordering, OrderEngine);

fn ordering_key(key: &ScheduleKey) -> OrderingKey {
    (key.structural_hash, key.n, key.ordering, key.order_engine)
}

struct Remembered {
    permutation: Permutation,
    last_used: u64,
}

struct Inner {
    map: HashMap<ScheduleKey, Entry>,
    /// `Ready` entries in `map`, kept so that neither eviction nor
    /// [`ScheduleCache::len`] has to count them.
    ready: usize,
    /// The ordering tier.
    orderings: HashMap<OrderingKey, Remembered>,
    /// Monotone logical clock; bumped on every touch, stamped into
    /// `last_used` so eviction can find the least recently used entry.
    tick: u64,
}

impl Inner {
    /// Keeps (or refreshes) `artifact`'s permutation in the ordering tier,
    /// and returns the least recently used ones beyond `bound`, for the
    /// caller to free once it has released the lock.
    fn remember(&mut self, artifact: &ScheduleArtifact, bound: usize) -> Vec<Remembered> {
        let now = self.tick;
        let mut evicted = Vec::new();
        match self.orderings.entry(ordering_key(artifact.key())) {
            MapEntry::Occupied(mut held) => held.get_mut().last_used = now,
            MapEntry::Vacant(slot) => {
                slot.insert(Remembered {
                    permutation: artifact.permutation().clone(),
                    last_used: now,
                });
            }
        }
        while self.orderings.len() > bound {
            // The one just stamped is the most recent, so never the victim.
            let Some(k) = coldest(&self.orderings, |held| Some(held.last_used)) else {
                break;
            };
            evicted.extend(self.orderings.remove(&k));
        }
        evicted
    }
}

/// The key of the entry with the oldest stamp, among those `stamp` gives
/// one for: the LRU victim of either tier.
fn coldest<K: Copy, V>(map: &HashMap<K, V>, stamp: impl Fn(&V) -> Option<u64>) -> Option<K> {
    map.iter()
        .filter_map(|(k, v)| stamp(v).map(|t| (t, *k)))
        .min_by_key(|(t, _)| *t)
        .map(|(_, k)| k)
}

/// What a lookup resolved to, decided under the map lock.
enum Resolved {
    Hit(ScheduleArtifact),
    Wait(Arc<Flight>),
    Build(Arc<Flight>),
}

/// Concurrent pattern-keyed cache of [`ScheduleArtifact`]s with LRU
/// eviction and single-flight build deduplication. See the module docs
/// for the concurrency contract; see [`crate::SolverService`] for the
/// service that normally owns one of these.
pub struct ScheduleCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    evictions: AtomicU64,
    replans: AtomicU64,
}

impl std::fmt::Debug for ScheduleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ScheduleCache {
    /// Creates a cache holding at most `capacity` ready artifacts.
    /// A zero capacity is clamped to 1 (a cache that can hold nothing
    /// would defeat single-flight: the artifact must stay resident at
    /// least until its builder hands it over).
    pub fn new(capacity: usize) -> Self {
        ScheduleCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                ready: 0,
                orderings: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            replans: AtomicU64::new(0),
        }
    }

    /// The capacity the cache evicts down to.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of remembered permutations the ordering tier evicts
    /// down to: [`ORDERINGS_PER_SLOT`] per artifact slot.
    pub fn ordering_capacity(&self) -> usize {
        self.capacity.saturating_mul(ORDERINGS_PER_SLOT)
    }

    /// Number of ready artifacts currently resident.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).ready
    }

    /// Number of permutations the ordering tier currently remembers.
    pub fn orderings(&self) -> usize {
        lock_unpoisoned(&self.inner).orderings.len()
    }

    /// Whether the ordering tier remembers a permutation `key` could be
    /// re-planned from (does not touch recency).
    pub fn remembers(&self, key: &ScheduleKey) -> bool {
        let inner = lock_unpoisoned(&self.inner);
        inner.orderings.contains_key(&ordering_key(key))
    }

    /// Whether no ready artifact is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a ready artifact is resident under `key` (does not touch
    /// recency and does not count as a hit).
    pub fn contains(&self, key: &ScheduleKey) -> bool {
        let inner = lock_unpoisoned(&self.inner);
        matches!(inner.map.get(key), Some(Entry::Ready { .. }))
    }

    /// The behaviour counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
            waits: self.waits.load(AtomicOrdering::Relaxed),
            evictions: self.evictions.load(AtomicOrdering::Relaxed),
            replans: self.replans.load(AtomicOrdering::Relaxed),
        }
    }

    /// Resident keys, most recently used first.
    pub fn snapshot(&self) -> CacheSnapshot {
        let inner = lock_unpoisoned(&self.inner);
        let mut ready: Vec<(u64, ScheduleKey)> = inner
            .map
            .iter()
            .filter_map(|(k, e)| match e {
                Entry::Ready { last_used, .. } => Some((*last_used, *k)),
                Entry::Building(_) => None,
            })
            .collect();
        ready.sort_by_key(|&(tick, _)| std::cmp::Reverse(tick));
        CacheSnapshot {
            keys: ready.into_iter().map(|(_, k)| k).collect(),
            capacity: self.capacity,
        }
    }

    /// Drops every ready artifact and every remembered permutation
    /// (in-flight builds complete normally and re-insert). Does not reset
    /// the stats counters.
    pub fn clear(&self) {
        let mut inner = lock_unpoisoned(&self.inner);
        let (building, ready): (HashMap<_, _>, HashMap<_, _>) = std::mem::take(&mut inner.map)
            .into_iter()
            .partition(|(_, e)| matches!(e, Entry::Building(_)));
        inner.map = building;
        inner.ready = 0;
        let orderings = std::mem::take(&mut inner.orderings);
        drop(inner);
        // The cache usually holds an artifact's last handle: free them
        // with the lock released, so no lookup waits on the deallocation.
        drop((ready, orderings));
        self.publish_size();
    }

    /// Returns the artifact cached under `key`, building it with
    /// `build` on a miss. Concurrent callers with the same key coalesce
    /// onto one build (single-flight); each of them — builder and
    /// waiters alike — observes the same `Ok` artifact or the same
    /// cloned error. A failed build leaves the cache without the entry,
    /// so the next lookup retries. A successful one leaves its permutation
    /// in the ordering tier. A `build` that panics unwinds through its
    /// caller and also leaves the key free: the callers waiting on it
    /// look the key up again, and one of them builds it with its own
    /// `build`.
    ///
    /// Under a recorder scope: cache traffic is mirrored as
    /// `serve.cache.{hit,miss,wait,evict}` counters, the resident counts
    /// as the `serve.cache.size` and `serve.cache.orderings` gauges, and
    /// the build runs under the `serve.build` span (all documented in
    /// `docs/METRICS.md`).
    pub fn get_or_build(
        &self,
        key: ScheduleKey,
        build: impl FnOnce() -> Result<ScheduleArtifact, ServeError>,
    ) -> Result<ScheduleArtifact, ServeError> {
        let rec = trace::current();
        loop {
            match self.resolve(key) {
                Resolved::Hit(artifact) => {
                    self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                    rec.incr("serve.cache.hit", 1);
                    return Ok(artifact);
                }
                Resolved::Wait(flight) => {
                    self.waits.fetch_add(1, AtomicOrdering::Relaxed);
                    rec.incr("serve.cache.wait", 1);
                    if let Some(result) = flight.wait() {
                        return result;
                    }
                    // Its builder unwound; the key is free to build again.
                }
                Resolved::Build(flight) => {
                    self.misses.fetch_add(1, AtomicOrdering::Relaxed);
                    rec.incr("serve.cache.miss", 1);
                    let unwinding = Unwinding {
                        cache: self,
                        key,
                        flight: &flight,
                    };
                    let built = rec.time("serve.build", build);
                    std::mem::forget(unwinding);
                    let result = self.finish_build(&key, built);
                    flight.land(Landing::Built(result.clone()));
                    self.publish_size();
                    return result;
                }
            }
        }
    }

    /// Looks `key` up under the map lock, installing a `Building`
    /// placeholder on a miss.
    fn resolve(&self, key: ScheduleKey) -> Resolved {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.tick += 1;
        let now = inner.tick;
        match inner.map.get_mut(&key) {
            Some(Entry::Ready {
                artifact,
                last_used,
            }) => {
                *last_used = now;
                Resolved::Hit(artifact.clone())
            }
            Some(Entry::Building(flight)) => Resolved::Wait(flight.clone()),
            None => {
                let flight = Arc::new(Flight::new());
                inner.map.insert(key, Entry::Building(flight.clone()));
                Resolved::Build(flight)
            }
        }
    }

    /// [`get_or_build`](Self::get_or_build) for a builder that can start
    /// from a permutation: on a miss `plan` is handed the permutation the
    /// ordering tier remembers for `key`'s pattern, ordering and engine
    /// (`None` when it remembers none), and is expected to plan from it —
    /// `spfactor::sched::plan(pattern, key, remembered, ..)` — rather than
    /// order again. The tier is keyed by the pattern's hash, so in the
    /// event of a collision the permutation handed over is another
    /// pattern's of the same dimension: a valid ordering that may fill
    /// more, never a wrong factor, because `plan` derives everything else
    /// from the real pattern. Successful builds from a remembered
    /// permutation count as [`CacheStats::replans`] (`serve.cache.replan`).
    /// A failed one leaves the permutation where it was.
    pub fn get_or_plan(
        &self,
        key: ScheduleKey,
        plan: impl FnOnce(Option<Permutation>) -> Result<ScheduleArtifact, ServeError>,
    ) -> Result<ScheduleArtifact, ServeError> {
        self.get_or_build(key, || {
            let remembered = {
                let mut inner = lock_unpoisoned(&self.inner);
                inner.tick += 1;
                let now = inner.tick;
                inner.orderings.get_mut(&ordering_key(&key)).map(|held| {
                    held.last_used = now;
                    held.permutation.clone()
                })
            };
            let replanned = remembered.is_some();
            let built = plan(remembered);
            if replanned && built.is_ok() {
                self.replans.fetch_add(1, AtomicOrdering::Relaxed);
                trace::current().incr("serve.cache.replan", 1);
            }
            built
        })
    }

    /// Swaps the `Building` placeholder for the build's outcome: on
    /// success a `Ready` entry (evicting LRU overflow) and the artifact's
    /// permutation in the ordering tier, on failure nothing (the key
    /// becomes buildable again).
    fn finish_build(
        &self,
        key: &ScheduleKey,
        built: Result<ScheduleArtifact, ServeError>,
    ) -> Result<ScheduleArtifact, ServeError> {
        let mut inner = lock_unpoisoned(&self.inner);
        match built {
            Ok(artifact) => {
                inner.tick += 1;
                let now = inner.tick;
                inner.map.insert(
                    *key,
                    Entry::Ready {
                        artifact: artifact.clone(),
                        last_used: now,
                    },
                );
                inner.ready += 1;
                let forgotten = inner.remember(&artifact, self.ordering_capacity());
                let mut victims = Vec::new();
                while inner.ready > self.capacity {
                    // The entry just inserted is the most recent, so it is
                    // never its own victim; a build in flight is nobody's.
                    let victim = coldest(&inner.map, |e| match e {
                        Entry::Ready { last_used, .. } => Some(*last_used),
                        Entry::Building(_) => None,
                    });
                    let Some(k) = victim else { break };
                    victims.extend(inner.map.remove(&k));
                    inner.ready -= 1;
                }
                drop(inner);
                // Freed with the lock released: see `clear`.
                let evicted = victims.len() as u64;
                drop((victims, forgotten));
                if evicted > 0 {
                    self.evictions.fetch_add(evicted, AtomicOrdering::Relaxed);
                    trace::current().incr("serve.cache.evict", evicted);
                }
                Ok(artifact)
            }
            Err(e) => {
                inner.map.remove(key);
                Err(e)
            }
        }
    }

    fn publish_size(&self) {
        let rec = trace::current();
        if rec.is_recording() {
            let (ready, orderings) = {
                let inner = lock_unpoisoned(&self.inner);
                (inner.ready, inner.orderings.len())
            };
            rec.gauge("serve.cache.size", ready as f64);
            rec.gauge("serve.cache.orderings", orderings as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor::matrix::gen;
    use spfactor::Pipeline;
    use std::sync::atomic::AtomicUsize;

    fn pipeline(cols: usize) -> Pipeline {
        Pipeline::new(gen::lap9(cols, 4)).processors(2)
    }

    fn build(p: &Pipeline) -> Result<ScheduleArtifact, ServeError> {
        p.try_plan().map_err(|e| ServeError::Build(Arc::new(e)))
    }

    #[test]
    fn hit_after_miss_and_stats() {
        let cache = ScheduleCache::new(4);
        let p = pipeline(5);
        let a1 = cache.get_or_build(p.key(), || build(&p)).unwrap();
        let a2 = cache
            .get_or_build(p.key(), || panic!("must not rebuild"))
            .unwrap();
        assert!(a1.ptr_eq(&a2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.waits, s.evictions), (1, 1, 0, 0));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ScheduleCache::new(2);
        let a = pipeline(4);
        let b = pipeline(5);
        let c = pipeline(6);
        cache.get_or_build(a.key(), || build(&a)).unwrap();
        cache.get_or_build(b.key(), || build(&b)).unwrap();
        // Touch `a` so `b` is now the LRU entry, then overflow with `c`.
        cache.get_or_build(a.key(), || panic!("hit")).unwrap();
        cache.get_or_build(c.key(), || build(&c)).unwrap();
        assert!(cache.contains(&a.key()));
        assert!(!cache.contains(&b.key()));
        assert!(cache.contains(&c.key()));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.snapshot().keys, vec![c.key(), a.key()]);
    }

    #[test]
    fn failed_builds_are_shared_then_retried() {
        let cache = ScheduleCache::new(2);
        let p = pipeline(4);
        let err = cache
            .get_or_build(p.key(), || {
                Err(ServeError::Build(Arc::new(
                    spfactor::SpfactorError::InvalidParameter {
                        param: "test",
                        message: "boom".into(),
                    },
                )))
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Build(_)));
        assert!(!cache.contains(&p.key()));
        // The key is buildable again after the failure.
        cache.get_or_build(p.key(), || build(&p)).unwrap();
        assert!(cache.contains(&p.key()));
    }

    #[test]
    fn concurrent_misses_build_once() {
        let cache = Arc::new(ScheduleCache::new(4));
        let p = Arc::new(pipeline(8));
        let builds = Arc::new(AtomicUsize::new(0));
        let fingerprints: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = cache.clone();
                    let p = p.clone();
                    let builds = builds.clone();
                    s.spawn(move || {
                        let a = cache
                            .get_or_build(p.key(), || {
                                builds.fetch_add(1, AtomicOrdering::SeqCst);
                                build(&p)
                            })
                            .unwrap();
                        a.fingerprint()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(AtomicOrdering::SeqCst), 1, "single-flight");
        assert!(fingerprints.windows(2).all(|w| w[0] == w[1]));
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits + s.waits, 7);
    }

    #[test]
    fn len_is_the_number_of_ready_entries_throughout() {
        let cache = ScheduleCache::new(2);
        let counted = |cache: &ScheduleCache| {
            let inner = lock_unpoisoned(&cache.inner);
            let ready = inner
                .map
                .values()
                .filter(|e| matches!(e, Entry::Ready { .. }));
            (ready.count(), inner.ready)
        };
        for (step, cols) in [4, 5, 6, 7, 4].into_iter().enumerate() {
            let p = pipeline(cols);
            cache.get_or_build(p.key(), || build(&p)).unwrap();
            assert_eq!(counted(&cache), ((step + 1).min(2), (step + 1).min(2)));
        }
        let p = pipeline(9);
        let failed = cache.get_or_build(p.key(), || build(&p.clone().processors(0)));
        assert!(failed.is_err());
        assert_eq!((counted(&cache), cache.len()), ((2, 2), 2));
        assert_eq!(cache.orderings(), 4, "permutations outlive the evictions");
        cache.clear();
        assert_eq!((counted(&cache), cache.len()), ((0, 0), 0));
        assert_eq!(cache.orderings(), 0);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let cache = ScheduleCache::new(0);
        assert_eq!(cache.capacity(), 1);
        let p = pipeline(4);
        cache.get_or_build(p.key(), || build(&p)).unwrap();
        assert_eq!(cache.len(), 1);
    }
}
