//! Pattern-keyed schedule cache: LRU eviction + single-flight builds.
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
//! Hit/miss/wait/evict counts are kept in lock-free [`CacheStats`]
//! counters (always available, recorder or not) and mirrored onto the
//! recorder in scope ([`spfactor::trace::current`]) as `serve.cache.*`
//! metrics; builds run under the `serve.build` span.

use crate::resilience::lock_unpoisoned;
use crate::ServeError;
use spfactor::sched::{ScheduleArtifact, ScheduleKey};
use spfactor::trace;
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

/// One in-flight build: completed at most once, then immutable. Waiters
/// block on the condvar until `result` is populated.
struct Flight {
    result: Mutex<Option<Result<ScheduleArtifact, ServeError>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn complete(&self, r: Result<ScheduleArtifact, ServeError>) {
        let mut slot = lock_unpoisoned(&self.result);
        debug_assert!(slot.is_none(), "flight completed twice");
        *slot = Some(r);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<ScheduleArtifact, ServeError> {
        let mut slot = lock_unpoisoned(&self.result);
        loop {
            match &*slot {
                Some(r) => return r.clone(),
                None => slot = self.done.wait(slot).unwrap_or_else(|p| p.into_inner()),
            }
        }
    }
}

enum Entry {
    Ready {
        artifact: ScheduleArtifact,
        last_used: u64,
    },
    Building(Arc<Flight>),
}

struct Inner {
    map: HashMap<ScheduleKey, Entry>,
    /// Monotone logical clock; bumped on every touch, stamped into
    /// `last_used` so eviction can find the least recently used entry.
    tick: u64,
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
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The capacity the cache evicts down to.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ready artifacts currently resident.
    pub fn len(&self) -> usize {
        let inner = lock_unpoisoned(&self.inner);
        inner
            .map
            .values()
            .filter(|e| matches!(e, Entry::Ready { .. }))
            .count()
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

    /// Drops every ready artifact (in-flight builds complete normally
    /// and re-insert). Does not reset the stats counters.
    pub fn clear(&self) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.map.retain(|_, e| matches!(e, Entry::Building(_)));
        drop(inner);
        self.publish_size();
    }

    /// Returns the artifact cached under `key`, building it with
    /// `build` on a miss. Concurrent callers with the same key coalesce
    /// onto one build (single-flight); each of them — builder and
    /// waiters alike — observes the same `Ok` artifact or the same
    /// cloned error. A failed build leaves the cache without the entry,
    /// so the next lookup retries.
    ///
    /// Under a recorder scope: cache traffic is mirrored as
    /// `serve.cache.{hit,miss,wait,evict}` counters, the resident count as
    /// the `serve.cache.size` gauge, and the build runs under the
    /// `serve.build` span (all documented in `docs/METRICS.md`).
    pub fn get_or_build(
        &self,
        key: ScheduleKey,
        build: impl FnOnce() -> Result<ScheduleArtifact, ServeError>,
    ) -> Result<ScheduleArtifact, ServeError> {
        let resolved = {
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
        };

        let rec = trace::current();
        match resolved {
            Resolved::Hit(artifact) => {
                self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                rec.incr("serve.cache.hit", 1);
                Ok(artifact)
            }
            Resolved::Wait(flight) => {
                self.waits.fetch_add(1, AtomicOrdering::Relaxed);
                rec.incr("serve.cache.wait", 1);
                flight.wait()
            }
            Resolved::Build(flight) => {
                self.misses.fetch_add(1, AtomicOrdering::Relaxed);
                rec.incr("serve.cache.miss", 1);
                let built = rec.time("serve.build", build);
                let result = self.finish_build(&key, built);
                flight.complete(result.clone());
                self.publish_size();
                result
            }
        }
    }

    /// Swaps the `Building` placeholder for the build's outcome: on
    /// success a `Ready` entry (evicting LRU overflow), on failure
    /// nothing (the key becomes buildable again).
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
                let mut evicted = 0u64;
                loop {
                    let ready = inner
                        .map
                        .values()
                        .filter(|e| matches!(e, Entry::Ready { .. }))
                        .count();
                    if ready <= self.capacity {
                        break;
                    }
                    let victim = inner
                        .map
                        .iter()
                        .filter_map(|(k, e)| match e {
                            // The entry just inserted is the most recent,
                            // so it is never its own victim.
                            Entry::Ready { last_used, .. } => Some((*last_used, *k)),
                            Entry::Building(_) => None,
                        })
                        .min_by_key(|(t, _)| *t)
                        .map(|(_, k)| k);
                    match victim {
                        Some(k) => {
                            inner.map.remove(&k);
                            evicted += 1;
                        }
                        None => break,
                    }
                }
                drop(inner);
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
            rec.gauge("serve.cache.size", self.len() as f64);
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
    fn zero_capacity_is_clamped() {
        let cache = ScheduleCache::new(0);
        assert_eq!(cache.capacity(), 1);
        let p = pipeline(4);
        cache.get_or_build(p.key(), || build(&p)).unwrap();
        assert_eq!(cache.len(), 1);
    }
}
