//! Memoization of value-pair similarities.
//!
//! Eq. 5 evaluates the kernel on every pair of support values; across a
//! relation the same string pairs recur constantly (domains are small
//! relative to the number of tuples), so memoizing kernel results turns
//! almost every evaluation into a lookup. One cache lives here:
//! [`SymbolCache`], the hot-path cache of the interned matching engine —
//! keyed on canonical `(Symbol, Symbol)` pairs packed into one `u64`
//! (kernel symmetry halves the table), sharded `SHARDS` ways with an
//! `RwLock` per shard. Reads (the overwhelmingly common case once the
//! cache is warm) take a shared lock on one shard only and write nothing
//! another worker reads: each shard sits on its own cache line with its
//! own hit / miss / certificate counters, and the second-chance reference
//! bit is kept only under a capacity ceiling. The `kernel` closure a
//! caller hands to [`SymbolCache::get_or_compute`] is the **only** place
//! the pipeline touches strings; the interned path points it at
//! per-symbol [`PreparedValue`](crate::value_cmp::PreparedValue)s so even
//! that miss evaluation skips the kernels' per-comparison setup (ASCII
//! scans, `Vec<char>` collects, Myers `Peq` builds).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::RwLock;

use probdedup_model::intern::Symbol;
use probdedup_model::util::{FxHashMap, FxHasher};

/// Number of lock stripes. A power of two well above typical worker counts
/// keeps the collision probability of two threads wanting the same stripe
/// low while staying cache-friendly.
const SHARDS: usize = 64;

#[inline]
fn shard_of(hash: u64) -> usize {
    // High bits: FxHash mixes least in the low bits.
    (hash >> 58) as usize & (SHARDS - 1)
}

#[inline]
fn hash_u64(key: u64) -> u64 {
    use std::hash::Hasher;
    let mut h = FxHasher::default();
    h.write_u64(key);
    h.finish()
}

// ---------------------------------------------------------------------
// Symbol-keyed sharded cache (the interned hot path).
// ---------------------------------------------------------------------

/// One lock stripe: its entries and the counters of the probes that land
/// on it. Aligned to 128 bytes (two 64-byte lines, the adjacent-line
/// prefetch unit) so a probe's lock acquisition and counter bump dirty
/// this stripe's line and no neighbour's; [`SymbolCache::stats`] sums the
/// counters.
#[repr(align(128))]
#[derive(Default)]
struct Shard {
    map: RwLock<FxHashMap<u64, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Below-bound certificates of a verdict table (see
    /// [`SymbolCache::certifies`]).
    certs: AtomicU64,
}

/// One memoized similarity with its second-chance reference bit.
///
/// The bit is an [`AtomicBool`](std::sync::atomic::AtomicBool) so the read
/// paths — which only hold a *shared* shard lock — can mark an entry as
/// recently used without upgrading to a write lock. Only a cache with a
/// capacity ceiling keeps it (nothing else reads it), and a hit stores it
/// only while it is clear, so a hot entry's line stays shared.
#[derive(Debug)]
struct Slot {
    value: f64,
    referenced: std::sync::atomic::AtomicBool,
}

impl Slot {
    /// A fresh slot starts with a **clear** reference bit: it must prove
    /// itself with a hit before it can claim a second chance, so streaming
    /// cold pairs cannot flush entries that are actively re-used.
    #[inline]
    fn new(value: f64) -> Self {
        Self {
            value,
            referenced: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Mark recently-used through a shared reference (read-lock paths);
    /// a set bit is left alone.
    #[inline]
    fn touch(&self) {
        if !self.referenced.load(Relaxed) {
            self.referenced.store(true, Relaxed);
        }
    }
}

/// A sharded, lock-striped similarity memo keyed on canonical
/// `(Symbol, Symbol)` pairs.
///
/// The key packs the smaller symbol into the high 32 bits — `(a, b)` and
/// `(b, a)` share an entry, matching kernel symmetry. ⊥ symbols must be
/// handled by the caller (they never reach the cache; the paper's ⊥
/// conventions are constant-time).
///
/// # Bounded mode
///
/// [`SymbolCache::with_capacity`] caps the number of memoized pairs. The
/// cap is split evenly across the shards, and a full shard evicts with an
/// approximate **second-chance** (clock) policy: a lookup hit sets the
/// entry's reference bit if it was clear; when an insert finds the shard
/// full, it sweeps the shard's entries demoting set bits and evicts the
/// first entry whose bit was already clear (falling back to an arbitrary
/// entry if the sweep demoted everything). Recently re-used pairs
/// therefore survive one full sweep longer than cold ones — close enough
/// to LRU for a memo table, with no per-entry list links. An unbounded
/// cache never evicts and keeps no reference bits. Evictions are counted
/// (see [`SymbolCache::evictions`]).
pub struct SymbolCache {
    shards: Box<[Shard]>,
    /// Only bumped under a shard's write lock, so it stays cache-wide.
    evictions: AtomicU64,
    /// Per-shard entry cap; `None` = unbounded (the default).
    shard_cap: Option<usize>,
}

impl Default for SymbolCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SymbolCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::with_capacity(None)
    }

    /// An empty cache holding at most `capacity` memoized pairs
    /// (approximately: the cap is enforced per shard as
    /// `ceil(capacity / SHARDS)`, at least one entry per shard).
    /// `None` means unbounded.
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            evictions: AtomicU64::new(0),
            shard_cap: capacity.map(|c| c.div_ceil(SHARDS).max(1)),
        }
    }

    /// The stripe `key` lives in.
    #[inline]
    fn shard(&self, key: u64) -> &Shard {
        &self.shards[shard_of(hash_u64(key))]
    }

    /// Look `key` up under `shard`'s read lock; a hit sets the reference
    /// bit when (and only when) a capacity ceiling will read it.
    #[inline]
    fn probe(&self, shard: &Shard, key: u64) -> Option<f64> {
        shard
            .map
            .read()
            .expect("cache shard poisoned")
            .get(&key)
            .map(|slot| {
                if self.shard_cap.is_some() {
                    slot.touch();
                }
                slot.value
            })
    }

    /// Store `key → v` under the shard's write lock, enforcing the
    /// capacity ceiling. `keep_min` selects the verdict-table collision
    /// rule (smaller value wins) over plain replacement.
    fn store(&self, shard: &Shard, key: u64, v: f64, keep_min: bool) {
        let mut map = shard.map.write().expect("cache shard poisoned");
        if let Some(slot) = map.get_mut(&key) {
            if !keep_min || v < slot.value {
                slot.value = v;
            }
            *slot.referenced.get_mut() = true;
            return;
        }
        if let Some(cap) = self.shard_cap {
            if map.len() >= cap {
                Self::evict_one(&mut map);
                self.evictions.fetch_add(1, Relaxed);
            }
        }
        map.insert(key, Slot::new(v));
    }

    /// Second-chance sweep: demote set reference bits in iteration order
    /// and evict the first entry whose bit was already clear; if every
    /// entry had its bit set (all demoted now), evict an arbitrary one.
    fn evict_one(map: &mut FxHashMap<u64, Slot>) {
        let mut victim = None;
        for (k, slot) in map.iter_mut() {
            if *slot.referenced.get_mut() {
                *slot.referenced.get_mut() = false;
            } else {
                victim = Some(*k);
                break;
            }
        }
        let victim = victim.or_else(|| map.keys().next().copied());
        if let Some(k) = victim {
            map.remove(&k);
        }
    }

    /// Canonical packed key of an unordered symbol pair.
    #[inline]
    fn key(a: Symbol, b: Symbol) -> u64 {
        let (lo, hi) = if a.raw() <= b.raw() {
            (a.raw(), b.raw())
        } else {
            (b.raw(), a.raw())
        };
        (u64::from(lo) << 32) | u64::from(hi)
    }

    /// The memoized similarity of `(a, b)`, computing it with `kernel` on a
    /// miss. `kernel` runs outside any lock, so a slow kernel never blocks
    /// other shards (duplicate concurrent computation of the same pair is
    /// possible and harmless — the kernel is pure).
    #[inline]
    pub fn get_or_compute(&self, a: Symbol, b: Symbol, kernel: impl FnOnce() -> f64) -> f64 {
        let key = Self::key(a, b);
        let shard = self.shard(key);
        if let Some(v) = self.probe(shard, key) {
            shard.hits.fetch_add(1, Relaxed);
            return v;
        }
        let s = kernel();
        shard.misses.fetch_add(1, Relaxed);
        self.store(shard, key, s, false);
        s
    }

    /// The memoized value of `(a, b)`, if present (counts as a hit/miss).
    /// Used by the bounded path to probe the exact cache before consulting
    /// verdicts or running a kernel.
    #[inline]
    pub fn get(&self, a: Symbol, b: Symbol) -> Option<f64> {
        let key = Self::key(a, b);
        let shard = self.shard(key);
        let found = self.probe(shard, key);
        match found {
            Some(_) => shard.hits.fetch_add(1, Relaxed),
            None => shard.misses.fetch_add(1, Relaxed),
        };
        found
    }

    /// Whether a memoized upper bound `≤ bound` certifies `(a, b)` below
    /// `bound` — the verdict-table probe of the bounded path. A certificate
    /// is counted in the pair's shard (see [`certs`](Self::certs)).
    #[inline]
    pub fn certifies(&self, a: Symbol, b: Symbol, bound: f64) -> bool {
        let key = Self::key(a, b);
        let shard = self.shard(key);
        let certified = self.probe(shard, key).is_some_and(|ub| ub <= bound);
        if certified {
            shard.certs.fetch_add(1, Relaxed);
        }
        certified
    }

    /// Memoize `(a, b) → v` unconditionally (no counter updates — the probe
    /// that preceded the computation already counted).
    #[inline]
    pub fn insert(&self, a: Symbol, b: Symbol, v: f64) {
        let key = Self::key(a, b);
        self.store(self.shard(key), key, v, false);
    }

    /// Memoize `(a, b) → v` keeping the **smaller** value on collision, and
    /// count the certificate.
    ///
    /// This is the verdict-cache update: entries are certified *upper
    /// bounds* ("the kernel similarity is `< v`"), so a tighter certificate
    /// must win over a looser one regardless of which worker thread stores
    /// first.
    #[inline]
    pub fn insert_min(&self, a: Symbol, b: Symbol, v: f64) {
        let key = Self::key(a, b);
        let shard = self.shard(key);
        shard.certs.fetch_add(1, Relaxed);
        self.store(shard, key, v, true);
    }

    /// Sum of one per-shard counter.
    fn total(&self, counter: impl Fn(&Shard) -> &AtomicU64) -> u64 {
        self.shards.iter().map(|s| counter(s).load(Relaxed)).sum()
    }

    /// `(hits, misses)` counters, summed over the shards.
    pub fn stats(&self) -> (u64, u64) {
        (self.total(|s| &s.hits), self.total(|s| &s.misses))
    }

    /// Below-bound certificates this verdict table answered
    /// ([`certifies`](Self::certifies)) or recorded
    /// ([`insert_min`](Self::insert_min)), summed over the shards.
    pub fn certs(&self) -> u64 {
        self.total(|s| &s.certs)
    }

    /// Number of entries evicted to honour the capacity ceiling (always 0
    /// for unbounded caches).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Relaxed)
    }

    /// The configured capacity ceiling, if any (total across shards, as
    /// passed to [`with_capacity`](Self::with_capacity) rounded up to a
    /// whole number of per-shard entries).
    pub fn capacity(&self) -> Option<usize> {
        self.shard_cap.map(|c| c * SHARDS)
    }

    /// Every memoized `(packed key, value)` pair, sorted by key — the
    /// deterministic dump the snapshot writer serializes. Takes each
    /// shard's read lock briefly; an inspection API, not a hot path.
    pub fn export_entries(&self) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.map
                    .read()
                    .expect("cache shard poisoned")
                    .iter()
                    .map(|(&k, slot)| (k, slot.value))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Re-insert previously exported `(packed key, value)` pairs (snapshot
    /// restore). Entries go through the normal bounded-insert path, so a
    /// capacity ceiling is honoured; callers are responsible for validating
    /// that the packed symbols are in range for the owning pool.
    pub fn import_entries(&self, entries: impl IntoIterator<Item = (u64, f64)>) {
        for (key, v) in entries {
            self.store(self.shard(key), key, v, false);
        }
    }

    /// Number of memoized pairs (sums all shards; takes each read lock
    /// briefly — an inspection API, not a hot path).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.read().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdedup_model::intern::ValuePool;
    use probdedup_model::value::Value;

    #[test]
    fn symbol_cache_memoizes_canonical_pairs() {
        let mut pool = ValuePool::new();
        let a = pool.intern(&Value::from("machinist"));
        let b = pool.intern(&Value::from("mechanic"));
        let cache = SymbolCache::new();
        let mut kernel_calls = 0;
        let mut eval = |x: Symbol, y: Symbol| {
            cache.get_or_compute(x, y, || {
                kernel_calls += 1;
                0.5
            })
        };
        assert_eq!(eval(a, b), 0.5);
        assert_eq!(eval(b, a), 0.5); // symmetric orientation hits
        assert_eq!(kernel_calls, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), (1, 1));
        assert!(!cache.is_empty());
        // An unbounded cache's hit writes no reference bit (nothing reads
        // it), and every stripe owns its cache lines.
        let key = SymbolCache::key(a, b);
        let map = cache.shard(key).map.read().unwrap();
        assert!(!map[&key].referenced.load(Relaxed));
        assert_eq!(std::mem::align_of::<Shard>(), 128);
    }

    #[test]
    fn symbol_cache_concurrent_access() {
        use std::sync::Arc;
        let mut pool = ValuePool::new();
        let syms: Vec<Symbol> = (0..32)
            .map(|i| pool.intern(&Value::from(format!("v{i}"))))
            .collect();
        let cache = Arc::new(SymbolCache::new());
        let syms = Arc::new(syms);
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let syms = Arc::clone(&syms);
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        let a = syms[((t * 7 + i) % 32) as usize];
                        let b = syms[((i * 13) % 32) as usize];
                        let expected = f64::from(a.raw().min(b.raw()));
                        let got = cache.get_or_compute(a, b, || expected);
                        assert_eq!(got, expected);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 8 * 2000);
        assert!(cache.len() <= 32 * 33 / 2);
    }

    #[test]
    fn bounded_cache_respects_capacity_and_counts_evictions() {
        let mut pool = ValuePool::new();
        let syms: Vec<Symbol> = (0..600)
            .map(|i| pool.intern(&Value::from(format!("v{i}"))))
            .collect();
        // Capacity 64 → one entry per shard.
        let cache = SymbolCache::with_capacity(Some(64));
        assert_eq!(cache.capacity(), Some(64));
        for (i, w) in syms.windows(2).enumerate() {
            cache.insert(w[0], w[1], i as f64);
        }
        assert!(
            cache.len() <= 64,
            "bounded cache grew to {} entries",
            cache.len()
        );
        let inserted = (syms.len() - 1) as u64;
        assert_eq!(cache.evictions(), inserted - cache.len() as u64);
        // Unbounded caches never evict.
        let unbounded = SymbolCache::new();
        assert_eq!(unbounded.capacity(), None);
        for (i, w) in syms.windows(2).enumerate() {
            unbounded.insert(w[0], w[1], i as f64);
        }
        assert_eq!(unbounded.len(), syms.len() - 1);
        assert_eq!(unbounded.evictions(), 0);
    }

    #[test]
    fn second_chance_prefers_evicting_cold_entries() {
        let mut pool = ValuePool::new();
        let syms: Vec<Symbol> = (0..200)
            .map(|i| pool.intern(&Value::from(format!("v{i}"))))
            .collect();
        // All shards capped at 2 entries; repeatedly touch one hot pair
        // while streaming cold pairs through. The hot pair's reference bit
        // is re-set on every probe, so the sweeps evict cold entries.
        let cache = SymbolCache::with_capacity(Some(2 * 64));
        let (hot_a, hot_b) = (syms[0], syms[1]);
        cache.insert(hot_a, hot_b, 0.75);
        for w in syms[2..].windows(2) {
            assert_eq!(cache.get(hot_a, hot_b), Some(0.75), "hot entry evicted");
            cache.insert(w[0], w[1], 0.25);
        }
        assert_eq!(cache.get(hot_a, hot_b), Some(0.75));
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn export_import_roundtrips_entries() {
        let mut pool = ValuePool::new();
        let syms: Vec<Symbol> = (0..40)
            .map(|i| pool.intern(&Value::from(format!("v{i}"))))
            .collect();
        let cache = SymbolCache::new();
        for (i, w) in syms.windows(2).enumerate() {
            cache.insert(w[0], w[1], i as f64 / 40.0);
        }
        let dump = cache.export_entries();
        assert_eq!(dump.len(), cache.len());
        assert!(dump.windows(2).all(|w| w[0].0 < w[1].0), "dump not sorted");
        let restored = SymbolCache::new();
        restored.import_entries(dump.iter().copied());
        assert_eq!(restored.export_entries(), dump);
        // Every restored pair answers without recomputation.
        for (i, w) in syms.windows(2).enumerate() {
            assert_eq!(restored.get(w[0], w[1]), Some(i as f64 / 40.0));
        }
    }

    #[test]
    fn insert_min_keeps_tighter_bound_under_capacity() {
        let mut pool = ValuePool::new();
        let a = pool.intern(&Value::from("a"));
        let b = pool.intern(&Value::from("b"));
        let cache = SymbolCache::with_capacity(Some(64));
        cache.insert_min(a, b, 0.8);
        cache.insert_min(a, b, 0.6);
        cache.insert_min(a, b, 0.9); // looser: must not overwrite
        assert_eq!(cache.get(a, b), Some(0.6));
        // Three recorded certificates; a probe certifies a cut at or
        // above the stored bound only.
        assert_eq!(cache.certs(), 3);
        assert!(cache.certifies(a, b, 0.6));
        assert!(!cache.certifies(a, b, 0.5));
        assert_eq!(cache.certs(), 4);
    }
}
