//! Value interning: dense `u32` symbols for distinct [`Value`]s.
//!
//! The matching hot path evaluates Eq. 5 over the supports of two uncertain
//! values — every term hashes, compares or clones a [`Value`] (usually a
//! heap-allocated string). Across a relation the distinct values are few
//! relative to the number of candidate pairs, so the pipeline interns every
//! value once up front into a [`ValuePool`] and works with [`Symbol`]s from
//! there on: a symbol pair packs into a single `u64`, equality becomes
//! an integer compare, and no string is touched again until a kernel
//! actually needs it.
//!
//! ⊥ ([`Value::Null`]) is special-cased as [`Symbol::NULL`] (symbol 0),
//! reserved at construction so the paper's non-existence conventions
//! (`sim(⊥,⊥) = 1`, `sim(⊥, v) = 0`) can be tested without resolving
//! anything.
//!
//! The reduction layer gets the same treatment through the [`KeyPool`]
//! sidecar: sorting/blocking **key prefixes** are rendered once per
//! distinct `(value, prefix length)` at intern time and handled as dense
//! [`KeySymbol`]s from there on, so multi-pass sorted-neighborhood and
//! blocking never allocate key strings in their passes (see
//! `probdedup_reduction::key::KeyTable`).

use crate::util::FxHashMap;
use crate::value::Value;

/// A dense handle for one distinct [`Value`] in a [`ValuePool`].
///
/// Symbols are only meaningful relative to the pool that issued them; they
/// are assigned contiguously from 0 in interning order, so they can index
/// side tables directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The reserved symbol of the non-existence marker `⊥`
    /// ([`Value::Null`]). Every pool assigns it at construction.
    pub const NULL: Symbol = Symbol(0);

    /// The raw dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` (for packing into cache keys).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Whether this is the `⊥` symbol.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// An interner mapping each distinct [`Value`] to a dense [`Symbol`].
///
/// Interning is idempotent: the same value always yields the same symbol,
/// and `resolve` returns a value equal to the one interned. Typical use is
/// a single-threaded interning pass over a prepared relation followed by
/// read-only shared access from worker threads (all query methods take
/// `&self`).
#[derive(Debug, Clone)]
pub struct ValuePool {
    map: FxHashMap<Value, Symbol>,
    values: Vec<Value>,
}

impl Default for ValuePool {
    fn default() -> Self {
        Self::new()
    }
}

impl ValuePool {
    /// An empty pool (containing only the reserved `⊥` entry).
    pub fn new() -> Self {
        let mut pool = Self {
            map: FxHashMap::default(),
            values: Vec::new(),
        };
        let null = pool.intern(&Value::Null);
        debug_assert_eq!(null, Symbol::NULL);
        pool
    }

    /// Intern `v`, returning its (new or existing) symbol.
    pub fn intern(&mut self, v: &Value) -> Symbol {
        if let Some(&sym) = self.map.get(v) {
            return sym;
        }
        let sym = Symbol(
            u32::try_from(self.values.len()).expect("more than u32::MAX distinct values interned"),
        );
        self.values.push(v.clone());
        self.map.insert(v.clone(), sym);
        sym
    }

    /// The symbol of `v`, if it has been interned.
    pub fn lookup(&self, v: &Value) -> Option<Symbol> {
        self.map.get(v).copied()
    }

    /// The value behind a symbol issued by this pool.
    ///
    /// # Panics
    ///
    /// Panics if the symbol was issued by a different (larger) pool.
    pub fn resolve(&self, sym: Symbol) -> &Value {
        &self.values[sym.index()]
    }

    /// Number of distinct interned values (including the reserved `⊥`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the pool holds only the reserved `⊥` entry.
    pub fn is_empty(&self) -> bool {
        self.values.len() <= 1
    }

    /// All interned `(Symbol, Value)` entries in symbol order (starting at
    /// the reserved `⊥`).
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Value)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (Symbol(i as u32), v))
    }
}

/// Dense per-symbol side storage over a [`ValuePool`].
///
/// Symbols are assigned contiguously from 0, so a sidecar is just a slab
/// indexed by [`Symbol::index`] — this is where derived per-value state
/// (e.g. the precomputed text-kernel tables of `probdedup-matching`'s
/// interned miss path) hangs off the interner without touching the pool
/// itself. Built once single-threaded, then shared read-only; a persistent
/// session that grows its pool append-only catches the map up with
/// [`SymbolMap::extend`] between (not during) read phases.
#[derive(Debug, Clone)]
pub struct SymbolMap<T> {
    slots: Vec<T>,
}

impl<T> SymbolMap<T> {
    /// Build one entry per interned symbol of `pool` (including `⊥`).
    pub fn build(pool: &ValuePool, f: impl FnMut((Symbol, &Value)) -> T) -> Self {
        Self {
            slots: pool.iter().map(f).collect(),
        }
    }

    /// Grow the map to cover symbols interned into `pool` after this map
    /// was built (or last extended): `f` runs once for each symbol in
    /// `self.len()..pool.len()`, in symbol order. A no-op when the pool
    /// has not grown. Existing entries are untouched, so side state keyed
    /// on old symbols (sidecars, tables) stays valid — this is how warm
    /// sessions carry per-symbol state across incremental ingests.
    pub fn extend(&mut self, pool: &ValuePool, f: impl FnMut((Symbol, &Value)) -> T) {
        debug_assert!(pool.len() >= self.slots.len(), "pools only grow");
        self.slots.extend(pool.iter().skip(self.slots.len()).map(f));
    }

    /// The entry of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was issued by a different (larger) pool.
    #[inline]
    pub fn get(&self, sym: Symbol) -> &T {
        &self.slots[sym.index()]
    }

    /// Number of entries (== the pool's [`ValuePool::len`] at build time).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the map has no entries (only for maps built off a
    /// non-standard empty pool).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// A dense handle for one distinct **rendered key string** in a [`KeyPool`].
///
/// Key symbols are the reduction layer's analogue of [`Symbol`]: blocking
/// buckets and sorted-neighborhood entries carry a `KeySymbol` instead of an
/// owned `String`, so multi-pass methods never re-render or re-hash key
/// text. Like value symbols they are dense (assigned contiguously from 0 in
/// interning order) and only meaningful relative to the pool that issued
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeySymbol(u32);

impl KeySymbol {
    /// The reserved symbol of the empty key `""` — the key a `⊥` value
    /// contributes (the paper's `(John, ⊥) → "Joh"` convention renders ⊥
    /// as the empty string). Every pool assigns it at construction.
    pub const EMPTY: KeySymbol = KeySymbol(0);

    /// The raw dense index (usable against side tables such as
    /// [`KeyRanks`]).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32`.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Whether this is the empty-key symbol.
    #[inline]
    pub fn is_empty_key(self) -> bool {
        self.0 == 0
    }
}

/// An interner for **rendered key prefixes**: the sidecar that makes
/// blocking and sorted-neighborhood keys allocation-free after the first
/// sight of a value.
///
/// Sorting/blocking keys are concatenations of per-attribute value prefixes
/// (e.g. the paper's `(John, pilot) → "Johpi"`). The string-rendering path
/// re-renders those prefixes for every pass of every multi-pass method; a
/// `KeyPool` instead renders each distinct `(value, prefix length)`
/// combination **once** ([`KeyPool::prefix_of`]), interns the result, and
/// memoizes part concatenations ([`KeyPool::concat`]), so later passes are
/// pure integer work. [`KeyPool::render_count`] counts prefix-cache
/// misses — the only events that read a value's text (via
/// [`Value::render`] or the in-place text fast path) — and the reduction
/// property tests assert it stays flat across SNM passes ≥ 2.
///
/// Lexicographic order (what SNM sorts by) is recovered without touching
/// strings via [`KeyPool::lexicographic_ranks`].
#[derive(Debug, Clone)]
pub struct KeyPool {
    /// Hash-bucketed dedup index: `FxHash(key) → symbols with that hash`
    /// (almost always exactly one — collisions chain through
    /// [`KeyBucket`]). Keying on the hash instead of an owned string means
    /// interning a **new** key stores its text exactly once, in `keys`;
    /// the old `FxHashMap<Box<str>, _>` design paid a second allocation
    /// per distinct key for the map's own copy.
    map: FxHashMap<u64, KeyBucket>,
    keys: Vec<Box<str>>,
    /// `(value symbol, prefix length) → key symbol` memo, packed as
    /// `sym << 32 | len`; the only place values are rendered. `len` is one
    /// constant per key part, so the low half of every key is shared — a
    /// hasher must mix the high half into the bucket bits (the finalizer
    /// of [`FxHasher`](crate::util::FxHasher) does).
    prefix_cache: FxHashMap<u64, KeySymbol>,
    /// `(left, right) key symbols → concatenated key symbol` memo, packed
    /// as `left << 32 | right` so a cache hit allocates nothing; many keys
    /// share a `right` piece, which the hasher's finalizer spreads.
    concat_cache: FxHashMap<u64, KeySymbol>,
    renders: u64,
}

impl Default for KeyPool {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyPool {
    /// An empty pool (containing only the reserved `""` entry).
    pub fn new() -> Self {
        let mut pool = Self {
            map: FxHashMap::default(),
            keys: Vec::new(),
            prefix_cache: FxHashMap::default(),
            concat_cache: FxHashMap::default(),
            renders: 0,
        };
        let empty = pool.intern_str("");
        debug_assert_eq!(empty, KeySymbol::EMPTY);
        pool
    }

    /// Intern an already-rendered key string (idempotent). A distinct key
    /// costs exactly **one** allocation — the `Box<str>` in the symbol
    /// table; the dedup index stores only its hash.
    pub fn intern_str(&mut self, s: &str) -> KeySymbol {
        let h = hash_key_str(s);
        if let Some(bucket) = self.map.get(&h) {
            for k in bucket.iter() {
                if &*self.keys[k.index()] == s {
                    return k;
                }
            }
        }
        let k = KeySymbol(
            u32::try_from(self.keys.len()).expect("more than u32::MAX distinct keys interned"),
        );
        self.keys.push(s.into());
        self.map
            .entry(h)
            .and_modify(|bucket| bucket.push(k))
            .or_insert(KeyBucket::One(k));
        k
    }

    /// The key symbol of the first `prefix_len` characters of `sym`'s
    /// rendered value (`0` = the whole value). The value is rendered **at
    /// most once per distinct `(sym, prefix_len)`**; `⊥` short-circuits to
    /// [`KeySymbol::EMPTY`] without rendering anything.
    ///
    /// The prefix memo is keyed on the symbol's raw index, so a `KeyPool`
    /// must only ever be used with **one** `ValuePool`: feeding symbols
    /// from a second pool would alias its indices onto the first pool's
    /// cached prefixes and silently return wrong keys. Debug builds assert
    /// this by re-deriving cached prefixes.
    pub fn prefix_of(&mut self, pool: &ValuePool, sym: Symbol, prefix_len: usize) -> KeySymbol {
        if sym.is_null() {
            return KeySymbol::EMPTY;
        }
        let len32 = u32::try_from(prefix_len).unwrap_or(u32::MAX);
        let cache_key = (u64::from(sym.raw()) << 32) | u64::from(len32);
        if let Some(&k) = self.prefix_cache.get(&cache_key) {
            debug_assert_eq!(
                self.resolve(k),
                str_prefix(&pool.resolve(sym).render(), prefix_len),
                "KeyPool used with a second ValuePool: symbol {} aliases a cached prefix",
                sym.raw(),
            );
            return k;
        }
        self.renders += 1;
        let value = pool.resolve(sym);
        // Text values (the typical key attribute) are sliced in place —
        // a miss allocates only inside `intern_str`, nothing transient.
        let k = match value.as_text() {
            Some(s) => self.intern_str(str_prefix(s, prefix_len)),
            None => {
                let rendered = value.render();
                self.intern_str(str_prefix(&rendered, prefix_len))
            }
        };
        self.prefix_cache.insert(cache_key, k);
        k
    }

    /// The key symbol of `a` followed by `b` (memoized under the packed
    /// `(a, b)` pair — a hit is one hash probe, no allocation). Empty
    /// operands short-circuit.
    pub fn concat2(&mut self, a: KeySymbol, b: KeySymbol) -> KeySymbol {
        if a.is_empty_key() {
            return b;
        }
        if b.is_empty_key() {
            return a;
        }
        let cache_key = (u64::from(a.raw()) << 32) | u64::from(b.raw());
        if let Some(&k) = self.concat_cache.get(&cache_key) {
            return k;
        }
        let mut s = String::with_capacity(self.resolve(a).len() + self.resolve(b).len());
        s.push_str(self.resolve(a));
        s.push_str(self.resolve(b));
        let k = self.intern_str(&s);
        self.concat_cache.insert(cache_key, k);
        k
    }

    /// The key symbol of the concatenation of `parts`: a left fold over
    /// [`KeyPool::concat2`], so every prefix of the part sequence is
    /// memoized too. Zero parts yield [`KeySymbol::EMPTY`].
    pub fn concat(&mut self, parts: &[KeySymbol]) -> KeySymbol {
        parts
            .iter()
            .fold(KeySymbol::EMPTY, |acc, &p| self.concat2(acc, p))
    }

    /// The rendered key string behind a symbol issued by this pool.
    ///
    /// # Panics
    ///
    /// Panics if the symbol was issued by a different (larger) pool.
    #[inline]
    pub fn resolve(&self, k: KeySymbol) -> &str {
        &self.keys[k.index()]
    }

    /// Number of distinct interned keys (including the reserved `""`).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the pool holds only the reserved `""` entry.
    pub fn is_empty(&self) -> bool {
        self.keys.len() <= 1
    }

    /// How many prefix-cache misses have occurred — i.e. how many times a
    /// [`Value`]'s text was actually read to extract a key prefix (text
    /// values are sliced in place; other variants go through
    /// [`Value::render`]). Flat counts across repeated key extraction
    /// prove the caching works — the reduction layer's multi-pass tests
    /// assert passes ≥ 2 add **zero**.
    pub fn render_count(&self) -> u64 {
        self.renders
    }

    /// All interned `(KeySymbol, &str)` entries in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (KeySymbol, &str)> + '_ {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, s)| (KeySymbol(i as u32), s.as_ref()))
    }

    /// Freeze the pool's current contents into a rank table:
    /// `rank(a) < rank(b) ⟺ resolve(a) < resolve(b)`. Sorting entries by
    /// rank is byte-identical to sorting by key string, in `O(1)` integer
    /// compares — this is what makes SNM passes ≥ 2 sort-only.
    ///
    /// Ranks cover the keys interned so far; symbols interned later are out
    /// of range for the returned table.
    pub fn lexicographic_ranks(&self) -> KeyRanks {
        let mut order: Vec<u32> = (0..self.keys.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| self.keys[a as usize].cmp(&self.keys[b as usize]));
        let mut ranks = vec![0u32; self.keys.len()].into_boxed_slice();
        for (rank, &sym) in order.iter().enumerate() {
            ranks[sym as usize] = rank as u32;
        }
        KeyRanks { ranks }
    }
}

/// One hash bucket of the [`KeyPool`] dedup index: the symbols whose key
/// strings share an `FxHash` value. Inline for the overwhelmingly common
/// singleton case (no allocation), spilling into a `Vec` on collision.
#[derive(Debug, Clone)]
enum KeyBucket {
    One(KeySymbol),
    Many(Vec<KeySymbol>),
}

impl KeyBucket {
    fn iter(&self) -> impl Iterator<Item = KeySymbol> + '_ {
        match self {
            KeyBucket::One(k) => std::slice::from_ref(k).iter().copied(),
            KeyBucket::Many(ks) => ks.iter().copied(),
        }
    }

    fn push(&mut self, k: KeySymbol) {
        match self {
            KeyBucket::One(first) => *self = KeyBucket::Many(vec![*first, k]),
            KeyBucket::Many(ks) => ks.push(k),
        }
    }
}

/// The `FxHash` of a key string (the [`KeyPool`] dedup index key).
fn hash_key_str(s: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = crate::util::FxHasher::default();
    s.hash(&mut h);
    h.finish()
}

/// The first `prefix_len` characters of `s` as a subslice (`0` = all of
/// `s`), without allocating.
fn str_prefix(s: &str, prefix_len: usize) -> &str {
    if prefix_len == 0 {
        return s;
    }
    match s.char_indices().nth(prefix_len) {
        Some((end, _)) => &s[..end],
        None => s,
    }
}

/// Lexicographic ranks of a frozen [`KeyPool`] (see
/// [`KeyPool::lexicographic_ranks`]): a dense `KeySymbol → u32` table whose
/// order agrees with the key strings' byte order.
#[derive(Debug, Clone)]
pub struct KeyRanks {
    ranks: Box<[u32]>,
}

impl KeyRanks {
    /// Build a rank table from a **complete sorted order** of a pool's
    /// symbols: `order[i]` is the symbol with rank `i`, and every symbol
    /// of the pool appears exactly once. This is the incremental-growth
    /// companion of [`KeyPool::lexicographic_ranks`]: a session that keeps
    /// the sorted symbol order resident only has to *insert* newly
    /// interned keys into it (no re-sort) and rebuild the dense rank array
    /// in `O(len)`.
    pub fn from_sorted(order: &[KeySymbol]) -> Self {
        let mut ranks = vec![0u32; order.len()].into_boxed_slice();
        for (rank, &sym) in order.iter().enumerate() {
            ranks[sym.index()] = rank as u32;
        }
        Self { ranks }
    }

    /// The rank of `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` was interned after this table was built (or by a
    /// different pool).
    #[inline]
    pub fn rank(&self, k: KeySymbol) -> u32 {
        self.ranks[k.index()]
    }

    /// Number of ranked keys.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Whether the table is empty (built off a non-standard empty pool).
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut pool = ValuePool::new();
        let a1 = pool.intern(&Value::from("Tim"));
        let a2 = pool.intern(&Value::from("Tim"));
        assert_eq!(a1, a2);
        assert_eq!(pool.len(), 2); // ⊥ + "Tim"
    }

    #[test]
    fn symbols_are_dense_and_stable() {
        let mut pool = ValuePool::new();
        let tim = pool.intern(&Value::from("Tim"));
        let kim = pool.intern(&Value::from("Kim"));
        let n30 = pool.intern(&Value::Int(30));
        assert_eq!(tim.index(), 1);
        assert_eq!(kim.index(), 2);
        assert_eq!(n30.index(), 3);
        // Re-interning earlier values does not disturb assignments.
        assert_eq!(pool.intern(&Value::from("Tim")), tim);
        assert_eq!(pool.resolve(kim), &Value::from("Kim"));
        assert_eq!(pool.resolve(n30), &Value::Int(30));
    }

    #[test]
    fn null_is_reserved_symbol_zero() {
        let mut pool = ValuePool::new();
        assert_eq!(pool.intern(&Value::Null), Symbol::NULL);
        assert!(Symbol::NULL.is_null());
        assert!(pool.lookup(&Value::Null).expect("⊥ preinterned").is_null());
        assert_eq!(pool.resolve(Symbol::NULL), &Value::Null);
        // A fresh pool is "empty" despite the reserved entry.
        assert!(ValuePool::new().is_empty());
        assert!(!pool.is_empty() || pool.len() == 1);
    }

    #[test]
    fn distinct_values_get_distinct_symbols() {
        let mut pool = ValuePool::new();
        // Cross-variant values that render identically must stay distinct.
        let text = pool.intern(&Value::from("30"));
        let int = pool.intern(&Value::Int(30));
        let real = pool.intern(&Value::Real(30.0));
        assert_ne!(text, int);
        assert_ne!(int, real);
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn lookup_misses_report_none() {
        let pool = ValuePool::new();
        assert_eq!(pool.lookup(&Value::from("absent")), None);
    }

    #[test]
    fn iter_yields_symbols_in_order() {
        let mut pool = ValuePool::new();
        let tim = pool.intern(&Value::from("Tim"));
        let n30 = pool.intern(&Value::Int(30));
        let entries: Vec<(Symbol, Value)> = pool.iter().map(|(s, v)| (s, v.clone())).collect();
        assert_eq!(
            entries,
            vec![
                (Symbol::NULL, Value::Null),
                (tim, Value::from("Tim")),
                (n30, Value::Int(30)),
            ]
        );
    }

    #[test]
    fn symbol_map_is_dense_per_symbol_storage() {
        let mut pool = ValuePool::new();
        let tim = pool.intern(&Value::from("Tim"));
        let kim = pool.intern(&Value::from("Kimberly"));
        let map = SymbolMap::build(&pool, |(_, v)| match v {
            Value::Text(s) => s.len(),
            _ => 0,
        });
        assert_eq!(map.len(), pool.len());
        assert!(!map.is_empty());
        assert_eq!(*map.get(Symbol::NULL), 0);
        assert_eq!(*map.get(tim), 3);
        assert_eq!(*map.get(kim), 8);
    }

    #[test]
    fn float_canonicalization_is_respected() {
        // Value's Eq unifies -0.0/0.0 and NaNs; interning must follow.
        let mut pool = ValuePool::new();
        let zero = pool.intern(&Value::Real(0.0));
        let neg_zero = pool.intern(&Value::Real(-0.0));
        assert_eq!(zero, neg_zero);
    }

    #[test]
    fn key_pool_renders_each_prefix_once() {
        let mut vp = ValuePool::new();
        let john = vp.intern(&Value::from("John"));
        let mut kp = KeyPool::new();
        let k1 = kp.prefix_of(&vp, john, 3);
        assert_eq!(kp.resolve(k1), "Joh");
        assert_eq!(kp.render_count(), 1);
        // Same (symbol, len): cached, no new render.
        assert_eq!(kp.prefix_of(&vp, john, 3), k1);
        assert_eq!(kp.render_count(), 1);
        // Different len: one more render, distinct key.
        let k2 = kp.prefix_of(&vp, john, 2);
        assert_eq!(kp.resolve(k2), "Jo");
        assert_eq!(kp.render_count(), 2);
    }

    #[test]
    fn key_pool_null_is_empty_without_render() {
        let vp = ValuePool::new();
        let mut kp = KeyPool::new();
        assert_eq!(kp.prefix_of(&vp, Symbol::NULL, 3), KeySymbol::EMPTY);
        assert!(KeySymbol::EMPTY.is_empty_key());
        assert_eq!(kp.resolve(KeySymbol::EMPTY), "");
        assert_eq!(kp.render_count(), 0);
    }

    #[test]
    fn key_pool_prefix_len_zero_takes_whole_value() {
        let mut vp = ValuePool::new();
        let sym = vp.intern(&Value::from("Johannes"));
        let mut kp = KeyPool::new();
        let k = kp.prefix_of(&vp, sym, 0);
        assert_eq!(kp.resolve(k), "Johannes");
    }

    #[test]
    fn key_pool_prefix_counts_chars_not_bytes() {
        let mut vp = ValuePool::new();
        let sym = vp.intern(&Value::from("Łukasz"));
        let mut kp = KeyPool::new();
        let k = kp.prefix_of(&vp, sym, 3);
        assert_eq!(kp.resolve(k), "Łuk");
    }

    #[test]
    fn key_pool_concat_memoizes() {
        let mut kp = KeyPool::new();
        let a = kp.intern_str("Joh");
        let b = kp.intern_str("pi");
        let ab = kp.concat(&[a, b]);
        assert_eq!(kp.resolve(ab), "Johpi");
        assert_eq!(kp.concat(&[a, b]), ab);
        // Degenerate shapes.
        assert_eq!(kp.concat(&[]), KeySymbol::EMPTY);
        assert_eq!(kp.concat(&[a]), a);
        assert_eq!(kp.concat(&[KeySymbol::EMPTY, a]), a); // "" + "Joh" = "Joh"
    }

    #[test]
    fn key_bucket_collision_chain_stays_ordered() {
        let mut b = KeyBucket::One(KeySymbol(1));
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![KeySymbol(1)]);
        b.push(KeySymbol(7));
        b.push(KeySymbol(3));
        assert_eq!(
            b.iter().collect::<Vec<_>>(),
            vec![KeySymbol(1), KeySymbol(7), KeySymbol(3)]
        );
    }

    #[test]
    fn intern_str_dedups_across_many_keys() {
        let mut kp = KeyPool::new();
        let syms: Vec<KeySymbol> = (0..500)
            .map(|i| kp.intern_str(&format!("k{i:03}")))
            .collect();
        assert_eq!(kp.len(), 501); // + reserved ""
        for (i, &k) in syms.iter().enumerate() {
            assert_eq!(kp.resolve(k), format!("k{i:03}"));
            assert_eq!(
                kp.intern_str(&format!("k{i:03}")),
                k,
                "re-intern changed symbol"
            );
        }
        assert_eq!(kp.len(), 501);
    }

    #[test]
    fn symbol_map_extend_covers_pool_growth() {
        let mut pool = ValuePool::new();
        let tim = pool.intern(&Value::from("Tim"));
        let mut map = SymbolMap::build(&pool, |(_, v)| v.render().len());
        assert_eq!(map.len(), 2);
        let kim = pool.intern(&Value::from("Kimberly"));
        map.extend(&pool, |(_, v)| v.render().len());
        assert_eq!(map.len(), pool.len());
        assert_eq!(*map.get(tim), 3); // untouched
        assert_eq!(*map.get(kim), 8);
        // No growth → no-op (the closure must not run).
        map.extend(&pool, |_| panic!("no new symbols"));
    }

    #[test]
    fn key_ranks_from_sorted_matches_full_rebuild() {
        let mut kp = KeyPool::new();
        for s in ["Johpi", "Jimba", "Tomme", "Łuk"] {
            kp.intern_str(s);
        }
        let full = kp.lexicographic_ranks();
        let mut order: Vec<KeySymbol> = kp.iter().map(|(k, _)| k).collect();
        order.sort_by(|&a, &b| kp.resolve(a).cmp(kp.resolve(b)));
        let incremental = KeyRanks::from_sorted(&order);
        for (k, _) in kp.iter() {
            assert_eq!(incremental.rank(k), full.rank(k));
        }
    }

    #[test]
    fn key_ranks_agree_with_string_order() {
        let mut kp = KeyPool::new();
        let strings = ["Johpi", "Jimba", "", "Tomme", "Joh", "Łuk", "Seapi"];
        let syms: Vec<KeySymbol> = strings.iter().map(|s| kp.intern_str(s)).collect();
        let ranks = kp.lexicographic_ranks();
        assert_eq!(ranks.len(), kp.len());
        for (i, &a) in syms.iter().enumerate() {
            for &b in &syms[i + 1..] {
                assert_eq!(
                    ranks.rank(a).cmp(&ranks.rank(b)),
                    kp.resolve(a).cmp(kp.resolve(b)),
                    "{:?} vs {:?}",
                    kp.resolve(a),
                    kp.resolve(b)
                );
            }
        }
    }
}
