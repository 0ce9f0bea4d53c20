//! The interned matching hot path: Eq. 5 over [`Symbol`]s instead of
//! [`Value`](probdedup_model::value::Value)s.
//!
//! The pipeline interns every distinct attribute value of the (prepared)
//! relation once into a [`ValuePool`], converting each x-tuple into an
//! [`InternedXTuple`] whose supports are `(Symbol, probability)` pairs held
//! in **descending probability order**. From then on the quadratic matching
//! stage touches no strings:
//!
//! * similarity-cache keys are one packed `u64` per symbol pair
//!   ([`SymbolCache`]), probed through a sharded read-mostly table;
//! * the ⊥ conventions are integer tests on [`Symbol::NULL`];
//! * the original [`Value`](probdedup_model::value::Value) is resolved
//!   only on a cache miss, when the
//!   kernel genuinely has to run.
//!
//! The descending-probability layout also enables the **upper-bound
//! pruning** of [`interned_pvalue_similarity`]: because every kernel value
//! is ≤ 1, the contribution of all unvisited terms is bounded by the
//! remaining probability mass, and iteration stops as soon as that bound
//! cannot move the accumulated sum by more than [`PRUNE_EPS`] (or the sum
//! has already saturated at 1, where clamping makes further terms exactly
//! irrelevant). The result differs from the exhaustive sum by less than
//! `(|supp(a₁)| + 1) · PRUNE_EPS` — far below every tolerance the paper's
//! figures are checked against (property-tested at 1e-12).

use probdedup_model::intern::{Symbol, SymbolMap, ValuePool};
use probdedup_model::pvalue::PValue;
use probdedup_model::xtuple::XTuple;

use crate::bounded::BoundedSim;
use crate::cache::SymbolCache;
use crate::matrix::ComparisonMatrix;
use crate::value_cmp::{PreparedValue, ValueComparator};
use crate::vector::{AttributeComparators, ComparisonVector};

/// Mass threshold below which remaining Eq. 5 terms are pruned: their total
/// contribution is bounded by this value, three orders of magnitude below
/// the tightest tolerance (1e-12) any test or figure check uses.
pub const PRUNE_EPS: f64 = 1e-15;

/// An interned probabilistic attribute value: the support as symbols with
/// probabilities in **descending probability order**, plus the precomputed
/// ⊥ mass and existence mass Eq. 5's pruning bound needs.
#[derive(Debug, Clone)]
pub struct InternedPValue {
    /// `(symbol, probability)`, sorted by descending probability (ties
    /// broken by symbol for determinism).
    alts: Vec<(Symbol, f64)>,
    /// Implicit ⊥ mass (`1 − Σp`, clamped at 0).
    null_prob: f64,
    /// **Uncapped** probability sum `Σp` — the pruning budget (see
    /// `pruned_expected_similarity`; a support may sum to `1 + ε` within
    /// the model's tolerance and the budget must cover all of it).
    mass: f64,
}

/// Which attributes each interned symbol occurs in, as a dense per-symbol
/// bitmask sidecar (attributes ≥ 63 share the top bit, conservatively).
///
/// Recorded during [`intern_tuples_tracked`] and consumed by
/// [`InternedComparators::with_usage`]: Myers `Peq` tables (~1 KiB per
/// string) are built **only** for symbols that actually appear in an
/// attribute whose kernel asks for pattern bits — on mixed-kernel schemas
/// the shared pool no longer pays for every symbol because one attribute's
/// kernel is bit-parallel.
#[derive(Debug, Clone, Default)]
pub struct AttributeUsage {
    masks: Vec<u64>,
}

impl AttributeUsage {
    /// The bit representing `attr` (attributes ≥ 63 are conflated onto the
    /// top bit — they can only cause over-building, never under-building).
    #[inline]
    fn bit(attr: usize) -> u64 {
        1u64 << attr.min(63)
    }

    /// Record that `sym` occurs in attribute `attr`.
    fn record(&mut self, sym: Symbol, attr: usize) {
        let idx = sym.index();
        if idx >= self.masks.len() {
            self.masks.resize(idx + 1, 0);
        }
        self.masks[idx] |= Self::bit(attr);
    }

    /// Whether `sym` occurs in any attribute of `attr_mask`.
    #[inline]
    fn intersects(&self, sym: Symbol, attr_mask: u64) -> bool {
        self.masks.get(sym.index()).copied().unwrap_or(0) & attr_mask != 0
    }

    /// The combined bit mask of `attrs` (see [`AttributeUsage::bit`]).
    fn mask_of(attrs: impl Iterator<Item = usize>) -> u64 {
        attrs.fold(0u64, |m, a| m | Self::bit(a))
    }
}

/// Whether `sym`'s sidecar should carry Myers pattern bits under the
/// given policy: usage-tracked (lazy) when `usage` is supplied, otherwise
/// eager for every symbol whenever any kernel wants bits.
#[inline]
fn wants_bits(sym: Symbol, bits_mask: u64, usage: Option<&AttributeUsage>) -> bool {
    match usage {
        Some(u) => u.intersects(sym, bits_mask),
        None => bits_mask != 0,
    }
}

impl InternedPValue {
    /// Intern one [`PValue`]'s support into `pool`.
    pub fn from_pvalue(pool: &mut ValuePool, pv: &PValue) -> Self {
        let mut alts: Vec<(Symbol, f64)> = pv
            .alternatives()
            .iter()
            .map(|(v, p)| (pool.intern(v), *p))
            .collect();
        alts.sort_by(|(sa, pa), (sb, pb)| {
            pb.partial_cmp(pa)
                .expect("finite probabilities")
                .then(sa.cmp(sb))
        });
        let mass = crate::pvalue_sim::support_mass(&alts);
        Self {
            alts,
            null_prob: pv.null_prob(),
            mass,
        }
    }

    /// The support, descending by probability.
    pub fn alternatives(&self) -> &[(Symbol, f64)] {
        &self.alts
    }

    /// The ⊥ mass.
    pub fn null_prob(&self) -> f64 {
        self.null_prob
    }
}

/// One interned x-tuple alternative: a full row of interned values with the
/// alternative's probability.
#[derive(Debug, Clone)]
pub struct InternedRow {
    values: Vec<InternedPValue>,
    probability: f64,
}

impl InternedRow {
    /// The interned value of attribute `i`.
    pub fn value(&self, i: usize) -> &InternedPValue {
        &self.values[i]
    }

    /// The alternative's probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }
}

/// An interned x-tuple: the symbol-level mirror of [`XTuple`] the matching
/// stage iterates instead of the original.
#[derive(Debug, Clone)]
pub struct InternedXTuple {
    alternatives: Vec<InternedRow>,
}

impl InternedXTuple {
    /// Intern every alternative of `t` into `pool`.
    pub fn from_xtuple(pool: &mut ValuePool, t: &XTuple) -> Self {
        Self::build(pool, t, None)
    }

    /// [`from_xtuple`](Self::from_xtuple) while recording which attribute
    /// each symbol occurs in (for the lazy per-attribute `Peq` sidecars of
    /// [`InternedComparators::with_usage`]).
    pub fn from_xtuple_tracked(
        pool: &mut ValuePool,
        t: &XTuple,
        usage: &mut AttributeUsage,
    ) -> Self {
        Self::build(pool, t, Some(usage))
    }

    fn build(pool: &mut ValuePool, t: &XTuple, mut usage: Option<&mut AttributeUsage>) -> Self {
        Self {
            alternatives: t
                .alternatives()
                .iter()
                .map(|alt| InternedRow {
                    values: alt
                        .values()
                        .iter()
                        .enumerate()
                        .map(|(attr, pv)| {
                            let ipv = InternedPValue::from_pvalue(pool, pv);
                            if let Some(usage) = usage.as_deref_mut() {
                                for &(sym, _) in &ipv.alts {
                                    usage.record(sym, attr);
                                }
                            }
                            ipv
                        })
                        .collect(),
                    probability: alt.probability(),
                })
                .collect(),
        }
    }

    /// The interned alternatives.
    pub fn alternatives(&self) -> &[InternedRow] {
        &self.alternatives
    }

    /// Number of alternatives.
    pub fn len(&self) -> usize {
        self.alternatives.len()
    }

    /// Whether the x-tuple has no alternatives (never true for valid input).
    pub fn is_empty(&self) -> bool {
        self.alternatives.is_empty()
    }
}

/// Intern a whole relation; returns the frozen pool and the interned
/// mirror of `tuples` (index-aligned).
pub fn intern_tuples(tuples: &[XTuple]) -> (ValuePool, Vec<InternedXTuple>) {
    let mut pool = ValuePool::new();
    let interned = tuples
        .iter()
        .map(|t| InternedXTuple::from_xtuple(&mut pool, t))
        .collect();
    (pool, interned)
}

/// [`intern_tuples`] with per-attribute symbol-usage tracking — feed the
/// returned [`AttributeUsage`] to [`InternedComparators::with_usage`] so
/// Myers tables are only built where a kernel will read them.
pub fn intern_tuples_tracked(
    tuples: &[XTuple],
) -> (ValuePool, Vec<InternedXTuple>, AttributeUsage) {
    let mut pool = ValuePool::new();
    let mut usage = AttributeUsage::default();
    let interned = intern_tuples_into(&mut pool, &mut usage, tuples);
    (pool, interned, usage)
}

/// Intern `tuples` into an **existing** pool (growing it append-only) with
/// usage tracking — the incremental-ingest path of persistent sessions:
/// values already in the pool cost one hash probe, new tuples' interned
/// mirrors are returned, and symbols issued earlier stay valid (so warm
/// [`SymbolCache`]s and [`PreparedValue`] sidecars carry over; catch the
/// sidecars up with [`InternedComparators::sync_pool`] afterwards).
pub fn intern_tuples_into(
    pool: &mut ValuePool,
    usage: &mut AttributeUsage,
    tuples: &[XTuple],
) -> Vec<InternedXTuple> {
    tuples
        .iter()
        .map(|t| InternedXTuple::from_xtuple_tracked(pool, t, usage))
        .collect()
}

/// One attribute's memo dump — `(exact entries, verdict entries)`, each a
/// `(packed symbol pair, value)` list sorted by key. Produced by
/// [`InternedComparators::export_cache_entries`], consumed by
/// [`InternedComparators::import_cache_entries`].
pub type AttrCacheDump = (Vec<(u64, f64)>, Vec<(u64, f64)>);

/// Per-attribute kernels + sharded symbol caches over a pool: the
/// read-only context worker threads share during interned matching.
///
/// Alongside the caches, a per-symbol sidecar ([`SymbolMap`]) holds each
/// distinct value's prepared comparison state ([`PreparedValue`]: ASCII
/// class, character length, and — when a kernel asks for it — the Myers
/// `Peq` pattern bitmasks). The cache-miss kernel evaluation therefore
/// never re-scans a string it has seen before: interning pays a second
/// time by hanging the precomputation off the dense symbol index.
///
/// The comparators do **not** own the pool: symbols are dense indices, so
/// the sidecar and caches only need the pool's contents at build time. A
/// persistent session that grows its pool append-only (incremental
/// ingest) calls [`InternedComparators::sync_pool`] to extend the sidecar
/// over the new symbols — every memoized similarity and verdict keyed on
/// old symbols stays valid, which is exactly the warm state sessions
/// carry across runs.
pub struct InternedComparators {
    per_attr: Vec<ValueComparator>,
    caches: Vec<SymbolCache>,
    /// Certified below-cut upper bounds per symbol pair, one table per
    /// attribute — the bounded path's verdict memo (entries mean "kernel
    /// similarity < stored value"). Disjoint from the exact caches.
    bound_caches: Vec<SymbolCache>,
    prepared: SymbolMap<PreparedValue>,
    /// Attribute bit mask of kernels that want Myers pattern bits (see
    /// [`AttributeUsage`]); drives sidecar builds in `sync_pool`.
    bits_mask: u64,
}

impl InternedComparators {
    /// Bind `comparators` to `pool`, with one fresh cache per attribute
    /// (per-attribute caches keep entries disjoint when different
    /// attributes use different kernels), and precompute every symbol's
    /// [`PreparedValue`] — including pattern bitmasks iff some attribute's
    /// kernel exploits them.
    pub fn new(pool: &ValuePool, comparators: &AttributeComparators) -> Self {
        Self::build(pool, comparators, None, None)
    }

    /// [`new`](Self::new) with **lazy per-attribute `Peq` sidecars**: a
    /// symbol's Myers table is built only if the symbol occurs (per
    /// `usage`) in an attribute whose kernel reports
    /// [`wants_pattern_bits`](ValueComparator::wants_pattern_bits). On
    /// mixed-kernel schemas with large shared domains this skips the ~1 KiB
    /// table for every symbol the bit-parallel kernel never sees.
    pub fn with_usage(
        pool: &ValuePool,
        comparators: &AttributeComparators,
        usage: &AttributeUsage,
    ) -> Self {
        Self::build(pool, comparators, Some(usage), None)
    }

    /// [`with_usage`](Self::with_usage) with a **memory ceiling**: each
    /// per-attribute cache (exact and verdict alike) holds at most
    /// `capacity` memoized pairs, evicting second-chance style beyond that
    /// (see [`SymbolCache::with_capacity`]). `None` keeps the caches
    /// unbounded — the default everywhere else.
    pub fn with_usage_and_capacity(
        pool: &ValuePool,
        comparators: &AttributeComparators,
        usage: &AttributeUsage,
        capacity: Option<usize>,
    ) -> Self {
        Self::build(pool, comparators, Some(usage), capacity)
    }

    /// [`new`](Self::new) with a memory ceiling but **no** usage tracking:
    /// pattern-bit sidecars are built eagerly for every pool symbol.
    /// Used when comparators must be materialized over a restored pool
    /// with no resident tuples to derive usage from (eager bits can only
    /// over-build, never under-build).
    pub fn with_capacity(
        pool: &ValuePool,
        comparators: &AttributeComparators,
        capacity: Option<usize>,
    ) -> Self {
        Self::build(pool, comparators, None, capacity)
    }

    fn build(
        pool: &ValuePool,
        comparators: &AttributeComparators,
        usage: Option<&AttributeUsage>,
        capacity: Option<usize>,
    ) -> Self {
        let per_attr: Vec<ValueComparator> = (0..comparators.arity())
            .map(|i| comparators.get(i).clone())
            .collect();
        let caches = (0..per_attr.len())
            .map(|_| SymbolCache::with_capacity(capacity))
            .collect();
        let bound_caches = (0..per_attr.len())
            .map(|_| SymbolCache::with_capacity(capacity))
            .collect();
        let bits_mask = AttributeUsage::mask_of(
            (0..comparators.arity()).filter(|&i| comparators.get(i).wants_pattern_bits()),
        );
        let prepared = SymbolMap::build(pool, |(sym, v)| {
            PreparedValue::of(v, wants_bits(sym, bits_mask, usage))
        });
        Self {
            per_attr,
            caches,
            bound_caches,
            prepared,
            bits_mask,
        }
    }

    /// Catch the per-symbol sidecar up with a pool that has **grown
    /// append-only** since this value was built (or last synced): prepared
    /// state is built for the new symbols only, existing entries — and
    /// every cache entry keyed on them — are untouched. Pass the
    /// accumulated `usage` to keep the lazy-`Peq` policy; `None` builds
    /// bits for every new symbol whenever any kernel wants them.
    ///
    /// The pool must be the same one (or an equal-prefix successor of the
    /// one) the comparators were built over: symbols are dense indices,
    /// and aliasing a different pool onto them would silently corrupt
    /// every cache.
    pub fn sync_pool(&mut self, pool: &ValuePool, usage: Option<&AttributeUsage>) {
        let bits_mask = self.bits_mask;
        self.prepared.extend(pool, |(sym, v)| {
            PreparedValue::of(v, wants_bits(sym, bits_mask, usage))
        });
    }

    /// The prepared comparison state of `sym` (inspection/testing — the hot
    /// paths read it internally).
    pub fn prepared(&self, sym: Symbol) -> &PreparedValue {
        self.prepared.get(sym)
    }

    /// Kernel evaluations disposed by a below-bound certificate instead of
    /// an exact value (see the bounded kernel probe `kernel_within`).
    /// Counted per verdict-table shard, like the caches' hits and misses.
    pub fn bound_certs(&self) -> u64 {
        self.bound_caches.iter().map(SymbolCache::certs).sum()
    }

    /// Number of attributes covered.
    pub fn arity(&self) -> usize {
        self.per_attr.len()
    }

    /// Number of distinct symbols the sidecar covers (== the pool's length
    /// at the last build/[`sync_pool`](Self::sync_pool)).
    pub fn interned_values(&self) -> usize {
        self.prepared.len()
    }

    /// Aggregate `(hits, misses)` over all attribute caches.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.caches
            .iter()
            .map(SymbolCache::stats)
            .fold((0, 0), |(h, m), (sh, sm)| (h + sh, m + sm))
    }

    /// Total number of memoized symbol pairs across attributes.
    pub fn cached_pairs(&self) -> usize {
        self.caches.iter().map(SymbolCache::len).sum()
    }

    /// Total entries evicted across all caches (exact and verdict) to
    /// honour a capacity ceiling; 0 for unbounded comparators.
    pub fn cache_evictions(&self) -> u64 {
        self.caches
            .iter()
            .chain(self.bound_caches.iter())
            .map(SymbolCache::evictions)
            .sum()
    }

    /// Deterministic per-attribute dump of both memo tables —
    /// `(exact entries, verdict entries)` per attribute, each sorted by
    /// packed key (see [`SymbolCache::export_entries`]). This is the warm
    /// state a session snapshot serializes.
    pub fn export_cache_entries(&self) -> Vec<AttrCacheDump> {
        self.caches
            .iter()
            .zip(&self.bound_caches)
            .map(|(exact, bound)| (exact.export_entries(), bound.export_entries()))
            .collect()
    }

    /// Restore a dump made by
    /// [`export_cache_entries`](Self::export_cache_entries), validating
    /// every packed key against the sidecar's symbol range: both packed
    /// symbols must be non-⊥, in canonical (smaller-first) order, and
    /// within the pool the comparators were built over. A dump whose
    /// attribute count disagrees with this arity is rejected outright.
    pub fn import_cache_entries(
        &self,
        per_attr: &[AttrCacheDump],
    ) -> Result<(), probdedup_model::SnapshotError> {
        use probdedup_model::SnapshotError;
        if per_attr.len() != self.per_attr.len() {
            return Err(SnapshotError::Malformed {
                context: "cache dump attribute count",
            });
        }
        let limit = self.prepared.len() as u64;
        let check = |entries: &[(u64, f64)], context: &'static str| {
            for &(key, _) in entries {
                let lo = key >> 32;
                let hi = key & 0xffff_ffff;
                if lo == 0 || lo > hi || hi >= limit {
                    return Err(SnapshotError::InvalidSymbol {
                        context,
                        raw: key,
                        limit,
                    });
                }
            }
            Ok(())
        };
        for (entries, _) in per_attr {
            check(entries, "similarity cache symbol pair")?;
        }
        for (_, entries) in per_attr {
            check(entries, "verdict cache symbol pair")?;
        }
        for (attr, (exact, bound)) in per_attr.iter().enumerate() {
            self.caches[attr].import_entries(exact.iter().copied());
            self.bound_caches[attr].import_entries(bound.iter().copied());
        }
        Ok(())
    }

    /// Memoized kernel similarity of two non-⊥ symbols for attribute
    /// `attr`. ⊥ must be handled by the caller.
    ///
    /// The kernel is evaluated on the **canonical** (smaller-symbol-first)
    /// orientation — the same one the cache key encodes — so that even a
    /// non-symmetric user kernel yields one deterministic memoized value
    /// regardless of which worker thread computes the pair first. The
    /// miss path runs over the per-symbol [`PreparedValue`]s, so each
    /// string's ASCII class / length / pattern bitmasks were computed
    /// exactly once, at interning time.
    #[inline]
    fn kernel(&self, attr: usize, a: Symbol, b: Symbol) -> f64 {
        debug_assert!(!a.is_null() && !b.is_null());
        let (lo, hi) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        self.caches[attr].get_or_compute(lo, hi, || {
            self.per_attr[attr].similarity_prepared(self.prepared.get(lo), self.prepared.get(hi))
        })
    }

    /// **Bounded** memoized kernel similarity of two non-⊥ symbols:
    /// `Some(exact)` or a certificate that the similarity is `< bound`.
    ///
    /// Probe order: identical symbols (reflexivity, free) → the exact cache
    /// → the verdict cache (a stored upper bound `≤ bound` answers without
    /// any kernel) → the bounded kernel itself, whose outcome is memoized
    /// on the matching side (exact value or improved verdict). A pair the
    /// bounds ever certified is never kernel-evaluated again for an
    /// equal-or-looser cut. In bounded runs the exact cache's `misses`
    /// count probes the exact table could not answer — `bound_certs` says
    /// how many of those were disposed by a certificate instead of a full
    /// kernel evaluation.
    #[inline]
    fn kernel_within(&self, attr: usize, a: Symbol, b: Symbol, bound: f64) -> Option<f64> {
        debug_assert!(!a.is_null() && !b.is_null());
        if a == b {
            return Some(1.0); // kernel reflexivity (a trait invariant)
        }
        let (lo, hi) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        if let Some(v) = self.caches[attr].get(lo, hi) {
            return Some(v);
        }
        if self.bound_caches[attr].certifies(lo, hi, bound) {
            return None; // similarity < stored bound ≤ bound
        }
        match self.per_attr[attr].similarity_prepared_within(
            self.prepared.get(lo),
            self.prepared.get(hi),
            bound,
        ) {
            Some(v) => {
                self.caches[attr].insert(lo, hi, v);
                Some(v)
            }
            None => {
                self.bound_caches[attr].insert_min(lo, hi, bound);
                None
            }
        }
    }
}

/// Eq. 5 over interned values with upper-bound pruning (the shared loop
/// in `pvalue_sim::pruned_expected_similarity`; see the module docs for
/// the error bound). Agrees with
/// [`pvalue_similarity`](crate::pvalue_sim::pvalue_similarity) to well
/// below 1e-12.
pub fn interned_pvalue_similarity(
    a: &InternedPValue,
    b: &InternedPValue,
    attr: usize,
    cmps: &InternedComparators,
) -> f64 {
    crate::pvalue_sim::pruned_expected_similarity(
        &a.alts,
        a.mass,
        a.null_prob,
        &b.alts,
        b.mass,
        b.null_prob,
        |&sa, &sb| cmps.kernel(attr, sa, sb),
    )
}

/// **Bounded** Eq. 5 over interned values: certified `Above`/`Below`
/// against the cut interval `[lo, hi)`, or the exact value (see
/// [`bounded_expected_similarity`](crate::bounded) for the interval
/// tracking). Kernel evaluations go through
/// `InternedComparators`' bounded kernel probe, so both exact values and
/// below-cut verdicts are memoized per symbol pair — a bound-certified
/// pair never re-runs a kernel anywhere in the relation.
pub fn interned_pvalue_similarity_bounded(
    a: &InternedPValue,
    b: &InternedPValue,
    attr: usize,
    cmps: &InternedComparators,
    lo: f64,
    hi: f64,
) -> BoundedSim {
    crate::bounded::bounded_expected_similarity(
        &a.alts,
        a.mass,
        a.null_prob,
        &b.alts,
        b.mass,
        b.null_prob,
        lo,
        hi,
        |&sa, &sb, cut| cmps.kernel_within(attr, sa, sb, cut),
        |&sa, &sb| cmps.kernel(attr, sa, sb),
    )
}

/// [`compare_xtuples`](crate::matrix::compare_xtuples) over interned
/// x-tuples: the k×l comparison matrix with every Eq. 5 evaluation going
/// through the symbol caches and pruning.
pub fn compare_xtuples_interned(
    t1: &InternedXTuple,
    t2: &InternedXTuple,
    cmps: &InternedComparators,
) -> ComparisonMatrix {
    let k = t1.len();
    let l = t2.len();
    let mut vectors = Vec::with_capacity(k * l);
    for a1 in &t1.alternatives {
        for a2 in &t2.alternatives {
            let v: ComparisonVector = (0..cmps.arity())
                .map(|i| interned_pvalue_similarity(a1.value(i), a2.value(i), i, cmps))
                .collect();
            vectors.push(v);
        }
    }
    ComparisonMatrix::from_vectors(k, l, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pvalue_sim::pvalue_similarity;
    use probdedup_model::schema::Schema;
    use probdedup_model::value::Value;
    use probdedup_textsim::NormalizedHamming;

    fn comparators(schema: &Schema) -> AttributeComparators {
        AttributeComparators::uniform(schema, NormalizedHamming::new())
    }

    #[test]
    fn interned_similarity_matches_plain() {
        let s = Schema::new(["name", "job"]);
        let t11 = XTuple::builder(&s)
            .alt_pvalues(
                1.0,
                [
                    PValue::certain("Tim"),
                    PValue::categorical([("machinist", 0.7), ("mechanic", 0.2)]).unwrap(),
                ],
            )
            .build()
            .unwrap();
        let t22 = XTuple::builder(&s)
            .alt_pvalues(
                0.8,
                [
                    PValue::categorical([("Tim", 0.7), ("Kim", 0.3)]).unwrap(),
                    PValue::certain("mechanic"),
                ],
            )
            .build()
            .unwrap();
        let cmp = comparators(&s);
        let (pool, interned) = intern_tuples(&[t11.clone(), t22.clone()]);
        let icmps = InternedComparators::new(&pool, &cmp);
        let plain = crate::matrix::compare_xtuples(&t11, &t22, &cmp);
        let fast = compare_xtuples_interned(&interned[0], &interned[1], &icmps);
        assert_eq!((plain.k(), plain.l()), (fast.k(), fast.l()));
        for (i, j, v) in plain.iter() {
            let w = fast.vector(i, j);
            for (x, y) in v.iter().zip(w) {
                assert!((x - y).abs() < 1e-12, "({i},{j}): {x} vs {y}");
            }
        }
        // Paper numbers survive the interned path.
        assert!((fast.vector(0, 0)[0] - 0.9).abs() < 1e-12);
        assert!((fast.vector(0, 0)[1] - 53.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn repeat_comparisons_hit_the_cache() {
        let s = Schema::new(["name"]);
        let a = XTuple::builder(&s).alt(1.0, ["machinist"]).build().unwrap();
        let b = XTuple::builder(&s).alt(1.0, ["mechanic"]).build().unwrap();
        let (pool, interned) = intern_tuples(&[a, b]);
        let icmps = InternedComparators::new(&pool, &comparators(&Schema::new(["name"])));
        let first = compare_xtuples_interned(&interned[0], &interned[1], &icmps);
        let second = compare_xtuples_interned(&interned[0], &interned[1], &icmps);
        assert_eq!(first, second);
        let (hits, misses) = icmps.cache_stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 1);
        assert_eq!(icmps.cached_pairs(), 1);
    }

    #[test]
    fn bits_wanting_kernel_agrees_with_plain_path() {
        use probdedup_textsim::Levenshtein;
        // Levenshtein asks for per-symbol Myers tables; the sidecar path
        // must still match the plain (unprepared) evaluation bitwise.
        let s = Schema::new(["name", "note"]);
        let cmp = AttributeComparators::uniform(&s, Levenshtein::new());
        let long: String = ('a'..='z').cycle().take(90).collect(); // multi-word Myers
        let t1 = XTuple::builder(&s)
            .alt_pvalues(
                1.0,
                [
                    PValue::categorical([("machinist", 0.6), ("mechanic", 0.3)]).unwrap(),
                    PValue::certain(long.as_str()),
                ],
            )
            .build()
            .unwrap();
        let t2 = XTuple::builder(&s)
            .alt_pvalues(
                0.9,
                [
                    PValue::certain("machine operator"),
                    PValue::categorical([(&long[5..], 0.5), ("café liégeois", 0.5)]).unwrap(),
                ],
            )
            .build()
            .unwrap();
        let (pool, interned) = intern_tuples(&[t1.clone(), t2.clone()]);
        let icmps = InternedComparators::new(&pool, &cmp);
        let plain = crate::matrix::compare_xtuples(&t1, &t2, &cmp);
        let fast = compare_xtuples_interned(&interned[0], &interned[1], &icmps);
        for (i, j, v) in plain.iter() {
            let w = fast.vector(i, j);
            for (x, y) in v.iter().zip(w) {
                assert_eq!(x.to_bits(), y.to_bits(), "({i},{j}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn null_conventions_survive_interning() {
        let s = Schema::new(["name"]);
        let null_t = XTuple::builder(&s)
            .alt_pvalues(1.0, [PValue::null()])
            .build()
            .unwrap();
        let tim = XTuple::builder(&s).alt(1.0, ["Tim"]).build().unwrap();
        let (pool, interned) = intern_tuples(&[null_t, tim]);
        let icmps = InternedComparators::new(&pool, &comparators(&s));
        let m_null_null = compare_xtuples_interned(&interned[0], &interned[0], &icmps);
        assert_eq!(m_null_null.vector(0, 0)[0], 1.0);
        let m_null_tim = compare_xtuples_interned(&interned[0], &interned[1], &icmps);
        assert_eq!(m_null_tim.vector(0, 0)[0], 0.0);
        // ⊥ comparisons never consult the kernel cache.
        assert_eq!(icmps.cached_pairs(), 0);
    }

    #[test]
    fn descending_probability_layout() {
        let mut pool = ValuePool::new();
        let pv = PValue::categorical([("low", 0.1), ("high", 0.6), ("mid", 0.25)]).unwrap();
        let ipv = InternedPValue::from_pvalue(&mut pool, &pv);
        let probs: Vec<f64> = ipv.alternatives().iter().map(|(_, p)| *p).collect();
        assert_eq!(probs, vec![0.6, 0.25, 0.1]);
        assert!((ipv.null_prob() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn partial_null_mass_contributes() {
        // a = {x: .6, ⊥: .4}, b = {x: .5, ⊥: .5} → 0.5 (as in the plain
        // path's unit test).
        let s = Schema::new(["v"]);
        let a = XTuple::builder(&s)
            .alt_pvalues(1.0, [PValue::categorical([("x", 0.6)]).unwrap()])
            .build()
            .unwrap();
        let b = XTuple::builder(&s)
            .alt_pvalues(1.0, [PValue::categorical([("x", 0.5)]).unwrap()])
            .build()
            .unwrap();
        let cmp = comparators(&s);
        let (pool, interned) = intern_tuples(&[a.clone(), b.clone()]);
        let icmps = InternedComparators::new(&pool, &cmp);
        let fast = compare_xtuples_interned(&interned[0], &interned[1], &icmps);
        let plain = crate::matrix::compare_xtuples(&a, &b, &cmp);
        assert!((fast.vector(0, 0)[0] - 0.5).abs() < 1e-12);
        assert!((fast.vector(0, 0)[0] - plain.vector(0, 0)[0]).abs() < 1e-12);
    }

    #[test]
    fn wide_supports_agree_with_plain_path() {
        // Randomish wide supports with skewed masses exercise both pruning
        // branches; results must agree with the exhaustive sum to 1e-12.
        let s = Schema::new(["v"]);
        let mk = |tag: char, n: usize, scale: f64| {
            PValue::categorical((0..n).map(|i| {
                let p = scale / f64::powi(2.0, i as i32 + 1);
                (format!("{tag}{i:02}"), p)
            }))
            .unwrap()
        };
        let cmp = comparators(&s);
        for (na, nb) in [(1usize, 8usize), (8, 8), (16, 3), (20, 20)] {
            let pa = mk('a', na, 0.9);
            let pb = mk('b', nb, 0.99);
            let a = XTuple::builder(&s)
                .alt_pvalues(1.0, [pa.clone()])
                .build()
                .unwrap();
            let b = XTuple::builder(&s)
                .alt_pvalues(1.0, [pb.clone()])
                .build()
                .unwrap();
            let (pool, interned) = intern_tuples(&[a, b]);
            let icmps = InternedComparators::new(&pool, &cmp);
            let fast = compare_xtuples_interned(&interned[0], &interned[1], &icmps).vector(0, 0)[0];
            let slow = pvalue_similarity(&pa, &pb, cmp.get(0));
            assert!(
                (fast - slow).abs() < 1e-12,
                "supports {na}x{nb}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn bounded_interned_agrees_with_exact() {
        use probdedup_textsim::Levenshtein;
        let s = Schema::new(["name"]);
        let cmp = AttributeComparators::uniform(&s, Levenshtein::new());
        let pvs = [
            PValue::certain("smith"),
            PValue::certain("garcia"),
            PValue::categorical([("smith", 0.6), ("smyth", 0.3)]).unwrap(),
            PValue::categorical([("garcia", 0.5), ("garzia", 0.5)]).unwrap(),
            PValue::null(),
        ];
        let tuples: Vec<XTuple> = pvs
            .iter()
            .map(|pv| {
                XTuple::builder(&s)
                    .alt_pvalues(1.0, [pv.clone()])
                    .build()
                    .unwrap()
            })
            .collect();
        let (pool, interned, usage) = intern_tuples_tracked(&tuples);
        let icmps = InternedComparators::with_usage(&pool, &cmp, &usage);
        for i in 0..interned.len() {
            for j in 0..interned.len() {
                let a = interned[i].alternatives()[0].value(0);
                let b = interned[j].alternatives()[0].value(0);
                let exact = interned_pvalue_similarity(a, b, 0, &icmps);
                for lo10 in 0..=10 {
                    for hi10 in lo10..=10 {
                        let (lo, hi) = (f64::from(lo10) / 10.0, f64::from(hi10) / 10.0);
                        match interned_pvalue_similarity_bounded(a, b, 0, &icmps, lo, hi) {
                            crate::bounded::BoundedSim::Above => {
                                assert!(exact >= hi - 1e-9, "({i},{j}): {exact} < {hi}")
                            }
                            crate::bounded::BoundedSim::Below => {
                                assert!(exact < lo + 1e-9, "({i},{j}): {exact} >= {lo}")
                            }
                            crate::bounded::BoundedSim::Exact(v) => {
                                assert!((v - exact).abs() < 1e-12, "({i},{j}): {v} != {exact}")
                            }
                        }
                    }
                }
            }
        }
        // On a cold cache the disjoint smith/garcia pair certifies without
        // an exact kernel run (the sweep above warmed `icmps`'s exact
        // caches first, so probe a fresh set).
        let cold = InternedComparators::new(&pool, &cmp);
        let a = interned[0].alternatives()[0].value(0);
        let b = interned[1].alternatives()[0].value(0);
        assert_eq!(
            interned_pvalue_similarity_bounded(a, b, 0, &cold, 0.8, 1.1),
            crate::bounded::BoundedSim::Below
        );
        assert!(cold.bound_certs() > 0);
        // With the low cut disabled nothing can certify: the re-query
        // resolves exactly and agrees with the unbounded path.
        match interned_pvalue_similarity_bounded(a, b, 0, &cold, 0.0, 1.1) {
            crate::bounded::BoundedSim::Exact(v) => {
                let exact = interned_pvalue_similarity(a, b, 0, &icmps);
                assert!((v - exact).abs() < 1e-12);
            }
            other => panic!("expected exact resolution, got {other:?}"),
        }
    }

    #[test]
    fn lazy_peq_sidecars_follow_attribute_usage() {
        use probdedup_textsim::{Levenshtein, NormalizedHamming};
        // Attribute 0 wants pattern bits (Levenshtein), attribute 1 does
        // not (Hamming): symbols appearing only in attribute 1 must not pay
        // for a Myers table.
        let s = Schema::new(["name", "job"]);
        let cmp = AttributeComparators::per_attribute(vec![
            ValueComparator::text(Levenshtein::new()),
            ValueComparator::text(NormalizedHamming::new()),
        ]);
        let t = XTuple::builder(&s)
            .alt(1.0, ["OnlyInName", "OnlyInJob"])
            .build()
            .unwrap();
        let shared = XTuple::builder(&s)
            .alt(1.0, ["Shared", "Shared"])
            .build()
            .unwrap();
        let (pool, _, usage) = intern_tuples_tracked(&[t, shared]);
        let lookup = |icmps: &InternedComparators, text: &str| -> bool {
            let sym = pool.lookup(&Value::from(text)).expect("interned");
            match icmps.prepared(sym) {
                PreparedValue::Text(p) => p.bits().is_some(),
                other => panic!("expected text, got {other:?}"),
            }
        };
        let lazy = InternedComparators::with_usage(&pool, &cmp, &usage);
        assert!(lookup(&lazy, "OnlyInName"), "bits-wanting attribute symbol");
        assert!(!lookup(&lazy, "OnlyInJob"), "hamming-only symbol got bits");
        assert!(lookup(&lazy, "Shared"), "shared symbol must keep bits");
        // The eager constructor still builds bits for the whole pool.
        let eager = InternedComparators::new(&pool, &cmp);
        assert!(lookup(&eager, "OnlyInJob"));
        // Both produce identical kernel values.
        let a = pool.lookup(&Value::from("OnlyInName")).unwrap();
        let b = pool.lookup(&Value::from("Shared")).unwrap();
        assert_eq!(
            lazy.kernel(0, a, b).to_bits(),
            eager.kernel(0, a, b).to_bits()
        );
    }

    #[test]
    fn sync_pool_extends_sidecars_and_keeps_caches_warm() {
        use probdedup_textsim::Levenshtein;
        let s = Schema::new(["name"]);
        let cmp = AttributeComparators::uniform(&s, Levenshtein::new());
        let batch1: Vec<XTuple> = ["machinist", "mechanic"]
            .iter()
            .map(|v| XTuple::builder(&s).alt(1.0, [*v]).build().unwrap())
            .collect();
        let mut pool = ValuePool::new();
        let mut usage = AttributeUsage::default();
        let interned1 = intern_tuples_into(&mut pool, &mut usage, &batch1);
        let mut icmps = InternedComparators::with_usage(&pool, &cmp, &usage);
        let first = compare_xtuples_interned(&interned1[0], &interned1[1], &icmps);
        let (_, misses_before) = icmps.cache_stats();
        assert!(misses_before > 0);

        // Grow the pool with a second batch, sync, and compare across the
        // old/new symbol boundary.
        let batch2: Vec<XTuple> = ["machine operator", "mechanic"]
            .iter()
            .map(|v| XTuple::builder(&s).alt(1.0, [*v]).build().unwrap())
            .collect();
        let interned2 = intern_tuples_into(&mut pool, &mut usage, &batch2);
        icmps.sync_pool(&pool, Some(&usage));
        assert_eq!(icmps.interned_values(), pool.len());
        let cross = compare_xtuples_interned(&interned1[0], &interned2[0], &icmps);
        // A cold build over the full pool agrees bitwise.
        let cold = InternedComparators::with_usage(&pool, &cmp, &usage);
        let cross_cold = compare_xtuples_interned(&interned1[0], &interned2[0], &cold);
        assert_eq!(cross, cross_cold);
        // The old pair's memo survived the sync: re-evaluating is a pure
        // cache hit, no new miss.
        let (_, misses_mid) = icmps.cache_stats();
        let again = compare_xtuples_interned(&interned1[0], &interned1[1], &icmps);
        assert_eq!(first, again);
        let (_, misses_after) = icmps.cache_stats();
        assert_eq!(misses_mid, misses_after, "warm pair re-ran a kernel");
    }

    #[test]
    fn cache_dump_restores_warm_and_rejects_forged_symbols() {
        let s = Schema::new(["name", "job"]);
        let cmp = comparators(&s);
        let tuples: Vec<XTuple> = [
            ("machinist", "smith"),
            ("mechanic", "smyth"),
            ("tim", "kim"),
        ]
        .iter()
        .map(|(a, b)| XTuple::builder(&s).alt(1.0, [*a, *b]).build().unwrap())
        .collect();
        let (pool, interned, usage) = intern_tuples_tracked(&tuples);
        let warm = InternedComparators::with_usage(&pool, &cmp, &usage);
        for i in 0..interned.len() {
            for j in i + 1..interned.len() {
                compare_xtuples_interned(&interned[i], &interned[j], &warm);
            }
        }
        assert!(warm.cached_pairs() > 0);
        let dump = warm.export_cache_entries();
        // Restore into a cold set: every warmed pair answers without a miss.
        let cold = InternedComparators::with_usage(&pool, &cmp, &usage);
        cold.import_cache_entries(&dump).unwrap();
        assert_eq!(cold.cached_pairs(), warm.cached_pairs());
        let (_, misses_before) = cold.cache_stats();
        for i in 0..interned.len() {
            for j in i + 1..interned.len() {
                let a = compare_xtuples_interned(&interned[i], &interned[j], &warm);
                let b = compare_xtuples_interned(&interned[i], &interned[j], &cold);
                assert_eq!(a, b);
            }
        }
        let (_, misses_after) = cold.cache_stats();
        assert_eq!(misses_before, misses_after, "restored pair re-ran a kernel");
        // Forged dumps are rejected: out-of-range symbol, ⊥, wrong arity.
        let fresh = || InternedComparators::with_usage(&pool, &cmp, &usage);
        let mut forged = dump.clone();
        forged[0]
            .0
            .push((u64::from(u32::MAX) << 32 | u64::from(u32::MAX), 0.5));
        assert!(fresh().import_cache_entries(&forged).is_err());
        let mut nulled = dump.clone();
        nulled[0].0.push((1, 0.5)); // lo = ⊥
        assert!(fresh().import_cache_entries(&nulled).is_err());
        assert!(fresh().import_cache_entries(&dump[..1]).is_err());
        // A capacity-bounded restore still honours the ceiling.
        let bounded = InternedComparators::with_usage_and_capacity(&pool, &cmp, &usage, Some(64));
        bounded.import_cache_entries(&dump).unwrap();
        assert!(bounded.cached_pairs() <= 2 * 64);
    }

    #[test]
    fn cross_variant_values_stay_distinct() {
        // "30" (text) vs 30 (int) must not be conflated by interning.
        let s = Schema::new(["v"]);
        let a = XTuple::builder(&s)
            .alt_pvalues(1.0, [PValue::certain(Value::from("30"))])
            .build()
            .unwrap();
        let b = XTuple::builder(&s)
            .alt_pvalues(1.0, [PValue::certain(Value::Int(30))])
            .build()
            .unwrap();
        let (pool, interned) = intern_tuples(&[a, b]);
        let icmps = InternedComparators::new(&pool, &comparators(&s));
        let m = compare_xtuples_interned(&interned[0], &interned[1], &icmps);
        // Mixed text/int compares as 0 under the default comparator.
        assert_eq!(m.vector(0, 0)[0], 0.0);
    }
}
