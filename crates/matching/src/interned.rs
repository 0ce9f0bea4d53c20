//! The interned matching hot path: Eq. 5 over [`Symbol`]s instead of
//! [`Value`](probdedup_model::value::Value)s.
//!
//! The pipeline interns every distinct attribute value of the (prepared)
//! relation once into a [`ValuePool`], converting each x-tuple into an
//! [`InternedXTuple`] whose supports are `(Symbol, probability)` pairs held
//! in **descending probability order**. From then on the quadratic matching
//! stage touches no strings:
//!
//! * equal symbols score 1.0 without a kernel run;
//! * the ⊥ conventions are integer tests on [`Symbol::NULL`];
//! * every other pair runs its kernel over the two symbols'
//!   [`PreparedValue`] sidecars, built once per distinct value at
//!   interning time. Kernel results are computed where they are needed,
//!   never memoized: a shared memo large enough to matter outgrows the CPU
//!   caches and costs about what a prepared kernel evaluation does.
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
use crate::matrix::ComparisonMatrix;
use crate::value_cmp::{PreparedValue, ValueComparator};
use crate::vector::AttributeComparators;

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
        Self {
            alternatives: t
                .alternatives()
                .iter()
                .map(|alt| InternedRow {
                    values: alt
                        .values()
                        .iter()
                        .map(|pv| InternedPValue::from_pvalue(pool, pv))
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
    let interned = intern_tuples_into(&mut pool, tuples);
    (pool, interned)
}

/// Intern `tuples` into an **existing** pool (growing it append-only) —
/// the incremental-ingest path of the engine: values already in the pool
/// cost one hash probe, new tuples' interned mirrors are returned, and
/// symbols issued earlier stay valid (so the [`PreparedValue`] sidecars
/// carry over; catch them up with [`InternedComparators::sync_pool`]
/// afterwards).
pub fn intern_tuples_into(pool: &mut ValuePool, tuples: &[XTuple]) -> Vec<InternedXTuple> {
    tuples
        .iter()
        .map(|t| InternedXTuple::from_xtuple(pool, t))
        .collect()
}

/// Per-attribute kernels plus per-symbol prepared state over a pool: the
/// read-only context worker threads share during interned matching.
///
/// A per-symbol sidecar ([`SymbolMap`]) holds each distinct value's
/// prepared comparison state ([`PreparedValue`]: ASCII class, character
/// length, class mask, and the 16-byte lanes of a short ASCII string), so
/// a kernel evaluation never re-scans a string it
/// has seen before: interning pays a second time by hanging the
/// precomputation off the dense symbol index. The sidecars are **eager**
/// (every symbol is prepared when it enters the pool) and the same for
/// every kernel. Kernel results are **not**
/// memoized — every evaluation is a pure function of the two symbols,
/// computed where it is needed, so no result depends on which thread or
/// earlier call saw the pair first.
///
/// The comparators do **not** own the pool: symbols are dense indices, so
/// the sidecar only needs the pool's contents at build time. A persistent
/// session that grows its pool append-only (incremental ingest) calls
/// [`InternedComparators::sync_pool`] to extend the sidecar over the new
/// symbols.
pub struct InternedComparators {
    per_attr: Vec<ValueComparator>,
    prepared: SymbolMap<PreparedValue>,
}

impl InternedComparators {
    /// Bind `comparators` to `pool` and precompute every symbol's
    /// [`PreparedValue`].
    pub fn new(pool: &ValuePool, comparators: &AttributeComparators) -> Self {
        let per_attr: Vec<ValueComparator> = (0..comparators.arity())
            .map(|i| comparators.get(i).clone())
            .collect();
        let prepared = SymbolMap::build(pool, |(_, v)| PreparedValue::of(v));
        Self { per_attr, prepared }
    }

    /// Catch the per-symbol sidecar up with a pool that has **grown
    /// append-only** since this value was built (or last synced): prepared
    /// state is built for the new symbols only, existing entries are
    /// untouched.
    ///
    /// The pool must be the same one (or an equal-prefix successor of the
    /// one) the comparators were built over: symbols are dense indices,
    /// and aliasing a different pool onto them would silently compare the
    /// wrong values.
    pub fn sync_pool(&mut self, pool: &ValuePool) {
        self.prepared.extend(pool, |(_, v)| PreparedValue::of(v));
    }

    /// The prepared comparison state of `sym` (inspection/testing — the hot
    /// paths read it internally).
    pub fn prepared(&self, sym: Symbol) -> &PreparedValue {
        self.prepared.get(sym)
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

    /// Kernel similarity of two non-⊥ symbols for attribute `attr`. ⊥ must
    /// be handled by the caller.
    ///
    /// Equal symbols score 1.0 without a kernel run (reflexivity, a trait
    /// invariant). Otherwise the kernel runs over the per-symbol
    /// [`PreparedValue`]s on the **canonical** (smaller-symbol-first)
    /// orientation, so even a non-symmetric user kernel yields one value
    /// per unordered pair.
    #[inline]
    fn kernel(&self, attr: usize, a: Symbol, b: Symbol) -> f64 {
        debug_assert!(!a.is_null() && !b.is_null());
        if a == b {
            return 1.0;
        }
        let (lo, hi) = if a.raw() < b.raw() { (a, b) } else { (b, a) };
        self.per_attr[attr].similarity_prepared(self.prepared.get(lo), self.prepared.get(hi))
    }

    /// **Bounded** kernel similarity of two non-⊥ symbols: `Some(exact)`
    /// or a certificate that the similarity is `< bound` — the
    /// [`kernel`](Self::kernel) conventions over the kernel's bounded
    /// entry point, whose prefilter (the Jaro family's; every other kernel
    /// answers exactly) can dispose of a pair without computing its exact
    /// value.
    #[inline]
    fn kernel_within(&self, attr: usize, a: Symbol, b: Symbol, bound: f64) -> Option<f64> {
        debug_assert!(!a.is_null() && !b.is_null());
        if a == b {
            return Some(1.0);
        }
        let (lo, hi) = if a.raw() < b.raw() { (a, b) } else { (b, a) };
        self.per_attr[attr].similarity_prepared_within(
            self.prepared.get(lo),
            self.prepared.get(hi),
            bound,
        )
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
/// tracking). Kernel evaluations go through the kernels' bounded entry
/// points, so a pair the prefilters certify below its cut never computes
/// an exact value.
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
/// through the prepared sidecars and pruning.
pub fn compare_xtuples_interned(
    t1: &InternedXTuple,
    t2: &InternedXTuple,
    cmps: &InternedComparators,
) -> ComparisonMatrix {
    let (alts1, alts2) = (&t1.alternatives, &t2.alternatives);
    ComparisonMatrix::build(alts1.len(), alts2.len(), cmps.arity(), |i, j, a| {
        interned_pvalue_similarity(alts1[i].value(a), alts2[j].value(a), a, cmps)
    })
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
    fn default_prepared_kernel_agrees_with_plain_path_bitwise() {
        use probdedup_textsim::Levenshtein;
        // Levenshtein answers `similarity_prepared` through the trait
        // default: the interned matrix over its sidecars must equal the
        // plain (unprepared) evaluation bit for bit, on a 90-character
        // value and on non-ASCII ones.
        let s = Schema::new(["name", "note"]);
        let cmp = AttributeComparators::uniform(&s, Levenshtein::new());
        let long: String = ('a'..='z').cycle().take(90).collect();
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
    fn jaro_winkler_flat_matrix_agrees_with_plain_path_bitwise() {
        use probdedup_textsim::JaroWinkler;
        // Names of 15, 16 and 17 bytes sit either side of the 16-byte
        // lanes the prepared sidecars keep; "smíth" takes the scalar path.
        // Every value of `t2` is interned after every value of `t1`, so
        // the interned path's canonical orientation is the plain one.
        let s = Schema::new(["name", "job"]);
        let cmp = AttributeComparators::uniform(&s, JaroWinkler::new());
        let t1 = XTuple::builder(&s)
            .alt(0.5, ["alexandra smith", "machinist"])
            .alt_pvalues(
                0.4,
                [
                    PValue::certain("alexandra smythe"),
                    PValue::categorical([("mechanic", 0.6), ("machinist", 0.3)]).unwrap(),
                ],
            )
            .build()
            .unwrap();
        let t2 = XTuple::builder(&s)
            .alt(0.3, ["alexandra smithee", "mechanic engineer"])
            .alt(0.3, ["alexandra smíth", "machine operator"])
            .alt(0.3, ["alexander smith", "mechanician"])
            .build()
            .unwrap();
        let (pool, interned) = intern_tuples(&[t1.clone(), t2.clone()]);
        let icmps = InternedComparators::new(&pool, &cmp);
        let plain = crate::matrix::compare_xtuples(&t1, &t2, &cmp);
        let fast = compare_xtuples_interned(&interned[0], &interned[1], &icmps);
        assert_eq!((fast.k(), fast.l(), fast.len()), (2, 3, 6));
        let coords: Vec<(usize, usize)> = fast
            .iter()
            .map(|(i, j, v)| {
                assert_eq!(v, fast.vector(i, j));
                assert_eq!(v.len(), icmps.arity());
                (i, j)
            })
            .collect();
        assert_eq!(coords, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
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
        let (pool, interned) = intern_tuples(&tuples);
        let icmps = InternedComparators::new(&pool, &cmp);
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
        // The disjoint smith/garcia pair certifies below a high cut.
        let a = interned[0].alternatives()[0].value(0);
        let b = interned[1].alternatives()[0].value(0);
        assert_eq!(
            interned_pvalue_similarity_bounded(a, b, 0, &icmps, 0.8, 1.1),
            crate::bounded::BoundedSim::Below
        );
        // With the low cut disabled nothing can certify: the re-query
        // resolves exactly and agrees with the unbounded path.
        match interned_pvalue_similarity_bounded(a, b, 0, &icmps, 0.0, 1.1) {
            crate::bounded::BoundedSim::Exact(v) => {
                let exact = interned_pvalue_similarity(a, b, 0, &icmps);
                assert!((v - exact).abs() < 1e-12);
            }
            other => panic!("expected exact resolution, got {other:?}"),
        }
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
        let interned1 = intern_tuples_into(&mut pool, &batch1);
        let mut icmps = InternedComparators::new(&pool, &cmp);
        let first = compare_xtuples_interned(&interned1[0], &interned1[1], &icmps);

        // Grow the pool with a second batch, sync, and compare across the
        // old/new symbol boundary.
        let batch2: Vec<XTuple> = ["machine operator", "mechanic"]
            .iter()
            .map(|v| XTuple::builder(&s).alt(1.0, [*v]).build().unwrap())
            .collect();
        let interned2 = intern_tuples_into(&mut pool, &batch2);
        icmps.sync_pool(&pool);
        assert_eq!(icmps.interned_values(), pool.len());
        let cross = compare_xtuples_interned(&interned1[0], &interned2[0], &icmps);
        // A cold build over the full pool agrees bitwise.
        let cold = InternedComparators::new(&pool, &cmp);
        let cross_cold = compare_xtuples_interned(&interned1[0], &interned2[0], &cold);
        assert_eq!(cross, cross_cold);
        // The old symbols' sidecars survived the sync untouched.
        let again = compare_xtuples_interned(&interned1[0], &interned1[1], &icmps);
        assert_eq!(first, again);
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
