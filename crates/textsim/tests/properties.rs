//! Property-based tests for the similarity kernels: the [`StringComparator`]
//! laws (range, reflexivity, symmetry) plus kernel-specific invariants.

use proptest::prelude::*;

use probdedup_textsim::{
    Exact, Jaro, JaroWinkler, Levenshtein, NormalizedHamming, StringComparator,
};

fn all_comparators() -> Vec<Box<dyn StringComparator>> {
    vec![
        Box::new(NormalizedHamming::new()),
        Box::new(NormalizedHamming::case_insensitive()),
        Box::new(Levenshtein::new()),
        Box::new(Jaro::new()),
        Box::new(JaroWinkler::new()),
        Box::new(Exact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Law: similarity is within [0, 1] for arbitrary inputs.
    #[test]
    fn similarity_in_unit_interval(a in ".{0,24}", b in ".{0,24}") {
        for c in all_comparators() {
            let s = c.similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s), "{}({a:?},{b:?}) = {s}", c.name());
        }
    }

    /// Law: similarity(a, a) == 1.
    #[test]
    fn reflexivity(a in ".{0,24}") {
        for c in all_comparators() {
            let s = c.similarity(&a, &a);
            prop_assert!((s - 1.0).abs() < 1e-12, "{}({a:?},{a:?}) = {s}", c.name());
        }
    }

    /// Law: similarity(a, b) == similarity(b, a).
    #[test]
    fn symmetry(a in ".{0,24}", b in ".{0,24}") {
        for c in all_comparators() {
            let lhs = c.similarity(&a, &b);
            let rhs = c.similarity(&b, &a);
            prop_assert!((lhs - rhs).abs() < 1e-12, "{} asymmetric on {a:?}/{b:?}", c.name());
        }
    }

    /// Levenshtein satisfies the triangle inequality (on the raw distance).
    #[test]
    fn levenshtein_triangle(a in "[a-d]{0,10}", b in "[a-d]{0,10}", c in "[a-d]{0,10}") {
        let l = Levenshtein::new();
        let ab = l.distance(&a, &b);
        let bc = l.distance(&b, &c);
        let ac = l.distance(&a, &c);
        prop_assert!(ac <= ab + bc);
    }

    /// Hamming distance upper-bounds nothing below Levenshtein: the edit
    /// distance is at most the Hamming distance (substitutions alone realize
    /// the Hamming alignment).
    #[test]
    fn levenshtein_le_hamming(a in ".{0,16}", b in ".{0,16}") {
        let h = NormalizedHamming::new().distance(&a, &b);
        let l = Levenshtein::new().distance(&a, &b);
        prop_assert!(l <= h, "lev {l} > ham {h} for {a:?}/{b:?}");
    }

    /// Jaro-Winkler dominates Jaro.
    #[test]
    fn jw_ge_jaro(a in ".{0,16}", b in ".{0,16}") {
        prop_assert!(JaroWinkler::new().similarity(&a, &b) >= Jaro::new().similarity(&a, &b) - 1e-12);
    }

    /// Exact is the indicator of equality.
    #[test]
    fn exact_indicator(a in ".{0,8}", b in ".{0,8}") {
        let s = Exact.similarity(&a, &b);
        prop_assert_eq!(s == 1.0, a == b);
    }
}
