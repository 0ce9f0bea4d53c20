//! The [`StringComparator`] trait: a normalized similarity kernel on strings.

use std::sync::Arc;

use crate::bitparallel::PreparedText;

/// A normalized comparison function on strings.
///
/// Implementations must guarantee, for all inputs `a`, `b`:
///
/// * **Range**: `similarity(a, b) ∈ [0, 1]`.
/// * **Reflexivity**: `similarity(a, a) == 1.0`.
/// * **Symmetry**: `similarity(a, b) == similarity(b, a)`.
///
/// These invariants let the probabilistic matcher (Eq. 5 of Panse et al.)
/// compute expected similarities that stay in `[0, 1]`. All comparators
/// shipped by this crate are verified against these laws with property tests.
pub trait StringComparator: Send + Sync {
    /// Similarity of `a` and `b` in `[0, 1]`.
    fn similarity(&self, a: &str, b: &str) -> f64;

    /// A short human-readable name used in reports and benchmarks.
    fn name(&self) -> &str {
        "comparator"
    }

    /// Similarity of two [`PreparedText`]s: each kernel's one fast exact
    /// evaluation.
    ///
    /// Must return the **same value** as `similarity(a.text(), b.text())`
    /// — preparation is a performance contract, not a semantic one. The
    /// default delegates; kernels with a bit-parallel fast path override it
    /// to reuse the precomputed ASCII class and character length.
    fn similarity_prepared(&self, a: &PreparedText, b: &PreparedText) -> f64 {
        self.similarity(a.text(), b.text())
    }

    /// **Bounded** similarity of two [`PreparedText`]s: either the exact
    /// similarity, or a certificate that it falls below `bound`.
    ///
    /// Contract: `Some(s)` means `s == similarity_prepared(a, b)` exactly
    /// (bitwise); `None` **certifies** that similarity is `< bound`. A
    /// kernel may always return `Some` (the default does), but kernels
    /// with a cheap bounded evaluation — banded Myers for
    /// [`Levenshtein`](crate::Levenshtein), length-difference and
    /// ASCII-class prefilters over the prepared lengths and class masks —
    /// override this to stop as soon as the verdict is certain. Callers
    /// that only need to know which side of a threshold the similarity
    /// falls on (the bounded-classification path of `probdedup-matching`)
    /// pay for a full kernel evaluation only when the answer is genuinely
    /// close.
    fn similarity_prepared_within(
        &self,
        a: &PreparedText,
        b: &PreparedText,
        bound: f64,
    ) -> Option<f64> {
        let _ = bound;
        Some(self.similarity_prepared(a, b))
    }

    /// The bounded contract over plain strings, always answered exactly.
    /// No kernel overrides it — every prefilter lives in
    /// [`similarity_prepared_within`](Self::similarity_prepared_within),
    /// which reads lengths and class masks from the preparation instead of
    /// rescanning both strings. Kept, hidden, because the benchmark's
    /// per-layer `textsim.jw_within` probe calls it.
    #[doc(hidden)]
    fn similarity_within(&self, a: &str, b: &str, bound: f64) -> Option<f64> {
        let _ = bound;
        Some(self.similarity(a, b))
    }
}

/// A cheaply cloneable, shareable comparator handle.
pub type SharedComparator = Arc<dyn StringComparator>;

/// Slack added to upper-bound comparisons in
/// [`StringComparator::similarity_prepared_within`] implementations so float
/// rounding in the bound arithmetic can never produce a spurious
/// below-`bound` certificate. One shared constant: every bounded kernel
/// must certify against the same slack.
pub(crate) const BOUND_SLACK: f64 = 1e-12;

macro_rules! impl_delegating_comparator {
    ($($ptr:ty),*) => {$(
        impl<T: StringComparator + ?Sized> StringComparator for $ptr {
            fn similarity(&self, a: &str, b: &str) -> f64 {
                (**self).similarity(a, b)
            }
            fn name(&self) -> &str {
                (**self).name()
            }
            fn similarity_prepared(&self, a: &PreparedText, b: &PreparedText) -> f64 {
                (**self).similarity_prepared(a, b)
            }
            fn similarity_prepared_within(
                &self,
                a: &PreparedText,
                b: &PreparedText,
                bound: f64,
            ) -> Option<f64> {
                (**self).similarity_prepared_within(a, b, bound)
            }
        }
    )*};
}

impl_delegating_comparator!(Arc<T>, &T, Box<T>);

/// Exact equality: `1.0` iff the strings are identical, else `0.0`.
///
/// Plugging `Exact` into the erroneous-data formula (Eq. 5) collapses it to
/// the error-free formula (Eq. 4): the probability that both uncertain values
/// are equal. The matching crate has a property test for exactly this
/// reduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exact;

impl StringComparator for Exact {
    fn similarity(&self, a: &str, b: &str) -> f64 {
        if a == b {
            1.0
        } else {
            0.0
        }
    }
    fn name(&self) -> &str {
        "exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_is_indicator() {
        assert_eq!(Exact.similarity("a", "a"), 1.0);
        assert_eq!(Exact.similarity("a", "b"), 0.0);
        assert_eq!(Exact.similarity("", ""), 1.0);
        assert_eq!(Exact.similarity("", "x"), 0.0);
    }

    #[test]
    fn trait_objects_delegate() {
        let boxed: Box<dyn StringComparator> = Box::new(Exact);
        assert_eq!(boxed.similarity("x", "x"), 1.0);
        assert_eq!(boxed.name(), "exact");
        let arced: SharedComparator = Arc::new(Exact);
        assert_eq!(arced.similarity("x", "y"), 0.0);
        let by_ref: &dyn StringComparator = &Exact;
        assert_eq!(by_ref.similarity("x", "x"), 1.0);
    }

    #[test]
    fn exact_is_case_sensitive() {
        assert_eq!(Exact.similarity("Tim", "tim"), 0.0);
    }
}
