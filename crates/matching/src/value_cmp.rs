//! [`ValueComparator`]: a normalized similarity on concrete [`Value`]s,
//! enforcing the paper's ⊥ conventions in exactly one place.

use std::sync::Arc;

use probdedup_model::value::Value;
use probdedup_textsim::numeric::{AbsoluteScaled, NumericComparator};
use probdedup_textsim::{PreparedText, SharedComparator, StringComparator};

/// Compares two concrete domain values, routing by type:
///
/// * `⊥` vs `⊥` → `1.0`; `⊥` vs anything else → `0.0` (Section IV-A),
/// * text vs text → the configured [`StringComparator`],
/// * numeric vs numeric (`Int`/`Real` interchangeable) → the configured
///   `NumericComparator`,
/// * bool vs bool → exact,
/// * mixed types → `0.0`.
#[derive(Clone)]
pub struct ValueComparator {
    text: SharedComparator,
    numeric: Arc<dyn NumericComparator>,
}

impl ValueComparator {
    /// A comparator using `text` for strings and a numeric kernel that
    /// decays over `numeric_scale` (see
    /// [`AbsoluteScaled`]).
    pub fn new(text: SharedComparator, numeric: Arc<dyn NumericComparator>) -> Self {
        Self { text, numeric }
    }

    /// A comparator for text-dominated schemas: the given string kernel plus
    /// an absolute numeric kernel with scale 10.
    pub fn text(cmp: impl StringComparator + 'static) -> Self {
        Self::new(Arc::new(cmp), Arc::new(AbsoluteScaled::new(10.0)))
    }

    /// Similarity of two concrete values in `[0, 1]`.
    pub fn similarity(&self, a: &Value, b: &Value) -> f64 {
        use Value::*;
        match (a, b) {
            (Null, Null) => 1.0,
            (Null, _) | (_, Null) => 0.0,
            (Text(x), Text(y)) => self.text.similarity(x, y),
            (Bool(x), Bool(y)) if x == y => 1.0,
            (Bool(_), Bool(_)) => 0.0,
            (Int(_) | Real(_), Int(_) | Real(_)) => {
                let (x, y) = (
                    a.as_number().expect("numeric"),
                    b.as_number().expect("numeric"),
                );
                self.numeric.similarity(x, y)
            }
            _ => 0.0,
        }
    }

    /// Bounded similarity over [`PreparedValue`]s: `Some(exact)` or a
    /// certificate that the similarity is `< bound` (the contract of
    /// [`StringComparator::similarity_prepared_within`]). Only text pairs
    /// have bounded kernels, whose prefilters read the precomputed lengths
    /// and class masks; every other routing arm is constant-time anyway
    /// and returns its exact value.
    pub fn similarity_prepared_within(
        &self,
        a: &PreparedValue,
        b: &PreparedValue,
        bound: f64,
    ) -> Option<f64> {
        match (a, b) {
            (PreparedValue::Text(x), PreparedValue::Text(y)) => {
                self.text.similarity_prepared_within(x, y, bound)
            }
            _ => Some(self.similarity_prepared(a, b)),
        }
    }

    /// [`similarity`](Self::similarity) over [`PreparedValue`]s: identical
    /// routing and results, but text pairs reuse the per-value
    /// precomputation instead of re-scanning the strings.
    pub fn similarity_prepared(&self, a: &PreparedValue, b: &PreparedValue) -> f64 {
        use PreparedValue::*;
        match (a, b) {
            (Null, Null) => 1.0,
            (Null, _) | (_, Null) => 0.0,
            (Text(x), Text(y)) => self.text.similarity_prepared(x, y),
            (Other(x), Other(y)) => self.similarity(x, y),
            // Mixed text/non-text, as in `similarity`.
            _ => 0.0,
        }
    }
}

/// A [`Value`] with its per-value comparison state precomputed: the
/// symbol-sidecar entry of the interned matching path (built once per
/// distinct value, reused by every kernel evaluation).
#[derive(Debug, Clone)]
pub enum PreparedValue {
    /// `⊥` — the constant-time conventions never reach a kernel.
    Null,
    /// A text value with its [`PreparedText`] (ASCII class, character
    /// length, class mask).
    Text(PreparedText),
    /// Any non-text value; compared through the unprepared routing.
    Other(Value),
}

impl PreparedValue {
    /// Prepare `v`.
    pub fn of(v: &Value) -> Self {
        match v {
            Value::Null => Self::Null,
            Value::Text(s) => Self::Text(PreparedText::new(s)),
            other => Self::Other(other.clone()),
        }
    }
}

impl std::fmt::Debug for ValueComparator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValueComparator")
            .field("text", &self.text.name())
            .field("numeric", &self.numeric.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdedup_textsim::NormalizedHamming;

    fn cmp() -> ValueComparator {
        ValueComparator::text(NormalizedHamming::new())
    }

    #[test]
    fn null_conventions() {
        let c = cmp();
        assert_eq!(c.similarity(&Value::Null, &Value::Null), 1.0);
        assert_eq!(c.similarity(&Value::Null, &Value::from("x")), 0.0);
        assert_eq!(c.similarity(&Value::from("x"), &Value::Null), 0.0);
    }

    #[test]
    fn text_routing() {
        let c = cmp();
        assert!((c.similarity(&Value::from("Tim"), &Value::from("Kim")) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn numeric_routing_mixes_int_and_real() {
        let c = cmp();
        assert_eq!(c.similarity(&Value::Int(30), &Value::Int(30)), 1.0);
        assert!((c.similarity(&Value::Int(30), &Value::Real(35.0)) - 0.5).abs() < 1e-12);
        assert_eq!(c.similarity(&Value::Int(30), &Value::Int(50)), 0.0);
    }

    #[test]
    fn bool_exact() {
        let c = cmp();
        assert_eq!(c.similarity(&Value::Bool(true), &Value::Bool(true)), 1.0);
        assert_eq!(c.similarity(&Value::Bool(true), &Value::Bool(false)), 0.0);
    }

    #[test]
    fn mixed_types_default_zero() {
        let c = cmp();
        assert_eq!(c.similarity(&Value::from("30"), &Value::Int(30)), 0.0);
        assert_eq!(c.similarity(&Value::Bool(true), &Value::from("true")), 0.0);
    }

    #[test]
    fn debug_formatting_names_kernels() {
        let s = format!("{:?}", cmp());
        assert!(s.contains("hamming"), "{s}");
    }

    #[test]
    fn prepared_similarity_matches_unprepared() {
        let values = [
            Value::Null,
            Value::from("Tim"),
            Value::from("machinist"),
            Value::from("30"),
            Value::Int(30),
            Value::Real(35.0),
            Value::Bool(true),
        ];
        let c = cmp();
        let prepared: Vec<PreparedValue> = values.iter().map(PreparedValue::of).collect();
        for (v1, p1) in values.iter().zip(&prepared) {
            for (v2, p2) in values.iter().zip(&prepared) {
                assert_eq!(
                    c.similarity_prepared(p1, p2).to_bits(),
                    c.similarity(v1, v2).to_bits(),
                    "{v1:?} vs {v2:?}"
                );
            }
        }
    }
}
