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
/// * mixed types → `0.0` by default, or compared as rendered strings when
///   [`ValueComparator::coerce_mixed_to_text`] is enabled (useful for dirty
///   sources that store numbers as strings).
#[derive(Clone)]
pub struct ValueComparator {
    text: SharedComparator,
    numeric: Arc<dyn NumericComparator>,
    mixed_as_text: bool,
}

impl ValueComparator {
    /// A comparator using `text` for strings and a numeric kernel that
    /// decays over `numeric_scale` (see
    /// [`AbsoluteScaled`]).
    pub fn new(text: SharedComparator, numeric: Arc<dyn NumericComparator>) -> Self {
        Self {
            text,
            numeric,
            mixed_as_text: false,
        }
    }

    /// A comparator for text-dominated schemas: the given string kernel plus
    /// an absolute numeric kernel with scale 10.
    pub fn text(cmp: impl StringComparator + 'static) -> Self {
        Self::new(Arc::new(cmp), Arc::new(AbsoluteScaled::new(10.0)))
    }

    /// Compare mixed-type pairs as rendered strings instead of scoring 0.
    pub fn coerce_mixed_to_text(mut self) -> Self {
        self.mixed_as_text = true;
        self
    }

    /// The underlying string kernel.
    pub fn text_kernel(&self) -> &SharedComparator {
        &self.text
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
            _ if self.mixed_as_text => self.text.similarity(&a.render(), &b.render()),
            _ => 0.0,
        }
    }

    /// Similarity of the optional-value encoding used by
    /// [`PValue::outcomes`](probdedup_model::pvalue::PValue::outcomes):
    /// `None` stands for ⊥.
    pub fn similarity_opt(&self, a: Option<&Value>, b: Option<&Value>) -> f64 {
        match (a, b) {
            (None, None) => 1.0,
            (None, Some(_)) | (Some(_), None) => 0.0,
            (Some(x), Some(y)) => self.similarity(x, y),
        }
    }

    /// Whether this comparator's text kernel exploits precomputed Myers
    /// pattern bitmasks (see [`PreparedValue::of`]).
    pub fn wants_pattern_bits(&self) -> bool {
        self.text.wants_pattern_bits()
    }

    /// Bounded similarity: `Some(exact)` or a certificate that the
    /// similarity is `< bound` (the contract of
    /// [`StringComparator::similarity_within`]). Only text pairs have
    /// bounded kernels; every other routing arm is constant-time anyway
    /// and returns its exact value.
    pub fn similarity_within(&self, a: &Value, b: &Value, bound: f64) -> Option<f64> {
        match (a, b) {
            (Value::Text(x), Value::Text(y)) => self.text.similarity_within(x, y, bound),
            _ => Some(self.similarity(a, b)),
        }
    }

    /// [`similarity_within`](Self::similarity_within) over
    /// [`PreparedValue`]s: the prefilters read the precomputed lengths and
    /// class masks instead of re-scanning the strings.
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
            // Mixed text/non-text, same convention as `similarity`'s
            // fallthrough arms (a Text's render is the string itself).
            (Text(x), Other(y)) if self.mixed_as_text => {
                self.text.similarity(x.text(), &y.render())
            }
            (Other(x), Text(y)) if self.mixed_as_text => {
                self.text.similarity(&x.render(), y.text())
            }
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
    /// length, and — when `with_bits` — the Myers `Peq` table).
    Text(PreparedText),
    /// Any non-text value; compared through the unprepared routing.
    Other(Value),
}

impl PreparedValue {
    /// Prepare `v`. `with_bits` controls whether text values also build
    /// their Myers pattern bitmasks
    /// ([`ValueComparator::wants_pattern_bits`] says if the kernel pays
    /// that off).
    pub fn of(v: &Value, with_bits: bool) -> Self {
        match v {
            Value::Null => Self::Null,
            Value::Text(s) => Self::Text(PreparedText::new(s, with_bits)),
            other => Self::Other(other.clone()),
        }
    }
}

impl std::fmt::Debug for ValueComparator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValueComparator")
            .field("text", &self.text.name())
            .field("numeric", &self.numeric.name())
            .field("mixed_as_text", &self.mixed_as_text)
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
        assert_eq!(c.similarity_opt(None, None), 1.0);
        assert_eq!(c.similarity_opt(None, Some(&Value::from("x"))), 0.0);
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
    fn mixed_coercion_renders() {
        let c = cmp().coerce_mixed_to_text();
        assert_eq!(c.similarity(&Value::from("30"), &Value::Int(30)), 1.0);
        assert!(c.similarity(&Value::from("31"), &Value::Int(30)) < 1.0);
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
        for c in [cmp(), cmp().coerce_mixed_to_text()] {
            for with_bits in [false, true] {
                let prepared: Vec<PreparedValue> = values
                    .iter()
                    .map(|v| PreparedValue::of(v, with_bits))
                    .collect();
                for (v1, p1) in values.iter().zip(&prepared) {
                    for (v2, p2) in values.iter().zip(&prepared) {
                        assert_eq!(
                            c.similarity_prepared(p1, p2).to_bits(),
                            c.similarity(v1, v2).to_bits(),
                            "{v1:?} vs {v2:?} (bits: {with_bits})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wants_pattern_bits_follows_text_kernel() {
        use probdedup_textsim::Levenshtein;
        assert!(!cmp().wants_pattern_bits());
        assert!(ValueComparator::text(Levenshtein::new()).wants_pattern_bits());
    }
}
