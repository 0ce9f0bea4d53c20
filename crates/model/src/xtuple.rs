//! [`XTuple`]: Trio-style x-tuples (Section IV-B) — mutually exclusive
//! alternative tuples modelling dependencies between attribute values.

use crate::error::{check_probability, ModelError};
use crate::pvalue::PValue;
use crate::schema::Schema;
use crate::util::PROB_EPS;
use crate::value::Value;

/// One alternative of an x-tuple: a full row of attribute values with the
/// probability that *this* alternative is the true one.
///
/// Attribute values inside an alternative may themselves be uncertain
/// ([`PValue`]) — the paper's tuple `t31` has the alternative
/// `(Johan, mu*)` whose job is a uniform distribution over all jobs starting
/// with `mu` (avoiding a blow-up of alternatives).
#[derive(Debug, Clone, PartialEq)]
pub struct XAlternative {
    values: Vec<PValue>,
    probability: f64,
}

impl XAlternative {
    /// Build an alternative; `probability` must be in `(0, 1]`.
    pub fn new(values: Vec<PValue>, probability: f64) -> Result<Self, ModelError> {
        let p = check_probability(probability, "alternative")?;
        if p == 0.0 {
            return Err(ModelError::InvalidProbability {
                value: 0.0,
                context: "alternative (must be positive)",
            });
        }
        Ok(Self {
            values,
            probability: p,
        })
    }

    /// The attribute values of this alternative.
    pub fn values(&self) -> &[PValue] {
        &self.values
    }

    /// The value of attribute `i`.
    pub fn value(&self, i: usize) -> &PValue {
        &self.values[i]
    }

    /// Mutable access for in-place standardization.
    pub fn value_mut(&mut self, i: usize) -> &mut PValue {
        &mut self.values[i]
    }

    /// Unnormalized probability `p(tⁱ)` of this alternative.
    pub fn probability(&self) -> f64 {
        self.probability
    }
}

/// An x-tuple: one or more mutually exclusive [`XAlternative`]s.
///
/// The probability that the x-tuple belongs to its relation is
/// `p(t) = Σᵢ p(tⁱ) ≤ 1`; if the sum is below 1 the x-tuple is a *maybe*
/// x-tuple (rendered `?` in the paper's Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct XTuple {
    alternatives: Vec<XAlternative>,
    /// Optional display label (`t31`, `t42`, …) used when reproducing the
    /// paper's figures.
    label: Option<String>,
}

impl XTuple {
    /// Build an x-tuple from alternatives. Errors if empty or if the
    /// probability mass exceeds 1.
    pub fn new(alternatives: Vec<XAlternative>) -> Result<Self, ModelError> {
        if alternatives.is_empty() {
            return Err(ModelError::EmptyXTuple);
        }
        let sum: f64 = alternatives.iter().map(XAlternative::probability).sum();
        if sum > 1.0 + PROB_EPS {
            return Err(ModelError::MassExceeded {
                sum,
                context: "x-tuple alternatives",
            });
        }
        Ok(Self {
            alternatives,
            label: None,
        })
    }

    /// A fluent builder bound to a schema.
    pub fn builder(schema: &Schema) -> XTupleBuilder {
        XTupleBuilder {
            schema: schema.clone(),
            alternatives: Vec::new(),
            label: None,
            error: None,
        }
    }

    /// Wrap a dependency-free [`crate::tuple::ProbTuple`] as an x-tuple with
    /// a single alternative carrying the attribute-level distributions.
    pub fn from_prob_tuple(t: &crate::tuple::ProbTuple) -> Self {
        Self {
            alternatives: vec![XAlternative {
                values: t.values().to_vec(),
                probability: t.probability(),
            }],
            label: None,
        }
    }

    /// Attach a display label (`t31`, …).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The display label, if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The alternatives `t¹ … tᵏ`.
    pub fn alternatives(&self) -> &[XAlternative] {
        &self.alternatives
    }

    /// Mutable access to alternatives (data preparation).
    pub fn alternatives_mut(&mut self) -> &mut [XAlternative] {
        &mut self.alternatives
    }

    /// Number of alternatives `k`.
    pub fn len(&self) -> usize {
        self.alternatives.len()
    }

    /// Whether the x-tuple has exactly one alternative with certainty 1.
    pub fn is_empty(&self) -> bool {
        false // invariant: never empty (constructor rejects)
    }

    /// Membership probability `p(t) = Σ p(tⁱ)`.
    pub fn probability(&self) -> f64 {
        self.alternatives
            .iter()
            .map(XAlternative::probability)
            .sum::<f64>()
            .min(1.0)
    }

    /// Whether this is a *maybe* x-tuple (`p(t) < 1`, `?` in Fig. 5).
    pub fn is_maybe(&self) -> bool {
        self.probability() < 1.0 - PROB_EPS
    }

    /// Conditioned (normalized) probability of alternative `i`:
    /// `p(tⁱ)/p(t)` — the scaling the paper calls conditioning \[32\] or
    /// scaling \[33\], which removes tuple-membership influence (Eq. 6).
    pub fn normalized_prob(&self, i: usize) -> f64 {
        self.alternatives[i].probability() / self.probability()
    }

    /// Iterate `(alternative, normalized probability)`.
    pub fn conditioned(&self) -> impl Iterator<Item = (&XAlternative, f64)> {
        let total = self.probability();
        self.alternatives
            .iter()
            .map(move |a| (a, a.probability() / total))
    }
}

/// Fluent builder for [`XTuple`].
#[derive(Debug, Clone)]
pub struct XTupleBuilder {
    schema: Schema,
    alternatives: Vec<XAlternative>,
    label: Option<String>,
    error: Option<ModelError>,
}

impl XTupleBuilder {
    /// Add an alternative with certain values given in schema order.
    /// `Value::Null` entries model ⊥ (e.g. `t43`'s alternative
    /// `(John, ⊥)` in Fig. 5).
    pub fn alt<I, V>(mut self, probability: f64, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let vals: Vec<PValue> = values
            .into_iter()
            .map(|v| PValue::certain(v.into()))
            .collect();
        self.push_alt(vals, probability);
        self
    }

    /// Add an alternative with possibly-uncertain values in schema order.
    pub fn alt_pvalues<I>(mut self, probability: f64, values: I) -> Self
    where
        I: IntoIterator<Item = PValue>,
    {
        let vals: Vec<PValue> = values.into_iter().collect();
        self.push_alt(vals, probability);
        self
    }

    /// Attach a display label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Finish, validating arity and mass.
    pub fn build(self) -> Result<XTuple, ModelError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut t = XTuple::new(self.alternatives)?;
        t.label = self.label;
        Ok(t)
    }

    fn push_alt(&mut self, vals: Vec<PValue>, probability: f64) {
        if vals.len() != self.schema.arity() {
            self.error = self.error.take().or(Some(ModelError::SchemaMismatch {
                expected: self.schema.arity(),
                got: vals.len(),
            }));
            return;
        }
        match XAlternative::new(vals, probability) {
            Ok(a) => self.alternatives.push(a),
            Err(e) => self.error = self.error.take().or(Some(e)),
        }
    }
}

impl std::fmt::Display for XTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(l) = &self.label {
            write!(f, "{l} ")?;
        }
        write!(f, "{{")?;
        for (i, a) in self.alternatives.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "(")?;
            for (j, v) in a.values().iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, "): {}", a.probability())?;
        }
        write!(f, "}}")?;
        if self.is_maybe() {
            write!(f, " ?")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(["name", "job"])
    }

    /// The paper's x-tuple t32 (Fig. 5).
    fn t32() -> XTuple {
        XTuple::builder(&schema())
            .alt(0.3, ["Tim", "mechanic"])
            .alt(0.2, ["Jim", "mechanic"])
            .alt(0.4, ["Jim", "baker"])
            .label("t32")
            .build()
            .unwrap()
    }

    #[test]
    fn fig5_t32_membership_and_maybe() {
        let t = t32();
        assert_eq!(t.len(), 3);
        assert!((t.probability() - 0.9).abs() < 1e-12);
        assert!(t.is_maybe()); // ? in Fig. 5
        assert_eq!(t.label(), Some("t32"));
    }

    #[test]
    fn fig5_t42_not_maybe_vs_maybe() {
        let t42 = XTuple::builder(&schema())
            .alt(0.8, ["Tom", "mechanic"])
            .build()
            .unwrap();
        assert!(t42.is_maybe());
        let t41 = XTuple::builder(&schema())
            .alt(0.8, ["John", "pilot"])
            .alt(0.2, ["Johan", "pianist"])
            .build()
            .unwrap();
        assert!(!t41.is_maybe());
        assert!((t41.probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conditioning_normalizes() {
        // Fig. 7: p(t32¹)/p(t32) = 0.3/0.9.
        let t = t32();
        assert!((t.normalized_prob(0) - 0.3 / 0.9).abs() < 1e-12);
        let sum: f64 = t.conditioned().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(XTuple::new(vec![]), Err(ModelError::EmptyXTuple)));
    }

    #[test]
    fn excess_mass_rejected() {
        let r = XTuple::builder(&schema())
            .alt(0.8, ["a", "b"])
            .alt(0.3, ["c", "d"])
            .build();
        assert!(matches!(r, Err(ModelError::MassExceeded { .. })));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let r = XTuple::builder(&schema()).alt(0.5, ["only-name"]).build();
        assert!(matches!(r, Err(ModelError::SchemaMismatch { .. })));
    }

    #[test]
    fn null_values_in_alternatives() {
        // Fig. 5 t43: (John, ⊥): 0.2 | (Sean, pilot): 0.6, maybe.
        let t43 = XTuple::builder(&schema())
            .alt(0.2, [Value::from("John"), Value::Null])
            .alt(0.6, [Value::from("Sean"), Value::from("pilot")])
            .label("t43")
            .build()
            .unwrap();
        assert!(t43.is_maybe());
        assert!(t43.alternatives()[0].value(1).is_null());
    }

    #[test]
    fn uncertain_values_inside_alternative() {
        // Fig. 5 t31: (Johan, mu*): 0.3 with mu* a uniform distribution.
        let mu = PValue::uniform(["musician", "museum guide"]).unwrap();
        let t31 = XTuple::builder(&schema())
            .alt(0.7, ["John", "pilot"])
            .alt_pvalues(0.3, [PValue::certain("Johan"), mu])
            .build()
            .unwrap();
        assert_eq!(t31.alternatives()[1].value(1).support_len(), 2);
        assert!(!t31.is_maybe());
    }

    #[test]
    fn from_prob_tuple_preserves_distributions() {
        let pt = crate::tuple::ProbTuple::builder(&schema())
            .dist("name", [("Tim", 0.6), ("Tom", 0.4)])
            .certain("job", "machinist")
            .probability(0.6)
            .build()
            .unwrap();
        let xt = XTuple::from_prob_tuple(&pt);
        assert_eq!(xt.len(), 1);
        assert!((xt.probability() - 0.6).abs() < 1e-12);
        assert_eq!(xt.alternatives()[0].value(0).support_len(), 2);
    }

    #[test]
    fn display_marks_maybe() {
        let s = t32().to_string();
        assert!(s.ends_with('?'), "{s}");
        assert!(s.contains("t32"));
    }
}
