//! [`ProbTuple`]: a probabilistic tuple in the dependency-free model
//! (Section IV-A) — uncertainty on tuple level *and* attribute value level,
//! with attribute values treated as independent random variables.

use crate::error::{check_probability, ModelError};
use crate::pvalue::PValue;
use crate::schema::Schema;
use crate::value::Value;

/// A probabilistic tuple: one [`PValue`] per attribute plus a tuple-level
/// membership probability `p(t) ∈ (0, 1]`.
///
/// Per the paper, membership probability stems from the application context
/// and must **not** influence duplicate detection (Section IV); similarity
/// computations therefore only read the attribute-level distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbTuple {
    values: Vec<PValue>,
    probability: f64,
}

impl ProbTuple {
    /// Build a tuple from pre-assembled values. `probability` must lie in
    /// `(0, 1]` — a zero-probability tuple cannot belong to any world
    /// containing it and is rejected.
    pub fn new(values: Vec<PValue>, probability: f64) -> Result<Self, ModelError> {
        let p = check_probability(probability, "tuple membership")?;
        if p == 0.0 {
            return Err(ModelError::InvalidProbability {
                value: 0.0,
                context: "tuple membership (must be positive)",
            });
        }
        Ok(Self {
            values,
            probability: p,
        })
    }

    /// A fluent builder bound to a schema (attribute lookup by name).
    pub fn builder(schema: &Schema) -> ProbTupleBuilder {
        ProbTupleBuilder {
            schema: schema.clone(),
            values: vec![PValue::null(); schema.arity()],
            probability: 1.0,
            error: None,
        }
    }

    /// The attribute values.
    pub fn values(&self) -> &[PValue] {
        &self.values
    }

    /// The value of attribute `i` (panics if out of range).
    pub fn value(&self, i: usize) -> &PValue {
        &self.values[i]
    }

    /// Mutable access for in-place standardization (data preparation).
    pub fn value_mut(&mut self, i: usize) -> &mut PValue {
        &mut self.values[i]
    }

    /// Tuple membership probability `p(t)`.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }
}

/// Fluent builder for [`ProbTuple`], validating against a [`Schema`].
#[derive(Debug, Clone)]
pub struct ProbTupleBuilder {
    schema: Schema,
    values: Vec<PValue>,
    probability: f64,
    error: Option<ModelError>,
}

impl ProbTupleBuilder {
    /// Set attribute `name` to a certain value.
    pub fn certain(mut self, name: &str, v: impl Into<Value>) -> Self {
        self.set(name, PValue::certain(v));
        self
    }

    /// Set attribute `name` to a categorical distribution.
    pub fn dist<I, V>(mut self, name: &str, entries: I) -> Self
    where
        I: IntoIterator<Item = (V, f64)>,
        V: Into<Value>,
    {
        match PValue::categorical(entries) {
            Ok(pv) => self.set(name, pv),
            Err(e) => self.error = self.error.take().or(Some(e)),
        }
        self
    }

    /// Set attribute `name` to an already-built [`PValue`].
    pub fn pvalue(mut self, name: &str, pv: PValue) -> Self {
        self.set(name, pv);
        self
    }

    /// Set attribute `name` to certain non-existence (⊥).
    pub fn null(mut self, name: &str) -> Self {
        self.set(name, PValue::null());
        self
    }

    /// Set the tuple membership probability (default 1.0).
    pub fn probability(mut self, p: f64) -> Self {
        self.probability = p;
        self
    }

    /// Finish, validating schema coverage and probabilities.
    pub fn build(self) -> Result<ProbTuple, ModelError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        ProbTuple::new(self.values, self.probability)
    }

    fn set(&mut self, name: &str, pv: PValue) {
        match self.schema.index_of(name) {
            Some(i) => self.values[i] = pv,
            None => {
                self.error = self
                    .error
                    .take()
                    .or(Some(ModelError::UnknownAttribute(name.to_string())));
            }
        }
    }
}

impl std::fmt::Display for ProbTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩ p={}", self.probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(["name", "job"])
    }

    #[test]
    fn builder_fig4_t13() {
        // t13 = ({Tim: 0.6, Tom: 0.4}, machinist) with p(t) = 0.6.
        let t = ProbTuple::builder(&schema())
            .dist("name", [("Tim", 0.6), ("Tom", 0.4)])
            .certain("job", "machinist")
            .probability(0.6)
            .build()
            .unwrap();
        assert_eq!(t.arity(), 2);
        assert!((t.probability() - 0.6).abs() < 1e-12);
        assert_eq!(t.value(0).support_len(), 2);
        assert!(t.value(1).is_certain());
        assert!(!t.value(0).is_certain());
    }

    #[test]
    fn builder_defaults_unset_attrs_to_null() {
        let t = ProbTuple::builder(&schema())
            .certain("name", "Tim")
            .build()
            .unwrap();
        assert!(t.value(1).is_null());
    }

    #[test]
    fn builder_unknown_attribute_errors() {
        let r = ProbTuple::builder(&schema()).certain("nope", "x").build();
        assert!(matches!(r, Err(ModelError::UnknownAttribute(_))));
    }

    #[test]
    fn builder_propagates_distribution_errors() {
        let r = ProbTuple::builder(&schema())
            .dist("name", [("a", 0.8), ("b", 0.8)])
            .build();
        assert!(matches!(r, Err(ModelError::MassExceeded { .. })));
    }

    #[test]
    fn zero_probability_rejected() {
        let r = ProbTuple::new(vec![PValue::certain("x")], 0.0);
        assert!(r.is_err());
        let r = ProbTuple::builder(&schema()).probability(-0.5).build();
        assert!(r.is_err());
    }

    #[test]
    fn display_shows_values_and_probability() {
        let t = ProbTuple::builder(&schema())
            .certain("name", "Tim")
            .null("job")
            .probability(0.5)
            .build()
            .unwrap();
        let s = t.to_string();
        assert!(
            s.contains("Tim") && s.contains('⊥') && s.contains("p=0.5"),
            "{s}"
        );
    }

    #[test]
    fn value_mut_allows_standardization() {
        let mut t = ProbTuple::builder(&schema())
            .certain("name", " Tim ")
            .build()
            .unwrap();
        *t.value_mut(0) = t.value(0).map_values(|v| Value::from(v.render().trim()));
        assert_eq!(t.value(0).alternatives()[0].0.render(), "Tim");
    }
}
