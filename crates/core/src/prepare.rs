//! Step (a), data preparation: standardization of attribute values
//! (Section III-A — "unification of conventions and units … to obtain a
//! homogeneous representation of all source data").
//!
//! For probabilistic values, standardization maps **every alternative** of
//! a distribution; alternatives that collide after standardization merge
//! their probability mass (e.g. `{Tim: 0.5, tim: 0.4}` → `{tim: 0.9}`),
//! which is uncertainty *reduction* for free.

use probdedup_model::relation::XRelation;
use probdedup_model::value::Value;
use probdedup_model::xtuple::XTuple;
use probdedup_textsim::Normalizer;

/// One preparation step: apply a [`Normalizer`] to text values of the
/// attribute.
#[derive(Clone)]
struct Step(usize, Normalizer);

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Normalize(attr {})", self.0)
    }
}

/// Per-attribute standardization plan.
#[derive(Debug, Clone, Default)]
pub struct Preparation {
    /// Steps apply in insertion order; attributes may repeat.
    steps: Vec<Step>,
}

impl Preparation {
    /// No preparation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply `normalizer` to text values of attribute `attr`.
    pub fn normalize_attr(mut self, attr: usize, normalizer: Normalizer) -> Self {
        self.steps.push(Step(attr, normalizer));
        self
    }

    /// Apply [`Normalizer::standard`] to every attribute in `0..arity`.
    pub fn standard_all(arity: usize) -> Self {
        let mut p = Self::new();
        for a in 0..arity {
            p = p.normalize_attr(a, Normalizer::standard());
        }
        p
    }

    /// Whether any step is configured.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Standardize a relation in place.
    pub fn apply(&self, relation: &mut XRelation) {
        self.apply_rows(relation.xtuples_mut());
    }

    /// Standardize `tuples` in place — preparation is per-tuple, so a
    /// session prepares just the rows a batch appended.
    pub fn apply_rows(&self, tuples: &mut [XTuple]) {
        for Step(attr, norm) in &self.steps {
            let map = |v: &Value| match v {
                Value::Text(s) => Value::Text(norm.apply(s)),
                other => other.clone(),
            };
            for t in tuples.iter_mut() {
                for alt in t.alternatives_mut() {
                    let pv = alt.value_mut(*attr);
                    *pv = pv.map_values(map);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdedup_model::pvalue::PValue;
    use probdedup_model::schema::Schema;
    use probdedup_model::xtuple::XTuple;

    fn relation() -> XRelation {
        let s = Schema::new(["name", "job"]);
        let mut r = XRelation::new(s.clone());
        r.push(
            XTuple::builder(&s)
                .alt_pvalues(
                    1.0,
                    [
                        PValue::categorical([(" Tim ", 0.5), ("tim", 0.4)]).unwrap(),
                        PValue::certain("MACHINIST"),
                    ],
                )
                .build()
                .unwrap(),
        );
        r
    }

    #[test]
    fn standardization_merges_colliding_alternatives() {
        let mut r = relation();
        Preparation::standard_all(2).apply(&mut r);
        let name = r.xtuples()[0].alternatives()[0].value(0);
        assert_eq!(name.support_len(), 1);
        assert!((name.prob_of(Some(&Value::from("tim"))) - 0.9).abs() < 1e-12);
        let job = r.xtuples()[0].alternatives()[0].value(1);
        assert_eq!(job.alternatives()[0].0.render(), "machinist");
    }

    #[test]
    fn per_attribute_steps_are_scoped() {
        let mut r = relation();
        Preparation::new()
            .normalize_attr(1, Normalizer::standard())
            .apply(&mut r);
        let name = r.xtuples()[0].alternatives()[0].value(0);
        assert_eq!(name.support_len(), 2, "name untouched");
        let job = r.xtuples()[0].alternatives()[0].value(1);
        assert_eq!(job.alternatives()[0].0.render(), "machinist");
    }

    #[test]
    fn non_text_values_pass_through() {
        let s = Schema::new(["age"]);
        let mut r = XRelation::new(s.clone());
        r.push(
            XTuple::builder(&s)
                .alt(1.0, [Value::Int(42)])
                .build()
                .unwrap(),
        );
        Preparation::standard_all(1).apply(&mut r);
        assert_eq!(
            r.xtuples()[0].alternatives()[0].value(0).alternatives()[0].0,
            Value::Int(42)
        );
    }

    #[test]
    fn empty_preparation_is_identity() {
        let mut r = relation();
        let before = r.clone();
        Preparation::new().apply(&mut r);
        assert_eq!(r, before);
        assert!(Preparation::new().is_empty());
    }

    #[test]
    fn debug_formatting_of_steps() {
        let p = Preparation::new()
            .normalize_attr(0, Normalizer::standard())
            .normalize_attr(1, Normalizer::standard());
        let dbg = format!("{p:?}");
        assert!(dbg.contains("Normalize(attr 0)"), "{dbg}");
        assert!(dbg.contains("Normalize(attr 1)"), "{dbg}");
    }
}
