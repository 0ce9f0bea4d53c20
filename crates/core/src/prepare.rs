//! Step (a), data preparation: standardization of attribute values
//! (Section III-A — "unification of conventions and units … to obtain a
//! homogeneous representation of all source data").
//!
//! For probabilistic values, standardization maps **every alternative** of
//! a distribution; alternatives that collide after standardization merge
//! their probability mass (e.g. `{Tim: 0.5, tim: 0.4}` → `{tim: 0.9}`),
//! which is uncertainty *reduction* for free.

use std::collections::HashMap;
use std::sync::Arc;

use probdedup_model::relation::XRelation;
use probdedup_model::value::Value;
use probdedup_model::xtuple::XTuple;
use probdedup_textsim::Normalizer;

/// One preparation step.
#[derive(Clone)]
enum Step {
    /// Apply a [`Normalizer`] to text values of the attribute.
    Normalize(usize, Normalizer),
    /// Replace whole values via a canonicalization dictionary
    /// (nickname → canonical form, unit synonyms, …).
    Canonicalize(usize, Arc<HashMap<String, String>>),
}

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Normalize(a, _) => write!(f, "Normalize(attr {a})"),
            Step::Canonicalize(a, m) => write!(f, "Canonicalize(attr {a}, {} entries)", m.len()),
        }
    }
}

/// A whole-value rewrite applied to one attribute's distributions (may
/// borrow from the step that created it).
type ValueRewrite<'a> = Box<dyn Fn(&Value) -> Value + 'a>;

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
        self.steps.push(Step::Normalize(attr, normalizer));
        self
    }

    /// Replace whole text values of attribute `attr` through a
    /// canonicalization dictionary — the paper's "unification of
    /// conventions": nicknames to given names ("Johnny" → "John"),
    /// occupation synonyms ("confectionist" → "confectioner"), units.
    /// Lookups are exact on the full value; combine with
    /// [`Preparation::normalize_attr`] (applied earlier) for
    /// case-insensitive matching. Alternatives that collide after
    /// canonicalization merge their probability mass.
    pub fn canonicalize_attr<I, K, V>(mut self, attr: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        let map: HashMap<String, String> = entries
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect();
        self.steps.push(Step::Canonicalize(attr, Arc::new(map)));
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
        for step in &self.steps {
            let (attr, map): (usize, ValueRewrite<'_>) = match step {
                Step::Normalize(attr, norm) => (
                    *attr,
                    Box::new(move |v: &Value| match v {
                        Value::Text(s) => Value::Text(norm.apply(s)),
                        other => other.clone(),
                    }),
                ),
                Step::Canonicalize(attr, dict) => {
                    let dict = Arc::clone(dict);
                    (
                        *attr,
                        Box::new(move |v: &Value| match v {
                            Value::Text(s) => match dict.get(s) {
                                Some(canon) => Value::Text(canon.clone()),
                                None => v.clone(),
                            },
                            other => other.clone(),
                        }),
                    )
                }
            };
            for t in tuples.iter_mut() {
                for alt in t.alternatives_mut() {
                    let pv = alt.value_mut(attr);
                    *pv = pv.map_values(&map);
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
    fn canonicalization_replaces_whole_values() {
        let s = Schema::new(["name", "job"]);
        let mut r = XRelation::new(s.clone());
        r.push(
            XTuple::builder(&s)
                .alt_pvalues(
                    1.0,
                    [
                        PValue::categorical([("Johnny", 0.6), ("John", 0.4)]).unwrap(),
                        PValue::certain("confectionist"),
                    ],
                )
                .build()
                .unwrap(),
        );
        Preparation::new()
            .canonicalize_attr(0, [("Johnny", "John"), ("Jon", "John")])
            .canonicalize_attr(1, [("confectionist", "confectioner")])
            .apply(&mut r);
        let name = r.xtuples()[0].alternatives()[0].value(0);
        // Johnny → John merges with the existing John alternative.
        assert_eq!(name.support_len(), 1);
        assert!((name.prob_of(Some(&Value::from("John"))) - 1.0).abs() < 1e-12);
        let job = r.xtuples()[0].alternatives()[0].value(1);
        assert_eq!(job.alternatives()[0].0.render(), "confectioner");
    }

    #[test]
    fn canonicalization_is_exact_match_only() {
        let s = Schema::new(["name"]);
        let mut r = XRelation::new(s.clone());
        r.push(XTuple::builder(&s).alt(1.0, ["Johnny B"]).build().unwrap());
        Preparation::new()
            .canonicalize_attr(0, [("Johnny", "John")])
            .apply(&mut r);
        // No substring replacement: the full value differs, so unchanged.
        assert_eq!(
            r.xtuples()[0].alternatives()[0].value(0).alternatives()[0]
                .0
                .render(),
            "Johnny B"
        );
    }

    #[test]
    fn debug_formatting_of_steps() {
        let p = Preparation::new()
            .normalize_attr(0, Normalizer::standard())
            .canonicalize_attr(1, [("a", "b")]);
        let dbg = format!("{p:?}");
        assert!(dbg.contains("Normalize(attr 0)"), "{dbg}");
        assert!(dbg.contains("Canonicalize(attr 1, 1 entries)"), "{dbg}");
    }
}
