//! [`PValue`]: a probabilistic attribute value — a categorical distribution
//! over the extended domain `D̂ = D ∪ {⊥}`.

use crate::error::{check_probability, ModelError};
use crate::util::PROB_EPS;
use crate::value::Value;

/// A probabilistic attribute value.
///
/// Stores the explicit (non-⊥) alternatives with their probabilities; any
/// missing mass is the implicit probability of **non-existence** `⊥`. This
/// matches the paper's Fig. 4, where `t11.job = {machinist: 0.7,
/// mechanic: 0.2}` means the person is jobless with probability 0.1.
///
/// Invariants (enforced at construction):
///
/// * every probability lies in `(0, 1]`,
/// * duplicate values are merged,
/// * the total mass is ≤ 1 (within a small epsilon),
/// * alternatives are kept sorted by value for deterministic iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct PValue {
    /// Sorted, deduplicated non-null alternatives.
    alts: Vec<(Value, f64)>,
}

impl PValue {
    /// A certain value. `Value::Null` yields the certain-⊥ distribution.
    pub fn certain(v: impl Into<Value>) -> Self {
        let v = v.into();
        if v.is_null() {
            Self::null()
        } else {
            Self {
                alts: vec![(v, 1.0)],
            }
        }
    }

    /// The certain non-existence value `⊥`.
    pub fn null() -> Self {
        Self { alts: Vec::new() }
    }

    /// A categorical distribution. Entries may include `Value::Null`, whose
    /// mass simply joins the implicit ⊥ mass. Zero-probability entries are
    /// dropped; duplicates merged; total mass must not exceed 1.
    ///
    /// ```
    /// use probdedup_model::pvalue::PValue;
    /// // Fig. 4: t12.name = {John: 0.5, Johan: 0.5}
    /// let v = PValue::categorical([("John", 0.5), ("Johan", 0.5)]).unwrap();
    /// assert_eq!(v.null_prob(), 0.0);
    /// assert_eq!(v.support_len(), 2);
    /// ```
    pub fn categorical<I, V>(entries: I) -> Result<Self, ModelError>
    where
        I: IntoIterator<Item = (V, f64)>,
        V: Into<Value>,
    {
        let mut alts: Vec<(Value, f64)> = Vec::new();
        let mut total = 0.0;
        for (v, p) in entries {
            let p = check_probability(p, "value alternative")?;
            if p == 0.0 {
                continue;
            }
            total += p;
            let v = v.into();
            if v.is_null() {
                continue; // joins the implicit ⊥ mass
            }
            match alts.iter_mut().find(|(w, _)| *w == v) {
                // Clamped like every single mass: duplicates may overshoot
                // 1 by the tolerance.
                Some((_, q)) => *q = (*q + p).min(1.0),
                None => alts.push((v, p)),
            }
        }
        if total > 1.0 + PROB_EPS {
            return Err(ModelError::MassExceeded {
                sum: total,
                context: "value distribution",
            });
        }
        alts.sort_by(|(a, _), (b, _)| a.cmp(b));
        Ok(Self { alts })
    }

    /// A uniform distribution over `values` (e.g. the paper's `mu*` pattern
    /// expanded over a domain). Errors on an empty iterator.
    pub fn uniform<I, V>(values: I) -> Result<Self, ModelError>
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let vals: Vec<Value> = values.into_iter().map(Into::into).collect();
        if vals.is_empty() {
            return Err(ModelError::EmptyDistribution);
        }
        let p = 1.0 / vals.len() as f64;
        Self::categorical(vals.into_iter().map(|v| (v, p)))
    }

    /// The explicit non-⊥ alternatives, sorted by value.
    pub fn alternatives(&self) -> &[(Value, f64)] {
        &self.alts
    }

    /// Probability that the property does not exist (the ⊥ mass).
    pub fn null_prob(&self) -> f64 {
        (1.0 - self.existence_prob()).max(0.0)
    }

    /// Probability that the property exists (sum over alternatives).
    pub fn existence_prob(&self) -> f64 {
        self.alts.iter().map(|(_, p)| p).sum::<f64>().min(1.0)
    }

    /// Number of non-⊥ alternatives.
    pub fn support_len(&self) -> usize {
        self.alts.len()
    }

    /// Whether the value is certain (a single alternative with mass 1, or
    /// certain ⊥).
    pub fn is_certain(&self) -> bool {
        match self.alts.as_slice() {
            [] => true,
            [(_, p)] => (*p - 1.0).abs() <= PROB_EPS,
            _ => false,
        }
    }

    /// Whether this is the certain-⊥ value.
    pub fn is_null(&self) -> bool {
        self.alts.is_empty()
    }

    /// The most probable outcome: `Some(value)` or `None` for ⊥, together
    /// with its probability. Ties break toward the smaller value (sorted
    /// order) so the choice is deterministic — this implements the
    /// "metadata-based deciding strategy" used for conflict-resolved keys
    /// (Section V-A.2).
    pub fn most_probable(&self) -> (Option<&Value>, f64) {
        let null_p = self.null_prob();
        // Invariant, not input validation: every constructor routes
        // probabilities through `check_probability`, which rejects NaN
        // before a `PValue` can exist.
        let best = self
            .alts
            .iter()
            .max_by(|(_, p), (_, q)| p.partial_cmp(q).expect("no NaN probs"));
        match best {
            Some((v, p)) if *p >= null_p - PROB_EPS => (Some(v), *p),
            _ => (None, null_p),
        }
    }

    /// Iterate over all outcomes *including* the implicit ⊥ mass:
    /// yields `(None, p_⊥)` last when `p_⊥ > ε`.
    pub fn outcomes(&self) -> impl Iterator<Item = (Option<&Value>, f64)> {
        let null_p = self.null_prob();
        self.alts
            .iter()
            .map(|(v, p)| (Some(v), *p))
            .chain((null_p > PROB_EPS).then_some((None, null_p)))
    }

    /// Probability of a concrete outcome (`None` asks for ⊥).
    pub fn prob_of(&self, v: Option<&Value>) -> f64 {
        match v {
            None => self.null_prob(),
            Some(v) => self
                .alts
                .iter()
                .find(|(w, _)| w == v)
                .map_or(0.0, |(_, p)| *p),
        }
    }

    /// Map every alternative value through `f`, re-merging any collisions
    /// (used by data preparation: standardizing the support of a
    /// distribution may unify spellings). `f` returning `Value::Null` moves
    /// that alternative's mass to ⊥.
    pub fn map_values(&self, f: impl Fn(&Value) -> Value) -> Self {
        // Invariant, not input validation: the probabilities fed back in
        // are this value's own (already validated at construction), and
        // merging collisions can only keep the total mass equal.
        Self::categorical(self.alts.iter().map(|(v, p)| (f(v), *p)))
            .expect("mass is preserved by mapping")
    }

    /// Condition on existence: rescale the alternatives so they sum to 1.
    /// Returns `None` for the certain-⊥ value (conditioning on a
    /// zero-probability event).
    pub fn conditioned_on_existence(&self) -> Option<Self> {
        let mass = self.existence_prob();
        if mass <= PROB_EPS {
            return None;
        }
        Some(Self {
            alts: self
                .alts
                .iter()
                .map(|(v, p)| (v.clone(), (p / mass).min(1.0)))
                .collect(),
        })
    }

    /// Shannon entropy (nats) of the full outcome distribution including ⊥.
    /// Zero for certain values; larger means more uncertain.
    pub fn entropy(&self) -> f64 {
        self.outcomes()
            .map(|(_, p)| if p > 0.0 { -p * p.ln() } else { 0.0 })
            .sum()
    }

    /// Expected similarity helper: total probability mass shared with
    /// `other` under exact equality, i.e. `P(a = b)` of Eq. 4 assuming
    /// independence. (The general Eq. 5 with a similarity kernel lives in
    /// the matching crate; this is used by model-level tests.)
    pub fn equality_prob(&self, other: &PValue) -> f64 {
        let mut p = self.null_prob() * other.null_prob();
        for (v, pa) in &self.alts {
            p += pa * other.prob_of(Some(v));
        }
        p.min(1.0)
    }
}

impl From<Value> for PValue {
    fn from(v: Value) -> Self {
        PValue::certain(v)
    }
}

impl std::fmt::Display for PValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_null() {
            return write!(f, "⊥");
        }
        if self.is_certain() {
            return write!(f, "{}", self.alts[0].0);
        }
        write!(f, "{{")?;
        for (i, (v, p)) in self.alts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}: {p}")?;
        }
        if self.null_prob() > PROB_EPS {
            write!(f, ", ⊥: {:.3}", self.null_prob())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certain_values() {
        let v = PValue::certain("Tim");
        assert!(v.is_certain());
        assert!(!v.is_null());
        assert_eq!(v.existence_prob(), 1.0);
        assert_eq!(v.null_prob(), 0.0);
        assert_eq!(v.support_len(), 1);
        assert_eq!(v.to_string(), "Tim");
    }

    #[test]
    fn certain_null() {
        let v = PValue::null();
        assert!(v.is_certain());
        assert!(v.is_null());
        assert_eq!(v.null_prob(), 1.0);
        assert_eq!(v.to_string(), "⊥");
        assert_eq!(PValue::certain(Value::Null), v);
    }

    #[test]
    fn paper_fig4_t11_job() {
        // {machinist: 0.7, mechanic: 0.2} → jobless with 0.1.
        let v = PValue::categorical([("machinist", 0.7), ("mechanic", 0.2)]).unwrap();
        assert!((v.null_prob() - 0.1).abs() < 1e-12);
        assert!((v.existence_prob() - 0.9).abs() < 1e-12);
        assert!(!v.is_certain());
        let (best, p) = v.most_probable();
        assert_eq!(best.unwrap().as_text(), Some("machinist"));
        assert!((p - 0.7).abs() < 1e-12);
    }

    #[test]
    fn categorical_merges_duplicates_and_drops_zeros() {
        let v = PValue::categorical([("a", 0.3), ("a", 0.2), ("b", 0.0)]).unwrap();
        assert_eq!(v.support_len(), 1);
        assert!((v.prob_of(Some(&Value::from("a"))) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn categorical_rejects_bad_mass() {
        assert!(PValue::categorical([("a", 0.7), ("b", 0.5)]).is_err());
        assert!(PValue::categorical([("a", -0.1)]).is_err());
        assert!(PValue::categorical([("a", f64::NAN)]).is_err());
    }

    #[test]
    fn explicit_null_mass_joins_implicit() {
        let v = PValue::categorical([(Value::from("a"), 0.5), (Value::Null, 0.3)]).unwrap();
        assert_eq!(v.support_len(), 1);
        assert!((v.null_prob() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn uniform_distribution() {
        let v = PValue::uniform(["musician", "museum guide"]).unwrap();
        assert!((v.prob_of(Some(&Value::from("musician"))) - 0.5).abs() < 1e-12);
        assert!(PValue::uniform(Vec::<String>::new()).is_err());
    }

    #[test]
    fn outcomes_include_null() {
        let v = PValue::categorical([("a", 0.6)]).unwrap();
        let outcomes: Vec<(Option<String>, f64)> = v
            .outcomes()
            .map(|(o, p)| (o.map(|v| v.render()), p))
            .collect();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].0.as_deref(), Some("a"));
        assert!((outcomes[1].1 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn most_probable_prefers_null_when_dominant() {
        let v = PValue::categorical([("a", 0.2)]).unwrap();
        let (best, p) = v.most_probable();
        assert!(best.is_none());
        assert!((p - 0.8).abs() < 1e-12);
    }

    #[test]
    fn map_values_remerges() {
        let v = PValue::categorical([("Tim", 0.5), ("tim", 0.4)]).unwrap();
        let lower = v.map_values(|x| Value::from(x.render().to_lowercase()));
        assert_eq!(lower.support_len(), 1);
        assert!((lower.prob_of(Some(&Value::from("tim"))) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn map_values_to_null_moves_mass() {
        let v = PValue::categorical([("x", 0.5), ("y", 0.5)]).unwrap();
        let mapped = v.map_values(|w| {
            if w.render() == "x" {
                Value::Null
            } else {
                w.clone()
            }
        });
        assert!((mapped.null_prob() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conditioning_on_existence() {
        let v = PValue::categorical([("a", 0.6), ("b", 0.3)]).unwrap();
        let c = v.conditioned_on_existence().unwrap();
        assert!((c.existence_prob() - 1.0).abs() < 1e-9);
        assert!((c.prob_of(Some(&Value::from("a"))) - 2.0 / 3.0).abs() < 1e-12);
        assert!(PValue::null().conditioned_on_existence().is_none());
    }

    #[test]
    fn entropy_ordering() {
        let certain = PValue::certain("a");
        let coin = PValue::categorical([("a", 0.5), ("b", 0.5)]).unwrap();
        let skewed = PValue::categorical([("a", 0.9), ("b", 0.1)]).unwrap();
        assert_eq!(certain.entropy(), 0.0);
        assert!(coin.entropy() > skewed.entropy());
        assert!((coin.entropy() - f64::ln(2.0)).abs() < 1e-12);
    }

    #[test]
    fn equality_prob_eq4() {
        // Section IV-A (error-free): P(a1 = a2).
        let a = PValue::categorical([("Tim", 0.6), ("Tom", 0.4)]).unwrap();
        let b = PValue::categorical([("Tim", 0.7), ("Kim", 0.3)]).unwrap();
        assert!((a.equality_prob(&b) - 0.42).abs() < 1e-12);
        // ⊥ matches ⊥: sim(⊥,⊥) = 1 contributes null×null.
        let c = PValue::categorical([("x", 0.5)]).unwrap(); // ⊥ mass 0.5
        let d = PValue::categorical([("y", 0.2)]).unwrap(); // ⊥ mass 0.8
        assert!((c.equality_prob(&d) - 0.4).abs() < 1e-12);
        // Symmetry.
        assert!((a.equality_prob(&b) - b.equality_prob(&a)).abs() < 1e-12);
    }

    #[test]
    fn display_of_distributions() {
        let v = PValue::categorical([("John", 0.5), ("Johan", 0.5)]).unwrap();
        let s = v.to_string();
        assert!(s.contains("John") && s.contains("Johan"), "{s}");
        let with_null = PValue::categorical([("a", 0.7)]).unwrap();
        assert!(with_null.to_string().contains('⊥'));
    }

    #[test]
    fn deterministic_sorted_alternatives() {
        let v1 = PValue::categorical([("b", 0.5), ("a", 0.5)]).unwrap();
        let v2 = PValue::categorical([("a", 0.5), ("b", 0.5)]).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(v1.alternatives()[0].0.render(), "a");
    }
}
