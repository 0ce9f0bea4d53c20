//! Descriptive statistics of probabilistic relations — used by the
//! experiment harness to characterize synthetic datasets and by examples to
//! show what a dataset looks like.

use crate::relation::XRelation;
use crate::world::world_count;
use crate::xtuple::XTuple;

/// Uncertainty profile of an x-relation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationStats {
    /// Number of x-tuples.
    pub tuples: usize,
    /// Total number of alternatives across all x-tuples.
    pub alternatives: usize,
    /// Maximum alternatives of a single x-tuple.
    pub max_alternatives: usize,
    /// Number of maybe x-tuples (`p(t) < 1`).
    pub maybe_tuples: usize,
    /// Number of attribute values (across alternatives) that are uncertain
    /// distributions rather than certain values.
    pub uncertain_values: usize,
    /// Number of attribute values that are certain ⊥.
    pub null_values: usize,
    /// Mean entropy (nats) over all attribute values.
    pub mean_value_entropy: f64,
    /// `log10` of the number of possible worlds (saturating).
    pub log10_worlds: f64,
}

impl RelationStats {
    /// Compute statistics for an x-relation.
    pub fn for_xrelation(r: &XRelation) -> Self {
        Self::for_xtuples(r.xtuples())
    }

    fn for_xtuples(xs: &[XTuple]) -> Self {
        let mut alternatives = 0;
        let mut max_alternatives = 0;
        let mut maybe_tuples = 0;
        let mut uncertain_values = 0;
        let mut null_values = 0;
        let mut entropy_sum = 0.0;
        let mut value_count = 0usize;
        for t in xs {
            alternatives += t.len();
            max_alternatives = max_alternatives.max(t.len());
            if t.is_maybe() {
                maybe_tuples += 1;
            }
            for a in t.alternatives() {
                for v in a.values() {
                    value_count += 1;
                    entropy_sum += v.entropy();
                    if v.is_null() {
                        null_values += 1;
                    } else if !v.is_certain() {
                        uncertain_values += 1;
                    }
                }
            }
        }
        let worlds = world_count(xs);
        Self {
            tuples: xs.len(),
            alternatives,
            max_alternatives,
            maybe_tuples,
            uncertain_values,
            null_values,
            mean_value_entropy: if value_count == 0 {
                0.0
            } else {
                entropy_sum / value_count as f64
            },
            log10_worlds: if worlds == u128::MAX {
                f64::INFINITY
            } else {
                (worlds as f64).log10()
            },
        }
    }
}

impl std::fmt::Display for RelationStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "tuples:              {}", self.tuples)?;
        writeln!(f, "alternatives:        {}", self.alternatives)?;
        writeln!(f, "max alternatives:    {}", self.max_alternatives)?;
        writeln!(f, "maybe tuples (?):    {}", self.maybe_tuples)?;
        writeln!(f, "uncertain values:    {}", self.uncertain_values)?;
        writeln!(f, "null (⊥) values:     {}", self.null_values)?;
        writeln!(
            f,
            "mean value entropy:  {:.4} nats",
            self.mean_value_entropy
        )?;
        write!(f, "log10(|worlds|):     {:.2}", self.log10_worlds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pvalue::PValue;
    use crate::schema::Schema;
    use crate::tuple::ProbTuple;
    use crate::value::Value;

    #[test]
    fn stats_of_fig5_style_relation() {
        let s = Schema::new(["name", "job"]);
        let mut r = XRelation::new(s.clone());
        r.push(
            XTuple::builder(&s)
                .alt(0.3, ["Tim", "mechanic"])
                .alt(0.2, ["Jim", "mechanic"])
                .alt(0.4, ["Jim", "baker"])
                .build()
                .unwrap(),
        );
        r.push(
            XTuple::builder(&s)
                .alt(0.8, ["Tom", "mechanic"])
                .build()
                .unwrap(),
        );
        r.push(
            XTuple::builder(&s)
                .alt(0.2, [Value::from("John"), Value::Null])
                .alt(0.6, ["Sean", "pilot"])
                .build()
                .unwrap(),
        );
        let st = RelationStats::for_xrelation(&r);
        assert_eq!(st.tuples, 3);
        assert_eq!(st.alternatives, 6);
        assert_eq!(st.max_alternatives, 3);
        assert_eq!(st.maybe_tuples, 3);
        assert_eq!(st.null_values, 1);
        assert_eq!(st.uncertain_values, 0);
        // Worlds: (3+1)·(1+1)·(2+1) = 24.
        assert!((st.log10_worlds - 24f64.log10()).abs() < 1e-12);
        let rendered = st.to_string();
        assert!(rendered.contains("tuples:              3"));
    }

    #[test]
    fn stats_count_uncertain_values() {
        let s = Schema::new(["name", "job"]);
        let mut r = XRelation::new(s.clone());
        r.push(XTuple::from_prob_tuple(
            &ProbTuple::builder(&s)
                .dist("name", [("Tim", 0.6), ("Tom", 0.4)])
                .pvalue("job", PValue::certain("machinist"))
                .build()
                .unwrap(),
        ));
        let st = RelationStats::for_xrelation(&r);
        assert_eq!(st.uncertain_values, 1);
        assert!(st.mean_value_entropy > 0.0);
    }

    #[test]
    fn stats_of_empty_relation() {
        let r = XRelation::new(Schema::new(["a"]));
        let st = RelationStats::for_xrelation(&r);
        assert_eq!(st.tuples, 0);
        assert_eq!(st.mean_value_entropy, 0.0);
        assert_eq!(st.log10_worlds, 0.0);
    }
}
