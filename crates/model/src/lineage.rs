//! Mutually exclusive tuple sets — the minimal lineage mechanism the
//! paper's conclusion calls for.
//!
//! Section VI: *"by using a probabilistic data model for the target schema,
//! any kind of uncertainty arising in the duplicate detection process … can
//! be directly modeled in the resulting data by creating mutually exclusive
//! sets of tuples. For that purpose, the used probabilistic data model must
//! be able to represent dependencies between multiple sets of tuples (in the
//! ULDB model … realized by the concept of lineage)."*
//!
//! [`AlternativeSets`] records, over the rows of a result [`XRelation`],
//! mutually exclusive *sets* of rows: **at most one set exists in any
//! possible world**. The pipeline uses this to emit "possibly-merged"
//! results: the merged tuple (with probability = match confidence) or the
//! two unmerged originals.

use crate::error::ModelError;
use crate::relation::XRelation;
use crate::util::PROB_EPS;

/// Mutually exclusive **sets** of rows — the full construct of Section VI:
/// in any possible world, *at most one option* (a set of rows) of each
/// `AlternativeSets` is realized, with the given probability.
///
/// The duplicate-detection use: a possible match `(i, j)` with confidence
/// `c` becomes `options = [([merged], c), ([i, j], 1 − c)]` — either the
/// merged tuple exists, or both originals do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlternativeSets {
    options: Vec<(Vec<usize>, f64)>,
}

impl AlternativeSets {
    /// No options (no constraint).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an option: a set of rows realized together with probability `p`.
    pub fn add_option(&mut self, rows: Vec<usize>, p: f64) -> Result<(), ModelError> {
        if p.is_nan() || !(0.0..=1.0).contains(&p) {
            return Err(ModelError::InvalidProbability {
                value: p,
                context: "alternative set option",
            });
        }
        self.options.push((rows, p));
        let total: f64 = self.options.iter().map(|(_, p)| p).sum();
        if total > 1.0 + PROB_EPS {
            self.options.pop();
            return Err(ModelError::MassExceeded {
                sum: total,
                context: "alternative set options",
            });
        }
        Ok(())
    }

    /// The options.
    pub fn options(&self) -> &[(Vec<usize>, f64)] {
        &self.options
    }

    /// Validate row references against a result relation and require the
    /// options' row sets to be pairwise disjoint (a row cannot belong to
    /// two mutually exclusive worlds of the same constraint).
    pub fn validate(&self, relation: &XRelation) -> Result<(), ModelError> {
        let mut seen = vec![false; relation.len()];
        for (rows, _) in &self.options {
            for &row in rows {
                if row >= relation.len() {
                    return Err(ModelError::SchemaMismatch {
                        expected: relation.len(),
                        got: row,
                    });
                }
                if std::mem::replace(&mut seen[row], true) {
                    return Err(ModelError::MassExceeded {
                        sum: f64::NAN,
                        context: "row appears in two options of one alternative set",
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::xtuple::XTuple;

    fn relation_with_probs(ps: &[f64]) -> XRelation {
        let s = Schema::new(["x"]);
        let mut r = XRelation::new(s.clone());
        for &p in ps {
            r.push(XTuple::builder(&s).alt(p, ["v"]).build().unwrap());
        }
        r
    }

    #[test]
    fn alternative_sets_possible_match_encoding() {
        // merged (row 2) with c = 0.6 XOR originals (rows 0, 1) with 0.4.
        let r = relation_with_probs(&[1.0, 1.0, 0.6]);
        let mut a = AlternativeSets::new();
        a.add_option(vec![2], 0.6).unwrap();
        a.add_option(vec![0, 1], 0.4).unwrap();
        assert!(a.validate(&r).is_ok());
        assert_eq!(a.options().len(), 2);
    }

    #[test]
    fn alternative_sets_mass_guard() {
        let mut a = AlternativeSets::new();
        a.add_option(vec![0], 0.7).unwrap();
        assert!(a.add_option(vec![1], 0.5).is_err());
        // The failed option must not have been retained.
        assert_eq!(a.options().len(), 1);
    }

    #[test]
    fn alternative_sets_overlap_and_range_guards() {
        let r = relation_with_probs(&[1.0, 1.0]);
        let mut overlap = AlternativeSets::new();
        overlap.add_option(vec![0], 0.5).unwrap();
        overlap.add_option(vec![0, 1], 0.4).unwrap();
        assert!(overlap.validate(&r).is_err());
        let mut out_of_range = AlternativeSets::new();
        out_of_range.add_option(vec![9], 0.5).unwrap();
        assert!(out_of_range.validate(&r).is_err());
        assert!(AlternativeSets::new().add_option(vec![0], 1.5).is_err());
    }
}
