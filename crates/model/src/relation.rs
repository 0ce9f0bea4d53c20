//! Probabilistic relations: collections of [`ProbTuple`]s (dependency-free
//! model, Fig. 4) and x-relations of [`XTuple`]s (Fig. 5).

use crate::error::ModelError;
use crate::schema::Schema;
use crate::tuple::ProbTuple;
use crate::xtuple::XTuple;

/// A probabilistic relation in the dependency-free model (Section IV-A):
/// each tuple carries attribute-level distributions and a membership
/// probability, and attribute values are treated as independent.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    tuples: Vec<ProbTuple>,
}

impl Relation {
    /// An empty relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            tuples: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append a tuple (panics on arity mismatch; use [`Relation::try_push`]
    /// for fallible insertion).
    pub fn push(&mut self, t: ProbTuple) {
        self.try_push(t).expect("tuple arity must match schema");
    }

    /// Append a tuple, validating arity.
    pub fn try_push(&mut self, t: ProbTuple) -> Result<(), ModelError> {
        if t.arity() != self.schema.arity() {
            return Err(ModelError::SchemaMismatch {
                expected: self.schema.arity(),
                got: t.arity(),
            });
        }
        self.tuples.push(t);
        Ok(())
    }

    /// The tuples in insertion order.
    pub fn tuples(&self) -> &[ProbTuple] {
        &self.tuples
    }

    /// Mutable tuple access (data preparation).
    pub fn tuples_mut(&mut self) -> &mut [ProbTuple] {
        &mut self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Convert to an x-relation (each tuple becomes a one-alternative
    /// x-tuple keeping its attribute-level distributions).
    pub fn to_x_relation(&self) -> XRelation {
        let mut x = XRelation::new(self.schema.clone());
        for t in &self.tuples {
            x.push(XTuple::from_prob_tuple(t));
        }
        x
    }
}

/// An x-relation: a probabilistic relation whose rows are x-tuples
/// (Fig. 5's ℛ3 and ℛ4).
#[derive(Debug, Clone, PartialEq)]
pub struct XRelation {
    schema: Schema,
    xtuples: Vec<XTuple>,
}

impl XRelation {
    /// An empty x-relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            xtuples: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append an x-tuple (panics on arity mismatch).
    pub fn push(&mut self, t: XTuple) {
        self.try_push(t).expect("x-tuple arity must match schema");
    }

    /// Append an x-tuple, validating the arity of every alternative.
    pub fn try_push(&mut self, t: XTuple) -> Result<(), ModelError> {
        for alt in t.alternatives() {
            if alt.values().len() != self.schema.arity() {
                return Err(ModelError::SchemaMismatch {
                    expected: self.schema.arity(),
                    got: alt.values().len(),
                });
            }
        }
        self.xtuples.push(t);
        Ok(())
    }

    /// The x-tuples in insertion order.
    pub fn xtuples(&self) -> &[XTuple] {
        &self.xtuples
    }

    /// Mutable access (data preparation).
    pub fn xtuples_mut(&mut self) -> &mut [XTuple] {
        &mut self.xtuples
    }

    /// Number of x-tuples.
    pub fn len(&self) -> usize {
        self.xtuples.len()
    }

    /// Whether the x-relation is empty.
    pub fn is_empty(&self) -> bool {
        self.xtuples.is_empty()
    }

    /// The x-tuple at `i`.
    pub fn get(&self, i: usize) -> Option<&XTuple> {
        self.xtuples.get(i)
    }

    /// Union of two x-relations (the paper's ℛ34 = ℛ3 ∪ ℛ4, Section V-A),
    /// requiring structurally compatible schemas. Tuples of `self` precede
    /// tuples of `other`; the returned offset is where `other`'s rows start.
    pub fn union(&self, other: &XRelation) -> Result<(XRelation, usize), ModelError> {
        if !self.schema.compatible_with(&other.schema) {
            return Err(ModelError::IncompatibleSchemas);
        }
        let mut out = self.clone();
        let offset = out.len();
        out.xtuples.extend(other.xtuples.iter().cloned());
        Ok((out, offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pvalue::PValue;

    fn schema() -> Schema {
        Schema::new(["name", "job"])
    }

    /// The paper's ℛ1 (Fig. 4).
    pub(crate) fn fig4_r1() -> Relation {
        let s = schema();
        let mut r = Relation::new(s.clone());
        r.push(
            ProbTuple::builder(&s)
                .certain("name", "Tim")
                .dist("job", [("machinist", 0.7), ("mechanic", 0.2)])
                .probability(1.0)
                .build()
                .unwrap(),
        );
        r.push(
            ProbTuple::builder(&s)
                .dist("name", [("John", 0.5), ("Johan", 0.5)])
                .dist("job", [("baker", 0.7), ("confectioner", 0.3)])
                .probability(1.0)
                .build()
                .unwrap(),
        );
        r.push(
            ProbTuple::builder(&s)
                .dist("name", [("Tim", 0.6), ("Tom", 0.4)])
                .certain("job", "machinist")
                .probability(0.6)
                .build()
                .unwrap(),
        );
        r
    }

    #[test]
    fn fig4_relation_roundtrip() {
        let r = fig4_r1();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        // t11 jobless with 0.1.
        assert!((r.tuples()[0].value(1).null_prob() - 0.1).abs() < 1e-12);
        let x = r.to_x_relation();
        assert_eq!(x.len(), 3);
        assert!((x.xtuples()[2].probability() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn push_validates_arity() {
        let mut r = Relation::new(schema());
        let bad = ProbTuple::new(vec![PValue::certain("only-one")], 1.0).unwrap();
        assert!(r.try_push(bad).is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn xrelation_push_validates_alternative_arity() {
        let mut x = XRelation::new(schema());
        let one_col = Schema::new(["name"]);
        let bad = XTuple::builder(&one_col).alt(0.5, ["x"]).build().unwrap();
        assert!(x.try_push(bad).is_err());
    }

    #[test]
    fn union_concatenates_with_offset() {
        let s = schema();
        let mut r3 = XRelation::new(s.clone());
        r3.push(
            XTuple::builder(&s)
                .alt(1.0, ["John", "pilot"])
                .build()
                .unwrap(),
        );
        r3.push(
            XTuple::builder(&s)
                .alt(0.9, ["Tim", "mechanic"])
                .build()
                .unwrap(),
        );
        let mut r4 = XRelation::new(s.clone());
        r4.push(
            XTuple::builder(&s)
                .alt(0.8, ["Tom", "mechanic"])
                .build()
                .unwrap(),
        );
        let (r34, offset) = r3.union(&r4).unwrap();
        assert_eq!(r34.len(), 3);
        assert_eq!(offset, 2);
        assert!((r34.get(2).unwrap().probability() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn union_rejects_incompatible_schemas() {
        let a = XRelation::new(schema());
        let b = XRelation::new(Schema::new(["solo"]));
        assert!(matches!(a.union(&b), Err(ModelError::IncompatibleSchemas)));
    }

    #[test]
    fn get_out_of_range() {
        let x = XRelation::new(schema());
        assert!(x.get(0).is_none());
    }
}
