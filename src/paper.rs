//! The paper's running examples as ready-made fixtures: the probabilistic
//! relations ℛ1/ℛ2 (Fig. 4), the x-relations ℛ3/ℛ4 (Fig. 5), their union
//! ℛ34, and the example keys of Section V. Examples, integration tests and
//! the experiment harness all reproduce figures from these fixtures.

use probdedup_model::pvalue::PValue;
use probdedup_model::relation::{Relation, XRelation};
use probdedup_model::schema::Schema;
use probdedup_model::tuple::ProbTuple;
use probdedup_model::value::Value;
use probdedup_model::xtuple::XTuple;
use probdedup_reduction::key::{KeyPart, KeySpec};

/// The `(name, job)` schema of all paper examples.
pub fn schema() -> Schema {
    Schema::new(["name", "job"])
}

/// Fig. 4 (left): the probabilistic relation ℛ1.
///
/// | tuple | name | job | p(t) |
/// |-------|------|-----|------|
/// | t11 | Tim | {machinist: .7, mechanic: .2} | 1.0 |
/// | t12 | {John: .5, Johan: .5} | {baker: .7, confectioner: .3} | 1.0 |
/// | t13 | {Tim: .6, Tom: .4} | machinist | 0.6 |
pub fn fig4_r1() -> Relation {
    let s = schema();
    let mut r = Relation::new(s.clone());
    r.push(
        ProbTuple::builder(&s)
            .certain("name", "Tim")
            .dist("job", [("machinist", 0.7), ("mechanic", 0.2)])
            .probability(1.0)
            .build()
            .expect("t11"),
    );
    r.push(
        ProbTuple::builder(&s)
            .dist("name", [("John", 0.5), ("Johan", 0.5)])
            .dist("job", [("baker", 0.7), ("confectioner", 0.3)])
            .probability(1.0)
            .build()
            .expect("t12"),
    );
    r.push(
        ProbTuple::builder(&s)
            .dist("name", [("Tim", 0.6), ("Tom", 0.4)])
            .certain("job", "machinist")
            .probability(0.6)
            .build()
            .expect("t13"),
    );
    r
}

/// Fig. 4 (right): the probabilistic relation ℛ2.
///
/// | tuple | name | job | p(t) |
/// |-------|------|-----|------|
/// | t21 | {John: .7, Jon: .3} | confectionist | 1.0 |
/// | t22 | {Tim: .7, Kim: .3} | mechanic | 0.8 |
/// | t23 | Timothy | {mechanist: .8, engineer: .2} | 0.7 |
pub fn fig4_r2() -> Relation {
    let s = schema();
    let mut r = Relation::new(s.clone());
    r.push(
        ProbTuple::builder(&s)
            .dist("name", [("John", 0.7), ("Jon", 0.3)])
            .certain("job", "confectionist")
            .probability(1.0)
            .build()
            .expect("t21"),
    );
    r.push(
        ProbTuple::builder(&s)
            .dist("name", [("Tim", 0.7), ("Kim", 0.3)])
            .certain("job", "mechanic")
            .probability(0.8)
            .build()
            .expect("t22"),
    );
    r.push(
        ProbTuple::builder(&s)
            .certain("name", "Timothy")
            .dist("job", [("mechanist", 0.8), ("engineer", 0.2)])
            .probability(0.7)
            .build()
            .expect("t23"),
    );
    r
}

/// Fig. 5 (left): the x-relation ℛ3 with x-tuples t31 and t32.
/// `t31`'s second alternative carries the `mu*` pattern value, expanded to
/// a uniform distribution over `{musician, museum guide}`.
pub fn fig5_r3() -> XRelation {
    let s = schema();
    let mu = PValue::uniform(["musician", "museum guide"]).expect("mu*");
    let mut r = XRelation::new(s.clone());
    r.push(
        XTuple::builder(&s)
            .alt(0.7, ["John", "pilot"])
            .alt_pvalues(0.3, [PValue::certain("Johan"), mu])
            .label("t31")
            .build()
            .expect("t31"),
    );
    r.push(
        XTuple::builder(&s)
            .alt(0.3, ["Tim", "mechanic"])
            .alt(0.2, ["Jim", "mechanic"])
            .alt(0.4, ["Jim", "baker"])
            .label("t32")
            .build()
            .expect("t32"),
    );
    r
}

/// Fig. 5 (right): the x-relation ℛ4 with x-tuples t41, t42 (maybe) and
/// t43 (maybe, with a ⊥ job in its first alternative).
pub fn fig5_r4() -> XRelation {
    let s = schema();
    let mut r = XRelation::new(s.clone());
    r.push(
        XTuple::builder(&s)
            .alt(0.8, ["John", "pilot"])
            .alt(0.2, ["Johan", "pianist"])
            .label("t41")
            .build()
            .expect("t41"),
    );
    r.push(
        XTuple::builder(&s)
            .alt(0.8, ["Tom", "mechanic"])
            .label("t42")
            .build()
            .expect("t42"),
    );
    r.push(
        XTuple::builder(&s)
            .alt(0.2, [Value::from("John"), Value::Null])
            .alt(0.6, ["Sean", "pilot"])
            .label("t43")
            .build()
            .expect("t43"),
    );
    r
}

/// ℛ34 = ℛ3 ∪ ℛ4 (Section V-A), row order t31, t32, t41, t42, t43.
pub fn r34() -> XRelation {
    let (r34, _) = fig5_r3().union(&fig5_r4()).expect("compatible schemas");
    r34
}

/// Row indices of the labelled tuples within [`r34`].
pub mod rows {
    /// t31.
    pub const T31: usize = 0;
    /// t32.
    pub const T32: usize = 1;
    /// t41.
    pub const T41: usize = 2;
    /// t42.
    pub const T42: usize = 3;
    /// t43.
    pub const T43: usize = 4;
}

/// The Section V sorting key: first 3 characters of the name + first 2 of
/// the job.
pub fn sorting_key() -> KeySpec {
    KeySpec::paper_example(0, 1)
}

/// The Fig. 14 blocking key: first character of the name + first character
/// of the job.
pub fn blocking_key() -> KeySpec {
    KeySpec::new(vec![KeyPart::prefix(0, 1), KeyPart::prefix(1, 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_match_figure_shapes() {
        assert_eq!(fig4_r1().len(), 3);
        assert_eq!(fig4_r2().len(), 3);
        assert_eq!(fig5_r3().len(), 2);
        assert_eq!(fig5_r4().len(), 3);
        let combined = r34();
        assert_eq!(combined.len(), 5);
        assert_eq!(combined.get(rows::T32).unwrap().label(), Some("t32"));
        assert_eq!(combined.get(rows::T43).unwrap().label(), Some("t43"));
    }

    #[test]
    fn fig5_membership_probabilities() {
        let r = r34();
        assert!((r.get(rows::T31).unwrap().probability() - 1.0).abs() < 1e-12);
        assert!((r.get(rows::T32).unwrap().probability() - 0.9).abs() < 1e-12);
        assert!((r.get(rows::T42).unwrap().probability() - 0.8).abs() < 1e-12);
        assert!((r.get(rows::T43).unwrap().probability() - 0.8).abs() < 1e-12);
        assert!(r.get(rows::T42).unwrap().is_maybe());
        assert!(r.get(rows::T43).unwrap().is_maybe());
    }
}
