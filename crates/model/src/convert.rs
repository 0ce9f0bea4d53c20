//! Conversion from the x-tuple model ([`XTuple`]) to the dependency-free
//! model ([`ProbTuple`]): [`marginalize_xtuple`] projects an x-tuple down to
//! independent per-attribute marginals — always cheap, but *lossy*:
//! dependencies between attribute values are forgotten.

use crate::pvalue::PValue;
use crate::tuple::ProbTuple;
use crate::value::Value;
use crate::xtuple::XTuple;

/// Project an x-tuple to a dependency-free tuple by per-attribute
/// marginalization, conditioning on existence:
/// `P(attr = v) = Σᵢ (p(tⁱ)/p(t)) · Pᵢ(attr = v)`.
///
/// The resulting tuple keeps the original membership probability `p(t)`.
/// **Lossy**: dependencies between attributes are dropped.
pub fn marginalize_xtuple(t: &XTuple) -> ProbTuple {
    let arity = t.alternatives()[0].values().len();
    let mut values = Vec::with_capacity(arity);
    for a in 0..arity {
        let mut entries: Vec<(Value, f64)> = Vec::new();
        for (alt, w) in t.conditioned() {
            for (v, p) in alt.value(a).alternatives() {
                entries.push((v.clone(), w * p));
            }
        }
        values.push(PValue::categorical(entries).expect("marginal mass ≤ 1 by construction"));
    }
    ProbTuple::new(values, t.probability()).expect("p(t) ∈ (0,1] by x-tuple invariant")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        Schema::new(["name", "job"])
    }

    #[test]
    fn marginalize_recovers_independent_distributions() {
        // name ∈ {Tim .6, Tom .4} × job ∈ {x .5, y .5}, p(t) = 0.8, spelled
        // out as the four independent combinations.
        let x = XTuple::builder(&schema())
            .alt(0.24, ["Tim", "x"])
            .alt(0.24, ["Tim", "y"])
            .alt(0.16, ["Tom", "x"])
            .alt(0.16, ["Tom", "y"])
            .build()
            .unwrap();
        let back = marginalize_xtuple(&x);
        assert!((back.probability() - 0.8).abs() < 1e-12);
        for (attr, v, p) in [
            (0, "Tim", 0.6),
            (0, "Tom", 0.4),
            (1, "x", 0.5),
            (1, "y", 0.5),
        ] {
            assert!(
                (back.value(attr).prob_of(Some(&Value::from(v))) - p).abs() < 1e-9,
                "marginal mismatch for {v}"
            );
        }
    }

    #[test]
    fn marginalize_is_lossy_for_dependent_alternatives() {
        // Perfectly correlated: (a, x) or (b, y). Both marginals are
        // uniform, so the impossible (a, y) has probability 0.25 under
        // them: the dependency information is gone.
        let x = XTuple::builder(&schema())
            .alt(0.5, ["a", "x"])
            .alt(0.5, ["b", "y"])
            .build()
            .unwrap();
        let m = marginalize_xtuple(&x);
        assert!((m.value(0).prob_of(Some(&Value::from("a"))) - 0.5).abs() < 1e-12);
        assert!((m.value(1).prob_of(Some(&Value::from("y"))) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn marginalize_handles_null_and_uncertain_values() {
        let mu = PValue::uniform(["musician", "museum guide"]).unwrap();
        let x = XTuple::builder(&schema())
            .alt(0.2, [Value::from("John"), Value::Null])
            .alt_pvalues(0.6, [PValue::certain("Johan"), mu])
            .build()
            .unwrap();
        let m = marginalize_xtuple(&x);
        // P(job = ⊥ | exists) = 0.2/0.8 = 0.25.
        assert!((m.value(1).null_prob() - 0.25).abs() < 1e-12);
        // P(job = musician | exists) = 0.75 · 0.5.
        assert!((m.value(1).prob_of(Some(&Value::from("musician"))) - 0.375).abs() < 1e-12);
    }
}
