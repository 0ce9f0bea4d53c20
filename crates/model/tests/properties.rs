//! Property-based tests for the probabilistic data model invariants.

use proptest::prelude::*;

use probdedup_model::condition::{
    conditioned_world_probability, existence_event_probability, normalized_alternative_probs,
};
use probdedup_model::pvalue::PValue;
use probdedup_model::schema::Schema;
use probdedup_model::value::Value;
use probdedup_model::world::{enumerate_worlds, full_worlds, top_k_worlds, world_count, World};
use probdedup_model::xtuple::XTuple;

/// Strategy: a small categorical distribution with mass ≤ 1.
fn arb_pvalue() -> impl Strategy<Value = PValue> {
    proptest::collection::vec(("[a-e]{1,3}", 1u32..100), 0..4).prop_map(|entries| {
        let total: u32 = entries.iter().map(|(_, w)| *w).sum();
        // Scale weights into (0, 1] with total mass ≤ 0.999 to leave ⊥ room
        // sometimes; empty → certain ⊥.
        let denom = f64::from(total.max(1)) * 1.2;
        PValue::categorical(
            entries
                .into_iter()
                .map(|(v, w)| (Value::from(v), f64::from(w) / denom)),
        )
        .expect("mass ≤ 1 by construction")
    })
}

/// Strategy: an x-tuple with 1–4 alternatives over a 2-attribute schema.
fn arb_xtuple() -> impl Strategy<Value = XTuple> {
    proptest::collection::vec(("[a-d]{1,3}", "[a-d]{1,3}", 1u32..50), 1..4).prop_map(|alts| {
        let total: u32 = alts.iter().map(|(_, _, w)| *w).sum();
        let denom = f64::from(total) * 1.1; // keep Σ < 1 ⇒ maybe tuples occur
        let s = Schema::new(["name", "job"]);
        let mut b = XTuple::builder(&s);
        for (n, j, w) in alts {
            b = b.alt(f64::from(w) / denom, [n, j]);
        }
        b.build().expect("valid x-tuple by construction")
    })
}

/// Position of `choice` in `t`'s outcome list under the order
/// [`top_k_worlds`] documents: probability descending, then choice
/// ascending with `None` (absent) first.
fn position(t: &XTuple, choice: Option<usize>) -> usize {
    let p =
        |c: Option<usize>| c.map_or(1.0 - t.probability(), |a| t.alternatives()[a].probability());
    (0..t.len())
        .map(Some)
        .chain([None])
        .filter(|&o| p(o) > p(choice) || (p(o) == p(choice) && o < choice))
        .count()
}

/// The exact oracle for [`top_k_worlds`]: the enumeration (whose
/// probabilities are the same left fold), sorted by the documented total
/// order — probability descending, then position vector ascending — agrees
/// with it in `choices` and in every bit of `probability`.
fn assert_top_k_is_sorted_enumeration(ts: &[XTuple], k: usize, full_only: bool) {
    let mut all: Vec<(World, Vec<usize>)> = enumerate_worlds(ts, 4096)
        .unwrap()
        .into_iter()
        .filter(|w| !full_only || w.is_full())
        .map(|w| {
            let positions = ts
                .iter()
                .zip(&w.choices)
                .map(|(t, &c)| position(t, c))
                .collect();
            (w, positions)
        })
        .collect();
    all.sort_by(|(a, pa), (b, pb)| {
        b.probability
            .partial_cmp(&a.probability)
            .unwrap()
            .then_with(|| pa.cmp(pb))
    });
    let top = top_k_worlds(ts, k, full_only);
    assert_eq!(top.len(), k.min(all.len()));
    for (rank, (t, (a, _))) in top.iter().zip(&all).enumerate() {
        assert_eq!(t.choices, a.choices, "rank {rank}");
        assert_eq!(
            t.probability.to_bits(),
            a.probability.to_bits(),
            "rank {rank}"
        );
    }
}

/// The tie rule on its own: equal alternative probabilities inside a tuple
/// and equal products across tuples.
#[test]
fn top_k_matches_enumeration_under_ties() {
    let s = Schema::new(["name", "job"]);
    let tied = |ps: &[f64]| {
        let mut b = XTuple::builder(&s);
        for (i, &p) in ps.iter().enumerate() {
            b = b.alt(p, [format!("n{i}"), format!("j{i}")]);
        }
        b.build().unwrap()
    };
    let ts = [
        tied(&[0.25, 0.25, 0.25]),
        tied(&[0.5, 0.5]),
        tied(&[1.0]),
        tied(&[0.25, 0.5]),
        tied(&[0.5, 0.25, 0.25]),
    ];
    for full_only in [true, false] {
        for k in [1, 2, 7, 50, 1000] {
            assert_top_k_is_sorted_enumeration(&ts, k, full_only);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PValue invariants: existence + null mass = 1; outcomes sum to 1.
    #[test]
    fn pvalue_mass_partition(v in arb_pvalue()) {
        let total = v.existence_prob() + v.null_prob();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let outcome_sum: f64 = v.outcomes().map(|(_, p)| p).sum();
        prop_assert!((outcome_sum - 1.0).abs() < 1e-6 || v.null_prob() <= 1e-9);
    }

    /// equality_prob is symmetric, in [0,1], and 1 on identical values.
    #[test]
    fn equality_prob_laws(a in arb_pvalue(), b in arb_pvalue()) {
        let ab = a.equality_prob(&b);
        let ba = b.equality_prob(&a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
        // Certain values compared to themselves score 1.
        if a.is_certain() {
            prop_assert!((a.equality_prob(&a) - 1.0).abs() < 1e-9);
        }
    }

    /// Conditioning on existence yields a normalized distribution that
    /// preserves outcome ratios.
    #[test]
    fn conditioning_preserves_ratios(v in arb_pvalue()) {
        if let Some(c) = v.conditioned_on_existence() {
            prop_assert!((c.existence_prob() - 1.0).abs() < 1e-6);
            let alts = v.alternatives();
            if alts.len() >= 2 {
                let r_before = alts[0].1 / alts[1].1;
                let c_alts = c.alternatives();
                let r_after = c_alts[0].1 / c_alts[1].1;
                prop_assert!((r_before - r_after).abs() < 1e-6);
            }
        } else {
            prop_assert!(v.existence_prob() <= 1e-9);
        }
    }

    /// World probabilities over any x-tuple set sum to 1, and the full-world
    /// mass equals P(B).
    #[test]
    fn world_masses(ts in proptest::collection::vec(arb_xtuple(), 1..4)) {
        prop_assume!(world_count(&ts) <= 4096);
        let worlds = enumerate_worlds(&ts, 4096).unwrap();
        let total: f64 = worlds.iter().map(|w| w.probability).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total = {total}");
        let full_mass: f64 = full_worlds(&ts).map(|w| w.probability).sum();
        let pb = existence_event_probability(&ts);
        prop_assert!((full_mass - pb).abs() < 1e-9);
    }

    /// top-k worlds are exactly the head of the sorted enumeration.
    #[test]
    fn top_k_matches_enumeration(
        ts in proptest::collection::vec(arb_xtuple(), 1..5),
        k in 1usize..40,
        full_only in any::<bool>(),
    ) {
        assert_top_k_is_sorted_enumeration(&ts, k, full_only);
    }

    /// The prefix law of the order contract, beyond the sizes the
    /// enumeration reaches.
    #[test]
    fn top_k_prefix_law(
        ts in proptest::collection::vec(arb_xtuple(), 1..9),
        k in 0usize..30,
        extra in 0usize..30,
        full_only in any::<bool>(),
    ) {
        let longer = top_k_worlds(&ts, k + extra, full_only);
        prop_assert_eq!(&top_k_worlds(&ts, k, full_only)[..], &longer[..k.min(longer.len())]);
    }

    /// Conditioned world probabilities of full worlds sum to 1 and are
    /// invariant when every alternative probability of one tuple is scaled
    /// by a constant factor (the "membership must not matter" law).
    #[test]
    fn conditioned_full_world_mass(ts in proptest::collection::vec(arb_xtuple(), 1..3)) {
        prop_assume!(world_count(&ts) <= 512);
        let full: Vec<Vec<usize>> = full_worlds(&ts)
            .map(|w| w.choices.iter().map(|c| c.unwrap()).collect())
            .collect();
        let total: f64 = full
            .iter()
            .map(|c| conditioned_world_probability(&ts, c))
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// Normalized alternative probabilities sum to 1.
    #[test]
    fn normalized_alt_probs_sum(t in arb_xtuple()) {
        let probs = normalized_alternative_probs(&t);
        let sum: f64 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }
}
