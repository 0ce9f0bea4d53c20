//! Sorting with uncertain key values (Section V-A.4 / Fig. 13): keep the
//! key *distributions* and order the tuples with a probabilistic ranking
//! function, in `O(n log n)` like certain-data sorting.
//!
//! The paper defers to the ranking literature it cites (\[34\]–\[37\]); we
//! implement two concrete ranking semantics:
//!
//! * [`RankingFunction::MostProbableKey`] — rank by each tuple's most
//!   probable key value; reproduces the ranked order printed in Fig. 13;
//! * [`RankingFunction::ExpectedScore`] — rank by the expectation of a
//!   lexicographic score of the key (the expected-rank flavour of Cormode
//!   et al. \[35\]): uncertainty is *averaged* rather than argmax'd, so a
//!   tuple with two very different likely keys sorts between them.

use probdedup_model::xtuple::XTuple;

use crate::key::KeySpec;
use crate::pairs::CandidatePairs;
use crate::snm::for_each_window_pair;

/// Probabilistic ranking semantics for uncertain keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankingFunction {
    /// Order by the most probable key (ties: lexicographic, then index).
    #[default]
    MostProbableKey,
    /// Order by the expected lexicographic score of the key distribution.
    ExpectedScore,
}

/// Map a key string to a lexicographic score in `[0, 1)`: the first
/// `DEPTH` characters are read as base-96 digits (printable ASCII run;
/// characters outside clamp to the run's ends). Order-preserving on that
/// prefix for printable-ASCII keys only: there `a < b ⟹ score(a) ≤
/// score(b)`. Clamping folds distinct characters outside the run into one
/// digit, so elsewhere the order can invert — `"éz" < "êa"`, yet both
/// first characters clamp to 95 and `score("éz") > score("êa")`.
pub fn lexicographic_score(key: &str) -> f64 {
    const DEPTH: usize = 8;
    const BASE: f64 = 96.0;
    let mut score = 0.0;
    let mut scale = 1.0 / BASE;
    for c in key.chars().take(DEPTH) {
        let digit = ((c as u32).clamp(32, 127) - 32) as f64;
        score += digit * scale;
        scale /= BASE;
    }
    score
}

/// The rank score of one x-tuple's key distribution: the sort score plus
/// the display key the ranked order carries.
fn rank_score(t: &XTuple, spec: &KeySpec, f: RankingFunction) -> (f64, String) {
    match f {
        RankingFunction::MostProbableKey => {
            let key = spec.most_probable_key(t);
            (lexicographic_score(&key), key)
        }
        RankingFunction::ExpectedScore => {
            let keys = spec.xtuple_keys(t);
            let total: f64 = keys.iter().map(|(_, p)| p).sum();
            let expected = if total > 0.0 {
                keys.iter()
                    .map(|(k, p)| p * lexicographic_score(k))
                    .sum::<f64>()
                    / total
            } else {
                0.0
            };
            // Carry the most probable key for display purposes.
            let mut sorted = keys;
            sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
            (
                expected,
                sorted
                    .into_iter()
                    .next()
                    .map(|(k, _)| k)
                    .unwrap_or_default(),
            )
        }
    }
}

/// Rank the x-tuples by their uncertain keys; returns tuple indices in rank
/// order. `O(n · keys + n log n)`, matching the complexity the paper cites
/// for probabilistic ranking functions.
pub(crate) fn rank_tuples(tuples: &[XTuple], spec: &KeySpec, f: RankingFunction) -> Vec<usize> {
    let mut scored: Vec<(usize, f64, String)> = tuples
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let (score, key) = rank_score(t, spec, f);
            (i, score, key)
        })
        .collect();
    scored.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("finite scores")
            .then(a.2.cmp(&b.2))
            .then(a.0.cmp(&b.0))
    });
    scored.into_iter().map(|(i, _, _)| i).collect()
}

/// SNM over the ranked tuple order: window over **tuples** (each tuple
/// appears exactly once, unlike sorting-alternatives).
pub fn ranked_snm(
    tuples: &[XTuple],
    spec: &KeySpec,
    window: usize,
    f: RankingFunction,
) -> (CandidatePairs, Vec<usize>) {
    let order = rank_tuples(tuples, spec, f);
    let mut pairs = CandidatePairs::new(tuples.len());
    for_each_window_pair(&order, window, |&a, &b| {
        pairs.insert(a, b);
    });
    (pairs, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdedup_model::pvalue::PValue;
    use probdedup_model::schema::Schema;
    use probdedup_model::value::Value;

    /// ℛ34 with indices 0=t31, 1=t32, 2=t41, 3=t42, 4=t43.
    fn r34() -> Vec<XTuple> {
        let s = Schema::new(["name", "job"]);
        let mu = PValue::uniform(["musician", "museum guide"]).unwrap();
        vec![
            XTuple::builder(&s)
                .alt(0.7, ["John", "pilot"])
                .alt_pvalues(0.3, [PValue::certain("Johan"), mu])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.3, ["Tim", "mechanic"])
                .alt(0.2, ["Jim", "mechanic"])
                .alt(0.4, ["Jim", "baker"])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.8, ["John", "pilot"])
                .alt(0.2, ["Johan", "pianist"])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.8, ["Tom", "mechanic"])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.2, [Value::from("John"), Value::Null])
                .alt(0.6, ["Sean", "pilot"])
                .build()
                .unwrap(),
        ]
    }

    fn spec() -> KeySpec {
        KeySpec::paper_example(0, 1)
    }

    /// Fig. 13 (right): the ranked order t32, t31, t41, t43, t42.
    #[test]
    fn fig13_ranked_order() {
        let tuples = r34();
        let order = rank_tuples(&tuples, &spec(), RankingFunction::MostProbableKey);
        // Most probable keys: t31 → Johpi (.7), t32 → Jimba (.4),
        // t41 → Johpi (1.0), t42 → Tomme (.8), t43 → Seapi (.6).
        // Sorted: Jimba(t32), Johpi(t31), Johpi(t41), Seapi(t43), Tomme(t42).
        assert_eq!(order, vec![1, 0, 2, 4, 3]);
    }

    #[test]
    fn lexicographic_score_is_order_preserving() {
        let keys = ["Jimba", "Joh", "Johmu", "Johpi", "Seapi", "Timme", "Tomme"];
        for w in keys.windows(2) {
            assert!(
                lexicographic_score(w[0]) <= lexicographic_score(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        assert!(lexicographic_score("") < lexicographic_score("a"));
        assert!((0.0..1.0).contains(&lexicographic_score("zzzzzzzzzz")));
    }

    #[test]
    fn expected_score_averages_between_keys() {
        let s = Schema::new(["name", "job"]);
        let spec = spec();
        // A tuple torn between "Aaa.." and "Zzz..": its expected score lies
        // strictly between tuples certainly keyed near "Aaa" and "Zzz".
        let torn = XTuple::builder(&s)
            .alt(0.5, ["Aaa", "aa"])
            .alt(0.5, ["Zzz", "zz"])
            .build()
            .unwrap();
        let low = XTuple::builder(&s).alt(1.0, ["Abb", "bb"]).build().unwrap();
        let high = XTuple::builder(&s).alt(1.0, ["Zaa", "aa"]).build().unwrap();
        let order = rank_tuples(
            &[torn.clone(), low.clone(), high.clone()],
            &spec,
            RankingFunction::ExpectedScore,
        );
        assert_eq!(order, vec![1, 0, 2], "torn tuple ranks between the two");
        // Under most-probable-key ranking, the torn tuple commits to "Aaaaa"
        // (lexicographically smaller tie-break) and ranks first.
        let order_mp = rank_tuples(&[torn, low, high], &spec, RankingFunction::MostProbableKey);
        assert_eq!(order_mp, vec![0, 1, 2]);
    }

    #[test]
    fn ranked_snm_window_pairs() {
        let tuples = r34();
        let (pairs, order) = ranked_snm(&tuples, &spec(), 2, RankingFunction::MostProbableKey);
        assert_eq!(order, vec![1, 0, 2, 4, 3]);
        // Window 2 over (t32, t31, t41, t43, t42):
        assert_eq!(pairs.pairs(), &[(0, 1), (0, 2), (2, 4), (3, 4)]);
    }

    #[test]
    fn empty_input() {
        let (pairs, order) = ranked_snm(&[], &spec(), 2, RankingFunction::ExpectedScore);
        assert!(pairs.is_empty());
        assert!(order.is_empty());
    }
}
