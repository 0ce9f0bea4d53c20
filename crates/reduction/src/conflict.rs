//! Certain keys via conflict resolution (Section V-A.2 / Fig. 10).
//!
//! Before key creation, each x-tuple's alternatives are unified to a single
//! one using a conflict-resolution strategy known from data fusion; the
//! paper's example is the *metadata-based deciding strategy* "take the most
//! probable alternative". Choosing most-probable alternatives is equivalent
//! to keying the most probable world, so the resulting matchings are always
//! a **subset** of the multi-pass matchings — proven as a test here and as
//! a property test in `tests/properties.rs`.

use probdedup_model::intern::{KeyPool, KeySymbol, ValuePool};
use probdedup_model::xtuple::XTuple;

use crate::incremental::{IncrementalSnm, Keying};
use crate::key::KeySpec;
use crate::pairs::CandidatePairs;
use crate::snm::SnmEntry;

/// Strategy unifying an x-tuple's alternatives into one certain key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictResolution {
    /// The paper's metadata-based deciding strategy: the most probable
    /// alternative (ties toward the earlier alternative), with uncertain
    /// values inside it resolved to their most probable rendered prefix.
    #[default]
    MostProbableAlternative,
    /// The most probable *key* (marginalizing over alternatives) — can
    /// differ when several alternatives share a key (e.g. t41 in Fig. 13).
    MostProbableKey,
    /// The first alternative as listed (a naive baseline).
    FirstAlternative,
}

/// Index of the most probable alternative (ties toward the earlier one).
fn most_probable_alternative(t: &XTuple) -> usize {
    t.alternatives()
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| {
            a.probability()
                .partial_cmp(&b.probability())
                .expect("finite probabilities")
                .then(ib.cmp(ia)) // tie → earlier alternative
        })
        .map(|(i, _)| i)
        .expect("x-tuples are non-empty")
}

/// The certain key of one x-tuple under a strategy (string path — the
/// oracle the interned warm states are tested against).
pub fn resolve_key(t: &XTuple, spec: &KeySpec, strategy: ConflictResolution) -> String {
    match strategy {
        ConflictResolution::MostProbableAlternative => {
            spec.alternative_keys(t)[most_probable_alternative(t)].clone()
        }
        ConflictResolution::MostProbableKey => spec.most_probable_key(t),
        ConflictResolution::FirstAlternative => spec.alternative_keys(t)[0].clone(),
    }
}

/// Interned twin of [`resolve_key`]: the certain key as a [`KeySymbol`],
/// rendering each distinct value prefix at most once across all tuples.
pub(crate) fn resolve_key_symbol(
    t: &XTuple,
    spec: &KeySpec,
    strategy: ConflictResolution,
    values: &mut ValuePool,
    keys: &mut KeyPool,
) -> KeySymbol {
    match strategy {
        ConflictResolution::MostProbableAlternative => {
            spec.alternative_key_symbols(t, values, keys)[most_probable_alternative(t)]
        }
        ConflictResolution::MostProbableKey => spec.most_probable_key_symbol(t, values, keys),
        ConflictResolution::FirstAlternative => spec.alternative_key_symbols(t, values, keys)[0],
    }
}

/// SNM over conflict-resolved certain keys: one key per x-tuple, one pass.
/// Returns the pairs and the sorted key list (Fig. 10 prints it).
///
/// A fresh [`IncrementalSnm`] under [`Keying::Resolved`] fed the tuples
/// once; the strings in the returned [`SnmEntry`] list are resolved from
/// its pool for display only.
pub fn conflict_resolved_snm(
    tuples: &[XTuple],
    spec: &KeySpec,
    window: usize,
    strategy: ConflictResolution,
) -> (CandidatePairs, Vec<SnmEntry>) {
    let mut state = IncrementalSnm::new(spec.clone(), Keying::Resolved(strategy), window);
    state.ingest(tuples, 0);
    (state.current_pairs(tuples.len()), state.order())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multipass::{multipass_snm, WorldSelection};
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

    /// Fig. 10: sorting by most-probable-alternative keys yields
    /// Jimba(t32), Johpi(t31), Johpi(t41), Seapi(t43), Tomme(t42).
    #[test]
    fn fig10_sorted_keys() {
        let tuples = r34();
        let (_, order) = conflict_resolved_snm(
            &tuples,
            &spec(),
            2,
            ConflictResolution::MostProbableAlternative,
        );
        let keys: Vec<(&str, usize)> = order.iter().map(|e| (e.key.as_str(), e.tuple)).collect();
        assert_eq!(
            keys,
            vec![
                ("Jimba", 1), // t32
                ("Johpi", 0), // t31
                ("Johpi", 2), // t41
                ("Seapi", 4), // t43
                ("Tomme", 3), // t42
            ]
        );
    }

    /// The paper's subset claim: most-probable-alternative matchings are
    /// always contained in the all-worlds multi-pass matchings.
    #[test]
    fn fig10_matchings_subset_of_multipass() {
        let tuples = r34();
        let (resolved, _) = conflict_resolved_snm(
            &tuples,
            &spec(),
            2,
            ConflictResolution::MostProbableAlternative,
        );
        let multipass = multipass_snm(&tuples, &spec(), 2, WorldSelection::All { limit: 10_000 });
        for &(i, j) in resolved.pairs() {
            assert!(
                multipass.pairs.contains(i, j),
                "({i},{j}) missing from multipass"
            );
        }
        assert!(resolved.len() <= multipass.pairs.len());
    }

    #[test]
    fn most_probable_key_strategy_uses_marginal() {
        // t41: alternatives John/pilot (0.8) and Johan/pianist (0.2), but
        // both render "Johpi": all strategies agree here. Build a case where
        // they differ: alternatives (Abc, x) 0.4, (Abd, y) 0.35, (Abc, x) is
        // most probable alternative; but keys "Abx"? Use split-vote keys.
        let s = Schema::new(["name", "job"]);
        let t = XTuple::builder(&s)
            .alt(0.35, ["Xaa", "pp"])
            .alt(0.33, ["Yaa", "qq"])
            .alt(0.32, ["Yaa", "qq"])
            .build()
            .unwrap();
        // Most probable alternative: #0 → "Xaapp". Most probable key:
        // "Yaaqq" with mass 0.65.
        assert_eq!(
            resolve_key(&t, &spec(), ConflictResolution::MostProbableAlternative),
            "Xaapp"
        );
        assert_eq!(
            resolve_key(&t, &spec(), ConflictResolution::MostProbableKey),
            "Yaaqq"
        );
        assert_eq!(
            resolve_key(&t, &spec(), ConflictResolution::FirstAlternative),
            "Xaapp"
        );
    }

    #[test]
    fn tie_breaks_toward_earlier_alternative() {
        let s = Schema::new(["name", "job"]);
        let t = XTuple::builder(&s)
            .alt(0.5, ["Bbb", "yy"])
            .alt(0.5, ["Aaa", "xx"])
            .build()
            .unwrap();
        assert_eq!(
            resolve_key(&t, &spec(), ConflictResolution::MostProbableAlternative),
            "Bbbyy"
        );
    }
}
