//! Interned-key reduction vs the string-key oracle.
//!
//! Every SNM/blocking implementation runs over interned
//! [`KeySymbol`](probdedup_model::intern::KeySymbol)s; the string-rendering
//! implementations they replaced live on here, test-only, as the `*_oracle`
//! functions. The property tests below assert the two paths produce
//! **identical** candidate-pair sets, sorted orders and block views across
//! generated schemas — prefix lengths 0 (whole value) through 8, multi-byte
//! UTF-8 values, empty strings, explicit ⊥ mass, and uncertain values inside
//! alternatives — for the one-shot functions and for the warm states fed
//! batch by batch, plus the headline multi-pass guarantee: passes ≥ 2
//! perform **zero** key renders (observed through the `KeyPool` render
//! counter, the only place key text is ever rendered).

use std::collections::BTreeMap;

use proptest::prelude::*;

use probdedup_model::pvalue::PValue;
use probdedup_model::schema::Schema;
use probdedup_model::value::Value;
use probdedup_model::world::World;
use probdedup_model::xtuple::XTuple;

use crate::alternatives::{sorting_alternatives, SortingAlternativesResult};
use crate::blocking::{
    block_alternatives, block_conflict_resolved, block_multipass, block_multipass_with_table,
    emit_block_pairs, BlockingResult,
};
use crate::conflict::{conflict_resolved_snm, resolve_key, ConflictResolution};
use crate::incremental::{IncrementalSnm, Keying};
use crate::key::{KeyPart, KeySpec};
use crate::multipass::{
    multipass_snm, multipass_snm_with_table, select_worlds, MultipassResult, WorldSelection,
};
use crate::pairs::CandidatePairs;
use crate::snm::{sorted_neighborhood, SnmEntry};

/// String-path oracle of [`sorting_alternatives`].
pub(crate) fn sorting_alternatives_oracle(
    tuples: &[XTuple],
    spec: &KeySpec,
    window: usize,
) -> SortingAlternativesResult {
    let mut entries: Vec<SnmEntry> = Vec::new();
    for (i, t) in tuples.iter().enumerate() {
        for key in spec.alternative_keys(t) {
            entries.push(SnmEntry::new(key, i));
        }
    }
    let raw_entries = entries.len();
    let (pairs, order) = sorted_neighborhood(entries, window, tuples.len(), true);
    SortingAlternativesResult {
        pairs,
        order,
        raw_entries,
    }
}

/// String-path oracle of [`conflict_resolved_snm`]: renders one key per
/// tuple per call.
pub(crate) fn conflict_resolved_snm_oracle(
    tuples: &[XTuple],
    spec: &KeySpec,
    window: usize,
    strategy: ConflictResolution,
) -> (CandidatePairs, Vec<SnmEntry>) {
    let entries: Vec<SnmEntry> = tuples
        .iter()
        .enumerate()
        .map(|(i, t)| SnmEntry::new(resolve_key(t, spec, strategy), i))
        .collect();
    sorted_neighborhood(entries, window, tuples.len(), false)
}

/// Key entries of one world: each tuple's key from its chosen alternative
/// (uncertain values inside the alternative resolve to their most probable
/// rendered prefix).
fn world_entries(tuples: &[XTuple], world: &World, spec: &KeySpec) -> Vec<SnmEntry> {
    debug_assert!(
        world.is_full(),
        "multi-pass uses worlds containing all tuples"
    );
    tuples
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let alt = world.choices[i].expect("full world");
            // Reuse the per-alternative key logic on a single alternative.
            let keys = spec.alternative_keys(t);
            SnmEntry::new(keys[alt].clone(), i)
        })
        .collect()
}

/// String-path oracle of [`multipass_snm`]: renders every tuple's key in
/// **every pass** — exactly the per-pass allocation the interned path
/// removes.
fn multipass_snm_oracle(
    tuples: &[XTuple],
    spec: &KeySpec,
    window: usize,
    selection: WorldSelection,
) -> MultipassResult {
    let worlds = select_worlds(tuples, selection);
    let mut pairs = CandidatePairs::new(tuples.len());
    let mut passes = Vec::with_capacity(worlds.len());
    for world in worlds {
        let entries = world_entries(tuples, &world, spec);
        let (pass_pairs, order) = sorted_neighborhood(entries, window, tuples.len(), false);
        pairs.absorb(&pass_pairs);
        passes.push((world, order));
    }
    MultipassResult { pairs, passes }
}

/// String-path oracle of [`block_alternatives`]: renders one key `String`
/// per alternative per call and buckets in a `BTreeMap`.
pub(crate) fn block_alternatives_oracle(tuples: &[XTuple], spec: &KeySpec) -> BlockingResult {
    let mut map: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, t) in tuples.iter().enumerate() {
        for key in spec.alternative_keys(t) {
            oracle_insert(&mut map, key, i);
        }
    }
    oracle_finish(map, tuples.len())
}

/// String-path oracle of [`block_conflict_resolved`].
pub(crate) fn block_conflict_resolved_oracle(
    tuples: &[XTuple],
    spec: &KeySpec,
    strategy: ConflictResolution,
) -> BlockingResult {
    let mut map: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, t) in tuples.iter().enumerate() {
        oracle_insert(&mut map, resolve_key(t, spec, strategy), i);
    }
    oracle_finish(map, tuples.len())
}

/// String-path oracle of [`block_multipass`]. Like the pre-interning
/// production implementation, the per-alternative key strings are rendered
/// **once** before the world loop (they are world-independent); what each
/// pass still pays — and the interned path removes — is the per-(world,
/// tuple) `String` clone plus string hashing/comparison in the block map.
pub(crate) fn block_multipass_oracle(
    tuples: &[XTuple],
    spec: &KeySpec,
    selection: WorldSelection,
) -> BlockingResult {
    let worlds = select_worlds(tuples, selection);
    let alt_keys: Vec<Vec<String>> = tuples.iter().map(|t| spec.alternative_keys(t)).collect();
    let mut pairs = CandidatePairs::new(tuples.len());
    let mut first_blocks: Option<BTreeMap<String, Vec<usize>>> = None;
    for world in worlds {
        let mut map: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, keys) in alt_keys.iter().enumerate() {
            let alt = world.choices[i].expect("full world");
            oracle_insert(&mut map, keys[alt].clone(), i);
        }
        for members in map.values() {
            emit_block_pairs(members, &mut pairs);
        }
        if first_blocks.is_none() {
            first_blocks = Some(map);
        }
    }
    BlockingResult {
        pairs,
        blocks: first_blocks.unwrap_or_default(),
    }
}

fn oracle_insert(map: &mut BTreeMap<String, Vec<usize>>, key: String, tuple: usize) {
    let members = map.entry(key).or_default();
    if !members.contains(&tuple) {
        members.push(tuple);
    }
}

fn oracle_finish(map: BTreeMap<String, Vec<usize>>, n: usize) -> BlockingResult {
    let mut pairs = CandidatePairs::new(n);
    for members in map.values() {
        emit_block_pairs(members, &mut pairs);
    }
    BlockingResult { pairs, blocks: map }
}

/// Value vocabulary: ASCII, multi-byte UTF-8 (2- and 3-byte sequences,
/// combining-free), empty strings, shared prefixes, and a ⊥ marker (`None`
/// renders through the explicit null branch below).
const VOCAB: &[&str] = &[
    "",
    "J",
    "Jo",
    "John",
    "Johan",
    "Johannes",
    "pilot",
    "pianist",
    "mechanic",
    "müller",
    "Łukasz",
    "Łuk",
    "东京都",
    "José",
    "ñ",
    "zzz",
];

/// The non-text outcomes mixed into the vocabulary: integers and reals,
/// including the `0.0`/`-0.0` pair (Eq-unified, must render identically
/// so interned and string keys agree on the shared symbol).
fn numeric_value(i: usize) -> Value {
    match i {
        0 => Value::Int(7),
        1 => Value::Int(-3),
        2 => Value::Real(0.0),
        3 => Value::Real(-0.0),
        _ => Value::Real(2.5),
    }
}
const NUMERICS: usize = 5;

/// One uncertain value: 1–3 outcomes drawn from the text vocabulary plus
/// the numeric extras (weights normalized to a total below 1 about half
/// the time, leaving explicit ⊥ mass), or a pure ⊥ value.
fn arb_pvalue() -> impl Strategy<Value = PValue> {
    (
        proptest::collection::vec((0..VOCAB.len() + NUMERICS, 1u32..20), 1..4),
        0u32..4,
    )
        .prop_map(|(outcomes, null_weight)| {
            let total: u32 = outcomes.iter().map(|(_, w)| w).sum::<u32>() + null_weight * 5;
            let denom = f64::from(total.max(1));
            let entries: Vec<(Value, f64)> = outcomes
                .iter()
                .map(|&(i, w)| {
                    let v = match VOCAB.get(i) {
                        Some(s) => Value::from(*s),
                        None => numeric_value(i - VOCAB.len()),
                    };
                    (v, f64::from(w) / denom)
                })
                .collect();
            PValue::categorical(entries).expect("weights sum below 1")
        })
}

/// A small x-relation over `n_attrs` attributes: 0–6 x-tuples of 1–3
/// alternatives each, with uncertain values inside alternatives.
fn arb_tuples(n_attrs: usize) -> impl Strategy<Value = Vec<XTuple>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                proptest::collection::vec(arb_pvalue(), n_attrs..=n_attrs),
                1u32..20,
            ),
            1..4,
        ),
        0..7,
    )
    .prop_map(move |tuples| {
        let names: Vec<String> = (0..n_attrs).map(|i| format!("a{i}")).collect();
        let s = Schema::new(names);
        tuples
            .into_iter()
            .map(|alts| {
                let total: u32 = alts.iter().map(|(_, w)| *w).sum();
                let denom = f64::from(total) * 1.2;
                let mut b = XTuple::builder(&s);
                for (pvs, w) in alts {
                    b = b.alt_pvalues(f64::from(w) / denom, pvs);
                }
                b.build().expect("alternative masses below 1")
            })
            .collect()
    })
}

/// A key spec over `n_attrs` attributes: 1–3 parts, prefix lengths 0
/// (whole value) through 8.
fn arb_spec(n_attrs: usize) -> impl Strategy<Value = KeySpec> {
    proptest::collection::vec((0..n_attrs, 0usize..=8), 1..4).prop_map(|parts| {
        KeySpec::new(
            parts
                .into_iter()
                .map(|(a, l)| KeyPart::prefix(a, l))
                .collect(),
        )
    })
}

/// Schema width + tuples + spec in one strategy.
fn arb_case() -> impl Strategy<Value = (Vec<XTuple>, KeySpec)> {
    (1usize..4).prop_flat_map(|n_attrs| (arb_tuples(n_attrs), arb_spec(n_attrs)))
}

/// Cut `n` rows at `cuts` (each taken modulo `n + 1`; repeats give empty
/// batches) and hand `ingest` every batch with its first row, in order.
fn feed_in_batches(n: usize, cuts: &[usize], mut ingest: impl FnMut(std::ops::Range<usize>)) {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
    bounds.extend([0, n]);
    bounds.sort_unstable();
    for w in bounds.windows(2) {
        ingest(w[0]..w[1]);
    }
}

const SELECTIONS: [WorldSelection; 3] = [
    WorldSelection::All { limit: 48 },
    WorldSelection::TopK(3),
    WorldSelection::DiverseTopK { k: 3, pool: 16 },
];

const STRATEGIES: [ConflictResolution; 3] = [
    ConflictResolution::MostProbableAlternative,
    ConflictResolution::MostProbableKey,
    ConflictResolution::FirstAlternative,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sorting-alternatives: identical pairs, order and raw entry count.
    #[test]
    fn sorting_alternatives_matches_oracle((tuples, spec) in arb_case()) {
        for window in [2usize, 3, 5] {
            let a = sorting_alternatives(&tuples, &spec, window);
            let b = sorting_alternatives_oracle(&tuples, &spec, window);
            prop_assert_eq!(a.pairs.pairs(), b.pairs.pairs(), "window {}", window);
            prop_assert_eq!(&a.order, &b.order, "window {}", window);
            prop_assert_eq!(a.raw_entries, b.raw_entries);
        }
    }

    /// Multi-pass SNM: identical pairs and identical per-pass sorted
    /// orders under every world-selection policy; the lean pairs-only
    /// entry point agrees too.
    #[test]
    fn multipass_snm_matches_oracle((tuples, spec) in arb_case()) {
        for selection in SELECTIONS {
            let a = multipass_snm(&tuples, &spec, 3, selection);
            let b = multipass_snm_oracle(&tuples, &spec, 3, selection);
            prop_assert_eq!(a.pairs.pairs(), b.pairs.pairs(), "{:?}", selection);
            prop_assert_eq!(a.passes.len(), b.passes.len(), "{:?}", selection);
            for ((wa, oa), (wb, ob)) in a.passes.iter().zip(&b.passes) {
                prop_assert_eq!(&wa.choices, &wb.choices);
                prop_assert_eq!(oa, ob, "{:?}", selection);
            }
            let lean = multipass_snm_with_table(&tuples, &spec.key_table(&tuples), 3, selection);
            prop_assert_eq!(lean.pairs(), b.pairs.pairs(), "{:?}", selection);
        }
    }

    /// Conflict-resolved SNM: identical pairs and sorted key lists under
    /// all three resolution strategies.
    #[test]
    fn conflict_resolved_snm_matches_oracle((tuples, spec) in arb_case()) {
        for strategy in STRATEGIES {
            let (ap, ao) = conflict_resolved_snm(&tuples, &spec, 3, strategy);
            let (bp, bo) = conflict_resolved_snm_oracle(&tuples, &spec, 3, strategy);
            prop_assert_eq!(ap.pairs(), bp.pairs(), "{:?}", strategy);
            prop_assert_eq!(&ao, &bo, "{:?}", strategy);
        }
    }

    /// Blocking (all three adaptations): identical pairs and identical
    /// sorted block views.
    #[test]
    fn blocking_matches_oracle((tuples, spec) in arb_case()) {
        let a = block_alternatives(&tuples, &spec);
        let b = block_alternatives_oracle(&tuples, &spec);
        prop_assert_eq!(a.pairs.pairs(), b.pairs.pairs());
        prop_assert_eq!(&a.blocks, &b.blocks);
        for strategy in STRATEGIES {
            let a = block_conflict_resolved(&tuples, &spec, strategy);
            let b = block_conflict_resolved_oracle(&tuples, &spec, strategy);
            prop_assert_eq!(a.pairs.pairs(), b.pairs.pairs(), "{:?}", strategy);
            prop_assert_eq!(&a.blocks, &b.blocks, "{:?}", strategy);
        }
        for selection in SELECTIONS {
            let a = block_multipass(&tuples, &spec, selection);
            let b = block_multipass_oracle(&tuples, &spec, selection);
            prop_assert_eq!(a.pairs.pairs(), b.pairs.pairs(), "{:?}", selection);
            prop_assert_eq!(&a.blocks, &b.blocks, "{:?}", selection);
        }
    }

    /// World passes cover the rows handed in: over `tuples[..k]`, a key
    /// table extended past them to all of `tuples` yields the pairs, in
    /// the same order, of the table built from `tuples[..k]` alone —
    /// under every selection, for SNM and blocking.
    #[test]
    fn world_passes_over_a_prefix_ignore_later_table_rows(
        (tuples, spec) in arb_case(),
        cut in 0usize..8,
    ) {
        let k = cut % (tuples.len() + 1);
        let prefix = &tuples[..k];
        let own = spec.key_table(prefix);
        let mut grown = spec.key_table(prefix);
        grown.extend(&tuples[k..]);
        for selection in SELECTIONS {
            let label = format!("{selection:?}, rows 0..{k} of {}", tuples.len());
            for window in [2usize, 3] {
                let got = multipass_snm_with_table(prefix, &grown, window, selection);
                let want = multipass_snm_with_table(prefix, &own, window, selection);
                prop_assert_eq!(got.pairs(), want.pairs(), "window {}, {}", window, &label);
            }
            let got = block_multipass_with_table(prefix, &grown, selection);
            let want = block_multipass_with_table(prefix, &own, selection);
            prop_assert_eq!(got.pairs(), want.pairs(), "blocks, {}", &label);
        }
    }

    /// The warm states fed batch by batch, under every [`Keying`]: the
    /// oracle's pairs (same order) and its Fig. 10 / 11 / 14 views.
    #[test]
    fn warm_states_fed_in_batches_match_oracles(
        (tuples, spec) in arb_case(),
        cuts in proptest::collection::vec(0usize..8, 0..4),
    ) {
        let n = tuples.len();
        let keyings = STRATEGIES.map(Keying::Resolved);
        for keying in [Keying::PerAlternative].into_iter().chain(keyings) {
            for window in [2usize, 3, 5] {
                let mut state = IncrementalSnm::new(spec.clone(), keying, window);
                feed_in_batches(n, &cuts, |rows| {
                    state.ingest(&tuples[rows.clone()], rows.start);
                });
                let mut order = state.order();
                let (pairs, oracle_order) = match keying {
                    Keying::PerAlternative => {
                        let b = sorting_alternatives_oracle(&tuples, &spec, window);
                        prop_assert_eq!(order.len(), b.raw_entries);
                        order.dedup_by(|next, prev| next.tuple == prev.tuple);
                        (b.pairs, b.order)
                    }
                    Keying::Resolved(strategy) => {
                        conflict_resolved_snm_oracle(&tuples, &spec, window, strategy)
                    }
                };
                let label = format!("{keying:?} window {window} cuts {cuts:?}");
                let got = state.current_pairs(n);
                prop_assert_eq!(got.pairs(), pairs.pairs(), "{}", &label);
                prop_assert_eq!(&order, &oracle_order, "{}", &label);
            }
            let mut state = IncrementalSnm::blocking(spec.clone(), keying);
            feed_in_batches(n, &cuts, |rows| {
                state.ingest(&tuples[rows.clone()], rows.start);
            });
            let b = match keying {
                Keying::PerAlternative => block_alternatives_oracle(&tuples, &spec),
                Keying::Resolved(s) => block_conflict_resolved_oracle(&tuples, &spec, s),
            };
            let label = format!("{keying:?} blocks cuts {cuts:?}");
            let got = state.current_pairs(n);
            prop_assert_eq!(got.pairs(), b.pairs.pairs(), "{}", &label);
            prop_assert_eq!(&state.blocks(), &b.blocks, "{}", &label);
        }
    }

    /// The interned key table resolves to exactly the string path's
    /// per-alternative keys, and renders only at build time.
    #[test]
    fn key_table_resolves_to_string_keys((tuples, spec) in arb_case()) {
        let table = spec.key_table(&tuples);
        for (i, t) in tuples.iter().enumerate() {
            let strings = spec.alternative_keys(t);
            let resolved: Vec<&str> = table
                .alternative_keys(i)
                .iter()
                .map(|&k| table.resolve(k))
                .collect();
            prop_assert_eq!(resolved, strings);
        }
        let frozen = table.render_count();
        for i in 0..tuples.len() {
            for &k in table.alternative_keys(i) {
                let _ = table.rank(k);
                let _ = table.resolve(k);
            }
        }
        prop_assert_eq!(table.render_count(), frozen, "reads must not render");
    }
}

/// Eq-unified values that could render differently (`0.0` vs `-0.0`) must
/// produce one shared key on both paths: the interned path resolves both
/// to one `Symbol`, and `Value::render` canonicalizes through the same
/// equality class, so the string oracle agrees.
#[test]
fn unified_float_values_share_one_key_on_both_paths() {
    let s = Schema::new(["x"]);
    let tuples: Vec<XTuple> = [Value::Real(0.0), Value::Real(-0.0)]
        .into_iter()
        .map(|v| XTuple::builder(&s).alt(1.0, [v]).build().unwrap())
        .collect();
    let spec = KeySpec::new(vec![KeyPart::full(0)]);
    let interned = block_alternatives(&tuples, &spec);
    let oracle = block_alternatives_oracle(&tuples, &spec);
    assert_eq!(interned.pairs.pairs(), &[(0, 1)], "one block, one pair");
    assert_eq!(interned.pairs.pairs(), oracle.pairs.pairs());
    assert_eq!(interned.blocks, oracle.blocks);
    assert_eq!(interned.blocks.keys().collect::<Vec<_>>(), vec!["0"]);
}

/// The headline multi-pass guarantee: all key rendering happens while the
/// [`KeySpec::key_table`] is built; running one pass and then seven more
/// over the same table adds **zero** renders — the second and later passes
/// are sort-only.
#[test]
fn multipass_passes_after_first_render_nothing() {
    let s = Schema::new(["name", "job"]);
    let mu = PValue::uniform(["musician", "museum guide"]).unwrap();
    let tuples: Vec<XTuple> = vec![
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
            .alt(0.2, [Value::from("John"), Value::Null])
            .alt(0.6, ["Sean", "pilot"])
            .build()
            .unwrap(),
    ];
    let spec = KeySpec::paper_example(0, 1);
    let table = spec.key_table(&tuples);
    let after_build = table.render_count();
    assert!(
        after_build > 0,
        "building the table renders each prefix once"
    );

    // Pass 1.
    let first = multipass_snm_with_table(&tuples, &table, 2, WorldSelection::TopK(1));
    assert_eq!(
        table.render_count(),
        after_build,
        "pass 1 reuses the table's rendered keys"
    );

    // Passes 1..=8 over the same table: still zero additional renders, and
    // the union contains pass 1.
    let eight = multipass_snm_with_table(&tuples, &table, 2, WorldSelection::TopK(8));
    assert_eq!(
        table.render_count(),
        after_build,
        "passes ≥ 2 are sort-only: zero key renders"
    );
    for &(i, j) in first.pairs() {
        assert!(eight.contains(i, j));
    }

    // The string-key oracle, by contrast, renders for every pass: its cost
    // is what the counter would show without the table (sanity-check the
    // counter is actually measuring the rendering path).
    let oracle = multipass_snm_oracle(&tuples, &spec, 2, WorldSelection::TopK(8));
    assert_eq!(oracle.pairs.pairs(), eight.pairs());
}
