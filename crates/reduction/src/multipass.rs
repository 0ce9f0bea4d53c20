//! Multi-pass SNM over possible worlds (Section V-A.1 / Figs. 8–9).
//!
//! Each pass fixes one possible world (only worlds **containing all
//! tuples** matter — tuple membership must not influence dedup, and every
//! tuple needs a key), creates certain key values for it, runs the sorted
//! neighborhood method, and the passes' matchings are unioned.
//!
//! Enumerating *all* worlds is usually prohibitive; the paper suggests a
//! small set of **highly probable and pairwise dissimilar** worlds, because
//! the top-probability worlds tend to be near-identical and yield redundant
//! passes. [`WorldSelection`] offers all three policies; the E3 experiment
//! measures their trade-off.
//!
//! Keys are computed **once** into an interned [`KeyTable`] before the
//! first pass: every later pass only picks each tuple's chosen-alternative
//! key symbol and sorts by precomputed lexicographic rank — sort-only,
//! zero key renders, zero allocation per entry. The loop over the selected
//! worlds exists once; [`multipass_snm`] (with its Fig. 9 inspection view)
//! and [`multipass_snm_with_table`] are sinks over it. The
//! string-rendering implementation is retained test-only
//! (`src/interned_oracle.rs`) and property-tested to produce identical
//! candidate pairs and pass orders.

use probdedup_model::world::{full_worlds, top_k_worlds, World};
use probdedup_model::xtuple::XTuple;

use crate::key::{KeySpec, KeyTable};
use crate::pairs::CandidatePairs;
use crate::snm::{for_each_window_pair, sort_entries, InternedSnmEntry, SnmEntry};

/// Which possible worlds the passes run over. Which worlds count as "most
/// probable", in which order they arrive and what the selection costs is
/// [`top_k_worlds`]' contract, stated there once — including the caveat
/// that [`World::probability`] underflows to `0.0` past a few thousand
/// uncertain rows, after which `TopK` / `DiverseTopK` select the modal
/// world plus relaxations of the *last* multi-alternative rows rather than
/// the most probable worlds (queued in ROADMAP.md, "Anchor correctness…").
///
/// A selection that can yield no world (`TopK(0)`, `DiverseTopK { k: 0, .. }`,
/// `All { limit: 0 }`) means zero passes and zero candidates; the pipeline
/// builder refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldSelection {
    /// Every world containing all tuples, in enumeration order (first tuple
    /// varies slowest), silently cut off after `limit` worlds — no error
    /// when there are more. Use with care: the count is the product of the
    /// alternative counts.
    All {
        /// Hard cap on enumerated full worlds.
        limit: usize,
    },
    /// The `k` most probable full worlds.
    TopK(usize),
    /// `k` pairwise-dissimilar worlds greedily selected from the `pool`
    /// most probable full worlds (maximize the minimum distance to the
    /// already-selected set; ties toward higher probability). This is the
    /// paper's "highly probable and pairwise dissimilar" policy.
    DiverseTopK {
        /// Number of passes.
        k: usize,
        /// Size of the probability-ranked candidate pool.
        pool: usize,
    },
}

/// Result of a multi-pass run: the unioned pairs plus each pass's world and
/// sorted order (Fig. 9 prints them).
#[derive(Debug, Clone)]
pub struct MultipassResult {
    /// Union of all passes' candidate pairs.
    pub pairs: CandidatePairs,
    /// Per pass: the world and the sorted key entries of that pass.
    pub passes: Vec<(World, Vec<SnmEntry>)>,
}

/// Greedy max-min-distance selection of `k` worlds from `pool`.
fn select_diverse_worlds(mut pool: Vec<World>, k: usize) -> Vec<World> {
    if pool.is_empty() || k == 0 {
        return Vec::new();
    }
    // Pool arrives probability-sorted (top_k_worlds); seed with the most
    // probable world.
    let mut selected = vec![pool.remove(0)];
    while selected.len() < k && !pool.is_empty() {
        let (best_idx, _) = pool
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let min_dist = selected
                    .iter()
                    .map(|s| w.distance(s))
                    .fold(f64::INFINITY, f64::min);
                (i, min_dist)
            })
            // max by (distance, probability); pool order encodes probability
            // rank, so earlier index wins ties.
            .max_by(|(ia, da), (ib, db)| {
                da.partial_cmp(db)
                    .expect("finite distances")
                    .then(ib.cmp(ia))
            })
            .expect("pool non-empty");
        selected.push(pool.remove(best_idx));
    }
    selected
}

/// Interned key entries of one world off a prebuilt [`KeyTable`]: a table
/// lookup per tuple of the world, no rendering. Table rows past the
/// world's tuples are left out.
fn world_entries_interned(table: &KeyTable, world: &World) -> Vec<InternedSnmEntry> {
    debug_assert!(
        world.is_full(),
        "multi-pass uses worlds containing all tuples"
    );
    (0..world.choices.len())
        .map(|i| {
            let alt = world.choices[i].expect("full world");
            InternedSnmEntry::new(table.alternative_keys(i)[alt], i)
        })
        .collect()
}

/// Resolve a [`WorldSelection`] to concrete worlds. Order and cost of the `TopK` / `DiverseTopK` pool: [`top_k_worlds`].
pub(crate) fn select_worlds(tuples: &[XTuple], selection: WorldSelection) -> Vec<World> {
    match selection {
        WorldSelection::All { limit } => full_worlds(tuples).take(limit).collect(),
        WorldSelection::TopK(k) => top_k_worlds(tuples, k, true),
        WorldSelection::DiverseTopK { k, pool } => {
            select_diverse_worlds(top_k_worlds(tuples, pool.max(k), true), k)
        }
    }
}

/// The loop over the selected worlds — the only one multi-pass SNM and
/// multi-pass blocking have: resolve `selection`, and per world hand `f`
/// the world and its entry list (one entry per tuple, keyed by the chosen
/// alternative's symbol off `table`) sorted by `(rank, tuple)`, ready for
/// [`for_each_window_pair`] or
/// [`for_each_block`](crate::blocking::for_each_block). `table` must cover `tuples` and may cover
/// later rows too: the passes run over `tuples` alone, and ranks order the
/// keys of a prefix as they order them in a table built for it.
pub(crate) fn for_each_world_pass(
    tuples: &[XTuple],
    table: &KeyTable,
    selection: WorldSelection,
    mut f: impl FnMut(World, &[InternedSnmEntry]),
) {
    debug_assert!(tuples.len() <= table.len(), "table must cover the corpus");
    for world in select_worlds(tuples, selection) {
        let mut entries = world_entries_interned(table, &world);
        sort_entries(&mut entries, table.ranks());
        f(world, &entries);
    }
}

/// Multi-pass SNM over possible worlds of `tuples`.
///
/// The key table is interned once up front; each pass is then a rank sort
/// plus windowing — passes ≥ 2 perform **zero** key renders (asserted by
/// the property tests via [`KeyTable::render_count`]). The per-pass
/// [`SnmEntry`] strings in the result are resolved from the pool for
/// figures and tests; use [`multipass_snm_with_table`] when only the
/// candidate set matters.
pub fn multipass_snm(
    tuples: &[XTuple],
    spec: &KeySpec,
    window: usize,
    selection: WorldSelection,
) -> MultipassResult {
    let table = spec.key_table(tuples);
    let mut pairs = CandidatePairs::new(tuples.len());
    let mut passes = Vec::new();
    for_each_world_pass(tuples, &table, selection, |world, entries| {
        for_each_window_pair(entries, window, |a, b| {
            pairs.insert(a.tuple, b.tuple);
        });
        let order = entries
            .iter()
            .map(|e| SnmEntry::new(table.resolve(e.key), e.tuple))
            .collect();
        passes.push((world, order));
    });
    MultipassResult { pairs, passes }
}

/// [`multipass_snm`] with a caller-supplied [`KeyTable`] and without the
/// per-pass inspection views — lets callers reuse one table across
/// several window sizes or selections (sessions keep it warm across
/// ingests), and lets tests observe the render counter across passes.
/// The table may cover rows past `tuples`: the candidates are those of a
/// table built from `tuples` alone, pairs and order.
/// After the table is built, each pass allocates nothing but its entry
/// vector.
pub fn multipass_snm_with_table(
    tuples: &[XTuple],
    table: &KeyTable,
    window: usize,
    selection: WorldSelection,
) -> CandidatePairs {
    let mut pairs = CandidatePairs::new(tuples.len());
    for_each_world_pass(tuples, table, selection, |_, entries| {
        for_each_window_pair(entries, window, |a, b| {
            pairs.insert(a.tuple, b.tuple);
        });
    });
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdedup_model::pvalue::PValue;
    use probdedup_model::schema::Schema;
    use probdedup_model::value::Value;

    /// The paper's ℛ34 = ℛ3 ∪ ℛ4 (Fig. 5), tuple indices:
    /// 0 = t31, 1 = t32, 2 = t41, 3 = t42, 4 = t43.
    pub(crate) fn r34() -> Vec<XTuple> {
        let s = Schema::new(["name", "job"]);
        let mu = PValue::uniform(["musician", "museum guide"]).unwrap();
        vec![
            XTuple::builder(&s)
                .alt(0.7, ["John", "pilot"])
                .alt_pvalues(0.3, [PValue::certain("Johan"), mu])
                .label("t31")
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.3, ["Tim", "mechanic"])
                .alt(0.2, ["Jim", "mechanic"])
                .alt(0.4, ["Jim", "baker"])
                .label("t32")
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.8, ["John", "pilot"])
                .alt(0.2, ["Johan", "pianist"])
                .label("t41")
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.8, ["Tom", "mechanic"])
                .label("t42")
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.2, [Value::from("John"), Value::Null])
                .alt(0.6, ["Sean", "pilot"])
                .label("t43")
                .build()
                .unwrap(),
        ]
    }

    fn spec() -> KeySpec {
        KeySpec::paper_example(0, 1)
    }

    /// Fig. 9 (left): world I1 = (John pilot, Tim mechanic, Johan pianist,
    /// Tom mechanic, Sean pilot) sorts as Johpi(t31), Johpi(t41),
    /// Seapi(t43), Timme(t32), Tomme(t42).
    ///
    /// NOTE: Fig. 8 prints t41 = (Johan, pianist) in I1; under our key that
    /// gives "Johpi" as well (Joha→Joh + pi), matching Fig. 9's key list.
    #[test]
    fn fig9_world_orders() {
        let tuples = r34();
        let all = multipass_snm(&tuples, &spec(), 2, WorldSelection::All { limit: 10_000 });
        let order_of = |choices: [usize; 5]| -> Vec<(&str, usize)> {
            let choices: Vec<Option<usize>> = choices.into_iter().map(Some).collect();
            let (_, order) = all
                .passes
                .iter()
                .find(|(w, _)| w.choices == choices)
                .expect("every full world is a pass");
            order.iter().map(|e| (e.key.as_str(), e.tuple)).collect()
        };
        // I1's choices: t31 = John/pilot (0), t32 = Tim/mechanic (0),
        // t41 = Johan/pianist (1), t42 = Tom/mechanic (0), t43 = Sean/pilot (1).
        assert_eq!(
            order_of([0, 0, 1, 0, 1]),
            vec![
                ("Johpi", 0), // t31
                ("Johpi", 2), // t41
                ("Seapi", 4), // t43
                ("Timme", 1), // t32
                ("Tomme", 3), // t42
            ]
        );

        // Fig. 9 (right): world I2 = (Johan mu*, Jim mechanic, John pilot,
        // Tom mechanic, John ⊥) sorts as Jimme(t32), Joh(t43), Johmu(t31),
        // Johpi(t41), Tomme(t42).
        assert_eq!(
            order_of([1, 1, 0, 0, 0]),
            vec![
                ("Jimme", 1),
                ("Joh", 4),
                ("Johmu", 0),
                ("Johpi", 2),
                ("Tomme", 3),
            ]
        );
    }

    #[test]
    fn all_worlds_union_dominates_top_k() {
        let tuples = r34();
        let all = multipass_snm(&tuples, &spec(), 2, WorldSelection::All { limit: 10_000 });
        let top1 = multipass_snm(&tuples, &spec(), 2, WorldSelection::TopK(1));
        assert!(top1.pairs.len() <= all.pairs.len());
        for &(i, j) in top1.pairs.pairs() {
            assert!(all.pairs.contains(i, j));
        }
        // ℛ34 full worlds: 2·3·2·1·2 = 24 passes.
        assert_eq!(all.passes.len(), 24);
    }

    #[test]
    fn diverse_selection_differs_from_plain_top_k() {
        let tuples = r34();
        let top = multipass_snm(&tuples, &spec(), 2, WorldSelection::TopK(3));
        let diverse = multipass_snm(
            &tuples,
            &spec(),
            2,
            WorldSelection::DiverseTopK { k: 3, pool: 24 },
        );
        assert_eq!(top.passes.len(), 3);
        assert_eq!(diverse.passes.len(), 3);
        // The diverse policy must not pick three near-identical worlds: its
        // minimum pairwise distance is at least that of the plain top-3.
        let min_dist = |passes: &[(World, Vec<SnmEntry>)]| -> f64 {
            let mut d = f64::INFINITY;
            for i in 0..passes.len() {
                for j in (i + 1)..passes.len() {
                    d = d.min(passes[i].0.distance(&passes[j].0));
                }
            }
            d
        };
        assert!(min_dist(&diverse.passes) >= min_dist(&top.passes) - 1e-12);
        // Both start from the most probable world.
        assert_eq!(top.passes[0].0.choices, diverse.passes[0].0.choices);
    }

    #[test]
    fn single_certain_world() {
        let s = Schema::new(["name", "job"]);
        let tuples = vec![
            XTuple::builder(&s)
                .alt(1.0, ["John", "pilot"])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(1.0, ["Johan", "pilot"])
                .build()
                .unwrap(),
        ];
        let r = multipass_snm(&tuples, &spec(), 2, WorldSelection::All { limit: 100 });
        assert_eq!(r.passes.len(), 1);
        assert_eq!(r.pairs.pairs(), &[(0, 1)]);
    }

    #[test]
    fn empty_input() {
        let r = multipass_snm(&[], &spec(), 2, WorldSelection::TopK(3));
        assert!(r.pairs.is_empty());
        // The empty tuple set has exactly one (empty) world.
        assert_eq!(r.passes.len(), 1);
    }
}
