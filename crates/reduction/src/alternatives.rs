//! Sorting alternatives (Section V-A.3 / Figs. 11–12): key values for
//! *every* alternative, so a tuple appears in the sorted list once per
//! alternative key.
//!
//! Two corrections keep the method sound:
//!
//! * **adjacent-duplicate omission** — neighboring entries referencing the
//!   same tuple collapse (matching a tuple with itself is meaningless);
//! * **executed-matching suppression** — the same tuple pair can meet in
//!   several windows; the [`CandidatePairs`] set (Fig. 12) executes each
//!   matching exactly once.
//!
//! Keys are interned once into a [`KeyTable`] and the sort runs over
//! lexicographic ranks; the string-rendering implementation is kept
//! test-only as the property-tested oracle (`src/interned_oracle.rs`).

use probdedup_model::xtuple::XTuple;

use crate::key::{KeySpec, KeyTable};
use crate::pairs::CandidatePairs;
use crate::snm::{sort_entries, windowed_pairs, InternedSnmEntry, SnmEntry};

/// Result of the sorting-alternatives method.
#[derive(Debug, Clone)]
pub struct SortingAlternativesResult {
    /// The candidate pairs (each matching executed once).
    pub pairs: CandidatePairs,
    /// The sorted entry list **after** adjacent-duplicate omission
    /// (the right-hand list of Fig. 11 without the struck-out rows).
    pub order: Vec<SnmEntry>,
    /// Number of entries before omission (the left-hand list's length).
    pub raw_entries: usize,
}

/// One entry per alternative key of every tuple in `table`, sorted by
/// `(rank, tuple)` with adjacent same-tuple entries omitted — the
/// right-hand list of Fig. 11 in interned form, ready for
/// [`for_each_window_pair`](crate::snm::for_each_window_pair).
pub fn sorted_alternative_entries(table: &KeyTable) -> Vec<InternedSnmEntry> {
    let mut entries: Vec<InternedSnmEntry> = (0..table.len())
        .flat_map(|i| {
            table
                .alternative_keys(i)
                .iter()
                .map(move |&key| InternedSnmEntry::new(key, i))
        })
        .collect();
    sort_entries(&mut entries, table.ranks(), true);
    entries
}

/// Run sorting-alternatives over the x-tuples (interned keys; the
/// returned [`SnmEntry`] strings are resolved from the pool for display).
pub fn sorting_alternatives(
    tuples: &[XTuple],
    spec: &KeySpec,
    window: usize,
) -> SortingAlternativesResult {
    let table = spec.key_table(tuples);
    let entries = sorted_alternative_entries(&table);
    SortingAlternativesResult {
        pairs: windowed_pairs(&entries, window, tuples.len(), false),
        order: entries
            .iter()
            .map(|e| SnmEntry::new(table.resolve(e.key), e.tuple))
            .collect(),
        raw_entries: (0..table.len())
            .map(|i| table.alternative_keys(i).len())
            .sum(),
    }
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

    /// The full Fig. 11 walkthrough.
    ///
    /// Nine raw entries (t31: Johpi, Johmu; t32: Timme, Jimme, Jimba;
    /// t41: Johpi, Johpi → our keying gives Johpi twice since both of
    /// t41's alternatives render Johpi — the figure prints one Johpi for
    /// t41; adjacent-duplicate omission makes this equivalent; t42: Tomme;
    /// t43: Joh, Seapi), sorted and with adjacent same-tuple entries
    /// omitted, windowed at 2, yields **exactly five matchings**:
    /// (t32,t43), (t43,t31), (t31,t41), (t41,t43), (t32,t42).
    #[test]
    fn fig11_five_matchings() {
        let tuples = r34();
        let spec = KeySpec::paper_example(0, 1);
        let r = sorting_alternatives(&tuples, &spec, 2);
        // Raw entries: 2 + 3 + 2 + 1 + 2 = 10 (the figure's list shows 9
        // because it prints t41's two identical Johpi keys as one row; the
        // omission rule collapses ours identically).
        assert_eq!(r.raw_entries, 10);
        let matchings: Vec<(usize, usize)> = r.pairs.pairs().to_vec();
        // In our index space: (t32,t43)=(1,4), (t43,t31)=(0,4),
        // (t31,t41)=(0,2), (t41,t43)=(2,4), (t32,t42)=(1,3).
        assert_eq!(
            matchings,
            vec![(1, 4), (0, 4), (0, 2), (2, 4), (1, 3)],
            "expected the paper's five matchings in window order"
        );
        assert_eq!(r.pairs.len(), 5);
    }

    /// The sorted, collapsed entry list of Fig. 11 (right side).
    #[test]
    fn fig11_sorted_order() {
        let tuples = r34();
        let spec = KeySpec::paper_example(0, 1);
        let r = sorting_alternatives(&tuples, &spec, 2);
        let listed: Vec<(&str, usize)> =
            r.order.iter().map(|e| (e.key.as_str(), e.tuple)).collect();
        // Fig. 11 strikes out Jimme(t32) and Johpi(t31) as adjacent
        // duplicates; our keying additionally collapses t41's second
        // (identical) Johpi entry, leaving the figure's effective list.
        assert_eq!(
            listed,
            vec![
                ("Jimba", 1),
                ("Joh", 4),
                ("Johmu", 0),
                ("Johpi", 2),
                ("Seapi", 4),
                ("Timme", 1),
                ("Tomme", 3),
            ]
        );
    }

    #[test]
    fn repeated_matchings_counted_once() {
        // Two tuples whose alternatives interleave: the pair would be
        // generated several times; the matrix executes it once.
        let s = Schema::new(["name", "job"]);
        let spec = KeySpec::paper_example(0, 1);
        let a = XTuple::builder(&s)
            .alt(0.5, ["Aaa", "xx"])
            .alt(0.5, ["Ccc", "xx"])
            .build()
            .unwrap();
        let b = XTuple::builder(&s)
            .alt(0.5, ["Bbb", "xx"])
            .alt(0.5, ["Ddd", "xx"])
            .build()
            .unwrap();
        let r = sorting_alternatives(&[a, b], &spec, 2);
        // Sorted: Aaaxx(0), Bbbxx(1), Cccxx(0), Dddxx(1) → windows generate
        // (0,1) three times; executed once.
        assert_eq!(r.pairs.len(), 1);
        assert_eq!(r.pairs.pairs(), &[(0, 1)]);
    }

    #[test]
    fn single_tuple_produces_nothing() {
        let s = Schema::new(["name", "job"]);
        let spec = KeySpec::paper_example(0, 1);
        let t = XTuple::builder(&s)
            .alt(0.5, ["Aaa", "xx"])
            .alt(0.5, ["Aab", "yy"])
            .build()
            .unwrap();
        let r = sorting_alternatives(&[t], &spec, 2);
        assert!(r.pairs.is_empty());
        // Both entries reference tuple 0 and are adjacent → collapsed.
        assert_eq!(r.order.len(), 1);
    }
}
