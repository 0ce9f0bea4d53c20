//! The core sorted-neighborhood method (Hernández & Stolfo 1995): sort key
//! entries, slide a window, emit candidate pairs.
//!
//! [`sorted_neighborhood`] sorts owned key `String`s (the paper-literal
//! path the test-only oracles run on). Everything else runs on interned
//! entries (a key symbol and a tuple): they sort by a precomputed
//! lexicographic rank — integer compares, zero allocation, byte-identical
//! order — and one window scan serves ranked SNM, the multi-pass loop of
//! [`crate::multipass`] and the warm
//! [`IncrementalSnm`](crate::incremental::IncrementalSnm).

use probdedup_model::intern::{KeyRanks, KeySymbol};

use crate::pairs::CandidatePairs;

/// One sortable entry: a key string and the tuple it references. Several
/// entries may reference the same tuple (sorting-alternatives method) and
/// several tuples may share a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnmEntry {
    /// The key value.
    pub key: String,
    /// Index of the referenced tuple.
    pub tuple: usize,
}

impl SnmEntry {
    /// A new entry.
    pub fn new(key: impl Into<String>, tuple: usize) -> Self {
        Self {
            key: key.into(),
            tuple,
        }
    }
}

/// Sort `entries` by key (ties by tuple index, then input order — fully
/// deterministic) and emit all pairs of tuples whose entries fall within a
/// window of `window` consecutive entries.
///
/// * `window` is clamped to ≥ 2 (a window of 1 compares nothing).
/// * Self-pairs (an entry meeting another entry of the same tuple) are
///   skipped.
/// * If `skip_adjacent_same_tuple` is set, neighboring entries referencing
///   the same tuple are collapsed before windowing — the omission rule of
///   the sorting-alternatives method (Fig. 11: "if two neighboring key
///   values are referencing the same tuple, one of this values can be
///   omitted").
/// * Duplicate pairs across windows are suppressed (Fig. 12 matrix),
///   which also implements "storing already executed matchings".
///
/// Returns the candidate pairs and the sorted entry list (figures print it).
pub fn sorted_neighborhood(
    mut entries: Vec<SnmEntry>,
    window: usize,
    n_tuples: usize,
    skip_adjacent_same_tuple: bool,
) -> (CandidatePairs, Vec<SnmEntry>) {
    let window = window.max(2);
    entries.sort_by(|a, b| a.key.cmp(&b.key).then(a.tuple.cmp(&b.tuple)));
    if skip_adjacent_same_tuple {
        entries.dedup_by(|next, prev| next.tuple == prev.tuple);
    }
    let mut pairs = CandidatePairs::new(n_tuples);
    for (i, e) in entries.iter().enumerate() {
        for f in entries.iter().skip(i + 1).take(window - 1) {
            pairs.insert(e.tuple, f.tuple);
        }
    }
    (pairs, entries)
}

/// One sortable **interned** entry: a key symbol and the tuple it
/// references — the allocation-free twin of [`SnmEntry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InternedSnmEntry {
    /// The key symbol (resolve against the issuing
    /// [`KeyPool`](probdedup_model::intern::KeyPool) for display).
    pub(crate) key: KeySymbol,
    /// Index of the referenced tuple.
    pub(crate) tuple: usize,
}

impl InternedSnmEntry {
    /// A new entry.
    pub(crate) fn new(key: KeySymbol, tuple: usize) -> Self {
        Self { key, tuple }
    }
}

/// Sort interned entries by `(rank(key), tuple)` — byte-identical order to
/// the string path, since `ranks` agrees with the key strings'
/// lexicographic order. Stable, so equal entries keep their input order.
pub(crate) fn sort_entries(entries: &mut [InternedSnmEntry], ranks: &KeyRanks) {
    entries.sort_by_key(|e| (ranks.rank(e.key), e.tuple));
}

/// The window scan — the one loop ranked SNM, multi-pass SNM and the
/// incremental states run: visit each entry of a **sorted, collapsed**
/// list as the anchor of the `window − 1` entries after it (`window`
/// clamped to ≥ 2), anchor-major. Self-pairs and repeats are passed
/// through; the consumer's pair set suppresses them (Fig. 12).
pub(crate) fn for_each_window_pair<T>(entries: &[T], window: usize, mut f: impl FnMut(&T, &T)) {
    let window = window.max(2);
    for (i, anchor) in entries.iter().enumerate() {
        for other in entries.iter().skip(i + 1).take(window - 1) {
            f(anchor, other);
        }
    }
}

/// [`for_each_window_pair`] into a fresh pair set — the back half of the
/// incremental SNM state (which keeps its sorted entry list resident,
/// uncollapsed, and rank-**inserts** new entries instead of re-sorting).
/// If `skip_adjacent_same_tuple` is set, neighboring entries of the same
/// tuple collapse first (Fig. 11's omission rule). Pairs come out in
/// window order, deduplicated.
pub(crate) fn windowed_pairs(
    entries: &[InternedSnmEntry],
    window: usize,
    n_tuples: usize,
    skip_adjacent_same_tuple: bool,
) -> CandidatePairs {
    let mut pairs = CandidatePairs::new(n_tuples);
    let mut emit = |a: &InternedSnmEntry, b: &InternedSnmEntry| {
        pairs.insert(a.tuple, b.tuple);
    };
    if skip_adjacent_same_tuple {
        let mut collapsed = entries.to_vec();
        collapsed.dedup_by(|next, prev| next.tuple == prev.tuple);
        for_each_window_pair(&collapsed, window, &mut emit);
    } else {
        for_each_window_pair(entries, window, &mut emit);
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(list: &[(&str, usize)]) -> Vec<SnmEntry> {
        list.iter().map(|&(k, t)| SnmEntry::new(k, t)).collect()
    }

    /// Fig. 9 (left): the sorted order of world I1's key values.
    #[test]
    fn fig9_world_i1_order() {
        // I1: t31 (John, pilot), t32 (Tim, mechanic), t41 (Johan, pianist),
        //     t42 (Tom, mechanic), t43 (Sean, pilot).
        // Keys: Johpi, Timme, Johpi, Tomme, Seapi → sorted:
        //   Johpi(t31), Johpi(t41), Seapi(t43), Timme(t32), Tomme(t42).
        let input = entries(&[
            ("Johpi", 0), // t31
            ("Timme", 1), // t32
            ("Johpi", 2), // t41
            ("Tomme", 3), // t42
            ("Seapi", 4), // t43
        ]);
        let (pairs, order) = sorted_neighborhood(input, 2, 5, false);
        let sorted: Vec<(String, usize)> = order.iter().map(|e| (e.key.clone(), e.tuple)).collect();
        assert_eq!(
            sorted,
            vec![
                ("Johpi".into(), 0),
                ("Johpi".into(), 2),
                ("Seapi".into(), 4),
                ("Timme".into(), 1),
                ("Tomme".into(), 3),
            ]
        );
        // Window 2 pairs: (t31,t41), (t41,t43), (t43,t32), (t32,t42).
        assert_eq!(pairs.pairs(), &[(0, 2), (2, 4), (1, 4), (1, 3)]);
    }

    #[test]
    fn window_three_pairs_more() {
        let input = entries(&[("a", 0), ("b", 1), ("c", 2), ("d", 3)]);
        let (w2, _) = sorted_neighborhood(input.clone(), 2, 4, false);
        let (w3, _) = sorted_neighborhood(input, 3, 4, false);
        assert_eq!(w2.len(), 3);
        assert_eq!(w3.len(), 5); // (0,1),(0,2),(1,2),(1,3),(2,3)
        for &p in w2.pairs() {
            assert!(
                w3.contains(p.0, p.1),
                "window-3 must contain window-2 pairs"
            );
        }
    }

    #[test]
    fn self_pairs_skipped() {
        let input = entries(&[("a", 0), ("b", 0), ("c", 1)]);
        let (pairs, _) = sorted_neighborhood(input, 2, 2, false);
        assert_eq!(pairs.pairs(), &[(0, 1)]);
    }

    #[test]
    fn adjacent_same_tuple_collapsed() {
        // Fig. 11's rule: adjacent entries of the same tuple collapse, so
        // tuple 0's second entry is removed and "c"(1) pairs with "a"(0).
        let input = entries(&[("a", 0), ("b", 0), ("c", 1)]);
        let (pairs, order) = sorted_neighborhood(input, 2, 2, true);
        assert_eq!(order.len(), 2);
        assert_eq!(pairs.pairs(), &[(0, 1)]);
    }

    #[test]
    fn duplicate_pairs_suppressed_across_windows() {
        // Tuples 0 and 1 are neighbors twice; the matching executes once.
        let input = entries(&[("a", 0), ("b", 1), ("c", 0), ("d", 1)]);
        let (pairs, _) = sorted_neighborhood(input, 2, 2, false);
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn window_clamped_to_two() {
        let input = entries(&[("a", 0), ("b", 1)]);
        let (pairs, _) = sorted_neighborhood(input, 0, 2, false);
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn empty_and_single_entry() {
        let (pairs, order) = sorted_neighborhood(Vec::new(), 2, 0, false);
        assert!(pairs.is_empty());
        assert!(order.is_empty());
        let (pairs, _) = sorted_neighborhood(entries(&[("a", 0)]), 2, 1, false);
        assert!(pairs.is_empty());
    }

    #[test]
    fn interned_windowing_matches_string_path() {
        use probdedup_model::intern::KeyPool;
        let list: &[(&str, usize)] = &[
            ("Johpi", 0),
            ("Timme", 1),
            ("Johpi", 2),
            ("", 3), // empty key sorts first
            ("Łukme", 4),
            ("Johpi", 0), // duplicate entry of tuple 0
        ];
        let mut kp = KeyPool::new();
        let interned: Vec<InternedSnmEntry> = list
            .iter()
            .map(|&(k, t)| InternedSnmEntry::new(kp.intern_str(k), t))
            .collect();
        let ranks = kp.lexicographic_ranks();
        let mut sorted = interned;
        sort_entries(&mut sorted, &ranks);
        for window in [2, 3, 4] {
            for skip in [false, true] {
                let (sp, so) = sorted_neighborhood(entries(list), window, 5, skip);
                let ip = windowed_pairs(&sorted, window, 5, skip);
                assert_eq!(sp.pairs(), ip.pairs(), "window {window} skip {skip}");
                let mut resolved: Vec<(String, usize)> = sorted
                    .iter()
                    .map(|e| (kp.resolve(e.key).to_string(), e.tuple))
                    .collect();
                if skip {
                    resolved.dedup_by(|next, prev| next.1 == prev.1);
                }
                let strings: Vec<(String, usize)> =
                    so.iter().map(|e| (e.key.clone(), e.tuple)).collect();
                assert_eq!(resolved, strings, "window {window} skip {skip}");
            }
        }
    }

    #[test]
    fn deterministic_tie_breaking() {
        let a = entries(&[("k", 2), ("k", 0), ("k", 1)]);
        let b = entries(&[("k", 1), ("k", 2), ("k", 0)]);
        let (_, order_a) = sorted_neighborhood(a, 2, 3, false);
        let (_, order_b) = sorted_neighborhood(b, 2, 3, false);
        assert_eq!(order_a, order_b);
        assert_eq!(order_a[0].tuple, 0);
    }
}
