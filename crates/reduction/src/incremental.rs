//! The warm reduction state: the one implementation of each keyed §V
//! adaptation — conflict-resolved SNM (Fig. 10), sorting alternatives
//! (Fig. 11) and blocking by alternative or resolved keys (Fig. 14).
//!
//! A persistent session (the `DedupSession` of `probdedup-core`) keeps a
//! state **resident** and feeds it batches of tuples as they arrive; the
//! one-shot [`sorting_alternatives`](crate::alternatives::sorting_alternatives),
//! [`conflict_resolved_snm`](crate::conflict::conflict_resolved_snm),
//! [`block_alternatives`](crate::blocking::block_alternatives) and
//! [`block_conflict_resolved`](crate::blocking::block_conflict_resolved)
//! are a fresh state fed once and read once.
//!
//! The state, [`IncrementalSnm`], is a [`KeyTable`] plus the rank-sorted
//! entry list. Ingesting a batch interns the new tuples' keys in **one**
//! table absorb (cached prefix renders make already-seen values free) and
//! **rank-inserts** the new entries into the resident sorted order —
//! binary-searched slots, never a full re-sort. [`Keying`] picks which
//! keys enter the list: one per alternative, or one conflict-resolved key
//! per tuple. The strategy picks the emission rule: SNM windows of `w`
//! entries ([`IncrementalSnm::new`]) or blocking, where each run of equal
//! keys is a block ([`IncrementalSnm::blocking`]).
//!
//! The state answers two questions about its candidate set. **What is
//! it?** — `current_pairs(rows)` re-emits the whole set over rows
//! `0..rows`: the same pairs, in the same order, as the string oracle
//! over the same corpus, for **any batch split** (property-tested in
//! `src/interned_oracle.rs` and end-to-end in `tests/`). Rows past `rows`
//! are left out, so a batch grown into the state but not yet published
//! changes nothing a reader is answered. **What did this batch change?** —
//! `ingest` grows the state and returns the positions the new entries
//! landed at; `delta` reads a [`CandidateDelta`] off them through `&self`
//! (a local window re-scan around each new entry, or the runs that gained
//! an entry): work proportional to the batch, not to the corpus, and no
//! write. Applying the deltas of
//! successive batches to a set reproduces `current_pairs` after every
//! batch, and re-ingesting values the pools have already seen performs
//! **zero** key renders (asserted via [`KeyTable::render_count`]).
//! [`IncrementalSnm::order`] and [`IncrementalSnm::blocks`] are the
//! inspection views the figures print.

use std::borrow::Cow;
use std::collections::BTreeMap;

use probdedup_model::util::FxHashSet;
use probdedup_model::xtuple::XTuple;

use crate::blocking::{emit_block_pairs, for_each_block, run_members};
use crate::conflict::{resolve_key_symbol, ConflictResolution};
use crate::key::{insert_sorted, KeySpec, KeyTable};
use crate::pairs::CandidatePairs;
use crate::snm::{for_each_window_pair, sort_entries, windowed_pairs, InternedSnmEntry, SnmEntry};

/// What ingesting one batch (combined rows `start..`) changed in a
/// candidate set. Appended rows only push window entries apart and only
/// grow blocks, so an old–old pair never *enters* the set: everything new
/// has a new row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandidateDelta {
    /// The pairs with at least one new row, `(lo, hi)`, in one-shot
    /// candidate order restricted to them.
    pub arrived: Vec<(usize, usize)>,
    /// The old–old pairs a window slid past (no particular order).
    pub departed: Vec<(usize, usize)>,
}

impl CandidateDelta {
    /// The delta of full comparison growing from `start` to `n` rows: the
    /// new rows against everything before them and each other, row-major
    /// as [`CandidatePairs::full`] emits them; nothing ever departs.
    pub fn full(start: usize, n: usize) -> Self {
        let arrived = (0..n)
            .flat_map(|i| ((i + 1).max(start)..n).map(move |j| (i, j)))
            .collect();
        Self {
            arrived,
            departed: Vec::new(),
        }
    }
}

/// The delta of a window scan over `entries` (sorted, **uncollapsed**)
/// after the entries at positions `fresh` (ascending; exactly those of
/// tuples `start..`) were inserted.
///
/// Only entries within `window` list places of a fresh one can have
/// gained or lost a partner, so the scan is local: around each run of
/// nearby fresh entries, window the region once as it is now and once
/// with the fresh entries left out. A pair of the first scan with a new
/// row has arrived; an old pair of the second scan that the first no
/// longer emits has lost that witness.
///
/// With one entry per tuple (`multi` off) a pair has exactly one witness,
/// so a lost witness is a departure. With several (`multi`: sorting
/// alternatives, windowed over the list with adjacent same-tuple entries
/// collapsed, Fig. 11) the same pair may still meet elsewhere;
/// `still_witnessed` decides.
fn window_delta(
    entries: &[InternedSnmEntry],
    fresh: &[usize],
    start: usize,
    window: usize,
    multi: bool,
    mut still_witnessed: impl FnMut(usize, usize) -> bool,
) -> CandidateDelta {
    let window = window.max(2);
    let tuple = |q: usize| entries[q].tuple;
    // Whether position `q` survives the Fig. 11 collapse.
    let kept = |q: usize| !multi || q == 0 || tuple(q - 1) != tuple(q);
    let mut delta = CandidateDelta::default();
    // Pairs already reported, when a pair can have several witnesses.
    let mut reported: FxHashSet<(usize, usize)> = FxHashSet::default();
    // Per-region scratch: the region's tuples as windowed now and before
    // the batch, and the old pairs the first scan still emits.
    let (mut now, mut before) = (Vec::new(), Vec::new());
    let mut resident: FxHashSet<(usize, usize)> = FxHashSet::default();
    let mut k = 0;
    while k < fresh.len() {
        // The region: `window` kept entries of context on either side of
        // a maximal run of fresh entries that reach one another.
        let mut lo = fresh[k];
        let mut context = 0;
        while lo > 0 && context < window {
            lo -= 1;
            context += usize::from(kept(lo));
        }
        let mut hi;
        loop {
            (hi, context) = (fresh[k], 0);
            while hi + 1 < entries.len() && context < window {
                hi += 1;
                context += usize::from(kept(hi));
            }
            let reached = k;
            while k + 1 < fresh.len() && fresh[k + 1] <= hi + 1 {
                k += 1;
            }
            if k == reached {
                break;
            }
        }
        k += 1;

        now.clear();
        before.clear();
        resident.clear();
        for q in lo..=hi {
            let t = tuple(q);
            if kept(q) {
                now.push(t);
            }
            if t < start && !(multi && before.last() == Some(&t)) {
                before.push(t);
            }
        }
        for_each_window_pair(&now, window, |&a, &b| {
            let pair = (a.min(b), a.max(b));
            if pair.1 < start {
                resident.insert(pair);
            } else if a != b && (!multi || reported.insert(pair)) {
                delta.arrived.push(pair);
            }
        });
        for_each_window_pair(&before, window, |&a, &b| {
            let pair = (a.min(b), a.max(b));
            if a != b
                && !resident.contains(&pair)
                && (!multi || (reported.insert(pair) && !still_witnessed(pair.0, pair.1)))
            {
                delta.departed.push(pair);
            }
        });
    }
    delta
}

/// The delta of run emission over `entries` (sorted) after the entries at
/// positions `fresh` (ascending; exactly those of tuples `start..`) were
/// inserted: every run of equal keys holding a fresh position emits its
/// pairs with a new row, runs in list order. Runs only grow, so nothing
/// departs. With one key per alternative (`multi`) a pair can share
/// several runs and is reported at the first.
fn run_delta(
    entries: &[InternedSnmEntry],
    fresh: &[usize],
    start: usize,
    multi: bool,
) -> CandidateDelta {
    let mut delta = CandidateDelta::default();
    let mut reported: FxHashSet<(usize, usize)> = FxHashSet::default();
    let mut members = Vec::new();
    let mut k = 0;
    while k < fresh.len() {
        let key = entries[fresh[k]].key;
        let lo = entries[..fresh[k]]
            .iter()
            .rposition(|e| e.key != key)
            .map_or(0, |q| q + 1);
        let hi = entries[fresh[k]..]
            .iter()
            .position(|e| e.key != key)
            .map_or(entries.len(), |q| fresh[k] + q);
        while k < fresh.len() && fresh[k] < hi {
            k += 1;
        }
        // Members ascend: the new ones are a suffix, and each `(i, j)`
        // below already has `i < j`.
        run_members(&entries[lo..hi], &mut members);
        let new_from = members.partition_point(|&m| m < start);
        for (a, &i) in members.iter().enumerate() {
            for &j in &members[(a + 1).max(new_from)..] {
                if !multi || reported.insert((i, j)) {
                    delta.arrived.push((i, j));
                }
            }
        }
    }
    delta
}

/// Which keys each tuple contributes to the sorted entry list (the
/// world-independent flavours; multi-pass over worlds regenerates per
/// pass from a shared [`KeyTable`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keying {
    /// One key per alternative: sorting alternatives (Fig. 11, windowed
    /// with the adjacent-same-tuple omission rule) or per-alternative
    /// blocking (Fig. 14).
    PerAlternative,
    /// One key per tuple: its conflict-resolved certain key (Fig. 10, and
    /// blocking over resolved keys).
    Resolved(ConflictResolution),
}

/// Intern the keys of `tuples`, combined rows `start..`, into `table`
/// under `keying` (one absorb for the whole batch): one entry per key, in
/// row order.
fn intern_keys(
    table: &mut KeyTable,
    keying: Keying,
    tuples: &[XTuple],
    start: usize,
) -> Vec<InternedSnmEntry> {
    match keying {
        Keying::PerAlternative => {
            table.extend(tuples);
            let table = &*table;
            (start..start + tuples.len())
                .flat_map(|i| {
                    let keys = table.alternative_keys(i).iter();
                    keys.map(move |&key| InternedSnmEntry::new(key, i))
                })
                .collect()
        }
        Keying::Resolved(strategy) => {
            let spec = table.spec().clone();
            table.intern_with(|vp, kp| {
                let key = |t| resolve_key_symbol(t, &spec, strategy, vp, kp);
                let entry = |(k, i)| InternedSnmEntry::new(k, i);
                tuples.iter().map(key).zip(start..).map(entry).collect()
            })
        }
    }
}

/// Persistent sorted-entry state: the warm [`KeyTable`] and the entry
/// list kept sorted by `(key string, tuple)` across ingests, emitting SNM
/// windows or blocking runs.
#[derive(Debug, Clone)]
pub struct IncrementalSnm {
    table: KeyTable,
    keying: Keying,
    /// The SNM window; `None` emits each run of equal keys as a block
    /// instead.
    window: Option<usize>,
    /// Sorted by `(resolved key, tuple)`, stable by arrival order —
    /// exactly the order a one-shot stable sort of all entries produces.
    entries: Vec<InternedSnmEntry>,
    n_tuples: usize,
}

impl IncrementalSnm {
    /// Empty SNM state for `spec`, windowed at `window`; grow with
    /// [`IncrementalSnm::ingest`].
    pub fn new(spec: KeySpec, keying: Keying, window: usize) -> Self {
        Self::with_window(spec, keying, Some(window))
    }

    /// Empty blocking state for `spec`: each run of equal keys is a block.
    pub fn blocking(spec: KeySpec, keying: Keying) -> Self {
        Self::with_window(spec, keying, None)
    }

    fn with_window(spec: KeySpec, keying: Keying, window: Option<usize>) -> Self {
        Self {
            table: KeyTable::empty(spec),
            keying,
            window,
            entries: Vec::new(),
            n_tuples: 0,
        }
    }

    /// Number of tuples ingested so far.
    pub fn len(&self) -> usize {
        self.n_tuples
    }

    /// Whether no tuples have been ingested.
    pub fn is_empty(&self) -> bool {
        self.n_tuples == 0
    }

    /// Key renders performed since construction (flat across ingests of
    /// already-seen values).
    pub fn render_count(&self) -> u64 {
        self.table.render_count()
    }

    /// Ingest `tuples` as combined rows `start..start + tuples.len()`:
    /// intern their keys into the warm table (one absorb for the whole
    /// batch) and rank-insert the new entries into the resident sorted
    /// order — the resident list is never re-sorted. Returns the positions
    /// the new entries landed at, ascending, for [`delta`](Self::delta).
    pub fn ingest(&mut self, tuples: &[XTuple], start: usize) -> Vec<usize> {
        debug_assert_eq!(start, self.n_tuples, "batches must arrive in row order");
        let mut fresh = intern_keys(&mut self.table, self.keying, tuples, start);
        self.n_tuples = start + tuples.len();
        // New entries sort stably among themselves and insert **after**
        // resident ties, matching what a stable sort of the concatenated
        // entry list produces. The table's rank array already covers every
        // fresh key, so every comparison is a `(u32, usize)` integer
        // compare.
        let ranks = self.table.ranks();
        sort_entries(&mut fresh, ranks);
        let sort_key = |e: &InternedSnmEntry| (ranks.rank(e.key), e.tuple);
        insert_sorted(&mut self.entries, fresh, |r, f| sort_key(r) <= sort_key(f))
    }

    /// What the last [`ingest`](Self::ingest) — rows `start..`, its
    /// entries at `fresh` — changed in the candidate set: a local re-scan
    /// around the inserted entries, or the runs they joined, never a pass
    /// over the resident list (see [`CandidateDelta`]). Valid until the
    /// next write.
    ///
    /// Under [`Keying::PerAlternative`] a pair can meet in several
    /// windows, so a pair that lost a witness next to an insertion only
    /// departs if no other entries of its two tuples still meet — checked
    /// by locating the first tuple's entries through its table row.
    pub fn delta(&self, fresh: &[usize], start: usize) -> CandidateDelta {
        let multi = self.keying == Keying::PerAlternative;
        match self.window {
            Some(window) => window_delta(&self.entries, fresh, start, window, multi, |a, b| {
                self.still_witnessed(a, b, window)
            }),
            None => run_delta(&self.entries, fresh, start, multi),
        }
    }

    /// Whether tuples `a` and `b` still meet in some window of the
    /// collapsed list ([`Keying::PerAlternative`] only): every entry of
    /// `a` is located through its table row and its window searched, in
    /// both directions, for an entry of `b`.
    fn still_witnessed(&self, a: usize, b: usize, window: usize) -> bool {
        let window = window.max(2);
        let tuple = |q: usize| self.entries[q].tuple;
        let kept = |q: usize| q == 0 || tuple(q - 1) != tuple(q);
        let ranks = self.table.ranks();
        self.table.alternative_keys(a).iter().any(|&key| {
            let at = (ranks.rank(key), a);
            let pos = self
                .entries
                .partition_point(|e| (ranks.rank(e.key), e.tuple) < at);
            if !kept(pos) {
                return false; // collapsed into another entry of `a`
            }
            // Kept entries at list distance 1, 2, … `window − 1`.
            let ahead = (pos + 1..self.entries.len()).filter(|&q| kept(q));
            let behind = (0..pos).rev().filter(|&q| kept(q));
            ahead.take(window - 1).any(|q| tuple(q) == b)
                || behind.take(window - 1).any(|q| tuple(q) == b)
        })
    }

    /// Drop the per-row state (entries + table rows) but keep the warm
    /// pools, for re-keying a different corpus.
    pub fn reset_rows(&mut self) {
        self.entries.clear();
        self.table.clear_rows();
        self.n_tuples = 0;
    }

    /// The full candidate set over rows `0..rows`: a window scan, or a
    /// walk over the runs, of the resident sorted list with the entries of
    /// later rows left out — byte-identical pairs, in the same order, as
    /// the string oracle over those rows. Insertion never reorders
    /// resident entries, so the set over a prefix of the ingested rows is
    /// the set as it stood before the later rows arrived — what a reader
    /// is answered while a grown batch is not yet published. `rows =
    /// len()` is everything.
    pub fn current_pairs(&self, rows: usize) -> CandidatePairs {
        let entries: Cow<'_, [InternedSnmEntry]> = if rows >= self.n_tuples {
            Cow::Borrowed(&self.entries)
        } else {
            self.entries
                .iter()
                .filter(|e| e.tuple < rows)
                .copied()
                .collect()
        };
        match self.window {
            Some(window) => {
                let skip = self.keying == Keying::PerAlternative;
                windowed_pairs(&entries, window, rows, skip)
            }
            None => {
                let mut pairs = CandidatePairs::new(rows);
                for_each_block(&entries, |_, members| emit_block_pairs(members, &mut pairs));
                pairs
            }
        }
    }

    /// Every ingested entry in sorted order, keys resolved to strings —
    /// Fig. 10's list under [`Keying::Resolved`]; under
    /// [`Keying::PerAlternative`] the right-hand list of Fig. 11 with its
    /// struck-out rows (adjacent entries of one tuple) still in.
    pub fn order(&self) -> Vec<SnmEntry> {
        let entry = |e: &InternedSnmEntry| SnmEntry::new(self.table.resolve(e.key), e.tuple);
        self.entries.iter().map(entry).collect()
    }

    /// Every block of the ingested rows — the runs of equal keys: key →
    /// members in first-insertion order (Fig. 14).
    pub fn blocks(&self) -> BTreeMap<String, Vec<usize>> {
        let mut blocks = BTreeMap::new();
        for_each_block(&self.entries, |key, members| {
            blocks.insert(self.table.resolve(key).to_string(), members.to_vec());
        });
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interned_oracle::{
        block_alternatives_oracle, block_conflict_resolved_oracle, conflict_resolved_snm_oracle,
        sorting_alternatives_oracle,
    };
    use crate::key::KeyPart;
    use probdedup_model::pvalue::PValue;
    use probdedup_model::schema::Schema;
    use probdedup_model::value::Value;

    /// ℛ34 plus a few extra rows so splits have room to cut.
    fn corpus() -> Vec<XTuple> {
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
            XTuple::builder(&s)
                .alt(1.0, ["Sean", "painter"])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(1.0, ["Tim", "mechanic"])
                .build()
                .unwrap(),
        ]
    }

    fn spec() -> KeySpec {
        KeySpec::paper_example(0, 1)
    }

    fn splits(n: usize) -> Vec<Vec<usize>> {
        // Batch boundaries to exercise: one shot, halves, thirds, singles.
        vec![
            vec![n],
            vec![1, n - 1],
            vec![n / 2, n - n / 2],
            vec![2, 2, n - 4],
            vec![1; n],
        ]
    }

    // The three tests below feed the paper corpus in fixed splits and
    // compare against the one-shot string oracles (the random-split
    // property is `interned_oracle::warm_states_fed_in_batches_match_oracles`).

    #[test]
    fn incremental_snm_alternatives_matches_one_shot() {
        let tuples = corpus();
        for window in [2, 3, 5] {
            let batch = sorting_alternatives_oracle(&tuples, &spec(), window).pairs;
            for split in splits(tuples.len()) {
                let mut inc = IncrementalSnm::new(spec(), Keying::PerAlternative, window);
                let mut start = 0;
                for size in split {
                    inc.ingest(&tuples[start..start + size], start);
                    start += size;
                }
                assert_eq!(
                    inc.current_pairs(inc.len()).pairs(),
                    batch.pairs(),
                    "window {window}"
                );
            }
        }
    }

    #[test]
    fn incremental_snm_resolved_matches_one_shot() {
        let tuples = corpus();
        for strategy in [
            ConflictResolution::MostProbableAlternative,
            ConflictResolution::MostProbableKey,
            ConflictResolution::FirstAlternative,
        ] {
            let (batch, _) = conflict_resolved_snm_oracle(&tuples, &spec(), 3, strategy);
            for split in splits(tuples.len()) {
                let mut inc = IncrementalSnm::new(spec(), Keying::Resolved(strategy), 3);
                let mut start = 0;
                for size in split {
                    inc.ingest(&tuples[start..start + size], start);
                    start += size;
                }
                assert_eq!(
                    inc.current_pairs(inc.len()).pairs(),
                    batch.pairs(),
                    "{strategy:?}"
                );
            }
        }
    }

    #[test]
    fn incremental_blocks_match_one_shot() {
        let tuples = corpus();
        let fig14 = KeySpec::new(vec![KeyPart::prefix(0, 1), KeyPart::prefix(1, 1)]);
        let batch_alt = block_alternatives_oracle(&tuples, &fig14);
        let batch_res = block_conflict_resolved_oracle(
            &tuples,
            &fig14,
            ConflictResolution::MostProbableAlternative,
        );
        for split in splits(tuples.len()) {
            let mut alt = IncrementalSnm::blocking(fig14.clone(), Keying::PerAlternative);
            let mut res = IncrementalSnm::blocking(
                fig14.clone(),
                Keying::Resolved(ConflictResolution::MostProbableAlternative),
            );
            let mut start = 0;
            for &size in &split {
                alt.ingest(&tuples[start..start + size], start);
                res.ingest(&tuples[start..start + size], start);
                start += size;
            }
            assert_eq!(
                alt.current_pairs(alt.len()).pairs(),
                batch_alt.pairs.pairs()
            );
            assert_eq!(
                res.current_pairs(res.len()).pairs(),
                batch_res.pairs.pairs()
            );
        }
    }

    /// Ingest one batch and read its delta.
    fn ingest_delta(state: &mut IncrementalSnm, tuples: &[XTuple], start: usize) -> CandidateDelta {
        let fresh = state.ingest(tuples, start);
        state.delta(&fresh, start)
    }

    /// Every delta-emitting flavour over `spec` at `window`.
    fn states(spec: &KeySpec, window: usize) -> Vec<(&'static str, IncrementalSnm)> {
        let mpa = ConflictResolution::MostProbableAlternative;
        let mpk = ConflictResolution::MostProbableKey;
        let snm = |keying| IncrementalSnm::new(spec.clone(), keying, window);
        let blocks = |keying| IncrementalSnm::blocking(spec.clone(), keying);
        vec![
            ("snm per-alternative", snm(Keying::PerAlternative)),
            ("snm resolved mpa", snm(Keying::Resolved(mpa))),
            ("snm resolved mpk", snm(Keying::Resolved(mpk))),
            ("blocks per-alternative", blocks(Keying::PerAlternative)),
            ("blocks resolved", blocks(Keying::Resolved(mpa))),
        ]
    }

    /// Feed `tuples` in batches of `sizes` and hold every delta to the
    /// regenerated set: `arrived` is the regenerated list filtered to the
    /// pairs with a new row (same order), `departed` is exactly what the
    /// previous set held and the regenerated one does not, and the two
    /// never overlap. The set over the rows before the batch is, after it,
    /// still the one from before it (the prefix rule).
    fn assert_deltas_track(
        label: &str,
        state: &mut IncrementalSnm,
        tuples: &[XTuple],
        sizes: &[usize],
    ) {
        let mut held: FxHashSet<(usize, usize)> = FxHashSet::default();
        let mut start = 0;
        for &size in sizes {
            let before = state.current_pairs(start);
            let delta = ingest_delta(state, &tuples[start..start + size], start);
            let current = state.current_pairs(start + size);
            let label = format!("{label}, rows {start}..{} of {sizes:?}", start + size);
            assert_eq!(state.current_pairs(start), before, "{label}: prefix");
            let with_new_row: Vec<(usize, usize)> = current
                .pairs()
                .iter()
                .copied()
                .filter(|p| p.1 >= start)
                .collect();
            assert_eq!(delta.arrived, with_new_row, "{label}: arrived");
            let mut departed = delta.departed.clone();
            departed.sort_unstable();
            let mut gone: Vec<(usize, usize)> = held
                .iter()
                .copied()
                .filter(|&(i, j)| !current.contains(i, j))
                .collect();
            gone.sort_unstable();
            assert_eq!(departed, gone, "{label}: departed");
            assert!(
                departed.iter().all(|p| p.1 < start),
                "{label}: new row left"
            );
            for pair in &delta.departed {
                held.remove(pair);
            }
            held.extend(delta.arrived.iter().copied());
            let regenerated: FxHashSet<(usize, usize)> = current.pairs().iter().copied().collect();
            assert_eq!(held, regenerated, "{label}: deltas applied");
            start += size;
        }
        assert_eq!(start, tuples.len(), "sizes must cover the corpus");
    }

    fn tuple(s: &Schema, alts: &[(&str, &str)]) -> XTuple {
        let mut b = XTuple::builder(s);
        for (i, (name, job)) in alts.iter().enumerate() {
            // Distinct masses, most probable first, total < 1.
            b = b.alt(0.9 / alts.len() as f64 - 0.01 * i as f64, [*name, *job]);
        }
        b.build().unwrap()
    }

    #[test]
    fn deltas_track_the_paper_corpus_in_every_split() {
        let tuples = corpus();
        for window in [2, 3, 5, 50] {
            for split in splits(tuples.len()) {
                for (label, mut state) in states(&spec(), window) {
                    assert_deltas_track(&format!("{label} w{window}"), &mut state, &tuples, &split);
                }
            }
        }
    }

    #[test]
    fn deltas_survive_adversarial_batches() {
        let s = Schema::new(["name", "job"]);
        let one = |name: &str| tuple(&s, &[(name, "x")]);
        let cases: Vec<(&str, Vec<XTuple>, Vec<usize>)> = vec![
            // Every key equal: order is arrival order, windows slide far.
            (
                "all-equal keys",
                (0..9).map(|_| one("same")).collect(),
                vec![3, 0, 1, 4, 1],
            ),
            // A batch sorting wholly before / between / after the residents.
            (
                "before",
                ["m", "n", "o", "p", "a", "b", "c"].map(one).to_vec(),
                vec![4, 3],
            ),
            (
                "between",
                ["a", "b", "y", "z", "m", "n", "o"].map(one).to_vec(),
                vec![4, 3],
            ),
            (
                "after",
                ["a", "b", "c", "d", "x", "y", "z"].map(one).to_vec(),
                vec![4, 3],
            ),
            // Tuple 0's two entries sit next to each other (collapsed,
            // Fig. 11) until row 3 sorts between them; rows 1 and 2 then
            // meet tuple 0 through different entries.
            (
                "un-collapse",
                vec![
                    tuple(&s, &[("ca", "x"), ("cc", "x")]),
                    one("a"),
                    one("d"),
                    one("cb"),
                    tuple(&s, &[("cb", "x"), ("a", "x"), ("d", "x")]),
                    one("cab"),
                ],
                vec![3, 1, 1, 1],
            ),
            // The empty key and multi-byte prefixes.
            (
                "empty and multi-byte",
                vec![
                    one(""),
                    one("é"),
                    tuple(&s, &[("éa", "x"), ("", "x")]),
                    one("日本"),
                    one("e"),
                    tuple(&s, &[("日", "x"), ("é", "x")]),
                    one(""),
                ],
                vec![1, 2, 0, 3, 1],
            ),
        ];
        let spec = KeySpec::new(vec![KeyPart::prefix(0, 3), KeyPart::prefix(1, 1)]);
        for (name, tuples, sizes) in &cases {
            for window in [2, 3, 4, 100] {
                for (label, mut state) in states(&spec, window) {
                    let label = format!("{name}: {label} w{window}");
                    assert_deltas_track(&label, &mut state, tuples, sizes);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random small-alphabet corpora (keys collide, alternatives of one
        /// tuple land next to each other and far apart) in random batch
        /// splits, empty and single-row batches included.
        #[test]
        fn deltas_track_random_corpora(
            rows in proptest::collection::vec(
                proptest::collection::vec((0usize..9, 0usize..3), 1..4),
                1..26,
            ),
            cuts in proptest::collection::vec(0usize..26, 0..7),
            window in 2usize..7,
        ) {
            const NAMES: [&str; 9] = ["", "a", "ab", "abc", "b", "ba", "é", "éa", "c"];
            const JOBS: [&str; 3] = ["", "x", "y"];
            let s = Schema::new(["name", "job"]);
            let tuples: Vec<XTuple> = rows
                .iter()
                .map(|alts| {
                    let alts: Vec<(&str, &str)> =
                        alts.iter().map(|&(n, j)| (NAMES[n], JOBS[j])).collect();
                    tuple(&s, &alts)
                })
                .collect();
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (tuples.len() + 1)).collect();
            bounds.extend([0, tuples.len()]);
            bounds.sort_unstable();
            let sizes: Vec<usize> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
            let spec = KeySpec::new(vec![KeyPart::prefix(0, 2), KeyPart::prefix(1, 1)]);
            for (label, mut state) in states(&spec, window) {
                assert_deltas_track(&format!("{label} w{window}"), &mut state, &tuples, &sizes);
            }
        }
    }

    /// The prefix rule: grown past `rows`, every state still emits over
    /// rows `0..rows` exactly what a state that only ever saw those rows
    /// emits — pairs and order.
    #[test]
    fn current_pairs_over_a_prefix_ignores_later_rows() {
        let tuples = corpus();
        for window in [2, 3, 5] {
            let mut grown = states(&spec(), window);
            for (_, state) in &mut grown {
                ingest_delta(state, &tuples, 0);
            }
            for rows in 0..=tuples.len() {
                for ((label, grown), (_, mut fresh)) in grown.iter().zip(states(&spec(), window)) {
                    ingest_delta(&mut fresh, &tuples[..rows], 0);
                    assert_eq!(
                        grown.current_pairs(rows).pairs(),
                        fresh.current_pairs(rows).pairs(),
                        "{label} w{window}: rows 0..{rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_delta_is_the_row_major_suffix() {
        for (start, n) in [(0, 0), (0, 4), (2, 5), (5, 5), (3, 4)] {
            let full = CandidatePairs::full(n);
            let with_new_row: Vec<(usize, usize)> = full
                .pairs()
                .iter()
                .copied()
                .filter(|p| p.1 >= start)
                .collect();
            let delta = CandidateDelta::full(start, n);
            assert_eq!(delta.arrived, with_new_row, "{start}..{n}");
            assert!(delta.departed.is_empty());
        }
    }

    #[test]
    fn warm_reingest_renders_nothing_new() {
        let tuples = corpus();
        let mut inc = IncrementalSnm::new(spec(), Keying::PerAlternative, 3);
        inc.ingest(&tuples, 0);
        let renders = inc.render_count();
        assert!(renders > 0);
        // Re-keying the same values after a row reset is free.
        inc.reset_rows();
        inc.ingest(&tuples, 0);
        assert_eq!(inc.render_count(), renders);
        // Ingesting duplicates of seen tuples is free too.
        inc.ingest(&tuples[..2], tuples.len());
        assert_eq!(inc.render_count(), renders);

        let mut blocks = IncrementalSnm::blocking(spec(), Keying::PerAlternative);
        blocks.ingest(&tuples, 0);
        let renders = blocks.render_count();
        blocks.reset_rows();
        blocks.ingest(&tuples, 0);
        assert_eq!(blocks.render_count(), renders);
    }

    #[test]
    fn empty_states() {
        let inc = IncrementalSnm::new(spec(), Keying::PerAlternative, 2);
        assert!(inc.is_empty());
        assert!(inc.current_pairs(0).is_empty());
        let blocks = IncrementalSnm::blocking(spec(), Keying::PerAlternative);
        assert!(blocks.is_empty());
        assert!(blocks.current_pairs(0).is_empty());
    }
}
