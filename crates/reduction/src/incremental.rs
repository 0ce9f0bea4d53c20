//! Incrementally growable reduction state for persistent sessions.
//!
//! The one-shot entry points of this crate rebuild their key state from
//! scratch on every call. A persistent session (the `DedupSession` of
//! `probdedup-core`) instead keeps the state **resident** and feeds it
//! batches of tuples as they arrive:
//!
//! * [`IncrementalSnm`] — a [`KeyTable`] plus the rank-sorted entry list.
//!   Ingesting a batch interns only the new tuples' keys (cached prefix
//!   renders make already-seen values free) and **rank-inserts** the new
//!   entries into the resident sorted order — a merge against the resident
//!   rank order, never a full re-sort. [`IncrementalSnm::current_pairs`]
//!   then windows the merged list, reproducing the one-shot
//!   sorted-neighborhood candidate order byte for byte.
//! * [`IncrementalRankedSnm`] — the probabilistic-ranking flavour
//!   (Section V-A.4): per-tuple rank scores are corpus-independent, so new
//!   tuples binary-insert into the resident ranked order.
//! * [`IncrementalBlocks`] — resident symbol-keyed blocks: each new tuple
//!   joins its blocks with one integer-keyed probe per key;
//!   [`IncrementalBlocks::current_pairs`] emits within-block pairs in
//!   sorted-key order, identical to the one-shot blocking output.
//!
//! All three share a contract with their one-shot twins, property-tested
//! in this module and end-to-end in `tests/`: ingesting a corpus in **any
//! batch split** yields the same candidate pairs, in the same order, as
//! one batch call — and re-ingesting values the pools have already seen
//! performs **zero** key renders (asserted via
//! [`KeyTable::render_count`]).

use probdedup_model::intern::KeySymbol;
use probdedup_model::util::FxHashMap;
use probdedup_model::xtuple::XTuple;

use crate::blocking::{emit_block_pairs, Block};
use crate::conflict::{resolve_key_symbol, ConflictResolution};
use crate::key::{KeySpec, KeyTable};
use crate::pairs::CandidatePairs;
use crate::ranking::{rank_score, RankingFunction};
use crate::snm::{for_each_window_pair, windowed_pairs, InternedSnmEntry};

/// How each tuple contributes sorted-neighborhood entries (the
/// world-independent SNM flavours; multi-pass-over-worlds regenerates per
/// pass from the shared [`KeyTable`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnmKeying {
    /// One entry per alternative key (sorting alternatives, Fig. 11),
    /// windowed with the adjacent-same-tuple omission rule.
    PerAlternative,
    /// One entry per tuple: its conflict-resolved certain key (Fig. 10).
    Resolved(ConflictResolution),
}

/// Persistent sorted-neighborhood state: the warm [`KeyTable`] and the
/// entry list kept sorted by `(key string, tuple)` across ingests.
#[derive(Debug, Clone)]
pub struct IncrementalSnm {
    table: KeyTable,
    keying: SnmKeying,
    window: usize,
    /// Sorted by `(resolved key, tuple)`, stable by arrival order —
    /// exactly the order a one-shot stable sort of all entries produces.
    entries: Vec<InternedSnmEntry>,
    n_tuples: usize,
}

impl IncrementalSnm {
    /// Empty state for `spec`; grow with [`IncrementalSnm::ingest`].
    pub fn new(spec: KeySpec, keying: SnmKeying, window: usize) -> Self {
        Self::with_table(KeyTable::empty(spec), keying, window)
    }

    /// Rebuild state around a warm table restored from a snapshot (no
    /// rows yet — the caller re-ingests the resident corpus, which is
    /// render-free against the restored pools).
    pub fn with_table(table: KeyTable, keying: SnmKeying, window: usize) -> Self {
        Self {
            table,
            keying,
            window,
            entries: Vec::new(),
            n_tuples: 0,
        }
    }

    /// The warm key table (snapshot export).
    pub fn table(&self) -> &KeyTable {
        &self.table
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
    /// intern their keys into the warm table and rank-insert the new
    /// entries into the resident sorted order (a linear merge — the
    /// resident list is never re-sorted).
    pub fn ingest(&mut self, tuples: &[XTuple], start: usize) {
        debug_assert_eq!(start, self.n_tuples, "batches must arrive in row order");
        let mut fresh: Vec<InternedSnmEntry> = Vec::new();
        match self.keying {
            SnmKeying::PerAlternative => {
                self.table.extend(tuples);
                for (offset, _) in tuples.iter().enumerate() {
                    let i = start + offset;
                    for &key in self.table.alternative_keys(i) {
                        fresh.push(InternedSnmEntry::new(key, i));
                    }
                }
            }
            SnmKeying::Resolved(strategy) => {
                let spec = self.table.spec().clone();
                for (offset, t) in tuples.iter().enumerate() {
                    let key = self
                        .table
                        .intern_with(|vp, kp| resolve_key_symbol(t, &spec, strategy, vp, kp));
                    fresh.push(InternedSnmEntry::new(key, start + offset));
                }
            }
        }
        self.n_tuples = start + tuples.len();
        self.merge_entries(fresh);
    }

    /// Drop the per-row state (entries + table rows) but keep the warm
    /// pools, for re-keying a different corpus.
    pub fn reset_rows(&mut self) {
        self.entries.clear();
        self.table.clear_rows();
        self.n_tuples = 0;
    }

    /// The full candidate set over everything ingested so far: a window
    /// scan of the resident sorted list — byte-identical pairs, in the
    /// same order, as the one-shot method over the same corpus.
    pub fn current_pairs(&self) -> CandidatePairs {
        let skip = matches!(self.keying, SnmKeying::PerAlternative);
        windowed_pairs(&self.entries, self.window, self.n_tuples, skip)
    }

    /// Merge `fresh` (arrival order) into the resident sorted entry list.
    /// New entries sort stably among themselves and insert **after**
    /// resident ties, matching what a stable sort of the concatenated
    /// one-shot entry list produces. The table's rank array already covers
    /// every fresh key (the ingest that produced them absorbed its new
    /// symbols), so every comparison is a `(u32, usize)` integer compare —
    /// the same ordering `sorted_neighborhood_interned` sorts by.
    fn merge_entries(&mut self, mut fresh: Vec<InternedSnmEntry>) {
        if fresh.is_empty() {
            return;
        }
        let ranks = self.table.ranks();
        let sort_key = |e: &InternedSnmEntry| (ranks.rank(e.key), e.tuple);
        fresh.sort_by_key(sort_key);
        let old = std::mem::take(&mut self.entries);
        let mut merged = Vec::with_capacity(old.len() + fresh.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < fresh.len() {
            if sort_key(&old[i]) <= sort_key(&fresh[j]) {
                merged.push(old[i]);
                i += 1;
            } else {
                merged.push(fresh[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&old[i..]);
        merged.extend_from_slice(&fresh[j..]);
        self.entries = merged;
    }
}

/// Persistent ranked-SNM state (Section V-A.4): tuples kept in rank-score
/// order across ingests. Scores are per-tuple, so a new tuple
/// binary-inserts without touching the resident order.
#[derive(Debug, Clone)]
pub struct IncrementalRankedSnm {
    spec: KeySpec,
    f: RankingFunction,
    window: usize,
    /// `(score, display key, tuple)` in the one-shot rank order.
    scored: Vec<(f64, String, usize)>,
}

impl IncrementalRankedSnm {
    /// Empty state; grow with [`IncrementalRankedSnm::ingest`].
    pub fn new(spec: KeySpec, f: RankingFunction, window: usize) -> Self {
        Self {
            spec,
            f,
            window,
            scored: Vec::new(),
        }
    }

    /// Number of tuples ingested so far.
    pub fn len(&self) -> usize {
        self.scored.len()
    }

    /// Whether no tuples have been ingested.
    pub fn is_empty(&self) -> bool {
        self.scored.is_empty()
    }

    /// Ingest `tuples` as rows `start..`: score each and binary-insert
    /// into the resident ranked order.
    pub fn ingest(&mut self, tuples: &[XTuple], start: usize) {
        for (offset, t) in tuples.iter().enumerate() {
            let idx = start + offset;
            let (score, key) = rank_score(t, &self.spec, self.f);
            let pos = self.scored.partition_point(|(s, k, i)| {
                s.partial_cmp(&score)
                    .expect("finite scores")
                    .then(k.as_str().cmp(&key))
                    .then(i.cmp(&idx))
                    .is_le()
            });
            self.scored.insert(pos, (score, key, idx));
        }
    }

    /// Drop all rows (ranked scoring keeps no pools to warm).
    pub fn reset_rows(&mut self) {
        self.scored.clear();
    }

    /// The full candidate set over everything ingested so far — identical
    /// pairs and order to [`ranked_snm`](crate::ranking::ranked_snm).
    pub fn current_pairs(&self) -> CandidatePairs {
        let mut pairs = CandidatePairs::new(self.scored.len());
        for_each_window_pair(&self.scored, self.window, |(_, _, a), (_, _, b)| {
            pairs.insert(*a, *b);
        });
        pairs
    }
}

/// How each tuple joins blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKeying {
    /// One block per alternative key (Fig. 14).
    PerAlternative,
    /// One block per tuple: its conflict-resolved certain key.
    Resolved(ConflictResolution),
}

/// Persistent blocking state: resident symbol-keyed blocks over a warm
/// [`KeyTable`]. Ingesting a tuple is one integer-keyed probe per key;
/// no key string is re-rendered, hashed or compared.
#[derive(Debug, Clone)]
pub struct IncrementalBlocks {
    table: KeyTable,
    keying: BlockKeying,
    blocks: FxHashMap<KeySymbol, Block>,
    n_tuples: usize,
}

impl IncrementalBlocks {
    /// Empty state for `spec`; grow with [`IncrementalBlocks::ingest`].
    pub fn new(spec: KeySpec, keying: BlockKeying) -> Self {
        Self::with_table(KeyTable::empty(spec), keying)
    }

    /// Rebuild state around a warm table restored from a snapshot (no
    /// rows yet — the caller re-ingests the resident corpus render-free).
    pub fn with_table(table: KeyTable, keying: BlockKeying) -> Self {
        Self {
            table,
            keying,
            blocks: FxHashMap::default(),
            n_tuples: 0,
        }
    }

    /// The warm key table (snapshot export).
    pub fn table(&self) -> &KeyTable {
        &self.table
    }

    /// Number of tuples ingested so far.
    pub fn len(&self) -> usize {
        self.n_tuples
    }

    /// Whether no tuples have been ingested.
    pub fn is_empty(&self) -> bool {
        self.n_tuples == 0
    }

    /// Key renders performed since construction.
    pub fn render_count(&self) -> u64 {
        self.table.render_count()
    }

    /// Ingest `tuples` as combined rows `start..`: each joins the blocks
    /// of its keys (per-block membership stays deduplicated).
    pub fn ingest(&mut self, tuples: &[XTuple], start: usize) {
        debug_assert_eq!(start, self.n_tuples, "batches must arrive in row order");
        match self.keying {
            BlockKeying::PerAlternative => {
                self.table.extend(tuples);
                for (offset, _) in tuples.iter().enumerate() {
                    let i = start + offset;
                    for &key in self.table.alternative_keys(i) {
                        self.blocks.entry(key).or_default().insert(i);
                    }
                }
            }
            BlockKeying::Resolved(strategy) => {
                let spec = self.table.spec().clone();
                for (offset, t) in tuples.iter().enumerate() {
                    let key = self
                        .table
                        .intern_with(|vp, kp| resolve_key_symbol(t, &spec, strategy, vp, kp));
                    self.blocks.entry(key).or_default().insert(start + offset);
                }
            }
        }
        self.n_tuples = start + tuples.len();
    }

    /// Drop the blocks and table rows but keep the warm pools.
    pub fn reset_rows(&mut self) {
        self.blocks.clear();
        self.table.clear_rows();
        self.n_tuples = 0;
    }

    /// The full candidate set over everything ingested so far: within-block
    /// pairs in sorted-key order (by the table's integer ranks — no string
    /// is resolved) — identical pairs and order to the one-shot
    /// [`block_alternatives`](crate::blocking::block_alternatives)
    /// / [`block_conflict_resolved`](crate::blocking::block_conflict_resolved).
    pub fn current_pairs(&self) -> CandidatePairs {
        let mut order: Vec<(&KeySymbol, &Block)> = self.blocks.iter().collect();
        let ranks = self.table.ranks();
        order.sort_unstable_by_key(|(k, _)| ranks.rank(**k));
        let mut pairs = CandidatePairs::new(self.n_tuples);
        for (_, block) in order {
            emit_block_pairs(block.members(), &mut pairs);
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alternatives::sorting_alternatives;
    use crate::blocking::{block_alternatives, block_conflict_resolved};
    use crate::conflict::conflict_resolved_snm;
    use crate::key::KeyPart;
    use crate::ranking::ranked_snm;
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

    #[test]
    fn incremental_snm_alternatives_matches_one_shot() {
        let tuples = corpus();
        for window in [2, 3, 5] {
            let batch = sorting_alternatives(&tuples, &spec(), window).pairs;
            for split in splits(tuples.len()) {
                let mut inc = IncrementalSnm::new(spec(), SnmKeying::PerAlternative, window);
                let mut start = 0;
                for size in split {
                    inc.ingest(&tuples[start..start + size], start);
                    start += size;
                }
                assert_eq!(
                    inc.current_pairs().pairs(),
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
            let (batch, _) = conflict_resolved_snm(&tuples, &spec(), 3, strategy);
            for split in splits(tuples.len()) {
                let mut inc = IncrementalSnm::new(spec(), SnmKeying::Resolved(strategy), 3);
                let mut start = 0;
                for size in split {
                    inc.ingest(&tuples[start..start + size], start);
                    start += size;
                }
                assert_eq!(inc.current_pairs().pairs(), batch.pairs(), "{strategy:?}");
            }
        }
    }

    #[test]
    fn incremental_ranked_matches_one_shot() {
        let tuples = corpus();
        for f in [
            RankingFunction::MostProbableKey,
            RankingFunction::ExpectedScore,
        ] {
            let (batch, _) = ranked_snm(&tuples, &spec(), 3, f);
            for split in splits(tuples.len()) {
                let mut inc = IncrementalRankedSnm::new(spec(), f, 3);
                let mut start = 0;
                for size in split {
                    inc.ingest(&tuples[start..start + size], start);
                    start += size;
                }
                assert_eq!(inc.current_pairs().pairs(), batch.pairs(), "{f:?}");
            }
        }
    }

    #[test]
    fn incremental_blocks_match_one_shot() {
        let tuples = corpus();
        let fig14 = KeySpec::new(vec![KeyPart::prefix(0, 1), KeyPart::prefix(1, 1)]);
        let batch_alt = block_alternatives(&tuples, &fig14);
        let batch_res =
            block_conflict_resolved(&tuples, &fig14, ConflictResolution::MostProbableAlternative);
        for split in splits(tuples.len()) {
            let mut alt = IncrementalBlocks::new(fig14.clone(), BlockKeying::PerAlternative);
            let mut res = IncrementalBlocks::new(
                fig14.clone(),
                BlockKeying::Resolved(ConflictResolution::MostProbableAlternative),
            );
            let mut start = 0;
            for &size in &split {
                alt.ingest(&tuples[start..start + size], start);
                res.ingest(&tuples[start..start + size], start);
                start += size;
            }
            assert_eq!(alt.current_pairs().pairs(), batch_alt.pairs.pairs());
            assert_eq!(res.current_pairs().pairs(), batch_res.pairs.pairs());
        }
    }

    #[test]
    fn warm_reingest_renders_nothing_new() {
        let tuples = corpus();
        let mut inc = IncrementalSnm::new(spec(), SnmKeying::PerAlternative, 3);
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

        let mut blocks = IncrementalBlocks::new(spec(), BlockKeying::PerAlternative);
        blocks.ingest(&tuples, 0);
        let renders = blocks.render_count();
        blocks.reset_rows();
        blocks.ingest(&tuples, 0);
        assert_eq!(blocks.render_count(), renders);
    }

    #[test]
    fn empty_states() {
        let inc = IncrementalSnm::new(spec(), SnmKeying::PerAlternative, 2);
        assert!(inc.is_empty());
        assert!(inc.current_pairs().is_empty());
        let ranked = IncrementalRankedSnm::new(spec(), RankingFunction::MostProbableKey, 2);
        assert!(ranked.is_empty());
        assert!(ranked.current_pairs().is_empty());
        let blocks = IncrementalBlocks::new(spec(), BlockKeying::PerAlternative);
        assert!(blocks.is_empty());
        assert!(blocks.current_pairs().is_empty());
    }
}
