//! The warm reduction state a [`DedupSession`](crate::session::DedupSession)
//! keeps per strategy: what grows with a batch, what a batch changed in
//! the candidate set, and the candidate set itself in one-shot order. A
//! one-shot [`run`](crate::pipeline::DedupPipeline::run) builds the same
//! state, reads its candidates once and drops it.

use probdedup_model::intern::KeySymbol;
use probdedup_model::xtuple::XTuple;
use probdedup_reduction::{
    block_multipass_with_table, multipass_snm_with_table, CandidateDelta, CandidatePairs,
    IncrementalBlocks, IncrementalSnm, KeyTable, Keying, WorldSelection,
};

use crate::pipeline::ReductionStrategy;

/// What one [`WarmReduction::ingest_rows`] inserted, for
/// [`WarmReduction::delta`].
pub(crate) enum Inserted {
    /// Nothing kept: full comparison and the regenerating `Worlds`.
    Nothing,
    /// The positions the new SNM entries landed at, ascending.
    Entries(Vec<usize>),
    /// The block key of every insertion.
    Blocks(Vec<KeySymbol>),
}

/// Per-strategy warm reduction state.
///
/// `Full`, `Snm` and `Blocks` emit **deltas**: appended rows only push
/// window entries apart and only grow blocks, so everything a batch adds
/// to the candidate set has a new row and is read off where the batch
/// landed ([`delta`](Self::delta) — rows `start..` against everything
/// before them, a local window re-scan around each inserted entry, the
/// blocks that gained a member), and a pair that left never returns.
/// `Worlds` **regenerates**: which worlds are selected depends on the
/// whole corpus, so a batch can change candidates between old rows, and a
/// pair may leave and re-enter; its caller diffs [`current`](Self::current)
/// against what it holds, and a pair that re-enters is classified again —
/// deterministic, so the result is the same.
pub(crate) enum WarmReduction {
    /// Full comparison: no state, candidates are all pairs.
    Full,
    /// World-independent SNM (sorting alternatives / conflict-resolved):
    /// warm table + rank-sorted resident entry list.
    Snm(IncrementalSnm),
    /// Blocking (per-alternative / conflict-resolved): resident blocks.
    Blocks(IncrementalBlocks),
    /// World-dependent multi-pass SNM/blocking: world selection depends on
    /// the whole corpus, so the worlds are re-selected
    /// ([`top_k_worlds`](probdedup_model::world::top_k_worlds), whose order
    /// and cost are stated there — ≈ 5 ms on 3 400 benchmark rows) and
    /// candidates regenerated from the warm extended table each time
    /// (sort-only — zero renders for seen values).
    Worlds {
        table: KeyTable,
        selection: WorldSelection,
        /// The SNM window of each pass; `None` blocks each pass instead.
        window: Option<usize>,
    },
}

impl WarmReduction {
    /// The fresh warm state of `strategy`: empty pools, no rows.
    pub(crate) fn for_strategy(strategy: &ReductionStrategy) -> Self {
        match strategy {
            ReductionStrategy::Full => Self::Full,
            ReductionStrategy::SortingAlternatives { spec, window } => Self::Snm(
                IncrementalSnm::new(spec.clone(), Keying::PerAlternative, *window),
            ),
            ReductionStrategy::ConflictResolved {
                spec,
                window,
                strategy,
            } => Self::Snm(IncrementalSnm::new(
                spec.clone(),
                Keying::Resolved(*strategy),
                *window,
            )),
            ReductionStrategy::BlockingAlternatives { spec } => {
                Self::Blocks(IncrementalBlocks::new(spec.clone(), Keying::PerAlternative))
            }
            ReductionStrategy::BlockingConflictResolved { spec, strategy } => Self::Blocks(
                IncrementalBlocks::new(spec.clone(), Keying::Resolved(*strategy)),
            ),
            ReductionStrategy::MultipassWorlds {
                spec,
                window,
                selection,
            } => Self::Worlds {
                table: KeyTable::empty(spec.clone()),
                selection: *selection,
                window: Some(*window),
            },
            ReductionStrategy::BlockingMultipass { spec, selection } => Self::Worlds {
                table: KeyTable::empty(spec.clone()),
                selection: *selection,
                window: None,
            },
        }
    }

    /// Grow the warm state with tuples `start..` of the combined corpus,
    /// returning what it inserted. The growth is invisible to
    /// [`current`](Self::current) over the rows before `start`, so it may
    /// run ahead of publishing the rows.
    pub(crate) fn ingest_rows(&mut self, new_tuples: &[XTuple], start: usize) -> Inserted {
        match self {
            Self::Full => Inserted::Nothing,
            Self::Snm(s) => Inserted::Entries(s.ingest(new_tuples, start)),
            Self::Blocks(b) => Inserted::Blocks(b.ingest(new_tuples, start)),
            Self::Worlds { table, .. } => {
                table.extend(new_tuples);
                Inserted::Nothing
            }
        }
    }

    /// What the last [`ingest_rows`](Self::ingest_rows) — rows
    /// `start..end`, `inserted` — changed in the candidate set, read
    /// through `&self`. `None` for `Worlds`, which regenerates (see the
    /// type docs).
    pub(crate) fn delta(
        &self,
        inserted: &Inserted,
        start: usize,
        end: usize,
    ) -> Option<CandidateDelta> {
        match (self, inserted) {
            (Self::Full, _) => Some(CandidateDelta::full(start, end)),
            (Self::Snm(s), Inserted::Entries(fresh)) => Some(s.delta(fresh, start)),
            (Self::Blocks(b), Inserted::Blocks(grown)) => Some(b.delta(grown, start)),
            (Self::Worlds { .. }, _) => None,
            _ => unreachable!("inserted by another strategy"),
        }
    }

    /// Drop row-indexed state, keep the warm pools.
    pub(crate) fn reset_rows(&mut self) {
        match self {
            Self::Full => {}
            Self::Snm(s) => s.reset_rows(),
            Self::Blocks(b) => b.reset_rows(),
            Self::Worlds { table, .. } => table.clear_rows(),
        }
    }

    /// The current full candidate set over `tuples`, a prefix of the
    /// ingested rows — pairs and order identical to the one-shot strategy
    /// over the same tuples. Rows grown past `tuples.len()` are left out.
    pub(crate) fn current(&self, tuples: &[XTuple]) -> CandidatePairs {
        match self {
            Self::Full => CandidatePairs::full(tuples.len()),
            Self::Snm(s) => s.current_pairs(tuples.len()),
            Self::Blocks(b) => b.current_pairs(tuples.len()),
            Self::Worlds {
                table,
                selection,
                window,
            } => match window {
                Some(w) => multipass_snm_with_table(tuples, table, *w, *selection),
                None => block_multipass_with_table(tuples, table, *selection),
            },
        }
    }

    /// Key renders the warm state has performed (0 for full comparison).
    pub(crate) fn render_count(&self) -> u64 {
        match self {
            Self::Full => 0,
            Self::Snm(s) => s.render_count(),
            Self::Blocks(b) => b.render_count(),
            Self::Worlds { table, .. } => table.render_count(),
        }
    }
}
