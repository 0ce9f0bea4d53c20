//! The warm reduction state a [`DedupSession`](crate::session::DedupSession)
//! keeps per strategy: what grows with a batch, what a batch changed in
//! the candidate set, and the candidate set itself in one-shot order. A
//! one-shot [`run`](crate::pipeline::DedupPipeline::run) builds the same
//! state, reads its candidates once and drops it.

use probdedup_model::xtuple::XTuple;
use probdedup_reduction::{
    block_multipass_with_table, multipass_snm_with_table, CandidateDelta, CandidatePairs,
    IncrementalBlocks, IncrementalSnm, KeyTable, Keying, WorldSelection,
};

use crate::pipeline::ReductionStrategy;

/// Per-strategy warm reduction state.
///
/// `Full`, `Snm` and `Blocks` emit **deltas**: appended rows only push
/// window entries apart and only grow blocks, so everything a batch adds
/// to the candidate set has a new row and is read off where the batch
/// landed ([`ingest_delta`](Self::ingest_delta) — rows `start..` against
/// everything before them, a local window re-scan around each inserted
/// entry, the blocks that gained a member), and a pair that left never
/// returns. `Worlds` **regenerates**: which worlds are selected depends
/// on the whole corpus, so a batch can change candidates between old
/// rows, and a pair may leave and re-enter; it is then classified again —
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

    /// Grow the warm state with tuples `start..` of the combined corpus.
    pub(crate) fn ingest_rows(&mut self, new_tuples: &[XTuple], start: usize) {
        match self {
            Self::Full => {}
            Self::Snm(s) => s.ingest(new_tuples, start),
            Self::Blocks(b) => b.ingest(new_tuples, start),
            Self::Worlds { table, .. } => table.extend(new_tuples),
        }
    }

    /// [`ingest_rows`](Self::ingest_rows) for the strategies that emit
    /// deltas, returning what the batch changed in the candidate set. The
    /// growth is invisible to [`current`](Self::current) over the rows
    /// before `start`, so it may run ahead of publishing the rows.
    ///
    /// `None`, and nothing grown, for `Worlds`, which regenerates (see the
    /// type docs): its candidates depend on every row, so its caller grows
    /// it with `ingest_rows` when it publishes the rows, then falls back
    /// to `current`.
    pub(crate) fn ingest_delta(
        &mut self,
        new_tuples: &[XTuple],
        start: usize,
    ) -> Option<CandidateDelta> {
        match self {
            Self::Full => Some(CandidateDelta::full(start, start + new_tuples.len())),
            Self::Snm(s) => Some(s.ingest_delta(new_tuples, start)),
            Self::Blocks(b) => Some(b.ingest_delta(new_tuples, start)),
            Self::Worlds { .. } => None,
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

    /// The current full candidate set over `tuples`, the published rows —
    /// pairs and order identical to the one-shot strategy over the same
    /// tuples. Rows grown past `tuples.len()` are left out.
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
