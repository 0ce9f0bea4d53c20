//! The warm reduction state a [`DedupSession`](crate::session::DedupSession)
//! keeps per strategy: what grows with a batch, what a batch changed in
//! the candidate set, and the candidate set itself in one-shot order. A
//! one-shot [`run`](crate::pipeline::DedupPipeline::run) builds the same
//! state, reads its candidates once and drops it.

use probdedup_model::xtuple::XTuple;
use probdedup_reduction::{
    block_multipass_with_table, multipass_snm_with_table, CandidateDelta, CandidatePairs,
    IncrementalSnm, KeyTable, Keying, WorldSelection,
};

use crate::pipeline::ReductionStrategy;

/// Per-strategy warm reduction state.
///
/// `Full` and `Sorted` emit **deltas**: appended rows only push window
/// entries apart and only grow runs of equal keys, so everything a batch
/// adds to the candidate set has a new row and is read off where the
/// batch landed ([`delta`](Self::delta) — rows `start..` against
/// everything before them, a local window re-scan around each inserted
/// entry, the runs that gained an entry), and a pair that left never
/// returns. `Worlds` **regenerates**: which worlds are selected depends on
/// the whole corpus, so a batch can change candidates between old rows,
/// and a pair may leave and re-enter; its caller diffs
/// [`current`](Self::current) against what it holds, and a pair that
/// re-enters is classified again — deterministic, so the result is the
/// same.
pub(crate) enum WarmReduction {
    /// Full comparison: no state, candidates are all pairs.
    Full,
    /// World-independent SNM and blocking (per-alternative or
    /// conflict-resolved keys): warm table + rank-sorted resident entry
    /// list, emitting windows or runs of equal keys.
    Sorted(IncrementalSnm),
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
            ReductionStrategy::SortingAlternatives { spec, window } => Self::Sorted(
                IncrementalSnm::new(spec.clone(), Keying::PerAlternative, *window),
            ),
            ReductionStrategy::ConflictResolved {
                spec,
                window,
                strategy,
            } => Self::Sorted(IncrementalSnm::new(
                spec.clone(),
                Keying::Resolved(*strategy),
                *window,
            )),
            ReductionStrategy::BlockingAlternatives { spec } => Self::Sorted(
                IncrementalSnm::blocking(spec.clone(), Keying::PerAlternative),
            ),
            ReductionStrategy::BlockingConflictResolved { spec, strategy } => Self::Sorted(
                IncrementalSnm::blocking(spec.clone(), Keying::Resolved(*strategy)),
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
    /// returning the positions its new sorted entries landed at (none for
    /// `Full` and `Worlds`, which keep no entry list). The growth is
    /// invisible to [`current`](Self::current) over the rows before
    /// `start`, so it may run ahead of publishing the rows.
    pub(crate) fn ingest_rows(&mut self, new_tuples: &[XTuple], start: usize) -> Vec<usize> {
        match self {
            Self::Full => Vec::new(),
            Self::Sorted(s) => s.ingest(new_tuples, start),
            Self::Worlds { table, .. } => {
                table.extend(new_tuples);
                Vec::new()
            }
        }
    }

    /// What the last [`ingest_rows`](Self::ingest_rows) — rows
    /// `start..end`, its entries at `fresh` — changed in the candidate
    /// set, read through `&self`. `None` for `Worlds`, which regenerates
    /// (see the type docs).
    pub(crate) fn delta(
        &self,
        fresh: &[usize],
        start: usize,
        end: usize,
    ) -> Option<CandidateDelta> {
        match self {
            Self::Full => Some(CandidateDelta::full(start, end)),
            Self::Sorted(s) => Some(s.delta(fresh, start)),
            Self::Worlds { .. } => None,
        }
    }

    /// Drop row-indexed state, keep the warm pools.
    pub(crate) fn reset_rows(&mut self) {
        match self {
            Self::Full => {}
            Self::Sorted(s) => s.reset_rows(),
            Self::Worlds { table, .. } => table.clear_rows(),
        }
    }

    /// The current full candidate set over `tuples`, a prefix of the
    /// ingested rows — pairs and order identical to the one-shot strategy
    /// over the same tuples. Rows grown past `tuples.len()` are left out.
    pub(crate) fn current(&self, tuples: &[XTuple]) -> CandidatePairs {
        match self {
            Self::Full => CandidatePairs::full(tuples.len()),
            Self::Sorted(s) => s.current_pairs(tuples.len()),
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
            Self::Sorted(s) => s.render_count(),
            Self::Worlds { table, .. } => table.render_count(),
        }
    }
}
