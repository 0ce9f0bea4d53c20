//! The warm reduction state a [`DedupSession`](crate::session::DedupSession)
//! keeps per strategy: what grows with a batch, what a batch changed in
//! the candidate set, and the candidate set itself in one-shot order. A
//! one-shot [`run`](crate::pipeline::DedupPipeline::run) builds the same
//! state, reads its candidates once and drops it.

use probdedup_model::intern::{KeyPool, ValuePool};
use probdedup_model::snapshot::SnapshotError;
use probdedup_model::xtuple::XTuple;
use probdedup_reduction::{
    block_multipass_with_table, cluster_blocking, multipass_snm_with_table, BlockKeying,
    CandidateDelta, CandidatePairs, IncrementalBlocks, IncrementalRankedSnm, IncrementalSnm,
    KeySpec, KeyTable, SnmKeying,
};

use crate::pipeline::ReductionStrategy;

/// Per-strategy warm reduction state.
///
/// `Full`, `Snm`, `Ranked` and `Blocks` emit **deltas**: appended rows
/// only push window entries apart and only grow blocks, so everything a
/// batch adds to the candidate set has a new row and is read off where
/// the batch landed ([`ingest_delta`](Self::ingest_delta) — rows `start..`
/// against everything before them, a local window re-scan around each
/// inserted entry, the blocks that gained a member), and a pair that left
/// never returns. `Worlds` and `Stateless` **regenerate**: which worlds
/// are selected and where the centroids fall depends on the whole corpus,
/// so a batch can change candidates between old rows, and a pair may
/// leave and re-enter; it is then classified again — deterministic, so
/// the result is the same.
pub(crate) enum WarmReduction {
    /// Full comparison: no state, candidates are all pairs.
    Full,
    /// World-independent SNM (sorting alternatives / conflict-resolved):
    /// warm table + rank-sorted resident entry list.
    Snm(IncrementalSnm),
    /// Probabilistic-ranking SNM: resident ranked order.
    Ranked(IncrementalRankedSnm),
    /// Blocking (per-alternative / conflict-resolved): resident blocks.
    Blocks(IncrementalBlocks),
    /// World-dependent multi-pass SNM/blocking: world selection depends on
    /// the whole corpus, so the worlds are re-selected
    /// ([`top_k_worlds`](probdedup_model::world::top_k_worlds), whose order
    /// and cost are stated there — ≈ 5 ms on 3 400 benchmark rows) and
    /// candidates regenerated from the warm extended table each time
    /// (sort-only — zero renders for seen values).
    Worlds(KeyTable),
    /// Cluster blocking: centroids depend on the whole corpus; fully
    /// regenerated per change.
    Stateless,
}

impl WarmReduction {
    /// The warm state of `strategy`: around snapshot-restored key `pools`
    /// when given, around fresh ones otherwise.
    pub(crate) fn for_strategy(
        strategy: &ReductionStrategy,
        pools: Option<(ValuePool, KeyPool)>,
    ) -> Self {
        let table = |spec: &KeySpec| match pools {
            Some((values, keys)) => KeyTable::from_pools(spec.clone(), values, keys),
            None => KeyTable::empty(spec.clone()),
        };
        match strategy {
            ReductionStrategy::Full => Self::Full,
            ReductionStrategy::SortingAlternatives { spec, window } => Self::Snm(
                IncrementalSnm::with_table(table(spec), SnmKeying::PerAlternative, *window),
            ),
            ReductionStrategy::ConflictResolved {
                spec,
                window,
                strategy,
            } => Self::Snm(IncrementalSnm::with_table(
                table(spec),
                SnmKeying::Resolved(*strategy),
                *window,
            )),
            ReductionStrategy::RankedKeys {
                spec,
                window,
                ranking,
            } => Self::Ranked(IncrementalRankedSnm::new(spec.clone(), *ranking, *window)),
            ReductionStrategy::BlockingAlternatives { spec } => Self::Blocks(
                IncrementalBlocks::with_table(table(spec), BlockKeying::PerAlternative),
            ),
            ReductionStrategy::BlockingConflictResolved { spec, strategy } => Self::Blocks(
                IncrementalBlocks::with_table(table(spec), BlockKeying::Resolved(*strategy)),
            ),
            ReductionStrategy::MultipassWorlds { spec, .. }
            | ReductionStrategy::BlockingMultipass { spec, .. } => Self::Worlds(table(spec)),
            ReductionStrategy::ClusterBlocking { .. } => Self::Stateless,
        }
    }

    /// Grow the warm state with tuples `start..` of the combined corpus.
    pub(crate) fn ingest_rows(&mut self, new_tuples: &[XTuple], start: usize) {
        match self {
            Self::Full | Self::Stateless => {}
            Self::Snm(s) => s.ingest(new_tuples, start),
            Self::Ranked(r) => r.ingest(new_tuples, start),
            Self::Blocks(b) => b.ingest(new_tuples, start),
            Self::Worlds(table) => table.extend(new_tuples),
        }
    }

    /// [`ingest_rows`](Self::ingest_rows) for the strategies that emit
    /// deltas, returning what the batch changed in the candidate set. The
    /// growth is invisible to [`current`](Self::current) over the rows
    /// before `start`, so it may run ahead of publishing the rows.
    ///
    /// `None`, and nothing grown, for the strategies that regenerate (see
    /// the type docs): their candidates depend on every row, so their
    /// caller grows them with `ingest_rows` when it publishes the rows,
    /// then falls back to `current`.
    pub(crate) fn ingest_delta(
        &mut self,
        new_tuples: &[XTuple],
        start: usize,
    ) -> Option<CandidateDelta> {
        match self {
            Self::Full => Some(CandidateDelta::full(start, start + new_tuples.len())),
            Self::Snm(s) => Some(s.ingest_delta(new_tuples, start)),
            Self::Ranked(r) => Some(r.ingest_delta(new_tuples, start)),
            Self::Blocks(b) => Some(b.ingest_delta(new_tuples, start)),
            Self::Worlds(_) | Self::Stateless => None,
        }
    }

    /// Drop row-indexed state, keep the warm pools.
    pub(crate) fn reset_rows(&mut self) {
        match self {
            Self::Full | Self::Stateless => {}
            Self::Snm(s) => s.reset_rows(),
            Self::Ranked(r) => r.reset_rows(),
            Self::Blocks(b) => b.reset_rows(),
            Self::Worlds(table) => table.clear_rows(),
        }
    }

    /// The current full candidate set over `tuples`, the published rows —
    /// pairs and order identical to the one-shot strategy over the same
    /// tuples. Rows grown past `tuples.len()` are left out.
    pub(crate) fn current(
        &self,
        tuples: &[XTuple],
        strategy: &ReductionStrategy,
    ) -> CandidatePairs {
        match self {
            Self::Full => CandidatePairs::full(tuples.len()),
            Self::Snm(s) => s.current_pairs(tuples.len()),
            Self::Ranked(r) => r.current_pairs(tuples.len()),
            Self::Blocks(b) => b.current_pairs(tuples.len()),
            Self::Worlds(table) => match strategy {
                ReductionStrategy::MultipassWorlds {
                    window, selection, ..
                } => multipass_snm_with_table(tuples, table, *window, *selection),
                ReductionStrategy::BlockingMultipass { selection, .. } => {
                    block_multipass_with_table(tuples, table, *selection)
                }
                other => unreachable!("Worlds state for strategy {}", other.name()),
            },
            Self::Stateless => match strategy {
                ReductionStrategy::ClusterBlocking { spec, config } => {
                    cluster_blocking(tuples, spec, config).0
                }
                other => unreachable!("Stateless state for strategy {}", other.name()),
            },
        }
    }

    /// The warm key table, if this strategy keeps one (the snapshot
    /// persists its pools; `Full`, ranked SNM and cluster blocking carry
    /// no poolable state).
    pub(crate) fn table(&self) -> Option<&KeyTable> {
        match self {
            Self::Full | Self::Ranked(_) | Self::Stateless => None,
            Self::Snm(s) => Some(s.table()),
            Self::Blocks(b) => Some(b.table()),
            Self::Worlds(table) => Some(table),
        }
    }

    /// Rebuild the warm state of `strategy` around snapshot-restored key
    /// pools. `pools` must be present exactly for the table-keeping
    /// strategies ([`table`](Self::table)); a mismatch means the snapshot
    /// was written under a different configuration than the one it is
    /// being opened with.
    pub(crate) fn restore(
        strategy: &ReductionStrategy,
        pools: Option<(ValuePool, KeyPool)>,
    ) -> Result<Self, SnapshotError> {
        let expects_table = !matches!(
            strategy,
            ReductionStrategy::Full
                | ReductionStrategy::RankedKeys { .. }
                | ReductionStrategy::ClusterBlocking { .. }
        );
        if expects_table != pools.is_some() {
            return Err(SnapshotError::Malformed {
                context: "reduction table presence",
            });
        }
        Ok(Self::for_strategy(strategy, pools))
    }

    /// Key renders the warm state has performed (0 for stateless modes).
    pub(crate) fn render_count(&self) -> u64 {
        match self {
            Self::Full | Self::Ranked(_) | Self::Stateless => 0,
            Self::Snm(s) => s.render_count(),
            Self::Blocks(b) => b.render_count(),
            Self::Worlds(table) => table.render_count(),
        }
    }
}
