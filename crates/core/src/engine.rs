//! The matching engine: the one place that knows how a candidate pair
//! `(i, j)` becomes a [`PairDecision`].
//!
//! The paper has one matching step (Section IV-A: Eq. 5 per attribute →
//! the Fig. 6 comparison matrix → the decision), and so does this crate.
//! Both drivers — the one-shot [`DedupPipeline`](crate::pipeline::DedupPipeline)
//! and the persistent [`DedupSession`](crate::session::DedupSession) — own
//! a [`MatchingEngine`] and call [`MatchingEngine::classify`]; the drivers
//! keep only what is theirs (the one-shot run its candidate list, the
//! session its decision memo). The engine always works on **interned**
//! tuples: values are interned once into a [`ValuePool`], and Eq. 5 runs
//! over dense symbols with upper-bound pruning and the per-symbol prepared
//! sidecars of a long-lived [`InternedComparators`]. Every kernel value is
//! computed where it is needed and memoized nowhere, so a decision is a
//! pure function of the pair. The paper-literal path
//! ([`compare_xtuples`](probdedup_matching::matrix::compare_xtuples)
//! straight off the [`XTuple`]s) is the reference the engine is *tested
//! against* (`crate::test_support`), not something a driver can select.
//!
//! The engine runs in one of two configurations, chosen at build time by
//! which [`Decider`] the builder produced:
//!
//! * **exact** ([`Decider::Model`]) — the full comparison matrix is handed
//!   to an [`XTupleDecisionModel`]; `similarity` is the derived degree.
//! * **classify-only** ([`Decider::ClassifyOnly`]) — thresholds decompose
//!   into running attribute budgets ([`AttributeBudgets`]), every Eq. 5
//!   evaluation runs against a cut interval, and evaluation stops the
//!   moment the class is certified. No matrix is materialized;
//!   `similarity` is the representative that walk certifies.
//!
//! The equality contract between configurations and across drivers is
//! stated once, in ARCHITECTURE.md ("The engine").

use std::sync::Arc;

use probdedup_decision::budget::{classify_comparison_bounded, AttributeBudgets, BoundedTier};
use probdedup_decision::xmodel::XTupleDecisionModel;
use probdedup_matching::interned::{
    compare_xtuples_interned, intern_tuples_into, interned_pvalue_similarity_bounded,
    AttributeUsage, InternedComparators, InternedXTuple,
};
use probdedup_matching::vector::AttributeComparators;
use probdedup_model::condition::normalized_alternative_probs;
use probdedup_model::intern::ValuePool;
use probdedup_model::xtuple::XTuple;

use crate::exec::par_map_index;
use crate::pipeline::{BoundedClassifyConfig, MatchingStats, PairDecision, PipelineConfig};

/// What turns a compared pair into a class: the builder produces exactly
/// one (see [`DedupPipelineBuilder::build`](crate::pipeline::DedupPipelineBuilder::build)).
#[derive(Clone)]
pub(crate) enum Decider {
    /// Exact matching: comparison matrix + decision model.
    Model(Arc<dyn XTupleDecisionModel>),
    /// Classify-only (bounded) matching under the linear model.
    ClassifyOnly(BoundedClassifyConfig),
}

impl Decider {
    /// Whether this is the classify-only configuration (the snapshot's
    /// CONFIG section records it).
    pub(crate) fn is_classify_only(&self) -> bool {
        matches!(self, Self::ClassifyOnly(_))
    }
}

/// Warm matching state plus the decision step: the value pool, interned
/// tuple mirrors, the long-lived comparators (kernels + sidecars) and, for
/// classify-only, the per-tuple conditioned alternative weights.
pub(crate) struct MatchingEngine {
    decider: Decider,
    comparators: AttributeComparators,
    pool: ValuePool,
    usage: AttributeUsage,
    /// Symbol-level mirror of the resident tuples (row-indexed).
    interned: Vec<InternedXTuple>,
    /// Built over the pool at the first [`ingest`](Self::ingest), grown
    /// append-only afterwards; `None` means no row was ever ingested.
    cmps: Option<InternedComparators>,
    /// Conditioned alternative weights per row (classify-only; the exact
    /// path re-derives them per pair inside the model).
    weights: Vec<Vec<f64>>,
}

impl MatchingEngine {
    pub(crate) fn new(config: &PipelineConfig) -> Self {
        Self::with_pool(config, ValuePool::new())
    }

    /// An engine over a snapshot-restored pool: re-ingesting the resident
    /// tuples afterwards is pure warm work (every symbol lookup hits).
    pub(crate) fn with_pool(config: &PipelineConfig, pool: ValuePool) -> Self {
        Self {
            decider: config.decider.clone(),
            comparators: config.comparators.clone(),
            pool,
            usage: AttributeUsage::default(),
            interned: Vec::new(),
            cmps: None,
            weights: Vec::new(),
        }
    }

    /// Grow with newly appended (already prepared) tuples: intern only
    /// them, extend the sidecars over any new symbols, and cache their
    /// conditioned alternative weights (classify-only).
    pub(crate) fn ingest(&mut self, new_tuples: &[XTuple]) {
        self.interned.extend(intern_tuples_into(
            &mut self.pool,
            &mut self.usage,
            new_tuples,
        ));
        match &mut self.cmps {
            None => {
                self.cmps = Some(InternedComparators::with_usage(
                    &self.pool,
                    &self.comparators,
                    &self.usage,
                ))
            }
            Some(cmps) => cmps.sync_pool(&self.pool, Some(&self.usage)),
        }
        if self.decider.is_classify_only() {
            self.weights
                .extend(new_tuples.iter().map(normalized_alternative_probs));
        }
    }

    /// Drop row-indexed state (interned mirrors, weights); the pool, the
    /// usage masks and the comparators' sidecars stay warm.
    pub(crate) fn reset_rows(&mut self) {
        self.interned.clear();
        self.weights.clear();
    }

    /// Classify `pairs` on the work-stealing pair executor. Row indices
    /// address the rows this engine ingested, viewed as two slices: row
    /// `i` is `resident[i]` below `resident.len()` and `grown[i −
    /// resident.len()]` from there (a session classifies a batch it has
    /// ingested here before appending it to its relation; every other
    /// caller passes no `grown` rows). Returns the decisions in `pairs`
    /// order plus this call's bounded-tier counts `[early match, early
    /// non-match, early possible, exhausted]` — all zero in the exact
    /// configuration.
    ///
    /// `&self`: classifying writes nothing shared, so concurrent readers
    /// of one warm session share this safely.
    pub(crate) fn classify(
        &self,
        resident: &[XTuple],
        grown: &[XTuple],
        pairs: &[(usize, usize)],
        threads: usize,
    ) -> (Vec<PairDecision>, [u64; 4]) {
        let Some(cmps) = &self.cmps else {
            // Nothing was ever ingested, so there are no rows to pair.
            return (Vec::new(), [0; 4]);
        };
        let itup = self.interned.as_slice();
        let threads = threads.clamp(1, pairs.len().max(1));
        match &self.decider {
            Decider::Model(model) => {
                let model = model.as_ref();
                let row = |i: usize| {
                    resident
                        .get(i)
                        .unwrap_or_else(|| &grown[i - resident.len()])
                };
                let decisions = par_map_index(threads, pairs.len(), |idx| {
                    let (i, j) = pairs[idx];
                    let matrix = compare_xtuples_interned(&itup[i], &itup[j], cmps);
                    let d = model.decide(row(i), row(j), &matrix);
                    PairDecision {
                        pair: (i, j),
                        similarity: d.similarity,
                        class: d.class,
                    }
                });
                (decisions, [0; 4])
            }
            Decider::ClassifyOnly(config) => {
                let budgets = AttributeBudgets::new(&config.phi, config.thresholds);
                let weights = self.weights.as_slice();
                let outcomes = par_map_index(threads, pairs.len(), |idx| {
                    let (i, j) = pairs[idx];
                    let (t1, t2) = (&itup[i], &itup[j]);
                    let d = classify_comparison_bounded(
                        &weights[i],
                        &weights[j],
                        &budgets,
                        |ai, aj, attr, lo, hi| {
                            interned_pvalue_similarity_bounded(
                                t1.alternatives()[ai].value(attr),
                                t2.alternatives()[aj].value(attr),
                                attr,
                                cmps,
                                lo,
                                hi,
                            )
                        },
                    );
                    let decision = PairDecision {
                        pair: (i, j),
                        similarity: d.similarity,
                        class: d.class,
                    };
                    (decision, d.tier)
                });
                let mut tiers = [0u64; 4];
                let decisions = outcomes
                    .into_iter()
                    .map(|(decision, tier)| {
                        tiers[match tier {
                            BoundedTier::EarlyMatch => 0,
                            BoundedTier::EarlyNonMatch => 1,
                            BoundedTier::EarlyPossible => 2,
                            BoundedTier::Exhausted => 3,
                        }] += 1;
                        decision
                    })
                    .collect();
                (decisions, tiers)
            }
        }
    }

    /// The matching-stage counters: interned values from the comparators,
    /// plus the caller's accumulated bounded-tier counts.
    pub(crate) fn stats(&self, tiers: [u64; 4]) -> MatchingStats {
        MatchingStats {
            interned_values: self
                .cmps
                .as_ref()
                .map_or(0, InternedComparators::interned_values),
            pairs_early_match: tiers[0],
            pairs_early_nonmatch: tiers[1],
            pairs_early_possible: tiers[2],
            pairs_exhausted: tiers[3],
            ..MatchingStats::default()
        }
    }

    /// The matching value pool (the snapshot persists it).
    pub(crate) fn pool(&self) -> &ValuePool {
        &self.pool
    }
}
