//! The [`DedupPipeline`]: preparation → reduction → matching → decision →
//! clustering, over one or more probabilistic source relations.
//!
//! This is the **one-shot** front door — stateless per invocation, as the
//! paper describes the process. `run` drives the session's reduction state
//! and matching engine once and keeps only what its result needs: no
//! decision memo, no cached candidate order, no relation clone. Build a
//! session instead ([`DedupPipelineBuilder::build_session`]) to keep
//! interner pools, key tables and prepared sidecars warm across runs and
//! to **ingest** new batches incrementally.
//!
//! The matching stage is the quadratic hot path. Every driver runs it
//! through the one matching engine (`engine.rs`) — interned symbols,
//! prepared sidecars, upper-bound pruning — in one of two
//! configurations: **exact** ([`model`](DedupPipelineBuilder::model):
//! full Fig. 6 comparison matrices handed to a decision model) or
//! **classify-only** ([`classify_only`](DedupPipelineBuilder::classify_only):
//! thresholds decompose into running attribute budgets and a pair is
//! evaluated only until its class is certified, so
//! [`PairDecision::similarity`] holds a certified representative rather
//! than the exact degree). Candidate pairs execute on the work-stealing
//! [`par_map_index`](crate::exec::par_map_index) pair executor and are
//! reassembled in candidate order; the equality contract across thread
//! counts, drivers, ingest splits and restarts is stated once in
//! ARCHITECTURE.md ("The engine").
//!
//! The reduction stage runs on **interned keys** throughout: every
//! [`ReductionStrategy`] variant builds a
//! [`KeyTable`](probdedup_reduction::KeyTable) once (all key-prefix
//! rendering happens there), then sorts
//! [`KeySymbol`](probdedup_model::intern::KeySymbol) entries by
//! precomputed lexicographic rank, windowed for SNM and read by runs of
//! equal keys for blocking — multi-pass SNM and blocking are sort-only
//! from the second pass on.

use std::sync::Arc;

use probdedup_decision::combine::WeightedSum;
use probdedup_decision::derive_sim::ExpectedSimilarity;
use probdedup_decision::threshold::{MatchClass, Thresholds};
use probdedup_decision::xmodel::{SimilarityBasedModel, XTupleDecisionModel};
use probdedup_matching::value_cmp::ValueComparator;
use probdedup_matching::vector::AttributeComparators;
use probdedup_model::error::ModelError;
use probdedup_model::ids::{SourceId, TupleHandle};
use probdedup_model::relation::XRelation;
use probdedup_reduction::{ConflictResolution, KeyPart, KeySpec, WorldSelection};
use probdedup_textsim::JaroWinkler;

use crate::cluster::UnionFind;
use crate::engine::{Decider, MatchingEngine};
use crate::prepare::Preparation;
use crate::warm::WarmReduction;

/// Which search-space reduction runs before matching.
#[derive(Clone)]
pub enum ReductionStrategy {
    /// All `n·(n−1)/2` pairs (the baseline the paper calls "mostly too
    /// inefficient" — correct but quadratic).
    Full,
    /// Multi-pass SNM over possible worlds (Section V-A.1).
    MultipassWorlds {
        /// Sorting key.
        spec: KeySpec,
        /// SNM window size.
        window: usize,
        /// World selection policy.
        selection: WorldSelection,
    },
    /// SNM over conflict-resolved certain keys (Section V-A.2).
    ConflictResolved {
        /// Sorting key.
        spec: KeySpec,
        /// SNM window size.
        window: usize,
        /// Conflict-resolution strategy.
        strategy: ConflictResolution,
    },
    /// Sorting alternatives (Section V-A.3).
    SortingAlternatives {
        /// Sorting key.
        spec: KeySpec,
        /// SNM window size.
        window: usize,
    },
    /// Blocking with per-alternative keys (Section V-B, Fig. 14).
    BlockingAlternatives {
        /// Blocking key.
        spec: KeySpec,
    },
    /// Blocking with conflict-resolved keys (Section V-B).
    BlockingConflictResolved {
        /// Blocking key.
        spec: KeySpec,
        /// Conflict-resolution strategy.
        strategy: ConflictResolution,
    },
    /// Multi-pass blocking over selected worlds (Section V-B).
    BlockingMultipass {
        /// Blocking key.
        spec: KeySpec,
        /// World selection policy.
        selection: WorldSelection,
    },
}

impl ReductionStrategy {
    /// The key the strategy sorts or blocks by (`None` for full
    /// comparison).
    pub(crate) fn key_spec(&self) -> Option<&KeySpec> {
        match self {
            Self::Full => None,
            Self::MultipassWorlds { spec, .. }
            | Self::ConflictResolved { spec, .. }
            | Self::SortingAlternatives { spec, .. }
            | Self::BlockingAlternatives { spec }
            | Self::BlockingConflictResolved { spec, .. }
            | Self::BlockingMultipass { spec, .. } => Some(spec),
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::MultipassWorlds { .. } => "snm-multipass",
            Self::ConflictResolved { .. } => "snm-conflict-resolved",
            Self::SortingAlternatives { .. } => "snm-alternatives",
            Self::BlockingAlternatives { .. } => "blocking-alternatives",
            Self::BlockingConflictResolved { .. } => "blocking-conflict-resolved",
            Self::BlockingMultipass { .. } => "blocking-multipass",
        }
    }
}

/// The decision recorded for one compared candidate pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairDecision {
    /// Row indices into the combined relation, `i < j`.
    pub pair: (usize, usize),
    /// The derived similarity degree.
    pub similarity: f64,
    /// The matching value η.
    pub class: MatchClass,
}

impl std::fmt::Display for PairDecision {
    /// `(i, j)  sim 0.842  → match` — combined-relation row indices (map
    /// them back to sources with [`DedupResult::handle`] when needed).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({}, {})  sim {:.3}  → {}",
            self.pair.0, self.pair.1, self.similarity, self.class
        )
    }
}

/// Counters describing the matching stage of one run.
///
/// The `pairs_*` tier counters are populated only by the classify-only
/// (bounded) configuration: they count the classified pairs by which
/// bound settled them. For a one-shot run they partition the candidate
/// pairs; a session's count every pair it has classified (see
/// [`DedupSession::stats`](crate::session::DedupSession::stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchingStats {
    /// Always 0: the engine memoizes no kernel result. Kept, with
    /// `cache_misses`, `kernel_bound_certs` and [`hit_rate`](Self::hit_rate),
    /// because the frozen `benchmark/` package still reads them.
    pub cache_hits: u64,
    /// Always 0 (see `cache_hits`).
    pub cache_misses: u64,
    /// Distinct values interned into the run's `ValuePool`.
    pub interned_values: usize,
    /// Pairs certified `≥ T_μ` before evaluation finished (bounded mode).
    pub pairs_early_match: u64,
    /// Pairs certified `< T_λ` before evaluation finished (bounded mode).
    pub pairs_early_nonmatch: u64,
    /// Pairs pinned inside the possible band early (bounded mode).
    pub pairs_early_possible: u64,
    /// Pairs whose bounded evaluation ran to completion (bounded mode).
    pub pairs_exhausted: u64,
    /// Always 0 (see `cache_hits`).
    pub kernel_bound_certs: u64,
}

impl MatchingStats {
    /// Always 0 (see `cache_hits`).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of pairs disposed before exhaustive evaluation, per tier:
    /// `(early_match, early_nonmatch, early_possible)` over all counted
    /// pairs. All zero outside bounded runs.
    pub fn disposal_fractions(&self) -> (f64, f64, f64) {
        let total = self.pairs_early_match
            + self.pairs_early_nonmatch
            + self.pairs_early_possible
            + self.pairs_exhausted;
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (
            self.pairs_early_match as f64 / t,
            self.pairs_early_nonmatch as f64 / t,
            self.pairs_early_possible as f64 / t,
        )
    }
}

/// Result of a pipeline run over the **combined** relation (all sources
/// concatenated; [`DedupResult::handle`] maps rows back to sources).
#[derive(Debug, Clone)]
pub struct DedupResult {
    /// The prepared combined relation the decisions refer to.
    pub relation: XRelation,
    /// Row offset where each source starts in the combined relation.
    pub source_offsets: Vec<usize>,
    /// Number of candidate pairs compared.
    pub candidates: usize,
    /// Every compared pair with its decision, in candidate order.
    pub decisions: Vec<PairDecision>,
    /// Duplicate clusters (transitive closure of matches), size ≥ 2.
    pub clusters: Vec<Vec<usize>>,
    /// Matching-stage counters (interning, bounded tiers).
    pub stats: MatchingStats,
}

impl DedupResult {
    /// Pairs classified as matches.
    pub fn matches(&self) -> impl Iterator<Item = &PairDecision> {
        self.decisions
            .iter()
            .filter(|d| d.class == MatchClass::Match)
    }

    /// Pairs classified as possible matches (clerical review).
    pub fn possible_matches(&self) -> impl Iterator<Item = &PairDecision> {
        self.decisions
            .iter()
            .filter(|d| d.class == MatchClass::Possible)
    }

    /// Canonical match-pair set (for the eval crate).
    pub fn match_pair_set(&self) -> std::collections::HashSet<(usize, usize)> {
        self.matches().map(|d| d.pair).collect()
    }

    /// The counts and clusters of this result (see [`Partition`]).
    pub fn partition(&self) -> Partition {
        Partition {
            rows: self.relation.len(),
            candidates: self.candidates,
            matches: self.matches().count(),
            possible: self.possible_matches().count(),
            clusters: self.clusters.clone(),
        }
    }

    /// One-line report of the run (see [`Partition::summary`]).
    pub fn summary(&self) -> String {
        self.partition().summary()
    }

    /// The empty result (what running over zero sources yields).
    pub(crate) fn empty() -> Self {
        DedupResult {
            relation: XRelation::new(probdedup_model::schema::Schema::new(Vec::<String>::new())),
            source_offsets: vec![],
            candidates: 0,
            decisions: vec![],
            clusters: vec![],
            stats: MatchingStats::default(),
        }
    }

    /// Map a combined row index back to its source handle.
    pub fn handle(&self, row: usize) -> TupleHandle {
        let source = self
            .source_offsets
            .partition_point(|&off| off <= row)
            .saturating_sub(1);
        TupleHandle {
            source: SourceId(source as u32),
            row: (row - self.source_offsets[source]) as u32,
        }
    }
}

/// What a dedup outcome says about the corpus, without the decisions
/// themselves: row and candidate counts, the match and possible-match
/// counts, and the duplicate clusters. [`DedupResult::partition`] reads it
/// off a result; [`DedupSession::partition`](crate::session::DedupSession::partition)
/// computes it from the decision memo without building one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Partition {
    /// Rows of the combined relation.
    pub rows: usize,
    /// Candidate pairs compared.
    pub candidates: usize,
    /// Pairs classified as matches.
    pub matches: usize,
    /// Pairs classified as possible matches.
    pub possible: usize,
    /// Duplicate clusters (transitive closure of matches), size ≥ 2.
    pub clusters: Vec<Vec<usize>>,
}

impl Partition {
    /// Counts and closure of `decisions` — one per candidate pair, in any
    /// order — over `rows` rows, in one pass: the reference the decision
    /// memo's column read is tested against.
    #[cfg(test)]
    pub(crate) fn of<'a>(
        rows: usize,
        decisions: impl IntoIterator<Item = &'a PairDecision>,
    ) -> Self {
        let mut p = Partition {
            rows,
            ..Partition::default()
        };
        let clusters = match_clusters(rows, decisions.into_iter().inspect(|d| p.count(d.class)));
        p.clusters = clusters;
        p
    }

    /// Count one decision of `class`.
    pub(crate) fn count(&mut self, class: MatchClass) {
        self.candidates += 1;
        match class {
            MatchClass::Match => self.matches += 1,
            MatchClass::Possible => self.possible += 1,
            MatchClass::NonMatch => {}
        }
    }

    /// One-line report, e.g. `4 rows, 6 candidate pairs compared: 1
    /// match, 1 possible, 4 non-matches, 1 duplicate cluster` — the shared
    /// formatting the CLI, the examples and the daemon print instead of
    /// ad-hoc strings.
    pub fn summary(&self) -> String {
        let non = self.candidates - self.matches - self.possible;
        let plural = |n: usize, suffix: &'static str| if n == 1 { "" } else { suffix };
        format!(
            "{} rows, {} candidate pairs compared: {} match{}, {} possible, {} non-match{}, {} duplicate cluster{}",
            self.rows,
            self.candidates,
            self.matches,
            plural(self.matches, "es"),
            self.possible,
            non,
            plural(non, "es"),
            self.clusters.len(),
            plural(self.clusters.len(), "s"),
        )
    }
}

/// Duplicate clusters of size ≥ 2: the transitive closure of the
/// [`MatchClass::Match`] decisions over `rows` rows — the last step of
/// every driver. The decisions may come in any order: each cluster is
/// sorted and clusters are ordered by their smallest member.
pub(crate) fn match_clusters<'a>(
    rows: usize,
    decisions: impl IntoIterator<Item = &'a PairDecision>,
) -> Vec<Vec<usize>> {
    let mut uf = UnionFind::new(rows);
    for d in decisions {
        if d.class == MatchClass::Match {
            uf.union(d.pair.0, d.pair.1);
        }
    }
    uf.clusters(2)
}

/// Configuration of the classify-only (bounded) matching mode: the linear
/// similarity-based model — weighted-sum φ, Eq. 6 expectation, thresholds —
/// in the decomposed form the bounded path needs.
#[derive(Clone)]
pub struct BoundedClassifyConfig {
    /// Attribute combination weights (the φ of the exact model).
    pub phi: WeightedSum,
    /// The classification thresholds `(T_λ, T_μ)`.
    pub thresholds: Thresholds,
}

/// The full configuration of a pipeline or session — everything the
/// builder collects, shared between the one-shot front door
/// ([`DedupPipeline`]) and the persistent one
/// ([`DedupSession`](crate::session::DedupSession)).
#[derive(Clone)]
pub(crate) struct PipelineConfig {
    pub(crate) preparation: Preparation,
    pub(crate) reduction: ReductionStrategy,
    pub(crate) comparators: AttributeComparators,
    pub(crate) decider: Decider,
    pub(crate) threads: usize,
}

impl PipelineConfig {
    /// The first step of every driver: concatenate `sources` (schemas must
    /// be structurally compatible) and apply the preparation plan. Returns
    /// the combined relation with the row offset of each source, or `None`
    /// for no sources at all.
    pub(crate) fn combine(
        &self,
        sources: &[&XRelation],
    ) -> Result<Option<(XRelation, Vec<usize>)>, ModelError> {
        let Some(first) = sources.first() else {
            return Ok(None);
        };
        let mut combined = XRelation::new(first.schema().clone());
        let mut offsets = Vec::with_capacity(sources.len());
        for src in sources {
            if !combined.schema().compatible_with(src.schema()) {
                return Err(ModelError::IncompatibleSchemas);
            }
            offsets.push(combined.len());
            for t in src.xtuples() {
                combined.push(t.clone());
            }
        }
        self.preparation.apply(&mut combined);
        Ok(Some((combined, offsets)))
    }
}

/// The configured **one-shot** pipeline. Build with
/// [`DedupPipeline::builder`].
///
/// Every [`run`](DedupPipeline::run) is stateless, exactly the paper's
/// batch process. Use [`DedupPipelineBuilder::build_session`] (or
/// [`DedupPipeline::session`]) when state should persist: warm interner
/// pools, key tables and prepared sidecars across runs, and
/// incremental ingest of new batches against the resident corpus.
#[derive(Clone)]
pub struct DedupPipeline {
    config: PipelineConfig,
}

/// Builder for [`DedupPipeline`].
pub struct DedupPipelineBuilder {
    preparation: Preparation,
    reduction: ReductionStrategy,
    comparators: Option<AttributeComparators>,
    model: Option<Arc<dyn XTupleDecisionModel>>,
    bounded: Option<BoundedClassifyConfig>,
    threads: usize,
}

impl DedupPipeline {
    /// Start building a pipeline.
    pub fn builder() -> DedupPipelineBuilder {
        DedupPipelineBuilder {
            preparation: Preparation::new(),
            reduction: ReductionStrategy::Full,
            comparators: None,
            model: None,
            bounded: None,
            threads: 1,
        }
    }

    /// Run over one or more source relations (schemas must be
    /// structurally compatible). Stateless: nothing warm survives into the
    /// next call. The run holds the combined relation (moved into the
    /// result), the candidate list and the decisions — the reduction state
    /// is dropped once it has emitted the candidates. Candidates, their
    /// order and every decision are those of a fresh
    /// [`DedupSession::run`](crate::session::DedupSession::run), which
    /// drives the same reduction state and engine.
    pub fn run(&self, sources: &[&XRelation]) -> Result<DedupResult, ModelError> {
        let Some((relation, source_offsets)) = self.config.combine(sources)? else {
            return Ok(DedupResult::empty());
        };
        let tuples = relation.xtuples();
        let pairs = {
            let mut reduction = WarmReduction::for_strategy(&self.config.reduction);
            reduction.ingest_rows(tuples, 0);
            reduction.current(tuples).into_pairs()
        };
        let mut engine = MatchingEngine::new(&self.config);
        engine.ingest(tuples);
        let (decisions, tiers) = engine.classify(tuples, &pairs, self.config.threads);
        let stats = engine.stats(tiers);
        // The closure is the run's last allocation; freeing the candidate
        // list and the interned mirrors first keeps it off the peak.
        drop((pairs, engine));
        let clusters = match_clusters(tuples.len(), &decisions);
        Ok(DedupResult {
            candidates: decisions.len(),
            decisions,
            clusters,
            stats,
            source_offsets,
            relation,
        })
    }

    /// [`run`](Self::run) under the retired sharded driver's name, with
    /// the statistics of one shard. Kept solely because the frozen
    /// `benchmark/` package still calls it (see ROADMAP).
    #[doc(hidden)]
    pub fn sharded(&self, _shards: usize) -> crate::shard::ShardedPipeline {
        crate::shard::ShardedPipeline {
            pipeline: self.clone(),
        }
    }

    /// A fresh persistent session over this pipeline's configuration: the
    /// stateful front door that keeps interner pools, key tables and
    /// prepared sidecars warm across
    /// [`run`](crate::session::DedupSession::run)s and supports
    /// [`ingest`](crate::session::DedupSession::ingest)-style incremental
    /// deduplication.
    pub fn session(&self) -> crate::session::DedupSession {
        crate::session::DedupSession::new(self.config.clone())
    }

    /// Arity of the relations this pipeline was configured for (the
    /// number of per-attribute comparators) — lets front doors reject a
    /// mismatched relation up front instead of failing mid-matching.
    pub fn arity(&self) -> usize {
        self.config.comparators.arity()
    }
}

impl DedupPipelineBuilder {
    /// Set the preparation plan (default: none).
    pub fn preparation(mut self, p: Preparation) -> Self {
        self.preparation = p;
        self
    }

    /// Set the reduction strategy (default: full comparison).
    pub fn reduction(mut self, r: ReductionStrategy) -> Self {
        self.reduction = r;
        self
    }

    /// Set the per-attribute value comparators (required).
    pub fn comparators(mut self, c: AttributeComparators) -> Self {
        self.comparators = Some(c);
        self
    }

    /// Set the x-tuple decision model (required unless
    /// [`classify_only`](Self::classify_only) is configured).
    pub fn model(mut self, m: Arc<dyn XTupleDecisionModel>) -> Self {
        self.model = Some(m);
        self
    }

    /// Run the matching stage **classify-only (bounded)**: the given
    /// weighted-sum φ and thresholds — the linear similarity-based model —
    /// are decomposed into running budgets and every pair is evaluated
    /// only far enough to certify its class. Equivalent, in
    /// classification, to
    /// `model(SimilarityBasedModel::new(phi, ExpectedSimilarity, thresholds))`
    /// — but [`PairDecision::similarity`] holds a certified representative
    /// rather than the exact degree. `phi` must carry one weight per
    /// attribute of the comparators ([`build`](Self::build) checks).
    pub fn classify_only(mut self, phi: WeightedSum, thresholds: Thresholds) -> Self {
        self.bounded = Some(BoundedClassifyConfig { phi, thresholds });
        self
    }

    /// Number of comparison threads (default 1).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Inert: the engine memoizes no kernel result, so there is nothing
    /// left to switch. Kept solely because the frozen
    /// `benchmark/` package still calls it (see ROADMAP).
    #[doc(hidden)]
    pub fn cache_similarities(self, _on: bool) -> Self {
        self
    }

    /// Finish; panics if comparators are missing, if the decision-model
    /// configuration is not exactly one of `model` / `classify_only`
    /// (setting both would silently ignore the model and change what
    /// `PairDecision::similarity` means), if the classify-only weights do
    /// not cover every attribute, if the reduction key names an attribute
    /// the comparators do not have, or if a multi-pass reduction's world
    /// selection can select no world — programming errors, not data
    /// errors, so they surface here rather than at the first pair (or, in
    /// a daemon, after the offending batch was journaled).
    pub fn build(self) -> DedupPipeline {
        let comparators = self.comparators.expect("comparators are required");
        for part in self.reduction.key_spec().map_or(&[][..], KeySpec::parts) {
            assert!(
                part.attr < comparators.arity(),
                "reduction key attribute {} out of range for arity {}",
                part.attr,
                comparators.arity()
            );
        }
        if let ReductionStrategy::MultipassWorlds { selection, .. }
        | ReductionStrategy::BlockingMultipass { selection, .. } = &self.reduction
        {
            assert!(
                !matches!(
                    selection,
                    WorldSelection::TopK(0)
                        | WorldSelection::DiverseTopK { k: 0, .. }
                        | WorldSelection::All { limit: 0 }
                ),
                "world selection {selection:?} selects no world: zero passes \
                 would make every row a singleton"
            );
        }
        let decider = match (self.model, self.bounded) {
            (Some(model), None) => Decider::Model(model),
            (None, Some(bounded)) => {
                assert_eq!(
                    bounded.phi.weights().len(),
                    comparators.arity(),
                    "classify-only weights must cover every attribute"
                );
                Decider::ClassifyOnly(bounded)
            }
            (None, None) => panic!("a decision model (or a classify_only config) is required"),
            (Some(_), Some(_)) => panic!(
                "model and classify_only are mutually exclusive: classify-only \
                 decides with its own thresholds and would ignore the model"
            ),
        };
        DedupPipeline {
            config: PipelineConfig {
                preparation: self.preparation,
                reduction: self.reduction,
                comparators,
                decider,
                threads: self.threads,
            },
        }
    }

    /// Finish straight into a persistent
    /// [`DedupSession`](crate::session::DedupSession) — the stateful front
    /// door. Same validation as [`build`](Self::build).
    pub fn build_session(self) -> crate::session::DedupSession {
        self.build().session()
    }
}

/// The product's default configuration over `arity`-attribute relations,
/// stated once: the CLI sets the fields its flags name and builds from
/// it, and `probdedup serve` runs the CLI's pipeline.
#[derive(Debug, Clone)]
pub struct Defaults {
    /// The reduction key: a 3-prefix of the first attribute, plus a
    /// 2-prefix of attribute `arity − 2` (at least 1) when `arity ≥ 2`.
    pub key: KeySpec,
    /// The sorted-neighborhood window.
    pub window: usize,
    /// The Eq. 6 weights, one per attribute: 3, 1, …, 1, normalized.
    pub weights: WeightedSum,
    /// The similarity-based model's `(T_λ, T_μ)`.
    pub thresholds: Thresholds,
    /// Comparison threads.
    pub threads: usize,
}

impl Defaults {
    /// The defaults over `arity`-attribute relations (attribute names
    /// never matter to the pipeline). Panics if `arity` is 0: the front
    /// doors refuse an empty schema first.
    pub fn for_arity(arity: usize) -> Self {
        assert!(arity >= 1, "a relation has at least one attribute");
        let mut key = vec![KeyPart::prefix(0, 3)];
        if arity >= 2 {
            key.push(KeyPart::prefix((arity - 2).max(1), 2));
        }
        let weights = std::iter::once(3.0).chain(std::iter::repeat_n(1.0, arity - 1));
        Self {
            key: KeySpec::new(key),
            window: 6,
            weights: WeightedSum::normalized(weights).expect("weights are positive"),
            thresholds: Thresholds::new(0.72, 0.82).expect("thresholds are ordered"),
            threads: 4,
        }
    }

    /// A builder preset to this configuration: standard preparation,
    /// Jaro–Winkler on every attribute, the similarity-based model over
    /// `weights` and `thresholds`, sorting alternatives over `key` at
    /// `window`, and `threads`. Any stage can still be overridden.
    pub fn builder(&self) -> DedupPipelineBuilder {
        let arity = self.weights.weights().len();
        DedupPipeline::builder()
            .preparation(Preparation::standard_all(arity))
            .comparators(AttributeComparators::per_attribute(
                (0..arity)
                    .map(|_| ValueComparator::text(JaroWinkler::new()))
                    .collect(),
            ))
            .model(Arc::new(SimilarityBasedModel::new(
                Arc::new(self.weights.clone()),
                Arc::new(ExpectedSimilarity),
                self.thresholds,
            )))
            .reduction(ReductionStrategy::SortingAlternatives {
                spec: self.key.clone(),
                window: self.window,
            })
            .threads(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdedup_model::schema::Schema;
    use probdedup_model::xtuple::XTuple;
    use probdedup_textsim::NormalizedHamming;

    use crate::test_support::{
        all_strategies, assert_classes_agree_with_reference, assert_exact_agrees_with_reference,
    };

    fn schema() -> Schema {
        Schema::new(["name", "job"])
    }

    fn model() -> Arc<dyn XTupleDecisionModel> {
        Arc::new(SimilarityBasedModel::new(
            Arc::new(WeightedSum::new([0.8, 0.2]).unwrap()),
            Arc::new(ExpectedSimilarity),
            Thresholds::new(0.6, 0.8).unwrap(),
        ))
    }

    fn pipeline(reduction: ReductionStrategy) -> DedupPipeline {
        DedupPipeline::builder()
            .comparators(AttributeComparators::uniform(
                &schema(),
                NormalizedHamming::new(),
            ))
            .model(model())
            .reduction(reduction)
            .build()
    }

    fn r3() -> XRelation {
        let s = schema();
        let mut r = XRelation::new(s.clone());
        r.push(
            XTuple::builder(&s)
                .alt(1.0, ["John", "pilot"])
                .build()
                .unwrap(),
        );
        r.push(
            XTuple::builder(&s)
                .alt(0.9, ["Tim", "mechanic"])
                .build()
                .unwrap(),
        );
        r
    }

    fn r4() -> XRelation {
        let s = schema();
        let mut r = XRelation::new(s.clone());
        r.push(
            XTuple::builder(&s)
                .alt(0.8, ["John", "pilot"])
                .build()
                .unwrap(),
        );
        r.push(
            XTuple::builder(&s)
                .alt(1.0, ["Tom", "mechanic"])
                .build()
                .unwrap(),
        );
        r
    }

    #[test]
    fn end_to_end_two_sources() {
        let (a, b) = (r3(), r4());
        let result = pipeline(ReductionStrategy::Full).run(&[&a, &b]).unwrap();
        assert_eq!(result.relation.len(), 4);
        assert_eq!(result.candidates, 6);
        // (John,pilot) × (John,pilot) across sources is a match despite the
        // differing membership probabilities.
        let matches: Vec<(usize, usize)> = result.matches().map(|d| d.pair).collect();
        assert!(matches.contains(&(0, 2)));
        // Tim/Tom mechanic: sim = 0.8·(2/3) + 0.2·1 = 0.733 → possible.
        let possibles: Vec<(usize, usize)> = result.possible_matches().map(|d| d.pair).collect();
        assert!(possibles.contains(&(1, 3)));
        // Clusters: the John pair.
        assert_eq!(result.clusters, vec![vec![0, 2]]);
    }

    #[test]
    fn handles_map_back_to_sources() {
        let (a, b) = (r3(), r4());
        let result = pipeline(ReductionStrategy::Full).run(&[&a, &b]).unwrap();
        assert_eq!(result.handle(0), TupleHandle::new(0, 0));
        assert_eq!(result.handle(1), TupleHandle::new(0, 1));
        assert_eq!(result.handle(2), TupleHandle::new(1, 0));
        assert_eq!(result.handle(3), TupleHandle::new(1, 1));
    }

    #[test]
    fn reduction_strategies_run_end_to_end() {
        let (a, b) = (r3(), r4());
        let full = pipeline(ReductionStrategy::Full).run(&[&a, &b]).unwrap();
        for strat in all_strategies(&KeySpec::paper_example(0, 1)) {
            let name = strat.name();
            let result = pipeline(strat.clone()).run(&[&a, &b]).unwrap();
            assert!(result.candidates <= full.candidates, "{name}");
            // Whatever the candidate source, both engine configurations
            // agree with the paper-literal reference on its pairs.
            assert_exact_agrees_with_reference(&result, &comparators(), model().as_ref(), name);
            let bounded = DedupPipeline::builder()
                .comparators(comparators())
                .classify_only(
                    WeightedSum::new([0.8, 0.2]).unwrap(),
                    Thresholds::new(0.6, 0.8).unwrap(),
                )
                .reduction(strat)
                .build()
                .run(&[&a, &b])
                .unwrap();
            assert_eq!(bounded.candidates, result.candidates, "{name}");
            assert_classes_agree_with_reference(&bounded, &comparators(), model().as_ref(), name);
            // Matches under a reduced candidate set are a subset of the
            // full-comparison matches.
            let full_set = full.match_pair_set();
            for m in result.match_pair_set() {
                assert!(full_set.contains(&m), "{name} invented match {m:?}");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (a, b) = (r3(), r4());
        // Force multiple rows so parallelism kicks in.
        let mut big_a = XRelation::new(schema());
        for _ in 0..30 {
            for t in a.xtuples() {
                big_a.push(t.clone());
            }
        }
        let seq = pipeline(ReductionStrategy::Full)
            .run(&[&big_a, &b])
            .unwrap();
        let par = DedupPipeline::builder()
            .comparators(AttributeComparators::uniform(
                &schema(),
                NormalizedHamming::new(),
            ))
            .model(model())
            .threads(4)
            .build()
            .run(&[&big_a, &b])
            .unwrap();
        assert_eq!(seq.decisions.len(), par.decisions.len());
        for (s, p) in seq.decisions.iter().zip(&par.decisions) {
            assert_eq!(s.pair, p.pair);
            assert!((s.similarity - p.similarity).abs() < 1e-15);
            assert_eq!(s.class, p.class);
        }
    }

    fn comparators() -> AttributeComparators {
        AttributeComparators::uniform(&schema(), NormalizedHamming::new())
    }

    /// 40 copies of `r3` — a duplicate-heavy corpus whose values recur
    /// across many candidate pairs.
    fn big() -> XRelation {
        let mut big = XRelation::new(schema());
        for _ in 0..40 {
            for t in r3().xtuples() {
                big.push(t.clone());
            }
        }
        big
    }

    /// The engine's (interned) exact run matches the paper-literal
    /// computation straight off the x-tuples.
    #[test]
    fn cached_run_matches_uncached() {
        let (big, b) = (big(), r4());
        let result = DedupPipeline::builder()
            .comparators(comparators())
            .model(model())
            .threads(4)
            .build()
            .run(&[&big, &b])
            .unwrap();
        assert_exact_agrees_with_reference(&result, &comparators(), model().as_ref(), "full");
        assert!(result.stats.interned_values > 1);
    }

    /// Classify-only decides every pair as the exact linear model does —
    /// the paper-literal reference's classes and clusters.
    #[test]
    fn bounded_classification_matches_exact_model() {
        let (big, b) = (big(), r4());
        let phi = WeightedSum::new([0.8, 0.2]).unwrap();
        let thresholds = Thresholds::new(0.6, 0.8).unwrap();
        let bounded = DedupPipeline::builder()
            .comparators(comparators())
            .classify_only(phi, thresholds)
            .threads(4)
            .build()
            .run(&[&big, &b])
            .unwrap();
        assert_classes_agree_with_reference(&bounded, &comparators(), model().as_ref(), "full");
        for d in &bounded.decisions {
            // The certified representative classifies like its class.
            assert_eq!(thresholds.classify(d.similarity), d.class);
        }
        // Tier counters partition the candidate set, and on this
        // duplicate-heavy workload most pairs settle early.
        let s = &bounded.stats;
        assert_eq!(
            s.pairs_early_match
                + s.pairs_early_nonmatch
                + s.pairs_early_possible
                + s.pairs_exhausted,
            bounded.candidates as u64
        );
        assert!(
            s.pairs_early_match + s.pairs_early_nonmatch > 0,
            "nothing settled early"
        );
        let (fm, fn_, fp) = s.disposal_fractions();
        assert!((0.0..=1.0).contains(&(fm + fn_ + fp)));
    }

    #[test]
    fn bounded_mode_needs_no_model() {
        let (a, b) = (r3(), r4());
        let result = DedupPipeline::builder()
            .comparators(AttributeComparators::uniform(
                &schema(),
                NormalizedHamming::new(),
            ))
            .classify_only(
                WeightedSum::new([0.8, 0.2]).unwrap(),
                Thresholds::new(0.6, 0.8).unwrap(),
            )
            .build()
            .run(&[&a, &b])
            .unwrap();
        assert_eq!(result.candidates, 6);
    }

    #[test]
    #[should_panic(expected = "decision model")]
    fn missing_model_and_bounded_config_panics() {
        let _ = DedupPipeline::builder()
            .comparators(AttributeComparators::uniform(
                &schema(),
                NormalizedHamming::new(),
            ))
            .build();
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn model_and_bounded_config_together_panics() {
        let _ = DedupPipeline::builder()
            .comparators(AttributeComparators::uniform(
                &schema(),
                NormalizedHamming::new(),
            ))
            .model(model())
            .classify_only(
                WeightedSum::new([0.8, 0.2]).unwrap(),
                Thresholds::new(0.6, 0.8).unwrap(),
            )
            .build();
    }

    #[test]
    #[should_panic(expected = "weights must cover every attribute")]
    fn classify_only_weight_count_mismatch_panics_at_build() {
        let _ = DedupPipeline::builder()
            .comparators(AttributeComparators::uniform(
                &schema(),
                NormalizedHamming::new(),
            ))
            .classify_only(
                WeightedSum::new([0.5, 0.3, 0.2]).unwrap(),
                Thresholds::new(0.6, 0.8).unwrap(),
            )
            .build();
    }

    #[test]
    #[should_panic(expected = "reduction key attribute 1 out of range for arity 1")]
    fn key_attribute_out_of_range_panics_at_build() {
        let _ = DedupPipeline::builder()
            .comparators(AttributeComparators::uniform(
                &Schema::new(["name"]),
                NormalizedHamming::new(),
            ))
            .model(model())
            .reduction(ReductionStrategy::SortingAlternatives {
                spec: KeySpec::paper_example(0, 1),
                window: 2,
            })
            .build();
    }

    #[test]
    fn defaults_fit_every_arity() {
        for arity in 1..=7 {
            let d = Defaults::for_arity(arity);
            assert_eq!(d.builder().build().arity(), arity);
            assert!(d.key.parts().iter().all(|part| part.attr < arity));
            assert_eq!(d.weights.weights().len(), arity);
        }
        let one = Defaults::for_arity(1).key;
        assert!(one.parts().iter().all(|part| part.attr == 0));
    }

    #[test]
    #[should_panic(expected = "a relation has at least one attribute")]
    fn defaults_refuse_arity_zero() {
        let _ = Defaults::for_arity(0);
    }

    fn build_with_selection(selection: WorldSelection) {
        let _ = pipeline(ReductionStrategy::BlockingMultipass {
            spec: KeySpec::paper_example(0, 1),
            selection,
        });
    }

    #[test]
    #[should_panic(expected = "TopK(0) selects no world")]
    fn top_k_zero_selection_panics_at_build() {
        build_with_selection(WorldSelection::TopK(0));
    }

    #[test]
    #[should_panic(expected = "DiverseTopK { k: 0, pool: 8 } selects no world")]
    fn diverse_top_k_zero_selection_panics_at_build() {
        build_with_selection(WorldSelection::DiverseTopK { k: 0, pool: 8 });
    }

    #[test]
    #[should_panic(expected = "All { limit: 0 } selects no world")]
    fn all_limit_zero_selection_panics_at_build() {
        build_with_selection(WorldSelection::All { limit: 0 });
    }

    #[test]
    fn incompatible_schemas_rejected() {
        let a = r3();
        let b = XRelation::new(Schema::new(["solo"]));
        assert!(matches!(
            pipeline(ReductionStrategy::Full).run(&[&a, &b]),
            Err(ModelError::IncompatibleSchemas)
        ));
    }

    #[test]
    fn empty_inputs() {
        let result = pipeline(ReductionStrategy::Full).run(&[]).unwrap();
        assert_eq!(result.candidates, 0);
        let empty = XRelation::new(schema());
        let result = pipeline(ReductionStrategy::Full).run(&[&empty]).unwrap();
        assert_eq!(result.candidates, 0);
        assert!(result.clusters.is_empty());
    }

    #[test]
    fn preparation_feeds_matching() {
        let s = schema();
        let mut a = XRelation::new(s.clone());
        a.push(
            XTuple::builder(&s)
                .alt(1.0, ["  JOHN ", "PILOT"])
                .build()
                .unwrap(),
        );
        let mut b = XRelation::new(s.clone());
        b.push(
            XTuple::builder(&s)
                .alt(1.0, ["john", "pilot"])
                .build()
                .unwrap(),
        );
        let with_prep = DedupPipeline::builder()
            .comparators(AttributeComparators::uniform(&s, NormalizedHamming::new()))
            .model(model())
            .preparation(Preparation::standard_all(2))
            .build()
            .run(&[&a, &b])
            .unwrap();
        assert_eq!(with_prep.matches().count(), 1);
        let without = pipeline(ReductionStrategy::Full).run(&[&a, &b]).unwrap();
        assert_eq!(without.matches().count(), 0);
    }
}
