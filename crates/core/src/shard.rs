//! The sharded front door: [`ShardedPipeline`].
//!
//! The persistent [`DedupSession`](crate::session::DedupSession) (and the
//! one-shot [`DedupPipeline`](crate::pipeline::DedupPipeline) over it)
//! dedups candidates through a dense triangular bit matrix, keeps a
//! decision memo and classifies the whole candidate set in one sweep. The
//! sharded pipeline runs the same configuration as independent slices:
//!
//! 1. **Routed candidate generation** — the strategy's in-memory emission
//!    loop (`probdedup_reduction`'s window scan and block visitors — the
//!    very loops the one-shot functions are sinks over) runs once, and
//!    every emitted pair is deduplicated through a [`SparsePairSet`],
//!    first sighting wins: exactly the one-shot candidate list, in the
//!    one-shot order. The sparse set's memory scales with emitted pairs,
//!    not with `n·(n−1)/2` bits (the triangular `PairMatrix` alone costs
//!    92 MB at 38k rows, ~625 MB at 10⁵).
//! 2. **Shard routing** — every candidate pair is assigned to one of `k`
//!    shards by a **stable** function of where it was generated:
//!    blocking pairs hash their block key
//!    ([`shard_of_key`], FNV-1a,
//!    interning-order independent), SNM pairs stripe by their anchor's
//!    key rank, ranked/positional strategies stripe by position. Shards
//!    are then matched independently — each one a bounded slice of the
//!    quadratic stage.
//! 3. **Deterministic merge** — per-shard decisions scatter back into
//!    global candidate order, tier counters sum, and one union-find
//!    closes the clusters. The merged [`DedupResult`] equals the
//!    unsharded run's under the engine's equality contract
//!    (ARCHITECTURE.md, "The engine"; property-tested in
//!    `tests/sharded.rs`, which also pins the routing).
//!
//! Matching itself is not this module's business: every shard's pairs go
//! through the same matching engine (`engine.rs`) a session uses.
//!
//! A [`memory_budget`](crate::pipeline::DedupPipelineBuilder::memory_budget)
//! reaches this driver only as the similarity-cache capacity derived from
//! it. The relation, its interned mirrors and the candidate list stay
//! resident whatever the budget says.

use probdedup_model::error::ModelError;
use probdedup_model::relation::XRelation;
use probdedup_model::shard_of_key;
use probdedup_model::xtuple::XTuple;
use probdedup_reduction::ranking::rank_tuples;
use probdedup_reduction::{
    cluster_blocking, for_each_alternative_block, for_each_conflict_resolved_block,
    for_each_multipass_block, for_each_window_pair, for_each_world_pass,
    sorted_alternative_entries, sorted_resolved_entries, SparsePairSet,
};

use crate::engine::MatchingEngine;
use crate::pipeline::{
    match_clusters, DedupResult, PairDecision, PipelineConfig, ReductionStrategy,
};

/// Inert: the sharded driver no longer sorts out of core, so there is
/// nothing to count. Kept (always 0) solely because the frozen
/// `benchmark/` package still reads `ShardStats::sort.runs_spilled` (see
/// ROADMAP, "Deletions queued").
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortCounters {
    pub runs_spilled: usize,
}

/// What the sharded run did beyond the [`DedupResult`]: per-shard
/// candidate counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards the run partitioned into.
    pub shards: usize,
    /// Candidate pairs routed to each shard.
    pub shard_candidates: Vec<usize>,
    #[doc(hidden)]
    pub sort: SortCounters,
}

impl ShardStats {
    /// Largest / smallest shard candidate count — the skew the stripe
    /// routing is meant to keep small.
    pub fn skew(&self) -> (usize, usize) {
        let max = self.shard_candidates.iter().copied().max().unwrap_or(0);
        let min = self.shard_candidates.iter().copied().min().unwrap_or(0);
        (max, min)
    }
}

/// The sharded pipeline. Build via
/// [`DedupPipeline::sharded`](crate::pipeline::DedupPipeline::sharded);
/// see the module docs for the design.
pub struct ShardedPipeline {
    config: PipelineConfig,
    shards: usize,
}

/// Candidates in global (one-shot) order plus each pair's shard.
struct RoutedCandidates {
    pairs: Vec<(usize, usize)>,
    shard_of: Vec<usize>,
}

impl ShardedPipeline {
    pub(crate) fn new(config: PipelineConfig, shards: usize) -> Self {
        Self {
            config,
            shards: shards.max(1),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Run over `sources`; the merged result equals the unsharded
    /// [`DedupPipeline::run`](crate::pipeline::DedupPipeline::run)'s (see
    /// the module docs).
    pub fn run(&self, sources: &[&XRelation]) -> Result<DedupResult, ModelError> {
        self.run_with_stats(sources).map(|(r, _)| r)
    }

    /// [`run`](Self::run) plus the per-shard counters.
    pub fn run_with_stats(
        &self,
        sources: &[&XRelation],
    ) -> Result<(DedupResult, ShardStats), ModelError> {
        let Some((combined, offsets)) = self.config.combine(sources)? else {
            return Ok((
                DedupResult::empty(),
                ShardStats {
                    shards: self.shards,
                    ..ShardStats::default()
                },
            ));
        };
        let tuples = combined.xtuples();

        // Reduction with shard routing.
        let routed = route_candidates(&self.config.reduction, tuples, self.shards);
        let mut shard_candidates = vec![0usize; self.shards];
        for &s in &routed.shard_of {
            shard_candidates[s] += 1;
        }

        // The matching engine, fed exactly as a fresh session would be.
        let mut engine = MatchingEngine::new(&self.config);
        engine.ingest(tuples);

        // Per-shard pair slices carrying their global candidate position.
        let mut shard_pairs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.shards];
        let mut shard_pos: Vec<Vec<usize>> = vec![Vec::new(); self.shards];
        for (pos, (&pair, &shard)) in routed.pairs.iter().zip(&routed.shard_of).enumerate() {
            shard_pairs[shard].push(pair);
            shard_pos[shard].push(pos);
        }

        // Match shard by shard (each shard runs on the work-stealing pair
        // executor with the configured thread count), scattering decisions
        // back into global candidate order.
        let mut scattered: Vec<Option<PairDecision>> = vec![None; routed.pairs.len()];
        let mut tiers = [0u64; 4];
        for (pairs, positions) in shard_pairs.iter().zip(&shard_pos) {
            if pairs.is_empty() {
                continue;
            }
            let (decisions, shard_tiers) = engine.classify(tuples, &[], pairs, self.config.threads);
            for (acc, t) in tiers.iter_mut().zip(shard_tiers) {
                *acc += t;
            }
            for (d, &pos) in decisions.into_iter().zip(positions) {
                scattered[pos] = Some(d);
            }
        }
        let decisions: Vec<PairDecision> = scattered
            .into_iter()
            .map(|d| d.expect("every routed candidate was classified"))
            .collect();

        // Merge: transitive closure over the union of per-shard matches.
        let clusters = match_clusters(tuples.len(), &decisions);
        let stats = engine.stats(tiers);

        let candidates = routed.pairs.len();
        Ok((
            DedupResult {
                relation: combined,
                source_offsets: offsets,
                candidates,
                decisions,
                clusters,
                stats,
            },
            ShardStats {
                shards: self.shards,
                shard_candidates,
                sort: SortCounters::default(),
            },
        ))
    }
}

/// Run the strategy's emission loop once, in exactly the one-shot order,
/// assigning each pair a shard as it first appears.
fn route_candidates(
    reduction: &ReductionStrategy,
    tuples: &[XTuple],
    k: usize,
) -> RoutedCandidates {
    let n = tuples.len();
    let mut pairs = Vec::new();
    let mut shard_of = Vec::new();
    let mut seen = SparsePairSet::new();
    // First sighting wins, for both membership and shard assignment —
    // exactly `CandidatePairs`' first-insertion order.
    let mut push = |shard: usize, i: usize, j: usize| {
        if i != j && seen.insert(i, j) {
            pairs.push((i.min(j), i.max(j)));
            shard_of.push(shard);
        }
    };

    match reduction {
        ReductionStrategy::Full => {
            // Unique by construction; stripe anchors contiguously.
            for i in 0..n {
                for j in (i + 1)..n {
                    pairs.push((i, j));
                    shard_of.push(i * k / n);
                }
            }
        }
        ReductionStrategy::SortingAlternatives { spec, window } => {
            let table = spec.key_table(tuples);
            for_each_window_pair(&sorted_alternative_entries(&table), *window, |a, b| {
                push(table.rank(a.key) as usize % k, a.tuple, b.tuple)
            });
        }
        ReductionStrategy::ConflictResolved {
            spec,
            window,
            strategy,
        } => {
            let (_, ranks, entries) = sorted_resolved_entries(tuples, spec, *strategy);
            for_each_window_pair(&entries, *window, |a, b| {
                push(ranks.rank(a.key) as usize % k, a.tuple, b.tuple)
            });
        }
        ReductionStrategy::MultipassWorlds {
            spec,
            window,
            selection,
        } => {
            let table = spec.key_table(tuples);
            for_each_world_pass(tuples, &table, *selection, |_, entries| {
                for_each_window_pair(entries, *window, |a, b| {
                    push(table.rank(a.key) as usize % k, a.tuple, b.tuple)
                });
            });
        }
        ReductionStrategy::RankedKeys {
            spec,
            window,
            ranking,
        } => {
            // Ranked SNM is positional over a permutation of the tuples:
            // stripe by rank position.
            let order: Vec<(usize, usize)> = rank_tuples(tuples, spec, *ranking)
                .into_iter()
                .enumerate()
                .collect();
            for_each_window_pair(&order, *window, |&(pos, a), &(_, b)| push(pos % k, a, b));
        }
        ReductionStrategy::BlockingAlternatives { spec } => {
            for_each_alternative_block(tuples, spec, |key, members| {
                route_block(key, members, k, &mut push)
            });
        }
        ReductionStrategy::BlockingConflictResolved { spec, strategy } => {
            for_each_conflict_resolved_block(tuples, spec, *strategy, |key, members| {
                route_block(key, members, k, &mut push)
            });
        }
        ReductionStrategy::BlockingMultipass { spec, selection } => {
            let table = spec.key_table(tuples);
            for_each_multipass_block(tuples, &table, *selection, |_, key, members| {
                route_block(key, members, k, &mut push)
            });
        }
        ReductionStrategy::ClusterBlocking { spec, config } => {
            // Cluster centroids need the whole corpus and carry no key to
            // route by: stripe the finished candidate list positionally.
            let (candidates, _) = cluster_blocking(tuples, spec, config);
            for (pos, &pair) in candidates.pairs().iter().enumerate() {
                pairs.push(pair);
                shard_of.push(pos % k);
            }
        }
    }

    RoutedCandidates { pairs, shard_of }
}

/// Route one block's within-block pairs (in `emit_block_pairs` order) to
/// the shard its key hashes to.
fn route_block(key: &str, members: &[usize], k: usize, push: &mut impl FnMut(usize, usize, usize)) {
    let shard = shard_of_key(key, k);
    for (a, &i) in members.iter().enumerate() {
        for &j in members.iter().skip(a + 1) {
            push(shard, i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DedupPipeline, DedupPipelineBuilder};
    use crate::prepare::Preparation;
    use probdedup_decision::combine::WeightedSum;
    use probdedup_decision::derive_sim::ExpectedSimilarity;
    use probdedup_decision::threshold::Thresholds;
    use probdedup_decision::xmodel::SimilarityBasedModel;
    use probdedup_matching::vector::AttributeComparators;
    use probdedup_model::schema::Schema;
    use probdedup_model::xtuple::XTuple;
    use probdedup_reduction::{ConflictResolution, KeySpec, WorldSelection};
    use probdedup_textsim::NormalizedHamming;
    use std::sync::Arc;

    fn schema() -> Schema {
        Schema::new(["name", "job"])
    }

    fn corpus() -> XRelation {
        let s = schema();
        let mut r = XRelation::new(s.clone());
        let rows = [
            ("John", "pilot"),
            ("Johan", "pilot"),
            ("Tim", "mechanic"),
            ("Tom", "mechanic"),
            ("Jim", "baker"),
            ("John", "pilot"),
            ("Sean", "pilot"),
            ("Tim", "mechanik"),
        ];
        for (i, (n, j)) in rows.iter().enumerate() {
            let mut b = XTuple::builder(&s).alt(0.8, [*n, *j]);
            if i % 3 == 0 {
                b = b.alt(0.2, [format!("{n}x"), (*j).to_string()]);
            }
            r.push(b.build().unwrap());
        }
        r
    }

    fn builder(reduction: ReductionStrategy) -> DedupPipelineBuilder {
        DedupPipeline::builder()
            .comparators(AttributeComparators::uniform(
                &schema(),
                NormalizedHamming::new(),
            ))
            .model(Arc::new(SimilarityBasedModel::new(
                Arc::new(WeightedSum::new([0.8, 0.2]).unwrap()),
                Arc::new(ExpectedSimilarity),
                Thresholds::new(0.6, 0.8).unwrap(),
            )))
            .preparation(Preparation::standard_all(2))
            .reduction(reduction)
    }

    fn pipeline(reduction: ReductionStrategy) -> DedupPipeline {
        builder(reduction).build()
    }

    #[test]
    fn sharded_matches_one_shot_across_strategies() {
        let r = corpus();
        let spec = KeySpec::paper_example(0, 1);
        let strategies = [
            ReductionStrategy::Full,
            ReductionStrategy::SortingAlternatives {
                spec: spec.clone(),
                window: 3,
            },
            ReductionStrategy::ConflictResolved {
                spec: spec.clone(),
                window: 3,
                strategy: ConflictResolution::MostProbableAlternative,
            },
            ReductionStrategy::MultipassWorlds {
                spec: spec.clone(),
                window: 3,
                selection: WorldSelection::TopK(2),
            },
            ReductionStrategy::BlockingAlternatives { spec: spec.clone() },
        ];
        for strategy in strategies {
            let name = strategy.name();
            let p = pipeline(strategy);
            let reference = p.run(&[&r]).unwrap();
            for k in [1, 2, 5] {
                let (sharded, stats) = p.sharded(k).run_with_stats(&[&r]).unwrap();
                assert_eq!(sharded.candidates, reference.candidates, "{name} k{k}");
                assert_eq!(sharded.decisions, reference.decisions, "{name} k{k}");
                assert_eq!(sharded.clusters, reference.clusters, "{name} k{k}");
                assert_eq!(stats.shards, k);
                assert_eq!(
                    stats.shard_candidates.iter().sum::<usize>(),
                    reference.candidates,
                    "{name} k{k}"
                );
            }
        }
    }

    #[test]
    fn tight_budget_does_not_change_results() {
        let r = corpus();
        let strategy = ReductionStrategy::SortingAlternatives {
            spec: KeySpec::paper_example(0, 1),
            window: 3,
        };
        let reference = pipeline(strategy.clone()).run(&[&r]).unwrap();
        // Absurdly tight: every cache holds one entry.
        let tight = builder(strategy).memory_budget(Some(1)).build();
        let got = tight.sharded(3).run(&[&r]).unwrap();
        assert_eq!(got.decisions, reference.decisions);
        assert_eq!(got.clusters, reference.clusters);
        assert!(got.stats.cache_evictions > 0);
    }

    #[test]
    fn empty_sources() {
        let p = pipeline(ReductionStrategy::Full);
        let (result, stats) = p.sharded(4).run_with_stats(&[]).unwrap();
        assert_eq!(result.candidates, 0);
        assert_eq!(stats.shards, 4);
    }

    #[test]
    fn incompatible_schemas_surface_as_model_error() {
        let a = corpus();
        let b = XRelation::new(Schema::new(["solo"]));
        let p = pipeline(ReductionStrategy::Full);
        assert!(matches!(
            p.sharded(2).run(&[&a, &b]),
            Err(ModelError::IncompatibleSchemas)
        ));
    }
}
