//! What is left of the retired sharded driver: [`ShardedPipeline`], a
//! one-shot [`run`](crate::pipeline::DedupPipeline::run) reported as one
//! shard holding every candidate. Kept solely because the frozen
//! `benchmark/` package still calls
//! `DedupPipeline::sharded(k).run_with_stats(..)` (see ROADMAP, "Thaw the
//! ruler once").

use probdedup_model::error::ModelError;
use probdedup_model::relation::XRelation;

use crate::pipeline::{DedupPipeline, DedupResult};

/// Always 0: nothing sorts out of core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortCounters {
    pub runs_spilled: usize,
}

/// One shard and its candidate count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    pub shards: usize,
    pub shard_candidates: Vec<usize>,
    pub sort: SortCounters,
}

impl ShardStats {
    /// Largest / smallest shard candidate count.
    pub fn skew(&self) -> (usize, usize) {
        let max = self.shard_candidates.iter().copied().max().unwrap_or(0);
        let min = self.shard_candidates.iter().copied().min().unwrap_or(0);
        (max, min)
    }
}

/// A [`DedupPipeline`] under the sharded driver's name.
pub struct ShardedPipeline {
    pub(crate) pipeline: DedupPipeline,
}

impl ShardedPipeline {
    /// [`DedupPipeline::run`] plus the statistics of one shard.
    pub fn run_with_stats(
        &self,
        sources: &[&XRelation],
    ) -> Result<(DedupResult, ShardStats), ModelError> {
        let result = self.pipeline.run(sources)?;
        let stats = ShardStats {
            shards: 1,
            shard_candidates: vec![result.candidates],
            sort: SortCounters::default(),
        };
        Ok((result, stats))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use probdedup_decision::combine::WeightedSum;
    use probdedup_decision::derive_sim::ExpectedSimilarity;
    use probdedup_decision::threshold::Thresholds;
    use probdedup_decision::xmodel::SimilarityBasedModel;
    use probdedup_matching::vector::AttributeComparators;
    use probdedup_model::schema::Schema;
    use probdedup_model::xtuple::XTuple;
    use probdedup_reduction::KeySpec;
    use probdedup_textsim::NormalizedHamming;

    use super::*;
    use crate::pipeline::ReductionStrategy;

    fn schema() -> Schema {
        Schema::new(["name", "job"])
    }

    fn pipeline(reduction: ReductionStrategy) -> DedupPipeline {
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
            .reduction(reduction)
            .build()
    }

    #[test]
    fn sharded_matches_one_shot_across_strategies() {
        let s = schema();
        let mut r = XRelation::new(s.clone());
        for (n, j) in [("John", "pilot"), ("Johan", "pilot"), ("Tim", "mechanic")] {
            r.push(XTuple::builder(&s).alt(0.8, [n, j]).build().unwrap());
        }
        let spec = KeySpec::paper_example(0, 1);
        for strategy in [
            ReductionStrategy::Full,
            ReductionStrategy::SortingAlternatives { spec, window: 2 },
        ] {
            let p = pipeline(strategy);
            let reference = p.run(&[&r]).unwrap();
            let (result, stats) = p.sharded(4).run_with_stats(&[&r]).unwrap();
            assert_eq!(result.decisions, reference.decisions);
            assert_eq!(result.clusters, reference.clusters);
            assert_eq!(stats.shards, 1);
            assert_eq!(stats.skew(), (reference.candidates, reference.candidates));
        }
    }

    #[test]
    fn empty_sources() {
        let (result, stats) = pipeline(ReductionStrategy::Full)
            .sharded(4)
            .run_with_stats(&[])
            .unwrap();
        assert_eq!(result.candidates, 0);
        assert_eq!(stats.shard_candidates, vec![0]);
    }

    #[test]
    fn incompatible_schemas_surface_as_model_error() {
        let a = XRelation::new(schema());
        let b = XRelation::new(Schema::new(["solo"]));
        assert!(matches!(
            pipeline(ReductionStrategy::Full)
                .sharded(2)
                .run_with_stats(&[&a, &b]),
            Err(ModelError::IncompatibleSchemas)
        ));
    }
}
