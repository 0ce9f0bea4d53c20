//! Shared fixtures and workloads for the benchmark harness and the
//! `experiments` binary.
//!
//! The paper fixtures (ℛ1/ℛ2/ℛ3/ℛ4 and the example keys) live in
//! `probdedup::paper`; this crate adds the synthetic workloads used by the
//! quantitative experiments E1–E6 (see `src/bin/experiments.rs`), with fixed seeds so bench
//! and experiment outputs are reproducible run to run.
//!
//! # Example
//!
//! ```
//! use probdedup_bench::{experiment_key, workload};
//!
//! let ds = workload(25); // 25 entities across two sources, fixed seed
//! assert_eq!(ds.relations.len(), 2);
//! assert!(ds.total_rows() >= 25);
//! assert_eq!(experiment_key().parts().len(), 2); // name[..3] + city[..2]
//! ```

use std::sync::Arc;

use probdedup_core::pipeline::{DedupPipeline, ReductionStrategy};
use probdedup_core::prepare::Preparation;
use probdedup_datagen::{generate, DatasetConfig, Dictionaries, SyntheticDataset};
use probdedup_decision::combine::WeightedSum;
use probdedup_decision::derive_sim::ExpectedSimilarity;
use probdedup_decision::threshold::Thresholds;
use probdedup_decision::xmodel::{SimilarityBasedModel, XTupleDecisionModel};
use probdedup_matching::vector::AttributeComparators;
use probdedup_reduction::{KeyPart, KeySpec};
use probdedup_textsim::JaroWinkler;

/// The fixed workload seed.
pub const SEED: u64 = 20100301; // ICDE 2010 workshop week

/// A standard synthetic workload with `entities` ground-truth entities
/// across two sources (see `DatasetConfig` for the dirt profile).
pub fn workload(entities: usize) -> SyntheticDataset {
    generate(
        &Dictionaries::people(),
        &DatasetConfig {
            entities,
            sources: 2,
            presence_rate: 0.85,
            extra_copy_rate: 0.1,
            typo_rate: 0.25,
            uncertainty_rate: 0.35,
            xtuple_rate: 0.25,
            maybe_rate: 0.2,
            seed: SEED,
            ..DatasetConfig::default()
        },
    )
}

/// The standard sorting/blocking key of the experiments: name prefix 3 +
/// city prefix 2 (city is less typo-prone than job in the generator).
pub fn experiment_key() -> KeySpec {
    KeySpec::new(vec![KeyPart::prefix(0, 3), KeyPart::prefix(2, 2)])
}

/// Attribute weights used across the experiments.
pub fn experiment_weights() -> WeightedSum {
    WeightedSum::normalized([3.0, 1.0, 1.5, 0.5]).expect("static weights")
}

/// The experiments' classification thresholds (tuned on the workload).
pub fn experiment_thresholds() -> Thresholds {
    Thresholds::new(0.72, 0.82).expect("static thresholds")
}

/// The standard similarity-based decision model (thresholds tuned on the
/// workload; see tests/pipeline_end_to_end.rs).
pub fn experiment_model() -> Arc<dyn XTupleDecisionModel> {
    Arc::new(SimilarityBasedModel::new(
        Arc::new(experiment_weights()),
        Arc::new(ExpectedSimilarity),
        experiment_thresholds(),
    ))
}

/// A ready exact-matching pipeline over the workload schema with the
/// given reduction.
pub fn experiment_pipeline(reduction: ReductionStrategy, threads: usize) -> DedupPipeline {
    let ds = workload(1); // only for the schema
    DedupPipeline::builder()
        .preparation(Preparation::standard_all(4))
        .comparators(AttributeComparators::uniform(
            &ds.schema,
            JaroWinkler::new(),
        ))
        .model(experiment_model())
        .reduction(reduction)
        .threads(threads)
        .build()
}

/// [`experiment_pipeline`]'s classify-only twin: bounded matching under
/// the same weights and thresholds (identical classification —
/// property-tested).
pub fn experiment_pipeline_bounded(reduction: ReductionStrategy, threads: usize) -> DedupPipeline {
    let ds = workload(1); // only for the schema
    DedupPipeline::builder()
        .preparation(Preparation::standard_all(4))
        .comparators(AttributeComparators::uniform(
            &ds.schema,
            JaroWinkler::new(),
        ))
        .classify_only(experiment_weights(), experiment_thresholds())
        .reduction(reduction)
        .threads(threads)
        .build()
}

/// The scale-probe configuration: bounded (classify-only) matching over
/// sorting-alternatives SNM candidates with an explicit
/// [`memory_budget`] — what the sharded out-of-core bench mode
/// runs at 10⁵-entity scale, where the unsharded in-memory reduction
/// cannot honor the budget (its triangular `PairMatrix` alone is
/// `n²/2` bits ≈ 2 GB at ~190k rows).
///
/// [`memory_budget`]: probdedup_core::pipeline::DedupPipelineBuilder::memory_budget
pub fn experiment_pipeline_scale(
    window: usize,
    threads: usize,
    memory_budget: u64,
) -> DedupPipeline {
    let ds = workload(1); // only for the schema
    DedupPipeline::builder()
        .preparation(Preparation::standard_all(4))
        .comparators(AttributeComparators::uniform(
            &ds.schema,
            JaroWinkler::new(),
        ))
        .classify_only(experiment_weights(), experiment_thresholds())
        .reduction(ReductionStrategy::SortingAlternatives {
            spec: experiment_key(),
            window,
        })
        .threads(threads)
        .memory_budget(Some(memory_budget))
        .build()
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where the proc interface is unavailable.
/// The high-water mark is process-wide and monotone: it reports the
/// largest footprint since process start, not the current usage — read
/// it right after the measured region so the region's allocations are
/// what it reflects.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_reported_on_linux() {
        assert!(peak_rss_bytes() > 0);
    }

    #[test]
    fn workload_is_reproducible() {
        let a = workload(50);
        let b = workload(50);
        assert_eq!(a.total_rows(), b.total_rows());
        assert_eq!(a.combined().xtuples(), b.combined().xtuples());
    }

    #[test]
    fn pipeline_smoke() {
        let ds = workload(30);
        let sources: Vec<&probdedup_model::relation::XRelation> = ds.relations.iter().collect();
        let result = experiment_pipeline(ReductionStrategy::Full, 2)
            .run(&sources)
            .expect("run");
        assert!(result.candidates > 0);
    }

    #[test]
    fn bounded_pipeline_matches_exact_classes_on_workload() {
        let ds = workload(40);
        let sources: Vec<&probdedup_model::relation::XRelation> = ds.relations.iter().collect();
        let exact = experiment_pipeline(ReductionStrategy::Full, 2)
            .run(&sources)
            .expect("exact run");
        let bounded = experiment_pipeline_bounded(ReductionStrategy::Full, 2)
            .run(&sources)
            .expect("bounded run");
        assert_eq!(exact.decisions.len(), bounded.decisions.len());
        for (x, y) in exact.decisions.iter().zip(&bounded.decisions) {
            assert_eq!(x.pair, y.pair);
            assert_eq!(x.class, y.class, "pair {:?}", x.pair);
        }
        assert_eq!(exact.clusters, bounded.clusters);
        let s = &bounded.stats;
        assert_eq!(
            s.pairs_early_match
                + s.pairs_early_nonmatch
                + s.pairs_early_possible
                + s.pairs_exhausted,
            bounded.candidates as u64
        );
        // The typo-heavy workload is dominated by clear non-matches: the
        // whole point of the bounded path is that they settle early.
        assert!(s.pairs_early_nonmatch > bounded.candidates as u64 / 2);
    }
}
