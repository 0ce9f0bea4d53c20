//! End-to-end pipeline throughput: full scan vs reduced, single- vs
//! multi-threaded matching.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use probdedup_bench::{experiment_key, experiment_pipeline, workload};
use probdedup_core::pipeline::ReductionStrategy;
use probdedup_reduction::RankingFunction;

fn pipeline_end_to_end(c: &mut Criterion) {
    let ds = workload(300);
    let sources: Vec<&probdedup_model::relation::XRelation> = ds.relations.iter().collect();
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for (name, reduction) in [
        ("full", ReductionStrategy::Full),
        (
            "ranked-snm",
            ReductionStrategy::RankedKeys {
                spec: experiment_key(),
                window: 6,
                ranking: RankingFunction::ExpectedScore,
            },
        ),
        (
            "blocking-alternatives",
            ReductionStrategy::BlockingAlternatives {
                spec: experiment_key(),
            },
        ),
    ] {
        for threads in [1usize, 4] {
            let pipeline = experiment_pipeline(reduction.clone(), threads);
            group.bench_with_input(
                BenchmarkId::new(name, format!("{threads}t")),
                &pipeline,
                |b, pipeline| b.iter(|| pipeline.run(&sources).unwrap().decisions.len()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, pipeline_end_to_end);
criterion_main!(benches);
