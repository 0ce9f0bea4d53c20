//! Per-layer probes of the traced run: each layer's public functions are
//! called directly, from outside, on the workload's own corpus, inside a
//! span named after the layer (crate or module). Nothing here feeds an
//! end-to-end metric.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use probdedup_core::cluster::UnionFind;
use probdedup_core::session::DedupSession;
use probdedup_core::wal::SessionJournal;
use probdedup_decision::budget::{classify_comparison_bounded, AttributeBudgets};
use probdedup_decision::derive_sim::ExpectedSimilarity;
use probdedup_decision::xmodel::{SimilarityBasedModel, XTupleDecisionModel};
use probdedup_entity::{resolve_graph, ClusterStrategy, MatchGraphBuilder};
use probdedup_eval::{ClusterMetrics, ReductionMetrics};
use probdedup_matching::interned::{
    compare_xtuples_interned, intern_tuples, interned_pvalue_similarity_bounded,
    InternedComparators,
};
use probdedup_model::condition::normalized_alternative_probs;
use probdedup_model::format::{parse_xrelation, write_xrelation};
use probdedup_model::value::Value;
use probdedup_model::world::top_k_worlds;
use probdedup_textsim::{JaroWinkler, StringComparator};

use crate::journey::{pairwise_f1, stream_ingest, Class, Ops, RoundSample, MIN_SAMPLE_S};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workload::{
    bounded_pipeline, comparators, exact_pipeline, key_spec, preparation, thresholds, weights,
    Scratch, Setup, Workload, WORLDS,
};

/// Rows the possible-world probe runs over. `top_k_worlds` clones one
/// `n`-vector per tuple per selected world, so its memory is quadratic in
/// `n`; the cap keeps the probe inside the box on the large corpora while
/// covering the whole `reduce-worlds` corpus.
const WORLD_PROBE_ROWS: usize = 4000;

/// Value pairs the string-kernel probe evaluates.
const TEXTSIM_PAIRS: usize = 100_000;

/// Pairs compared per chunk in the exact probe: the comparison matrices
/// of one chunk are held while the decision model runs over them.
const COMPARE_CHUNK: usize = 1 << 16;

/// A latency more than this many times its class median is a stall.
const STALL_FACTOR: f64 = 10.0;

/// Resident set size of this process, bytes (`VmRSS`).
fn rss_bytes() -> u64 {
    crate::proc_status_kb("VmRSS:") * 1024
}

/// Run `f` back to back inside one span until [`MIN_SAMPLE_S`] has
/// passed; returns the last result and the seconds per call.
fn sampled<T>(tracer: &mut Tracer, name: &str, mut f: impl FnMut() -> T) -> (T, f64) {
    let ((out, calls), secs) = tracer.time(name, |_| {
        let start = Instant::now();
        let mut out = black_box(f());
        let mut calls = 1usize;
        while start.elapsed().as_secs_f64() < MIN_SAMPLE_S {
            out = black_box(f());
            calls += 1;
        }
        (out, calls)
    });
    (out, secs / calls as f64)
}

/// A deterministic pseudo-random index stream (SplitMix64) — the probes
/// sample from the corpus without pulling in the repo's `rand` shim.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Latencies of `class` across every round of the run, seconds.
fn latencies(input: &ProbeInput<'_>, class: Class) -> Vec<f64> {
    input
        .traced
        .iter()
        .chain(input.untraced)
        .flat_map(|r| &r.requests)
        .filter(|r| r.class == class)
        .map(|r| r.secs())
        .collect()
}

/// What the traced run hands the probes besides the set-up.
pub struct ProbeInput<'a> {
    pub setup: &'a Setup,
    pub workload: &'a Workload,
    pub seed: u64,
    /// Rounds executed with tracing on / off (same process, interleaved).
    pub traced: &'a [RoundSample],
    pub untraced: &'a [RoundSample],
}

/// Measure every per-layer metric. The map's keys are exactly the names
/// of `manifest::PER_LAYER` (asserted by the caller).
pub fn probe(
    input: &ProbeInput<'_>,
    scratch: &mut Scratch,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> BTreeMap<&'static str, f64> {
    let ProbeInput {
        setup, workload: w, ..
    } = *input;
    let corpus = &setup.corpus;
    let sources = corpus.source_refs();
    let truth_pairs = corpus.truth.true_pairs();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // -- model::format, core::prepare ----------------------------------
    let combined = corpus.combined();
    let text = write_xrelation(&combined);
    let (_, parse_s) = sampled(tracer, "model.format.parse", || {
        parse_xrelation(&text).expect("rendered corpus parses")
    });
    m.insert("model.format.parse_s", parse_s);
    m.insert("model.format.bytes", text.len() as f64);

    let (prepared, prepare_s) = sampled(tracer, "core.prepare", || {
        let mut rel = combined.clone();
        preparation().apply(&mut rel);
        rel
    });
    // The clone is part of the sample; subtract a clone-only sample.
    let (_, clone_s) = sampled(tracer, "core.prepare.clone", || combined.clone());
    m.insert("core.prepare_s", (prepare_s - clone_s).max(0.0));
    let tuples = prepared.xtuples();
    let n = tuples.len();

    // -- model::world ---------------------------------------------------
    let world_rows = &tuples[..n.min(WORLD_PROBE_ROWS)];
    let rss_before = rss_bytes();
    let (worlds, top_k_s) = tracer.time("model.world.top_k", |_| {
        top_k_worlds(world_rows, WORLDS, true)
    });
    let rss_after = rss_bytes();
    black_box(worlds);
    m.insert("model.world.top_k_s", top_k_s);
    m.insert(
        "model.world.rss_delta_bytes",
        rss_after.saturating_sub(rss_before) as f64,
    );

    // -- reduction ------------------------------------------------------
    let (table, keytable_s) = sampled(tracer, "reduction.keytable", || {
        key_spec().key_table(tuples)
    });
    m.insert("reduction.keytable_s", keytable_s);
    m.insert("reduction.key_renders", table.render_count() as f64);
    drop(table);
    let (candidates, candidates_s) = sampled(tracer, "reduction.candidates", || {
        w.reduce.candidates(tuples)
    });
    let pairs = candidates.pairs();
    m.insert("reduction.candidates_s", candidates_s);
    m.insert("reduction.candidates", pairs.len() as f64);
    let candidate_set: HashSet<(usize, usize)> = pairs.iter().copied().collect();
    let reduction = ReductionMetrics::evaluate(&candidate_set, &truth_pairs, n);
    drop(candidate_set);
    m.insert("reduction.pairs_completeness", reduction.pairs_completeness);
    m.insert("reduction.reduction_ratio", reduction.reduction_ratio);

    // -- textsim --------------------------------------------------------
    let (pool, interned) = intern_tuples(tuples);
    let texts: Vec<&str> = pool
        .iter()
        .filter_map(|(_, v)| match v {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    let mut rng = SplitMix(input.seed);
    let value_pairs: Vec<(&str, &str)> = (0..TEXTSIM_PAIRS)
        .map(|_| (texts[rng.below(texts.len())], texts[rng.below(texts.len())]))
        .collect();
    let jw = JaroWinkler::new();
    let (_, jw_s) = sampled(tracer, "textsim.jw", || {
        value_pairs
            .iter()
            .map(|(a, b)| jw.similarity(a, b))
            .sum::<f64>()
    });
    m.insert("textsim.jw_evals_per_s", TEXTSIM_PAIRS as f64 / jw_s);
    let cut = thresholds().lambda();
    let (_, within_s) = sampled(tracer, "textsim.jw_within", || {
        value_pairs
            .iter()
            .filter_map(|(a, b)| jw.similarity_within(a, b, cut))
            .sum::<f64>()
    });
    m.insert(
        "textsim.jw_within_evals_per_s",
        TEXTSIM_PAIRS as f64 / within_s,
    );
    drop(value_pairs);

    // -- matching, decision ---------------------------------------------
    let cmp = comparators();
    let (_, intern_s) = sampled(tracer, "matching.intern", || {
        let (pool, interned) = intern_tuples(tuples);
        let cmps = InternedComparators::new(&pool, &cmp);
        (pool, interned, cmps)
    });
    m.insert("matching.intern_s", intern_s);
    m.insert("matching.interned_values", pool.len() as f64);

    // Exact: the Fig. 6 comparison matrices of the whole candidate list
    // (fresh caches, one thread), then the decision model over them.
    let model = SimilarityBasedModel::new(
        std::sync::Arc::new(weights()),
        std::sync::Arc::new(ExpectedSimilarity),
        thresholds(),
    );
    let cmps = InternedComparators::new(&pool, &cmp);
    let (mut compare_exact_s, mut classify_s) = (0.0, 0.0);
    for chunk in pairs.chunks(COMPARE_CHUNK) {
        let (matrices, t) = tracer.time("matching.compare_exact", |_| {
            chunk
                .iter()
                .map(|&(i, j)| compare_xtuples_interned(&interned[i], &interned[j], &cmps))
                .collect::<Vec<_>>()
        });
        compare_exact_s += t;
        let (decided, t) = tracer.time("decision.classify", |_| {
            chunk
                .iter()
                .zip(&matrices)
                .map(|(&(i, j), matrix)| model.decide(&tuples[i], &tuples[j], matrix).similarity)
                .sum::<f64>()
        });
        classify_s += t;
        black_box(decided);
    }
    m.insert("matching.compare_exact_s", compare_exact_s);
    m.insert("decision.classify_s", classify_s);

    // Bounded: Eq. 5 against cut intervals (fresh caches, one thread).
    let cmps = InternedComparators::new(&pool, &cmp);
    let alt_weights: Vec<Vec<f64>> = tuples.iter().map(normalized_alternative_probs).collect();
    let budgets = AttributeBudgets::new(&weights(), thresholds());
    let (_, compare_bounded_s) = tracer.time("matching.compare_bounded", |_| {
        pairs
            .iter()
            .map(|&(i, j)| {
                let (t1, t2) = (&interned[i], &interned[j]);
                classify_comparison_bounded(
                    &alt_weights[i],
                    &alt_weights[j],
                    &budgets,
                    |ai, aj, attr, lo, hi| {
                        interned_pvalue_similarity_bounded(
                            t1.alternatives()[ai].value(attr),
                            t2.alternatives()[aj].value(attr),
                            attr,
                            &cmps,
                            lo,
                            hi,
                        )
                    },
                )
                .similarity
            })
            .sum::<f64>()
    });
    m.insert("matching.compare_bounded_s", compare_bounded_s);
    drop((cmps, interned, pool));

    // -- core: the three drivers ----------------------------------------
    let bounded_1t = bounded_pipeline(w.reduce, 1);
    let exact_1t = exact_pipeline(w.reduce, 1);
    let rss_before = rss_bytes();
    let (result, bounded_1t_s) = sampled(tracer, "core.dedup_bounded_1t", || {
        bounded_1t.run(&sources).expect("bounded 1-thread run")
    });
    let rss_after = rss_bytes();
    let (_, exact_1t_s) = sampled(tracer, "core.dedup_exact_1t", || {
        exact_1t.run(&sources).expect("exact 1-thread run")
    });
    let (_, bounded_2t_s) = sampled(tracer, "core.dedup_bounded_2t", || {
        setup.bounded.run(&sources).expect("bounded 2-thread run")
    });
    m.insert("core.dedup_bounded_1t_s", bounded_1t_s);
    m.insert("core.dedup_exact_1t_s", exact_1t_s);
    m.insert("core.exec.speedup_2t", bounded_1t_s / bounded_2t_s);
    m.insert(
        "core.classify_rest_s",
        bounded_1t_s - m["core.prepare_s"] - candidates_s - intern_s - compare_bounded_s,
    );
    m.insert(
        "core.result_bytes_per_pair",
        rss_after.saturating_sub(rss_before) as f64 / result.decisions.len().max(1) as f64,
    );
    let stats = result.stats;
    let (early_match, early_nonmatch, early_possible) = stats.disposal_fractions();
    m.insert("matching.cache_hit_rate", stats.hit_rate());
    m.insert("matching.cache_misses", stats.cache_misses as f64);
    m.insert(
        "matching.kernel_bound_certs",
        stats.kernel_bound_certs as f64,
    );
    m.insert("decision.early_nonmatch_share", early_nonmatch);
    m.insert("decision.early_match_share", early_match);
    m.insert(
        "decision.exhausted_share",
        1.0 - early_match - early_nonmatch - early_possible,
    );

    let (_, closure_s) = sampled(tracer, "core.cluster.closure", || {
        let mut uf = UnionFind::new(n);
        for d in result.matches() {
            uf.union(d.pair.0, d.pair.1);
        }
        uf.clusters(2)
    });
    m.insert("core.cluster.closure_s", closure_s);

    let sharded = setup.bounded.sharded(4);
    let (outcome, shard_s) = tracer.time("core.shard.run", |_| sharded.run_with_stats(&sources));
    m.insert("core.shard.run_s", shard_s);
    match outcome {
        Ok((sharded_result, shard_stats)) => {
            ops.check(
                "sharded partition ≡ one-shot partition",
                sharded_result.clusters == result.clusters,
            );
            let (max, _) = shard_stats.skew();
            let mean = shard_stats.shard_candidates.iter().sum::<usize>() as f64
                / shard_stats.shards.max(1) as f64;
            m.insert("core.shard.skew", max as f64 / mean.max(1.0));
            m.insert(
                "core.shard.spilled_runs",
                shard_stats.sort.runs_spilled as f64,
            );
        }
        Err(_) => {
            ops.check("sharded run completes", false);
            m.insert("core.shard.skew", 0.0);
            m.insert("core.shard.spilled_runs", 0.0);
        }
    }

    // -- core::session, core::wal, core::snapshot -------------------------
    // A journal-less twin of the streamed session gives the per-batch
    // classify cost; the journaled stream's excess over it is the
    // journal's append + fsync.
    let (twin_batches, _) = tracer.time("core.session.ingest_twin", |t| {
        let mut twin = setup.bounded.session();
        corpus
            .batches
            .iter()
            .map(|batch| {
                let (step, secs) = t.time("core.session.ingest", |_| twin.ingest(batch));
                step.expect("twin ingest");
                secs
            })
            .collect::<Vec<f64>>()
    });
    m.insert("core.session.ingest_batch_p50_s", median(&twin_batches));
    m.insert(
        "core.session.ingest_batch_max_s",
        twin_batches.iter().copied().fold(0.0, f64::max),
    );
    let dir = scratch.dir("probe");
    let (streamed, _) = tracer.time("core.wal.stream", |t| stream_ingest(setup, w, &dir, t, ops));
    m.insert(
        "core.wal.append_s",
        streamed.batch_s.iter().sum::<f64>() - twin_batches.iter().sum::<f64>(),
    );
    m.insert("core.wal.bytes", streamed.wal_bytes as f64);
    m.insert("core.snapshot.save_s", streamed.save_s);
    m.insert(
        "model.snapshot.bytes",
        streamed.session.to_snapshot_bytes().len() as f64,
    );

    let (_, result_s) = sampled(tracer, "core.session.result", || streamed.session.result());
    m.insert("core.session.result_s", result_s);
    let rows = streamed.session.rows();
    let (_, classify_pair_s) = sampled(tracer, "core.session.classify_pair", || {
        (1..=10_000usize)
            .filter_map(|k| {
                let i = k % rows;
                let j = (i + 1 + (k * 7) % (rows - 1)) % rows;
                streamed.session.classify_pair(i, j)
            })
            .count()
    });
    m.insert(
        "core.session.classify_pair_us",
        classify_pair_s / 10_000.0 * 1e6,
    );

    streamed.append_torn_record();
    let (opened, open_s) = tracer.time("core.snapshot.open", |_| {
        DedupSession::open(&streamed.snap, &setup.bounded)
    });
    m.insert("core.snapshot.open_s", open_s);
    let mut reopened = opened.expect("open the probe's snapshot");
    let (replayed, replay_s) = tracer.time("core.wal.replay", |_| {
        SessionJournal::open_and_replay(&streamed.wal, &mut reopened)
    });
    ops.check(
        "probe replay covers the journal tail",
        replayed.is_ok_and(|(_, r)| r.replayed == streamed.tail_batches),
    );
    m.insert("core.wal.replay_s", replay_s);
    drop((reopened, streamed));

    // -- entity, eval ---------------------------------------------------
    let (graph, graph_s) = sampled(tracer, "entity.graph_build", || {
        let mut builder = MatchGraphBuilder::new(n);
        for d in &result.decisions {
            builder.add_decision(d);
        }
        builder.finish()
    });
    m.insert("entity.graph_build_s", graph_s);
    let mut repaired = None;
    for (name, strategy) in [
        ("entity.components_s", ClusterStrategy::Components),
        ("entity.greedy_s", ClusterStrategy::CorrelationGreedy),
        ("entity.repaired_s", ClusterStrategy::CorrelationRepaired),
    ] {
        let (res, secs) = sampled(tracer, name.trim_end_matches("_s"), || {
            resolve_graph(&graph, strategy)
        });
        m.insert(name, secs);
        repaired = Some(res);
    }
    let repaired = repaired.expect("three strategies resolved");
    m.insert("entity.repair_moves", repaired.stats.repair_moves as f64);
    m.insert(
        "entity.inconsistent_triangles",
        repaired.stats.inconsistent_triangles as f64,
    );
    let pairwise = pairwise_f1(&result, &truth_pairs);
    m.insert("eval.pairwise_precision", pairwise.precision);
    m.insert("eval.pairwise_recall", pairwise.recall);
    m.insert(
        "eval.entity_f1",
        ClusterMetrics::from_partitions(&repaired.clusters, &corpus.truth.true_clusters(), n)
            .pairwise
            .f1,
    );

    // -- serve: request latencies by class, all rounds of this run -------
    m.insert("serve.boot_s", setup.boot_s);
    m.insert("serve.seed_s", median(&latencies(input, Class::Seed)));
    let query = latencies(input, Class::Query);
    let partition = latencies(input, Class::Partition);
    let entities = latencies(input, Class::Entities);
    let ingest = latencies(input, Class::Ingest);
    m.insert("serve.query_p50_us", median(&query) * 1e6);
    m.insert("serve.query_p99_us", tail(&query, 0.99).0 * 1e6);
    m.insert("serve.partition_p50_ms", median(&partition) * 1e3);
    m.insert("serve.entities_p50_ms", median(&entities) * 1e3);
    m.insert(
        "serve.entities_memo_p50_ms",
        median(&latencies(input, Class::EntitiesMemo)) * 1e3,
    );
    m.insert("serve.ingest_p50_ms", median(&ingest) * 1e3);
    m.insert("serve.ingest_p99_ms", tail(&ingest, 0.99).0 * 1e3);
    let read_total: f64 = [&query, &partition, &entities]
        .iter()
        .flat_map(|c| c.iter())
        .sum();
    let stalled: f64 = [&query, &partition, &entities]
        .iter()
        .flat_map(|class| {
            let limit = STALL_FACTOR * median(class);
            class.iter().filter(move |&&s| s > limit)
        })
        .sum();
    m.insert(
        "serve.read_stall_share",
        stalled / read_total.max(f64::MIN_POSITIVE),
    );
    m.insert(
        "serve.http_overhead_share",
        1.0 - classify_pair_s / 10_000.0 / median(&query).max(f64::MIN_POSITIVE),
    );

    // -- the tracer's own cost ------------------------------------------
    // Per journey step, traced over untraced time, each side by the
    // faster of its two rounds; then the median over the steps, so that
    // one step hit by the host does not pass for tracing overhead.
    let step_s = |rounds: &[RoundSample], step: usize| -> f64 {
        rounds
            .iter()
            .map(|r| r.timings()[step].1)
            .fold(f64::INFINITY, f64::min)
    };
    let ratios: Vec<f64> = (0..7)
        .map(|step| {
            step_s(input.traced, step) / step_s(input.untraced, step).max(f64::MIN_POSITIVE)
        })
        .collect();
    m.insert("trace.overhead", median(&ratios));
    m
}
