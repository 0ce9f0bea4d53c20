//! The names this benchmark prints: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repo root repeats these tables for the driver; a unit test keeps
//! the two equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system waits or pays for.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric (no bound: it explains, it does not gate).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

/// Every workload reports all of these (`--trace 0`).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("dedup_bounded_s", "s", Lower, 0.25),
    e2e("dedup_exact_s", "s", Lower, 0.25),
    e2e("entities_s", "s", Lower, 0.25),
    e2e("ingest_s", "s", Lower, 0.25),
    e2e("recover_s", "s", Lower, 0.25),
    e2e("serve_read_s", "s", Lower, 0.25),
    e2e("serve_write_s", "s", Lower, 0.25),
    e2e("peak_rss_bytes", "B", Lower, 0.10),
    // A share of a value below 1, so at most 0.005 absolute.
    e2e("pairwise_f1", "ratio", Higher, 0.005),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The traced run (`--trace 1`) reports all of these. A layer is a crate
/// or module of the repo; the prefix of each name says which.
pub const PER_LAYER: &[PerLayer] = &[
    layer("model.format.parse_s", "s", Lower),
    layer("model.format.bytes", "B", Lower),
    layer("model.world.top_k_s", "s", Lower),
    layer("model.world.rss_delta_bytes", "B", Lower),
    layer("model.snapshot.bytes", "B", Lower),
    layer("textsim.jw_evals_per_s", "1/s", Higher),
    layer("textsim.jw_within_evals_per_s", "1/s", Higher),
    layer("matching.intern_s", "s", Lower),
    layer("matching.interned_values", "count", Lower),
    layer("matching.compare_exact_s", "s", Lower),
    layer("matching.compare_bounded_s", "s", Lower),
    layer("matching.cache_hit_rate", "ratio", Higher),
    layer("matching.cache_misses", "count", Lower),
    layer("matching.kernel_bound_certs", "count", Higher),
    layer("decision.classify_s", "s", Lower),
    layer("decision.early_nonmatch_share", "ratio", Higher),
    layer("decision.early_match_share", "ratio", Higher),
    layer("decision.exhausted_share", "ratio", Lower),
    layer("reduction.keytable_s", "s", Lower),
    layer("reduction.key_renders", "count", Lower),
    layer("reduction.candidates_s", "s", Lower),
    layer("reduction.candidates", "count", Lower),
    layer("reduction.pairs_completeness", "ratio", Higher),
    layer("reduction.reduction_ratio", "ratio", Higher),
    layer("core.prepare_s", "s", Lower),
    layer("core.classify_rest_s", "s", Lower),
    layer("core.dedup_bounded_1t_s", "s", Lower),
    layer("core.dedup_exact_1t_s", "s", Lower),
    layer("core.exec.speedup_2t", "ratio", Higher),
    layer("core.cluster.closure_s", "s", Lower),
    layer("core.result_bytes_per_pair", "B", Lower),
    layer("core.session.ingest_batch_p50_s", "s", Lower),
    layer("core.session.ingest_batch_max_s", "s", Lower),
    layer("core.session.result_s", "s", Lower),
    layer("core.session.classify_pair_us", "us", Lower),
    layer("core.wal.append_s", "s", Lower),
    layer("core.wal.bytes", "B", Lower),
    layer("core.wal.replay_s", "s", Lower),
    layer("core.snapshot.save_s", "s", Lower),
    layer("core.snapshot.open_s", "s", Lower),
    layer("core.shard.run_s", "s", Lower),
    layer("core.shard.skew", "ratio", Lower),
    layer("core.shard.spilled_runs", "count", Lower),
    layer("entity.graph_build_s", "s", Lower),
    layer("entity.components_s", "s", Lower),
    layer("entity.greedy_s", "s", Lower),
    layer("entity.repaired_s", "s", Lower),
    layer("entity.repair_moves", "count", Lower),
    layer("entity.inconsistent_triangles", "count", Lower),
    layer("eval.pairwise_precision", "ratio", Higher),
    layer("eval.pairwise_recall", "ratio", Higher),
    layer("eval.entity_f1", "ratio", Higher),
    layer("serve.boot_s", "s", Lower),
    layer("serve.seed_s", "s", Lower),
    layer("serve.query_p50_us", "us", Lower),
    layer("serve.query_p99_us", "us", Lower),
    layer("serve.partition_p50_ms", "ms", Lower),
    layer("serve.entities_p50_ms", "ms", Lower),
    layer("serve.entities_memo_p50_ms", "ms", Lower),
    layer("serve.ingest_p50_ms", "ms", Lower),
    layer("serve.ingest_p99_ms", "ms", Lower),
    layer("serve.read_stall_share", "ratio", Lower),
    layer("serve.http_overhead_share", "ratio", Lower),
    layer("trace.overhead", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(well_formed(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(!well_formed("-x") && !well_formed("a b") && !well_formed(""));
    }

    #[test]
    fn counts_stay_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.unit.len() <= 16);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        // The contract asks for set-up to carry the largest bound.
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// `BENCHMARK.json` must list exactly what this crate prints.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("array")
                .to_vec()
        };
        let field = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("string field {key}"))
                .to_string()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.name());
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.name());
        }
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert_eq!(seconds, crate::workload::RUN_SECONDS as f64);
        assert_eq!(list("paths"), vec![Json::Str("benchmark".to_string())]);
    }
}
