//! The Section V reduction frontier: every SNM and blocking adaptation of
//! the paper over one grid of settings and four generated corpora, each
//! point scored by the candidates it costs and the true duplicate pairs
//! it keeps (pairs completeness).
//!
//! ```text
//! cargo run -q --release --example reduction_frontier
//! ```
//!
//! The output carries no timings; ARCHITECTURE.md holds it verbatim. A
//! point is **dominated** when a kept strategy, at some setting, finds at
//! least as many true pairs from no more candidates. The example fails
//! unless every expected-score ranking and cluster-blocking point is
//! dominated and most-probable-key ranking emits the pairs of
//! most-probable-key conflict resolution, in the same order. Those facts
//! are why neither ranking nor clustering is a `ReductionStrategy`.

use std::process::ExitCode;

use probdedup::core::prepare::Preparation;
use probdedup::datagen::{generate, DatasetConfig, Dictionaries, GroundTruth};
use probdedup::model::relation::XRelation;
use probdedup::model::xtuple::XTuple;
use probdedup::reduction::{
    block_alternatives, block_conflict_resolved, block_multipass, cluster_blocking,
    conflict_resolved_snm, multipass_snm, ranked_snm, sorting_alternatives, CandidatePairs,
    ClusterBlockingConfig, ConflictResolution, KeyPart, KeySpec, RankingFunction, WorldSelection,
};

/// SNM windows of the grid; multi-pass SNM runs the ones up to 16.
const WINDOWS: [usize; 9] = [2, 3, 4, 6, 8, 12, 16, 24, 32];
const MULTIPASS_WINDOWS: [usize; 7] = [2, 3, 4, 6, 8, 12, 16];
const CLUSTER_KS: [usize; 3] = [8, 32, 128];
const RESOLUTIONS: [(&str, ConflictResolution); 2] = [
    ("mpa", ConflictResolution::MostProbableAlternative),
    ("mpk", ConflictResolution::MostProbableKey),
];
const SELECTIONS: [(&str, WorldSelection); 3] = [
    ("top-1", WorldSelection::TopK(1)),
    ("top-4", WorldSelection::TopK(4)),
    (
        "diverse-3/32",
        WorldSelection::DiverseTopK { k: 3, pool: 32 },
    ),
];

/// One grid point: a method at a setting, scored on one corpus.
struct Point {
    label: String,
    retired: bool,
    candidates: usize,
    found: usize,
    /// Order-independent fingerprint of the candidate set.
    set: u64,
}

/// The `generate` output of `cfg`, each of its two sources trimmed to
/// exactly `rows_per_source` rows, combined and prepared as the pipeline
/// prepares it.
fn corpus(mut cfg: DatasetConfig, rows_per_source: usize) -> (Vec<XTuple>, GroundTruth) {
    cfg.entities = rows_per_source + rows_per_source / 10 + 40;
    loop {
        let ds = generate(&Dictionaries::people(), &cfg);
        if ds.relations.iter().any(|r| r.len() < rows_per_source) {
            cfg.entities += cfg.entities / 16 + 8;
            continue;
        }
        let (mut combined, mut entity_of) = (XRelation::new(ds.schema.clone()), Vec::new());
        let mut offset = 0;
        for rel in &ds.relations {
            for (row, t) in rel.xtuples()[..rows_per_source].iter().enumerate() {
                combined.push(t.clone());
                entity_of.push(ds.truth.entity_of(offset + row));
            }
            offset += rel.len();
        }
        Preparation::standard_all(ds.schema.arity()).apply(&mut combined);
        return (combined.xtuples().to_vec(), GroundTruth::new(entity_of));
    }
}

/// Every grid point over `tuples`, in table row order.
fn frontier(tuples: &[XTuple], truth: &GroundTruth, key: &KeySpec) -> Vec<Point> {
    let mut points = Vec::new();
    let mut push = |label: String, retired, pairs: &CandidatePairs| {
        // `set` sums a multiplicative hash per packed pair: equal sets,
        // equal sums.
        let (found, set) = pairs
            .pairs()
            .iter()
            .fold((0, 0u64), |(found, set), &(i, j)| {
                let hash = (((i as u64) << 32) | j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (
                    found + usize::from(truth.is_duplicate(i, j)),
                    set.wrapping_add(hash),
                )
            });
        let candidates = pairs.len();
        points.push(Point {
            label,
            retired,
            candidates,
            found,
            set,
        });
    };
    for w in WINDOWS {
        let pairs = sorting_alternatives(tuples, key, w).pairs;
        push(format!("snm-alternatives w={w}"), false, &pairs);
    }
    for (name, resolution) in RESOLUTIONS {
        for w in WINDOWS {
            let pairs = conflict_resolved_snm(tuples, key, w, resolution).0;
            push(format!("snm-resolved {name} w={w}"), false, &pairs);
        }
    }
    for (name, selection) in SELECTIONS {
        for w in MULTIPASS_WINDOWS {
            let pairs = multipass_snm(tuples, key, w, selection).pairs;
            push(format!("snm-multipass {name} w={w}"), false, &pairs);
        }
    }
    let pairs = block_alternatives(tuples, key).pairs;
    push("blocking".to_string(), false, &pairs);
    for (name, resolution) in RESOLUTIONS {
        let pairs = block_conflict_resolved(tuples, key, resolution).pairs;
        push(format!("blocking-resolved {name}"), false, &pairs);
    }
    for (name, selection) in SELECTIONS {
        let pairs = block_multipass(tuples, key, selection).pairs;
        push(format!("blocking-multipass {name}"), false, &pairs);
    }
    for w in WINDOWS {
        let pairs = ranked_snm(tuples, key, w, RankingFunction::ExpectedScore).0;
        push(format!("snm-ranked expected w={w}"), true, &pairs);
    }
    for k in CLUSTER_KS {
        let config = ClusterBlockingConfig {
            k,
            ..ClusterBlockingConfig::default()
        };
        let pairs = cluster_blocking(tuples, key, &config).0;
        push(format!("cluster-blocking k={k}"), true, &pairs);
    }
    points
}

fn main() -> ExitCode {
    let key = KeySpec::new(vec![KeyPart::prefix(0, 3), KeyPart::prefix(2, 2)]);
    // The benchmark's dirt profile at three of its corpus sizes, and the
    // `probdedup generate` default profile.
    let bench = DatasetConfig {
        presence_rate: 0.85,
        extra_copy_rate: 0.1,
        typo_rate: 0.25,
        uncertainty_rate: 0.35,
        xtuple_rate: 0.25,
        maybe_rate: 0.2,
        seed: 1,
        ..DatasetConfig::default()
    };
    let generate_default = DatasetConfig {
        seed: 7,
        ..DatasetConfig::default()
    };
    let corpora = [
        ("match-full", corpus(bench.clone(), 330)),
        ("reduce-worlds", corpus(bench.clone(), 1700)),
        ("stream-small", corpus(bench, 2560)),
        ("generate s7", corpus(generate_default, 1000)),
    ];
    let grids: Vec<Vec<Point>> = corpora
        .iter()
        .map(|(_, (tuples, truth))| frontier(tuples, truth, &key))
        .collect();
    let mut failures = Vec::new();

    println!("Candidates / true pairs found (pairs completeness); key name[..3] + city[..2].");
    println!("A retired point names the cheapest kept point that dominates it.");
    println!();
    print!("| method |");
    for (name, (tuples, truth)) in &corpora {
        let (rows, true_pairs) = (tuples.len(), truth.true_pair_count());
        print!(" {name} ({rows} rows, {true_pairs} true pairs) |");
    }
    println!("\n|---|{}", "---|".repeat(corpora.len()));
    for row in 0..grids[0].len() {
        let retired = grids[0][row].retired;
        let mark = if retired { " (retired)" } else { "" };
        print!("| {}{mark} |", grids[0][row].label);
        for ((name, (_, truth)), grid) in corpora.iter().zip(&grids) {
            let p = &grid[row];
            let completeness = p.found as f64 / truth.true_pair_count() as f64;
            print!(" {} / {} ({completeness:.3})", p.candidates, p.found);
            if retired {
                let best = grid
                    .iter()
                    .filter(|k| !k.retired && k.candidates <= p.candidates && k.found >= p.found)
                    .min_by_key(|k| (k.candidates, std::cmp::Reverse(k.found)));
                match best {
                    Some(k) => print!(", dominated by {}", k.label),
                    None => failures.push(format!("{name}: {} is not dominated", p.label)),
                }
            }
            print!(" |");
        }
        println!();
    }

    let mut same_order = 0;
    for (name, (tuples, _)) in &corpora {
        for w in WINDOWS {
            let (ranked, _) = ranked_snm(tuples, &key, w, RankingFunction::MostProbableKey);
            let resolved = conflict_resolved_snm(tuples, &key, w, RESOLUTIONS[1].1).0;
            match ranked.pairs() == resolved.pairs() {
                true => same_order += 1,
                false => failures.push(format!("{name}: ranked mpk ≠ snm-resolved mpk, w={w}")),
            }
        }
    }

    // Findings handed on, each read against a twin row: multi-pass top-1
    // against mpa conflict resolution, more worlds against top-1, and mpk
    // against mpa.
    let (mut top1_identical, mut extra, mut mpk_wins) = (true, (0, 0), 0);
    for grid in &grids {
        let twin = |p: &Point, from: &str, to: &str| {
            let label = p.label.replace(from, to);
            grid.iter().find(|q| q.label == label).expect("twin row")
        };
        for p in grid {
            if p.label.contains("multipass top-1") {
                top1_identical &= p.set == twin(p, "multipass top-1", "resolved mpa").set;
            }
            for more in ["top-4", "diverse-3/32"] {
                if p.label.contains(more) {
                    let top1 = twin(p, more, "top-1");
                    extra.0 = extra.0.max(p.candidates - top1.candidates);
                    extra.1 = extra.1.max(p.found - top1.found);
                }
            }
            if p.label.contains("resolved mpk w=") {
                let mpa = twin(p, "mpk", "mpa");
                mpk_wins += usize::from(p.candidates <= mpa.candidates && p.found > mpa.found);
            }
        }
    }
    let points = grids.len() * WINDOWS.len();
    println!();
    println!(
        "- ranked_snm(MostProbableKey) emits the pairs of snm-resolved mpk, in the same order, \
         at {same_order} of {points} (corpus, window) points."
    );
    println!(
        "- Multi-pass top-1 has the candidate set of mpa conflict resolution (SNM at every \
         window, and blocking) on every corpus: {top1_identical}. top-4 and diverse-3/32 \
         add at most {} candidates and {} true pairs to it.",
        extra.0, extra.1
    );
    println!(
        "- snm-resolved mpk finds more true pairs than mpa from no more candidates at \
         {mpk_wins} of {points} (corpus, window) points."
    );

    for f in &failures {
        eprintln!("frontier check failed: {f}");
    }
    ExitCode::from(u8::from(!failures.is_empty()))
}
