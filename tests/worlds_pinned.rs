//! Golden vectors for `model::world::top_k_worlds` at sizes the exact
//! enumeration oracle (`crates/model/tests/properties.rs`) cannot reach.
//!
//! `tests/fixtures/worlds_pinned.txt` was recorded from the dense best-first
//! search this repository ran up to PR 17 (one n-vector per successor),
//! before the sparse search replaced it: the 24 most probable worlds of
//! four generated corpora under the benchmark's dirt profile
//! (`benchmark/src/workload.rs::generate_trimmed`, untrimmed), for both
//! `full_only` values. Two corpora sit below the `f64` underflow of
//! `World::probability` and two above it, where every probability is `0.0`
//! and the tie rule alone orders the worlds. By the prefix law
//! (`top_k_worlds(ts, k, f) == top_k_worlds(ts, K, f)[..k]`) every smaller
//! `k` is pinned with it.

use std::fmt::Write;

use probdedup::datagen::{generate, DatasetConfig, Dictionaries};
use probdedup::model::world::top_k_worlds;
use probdedup::model::xtuple::XTuple;

const K: usize = 24;

/// (entities, seed) of the pinned corpora.
const CORPORA: [(usize, u64); 4] = [(300, 1), (1000, 2), (1900, 1), (1900, 7)];

fn corpus(entities: usize, seed: u64) -> Vec<XTuple> {
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
            seed,
            ..DatasetConfig::default()
        },
    )
    .relations
    .iter()
    .flat_map(|r| r.xtuples().iter().cloned())
    .collect()
}

fn choice(c: Option<usize>) -> String {
    c.map_or_else(|| "-".to_string(), |a| a.to_string())
}

/// One header line per (corpus, `full_only`) — row count and an FNV-1a
/// hash of world 0's choices — then one line per world: its probability
/// bits and its delta against world 0 as `tuple:choice` (`-` = absent).
fn render() -> String {
    let mut out = String::new();
    for (entities, seed) in CORPORA {
        let tuples = corpus(entities, seed);
        for full_only in [true, false] {
            let worlds = top_k_worlds(&tuples, K, full_only);
            let modal = &worlds[0].choices;
            let hash = modal.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &c| {
                (h ^ c.map_or(0, |a| a as u64 + 1)).wrapping_mul(0x0100_0000_01b3)
            });
            writeln!(
                out,
                "case entities={entities} seed={seed} full_only={full_only} rows={} world0={hash:016x}",
                tuples.len()
            )
            .unwrap();
            for w in &worlds {
                write!(out, "{:016x}", w.probability.to_bits()).unwrap();
                for (i, (&c, &m)) in w.choices.iter().zip(modal).enumerate() {
                    if c != m {
                        write!(out, " {i}:{}", choice(c)).unwrap();
                    }
                }
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn top_24_worlds_are_pinned_on_both_sides_of_the_underflow() {
    let recorded = include_str!("fixtures/worlds_pinned.txt");
    let actual = render();
    for (line, (a, r)) in actual.lines().zip(recorded.lines()).enumerate() {
        assert_eq!(
            a,
            r,
            "line {} differs from the recorded selection",
            line + 1
        );
    }
    assert_eq!(actual.lines().count(), recorded.lines().count());

    // The fixture straddles the underflow: some world 0 is positive, some 0.0.
    let lines: Vec<&str> = recorded.lines().collect();
    let modal_bits: Vec<&str> = lines
        .windows(2)
        .filter(|w| w[0].starts_with("case "))
        .map(|w| w[1])
        .collect();
    assert_eq!(modal_bits.len(), 2 * CORPORA.len());
    assert!(modal_bits.contains(&"0000000000000000"));
    assert!(modal_bits.iter().any(|b| *b != "0000000000000000"));
}
