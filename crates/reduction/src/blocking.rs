//! Blocking adapted to probabilistic data (Section V-B / Fig. 14).
//!
//! Blocking partitions tuples by key value and compares only within blocks.
//! Adaptations mirror the SNM ones: multi-pass over chosen worlds,
//! conflict-resolved certain keys, and **per-alternative block insertion**
//! (an x-tuple joins one block per alternative key; duplicate entries of
//! the same tuple within one block are removed, and repeated matchings
//! across blocks are suppressed — Fig. 14's walkthrough).
//!
//! A block is a **run of equal keys** in the `(rank, tuple)`-sorted entry
//! list SNM already keeps (`for_each_block`): blocking and SNM share the
//! list and differ only in what they emit from it — every pair of a run,
//! or every pair within a window. The two world-independent adaptations
//! are the warm [`IncrementalSnm`] under run emission:
//! [`block_alternatives`] and [`block_conflict_resolved`] feed a fresh
//! state once and read its pairs and its Fig. 14 block view. Multi-pass
//! blocking is a run sink over the world passes of [`crate::multipass`].
//!
//! Keys are **interned key symbols** ([`KeySymbol`]) sorted by integer
//! rank, so symbol equality *is* key equality and runs come out in
//! sorted-key order, members ascending — results are byte-for-byte
//! identical to the string-keyed oracles kept test-only in
//! `src/interned_oracle.rs`.

use std::collections::BTreeMap;

use probdedup_model::intern::KeySymbol;
use probdedup_model::xtuple::XTuple;

use crate::conflict::ConflictResolution;
use crate::incremental::{IncrementalSnm, Keying};
use crate::key::{KeySpec, KeyTable};
use crate::multipass::{for_each_world_pass, WorldSelection};
use crate::pairs::CandidatePairs;
use crate::snm::InternedSnmEntry;

/// Result of a blocking run: candidate pairs plus the blocks themselves
/// (deterministically ordered by key) for inspection and figures.
#[derive(Debug, Clone)]
pub struct BlockingResult {
    /// Candidate pairs (each matching executed once).
    pub pairs: CandidatePairs,
    /// Block key → member tuple indices (first-insertion order, deduped).
    pub blocks: BTreeMap<String, Vec<usize>>,
}

/// The tuples of `run`, a run of equal keys of a sorted entry list, into
/// `members`: ascending, each once ("if an x-tuple is allocated to a
/// single block for multiple times, except for one, all entries of this
/// tuple are removed" — Fig. 14). Entries sort by `(rank, tuple)`, so a
/// tuple's repeats within a run are adjacent.
pub(crate) fn run_members(run: &[InternedSnmEntry], members: &mut Vec<usize>) {
    members.clear();
    members.extend(run.iter().map(|e| e.tuple));
    members.dedup();
}

/// The blocks of a sorted entry list: every maximal run of equal keys, in
/// list (sorted-key) order, as `f(key, members)` with the members of
/// [`run_members`].
pub(crate) fn for_each_block(entries: &[InternedSnmEntry], mut f: impl FnMut(KeySymbol, &[usize])) {
    let mut members = Vec::new();
    for run in entries.chunk_by(|a, b| a.key == b.key) {
        run_members(run, &mut members);
        f(run[0].key, &members);
    }
}

/// All within-block pairs of one block, in member order.
pub(crate) fn emit_block_pairs(members: &[usize], pairs: &mut CandidatePairs) {
    for (a, &i) in members.iter().enumerate() {
        for &j in members.iter().skip(a + 1) {
            pairs.insert(i, j);
        }
    }
}

/// A fresh run-emitting [`IncrementalSnm`] fed `tuples` once: its pairs
/// and blocks.
fn block_once(tuples: &[XTuple], spec: &KeySpec, keying: Keying) -> BlockingResult {
    let mut state = IncrementalSnm::blocking(spec.clone(), keying);
    state.ingest(tuples, 0);
    BlockingResult {
        pairs: state.current_pairs(tuples.len()),
        blocks: state.blocks(),
    }
}

/// Blocking with **alternative key values** (Fig. 14): one block entry per
/// alternative key of each x-tuple. Output is byte-identical to the
/// string-key oracle (property-tested in `src/interned_oracle.rs`).
pub fn block_alternatives(tuples: &[XTuple], spec: &KeySpec) -> BlockingResult {
    block_once(tuples, spec, Keying::PerAlternative)
}

/// Blocking over **conflict-resolved certain keys** (Section V-B: "conflict
/// resolution strategies can be used to produce certain key values; in this
/// case, blocking can be performed as usual").
pub fn block_conflict_resolved(
    tuples: &[XTuple],
    spec: &KeySpec,
    strategy: ConflictResolution,
) -> BlockingResult {
    block_once(tuples, spec, Keying::Resolved(strategy))
}

/// Multi-pass blocking over selected possible worlds ("a multi-pass over
/// some finely chosen worlds seems to be an option"). Pairs are unioned;
/// the returned blocks are those of the **first** pass (for inspection).
/// The [`KeyTable`] is built once; every pass is then a rank sort.
pub fn block_multipass(
    tuples: &[XTuple],
    spec: &KeySpec,
    selection: WorldSelection,
) -> BlockingResult {
    // Per-alternative keys are world-independent; intern them once instead
    // of once per (world, tuple).
    let table = spec.key_table(tuples);
    let mut pairs = CandidatePairs::new(tuples.len());
    let mut blocks = BTreeMap::new();
    let mut first = true;
    for_each_world_pass(tuples, &table, selection, |_, entries| {
        for_each_block(entries, |key, members| {
            emit_block_pairs(members, &mut pairs);
            if first {
                blocks.insert(table.resolve(key).to_string(), members.to_vec());
            }
        });
        first = false;
    });
    BlockingResult { pairs, blocks }
}

/// [`block_multipass`] with a caller-supplied [`KeyTable`] and without the
/// first-pass inspection view — the lean path persistent sessions use: the
/// table (extended incrementally as tuples arrive) already holds every
/// alternative's key symbol, and may cover rows past `tuples`, which are
/// left out. Pair output is identical to [`block_multipass`] over `tuples`
/// (per-world sorted-key order).
pub fn block_multipass_with_table(
    tuples: &[XTuple],
    table: &KeyTable,
    selection: WorldSelection,
) -> CandidatePairs {
    let mut pairs = CandidatePairs::new(tuples.len());
    for_each_world_pass(tuples, table, selection, |_, entries| {
        for_each_block(entries, |_, members| emit_block_pairs(members, &mut pairs));
    });
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interned_oracle::{
        block_alternatives_oracle, block_conflict_resolved_oracle, block_multipass_oracle,
    };
    use probdedup_model::pvalue::PValue;
    use probdedup_model::schema::Schema;
    use probdedup_model::value::Value;

    /// ℛ34 with indices 0=t31, 1=t32, 2=t41, 3=t42, 4=t43.
    fn r34() -> Vec<XTuple> {
        let s = Schema::new(["name", "job"]);
        let mu = PValue::uniform(["musician", "museum guide"]).unwrap();
        vec![
            XTuple::builder(&s)
                .alt(0.7, ["John", "pilot"])
                .alt_pvalues(0.3, [PValue::certain("Johan"), mu])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.3, ["Tim", "mechanic"])
                .alt(0.2, ["Jim", "mechanic"])
                .alt(0.4, ["Jim", "baker"])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.8, ["John", "pilot"])
                .alt(0.2, ["Johan", "pianist"])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.8, ["Tom", "mechanic"])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.2, [Value::from("John"), Value::Null])
                .alt(0.6, ["Sean", "pilot"])
                .build()
                .unwrap(),
        ]
    }

    /// Fig. 14's blocking key: first character of the name + first
    /// character of the job.
    fn fig14_spec() -> KeySpec {
        KeySpec::new(vec![
            crate::key::KeyPart::prefix(0, 1),
            crate::key::KeyPart::prefix(1, 1),
        ])
    }

    /// Fig. 14 on ℛ34: per-alternative blocking partitions the tuples into
    /// blocks JP, JM(=Jm?), TM, JB, J, SP. The figure's tuple labels use an
    /// inconsistent naming (t21/t22/t33); on ℛ3 ∪ ℛ4 as drawn in Fig. 5 the
    /// blocks and matchings below result.
    #[test]
    fn fig14_blocks_and_matchings() {
        let tuples = r34();
        let r = block_alternatives(&tuples, &fig14_spec());
        // Alternative keys: t31 → JP, Jm; t32 → Tm, Jm, Jb; t41 → JP, Jp;
        // t42 → Tm; t43 → J (⊥ job), Sp.
        // (case matters: "Jp" from (Johan, pianist) vs "JP"? — both render
        // "Jp"/"Jp": first char of "John"='J', of "pilot"='p' → "Jp".)
        let expect_blocks: Vec<(&str, Vec<usize>)> = vec![
            ("J", vec![4]),     // (John, ⊥)
            ("Jb", vec![1]),    // (Jim, baker)
            ("Jm", vec![0, 1]), // (Johan, mu*), (Jim, mechanic)
            ("Jp", vec![0, 2]), // (John, pilot) of t31 and t41
            ("Sp", vec![4]),    // (Sean, pilot)
            ("Tm", vec![1, 3]), // (Tim, mechanic), (Tom, mechanic)
        ];
        let got: Vec<(&str, Vec<usize>)> = r
            .blocks
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        assert_eq!(got, expect_blocks);
        // Three matchings result (as in the paper's count): (t31,t32) from
        // block Jm, (t31,t41) from Jp, (t32,t42) from Tm.
        assert_eq!(r.pairs.pairs(), &[(0, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn duplicate_block_membership_removed() {
        // t41's two alternatives both key "Jp" under Fig. 14's key: the
        // tuple must appear in that block once.
        let tuples = r34();
        let r = block_alternatives(&tuples, &fig14_spec());
        assert_eq!(r.blocks["Jp"].iter().filter(|&&t| t == 2).count(), 1);
    }

    #[test]
    fn conflict_resolved_blocking() {
        let tuples = r34();
        let r = block_conflict_resolved(
            &tuples,
            &fig14_spec(),
            ConflictResolution::MostProbableAlternative,
        );
        // Most probable alternatives: t31 (John,pilot) → Jp;
        // t32 (Jim,baker) → Jb; t41 (John,pilot) → Jp; t42 (Tom,mechanic)
        // → Tm; t43 (Sean,pilot) → Sp.
        assert_eq!(r.pairs.pairs(), &[(0, 2)]);
        // Every tuple appears in exactly one block.
        let total: usize = r.blocks.values().map(Vec::len).sum();
        assert_eq!(total, tuples.len());
    }

    #[test]
    fn conflict_resolved_is_subset_of_alternatives() {
        let tuples = r34();
        let alts = block_alternatives(&tuples, &fig14_spec());
        let resolved = block_conflict_resolved(
            &tuples,
            &fig14_spec(),
            ConflictResolution::MostProbableAlternative,
        );
        for &(i, j) in resolved.pairs.pairs() {
            assert!(alts.pairs.contains(i, j));
        }
    }

    #[test]
    fn multipass_blocking_unions_worlds() {
        let tuples = r34();
        let all = block_multipass(&tuples, &fig14_spec(), WorldSelection::All { limit: 1000 });
        let one = block_multipass(&tuples, &fig14_spec(), WorldSelection::TopK(1));
        assert!(one.pairs.len() <= all.pairs.len());
        for &(i, j) in one.pairs.pairs() {
            assert!(all.pairs.contains(i, j));
        }
        let diverse = block_multipass(
            &tuples,
            &fig14_spec(),
            WorldSelection::DiverseTopK { k: 3, pool: 24 },
        );
        for &(i, j) in diverse.pairs.pairs() {
            assert!(all.pairs.contains(i, j));
        }
    }

    #[test]
    fn empty_input() {
        let r = block_alternatives(&[], &fig14_spec());
        assert!(r.pairs.is_empty());
        assert!(r.blocks.is_empty());
    }

    #[test]
    fn repeated_alternative_keys_in_a_large_block_stay_deduped() {
        // Many same-key tuples, each with two identical alternative keys
        // (a duplicate entry per tuple in one long run): every tuple joins
        // the block once, in insertion order.
        let s = Schema::new(["name", "job"]);
        let n = 48;
        let tuples: Vec<XTuple> = (0..n)
            .map(|_| {
                XTuple::builder(&s)
                    .alt(0.5, ["John", "pilot"])
                    .alt(0.5, ["Johan", "pianist"]) // same "Jp" key
                    .build()
                    .unwrap()
            })
            .collect();
        let r = block_alternatives(&tuples, &fig14_spec());
        assert_eq!(r.blocks.len(), 1);
        let members = &r.blocks["Jp"];
        assert_eq!(members.len(), n, "duplicates crept in: {members:?}");
        assert_eq!(*members, (0..n).collect::<Vec<_>>());
        assert_eq!(r.pairs.len(), n * (n - 1) / 2);
    }

    #[test]
    fn interned_blocking_matches_oracles() {
        let tuples = r34();
        let spec = fig14_spec();
        let (a, b) = (
            block_alternatives(&tuples, &spec),
            block_alternatives_oracle(&tuples, &spec),
        );
        assert_eq!(a.pairs.pairs(), b.pairs.pairs());
        assert_eq!(a.blocks, b.blocks);
        for strategy in [
            ConflictResolution::MostProbableAlternative,
            ConflictResolution::MostProbableKey,
            ConflictResolution::FirstAlternative,
        ] {
            let (a, b) = (
                block_conflict_resolved(&tuples, &spec, strategy),
                block_conflict_resolved_oracle(&tuples, &spec, strategy),
            );
            assert_eq!(a.pairs.pairs(), b.pairs.pairs(), "{strategy:?}");
            assert_eq!(a.blocks, b.blocks, "{strategy:?}");
        }
        for selection in [
            WorldSelection::All { limit: 100 },
            WorldSelection::TopK(3),
            WorldSelection::DiverseTopK { k: 3, pool: 24 },
        ] {
            let (a, b) = (
                block_multipass(&tuples, &spec, selection),
                block_multipass_oracle(&tuples, &spec, selection),
            );
            // Both emit per-world pairs in sorted-key order, so even the
            // first-insertion order agrees.
            assert_eq!(a.pairs.pairs(), b.pairs.pairs(), "{selection:?}");
            assert_eq!(a.blocks, b.blocks, "{selection:?}");
        }
    }
}
