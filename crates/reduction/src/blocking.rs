//! Blocking adapted to probabilistic data (Section V-B / Fig. 14).
//!
//! Blocking partitions tuples by key value and compares only within blocks.
//! Adaptations mirror the SNM ones: multi-pass over chosen worlds,
//! conflict-resolved certain keys, and **per-alternative block insertion**
//! (an x-tuple joins one block per alternative key; duplicate entries of
//! the same tuple within one block are removed, and repeated matchings
//! across blocks are suppressed — Fig. 14's walkthrough).
//!
//! Each adaptation is one **block visitor** — [`for_each_alternative_block`],
//! [`for_each_conflict_resolved_block`], [`for_each_multipass_block`] (the
//! family's only loop over the selected worlds) — handing a sink every
//! block as `(key, members)` in sorted-key order. The [`BlockingResult`]
//! functions are sinks that emit within-block pairs and keep the Fig. 14
//! inspection view.
//!
//! **Multi-pass** and conflict-resolved blocking assemble blocks in a
//! `BlockMap` keyed on **interned key symbols** ([`KeySymbol`]): the
//! [`KeyTable`] built up front renders each distinct `(value, prefix)`
//! once, and every insertion afterwards is a single integer-keyed hash
//! probe — symbol equality *is* key equality. **Per-alternative** blocking
//! takes a string-keyed direct path instead (see
//! [`for_each_alternative_block`]). Per-block membership stays O(1) either
//! way via a small-vec scan that spills into an `FxHashSet` past a handful
//! of members. Blocks are visited in sorted-key order, so results remain
//! byte-for-byte identical across all implementations — the string-keyed
//! originals are retained test-only as the property-tested oracles
//! (`src/interned_oracle.rs`).

use std::collections::BTreeMap;

use probdedup_model::intern::{KeyPool, KeySymbol};
use probdedup_model::util::{FxHashMap, FxHashSet};
use probdedup_model::xtuple::XTuple;

use crate::conflict::{resolved_key_symbols, ConflictResolution};
use crate::key::{KeySpec, KeyTable};
use crate::multipass::{select_worlds, WorldSelection};
use crate::pairs::CandidatePairs;

/// Result of a blocking run: candidate pairs plus the blocks themselves
/// (deterministically ordered by key) for inspection and figures.
#[derive(Debug, Clone)]
pub struct BlockingResult {
    /// Candidate pairs (each matching executed once).
    pub pairs: CandidatePairs,
    /// Block key → member tuple indices (first-insertion order, deduped).
    pub blocks: BTreeMap<String, Vec<usize>>,
}

impl BlockingResult {
    fn new(n_tuples: usize) -> Self {
        Self {
            pairs: CandidatePairs::new(n_tuples),
            blocks: BTreeMap::new(),
        }
    }

    /// The inspecting sink: emit the block's pairs and keep it in the view.
    fn push_block(&mut self, key: &str, members: &[usize]) {
        emit_block_pairs(members, &mut self.pairs);
        self.blocks.insert(key.to_string(), members.to_vec());
    }
}

/// Members beyond which a block's membership test spills from a linear
/// small-vec scan into a hash set.
const SPILL_THRESHOLD: usize = 16;

/// One block under construction: members in first-insertion order and
/// (for large blocks) a spill set for O(1) membership tests. Shared with
/// the incremental blocking state of [`crate::incremental`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Block {
    members: Vec<usize>,
    spill: Option<FxHashSet<usize>>,
}

impl Block {
    /// The members in first-insertion order.
    pub(crate) fn members(&self) -> &[usize] {
        &self.members
    }

    /// Insert `tuple` unless already present ("if an x-tuple is allocated
    /// to a single block for multiple times, except for one, all entries of
    /// this tuple are removed" — Fig. 14). O(1): small blocks scan ≤
    /// [`SPILL_THRESHOLD`] entries, larger ones consult the spill set.
    pub(crate) fn insert(&mut self, tuple: usize) {
        match &mut self.spill {
            Some(set) => {
                if set.insert(tuple) {
                    self.members.push(tuple);
                }
            }
            None => {
                if !self.members.contains(&tuple) {
                    self.members.push(tuple);
                    if self.members.len() > SPILL_THRESHOLD {
                        self.spill = Some(self.members.iter().copied().collect());
                    }
                }
            }
        }
    }
}

/// Symbol-keyed block accumulator (see the module docs). Insertion is one
/// integer hash probe; key strings only appear when the blocks are visited.
#[derive(Debug, Clone, Default)]
struct BlockMap {
    slots: FxHashMap<KeySymbol, Block>,
}

impl BlockMap {
    /// Insert `tuple` into the block of `key` (creating the block on first
    /// sight of the key symbol).
    fn insert(&mut self, key: KeySymbol, tuple: usize) {
        self.slots.entry(key).or_default().insert(tuple);
    }

    /// Visit the blocks in sorted-key order (resolving symbols against
    /// `keys` — no rendering, no allocation per key).
    fn visit_sorted(self, keys: &KeyPool, f: impl FnMut(&str, &[usize])) {
        visit_sorted_blocks(
            self.slots
                .into_iter()
                .map(|(key, block)| (keys.resolve(key), block.members))
                .collect(),
            f,
        );
    }
}

/// The sorted-key block visitor every adaptation ends in: `f` sees each
/// `(key, members)` once, in lexicographic key order — the order all
/// implementations (and the string oracles) emit pairs in.
fn visit_sorted_blocks(mut blocks: Vec<(&str, Vec<usize>)>, mut f: impl FnMut(&str, &[usize])) {
    blocks.sort_unstable_by(|a, b| a.0.cmp(b.0));
    for (key, members) in &blocks {
        f(key, members);
    }
}

/// All within-block pairs of one block, in member order — what the
/// pair-collecting sinks do with a visited block.
pub(crate) fn emit_block_pairs(members: &[usize], pairs: &mut CandidatePairs) {
    for (a, &i) in members.iter().enumerate() {
        for &j in members.iter().skip(a + 1) {
            pairs.insert(i, j);
        }
    }
}

/// Visit the blocks of blocking with **alternative key values** (Fig. 14):
/// one block entry per alternative key of each x-tuple.
///
/// This is the **hash-dedup'd single-pass path**: each alternative's key is
/// rendered exactly once and resolved to its block with **one** hash probe
/// on the key string — no `ValuePool`/`KeyPool` maintenance at all. On a
/// single pass over mostly-distinct keys the interning layer never
/// amortizes (it was measured ~2.4× slower than direct rendering on the
/// typo-heavy synthetic workload), so single-pass blocking bypasses it.
/// Multi-pass blocking keeps the interned [`KeyTable`] — there the table
/// is reused across passes and pays for itself.
pub fn for_each_alternative_block(
    tuples: &[XTuple],
    spec: &KeySpec,
    f: impl FnMut(&str, &[usize]),
) {
    // Key string → index into `blocks`, one probe per alternative.
    let mut ids: FxHashMap<String, usize> = FxHashMap::default();
    ids.reserve(tuples.len());
    let mut blocks: Vec<Block> = Vec::with_capacity(tuples.len());
    for (i, t) in tuples.iter().enumerate() {
        for key in spec.alternative_keys(t) {
            let next = blocks.len();
            let id = *ids.entry(key).or_insert(next);
            if id == next {
                blocks.push(Block::default());
            }
            blocks[id].insert(i);
        }
    }
    visit_sorted_blocks(
        ids.iter()
            .map(|(key, &id)| (key.as_str(), std::mem::take(&mut blocks[id].members)))
            .collect(),
        f,
    );
}

/// Visit the blocks of blocking over **conflict-resolved certain keys**:
/// every tuple joins the one block of its resolved key.
pub fn for_each_conflict_resolved_block(
    tuples: &[XTuple],
    spec: &KeySpec,
    strategy: ConflictResolution,
    f: impl FnMut(&str, &[usize]),
) {
    let (keys, syms) = resolved_key_symbols(tuples, spec, strategy);
    let mut map = BlockMap::default();
    for (i, &key) in syms.iter().enumerate() {
        map.insert(key, i);
    }
    map.visit_sorted(&keys, f);
}

/// The loop over the selected worlds — the only one the blocking family
/// has: resolve `selection` (which worlds, in which order, at what cost:
/// [`top_k_worlds`](probdedup_model::world::top_k_worlds)), and per world
/// (pass `0, 1, …` in selection order) bucket every tuple under its chosen
/// alternative's key symbol off `table` and visit that world's blocks in
/// sorted-key order as `f(pass, key, members)`. Pure integer work per
/// pass — zero key renders, which the reduction property tests assert via
/// [`KeyTable::render_count`]. `table` must cover `tuples`.
pub fn for_each_multipass_block(
    tuples: &[XTuple],
    table: &KeyTable,
    selection: WorldSelection,
    mut f: impl FnMut(usize, &str, &[usize]),
) {
    debug_assert_eq!(tuples.len(), table.len(), "table must cover the corpus");
    for (pass, world) in select_worlds(tuples, selection).iter().enumerate() {
        let mut map = BlockMap::default();
        for i in 0..table.len() {
            let alt = world.choices[i].expect("full world");
            map.insert(table.alternative_keys(i)[alt], i);
        }
        map.visit_sorted(table.key_pool(), |key, members| f(pass, key, members));
    }
}

/// Blocking with **alternative key values** (Fig. 14): the pairs and block
/// view of [`for_each_alternative_block`]. Output is byte-identical to the
/// string-key oracle (property-tested in `src/interned_oracle.rs`).
pub fn block_alternatives(tuples: &[XTuple], spec: &KeySpec) -> BlockingResult {
    let mut result = BlockingResult::new(tuples.len());
    for_each_alternative_block(tuples, spec, |key, members| result.push_block(key, members));
    result
}

/// Blocking over **conflict-resolved certain keys** (Section V-B: "conflict
/// resolution strategies can be used to produce certain key values; in this
/// case, blocking can be performed as usual").
pub fn block_conflict_resolved(
    tuples: &[XTuple],
    spec: &KeySpec,
    strategy: ConflictResolution,
) -> BlockingResult {
    let mut result = BlockingResult::new(tuples.len());
    for_each_conflict_resolved_block(tuples, spec, strategy, |key, members| {
        result.push_block(key, members)
    });
    result
}

/// Multi-pass blocking over selected possible worlds ("a multi-pass over
/// some finely chosen worlds seems to be an option"). Pairs are unioned;
/// the returned blocks are those of the **first** pass (for inspection).
/// The [`KeyTable`] is built once; every pass is then
/// [`for_each_multipass_block`]'s integer bucketing.
pub fn block_multipass(
    tuples: &[XTuple],
    spec: &KeySpec,
    selection: WorldSelection,
) -> BlockingResult {
    // Per-alternative keys are world-independent; intern them once instead
    // of once per (world, tuple).
    let table = spec.key_table(tuples);
    let mut result = BlockingResult::new(tuples.len());
    for_each_multipass_block(tuples, &table, selection, |pass, key, members| {
        if pass == 0 {
            result.push_block(key, members);
        } else {
            emit_block_pairs(members, &mut result.pairs);
        }
    });
    result
}

/// [`block_multipass`] with a caller-supplied [`KeyTable`] and without the
/// first-pass inspection view — the lean path persistent sessions use: the
/// table (extended incrementally as tuples arrive) already holds every
/// alternative's key symbol. Pair output is identical to
/// [`block_multipass`] (per-world sorted-key order).
pub fn block_multipass_with_table(
    tuples: &[XTuple],
    table: &KeyTable,
    selection: WorldSelection,
) -> CandidatePairs {
    let mut pairs = CandidatePairs::new(tuples.len());
    for_each_multipass_block(tuples, table, selection, |_, _, members| {
        emit_block_pairs(members, &mut pairs)
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
    fn large_block_membership_spills_and_stays_deduped() {
        // Enough same-key tuples to cross SPILL_THRESHOLD, each with two
        // identical alternative keys (forcing a duplicate insertion per
        // tuple): membership must stay deduped across the spill boundary
        // and insertion order preserved.
        let s = Schema::new(["name", "job"]);
        let n = 3 * SPILL_THRESHOLD;
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
