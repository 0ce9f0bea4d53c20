//! Blocking adapted to probabilistic data (Section V-B / Fig. 14).
//!
//! Blocking partitions tuples by key value and compares only within blocks.
//! Adaptations mirror the SNM ones: multi-pass over chosen worlds,
//! conflict-resolved certain keys, and **per-alternative block insertion**
//! (an x-tuple joins one block per alternative key; duplicate entries of
//! the same tuple within one block are removed, and repeated matchings
//! across blocks are suppressed — Fig. 14's walkthrough).
//!
//! **Multi-pass** blocking assembles blocks in a `BlockMap` keyed on
//! **interned key symbols** ([`KeySymbol`]): the
//! [`KeyTable`](crate::key::KeyTable) built up front renders each
//! distinct `(value, prefix)` once, and every insertion afterwards is a
//! single integer-keyed hash probe — no key string is rendered, hashed or
//! compared on the hot path, and no collision chain is needed because
//! symbol equality *is* key equality. **Single-pass** blocking
//! ([`block_alternatives`]) instead takes the hash-dedup'd direct path:
//! with every key seen essentially once, interner maintenance never
//! amortizes, so each rendered key is resolved to its block with one
//! string-keyed hash probe and no pools are built at all. Per-block
//! membership stays O(1) either way via a small-vec scan that spills into
//! an `FxHashSet` past a handful of members. The sorted
//! `BTreeMap<String, Vec<usize>>` inspection view that figures and tests
//! consume is materialized once at the end, and candidate pairs are
//! emitted in sorted-key order, so results remain byte-for-byte identical
//! across all implementations — the string-keyed originals are retained
//! test-only as the property-tested oracles (`src/interned_oracle.rs`).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, Write};
use std::path::PathBuf;

use probdedup_model::intern::{KeyPool, KeySymbol};
use probdedup_model::util::{FxHashMap, FxHashSet};
use probdedup_model::xtuple::XTuple;

use crate::conflict::{resolved_key_symbols, ConflictResolution};
use crate::key::KeySpec;
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
/// integer hash probe; key strings only appear when a sorted inspection
/// view is materialized.
#[derive(Debug, Clone, Default)]
struct BlockMap {
    slots: probdedup_model::util::FxHashMap<KeySymbol, Block>,
}

impl BlockMap {
    /// Insert `tuple` into the block of `key` (creating the block on first
    /// sight of the key symbol).
    fn insert(&mut self, key: KeySymbol, tuple: usize) {
        self.slots.entry(key).or_default().insert(tuple);
    }

    /// The blocks in deterministic sorted-key order (resolving symbols for
    /// the comparison only — no rendering, no allocation).
    fn sorted_blocks(self, keys: &KeyPool) -> Vec<(KeySymbol, Block)> {
        let mut blocks: Vec<(KeySymbol, Block)> = self.slots.into_iter().collect();
        blocks.sort_unstable_by(|a, b| keys.resolve(a.0).cmp(keys.resolve(b.0)));
        blocks
    }

    /// Emit all within-block pairs in sorted-key order (matching the
    /// string implementation's output order exactly) without building the
    /// string view.
    fn finish_pairs(self, keys: &KeyPool, pairs: &mut CandidatePairs) {
        for (_, block) in self.sorted_blocks(keys) {
            emit_block_pairs(&block.members, pairs);
        }
    }

    /// Emit pairs **and** materialize the sorted `BTreeMap` inspection
    /// view (one `String` per distinct block key).
    fn finish(self, keys: &KeyPool, pairs: &mut CandidatePairs) -> BTreeMap<String, Vec<usize>> {
        let mut sorted = BTreeMap::new();
        for (key, block) in self.sorted_blocks(keys) {
            emit_block_pairs(&block.members, pairs);
            sorted.insert(keys.resolve(key).to_string(), block.members);
        }
        sorted
    }
}

pub(crate) fn emit_block_pairs(members: &[usize], pairs: &mut CandidatePairs) {
    for (a, &i) in members.iter().enumerate() {
        for &j in members.iter().skip(a + 1) {
            pairs.insert(i, j);
        }
    }
}

// ----------------------------------------------------------------------
// Out-of-core block scanning: the bounded-memory twin of `BlockMap`.
// ----------------------------------------------------------------------

/// Configuration of an out-of-core block scan.
#[derive(Debug, Clone)]
pub struct BlockScanConfig {
    /// Resident members per block before the buffer is flushed to that
    /// block's spill file. Clamped to ≥ 1; blocks that never reach the
    /// ceiling never touch disk.
    pub spill_members: usize,
    /// Directory for spill files; `None` uses [`std::env::temp_dir`].
    pub dir: Option<PathBuf>,
}

impl Default for BlockScanConfig {
    fn default() -> Self {
        Self {
            // 64 Ki members ≈ 512 KiB resident per oversized block.
            spill_members: 1 << 16,
            dir: None,
        }
    }
}

/// What a block scan did — asserted by the spill-path tests and surfaced
/// in the shard stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockScanStats {
    /// Distinct blocks seen.
    pub blocks: usize,
    /// Blocks whose membership spilled to disk at least once.
    pub spilled_blocks: usize,
    /// Total bytes written to spill files.
    pub spilled_bytes: u64,
}

/// A spill-file path removed on `Drop` (success, abandonment and unwind).
#[derive(Debug)]
struct TempPath(PathBuf);

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One block under construction with a bounded resident buffer.
///
/// Every production insertion stream feeds a block **nondecreasing tuple
/// indices with only adjacent repeats**: the outer loops walk rows in
/// ascending order, and the only way a row recurs in one block is via
/// several alternatives of that same row (consecutive in the block's
/// stream, since no other row intervenes). Dedup therefore only needs the
/// last kept member — O(1) state — instead of `Block`'s full membership
/// set; the invariant is debug-asserted.
#[derive(Debug)]
struct SpillBlock {
    members: Vec<usize>,
    last: Option<usize>,
    // (path guard, writer, records already spilled)
    spill: Option<(TempPath, BufWriter<File>, usize)>,
}

impl SpillBlock {
    fn new() -> Self {
        Self {
            members: Vec::new(),
            last: None,
            spill: None,
        }
    }

    fn insert(
        &mut self,
        tuple: usize,
        spill_members: usize,
        dir: &std::path::Path,
        stats: &mut BlockScanStats,
    ) -> io::Result<()> {
        if self.last == Some(tuple) {
            return Ok(());
        }
        debug_assert!(
            self.last.is_none_or(|l| tuple > l),
            "block insertion streams must be nondecreasing (got {tuple} after {:?})",
            self.last
        );
        self.last = Some(tuple);
        self.members.push(tuple);
        if self.members.len() >= spill_members {
            self.flush(dir, stats)?;
        }
        Ok(())
    }

    fn flush(&mut self, dir: &std::path::Path, stats: &mut BlockScanStats) -> io::Result<()> {
        if self.spill.is_none() {
            let path = spill_block_path(dir);
            let file = File::options()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)?;
            stats.spilled_blocks += 1;
            self.spill = Some((TempPath(path), BufWriter::new(file), 0));
        }
        let (_, writer, count) = self.spill.as_mut().expect("just ensured");
        for &m in &self.members {
            writer.write_all(&(m as u64).to_le_bytes())?;
        }
        *count += self.members.len();
        stats.spilled_bytes += (self.members.len() * 8) as u64;
        self.members.clear();
        Ok(())
    }

    /// All members in insertion order (spilled prefix + resident tail),
    /// consuming the block. The spill file is removed when the returned
    /// guard drops.
    fn drain(self) -> io::Result<Vec<usize>> {
        let Some((guard, writer, count)) = self.spill else {
            return Ok(self.members);
        };
        let mut file = writer
            .into_inner()
            .map_err(|e| io::Error::other(e.to_string()))?;
        file.flush()?;
        file.rewind()?;
        let mut members = Vec::with_capacity(count + self.members.len());
        let mut reader = BufReader::new(file);
        let mut rec = [0u8; 8];
        for _ in 0..count {
            reader.read_exact(&mut rec)?;
            members.push(u64::from_le_bytes(rec) as usize);
        }
        members.extend_from_slice(&self.members);
        drop(guard);
        Ok(members)
    }
}

static SPILL_BLOCK_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn spill_block_path(dir: &std::path::Path) -> PathBuf {
    let n = SPILL_BLOCK_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    dir.join(format!("probdedup-block-{}-{n}.spill", std::process::id()))
}

/// Bounded-memory block accumulator: the out-of-core twin of `BlockMap`.
/// Oversized blocks spill their membership to per-block temp files
/// (8-byte little-endian tuple indices); [`finish_scan`](Self::finish_scan)
/// walks the blocks in exactly the sorted-key order the in-memory
/// implementations emit, materializing one block's members at a time.
#[derive(Debug)]
pub struct SpillableBlockMap {
    slots: FxHashMap<KeySymbol, SpillBlock>,
    spill_members: usize,
    dir: PathBuf,
    stats: BlockScanStats,
}

impl SpillableBlockMap {
    /// A new accumulator under `cfg`'s ceilings.
    pub fn new(cfg: &BlockScanConfig) -> Self {
        Self {
            slots: FxHashMap::default(),
            spill_members: cfg.spill_members.max(1),
            dir: cfg.dir.clone().unwrap_or_else(std::env::temp_dir),
            stats: BlockScanStats::default(),
        }
    }

    /// Insert `tuple` into the block of `key`. Insertion streams per block
    /// must be nondecreasing in `tuple` (see `SpillBlock`) — true of
    /// every row-major production scan.
    pub fn insert(&mut self, key: KeySymbol, tuple: usize) -> io::Result<()> {
        self.slots
            .entry(key)
            .or_insert_with(SpillBlock::new)
            .insert(tuple, self.spill_members, &self.dir, &mut self.stats)
    }

    /// Visit every block as `(key string, members)` in sorted-key order —
    /// byte-identical to the order `BlockMap::finish_pairs` emits — and
    /// return the scan stats. Spill files are removed as each block is
    /// visited.
    pub fn finish_scan(
        mut self,
        keys: &KeyPool,
        f: &mut impl FnMut(&str, &[usize]),
    ) -> io::Result<BlockScanStats> {
        self.stats.blocks = self.slots.len();
        let mut blocks: Vec<(KeySymbol, SpillBlock)> = self.slots.drain().collect();
        blocks.sort_unstable_by(|a, b| keys.resolve(a.0).cmp(keys.resolve(b.0)));
        for (key, block) in blocks {
            let members = block.drain()?;
            f(keys.resolve(key), &members);
        }
        Ok(self.stats)
    }
}

/// Out-of-core scan of the per-alternative blocks (Fig. 14): visits every
/// block in exactly [`block_alternatives`]' sorted-key order under
/// `cfg`'s memory ceiling. The candidate pairs of the blocking run are
/// recovered by emitting each visited block's within-block pairs in order.
pub fn scan_alternative_blocks(
    tuples: &[XTuple],
    spec: &KeySpec,
    cfg: &BlockScanConfig,
    f: &mut impl FnMut(&str, &[usize]),
) -> io::Result<BlockScanStats> {
    let mut values = probdedup_model::intern::ValuePool::new();
    let mut keys = KeyPool::new();
    let mut map = SpillableBlockMap::new(cfg);
    for (i, t) in tuples.iter().enumerate() {
        for key in spec.alternative_key_symbols(t, &mut values, &mut keys) {
            map.insert(key, i)?;
        }
    }
    map.finish_scan(&keys, f)
}

/// Out-of-core scan of the conflict-resolved blocks: visits every block in
/// exactly [`block_conflict_resolved`]' sorted-key order.
pub fn scan_conflict_resolved_blocks(
    tuples: &[XTuple],
    spec: &KeySpec,
    strategy: ConflictResolution,
    cfg: &BlockScanConfig,
    f: &mut impl FnMut(&str, &[usize]),
) -> io::Result<BlockScanStats> {
    let (keys, syms) = resolved_key_symbols(tuples, spec, strategy);
    let mut map = SpillableBlockMap::new(cfg);
    for (i, &key) in syms.iter().enumerate() {
        map.insert(key, i)?;
    }
    map.finish_scan(&keys, f)
}

/// Out-of-core scan of the multi-pass blocks: for each selected world in
/// [`block_multipass`]' world order, visits that world's blocks in
/// sorted-key order — the exact per-world emission order of the in-memory
/// path. Stats are summed across worlds.
pub fn scan_multipass_blocks(
    tuples: &[XTuple],
    spec: &KeySpec,
    selection: WorldSelection,
    cfg: &BlockScanConfig,
    f: &mut impl FnMut(&str, &[usize]),
) -> io::Result<BlockScanStats> {
    let worlds = select_worlds(tuples, selection);
    let table = spec.key_table(tuples);
    let mut total = BlockScanStats::default();
    for world in worlds {
        let mut map = SpillableBlockMap::new(cfg);
        for i in 0..table.len() {
            let alt = world.choices[i].expect("full world");
            map.insert(table.alternative_keys(i)[alt], i)?;
        }
        let stats = map.finish_scan(table.key_pool(), f)?;
        total.blocks += stats.blocks;
        total.spilled_blocks += stats.spilled_blocks;
        total.spilled_bytes += stats.spilled_bytes;
    }
    Ok(total)
}

/// Blocking with **alternative key values** (Fig. 14): one block entry per
/// alternative key of each x-tuple.
///
/// This is the **hash-dedup'd single-pass path**: each alternative's key is
/// rendered exactly once and resolved to its block with **one** hash probe
/// on the key string — no `ValuePool`/`KeyPool` maintenance at all. On a
/// single pass over mostly-distinct keys the interning layer never
/// amortizes (it was measured ~2.4× slower than direct rendering on the
/// typo-heavy synthetic workload), so single-pass blocking bypasses it.
/// Multi-pass blocking keeps the interned
/// [`KeyTable`](crate::key::KeyTable) — there the table is reused across
/// passes and pays for itself. Output is byte-identical to the string-key
/// oracle (property-tested in `src/interned_oracle.rs`).
pub fn block_alternatives(tuples: &[XTuple], spec: &KeySpec) -> BlockingResult {
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
    // Deterministic sorted-key order, matching the other implementations;
    // the `BTreeMap` view is bulk-built from the sorted entries (std
    // detects the presorted run) instead of paying per-key tree descents.
    let mut order: Vec<(String, Vec<usize>)> = ids
        .into_iter()
        .map(|(key, id)| (key, std::mem::take(&mut blocks[id].members)))
        .collect();
    order.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut pairs = CandidatePairs::new(tuples.len());
    for (_, members) in &order {
        emit_block_pairs(members, &mut pairs);
    }
    BlockingResult {
        pairs,
        blocks: order.into_iter().collect(),
    }
}

/// Blocking over **conflict-resolved certain keys** (Section V-B: "conflict
/// resolution strategies can be used to produce certain key values; in this
/// case, blocking can be performed as usual").
pub fn block_conflict_resolved(
    tuples: &[XTuple],
    spec: &KeySpec,
    strategy: ConflictResolution,
) -> BlockingResult {
    let (keys, syms) = resolved_key_symbols(tuples, spec, strategy);
    let mut map = BlockMap::default();
    for (i, &key) in syms.iter().enumerate() {
        map.insert(key, i);
    }
    let mut pairs = CandidatePairs::new(tuples.len());
    let blocks = map.finish(&keys, &mut pairs);
    BlockingResult { pairs, blocks }
}

/// Multi-pass blocking over selected possible worlds ("a multi-pass over
/// some finely chosen worlds seems to be an option"). Pairs are unioned;
/// the returned blocks are those of the **first** pass (for inspection).
///
/// The [`KeyTable`](crate::key::KeyTable) is built once; every pass after
/// the first is pure integer work (bucket by symbol, emit pairs) — zero
/// key renders, which the reduction property tests assert via
/// [`KeyTable::render_count`](crate::key::KeyTable::render_count).
pub fn block_multipass(
    tuples: &[XTuple],
    spec: &KeySpec,
    selection: WorldSelection,
) -> BlockingResult {
    let worlds = select_worlds(tuples, selection);
    // Per-alternative keys are world-independent; intern them once instead
    // of once per (world, tuple).
    let table = spec.key_table(tuples);
    let mut pairs = CandidatePairs::new(tuples.len());
    let mut first_blocks: Option<BTreeMap<String, Vec<usize>>> = None;
    for world in worlds {
        let mut map = BlockMap::default();
        for i in 0..table.len() {
            let alt = world.choices[i].expect("full world");
            map.insert(table.alternative_keys(i)[alt], i);
        }
        if first_blocks.is_none() {
            first_blocks = Some(map.finish(table.key_pool(), &mut pairs));
        } else {
            map.finish_pairs(table.key_pool(), &mut pairs);
        }
    }
    BlockingResult {
        pairs,
        blocks: first_blocks.unwrap_or_default(),
    }
}

/// [`block_multipass`] with a caller-supplied [`KeyTable`](crate::key::KeyTable)
/// and without the first-pass inspection view — the lean path persistent
/// sessions use: the table (extended incrementally as tuples arrive)
/// already holds every alternative's key symbol, so each pass is pure
/// integer bucketing plus one sorted emission. Pair output is identical to
/// [`block_multipass`] (per-world sorted-key order).
pub fn block_multipass_with_table(
    tuples: &[XTuple],
    table: &crate::key::KeyTable,
    selection: WorldSelection,
) -> CandidatePairs {
    debug_assert_eq!(tuples.len(), table.len(), "table must cover the corpus");
    let worlds = select_worlds(tuples, selection);
    let mut pairs = CandidatePairs::new(tuples.len());
    for world in worlds {
        let mut map = BlockMap::default();
        for i in 0..table.len() {
            let alt = world.choices[i].expect("full world");
            map.insert(table.alternative_keys(i)[alt], i);
        }
        map.finish_pairs(table.key_pool(), &mut pairs);
    }
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
    fn spillable_scans_match_in_memory_blocking() {
        let tuples = r34();
        let spec = fig14_spec();
        let dir = std::env::temp_dir().join(format!("pd-blk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // spill_members 1 forces every block through its spill file;
        // usize::MAX keeps everything resident. Both must reproduce the
        // in-memory block view and emission order byte-for-byte.
        for spill_members in [1, 2, usize::MAX] {
            let cfg = BlockScanConfig {
                spill_members,
                dir: Some(dir.clone()),
            };
            type ScanFn<'a> = dyn FnMut(&mut dyn FnMut(&str, &[usize])) -> BlockScanStats + 'a;
            let collect = |scan: &mut ScanFn<'_>| {
                let mut seen: Vec<(String, Vec<usize>)> = Vec::new();
                let stats = scan(&mut |k, m| seen.push((k.to_string(), m.to_vec())));
                (seen, stats)
            };

            let expected = block_alternatives(&tuples, &spec);
            let (seen, stats) = collect(&mut |f| {
                scan_alternative_blocks(&tuples, &spec, &cfg, &mut |k, m| f(k, m)).unwrap()
            });
            let want: Vec<(String, Vec<usize>)> = expected
                .blocks
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(seen, want, "alternatives spill {spill_members}");
            if spill_members == 1 {
                assert!(stats.spilled_blocks > 0);
            } else if spill_members == usize::MAX {
                assert_eq!(stats.spilled_blocks, 0);
            }

            let strategy = ConflictResolution::MostProbableAlternative;
            let expected = block_conflict_resolved(&tuples, &spec, strategy);
            let (seen, _) = collect(&mut |f| {
                scan_conflict_resolved_blocks(&tuples, &spec, strategy, &cfg, &mut |k, m| f(k, m))
                    .unwrap()
            });
            let want: Vec<(String, Vec<usize>)> = expected
                .blocks
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(seen, want, "conflict spill {spill_members}");

            // Multipass: replaying emit_block_pairs over the scanned
            // blocks must reproduce the unioned pair set in order.
            let selection = WorldSelection::TopK(3);
            let expected = block_multipass(&tuples, &spec, selection);
            let mut pairs = CandidatePairs::new(tuples.len());
            scan_multipass_blocks(&tuples, &spec, selection, &cfg, &mut |_, m| {
                emit_block_pairs(m, &mut pairs)
            })
            .unwrap();
            assert_eq!(
                pairs.pairs(),
                expected.pairs.pairs(),
                "multipass spill {spill_members}"
            );
        }
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "spill files must be cleaned up"
        );
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn spillable_block_crosses_spill_boundary_deduped() {
        let s = Schema::new(["name", "job"]);
        let n = 40;
        let tuples: Vec<XTuple> = (0..n)
            .map(|_| {
                XTuple::builder(&s)
                    .alt(0.5, ["John", "pilot"])
                    .alt(0.5, ["Johan", "pianist"]) // same "Jp" key twice
                    .build()
                    .unwrap()
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("pd-blk2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = BlockScanConfig {
            spill_members: 7,
            dir: Some(dir.clone()),
        };
        let mut seen = Vec::new();
        let stats = scan_alternative_blocks(&tuples, &fig14_spec(), &cfg, &mut |k, m| {
            seen.push((k.to_string(), m.to_vec()))
        })
        .unwrap();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, "Jp");
        assert_eq!(seen[0].1, (0..n).collect::<Vec<_>>());
        assert_eq!(stats.spilled_blocks, 1);
        assert!(stats.spilled_bytes > 0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir(&dir).unwrap();
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
