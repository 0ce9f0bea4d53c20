//! Out-of-core sorted neighborhood: external merge sort of `(rank, tuple)`
//! entries with streaming re-windowing.
//!
//! [`sorted_neighborhood_interned`](crate::sorted_neighborhood_interned)
//! materializes and sorts the whole entry list — `O(entries)` resident
//! memory, which at 10⁶-class corpora with one entry per alternative is
//! exactly what an out-of-core run cannot afford. This module replaces the
//! in-memory sort with a classic external merge sort:
//!
//! 1. **Run formation** — entries are buffered up to a configurable
//!    [`run_entries`](ExternalSortConfig::run_entries) ceiling; each full
//!    buffer is sorted by `(rank, tuple)` and spilled to a temp file as
//!    fixed-width 12-byte little-endian records (`rank: u32`,
//!    `tuple: u64`).
//! 2. **K-way merge** — the spilled runs are merged through a binary heap
//!    (ties broken by run index; entries with equal `(rank, tuple)` are
//!    indistinguishable, so the merged sequence is byte-identical to the
//!    one-shot stable sort).
//! 3. **Streaming windowing** — [`StreamWindower`] replays
//!    `emit_window_pairs`' anchor-major order over the merged stream with
//!    only `window` entries resident, including the sorting-alternatives
//!    collapse rule (skip an entry whose tuple equals the last kept one).
//!
//! If nothing ever spills (`run_entries` ≥ corpus), the sorter degrades to
//! the plain in-memory sort and **no file is created**. Temp run files are
//! removed by RAII: each run's `Drop` deletes its file, so cleanup happens
//! on success, on early drop (a consumer abandoning a half-merged stream),
//! and on unwind alike.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use probdedup_model::intern::KeyRanks;
use probdedup_model::xtuple::XTuple;

use crate::conflict::{resolved_key_symbols, ConflictResolution};
use crate::key::KeySpec;
use crate::multipass::{select_worlds, WorldSelection};
use crate::pairs::CandidatePairs;
use crate::snm::InternedSnmEntry;

/// Bytes per spilled record: `rank: u32` + `tuple: u64`, little-endian.
const RECORD_BYTES: usize = 12;

/// Configuration of the external sort.
#[derive(Debug, Clone)]
pub struct ExternalSortConfig {
    /// Maximum entries buffered in memory before a sorted run is spilled.
    /// Clamped to ≥ 1. With `run_entries` ≥ the total entry count the sort
    /// never touches disk.
    pub run_entries: usize,
    /// Directory for spilled runs; `None` uses [`std::env::temp_dir`].
    pub dir: Option<PathBuf>,
}

impl Default for ExternalSortConfig {
    fn default() -> Self {
        Self {
            // 1 Mi entries ≈ 12 MiB per resident run buffer.
            run_entries: 1 << 20,
            dir: None,
        }
    }
}

impl ExternalSortConfig {
    fn dir(&self) -> PathBuf {
        self.dir.clone().unwrap_or_else(std::env::temp_dir)
    }
}

/// What the sort did — surfaced in the shard stats and asserted by the
/// spill-path tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExternalSortStats {
    /// Total entries pushed.
    pub entries: usize,
    /// Number of sorted runs spilled to disk (0 = pure in-memory sort).
    pub runs_spilled: usize,
    /// Total bytes written to spill files.
    pub spilled_bytes: u64,
}

/// Global counter making spill-file names unique within the process; the
/// pid in the name separates concurrent processes sharing a temp dir.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

fn run_path(dir: &Path) -> PathBuf {
    let n = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("probdedup-run-{}-{n}.spill", std::process::id()))
}

/// One spilled run: a sorted record file removed on `Drop` (RAII cleanup —
/// success, abandonment and unwind all go through here).
#[derive(Debug)]
struct SpilledRun {
    path: PathBuf,
    reader: BufReader<File>,
}

impl SpilledRun {
    /// Sort `buf` by `(rank, tuple)` and write it as a record file.
    fn write(dir: &Path, buf: &mut [(u32, u64)]) -> io::Result<(Self, u64)> {
        buf.sort_unstable();
        let path = run_path(dir);
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        // From here the file exists: wrap it immediately so an I/O error
        // below still removes it.
        let mut run = Self {
            path,
            reader: BufReader::new(file),
        };
        let mut w = BufWriter::new(run.reader.get_mut());
        for &(rank, tuple) in buf.iter() {
            w.write_all(&rank.to_le_bytes())?;
            w.write_all(&tuple.to_le_bytes())?;
        }
        w.flush()?;
        drop(w);
        let bytes = (buf.len() * RECORD_BYTES) as u64;
        run.reader.get_mut().rewind()?;
        Ok((run, bytes))
    }

    /// The next record, or `None` at end of run.
    fn next_record(&mut self) -> io::Result<Option<(u32, u64)>> {
        let mut rec = [0u8; RECORD_BYTES];
        match self.reader.read_exact(&mut rec) {
            Ok(()) => {
                let rank = u32::from_le_bytes(rec[0..4].try_into().unwrap());
                let tuple = u64::from_le_bytes(rec[4..12].try_into().unwrap());
                Ok(Some((rank, tuple)))
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Drop for SpilledRun {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// An external merge sorter over `(rank, tuple)` entries. Push entries in
/// any order, then [`finish`](Self::finish) into a sorted
/// [`ExternalEntryStream`].
#[derive(Debug)]
pub struct ExternalSorter {
    cfg: ExternalSortConfig,
    buf: Vec<(u32, u64)>,
    runs: Vec<SpilledRun>,
    stats: ExternalSortStats,
}

impl ExternalSorter {
    /// A new sorter.
    pub fn new(cfg: ExternalSortConfig) -> Self {
        Self {
            cfg,
            buf: Vec::new(),
            runs: Vec::new(),
            stats: ExternalSortStats::default(),
        }
    }

    /// Add one entry; spills the buffer as a sorted run when it reaches
    /// the configured ceiling.
    pub fn push(&mut self, rank: u32, tuple: usize) -> io::Result<()> {
        self.stats.entries += 1;
        self.buf.push((rank, tuple as u64));
        if self.buf.len() >= self.cfg.run_entries.max(1) {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let (run, bytes) = SpilledRun::write(&self.cfg.dir(), &mut self.buf)?;
        self.buf.clear();
        self.runs.push(run);
        self.stats.runs_spilled += 1;
        self.stats.spilled_bytes += bytes;
        Ok(())
    }

    /// Seal the sorter into a globally sorted stream. If nothing was ever
    /// spilled the whole sort stays in memory (zero files); otherwise the
    /// final partial buffer is spilled too and a k-way merge drives the
    /// stream.
    pub fn finish(mut self) -> io::Result<(ExternalEntryStream, ExternalSortStats)> {
        if self.runs.is_empty() {
            self.buf.sort_unstable();
            let stats = self.stats;
            return Ok((
                ExternalEntryStream {
                    inner: StreamInner::InMemory {
                        entries: self.buf.into_iter(),
                    },
                },
                stats,
            ));
        }
        self.spill()?;
        let mut heap = BinaryHeap::with_capacity(self.runs.len());
        for (idx, run) in self.runs.iter_mut().enumerate() {
            if let Some((rank, tuple)) = run.next_record()? {
                heap.push(Reverse((rank, tuple, idx)));
            }
        }
        let stats = self.stats;
        Ok((
            ExternalEntryStream {
                inner: StreamInner::Merge {
                    runs: self.runs,
                    heap,
                },
            },
            stats,
        ))
    }
}

#[derive(Debug)]
enum StreamInner {
    InMemory {
        entries: std::vec::IntoIter<(u32, u64)>,
    },
    Merge {
        runs: Vec<SpilledRun>,
        // Min-heap of (rank, tuple, run index): the run index tie-break
        // is immaterial for order (equal-key records are identical) but
        // makes the merge fully deterministic.
        heap: BinaryHeap<Reverse<(u32, u64, usize)>>,
    },
}

/// The sorted `(rank, tuple)` stream produced by [`ExternalSorter::finish`].
/// Dropping the stream early removes every remaining spill file.
#[derive(Debug)]
pub struct ExternalEntryStream {
    inner: StreamInner,
}

impl Iterator for ExternalEntryStream {
    type Item = io::Result<(u32, usize)>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            StreamInner::InMemory { entries } => entries
                .next()
                .map(|(rank, tuple)| Ok((rank, tuple as usize))),
            StreamInner::Merge { runs, heap } => {
                let Reverse((rank, tuple, idx)) = heap.pop()?;
                match runs[idx].next_record() {
                    Ok(Some((r, t))) => heap.push(Reverse((r, t, idx))),
                    Ok(None) => {}
                    Err(e) => return Some(Err(e)),
                }
                Some(Ok((rank, tuple as usize)))
            }
        }
    }
}

/// Streaming replay of the in-memory window scan: feed the **sorted**
/// entry stream one `(rank, tuple)` at a time and receive every window
/// pair through the callback, in exactly the order
/// `emit_window_pairs` produces them (anchor-major: each kept entry pairs
/// with the `window − 1` kept entries after it). Only `window` entries are
/// ever resident.
///
/// The callback receives `(anchor, other)` as `(rank, tuple)` pairs —
/// ranks let a sharded consumer route an anchor's pairs by key-order
/// position without re-resolving anything.
#[derive(Debug)]
pub struct StreamWindower {
    window: usize,
    skip_adjacent_same_tuple: bool,
    last_kept: Option<usize>,
    buf: std::collections::VecDeque<(u32, usize)>,
}

impl StreamWindower {
    /// A new windower (`window` clamped to ≥ 2, matching the in-memory
    /// scan).
    pub fn new(window: usize, skip_adjacent_same_tuple: bool) -> Self {
        let window = window.max(2);
        Self {
            window,
            skip_adjacent_same_tuple,
            last_kept: None,
            buf: std::collections::VecDeque::with_capacity(window),
        }
    }

    /// Feed the next sorted entry.
    pub fn push(
        &mut self,
        rank: u32,
        tuple: usize,
        emit: &mut impl FnMut((u32, usize), (u32, usize)),
    ) {
        if self.skip_adjacent_same_tuple && self.last_kept == Some(tuple) {
            return;
        }
        self.last_kept = Some(tuple);
        self.buf.push_back((rank, tuple));
        if self.buf.len() == self.window {
            let anchor = self.buf.pop_front().expect("window ≥ 2");
            for &other in &self.buf {
                emit(anchor, other);
            }
        }
    }

    /// Flush the tail: anchors with fewer than `window − 1` followers.
    pub fn finish(mut self, emit: &mut impl FnMut((u32, usize), (u32, usize))) {
        while let Some(anchor) = self.buf.pop_front() {
            for &other in &self.buf {
                emit(anchor, other);
            }
        }
    }
}

/// Out-of-core twin of
/// [`sorted_neighborhood_interned`](crate::sorted_neighborhood_interned):
/// identical candidate pairs in identical order, but the sort runs through
/// [`ExternalSorter`] under `cfg`'s memory ceiling instead of
/// materializing the sorted entry list. (The sorted order itself is not
/// returned — not materializing it is the point.)
pub fn sorted_neighborhood_external(
    entries: &[InternedSnmEntry],
    ranks: &KeyRanks,
    window: usize,
    n_tuples: usize,
    skip_adjacent_same_tuple: bool,
    cfg: &ExternalSortConfig,
) -> io::Result<(CandidatePairs, ExternalSortStats)> {
    let mut sorter = ExternalSorter::new(cfg.clone());
    for e in entries {
        sorter.push(ranks.rank(e.key), e.tuple)?;
    }
    let (stream, stats) = sorter.finish()?;
    let mut pairs = CandidatePairs::new(n_tuples);
    let mut emit = |anchor: (u32, usize), other: (u32, usize)| {
        pairs.insert(anchor.1, other.1);
    };
    let mut windower = StreamWindower::new(window, skip_adjacent_same_tuple);
    for rec in stream {
        let (rank, tuple) = rec?;
        windower.push(rank, tuple, &mut emit);
    }
    windower.finish(&mut emit);
    Ok((pairs, stats))
}

/// Drain `sorter` through a [`StreamWindower`] into `emit`.
fn stream_windows(
    sorter: ExternalSorter,
    window: usize,
    skip_adjacent_same_tuple: bool,
    emit: &mut impl FnMut((u32, usize), (u32, usize)),
) -> io::Result<ExternalSortStats> {
    let (stream, stats) = sorter.finish()?;
    let mut windower = StreamWindower::new(window, skip_adjacent_same_tuple);
    for rec in stream {
        let (rank, tuple) = rec?;
        windower.push(rank, tuple, emit);
    }
    windower.finish(emit);
    Ok(stats)
}

/// Out-of-core scan of the **sorting-alternatives** SNM (Section V-A.3):
/// emits every window pair, self-pairs and repeats included, in exactly
/// the order [`sorting_alternatives`](crate::sorting_alternatives)
/// produces them — dedup through a pair set on the consumer side recovers
/// the one-shot candidate list byte-for-byte.
pub fn sorting_alternatives_external_scan(
    tuples: &[XTuple],
    spec: &KeySpec,
    window: usize,
    cfg: &ExternalSortConfig,
    emit: &mut impl FnMut((u32, usize), (u32, usize)),
) -> io::Result<ExternalSortStats> {
    let table = spec.key_table(tuples);
    let mut sorter = ExternalSorter::new(cfg.clone());
    for i in 0..table.len() {
        for &key in table.alternative_keys(i) {
            sorter.push(table.rank(key), i)?;
        }
    }
    stream_windows(sorter, window, true, emit)
}

/// Out-of-core scan of the **conflict-resolved** SNM (Section V-A.2):
/// window pairs in exactly
/// [`conflict_resolved_snm`](crate::conflict_resolved_snm)'s order.
pub fn conflict_resolved_snm_external_scan(
    tuples: &[XTuple],
    spec: &KeySpec,
    window: usize,
    strategy: ConflictResolution,
    cfg: &ExternalSortConfig,
    emit: &mut impl FnMut((u32, usize), (u32, usize)),
) -> io::Result<ExternalSortStats> {
    let (keys, syms) = resolved_key_symbols(tuples, spec, strategy);
    let ranks = keys.lexicographic_ranks();
    let mut sorter = ExternalSorter::new(cfg.clone());
    for (i, &key) in syms.iter().enumerate() {
        sorter.push(ranks.rank(key), i)?;
    }
    stream_windows(sorter, window, false, emit)
}

/// Out-of-core scan of the **multi-pass worlds** SNM (Section V-A.1): one
/// external sort per selected world, window pairs emitted per pass in
/// exactly [`multipass_snm_pairs`](crate::multipass_snm_pairs)'s pass
/// order (consumer-side dedup unions the passes). Stats are summed across
/// passes.
pub fn multipass_snm_external_scan(
    tuples: &[XTuple],
    spec: &KeySpec,
    window: usize,
    selection: WorldSelection,
    cfg: &ExternalSortConfig,
    emit: &mut impl FnMut((u32, usize), (u32, usize)),
) -> io::Result<ExternalSortStats> {
    let worlds = select_worlds(tuples, selection);
    let table = spec.key_table(tuples);
    let mut total = ExternalSortStats::default();
    for world in worlds {
        let mut sorter = ExternalSorter::new(cfg.clone());
        for i in 0..table.len() {
            let alt = world.choices[i].expect("full world");
            sorter.push(table.rank(table.alternative_keys(i)[alt]), i)?;
        }
        let stats = stream_windows(sorter, window, false, emit)?;
        total.entries += stats.entries;
        total.runs_spilled += stats.runs_spilled;
        total.spilled_bytes += stats.spilled_bytes;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snm::sorted_neighborhood_interned;
    use probdedup_model::intern::KeyPool;

    fn sample() -> (KeyPool, Vec<InternedSnmEntry>) {
        let mut kp = KeyPool::new();
        let keys = [
            "Johpi", "Timme", "Johpi", "Tomme", "Seapi", "Johmu", "Timme",
        ];
        let entries = keys
            .iter()
            .enumerate()
            .map(|(i, k)| InternedSnmEntry::new(kp.intern_str(k), i % 5))
            .collect();
        (kp, entries)
    }

    #[test]
    fn external_matches_in_memory_across_run_sizes() {
        let (kp, entries) = sample();
        let ranks = kp.lexicographic_ranks();
        let dir = std::env::temp_dir().join(format!("pd-ext-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for window in [2, 3, 5] {
            for skip in [false, true] {
                let (expected, _) =
                    sorted_neighborhood_interned(entries.clone(), &ranks, window, 5, skip);
                for run_entries in [1, 2, 3, 100] {
                    let cfg = ExternalSortConfig {
                        run_entries,
                        dir: Some(dir.clone()),
                    };
                    let (got, stats) =
                        sorted_neighborhood_external(&entries, &ranks, window, 5, skip, &cfg)
                            .unwrap();
                    assert_eq!(
                        got.pairs(),
                        expected.pairs(),
                        "window {window} skip {skip} run {run_entries}"
                    );
                    assert_eq!(stats.entries, entries.len());
                    if run_entries > entries.len() {
                        assert_eq!(stats.runs_spilled, 0, "oversized runs must not spill");
                    } else {
                        assert!(stats.runs_spilled >= 2, "run {run_entries} should spill");
                    }
                }
            }
        }
        // Every spill file was removed on success.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn early_drop_removes_spill_files() {
        let (kp, entries) = sample();
        let ranks = kp.lexicographic_ranks();
        let dir = std::env::temp_dir().join(format!("pd-ext-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ExternalSortConfig {
            run_entries: 1,
            dir: Some(dir.clone()),
        };
        let mut sorter = ExternalSorter::new(cfg);
        for e in &entries {
            sorter.push(ranks.rank(e.key), e.tuple).unwrap();
        }
        let (mut stream, stats) = sorter.finish().unwrap();
        assert_eq!(stats.runs_spilled, entries.len());
        assert!(std::fs::read_dir(&dir).unwrap().count() > 0);
        // Simulated mid-merge failure: consume a couple of records, then
        // abandon the stream.
        stream.next().unwrap().unwrap();
        stream.next().unwrap().unwrap();
        drop(stream);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn empty_input() {
        let kp = KeyPool::new();
        let ranks = kp.lexicographic_ranks();
        let cfg = ExternalSortConfig::default();
        let (pairs, stats) = sorted_neighborhood_external(&[], &ranks, 4, 0, false, &cfg).unwrap();
        assert!(pairs.is_empty());
        assert_eq!(stats, ExternalSortStats::default());
    }

    /// ℛ34 (Fig. 11), the corpus every in-memory SNM test runs over.
    fn r34() -> Vec<XTuple> {
        use probdedup_model::pvalue::PValue;
        use probdedup_model::schema::Schema;
        use probdedup_model::value::Value;
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

    /// Replay a raw emission stream through [`CandidatePairs`] dedup.
    fn collect_scan(
        n: usize,
        scan: impl FnOnce(&mut dyn FnMut((u32, usize), (u32, usize))) -> io::Result<ExternalSortStats>,
    ) -> (CandidatePairs, ExternalSortStats) {
        let mut pairs = CandidatePairs::new(n);
        let stats = scan(&mut |a, b| {
            pairs.insert(a.1, b.1);
        })
        .unwrap();
        (pairs, stats)
    }

    #[test]
    fn strategy_scans_match_in_memory_counterparts() {
        use crate::alternatives::sorting_alternatives;
        use crate::conflict::conflict_resolved_snm;
        use crate::multipass::multipass_snm_pairs;

        let tuples = r34();
        let spec = KeySpec::paper_example(0, 1);
        let n = tuples.len();
        for run_entries in [1, 3, 100] {
            let cfg = ExternalSortConfig {
                run_entries,
                dir: None,
            };
            for window in [2, 4] {
                let expected = sorting_alternatives(&tuples, &spec, window).pairs;
                let (got, stats) = collect_scan(n, |emit| {
                    sorting_alternatives_external_scan(&tuples, &spec, window, &cfg, &mut |a, b| {
                        emit(a, b)
                    })
                });
                assert_eq!(
                    got.pairs(),
                    expected.pairs(),
                    "alts w{window} r{run_entries}"
                );
                assert_eq!(stats.entries, 10);

                for strategy in [
                    ConflictResolution::MostProbableAlternative,
                    ConflictResolution::MostProbableKey,
                    ConflictResolution::FirstAlternative,
                ] {
                    let (expected, _) = conflict_resolved_snm(&tuples, &spec, window, strategy);
                    let (got, stats) = collect_scan(n, |emit| {
                        conflict_resolved_snm_external_scan(
                            &tuples,
                            &spec,
                            window,
                            strategy,
                            &cfg,
                            &mut |a, b| emit(a, b),
                        )
                    });
                    assert_eq!(
                        got.pairs(),
                        expected.pairs(),
                        "conflict {strategy:?} w{window} r{run_entries}"
                    );
                    assert_eq!(stats.entries, n);
                }

                for selection in [WorldSelection::TopK(3), WorldSelection::All { limit: 64 }] {
                    let expected = multipass_snm_pairs(&tuples, &spec, window, selection);
                    let (got, stats) = collect_scan(n, |emit| {
                        multipass_snm_external_scan(
                            &tuples,
                            &spec,
                            window,
                            selection,
                            &cfg,
                            &mut |a, b| emit(a, b),
                        )
                    });
                    assert_eq!(
                        got.pairs(),
                        expected.pairs(),
                        "multipass {selection:?} w{window} r{run_entries}"
                    );
                    assert!(stats.entries >= n, "one entry per tuple per world");
                }
            }
        }
    }
}
