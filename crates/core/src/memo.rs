//! The decision memo: the [`PairDecision`] of every pair in a session's
//! current candidate set — the paper's Fig. 12 executed-matching matrix,
//! one verdict per candidate.
//!
//! Three dense columns hold the entries: the packed pair (`lo << 32 | hi`,
//! the packing of [`CandidatePairs`](probdedup_reduction::CandidatePairs)),
//! the similarity and the [`MatchClass`]. One index maps a packed pair to
//! its column slot. A full read walks the columns and never the index:
//! [`partition`](DecisionMemo::partition) counts the class column, one byte
//! per candidate, and closes only the Match slots;
//! [`decisions`](DecisionMemo::decisions) zips the three. A lookup is one
//! index probe. A departure is a `swap_remove` on the columns plus one
//! index fix-up for the entry that moved into the freed slot.
//!
//! The columns are in insertion order until the first removal, and in no
//! particular order after it; no reader depends on it. Snapshot section 7
//! writes the entries sorted by pair, so its bytes do not depend on it
//! either.

use std::collections::hash_map::Entry;

use probdedup_decision::threshold::MatchClass;
use probdedup_model::snapshot::{SectionReader, SectionWriter, SnapshotError};
use probdedup_model::util::FxHashMap;

use crate::cluster::UnionFind;
use crate::pipeline::{PairDecision, Partition};

/// The packed key of a canonical pair `(lo, hi)`, `lo < hi < 2³²`.
fn pack((lo, hi): (usize, usize)) -> u64 {
    debug_assert!(
        lo < hi && hi <= u32::MAX as usize,
        "canonical pair ({lo}, {hi})"
    );
    (lo as u64) << 32 | hi as u64
}

/// Inverse of [`pack`].
fn unpack(key: u64) -> (usize, usize) {
    ((key >> 32) as usize, (key & u64::from(u32::MAX)) as usize)
}

/// One decision per pair, as three columns behind a position index (see
/// the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct DecisionMemo {
    pairs: Vec<u64>,
    similarities: Vec<f64>,
    classes: Vec<MatchClass>,
    index: FxHashMap<u64, u32>,
}

impl DecisionMemo {
    /// Number of decided pairs.
    pub(crate) fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether `pair` (canonical) is decided.
    pub(crate) fn contains(&self, pair: (usize, usize)) -> bool {
        self.index.contains_key(&pack(pair))
    }

    /// The decision of `pair` (canonical), if it is decided.
    pub(crate) fn get(&self, pair: (usize, usize)) -> Option<PairDecision> {
        let slot = *self.index.get(&pack(pair))? as usize;
        Some(PairDecision {
            pair,
            similarity: self.similarities[slot],
            class: self.classes[slot],
        })
    }

    /// Record `d`, replacing the pair's earlier decision in its slot;
    /// `true` when the pair was not decided before.
    pub(crate) fn insert(&mut self, d: PairDecision) -> bool {
        match self.index.entry(pack(d.pair)) {
            Entry::Occupied(e) => {
                let slot = *e.get() as usize;
                self.similarities[slot] = d.similarity;
                self.classes[slot] = d.class;
                false
            }
            Entry::Vacant(e) => {
                let slot = u32::try_from(self.pairs.len()).expect("fewer than 2³² decisions");
                self.pairs.push(*e.key());
                e.insert(slot);
                self.similarities.push(d.similarity);
                self.classes.push(d.class);
                true
            }
        }
    }

    /// Forget `pair` (canonical): the last entry moves into its slot.
    pub(crate) fn remove(&mut self, pair: (usize, usize)) {
        let Some(slot) = self.index.remove(&pack(pair)) else {
            return;
        };
        let k = slot as usize;
        self.pairs.swap_remove(k);
        self.similarities.swap_remove(k);
        self.classes.swap_remove(k);
        if let Some(moved) = self.pairs.get(k) {
            *self.index.get_mut(moved).expect("every entry is indexed") = slot;
        }
    }

    /// Room for `additional` more decisions without regrowing.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.pairs.reserve(additional);
        self.similarities.reserve(additional);
        self.classes.reserve(additional);
        self.index.reserve(additional);
    }

    /// Forget every decision.
    pub(crate) fn clear(&mut self) {
        self.pairs.clear();
        self.similarities.clear();
        self.classes.clear();
        self.index.clear();
    }

    /// Every decided pair, in column order.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pairs.iter().map(|&key| unpack(key))
    }

    /// Every decision, in column order.
    pub(crate) fn decisions(&self) -> impl Iterator<Item = PairDecision> + '_ {
        self.pairs
            .iter()
            .zip(&self.similarities)
            .zip(&self.classes)
            .map(|((&key, &similarity), &class)| PairDecision {
                pair: unpack(key),
                similarity,
                class,
            })
    }

    /// The counts and Match closure of the decisions over `rows` rows: a
    /// read of the class column, and of the pair column at Match slots.
    pub(crate) fn partition(&self, rows: usize) -> Partition {
        let mut p = Partition {
            rows,
            ..Partition::default()
        };
        let mut uf = UnionFind::new(rows);
        for (&class, &key) in self.classes.iter().zip(&self.pairs) {
            p.count(class);
            if class == MatchClass::Match {
                let (i, j) = unpack(key);
                uf.union(i, j);
            }
        }
        p.clusters = uf.clusters(2);
        p
    }

    /// The decisions part of snapshot section 7: the count, then one
    /// `(i, j, similarity, class byte)` entry per pair, sorted by pair.
    pub(crate) fn write_section(&self, w: &mut SectionWriter) {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by_key(|&k| self.pairs[k as usize]);
        w.put_len(order.len());
        for k in order {
            let k = k as usize;
            let (i, j) = unpack(self.pairs[k]);
            w.put_u64(i as u64);
            w.put_u64(j as u64);
            w.put_f64(self.similarities[k]);
            w.put_u8(class_to_byte(self.classes[k]));
        }
    }

    /// Inverse of [`write_section`](Self::write_section) over `rows` rows:
    /// every pair canonical, in range and decided once, every similarity
    /// finite, every class byte known — or the section is malformed.
    pub(crate) fn read_section(
        r: &mut SectionReader<'_>,
        rows: usize,
    ) -> Result<Self, SnapshotError> {
        let n = r.take_len(25)?;
        let mut memo = Self::default();
        memo.reserve(n);
        for _ in 0..n {
            let i = usize::try_from(r.take_u64()?).map_err(|_| SnapshotError::Malformed {
                context: "decision row index",
            })?;
            let j = usize::try_from(r.take_u64()?).map_err(|_| SnapshotError::Malformed {
                context: "decision row index",
            })?;
            if i >= j || j >= rows {
                return Err(SnapshotError::Malformed {
                    context: "decision pair out of range",
                });
            }
            let similarity = r.take_f64()?;
            if !similarity.is_finite() {
                return Err(SnapshotError::Malformed {
                    context: "non-finite decision similarity",
                });
            }
            let class = class_from_byte(r.take_u8()?)?;
            let decision = PairDecision {
                pair: (i, j),
                similarity,
                class,
            };
            if !memo.insert(decision) {
                return Err(SnapshotError::Malformed {
                    context: "duplicate decision pair",
                });
            }
        }
        Ok(memo)
    }
}

/// Snapshot byte for a [`MatchClass`] (`Match`=0, `Possible`=1,
/// `NonMatch`=2 — part of format version 1).
fn class_to_byte(class: MatchClass) -> u8 {
    match class {
        MatchClass::Match => 0,
        MatchClass::Possible => 1,
        MatchClass::NonMatch => 2,
    }
}

/// Inverse of [`class_to_byte`]; any other byte is a corrupt snapshot.
fn class_from_byte(byte: u8) -> Result<MatchClass, SnapshotError> {
    match byte {
        0 => Ok(MatchClass::Match),
        1 => Ok(MatchClass::Possible),
        2 => Ok(MatchClass::NonMatch),
        _ => Err(SnapshotError::Malformed {
            context: "decision class byte",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    const CLASSES: [MatchClass; 3] = [
        MatchClass::Match,
        MatchClass::Possible,
        MatchClass::NonMatch,
    ];

    /// Section 7's decisions as the session wrote them from a map: sorted
    /// by pair.
    fn reference_section(reference: &FxHashMap<(usize, usize), PairDecision>) -> Vec<u8> {
        let mut entries: Vec<&PairDecision> = reference.values().collect();
        entries.sort_unstable_by_key(|d| d.pair);
        let mut w = SectionWriter::new();
        w.put_len(entries.len());
        for d in entries {
            w.put_u64(d.pair.0 as u64);
            w.put_u64(d.pair.1 as u64);
            w.put_f64(d.similarity);
            w.put_u8(class_to_byte(d.class));
        }
        w.into_bytes()
    }

    /// Everything the memo answers equals what the map answers.
    fn assert_agrees(
        memo: &DecisionMemo,
        reference: &FxHashMap<(usize, usize), PairDecision>,
        rows: usize,
        step: &str,
    ) {
        assert_eq!(memo.len(), reference.len(), "{step}: len");
        for i in 0..rows {
            for j in i + 1..rows {
                assert_eq!(memo.get((i, j)), reference.get(&(i, j)).copied(), "{step}");
                assert_eq!(memo.contains((i, j)), reference.contains_key(&(i, j)));
            }
        }
        let mut decisions: Vec<PairDecision> = memo.decisions().collect();
        decisions.sort_unstable_by_key(|d| d.pair);
        let mut want: Vec<PairDecision> = reference.values().copied().collect();
        want.sort_unstable_by_key(|d| d.pair);
        assert_eq!(decisions, want, "{step}: decisions");
        let mut pairs: Vec<(usize, usize)> = memo.pairs().collect();
        pairs.sort_unstable();
        assert!(
            pairs.iter().eq(want.iter().map(|d| &d.pair)),
            "{step}: pairs"
        );
        assert_eq!(
            memo.partition(rows),
            Partition::of(rows, reference.values()),
            "{step}: partition"
        );
        let mut w = SectionWriter::new();
        memo.write_section(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes, reference_section(reference), "{step}: section 7");
        let mut r = SectionReader::new(&bytes, "decisions");
        let reread = DecisionMemo::read_section(&mut r, rows).unwrap();
        r.finish().unwrap();
        assert!(reread.decisions().eq(want), "{step}: reread in pair order");
    }

    /// A model-based test against an `FxHashMap`: random inserts of new
    /// pairs, replacements, removals of present and absent pairs, of the
    /// last slot in particular, and re-inserts of removed pairs, compared
    /// after every step on everything the memo answers.
    #[test]
    fn memo_agrees_with_a_map_model() {
        let mut rng = TestRng::from_seed(0x3E30_0044);
        let mut draw = |bound: usize| (rng.next_u64() % bound as u64) as usize;
        for case in 0..120 {
            let rows = 2 + draw(9);
            let mut memo = DecisionMemo::default();
            let mut reference = FxHashMap::default();
            let mut removed: Vec<(usize, usize)> = Vec::new();
            for step in 0..(10 + draw(60)) {
                let step = format!("case {case}, step {step}, {rows} rows");
                let i = draw(rows - 1);
                let mut pair = (i, i + 1 + draw(rows - 1 - i));
                let op = draw(8);
                match op {
                    // Remove the pair in the last slot.
                    5 => match memo.pairs().last() {
                        Some(last) => pair = last,
                        None => continue,
                    },
                    // Re-insert a removed pair.
                    6 => match removed.pop() {
                        Some(p) => pair = p,
                        None => continue,
                    },
                    _ => {}
                }
                if op < 3 || op == 6 {
                    let d = PairDecision {
                        pair,
                        similarity: draw(5) as f64 / 4.0,
                        class: CLASSES[draw(3)],
                    };
                    let new = reference.insert(pair, d).is_none();
                    assert_eq!(memo.insert(d), new, "{step}: insert {pair:?}");
                } else {
                    if reference.remove(&pair).is_some() {
                        removed.push(pair);
                    }
                    memo.remove(pair);
                }
                assert_agrees(&memo, &reference, rows, &step);
            }
            memo.clear();
            reference.clear();
            assert_agrees(&memo, &reference, rows, "cleared");
        }
    }

    #[test]
    fn memo_section_rejects_duplicates_and_bad_pairs() {
        let entry = |w: &mut SectionWriter, i: u64, j: u64| {
            w.put_u64(i);
            w.put_u64(j);
            w.put_f64(0.5);
            w.put_u8(0);
        };
        for (entries, context) in [
            (&[(0, 1), (0, 1)][..], "duplicate decision pair"),
            (&[(1, 0)][..], "decision pair out of range"),
            (&[(0, 3)][..], "decision pair out of range"),
        ] {
            let mut w = SectionWriter::new();
            w.put_len(entries.len());
            for &(i, j) in entries {
                entry(&mut w, i, j);
            }
            let bytes = w.into_bytes();
            let err = DecisionMemo::read_section(&mut SectionReader::new(&bytes, "d"), 3)
                .expect_err(context);
            assert!(
                matches!(err, SnapshotError::Malformed { context: c } if c == context),
                "{err}"
            );
        }
    }
}
