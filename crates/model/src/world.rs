//! Possible-world semantics over sets of x-tuples.
//!
//! A *world* fixes, for every considered x-tuple, either one of its
//! alternatives or its absence (possible only for maybe x-tuples). World
//! probabilities are the products of the chosen alternative probabilities
//! (absence contributes `1 − p(t)`). This module reproduces Fig. 7 of the
//! paper: the eight worlds of the pair `(t32, t42)` and their probabilities.
//!
//! Enumeration is **lazy** ([`WorldIter`]); materialization takes an explicit
//! limit so that callers cannot accidentally explode (`|W|` grows as the
//! product of alternative counts).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::error::ModelError;
use crate::util::PROB_EPS;
use crate::xtuple::XTuple;

/// One possible world over a slice of x-tuples: `choices[i]` is
/// `Some(alternative index)` if tuple `i` is present, `None` if absent.
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    /// Chosen alternative per x-tuple (`None` = tuple absent).
    pub choices: Vec<Option<usize>>,
    /// Unconditioned probability of this world: the plain `f64` product of
    /// the chosen outcomes' probabilities in tuple order. It **underflows**:
    /// on the benchmark's dirt profile the modal world reads 1.4e-60 at
    /// 585 rows, 9.0e-181 at 1 926 and exactly `0.0` from ≈ 3 400 rows on
    /// (subnormal a little earlier), after which worlds can no longer be
    /// ranked by it — see [`top_k_worlds`]. Ranking by the ratio to the
    /// modal world instead is queued in ROADMAP.md.
    pub probability: f64,
}

impl World {
    /// Whether all considered tuples are present (the event *B* of the
    /// paper's Eq. 6 derivation).
    pub fn is_full(&self) -> bool {
        self.choices.iter().all(Option::is_some)
    }

    /// Normalized Hamming-style distance between two worlds over the same
    /// tuple set: the fraction of x-tuples whose choice differs. Used to
    /// select *pairwise dissimilar* worlds for the multi-pass SNM
    /// (Section V-A.1 argues top-probability worlds alone are too similar).
    pub fn distance(&self, other: &World) -> f64 {
        assert_eq!(
            self.choices.len(),
            other.choices.len(),
            "worlds must range over the same tuples"
        );
        if self.choices.is_empty() {
            return 0.0;
        }
        let differing = self
            .choices
            .iter()
            .zip(&other.choices)
            .filter(|(a, b)| a != b)
            .count();
        differing as f64 / self.choices.len() as f64
    }
}

/// Per-tuple outcome list: alternative indices (plus `None` if the tuple is
/// a maybe x-tuple), with their probabilities.
fn outcomes_of(t: &XTuple) -> Vec<(Option<usize>, f64)> {
    let mut v: Vec<(Option<usize>, f64)> = (0..t.len())
        .map(|i| (Some(i), t.alternatives()[i].probability()))
        .collect();
    let absent = 1.0 - t.probability();
    if absent > PROB_EPS {
        v.push((None, absent));
    }
    v
}

/// Number of possible worlds induced by `tuples` (product of per-tuple
/// outcome counts). Saturates at `u128::MAX`.
pub fn world_count(tuples: &[XTuple]) -> u128 {
    tuples.iter().fold(1u128, |acc, t| {
        acc.saturating_mul(outcomes_of(t).len() as u128)
    })
}

/// Lazy iterator over **all** possible worlds of `tuples` (odometer order:
/// first tuple varies slowest). Worlds with zero probability are skipped.
#[derive(Debug)]
pub struct WorldIter {
    outcomes: Vec<Vec<(Option<usize>, f64)>>,
    /// Odometer position; `None` once exhausted.
    cursor: Option<Vec<usize>>,
}

impl WorldIter {
    /// Enumerate the worlds of `tuples`.
    pub fn new(tuples: &[XTuple]) -> Self {
        let outcomes: Vec<_> = tuples.iter().map(outcomes_of).collect();
        let cursor = if outcomes.iter().all(|o| !o.is_empty()) {
            Some(vec![0; outcomes.len()])
        } else {
            None
        };
        Self { outcomes, cursor }
    }
}

impl Iterator for WorldIter {
    type Item = World;

    fn next(&mut self) -> Option<World> {
        let cursor = self.cursor.as_mut()?;
        let mut choices = Vec::with_capacity(cursor.len());
        let mut probability = 1.0;
        for (i, &pos) in cursor.iter().enumerate() {
            let (choice, p) = self.outcomes[i][pos];
            choices.push(choice);
            probability *= p;
        }
        // Advance the odometer (last position varies fastest).
        let mut done = true;
        for i in (0..cursor.len()).rev() {
            cursor[i] += 1;
            if cursor[i] < self.outcomes[i].len() {
                done = false;
                break;
            }
            cursor[i] = 0;
        }
        if done {
            self.cursor = None;
        }
        Some(World {
            choices,
            probability,
        })
    }
}

/// Materialize all worlds, refusing if there are more than `limit`.
pub fn enumerate_worlds(tuples: &[XTuple], limit: u128) -> Result<Vec<World>, ModelError> {
    let count = world_count(tuples);
    if count > limit {
        return Err(ModelError::WorldLimitExceeded { count, limit });
    }
    Ok(WorldIter::new(tuples).collect())
}

/// Lazy iterator over the worlds in which **every** tuple is present
/// (the event *B*). Their probabilities are unconditioned; divide by
/// [`crate::condition::existence_event_probability`] to condition on *B*.
pub fn full_worlds(tuples: &[XTuple]) -> impl Iterator<Item = World> + '_ {
    WorldIter::new(tuples).filter(World::is_full)
}

/// The `k` most probable worlds, optionally restricted to full worlds,
/// without enumerating the whole product space.
///
/// # Order contract
///
/// Per tuple, the outcomes are listed by descending probability, ties by
/// ascending choice (`None` — absent — first); a world's *position vector*
/// holds, per tuple, the index of its choice in that list, so the modal
/// world is all zeros. The result is the first `k` worlds of the total
/// order
///
/// 1. [`World::probability`] descending, where the probability is exactly
///    the `f64` left fold `1.0 · p₀ · p₁ · … · pₙ₋₁` in tuple order (what
///    [`WorldIter`] computes), then
/// 2. position vector ascending, lexicographically —
///
/// so `top_k_worlds(ts, k, f)` is a prefix of `top_k_worlds(ts, K, f)` for
/// `k ≤ K`, bit for bit. Past a few thousand uncertain tuples every
/// probability underflows to `0.0` (see [`World::probability`]) and rule 2
/// alone decides: the "top k" are then the modal world and relaxations of
/// the *last* multi-outcome tuples, not the most probable worlds.
///
/// # Search and cost
///
/// Best-first search from the modal world; a successor relaxes one tuple to
/// its next-best outcome. Floating-point multiplication is monotone, so a
/// world never sorts before the world it was relaxed from, and every world
/// is generated from exactly one parent: the one that differs in the
/// world's last relaxed tuple. A world under search is a sparse delta
/// against the modal world; only the `k` results are expanded to dense
/// [`World::choices`]. With `n` tuples, of which `m` have more than one
/// outcome: at most `k · m` heap entries of a few words each, per entry
/// one multiplication for each non-`1.0` factor from its first relaxed
/// tuple on (the fold resumes from the modal world's prefix there), and
/// `O(k · n)` for the output. (A dense search — one `n`-vector cloned,
/// hashed and multiplied through per successor — costs `k · m · n` in time
/// *and* memory.)
pub fn top_k_worlds(tuples: &[XTuple], k: usize, full_only: bool) -> Vec<World> {
    if k == 0 {
        return Vec::new();
    }
    // The modal choice of every tuple, and the sorted outcome list of every
    // *live* tuple. A tuple whose only outcome has probability exactly 1.0
    // is dead: it contributes `x · 1.0 == x` to every fold and position 0
    // to every position vector, so the search leaves it out.
    let mut modal_choices = Vec::with_capacity(tuples.len());
    let mut live: Vec<Vec<(Option<usize>, f64)>> = Vec::new();
    let mut live_tuple = Vec::new();
    for (i, t) in tuples.iter().enumerate() {
        let mut o = outcomes_of(t);
        if full_only {
            o.retain(|(c, _)| c.is_some());
        }
        o.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
        let Some(&(choice, p)) = o.first() else {
            return Vec::new();
        };
        modal_choices.push(choice);
        if o.len() > 1 || p != 1.0 {
            live.push(o);
            live_tuple.push(i);
        }
    }
    // `prefix[j]`: the modal world's fold over the live tuples before `j`.
    let mut prefix = Vec::with_capacity(live.len() + 1);
    prefix.push(1.0);
    for o in &live {
        prefix.push(prefix[prefix.len() - 1] * o[0].1);
    }

    /// A relaxed tuple: index into `live`, position (≥ 1) in its outcomes.
    type Relaxed = (usize, usize);

    /// A world under search: the relaxed tuples in ascending order.
    struct Entry {
        prob: f64,
        delta: Vec<Relaxed>,
    }
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other).is_eq()
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        /// The order contract, greatest first out of the heap. Position
        /// vectors compare on the deltas: at the first tuple either world
        /// relaxes the other still sits at 0, so the *earlier* tuple (or
        /// the larger position on the same tuple) is the larger vector,
        /// and a delta that is a prefix of the other is the smaller one.
        fn cmp(&self, other: &Self) -> Ordering {
            let key = |&(tuple, pos): &Relaxed| (Reverse(tuple), pos);
            self.prob
                .partial_cmp(&other.prob)
                .expect("no NaN")
                .then_with(|| other.delta.iter().map(key).cmp(self.delta.iter().map(key)))
        }
    }

    // The left fold of the contract, resumed from the modal prefix at the
    // first relaxed tuple.
    let entry = |delta: Vec<Relaxed>| -> Entry {
        let mut next = delta.first().map_or(live.len(), |&(j, _)| j);
        let mut prob = prefix[next];
        for &(j, pos) in &delta {
            prob = live[next..j].iter().fold(prob, |acc, o| acc * o[0].1);
            prob *= live[j][pos].1;
            next = j + 1;
        }
        prob = live[next..].iter().fold(prob, |acc, o| acc * o[0].1);
        Entry { prob, delta }
    };

    let mut heap = BinaryHeap::new();
    heap.push(entry(Vec::new()));
    let mut result = Vec::new();
    while let Some(Entry { prob, delta }) = heap.pop() {
        let mut choices = modal_choices.clone();
        for &(j, pos) in &delta {
            choices[live_tuple[j]] = live[j][pos].0;
        }
        result.push(World {
            choices,
            probability: prob,
        });
        if result.len() == k {
            break;
        }
        // Children of this world: its last relaxed tuple one step further,
        // or one later tuple relaxed for the first time.
        let mut later = 0;
        if let Some(&(j, pos)) = delta.last() {
            if pos + 1 < live[j].len() {
                let mut further = delta.clone();
                further[delta.len() - 1].1 += 1;
                heap.push(entry(further));
            }
            later = j + 1;
        }
        for (j, o) in live.iter().enumerate().skip(later) {
            if o.len() > 1 {
                heap.push(entry([&delta[..], &[(j, 1)]].concat()));
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        Schema::new(["name", "job"])
    }

    /// Fig. 5's t32 and t42.
    fn fig7_tuples() -> Vec<XTuple> {
        vec![
            XTuple::builder(&schema())
                .alt(0.3, ["Tim", "mechanic"])
                .alt(0.2, ["Jim", "mechanic"])
                .alt(0.4, ["Jim", "baker"])
                .label("t32")
                .build()
                .unwrap(),
            XTuple::builder(&schema())
                .alt(0.8, ["Tom", "mechanic"])
                .label("t42")
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn fig7_eight_worlds_with_exact_probabilities() {
        let ts = fig7_tuples();
        assert_eq!(world_count(&ts), 8);
        let worlds = enumerate_worlds(&ts, 100).unwrap();
        assert_eq!(worlds.len(), 8);
        let total: f64 = worlds.iter().map(|w| w.probability).sum();
        assert!((total - 1.0).abs() < 1e-12);

        // Paper's Fig. 7 probabilities.
        let p = |c1: Option<usize>, c2: Option<usize>| {
            worlds
                .iter()
                .find(|w| w.choices == vec![c1, c2])
                .map(|w| w.probability)
                .unwrap()
        };
        assert!((p(Some(0), Some(0)) - 0.24).abs() < 1e-12); // I1
        assert!((p(Some(1), Some(0)) - 0.16).abs() < 1e-12); // I2
        assert!((p(Some(2), Some(0)) - 0.32).abs() < 1e-12); // I3
        assert!((p(None, Some(0)) - 0.08).abs() < 1e-12); // I4
        assert!((p(Some(0), None) - 0.06).abs() < 1e-12); // I5
        assert!((p(Some(1), None) - 0.04).abs() < 1e-12); // I6
        assert!((p(Some(2), None) - 0.08).abs() < 1e-12); // I7
        assert!((p(None, None) - 0.02).abs() < 1e-12); // I8
    }

    #[test]
    fn fig7_full_worlds_are_i1_i2_i3() {
        let ts = fig7_tuples();
        let full: Vec<World> = full_worlds(&ts).collect();
        assert_eq!(full.len(), 3);
        let total: f64 = full.iter().map(|w| w.probability).sum();
        // P(B) = 0.72 (paper).
        assert!((total - 0.72).abs() < 1e-12);
    }

    #[test]
    fn enumeration_limit_enforced() {
        let ts = fig7_tuples();
        assert!(matches!(
            enumerate_worlds(&ts, 7),
            Err(ModelError::WorldLimitExceeded { count: 8, limit: 7 })
        ));
    }

    #[test]
    fn no_absence_outcome_for_certain_tuples() {
        let t = XTuple::builder(&schema())
            .alt(0.5, ["a", "b"])
            .alt(0.5, ["c", "d"])
            .build()
            .unwrap();
        assert_eq!(world_count(&[t]), 2);
    }

    #[test]
    fn top_k_is_sorted_and_correct() {
        let ts = fig7_tuples();
        let top3 = top_k_worlds(&ts, 3, false);
        assert_eq!(top3.len(), 3);
        assert!((top3[0].probability - 0.32).abs() < 1e-12); // I3
        assert!((top3[1].probability - 0.24).abs() < 1e-12); // I1
        assert!((top3[2].probability - 0.16).abs() < 1e-12); // I2
                                                             // Against full enumeration.
        let mut all = enumerate_worlds(&ts, 100).unwrap();
        all.sort_by(|a, b| b.probability.partial_cmp(&a.probability).unwrap());
        for (t, a) in top3.iter().zip(all.iter()) {
            assert!((t.probability - a.probability).abs() < 1e-12);
        }
    }

    #[test]
    fn top_k_full_only_restricts_to_event_b() {
        let ts = fig7_tuples();
        let top = top_k_worlds(&ts, 10, true);
        assert_eq!(top.len(), 3);
        assert!(top.iter().all(World::is_full));
    }

    #[test]
    fn top_k_with_k_exceeding_world_count() {
        let ts = fig7_tuples();
        assert_eq!(top_k_worlds(&ts, 100, false).len(), 8);
    }

    #[test]
    fn empty_tuple_set_has_one_world() {
        assert_eq!(world_count(&[]), 1);
        let ws = enumerate_worlds(&[], 10).unwrap();
        assert_eq!(ws.len(), 1);
        assert!(ws[0].is_full());
        assert_eq!(top_k_worlds(&[], 5, false).len(), 1);
    }

    #[test]
    fn world_distance() {
        let ts = fig7_tuples();
        let worlds = enumerate_worlds(&ts, 100).unwrap();
        let i1 = &worlds[0]; // (0, 0)
        assert_eq!(i1.distance(i1), 0.0);
        let other = worlds
            .iter()
            .find(|w| w.choices == vec![Some(1), None])
            .unwrap();
        assert_eq!(i1.distance(other), 1.0);
        let half = worlds
            .iter()
            .find(|w| w.choices == vec![Some(1), Some(0)])
            .unwrap();
        assert_eq!(i1.distance(half), 0.5);
    }

    #[test]
    fn lazy_iterator_counts_match() {
        let ts = fig7_tuples();
        assert_eq!(WorldIter::new(&ts).count() as u128, world_count(&ts));
    }
}
