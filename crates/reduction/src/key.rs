//! Sorting/blocking keys over (possibly uncertain) attribute values.
//!
//! The paper's running key: *"the first three characters of the name value
//! and the first two characters of the job value"* — e.g. `(John, pilot) →
//! "Johpi"`. For probabilistic tuples the key itself becomes a
//! distribution: [`KeySpec::key_distribution`] (over a value row) and
//! [`KeySpec::xtuple_keys`] (over a whole x-tuple, reproducing the
//! probabilistic key values of Fig. 13).
//!
//! Two representations coexist:
//!
//! * the **string path** ([`KeySpec::alternative_keys`],
//!   [`KeySpec::xtuple_keys`], …) renders owned `String` keys — the
//!   readable reference, retained as the property-tested oracle of the
//!   interned path;
//! * the **interned path** ([`KeyTable`], built by [`KeySpec::key_table`])
//!   renders each distinct `(value, prefix length)` once into a
//!   [`KeyPool`] and hands out dense
//!   [`KeySymbol`]s plus a lexicographic rank table, so the SNM and
//!   blocking sorts are pure integer work — multi-pass methods become
//!   sort-only after the table is built.

use probdedup_model::intern::{KeyPool, KeyRanks, KeySymbol, ValuePool};
use probdedup_model::pvalue::PValue;
use probdedup_model::util::PROB_EPS;
use probdedup_model::value::Value;
use probdedup_model::xtuple::XTuple;

/// One key component: a prefix of one attribute's rendered value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPart {
    /// Attribute index.
    pub attr: usize,
    /// Number of leading characters to take (`0` = the whole value).
    pub prefix_len: usize,
}

impl KeyPart {
    /// A prefix component.
    pub fn prefix(attr: usize, prefix_len: usize) -> Self {
        Self { attr, prefix_len }
    }

    /// The whole attribute value.
    pub fn full(attr: usize) -> Self {
        Self {
            attr,
            prefix_len: 0,
        }
    }

    fn render(&self, v: &Value) -> String {
        let s = v.render();
        if self.prefix_len == 0 {
            s
        } else {
            s.chars().take(self.prefix_len).collect()
        }
    }
}

/// Cartesian-product guard for key distributions: a row's key distribution
/// keeps at most this many combinations, bounding the work a row of
/// untrusted, widely uncertain input can cause.
const MAX_EXPANSION: usize = 4096;

/// A sorting/blocking key specification: the concatenation of its parts.
/// `⊥` values render as the empty string, so `(John, ⊥)` under the paper's
/// key yields `"Joh"` — exactly tuple `t43`'s first key in Fig. 13.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySpec {
    parts: Vec<KeyPart>,
}

impl KeySpec {
    /// A key from parts.
    pub fn new(parts: Vec<KeyPart>) -> Self {
        Self { parts }
    }

    /// The paper's example key: first 3 characters of attribute `name_attr`
    /// + first 2 characters of attribute `job_attr`.
    pub fn paper_example(name_attr: usize, job_attr: usize) -> Self {
        Self::new(vec![
            KeyPart::prefix(name_attr, 3),
            KeyPart::prefix(job_attr, 2),
        ])
    }

    /// The parts.
    pub fn parts(&self) -> &[KeyPart] {
        &self.parts
    }

    /// Key distribution of a row of possibly-uncertain values: the cartesian
    /// product of the referenced attributes' outcome distributions, with
    /// equal keys merged. Probabilities sum to 1 (⊥ outcomes contribute the
    /// empty string for their part). Truncated at `MAX_EXPANSION`
    /// combinations (most probable first is *not* guaranteed under
    /// truncation; the guard exists for pathological inputs).
    pub fn key_distribution(&self, values: &[PValue]) -> Vec<(String, f64)> {
        // Outcome lists only for referenced attributes, in part order.
        let lists: Vec<Vec<(String, f64)>> = self
            .parts
            .iter()
            .map(|part| {
                let pv = &values[part.attr];
                let mut outcomes: Vec<(String, f64)> = pv
                    .alternatives()
                    .iter()
                    .map(|(v, p)| (part.render(v), *p))
                    .collect();
                if pv.null_prob() > PROB_EPS {
                    outcomes.push((String::new(), pv.null_prob()));
                }
                // Merge outcomes that render identically (e.g. `musician`
                // and `museum guide` both render `mu` under a 2-prefix).
                outcomes.sort_by(|a, b| a.0.cmp(&b.0));
                outcomes.dedup_by(|b, a| {
                    if a.0 == b.0 {
                        a.1 += b.1;
                        true
                    } else {
                        false
                    }
                });
                outcomes
            })
            .collect();
        // Odometer over the (merged) outcome lists.
        let mut dist: Vec<(String, f64)> = vec![(String::new(), 1.0)];
        for list in lists {
            let mut next = Vec::with_capacity(dist.len() * list.len());
            for (prefix, p) in &dist {
                for (piece, q) in &list {
                    next.push((format!("{prefix}{piece}"), p * q));
                    if next.len() > MAX_EXPANSION {
                        break;
                    }
                }
            }
            dist = next;
            if dist.len() > MAX_EXPANSION {
                dist.truncate(MAX_EXPANSION);
            }
        }
        dist.sort_by(|a, b| a.0.cmp(&b.0));
        dist.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 += b.1;
                true
            } else {
                false
            }
        });
        dist
    }

    /// The probabilistic key values of an x-tuple (Fig. 13): the union over
    /// alternatives of their key distributions, weighted by the **raw**
    /// alternative probabilities (so the masses sum to `p(t)`, exactly as
    /// printed in the figure), with equal keys merged.
    pub fn xtuple_keys(&self, t: &XTuple) -> Vec<(String, f64)> {
        let mut dist: Vec<(String, f64)> = Vec::new();
        for alt in t.alternatives() {
            for (key, p) in self.key_distribution(alt.values()) {
                match dist.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, q)) => *q += p * alt.probability(),
                    None => dist.push((key, p * alt.probability())),
                }
            }
        }
        dist
    }

    /// The single most probable key of an x-tuple (ties break toward the
    /// lexicographically smaller key for determinism).
    pub fn most_probable_key(&self, t: &XTuple) -> String {
        let mut keys = self.xtuple_keys(t);
        keys.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite probabilities")
                .then(a.0.cmp(&b.0))
        });
        keys.into_iter().next().map(|(k, _)| k).unwrap_or_default()
    }

    /// One certain key per alternative of an x-tuple, resolving uncertain
    /// values *inside* an alternative to their most probable outcome — the
    /// per-alternative keys of the sorting-alternatives method (Fig. 11)
    /// and of per-alternative blocking (Fig. 14).
    pub fn alternative_keys(&self, t: &XTuple) -> Vec<String> {
        t.alternatives()
            .iter()
            .map(|alt| {
                let mut key = String::new();
                for part in &self.parts {
                    let pv = alt.value(part.attr);
                    // Prefer the most probable *rendered prefix*, so that a
                    // distribution like `mu*` (all outcomes sharing the
                    // prefix `mu`) contributes `mu` even though each single
                    // outcome is improbable.
                    let dist = self.part_distribution(part, pv);
                    if let Some((piece, _)) = dist.first() {
                        key.push_str(piece);
                    }
                }
                key
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Interned path: the same key semantics over dense `KeySymbol`s.
    // Every method below is oracle-tested against its string twin above.
    // ------------------------------------------------------------------

    /// Build the cached key table of this spec over `tuples`: every
    /// alternative's key as a [`KeySymbol`], with all prefix rendering done
    /// **here, once** — consumers (SNM and blocking passes) never
    /// touch key strings again. See [`KeyTable`].
    pub fn key_table(&self, tuples: &[XTuple]) -> KeyTable {
        let mut table = KeyTable::empty(self.clone());
        table.extend(tuples);
        table
    }

    /// Interned twin of [`KeySpec::alternative_keys`]: one key symbol per
    /// alternative, resolving uncertain values inside an alternative to
    /// their most probable rendered prefix.
    pub fn alternative_key_symbols(
        &self,
        t: &XTuple,
        values: &mut ValuePool,
        keys: &mut KeyPool,
    ) -> Vec<KeySymbol> {
        t.alternatives()
            .iter()
            .map(|alt| {
                // Fold over memoized pairwise concatenation: when every
                // cache hits, an alternative's key costs a few hash probes
                // and zero allocations.
                self.parts.iter().fold(KeySymbol::EMPTY, |acc, part| {
                    let piece = self.part_symbol(part, alt.value(part.attr), values, keys);
                    keys.concat2(acc, piece)
                })
            })
            .collect()
    }

    /// Interned twin of [`KeySpec::key_distribution`]: the cartesian
    /// product of the referenced attributes' outcome distributions with
    /// equal keys merged, as symbols. Identical ordering and
    /// `MAX_EXPANSION` truncation behaviour as the string path.
    pub fn key_symbol_distribution(
        &self,
        pvalues: &[PValue],
        values: &mut ValuePool,
        keys: &mut KeyPool,
    ) -> Vec<(KeySymbol, f64)> {
        let lists: Vec<Vec<(KeySymbol, f64)>> = self
            .parts
            .iter()
            .map(|part| self.part_symbol_distribution(part, &pvalues[part.attr], values, keys))
            .collect();
        let mut dist: Vec<(KeySymbol, f64)> = vec![(KeySymbol::EMPTY, 1.0)];
        for list in lists {
            let mut next = Vec::with_capacity(dist.len() * list.len());
            for (prefix, p) in &dist {
                for (piece, q) in &list {
                    next.push((keys.concat2(*prefix, *piece), p * q));
                    if next.len() > MAX_EXPANSION {
                        break;
                    }
                }
            }
            dist = next;
            if dist.len() > MAX_EXPANSION {
                dist.truncate(MAX_EXPANSION);
            }
        }
        merge_equal_symbols(&mut dist, keys);
        dist
    }

    /// Interned twin of [`KeySpec::xtuple_keys`]: the probabilistic key
    /// values of an x-tuple (Fig. 13) as symbols, masses summing to `p(t)`.
    pub fn xtuple_key_symbols(
        &self,
        t: &XTuple,
        values: &mut ValuePool,
        keys: &mut KeyPool,
    ) -> Vec<(KeySymbol, f64)> {
        let mut dist: Vec<(KeySymbol, f64)> = Vec::new();
        for alt in t.alternatives() {
            for (key, p) in self.key_symbol_distribution(alt.values(), values, keys) {
                match dist.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, q)) => *q += p * alt.probability(),
                    None => dist.push((key, p * alt.probability())),
                }
            }
        }
        dist
    }

    /// Interned twin of [`KeySpec::most_probable_key`] (ties break toward
    /// the lexicographically smaller key).
    pub fn most_probable_key_symbol(
        &self,
        t: &XTuple,
        values: &mut ValuePool,
        keys: &mut KeyPool,
    ) -> KeySymbol {
        let dist = self.xtuple_key_symbols(t, values, keys);
        dist.into_iter()
            .max_by(|(ka, pa), (kb, pb)| {
                pa.partial_cmp(pb)
                    .expect("finite probabilities")
                    .then_with(|| keys.resolve(*kb).cmp(keys.resolve(*ka)))
            })
            .map(|(k, _)| k)
            .unwrap_or(KeySymbol::EMPTY)
    }

    /// The most probable rendered prefix of one part over one value, as a
    /// symbol — the interned analogue of `part_distribution(..).first()`.
    fn part_symbol(
        &self,
        part: &KeyPart,
        pv: &PValue,
        values: &mut ValuePool,
        keys: &mut KeyPool,
    ) -> KeySymbol {
        // Fast path: a certain value has exactly one rendered prefix — no
        // distribution to build, no sort, no allocation.
        if pv.null_prob() <= PROB_EPS {
            if let [(v, _)] = pv.alternatives() {
                let sym = values.intern(v);
                return keys.prefix_of(values, sym, part.prefix_len);
            }
        }
        let outcomes = self.part_symbol_distribution(part, pv, values, keys);
        // Argmax by probability, ties toward the smaller string; the list
        // arrives string-sorted, so a strict-greater scan implements the
        // oracle's (prob desc, string asc) ordering.
        let mut best: Option<(KeySymbol, f64)> = None;
        for (k, p) in outcomes {
            match best {
                Some((_, bp)) if p <= bp => {}
                _ => best = Some((k, p)),
            }
        }
        best.map(|(k, _)| k).unwrap_or(KeySymbol::EMPTY)
    }

    /// Outcome distribution of one part as symbols, string-sorted with
    /// equal renders merged — mirrors the per-part lists of
    /// [`KeySpec::key_distribution`] exactly (including ordering, which the
    /// `MAX_EXPANSION` truncation depends on).
    fn part_symbol_distribution(
        &self,
        part: &KeyPart,
        pv: &PValue,
        values: &mut ValuePool,
        keys: &mut KeyPool,
    ) -> Vec<(KeySymbol, f64)> {
        let mut outcomes: Vec<(KeySymbol, f64)> = pv
            .alternatives()
            .iter()
            .map(|(v, p)| {
                let sym = values.intern(v);
                (keys.prefix_of(values, sym, part.prefix_len), *p)
            })
            .collect();
        if pv.null_prob() > PROB_EPS {
            outcomes.push((KeySymbol::EMPTY, pv.null_prob()));
        }
        merge_equal_symbols(&mut outcomes, keys);
        outcomes
    }

    /// Rendered-prefix distribution of one part over one value, most
    /// probable first (ties toward the smaller string).
    fn part_distribution(&self, part: &KeyPart, pv: &PValue) -> Vec<(String, f64)> {
        let mut outcomes: Vec<(String, f64)> = pv
            .alternatives()
            .iter()
            .map(|(v, p)| (part.render(v), *p))
            .collect();
        if pv.null_prob() > PROB_EPS {
            outcomes.push((String::new(), pv.null_prob()));
        }
        outcomes.sort_by(|a, b| a.0.cmp(&b.0));
        outcomes.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 += b.1;
                true
            } else {
                false
            }
        });
        outcomes.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite probabilities")
                .then(a.0.cmp(&b.0))
        });
        outcomes
    }
}

/// Sort a symbol distribution by rendered string and merge entries whose
/// symbols are equal (equal strings ⟺ equal symbols, so this mirrors the
/// string path's sort-and-dedup merge byte for byte).
fn merge_equal_symbols(dist: &mut Vec<(KeySymbol, f64)>, keys: &KeyPool) {
    dist.sort_by(|a, b| keys.resolve(a.0).cmp(keys.resolve(b.0)));
    dist.dedup_by(|b, a| {
        if a.0 == b.0 {
            a.1 += b.1;
            true
        } else {
            false
        }
    });
}

/// Insert the sorted `fresh` into the sorted `resident`, each element
/// after every resident one that is `le` it (so ties keep residents
/// first, as a stable sort of the concatenation would): slots are found by
/// binary search over the resident elements only, then one pass moves the
/// tail behind the first slot — no compare between two residents. Returns
/// the final positions of the fresh elements, ascending.
pub(crate) fn insert_sorted<T>(
    resident: &mut Vec<T>,
    fresh: Vec<T>,
    le: impl Fn(&T, &T) -> bool,
) -> Vec<usize> {
    let mut slots = Vec::with_capacity(fresh.len());
    let mut lo = 0;
    for f in &fresh {
        lo += resident[lo..].partition_point(|r| le(r, f));
        slots.push(lo);
    }
    let Some(&first) = slots.first() else {
        return slots;
    };
    let mut tail = resident.split_off(first).into_iter();
    resident.reserve(tail.len() + fresh.len());
    let mut taken = first;
    for (f, slot) in fresh.into_iter().zip(&mut slots) {
        resident.extend(tail.by_ref().take(*slot - taken));
        taken = *slot;
        *slot = resident.len();
        resident.push(f);
    }
    resident.extend(tail);
    slots
}

/// The interned key table of one `(KeySpec, tuples)` pair: every
/// alternative's key as a [`KeySymbol`], the issuing [`KeyPool`], and a
/// lexicographic rank table.
///
/// Built by [`KeySpec::key_table`] — this is where **all** key rendering
/// happens. Between growth operations the table is read-only: SNM and
/// blocking sort by [`KeyTable::rank`] (integer compares, byte-identical
/// order to string sorting; a block is a run of equal symbols), and
/// multi-pass methods reuse the same table across passes, so passes ≥ 2
/// perform zero renders and zero allocations — the property tests assert
/// this via [`KeyTable::render_count`].
///
/// A persistent session grows the table instead of rebuilding it:
/// [`KeyTable::extend`] interns only the **new** tuples' keys (re-using
/// every cached prefix render) and rank-**inserts** the newly distinct key
/// strings into the resident sorted order — no full re-sort, and zero
/// renders for values already seen. [`KeyTable::clear_rows`] drops the
/// per-tuple rows while keeping the warm pools, for re-keying a changed
/// corpus.
#[derive(Debug, Clone)]
pub struct KeyTable {
    spec: KeySpec,
    values: ValuePool,
    keys: KeyPool,
    alt_keys: Vec<Vec<KeySymbol>>,
    /// Every interned key symbol in lexicographic order of its string
    /// (`sorted[rank] = symbol`); kept resident so growth can rank-insert.
    sorted: Vec<KeySymbol>,
    ranks: KeyRanks,
}

impl KeyTable {
    /// An empty table for `spec` (no tuples yet); grow with
    /// [`KeyTable::extend`].
    pub fn empty(spec: KeySpec) -> Self {
        let keys = KeyPool::new();
        let sorted: Vec<KeySymbol> = keys.iter().map(|(k, _)| k).collect(); // [""]
        let ranks = KeyRanks::from_sorted(&sorted);
        Self {
            spec,
            values: ValuePool::new(),
            keys,
            alt_keys: Vec::new(),
            sorted,
            ranks,
        }
    }

    /// The key spec the table renders.
    pub fn spec(&self) -> &KeySpec {
        &self.spec
    }

    /// Append the per-alternative key rows of `tuples` (they become tuples
    /// `self.len()..self.len() + tuples.len()`), interning only what has
    /// not been seen: prefixes of already-interned values are cache hits
    /// (zero renders), and only newly **distinct** key strings are
    /// rank-inserted into the resident sorted order — a merge, never a
    /// full re-sort.
    pub fn extend(&mut self, tuples: &[XTuple]) {
        let spec = self.spec.clone();
        for t in tuples {
            let row = spec.alternative_key_symbols(t, &mut self.values, &mut self.keys);
            self.alt_keys.push(row);
        }
        self.absorb_new_keys();
    }

    /// Run `f` with mutable access to the table's pools (for interning
    /// keys outside the per-alternative rows — e.g. conflict-resolved or
    /// most-probable keys), then absorb whatever new key symbols `f`
    /// interned into the sorted order and rank table.
    pub fn intern_with<R>(&mut self, f: impl FnOnce(&mut ValuePool, &mut KeyPool) -> R) -> R {
        let out = f(&mut self.values, &mut self.keys);
        self.absorb_new_keys();
        out
    }

    /// Drop the per-tuple rows but keep the warm pools, sorted order and
    /// rank table — re-keying a different corpus over the same spec then
    /// renders only values never seen before.
    pub fn clear_rows(&mut self) {
        self.alt_keys.clear();
    }

    /// Rank-insert every key symbol interned since the last absorb: the
    /// new symbols are sorted among themselves and placed into the
    /// resident order by [`insert_sorted`] (distinct strings — no ties;
    /// `log` string compares per new key, none between resident keys),
    /// then the dense rank array is rebuilt in `O(len)`.
    fn absorb_new_keys(&mut self) {
        let known = self.sorted.len();
        if known == self.keys.len() {
            return;
        }
        let keys = &self.keys;
        let mut fresh: Vec<KeySymbol> = keys.iter().skip(known).map(|(k, _)| k).collect();
        fresh.sort_unstable_by(|&a, &b| keys.resolve(a).cmp(keys.resolve(b)));
        insert_sorted(&mut self.sorted, fresh, |&r, &f| {
            keys.resolve(r) <= keys.resolve(f)
        });
        self.ranks = KeyRanks::from_sorted(&self.sorted);
    }

    /// Number of tuples the table covers.
    pub fn len(&self) -> usize {
        self.alt_keys.len()
    }

    /// Whether the table covers no tuples.
    pub fn is_empty(&self) -> bool {
        self.alt_keys.is_empty()
    }

    /// The per-alternative key symbols of tuple `i` (interned twin of
    /// [`KeySpec::alternative_keys`]).
    #[inline]
    pub fn alternative_keys(&self, i: usize) -> &[KeySymbol] {
        &self.alt_keys[i]
    }

    /// The lexicographic rank of `k`: sorting entries by rank is
    /// byte-identical to sorting by key string.
    #[inline]
    pub fn rank(&self, k: KeySymbol) -> u32 {
        self.ranks.rank(k)
    }

    /// The rank table itself.
    pub fn ranks(&self) -> &KeyRanks {
        &self.ranks
    }

    /// The rendered key string behind a symbol (inspection views only —
    /// the hot paths never call this).
    #[inline]
    pub fn resolve(&self, k: KeySymbol) -> &str {
        self.keys.resolve(k)
    }

    /// How many key-prefix renders (prefix-cache misses reading a value's
    /// text — see [`KeyPool::render_count`]) building this table has cost.
    /// Flat outside growth operations: multi-pass consumers assert it
    /// stays put across passes, and sessions assert a warm rerun (or an
    /// [`extend`](Self::extend) over already-seen values) adds zero.
    pub fn render_count(&self) -> u64 {
        self.keys.render_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdedup_model::schema::Schema;

    fn schema() -> Schema {
        Schema::new(["name", "job"])
    }

    fn spec() -> KeySpec {
        KeySpec::paper_example(0, 1)
    }

    #[test]
    fn certain_key_construction() {
        let values = [PValue::certain("John"), PValue::certain("pilot")];
        let dist = spec().key_distribution(&values);
        assert_eq!(dist, vec![("Johpi".to_string(), 1.0)]);
    }

    #[test]
    fn null_renders_empty() {
        // Fig. 13: t43's alternative (John, ⊥) → key "Joh".
        let values = [PValue::certain("John"), PValue::null()];
        let dist = spec().key_distribution(&values);
        assert_eq!(dist, vec![("Joh".to_string(), 1.0)]);
    }

    #[test]
    fn key_distribution_merges_equal_keys() {
        // mu* ≈ uniform over {musician, museum guide}: both render "mu".
        let mu = PValue::uniform(["musician", "museum guide"]).unwrap();
        let values = vec![PValue::certain("Johan"), mu];
        let dist = spec().key_distribution(&values);
        assert_eq!(dist, vec![("Johmu".to_string(), 1.0)]);
    }

    #[test]
    fn key_distribution_includes_null_branch() {
        // job = {pilot: 0.6, ⊥: 0.4} → keys "Johpi" 0.6, "Joh" 0.4.
        let values = vec![
            PValue::certain("John"),
            PValue::categorical([("pilot", 0.6)]).unwrap(),
        ];
        let mut dist = spec().key_distribution(&values);
        dist.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(dist.len(), 2);
        assert_eq!(dist[0].0, "Joh");
        assert!((dist[0].1 - 0.4).abs() < 1e-12);
        assert_eq!(dist[1].0, "Johpi");
        assert!((dist[1].1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn fig13_xtuple_keys() {
        let s = schema();
        // t31: (John, pilot):0.7 | (Johan, mu*):0.3 → Johpi 0.7, Johmu 0.3.
        let mu = PValue::uniform(["musician", "museum guide"]).unwrap();
        let t31 = XTuple::builder(&s)
            .alt(0.7, ["John", "pilot"])
            .alt_pvalues(0.3, [PValue::certain("Johan"), mu])
            .build()
            .unwrap();
        let mut keys = spec().xtuple_keys(&t31);
        keys.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].0, "Johmu");
        assert!((keys[0].1 - 0.3).abs() < 1e-12);
        assert_eq!(keys[1].0, "Johpi");
        assert!((keys[1].1 - 0.7).abs() < 1e-12);

        // t43: (John, ⊥):0.2 | (Sean, pilot):0.6 → Joh 0.2, Seapi 0.6
        // (masses sum to p(t) = 0.8, as printed in Fig. 13).
        let t43 = XTuple::builder(&s)
            .alt(0.2, [Value::from("John"), Value::Null])
            .alt(0.6, ["Sean", "pilot"])
            .build()
            .unwrap();
        let mut keys = spec().xtuple_keys(&t43);
        keys.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(keys[0], ("Joh".to_string(), 0.2));
        assert_eq!(keys[1].0, "Seapi");
        assert!((keys[1].1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn fig13_t41_certain_key_despite_two_alternatives() {
        // t41: (John, pilot):0.8 | (Johan, pianist):0.2 — both render
        // "Johpi": "t41 has a certain key value despite of having two
        // alternative tuples."
        let s = schema();
        let t41 = XTuple::builder(&s)
            .alt(0.8, ["John", "pilot"])
            .alt(0.2, ["Johan", "pianist"])
            .build()
            .unwrap();
        let keys = spec().xtuple_keys(&t41);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].0, "Johpi");
        assert!((keys[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn most_probable_key() {
        let s = schema();
        let t32 = XTuple::builder(&s)
            .alt(0.3, ["Tim", "mechanic"])
            .alt(0.2, ["Jim", "mechanic"])
            .alt(0.4, ["Jim", "baker"])
            .build()
            .unwrap();
        // Keys: Timme 0.3, Jimme 0.2, Jimba 0.4 → most probable "Jimba".
        assert_eq!(spec().most_probable_key(&t32), "Jimba");
    }

    #[test]
    fn alternative_keys_fig11() {
        let s = schema();
        let mu = PValue::uniform(["musician", "museum guide"]).unwrap();
        let t31 = XTuple::builder(&s)
            .alt(0.7, ["John", "pilot"])
            .alt_pvalues(0.3, [PValue::certain("Johan"), mu])
            .build()
            .unwrap();
        // Fig. 11: t31 contributes keys Johpi and Johmu.
        assert_eq!(spec().alternative_keys(&t31), vec!["Johpi", "Johmu"]);
    }

    #[test]
    fn full_part_takes_whole_value() {
        let spec = KeySpec::new(vec![KeyPart::full(0)]);
        let values = vec![PValue::certain("Johannes"), PValue::certain("x")];
        assert_eq!(
            spec.key_distribution(&values),
            vec![("Johannes".into(), 1.0)]
        );
    }

    #[test]
    fn expansion_guard_truncates() {
        // 65 × 65 = 4225 distinct keys, above the guard.
        let spec = KeySpec::new(vec![KeyPart::prefix(0, 3), KeyPart::prefix(1, 3)]);
        let wide = |tag: char| PValue::uniform((0..65).map(|i| format!("{tag}{i:02}"))).unwrap();
        let values = [wide('a'), wide('b')];
        assert_eq!(spec.key_distribution(&values).len(), MAX_EXPANSION);
        let (mut pool, mut keys) = (ValuePool::new(), KeyPool::new());
        let symbols = spec.key_symbol_distribution(&values, &mut pool, &mut keys);
        assert_eq!(symbols.len(), MAX_EXPANSION);
    }

    #[test]
    fn key_table_matches_string_alternative_keys() {
        let s = schema();
        let mu = PValue::uniform(["musician", "museum guide"]).unwrap();
        let tuples = vec![
            XTuple::builder(&s)
                .alt(0.7, ["John", "pilot"])
                .alt_pvalues(0.3, [PValue::certain("Johan"), mu])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.2, [Value::from("John"), Value::Null])
                .alt(0.6, ["Sean", "pilot"])
                .build()
                .unwrap(),
        ];
        let spec = spec();
        let table = spec.key_table(&tuples);
        for (i, t) in tuples.iter().enumerate() {
            let strings = spec.alternative_keys(t);
            let resolved: Vec<&str> = table
                .alternative_keys(i)
                .iter()
                .map(|&k| table.resolve(k))
                .collect();
            assert_eq!(resolved, strings);
        }
        // Rendering happened at build time and is bounded by distinct
        // (value, len) pairs, not by tuples × parts.
        assert!(table.render_count() > 0);
        let before = table.render_count();
        let _ = table.alternative_keys(0);
        let _ = table.rank(table.alternative_keys(1)[0]);
        assert_eq!(table.render_count(), before, "reads must not render");
    }

    #[test]
    fn xtuple_key_symbols_match_string_path() {
        let s = schema();
        let mu = PValue::uniform(["musician", "museum guide"]).unwrap();
        let t31 = XTuple::builder(&s)
            .alt(0.7, ["John", "pilot"])
            .alt_pvalues(0.3, [PValue::certain("Johan"), mu])
            .build()
            .unwrap();
        let spec = spec();
        let mut vp = ValuePool::new();
        let mut kp = KeyPool::new();
        let symbolic = spec.xtuple_key_symbols(&t31, &mut vp, &mut kp);
        let strings = spec.xtuple_keys(&t31);
        assert_eq!(symbolic.len(), strings.len());
        for ((k, p), (sk, sp)) in symbolic.iter().zip(&strings) {
            assert_eq!(kp.resolve(*k), sk);
            assert!((p - sp).abs() < 1e-15);
        }
        let mpk = spec.most_probable_key_symbol(&t31, &mut vp, &mut kp);
        assert_eq!(kp.resolve(mpk), spec.most_probable_key(&t31));
    }

    #[test]
    fn extended_table_matches_batch_build() {
        let s = schema();
        let mu = PValue::uniform(["musician", "museum guide"]).unwrap();
        let tuples: Vec<XTuple> = vec![
            XTuple::builder(&s)
                .alt(0.7, ["John", "pilot"])
                .alt_pvalues(0.3, [PValue::certain("Johan"), mu])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(0.2, [Value::from("John"), Value::Null])
                .alt(0.6, ["Sean", "pilot"])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(1.0, ["Tim", "mechanic"])
                .build()
                .unwrap(),
            XTuple::builder(&s)
                .alt(1.0, ["John", "pianist"])
                .build()
                .unwrap(),
        ];
        let spec = spec();
        let batch = spec.key_table(&tuples);
        // Grow in three uneven steps; keys, rank order and resolved
        // strings must match the one-shot build exactly.
        let mut grown = KeyTable::empty(spec.clone());
        grown.extend(&tuples[..1]);
        grown.extend(&tuples[1..3]);
        grown.extend(&tuples[3..]);
        assert_eq!(grown.len(), batch.len());
        for i in 0..tuples.len() {
            let b: Vec<&str> = batch
                .alternative_keys(i)
                .iter()
                .map(|&k| batch.resolve(k))
                .collect();
            let g: Vec<&str> = grown
                .alternative_keys(i)
                .iter()
                .map(|&k| grown.resolve(k))
                .collect();
            assert_eq!(b, g, "tuple {i}");
        }
        // Rank order agrees with string order after growth.
        let mut syms: Vec<KeySymbol> = (0..tuples.len())
            .flat_map(|i| grown.alternative_keys(i).to_vec())
            .collect();
        let mut by_rank = syms.clone();
        by_rank.sort_by_key(|&k| grown.rank(k));
        syms.sort_by(|&a, &b| grown.resolve(a).cmp(grown.resolve(b)));
        assert_eq!(by_rank, syms);
        // Extending with already-seen values renders nothing new.
        let before = grown.render_count();
        grown.extend(&tuples[2..3]);
        assert_eq!(grown.render_count(), before, "warm extend must not render");
        assert_eq!(grown.len(), tuples.len() + 1);
    }

    #[test]
    fn clear_rows_keeps_warm_pools() {
        let s = schema();
        let tuples: Vec<XTuple> = [("John", "pilot"), ("Tim", "mechanic")]
            .iter()
            .map(|(n, j)| XTuple::builder(&s).alt(1.0, [*n, *j]).build().unwrap())
            .collect();
        let mut table = spec().key_table(&tuples);
        let renders = table.render_count();
        table.clear_rows();
        assert_eq!(table.len(), 0);
        table.extend(&tuples);
        assert_eq!(table.len(), 2);
        assert_eq!(
            table.render_count(),
            renders,
            "re-keying seen values is free"
        );
    }

    #[test]
    fn intern_with_ranks_external_keys() {
        let mut table = spec().key_table(&[]);
        let k = table.intern_with(|_, keys| keys.intern_str("Zzz"));
        assert_eq!(table.resolve(k), "Zzz");
        // The externally interned key participates in the rank order.
        let k2 = table.intern_with(|_, keys| keys.intern_str("Aaa"));
        assert!(table.rank(k2) < table.rank(k));
    }

    /// The resident order after any sequence of absorbs is the one a full
    /// string sort of the pool gives, and the ranks index it.
    fn assert_sorted_by_string(table: &KeyTable) {
        let mut by_string: Vec<KeySymbol> = table.keys.iter().map(|(k, _)| k).collect();
        by_string.sort_by(|&a, &b| table.resolve(a).cmp(table.resolve(b)));
        assert_eq!(table.sorted, by_string);
        for (rank, &k) in table.sorted.iter().enumerate() {
            assert_eq!(table.rank(k) as usize, rank);
        }
    }

    proptest::proptest! {
        /// Binary-search absorb ≡ sorting the whole pool, over random key
        /// sets (the empty key, shared and multi-byte prefixes, repeats)
        /// absorbed in random batches.
        #[test]
        fn absorb_places_fresh_keys_where_a_full_sort_would(
            picks in proptest::collection::vec(0usize..14, 0..40),
            batch in 1usize..9,
        ) {
            const KEYS: [&str; 14] = [
                "", "a", "aa", "ab", "b", "é", "éa", "ée", "e", "日", "日本", "z", "zz", "Z",
            ];
            let mut table = KeyTable::empty(spec());
            for chunk in picks.chunks(batch) {
                table.intern_with(|_, keys| {
                    for &i in chunk {
                        keys.intern_str(KEYS[i]);
                    }
                });
                assert_sorted_by_string(&table);
            }
        }
    }

    #[test]
    fn insert_sorted_keeps_residents_before_equal_fresh() {
        let mut resident = vec![(1, 'r'), (3, 'r'), (3, 's'), (7, 'r')];
        let fresh = vec![(0, 'f'), (3, 'f'), (3, 'g'), (9, 'f')];
        let at = insert_sorted(&mut resident, fresh, |r, f| r.0 <= f.0);
        assert_eq!(at, vec![0, 4, 5, 7]);
        let order: String = resident.iter().map(|e| e.1).collect();
        assert_eq!(order, "frrsfgrf");
        assert!(insert_sorted(&mut resident, Vec::new(), |r, f| r.0 <= f.0).is_empty());
        assert_eq!(resident.len(), 8);
        let mut empty: Vec<(i32, char)> = Vec::new();
        assert_eq!(
            insert_sorted(&mut empty, vec![(2, 'f')], |r, f| r.0 <= f.0),
            vec![0]
        );
    }

    /// One `intern_with` for a whole batch ≡ one per tuple: same symbols,
    /// same ranks, same resident order.
    #[test]
    fn batch_intern_equals_per_tuple_intern() {
        use crate::conflict::{resolve_key_symbol, ConflictResolution};
        let s = schema();
        let tuples: Vec<XTuple> = [
            &[("John", "pilot"), ("Johan", "pianist")][..],
            &[("", "x")],
            &[("Łukasz", "pilot"), ("Lukasz", "pilot")],
            &[("Jim", "baker")],
            &[("John", "pilot")],
        ]
        .iter()
        .map(|alts| {
            let mut b = XTuple::builder(&s);
            for (i, (n, j)) in alts.iter().enumerate() {
                b = b.alt(0.5 - 0.1 * i as f64, [*n, *j]);
            }
            b.build().unwrap()
        })
        .collect();
        for strategy in [
            ConflictResolution::MostProbableAlternative,
            ConflictResolution::MostProbableKey,
        ] {
            let spec = spec();
            let mut one_by_one = KeyTable::empty(spec.clone());
            let singly: Vec<KeySymbol> = tuples
                .iter()
                .map(|t| {
                    one_by_one.intern_with(|vp, kp| resolve_key_symbol(t, &spec, strategy, vp, kp))
                })
                .collect();
            let mut batched = KeyTable::empty(spec.clone());
            let at_once: Vec<KeySymbol> = batched.intern_with(|vp, kp| {
                tuples
                    .iter()
                    .map(|t| resolve_key_symbol(t, &spec, strategy, vp, kp))
                    .collect()
            });
            assert_eq!(singly, at_once, "{strategy:?}");
            assert_eq!(one_by_one.sorted, batched.sorted, "{strategy:?}");
            assert_sorted_by_string(&batched);
            for &k in &at_once {
                assert_eq!(one_by_one.rank(k), batched.rank(k));
                assert_eq!(one_by_one.resolve(k), batched.resolve(k));
            }
        }
    }

    #[test]
    fn rank_order_matches_string_order_on_table() {
        let s = schema();
        let tuples: Vec<XTuple> = [("John", "pilot"), ("Jim", "baker"), ("Łukasz", "pilot")]
            .iter()
            .map(|(n, j)| XTuple::builder(&s).alt(1.0, [*n, *j]).build().unwrap())
            .collect();
        let spec = spec();
        let table = spec.key_table(&tuples);
        let mut syms: Vec<KeySymbol> = (0..tuples.len())
            .flat_map(|i| table.alternative_keys(i).to_vec())
            .collect();
        let mut by_rank = syms.clone();
        by_rank.sort_by_key(|&k| table.rank(k));
        syms.sort_by(|&a, &b| table.resolve(a).cmp(table.resolve(b)));
        assert_eq!(by_rank, syms);
    }

    #[test]
    fn unreferenced_attributes_ignored() {
        let spec = KeySpec::new(vec![KeyPart::prefix(1, 2)]);
        let values = vec![
            PValue::categorical([("many", 0.5), ("keys", 0.5)]).unwrap(),
            PValue::certain("pilot"),
        ];
        // Only attribute 1 matters: a single certain key.
        assert_eq!(spec.key_distribution(&values), vec![("pi".into(), 1.0)]);
    }
}
