//! Bit-parallel building blocks for the hot string kernels.
//!
//! Kernel evaluation is the only place the matching pipeline still
//! touches strings, so its cost is dominated by the inner loops of the
//! comparison kernels. This module provides the word-level
//! primitives those kernels dispatch to:
//!
//! * [`PatternBits`] + [`myers_distance`] — Myers' 1999 bit-vector
//!   Levenshtein: the `O(⌈m/64⌉·n)` dynamic program over machine words,
//!   with a single-`u64` fast path for patterns of at most 64 characters
//!   and Hyyrö's blocked multi-word formulation above that.
//! * [`hamming_bytes`] — byte-chunked XOR + popcount Hamming distance for
//!   ASCII inputs: eight positions per `u64` step.
//! * `jaro_ascii` — the Jaro matching scan over byte strings with a
//!   matched-position bitset instead of heap-allocated `Vec<char>` /
//!   `Vec<bool>` scratch. A `b` of at most 16 bytes sits in zero-padded
//!   [`Lanes`], a byte per lane, and each byte of `a` finds its first
//!   unmatched in-window match with one 16-lane compare returning a
//!   `u16` mask ([`lane_matches`]: SSE2 `pcmpeqb` + `pmovmskb` on x86_64,
//!   part of its baseline; the SWAR [`lane_matches_swar`], the
//!   [`hamming_bytes`] identity, elsewhere) and a lowest-set-bit; a longer
//!   `b` gets a per-character position-mask table.
//! * [`PreparedText`] — per-string precomputation (ASCII class, character
//!   length, character-class occupancy mask, and the string's lanes when
//!   it is ASCII and at most 16 bytes) that callers with a value interner
//!   compute **once per distinct string** and reuse across every
//!   comparison (see `probdedup_matching`'s interned kernel path): the
//!   prepared Jaro scan reads both sidecars' lanes, with no copy and no
//!   dereference of the text. The Myers `Peq` table is not part of it:
//!   building a short ASCII pattern's table on the stack per call
//!   measured cheaper than reading a stored one (ARCHITECTURE.md, "How
//!   interning flows through the layers").
//! * [`myers_distance_within`] (over a [`PatternBits`]) and
//!   `myers_ascii_64_within` (over a stack `Peq`, for ASCII patterns of at
//!   most 64 bytes) — the **bounded**
//!   Myers kernels: given an edit-distance budget `k` they either return
//!   the exact distance (when it is ≤ `k`) or certify `> k` and stop,
//!   typically long before the full column loop finishes. The single-word
//!   path aborts as soon as the certified lower bound
//!   `D[m][j] − (n − j)` exceeds `k`; the multi-word path additionally
//!   runs Ukkonen-banded — at column `j` only the words covering rows
//!   `≤ j + k` are computed, the ones below the diagonal band being
//!   provably `> k` (see `myers_block_within` for the substitution
//!   argument).
//! * [`class_mask`] — the 128-bit character-occupancy bitmap behind the
//!   ASCII-class prefilter: each distinct character of `a` that does not
//!   occur in `b` pins at least one unmatched position, so
//!   `popcount(mask(a) & !mask(b))` lower-bounds the edit distance in a
//!   handful of bit operations.
//!
//! All primitives are exact: they compute the same integers (and hence
//! bitwise-identical normalized similarities) as the scalar reference
//! implementations they replace, which the `bitparallel_oracle` property
//! tests assert on arbitrary Unicode inputs either side of the 64/65-char
//! word boundary. The bounded kernels are oracle-tested against the exact
//! distance clamped at `k + 1`.

/// Precomputed pattern bitmasks (the Myers `Peq` table) for one string.
///
/// `Peq[c]` holds a bit for every position of the pattern where character
/// `c` occurs, split across `⌈m/64⌉` words. ASCII characters index a dense
/// table; other characters go through a sorted side table (rare in
/// practice — patterns are attribute values, mostly ASCII after
/// preparation).
#[derive(Debug, Clone)]
pub struct PatternBits {
    /// Pattern length in characters.
    len: usize,
    /// Number of 64-bit words covering the pattern.
    words: usize,
    /// Dense `Peq` for ASCII: `ascii[c * words + w]`.
    ascii: Box<[u64]>,
    /// Sparse `Peq` for non-ASCII pattern characters, sorted by char.
    other: Box<[(char, Box<[u64]>)]>,
}

impl PatternBits {
    /// Build the `Peq` table of `pattern`.
    pub fn new(pattern: &str) -> Self {
        let len = pattern.chars().count();
        let words = len.div_ceil(64).max(1);
        let mut ascii = vec![0u64; 128 * words];
        let mut other: Vec<(char, Box<[u64]>)> = Vec::new();
        for (i, c) in pattern.chars().enumerate() {
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            if (c as u32) < 128 {
                ascii[c as usize * words + w] |= bit;
            } else {
                match other.binary_search_by_key(&c, |(k, _)| *k) {
                    Ok(pos) => other[pos].1[w] |= bit,
                    Err(pos) => {
                        let mut masks = vec![0u64; words].into_boxed_slice();
                        masks[w] = bit;
                        other.insert(pos, (c, masks));
                    }
                }
            }
        }
        Self {
            len,
            words,
            ascii: ascii.into_boxed_slice(),
            other: other.into_boxed_slice(),
        }
    }

    /// Pattern length in characters.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pattern is the empty string.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Word `w` of `Peq[c]`.
    #[inline]
    fn peq(&self, c: char, w: usize) -> u64 {
        if (c as u32) < 128 {
            self.ascii[c as usize * self.words + w]
        } else {
            match self.other.binary_search_by_key(&c, |(k, _)| *k) {
                Ok(pos) => self.other[pos].1[w],
                Err(_) => 0,
            }
        }
    }
}

/// Levenshtein distance between the precomputed pattern and `text`,
/// via Myers' bit-vector algorithm (Hyyrö's formulation).
///
/// Exactly equal to the classical DP distance for all inputs; cost is
/// `O(⌈m/64⌉ · n)` with word-sized constants.
pub fn myers_distance(pat: &PatternBits, text: &str) -> usize {
    if pat.len == 0 {
        return text.chars().count();
    }
    if pat.words == 1 {
        myers_1w(|c| pat.peq(c, 0), pat.len, text.chars())
    } else {
        myers_block(pat, text)
    }
}

/// Single-word Myers over ASCII byte strings, building the 128-entry `Peq`
/// on the stack — the zero-allocation fast path of
/// [`Levenshtein::distance`](crate::Levenshtein::distance) for patterns of
/// at most 64 bytes.
pub(crate) fn myers_ascii_64(pattern: &[u8], text: &[u8]) -> usize {
    debug_assert!(!pattern.is_empty() && pattern.len() <= 64);
    let mut peq = [0u64; 128];
    for (i, &c) in pattern.iter().enumerate() {
        peq[c as usize] |= 1 << i;
    }
    myers_1w(
        |c| peq[c as usize],
        pattern.len(),
        text.iter().map(|&b| b as char),
    )
}

/// The single-word Myers column loop: `peq` maps a text character to the
/// pattern's occurrence mask, `m` is the pattern length (1..=64).
#[inline]
fn myers_1w(peq: impl Fn(char) -> u64, m: usize, text: impl Iterator<Item = char>) -> usize {
    debug_assert!((1..=64).contains(&m));
    let mut vp = !0u64;
    let mut vn = 0u64;
    let mut dist = m;
    let mask = 1u64 << (m - 1);
    for c in text {
        let eq = peq(c);
        let d0 = (((eq & vp).wrapping_add(vp)) ^ vp) | eq | vn;
        let hp = vn | !(d0 | vp);
        let hn = d0 & vp;
        dist += usize::from(hp & mask != 0);
        dist -= usize::from(hn & mask != 0);
        let hp = (hp << 1) | 1;
        let hn = hn << 1;
        vp = hn | !(d0 | hp);
        vn = hp & d0;
    }
    dist
}

/// Blocked multi-word Myers (Hyyrö 2003): horizontal ±1 deltas carry
/// across word boundaries through `hp_carry`/`hn_carry`; the distance is
/// tracked at the pattern's last bit in the last word.
fn myers_block(pat: &PatternBits, text: &str) -> usize {
    let words = pat.words;
    let mut vp = vec![!0u64; words];
    let mut vn = vec![0u64; words];
    let mut dist = pat.len;
    let last = words - 1;
    let mask = 1u64 << ((pat.len - 1) % 64);
    for c in text.chars() {
        // The boundary row D[0][j] grows by one per column: a positive
        // horizontal carry enters word 0.
        let mut hp_carry = 1u64;
        let mut hn_carry = 0u64;
        for w in 0..words {
            let vpw = vp[w];
            let vnw = vn[w];
            let eq = pat.peq(c, w) | hn_carry;
            let d0 = (((eq & vpw).wrapping_add(vpw)) ^ vpw) | eq | vnw;
            let hp = vnw | !(d0 | vpw);
            let hn = d0 & vpw;
            if w == last {
                dist += usize::from(hp & mask != 0);
                dist -= usize::from(hn & mask != 0);
            }
            let hp_out = hp >> 63;
            let hn_out = hn >> 63;
            let hp = (hp << 1) | hp_carry;
            let hn = (hn << 1) | hn_carry;
            hp_carry = hp_out;
            hn_carry = hn_out;
            vp[w] = hn | !(d0 | hp);
            vn[w] = hp & d0;
        }
    }
    dist
}

/// Bounded Levenshtein distance between the precomputed pattern and
/// `text`: `Some(d)` iff `d ≤ k` (with `d` exact), `None` certifying
/// `d > k`, usually long before the full column loop would finish.
///
/// Single-word patterns abort on the certified lower bound
/// `D[m][j] − (n − j) > k` (the final distance can drop by at most one per
/// remaining column). Multi-word patterns run Ukkonen-banded — see
/// `myers_block_within`.
pub fn myers_distance_within(pat: &PatternBits, text: &str, k: usize) -> Option<usize> {
    let n = text.chars().count();
    if pat.len.abs_diff(n) > k {
        return None;
    }
    if pat.len == 0 {
        return Some(n); // n ≤ k via the length gap
    }
    if pat.words == 1 {
        myers_1w_within(|c| pat.peq(c, 0), pat.len, n, text.chars(), k)
    } else {
        myers_block_within(pat, n, text.chars(), k)
    }
}

/// Bounded single-word Myers over ASCII byte strings (stack `Peq`) — the
/// bounded twin of [`myers_ascii_64`]. The caller has already checked the
/// length-difference bound.
pub(crate) fn myers_ascii_64_within(pattern: &[u8], text: &[u8], k: usize) -> Option<usize> {
    debug_assert!(!pattern.is_empty() && pattern.len() <= 64);
    debug_assert!(pattern.len().abs_diff(text.len()) <= k);
    let mut peq = [0u64; 128];
    for (i, &c) in pattern.iter().enumerate() {
        peq[c as usize] |= 1 << i;
    }
    myers_1w_within(
        |c| peq[c as usize],
        pattern.len(),
        text.len(),
        text.iter().map(|&b| b as char),
        k,
    )
}

/// The single-word bounded column loop: identical to [`myers_1w`] plus the
/// per-column abort. The tracked score here is the **true** DP value
/// `D[m][j]` (no band substitution happens in one word), so
/// `D[m][n] ≥ D[m][j] − (n − j)` is a certified lower bound and the abort
/// is exact.
fn myers_1w_within(
    peq: impl Fn(char) -> u64,
    m: usize,
    n: usize,
    text: impl Iterator<Item = char>,
    k: usize,
) -> Option<usize> {
    debug_assert!((1..=64).contains(&m));
    let mut vp = !0u64;
    let mut vn = 0u64;
    let mut dist = m;
    let mask = 1u64 << (m - 1);
    let mut remaining = n;
    for c in text {
        let eq = peq(c);
        let d0 = (((eq & vp).wrapping_add(vp)) ^ vp) | eq | vn;
        let hp = vn | !(d0 | vp);
        let hn = d0 & vp;
        dist += usize::from(hp & mask != 0);
        dist -= usize::from(hn & mask != 0);
        let hp = (hp << 1) | 1;
        let hn = hn << 1;
        vp = hn | !(d0 | hp);
        vn = hp & d0;
        remaining -= 1;
        if dist > k.saturating_add(remaining) {
            return None;
        }
    }
    (dist <= k).then_some(dist)
}

/// Ukkonen-banded blocked Myers: at column `j` only the words covering
/// rows `≤ j + k` are computed — every cell below that diagonal band has
/// `D[r][j] ≥ r − j > k`.
///
/// When the band first extends into a word, its cells are initialized from
/// the word above by the vertical upper bound `D[r] ≤ D[r−1] + 1`
/// (`vp = all ones`). The computed table `D̃` therefore satisfies
/// `D̃ ≥ D` everywhere and — because every cell with `D ≤ k` takes its DP
/// minimum through neighbours that also have `D ≤ k`, all of which lie in
/// the band and are exact by induction — `D̃ = D` wherever `D ≤ k`. Two
/// consequences keep the routine exact:
///
/// * `D̃[cell] > k` **certifies** `D[cell] > k` (contrapositive of
///   exactness below `k`), so the final `scores > k ⇒ None` test and the
///   per-column dead-band abort are sound;
/// * a returned distance `≤ k` is the true distance.
///
/// The abort: a minimal path to `(m, n)` crosses every column at a cell
/// with `D ≤ k` (values along a minimal path are non-decreasing), and from
/// row `r` it still needs at least `(m − r) − (n − j)` deletions. If every
/// active word fails even the optimistic version of that test (bottom
/// score minus the word's height, plus the deletion deficit, exceeds `k`),
/// no such crossing cell exists and the distance is certifiably `> k`.
fn myers_block_within(
    pat: &PatternBits,
    n: usize,
    text: impl Iterator<Item = char>,
    k: usize,
) -> Option<usize> {
    let words = pat.words;
    let m = pat.len;
    debug_assert!(m.abs_diff(n) <= k);
    let last = words - 1;
    let bottom = |w: usize| ((w + 1) * 64).min(m);
    let mut vp = vec![!0u64; words];
    let mut vn = vec![0u64; words];
    // Column-0 boundary: D[r][0] = r.
    let mut scores: Vec<usize> = (0..words).map(bottom).collect();
    // Words 0..=active are live; rows of word w start at w·64 + 1 (1-based),
    // so word w enters the band at the first column j with w·64 < j + k.
    let mut active = (k / 64).min(last);
    for (jm1, c) in text.enumerate() {
        let j = jm1 + 1;
        let new_active = ((j.saturating_add(k) - 1) / 64).min(last);
        while active < new_active {
            active += 1;
            vp[active] = !0;
            vn[active] = 0;
            scores[active] = scores[active - 1] + (bottom(active) - bottom(active - 1));
        }
        let mut hp_carry = 1u64;
        let mut hn_carry = 0u64;
        for (w, (vpw, vnw)) in vp
            .iter_mut()
            .zip(vn.iter_mut())
            .enumerate()
            .take(active + 1)
        {
            let eq = pat.peq(c, w) | hn_carry;
            let d0 = (((eq & *vpw).wrapping_add(*vpw)) ^ *vpw) | eq | *vnw;
            let hp = *vnw | !(d0 | *vpw);
            let hn = d0 & *vpw;
            let bbit = if w == last { (m - 1) % 64 } else { 63 };
            scores[w] += ((hp >> bbit) & 1) as usize;
            scores[w] -= ((hn >> bbit) & 1) as usize;
            let hp_out = hp >> 63;
            let hn_out = hn >> 63;
            let hp = (hp << 1) | hp_carry;
            let hn = (hn << 1) | hn_carry;
            hp_carry = hp_out;
            hn_carry = hn_out;
            *vpw = hn | !(d0 | hp);
            *vnw = hp & d0;
        }
        // Dead-band abort: optimistic minimum over each word's cells plus
        // the deletion deficit from the word's bottom row.
        let all_dead = (0..=active).all(|w| {
            let height = bottom(w) - w * 64;
            let optimistic = scores[w].saturating_sub(height - 1);
            let deficit = (m - bottom(w)).saturating_sub(n - j);
            optimistic + deficit > k
        });
        if all_dead {
            return None;
        }
    }
    // |m − n| ≤ k guarantees the band reached the last word by column n.
    debug_assert_eq!(active, last);
    (scores[last] <= k).then_some(scores[last])
}

/// Character-class occupancy mask: bit `c` set for every ASCII character
/// `c` occurring in `s`. All non-ASCII characters are conflated onto bit
/// 127, which [`class_absent_bound`] therefore ignores — the conflation can
/// only weaken the bound, never invalidate it.
pub fn class_mask(s: &str) -> u128 {
    let mut m = 0u128;
    if s.is_ascii() {
        for &b in s.as_bytes() {
            m |= 1u128 << b;
        }
    } else {
        for c in s.chars() {
            let bit = if (c as u32) < 128 { c as u32 } else { 127 };
            m |= 1u128 << bit;
        }
    }
    m
}

/// The ASCII-class lower bound on the edit (and Hamming) distance of two
/// strings from their [`class_mask`]s: every distinct character of one
/// string that does not occur in the other pins at least one position that
/// no alignment can match, and distinct characters pin distinct positions.
/// Bit 127 is excluded (it conflates all non-ASCII characters, so absence
/// cannot be certified there).
pub fn class_absent_bound(ma: u128, mb: u128) -> usize {
    let (a_only, b_only) = class_absent_counts(ma, mb);
    a_only.max(b_only)
}

/// Per-side variant of [`class_absent_bound`]: `(a_only, b_only)` distinct
/// certified-absent character counts. Jaro-style kernels use these to
/// upper-bound the match count (`m ≤ |a| − a_only`, `m ≤ |b| − b_only`).
pub fn class_absent_counts(ma: u128, mb: u128) -> (usize, usize) {
    const LOW127: u128 = !(1u128 << 127);
    (
        (ma & !mb & LOW127).count_ones() as usize,
        (mb & !ma & LOW127).count_ones() as usize,
    )
}

/// Number of bytes of `x` that are non-zero (SWAR, no per-byte branch).
#[inline]
fn nonzero_bytes(x: u64) -> u32 {
    const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const HI: u64 = 0x8080_8080_8080_8080;
    // Bit 7 of each byte ends up set iff the byte had any bit set: the
    // add saturates the low seven bits into bit 7, the OR catches bit 7
    // itself.
    ((((x & LO7) + LO7) | x) & HI).count_ones()
}

/// Hamming distance over byte strings, counting the length difference as
/// mismatches: XOR eight positions at a time and popcount the differing
/// bytes. Exact for ASCII (one byte per character).
pub fn hamming_bytes(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut dist = a.len().max(b.len()) - n;
    let (a, b) = (&a[..n], &b[..n]);
    let mut chunks_a = a.chunks_exact(8);
    let mut chunks_b = b.chunks_exact(8);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        let xa = u64::from_ne_bytes(ca.try_into().expect("8-byte chunk"));
        let xb = u64::from_ne_bytes(cb.try_into().expect("8-byte chunk"));
        dist += nonzero_bytes(xa ^ xb) as usize;
    }
    for (&pa, &pb) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        dist += usize::from(pa != pb);
    }
    dist
}

/// Maximum byte length [`jaro_ascii`] accepts (positions must fit a
/// `u128` matched-set).
pub(crate) const JARO_ASCII_MAX: usize = 128;

/// Lanes in one match step: a `b` of at most this many bytes sits in one
/// zero-padded [`Lanes`] block, one byte per lane, and each byte of `a`
/// finds its candidates with one 16-lane compare. A longer `b` gets a
/// per-character position-mask table instead (zeroing its 2 KiB only pays
/// off once the string no longer fits one block).
pub const JARO_LANES: usize = 16;

/// A string of at most [`JARO_LANES`] bytes, zero-padded, one byte per
/// lane.
pub type Lanes = [u8; JARO_LANES];

/// Byte `0x01` in every lane.
const LANE_ONES: u128 = u128::MAX / 0xff;
/// The low seven bits of every lane.
const LANE_LO7: u128 = LANE_ONES * 0x7f;
/// The top bit of every lane.
const LANE_HI: u128 = LANE_ONES * 0x80;

/// Top bit of each lane of `packed` set iff that lane equals `c`.
///
/// The `nonzero_bytes` identity on `x = packed ^ c·0x01…`: the add
/// saturates a lane's low seven bits into bit 7 without carrying into the
/// next lane, so — unlike the borrow-propagating `haszero` trick — no lane
/// is flagged by its neighbour.
#[inline]
fn lanes_equal(packed: u128, c: u8) -> u128 {
    let x = packed ^ (LANE_ONES * u128::from(c));
    !(((x & LANE_LO7) + LANE_LO7) | x) & LANE_HI
}

/// The lanes equal to `c`, bit `j` for lane `j`: the portable SWAR compare
/// ([`lanes_equal`] on the lanes as one `u128`, its lane top bits gathered
/// into a `u16`). [`lane_matches`] on targets without a vector compare.
#[inline]
pub fn lane_matches_swar(lanes: &Lanes, c: u8) -> u16 {
    // After `>> 7` a half's flags sit at bits 8k; the multiply moves bit
    // 8k to bit 56 + k, and no two partial products share a bit there.
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let gather = |half: u64| ((half >> 7).wrapping_mul(GATHER) >> 56) as u16;
    let top = lanes_equal(u128::from_le_bytes(*lanes), c);
    gather(top as u64) | gather((top >> 64) as u64) << 8
}

/// The lanes equal to `c`, bit `j` for lane `j`: one SSE2 byte compare and
/// a movemask. Same set of lanes as [`lane_matches_swar`].
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn lane_matches(lanes: &Lanes, c: u8) -> u16 {
    use std::arch::x86_64::{_mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi8};
    // SAFETY: SSE2 is part of the x86_64 baseline, so these intrinsics
    // exist on every x86_64 CPU; the unaligned load reads exactly the 16
    // bytes `lanes` borrows.
    unsafe {
        let block = _mm_loadu_si128(lanes.as_ptr().cast());
        _mm_movemask_epi8(_mm_cmpeq_epi8(block, _mm_set1_epi8(c as i8))) as u16
    }
}

/// The lanes equal to `c`, bit `j` for lane `j` ([`lane_matches_swar`]).
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn lane_matches(lanes: &Lanes, c: u8) -> u16 {
    lane_matches_swar(lanes, c)
}

/// Bits of lanes `0..k`, saturating at all [`JARO_LANES`].
#[inline]
fn lane_prefix(k: usize) -> u16 {
    if k >= JARO_LANES {
        u16::MAX
    } else {
        (1 << k) - 1
    }
}

/// `s` zero-padded into lanes, if it fits.
#[inline]
fn to_lanes(s: &[u8]) -> Option<Lanes> {
    (s.len() <= JARO_LANES).then(|| {
        let mut lanes = [0u8; JARO_LANES];
        lanes[..s.len()].copy_from_slice(s);
        lanes
    })
}

/// Jaro similarity over ASCII byte strings of at most [`JARO_ASCII_MAX`]
/// bytes, using a bitset of matched `b`-positions and a stack buffer of
/// matched `a`-characters — no heap allocation. A `b` of at most
/// [`JARO_LANES`] bytes is padded into a stack [`Lanes`] block for
/// [`jaro_lanes`]; a longer one takes the position-mask table.
///
/// Produces bitwise-identical results to the scalar reference: the same
/// match set (first unmatched window position wins), the same
/// transposition count, and the same final expression.
pub(crate) fn jaro_ascii(av: &[u8], bv: &[u8]) -> f64 {
    match to_lanes(bv) {
        Some(lanes) => jaro_lanes(av, &lanes, bv.len()),
        None => jaro_table(av, bv),
    }
}

/// The lane scan of [`jaro_ascii`]: `b` is the first `m` lanes of `b`
/// (`m ≤ 16`, zero-padded), `av` at most [`JARO_ASCII_MAX`] bytes. Each
/// byte of `a` is compared with all 16 lanes at once ([`lane_matches`])
/// and takes the lowest open lane inside its window. The prepared entry
/// points pass the lanes stored in the `b` sidecar.
pub(crate) fn jaro_lanes(av: &[u8], b: &Lanes, m: usize) -> f64 {
    let n = av.len();
    debug_assert!(n <= JARO_ASCII_MAX && m <= JARO_LANES);
    let window = (n.max(m) / 2).saturating_sub(1);
    let mut a_matches = [0u8; JARO_ASCII_MAX];
    let mut matches = 0usize;
    // `open` marks the unmatched lanes inside b, so the zero padding never
    // matches a NUL in a. `window_lanes` holds lanes `i − window ..= i +
    // window` (from lane 0 while `i < window`), advanced one lane per step.
    let in_b = lane_prefix(m);
    let mut open = in_b;
    let mut window_lanes = lane_prefix(window + 1);
    for (i, &ca) in av.iter().enumerate() {
        // Branch-free: the write past the last match is overwritten or
        // ignored, and lands inside the buffer even once all 16 lanes are
        // matched.
        let cand = lane_matches(b, ca) & window_lanes & open;
        open ^= cand & cand.wrapping_neg(); // lowest candidate
        a_matches[matches] = ca;
        matches += usize::from(cand != 0);
        window_lanes = (window_lanes << 1) | u16::from(i < window);
    }
    jaro_score(n, m, &a_matches[..matches], u128::from(in_b & !open), b)
}

/// The position-table path of [`jaro_ascii`] for a `b` longer than
/// [`JARO_LANES`]: `peq[c]` has bit `j` set iff `bv[j] == c`, and one AND +
/// lowest-set-bit replaces the inner window scan.
fn jaro_table(av: &[u8], bv: &[u8]) -> f64 {
    let (n, m) = (av.len(), bv.len());
    debug_assert!(n <= JARO_ASCII_MAX && m <= JARO_ASCII_MAX);
    let window = (n.max(m) / 2).saturating_sub(1);
    let mut a_matches = [0u8; JARO_ASCII_MAX];
    let mut matches = 0usize;
    let mut peq = [0u128; 128];
    for (j, &cb) in bv.iter().enumerate() {
        peq[cb as usize] |= 1 << j;
    }
    let mut b_matched: u128 = 0;
    for (i, &ca) in av.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(m);
        let hi_mask = if hi >= 128 { !0u128 } else { (1u128 << hi) - 1 };
        let window_mask = hi_mask & !((1u128 << lo) - 1);
        let cand = peq[ca as usize] & window_mask & !b_matched;
        if cand != 0 {
            b_matched |= cand & cand.wrapping_neg(); // lowest candidate
            a_matches[matches] = ca;
            matches += 1;
        }
    }
    jaro_score(n, m, &a_matches[..matches], b_matched, bv)
}

/// The Jaro expression from the match set: `a_matches` in `a` order, bit
/// `j` of `b_matched` for each matched position `j` of `bv` (as many bits
/// as `a_matches` has bytes).
fn jaro_score(n: usize, m: usize, a_matches: &[u8], b_matched: u128, bv: &[u8]) -> f64 {
    if a_matches.is_empty() {
        // 1.0 iff both strings are empty; no matches otherwise score 0.
        return if n == 0 && m == 0 { 1.0 } else { 0.0 };
    }
    let mut transpositions = 0usize;
    let mut rest = b_matched;
    for &ca in a_matches {
        let j = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        transpositions += usize::from(bv[j] != ca);
    }
    let m_f = a_matches.len() as f64;
    (m_f / n as f64 + m_f / m as f64 + (m_f - transpositions as f64 / 2.0) / m_f) / 3.0
}

/// Per-string precomputation for repeated comparisons.
///
/// Built once per distinct string (the interned matching path keys these
/// off the `ValuePool`'s dense symbol index) and consumed by
/// [`StringComparator::similarity_prepared`](crate::StringComparator::similarity_prepared):
/// the ASCII class and character length replace the per-comparison
/// `is_ascii`/`chars().count()` scans, the class mask feeds the bounded
/// kernels' prefilters, and an ASCII string of at most [`JARO_LANES`]
/// bytes is also kept as zero-padded [`Lanes`], which the Jaro lane scan
/// and the Winkler prefix read without copying or dereferencing the text.
#[derive(Debug, Clone)]
pub struct PreparedText {
    text: Box<str>,
    char_len: usize,
    ascii: bool,
    class: u128,
    lanes: Option<Lanes>,
}

impl PreparedText {
    /// Prepare `s`.
    pub fn new(s: &str) -> Self {
        let ascii = s.is_ascii();
        Self {
            text: s.into(),
            char_len: if ascii { s.len() } else { s.chars().count() },
            ascii,
            class: class_mask(s),
            lanes: if ascii { to_lanes(s.as_bytes()) } else { None },
        }
    }

    /// The underlying string.
    #[inline]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Length in characters (== bytes when [`is_ascii`](Self::is_ascii)).
    #[inline]
    pub fn char_len(&self) -> usize {
        self.char_len
    }

    /// Whether the string is pure ASCII.
    #[inline]
    pub fn is_ascii(&self) -> bool {
        self.ascii
    }

    /// The character-class occupancy mask (see [`class_mask`]).
    #[inline]
    pub fn class(&self) -> u128 {
        self.class
    }

    /// The string as zero-padded lanes: `Some` iff it is ASCII and at most
    /// [`JARO_LANES`] bytes long.
    #[inline]
    pub(crate) fn lanes(&self) -> Option<&Lanes> {
        self.lanes.as_ref()
    }

    /// The string's bytes, read from the lanes when it has them.
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        match &self.lanes {
            Some(lanes) => &lanes[..self.char_len],
            None => self.text.as_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn myers_matches_known_distances() {
        for (a, b, d) in [
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("abc", "abc", 0),
            ("", "abc", 3),
            ("abc", "", 3),
            ("日本語", "日本", 1),
            ("café", "cafe", 1),
        ] {
            assert_eq!(myers_distance(&PatternBits::new(a), b), d, "{a:?} vs {b:?}");
            assert_eq!(myers_distance(&PatternBits::new(b), a), d, "{b:?} vs {a:?}");
        }
    }

    #[test]
    fn myers_single_word_stack_path() {
        assert_eq!(myers_ascii_64(b"kitten", b"sitting"), 3);
        assert_eq!(myers_ascii_64(b"a", b"a"), 0);
        let p64 = "ab".repeat(32);
        assert_eq!(myers_ascii_64(p64.as_bytes(), p64.as_bytes()), 0);
    }

    #[test]
    fn myers_block_crosses_word_boundary() {
        // 65-char pattern forces the 2-word blocked path.
        let a: String = ('a'..='z').cycle().take(65).collect();
        let mut b = a.clone();
        b.replace_range(62..65, "XY"); // edits straddling bit 63/64
        let bits = PatternBits::new(&a);
        assert_eq!(bits.len(), 65);
        let naive = naive_levenshtein(&a, &b);
        assert_eq!(myers_distance(&bits, &b), naive);
    }

    #[test]
    fn myers_within_agrees_with_clamped_distance() {
        let cases = [
            ("kitten", "sitting"),
            ("flaw", "lawn"),
            ("abc", "abc"),
            ("", "abc"),
            ("日本語です", "日本語"),
            ("café au lait", "late au cafe"),
        ];
        for (a, b) in cases {
            let d = myers_distance(&PatternBits::new(a), b);
            for k in 0..=(d + 3) {
                let got = myers_distance_within(&PatternBits::new(a), b, k);
                assert_eq!(got, (d <= k).then_some(d), "{a:?} vs {b:?} at k={k}");
            }
        }
    }

    #[test]
    fn myers_within_single_word_stack_path() {
        assert_eq!(myers_ascii_64_within(b"kitten", b"sitting", 3), Some(3));
        assert_eq!(myers_ascii_64_within(b"kitten", b"sitting", 2), None);
        assert_eq!(myers_ascii_64_within(b"a", b"b", 0), None);
        assert_eq!(myers_ascii_64_within(b"a", b"a", 0), Some(0));
    }

    #[test]
    fn myers_within_banded_multiword() {
        // Long patterns force the banded multi-word path; sweep bounds
        // around the true distance including straddling word boundaries.
        let a: String = ('a'..='z').cycle().take(150).collect();
        for (b, extra) in [
            (a.clone(), 0usize),
            (
                {
                    let mut b = a.clone();
                    b.replace_range(60..70, "XXXXX");
                    b
                },
                0,
            ),
            (a[5..].to_string(), 2),
            (
                {
                    let mut b = a.clone();
                    b.push_str("tail");
                    b.replace_range(0..3, "Z");
                    b
                },
                1,
            ),
        ] {
            let bits = PatternBits::new(&a);
            let d = myers_distance(&bits, &b);
            for k in d.saturating_sub(2)..=(d + 2 + extra) {
                assert_eq!(
                    myers_distance_within(&bits, &b, k),
                    (d <= k).then_some(d),
                    "k={k}, d={d}"
                );
            }
            // A clearly-too-small bound certifies early.
            if d > 1 {
                assert_eq!(myers_distance_within(&bits, &b, d - 1), None);
            }
        }
    }

    #[test]
    fn class_mask_bound_is_a_lower_bound() {
        for (a, b) in [
            ("smith", "garcia"),
            ("machinist", "mechanic"),
            ("abc", "xyz"),
            ("", "abc"),
            ("café", "cafe"),
            ("same", "same"),
        ] {
            let bound = class_absent_bound(class_mask(a), class_mask(b));
            let d = myers_distance(&PatternBits::new(a), b);
            assert!(bound <= d, "{a:?} vs {b:?}: bound {bound} > distance {d}");
        }
        // Fully disjoint alphabets certify at least the shorter length.
        assert_eq!(class_absent_bound(class_mask("abc"), class_mask("xyz")), 3);
    }

    #[test]
    fn hamming_bytes_counts_differing_positions() {
        assert_eq!(hamming_bytes(b"Tim", b"Kim"), 1);
        assert_eq!(hamming_bytes(b"machinist", b"mechanic"), 4);
        assert_eq!(hamming_bytes(b"", b"abcd"), 4);
        assert_eq!(hamming_bytes(b"same-long-string!", b"same-long-string!"), 0);
        // > 8 bytes exercises the chunked path + remainder.
        assert_eq!(hamming_bytes(b"abcdefghijk", b"abcdeXghiYk"), 2);
    }

    #[test]
    fn nonzero_bytes_counts() {
        assert_eq!(nonzero_bytes(0), 0);
        assert_eq!(nonzero_bytes(u64::MAX), 8);
        assert_eq!(nonzero_bytes(0x0000_0100_0000_8001), 3);
        assert_eq!(nonzero_bytes(0x8000_0000_0000_0000), 1);
    }

    #[test]
    fn jaro_ascii_classic_values() {
        let j = |a: &str, b: &str| jaro_ascii(a.as_bytes(), b.as_bytes());
        assert!((j("MARTHA", "MARHTA") - 0.944).abs() < 1e-3);
        assert!((j("DWAYNE", "DUANE") - 0.822).abs() < 1e-3);
        assert!((j("DIXON", "DICKSONX") - 0.767).abs() < 1e-3);
        assert_eq!(j("", ""), 1.0);
        assert_eq!(j("", "abc"), 0.0);
        assert_eq!(j("abc", "xyz"), 0.0);
    }

    #[test]
    fn lanes_equal_matches_byte_loop() {
        // Every probe byte against every lane byte, with `c` and `v`
        // interleaved in both phases (a match right below a mismatch is
        // where a borrow-propagating form flags the wrong lane) and as a
        // word of `v` alone.
        for c in 0..=255u8 {
            for v in 0..=255u8 {
                let words: [[u8; JARO_LANES]; 3] = [
                    std::array::from_fn(|j| if j % 2 == 0 { c } else { v }),
                    std::array::from_fn(|j| if j % 2 == 0 { v } else { c }),
                    [v; JARO_LANES],
                ];
                for lanes in words {
                    let want = lanes
                        .iter()
                        .enumerate()
                        .filter(|&(_, &x)| x == c)
                        .fold(0u128, |acc, (j, _)| acc | 0x80 << (8 * j));
                    let got = lanes_equal(u128::from_le_bytes(lanes), c);
                    assert_eq!(got, want, "probe {c:#04x} in {lanes:?}");
                }
            }
        }
    }

    #[test]
    fn jaro_ascii_table_and_scan_paths_agree() {
        // Either side of the 16/17-byte seam between the lane scan and
        // the position table, against the scalar oracle.
        let oracle = |a: &[u8], b: &[u8]| {
            crate::jaro::jaro_similarity_scalar(
                std::str::from_utf8(a).unwrap(),
                std::str::from_utf8(b).unwrap(),
            )
        };
        let text = b"a quartet of longish text with repeats: abcdabcd\0\0";
        for m in [1, 8, 15, 16, 17, 18] {
            let b = &text[..m];
            for n in [0, 1, 7, 16, 17, 33, text.len()] {
                for a in [&text[..n], &text[text.len() - n..]] {
                    assert_eq!(
                        jaro_ascii(a, b).to_bits(),
                        oracle(a, b).to_bits(),
                        "{a:?} vs {b:?}"
                    );
                }
            }
        }
        // All 16 lanes matched, then a longer a runs on past them.
        let full = b"abcdefghijklmnop";
        let longer = b"abcdefghijklmnopabcdefghijklmnop";
        assert_eq!(jaro_ascii(full, full), 1.0);
        assert_eq!(
            jaro_ascii(longer, full).to_bits(),
            oracle(longer, full).to_bits()
        );
    }

    #[test]
    fn prepared_text_classifies() {
        let p = PreparedText::new("machinist");
        assert!(p.is_ascii());
        assert_eq!(p.char_len(), 9);
        assert_eq!(p.text(), "machinist");
        assert_eq!(p.class(), class_mask("machinist"));
        assert_eq!(p.lanes(), Some(b"machinist\0\0\0\0\0\0\0"));
        let q = PreparedText::new("café");
        assert!(!q.is_ascii());
        assert_eq!(q.char_len(), 4);
        assert_eq!(q.lanes(), None);
        // Lanes hold at most 16 bytes.
        assert!(PreparedText::new(&"x".repeat(16)).lanes().is_some());
        assert!(PreparedText::new(&"x".repeat(17)).lanes().is_none());
    }

    /// Textbook two-row DP, used as an in-module oracle (the crate-level
    /// scalar oracle lives in `levenshtein.rs`).
    fn naive_levenshtein(a: &str, b: &str) -> usize {
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        let mut prev: Vec<usize> = (0..=bv.len()).collect();
        let mut curr = vec![0usize; bv.len() + 1];
        for (i, ca) in av.iter().enumerate() {
            curr[0] = i + 1;
            for (j, cb) in bv.iter().enumerate() {
                curr[j + 1] = (prev[j] + usize::from(ca != cb))
                    .min(prev[j + 1] + 1)
                    .min(curr[j] + 1);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[bv.len()]
    }
}
