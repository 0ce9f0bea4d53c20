//! Bit-parallel building blocks for the Jaro family.
//!
//! Kernel evaluation is the only place the matching pipeline still
//! touches strings, and the product matches with Jaro–Winkler, so this
//! module holds that kernel's word-level primitives:
//!
//! * `jaro_ascii` — the Jaro matching scan over byte strings with a
//!   matched-position bitset instead of heap-allocated `Vec<char>` /
//!   `Vec<bool>` scratch. A `b` of at most 16 bytes sits in zero-padded
//!   [`Lanes`], a byte per lane, and each byte of `a` finds its first
//!   unmatched in-window match with one 16-lane compare returning a
//!   `u16` mask ([`lane_matches`]: SSE2 `pcmpeqb` + `pmovmskb` on x86_64,
//!   part of its baseline; the SWAR [`lane_matches_swar`] elsewhere) and a
//!   lowest-set-bit; a longer `b` gets a per-character position-mask
//!   table.
//! * [`PreparedText`] — per-string precomputation (ASCII class, character
//!   length, character-class occupancy mask, and the string's lanes when
//!   it is ASCII and at most 16 bytes) that callers with a value interner
//!   compute **once per distinct string** and reuse across every
//!   comparison (see `probdedup_matching`'s interned kernel path): the
//!   prepared Jaro scan reads both sidecars' lanes, with no copy and no
//!   dereference of the text.
//! * [`class_mask`] and [`class_absent_counts`] — the 128-bit
//!   character-occupancy bitmap behind the Jaro family's bounded
//!   prefilter: each distinct character of `a` that does not occur in `b`
//!   pins a position of `a` that cannot match, so
//!   `popcount(mask(a) & !mask(b))` caps the match count in a handful of
//!   bit operations.
//!
//! The scan is exact: it computes the same match set and transposition
//! count (and hence bitwise-identical similarities) as the scalar
//! reference `jaro_similarity_scalar`, which the `bitparallel_oracle`
//! tests assert on arbitrary Unicode inputs either side of the 16-byte
//! lane block.

/// Character-class occupancy mask: bit `c` set for every ASCII character
/// `c` occurring in `s`. All non-ASCII characters are conflated onto bit
/// 127, which [`class_absent_counts`] therefore ignores — the conflation
/// can only weaken the bound, never invalidate it.
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

/// The distinct characters of each string certified absent from the other,
/// `(a_only, b_only)`, from their [`class_mask`]s. Each pins at least one
/// position no alignment can match, and distinct characters pin distinct
/// positions, so the Jaro family upper-bounds the match count with them
/// (`m ≤ |a| − a_only`, `m ≤ |b| − b_only`). Bit 127 is excluded: it
/// conflates all non-ASCII characters, so absence cannot be certified
/// there.
pub fn class_absent_counts(ma: u128, mb: u128) -> (usize, usize) {
    const LOW127: u128 = !(1u128 << 127);
    (
        (ma & !mb & LOW127).count_ones() as usize,
        (mb & !ma & LOW127).count_ones() as usize,
    )
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
/// A lane of `x = packed ^ c·0x01…` is zero iff it equals `c`. Adding
/// `0x7f` to its low seven bits saturates them into bit 7 without carrying
/// into the next lane, and OR-ing `x` back catches bit 7 itself, so bit 7
/// ends up clear exactly for the zero lanes — and, unlike the
/// borrow-propagating `haszero` trick, no lane is flagged by its
/// neighbour.
#[inline]
fn lanes_equal(packed: u128, c: u8) -> u128 {
    let x = packed ^ (LANE_ONES * u128::from(c));
    !(((x & LANE_LO7) + LANE_LO7) | x) & LANE_HI
}

/// The lanes equal to `c`, bit `j` for lane `j`: the portable SWAR compare
/// (`lanes_equal` on the lanes as one `u128`, its lane top bits gathered
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
/// `is_ascii`/`chars().count()` scans, the class mask feeds the Jaro
/// family's bounded prefilter, and an ASCII string of at most [`JARO_LANES`]
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
    fn class_mask_bound_is_a_lower_bound() {
        // Each certified-absent character pins a position that neither an
        // edit alignment nor a Jaro match can pair, so the counts bound
        // the edit distance from below.
        for (a, b) in [
            ("smith", "garcia"),
            ("machinist", "mechanic"),
            ("abc", "xyz"),
            ("", "abc"),
            ("café", "cafe"),
            ("same", "same"),
        ] {
            let (a_only, b_only) = class_absent_counts(class_mask(a), class_mask(b));
            let d = crate::Levenshtein::new().distance(a, b);
            assert!(
                a_only.max(b_only) <= d,
                "{a:?} vs {b:?}: bound {a_only}/{b_only} > distance {d}"
            );
        }
        // Fully disjoint alphabets certify every character on both sides.
        assert_eq!(
            class_absent_counts(class_mask("abc"), class_mask("xyz")),
            (3, 3)
        );
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
}
