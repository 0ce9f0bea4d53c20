//! Exactness tests for the Jaro family's lane scan and for the prepared
//! and bounded kernel contracts: the lane scan must produce
//! bitwise-identical similarities to the scalar reference on arbitrary
//! Unicode strings, either side of the 16-byte lane block, and every
//! exported kernel's prepared and bounded entry points must agree with its
//! plain similarity.

use proptest::prelude::*;

use probdedup_textsim::bitparallel::{lane_matches, lane_matches_swar, Lanes, JARO_LANES};
use probdedup_textsim::jaro::jaro_similarity_scalar;
use probdedup_textsim::{
    Exact, Jaro, JaroWinkler, Levenshtein, NormalizedHamming, PreparedText, StringComparator,
};

/// A character class mixing ASCII with multi-byte scalars so both the
/// lane scan and the Unicode fallback are exercised (the shim's `.` only
/// draws printable ASCII).
const MIXED: &str = "[aAbB xyz09àéüßñ日本語中]{0,200}";
/// A short edit appended to a prefix for near duplicates (often empty, so
/// the pair is a prefix pair).
const TAIL: &str = "[aAbB xyz09àéüßñ日本語中]{0,3}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every exported kernel's prepared path is bitwise-identical to its
    /// unprepared similarity: preparation is a performance contract, not a
    /// semantic one.
    #[test]
    fn prepared_similarity_matches_unprepared(a in MIXED, b in MIXED) {
        let (pa, pb) = (PreparedText::new(&a), PreparedText::new(&b));
        for k in kernels() {
            prop_assert_eq!(
                k.similarity_prepared(&pa, &pb).to_bits(),
                k.similarity(&a, &b).to_bits(),
                "{}: {:?} vs {:?}", k.name(), a, b
            );
        }
    }

    /// The bitset Jaro scan is bitwise-identical to the scalar Jaro, and
    /// Jaro-Winkler (boost on top) inherits the equality.
    #[test]
    fn jaro_matches_scalar(a in ".{0,120}", b in MIXED) {
        prop_assert_eq!(
            Jaro::new().similarity(&a, &b).to_bits(),
            jaro_similarity_scalar(&a, &b).to_bits(),
            "{:?} vs {:?}", a, b
        );
        let jw = JaroWinkler::new();
        let pa = PreparedText::new(&a);
        let pb = PreparedText::new(&b);
        prop_assert_eq!(
            jw.similarity_prepared(&pa, &pb).to_bits(),
            jw.similarity(&a, &b).to_bits(),
            "{:?} vs {:?}", a, b
        );
    }

    /// The lane scan (`b` of at most 16 bytes) and the position-table
    /// path either side of it, over a three-letter alphabet with NUL so
    /// that matches are dense, a NUL in `a` meets the zero padding of the
    /// lanes, and all 16 lanes of `b` get matched before a longer `a` ends.
    #[test]
    fn jaro_lane_scan_matches_scalar(a in "[ab\0]{0,128}", b in "[ab\0]{0,17}") {
        prop_assert_eq!(
            Jaro::new().similarity(&a, &b).to_bits(),
            jaro_similarity_scalar(&a, &b).to_bits(),
            "{:?} vs {:?}", a, b
        );
        let jw = JaroWinkler::new();
        let pa = PreparedText::new(&a);
        let pb = PreparedText::new(&b);
        prop_assert_eq!(
            jw.similarity_prepared(&pa, &pb).to_bits(),
            jw.similarity(&a, &b).to_bits(),
            "{:?} vs {:?}", a, b
        );
    }

    /// `similarity_prepared_within` certificates are sound and `Some`
    /// values exact (bitwise equal to the unprepared similarity), for
    /// every exported kernel — the Jaro family's prefilter and the trait
    /// default the others answer through — on an arbitrary cut and on the
    /// exact similarity itself (where any certificate is wrong), over an
    /// unrelated pair and a near duplicate (where the prefilter's bounds
    /// are often tight).
    #[test]
    fn similarity_within_certificates_sound(
        a in MIXED,
        b in MIXED,
        keep in 0usize..=200,
        tail in TAIL,
        cut in 0u32..=100,
    ) {
        let near = near_duplicate(&a, keep, &tail);
        for (x, y) in [(&a, &b), (&a, &near)] {
            let (px, py) = (PreparedText::new(x), PreparedText::new(y));
            for k in kernels() {
                let exact = k.similarity(x, y);
                for bound in [f64::from(cut) / 100.0, exact] {
                    match k.similarity_prepared_within(&px, &py, bound) {
                        Some(s) => prop_assert_eq!(
                            s.to_bits(), exact.to_bits(),
                            "{}: inexact Some on {:?} vs {:?}", k.name(), x, y
                        ),
                        None => prop_assert!(
                            exact < bound,
                            "{}: bad certificate on {:?} vs {:?}: {} >= {}",
                            k.name(), x, y, exact, bound
                        ),
                    }
                }
            }
        }
    }
}

/// A near duplicate of `a`: its first `keep` characters plus `tail`.
fn near_duplicate(a: &str, keep: usize, tail: &str) -> String {
    a.chars().take(keep).chain(tail.chars()).collect()
}

/// Every string kernel the crate exports.
fn kernels() -> [Box<dyn StringComparator>; 5] {
    [
        Box::new(Levenshtein::new()),
        Box::new(Jaro::new()),
        Box::new(JaroWinkler::new()),
        Box::new(NormalizedHamming::new()),
        Box::new(Exact),
    ]
}

/// Empty inputs: the distance is the other side's character count.
#[test]
fn empty_input_short_circuits() {
    let l = Levenshtein::new();
    assert_eq!(l.distance("", ""), 0);
    assert_eq!(l.distance("", "日本語"), 3);
    assert_eq!(l.distance("abc", ""), 3);
    assert_eq!(l.similarity("", ""), 1.0);
}

/// The vector lane compare (SSE2 on x86_64) and the portable SWAR one
/// return the same lanes as a byte loop, for every probe byte against
/// every lane byte, `m` of the 16 lanes filled and the rest zero padding:
/// this keeps the fallback of other targets checked on x86_64 too.
#[test]
fn lane_compares_agree_exhaustively() {
    for m in 0..=JARO_LANES {
        for c in 0..=127u8 {
            for v in 0..=127u8 {
                let fills: [[u8; JARO_LANES]; 3] = [
                    std::array::from_fn(|j| if j % 2 == 0 { c } else { v }),
                    std::array::from_fn(|j| if j % 2 == 0 { v } else { c }),
                    [v; JARO_LANES],
                ];
                for fill in fills {
                    let mut lanes: Lanes = [0; JARO_LANES];
                    lanes[..m].copy_from_slice(&fill[..m]);
                    let want = (0..JARO_LANES)
                        .filter(|&j| lanes[j] == c)
                        .fold(0u16, |acc, j| acc | 1 << j);
                    assert_eq!(lane_matches(&lanes, c), want, "{c:#04x} in {lanes:?}");
                    assert_eq!(lane_matches_swar(&lanes, c), want, "{c:#04x} in {lanes:?}");
                }
            }
        }
    }
}

/// `len` bytes drawn from `alphabet` by a xorshift stream.
fn draw(state: &mut u64, len: usize, alphabet: &[u8]) -> String {
    (0..len)
        .map(|_| {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            char::from(alphabet[(*state % alphabet.len() as u64) as usize])
        })
        .collect()
}

/// Jaro-Winkler from the scalar Jaro and the zipped character prefix —
/// the reference the lane paths are held to.
fn jaro_winkler_reference(a: &str, b: &str) -> f64 {
    let j = jaro_similarity_scalar(a, b);
    if j < 0.7 {
        return j;
    }
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    (j + prefix as f64 * 0.1 * (1.0 - j)).min(1.0)
}

/// Jaro and Jaro-Winkler through the `&str` and the prepared entry points
/// equal the references bit for bit.
fn assert_jaro_family_exact(a: &str, b: &str) {
    let (pa, pb) = (PreparedText::new(a), PreparedText::new(b));
    let (jaro, jw) = (Jaro::new(), JaroWinkler::new());
    let want = jaro_similarity_scalar(a, b).to_bits();
    assert_eq!(jaro.similarity(a, b).to_bits(), want, "{a:?} vs {b:?}");
    assert_eq!(
        jaro.similarity_prepared(&pa, &pb).to_bits(),
        want,
        "{a:?} vs {b:?}"
    );
    let want = jaro_winkler_reference(a, b).to_bits();
    assert_eq!(jw.similarity(a, b).to_bits(), want, "{a:?} vs {b:?}");
    assert_eq!(
        jw.similarity_prepared(&pa, &pb).to_bits(),
        want,
        "{a:?} vs {b:?}"
    );
}

/// The lane scan either side of the 16-byte lane block: a `b` of 15, 16
/// or 17 bytes against an `a` of every length up to 128 (so the window
/// passes and saturates the 16 lanes), over a dense alphabet with NUL
/// (a NUL in `a` meets the zero padding) and a wider one, on random pairs
/// and on near duplicates that earn the Winkler boost. Each pair runs in
/// both orientations, so the prepared path sees lanes on both sides, on
/// one side only (the other longer than 16 bytes), and on neither; the
/// `&str` entry points pad on the stack.
#[test]
fn lane_scan_matches_scalar_around_sixteen_bytes() {
    let mut state = 0x9e37_79b9_7f4a_7c15;
    for m in [15, 16, 17] {
        for n in 0..=128 {
            for alphabet in [&b"ab\0"[..], b"abcdefgh\0"] {
                let b = draw(&mut state, m, alphabet);
                let a = draw(&mut state, n, alphabet);
                let mut near: String = b.chars().cycle().take(n).collect();
                if n > 2 {
                    near.replace_range(n / 2..n / 2 + 1, "\0");
                }
                for a in [a, near] {
                    assert_jaro_family_exact(&a, &b);
                    assert_jaro_family_exact(&b, &a);
                }
            }
        }
    }
}

/// The Winkler prefix from one XOR of the first four bytes equals the
/// zipped character prefix (capped at 4), on every pair of strings of up
/// to five characters over `a`, NUL and the two-byte `é` and `è` (one
/// lead byte): pairs that share 0–4 leading bytes, strings shorter than
/// four bytes (whose zero padding must not match a NUL), and non-ASCII
/// heads that agree in their first bytes but not their characters.
#[test]
fn winkler_prefix_equals_character_prefix() {
    let letters = ['a', '\0', 'é', 'è'];
    let mut words = vec![String::new()];
    let mut last = words.clone();
    for _ in 0..5 {
        last = last
            .iter()
            .flat_map(|w| letters.iter().map(move |&c| format!("{w}{c}")))
            .collect();
        words.extend(last.iter().cloned());
    }
    let prepared: Vec<PreparedText> = words.iter().map(|w| PreparedText::new(w)).collect();
    for (a, pa) in words.iter().zip(&prepared) {
        for (b, pb) in words.iter().zip(&prepared) {
            let want = a
                .chars()
                .zip(b.chars())
                .take(4)
                .take_while(|(x, y)| x == y)
                .count();
            assert_eq!(JaroWinkler::prefix_len(a, b), want, "{a:?} vs {b:?}");
            assert_eq!(
                JaroWinkler::prefix_len_prepared(pa, pb),
                want,
                "{a:?} vs {b:?}"
            );
        }
    }
}
