//! Property fuzzing of the `.pxr` text parser, to the recover-or-refuse
//! standard the daemon's HTTP parser meets (`crates/serve/tests/http_fuzz.rs`):
//! every ingest or dedup body posted to the daemon goes through
//! [`parse_xrelation`].
//!
//! * any input — arbitrary bytes, lines built from the format's keywords,
//!   or the text [`write_xrelation`] renders for a valid relation with
//!   bytes overwritten and its tail cut — parses or stops at a typed
//!   [`ParseError`]; nothing panics;
//! * whatever parses renders back to text that parses to the same
//!   relation, so a batch the daemon accepted means what the client sent.

use proptest::prelude::*;

use probdedup_model::format::{parse_xrelation, write_xrelation};
use probdedup_model::pvalue::PValue;
use probdedup_model::relation::XRelation;
use probdedup_model::schema::{AttrType, Schema};
use probdedup_model::value::Value;
use probdedup_model::xtuple::{XAlternative, XTuple};

/// Bytes an edit writes half of the time: the format's own punctuation,
/// so damaged text keeps reaching past the first line.
const STRUCTURE: &[u8] = b"|{};:_#. \n-0123456789eE";

/// Parse `input`; if it parses, fail unless rendering and re-parsing the
/// relation gives it back.
fn parses_to_itself(input: &str) -> Result<(), TestCaseError> {
    let Ok(relation) = parse_xrelation(input) else {
        return Ok(());
    };
    let text = write_xrelation(&relation);
    match parse_xrelation(&text) {
        Ok(again) => prop_assert_eq!(
            &again,
            &relation,
            "re-parse differs\n input: {:?}\n render: {:?}",
            input,
            text
        ),
        Err(err) => prop_assert!(
            false,
            "render does not parse: {}\n input: {:?}\n render: {:?}",
            err,
            input,
            text
        ),
    }
    Ok(())
}

const TYPES: [AttrType; 4] = [
    AttrType::Text,
    AttrType::Int,
    AttrType::Real,
    AttrType::Bool,
];

/// A literal of type `ty` drawn from `seed`.
fn literal(ty: AttrType, seed: u64, text: &str) -> Value {
    match ty {
        AttrType::Text => Value::Text(text.to_string()),
        AttrType::Int => Value::Int(seed as i64 % 1000 - 500),
        AttrType::Real => Value::Real((seed % 10_000) as f64 / 64.0 - 50.0),
        AttrType::Bool => Value::Bool(seed.is_multiple_of(2)),
    }
}

/// One cell: ⊥, a certain literal, or a two-entry distribution.
fn cell(ty: AttrType, seed: u64, text: &str) -> PValue {
    match seed % 4 {
        0 => PValue::null(),
        1 => PValue::categorical([
            (literal(ty, seed / 4, text), 0.25),
            (literal(ty, seed / 4 + 1, "alt"), 0.5),
        ])
        .expect("mass below 1"),
        _ => PValue::certain(literal(ty, seed / 4, text)),
    }
}

/// A valid relation: 1–4 typed attributes, 0–5 x-tuples of 1–3
/// alternatives, optional labels.
fn relation() -> impl Strategy<Value = XRelation> {
    (
        proptest::collection::vec((0usize..4, "[a-z]{1,6}"), 1..5),
        proptest::collection::vec(
            (
                proptest::collection::vec(any::<u64>(), 1..4),
                "[A-Za-z0-9 ]{0,8}",
                any::<bool>(),
            ),
            0..6,
        ),
    )
        .prop_map(|(attrs, tuples)| {
            let schema = Schema::with_types(
                attrs
                    .iter()
                    .map(|(ty, name)| (name.clone(), TYPES[*ty]))
                    .collect::<Vec<_>>(),
            );
            let mut rel = XRelation::new(schema.clone());
            for (seeds, text, labelled) in tuples {
                let text = text.trim();
                let alts = seeds
                    .iter()
                    .map(|&seed| {
                        let values = (0..schema.arity())
                            .map(|i| cell(schema.type_of(i), seed.rotate_left(i as u32 * 7), text))
                            .collect();
                        XAlternative::new(values, 1.0 / seeds.len() as f64 * 0.9)
                            .expect("positive probability")
                    })
                    .collect();
                let mut t = XTuple::new(alts).expect("mass below 1");
                if labelled && !text.is_empty() {
                    t = t.with_label(text);
                }
                rel.push(t);
            }
            rel
        })
}

/// Cell literals, probabilities and attribute types the format-shaped
/// text draws from: plain values, the format's own punctuation inside a
/// value, and masses at and just around 1.
const LITERALS: [&str; 11] = [
    "x", "John", "{x", "x}", "{x}", "a:b", "", "7", "-2.5", "true", "_",
];
const PROBS: [&str; 8] = [
    "1",
    "0.5",
    "0.25",
    "0.9999999999",
    "0.5000000001",
    "1.0000000001",
    "0",
    "1e-3",
];
const TYPE_NAMES: [&str; 5] = ["text", "text", "int", "real", "bool"];

/// One value cell: a literal, ⊥, or a one- or two-entry distribution
/// (whose entries are one literal twice when `dup` is set).
fn cell_text(shape: usize, lits: (usize, usize), dup: bool, probs: (usize, usize)) -> String {
    let a = LITERALS[lits.0];
    let b = if dup { a } else { LITERALS[lits.1] };
    let (p, q) = (PROBS[probs.0], PROBS[probs.1]);
    match shape {
        0 => a.to_string(),
        1 => format!("{{{a}: {p}}}"),
        2 => format!("{{{a}: {p}; {b}: {q}}}"),
        _ => "⊥".to_string(),
    }
}

/// Text in the format's own shape: a schema line, then x-tuple and `alt`
/// lines of one cell per attribute, the cells mixing the vocabulary
/// above — much of it parses, and all of it reaches the value grammar.
fn pxr_shaped() -> impl Strategy<Value = String> {
    let lit = || 0..LITERALS.len();
    let prob = || 0..PROBS.len();
    let cell = (0usize..4, (lit(), lit()), any::<bool>(), (prob(), prob()));
    (
        proptest::collection::vec(0usize..TYPE_NAMES.len(), 1..4),
        proptest::collection::vec(
            (any::<bool>(), prob(), proptest::collection::vec(cell, 3..4)),
            0..8,
        ),
    )
        .prop_map(|(types, lines)| {
            let mut text = String::from("schema");
            for (i, ty) in types.iter().enumerate() {
                text.push_str(&format!(" a{i}:{}", TYPE_NAMES[*ty]));
            }
            text.push('\n');
            for (n, (new_tuple, prob, cells)) in lines.into_iter().enumerate() {
                if new_tuple || n == 0 {
                    text.push_str("xtuple\n");
                }
                text.push_str(&format!("  alt {}", PROBS[prob]));
                for (shape, lits, dup, probs) in cells.into_iter().take(types.len()) {
                    text.push_str(&format!(" | {}", cell_text(shape, lits, dup, probs)));
                }
                text.push('\n');
            }
            text
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, read as (lossy) UTF-8; lines that start with the
    /// format's keywords followed by printable noise; and text in the
    /// format's own shape.
    #[test]
    fn arbitrary_text_parses_to_itself_or_refuses(
        noise in proptest::collection::vec(any::<u8>(), 0..=512),
        lines in proptest::collection::vec((0usize..5, ".{0,30}"), 0..12),
        shaped in pxr_shaped(),
    ) {
        parses_to_itself(&String::from_utf8_lossy(&noise))?;
        let keywords = ["schema ", "xtuple ", "  alt ", "# ", ""];
        let text: String = lines
            .iter()
            .map(|(k, rest)| format!("{}{rest}\n", keywords[*k]))
            .collect();
        parses_to_itself(&text)?;
        parses_to_itself(&shaped)?;
    }

    /// A valid relation's text round-trips as is, and with bytes
    /// overwritten and its tail cut it parses to itself or refuses.
    #[test]
    fn damaged_pxr_text_parses_to_itself_or_refuses(
        rel in relation(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), any::<bool>()), 0..6),
        cut in proptest::collection::vec(any::<usize>(), 0..2),
    ) {
        let text = write_xrelation(&rel);
        prop_assert_eq!(parse_xrelation(&text), Ok(rel));
        let mut damaged = text.into_bytes();
        for (at, byte, structural) in edits {
            let at = at % damaged.len();
            damaged[at] = if structural { STRUCTURE[byte as usize % STRUCTURE.len()] } else { byte };
        }
        if let Some(cut) = cut.first() {
            damaged.truncate(cut % (damaged.len() + 1));
        }
        parses_to_itself(&String::from_utf8_lossy(&damaged))?;
    }
}
