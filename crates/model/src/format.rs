//! A human-readable text format for probabilistic (x-)relations.
//!
//! Enables datasets to be checked into repositories, diffed, and fed to the
//! CLI. The format is line-based:
//!
//! ```text
//! # comments and blank lines are ignored
//! schema name:text job:text age:int
//! xtuple t31
//!   alt 0.7 | John | pilot | 34
//!   alt 0.3 | Johan | {musician: 0.5; museum guide: 0.5} | 34
//! xtuple
//!   alt 0.8 | Tom | mechanic | _
//! ```
//!
//! Value cells: `_` (or `⊥`) is non-existence; `{v: p; v: p}` is a
//! categorical distribution (missing mass is implicit ⊥); anything else is
//! a plain literal parsed according to the schema's attribute type.
//! Distributions parse their inner literals the same way. Pipes inside
//! values are not supported (the format targets clean identifiers, names
//! and numbers).

use std::fmt::Write as _;

use crate::pvalue::PValue;
use crate::relation::XRelation;
use crate::schema::{AttrType, Schema};
use crate::value::Value;
use crate::xtuple::XTuple;

/// Error with line information for parse failures.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

/// Render an x-relation in the text format.
pub fn write_xrelation(r: &XRelation) -> String {
    let mut out = String::new();
    write!(out, "schema").expect("write to String");
    for a in r.schema().attrs() {
        let ty = match a.ty {
            AttrType::Text => "text",
            AttrType::Int => "int",
            AttrType::Real => "real",
            AttrType::Bool => "bool",
        };
        write!(out, " {}:{}", a.name, ty).expect("write to String");
    }
    out.push('\n');
    for t in r.xtuples() {
        match t.label() {
            Some(l) => writeln!(out, "xtuple {l}").expect("write to String"),
            None => writeln!(out, "xtuple").expect("write to String"),
        }
        for alt in t.alternatives() {
            write!(out, "  alt {}", alt.probability()).expect("write to String");
            for v in alt.values() {
                write!(out, " | {}", render_pvalue(v)).expect("write to String");
            }
            out.push('\n');
        }
    }
    out
}

fn render_pvalue(v: &PValue) -> String {
    if v.is_null() {
        return "_".to_string();
    }
    // A bare literal parses back with mass exactly 1, and as a
    // distribution if it opens with a brace: anything else keeps braces.
    if let [(value, p)] = v.alternatives() {
        let literal = value.render();
        if *p == 1.0 && !literal.starts_with('{') {
            return literal;
        }
    }
    let inner: Vec<String> = v
        .alternatives()
        .iter()
        .map(|(val, p)| format!("{}: {}", val.render(), p))
        .collect();
    format!("{{{}}}", inner.join("; "))
}

/// An x-tuple under assembly: its optional label and alternative rows.
type PendingXTuple = (Option<String>, Vec<(f64, Vec<PValue>)>);

/// Parse an x-relation from the text format.
pub fn parse_xrelation(input: &str) -> Result<XRelation, ParseError> {
    let mut schema: Option<Schema> = None;
    let mut relation: Option<XRelation> = None;
    let mut pending: Option<PendingXTuple> = None;

    let flush = |relation: &mut Option<XRelation>,
                 pending: &mut Option<PendingXTuple>,
                 line: usize|
     -> Result<(), ParseError> {
        if let Some((label, alts)) = pending.take() {
            if alts.is_empty() {
                return Err(ParseError::new(line, "x-tuple without alternatives"));
            }
            let rel = relation.as_mut().expect("schema precedes xtuples");
            let mut builder_alts = Vec::new();
            for (p, values) in alts {
                builder_alts.push(
                    crate::xtuple::XAlternative::new(values, p)
                        .map_err(|e| ParseError::new(line, e.to_string()))?,
                );
            }
            let mut t =
                XTuple::new(builder_alts).map_err(|e| ParseError::new(line, e.to_string()))?;
            if let Some(l) = label {
                t = t.with_label(l);
            }
            rel.try_push(t)
                .map_err(|e| ParseError::new(line, e.to_string()))?;
        }
        Ok(())
    };

    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("schema") {
            if schema.is_some() {
                return Err(ParseError::new(lineno, "duplicate schema line"));
            }
            let mut defs = Vec::new();
            for part in rest.split_whitespace() {
                let (name, ty) = part.split_once(':').ok_or_else(|| {
                    ParseError::new(lineno, format!("attribute {part:?} needs name:type"))
                })?;
                let ty = match ty {
                    "text" => AttrType::Text,
                    "int" => AttrType::Int,
                    "real" => AttrType::Real,
                    "bool" => AttrType::Bool,
                    other => {
                        return Err(ParseError::new(
                            lineno,
                            format!("unknown attribute type {other:?}"),
                        ))
                    }
                };
                defs.push((name.to_string(), ty));
            }
            if defs.is_empty() {
                return Err(ParseError::new(
                    lineno,
                    "schema needs at least one attribute",
                ));
            }
            let s = Schema::with_types(defs);
            relation = Some(XRelation::new(s.clone()));
            schema = Some(s);
        } else if let Some(rest) = line.strip_prefix("xtuple") {
            if schema.is_none() {
                return Err(ParseError::new(lineno, "xtuple before schema"));
            }
            flush(&mut relation, &mut pending, lineno)?;
            let label = rest.trim();
            pending = Some(((!label.is_empty()).then(|| label.to_string()), Vec::new()));
        } else if let Some(rest) = line.strip_prefix("alt") {
            let schema = schema
                .as_ref()
                .ok_or_else(|| ParseError::new(lineno, "alt before schema"))?;
            let (_, alts) = pending
                .as_mut()
                .ok_or_else(|| ParseError::new(lineno, "alt outside an xtuple"))?;
            let mut cells = rest.split('|').map(str::trim);
            let prob: f64 = cells
                .next()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| ParseError::new(lineno, "alt needs a probability"))?
                .parse()
                .map_err(|_| ParseError::new(lineno, "invalid probability"))?;
            let values: Vec<&str> = cells.collect();
            if values.len() != schema.arity() {
                return Err(ParseError::new(
                    lineno,
                    format!(
                        "expected {} value cells, got {}",
                        schema.arity(),
                        values.len()
                    ),
                ));
            }
            let parsed: Result<Vec<PValue>, ParseError> = values
                .iter()
                .enumerate()
                .map(|(i, cell)| parse_pvalue(cell, schema.type_of(i), lineno))
                .collect();
            alts.push((prob, parsed?));
        } else {
            return Err(ParseError::new(
                lineno,
                format!("unrecognized line {line:?}"),
            ));
        }
    }
    let last_line = input.lines().count();
    flush(&mut relation, &mut pending, last_line)?;
    relation.ok_or_else(|| ParseError::new(1, "input has no schema"))
}

fn parse_literal(s: &str, ty: AttrType, line: usize) -> Result<Value, ParseError> {
    if s == "_" || s == "⊥" {
        return Ok(Value::Null);
    }
    Ok(match ty {
        AttrType::Text => Value::Text(s.to_string()),
        AttrType::Int => Value::Int(
            s.parse()
                .map_err(|_| ParseError::new(line, format!("invalid int {s:?}")))?,
        ),
        AttrType::Real => Value::Real(
            s.parse()
                .map_err(|_| ParseError::new(line, format!("invalid real {s:?}")))?,
        ),
        AttrType::Bool => Value::Bool(
            s.parse()
                .map_err(|_| ParseError::new(line, format!("invalid bool {s:?}")))?,
        ),
    })
}

fn parse_pvalue(cell: &str, ty: AttrType, line: usize) -> Result<PValue, ParseError> {
    if cell == "_" || cell == "⊥" {
        return Ok(PValue::null());
    }
    if let Some(inner) = cell.strip_prefix('{') {
        let inner = inner
            .strip_suffix('}')
            .ok_or_else(|| ParseError::new(line, "unterminated distribution"))?;
        let mut entries = Vec::new();
        for part in inner.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (val, p) = part.rsplit_once(':').ok_or_else(|| {
                ParseError::new(line, format!("entry {part:?} needs value: prob"))
            })?;
            let p: f64 = p
                .trim()
                .parse()
                .map_err(|_| ParseError::new(line, format!("invalid probability in {part:?}")))?;
            entries.push((parse_literal(val.trim(), ty, line)?, p));
        }
        return PValue::categorical(entries).map_err(|e| ParseError::new(line, e.to_string()));
    }
    Ok(PValue::certain(parse_literal(cell, ty, line)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_style_relation() -> XRelation {
        let s = Schema::with_types([
            ("name", AttrType::Text),
            ("job", AttrType::Text),
            ("age", AttrType::Int),
        ]);
        let mut r = XRelation::new(s.clone());
        let mu = PValue::categorical([("musician", 0.5), ("museum guide", 0.5)]).unwrap();
        r.push(
            XTuple::builder(&s)
                .alt(
                    0.7,
                    [Value::from("John"), Value::from("pilot"), Value::Int(34)],
                )
                .alt_pvalues(
                    0.3,
                    [
                        PValue::certain("Johan"),
                        mu,
                        PValue::certain(Value::Int(34)),
                    ],
                )
                .label("t31")
                .build()
                .unwrap(),
        );
        r.push(
            XTuple::builder(&s)
                .alt(0.8, [Value::from("Tom"), Value::Null, Value::Int(51)])
                .build()
                .unwrap(),
        );
        r
    }

    #[test]
    fn roundtrip_preserves_relation() {
        let r = fig5_style_relation();
        let text = write_xrelation(&r);
        let parsed = parse_xrelation(&text).unwrap();
        assert_eq!(parsed.len(), r.len());
        assert_eq!(parsed.schema().arity(), 3);
        assert_eq!(parsed.get(0).unwrap().label(), Some("t31"));
        for (a, b) in r.xtuples().iter().zip(parsed.xtuples()) {
            assert_eq!(a.len(), b.len());
            assert!((a.probability() - b.probability()).abs() < 1e-12);
            for (aa, ba) in a.alternatives().iter().zip(b.alternatives()) {
                assert_eq!(aa.values(), ba.values());
            }
        }
    }

    #[test]
    fn parse_minimal_document() {
        let doc = "\
# a comment
schema name:text job:text

xtuple t1
  alt 0.9 | Tim | {machinist: 0.7; mechanic: 0.2}
xtuple
  alt 1.0 | John | _
";
        let r = parse_xrelation(doc).unwrap();
        assert_eq!(r.len(), 2);
        let t1 = r.get(0).unwrap();
        assert_eq!(t1.label(), Some("t1"));
        assert!((t1.alternatives()[0].value(1).null_prob() - 0.1).abs() < 1e-12);
        assert!(r.get(1).unwrap().alternatives()[0].value(1).is_null());
    }

    #[test]
    fn typed_literals() {
        let doc = "\
schema n:int r:real b:bool
xtuple
  alt 1.0 | 42 | 2.5 | true
  ";
        let r = parse_xrelation(doc).unwrap();
        let alt = &r.get(0).unwrap().alternatives()[0];
        assert_eq!(alt.value(0).alternatives()[0].0, Value::Int(42));
        assert_eq!(alt.value(1).alternatives()[0].0, Value::Real(2.5));
        assert_eq!(alt.value(2).alternatives()[0].0, Value::Bool(true));
    }

    #[test]
    fn error_positions_and_messages() {
        let cases: Vec<(&str, usize, &str)> = vec![
            ("xtuple t1", 1, "before schema"),
            ("schema a:text\nnonsense", 2, "unrecognized"),
            ("schema a:wat", 1, "unknown attribute type"),
            ("schema a:text\nalt 1.0 | x", 2, "outside an xtuple"),
            (
                "schema a:text\nxtuple\n  alt 1.0 | x | y",
                3,
                "expected 1 value cells",
            ),
            (
                "schema a:text\nxtuple\n  alt oops | x",
                3,
                "invalid probability",
            ),
            ("schema a:int\nxtuple\n  alt 1.0 | xyz", 3, "invalid int"),
            (
                "schema a:text\nxtuple\n  alt 1.0 | {x: 0.5",
                3,
                "unterminated",
            ),
            (
                "schema a:text\nxtuple t\nxtuple u\n  alt 1 | x",
                3,
                "without alternatives",
            ),
            ("schema a:text\nschema b:text", 2, "duplicate schema"),
            ("", 1, "no schema"),
        ];
        for (doc, line, needle) in cases {
            let err = parse_xrelation(doc).unwrap_err();
            assert_eq!(err.line, line, "{doc:?} → {err}");
            assert!(err.message.contains(needle), "{doc:?} → {err}");
        }
    }

    #[test]
    fn distribution_mass_validated() {
        let doc = "schema a:text\nxtuple\n  alt 1.0 | {x: 0.8; y: 0.5}";
        let err = parse_xrelation(doc).unwrap_err();
        assert!(err.message.contains("exceeds 1"), "{err}");
    }

    #[test]
    fn values_with_colons_parse_via_rsplit() {
        // rsplit_once(':') keeps "NGC:1976"-style values intact.
        let doc = "schema a:text\nxtuple\n  alt 1.0 | {NGC:1976: 0.6; M:42: 0.4}";
        let r = parse_xrelation(doc).unwrap();
        let v = r.get(0).unwrap().alternatives()[0].value(0);
        assert_eq!(v.support_len(), 2);
        assert!(v
            .alternatives()
            .iter()
            .any(|(val, _)| val.render() == "NGC:1976"));
    }

    #[test]
    fn write_renders_maybe_and_null() {
        let r = fig5_style_relation();
        let text = write_xrelation(&r);
        assert!(text.contains("alt 0.8 | Tom | _ | 51"), "{text}");
        assert!(
            text.contains("{museum guide: 0.5; musician: 0.5}"),
            "{text}"
        );
    }
}
