//! Crash-safe binary snapshot primitives: a hand-rolled, versioned flat
//! format for persisting session state (resident relations, decisions)
//! across restarts.
//!
//! The format is deliberately dependency-free (no serde registry, per the
//! offline-shims rule) and **paranoid on read**: every load path is
//! bounds-checked, every section carries its own length and FNV-1a
//! checksum, and the whole file carries a trailing checksum, so any
//! truncation, bit flip or version skew surfaces as a typed
//! [`SnapshotError`] — never a panic, never a silent misread.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! ┌──────────┬─────────┬──────────────────────────────┬───────────┐
//! │ magic ×8 │ version │ section*                     │ file cksum│
//! │ "PXDSNAP" │ u32    │ tag u32 · len u64 · payload  │ u64 FNV-1a│
//! │          │         │           · payload cksum u64 │ (of all   │
//! │          │         │                              │ prior     │
//! │          │         │                              │ bytes)    │
//! └──────────┴─────────┴──────────────────────────────┴───────────┘
//! ```
//!
//! This module owns the *primitives* (writer, reader, checksums) and the
//! codecs for model-layer state ([`Value`], [`PValue`], [`XTuple`],
//! [`XRelation`]); the session-level file
//! layout — which sections exist and in what order — is composed by the
//! core crate's `DedupSession::save`/`open`.

use std::fmt;

use crate::error::ModelError;
use crate::pvalue::PValue;
use crate::relation::XRelation;
use crate::schema::{AttrType, Schema};
use crate::value::Value;
use crate::xtuple::{XAlternative, XTuple};

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"PXDSNAP\0";

/// Current snapshot format version. Bump on any incompatible layout
/// change; old files then fail with [`SnapshotError::UnsupportedVersion`]
/// instead of being misread.
pub const FORMAT_VERSION: u32 = 1;

/// Typed failure modes of snapshot encoding/decoding. Every corrupt,
/// truncated or mismatched input maps to one of these — loading never
/// panics and never silently accepts bad data.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying filesystem error (open/read/write/fsync/rename).
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's format version is not one this build can read.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Highest version this build supports.
        supported: u32,
    },
    /// The input ended before a read completed.
    Truncated {
        /// What was being read.
        context: &'static str,
    },
    /// Bytes remain after the final expected field of a section or file.
    TrailingBytes {
        /// What was being read.
        context: &'static str,
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A section or file checksum does not match its contents.
    ChecksumMismatch {
        /// What was being verified.
        context: &'static str,
    },
    /// A section tag differs from the expected one.
    BadSection {
        /// Tag the reader expected.
        expected: u32,
        /// Tag found in the file.
        found: u32,
    },
    /// A structural invariant of the payload is violated (bad enum tag,
    /// invalid UTF-8, impossible count, …).
    Malformed {
        /// What was being read.
        context: &'static str,
    },
    /// Decoded data failed model-level validation (bad probability mass,
    /// empty alternative set, …).
    Model(ModelError),
    /// The snapshot was written by a session whose configuration is
    /// incompatible with the one it is being opened into.
    ConfigMismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a probdedup snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads ≤ {supported})"
            ),
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::TrailingBytes { context, extra } => {
                write!(f, "{extra} unexpected trailing bytes after {context}")
            }
            SnapshotError::ChecksumMismatch { context } => {
                write!(f, "checksum mismatch in {context} (corrupt snapshot)")
            }
            SnapshotError::BadSection { expected, found } => {
                write!(f, "expected section tag {expected:#x}, found {found:#x}")
            }
            SnapshotError::Malformed { context } => write!(f, "malformed snapshot data: {context}"),
            SnapshotError::Model(e) => write!(f, "snapshot data fails model validation: {e}"),
            SnapshotError::ConfigMismatch { detail } => {
                write!(f, "snapshot/session configuration mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<ModelError> for SnapshotError {
    fn from(e: ModelError) -> Self {
        SnapshotError::Model(e)
    }
}

/// 64-bit FNV-1a over `bytes` — the snapshot's (non-cryptographic)
/// corruption detector for sections and the whole file.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A growable little-endian payload buffer: the body of one section.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw IEEE-754 bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `usize` as a `u64`.
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The accumulated payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked little-endian reader over one section's payload.
///
/// Every `take_*` returns [`SnapshotError::Truncated`] past the end;
/// [`SectionReader::finish`] rejects unconsumed bytes, so a payload must
/// parse *exactly* or fail loudly.
#[derive(Debug)]
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> SectionReader<'a> {
    /// Wrap a payload with a context label used in error messages.
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                context: self.context,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// Read a little-endian `i64`.
    pub fn take_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// Read an `f64` from its raw IEEE-754 bits.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a `u64` count/length and check it is plausible: each counted
    /// element occupies at least `min_elem_bytes` of the remaining
    /// payload, so a flipped length byte cannot drive a huge allocation.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.take_u64()?;
        let cap = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if n > cap {
            return Err(SnapshotError::Malformed {
                context: self.context,
            });
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, SnapshotError> {
        let n = self.take_len(1)?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| SnapshotError::Malformed {
            context: self.context,
        })
    }

    /// Assert the payload is fully consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes {
                context: self.context,
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Writer for a whole snapshot file: magic + version header, framed
/// checksummed sections, trailing whole-file checksum.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// Start a snapshot (writes the magic and format version).
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        Self { buf }
    }

    /// Append one framed section: tag, payload length, payload, payload
    /// checksum.
    pub fn section(&mut self, tag: u32, payload: SectionWriter) {
        let payload = payload.into_bytes();
        self.buf.extend_from_slice(&tag.to_le_bytes());
        self.buf
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let cksum = fnv1a(&payload);
        self.buf.extend_from_slice(&payload);
        self.buf.extend_from_slice(&cksum.to_le_bytes());
    }

    /// Seal the file: append the whole-file checksum and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let cksum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&cksum.to_le_bytes());
        self.buf
    }
}

/// Reader for a whole snapshot file. Construction verifies magic, version
/// and the whole-file checksum; [`SnapshotReader::section`] then yields
/// payloads in order, verifying each frame.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    /// Section bytes (between the header and the file checksum).
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Validate the file envelope and position at the first section.
    pub fn open(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let header = MAGIC.len() + 4;
        let magic_ok = bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC;
        if !magic_ok {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < header + 8 {
            return Err(SnapshotError::Truncated {
                context: "file envelope",
            });
        }
        let version = u32::from_le_bytes(
            bytes[MAGIC.len()..header]
                .try_into()
                .expect("4-byte version"),
        );
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let body_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8-byte checksum"));
        if fnv1a(&bytes[..body_end]) != stored {
            return Err(SnapshotError::ChecksumMismatch {
                context: "whole file",
            });
        }
        Ok(Self {
            buf: &bytes[header..body_end],
            pos: 0,
        })
    }

    /// Read the next section, asserting its tag, and return its verified
    /// payload as a [`SectionReader`].
    pub fn section(
        &mut self,
        expected_tag: u32,
        context: &'static str,
    ) -> Result<SectionReader<'a>, SnapshotError> {
        let frame = &self.buf[self.pos..];
        if frame.len() < 12 {
            return Err(SnapshotError::Truncated { context });
        }
        let tag = u32::from_le_bytes(frame[..4].try_into().expect("4B tag"));
        if tag != expected_tag {
            return Err(SnapshotError::BadSection {
                expected: expected_tag,
                found: tag,
            });
        }
        let len = u64::from_le_bytes(frame[4..12].try_into().expect("8B len"));
        let len = usize::try_from(len).map_err(|_| SnapshotError::Malformed { context })?;
        if frame.len() < 12 + len + 8 {
            return Err(SnapshotError::Truncated { context });
        }
        let payload = &frame[12..12 + len];
        let stored = u64::from_le_bytes(
            frame[12 + len..12 + len + 8]
                .try_into()
                .expect("8B checksum"),
        );
        if fnv1a(payload) != stored {
            return Err(SnapshotError::ChecksumMismatch { context });
        }
        self.pos += 12 + len + 8;
        Ok(SectionReader::new(payload, context))
    }

    /// Whether any section frames remain unread. Lets a caller accept an
    /// *optional trailing section* (e.g. a newer writer appending state an
    /// older file lacks) without bumping the format version: peek, read the
    /// section if present, then [`finish`](Self::finish) as usual.
    pub fn has_more(&self) -> bool {
        self.pos != self.buf.len()
    }

    /// Assert all sections have been consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::TrailingBytes {
                context: "section list",
                extra: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Model-layer codecs
// ---------------------------------------------------------------------------

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_REAL: u8 = 3;
const VAL_TEXT: u8 = 4;

/// Encode one [`Value`] (tag byte + payload; reals as raw bits — `Value`'s
/// own equality canonicalizes on compare, so round-trips stay equal).
pub fn write_value(w: &mut SectionWriter, v: &Value) {
    match v {
        Value::Null => w.put_u8(VAL_NULL),
        Value::Bool(b) => {
            w.put_u8(VAL_BOOL);
            w.put_u8(u8::from(*b));
        }
        Value::Int(i) => {
            w.put_u8(VAL_INT);
            w.put_i64(*i);
        }
        Value::Real(r) => {
            w.put_u8(VAL_REAL);
            w.put_u64(r.to_bits());
        }
        Value::Text(s) => {
            w.put_u8(VAL_TEXT);
            w.put_str(s);
        }
    }
}

/// Decode one [`Value`].
pub fn read_value(r: &mut SectionReader<'_>) -> Result<Value, SnapshotError> {
    match r.take_u8()? {
        VAL_NULL => Ok(Value::Null),
        VAL_BOOL => match r.take_u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            _ => Err(SnapshotError::Malformed {
                context: "boolean value",
            }),
        },
        VAL_INT => Ok(Value::Int(r.take_i64()?)),
        VAL_REAL => Ok(Value::Real(f64::from_bits(r.take_u64()?))),
        VAL_TEXT => Ok(Value::Text(r.take_str()?.to_string())),
        _ => Err(SnapshotError::Malformed {
            context: "value tag",
        }),
    }
}

/// Encode one [`PValue`] as its explicit alternatives (the implicit ⊥
/// mass is derived, not stored).
pub fn write_pvalue(w: &mut SectionWriter, v: &PValue) {
    w.put_u32(v.alternatives().len() as u32);
    for (val, p) in v.alternatives() {
        write_value(w, val);
        w.put_f64(*p);
    }
}

/// Decode one [`PValue`], revalidating probabilities and mass through
/// [`PValue::categorical`] — corrupt floats become [`SnapshotError::Model`].
pub fn read_pvalue(r: &mut SectionReader<'_>) -> Result<PValue, SnapshotError> {
    let n = r.take_u32()? as usize;
    let mut entries = Vec::new();
    for _ in 0..n {
        let v = read_value(r)?;
        let p = r.take_f64()?;
        entries.push((v, p));
    }
    Ok(PValue::categorical(entries)?)
}

const TYPE_TAGS: [(AttrType, u8); 4] = [
    (AttrType::Text, 0),
    (AttrType::Int, 1),
    (AttrType::Real, 2),
    (AttrType::Bool, 3),
];

/// Encode a [`Schema`] (attribute names and types).
pub fn write_schema(w: &mut SectionWriter, schema: &Schema) {
    w.put_u32(schema.arity() as u32);
    for attr in schema.attrs() {
        w.put_str(&attr.name);
        let tag = TYPE_TAGS
            .iter()
            .find(|(t, _)| *t == attr.ty)
            .map(|(_, b)| *b)
            .expect("every AttrType has a tag");
        w.put_u8(tag);
    }
}

/// Decode a [`Schema`].
pub fn read_schema(r: &mut SectionReader<'_>) -> Result<Schema, SnapshotError> {
    let arity = r.take_u32()? as usize;
    let mut defs = Vec::new();
    for _ in 0..arity {
        let name = r.take_str()?.to_string();
        let tag = r.take_u8()?;
        let ty = TYPE_TAGS
            .iter()
            .find(|(_, b)| *b == tag)
            .map(|(t, _)| *t)
            .ok_or(SnapshotError::Malformed {
                context: "attribute type tag",
            })?;
        defs.push((name, ty));
    }
    Ok(Schema::with_types(defs))
}

/// Encode one [`XTuple`] (label, then alternatives with their
/// probabilities and per-attribute distributions).
pub fn write_xtuple(w: &mut SectionWriter, t: &XTuple) {
    match t.label() {
        Some(l) => {
            w.put_u8(1);
            w.put_str(l);
        }
        None => w.put_u8(0),
    }
    w.put_u32(t.alternatives().len() as u32);
    for alt in t.alternatives() {
        w.put_f64(alt.probability());
        w.put_u32(alt.values().len() as u32);
        for v in alt.values() {
            write_pvalue(w, v);
        }
    }
}

/// Decode one [`XTuple`], revalidating every invariant (alternative
/// probabilities in `(0, 1]`, mass ≤ 1, non-empty, arity = `arity`)
/// through the ordinary model constructors.
pub fn read_xtuple(r: &mut SectionReader<'_>, arity: usize) -> Result<XTuple, SnapshotError> {
    let label = match r.take_u8()? {
        0 => None,
        1 => Some(r.take_str()?.to_string()),
        _ => {
            return Err(SnapshotError::Malformed {
                context: "x-tuple label flag",
            })
        }
    };
    let n_alts = r.take_u32()? as usize;
    let mut alts = Vec::new();
    for _ in 0..n_alts {
        let p = r.take_f64()?;
        let n_vals = r.take_u32()? as usize;
        if n_vals != arity {
            return Err(SnapshotError::Malformed {
                context: "x-tuple alternative arity",
            });
        }
        let mut vals = Vec::with_capacity(arity);
        for _ in 0..n_vals {
            vals.push(read_pvalue(r)?);
        }
        alts.push(XAlternative::new(vals, p)?);
    }
    let t = XTuple::new(alts)?;
    Ok(match label {
        Some(l) => t.with_label(l),
        None => t,
    })
}

/// Encode an [`XRelation`] (schema + rows).
pub fn write_xrelation(w: &mut SectionWriter, rel: &XRelation) {
    write_schema(w, rel.schema());
    w.put_len(rel.len());
    for t in rel.xtuples() {
        write_xtuple(w, t);
    }
}

/// Decode an [`XRelation`].
pub fn read_xrelation(r: &mut SectionReader<'_>) -> Result<XRelation, SnapshotError> {
    let schema = read_schema(r)?;
    let n = r.take_len(1)?;
    let mut rel = XRelation::new(schema.clone());
    for _ in 0..n {
        let t = read_xtuple(r, schema.arity())?;
        rel.try_push(t)?;
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: &Value) -> Value {
        let mut w = SectionWriter::new();
        write_value(&mut w, v);
        let bytes = w.into_bytes();
        let mut r = SectionReader::new(&bytes, "test value");
        let out = read_value(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        out
    }

    #[test]
    fn value_roundtrip_all_variants() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Real(2.5),
            Value::Real(-0.0),
            Value::Text("Łukasz".into()),
            Value::Text(String::new()),
        ] {
            assert_eq!(roundtrip_value(&v), v);
        }
    }

    #[test]
    fn pvalue_roundtrip_preserves_distribution() {
        let v = PValue::categorical([("machinist", 0.7), ("mechanic", 0.2)]).unwrap();
        let mut w = SectionWriter::new();
        write_pvalue(&mut w, &v);
        let bytes = w.into_bytes();
        let mut r = SectionReader::new(&bytes, "test pvalue");
        assert_eq!(read_pvalue(&mut r).unwrap(), v);
    }

    #[test]
    fn xrelation_roundtrip() {
        let schema = Schema::new(["name", "job"]);
        let mut rel = XRelation::new(schema.clone());
        rel.push(
            XTuple::builder(&schema)
                .alt(0.3, ["Tim", "mechanic"])
                .alt(0.4, ["Jim", "baker"])
                .label("t32")
                .build()
                .unwrap(),
        );
        rel.push(
            XTuple::builder(&schema)
                .alt(0.2, [Value::from("John"), Value::Null])
                .build()
                .unwrap(),
        );
        let mut w = SectionWriter::new();
        write_xrelation(&mut w, &rel);
        let bytes = w.into_bytes();
        let mut r = SectionReader::new(&bytes, "test relation");
        let back = read_xrelation(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, rel);
        assert_eq!(back.xtuples()[0].label(), Some("t32"));
    }

    #[test]
    fn file_envelope_detects_corruption() {
        let mut w = SnapshotWriter::new();
        let mut s = SectionWriter::new();
        s.put_str("payload");
        w.section(7, s);
        let bytes = w.finish();

        // Pristine file opens and yields the section.
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let mut sec = r.section(7, "payload section").unwrap();
        assert_eq!(sec.take_str().unwrap(), "payload");
        sec.finish().unwrap();
        r.finish().unwrap();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            SnapshotReader::open(&bad),
            Err(SnapshotError::BadMagic)
        ));

        // Future version.
        let mut bad = bytes.clone();
        bad[8] = 0xfe;
        assert!(matches!(
            SnapshotReader::open(&bad),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));

        // Any single flipped payload bit breaks a checksum.
        for i in 12..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                SnapshotReader::open(&bad).is_err()
                    || SnapshotReader::open(&bad)
                        .and_then(|mut r| r.section(7, "payload section").map(|_| ()))
                        .is_err(),
                "flip at {i} went undetected"
            );
        }

        // Truncation at every length.
        for end in 0..bytes.len() {
            let trunc = &bytes[..end];
            assert!(
                SnapshotReader::open(trunc).is_err(),
                "truncation to {end} bytes went undetected"
            );
        }

        // Wrong tag.
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            r.section(8, "payload section"),
            Err(SnapshotError::BadSection {
                expected: 8,
                found: 7
            })
        ));
    }

    #[test]
    fn oversized_count_is_rejected_without_allocation() {
        // A forged u64::MAX count must fail fast (Malformed), not try to
        // allocate.
        let mut w = SectionWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SectionReader::new(&bytes, "forged count");
        assert!(matches!(
            r.take_len(1),
            Err(SnapshotError::Malformed { .. })
        ));
    }
}
