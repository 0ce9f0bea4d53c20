//! The [`Value`] type: one element of the extended domain `D̂ = D ∪ {⊥}`.

use std::fmt;

/// A concrete attribute value, including the paper's explicit
/// *non-existence* marker `⊥` ([`Value::Null`]): the statement that the
/// corresponding property does not exist for the described object (distinct
/// from "unknown").
///
/// `Value` implements `Eq`, `Ord` and `Hash` for *all* variants — floats are
/// compared by their canonicalized bit pattern (`NaN`s are unified, `-0.0`
/// equals `0.0`), which gives the total order needed for sorting keys,
/// blocking and deduplication of distribution supports.
#[derive(Debug, Clone)]
pub enum Value {
    /// Non-existence, written `⊥` in the paper.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Real(f64),
    /// A UTF-8 string.
    Text(String),
}

impl Value {
    /// Whether this is the non-existence marker `⊥`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A reference to the string content, if this is a text value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content as `f64`, if this is an `Int` or `Real`.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// The boolean content, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render the value for key construction and display. `⊥` renders as the
    /// empty string so that sorting keys derived from non-existent values
    /// sort first (mirroring Fig. 13, where `t43`'s `Joh` key comes from a
    /// `⊥` job).
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            // Render through the same canonicalization as Eq/Hash
            // (`-0.0` ⇒ `0.0`, one NaN), so equal values always render
            // equally — interned keys resolve symbols to one
            // representative per equality class and rely on this.
            Value::Real(r) => format!("{}", f64::from_bits(Self::real_bits(*r))),
            Value::Text(s) => s.clone(),
        }
    }

    /// Canonical bits for float hashing/equality: NaNs unified, `-0.0 → 0.0`.
    fn real_bits(r: f64) -> u64 {
        if r.is_nan() {
            f64::NAN.to_bits()
        } else if r == 0.0 {
            0.0_f64.to_bits()
        } else {
            r.to_bits()
        }
    }

    /// Discriminant rank used for the cross-variant total order.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Real(_) => 3,
            Value::Text(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => Self::real_bits(*a) == Self::real_bits(*b),
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u8(self.rank());
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Real(r) => Self::real_bits(*r).hash(state),
            Value::Text(s) => s.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => {
                // total_cmp after canonicalization keeps Eq/Ord consistent.
                f64::from_bits(Self::real_bits(*a)).total_cmp(&f64::from_bits(Self::real_bits(*b)))
            }
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "⊥"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(r: f64) -> Self {
        Value::Real(r)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_values_render_equally() {
        // Eq unifies -0.0/0.0 and NaNs; render must follow, or equal
        // values would produce different sorting/blocking keys.
        assert_eq!(Value::Real(0.0), Value::Real(-0.0));
        assert_eq!(Value::Real(-0.0).render(), Value::Real(0.0).render());
        assert_eq!(Value::Real(-0.0).render(), "0");
        assert_eq!(
            Value::Real(f64::NAN).render(),
            Value::Real(-f64::NAN).render()
        );
    }

    #[test]
    fn null_identity() {
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Null.to_string(), "⊥");
        assert_eq!(Value::Null.render(), "");
    }

    #[test]
    fn float_equality_canonicalized() {
        assert_eq!(Value::Real(f64::NAN), Value::Real(f64::NAN));
        assert_eq!(Value::Real(0.0), Value::Real(-0.0));
        assert_ne!(Value::Real(1.0), Value::Real(2.0));
        assert_eq!(hash_of(&Value::Real(0.0)), hash_of(&Value::Real(-0.0)));
        assert_eq!(
            hash_of(&Value::Real(f64::NAN)),
            hash_of(&Value::Real(f64::NAN))
        );
    }

    #[test]
    fn cross_variant_inequality() {
        assert_ne!(Value::Int(1), Value::Real(1.0));
        assert_ne!(Value::Text("1".into()), Value::Int(1));
        assert_ne!(Value::Null, Value::Text(String::new()));
    }

    #[test]
    fn total_order_is_consistent() {
        let mut vals = [
            Value::Text("b".into()),
            Value::Int(5),
            Value::Null,
            Value::Real(2.5),
            Value::Bool(true),
            Value::Text("a".into()),
            Value::Int(-1),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Int(-1));
        assert_eq!(vals[3], Value::Int(5));
        assert_eq!(vals[4], Value::Real(2.5));
        assert_eq!(vals[5], Value::Text("a".into()));
        assert_eq!(vals[6], Value::Text("b".into()));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from("Tim"), Value::Text("Tim".into()));
        assert_eq!(Value::from(3_i32), Value::Int(3));
        assert_eq!(Value::from(3_i64), Value::Int(3));
        assert_eq!(Value::from(2.5), Value::Real(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Value::Int(3).as_text(), None);
        assert_eq!(Value::Int(3).as_number(), Some(3.0));
        assert_eq!(Value::Real(2.5).as_number(), Some(2.5));
        assert_eq!(Value::Text("x".into()).as_number(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_bool(), None);
    }

    #[test]
    fn render_for_keys() {
        assert_eq!(Value::Text("John".into()).render(), "John");
        assert_eq!(Value::Int(42).render(), "42");
        assert_eq!(Value::Bool(false).render(), "false");
    }
}
