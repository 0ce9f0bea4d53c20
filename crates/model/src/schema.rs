//! Relation schemas: attribute names and types.

use std::fmt;
use std::sync::Arc;

/// Declared type of an attribute. Used by the matching layer to route values
/// to string vs numeric comparators, and by the data generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AttrType {
    /// Free text (names, jobs, …).
    #[default]
    Text,
    /// Integer-valued (ages, years).
    Int,
    /// Real-valued (magnitudes, coordinates).
    Real,
    /// Boolean flags.
    Bool,
}

/// One attribute definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDef {
    /// Attribute name (unique within a schema).
    pub name: String,
    /// Declared type.
    pub ty: AttrType,
}

/// An ordered list of attribute definitions, shared cheaply between
/// relations and tuples via `Arc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attrs: Arc<Vec<AttrDef>>,
}

impl Schema {
    /// A schema of text attributes with the given names.
    ///
    /// ```
    /// use probdedup_model::schema::Schema;
    /// let s = Schema::new(["name", "job"]);
    /// assert_eq!(s.arity(), 2);
    /// ```
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Self {
            attrs: Arc::new(
                names
                    .into_iter()
                    .map(|n| AttrDef {
                        name: n.as_ref().to_string(),
                        ty: AttrType::Text,
                    })
                    .collect(),
            ),
        }
    }

    /// A schema with explicit types.
    pub fn with_types<I, S>(defs: I) -> Self
    where
        I: IntoIterator<Item = (S, AttrType)>,
        S: AsRef<str>,
    {
        Self {
            attrs: Arc::new(
                defs.into_iter()
                    .map(|(n, ty)| AttrDef {
                        name: n.as_ref().to_string(),
                        ty,
                    })
                    .collect(),
            ),
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The attribute definitions in order.
    pub fn attrs(&self) -> &[AttrDef] {
        &self.attrs
    }

    /// Index of the attribute named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    /// Name of attribute `i` (panics if out of range).
    pub fn name_of(&self, i: usize) -> &str {
        &self.attrs[i].name
    }

    /// Type of attribute `i` (panics if out of range).
    pub fn type_of(&self, i: usize) -> AttrType {
        self.attrs[i].ty
    }

    /// Whether two schemas are structurally compatible (same arity and
    /// types; names may differ after schema matching/mapping, which the
    /// paper treats as an upstream integration step).
    pub fn compatible_with(&self, other: &Schema) -> bool {
        self.arity() == other.arity()
            && self
                .attrs
                .iter()
                .zip(other.attrs.iter())
                .all(|(a, b)| a.ty == b.ty)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {:?}", a.name, a.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_defaults_to_text() {
        let s = Schema::new(["name", "job"]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.type_of(0), AttrType::Text);
        assert_eq!(s.name_of(1), "job");
    }

    #[test]
    fn with_types() {
        let s = Schema::with_types([("name", AttrType::Text), ("age", AttrType::Int)]);
        assert_eq!(s.type_of(1), AttrType::Int);
        assert_eq!(s.index_of("age"), Some(1));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn compatibility_ignores_names() {
        let a = Schema::with_types([("name", AttrType::Text), ("age", AttrType::Int)]);
        let b = Schema::with_types([("nom", AttrType::Text), ("années", AttrType::Int)]);
        let c = Schema::with_types([("name", AttrType::Text), ("age", AttrType::Real)]);
        assert!(a.compatible_with(&b));
        assert!(!a.compatible_with(&c));
        assert!(!a.compatible_with(&Schema::new(["one"])));
    }

    #[test]
    fn display() {
        let s = Schema::new(["x"]);
        assert_eq!(s.to_string(), "(x: Text)");
    }

    #[test]
    fn clone_shares_attrs() {
        let s = Schema::new(["a", "b", "c"]);
        let t = s.clone();
        assert!(Arc::ptr_eq(&s.attrs, &t.attrs));
    }
}
