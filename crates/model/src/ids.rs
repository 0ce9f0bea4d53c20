//! Lightweight identifiers for tuples across one or more source relations.

use std::fmt;

/// Identifies a source relation in a multi-source integration scenario
/// (e.g. ℛ3 and ℛ4 of the paper are two sources being consolidated).
/// Every ingested batch of a long-running session is a source, so the id
/// is as wide as a row index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A stable handle to one (x-)tuple: source relation + row index.
///
/// The pipeline's `DedupResult::handle` maps a row of the combined
/// relation back to one, so intra-source *and* inter-source matchings are
/// distinguishable (the paper's Section V example applies SNM to
/// ℛ34 = ℛ3 ∪ ℛ4 and counts both kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleHandle {
    /// The source relation.
    pub source: SourceId,
    /// Row index within the source.
    pub row: u32,
}

impl TupleHandle {
    /// A handle for row `row` of source `source`.
    pub fn new(source: u32, row: u32) -> Self {
        Self {
            source: SourceId(source),
            row,
        }
    }
}

impl fmt::Display for TupleHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.source, self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let t = TupleHandle::new(3, 2);
        assert_eq!(t.to_string(), "R3[2]");
    }
}
