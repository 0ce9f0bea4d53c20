//! Lightweight identifiers for tuples across one or more source relations.

use std::fmt;

/// Identifies a source relation in a multi-source integration scenario
/// (e.g. ℛ3 and ℛ4 of the paper are two sources being consolidated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u16);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A stable handle to one (x-)tuple: source relation + row index.
///
/// Candidate pairs, executed-matching matrices (Fig. 12) and ground-truth
/// maps are all expressed over `TupleHandle`s, so intra-source *and*
/// inter-source matchings are representable (the paper's Section V example
/// applies SNM to ℛ34 = ℛ3 ∪ ℛ4 and counts both kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleHandle {
    /// The source relation.
    pub source: SourceId,
    /// Row index within the source.
    pub row: u32,
}

impl TupleHandle {
    /// A handle for row `row` of source `source`.
    pub fn new(source: u16, row: u32) -> Self {
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

/// An unordered pair of tuple handles, canonicalized so that
/// `(a, b) == (b, a)`. This is the unit the decision layer classifies and
/// the unit the reduction layer generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairHandle {
    /// Smaller handle (by `(source, row)` order).
    pub a: TupleHandle,
    /// Larger handle.
    pub b: TupleHandle,
}

impl PairHandle {
    /// Canonicalize a pair; returns `None` for a self-pair, which is
    /// meaningless in duplicate detection (the paper's sorting-alternatives
    /// method explicitly skips them).
    pub fn new(x: TupleHandle, y: TupleHandle) -> Option<Self> {
        use std::cmp::Ordering;
        match x.cmp(&y) {
            Ordering::Less => Some(Self { a: x, b: y }),
            Ordering::Greater => Some(Self { a: y, b: x }),
            Ordering::Equal => None,
        }
    }

    /// Whether the pair crosses two different sources.
    pub fn is_intersource(&self) -> bool {
        self.a.source != self.b.source
    }
}

impl fmt::Display for PairHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_canonical() {
        let t1 = TupleHandle::new(0, 5);
        let t2 = TupleHandle::new(1, 2);
        let p1 = PairHandle::new(t1, t2).unwrap();
        let p2 = PairHandle::new(t2, t1).unwrap();
        assert_eq!(p1, p2);
        assert!(p1.a < p1.b);
    }

    #[test]
    fn self_pair_rejected() {
        let t = TupleHandle::new(3, 3);
        assert!(PairHandle::new(t, t).is_none());
    }

    #[test]
    fn intersource_detection() {
        let same = PairHandle::new(TupleHandle::new(0, 1), TupleHandle::new(0, 2)).unwrap();
        let cross = PairHandle::new(TupleHandle::new(0, 1), TupleHandle::new(1, 1)).unwrap();
        assert!(!same.is_intersource());
        assert!(cross.is_intersource());
    }

    #[test]
    fn display_formats() {
        let t = TupleHandle::new(3, 2);
        assert_eq!(t.to_string(), "R3[2]");
        let p = PairHandle::new(TupleHandle::new(0, 1), TupleHandle::new(1, 0)).unwrap();
        assert_eq!(p.to_string(), "(R0[1], R1[0])");
    }
}
