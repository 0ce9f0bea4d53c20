//! The clustering strategies entity resolution can run, selectable
//! end-to-end (pipeline, session, CLI `--strategy`, daemon `?strategy=`).

/// How the match graph is turned into an entity partition.
///
/// All three strategies are deterministic functions of the decided pairs:
/// nodes are visited in ascending row order, local-search moves require a
/// strict improvement with deterministic tie-breaks, so the output is
/// byte-stable across thread counts and shard splits (whenever the
/// underlying decisions are — see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterStrategy {
    /// Transitive closure of Match edges (union-find). The baseline: any
    /// chain of matches merges, however many NonMatch verdicts disagree.
    Components,
    /// Ailon-style greedy pivot correlation clustering: visit rows in
    /// ascending order; each still-unassigned row becomes a pivot and
    /// absorbs its unassigned positive neighbors. Chains *through* an
    /// assigned row no longer merge, which already breaks many
    /// inconsistent triangles.
    CorrelationGreedy,
    /// [`CorrelationGreedy`](Self::CorrelationGreedy) followed by a
    /// best-move local-search pass: each row may move to the neighboring
    /// cluster (or a fresh singleton) that strictly improves its net
    /// agreement weight `Σ w⁺(in-cluster matches) − Σ w⁻(in-cluster
    /// non-matches)`, repeated to a fixed point (bounded rounds). This is
    /// the strategy that *repairs* inconsistent triangles by net edge
    /// weight.
    CorrelationRepaired,
}

impl ClusterStrategy {
    /// Every strategy.
    pub const ALL: [ClusterStrategy; 3] = [
        ClusterStrategy::Components,
        ClusterStrategy::CorrelationGreedy,
        ClusterStrategy::CorrelationRepaired,
    ];

    /// Stable kebab-case name (CLI `--strategy` values, daemon
    /// `?strategy=` values).
    pub const fn name(self) -> &'static str {
        match self {
            ClusterStrategy::Components => "components",
            ClusterStrategy::CorrelationGreedy => "correlation-greedy",
            ClusterStrategy::CorrelationRepaired => "correlation-repaired",
        }
    }

    /// Parse a [`name`](Self::name); `None` for anything else.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for ClusterStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in ClusterStrategy::ALL {
            assert_eq!(ClusterStrategy::from_name(s.name()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(ClusterStrategy::from_name("nope"), None);
    }
}
