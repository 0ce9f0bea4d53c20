//! Verification metrics for duplicate detection (Section III-E of Panse et
//! al., ICDE 2010): *"the effectiveness of the applied identification is
//! checked in terms of recall, precision, false negative percentage, false
//! positive percentage and F₁-measure"* — plus the candidate-set metrics
//! (pairs completeness, reduction ratio) needed to evaluate search-space
//! reduction, and plain-text report tables.
//!
//! # Example
//!
//! ```
//! use std::collections::HashSet;
//! use probdedup_eval::{ConfusionCounts, EffectivenessMetrics};
//!
//! let predicted: HashSet<(usize, usize)> = [(0, 1), (2, 3)].into();
//! let truth: HashSet<(usize, usize)> = [(0, 1), (1, 4)].into();
//! let counts = ConfusionCounts::from_pair_sets(&predicted, &truth, 5);
//! assert_eq!((counts.tp, counts.fp, counts.fn_), (1, 1, 1));
//! let m = EffectivenessMetrics::from_counts(&counts);
//! assert!((m.precision - 0.5).abs() < 1e-12);
//! assert!((m.recall - 0.5).abs() < 1e-12);
//! assert!((m.f1 - 0.5).abs() < 1e-12);
//! ```

pub mod cluster_metrics;
pub mod confusion;
pub mod metrics;
pub mod reduction_metrics;
pub mod report;

pub use cluster_metrics::{ClusterMetrics, SizeHistogram};
pub use confusion::ConfusionCounts;
pub use metrics::EffectivenessMetrics;
pub use reduction_metrics::ReductionMetrics;
pub use report::Table;
