//! Combination functions φ : \[0,1\]ⁿ → ℝ (Eq. 3 of the paper): collapse a
//! comparison vector into a single similarity degree.

use crate::error::DecisionError;

/// A combination function φ. Implementations taking weighted averages of a
/// comparison vector in `[0,1]ⁿ` are *normalized* (output in `[0,1]`,
/// suitable for knowledge-based techniques); others (e.g. matching weights)
/// are not.
pub trait CombinationFunction: Send + Sync {
    /// Collapse the comparison vector `c⃗`.
    fn combine(&self, c: &[f64]) -> f64;

    /// Whether the output is guaranteed to stay in `[0, 1]` for inputs in
    /// the unit hypercube.
    fn is_normalized(&self) -> bool {
        true
    }

    /// Short human-readable name.
    fn name(&self) -> &str {
        "phi"
    }
}

impl<T: CombinationFunction + ?Sized> CombinationFunction for &T {
    fn combine(&self, c: &[f64]) -> f64 {
        (**self).combine(c)
    }
    fn is_normalized(&self) -> bool {
        (**self).is_normalized()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<T: CombinationFunction + ?Sized> CombinationFunction for std::sync::Arc<T> {
    fn combine(&self, c: &[f64]) -> f64 {
        (**self).combine(c)
    }
    fn is_normalized(&self) -> bool {
        (**self).is_normalized()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Weighted sum `φ(c⃗) = Σ wᵢ·cᵢ`. With weights summing to 1 this is the
/// paper's running example `φ(c⃗) = 0.8·c₁ + 0.2·c₂` (Section IV-A).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedSum {
    weights: Vec<f64>,
}

impl WeightedSum {
    /// Weights as given (finite, non-negative, not all zero). Output is
    /// normalized iff the weights sum to ≤ 1.
    pub fn new<I: IntoIterator<Item = f64>>(weights: I) -> Result<Self, DecisionError> {
        let weights: Vec<f64> = weights.into_iter().collect();
        if weights.is_empty()
            || weights.iter().any(|w| !w.is_finite() || *w < 0.0)
            || weights.iter().sum::<f64>() == 0.0
        {
            return Err(DecisionError::InvalidWeights);
        }
        Ok(Self { weights })
    }

    /// Weights rescaled to sum to 1 (always normalized output).
    pub fn normalized<I: IntoIterator<Item = f64>>(weights: I) -> Result<Self, DecisionError> {
        let mut w = Self::new(weights)?;
        let total: f64 = w.weights.iter().sum();
        for x in &mut w.weights {
            *x /= total;
        }
        Ok(w)
    }

    /// Equal weights over `n` attributes (the arithmetic mean).
    pub fn mean(n: usize) -> Result<Self, DecisionError> {
        if n == 0 {
            return Err(DecisionError::InvalidWeights);
        }
        Self::new(std::iter::repeat_n(1.0 / n as f64, n))
    }

    /// The weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl CombinationFunction for WeightedSum {
    fn combine(&self, c: &[f64]) -> f64 {
        assert_eq!(c.len(), self.weights.len(), "comparison vector arity");
        self.weights.iter().zip(c).map(|(w, x)| w * x).sum()
    }

    fn is_normalized(&self) -> bool {
        self.weights.iter().sum::<f64>() <= 1.0 + 1e-12
    }

    fn name(&self) -> &str {
        "weighted-sum"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_weighted_sum() {
        // φ(c⃗) = 0.8·c₁ + 0.2·c₂ on c⃗ = (0.9, 53/90) → 377/450 ≈ 0.838.
        let phi = WeightedSum::new([0.8, 0.2]).unwrap();
        let sim = phi.combine(&[0.9, 53.0 / 90.0]);
        assert!((sim - 377.0 / 450.0).abs() < 1e-12);
        assert!((sim - 0.838).abs() < 1e-3); // the paper's rounded figure
        assert!(phi.is_normalized());
    }

    #[test]
    fn weighted_sum_validation() {
        assert!(WeightedSum::new(Vec::<f64>::new()).is_err());
        assert!(WeightedSum::new([0.5, -0.1]).is_err());
        assert!(WeightedSum::new([0.0, 0.0]).is_err());
        assert!(WeightedSum::new([f64::NAN]).is_err());
    }

    #[test]
    fn normalized_rescales() {
        let phi = WeightedSum::normalized([4.0, 1.0]).unwrap();
        assert!((phi.weights()[0] - 0.8).abs() < 1e-12);
        assert!(phi.is_normalized());
        let heavy = WeightedSum::new([4.0, 1.0]).unwrap();
        assert!(!heavy.is_normalized());
    }

    #[test]
    fn mean_combination() {
        let phi = WeightedSum::mean(4).unwrap();
        assert!((phi.combine(&[1.0, 0.0, 1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert!(WeightedSum::mean(0).is_err());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let phi = WeightedSum::new([1.0]).unwrap();
        let _ = phi.combine(&[0.5, 0.5]);
    }

    #[test]
    fn trait_objects_delegate() {
        let phi: Box<dyn CombinationFunction> = Box::new(WeightedSum::new([1.0]).unwrap());
        assert_eq!(phi.combine(&[0.7]), 0.7);
        let arc: std::sync::Arc<dyn CombinationFunction> =
            std::sync::Arc::new(WeightedSum::mean(2).unwrap());
        assert!((arc.combine(&[0.3, 0.6]) - 0.45).abs() < 1e-12);
        assert_eq!(arc.name(), "weighted-sum");
    }
}
