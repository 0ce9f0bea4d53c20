//! Numeric similarity kernels, for attributes such as ages, years or
//! magnitudes. These operate on `f64` directly; the matching crate routes
//! numeric [`Value`](../probdedup_model/value/enum.Value.html)s here.

/// A normalized comparison function on numbers (analogue of
/// [`crate::StringComparator`] for numeric domains).
pub trait NumericComparator: Send + Sync {
    /// Similarity of `a` and `b` in `[0, 1]`.
    fn similarity(&self, a: f64, b: f64) -> f64;

    /// Short human-readable name.
    fn name(&self) -> &str {
        "numeric"
    }
}

/// Absolute-difference kernel: `max(0, 1 − |a − b| / scale)`.
///
/// With `scale = 10.0`, ages 30 and 35 score 0.5; ages differing by ≥ 10
/// years score 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsoluteScaled {
    scale: f64,
}

impl AbsoluteScaled {
    /// A kernel that decays linearly to 0 at difference `scale`.
    /// `scale` must be positive; non-positive values are replaced by 1.0.
    pub fn new(scale: f64) -> Self {
        Self {
            scale: if scale > 0.0 { scale } else { 1.0 },
        }
    }
}

impl NumericComparator for AbsoluteScaled {
    fn similarity(&self, a: f64, b: f64) -> f64 {
        if a == b {
            return 1.0; // covers ±∞ equal cases
        }
        if !a.is_finite() || !b.is_finite() {
            return 0.0;
        }
        (1.0 - (a - b).abs() / self.scale).max(0.0)
    }

    fn name(&self) -> &str {
        "abs-scaled"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_scaled_values() {
        let k = AbsoluteScaled::new(10.0);
        assert_eq!(k.similarity(30.0, 30.0), 1.0);
        assert!((k.similarity(30.0, 35.0) - 0.5).abs() < 1e-12);
        assert_eq!(k.similarity(30.0, 45.0), 0.0);
        assert_eq!(k.similarity(45.0, 30.0), 0.0);
    }

    #[test]
    fn absolute_scaled_guards() {
        let k = AbsoluteScaled::new(-3.0); // replaced by 1.0
        assert_eq!(k.similarity(1.0, 2.0), 0.0);
        assert_eq!(k.similarity(1.0, 1.5), 0.5);
        assert_eq!(k.similarity(f64::NAN, 1.0), 0.0);
        assert_eq!(k.similarity(f64::INFINITY, f64::INFINITY), 1.0);
        assert_eq!(k.similarity(f64::INFINITY, 1.0), 0.0);
    }

    #[test]
    fn range_and_symmetry() {
        let k: &dyn NumericComparator = &AbsoluteScaled::new(7.0);
        for (a, b) in [(1.0, 2.0), (-3.0, 3.0), (0.0, 0.0), (1e9, 1e9 + 1.0)] {
            let s = k.similarity(a, b);
            assert!((0.0..=1.0).contains(&s), "{} out of range: {s}", k.name());
            assert!((s - k.similarity(b, a)).abs() < 1e-12);
        }
    }
}
