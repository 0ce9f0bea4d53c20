//! Error type for model construction and world enumeration.

use std::fmt;

/// Errors raised while building or manipulating probabilistic data.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A probability was outside `[0, 1]` (or NaN).
    InvalidProbability {
        /// The offending value.
        value: f64,
        /// What the probability was attached to.
        context: &'static str,
    },
    /// The probabilities of a distribution summed to more than 1.
    MassExceeded {
        /// The offending sum.
        sum: f64,
        /// What the distribution describes.
        context: &'static str,
    },
    /// A tuple's arity did not match its schema.
    SchemaMismatch {
        /// Number of attributes the schema defines.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// An attribute name was not found in the schema.
    UnknownAttribute(String),
    /// Attempted to union / compare relations with different schemas.
    IncompatibleSchemas,
    /// A pattern value (e.g. `mu*`) matched nothing in its domain.
    PatternNoMatch {
        /// The pattern as written.
        pattern: String,
        /// The domain searched.
        domain: String,
    },
    /// An x-tuple must contain at least one alternative.
    EmptyXTuple,
    /// A value distribution must contain at least ⊥ or one alternative —
    /// raised when explicit construction yields literally nothing.
    EmptyDistribution,
    /// Possible-world enumeration would exceed the configured limit.
    WorldLimitExceeded {
        /// Number of worlds that full enumeration would produce.
        count: u128,
        /// The configured limit.
        limit: u128,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidProbability { value, context } => {
                write!(
                    f,
                    "invalid probability {value} for {context}: must be in [0, 1]"
                )
            }
            Self::MassExceeded { sum, context } => {
                write!(f, "probability mass {sum} exceeds 1 for {context}")
            }
            Self::SchemaMismatch { expected, got } => {
                write!(
                    f,
                    "schema mismatch: expected {expected} attributes, got {got}"
                )
            }
            Self::UnknownAttribute(name) => write!(f, "unknown attribute {name:?}"),
            Self::IncompatibleSchemas => write!(f, "relations have incompatible schemas"),
            Self::PatternNoMatch { pattern, domain } => {
                write!(
                    f,
                    "pattern {pattern:?} matches nothing in domain {domain:?}"
                )
            }
            Self::EmptyXTuple => write!(f, "x-tuple must have at least one alternative"),
            Self::EmptyDistribution => write!(f, "distribution must not be empty"),
            Self::WorldLimitExceeded { count, limit } => {
                write!(
                    f,
                    "possible-world enumeration of {count} worlds exceeds limit {limit}"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Validate that `p` is a probability in `[0, 1]`.
pub(crate) fn check_probability(p: f64, context: &'static str) -> Result<f64, ModelError> {
    if p.is_nan() || !(0.0..=1.0 + 1e-9).contains(&p) {
        return Err(ModelError::InvalidProbability { value: p, context });
    }
    Ok(p.min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(ModelError, &str)> = vec![
            (
                ModelError::InvalidProbability {
                    value: -0.2,
                    context: "tuple",
                },
                "invalid probability",
            ),
            (
                ModelError::MassExceeded {
                    sum: 1.4,
                    context: "pvalue",
                },
                "exceeds 1",
            ),
            (
                ModelError::SchemaMismatch {
                    expected: 2,
                    got: 3,
                },
                "schema mismatch",
            ),
            (
                ModelError::UnknownAttribute("x".into()),
                "unknown attribute",
            ),
            (ModelError::IncompatibleSchemas, "incompatible"),
            (
                ModelError::PatternNoMatch {
                    pattern: "mu*".into(),
                    domain: "jobs".into(),
                },
                "matches nothing",
            ),
            (ModelError::EmptyXTuple, "at least one alternative"),
            (ModelError::EmptyDistribution, "must not be empty"),
            (
                ModelError::WorldLimitExceeded {
                    count: 10,
                    limit: 5,
                },
                "exceeds limit",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }

    #[test]
    fn check_probability_accepts_unit_interval() {
        assert_eq!(check_probability(0.0, "t").unwrap(), 0.0);
        assert_eq!(check_probability(1.0, "t").unwrap(), 1.0);
        assert_eq!(check_probability(0.5, "t").unwrap(), 0.5);
        // Tolerates tiny floating-point overshoot, clamping to 1.
        assert_eq!(check_probability(1.0 + 1e-12, "t").unwrap(), 1.0);
    }

    #[test]
    fn check_probability_rejects_out_of_range() {
        assert!(check_probability(-0.1, "t").is_err());
        assert!(check_probability(1.1, "t").is_err());
        assert!(check_probability(f64::NAN, "t").is_err());
        assert!(check_probability(f64::INFINITY, "t").is_err());
    }
}
