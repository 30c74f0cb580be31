//! Error type for matrix operations.

use std::fmt;

/// Errors raised by matrix construction and numerical routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatError {
    /// Operand dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Human readable description of the mismatch.
        detail: String,
    },
    /// A block descriptor does not fit inside its parent matrix.
    OutOfBounds {
        /// Human readable description of the offending block.
        detail: String,
    },
    /// A numerical routine failed (e.g. rank-deficient least-squares system).
    Numerical {
        /// Human readable description of the failure.
        detail: String,
    },
}

impl fmt::Display for MatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatError::DimensionMismatch { detail } => {
                write!(f, "dimension mismatch: {detail}")
            }
            MatError::OutOfBounds { detail } => write!(f, "block out of bounds: {detail}"),
            MatError::Numerical { detail } => write!(f, "numerical failure: {detail}"),
        }
    }
}

impl std::error::Error for MatError {}

impl MatError {
    /// Convenience constructor for [`MatError::DimensionMismatch`].
    pub fn dims(detail: impl Into<String>) -> Self {
        MatError::DimensionMismatch {
            detail: detail.into(),
        }
    }

    /// Convenience constructor for [`MatError::OutOfBounds`].
    pub fn oob(detail: impl Into<String>) -> Self {
        MatError::OutOfBounds {
            detail: detail.into(),
        }
    }

    /// Convenience constructor for [`MatError::Numerical`].
    pub fn numerical(detail: impl Into<String>) -> Self {
        MatError::Numerical {
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_detail() {
        let e = MatError::dims("A is 3x4, B is 5x6");
        assert!(e.to_string().contains("3x4"));
        let e = MatError::oob("block 10x10 at (5,5) in 8x8");
        assert!(e.to_string().contains("8x8"));
        let e = MatError::numerical("singular");
        assert!(e.to_string().contains("singular"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&MatError::dims("x"));
    }
}
