use std::fmt;

/// Errors produced by Galois-field and Reed–Solomon operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GfError {
    /// Division (or inversion) of the zero element was attempted.
    DivisionByZero,
    /// A matrix operation received dimensions that do not fit the operation.
    DimensionMismatch {
        /// Textual description of the expected shape.
        expected: String,
        /// Textual description of the shape that was supplied.
        found: String,
    },
    /// The matrix is singular and cannot be inverted.
    SingularMatrix,
    /// A Reed–Solomon codec was constructed with invalid parameters.
    InvalidShardCounts {
        /// Number of data shards requested.
        data: usize,
        /// Number of parity shards requested.
        parity: usize,
    },
    /// Encode/decode was given the wrong number of shards.
    WrongShardCount {
        /// Number of shards expected by the codec.
        expected: usize,
        /// Number of shards supplied.
        found: usize,
    },
    /// Shards passed to a single call did not all have the same length.
    UnequalShardLengths,
    /// Interpolation was requested through points with duplicate x-coordinates.
    DuplicateInterpolationPoint,
}

impl fmt::Display for GfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GfError::DivisionByZero => write!(f, "division by zero in GF(2^8)"),
            GfError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            GfError::SingularMatrix => write!(f, "matrix is singular over GF(2^8)"),
            GfError::InvalidShardCounts { data, parity } => write!(
                f,
                "invalid Reed-Solomon parameters: {data} data and {parity} parity shards"
            ),
            GfError::WrongShardCount { expected, found } => {
                write!(f, "expected {expected} shards, found {found}")
            }
            GfError::UnequalShardLengths => write!(f, "shards have unequal lengths"),
            GfError::DuplicateInterpolationPoint => {
                write!(f, "duplicate x-coordinate in interpolation points")
            }
        }
    }
}

impl std::error::Error for GfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errors = vec![
            GfError::DivisionByZero,
            GfError::SingularMatrix,
            GfError::UnequalShardLengths,
            GfError::DuplicateInterpolationPoint,
            GfError::InvalidShardCounts { data: 0, parity: 1 },
            GfError::WrongShardCount {
                expected: 3,
                found: 2,
            },
            GfError::DimensionMismatch {
                expected: "3x3".into(),
                found: "2x3".into(),
            },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GfError>();
    }
}
