use std::error::Error;
use std::fmt;

/// Errors produced by Boolean-function operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LogicError {
    /// A variable count outside `0..=MAX_VARS` was requested.
    TooManyVars(usize),
    /// A variable index was out of range for the function's arity.
    VarOutOfRange {
        /// The offending variable index.
        var: usize,
        /// The function's number of variables.
        n_vars: usize,
    },
    /// Two functions of different arity were combined.
    ArityMismatch(usize, usize),
    /// A permutation was malformed (wrong length or not a bijection).
    BadPermutation,
    /// A lookup table had a length that is not a power of two.
    BadTableLength(usize),
    /// A lookup table asked for more outputs than its 16-bit rows hold.
    TooManyOutputs(usize),
}

impl fmt::Display for LogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicError::TooManyVars(n) => {
                write!(f, "requested {n} variables, maximum is {}", crate::MAX_VARS)
            }
            LogicError::VarOutOfRange { var, n_vars } => {
                write!(
                    f,
                    "variable {var} out of range for {n_vars}-variable function"
                )
            }
            LogicError::ArityMismatch(a, b) => {
                write!(f, "arity mismatch: {a} vs {b} variables")
            }
            LogicError::BadPermutation => write!(f, "permutation is not a bijection"),
            LogicError::BadTableLength(n) => {
                write!(f, "lookup table length {n} is not a power of two")
            }
            LogicError::TooManyOutputs(n) => {
                write!(
                    f,
                    "requested {n} outputs, lookup-table rows hold at most 16"
                )
            }
        }
    }
}

impl Error for LogicError {}
