//! The unified error type of the flow API.

use std::error::Error;
use std::fmt;

/// The single error type of the `mvf` crate, consolidating every failure
/// the three-phase flow can surface: merged-circuit construction
/// ([`mvf_merge::MergeError`]), technology mapping
/// ([`mvf_techmap::MapError`]), key-gate insertion
/// ([`mvf_obfuscate::LockError`], locking flows only) and final
/// exhaustive validation ([`mvf_sim::ValidationError`]).
///
/// All variants are values the lower layers produced; `MvfError`
/// implements [`Error::source`] so callers can walk to the original
/// cause.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum MvfError {
    /// Merged-circuit construction failed (Phase I).
    Merge(mvf_merge::MergeError),
    /// Technology mapping failed (Phase II fitness or Phase III).
    Map(mvf_techmap::MapError),
    /// Key-gate insertion failed (Phase III of a locking flow).
    Lock(mvf_obfuscate::LockError),
    /// Final validation failed — this would be a flow bug.
    Validation(mvf_sim::ValidationError),
}

impl fmt::Display for MvfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MvfError::Merge(e) => write!(f, "merge: {e}"),
            MvfError::Map(e) => write!(f, "map: {e}"),
            MvfError::Lock(e) => write!(f, "lock: {e}"),
            MvfError::Validation(e) => write!(f, "validation: {e}"),
        }
    }
}

impl Error for MvfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MvfError::Merge(e) => Some(e),
            MvfError::Map(e) => Some(e),
            MvfError::Lock(e) => Some(e),
            MvfError::Validation(e) => Some(e),
        }
    }
}

impl From<mvf_merge::MergeError> for MvfError {
    fn from(e: mvf_merge::MergeError) -> Self {
        MvfError::Merge(e)
    }
}

impl From<mvf_techmap::MapError> for MvfError {
    fn from(e: mvf_techmap::MapError) -> Self {
        MvfError::Map(e)
    }
}

impl From<mvf_obfuscate::LockError> for MvfError {
    fn from(e: mvf_obfuscate::LockError) -> Self {
        MvfError::Lock(e)
    }
}

impl From<mvf_sim::ValidationError> for MvfError {
    fn from(e: mvf_sim::ValidationError) -> Self {
        MvfError::Validation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_cover_all_variants() {
        let merge: MvfError = mvf_merge::MergeError::NoFunctions.into();
        assert!(merge.to_string().starts_with("merge:"));
        assert!(merge.source().is_some());

        let map: MvfError = mvf_techmap::MapError::BadSubject("x".into()).into();
        assert!(map.to_string().starts_with("map:"));
        assert!(map.source().is_some());

        let lock: MvfError = mvf_obfuscate::LockError::MissingKeyCell("XKEY").into();
        assert!(lock.to_string().starts_with("lock:"));
        assert!(lock.source().is_some());

        let val: MvfError = mvf_sim::ValidationError::ShapeMismatch("y".into()).into();
        assert!(val.to_string().starts_with("validation:"));
        assert!(val.source().is_some());
    }
}
