//! Engine errors.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use indexes::IndexError;
use oplog::LogError;
use pmalloc::AllocError;

/// Errors returned by the FlatStore engine.
///
/// The enum is `#[non_exhaustive]`: future engine versions may add
/// variants, so match with a wildcard arm. Corruption errors carry their
/// PM-layer cause, reachable through [`std::error::Error::source`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum StoreError {
    /// PM space (chunks or index arena) is exhausted.
    OutOfSpace,
    /// The key `u64::MAX` is reserved by the volatile index.
    ReservedKey,
    /// Empty values are not supported (the log-entry size field encodes
    /// 1..=256, and the paper's workloads have no empty items).
    EmptyValue,
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The persistent image is not a FlatStore region or is from an
    /// incompatible layout version.
    BadImage(String),
    /// The requested operation needs an ordered index (FlatStore-M/-FF).
    RangeUnsupported,
    /// The ticket is not pending on this session (already harvested, or
    /// from another session).
    UnknownTicket,
    /// The configuration failed validation (see [`Config::builder`]).
    ///
    /// [`Config::builder`]: crate::Config::builder
    InvalidConfig(String),
    /// The group this operation reached no longer owns the key's slot —
    /// the cluster's routing table changed under the client. Carries the
    /// routing epoch at the time of refusal; a client whose cached table
    /// is older must refresh its routes and retry.
    WrongGroup {
        /// The refusing node's current routing epoch.
        epoch: u64,
    },
    /// Internal invariant violation (corruption). `source` carries the
    /// PM-layer cause when one exists.
    Corrupt {
        /// What was found corrupted.
        detail: String,
        /// The underlying PM-layer error, if any.
        source: Option<Arc<dyn Error + Send + Sync + 'static>>,
    },
}

impl StoreError {
    /// A corruption error with no underlying cause.
    ///
    /// Constructing one is treated as a crash: every live flight-recorder
    /// registry dumps to `FLATSTORE_CRASH_DIR` (when set) so the last
    /// operations before the corruption are preserved.
    pub fn corrupt(detail: impl Into<String>) -> StoreError {
        let detail = detail.into();
        crate::flight::dump_all(&format!("corrupt: {detail}"));
        StoreError::Corrupt {
            detail,
            source: None,
        }
    }

    /// A corruption error caused by a lower-layer error (kept as the
    /// [`std::error::Error::source`] chain). Dumps the flight recorder
    /// like [`corrupt`](Self::corrupt).
    pub fn corrupt_with(
        detail: impl Into<String>,
        source: impl Error + Send + Sync + 'static,
    ) -> StoreError {
        let detail = detail.into();
        crate::flight::dump_all(&format!("corrupt: {detail}"));
        StoreError::Corrupt {
            detail,
            source: Some(Arc::new(source)),
        }
    }
}

/// Equality ignores the `source` chain of [`StoreError::Corrupt`] — two
/// corruption reports with the same detail are the same error.
impl PartialEq for StoreError {
    fn eq(&self, other: &Self) -> bool {
        use StoreError::*;
        match (self, other) {
            (OutOfSpace, OutOfSpace)
            | (ReservedKey, ReservedKey)
            | (EmptyValue, EmptyValue)
            | (ShuttingDown, ShuttingDown)
            | (RangeUnsupported, RangeUnsupported)
            | (UnknownTicket, UnknownTicket) => true,
            (BadImage(a), BadImage(b)) | (InvalidConfig(a), InvalidConfig(b)) => a == b,
            (WrongGroup { epoch: a }, WrongGroup { epoch: b }) => a == b,
            (Corrupt { detail: a, .. }, Corrupt { detail: b, .. }) => a == b,
            _ => false,
        }
    }
}

impl Eq for StoreError {}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::OutOfSpace => write!(f, "persistent memory exhausted"),
            StoreError::ReservedKey => write!(f, "key u64::MAX is reserved"),
            StoreError::EmptyValue => write!(f, "empty values are not supported"),
            StoreError::ShuttingDown => write!(f, "store is shutting down"),
            StoreError::BadImage(s) => write!(f, "bad persistent image: {s}"),
            StoreError::RangeUnsupported => {
                write!(f, "range scans need FlatStore-M or FlatStore-FF")
            }
            StoreError::UnknownTicket => write!(f, "ticket is not pending on this session"),
            StoreError::InvalidConfig(s) => write!(f, "invalid configuration: {s}"),
            StoreError::WrongGroup { epoch } => {
                write!(f, "slot moved to another group (routing epoch {epoch})")
            }
            StoreError::Corrupt { detail, .. } => write!(f, "corruption detected: {detail}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Corrupt {
                source: Some(s), ..
            } => Some(&**s as &(dyn Error + 'static)),
            _ => None,
        }
    }
}

impl From<AllocError> for StoreError {
    fn from(e: AllocError) -> Self {
        match e {
            AllocError::OutOfMemory { .. } => StoreError::OutOfSpace,
            other => StoreError::corrupt_with(format!("allocator: {other}"), other),
        }
    }
}

impl From<LogError> for StoreError {
    fn from(e: LogError) -> Self {
        match e {
            LogError::OutOfSpace => StoreError::OutOfSpace,
            other => StoreError::corrupt_with(format!("log: {other}"), other),
        }
    }
}

impl From<IndexError> for StoreError {
    fn from(e: IndexError) -> Self {
        match e {
            IndexError::OutOfSpace => StoreError::OutOfSpace,
            IndexError::ReservedKey => StoreError::ReservedKey,
            other => StoreError::corrupt_with(format!("index: {other}"), other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_carries_its_source() {
        let cause = LogError::Corrupt { addr: 0x40 };
        let err = StoreError::from(cause.clone());
        let StoreError::Corrupt { ref detail, .. } = err else {
            panic!("expected Corrupt, got {err:?}");
        };
        assert!(detail.starts_with("log: "), "detail {detail:?}");
        let source = err.source().expect("source chain");
        assert_eq!(source.to_string(), cause.to_string());
    }

    #[test]
    fn out_of_space_maps_without_source() {
        let err = StoreError::from(LogError::OutOfSpace);
        assert_eq!(err, StoreError::OutOfSpace);
        assert!(err.source().is_none());
    }

    #[test]
    fn equality_ignores_source() {
        let a = StoreError::corrupt("torn entry");
        let b = StoreError::corrupt_with("torn entry", LogError::Corrupt { addr: 0x40 });
        assert_eq!(a, b);
        assert_ne!(a, StoreError::corrupt("other"));
    }
}
