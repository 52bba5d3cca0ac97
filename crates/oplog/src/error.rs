//! Operation-log errors.

use std::error::Error;
use std::fmt;

use pmalloc::AllocError;

/// Errors returned by the operation log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// A value too large (or empty) for inline embedding was passed where an
    /// inline entry was required.
    ValueTooLarge {
        /// The offending value length.
        len: usize,
    },
    /// No free chunk is available to extend the log.
    OutOfSpace,
    /// A batch larger than a chunk's usable space was submitted.
    BatchTooLarge {
        /// Encoded size of the batch.
        bytes: usize,
    },
    /// Undecodable bytes were found where an entry was expected.
    Corrupt {
        /// Address of the corruption.
        addr: u64,
    },
    /// An entry's CRC-8 did not match its bytes: a media error after they
    /// were persisted. The read paths and the cleaner report it; recovery's
    /// header-only scan does not check the CRC.
    ChecksumMismatch {
        /// Address of the entry.
        addr: u64,
    },
    /// The chunk allocator rejected an operation.
    Alloc(AllocError),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::ValueTooLarge { len } => {
                write!(f, "value of {len} bytes cannot be embedded in a log entry")
            }
            LogError::OutOfSpace => write!(f, "no free PM chunk to extend the log"),
            LogError::BatchTooLarge { bytes } => {
                write!(f, "batch of {bytes} bytes exceeds chunk capacity")
            }
            LogError::Corrupt { addr } => write!(f, "corrupt log entry at {addr:#x}"),
            LogError::ChecksumMismatch { addr } => {
                write!(f, "log entry checksum mismatch at {addr:#x}")
            }
            LogError::Alloc(e) => write!(f, "allocator error: {e}"),
        }
    }
}

impl Error for LogError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LogError::Alloc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AllocError> for LogError {
    fn from(e: AllocError) -> Self {
        LogError::Alloc(e)
    }
}
