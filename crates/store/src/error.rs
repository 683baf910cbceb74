//! The store's error type: every failure a disk-backed open/apply/checkpoint
//! can hit, including injected ones.

use std::fmt;
use std::path::PathBuf;
use xp_labelkit::dynamic::DynamicError;
use xp_labelkit::CodecError;
use xp_testkit::Injected;
use xp_xmltree::SnapshotError;

/// Any failure of the persistence layer.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure (or an injected one at an I/O site).
    Io {
        /// What the store was doing (`"read"`, `"write"`, `"fsync"`,
        /// `"rename"`, `"create"`, ...).
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error text.
        msg: String,
    },
    /// On-disk bytes failed a checksum or structural check. Recovery never
    /// guesses: corrupt non-tail data is reported, not repaired.
    Corrupt {
        /// The file that failed.
        path: PathBuf,
        /// What about it is wrong.
        what: String,
    },
    /// A payload was too large to frame: the frame length field is a `u32`,
    /// and encoding anything longer would silently truncate the length and
    /// checksum the wrong byte span. Writers reject this before touching
    /// the disk, so the on-disk state is unchanged.
    FrameTooLarge {
        /// The oversized payload's length in bytes.
        len: u64,
        /// The largest frameable payload
        /// ([`crate::frame::MAX_FRAME_PAYLOAD`]).
        max: u64,
    },
    /// A frame payload failed to decode (varint/label/mutation codec).
    Codec(CodecError),
    /// A persisted tree snapshot failed arena validation.
    Snapshot(SnapshotError),
    /// The prime scheme rejected reassembled parts (labels and SC table
    /// disagree, unknown self-labels, ...).
    Scheme(xp_prime::Error),
    /// A live mutation failed in the labeling scheme; the WAL frame is
    /// already durable, and replay will fail it identically.
    Dynamic(DynamicError),
    /// `add_document` was given a URI the store already holds.
    DuplicateUri(String),
    /// An operation named a URI the store does not hold.
    UnknownUri(String),
    /// The directory exists but does not look like a store (no manifest).
    NotAStore(PathBuf),
    /// A non-I/O fault site fired ([`xp_testkit::fault`]).
    FaultInjected(Injected),
    /// The WAL could not be cut back — rolling back a failed append, or
    /// truncating after a checkpoint — so it may hold a frame the store
    /// never applied, or its write position is unknown. The handle refuses
    /// every later append; reopening the store recovers.
    WalPoisoned {
        /// The log file.
        path: PathBuf,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, msg } => {
                write!(f, "{op} failed on {}: {msg}", path.display())
            }
            StoreError::Corrupt { path, what } => {
                write!(f, "{} is corrupt: {what}", path.display())
            }
            StoreError::FrameTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds the frame limit of {max} bytes")
            }
            StoreError::Codec(e) => write!(f, "frame payload failed to decode: {e}"),
            StoreError::Snapshot(e) => write!(f, "persisted tree snapshot is invalid: {e}"),
            StoreError::Scheme(e) => write!(f, "persisted label state is inconsistent: {e}"),
            StoreError::Dynamic(e) => write!(f, "mutation failed: {e}"),
            StoreError::DuplicateUri(uri) => write!(f, "store already holds document `{uri}`"),
            StoreError::UnknownUri(uri) => write!(f, "store holds no document `{uri}`"),
            StoreError::NotAStore(p) => {
                write!(f, "{} is not a label store (no manifest)", p.display())
            }
            StoreError::FaultInjected(i) => write!(f, "{i}"),
            StoreError::WalPoisoned { path } => write!(
                f,
                "{} refuses appends: the log could not be cut back after a failed write; \
                 reopen the store",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Codec(e) => Some(e),
            StoreError::Snapshot(e) => Some(e),
            StoreError::Scheme(e) => Some(e),
            StoreError::Dynamic(e) => Some(e),
            StoreError::FaultInjected(i) => Some(i),
            _ => None,
        }
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Snapshot(e)
    }
}

impl From<xp_prime::Error> for StoreError {
    fn from(e: xp_prime::Error) -> Self {
        StoreError::Scheme(e)
    }
}

impl From<DynamicError> for StoreError {
    fn from(e: DynamicError) -> Self {
        StoreError::Dynamic(e)
    }
}

impl From<Injected> for StoreError {
    fn from(i: Injected) -> Self {
        StoreError::FaultInjected(i)
    }
}

/// The guard every frame-writing path runs before encoding: payloads the
/// `u32` length field cannot express are rejected with a typed error while
/// the disk is still untouched.
pub(crate) fn ensure_frameable(len: usize) -> Result<(), StoreError> {
    if crate::frame::payload_fits(len) {
        Ok(())
    } else {
        Err(StoreError::FrameTooLarge {
            len: len as u64,
            max: crate::frame::MAX_FRAME_PAYLOAD as u64,
        })
    }
}

/// Shorthand for wrapping a [`std::io::Error`] with its operation and path.
pub(crate) fn io_err(
    op: &'static str,
    path: &std::path::Path,
    e: std::io::Error,
) -> StoreError {
    StoreError::Io { op, path: path.to_path_buf(), msg: e.to_string() }
}
