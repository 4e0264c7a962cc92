//! Error type of the storage engine.

use zerber_index::DocId;

/// Failures surfaced by the segmented store.
///
/// A *torn WAL tail* is not an error — recovery cuts it off by design.
/// `Corrupt` means a file that must be internally consistent (a
/// segment or the manifest, both written atomically via
/// temp-file-then-rename, or under `sync_wal` a rotated log) failed
/// its checksum or layout checks.
#[derive(Debug)]
pub enum SegmentError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A durable file is damaged.
    Corrupt {
        /// The offending file.
        file: String,
        /// What check failed.
        reason: &'static str,
    },
    /// A document handed to `insert` or `bulk_load` breaks
    /// `Document`'s invariant (`Document::is_well_formed`); the call
    /// wrote nothing.
    MalformedDocument(DocId),
}

impl SegmentError {
    /// `file` failed the check `reason` names.
    pub(crate) fn corrupt(file: impl Into<String>, reason: &'static str) -> Self {
        let file = file.into();
        SegmentError::Corrupt { file, reason }
    }
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "storage I/O error: {e}"),
            SegmentError::Corrupt { file, reason } => {
                write!(f, "corrupt store file {file}: {reason}")
            }
            SegmentError::MalformedDocument(doc) => write!(
                f,
                "document {} repeats or misorders a term id, or its counts overflow a u32",
                doc.0
            ),
        }
    }
}

impl std::error::Error for SegmentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegmentError::Io(e) => Some(e),
            SegmentError::Corrupt { .. } | SegmentError::MalformedDocument(_) => None,
        }
    }
}

impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> Self {
        SegmentError::Io(e)
    }
}
