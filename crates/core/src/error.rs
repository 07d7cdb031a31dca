//! Error type for MISTIQUE operations.

use mistique_store::StoreError;

/// Errors surfaced by the MISTIQUE facade.
#[derive(Debug)]
pub enum MistiqueError {
    /// The underlying data store failed.
    Store(StoreError),
    /// The referenced model id is not registered.
    UnknownModel(String),
    /// The referenced intermediate id is not known.
    UnknownIntermediate(String),
    /// The referenced column does not exist in the intermediate.
    UnknownColumn {
        /// Intermediate id.
        intermediate: String,
        /// Missing column name.
        column: String,
    },
    /// A model id was registered twice.
    DuplicateModel(String),
    /// [`crate::system::Mistique::reopen`] found no manifest in the
    /// directory — nothing was ever persisted, or the crash happened before
    /// the first manifest rename.
    NoManifest,
    /// [`crate::system::Mistique::reopen`] found a store in another format
    /// version than this build's: its manifest and partition files are
    /// refused before anything reads, quarantines or rewrites them.
    UnsupportedVersion {
        /// The version the manifest records (1 when it records none).
        found: u64,
        /// The one version this build reads and writes.
        supported: u64,
    },
    /// Invalid argument (message explains).
    Invalid(String),
}

impl std::fmt::Display for MistiqueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MistiqueError::Store(e) => write!(f, "store error: {e}"),
            MistiqueError::UnknownModel(m) => write!(f, "unknown model {m}"),
            MistiqueError::UnknownIntermediate(i) => write!(f, "unknown intermediate {i}"),
            MistiqueError::UnknownColumn {
                intermediate,
                column,
            } => {
                write!(f, "no column {column} in {intermediate}")
            }
            MistiqueError::DuplicateModel(m) => write!(f, "model {m} already registered"),
            MistiqueError::NoManifest => write!(f, "no manifest in directory"),
            MistiqueError::UnsupportedVersion { found, supported } => write!(
                f,
                "partition/manifest version {found} (supported: {supported})"
            ),
            MistiqueError::Invalid(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for MistiqueError {}

impl From<StoreError> for MistiqueError {
    fn from(e: StoreError) -> Self {
        MistiqueError::Store(e)
    }
}
