//! Object-store backends: the [`ObjectStore`] trait with in-memory and
//! local-filesystem implementations, plus a content-addressed wrapper.
//!
//! HyperProv keeps only metadata on-chain; the payload goes to a pluggable
//! store (the paper uses SSHFS). These backends provide the storage
//! semantics; the timing of the paper's remote SSHFS node is modelled by
//! [`crate::StorageActor`].

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::PathBuf;

use parking_lot::RwLock;

/// Error from an object-store operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The named object does not exist.
    NotFound(String),
    /// The name contains characters the backend cannot store safely.
    InvalidName(String),
    /// An underlying I/O failure (filesystem backend).
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(name) => write!(f, "object not found: {name}"),
            StoreError::InvalidName(name) => write!(f, "invalid object name: {name:?}"),
            StoreError::Io(err) => write!(f, "storage I/O error: {err}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(err: io::Error) -> Self {
        StoreError::Io(err.to_string())
    }
}

/// A named blob store.
///
/// Implementations must be safe for shared use (`Send + Sync`); the
/// simulated storage node and the synchronous client facade both hold
/// references.
pub trait ObjectStore: Send + Sync {
    /// Stores `data` under `name`, replacing any existing object.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidName`] or [`StoreError::Io`].
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError>;

    /// Retrieves the object named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotFound`] if absent.
    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError>;

    /// Deletes the object named `name` (idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn delete(&self, name: &str) -> Result<(), StoreError>;

    /// True if an object with this name exists.
    fn contains(&self, name: &str) -> bool;

    /// Number of stored objects.
    fn len(&self) -> usize;

    /// True if the store holds no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Validates an object name: non-empty, printable, no path separators.
pub fn validate_name(name: &str) -> Result<(), StoreError> {
    if name.is_empty()
        || name.len() > 255
        || name
            .chars()
            .any(|c| c.is_control() || c == '/' || c == '\\' || c == '\0')
        || name == "."
        || name == ".."
    {
        return Err(StoreError::InvalidName(name.to_owned()));
    }
    Ok(())
}

/// An in-memory object store.
///
/// # Examples
///
/// ```
/// use hyperprov_offchain::{MemoryStore, ObjectStore};
///
/// let store = MemoryStore::new();
/// store.put("item", b"data")?;
/// assert_eq!(store.get("item")?, b"data");
/// # Ok::<(), hyperprov_offchain::StoreError>(())
/// ```
#[derive(Debug, Default)]
pub struct MemoryStore {
    map: RwLock<HashMap<String, Vec<u8>>>,
}

impl MemoryStore {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        MemoryStore::default()
    }

    /// Overwrites stored bytes *without* going through `put` — test helper
    /// for simulating off-chain tampering.
    pub fn tamper(&self, name: &str, data: &[u8]) -> bool {
        let mut map = self.map.write();
        match map.get_mut(name) {
            Some(slot) => {
                *slot = data.to_vec();
                true
            }
            None => false,
        }
    }
}

impl ObjectStore for MemoryStore {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        validate_name(name)?;
        self.map.write().insert(name.to_owned(), data.to_vec());
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.map
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::NotFound(name.to_owned()))
    }

    fn delete(&self, name: &str) -> Result<(), StoreError> {
        self.map.write().remove(name);
        Ok(())
    }

    fn contains(&self, name: &str) -> bool {
        self.map.read().contains_key(name)
    }

    fn len(&self) -> usize {
        self.map.read().len()
    }
}

/// A directory-backed object store (one file per object).
#[derive(Debug)]
pub struct FsStore {
    root: PathBuf,
}

impl FsStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(FsStore { root })
    }

    fn path_of(&self, name: &str) -> Result<PathBuf, StoreError> {
        validate_name(name)?;
        Ok(self.root.join(name))
    }
}

impl ObjectStore for FsStore {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let path = self.path_of(name)?;
        // Write-then-rename for atomicity.
        let tmp = self.root.join(format!(".{name}.tmp"));
        fs::write(&tmp, data)?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let path = self.path_of(name)?;
        match fs::read(&path) {
            Ok(data) => Ok(data),
            Err(err) if err.kind() == io::ErrorKind::NotFound => {
                Err(StoreError::NotFound(name.to_owned()))
            }
            Err(err) => Err(err.into()),
        }
    }

    fn delete(&self, name: &str) -> Result<(), StoreError> {
        let path = self.path_of(name)?;
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(err) => Err(err.into()),
        }
    }

    fn contains(&self, name: &str) -> bool {
        self.path_of(name).map(|p| p.exists()).unwrap_or(false)
    }

    fn len(&self) -> usize {
        fs::read_dir(&self.root)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| {
                        e.file_name()
                            .to_str()
                            .map(|n| !n.starts_with('.'))
                            .unwrap_or(false)
                    })
                    .count()
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn ObjectStore) {
        assert!(store.is_empty());
        store.put("a", b"1").unwrap();
        store.put("b", b"22").unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.contains("a"));
        assert_eq!(store.get("b").unwrap(), b"22");
        store.put("a", b"replaced").unwrap();
        assert_eq!(store.get("a").unwrap(), b"replaced");
        store.delete("a").unwrap();
        assert!(!store.contains("a"));
        assert_eq!(store.get("a"), Err(StoreError::NotFound("a".into())));
        store.delete("a").unwrap(); // idempotent
    }

    #[test]
    fn memory_store_semantics() {
        let store = MemoryStore::new();
        exercise(&store);
    }

    #[test]
    fn fs_store_semantics() {
        let dir = std::env::temp_dir().join(format!("hyperprov-fsstore-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = FsStore::open(&dir).unwrap();
        exercise(&store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_names_rejected() {
        let store = MemoryStore::new();
        for bad in ["", "a/b", "a\\b", ".", "..", "nul\0byte", "ctl\x07"] {
            assert!(
                matches!(store.put(bad, b"x"), Err(StoreError::InvalidName(_))),
                "{bad:?}"
            );
        }
        let long = "x".repeat(256);
        assert!(store.put(&long, b"x").is_err());
    }

    #[test]
    fn tamper_helper_modifies_in_place() {
        let store = MemoryStore::new();
        store.put("victim", b"good").unwrap();
        assert!(store.tamper("victim", b"evil"));
        assert_eq!(store.get("victim").unwrap(), b"evil");
        assert!(!store.tamper("missing", b"x"));
    }

    #[test]
    fn error_display() {
        assert!(!StoreError::NotFound("n".into()).to_string().is_empty());
        assert!(!StoreError::InvalidName("i".into()).to_string().is_empty());
        assert!(!StoreError::Io("io".into()).to_string().is_empty());
    }
}
