//! Object-store backends: the [`ObjectStore`] trait and its in-memory
//! implementation.
//!
//! HyperProv keeps only metadata on-chain; the payload goes to a pluggable
//! store (the paper uses SSHFS). These backends provide the storage
//! semantics; the timing of the paper's remote SSHFS node is modelled by
//! [`crate::StorageNode`].

use std::collections::HashMap;
use std::fmt;

use parking_lot::RwLock;

/// Error from an object-store operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The named object does not exist.
    NotFound(String),
    /// The name contains characters the backend cannot store safely.
    InvalidName(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(name) => write!(f, "object not found: {name}"),
            StoreError::InvalidName(name) => write!(f, "invalid object name: {name:?}"),
        }
    }
}

impl std::error::Error for StoreError {}

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
    /// Returns [`StoreError::InvalidName`].
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
    /// A backend may fail to delete.
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
    }
}
