//! Shared strings: byte strings and UTF-8 strings held as ranges of a
//! shared, immutable buffer. A key or a value a committer reads out of an
//! envelope is a range of the envelope's bytes, which every replica holds
//! once — so a live one keeps its whole envelope resident after the block
//! is pruned. [`Decoder::sharing`] decodes ranges; [`From`] and a plain
//! [`Decoder`] give each string a buffer of its own. Either way it
//! compares, orders, hashes, prints and encodes as its `[u8]` or `str`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ops::{Deref, Range};
use std::sync::Arc;

use crate::codec::{CodecError, Decode, Decoder, Encode, Encoder};

/// A `T` — `[u8]` or `str` — held as a range of a shared buffer; cloning
/// one bumps the buffer's refcount.
pub struct Shared<T: ?Sized> {
    buf: Arc<[u8]>,
    start: u32,
    end: u32,
    contents: PhantomData<T>,
}

/// A byte string held as a range of a shared buffer.
pub type SharedBytes = Shared<[u8]>;

/// A UTF-8 string held as a range of a shared buffer.
pub type SharedStr = Shared<str>;

impl<T: ?Sized> Shared<T> {
    /// `buf[range]`, which the caller read as a `T`.
    pub(crate) fn new(buf: Arc<[u8]>, range: Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= buf.len());
        let offset = |at| u32::try_from(at).expect("a buffer under 4 GiB");
        Shared {
            start: offset(range.start),
            end: offset(range.end),
            buf,
            contents: PhantomData,
        }
    }

    /// The bytes held.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start as usize..self.end as usize]
    }
}

impl Deref for SharedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}
impl Deref for SharedStr {
    type Target = str;
    fn deref(&self) -> &str {
        // Made from a `str` or read as one, out of a buffer never written.
        std::str::from_utf8(self.as_bytes()).expect("a shared string holds UTF-8")
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(bytes: &[u8]) -> Self {
        Shared::new(bytes.into(), 0..bytes.len())
    }
}
impl From<Vec<u8>> for SharedBytes {
    fn from(bytes: Vec<u8>) -> Self {
        let len = bytes.len();
        Shared::new(bytes.into(), 0..len)
    }
}
impl From<&str> for SharedStr {
    fn from(s: &str) -> Self {
        Shared::new(s.as_bytes().into(), 0..s.len())
    }
}
impl From<String> for SharedStr {
    fn from(s: String) -> Self {
        let len = s.len();
        Shared::new(s.into_bytes().into(), 0..len)
    }
}

impl<T: ?Sized> Clone for Shared<T> {
    fn clone(&self) -> Self {
        let range = self.start as usize..self.end as usize;
        Shared::new(Arc::clone(&self.buf), range)
    }
}

// A `str` compares and orders as its bytes do: neither flavour checks
// UTF-8 in a map lookup.
impl<T: ?Sized> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}
impl<T: ?Sized> Eq for Shared<T> {}
impl<T: ?Sized> PartialOrd for Shared<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: ?Sized> Ord for Shared<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl<T: ?Sized + Hash> Hash for Shared<T>
where
    Self: Deref<Target = T>,
{
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Shared<T>
where
    Self: Deref<Target = T>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// The wire form of the plain string: a varint length, then the bytes.
impl<T: ?Sized> Encode for Shared<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self.as_bytes());
    }
}
impl Decode for SharedBytes {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let bytes = dec.get_slice()?;
        Ok(dec.share(bytes.len()).unwrap_or_else(|| bytes.into()))
    }
}
impl Decode for SharedStr {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let s = dec.get_str_ref()?;
        Ok(dec.share(s.len()).unwrap_or_else(|| s.into()))
    }
}
