//! Canonical binary encoding for ledger data structures.
//!
//! Everything that is hashed or signed (transactions, block headers,
//! provenance records) must serialise to a *unique* byte string, so the
//! ledger defines its own deterministic codec rather than relying on a
//! general-purpose format: fixed little-endian integers where size matters,
//! LEB128 varints for lengths, length-prefixed byte strings, and no
//! optional field reordering.

use std::fmt;
use std::sync::Arc;

use crate::hash::Digest;
use crate::shared::Shared;

/// Error returned when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// Input contained bytes after the decoded value.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// A varint carried a trailing zero byte: the same value has a shorter
    /// encoding, and every value must have exactly one.
    VarintNotMinimal,
    /// A declared length exceeds the remaining input.
    LengthOverrun {
        /// The declared length.
        declared: u64,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A domain-specific invariant failed.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after value")
            }
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in string"),
            CodecError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            CodecError::VarintNotMinimal => write!(f, "varint is not minimally encoded"),
            CodecError::LengthOverrun {
                declared,
                remaining,
            } => {
                write!(
                    f,
                    "declared length {declared} exceeds remaining {remaining} bytes"
                )
            }
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encoded length of a [`Digest`] (and so of a transaction id).
pub const DIGEST_LEN: u64 = 32;

/// Number of bytes [`Encoder::put_varint`] writes for `v`.
pub fn varint_len(v: u64) -> u64 {
    // Seven payload bits per byte; zero still takes one byte.
    u64::from((64 - (v | 1).leading_zeros()).div_ceil(7))
}

/// Number of bytes [`Encoder::put_bytes`] (and so [`Encoder::put_str`])
/// writes for a string of `len` bytes.
pub fn bytes_len(len: usize) -> u64 {
    varint_len(len as u64) + len as u64
}

/// Serialises values into a canonical byte string.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Creates an encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the encoder and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a fixed-width little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a fixed-width little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an unsigned LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a varint length followed by the raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a UTF-8 string (varint length + bytes).
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes a digest as 32 raw bytes.
    pub fn put_digest(&mut self, d: &Digest) {
        self.buf.extend_from_slice(&d.0);
    }
}

/// Deserialises values from a byte string.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
    /// The buffer `data` lies in, and where, for a sharing decoder.
    shared: Option<(&'a Arc<[u8]>, usize)>,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `data` whose [`Shared`] strings are copies.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder {
            data,
            pos: 0,
            shared: None,
        }
    }

    /// Creates a decoder over `buf[at..]` whose [`Shared`] strings are
    /// ranges of `buf`, sharing its allocation.
    pub fn sharing(buf: &'a Arc<[u8]>, at: usize) -> Self {
        Decoder {
            shared: Some((buf, at)),
            ..Decoder::new(&buf[at..])
        }
    }

    /// The `len` bytes just read, which the caller read as a `T`, as a
    /// range of the shared buffer.
    pub(crate) fn share<T: ?Sized>(&self, len: usize) -> Option<Shared<T>> {
        let (buf, at) = self.shared?;
        let end = at + self.pos;
        Some(Shared::new(Arc::clone(buf), end - len..end))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Bytes consumed so far: the offset of the next value in the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Fails unless the input was fully consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is an error.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte not 0 or 1")),
        }
    }

    /// Reads a fixed-width little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a fixed-width little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `Option` tag: whether a value follows.
    pub fn get_option_tag(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("option tag not 0 or 1")),
        }
    }

    /// Reads an unsigned LEB128 varint. Only the shortest encoding of a
    /// value is accepted, so bytes that decode re-encode to themselves.
    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::VarintOverflow);
            }
            if byte == 0 && shift > 0 {
                return Err(CodecError::VarintNotMinimal);
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::VarintOverflow);
            }
        }
    }

    /// Reads a varint element count, or the length of a byte string.
    /// Every element takes at least one byte, so a count beyond the
    /// remaining input is rejected before anything is allocated for it.
    pub fn get_count(&mut self) -> Result<usize, CodecError> {
        let declared = self.get_varint()?;
        if declared > self.remaining() as u64 {
            return Err(CodecError::LengthOverrun {
                declared,
                remaining: self.remaining(),
            });
        }
        Ok(declared as usize)
    }

    /// Reads a varint-length-prefixed byte string, borrowed from the
    /// input.
    pub fn get_slice(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_count()?;
        self.take(len)
    }

    /// Reads a varint-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        Ok(self.get_slice()?.to_vec())
    }

    /// Reads a varint-length-prefixed UTF-8 string, borrowed from the
    /// input.
    pub fn get_str_ref(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.get_slice()?).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        Ok(self.get_str_ref()?.to_owned())
    }

    /// Reads a 32-byte digest.
    pub fn get_digest(&mut self) -> Result<Digest, CodecError> {
        let b = self.take(32)?;
        let mut out = [0u8; 32];
        out.copy_from_slice(b);
        Ok(Digest(out))
    }
}

/// Types with a canonical binary encoding.
pub trait Encode {
    /// Appends this value's canonical encoding to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Convenience: the canonical encoding as a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Convenience: SHA-256 of the canonical encoding.
    fn digest(&self) -> Digest {
        Digest::of(&self.to_bytes())
    }
}

/// Types decodable from their canonical binary encoding.
pub trait Decode: Sized {
    /// Decodes one value from the decoder, advancing it.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed input.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError>;

    /// Decodes a value that must occupy the *entire* input.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed input or trailing bytes.
    fn from_bytes(data: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(data);
        let v = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }
}

impl Encode for u8 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self);
    }
}
impl Decode for u8 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_u8()
    }
}

impl Encode for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
}
impl Decode for u32 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
}
impl Decode for u64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_u64()
    }
}

impl Encode for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }
}
impl Decode for bool {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_bool()
    }
}

impl Encode for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
}
impl Decode for String {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_str()
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
}
impl Decode for Vec<u8> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_bytes()
    }
}

impl Encode for Digest {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_digest(self);
    }
}
impl Decode for Digest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_digest()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_option_tag()?.then(|| T::decode(dec)).transpose()
    }
}

/// A pair encodes as its first half followed by its second.
impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

/// `Vec<T>` encodes as a varint count followed by each element.
/// (`Vec<u8>` has its own more compact impl above.)
macro_rules! impl_vec_codec {
    ($t:ty) => {
        impl Encode for Vec<$t> {
            fn encode(&self, enc: &mut Encoder) {
                encode_seq(self, enc);
            }
        }
        impl Decode for Vec<$t> {
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
                decode_seq(dec)
            }
        }
    };
}

impl_vec_codec!(String);
impl_vec_codec!(Digest);

/// Encodes a homogeneous slice with a varint count prefix; pairs with
/// [`decode_seq`].
pub fn encode_seq<T: Encode>(items: &[T], enc: &mut Encoder) {
    enc.put_varint(items.len() as u64);
    for item in items {
        item.encode(enc);
    }
}

/// Decodes a sequence written by [`encode_seq`].
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input.
pub fn decode_seq<T: Decode>(dec: &mut Decoder<'_>) -> Result<Vec<T>, CodecError> {
    let n = dec.get_count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(T::decode(dec)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(0xAB);
        enc.put_bool(true);
        enc.put_u32(0xDEADBEEF);
        enc.put_u64(u64::MAX - 1);
        enc.put_str("héllo");
        enc.put_bytes(&[1, 2, 3]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 0xAB);
        assert!(dec.get_bool().unwrap());
        assert_eq!(dec.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.get_str().unwrap(), "héllo");
        assert_eq!(dec.get_bytes().unwrap(), vec![1, 2, 3]);
        dec.finish().unwrap();
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut enc = Encoder::new();
            enc.put_varint(v);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(dec.get_varint().unwrap(), v);
            dec.finish().unwrap();
        }
    }

    #[test]
    fn varint_compactness() {
        let mut enc = Encoder::new();
        enc.put_varint(127);
        assert_eq!(enc.len(), 1);
        let mut enc = Encoder::new();
        enc.put_varint(128);
        assert_eq!(enc.len(), 2);
    }

    #[test]
    fn varint_overflow_rejected() {
        // 10 bytes of continuation with high bits set overflows u64.
        let bytes = [0xFFu8; 10];
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_varint(), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn varint_with_a_shorter_encoding_is_rejected() {
        // 0 as two bytes, 1 as two bytes, 128 as three.
        for bytes in [&[0x80u8, 0x00][..], &[0x81, 0x00], &[0x80, 0x81, 0x00]] {
            let mut dec = Decoder::new(bytes);
            assert_eq!(dec.get_varint(), Err(CodecError::VarintNotMinimal));
        }
        // A length prefix is a varint too.
        assert_eq!(
            Vec::<u8>::from_bytes(&[0x81, 0x00, 7]),
            Err(CodecError::VarintNotMinimal)
        );
    }

    #[test]
    fn eof_detected() {
        let mut dec = Decoder::new(&[1, 2]);
        assert_eq!(dec.get_u32(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn trailing_bytes_rejected_by_from_bytes() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u8(8);
        let bytes = enc.into_bytes();
        assert_eq!(
            u8::from_bytes(&bytes),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn bad_bool_and_option_tags() {
        let mut dec = Decoder::new(&[2]);
        assert!(matches!(dec.get_bool(), Err(CodecError::Invalid(_))));
        assert!(matches!(
            Option::<u8>::from_bytes(&[9]),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn length_overrun_rejected() {
        // Declares 100 bytes but provides 2.
        let mut enc = Encoder::new();
        enc.put_varint(100);
        enc.put_u8(0);
        enc.put_u8(0);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            dec.get_bytes(),
            Err(CodecError::LengthOverrun { declared: 100, .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xFF, 0xFE]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_str(), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn option_round_trip() {
        let some = Some("x".to_owned());
        let none: Option<String> = None;
        assert_eq!(
            Option::<String>::from_bytes(&some.to_bytes()).unwrap(),
            some
        );
        assert_eq!(
            Option::<String>::from_bytes(&none.to_bytes()).unwrap(),
            none
        );
    }

    #[test]
    fn shared_strings_have_the_wire_form_of_owned_ones() {
        use crate::shared::{SharedBytes, SharedStr};
        for len in [0usize, 1, 127, 128, 300] {
            let owned: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let shared = SharedBytes::from(owned.as_slice());
            assert_eq!(shared.to_bytes(), owned.to_bytes());
            assert_eq!(SharedBytes::from_bytes(&owned.to_bytes()).unwrap(), shared);
            assert_eq!(Some(shared).to_bytes(), Some(owned).to_bytes());
            let text = "k".repeat(len);
            assert_eq!(SharedStr::from(text.as_str()).to_bytes(), text.to_bytes());
        }
    }

    #[test]
    fn varint_len_matches_the_encoder() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut enc = Encoder::new();
            enc.put_varint(v);
            assert_eq!(varint_len(v), enc.len() as u64, "{v}");
        }
    }

    #[test]
    fn vec_of_strings_round_trip() {
        let v = vec!["a".to_owned(), "bb".to_owned(), String::new()];
        assert_eq!(Vec::<String>::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn digest_round_trip() {
        let d = Digest::of(b"digest");
        assert_eq!(Digest::from_bytes(&d.to_bytes()).unwrap(), d);
        assert_eq!(d.to_bytes().len(), 32);
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = vec!["k1".to_owned(), "k2".to_owned()];
        assert_eq!(v.to_bytes(), v.clone().to_bytes());
        assert_eq!(v.digest(), v.digest());
    }

    #[test]
    fn seq_helpers_round_trip() {
        let items = vec![1u64, 2, 3];
        let mut enc = Encoder::new();
        encode_seq(&items, &mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back: Vec<u64> = decode_seq(&mut dec).unwrap();
        assert_eq!(back, items);
        dec.finish().unwrap();
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            CodecError::UnexpectedEof,
            CodecError::TrailingBytes { remaining: 3 },
            CodecError::InvalidUtf8,
            CodecError::VarintOverflow,
            CodecError::VarintNotMinimal,
            CodecError::LengthOverrun {
                declared: 9,
                remaining: 1,
            },
            CodecError::Invalid("x"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
