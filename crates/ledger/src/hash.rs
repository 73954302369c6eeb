//! SHA-256 and HMAC-SHA-256, implemented from scratch (FIPS 180-4 /
//! RFC 2104) so the workspace carries no cryptography dependency.
//!
//! HyperProv stores a SHA-256 checksum of every data item on-chain; the
//! ledger also hashes block headers and transaction envelopes. Hashing is
//! therefore on every hot path in the repo — checksums, transaction ids,
//! HMAC signatures, Merkle nodes, block data hashes — so on x86-64 the
//! compression function dispatches at runtime to the SHA-NI instruction
//! set when the CPU has it (roughly an order of magnitude faster than
//! the portable scalar rounds, which remain the fallback and the
//! reference). Both paths are validated against NIST/RFC test vectors in
//! the unit tests below.

use std::fmt;

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A 256-bit digest.
///
/// # Examples
///
/// ```
/// use hyperprov_ledger::Digest;
///
/// let d = Digest::of(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the previous-hash of genesis blocks.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hashes `data` with SHA-256.
    pub fn of(data: &[u8]) -> Digest {
        Digest::of_parts(&[data])
    }

    /// Hashes the concatenation of `parts` without building it.
    pub fn of_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    /// Hashes the concatenation of two digests (Merkle interior node).
    pub fn combine(left: &Digest, right: &Digest) -> Digest {
        Digest::of_parts(&[&left.0, &right.0])
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lower-case hexadecimal rendering.
    pub fn to_hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = Vec::with_capacity(64);
        for b in self.0 {
            s.push(HEX[usize::from(b >> 4)]);
            s.push(HEX[usize::from(b & 0x0f)]);
        }
        String::from_utf8(s).expect("hex digits are ASCII")
    }

    /// Parses a 64-character hexadecimal string.
    ///
    /// # Errors
    ///
    /// Returns `None` if the input is not exactly 64 hex characters.
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        let bytes = s.as_bytes();
        for (i, item) in out.iter_mut().enumerate() {
            let hi = (bytes[2 * i] as char).to_digit(16)?;
            let lo = (bytes[2 * i + 1] as char).to_digit(16)?;
            *item = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// A short 8-hex-character prefix, for logs.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_owned()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use hyperprov_ledger::{Digest, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Digest::of(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`: what completes the buffered block, then every whole
    /// block of `data` in one call of the compression loop, then the rest
    /// into the buffer.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                compress_blocks(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress_blocks(&mut self.state, &data[..whole]);
        }
        let rest = &data[whole..];
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len += rest.len();
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // 0x80, zeros to 56 mod 64, then the bit length, in one write.
        let bit_len = self.total_len.wrapping_mul(8);
        let zeros = (55 - self.buffer_len as isize).rem_euclid(64) as usize;
        let mut padding = [0u8; 72];
        padding[0] = 0x80;
        padding[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&padding[..9 + zeros]);
        debug_assert_eq!(self.buffer_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// Runs the compression function over `blocks`, a whole number of 64-byte
/// blocks, in order.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if shani::compress_checked(state, blocks) {
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress_soft(state, block.try_into().expect("64-byte chunks"));
    }
}

/// The portable scalar rounds over one block: the fallback, and the
/// reference the SHA-NI path is checked against.
fn compress_soft(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (word, round) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(round);
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

/// SHA-NI accelerated compression (Intel SHA extensions), following the
/// canonical `sha256rnds2`/`sha256msg1`/`sha256msg2` flow: state packed
/// as ABEF/CDGH working pairs, four rounds per step, the message
/// schedule computed on the fly.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };
    use std::sync::OnceLock;

    use super::K;

    /// Runs the SHA-NI compression over `blocks` (a whole number of
    /// 64-byte blocks) when the CPU supports it; returns `false` (leaving
    /// `state` untouched) when it does not, so the caller falls back to
    /// the scalar rounds. This is the only safe entry point — the feature
    /// check lives on the same side of the module boundary as the
    /// `unsafe` it justifies.
    pub fn compress_checked(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available` confirmed the sha/ssse3/sse4.1 features at
        // runtime.
        unsafe { compress(state, blocks) };
        true
    }

    /// True when the CPU supports every instruction [`compress`] uses
    /// (checked once, cached).
    pub fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
        })
    }

    /// Next four schedule words `w[4i..4i+4]` from the previous sixteen.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_sha256msg1_epu32(w0, w1);
        let t = _mm_add_epi32(t, _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// SHA-256 rounds over `state` for each 64-byte block of `blocks`,
    /// in order. The state is packed into the working pairs once, and
    /// unpacked once at the end.
    ///
    /// # Safety
    ///
    /// The caller must ensure the `sha`, `ssse3` and `sse4.1` CPU
    /// features are present (see [`available`]).
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // Map the first 16 big-endian message bytes of each lane-load
        // into host-order schedule words.
        let flip = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // Repack [a,b,c,d] / [e,f,g,h] into the ABEF / CDGH pairs the
        // round instruction consumes.
        let t = _mm_loadu_si128(state.as_ptr().cast());
        let s1 = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let t = _mm_shuffle_epi32(t, 0xB1);
        let s1 = _mm_shuffle_epi32(s1, 0x1B);
        let mut abef = _mm_alignr_epi8(t, s1, 8);
        let mut cdgh = _mm_blend_epi16(s1, t, 0xF0);

        for block in blocks.chunks_exact(64) {
            let abef_in = abef;
            let cdgh_in = cdgh;

            // Four rounds per step: the low two schedule+K lanes feed the
            // CDGH update, the high two (after the lane swap) feed ABEF.
            macro_rules! rounds4 {
                ($w:expr, $group:expr) => {{
                    let k = _mm_loadu_si128(K.as_ptr().add(4 * $group).cast());
                    let wk = _mm_add_epi32($w, k);
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                }};
            }

            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), flip);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16).cast()), flip);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(32).cast()), flip);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(48).cast()), flip);

            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            for group in [4usize, 8, 12] {
                let w4 = schedule(w0, w1, w2, w3);
                rounds4!(w4, group);
                let w5 = schedule(w1, w2, w3, w4);
                rounds4!(w5, group + 1);
                let w6 = schedule(w2, w3, w4, w5);
                rounds4!(w6, group + 2);
                let w7 = schedule(w3, w4, w5, w6);
                rounds4!(w7, group + 3);
                (w0, w1, w2, w3) = (w4, w5, w6, w7);
            }

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        // Unpack ABEF/CDGH back into [a,b,c,d] / [e,f,g,h].
        let t = _mm_shuffle_epi32(abef, 0x1B);
        let s1 = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(t, s1, 0xF0));
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), _mm_alignr_epi8(s1, t, 8));
    }
}

/// Computes HMAC-SHA-256 over `message` with `key` (RFC 2104).
///
/// Used by the simulated MSP as its signature primitive: a certificate's
/// private key is an HMAC key, so "signatures" are deterministic,
/// verifiable tags. See DESIGN.md for why this substitution preserves the
/// paper's behaviour.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    hmac_sha256_parts(key, &[message])
}

/// [`hmac_sha256`] over the concatenation of `parts`, without building it:
/// a verifier whose message is spans of bytes it already holds signs and
/// checks them in place.
pub fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> Digest {
    const BLOCK: usize = 64;
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..32].copy_from_slice(&Digest::of(key).0);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    for part in parts {
        inner.update(part);
    }
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest.0);
    outer.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST FIPS 180-4 example vectors.
    #[test]
    fn sha256_empty() {
        assert_eq!(
            Digest::of(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            Digest::of(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_blocks() {
        assert_eq!(
            Digest::of(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            Digest::of(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for chunk_size in [1usize, 3, 7, 63, 64, 65, 128, 999] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), Digest::of(&data), "chunk={chunk_size}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // 55/56/63/64 bytes hit the padding edge cases.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0xABu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            let d1 = h.finalize();
            let mut h2 = Sha256::new();
            for b in &data {
                h2.update(std::slice::from_ref(b));
            }
            assert_eq!(d1, h2.finalize(), "len={len}");
        }
    }

    // RFC 4231 HMAC-SHA-256 test vectors.
    #[test]
    fn hmac_rfc4231_case1() {
        let key = [0x0bu8; 20];
        let d = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            d.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        let d = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            d.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_long_key_is_hashed() {
        let key = [0xaau8; 131];
        let d = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            d.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn hashing_in_parts_is_hashing_the_concatenation() {
        let data: Vec<u8> = (0..200u8).collect();
        for cut in [0usize, 1, 32, 63, 64, 65, 200] {
            let (a, b) = data.split_at(cut);
            assert_eq!(Digest::of_parts(&[a, b]), Digest::of(&data), "cut={cut}");
            assert_eq!(
                hmac_sha256_parts(b"key", &[a, b]),
                hmac_sha256(b"key", &data),
                "cut={cut}"
            );
        }
    }

    /// The digest by the scalar rounds alone, over a message padded by
    /// hand: the oracle the dispatching hasher is checked against.
    fn scalar_digest(data: &[u8]) -> Digest {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in message.chunks_exact(64) {
            compress_soft(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// Every padding length, and a long message fed in uneven pieces —
    /// the buffered head, whole blocks in one call, the buffered rest —
    /// hash as one call does and as the scalar rounds do.
    #[test]
    fn any_split_of_any_length_hashes_as_one_call_and_as_the_scalar_rounds() {
        let data: Vec<u8> = (0..1 << 20)
            .map(|i: u32| (i * 167 + i / 251) as u8)
            .collect();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |below: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng as usize % below
        };
        for len in (0..=200).chain([data.len()]) {
            let data = &data[..len];
            let oneshot = Digest::of(data);
            assert_eq!(oneshot, scalar_digest(data), "len={len}");
            let mut h = Sha256::new();
            let mut rest = data;
            while !rest.is_empty() {
                let (piece, after) = rest.split_at(next(rest.len().min(300)) + 1);
                h.update(piece);
                rest = after;
            }
            assert_eq!(h.finalize(), oneshot, "len={len}");
        }
    }

    /// The SHA-NI and scalar compressions must agree on every block, not
    /// just on the NIST vectors (which exercise whichever path the host
    /// dispatches to), and on a run of blocks in one call.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shani_matches_scalar_rounds() {
        if !super::shani::available() {
            return;
        }
        let mut blocks = [0u8; 64 * 64];
        let mut byte = 0u8;
        for b in &mut blocks {
            byte = byte.wrapping_mul(167).wrapping_add(13);
            *b = byte;
        }
        let mut run = H0;
        for (round, block) in blocks.chunks_exact(64).enumerate() {
            let mut soft = H0.map(|h| h.wrapping_add(round as u32));
            let mut hard = soft;
            compress_soft(&mut soft, block.try_into().unwrap());
            assert!(super::shani::compress_checked(&mut hard, block));
            assert_eq!(soft, hard, "round={round}");
            compress_soft(&mut run, block.try_into().unwrap());
        }
        let mut hard = H0;
        assert!(super::shani::compress_checked(&mut hard, &blocks));
        assert_eq!(run, hard);
    }

    #[test]
    fn hex_round_trip() {
        let d = Digest::of(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = Digest::of(b"a");
        let b = Digest::of(b"b");
        assert_ne!(Digest::combine(&a, &b), Digest::combine(&b, &a));
    }

    #[test]
    fn debug_and_short_forms() {
        let d = Digest::of(b"abc");
        assert_eq!(d.short(), "ba7816bf");
        assert_eq!(format!("{d:?}"), "Digest(ba7816bf)");
    }
}
