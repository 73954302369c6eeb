//! Verification caches for the accelerated commit path.
//!
//! Two FastFabric-style memoisations (the peer counts their hits):
//!
//! * [`SigVerifyCache`] — a per-peer memo of endorsement signatures that
//!   already verified, keyed by `(certificate, message digest, signature)`.
//!   Re-delivered, replayed or re-validated envelopes skip the expensive
//!   verification; only *successful* checks are cached, so a forged
//!   signature is re-checked (and re-rejected) every time, a hit still
//!   compares the certificate with the enrolled one, and the cache can
//!   never turn an invalid endorsement valid.
//! * [`ReadCache`] — an endorser-side hot-state read cache with
//!   MVCC-version invalidation: every key written by a committed
//!   transaction is evicted, so a present entry is provably current. The
//!   cache models the *cost* of avoided state-database lookups only;
//!   chaincode execution still reads the authoritative
//!   [`StateDb`](hyperprov_ledger::StateDb), so endorsement results are
//!   byte-identical with the cache on or off.

use std::collections::HashSet;

use hyperprov_ledger::{Digest, StateKey};

use crate::identity::{CertId, CertRef, Msp, MspId, Signature};

/// Memo of already-verified `(certificate, digest, signature)` triples.
#[derive(Debug, Clone, Default)]
pub struct SigVerifyCache {
    verified: HashSet<(CertId, Digest, Signature)>,
}

impl SigVerifyCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SigVerifyCache::default()
    }

    /// Verifies `sig` by `cert` over the concatenation of `parts` (see
    /// [`Msp::verify_parts`]), consulting the memo first. Returns the
    /// signer's organisation when the signature holds, and whether the
    /// memo answered.
    pub fn verify<'m>(
        &mut self,
        msp: &'m Msp,
        cert: CertRef<'_>,
        parts: &[&[u8]],
        sig: &Signature,
    ) -> (Option<&'m MspId>, bool) {
        let key = (cert.id, Digest::of_parts(parts), *sig);
        if self.verified.contains(&key) {
            return (msp.org_of(cert), true);
        }
        let org = msp.verify_parts(cert, parts, sig);
        if org.is_some() {
            self.verified.insert(key);
        }
        (org, false)
    }

    /// Number of memoised triples.
    pub fn len(&self) -> usize {
        self.verified.len()
    }

    /// True when nothing has been memoised.
    pub fn is_empty(&self) -> bool {
        self.verified.is_empty()
    }
}

/// Endorser-side cache of state keys whose latest committed version the
/// peer has recently read.
#[derive(Debug, Clone, Default)]
pub struct ReadCache {
    keys: HashSet<StateKey>,
}

impl ReadCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ReadCache::default()
    }

    /// Records a chaincode read of `key`. Returns `true` when the read
    /// was served from the cache; a miss inserts the key for next time.
    pub fn touch(&mut self, key: &StateKey) -> bool {
        let hit = self.keys.contains(key);
        if !hit {
            self.keys.insert(key.clone());
        }
        hit
    }

    /// Evicts `key` after a committed write to it (MVCC-version
    /// invalidation). Returns `true` if an entry was dropped.
    pub fn invalidate(&mut self, key: &StateKey) -> bool {
        self.keys.remove(key)
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no key is cached.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::{MspBuilder, MspId};

    #[test]
    fn sig_cache_hits_on_repeat() {
        let mut b = MspBuilder::new(1);
        let id = b.enroll("peer0", &MspId::new("org1"));
        let msp = b.build();
        let msg = b"endorse-me";
        let sig = id.sign(msg);
        let mut cache = SigVerifyCache::new();
        let cert = id.certificate();
        let org = Some(&cert.org);
        assert_eq!(
            cache.verify(&msp, cert.borrowed(), &[msg], &sig),
            (org, false)
        );
        assert_eq!(
            cache.verify(&msp, cert.borrowed(), &[msg], &sig),
            (org, true)
        );
        // The memo is keyed by the message, not by how it was cut up.
        let (head, tail) = msg.split_at(3);
        assert_eq!(
            cache.verify(&msp, cert.borrowed(), &[head, tail], &sig),
            (org, true)
        );
        assert_eq!(cache.len(), 1);
        // A hit does not vouch for certificate contents it never saw.
        let forged = CertRef {
            org: "org2",
            ..cert.borrowed()
        };
        assert_eq!(cache.verify(&msp, forged, &[msg], &sig), (None, true));
    }

    #[test]
    fn sig_cache_never_caches_failures() {
        let mut b = MspBuilder::new(1);
        let id = b.enroll("peer0", &MspId::new("org1"));
        let msp = b.build();
        let forged = Signature(Digest::of(b"forged"));
        let mut cache = SigVerifyCache::new();
        let cert = id.certificate().borrowed();
        assert_eq!(cache.verify(&msp, cert, &[b"m"], &forged), (None, false));
        // Re-checked, still a miss: failures are not memoised.
        assert_eq!(cache.verify(&msp, cert, &[b"m"], &forged), (None, false));
        assert!(cache.is_empty());
    }

    #[test]
    fn sig_cache_distinguishes_messages_and_signers() {
        let mut b = MspBuilder::new(1);
        let a = b.enroll("a", &MspId::new("org1"));
        let c = b.enroll("c", &MspId::new("org2"));
        let msp = b.build();
        let mut cache = SigVerifyCache::new();
        let (ca, cc) = (a.certificate(), c.certificate());
        cache.verify(&msp, ca.borrowed(), &[b"m1"], &a.sign(b"m1"));
        // Different message: miss. Different signer: miss.
        assert_eq!(
            cache.verify(&msp, ca.borrowed(), &[b"m2"], &a.sign(b"m2")),
            (Some(&ca.org), false)
        );
        assert_eq!(
            cache.verify(&msp, cc.borrowed(), &[b"m1"], &c.sign(b"m1")),
            (Some(&cc.org), false)
        );
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn read_cache_hit_miss_and_invalidation() {
        let k = StateKey::new("cc", "hot");
        let mut cache = ReadCache::new();
        assert!(!cache.touch(&k)); // cold miss, now cached
        assert!(cache.touch(&k)); // hit
        assert!(cache.invalidate(&k)); // committed write evicts
        assert!(!cache.invalidate(&k)); // second eviction is a no-op
        assert!(!cache.touch(&k)); // miss again after invalidation
        assert_eq!(cache.len(), 1);
    }
}
