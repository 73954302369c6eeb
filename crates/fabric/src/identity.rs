//! Membership service provider (MSP): organisations, certificates and
//! signatures.
//!
//! Fabric identifies every actor by an X.509 certificate issued by an
//! organisation's CA and signs with ECDSA. This reproduction keeps the
//! *structure* — certificates carry a subject and an organisation, every
//! proposal/endorsement is signed, and verification is rooted in a
//! membership registry — while replacing ECDSA with deterministic
//! HMAC-SHA-256 tags verified through the [`Msp`] registry (the registry
//! plays the role of the trust root: only enrolled certificates verify).
//! DESIGN.md documents why this substitution preserves the paper's
//! behaviour; the signing/verification CPU cost is modelled by the device
//! profiles.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use hyperprov_ledger::{
    hmac_sha256, hmac_sha256_parts, CodecError, Decode, Decoder, Digest, Encode, Encoder,
};

/// An organisation (membership service provider) identifier.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MspId(pub String);

impl MspId {
    /// Creates an organisation id.
    pub fn new(id: impl Into<String>) -> Self {
        MspId(id.into())
    }
}

impl fmt::Display for MspId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Encode for MspId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.0);
    }
}
impl Decode for MspId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(MspId(dec.get_str()?))
    }
}

/// Uniquely identifies an enrolled certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CertId(pub Digest);

impl Encode for CertId {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
    }
}
impl Decode for CertId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(CertId(Digest::decode(dec)?))
    }
}

/// A certificate: who (subject), which org, and the enrolment id.
///
/// HyperProv stores the creator certificate with every provenance record,
/// answering "who stored this data".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Certificate {
    /// Human-readable subject, e.g. `"client0@org1"`.
    pub subject: String,
    /// Issuing organisation.
    pub org: MspId,
    /// Enrolment id (digest of subject, org and enrolment counter).
    pub id: CertId,
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.subject, self.org)
    }
}

impl Encode for Certificate {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.subject);
        self.org.encode(enc);
        self.id.encode(enc);
    }
}
impl Decode for Certificate {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let cert = CertRef::decode(dec)?;
        Ok(Certificate {
            subject: cert.subject.to_owned(),
            org: MspId::new(cert.org),
            id: cert.id,
        })
    }
}

/// A [`Certificate`] read in place: subject and organisation borrow the
/// encoded bytes (or the certificate, see [`Certificate::borrowed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertRef<'a> {
    /// Human-readable subject.
    pub subject: &'a str,
    /// Issuing organisation.
    pub org: &'a str,
    /// Enrolment id.
    pub id: CertId,
}

impl<'a> CertRef<'a> {
    /// Reads one encoded [`Certificate`] without copying it.
    pub fn decode(dec: &mut Decoder<'a>) -> Result<Self, CodecError> {
        Ok(CertRef {
            subject: dec.get_str_ref()?,
            org: dec.get_str_ref()?,
            id: CertId::decode(dec)?,
        })
    }
}

impl Certificate {
    /// The certificate as a borrowed view of itself.
    pub fn borrowed(&self) -> CertRef<'_> {
        CertRef {
            subject: &self.subject,
            org: &self.org.0,
            id: self.id,
        }
    }
}

/// A signature tag over a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub Digest);

impl Encode for Signature {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
    }
}
impl Decode for Signature {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Signature(Digest::decode(dec)?))
    }
}

/// A certificate together with its signing key.
#[derive(Debug, Clone)]
pub struct SigningIdentity {
    cert: Certificate,
    secret: [u8; 32],
}

impl SigningIdentity {
    /// The public certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature(hmac_sha256(&self.secret, message))
    }
}

/// The membership registry: enrols identities and verifies signatures.
///
/// Built once at network-setup time and then shared immutably (wrap in an
/// [`Arc`] via [`MspBuilder::build`]).
///
/// # Examples
///
/// ```
/// use hyperprov_fabric::{MspBuilder, MspId};
///
/// let mut builder = MspBuilder::new(7);
/// let alice = builder.enroll("alice", &MspId::new("org1"));
/// let msp = builder.build();
/// let sig = alice.sign(b"hello");
/// assert!(msp.verify(alice.certificate(), b"hello", &sig));
/// assert!(!msp.verify(alice.certificate(), b"other", &sig));
/// ```
#[derive(Debug)]
pub struct Msp {
    certs: HashMap<CertId, (Certificate, [u8; 32])>,
    orgs: Vec<MspId>,
}

impl Msp {
    /// Verifies `sig` over `message` for `cert`.
    ///
    /// Returns `false` for unknown certificates, mismatching certificate
    /// contents, or wrong tags.
    pub fn verify(&self, cert: &Certificate, message: &[u8], sig: &Signature) -> bool {
        self.verify_parts(cert.borrowed(), &[message], sig)
            .is_some()
    }

    /// [`Msp::verify`] for a certificate and a message read in place: the
    /// message is the concatenation of `parts`. Answers the organisation
    /// the certificate is enrolled under — the registry's own copy, so a
    /// verifier collects endorsing organisations without copying a name.
    pub fn verify_parts(
        &self,
        cert: CertRef<'_>,
        parts: &[&[u8]],
        sig: &Signature,
    ) -> Option<&MspId> {
        let (enrolled, secret) = self.certs.get(&cert.id)?;
        let ok = enrolled.borrowed() == cert && hmac_sha256_parts(secret, parts) == sig.0;
        ok.then_some(&enrolled.org)
    }

    /// All organisations that have enrolled at least one identity,
    /// in enrolment order.
    pub fn orgs(&self) -> &[MspId] {
        &self.orgs
    }

    /// Number of enrolled identities.
    pub fn len(&self) -> usize {
        self.certs.len()
    }

    /// True if nothing is enrolled.
    pub fn is_empty(&self) -> bool {
        self.certs.is_empty()
    }
}

/// Builder that enrols identities before freezing the [`Msp`].
#[derive(Debug)]
pub struct MspBuilder {
    msp: Msp,
    seed: u64,
    counter: u64,
}

impl MspBuilder {
    /// Creates a builder; `seed` makes key material deterministic.
    pub fn new(seed: u64) -> Self {
        MspBuilder {
            msp: Msp {
                certs: HashMap::new(),
                orgs: Vec::new(),
            },
            seed,
            counter: 0,
        }
    }

    /// Enrols a new identity under `org` and returns its signing identity.
    pub fn enroll(&mut self, subject: &str, org: &MspId) -> SigningIdentity {
        self.counter += 1;
        // Deterministic key material: digest of (seed, counter, subject, org).
        let mut enc = Encoder::new();
        enc.put_u64(self.seed);
        enc.put_u64(self.counter);
        enc.put_str(subject);
        enc.put_str(&org.0);
        let secret = *Digest::of(&enc.into_bytes()).as_bytes();
        let mut id_enc = Encoder::new();
        id_enc.put_str(subject);
        id_enc.put_str(&org.0);
        id_enc.put_u64(self.counter);
        let id = CertId(Digest::of(&id_enc.into_bytes()));
        let cert = Certificate {
            subject: subject.to_owned(),
            org: org.clone(),
            id,
        };
        self.msp.certs.insert(id, (cert.clone(), secret));
        if !self.msp.orgs.contains(org) {
            self.msp.orgs.push(org.clone());
        }
        SigningIdentity { cert, secret }
    }

    /// Freezes the registry for shared use.
    pub fn build(self) -> Arc<Msp> {
        Arc::new(self.msp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<Msp>, SigningIdentity, SigningIdentity) {
        let mut b = MspBuilder::new(1);
        let alice = b.enroll("alice", &MspId::new("org1"));
        let bob = b.enroll("bob", &MspId::new("org2"));
        (b.build(), alice, bob)
    }

    #[test]
    fn sign_verify_round_trip() {
        let (msp, alice, _) = setup();
        let sig = alice.sign(b"msg");
        assert!(msp.verify(alice.certificate(), b"msg", &sig));
    }

    #[test]
    fn wrong_message_or_signer_rejected() {
        let (msp, alice, bob) = setup();
        let sig = alice.sign(b"msg");
        assert!(!msp.verify(alice.certificate(), b"other", &sig));
        assert!(!msp.verify(bob.certificate(), b"msg", &sig));
        let bobsig = bob.sign(b"msg");
        assert!(!msp.verify(alice.certificate(), b"msg", &bobsig));
    }

    #[test]
    fn unenrolled_certificate_rejected() {
        let (msp, alice, _) = setup();
        let mut rogue = MspBuilder::new(999);
        let mallory = rogue.enroll("mallory", &MspId::new("org1"));
        let sig = mallory.sign(b"msg");
        assert!(!msp.verify(mallory.certificate(), b"msg", &sig));
        // Forged certificate reusing a valid id but different subject.
        let mut forged = alice.certificate().clone();
        forged.subject = "eve".to_owned();
        assert!(!msp.verify(&forged, b"msg", &alice.sign(b"msg")));
    }

    #[test]
    fn deterministic_enrolment() {
        let mut b1 = MspBuilder::new(5);
        let mut b2 = MspBuilder::new(5);
        let a1 = b1.enroll("a", &MspId::new("org1"));
        let a2 = b2.enroll("a", &MspId::new("org1"));
        assert_eq!(a1.certificate(), a2.certificate());
        assert_eq!(a1.sign(b"x"), a2.sign(b"x"));
        // Different seed gives different keys.
        let mut b3 = MspBuilder::new(6);
        let a3 = b3.enroll("a", &MspId::new("org1"));
        assert_ne!(a1.sign(b"x"), a3.sign(b"x"));
    }

    #[test]
    fn orgs_tracked_in_enrolment_order() {
        let mut b = MspBuilder::new(1);
        b.enroll("p1", &MspId::new("orgB"));
        b.enroll("p2", &MspId::new("orgA"));
        b.enroll("p3", &MspId::new("orgB"));
        let msp = b.build();
        assert_eq!(msp.orgs(), &[MspId::new("orgB"), MspId::new("orgA")]);
        assert_eq!(msp.len(), 3);
        assert!(!msp.is_empty());
    }

    #[test]
    fn certificate_codec_round_trip() {
        let (_, alice, _) = setup();
        let cert = alice.certificate();
        let back = Certificate::from_bytes(&cert.to_bytes()).unwrap();
        assert_eq!(&back, cert);
    }

    #[test]
    fn same_subject_twice_gets_distinct_ids() {
        let mut b = MspBuilder::new(1);
        let c1 = b.enroll("dup", &MspId::new("org1"));
        let c2 = b.enroll("dup", &MspId::new("org1"));
        assert_ne!(c1.certificate().id, c2.certificate().id);
    }
}
