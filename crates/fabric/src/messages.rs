//! Wire messages of the execute-order-validate pipeline: proposals,
//! proposal responses, endorsements and transaction envelopes.
//!
//! All messages have a canonical encoding (hashing and signing operate on
//! those bytes), mirroring Fabric's protobuf envelopes.

use std::sync::Arc;

use hyperprov_ledger::{
    bytes_len, decode_seq, encode_seq, varint_len, Block, ChannelId, CodecError, Decode, Decoder,
    Digest, Encode, Encoder, KvRead, KvWrite, RawEnvelope, RwSet, SnapshotManifest, SnapshotPart,
    TxId, Version, DIGEST_LEN,
};

use hyperprov_sim::ActorId;

use crate::identity::{CertId, CertRef, Certificate, Signature, SigningIdentity};
use crate::raft::RaftMsg;

/// The span-trace key of a transaction: its full tx-id hex string.
///
/// Every pipeline stage derives the key the same way, so client-side and
/// server-side spans of one transaction share a trace (see the
/// "Observability" section of DESIGN.md for the span taxonomy).
pub fn tx_trace(tx_id: &TxId) -> String {
    tx_id.0.to_hex()
}

/// Encoded length of a certificate.
fn cert_len(cert: &Certificate) -> u64 {
    bytes_len(cert.subject.len()) + bytes_len(cert.org.0.len()) + DIGEST_LEN
}

/// Encoded length of an optional chaincode event: a tag byte, then the
/// event.
fn event_len(event: &Option<ChaincodeEvent>) -> u64 {
    1 + event
        .as_ref()
        .map_or(0, |e| bytes_len(e.name.len()) + bytes_len(e.payload.len()))
}

/// A client's request to execute a chaincode function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proposal {
    /// Channel the transaction targets.
    pub channel: ChannelId,
    /// Target chaincode (namespace).
    pub chaincode: String,
    /// Function to invoke.
    pub function: String,
    /// Invocation arguments.
    pub args: Vec<Vec<u8>>,
    /// Submitting client's certificate.
    pub creator: Certificate,
    /// Client-chosen nonce making the tx id unique.
    pub nonce: u64,
}

impl Proposal {
    /// The transaction id: digest of the canonical proposal encoding.
    pub fn tx_id(&self) -> TxId {
        TxId(self.digest())
    }

    /// Wire size in bytes (used by the network model): the length of the
    /// canonical encoding, added up without producing it.
    pub fn wire_size(&self) -> u64 {
        let args: u64 = self.args.iter().map(|arg| bytes_len(arg.len())).sum();
        bytes_len(self.channel.as_str().len())
            + bytes_len(self.chaincode.len())
            + bytes_len(self.function.len())
            + varint_len(self.args.len() as u64)
            + args
            + cert_len(&self.creator)
            + 8
    }
}

impl Encode for Proposal {
    fn encode(&self, enc: &mut Encoder) {
        // Encoded as the bare name: byte-compatible with the pre-ChannelId
        // encoding, so tx ids are unchanged.
        enc.put_str(self.channel.as_str());
        enc.put_str(&self.chaincode);
        enc.put_str(&self.function);
        encode_seq(&self.args, enc);
        self.creator.encode(enc);
        enc.put_u64(self.nonce);
    }
}
impl Decode for Proposal {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Proposal {
            channel: ChannelId::from(dec.get_str()?),
            chaincode: dec.get_str()?,
            function: dec.get_str()?,
            args: decode_seq(dec)?,
            creator: Certificate::decode(dec)?,
            nonce: dec.get_u64()?,
        })
    }
}

/// A proposal plus the client's signature over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedProposal {
    /// The proposal.
    pub proposal: Proposal,
    /// Client signature over the proposal's canonical encoding.
    pub signature: Signature,
}

impl Encode for SignedProposal {
    fn encode(&self, enc: &mut Encoder) {
        self.proposal.encode(enc);
        self.signature.encode(enc);
    }
}
impl Decode for SignedProposal {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(SignedProposal {
            proposal: Proposal::decode(dec)?,
            signature: Signature::decode(dec)?,
        })
    }
}

/// A named event attached to a transaction by chaincode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaincodeEvent {
    /// Event name.
    pub name: String,
    /// Event payload.
    pub payload: Vec<u8>,
}

impl Encode for ChaincodeEvent {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        enc.put_bytes(&self.payload);
    }
}
impl Decode for ChaincodeEvent {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ChaincodeEvent {
            name: dec.get_str()?,
            payload: dec.get_bytes()?,
        })
    }
}

impl From<(String, Vec<u8>)> for ChaincodeEvent {
    fn from((name, payload): (String, Vec<u8>)) -> Self {
        ChaincodeEvent { name, payload }
    }
}

/// The outcome an endorsing peer returns for a proposal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProposalResponse {
    /// Transaction id of the endorsed proposal.
    pub tx_id: TxId,
    /// The endorsing peer's certificate.
    pub endorser: Certificate,
    /// Chaincode return value, or the rejection message.
    pub result: Result<Vec<u8>, String>,
    /// Read/write set produced by simulation (empty on rejection).
    pub rwset: RwSet,
    /// Chaincode event raised during simulation, if any.
    pub event: Option<ChaincodeEvent>,
    /// Endorser's signature over [`endorsement_message`].
    ///
    /// [`endorsement_message`]: endorsement_message
    pub signature: Signature,
}

impl ProposalResponse {
    /// The peer `identity`'s signed refusal of transaction `tx_id`.
    pub fn refused(identity: &SigningIdentity, tx_id: TxId, reason: String) -> Self {
        ProposalResponse {
            tx_id,
            endorser: identity.certificate().clone(),
            result: Err(reason),
            rwset: RwSet::new(),
            event: None,
            signature: identity.sign(&endorsement_message(&tx_id, &[], &RwSet::new())),
        }
    }

    /// Wire size in bytes: the length of the canonical encoding, added up
    /// without producing it.
    pub fn wire_size(&self) -> u64 {
        let result = match &self.result {
            Ok(payload) => bytes_len(payload.len()),
            Err(msg) => bytes_len(msg.len()),
        };
        DIGEST_LEN
            + cert_len(&self.endorser)
            + 1
            + result
            + self.rwset.wire_size()
            + event_len(&self.event)
            + DIGEST_LEN
    }
}

impl Encode for ProposalResponse {
    fn encode(&self, enc: &mut Encoder) {
        self.tx_id.encode(enc);
        self.endorser.encode(enc);
        match &self.result {
            Ok(payload) => {
                enc.put_u8(1);
                enc.put_bytes(payload);
            }
            Err(msg) => {
                enc.put_u8(0);
                enc.put_str(msg);
            }
        }
        self.rwset.encode(enc);
        self.event.encode(enc);
        self.signature.encode(enc);
    }
}
impl Decode for ProposalResponse {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let tx_id = TxId::decode(dec)?;
        let endorser = Certificate::decode(dec)?;
        let result = match dec.get_u8()? {
            1 => Ok(dec.get_bytes()?),
            0 => Err(dec.get_str()?),
            _ => return Err(CodecError::Invalid("result tag not 0 or 1")),
        };
        Ok(ProposalResponse {
            tx_id,
            endorser,
            result,
            rwset: RwSet::decode(dec)?,
            event: Option::<ChaincodeEvent>::decode(dec)?,
            signature: Signature::decode(dec)?,
        })
    }
}

/// The bytes an endorser signs: binds tx id, response payload and rwset.
pub fn endorsement_message(tx_id: &TxId, payload: &[u8], rwset: &RwSet) -> Vec<u8> {
    let mut enc = Encoder::new();
    tx_id.encode(&mut enc);
    enc.put_bytes(payload);
    rwset.encode(&mut enc);
    enc.into_bytes()
}

/// One peer's endorsement attached to a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endorsement {
    /// The endorsing peer's certificate.
    pub endorser: Certificate,
    /// Signature over [`endorsement_message`].
    pub signature: Signature,
}

impl Encode for Endorsement {
    fn encode(&self, enc: &mut Encoder) {
        self.endorser.encode(enc);
        self.signature.encode(enc);
    }
}
impl Decode for Endorsement {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Endorsement {
            endorser: Certificate::decode(dec)?,
            signature: Signature::decode(dec)?,
        })
    }
}

/// A fully-assembled transaction submitted to ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The original proposal (committers re-check creator and target).
    pub proposal: Proposal,
    /// The agreed response payload.
    pub payload: Vec<u8>,
    /// The agreed read/write set.
    pub rwset: RwSet,
    /// Chaincode event raised during simulation, if any.
    pub event: Option<ChaincodeEvent>,
    /// Endorsements collected by the client.
    pub endorsements: Vec<Endorsement>,
}

impl Envelope {
    /// The transaction id (derived from the proposal).
    pub fn tx_id(&self) -> TxId {
        self.proposal.tx_id()
    }

    /// Serialises into the opaque [`RawEnvelope`] stored in blocks. The
    /// proposal is encoded once: its tx id is the digest of the prefix of
    /// the envelope's bytes that it is.
    pub fn to_raw(&self) -> RawEnvelope {
        let mut enc = Encoder::new();
        self.proposal.encode(&mut enc);
        let proposal_len = enc.len();
        self.encode_after_proposal(&mut enc);
        let bytes = enc.into_bytes();
        RawEnvelope {
            tx_id: TxId(Digest::of(&bytes[..proposal_len])),
            bytes: bytes.into(),
        }
    }

    fn encode_after_proposal(&self, enc: &mut Encoder) {
        enc.put_bytes(&self.payload);
        self.rwset.encode(enc);
        self.event.encode(enc);
        encode_seq(&self.endorsements, enc);
    }

    /// Decodes an envelope back out of a block.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the raw bytes are malformed.
    pub fn from_raw(raw: &RawEnvelope) -> Result<Envelope, CodecError> {
        Envelope::from_bytes(&raw.bytes)
    }

    /// Wire size in bytes: the length of the canonical encoding, added up
    /// without producing it.
    pub fn wire_size(&self) -> u64 {
        let endorsements: u64 = self
            .endorsements
            .iter()
            .map(|e| cert_len(&e.endorser) + DIGEST_LEN)
            .sum();
        self.proposal.wire_size()
            + bytes_len(self.payload.len())
            + self.rwset.wire_size()
            + event_len(&self.event)
            + varint_len(self.endorsements.len() as u64)
            + endorsements
    }
}

impl Encode for Envelope {
    fn encode(&self, enc: &mut Encoder) {
        self.proposal.encode(enc);
        self.encode_after_proposal(enc);
    }
}
impl Decode for Envelope {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Envelope {
            proposal: Proposal::decode(dec)?,
            payload: dec.get_bytes()?,
            rwset: RwSet::decode(dec)?,
            event: Option::<ChaincodeEvent>::decode(dec)?,
            endorsements: decode_seq(dec)?,
        })
    }
}

/// Where the parts of an encoded [`Envelope`] begin, as
/// [`EnvelopeView::parse`] found them, with the values the commit path
/// reads more than once. Offsets, not borrows: a verdict keeps these past
/// the borrow of the block it was computed from, and
/// [`EnvelopeView::over`] puts them back on the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvelopeSpans {
    proposal_end: usize,
    reads_at: usize,
    writes_at: usize,
    event_at: usize,
    endorsements_at: usize,
    /// Enrolment id of the submitting client's certificate.
    pub creator: CertId,
    /// Enrolment id of the first endorsement's certificate, if any.
    pub endorser: Option<CertId>,
    /// Number of writes in the write set.
    pub writes: u64,
    /// Total value bytes of the writes.
    pub write_bytes: u64,
}

/// An encoded [`Envelope`] read in place, in a [`RawEnvelope`]'s shared
/// bytes. [`EnvelopeView::parse`] is the one validating pass: it accepts
/// exactly the byte strings [`Envelope::from_bytes`] accepts and copies
/// none of them. The tx id and the message the endorsers signed are spans
/// of the bytes, because [`Envelope::encode`] writes `proposal ‖
/// put_bytes(payload) ‖ rwset ‖ event ‖ endorsements` and
/// [`endorsement_message`] is `tx_id ‖ put_bytes(payload) ‖ rwset`. What
/// the ledger keeps of a valid transaction — its writes' keys and values —
/// are ranges of the same bytes; only its event is copied out.
#[derive(Debug, Clone, Copy)]
pub struct EnvelopeView<'a> {
    bytes: &'a Arc<[u8]>,
    /// What [`EnvelopeView::parse`] recorded.
    pub spans: EnvelopeSpans,
}

impl<'a> EnvelopeView<'a> {
    /// Validates `bytes` as one whole envelope and records where its parts
    /// begin.
    pub fn parse(bytes: &'a Arc<[u8]>) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes);
        dec.get_str_ref()?; // channel
        dec.get_str_ref()?; // chaincode
        dec.get_str_ref()?; // function
        for _ in 0..dec.get_count()? {
            dec.get_slice()?; // argument
        }
        let creator = CertRef::decode(&mut dec)?.id;
        dec.get_u64()?; // nonce
        let proposal_end = dec.position();
        dec.get_slice()?; // payload
        let reads_at = dec.position();
        for _ in 0..dec.get_count()? {
            KvRead::decode_borrowed(&mut dec)?;
        }
        let writes_at = dec.position();
        let writes = dec.get_count()?;
        let mut write_bytes = 0;
        for _ in 0..writes {
            write_bytes += KvWrite::skip(&mut dec)?;
        }
        let event_at = dec.position();
        if dec.get_option_tag()? {
            dec.get_str_ref()?; // event name
            dec.get_slice()?; // event payload
        }
        let endorsements_at = dec.position();
        let mut endorser = None;
        for _ in 0..dec.get_count()? {
            let (cert, _) = endorsement_ref(&mut dec)?;
            endorser.get_or_insert(cert.id);
        }
        dec.finish()?;
        let spans = EnvelopeSpans {
            proposal_end,
            reads_at,
            writes_at,
            event_at,
            endorsements_at,
            creator,
            endorser,
            writes: writes as u64,
            write_bytes: write_bytes as u64,
        };
        Ok(EnvelopeView { bytes, spans })
    }

    /// The view `spans` came from, over the bytes it came from (on other
    /// bytes its getters may panic).
    pub fn over(bytes: &'a Arc<[u8]>, spans: EnvelopeSpans) -> Self {
        EnvelopeView { bytes, spans }
    }

    /// The transaction id: the digest of the proposal's span.
    pub fn tx_id(&self) -> TxId {
        TxId(Digest::of(&self.bytes[..self.spans.proposal_end]))
    }

    /// `put_bytes(payload) ‖ rwset`: with the tx id before it, the message
    /// every endorsement signed.
    pub fn signed(&self) -> &'a [u8] {
        &self.bytes[self.spans.proposal_end..self.spans.event_at]
    }

    /// The target chaincode's name: the proposal's second string.
    pub fn chaincode(&self) -> &'a str {
        let mut dec = Decoder::new(self.bytes);
        let name = dec.get_str_ref().and_then(|_channel| dec.get_str_ref());
        name.unwrap_or_default()
    }

    /// The read set, in order: each read's namespace and key, borrowed
    /// from the envelope, and the version it observed.
    pub fn reads(&self) -> impl Iterator<Item = ((&'a str, &'a str), Option<Version>)> + 'a {
        items(self.bytes, self.spans.reads_at, KvRead::decode_borrowed)
    }

    /// The write set, in order, each write decoded as it is reached: its
    /// key and its value are ranges of the envelope's bytes.
    pub fn writes(&self) -> impl Iterator<Item = KvWrite> + 'a {
        items(self.bytes, self.spans.writes_at, KvWrite::decode)
    }

    /// The chaincode event, copied out.
    pub fn event(&self) -> Option<ChaincodeEvent> {
        let bytes = &self.bytes[self.spans.event_at..self.spans.endorsements_at];
        Option::from_bytes(bytes).ok().flatten()
    }

    /// The endorsements, in order: certificate and signature.
    pub fn endorsements(&self) -> impl Iterator<Item = (CertRef<'a>, Signature)> + 'a {
        items(self.bytes, self.spans.endorsements_at, endorsement_ref)
    }
}

/// One encoded [`Endorsement`], read in place.
fn endorsement_ref<'a>(dec: &mut Decoder<'a>) -> Result<(CertRef<'a>, Signature), CodecError> {
    Ok((CertRef::decode(dec)?, Signature::decode(dec)?))
}

/// The counted sequence at `bytes[at..]`, item by item, its shared
/// strings ranges of `bytes`. `parse` accepted these bytes item by item
/// too, so the `Err` arms are unreachable.
fn items<'a, T: 'a>(
    bytes: &'a Arc<[u8]>,
    at: usize,
    decode: fn(&mut Decoder<'a>) -> Result<T, CodecError>,
) -> impl Iterator<Item = T> + 'a {
    let mut dec = Decoder::sharing(bytes, at);
    let n = dec.get_count().unwrap_or(0);
    (0..n).map_while(move |_| decode(&mut dec).ok())
}

/// A commit notification delivered to subscribed clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitEvent {
    /// Channel the transaction committed on.
    pub channel: ChannelId,
    /// The committed transaction.
    pub tx_id: TxId,
    /// Block that contains it.
    pub block_number: u64,
    /// Validation outcome.
    pub code: hyperprov_ledger::ValidationCode,
    /// Chaincode event attached by the contract, if any.
    pub chaincode_event: Option<ChaincodeEvent>,
    /// Enrolment id of the submitting client's certificate (`None` when
    /// the envelope did not decode). Peers send the event to the client
    /// subscribed under this id alone; an event without one goes to every
    /// subscriber.
    pub creator: Option<CertId>,
    /// Enrolment id of the certificate on the envelope's first
    /// endorsement (`None` when it carries none, or did not decode). The
    /// peer holding that certificate is the one that sends the event, so
    /// a client hears of each transaction once, from a peer it asked,
    /// wherever it is subscribed; an event without one is sent by every
    /// peer.
    pub endorser: Option<CertId>,
}

/// Digest of arbitrary payload bytes — convenience for checksum fields.
pub fn payload_checksum(data: &[u8]) -> Digest {
    Digest::of(data)
}

/// Rejection reason carried by a [`ProposalResponse`] when an endorsing
/// peer sheds a proposal at admission (its bounded queue is full).
pub const BUSY_REASON: &str = "admission queue full";

/// Messages exchanged by Fabric nodes.
#[derive(Debug, Clone)]
pub enum FabricMsg {
    /// Client → endorsing peer.
    SubmitProposal(SignedProposal),
    /// Endorsing peer → client.
    ProposalResult(ProposalResponse),
    /// Client → orderer: an assembled transaction; one that asks is
    /// answered with a [`FabricMsg::BroadcastAck`].
    Broadcast {
        /// The transaction, shared with the client, which keeps it to send
        /// again.
        envelope: Arc<Envelope>,
        /// Whether the envelope asks for the orderer's answer.
        ack: bool,
        /// Whether the client sent it before: a node that holds it, or
        /// ordered it within its retained tail, does not order it again.
        copy: bool,
    },
    /// Orderer → client: an envelope that asked was taken in (or forwarded
    /// to the raft leader), or dropped.
    BroadcastAck {
        /// The envelope's transaction.
        tx_id: TxId,
        /// False when the envelope was dropped.
        accepted: bool,
    },
    /// Orderer → peers: a cut block on one channel. The block is shared:
    /// an orderer fanning one block out to N peers (plus its own retained
    /// copy) clones an [`Arc`], not the payload.
    DeliverBlock(ChannelId, Arc<Block>),
    /// Peer → orderer: re-deliver blocks from a height (Fabric's deliver
    /// service; used to catch up after partitions).
    DeliverRequest {
        /// Channel whose chain has the gap.
        channel: ChannelId,
        /// First block height the peer is missing.
        from: u64,
    },
    /// Committing peer → subscribed client.
    Commit(CommitEvent),
    /// Client → peer: did this transaction commit? A peer that recorded a
    /// validation code for it answers with a
    /// [`FabricMsg::CommitStatusAnswer`], any other peer of the channel
    /// with a [`FabricMsg::CommitStatusNotFound`].
    CommitStatus {
        /// The transaction's channel.
        channel: ChannelId,
        /// The transaction.
        tx_id: TxId,
    },
    /// Peer → client that asked: the commit event of the transaction,
    /// carrying the code the peer recorded; its block number is the
    /// peer's last block (the transaction is in it or below it), and it
    /// names neither creator nor endorser.
    CommitStatusAnswer(CommitEvent),
    /// Peer → client that asked: no code is recorded here for the
    /// transaction — Fabric's "no such transaction ID". It ends nothing:
    /// the asking client probes its next peer.
    CommitStatusNotFound(TxId),
    /// Orderer ↔ orderer consensus traffic. A batch rides as the body the
    /// leader proposed: every member's log and block share it.
    Raft(Box<RaftMsg<Arc<[RawEnvelope]>>>),
    /// Catch-up peer → provider peer: the snapshot catch-up protocol's
    /// opening message, asking for the latest snapshot's manifest.
    SnapshotRequest {
        /// Channel to catch up on.
        channel: ChannelId,
    },
    /// Provider peer → catch-up peer: the latest snapshot's manifest, or
    /// `None` when the provider holds no snapshot (the requester then
    /// tries its next provider or falls back to block re-delivery).
    SnapshotOffer {
        /// Channel the manifest describes.
        channel: ChannelId,
        /// The offered snapshot's manifest, if any.
        manifest: Option<Box<SnapshotManifest>>,
    },
    /// Catch-up peer → provider peer: fetch one part (a state chunk or
    /// the history/seen tail) of the offered snapshot.
    SnapshotPartRequest {
        /// Channel being caught up.
        channel: ChannelId,
        /// Height of the snapshot the part belongs to.
        height: u64,
        /// Part index within the snapshot's manifest.
        index: u32,
    },
    /// Provider peer → catch-up peer: one snapshot part, or `None` when
    /// the provider no longer holds a snapshot at that height.
    SnapshotPartData {
        /// Channel being caught up.
        channel: ChannelId,
        /// Height of the snapshot the part belongs to.
        height: u64,
        /// Part index within the snapshot's manifest.
        index: u32,
        /// The part's payload (shared, not cloned, on fan-out).
        part: Option<Arc<SnapshotPart>>,
    },
    /// Deployment → peer: start catching up on a hosted channel (the
    /// elastic-membership join hook for freshly added peers).
    JoinChannel {
        /// Channel to join.
        channel: ChannelId,
    },
    /// Deployment or peer → orderer: add `peer` to the channel's block
    /// delivery fan-out (elastic membership).
    DeliverSubscribe {
        /// Channel whose delivery list grows.
        channel: ChannelId,
        /// The peer to start delivering blocks to.
        peer: ActorId,
    },
}

impl FabricMsg {
    /// Approximate wire size used by the network model.
    pub fn wire_size(&self) -> u64 {
        match self {
            FabricMsg::SubmitProposal(sp) => sp.proposal.wire_size() + 32,
            FabricMsg::ProposalResult(pr) => pr.wire_size(),
            FabricMsg::Broadcast { envelope, .. } => envelope.wire_size(),
            FabricMsg::BroadcastAck { .. } => 64,
            FabricMsg::DeliverBlock(_, b) => b.wire_size(),
            FabricMsg::DeliverRequest { .. } => 64,
            FabricMsg::Commit(_) => 128,
            FabricMsg::CommitStatus { .. } => 64,
            FabricMsg::CommitStatusAnswer(_) => 128,
            FabricMsg::CommitStatusNotFound(_) => 64,
            FabricMsg::SnapshotRequest { .. } => 64,
            FabricMsg::SnapshotOffer { manifest, .. } => {
                64 + manifest.as_ref().map_or(0, |m| m.wire_size())
            }
            FabricMsg::SnapshotPartRequest { .. } => 64,
            FabricMsg::SnapshotPartData { part, .. } => {
                64 + part.as_ref().map_or(0, |p| p.wire_size())
            }
            FabricMsg::JoinChannel { .. } => 64,
            FabricMsg::DeliverSubscribe { .. } => 64,
            FabricMsg::Raft(m) => match m.as_ref() {
                RaftMsg::AppendEntries { entries, .. } => {
                    128 + entries
                        .iter()
                        .map(|e| {
                            e.payload
                                .iter()
                                .map(|r| r.bytes.len() as u64 + 40)
                                .sum::<u64>()
                        })
                        .sum::<u64>()
                }
                _ => 64,
            },
        }
    }
}

pub use hyperprov_sim::Carries;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::{MspBuilder, MspId};
    use hyperprov_ledger::{KvWrite, StateKey};

    fn cert() -> Certificate {
        let mut b = MspBuilder::new(3);
        b.enroll("c", &MspId::new("org1")).certificate().clone()
    }

    fn proposal() -> Proposal {
        Proposal {
            channel: "ch1".into(),
            chaincode: "hyperprov".into(),
            function: "post".into(),
            args: vec![b"key".to_vec(), b"checksum".to_vec()],
            creator: cert(),
            nonce: 42,
        }
    }

    #[test]
    fn proposal_round_trip_and_txid_stability() {
        let p = proposal();
        let back = Proposal::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.tx_id(), p.tx_id());
        // Nonce changes the tx id.
        let mut p2 = p.clone();
        p2.nonce = 43;
        assert_ne!(p2.tx_id(), p.tx_id());
        assert!(p.wire_size() > 0);
    }

    #[test]
    fn signed_proposal_round_trip() {
        let mut b = MspBuilder::new(3);
        let id = b.enroll("c", &MspId::new("org1"));
        let msp = b.build();
        let p = Proposal {
            creator: id.certificate().clone(),
            ..proposal()
        };
        let sp = SignedProposal {
            signature: id.sign(&p.to_bytes()),
            proposal: p,
        };
        let back = SignedProposal::from_bytes(&sp.to_bytes()).unwrap();
        assert_eq!(back, sp);
        assert!(msp.verify(
            &back.proposal.creator,
            &back.proposal.to_bytes(),
            &back.signature
        ));
    }

    #[test]
    fn proposal_response_round_trips_both_variants() {
        let ok = ProposalResponse {
            tx_id: proposal().tx_id(),
            endorser: cert(),
            result: Ok(b"payload".to_vec()),
            rwset: RwSet::new(),
            event: Some(ChaincodeEvent {
                name: "posted".into(),
                payload: b"e".to_vec(),
            }),
            signature: Signature(Digest::of(b"sig")),
        };
        assert!(ok.result.is_ok());
        assert_eq!(ProposalResponse::from_bytes(&ok.to_bytes()).unwrap(), ok);
        let err = ProposalResponse {
            result: Err("rejected: dup".to_owned()),
            ..ok
        };
        assert!(err.result.is_err());
        assert_eq!(ProposalResponse::from_bytes(&err.to_bytes()).unwrap(), err);
    }

    #[test]
    fn envelope_round_trip_via_raw() {
        let rwset = RwSet {
            reads: vec![],
            writes: vec![KvWrite {
                key: StateKey::new("hyperprov", "item"),
                value: Some(b"record".as_slice().into()),
            }],
        };
        let env = Envelope {
            proposal: proposal(),
            payload: b"resp".to_vec(),
            rwset,
            event: None,
            endorsements: vec![Endorsement {
                endorser: cert(),
                signature: Signature(Digest::of(b"e")),
            }],
        };
        let raw = env.to_raw();
        assert_eq!(raw.tx_id, env.tx_id());
        let back = Envelope::from_raw(&raw).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn endorsement_message_binds_all_parts() {
        let tx = proposal().tx_id();
        let rw = RwSet::new();
        let base = endorsement_message(&tx, b"p", &rw);
        assert_ne!(base, endorsement_message(&tx, b"q", &rw));
        let rw2 = RwSet {
            reads: vec![],
            writes: vec![KvWrite {
                key: StateKey::new("cc", "k"),
                value: None,
            }],
        };
        assert_ne!(base, endorsement_message(&tx, b"p", &rw2));
    }

    #[test]
    fn malformed_envelope_rejected() {
        let raw = RawEnvelope {
            tx_id: proposal().tx_id(),
            bytes: [1, 2, 3].as_slice().into(),
        };
        assert!(Envelope::from_raw(&raw).is_err());
    }
}
