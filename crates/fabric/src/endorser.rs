//! Endorsement: simulate a proposal against committed state and sign the
//! result.

use std::sync::Arc;

use hyperprov_ledger::{Digest, Encode, ProvGraph, StateDb, TxId};

use crate::chaincode::{Chaincode, ChaincodeStub, StubStats};
use crate::identity::{Msp, SigningIdentity};
use crate::messages::{endorsement_message, ProposalResponse, SignedProposal};

/// Executes one signed proposal and produces the endorsement response plus
/// the resource stats the cost model needs.
///
/// Mirrors a Fabric endorsing peer's ESCC path: verify the client
/// signature, dispatch to the peer's one installed chaincode (a proposal
/// naming any other is refused), capture the read/write set, sign
/// `(tx_id, payload, rwset)`.
///
/// `graph` is the channel's materialized provenance DAG index, exposed to
/// chaincode via [`ChaincodeStub::graph`] (pass `None` when the hosting
/// peer maintains no index).
pub fn endorse(
    identity: &SigningIdentity,
    chaincode: &dyn Chaincode,
    msp: &Arc<Msp>,
    state: &StateDb,
    graph: Option<&ProvGraph>,
    signed: &SignedProposal,
) -> (ProposalResponse, StubStats) {
    let proposal = &signed.proposal;
    // Encode once: the tx id is the digest of the canonical encoding and
    // the client signature covers the same bytes.
    let proposal_bytes = proposal.to_bytes();
    let tx_id = TxId(Digest::of(&proposal_bytes));

    let fail = |why: String| ProposalResponse::refused(identity, tx_id, why);

    // Authenticate the client.
    if !msp.verify(&proposal.creator, &proposal_bytes, &signed.signature) {
        return (
            fail("invalid client signature".to_owned()),
            StubStats::default(),
        );
    }

    if proposal.chaincode != chaincode.name() {
        return (
            fail(format!("chaincode {:?} not installed", proposal.chaincode)),
            StubStats::default(),
        );
    }

    let mut stub = ChaincodeStub::new(
        &proposal.chaincode,
        &proposal.function,
        &proposal.args,
        &proposal.creator,
        state,
    );
    if let Some(graph) = graph {
        stub = stub.with_graph(graph);
    }
    let result = chaincode.invoke(&mut stub);
    let (rwset, event, stats) = stub.into_results();

    let response = match result {
        Ok(payload) => {
            let signature = identity.sign(&endorsement_message(&tx_id, &payload, &rwset));
            ProposalResponse {
                tx_id,
                endorser: identity.certificate().clone(),
                result: Ok(payload),
                rwset,
                event: event.map(Into::into),
                signature,
            }
        }
        Err(err) => fail(err.to_string()),
    };
    (response, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::ChaincodeError;
    use crate::identity::{MspBuilder, MspId, Signature};
    use crate::messages::Proposal;
    use hyperprov_ledger::Digest;

    struct Kv;
    impl Chaincode for Kv {
        fn name(&self) -> &str {
            "kv"
        }
        fn invoke(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
            match stub.function() {
                "put" => {
                    let key = stub.arg_str(0)?.to_owned();
                    let value = stub.arg_bytes(1)?.to_vec();
                    stub.put_state(&key, value);
                    stub.set_event("put", key.into_bytes());
                    Ok(Vec::new())
                }
                "get" => {
                    let key = stub.arg_str(0)?.to_owned();
                    stub.get_state(&key).ok_or(ChaincodeError::NotFound(key))
                }
                other => Err(ChaincodeError::UnknownFunction(other.to_owned())),
            }
        }
    }

    struct Setup {
        msp: Arc<Msp>,
        client: SigningIdentity,
        peer: SigningIdentity,
        state: StateDb,
    }

    use crate::identity::Msp;

    fn setup() -> Setup {
        let mut b = MspBuilder::new(1);
        let client = b.enroll("client", &MspId::new("org1"));
        let peer = b.enroll("peer0", &MspId::new("org1"));
        Setup {
            msp: b.build(),
            client,
            peer,
            state: StateDb::new(),
        }
    }

    fn signed(
        client: &SigningIdentity,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
    ) -> SignedProposal {
        let proposal = Proposal {
            channel: "ch".into(),
            chaincode: chaincode.into(),
            function: function.into(),
            args,
            creator: client.certificate().clone(),
            nonce: 9,
        };
        SignedProposal {
            signature: client.sign(&proposal.to_bytes()),
            proposal,
        }
    }

    #[test]
    fn successful_endorsement_is_signed_and_carries_rwset() {
        let s = setup();
        let sp = signed(&s.client, "kv", "put", vec![b"k".to_vec(), b"v".to_vec()]);
        let (resp, stats) = endorse(&s.peer, &Kv, &s.msp, &s.state, None, &sp);
        assert!(resp.result.is_ok());
        assert_eq!(resp.rwset.writes.len(), 1);
        assert_eq!(resp.event.as_ref().unwrap().name, "put");
        assert_eq!(stats.writes, 1);
        // The signature verifies against the endorsement message.
        let msg = endorsement_message(&resp.tx_id, resp.result.as_ref().unwrap(), &resp.rwset);
        assert!(s.msp.verify(&resp.endorser, &msg, &resp.signature));
    }

    #[test]
    fn bad_client_signature_rejected() {
        let s = setup();
        let mut sp = signed(&s.client, "kv", "put", vec![b"k".to_vec(), b"v".to_vec()]);
        sp.signature = Signature(Digest::of(b"forged"));
        let (resp, _) = endorse(&s.peer, &Kv, &s.msp, &s.state, None, &sp);
        assert!(resp.result.is_err());
        assert!(resp.result.unwrap_err().contains("signature"));
        assert!(resp.rwset.is_empty());
    }

    #[test]
    fn unknown_chaincode_rejected() {
        let s = setup();
        let sp = signed(&s.client, "ghost", "put", vec![]);
        let (resp, _) = endorse(&s.peer, &Kv, &s.msp, &s.state, None, &sp);
        assert!(resp.result.is_err());
        assert!(resp.result.unwrap_err().contains("not installed"));
    }

    #[test]
    fn chaincode_error_propagates_as_rejection() {
        let s = setup();
        let sp = signed(&s.client, "kv", "get", vec![b"missing".to_vec()]);
        let (resp, _) = endorse(&s.peer, &Kv, &s.msp, &s.state, None, &sp);
        assert!(resp.result.is_err());
        assert!(resp.result.unwrap_err().contains("not found"));
        // The read of the missing key is still recorded in stats.
        let sp2 = signed(&s.client, "kv", "nope", vec![]);
        let (resp2, _) = endorse(&s.peer, &Kv, &s.msp, &s.state, None, &sp2);
        assert!(resp2.result.unwrap_err().contains("unknown function"));
    }

    #[test]
    fn two_endorsers_produce_identical_rwsets() {
        let mut b = MspBuilder::new(1);
        let client = b.enroll("client", &MspId::new("org1"));
        let peer1 = b.enroll("peer1", &MspId::new("org1"));
        let peer2 = b.enroll("peer2", &MspId::new("org2"));
        let msp = b.build();
        let state = StateDb::new();
        let sp = signed(&client, "kv", "put", vec![b"k".to_vec(), b"v".to_vec()]);
        let (r1, _) = endorse(&peer1, &Kv, &msp, &state, None, &sp);
        let (r2, _) = endorse(&peer2, &Kv, &msp, &state, None, &sp);
        assert_eq!(r1.rwset, r2.rwset);
        assert_eq!(r1.result, r2.result);
        assert_ne!(r1.signature, r2.signature); // different keys
    }
}
