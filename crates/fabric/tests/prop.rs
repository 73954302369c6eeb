//! Property-based tests of the Fabric substrate: endorsement-policy
//! algebra, block-cutter conservation and message codec round-trips.

use std::sync::Arc;

use hyperprov_fabric::{
    endorsement_message, BatchConfig, BlockAssembler, BlockCutter, Certificate, ChaincodeEvent,
    Endorsement, EndorsementPolicy, Envelope, EnvelopeView, MspBuilder, MspId, Proposal,
    ProposalResponse, Signature,
};
use hyperprov_ledger::{
    Decode, Digest, Encode, KvRead, KvWrite, RawEnvelope, RwSet, StateKey, TxId, Version,
};
use hyperprov_sim::SimDuration;
use proptest::prelude::*;

fn org(i: u8) -> MspId {
    MspId::new(format!("org{i}"))
}

fn cert() -> Certificate {
    let mut b = MspBuilder::new(1);
    b.enroll("x", &org(1)).certificate().clone()
}

proptest! {
    #[test]
    fn majority_policy_matches_count(
        n_orgs in 1u8..8,
        endorser_mask in any::<u8>(),
    ) {
        let orgs: Vec<MspId> = (0..n_orgs).map(org).collect();
        let policy = EndorsementPolicy::majority_of(orgs.clone());
        let endorsers: Vec<MspId> = orgs
            .iter()
            .enumerate()
            .filter(|(i, _)| endorser_mask & (1 << i) != 0)
            .map(|(_, o)| o.clone())
            .collect();
        let expected = endorsers.len() > orgs.len() / 2;
        prop_assert_eq!(policy.is_satisfied_by(endorsers.iter()), expected);
    }

    #[test]
    fn adding_endorsers_never_breaks_satisfaction(
        n_orgs in 1u8..6,
        threshold in 1usize..6,
        mask in any::<u8>(),
        extra in 0u8..6,
    ) {
        let orgs: Vec<MspId> = (0..n_orgs).map(org).collect();
        let threshold = threshold.min(orgs.len());
        let policy = EndorsementPolicy::out_of(
            threshold,
            orgs.iter().cloned().map(EndorsementPolicy::signed_by).collect(),
        );
        let mut endorsers: Vec<MspId> = orgs
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, o)| o.clone())
            .collect();
        let before = policy.is_satisfied_by(endorsers.iter());
        endorsers.push(org(extra % n_orgs));
        let after = policy.is_satisfied_by(endorsers.iter());
        // Monotonicity: extra endorsements can only help.
        prop_assert!(!before || after);
    }

    #[test]
    fn cutter_conserves_and_bounds_envelopes(
        sizes in proptest::collection::vec(1usize..2000, 1..60),
        max_count in 1usize..12,
        preferred in 500u64..4000,
    ) {
        let mut cutter = BlockCutter::new(BatchConfig {
            max_message_count: max_count,
            preferred_max_bytes: preferred,
            timeout: SimDuration::from_secs(1),
        });
        let mut batched = 0usize;
        let mut seen_batches = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let env = RawEnvelope {
                tx_id: TxId(Digest::of(&(i as u64).to_le_bytes())),
                bytes: vec![0u8; size].into(),
            };
            let out = cutter.offer(env);
            for batch in out.batches {
                batched += batch.len();
                seen_batches.push(batch);
            }
        }
        if let Some(rest) = cutter.cut() {
            batched += rest.len();
            seen_batches.push(rest);
        }
        // Conservation: every envelope ends up in exactly one batch.
        prop_assert_eq!(batched, sizes.len());
        for batch in &seen_batches {
            prop_assert!(!batch.is_empty());
            prop_assert!(batch.len() <= max_count);
            // Byte bound holds unless the batch is a single oversized
            // message.
            let bytes: u64 = batch.iter().map(|e| e.bytes.len() as u64).sum();
            prop_assert!(bytes <= preferred || batch.len() == 1);
        }
        // Order preserved across batches.
        let flat: Vec<u64> = seen_batches
            .iter()
            .flatten()
            .map(|e| e.bytes.len() as u64)
            .collect();
        let expected: Vec<u64> = sizes.iter().map(|&s| s as u64).collect();
        prop_assert_eq!(flat, expected);
    }

    #[test]
    fn assembled_chains_always_verify(
        batch_sizes in proptest::collection::vec(0usize..6, 1..12),
    ) {
        let mut assembler = BlockAssembler::new();
        let mut store = hyperprov_ledger::BlockStore::new();
        let mut n = 0u64;
        for &count in &batch_sizes {
            let batch: Vec<RawEnvelope> = (0..count)
                .map(|_| {
                    n += 1;
                    RawEnvelope {
                        tx_id: TxId(Digest::of(&n.to_le_bytes())),
                        bytes: n.to_le_bytes().as_slice().into(),
                    }
                })
                .collect();
            let block = assembler.assemble(batch);
            store.append(block).unwrap();
        }
        prop_assert!(store.verify_chain().is_ok());
    }

    #[test]
    fn proposal_codec_round_trips(
        channel in "[a-z]{1,10}",
        chaincode in "[a-z]{1,10}",
        function in "[a-z_]{1,12}",
        args in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..5),
        nonce in any::<u64>(),
    ) {
        let p = Proposal {
            channel: channel.into(),
            chaincode,
            function,
            args,
            creator: cert(),
            nonce,
        };
        let back = Proposal::from_bytes(&p.to_bytes()).unwrap();
        prop_assert_eq!(back.tx_id(), p.tx_id());
        prop_assert_eq!(back, p);
    }

    #[test]
    fn envelope_codec_round_trips(payload in proptest::collection::vec(any::<u8>(), 0..200)) {
        let env = Envelope {
            proposal: Proposal {
                channel: "ch".into(),
                chaincode: "cc".into(),
                function: "f".into(),
                args: vec![payload.clone()],
                creator: cert(),
                nonce: 5,
            },
            payload,
            rwset: RwSet::new(),
            event: None,
            endorsements: vec![],
        };
        let raw = env.to_raw();
        prop_assert_eq!(Envelope::from_raw(&raw).unwrap(), env);
    }

    // The view and the owned decoder accept the same byte strings, and on
    // those the view's spans are what re-encoding the owned value gives:
    // decoding is canonical (a padded varint used to decode too, and made
    // the digest of a span differ from the digest of the re-encoding).
    #[test]
    fn a_damaged_envelope_reads_the_same_in_place_and_owned(
        payload in proptest::collection::vec(any::<u8>(), 0..40),
        reads in 0usize..3,
        writes in 0usize..3,
        endorsements in 0usize..3,
        event in any::<bool>(),
        damage in any::<bool>(),
        at in any::<u16>(),
        kind in 0u8..4,
        byte in any::<u8>(),
    ) {
        let key = |i: usize| StateKey::new("cc", format!("k{i}"));
        let env = Envelope {
            proposal: Proposal {
                channel: "ch".into(),
                chaincode: "cc".into(),
                function: "f".into(),
                args: vec![payload.clone(), vec![]],
                creator: cert(),
                nonce: 5,
            },
            rwset: RwSet {
                reads: (0..reads)
                    .map(|i| KvRead {
                        key: key(i),
                        version: (i > 0).then(|| Version::new(i as u64, 7)),
                    })
                    .collect(),
                writes: (0..writes)
                    .map(|i| KvWrite {
                        key: key(i),
                        value: (i > 0).then(|| payload.as_slice().into()),
                    })
                    .collect(),
            },
            event: event.then(|| ChaincodeEvent::from(("e".to_owned(), payload.clone()))),
            endorsements: (0..endorsements)
                .map(|i| Endorsement {
                    endorser: cert(),
                    signature: Signature(Digest::of(&[i as u8])),
                })
                .collect(),
            payload,
        };
        let mut bytes = env.to_bytes();
        if damage {
            let at = at as usize % bytes.len();
            match kind {
                0 => bytes[at] = byte,
                1 => drop(bytes.splice(at..=at, [bytes[at] | 0x80, 0x00])),
                2 => bytes.truncate(at),
                _ => bytes.push(byte),
            }
        }
        let shared: Arc<[u8]> = bytes.as_slice().into();
        let view = EnvelopeView::parse(&shared);
        let Ok(owned) = Envelope::from_bytes(&bytes) else {
            prop_assert!(view.is_err());
            return Ok(());
        };
        prop_assert!(!damage || owned != env || bytes == env.to_bytes());
        prop_assert_eq!(owned.to_bytes(), &bytes[..]);
        let view = view.unwrap();
        let tx_id = owned.tx_id();
        prop_assert_eq!(view.tx_id(), tx_id);
        prop_assert_eq!(
            [tx_id.0.as_ref(), view.signed()].concat(),
            endorsement_message(&tx_id, &owned.payload, &owned.rwset)
        );
        prop_assert_eq!(view.chaincode(), owned.proposal.chaincode.as_str());
        prop_assert_eq!(view.event(), owned.event.clone());
        let reads = owned.rwset.reads.iter().map(|r| ((&*r.key.namespace, &*r.key.key), r.version));
        prop_assert_eq!(view.reads().collect::<Vec<_>>(), reads.collect::<Vec<_>>());
        prop_assert_eq!(view.writes().collect::<Vec<_>>(), owned.rwset.writes.clone());
        // A write's key and value are ranges of the envelope's bytes.
        let within = |b: &[u8]| b.is_empty() || shared.as_ptr_range().contains(&b.as_ptr());
        prop_assert!(view
            .writes()
            .all(|w| within(w.key.key.as_bytes()) && w.value.as_deref().is_none_or(within)));
        let expected: Vec<_> = owned
            .endorsements
            .iter()
            .map(|e| (e.endorser.borrowed(), e.signature))
            .collect();
        prop_assert_eq!(view.endorsements().collect::<Vec<_>>(), expected);
        let spans = view.spans;
        prop_assert_eq!(spans.creator, owned.proposal.creator.id);
        prop_assert_eq!(spans.endorser, owned.endorsements.first().map(|e| e.endorser.id));
        prop_assert_eq!(spans.writes, owned.rwset.writes.len() as u64);
        let value_bytes = owned.rwset.writes.iter().flat_map(|w| w.value.as_deref()).map(<[u8]>::len);
        prop_assert_eq!(spans.write_bytes, value_bytes.sum::<usize>() as u64);
    }

    #[test]
    fn response_codec_round_trips(ok in any::<bool>(), body in proptest::collection::vec(any::<u8>(), 0..64)) {
        let resp = ProposalResponse {
            tx_id: TxId(Digest::of(b"t")),
            endorser: cert(),
            result: if ok {
                Ok(body.clone())
            } else {
                Err(String::from_utf8_lossy(&body).into_owned())
            },
            rwset: RwSet::new(),
            event: None,
            signature: Signature(Digest::of(b"s")),
        };
        prop_assert_eq!(ProposalResponse::from_bytes(&resp.to_bytes()).unwrap(), resp);
    }

    // Wire sizes are added up, not encoded; lengths from 128 on take a
    // two-byte varint.
    #[test]
    fn wire_sizes_are_the_lengths_of_the_encodings(
        subject in "[a-z]{1,150}",
        channel in "[a-z]{1,140}",
        args in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..3),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        reads in 0usize..3,
        writes in 0usize..3,
        endorsements in 0usize..3,
        event in any::<bool>(),
        ok in any::<bool>(),
    ) {
        let creator = MspBuilder::new(1).enroll(&subject, &org(1)).certificate().clone();
        let key = |i: usize| StateKey::new("cc", "k".repeat(i * 70));
        let rwset = RwSet {
            reads: (0..reads)
                .map(|i| KvRead { key: key(i), version: (i > 0).then(|| Version::new(9, 7)) })
                .collect(),
            writes: (0..writes)
                .map(|i| KvWrite { key: key(i), value: (i > 0).then(|| payload.as_slice().into()) })
                .collect(),
        };
        let event = event.then(|| ChaincodeEvent::from((subject.clone(), payload.clone())));
        let env = Envelope {
            proposal: Proposal {
                channel: channel.as_str().into(),
                chaincode: "cc".into(),
                function: subject.clone(),
                args,
                creator: creator.clone(),
                nonce: 5,
            },
            payload: payload.clone(),
            rwset: rwset.clone(),
            event: event.clone(),
            endorsements: (0..endorsements)
                .map(|i| Endorsement {
                    endorser: creator.clone(),
                    signature: Signature(Digest::of(&[i as u8])),
                })
                .collect(),
        };
        let response = ProposalResponse {
            tx_id: env.tx_id(),
            endorser: creator,
            result: if ok { Ok(payload) } else { Err(channel) },
            rwset,
            event,
            signature: Signature(Digest::of(b"s")),
        };
        prop_assert_eq!(env.proposal.wire_size(), env.proposal.to_bytes().len() as u64);
        prop_assert_eq!(response.wire_size(), response.to_bytes().len() as u64);
        prop_assert_eq!(env.wire_size(), env.to_bytes().len() as u64);
    }

    #[test]
    fn signatures_verify_only_for_signer_and_message(
        msg1 in proptest::collection::vec(any::<u8>(), 1..64),
        msg2 in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut b = MspBuilder::new(9);
        let alice = b.enroll("alice", &org(1));
        let bob = b.enroll("bob", &org(2));
        let msp = b.build();
        let sig = alice.sign(&msg1);
        prop_assert!(msp.verify(alice.certificate(), &msg1, &sig));
        if msg1 != msg2 {
            prop_assert!(!msp.verify(alice.certificate(), &msg2, &sig));
        }
        prop_assert!(!msp.verify(bob.certificate(), &msg1, &sig));
    }
}
