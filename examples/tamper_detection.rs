//! Tamper detection: the integrity story that motivates putting
//! provenance on a blockchain. An attacker corrupts the off-chain store
//! and even attempts to rewrite a peer's chain history; both are caught.
//!
//! Run with: `cargo run --example tamper_detection`

use std::sync::Arc;

use hyperprov_repro::hyperprov::{audit, AuditFinding, HyperProv, HyperProvError};
use hyperprov_repro::offchain::ObjectStore;

fn main() -> Result<(), HyperProvError> {
    let mut hp = HyperProv::desktop();

    // A lab stores three evidence files.
    let originals: Vec<(String, Vec<u8>)> = (0..3)
        .map(|i| {
            (
                format!("evidence-{i}"),
                format!("exhibit #{i} contents").into_bytes(),
            )
        })
        .collect();
    for (key, data) in &originals {
        hp.store_data(key, data.clone(), vec![], vec![])?;
    }
    let ledger0 = hp.network().ledgers[0].clone();
    let clean = audit(&ledger0.borrow(), hp.network().store.as_ref()).is_clean();
    println!(
        "stored {} evidence items; audit: clean = {clean}",
        originals.len()
    );

    // --- Attack 1: corrupt the off-chain payload in place. ---
    let record = hp.get("evidence-1")?;
    let object = record
        .location
        .rsplit('/')
        .next()
        .expect("location")
        .to_owned();
    hp.network().store.tamper(&object, b"doctored contents");
    println!("\nattacker overwrote off-chain object {}", &object[..8]);

    match hp.get_data("evidence-1") {
        Err(HyperProvError::IntegrityViolation { expected, actual }) => {
            println!(
                "client caught it: chain says {} but payload hashes to {}",
                expected.short(),
                actual.short()
            );
        }
        other => panic!("tamper went unnoticed: {other:?}"),
    }
    assert!(!hp.check_data("evidence-1")?);
    assert!(hp.check_data("evidence-0")?); // others untouched

    // The periodic audit pinpoints the damaged item.
    let ledger = hp.network().ledgers[0].clone();
    let report = audit(&ledger.borrow(), hp.network().store.as_ref());
    for finding in &report.findings {
        println!("audit finding: {finding}");
    }
    assert!(report
        .findings
        .iter()
        .any(|f| matches!(f, AuditFinding::TamperedPayload { key, .. } if key == "evidence-1")));

    // --- Attack 2: delete the object outright. ---
    let record = hp.get("evidence-2")?;
    let object = record
        .location
        .rsplit('/')
        .next()
        .expect("location")
        .to_owned();
    hp.network().store.delete(&object).expect("delete");
    let report = audit(&ledger.borrow(), hp.network().store.as_ref());
    assert!(report
        .findings
        .iter()
        .any(|f| matches!(f, AuditFinding::MissingPayload { key, .. } if key == "evidence-2")));
    println!("\nattacker deleted evidence-2's payload; audit reports it missing");

    // --- Attack 3: rewrite one peer's chain history. ---
    // Every block commits to its transactions (Merkle root) and to the
    // previous header, and the peers hold replicas: a rewritten byte on
    // one peer breaks that peer's chain, and no other.
    let mut victim = hp.network().ledgers[1].borrow_mut();
    let block = victim.tamper(1).expect("block 1 is stored");
    Arc::make_mut(&mut Arc::make_mut(&mut block.envelopes)[0].bytes)[0] ^= 1;
    drop(victim);
    for (i, ledger) in hp.network().ledgers.iter().enumerate() {
        let report = audit(&ledger.borrow(), hp.network().store.as_ref());
        let broken = report
            .findings
            .iter()
            .find(|f| matches!(f, AuditFinding::ChainBroken { .. }));
        assert_eq!(broken.is_some(), i == 1);
        match broken {
            Some(finding) => println!("peer{i}: {finding}"),
            None => println!("peer{i}: {} blocks verified", report.blocks_checked),
        }
    }
    println!("\nhistory cannot be silently rewritten: the hash chain names the peer");
    Ok(())
}
