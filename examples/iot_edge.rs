//! IoT at the edge: the paper's motivating scenario. A Raspberry Pi
//! network of camera nodes stores frames, derives motion-detection events
//! from them, and an auditor verifies the whole pipeline — then we meter
//! the energy the edge device spent, ODROID-style.
//!
//! Run with: `cargo run --example iot_edge`

use hyperprov_repro::device::{EnergyModel, PowerMeter};
use hyperprov_repro::hyperprov::{HyperProv, HyperProvError};
use hyperprov_repro::sim::SimDuration;

fn main() -> Result<(), HyperProvError> {
    // Four Raspberry Pi 3B+ devices on one switch, as in the paper's edge
    // testbed; peer 0's device also runs the client process.
    let mut hp = HyperProv::rpi();
    let started = hp.now();

    // A camera captures frames; each frame goes off-chain with its
    // provenance on-chain.
    let mut frame_keys = Vec::new();
    for i in 0..5 {
        let frame = fake_jpeg(i, 32 * 1024);
        let key = format!("cam0/frame-{i:04}");
        hp.store_data(
            &key,
            frame,
            vec![],
            vec![
                ("device".into(), "rpi-cam0".into()),
                ("kind".into(), "frame".into()),
            ],
        )?;
        frame_keys.push(key);
    }
    println!("captured {} frames on the edge", frame_keys.len());

    // An on-device analytics job derives a motion event from three frames:
    // lineage records exactly which frames triggered it.
    let event_key = "cam0/motion-event-0001";
    hp.store_data(
        event_key,
        b"{\"motion\":true,\"score\":0.93}".to_vec(),
        frame_keys[1..4].to_vec(),
        vec![("kind".into(), "motion-event".into())],
    )?;
    let lineage = hp.get_lineage(event_key, 3)?;
    println!("motion event lineage ({} nodes):", lineage.len());
    for entry in &lineage {
        println!("  depth {} -> {}", entry.depth, entry.record.key);
    }

    // The site auditor cross-checks the whole network: every peer's chain,
    // index and replay, their agreement, and the records and payloads
    // against the off-chain store.
    let findings = hp.network().audit([]);
    let peers = hp.network().peers.len();
    println!(
        "network audit of {peers} peers: {} findings",
        findings.len()
    );
    for finding in &findings {
        println!("  {finding}");
    }
    assert!(findings.is_empty());

    // How much power did the edge device (peer + client) draw?
    let meter = PowerMeter::new(EnergyModel::raspberry_pi(), SimDuration::from_secs(1));
    let peer_cpu = hp.network().sim.cpu(hp.network().peers[0]);
    let client_cpu = hp.network().sim.cpu(hp.network().clients[0]);
    let now = hp.now();
    let avg = meter.average_watts_combined(&[peer_cpu, client_cpu], started, now, true);
    let joules = avg * (now - started).as_secs_f64();
    println!(
        "edge device over {}: avg {avg:.2} W, {joules:.1} J total (HLF idle is {:.2} W)",
        now - started,
        EnergyModel::raspberry_pi().hlf_idle_watts,
    );
    Ok(())
}

/// A deterministic stand-in for camera frame bytes.
fn fake_jpeg(seed: u64, size: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..size)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}
