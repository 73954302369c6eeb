//! Guard tests for the experiment harness: quick-mode runs must produce
//! tables with the shapes the paper reports.

use hyperprov_bench::experiments::{baseline_comparison, contention_sweep};
use hyperprov_bench::runner::table_of;

#[test]
fn contention_conflicts_grow_with_hot_fraction() {
    let artefacts = contention_sweep(true);
    let table = table_of(&artefacts, "table_contention");
    assert_eq!(table.len(), 2); // fractions 0.0 and 0.8 in quick mode
    let cold_conflicts = table.num(0, "mvcc_conflicts").unwrap();
    let hot_conflicts = table.num(1, "mvcc_conflicts").unwrap();
    assert_eq!(cold_conflicts, 0.0, "unique keys cannot conflict");
    assert!(
        hot_conflicts > 0.0,
        "hot-key contention must produce MVCC conflicts: {table}"
    );
    // Work was actually committed in both settings.
    assert!(table.num(0, "committed_valid").unwrap() > 0.0);
    assert!(table.num(1, "committed_valid").unwrap() > 0.0);
}

/// T-BASE's positioning claim in miniature: carrying the item on-chain
/// costs throughput and chain growth in proportion to its size, storing
/// it off-chain costs neither.
#[test]
fn on_chain_payloads_cost_throughput_and_chain_bytes() {
    let artefacts = baseline_comparison(true);
    let table = table_of(&artefacts, "table_baselines");
    // Per item size (1 KiB, 256 KiB): HyperProv, then on-chain data.
    assert_eq!(table.len(), 4);
    let row_of = |system: &str, size: f64| {
        (0..table.len())
            .find(|&row| {
                table.text(row, "system").as_deref() == Some(system)
                    && table.num(row, "size_bytes") == Some(size)
            })
            .unwrap_or_else(|| panic!("no row {system} at {size}: {table}"))
    };
    let (small, large) = (1024.0, 262_144.0);
    let tput =
        |system: &str, size: f64| table.num(row_of(system, size), "throughput_tx_s").unwrap();
    assert!(
        tput("on-chain data", large) < tput("HyperProv", large),
        "on-chain payloads must cost throughput at 256 KiB: {table}"
    );
    let chain = |system: &str, size: f64| {
        table
            .num(row_of(system, size), "chain_bytes_per_tx")
            .unwrap()
    };
    for size in [small, large] {
        assert!(
            chain("on-chain data", size) >= size,
            "an on-chain item is on the chain: {table}"
        );
    }
    assert_eq!(
        chain("HyperProv", small),
        chain("HyperProv", large),
        "off-chain items leave the chain independent of their size: {table}"
    );
}
