//! `bench_regress` takes no argument but `--update`: a mistyped flag is
//! refused before any run, not read as a plain gate run that passes.

use std::process::Command;

#[test]
fn a_mistyped_flag_exits_2_without_a_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_regress"))
        .arg("--updaet")
        .output()
        .expect("bench_regress starts");
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "a run started: {stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: bench_regress [--update]"));
}
