//! A configuration that breaks a rule makes the built `ldgm` binary exit
//! non-zero with "invalid configuration", whichever command carries it:
//! `match` reaches `LdGpu::try_run`'s check (the cuGraph-style baseline
//! too), `dynamic` reaches `IncrementalMatcher::run`'s or the
//! from-scratch engine's, and `serve` checks its `DynConfig` before it
//! reads a dataset.

use std::process::Command;

/// Run the `ldgm` binary with the words of `line`: whether it exited with
/// success, and its stderr.
fn ldgm(line: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ldgm"))
        .args(line.split_whitespace())
        .output()
        .expect("start ldgm");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn zero_devices_or_batches_exit_with_invalid_configuration() {
    let dir = std::env::temp_dir().join(format!("ldgm-invalid-config-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let mtx = dir.join("g.mtx").to_string_lossy().into_owned();
    let (ok, err) =
        ldgm(&format!("gen --family urand --vertices 200 --avg-degree 4 --seed 3 --out {mtx}"));
    assert!(ok, "gen failed: {err}");
    let runs = [
        format!("match --input {mtx} --devices 0"),
        format!("match --input {mtx} --batches 0"),
        format!("match --input {mtx} --algorithm cugraph --devices 0"),
        format!("dynamic --input {mtx} --devices 0"),
        format!("dynamic --input {mtx} --engine from-scratch --devices 0"),
        // A missing dataset: were the check skipped, the command would
        // fail to read it rather than start a server.
        "serve --input missing.mtx --devices 0".to_string(),
    ];
    let results: Vec<_> = runs.iter().map(|line| (line, ldgm(line))).collect();
    std::fs::remove_dir_all(&dir).ok();
    for (line, (ok, err)) in results {
        assert!(!ok, "ldgm {line} exited 0");
        assert!(err.contains("invalid configuration"), "ldgm {line}: {err}");
    }
}
