//! `ldgm match --algorithm ld-gpu-opt --auto-tune --verify` through the
//! built binary, on the graph of the CI smoke steps (`ldgm gen --family
//! urand --vertices 400 --avg-degree 8 --seed 5`): the tuner probes its
//! whole grid, locks a config that bills no more than the default, and the
//! locked run's matching verifies as maximal.

use std::process::Command;

/// Run the `ldgm` binary with the words of `line`; its stdout, or a panic
/// with its stderr.
fn ldgm(line: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ldgm"))
        .args(line.split_whitespace())
        .output()
        .expect("start ldgm");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "ldgm {line} failed: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The number after `label` in `line`, up to the next space.
fn number_after(line: &str, label: &str) -> f64 {
    let rest = &line[line.find(label).unwrap_or_else(|| panic!("no '{label}' in {line}"))..];
    let token = rest[label.len()..].split(' ').next().unwrap_or_default();
    token.parse().unwrap_or_else(|_| panic!("'{token}' after '{label}' is not a number: {line}"))
}

#[test]
fn auto_tune_locks_a_config_no_slower_than_the_default() {
    let dir = std::env::temp_dir().join(format!("ldgm-auto-tune-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let mtx = dir.join("smoke.mtx").to_string_lossy().into_owned();
    ldgm(&format!("gen --family urand --vertices 400 --avg-degree 8 --seed 5 --out {mtx}"));
    let out = ldgm(&format!("match --input {mtx} --algorithm ld-gpu-opt --auto-tune --verify"));
    std::fs::remove_dir_all(&dir).ok();

    let tune = out.lines().find(|l| l.starts_with("auto-tune: ")).expect("an auto-tune line");
    assert!(tune.starts_with("auto-tune: probed 16 candidates, locked ["), "{tune}");
    let locked = &tune[tune.find('[').unwrap() + 1..tune.find(']').expect("closing bracket")];
    for knob in ["batches=", "opt=", "overlap="] {
        assert!(locked.contains(knob), "locked config names {knob}: {tune}");
    }
    let tuned = number_after(tune, "simulated ");
    let default = number_after(tune, "vs default ");
    assert!(tuned > 0.0 && tuned <= default, "tuned {tuned} ms vs default {default} ms: {tune}");
    assert!(out.contains("verify: structurally valid"), "{out}");
    assert!(out.contains("verify: maximal = true"), "{out}");
}
