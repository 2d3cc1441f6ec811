//! No front end re-registers a matcher: `ldgm dynamic` (with a
//! `--compact-frac` override) and `ldgm profile --auto-tune` run through
//! the built binary with nothing on stderr, so the registries'
//! "re-registered" warning is left for accidental duplicates.

use std::process::Command;

/// Run the `ldgm` binary with the words of `line`; its stderr, or a panic
/// if it failed.
fn stderr_of(line: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ldgm"))
        .args(line.split_whitespace())
        .output()
        .expect("start ldgm");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "ldgm {line} failed: {stderr}");
    stderr
}

#[test]
fn dynamic_and_tuned_profile_leave_stderr_empty() {
    let dir = std::env::temp_dir().join(format!("ldgm-quiet-stderr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the temporary directory");
    let mtx = dir.join("g.mtx").to_string_lossy().into_owned();
    stderr_of(&format!("gen --family urand --vertices 200 --avg-degree 6 --seed 4 --out {mtx}"));
    let runs = [
        format!("dynamic --input {mtx} --batches 2 --batch-size 8 --compact-frac 0.5"),
        format!("profile --input {mtx} --algorithms ld-gpu,ld-gpu-opt --auto-tune"),
    ];
    let results: Vec<_> = runs.iter().map(|line| (line, stderr_of(line))).collect();
    std::fs::remove_dir_all(&dir).ok();
    for (line, stderr) in results {
        assert!(stderr.is_empty(), "ldgm {line} wrote to stderr: {stderr}");
    }
}
