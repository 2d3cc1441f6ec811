//! Helpers shared by the golden corpora (`golden_static`,
//! `golden_dynamic`): the line hash, a two-thread runner and the
//! compare-or-bless step against a committed digest file.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Run `f` over `0..n` on two worker threads, results in index order.
pub fn on_two_threads<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                slots.lock().unwrap()[i] = Some(v);
            });
        }
    });
    slots.into_inner().unwrap().into_iter().map(|v| v.expect("every slot filled")).collect()
}

/// Compare `lines` with the committed `tests/<file>`, or rewrite the file
/// when `LDGM_BLESS` is set.
pub fn check_digest(file: &str, lines: &[String]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join(file);
    let fresh = lines.join("\n") + "\n";
    if std::env::var_os("LDGM_BLESS").is_some() {
        std::fs::write(&path, &fresh).expect("write the digest");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read the committed digest");
    let want: Vec<&str> = golden.lines().collect();
    let diffs: Vec<String> = lines
        .iter()
        .zip(&want)
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  want {want}\n   got {got}"))
        .collect();
    assert!(
        diffs.is_empty() && want.len() == lines.len(),
        "{} of {} runs differ from the corpus ({} lines committed):\n{}",
        diffs.len(),
        lines.len(),
        want.len(),
        diffs.join("\n")
    );
}
