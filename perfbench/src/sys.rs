//! Process memory readings from `/proc/self`.

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`, ...).
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line =
        status.lines().find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))?;
    line[field.len() + 1..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Resident set size now, KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS").unwrap_or(0)
}

/// Peak resident set size since the last [`reset_peak`], KiB.
pub fn peak_kb() -> u64 {
    status_kb("VmHWM").unwrap_or(0)
}

/// Reset the peak to the current resident size, so input generation
/// before the workload does not count toward its peak. Where the kernel
/// refuses, the peak keeps counting from process start.
pub fn reset_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
