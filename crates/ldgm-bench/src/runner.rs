//! Timing and sweep helpers shared by the experiment binaries, plus the
//! JSON record format experiment results are exported in.

use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig, LdGpuOutput};
use ldgm_gpusim::{Json, Platform};
use ldgm_graph::csr::CsrGraph;
use std::time::Instant;

/// Wall-clock the closure, best of `reps` runs (the paper reports best of
/// ten; our CPU baselines use fewer reps since the variance sources the
/// paper guards against — DVFS, NUMA — are absent here).
pub fn best_wall_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
        out = Some(r);
    }
    (best, out.unwrap())
}

/// Result of an LD-GPU configuration sweep.
#[derive(Clone, Debug)]
pub struct SweepBest {
    /// The winning run.
    pub output: LdGpuOutput,
    /// Devices of the winning configuration.
    pub devices: usize,
    /// Batches of the winning configuration.
    pub batches: usize,
}

/// Sweep LD-GPU over device and batch counts on `platform`, returning the
/// configuration with the lowest simulated time. Infeasible combinations
/// (batch plans that do not fit) are skipped; `None` if nothing fits.
pub fn sweep_ld_gpu(
    g: &CsrGraph,
    platform: &Platform,
    device_counts: &[usize],
    batch_counts: &[usize],
) -> Option<SweepBest> {
    let mut best: Option<SweepBest> = None;
    for &nd in device_counts {
        if nd > platform.max_devices {
            continue;
        }
        for &nb in batch_counts {
            let cfg = LdGpuConfig::new(platform.clone()).devices(nd).batches(nb);
            let Ok(out) = LdGpu::new(cfg).try_run(g) else {
                continue; // invalid (0 devices/batches) or does not fit
            };
            if best.as_ref().is_none_or(|b| out.sim_time < b.output.sim_time) {
                best = Some(SweepBest { devices: nd, batches: nb, output: out });
            }
        }
        // Also try the automatic (minimal) batch plan.
        if let Ok(out) = LdGpu::new(LdGpuConfig::new(platform.clone()).devices(nd)).try_run(g) {
            if best.as_ref().is_none_or(|b| out.sim_time < b.output.sim_time) {
                let batches = out.batches;
                best = Some(SweepBest { devices: nd, batches, output: out });
            }
        }
    }
    best
}

/// One benchmark measurement, exportable as a JSON record so experiment
/// sweeps can be archived and diffed across runs (same spirit as the
/// CLI's `--report-json`, but one compact row per configuration).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Dataset name (Table I stand-in identifier).
    pub dataset: String,
    /// Algorithm registry name.
    pub algorithm: String,
    /// Platform preset, empty for host algorithms.
    pub platform: String,
    /// Devices used.
    pub devices: usize,
    /// Batches per device.
    pub batches: usize,
    /// Run time in seconds (simulated or wall-clock).
    pub time: f64,
    /// Matched edges.
    pub cardinality: u64,
    /// Matching weight.
    pub weight: f64,
    /// Iterations/rounds.
    pub iterations: u64,
}

impl BenchRecord {
    /// Record the winning configuration of an LD-GPU sweep.
    pub fn from_sweep(dataset: &str, platform: &str, g: &CsrGraph, best: &SweepBest) -> Self {
        BenchRecord {
            dataset: dataset.to_string(),
            algorithm: "ld-gpu".to_string(),
            platform: platform.to_string(),
            devices: best.devices,
            batches: best.batches,
            time: best.output.sim_time,
            cardinality: best.output.matching.cardinality() as u64,
            weight: best.output.matching.weight(g),
            iterations: best.output.iterations as u64,
        }
    }

    /// Serialize to a flat JSON object.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("dataset", self.dataset.clone())
            .with("algorithm", self.algorithm.clone())
            .with("platform", self.platform.clone())
            .with("devices", self.devices)
            .with("batches", self.batches)
            .with("time", self.time)
            .with("cardinality", self.cardinality)
            .with("weight", self.weight)
            .with("iterations", self.iterations)
    }
}

/// Serialize a result set as a JSON array document.
pub fn records_to_json(records: &[BenchRecord]) -> Json {
    Json::Array(records.iter().map(BenchRecord::to_json).collect())
}

/// Common CLI of the `ext_*` study binaries: `--out PATH` overriding the
/// study's default JSON location, plus positional dataset names. Studies
/// with extra flags claim them through the `extra` callback.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtCli {
    /// Where the JSON document lands (`--out`, or the study default).
    pub out_path: String,
    /// Positional dataset names; empty means the study's default set.
    pub names: Vec<String>,
}

impl ExtCli {
    /// Parse the process arguments with no study-specific flags.
    pub fn parse_env(default_out: &str) -> Self {
        Self::parse_env_with(default_out, |_, _| false)
    }

    /// Parse the process arguments; `extra(flag, args)` returns `true`
    /// when the study recognized the flag (pulling any operands off
    /// `args` itself). Unclaimed `--flags` abort with a usage error.
    pub fn parse_env_with(
        default_out: &str,
        extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> bool,
    ) -> Self {
        Self::parse_from(default_out, std::env::args().skip(1), extra)
    }

    /// Parse from an explicit argument stream (testable core of
    /// [`ExtCli::parse_env_with`]).
    pub fn parse_from(
        default_out: &str,
        args: impl IntoIterator<Item = String>,
        mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> bool,
    ) -> Self {
        let mut cli = ExtCli { out_path: default_out.to_string(), names: Vec::new() };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if a == "--out" {
                cli.out_path = it.next().expect("--out requires a path");
            } else if a.starts_with("--") {
                assert!(extra(&a, &mut it), "unknown flag {a}");
            } else {
                cli.names.push(a);
            }
        }
        cli
    }
}

/// Write the document to `out_path` (pretty-printed, newline-terminated)
/// and parse the written text back, so every `ext_*` binary cross-checks
/// what actually landed on disk against its in-memory records.
pub fn write_json_doc(out_path: &str, doc: &Json) -> Json {
    let text = doc.to_string_pretty() + "\n";
    std::fs::write(out_path, &text).expect("JSON write failed");
    ldgm_gpusim::json::parse(&text).expect("written JSON must parse")
}

/// The paper's sweep ranges: 1–8 devices, up to 15 batches (we sample the
/// batch range).
pub const DEVICE_SWEEP: &[usize] = &[1, 2, 4, 6, 8];
/// Sampled batch counts within the paper's "less than 15" range.
pub const BATCH_SWEEP: &[usize] = &[1, 2, 3, 5, 10];

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-300).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Format seconds compactly (matches the paper's precision style).
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 1e-3 {
        format!("{s:.4}")
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldgm_graph::gen::urand;

    #[test]
    fn best_wall_returns_min() {
        let mut i = 0;
        let (t, v) = best_wall_of(3, || {
            i += 1;
            i
        });
        assert!(t >= 0.0);
        assert_eq!(v, 3);
    }

    #[test]
    fn sweep_finds_a_configuration() {
        let g = urand(400, 2000, 1);
        let best = sweep_ld_gpu(&g, &Platform::dgx_a100(), &[1, 2], &[1, 2]).unwrap();
        assert!(best.output.sim_time > 0.0);
        assert!(best.devices <= 2);
    }

    #[test]
    fn sweep_skips_infeasible() {
        let g = urand(400, 2000, 2);
        let p = Platform::dgx_a100().with_device_memory(10); // nothing fits
        assert!(sweep_ld_gpu(&g, &p, &[1], &[1]).is_none());
    }

    #[test]
    fn bench_record_round_trips_through_json() {
        let g = urand(400, 2000, 3);
        let best = sweep_ld_gpu(&g, &Platform::dgx_a100(), &[1, 2], &[1]).unwrap();
        let rec = BenchRecord::from_sweep("urand-400", "dgx-a100", &g, &best);
        let doc = records_to_json(std::slice::from_ref(&rec));
        let parsed = ldgm_gpusim::json::parse(&doc.to_string_pretty()).unwrap();
        let row = &parsed.as_array().unwrap()[0];
        assert_eq!(row.get("dataset").and_then(Json::as_str), Some("urand-400"));
        assert_eq!(row.get("algorithm").and_then(Json::as_str), Some("ld-gpu"));
        assert_eq!(row.get("time").and_then(Json::as_f64), Some(best.output.sim_time));
        assert_eq!(row.get("cardinality").and_then(Json::as_f64), Some(rec.cardinality as f64));
    }

    #[test]
    fn ext_cli_parses_out_names_and_extra_flags() {
        let args = ["--out", "x.json", "alpha", "--reps", "3", "beta"];
        let mut reps = 0usize;
        let cli =
            ExtCli::parse_from("default.json", args.iter().map(|s| s.to_string()), |flag, rest| {
                if flag == "--reps" {
                    reps = rest.next().unwrap().parse().unwrap();
                    true
                } else {
                    false
                }
            });
        assert_eq!(cli.out_path, "x.json");
        assert_eq!(cli.names, ["alpha", "beta"]);
        assert_eq!(reps, 3);

        let cli = ExtCli::parse_from("default.json", std::iter::empty(), |_, _| false);
        assert_eq!(cli, ExtCli { out_path: "default.json".into(), names: Vec::new() });
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn ext_cli_rejects_unknown_flags() {
        ExtCli::parse_from("d.json", ["--bogus".to_string()], |_, _| false);
    }

    #[test]
    fn write_json_doc_round_trips() {
        let dir = std::env::temp_dir().join("ldgm_runner_json_doc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        let doc = Json::Array(vec![Json::object().with("k", 1u64)]);
        let parsed = write_json_doc(path.to_str().unwrap(), &doc);
        assert_eq!(parsed.as_array().unwrap()[0].get("k").and_then(Json::as_f64), Some(1.0));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt_secs(2.345), "2.35");
        assert_eq!(fmt_secs(0.01234), "0.0123");
        assert_eq!(fmt_secs(5e-6), "5.0us");
    }
}
