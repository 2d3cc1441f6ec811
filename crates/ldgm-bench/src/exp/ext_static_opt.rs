//! **Extension**: frontier-guided static LD-GPU (`ld-gpu-opt`) vs the
//! paper-faithful default.
//!
//! The optimized mode keeps the default's bit-identical matching while
//! changing only what is billed: a preference-sorted adjacency index lets
//! SETPOINTERS early-exit at the first available neighbor, a
//! cross-iteration frontier restricts every post-first launch to the
//! vertices whose pointer target was matched away, and sparse delta
//! collectives shrink the dense `8·|V|` allreduces to ~16 B per changed
//! entry. This study sweeps all fourteen Table-I stand-ins across device
//! and batch settings and reports the simulated-time ratio plus the edge
//! scan and wire-byte reductions that produce it.

use std::io::{self, Write};

use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig, LdGpuOutput};
use ldgm_gpusim::json::Json;
use ldgm_gpusim::Platform;

use crate::datasets::{registry, scaled_platform, Dataset};
use crate::runner::fmt_secs;
use crate::table::Table;

/// Devices swept.
pub const DEVICE_SWEEP: &[usize] = &[1, 4];
/// Batch settings swept: the paper's auto policy and a fixed 4-batch plan.
pub const BATCH_SWEEP: &[Option<usize>] = &[None, Some(4)];

/// One default-vs-optimized comparison.
#[derive(Clone, Debug)]
pub struct OptRecord {
    /// Dataset name (Table I stand-in identifier).
    pub dataset: String,
    /// Devices used.
    pub devices: usize,
    /// Batches per device actually run (auto settings resolved).
    pub batches: usize,
    /// Whether the batch count was chosen by the auto policy.
    pub auto_batches: bool,
    /// Simulated seconds, default `ld-gpu`.
    pub time_default: f64,
    /// Simulated seconds, `ld-gpu-opt`.
    pub time_opt: f64,
    /// Adjacency slots scanned by the default.
    pub edges_scanned_default: u64,
    /// Adjacency slots scanned by the optimized mode.
    pub edges_scanned_opt: u64,
    /// Collective wire bytes, default.
    pub collective_bytes_default: u64,
    /// Collective wire bytes, optimized.
    pub collective_bytes_opt: u64,
    /// Matching weight (identical across modes by construction).
    pub weight: f64,
    /// Matched edges (identical across modes by construction).
    pub cardinality: u64,
    /// Whether the two mate arrays were bit-identical.
    pub identical: bool,
}

impl OptRecord {
    /// Simulated-time ratio default / optimized.
    pub fn speedup(&self) -> f64 {
        self.time_default / self.time_opt
    }

    /// Serialize for `BENCH_static_opt.json`.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("dataset", self.dataset.clone())
            .with("devices", self.devices)
            .with("batches", self.batches)
            .with("auto_batches", self.auto_batches)
            .with("time_default", self.time_default)
            .with("time_opt", self.time_opt)
            .with("speedup", self.speedup())
            .with("edges_scanned_default", self.edges_scanned_default)
            .with("edges_scanned_opt", self.edges_scanned_opt)
            .with("collective_bytes_default", self.collective_bytes_default)
            .with("collective_bytes_opt", self.collective_bytes_opt)
            .with("weight", self.weight)
            .with("cardinality", self.cardinality)
            .with("identical", self.identical)
    }
}

/// Serialize a result set as a JSON array document.
pub fn opt_records_to_json(records: &[OptRecord]) -> Json {
    Json::Array(records.iter().map(OptRecord::to_json).collect())
}

fn run_mode(g: &ldgm_graph::CsrGraph, cfg: LdGpuConfig) -> Result<LdGpuOutput, String> {
    LdGpu::new(cfg).try_run(g).map_err(|e| e.to_string())
}

/// Run the study over `datasets`, returning one record per feasible
/// (dataset, devices, batches) combination.
pub fn run_on(datasets: &[Dataset], w: &mut dyn Write) -> io::Result<Vec<OptRecord>> {
    writeln!(w, "# Extension: frontier-guided static LD-GPU (ld-gpu-opt)\n")?;
    writeln!(
        w,
        "Default `ld-gpu` vs `ld-gpu-opt` (sorted index + cross-iteration\n\
         frontier + sparse delta collectives) on the scaled A100 platform.\n\
         Both modes produce bit-identical matchings; only billed work\n\
         differs. Combinations that do not fit device memory are skipped.\n"
    )?;
    let platform = scaled_platform(Platform::dgx_a100());
    let mut t = Table::new(vec![
        "dataset",
        "dev",
        "batch",
        "default",
        "opt",
        "speedup",
        "scan ratio",
        "wire ratio",
    ]);
    let mut records = Vec::new();
    for ds in datasets {
        let g = ds.build();
        for &devices in DEVICE_SWEEP {
            for &batches in BATCH_SWEEP {
                let mut cfg = LdGpuConfig::new(platform.clone()).devices(devices);
                cfg.batches = batches;
                let def = match run_mode(&g, cfg.clone()) {
                    Ok(out) => out,
                    Err(e) => {
                        writeln!(w, "skip {} d{devices} {batches:?}: {e}", ds.name)?;
                        continue;
                    }
                };
                let opt = run_mode(&g, cfg.optimized()).expect("same memory plan as default");
                let identical = opt.matching.mate_array() == def.matching.mate_array();
                let rec = OptRecord {
                    dataset: ds.name.to_string(),
                    devices,
                    batches: def.batches,
                    auto_batches: batches.is_none(),
                    time_default: def.sim_time,
                    time_opt: opt.sim_time,
                    edges_scanned_default: def.metrics.counter("kernel.edges_scanned"),
                    edges_scanned_opt: opt.metrics.counter("kernel.edges_scanned"),
                    collective_bytes_default: def.metrics.counter("comm.collective_bytes"),
                    collective_bytes_opt: opt.metrics.counter("comm.collective_bytes"),
                    weight: def.matching.weight(&g),
                    cardinality: def.matching.cardinality() as u64,
                    identical,
                };
                let ratio = |a: u64, b: u64| {
                    if a == 0 {
                        "-".to_string()
                    } else {
                        format!("{:.2}x", a as f64 / b.max(1) as f64)
                    }
                };
                t.row(vec![
                    ds.name.to_string(),
                    format!("{devices}"),
                    format!("{}{}", def.batches, if batches.is_none() { "*" } else { "" }),
                    fmt_secs(rec.time_default),
                    fmt_secs(rec.time_opt),
                    format!("{:.2}x", rec.speedup()),
                    ratio(rec.edges_scanned_default, rec.edges_scanned_opt),
                    ratio(rec.collective_bytes_default, rec.collective_bytes_opt),
                ]);
                records.push(rec);
            }
        }
    }
    writeln!(w, "{t}")?;
    writeln!(w, "(* = auto batch policy; scan/wire ratios are default / optimized)")?;
    Ok(records)
}

/// Run the full 14-dataset study.
pub fn run_records(w: &mut dyn Write) -> io::Result<Vec<OptRecord>> {
    run_on(&registry(), w)
}

/// Run the experiment, writing the report to `w`.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    run_records(w).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::by_name;

    #[test]
    fn small_dataset_subset_meets_acceptance_shape() {
        let subset = [by_name("mouse_gene").unwrap(), by_name("Queen_4147").unwrap()];
        let mut sink = Vec::new();
        let records = run_on(&subset, &mut sink).unwrap();
        assert!(!records.is_empty());
        for r in &records {
            assert!(r.identical, "{}: matchings must be bit-identical", r.dataset);
            assert!(r.time_opt > 0.0 && r.time_default > 0.0);
            assert!(
                r.speedup() > 1.0,
                "{} d{} b{}: opt must not be slower ({:.3}x)",
                r.dataset,
                r.devices,
                r.batches,
                r.speedup()
            );
            assert!(r.edges_scanned_opt <= r.edges_scanned_default);
            assert!(r.collective_bytes_opt <= r.collective_bytes_default);
        }
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("ld-gpu-opt"));
    }

    #[test]
    fn json_round_trips() {
        let subset = [by_name("mouse_gene").unwrap()];
        let mut sink = Vec::new();
        let records = run_on(&subset, &mut sink).unwrap();
        let doc = opt_records_to_json(&records).to_string_pretty();
        let parsed = ldgm_gpusim::json::parse(&doc).unwrap();
        let rows = parsed.as_array().unwrap();
        assert_eq!(rows.len(), records.len());
        assert_eq!(rows[0].get("dataset").and_then(Json::as_str), Some("mouse_gene"));
        assert_eq!(rows[0].get("speedup").and_then(Json::as_f64), Some(records[0].speedup()));
    }
}
