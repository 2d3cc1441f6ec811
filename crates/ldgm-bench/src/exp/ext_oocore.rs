//! **Extension**: out-of-core streaming LD-GPU on graphs larger than
//! device memory.
//!
//! Each Table-I stand-in is run against a platform whose per-device
//! memory is shrunk to ~40% of the graph's single-batch footprint, so
//! the whole-graph plan refuses outright (`BatchPlanTooLarge`). The
//! streaming engine then band-slices the preference-sorted adjacency
//! into substreams, keeps a fixed window of bands resident, and
//! prefetches the next substream on the copy stream while the current
//! band's SETPOINTERS kernel runs. The study sweeps the resident-window
//! depth and reports, per dataset, the simulated completion time, how
//! much of the prefetch copy time the band kernels hid, and whether the
//! streamed matching is bit-identical to the in-memory reference.

use std::io::{self, Write};

use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig, LdGpuOutput};
use ldgm_gpusim::json::Json;
use ldgm_gpusim::Platform;
use ldgm_part::{batch, memory, plan_substreams, Partition};

use crate::datasets::{registry, scaled_platform, Dataset};
use crate::runner::fmt_secs;
use crate::table::Table;

/// Devices used for every run (the "aggregate device memory" the graphs
/// are sized to overflow).
pub const DEVICES: usize = 2;
/// Resident-window depths swept (bands held on-device per vertex).
/// Deeper windows mean narrower bands: more copy/kernel rounds, but each
/// prefetch is smaller and hides more easily behind the previous band's
/// kernel.
pub const WINDOW_SWEEP: &[usize] = &[2, 4, 8, 16, 32];
/// Per-device memory as a fraction of the single-batch footprint:
/// numerator / denominator = 40%, far enough under 50% that the
/// double-buffered whole-graph plan can never fit.
const SHRINK_NUM: u64 = 2;
const SHRINK_DEN: u64 = 5;

/// One streamed run at a fixed window depth.
#[derive(Clone, Debug)]
pub struct WindowPoint {
    /// Resident window depth in bands.
    pub window: usize,
    /// Substream bands per iteration (the driver's copy/kernel rounds).
    pub bands: usize,
    /// Simulated seconds for the full streamed run.
    pub sim_time: f64,
    /// Prefetch copy seconds hidden under band kernels.
    pub prefetch_hidden: f64,
    /// Prefetch copy seconds left exposed on the critical path.
    pub prefetch_exposed: f64,
}

impl WindowPoint {
    /// Fraction of total prefetch copy time the band kernels hid.
    pub fn hidden_frac(&self) -> f64 {
        let total = self.prefetch_hidden + self.prefetch_exposed;
        if total <= 0.0 {
            0.0
        } else {
            self.prefetch_hidden / total
        }
    }

    fn to_json(&self) -> Json {
        Json::object()
            .with("window", self.window)
            .with("bands", self.bands)
            .with("sim_time", self.sim_time)
            .with("prefetch_hidden", self.prefetch_hidden)
            .with("prefetch_exposed", self.prefetch_exposed)
            .with("hidden_frac", self.hidden_frac())
    }
}

/// One oversized stand-in: the whole-graph refusal plus the window sweep.
#[derive(Clone, Debug)]
pub struct OocRecord {
    /// Dataset name (Table I stand-in identifier).
    pub dataset: String,
    /// Devices used.
    pub devices: usize,
    /// Shrunken per-device memory the streamed runs had to live in.
    pub mem_bytes: u64,
    /// Single-batch per-device footprint the graph actually needs.
    pub footprint: u64,
    /// Whether the whole-graph (1-batch) plan refused at `mem_bytes`.
    pub whole_graph_refused: bool,
    /// The refusal error text (empty if it unexpectedly fit).
    pub refusal: String,
    /// One entry per feasible window depth.
    pub windows: Vec<WindowPoint>,
    /// Whether the streamed matching is bit-identical to the in-memory
    /// reference run (default platform, no streaming).
    pub identical: bool,
    /// Matching weight of the streamed run.
    pub weight: f64,
    /// Matched edges of the streamed run.
    pub cardinality: u64,
}

impl OocRecord {
    /// The sweep point that hid the largest prefetch fraction.
    pub fn best(&self) -> Option<&WindowPoint> {
        self.windows.iter().max_by(|a, b| a.hidden_frac().total_cmp(&b.hidden_frac()))
    }

    /// Serialize for `BENCH_oocore.json`.
    pub fn to_json(&self) -> Json {
        let best = self.best();
        Json::object()
            .with("dataset", self.dataset.clone())
            .with("devices", self.devices)
            .with("mem_bytes", self.mem_bytes)
            .with("footprint", self.footprint)
            .with("whole_graph_refused", self.whole_graph_refused)
            .with("refusal", self.refusal.clone())
            .with("windows", Json::Array(self.windows.iter().map(WindowPoint::to_json).collect()))
            .with("best_window", best.map_or(0usize, |p| p.window))
            .with("best_hidden_frac", best.map_or(0.0, WindowPoint::hidden_frac))
            .with("identical", self.identical)
            .with("weight", self.weight)
            .with("cardinality", self.cardinality)
    }
}

/// Serialize a result set as a JSON array document.
pub fn ooc_records_to_json(records: &[OocRecord]) -> Json {
    Json::Array(records.iter().map(OocRecord::to_json).collect())
}

/// Per-device single-batch footprint: the largest device partition,
/// double-buffered, plus the replicated global matching state.
fn single_batch_footprint(g: &ldgm_graph::CsrGraph, devices: usize) -> u64 {
    let part = Partition::edge_balanced(g, devices);
    part.parts
        .iter()
        .map(|p| memory::device_footprint_bytes(&batch::make_batches(g, p, 1), g.num_vertices()))
        .max()
        .unwrap_or(0)
}

/// Shrunken per-device capacity for a stand-in: the 40% target, raised
/// to the window-2 planner minimum when vertex-dominated partitions
/// (sparse k-mer graphs) cannot hold even a width-1 double buffer at
/// 40%. The minimum is still below the single-batch footprint, so the
/// whole-graph refusal is preserved.
fn streaming_budget(g: &ldgm_graph::CsrGraph, devices: usize, footprint: u64) -> u64 {
    let mut budget = (footprint * SHRINK_NUM / SHRINK_DEN).max(1);
    for p in &Partition::edge_balanced(g, devices).parts {
        if let Err(e) = plan_substreams(g, p, g.num_vertices(), budget, 2) {
            budget = budget.max(e.required);
        }
    }
    budget
}

/// Run the study over `datasets`, one record per stand-in.
pub fn run_on(datasets: &[Dataset], w: &mut dyn Write) -> io::Result<Vec<OocRecord>> {
    writeln!(w, "# Extension: out-of-core streaming LD-GPU (--stream)\n")?;
    writeln!(
        w,
        "Per-device memory is shrunk to {SHRINK_NUM}/{SHRINK_DEN} of each stand-in's\n\
         single-batch footprint on {DEVICES} devices: the whole-graph plan refuses,\n\
         the streaming engine completes by cycling band substreams through a\n\
         resident window while the copy stream prefetches the next band.\n\
         Matchings are checked bit-identical against the in-memory reference.\n"
    )?;
    let reference = scaled_platform(Platform::dgx_a100());
    let mut t = Table::new(vec![
        "dataset",
        "mem/need",
        "whole-graph",
        "window",
        "bands",
        "streamed",
        "hidden",
        "identical",
    ]);
    let mut records = Vec::new();
    for ds in datasets {
        let g = ds.build();
        let footprint = single_batch_footprint(&g, DEVICES);
        let mem_bytes = streaming_budget(&g, DEVICES, footprint);
        let shrunk = reference.clone().with_device_memory(mem_bytes);

        // The in-memory reference (auto batch plan, full scaled memory).
        let base_cfg = LdGpuConfig::new(reference.clone()).devices(DEVICES);
        let base = LdGpu::new(base_cfg).try_run(&g).map_err(io::Error::other)?;

        // The whole-graph plan must refuse at the shrunken capacity.
        let whole =
            LdGpu::new(LdGpuConfig::new(shrunk.clone()).devices(DEVICES).batches(1)).try_run(&g);
        let (refused, refusal) = match whole {
            Err(e) => (true, e.to_string()),
            Ok(_) => (false, String::new()),
        };

        let mut windows = Vec::new();
        let mut streamed_best: Option<LdGpuOutput> = None;
        for &window in WINDOW_SWEEP {
            let cfg = LdGpuConfig::new(shrunk.clone())
                .devices(DEVICES)
                .with_streaming(true)
                .with_stream_window(window);
            let out = match LdGpu::new(cfg).try_run(&g) {
                Ok(out) => out,
                Err(e) => {
                    // Deep windows can starve the band planner on dense
                    // stand-ins; record the feasible points only.
                    writeln!(w, "skip {} window {window}: {e}", ds.name)?;
                    continue;
                }
            };
            windows.push(WindowPoint {
                window,
                bands: out.batches,
                sim_time: out.sim_time,
                prefetch_hidden: out.metrics.gauge("copy.prefetch_hidden_time").unwrap_or(0.0),
                prefetch_exposed: out.metrics.gauge("copy.prefetch_exposed_time").unwrap_or(0.0),
            });
            streamed_best = Some(out);
        }
        let streamed = streamed_best.ok_or_else(|| {
            io::Error::other(format!("{}: no feasible streaming window", ds.name))
        })?;
        let identical = streamed.matching.mate_array() == base.matching.mate_array();
        let rec = OocRecord {
            dataset: ds.name.to_string(),
            devices: DEVICES,
            mem_bytes,
            footprint,
            whole_graph_refused: refused,
            refusal,
            windows,
            identical,
            weight: streamed.matching.weight(&g),
            cardinality: streamed.matching.cardinality() as u64,
        };
        let best = rec.best().expect("at least one feasible window");
        t.row(vec![
            ds.name.to_string(),
            format!("{:.0}%", rec.mem_bytes as f64 / rec.footprint as f64 * 100.0),
            if rec.whole_graph_refused { "refused".into() } else { "fit?!".into() },
            format!("{}", best.window),
            format!("{}", best.bands),
            fmt_secs(best.sim_time),
            format!("{:.0}%", best.hidden_frac() * 100.0),
            format!("{}", rec.identical),
        ]);
        records.push(rec);
    }
    writeln!(w, "{t}")?;
    writeln!(
        w,
        "(mem/need = shrunken capacity over single-batch footprint; hidden =\n\
         prefetch copy time buried under band kernels at the best window)"
    )?;
    Ok(records)
}

/// Run the full 14-dataset study.
pub fn run_records(w: &mut dyn Write) -> io::Result<Vec<OocRecord>> {
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
        let subset = [by_name("mouse_gene").unwrap(), by_name("com-Orkut").unwrap()];
        let mut sink = Vec::new();
        let records = run_on(&subset, &mut sink).unwrap();
        assert_eq!(records.len(), 2);
        for r in &records {
            assert!(r.whole_graph_refused, "{}: 40% capacity must refuse", r.dataset);
            assert!(r.refusal.contains("1-batch plan"), "{}: {}", r.dataset, r.refusal);
            assert!(r.identical, "{}: streamed matching must be bit-identical", r.dataset);
            assert!(!r.windows.is_empty());
            for p in &r.windows {
                assert!(p.bands > 1, "{} w{}: tight budget must band-slice", r.dataset, p.window);
                assert!(p.sim_time > 0.0);
                assert!(p.prefetch_hidden >= 0.0 && p.prefetch_exposed >= 0.0);
                assert!(p.hidden_frac() <= 1.0);
            }
            assert!(r.best().unwrap().hidden_frac() > 0.0, "{}: nothing hidden", r.dataset);
        }
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("out-of-core streaming"));
    }

    #[test]
    fn json_round_trips() {
        let subset = [by_name("mouse_gene").unwrap()];
        let mut sink = Vec::new();
        let records = run_on(&subset, &mut sink).unwrap();
        let doc = ooc_records_to_json(&records).to_string_pretty();
        let parsed = ldgm_gpusim::json::parse(&doc).unwrap();
        let rows = parsed.as_array().unwrap();
        assert_eq!(rows.len(), records.len());
        assert_eq!(rows[0].get("dataset").and_then(Json::as_str), Some("mouse_gene"));
        assert_eq!(
            rows[0].get("whole_graph_refused").and_then(Json::as_bool),
            Some(records[0].whole_graph_refused)
        );
        let wins = rows[0].get("windows").and_then(Json::as_array).unwrap();
        assert_eq!(wins.len(), records[0].windows.len());
        assert_eq!(
            rows[0].get("best_hidden_frac").and_then(Json::as_f64),
            Some(records[0].best().unwrap().hidden_frac())
        );
    }
}
