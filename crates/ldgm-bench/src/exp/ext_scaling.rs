//! **Extension**: communication/computation overlap across device counts,
//! and multi-node cluster scaling.
//!
//! The overlap engine changes only how collectives are billed: batch-level
//! pointer deltas become chunks whose wire time runs on a dedicated comm
//! stream under later kernels, and a device's slice of the reduction
//! starts as soon as that device drains its last batch instead of after
//! the global barrier. This study sweeps the Table-I stand-ins across
//! device counts on the scaled DGX-A100 (1-8 GPUs) and scaled DGX-2
//! (16 GPUs) fabrics and reports simulated time, exposed and hidden
//! communication for the serialized baseline vs overlap mode. Matchings
//! are bit-identical by construction; only the timeline moves.
//!
//! The **cluster sweep** ([`run_cluster_on`]) continues past the single
//! box: 16 → 64 → 128 simulated GPUs as 2/8/16 DGX-A100 nodes over
//! InfiniBand HDR, comparing a flat ring over the slow link, the
//! hierarchical schedule (intra-node ring + leader ring), and the
//! hierarchical schedule under topology-aware part→node placement. All
//! three produce bit-identical matchings; the records capture where the
//! exposed inter-node communication crosses over the per-iteration
//! compute as devices scale, and how much of it placement removes.

use std::io::{self, Write};

use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig, LdGpuOutput};
use ldgm_gpusim::json::Json;
use ldgm_gpusim::{Link, Platform};

use crate::datasets::{registry, scaled_platform, Dataset};
use crate::runner::fmt_secs;
use crate::table::Table;

/// Platforms and the device counts swept on each: the A100 box up to its
/// 8-GPU fabric, then the 16-GPU DGX-2 for the largest point.
pub fn device_sweep() -> Vec<(&'static str, Platform, Vec<usize>)> {
    vec![
        ("dgx-a100", scaled_platform(Platform::dgx_a100()), vec![1, 2, 4, 8]),
        ("dgx2", scaled_platform(Platform::dgx2()), vec![16]),
    ]
}

/// Cluster shapes swept by [`run_cluster_on`]: `(nodes, gpus_per_node)`
/// over InfiniBand HDR — 16, 64 and 128 simulated GPUs.
pub fn cluster_sweep() -> Vec<(usize, usize)> {
    vec![(2, 8), (8, 8), (16, 8)]
}

/// One serialized-vs-overlap comparison at a fixed device count.
#[derive(Clone, Debug)]
pub struct ScalingRecord {
    /// Dataset name (Table I stand-in identifier).
    pub dataset: String,
    /// Platform preset the point ran on.
    pub platform: String,
    /// Cluster topology name, or `"flat"` for single-node platforms.
    pub topology: String,
    /// Nodes spanned by the run (1 for single-node platforms).
    pub nodes: usize,
    /// Devices used.
    pub devices: usize,
    /// Simulated seconds with serialized collectives (default billing).
    pub time_serial: f64,
    /// Simulated seconds with the overlap engine.
    pub time_overlap: f64,
    /// Collective seconds on the critical path, serialized baseline.
    pub exposed_serial: f64,
    /// Collective seconds still exposed with overlap on.
    pub exposed_overlap: f64,
    /// Collective seconds hidden under compute by the overlap engine.
    pub hidden_overlap: f64,
    /// Matching weight (identical across modes by construction).
    pub weight: f64,
    /// Matched edges (identical across modes by construction).
    pub cardinality: u64,
    /// Whether the two mate arrays were bit-identical.
    pub identical: bool,
}

impl ScalingRecord {
    /// Simulated-time ratio serialized / overlap.
    pub fn speedup(&self) -> f64 {
        self.time_serial / self.time_overlap
    }

    /// Exposed-communication seconds removed by the overlap engine.
    pub fn exposed_reduction(&self) -> f64 {
        self.exposed_serial - self.exposed_overlap
    }

    /// Serialize for `BENCH_scaling.json`.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("kind", "overlap")
            .with("dataset", self.dataset.clone())
            .with("platform", self.platform.clone())
            .with("topology", self.topology.clone())
            .with("nodes", self.nodes)
            .with("devices", self.devices)
            .with("time_serial", self.time_serial)
            .with("time_overlap", self.time_overlap)
            .with("speedup", self.speedup())
            .with("exposed_serial", self.exposed_serial)
            .with("exposed_overlap", self.exposed_overlap)
            .with("exposed_reduction", self.exposed_reduction())
            .with("hidden_overlap", self.hidden_overlap)
            .with("weight", self.weight)
            .with("cardinality", self.cardinality)
            .with("identical", self.identical)
    }
}

/// Serialize a result set as a JSON array document.
pub fn scaling_records_to_json(records: &[ScalingRecord]) -> Json {
    Json::Array(records.iter().map(ScalingRecord::to_json).collect())
}

/// One flat / hierarchical / topology-aware comparison on a cluster shape.
#[derive(Clone, Debug)]
pub struct ClusterRecord {
    /// Dataset name (Table I stand-in identifier).
    pub dataset: String,
    /// Cluster topology name.
    pub topology: String,
    /// Nodes in the cluster.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Total devices used (`nodes * gpus_per_node`).
    pub devices: usize,
    /// Simulated seconds with a flat ring over the inter-node link.
    pub time_flat: f64,
    /// Simulated seconds with hierarchical collectives, grouped placement.
    pub time_hier: f64,
    /// Simulated seconds with hierarchical collectives + topology-aware
    /// part→node placement.
    pub time_aware: f64,
    /// Inter-node stage seconds, grouped placement.
    pub inter_time_hier: f64,
    /// Inter-node stage seconds under topology-aware placement.
    pub inter_time_aware: f64,
    /// Inter-node wire bytes, grouped placement.
    pub inter_bytes_hier: u64,
    /// Inter-node wire bytes under topology-aware placement.
    pub inter_bytes_aware: u64,
    /// Weighted inter-node cut fraction of grouped placement.
    pub cut_grouped: f64,
    /// Weighted inter-node cut fraction of topology-aware placement.
    pub cut_aware: f64,
    /// Fraction of vertices with an inter-node edge (aware placement);
    /// this scales the inter-node stage payload.
    pub boundary_aware: f64,
    /// Matching weight (identical across modes by construction).
    pub weight: f64,
    /// Matched edges (identical across modes by construction).
    pub cardinality: u64,
    /// Whether all three mate arrays matched the single-node reference.
    pub identical: bool,
}

impl ClusterRecord {
    /// Simulated-time ratio flat / hierarchical.
    pub fn hier_speedup(&self) -> f64 {
        self.time_flat / self.time_hier
    }

    /// Inter-node stage seconds removed by topology-aware placement.
    pub fn inter_reduction(&self) -> f64 {
        self.inter_time_hier - self.inter_time_aware
    }

    /// Inter-node stage share of the hierarchical run — the
    /// quality-per-iteration vs exposed-inter-node-comm crossover signal:
    /// when this passes ~0.5 the slow link, not compute, paces the run.
    pub fn inter_fraction_hier(&self) -> f64 {
        if self.time_hier > 0.0 {
            self.inter_time_hier / self.time_hier
        } else {
            0.0
        }
    }

    /// Serialize for `BENCH_scaling.json`.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("kind", "cluster")
            .with("dataset", self.dataset.clone())
            .with("topology", self.topology.clone())
            .with("nodes", self.nodes)
            .with("gpus_per_node", self.gpus_per_node)
            .with("devices", self.devices)
            .with("time_flat", self.time_flat)
            .with("time_hier", self.time_hier)
            .with("time_aware", self.time_aware)
            .with("hier_speedup", self.hier_speedup())
            .with("inter_time_hier", self.inter_time_hier)
            .with("inter_time_aware", self.inter_time_aware)
            .with("inter_reduction", self.inter_reduction())
            .with("inter_fraction_hier", self.inter_fraction_hier())
            .with("inter_bytes_hier", self.inter_bytes_hier)
            .with("inter_bytes_aware", self.inter_bytes_aware)
            .with("cut_grouped", self.cut_grouped)
            .with("cut_aware", self.cut_aware)
            .with("boundary_aware", self.boundary_aware)
            .with("weight", self.weight)
            .with("cardinality", self.cardinality)
            .with("identical", self.identical)
    }
}

/// Serialize both sweeps as one JSON array document — the
/// `BENCH_scaling.json` layout (overlap rows first, then cluster rows;
/// each row carries a `kind` discriminator).
pub fn combined_records_to_json(overlap: &[ScalingRecord], cluster: &[ClusterRecord]) -> Json {
    let mut rows: Vec<Json> = overlap.iter().map(ScalingRecord::to_json).collect();
    rows.extend(cluster.iter().map(ClusterRecord::to_json));
    Json::Array(rows)
}

fn run_mode(g: &ldgm_graph::CsrGraph, cfg: LdGpuConfig) -> Result<LdGpuOutput, String> {
    LdGpu::new(cfg).try_run(g).map_err(|e| e.to_string())
}

fn exposed(out: &LdGpuOutput) -> f64 {
    out.metrics.gauge("comm.exposed_time").unwrap_or(0.0)
}

/// Run the study over `datasets` and the given `(platform, devices)`
/// sweep, returning one record per feasible point.
pub fn run_on(datasets: &[Dataset], w: &mut dyn Write) -> io::Result<Vec<ScalingRecord>> {
    writeln!(w, "# Extension: communication/computation overlap device-count scaling\n")?;
    writeln!(
        w,
        "Serialized collectives vs the overlap engine (comm-stream chunked\n\
         allreduce + early per-device reduce-scatter) across device counts.\n\
         Both modes produce bit-identical matchings; only collective billing\n\
         differs. Points that do not fit device memory are skipped.\n"
    )?;
    let mut t = Table::new(vec![
        "dataset",
        "platform",
        "dev",
        "serial",
        "overlap",
        "speedup",
        "exposed ser",
        "exposed ovl",
        "hidden",
    ]);
    let mut records = Vec::new();
    for ds in datasets {
        let g = ds.build();
        for (pname, platform, devices) in device_sweep() {
            for &dev in &devices {
                let cfg = LdGpuConfig::new(platform.clone()).devices(dev);
                let ser = match run_mode(&g, cfg.clone()) {
                    Ok(out) => out,
                    Err(e) => {
                        writeln!(w, "skip {} {pname} d{dev}: {e}", ds.name)?;
                        continue;
                    }
                };
                let ovl = run_mode(&g, cfg.with_overlap(true))
                    .expect("same memory plan as the serialized run");
                let identical = ovl.matching.mate_array() == ser.matching.mate_array();
                let (topology, nodes) = match platform.cluster_topology() {
                    Some(t) => (t.name.to_string(), t.nodes_spanned(dev)),
                    None => ("flat".to_string(), 1),
                };
                let rec = ScalingRecord {
                    dataset: ds.name.to_string(),
                    platform: pname.to_string(),
                    topology,
                    nodes,
                    devices: dev,
                    time_serial: ser.sim_time,
                    time_overlap: ovl.sim_time,
                    exposed_serial: exposed(&ser),
                    exposed_overlap: exposed(&ovl),
                    hidden_overlap: ovl.metrics.gauge("comm.hidden_time").unwrap_or(0.0),
                    weight: ser.matching.weight(&g),
                    cardinality: ser.matching.cardinality() as u64,
                    identical,
                };
                t.row(vec![
                    ds.name.to_string(),
                    pname.to_string(),
                    format!("{dev}"),
                    fmt_secs(rec.time_serial),
                    fmt_secs(rec.time_overlap),
                    format!("{:.2}x", rec.speedup()),
                    fmt_secs(rec.exposed_serial),
                    fmt_secs(rec.exposed_overlap),
                    fmt_secs(rec.hidden_overlap),
                ]);
                records.push(rec);
            }
        }
    }
    writeln!(w, "{t}")?;
    writeln!(
        w,
        "(exposed = collective seconds on the critical path; hidden =\n\
         collective seconds the overlap engine ran under compute)"
    )?;
    Ok(records)
}

/// Run the cluster study over `datasets` and the given `(nodes,
/// gpus_per_node)` shapes, returning one record per feasible point.
///
/// Each shape is a scaled DGX-A100 clustered over InfiniBand HDR; three
/// modes run per point — flat ring over the slow link
/// ([`Platform::flattened`]), hierarchical collectives with grouped
/// placement, and hierarchical collectives with topology-aware
/// placement. All mate arrays are checked against a single-node 8-GPU
/// reference run of the same dataset.
pub fn run_cluster_on(
    datasets: &[Dataset],
    shapes: &[(usize, usize)],
    w: &mut dyn Write,
) -> io::Result<Vec<ClusterRecord>> {
    writeln!(w, "\n# Extension: multi-node cluster scaling\n")?;
    writeln!(
        w,
        "Flat ring over InfiniBand HDR vs the hierarchical schedule\n\
         (intra-node ring + node-leader ring) vs hierarchical + topology-\n\
         aware part->node placement, on clusters of scaled DGX-A100 nodes.\n\
         All modes produce bit-identical matchings; only collective\n\
         billing differs. Points that do not fit device memory are\n\
         skipped.\n"
    )?;
    let mut t = Table::new(vec![
        "dataset",
        "nodes",
        "dev",
        "flat",
        "hier",
        "aware",
        "speedup",
        "inter hier",
        "inter aware",
        "inter frac",
    ]);
    let mut records = Vec::new();
    for ds in datasets {
        let g = ds.build();
        let ref_cfg = LdGpuConfig::new(scaled_platform(Platform::dgx_a100())).devices(8);
        let reference = match run_mode(&g, ref_cfg) {
            Ok(out) => out,
            Err(e) => {
                writeln!(w, "skip {}: single-node reference failed: {e}", ds.name)?;
                continue;
            }
        };
        for &(nodes, gpn) in shapes {
            let ndev = nodes * gpn;
            let platform =
                scaled_platform(Platform::dgx_a100().clustered(nodes, gpn, Link::INFINIBAND_HDR));
            let hier_cfg = LdGpuConfig::new(platform.clone()).devices(ndev);
            let hier = match run_mode(&g, hier_cfg.clone()) {
                Ok(out) => out,
                Err(e) => {
                    writeln!(w, "skip {} {nodes}x{gpn}: {e}", ds.name)?;
                    continue;
                }
            };
            let flat_cfg = LdGpuConfig::new(platform.clone().flattened()).devices(ndev);
            let flat = run_mode(&g, flat_cfg).expect("same memory plan as the hierarchical run");
            let aware = run_mode(&g, hier_cfg.with_topology_placement(true))
                .expect("placement only changes billing, not the memory plan");
            let reference_mates = reference.matching.mate_array();
            let identical = [&flat, &hier, &aware]
                .iter()
                .all(|out| out.matching.mate_array() == reference_mates);
            let topology = platform
                .cluster_topology()
                .map_or_else(|| "flat".to_string(), |t| t.name.to_string());
            let rec = ClusterRecord {
                dataset: ds.name.to_string(),
                topology,
                nodes,
                gpus_per_node: gpn,
                devices: ndev,
                time_flat: flat.sim_time,
                time_hier: hier.sim_time,
                time_aware: aware.sim_time,
                inter_time_hier: hier.metrics.gauge("comm.inter_time").unwrap_or(0.0),
                inter_time_aware: aware.metrics.gauge("comm.inter_time").unwrap_or(0.0),
                inter_bytes_hier: hier.metrics.counter("comm.inter_node_bytes"),
                inter_bytes_aware: aware.metrics.counter("comm.inter_node_bytes"),
                cut_grouped: hier.metrics.gauge("part.inter_node_cut").unwrap_or(0.0),
                cut_aware: aware.metrics.gauge("part.inter_node_cut").unwrap_or(0.0),
                boundary_aware: aware.metrics.gauge("part.boundary_fraction").unwrap_or(0.0),
                weight: hier.matching.weight(&g),
                cardinality: hier.matching.cardinality() as u64,
                identical,
            };
            t.row(vec![
                ds.name.to_string(),
                format!("{nodes}"),
                format!("{ndev}"),
                fmt_secs(rec.time_flat),
                fmt_secs(rec.time_hier),
                fmt_secs(rec.time_aware),
                format!("{:.2}x", rec.hier_speedup()),
                fmt_secs(rec.inter_time_hier),
                fmt_secs(rec.inter_time_aware),
                format!("{:.0}%", rec.inter_fraction_hier() * 100.0),
            ]);
            records.push(rec);
        }
    }
    writeln!(w, "{t}")?;
    writeln!(
        w,
        "(inter = seconds billed to the inter-node stage; inter frac =\n\
         its share of the hierarchical run — past ~50% the slow link, not\n\
         per-iteration compute, paces the matching)"
    )?;
    if let Some(r) = records
        .iter()
        .filter(|r| r.devices >= 64)
        .max_by(|a, b| a.inter_reduction().total_cmp(&b.inter_reduction()))
    {
        writeln!(
            w,
            "best placement win at >=64 GPUs: {} on {} nodes — inter-node\n\
             time {} -> {} (cut {:.2} -> {:.2})",
            r.dataset,
            r.nodes,
            fmt_secs(r.inter_time_hier),
            fmt_secs(r.inter_time_aware),
            r.cut_grouped,
            r.cut_aware,
        )?;
    }
    Ok(records)
}

/// Run the full 14-dataset study.
pub fn run_records(w: &mut dyn Write) -> io::Result<Vec<ScalingRecord>> {
    run_on(&registry(), w)
}

/// Run the full 14-dataset cluster study over the default shapes.
pub fn run_cluster_records(w: &mut dyn Write) -> io::Result<Vec<ClusterRecord>> {
    run_cluster_on(&registry(), &cluster_sweep(), w)
}

/// Run the experiment, writing the report to `w`.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    run_records(w)?;
    run_cluster_records(w).map(|_| ())
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
            assert!(r.identical, "{} d{}: matchings must be bit-identical", r.dataset, r.devices);
            assert!(r.time_serial > 0.0 && r.time_overlap > 0.0);
            assert!(
                r.time_overlap <= r.time_serial + 1e-12,
                "{} d{}: overlap must never be slower ({:.3e} vs {:.3e})",
                r.dataset,
                r.devices,
                r.time_overlap,
                r.time_serial
            );
            assert!(
                r.exposed_overlap <= r.exposed_serial + 1e-12,
                "{} d{}: overlap must not expose more comm",
                r.dataset,
                r.devices
            );
            assert!(r.hidden_overlap >= 0.0);
        }
        // On the multi-device points of these skewed graphs some
        // collective time must actually move off the critical path.
        assert!(
            records.iter().any(|r| r.devices >= 4 && r.exposed_reduction() > 0.0),
            "no multi-device point hid any communication"
        );
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("overlap"));
    }

    #[test]
    fn json_round_trips() {
        let subset = [by_name("mouse_gene").unwrap()];
        let mut sink = Vec::new();
        let records = run_on(&subset, &mut sink).unwrap();
        let doc = scaling_records_to_json(&records).to_string_pretty();
        let parsed = ldgm_gpusim::json::parse(&doc).unwrap();
        let rows = parsed.as_array().unwrap();
        assert_eq!(rows.len(), records.len());
        assert_eq!(rows[0].get("kind").and_then(Json::as_str), Some("overlap"));
        assert_eq!(rows[0].get("dataset").and_then(Json::as_str), Some("mouse_gene"));
        // Satellite: every record is self-describing about its fabric.
        for (row, rec) in rows.iter().zip(&records) {
            assert_eq!(row.get("topology").and_then(Json::as_str), Some(rec.topology.as_str()));
            assert_eq!(row.get("nodes").and_then(Json::as_f64), Some(rec.nodes as f64));
            assert_eq!(row.get("topology").and_then(Json::as_str), Some("flat"));
        }
        assert_eq!(rows[0].get("speedup").and_then(Json::as_f64), Some(records[0].speedup()));
        assert_eq!(
            rows[0].get("hidden_overlap").and_then(Json::as_f64),
            Some(records[0].hidden_overlap)
        );
    }

    #[test]
    fn sweep_covers_sixteen_devices() {
        let total: usize = device_sweep().iter().map(|(_, _, d)| d.len()).sum();
        assert_eq!(total, 5);
        assert!(device_sweep().iter().any(|(_, p, d)| d.contains(&16) && p.max_devices >= 16));
    }

    #[test]
    fn cluster_sweep_reaches_128_gpus() {
        let shapes = cluster_sweep();
        assert_eq!(shapes.first(), Some(&(2, 8)));
        assert!(shapes.iter().any(|&(n, g)| n * g == 64));
        assert_eq!(shapes.iter().map(|&(n, g)| n * g).max(), Some(128));
    }

    #[test]
    fn cluster_smoke_point_matches_single_node_bit_for_bit() {
        // The exact point the CI cluster smoke step runs: 2 nodes x 4
        // GPUs on the smallest stand-in.
        let subset = [by_name("mouse_gene").unwrap()];
        let mut sink = Vec::new();
        let records = run_cluster_on(&subset, &[(2, 4)], &mut sink).unwrap();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert!(r.identical, "cluster matchings must equal the single-node run");
        assert_eq!((r.nodes, r.gpus_per_node, r.devices), (2, 4, 8));
        assert_eq!(r.topology, "DGX-A100");
        assert!(
            r.time_hier <= r.time_flat + 1e-12,
            "hierarchical must never lose to the flat ring ({:.3e} vs {:.3e})",
            r.time_hier,
            r.time_flat
        );
        assert!(
            r.inter_time_aware <= r.inter_time_hier + 1e-12,
            "aware placement must not add inter-node time"
        );
        assert!(r.inter_bytes_aware <= r.inter_bytes_hier);
        for cut in [r.cut_grouped, r.cut_aware, r.boundary_aware] {
            assert!((0.0..=1.0).contains(&cut), "cut metrics are fractions, got {cut}");
        }
        assert!(r.cut_aware <= r.cut_grouped + 1e-12, "aware placement must not cut more");
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("cluster scaling"));
    }

    #[test]
    fn combined_json_keeps_both_kinds() {
        let subset = [by_name("mouse_gene").unwrap()];
        let mut sink = Vec::new();
        let overlap = run_on(&subset, &mut sink).unwrap();
        let cluster = run_cluster_on(&subset, &[(2, 4)], &mut sink).unwrap();
        let doc = combined_records_to_json(&overlap, &cluster).to_string_pretty();
        let parsed = ldgm_gpusim::json::parse(&doc).unwrap();
        let rows = parsed.as_array().unwrap();
        assert_eq!(rows.len(), overlap.len() + cluster.len());
        let kinds: Vec<_> =
            rows.iter().map(|r| r.get("kind").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "overlap").count(), overlap.len());
        assert_eq!(kinds.iter().filter(|k| **k == "cluster").count(), cluster.len());
        let c = rows.last().unwrap();
        assert_eq!(c.get("nodes").and_then(Json::as_f64), Some(2.0));
        assert_eq!(c.get("hier_speedup").and_then(Json::as_f64), Some(cluster[0].hier_speedup()));
        assert_eq!(c.get("identical").and_then(Json::as_bool), Some(true));
    }
}
