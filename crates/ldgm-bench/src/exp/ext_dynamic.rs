//! **Extension**: batch-dynamic maintenance vs from-scratch recompute.
//!
//! The paper solves each graph once; production graphs mutate. This
//! experiment drives the `ldgm-dyn` incremental engine and the
//! rerun-static-LD baseline over identical seeded update streams on an
//! rmat stand-in, across three update-batch sizes. The crossover is the
//! point of the study: tiny batches touch a tiny frontier and the
//! incremental engine wins by orders of magnitude; as batches approach
//! the graph size the frontier approaches the full vertex set and the
//! advantage narrows toward recompute.

use std::io::{self, Write};

use ldgm_core::MatcherSetup;
use ldgm_dyn::{DynamicMatcherRegistry, WorkloadSpec};
use ldgm_gpusim::Platform;

use crate::datasets::{by_name, scaled_platform};
use crate::runner::{fmt_secs, BenchRecord};
use crate::table::Table;

/// The rmat stand-in driven with updates.
pub const GRAPH: &str = "com-Orkut";
/// Update-batch sizes swept (updates per batch).
pub const BATCH_SIZES: &[usize] = &[16, 256, 4096];
/// Batches applied per configuration.
pub const BATCHES: usize = 6;
/// Simulated devices.
pub const DEVICES: usize = 4;
/// Workload seed (shared by both engines: identical streams).
pub const SEED: u64 = 7;

/// Run the experiment and return the bench records it measured.
pub fn run_records(w: &mut dyn Write) -> io::Result<Vec<BenchRecord>> {
    writeln!(w, "# Extension: batch-dynamic maintenance vs from-scratch LD-GPU\n")?;
    writeln!(
        w,
        "{GRAPH} stand-in under uniform insert/delete streams on {DEVICES} simulated\n\
         A100s ({BATCHES} batches per size, same seed for both engines, so both\n\
         maintain bit-identical matchings). Times are maintenance only —\n\
         the initial solve is identical work for both engines.\n"
    )?;
    let dataset = by_name(GRAPH).expect("registry dataset");
    let g = dataset.build();
    let platform = scaled_platform(Platform::dgx_a100());
    let setup = MatcherSetup { platform, devices: DEVICES, ..MatcherSetup::default() };
    let registry = DynamicMatcherRegistry::with_defaults(&setup);

    let mut t = Table::new(vec![
        "batch size",
        "engine",
        "maintenance",
        "per batch",
        "rounds",
        "weight",
        "speedup",
    ]);
    let mut records = Vec::new();
    for &size in BATCH_SIZES {
        let spec = WorkloadSpec {
            batches: BATCHES,
            batch_size: size,
            seed: SEED,
            ..WorkloadSpec::default()
        };
        let mut scratch_time = None;
        let mut row_results = Vec::new();
        for name in ["from-scratch", "incremental"] {
            let engine = registry.get(name).expect("registered engine");
            let out = engine.run(&g, &spec).expect("dynamic run fits the scaled platform");
            if name == "from-scratch" {
                scratch_time = Some(out.maintenance_time);
            }
            records.push(BenchRecord {
                dataset: GRAPH.to_string(),
                algorithm: format!("ld-dyn-{name}"),
                platform: "dgx-a100-scaled".to_string(),
                devices: DEVICES,
                // For dynamic records this column carries the update-batch
                // size, the swept variable.
                batches: size,
                time: out.maintenance_time,
                cardinality: out.matching.cardinality() as u64,
                weight: out.matching.weight(&out.graph),
                iterations: out.iterations,
            });
            row_results.push((name, out));
        }
        for (name, out) in &row_results {
            t.row(vec![
                format!("{size}"),
                name.to_string(),
                fmt_secs(out.maintenance_time),
                fmt_secs(out.maintenance_time / BATCHES as f64),
                format!("{}", out.iterations),
                format!("{:.1}", out.matching.weight(&out.graph)),
                format!("{:.1}x", scratch_time.unwrap() / out.maintenance_time),
            ]);
        }
    }
    writeln!(w, "{t}")?;
    Ok(records)
}

/// Run the experiment, writing the report to `w`.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    run_records(w).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldgm_graph::gen::urand;

    #[test]
    fn incremental_beats_from_scratch_for_small_batches() {
        // The study's headline check on a fast, test-sized stand-in.
        let g = urand(2000, 12000, 31);
        let setup = MatcherSetup {
            platform: scaled_platform(Platform::dgx_a100()),
            devices: DEVICES,
            ..MatcherSetup::default()
        };
        let registry = DynamicMatcherRegistry::with_defaults(&setup);
        let spec =
            WorkloadSpec { batches: 3, batch_size: 16, seed: SEED, ..WorkloadSpec::default() };
        let inc = registry.get("incremental").unwrap().run(&g, &spec).unwrap();
        let scr = registry.get("from-scratch").unwrap().run(&g, &spec).unwrap();
        assert_eq!(inc.matching, scr.matching, "engines must agree on the matching");
        assert!(
            inc.maintenance_time * 2.0 < scr.maintenance_time,
            "incremental {} vs from-scratch {}",
            inc.maintenance_time,
            scr.maintenance_time
        );
    }

    #[test]
    fn records_cover_both_engines_across_sizes() {
        let mut sink = Vec::new();
        let records = run_records(&mut sink).unwrap();
        assert_eq!(records.len(), 2 * BATCH_SIZES.len());
        for chunk in records.chunks(2) {
            let (scr, inc) = (&chunk[0], &chunk[1]);
            assert_eq!(scr.algorithm, "ld-dyn-from-scratch");
            assert_eq!(inc.algorithm, "ld-dyn-incremental");
            assert_eq!(scr.batches, inc.batches);
            assert_eq!(scr.weight, inc.weight, "identical streams, identical matchings");
        }
        // Small batches: decisive incremental win.
        assert!(records[1].time * 4.0 < records[0].time);
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("batch-dynamic"));
    }
}
