//! Golden corpus of the dynamic engine (`IncrementalLd`, what
//! `ldgm dynamic` runs): one digest line per run, compared against the
//! committed `golden_dynamic.digest`.
//!
//! On the static corpus's six stand-ins, the engine runs at 1 and 4 scaled
//! DGX-A100 devices and at 4 devices on a two-node cluster, with overlap
//! off and on, and replays one seeded update stream of each workload kind.
//! The compaction threshold is low enough that some runs compact, and the
//! cluster runs bill their collectives hierarchically with the whole
//! payload crossing the inter-node link. A line records the bits of the
//! total and initial simulated times, the round count and FNV-1a hashes of
//! the mate array, every batch report, the phase breakdown,
//! `metrics.to_json()` and the Chrome trace.
//!
//! After an intended change of behaviour, rewrite the file with
//! `LDGM_BLESS=1 cargo test -p ldgm-bench --test golden_dynamic` and
//! review its diff.

mod common;

use common::{check_digest, fnv, on_two_threads};
use ldgm_bench::datasets::{by_name, scaled_platform};
use ldgm_dyn::{BatchReport, DynConfig, DynRunOutput, IncrementalLd, UpdateStream, WorkloadKind};
use ldgm_gpusim::{chrome_trace_json, Link, Platform};

/// The static corpus's stand-ins.
const STAND_INS: [&str; 6] =
    ["com-Orkut", "mycielskian18", "Queen_4147", "HV15R", "mouse_gene", "kmer_V2a"];
/// The update streams, one line each per engine build.
const KINDS: [WorkloadKind; 3] =
    [WorkloadKind::Uniform, WorkloadKind::Skewed, WorkloadKind::SlidingWindow];
/// Batches per run.
const BATCHES: usize = 4;
/// Update steps per batch.
const BATCH_SIZE: usize = 48;
/// Compaction threshold: 0.2% of the base's directed edges, so that 48 of
/// the 108 runs compact (com-Orkut and kmer_V2a on every stream, HV15R and
/// Queen_4147 on the sliding window) and the rest never do.
const COMPACT_FRAC: f64 = 0.002;

/// Where a run executes.
#[derive(Clone, Copy)]
enum Setup {
    /// Scaled DGX-A100 at `devices`.
    Flat(usize),
    /// Four devices on a two-node cluster of scaled DGX-A100s (two GPUs
    /// per node).
    Cluster,
}

/// One engine build of the corpus; each workload kind replays its stream
/// on a copy of the built engine.
#[derive(Clone, Copy)]
struct Job {
    graph: usize,
    setup: Setup,
    overlap: bool,
}

/// The builds in file order (three lines each, one per kind).
fn jobs() -> Vec<Job> {
    let mut out = Vec::new();
    for graph in 0..STAND_INS.len() {
        for setup in [Setup::Flat(1), Setup::Flat(4), Setup::Cluster] {
            out.extend([false, true].map(|overlap| Job { graph, setup, overlap }));
        }
    }
    out
}

/// The configuration of one job.
fn config(job: Job) -> DynConfig {
    let (platform, devices) = match job.setup {
        Setup::Flat(devices) => (scaled_platform(Platform::dgx_a100()), devices),
        Setup::Cluster => {
            (scaled_platform(Platform::dgx_a100().clustered(2, 2, Link::INFINIBAND_HDR)), 4)
        }
    };
    DynConfig::new(platform).devices(devices).with_overlap(job.overlap).compact_frac(COMPACT_FRAC)
}

/// The bytes of one batch report, field by field.
fn report_bytes(r: &BatchReport) -> Vec<u8> {
    let words = [
        r.batch,
        r.updates as u64,
        r.inserts as u64,
        r.deletes as u64,
        r.seed_frontier as u64,
        r.rounds,
        r.new_matches,
        r.broken_matches,
        r.sim_time.to_bits(),
        r.compacted as u64,
    ];
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// The digest line of one finished run.
fn line(job: Job, kind: WorkloadKind, reports: &[BatchReport], out: &DynRunOutput) -> String {
    let setup = match job.setup {
        Setup::Flat(d) => format!("dgx-a100 x{d}"),
        Setup::Cluster => "2-node x4".to_string(),
    };
    let overlap = if job.overlap { "overlap" } else { "serial" };
    let mates: Vec<u8> = out.matching.mate_array().iter().flat_map(|m| m.to_le_bytes()).collect();
    let batches: Vec<u8> = reports.iter().flat_map(report_bytes).collect();
    let compactions = reports.iter().filter(|r| r.compacted).count();
    let p = &out.profile.phases;
    let phases: Vec<u8> = [p.pointing, p.matching, p.allreduce, p.transfer, p.sync]
        .iter()
        .flat_map(|t| t.to_bits().to_le_bytes())
        .collect();
    format!(
        "{} {setup} {overlap} {} sim={:016x} initial={:016x} rounds={} compactions={compactions} \
         mates={:016x} batches={:016x} phases={:016x} metrics={:016x} trace={:016x}",
        STAND_INS[job.graph],
        kind.name(),
        out.sim_time.to_bits(),
        out.initial_time.to_bits(),
        out.rounds,
        fnv(&mates),
        fnv(&batches),
        fnv(&phases),
        fnv(out.metrics.to_json().to_string_compact().as_bytes()),
        fnv(chrome_trace_json(&out.trace).to_string_compact().as_bytes()),
    )
}

#[test]
fn dynamic_engine_matches_the_golden_corpus() {
    let graphs =
        on_two_threads(STAND_INS.len(), |i| by_name(STAND_INS[i]).expect("registry name").build());
    let streams: Vec<Vec<UpdateStream>> = graphs
        .iter()
        .map(|g| {
            let seeds = 0x5eed_u64..;
            KINDS.iter().zip(seeds).map(|(&kind, seed)| UpdateStream::new(g, kind, seed)).collect()
        })
        .collect();
    let jobs = jobs();
    let lines = on_two_threads(jobs.len(), |i| {
        let job = jobs[i];
        let built = IncrementalLd::new(graphs[job.graph].clone(), config(job));
        let replay = |(&kind, stream): (&WorkloadKind, &UpdateStream)| {
            let (mut engine, mut stream) = (built.clone(), stream.clone());
            let reports: Vec<BatchReport> =
                (0..BATCHES).map(|_| engine.apply_batch(&stream.next_batch(BATCH_SIZE))).collect();
            line(job, kind, &reports, &engine.finish())
        };
        KINDS.iter().zip(&streams[job.graph]).map(replay).collect::<Vec<String>>()
    });
    check_digest("golden_dynamic.digest", &lines.concat());
}
