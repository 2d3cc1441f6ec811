//! Golden corpus of the static LD-GPU driver: one digest line per run,
//! compared against the committed `golden_static.digest`.
//!
//! On six stand-ins with both long and short adjacency lists, the four
//! `optimized × overlap` combinations run at 1 and 4 scaled DGX-A100
//! devices, at 4 devices on a two-node
//! cluster (topology-aware placement) and at 4 devices with an explicit
//! three-batch plan, plus one out-of-core streaming run and one run of the
//! cuGraph-style baseline per stand-in, all with the trace on. The
//! three-batch runs pin the batch walk's per-iteration copies and host
//! syncs, its per-batch overlap slices, its frontier batch slices and its
//! skipped batches; the cuGraph run pins retirement off, MPI-staged
//! collectives and the kernel-overhead factor. A line records the simulated
//! time's bits, the iteration count and FNV-1a hashes of the mate array,
//! the phase breakdown, `metrics.to_json()` and the Chrome trace, so a
//! refactor of the driver, the kernels or the billing that changes any
//! observable output fails here.
//!
//! After an intended change of behaviour, rewrite the file with
//! `LDGM_BLESS=1 cargo test -p ldgm-bench --test golden_static` and
//! review its diff.

mod common;

use common::{check_digest, fnv, on_two_threads};
use ldgm_bench::datasets::{by_name, scaled_platform};
use ldgm_core::cugraph_sim::cugraph_sim_traced;
use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig, LdGpuOutput};
use ldgm_gpusim::{chrome_trace_json, Link, Platform};
use ldgm_graph::CsrGraph;
use ldgm_part::{batch, memory, plan_substreams, Partition};

/// The stand-ins: hub-heavy social lists (com-Orkut), long lists
/// (mycielskian18, the Queen_4147 and HV15R lattices, dense mouse_gene
/// blocks) and short chains (kmer_V2a).
const STAND_INS: [&str; 6] =
    ["com-Orkut", "mycielskian18", "Queen_4147", "HV15R", "mouse_gene", "kmer_V2a"];
/// Devices of the streaming run.
const STREAM_DEVICES: usize = 2;
/// Resident window of the streaming run, in bands.
const STREAM_WINDOW: usize = 4;
/// Batches per device of the batched runs: more than the two stream
/// buffers, so every iteration re-streams and host-syncs each batch.
const BATCHES: usize = 3;

/// Where a run executes.
#[derive(Clone, Copy)]
enum Setup {
    /// Scaled DGX-A100 at `devices`.
    Flat(usize),
    /// Four devices on a two-node cluster of scaled DGX-A100s (two GPUs
    /// per node), topology-aware placement on.
    Cluster,
    /// Out-of-core streaming with the `ld-gpu-opt` layers and overlap on,
    /// at a budget below the single-batch footprint.
    Stream,
    /// Four scaled DGX-A100 devices with an explicit [`BATCHES`]-batch
    /// plan.
    Batched,
    /// The cuGraph-style baseline at four scaled DGX-A100 devices.
    CuGraph,
}

/// One run of the corpus: a stand-in, a setup and the two toggles (bit 0
/// the optimized mode, bit 1 overlap).
#[derive(Clone, Copy)]
struct Job {
    graph: usize,
    setup: Setup,
    toggles: u8,
}

/// The corpus in file order.
fn jobs() -> Vec<Job> {
    let mut out = Vec::new();
    for graph in 0..STAND_INS.len() {
        for setup in [Setup::Flat(1), Setup::Flat(4), Setup::Cluster] {
            out.extend((0..4).map(|toggles| Job { graph, setup, toggles }));
        }
        out.push(Job { graph, setup: Setup::Stream, toggles: 0b11 });
        out.extend((0..4).map(|toggles| Job { graph, setup: Setup::Batched, toggles }));
        out.push(Job { graph, setup: Setup::CuGraph, toggles: 0 });
    }
    out
}

/// The streaming budget: 40% of the single-batch footprint, raised to
/// the planner's minimum for the window where a partition needs more.
fn stream_budget(g: &CsrGraph) -> u64 {
    let parts = Partition::edge_balanced(g, STREAM_DEVICES).parts;
    let footprint = parts
        .iter()
        .map(|p| memory::device_footprint_bytes(&batch::make_batches(g, p, 1), g.num_vertices()))
        .max()
        .unwrap_or(0);
    let mut budget = (footprint * 2 / 5).max(1);
    for p in &parts {
        if let Err(e) = plan_substreams(g, p, g.num_vertices(), budget, STREAM_WINDOW) {
            budget = budget.max(e.required);
        }
    }
    budget
}

/// Run one job.
fn run(job: Job, g: &CsrGraph) -> LdGpuOutput {
    let out = match job.setup {
        Setup::CuGraph => cugraph_sim_traced(g, &scaled_platform(Platform::dgx_a100()), 4, true),
        _ => LdGpu::new(config(job, g)).try_run(g),
    };
    out.expect("corpus runs are feasible")
}

/// The configuration of one LD-GPU job.
fn config(job: Job, g: &CsrGraph) -> LdGpuConfig {
    let a100 = scaled_platform(Platform::dgx_a100());
    let cfg = match job.setup {
        Setup::Flat(devices) => LdGpuConfig::new(a100).devices(devices),
        Setup::Cluster => {
            let two_nodes = Platform::dgx_a100().clustered(2, 2, Link::INFINIBAND_HDR);
            LdGpuConfig::new(scaled_platform(two_nodes)).devices(4).with_topology_placement(true)
        }
        Setup::Stream => LdGpuConfig::new(a100)
            .devices(STREAM_DEVICES)
            .with_streaming(true)
            .with_mem_budget(stream_budget(g))
            .with_stream_window(STREAM_WINDOW),
        Setup::Batched => LdGpuConfig::new(a100).devices(4).batches(BATCHES),
        Setup::CuGraph => unreachable!("the cuGraph baseline builds its own config"),
    };
    LdGpuConfig { optimized: job.toggles & 1 != 0, ..cfg }
        .with_overlap(job.toggles & 2 != 0)
        .with_trace()
}

/// The digest line of one finished run.
fn line(job: Job, out: &LdGpuOutput) -> String {
    let setup = match job.setup {
        Setup::Flat(d) => format!("dgx-a100 x{d}"),
        Setup::Cluster => "2-node x4".to_string(),
        Setup::Stream => format!("stream x{STREAM_DEVICES}"),
        Setup::Batched => format!("dgx-a100 x4 b{BATCHES}"),
        Setup::CuGraph => "cugraph x4".to_string(),
    };
    // The optimized mode keeps the label of the three layers it turns on.
    let names = ["sorted+frontier+sparse", "overlap"];
    let on: Vec<&str> = (0..2).filter(|b| job.toggles >> b & 1 != 0).map(|b| names[b]).collect();
    let toggles = if on.is_empty() { "none".to_string() } else { on.join("+") };
    let mates: Vec<u8> = out.matching.mate_array().iter().flat_map(|m| m.to_le_bytes()).collect();
    let p = &out.profile.phases;
    let phases: Vec<u8> = [p.pointing, p.matching, p.allreduce, p.transfer, p.sync]
        .iter()
        .flat_map(|t| t.to_bits().to_le_bytes())
        .collect();
    let trace = out.trace.as_ref().expect("corpus runs record a trace");
    format!(
        "{} {setup} {toggles} sim={:016x} iters={} batches={} mates={:016x} phases={:016x} \
         metrics={:016x} trace={:016x}",
        STAND_INS[job.graph],
        out.sim_time.to_bits(),
        out.iterations,
        out.batches,
        fnv(&mates),
        fnv(&phases),
        fnv(out.metrics.to_json().to_string_compact().as_bytes()),
        fnv(chrome_trace_json(trace).to_string_compact().as_bytes()),
    )
}

#[test]
fn static_driver_matches_the_golden_corpus() {
    let graphs =
        on_two_threads(STAND_INS.len(), |i| by_name(STAND_INS[i]).expect("registry name").build());
    let jobs = jobs();
    let lines = on_two_threads(jobs.len(), |i| {
        let job = jobs[i];
        line(job, &run(job, &graphs[job.graph]))
    });
    check_digest("golden_static.digest", &lines);
}
