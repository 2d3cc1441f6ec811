//! `match`: static LD-GPU matching along `ldgm match`'s library path.
//!
//! The benchmark writes MatrixMarket bytes for three stand-ins, loads
//! them with `io::read_mtx` (set-up), and times `ld-gpu` and `ld-gpu-opt`
//! passes over the three graphs through `MatcherRegistry::with_defaults`
//! at 4 devices on the scaled DGX-A100. The stand-ins differ in what
//! bounds the run: AGATHA-2015 is the only one that needs 2 batches per
//! device, kmer_U1a is bound by per-vertex and collective cost rather
//! than edge scans, and the two algorithms use `core` differently (a full
//! scan versus a sorted early exit).

use std::time::Instant;

use ldgm_bench::datasets::scaled_platform;
use ldgm_core::ld_gpu::{set_mates, set_pointers_batch, set_pointers_opt, PointingWork};
use ldgm_core::ld_seq::ld_seq;
use ldgm_core::{MatchResult, Matcher, MatcherRegistry, MatcherSetup};
use ldgm_gpusim::metrics::names;
use ldgm_gpusim::{Platform, NONE_SENTINEL};
use ldgm_graph::csr::{CsrGraph, VertexId};
use ldgm_graph::{io, SortedAdjacency};
use ldgm_part::{make_batches, min_batches_to_fit, Partition, VertexRange};
use rayon::prelude::*;

use crate::report::{RunResult, Value};
use crate::stats::Summary;
use crate::trace::{self, Tracer};
use crate::{stand_in, sys};

/// The stand-ins, in pass order.
pub const GRAPHS: [&str; 3] = ["AGATHA-2015", "uk-2007-05", "kmer_U1a"];
/// Simulated devices.
const DEVICES: usize = 4;
/// Set-up repetitions (`setup_s` is their median).
const SETUP_REPS: usize = 5;
/// `ld-gpu` passes per `ld-gpu-opt` pass (an `ld-gpu-opt` pass takes
/// about six times as long, mostly building the sorted index).
const PLAIN_PER_OPT: usize = 6;
/// Repetitions of each traced replay (plan, kernels, LD-SEQ).
const REPLAY_REPS: usize = 3;

/// One loaded stand-in with its reference matching.
struct Loaded {
    name: &'static str,
    graph: CsrGraph,
    reference: Vec<VertexId>,
}

/// The two timed algorithms.
#[derive(Clone, Copy, PartialEq)]
enum Alg {
    Plain,
    Opt,
}

impl Alg {
    fn name(self) -> &'static str {
        match self {
            Alg::Plain => "ld-gpu",
            Alg::Opt => "ld-gpu-opt",
        }
    }
}

/// Wall-clock and billed samples of the timed passes.
#[derive(Default)]
struct Passes {
    /// Host seconds of each pass over the three graphs, per algorithm.
    wall: [Vec<f64>; 2],
    /// Billed seconds of one pass, per algorithm (identical every pass).
    billed: [Option<f64>; 2],
    /// Directed edges scanned by a pass over the three graphs.
    edges: u64,
    /// Metrics registries of the last pass, per algorithm and graph.
    last: [Vec<MatchResult>; 2],
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer, out: &mut RunResult) {
    // Inputs: MatrixMarket bytes of the seeded stand-ins.
    let files: Vec<(&'static str, Vec<u8>)> = GRAPHS
        .iter()
        .map(|&name| {
            let g = stand_in(name, seed);
            let mut bytes = Vec::new();
            io::write_mtx(&g, &mut bytes).expect("in-memory write");
            (name, bytes)
        })
        .collect();
    let total_bytes: usize = files.iter().map(|(_, b)| b.len()).sum();
    sys::reset_peak();

    // Set-up: load the three files, several times; `setup_s` is the
    // median, and the graphs of the last load are matched.
    let mut setup = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..SETUP_REPS {
        graphs.clear();
        let open = tr.open("graph.read_mtx_all");
        let t = Instant::now();
        for (name, bytes) in &files {
            let g = tr.time("graph.read_mtx", || io::read_mtx(&bytes[..], seed));
            match g {
                Ok(g) => graphs.push((*name, g)),
                Err(e) => out.fail(format!("{name}: read_mtx failed: {e}")),
            }
        }
        setup.push(t.elapsed().as_secs_f64());
        tr.close(open);
        out.attempted += files.len() as u64;
    }
    if graphs.len() != GRAPHS.len() {
        return;
    }
    let s = Summary::of(&setup).expect("setup samples");
    out.put("setup_s", Value::new(s.median, "s").samples(s.n));

    // Reference matchings, outside every timed region.
    let loaded: Vec<Loaded> = graphs
        .into_iter()
        .map(|(name, graph)| {
            let reference = ld_seq(&graph).mate_array().to_vec();
            Loaded { name, graph, reference }
        })
        .collect();

    let platform = scaled_platform(Platform::dgx_a100());
    let registry = MatcherRegistry::with_defaults(&MatcherSetup {
        platform: platform.clone(),
        devices: DEVICES,
        ..MatcherSetup::default()
    });
    let matchers = [
        registry.get(Alg::Plain.name()).expect("ld-gpu registered"),
        registry.get(Alg::Opt.name()).expect("ld-gpu-opt registered"),
    ];

    // Warm-up pass of each algorithm (untimed): fills caches and the
    // allocator.
    let mut warm = Passes::default();
    for alg in [Alg::Plain, Alg::Opt] {
        pass(alg, matchers[alg as usize], &loaded, &mut Tracer::new(false), &mut warm, out);
    }

    // Timed passes: one `ld-gpu-opt` pass per PLAIN_PER_OPT `ld-gpu`
    // passes, so each algorithm gets about half the time and drift hits
    // both.
    let timed = |secs: f64, tr: &mut Tracer, out: &mut RunResult| {
        let mut p = Passes::default();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < secs || p.wall[1].is_empty() {
            for _ in 0..PLAIN_PER_OPT {
                pass(Alg::Plain, matchers[0], &loaded, tr, &mut p, out);
            }
            pass(Alg::Opt, matchers[1], &loaded, tr, &mut p, out);
        }
        p
    };

    if !tr.enabled() {
        let p = timed(seconds, tr, out);
        let a = Summary::of(&p.wall[0]).expect("ld-gpu passes");
        let b = Summary::of(&p.wall[1]).expect("ld-gpu-opt passes");
        out.put("host_a_us", Value::new(a.median * 1e6, "us").samples(a.n).tail(us(a.tail)));
        out.put("host_b_us", Value::new(b.median * 1e6, "us").samples(b.n).tail(us(b.tail)));
        let passes = (a.n + b.n) as f64;
        let wall: f64 = p.wall.iter().flatten().sum();
        out.put(
            "rate_per_s",
            Value::new(passes * p.edges as f64 / wall, "1/s").base(
                "directed edges of the three graphs x passes / host seconds, both algorithms",
            ),
        );
        for (i, name) in ["billed_a_ms", "billed_b_ms"].into_iter().enumerate() {
            let billed = p.billed[i].unwrap_or(0.0) * 1e3;
            out.put(name, Value::new(billed, "ms").base("billed sim_time of one pass"));
        }
        out.put("peak_rss_mb", Value::new(sys::peak_kb() as f64 / 1024.0, "MiB"));
        return;
    }

    // Traced run: half the time untraced, half traced; the difference in
    // the `ld-gpu` pass median is the tracing overhead.
    let untraced = timed(seconds / 2.0, &mut Tracer::new(false), out);
    let traced = timed(seconds / 2.0, tr, out);
    let med = |p: &Passes| Summary::of(&p.wall[0]).map_or(0.0, |s| s.median);
    out.put(
        "trace.overhead_frac",
        Value::new(med(&traced) / med(&untraced) - 1.0, "ratio")
            .base("traced / untraced median ld-gpu pass - 1"),
    );
    layers(&loaded, &platform, &matchers, &traced, total_bytes, tr, out);
}

/// Seconds to microseconds for a tail percentile.
fn us(tail: Option<(f64, f64)>) -> Option<(f64, f64)> {
    tail.map(|(p, v)| (p, v * 1e6))
}

/// One pass of `alg` over the loaded graphs: each run is timed on its
/// own, and its matching is checked against LD-SEQ afterwards.
fn pass(
    alg: Alg,
    matcher: &dyn Matcher,
    loaded: &[Loaded],
    tr: &mut Tracer,
    p: &mut Passes,
    out: &mut RunResult,
) {
    let i = alg as usize;
    let mut wall = 0.0;
    let mut billed = 0.0;
    let mut edges = 0u64;
    let mut results = Vec::with_capacity(loaded.len());
    let open = tr.open(format!("core.pass.{}", alg.name()));
    for l in loaded {
        let t = Instant::now();
        let r = tr.time(format!("core.run.{}.{}", alg.name(), l.name), || matcher.run(&l.graph));
        wall += t.elapsed().as_secs_f64();
        match r {
            Ok(r) => {
                let same = r.matching.mate_array() == l.reference.as_slice();
                out.attempt(same, || {
                    format!("{} on {}: matching differs from ld_seq", alg.name(), l.name)
                });
                billed += r.run_time;
                edges += l.graph.num_directed_edges() as u64;
                results.push(r);
            }
            Err(e) => out.attempt(false, || format!("{} on {}: {e}", alg.name(), l.name)),
        }
    }
    tr.close(open);
    p.wall[i].push(wall);
    p.edges = edges;
    match p.billed[i] {
        None => p.billed[i] = Some(billed),
        Some(prev) if prev != billed => out.fail(format!(
            "{}: billed time changed between passes ({prev} vs {billed})",
            alg.name()
        )),
        Some(_) => {}
    }
    p.last[i] = results;
}

/// Per-layer metrics from the traced passes plus replays of the plan,
/// the sorted index, the kernels and LD-SEQ on the same graphs.
fn layers(
    loaded: &[Loaded],
    platform: &Platform,
    matchers: &[&dyn Matcher; 2],
    traced: &Passes,
    total_bytes: usize,
    tr: &mut Tracer,
    out: &mut RunResult,
) {
    // graph: the traced set-up loads.
    let spans = tr.spans().to_vec();
    let loads = trace::durations(&spans, "graph.read_mtx_all");
    if let Some(s) = Summary::of(&loads) {
        out.put(
            "graph.mtx_parse_s",
            Value::new(s.median, "s").samples(s.n).base("io::read_mtx of the three files"),
        );
        out.put(
            "graph.mtx_mb_per_s",
            Value::new(total_bytes as f64 / 1e6 / s.median, "MB/s")
                .base(format!("{total_bytes} MatrixMarket bytes / median parse time")),
        );
    }

    // core: per-graph run spans of the traced passes.
    for alg in [Alg::Plain, Alg::Opt] {
        for l in loaded {
            let d = trace::durations(&spans, &format!("core.run.{}.{}", alg.name(), l.name));
            let s = Summary::of(&d).expect("traced runs");
            let metric = match alg {
                Alg::Plain => format!("core.run_s.{}", l.name),
                Alg::Opt => format!("core.run_opt_s.{}", l.name),
            };
            out.put(&metric, Value::new(s.median, "s").samples(s.n).tail(s.tail));
        }
    }

    // Replays, each a span tree of its own, repeated; every component
    // takes its median over the repetitions. Each replay follows a run of
    // the same algorithm on the same graph, so the driver's own time (run
    // - plan - sorted index - kernels) is a difference taken within one
    // window of the machine's speed, not across the whole traced run.
    let mut plan_s = [0.0f64; 2];
    let mut driver_s = [0.0f64; 2];
    let mut sorted_s = 0.0;
    let mut pointers_s = 0.0;
    let mut mates_s = 0.0;
    let mut scanned = 0u64;
    let mut batches = 0usize;
    let mut ld_seq_s = 0.0;
    let median = |xs: &[f64]| Summary::of(xs).map_or(0.0, |s| s.median);
    for l in loaded {
        for alg in [Alg::Plain, Alg::Opt] {
            let mut parts: [Vec<f64>; 4] = Default::default();
            let mut driver = Vec::new();
            for _ in 0..REPLAY_REPS {
                let t = Instant::now();
                let run = tr.time("core.run.paired", || matchers[alg as usize].run(&l.graph));
                let run_s = t.elapsed().as_secs_f64();
                out.attempt(run.is_ok(), || {
                    format!("{} on {}: paired run failed", alg.name(), l.name)
                });
                let first = tr.spans().len();
                let open = tr.open(format!("core.replay.{}", alg.name()));
                let (mate, nb, edges) = replay(&l.graph, platform, alg, tr);
                tr.close(open);
                let own = trace::self_times(tr.spans());
                let spans = &tr.spans()[first..];
                let sum = |name: &str| trace::self_seconds(spans, &own[first..], name);
                for (k, name) in
                    ["part.plan", "graph.sorted_build", "core.set_pointers", "core.set_mates"]
                        .iter()
                        .enumerate()
                {
                    parts[k].push(sum(name));
                }
                driver.push(run_s - parts.iter().map(|p| p.last().unwrap_or(&0.0)).sum::<f64>());
                let same = mate.iter().zip(&l.reference).all(|(&m, &r)| {
                    if m == NONE_SENTINEL {
                        r == ldgm_core::UNMATCHED
                    } else {
                        m == r as u64
                    }
                });
                out.attempt(same, || {
                    format!("{} kernel replay on {} differs from the run", alg.name(), l.name)
                });
                if alg == Alg::Plain && parts[0].len() == 1 {
                    batches += nb;
                }
                if parts[0].len() == 1 {
                    scanned += edges;
                }
            }
            let [plan, sorted, sp, sm] = parts.map(|xs| median(&xs));
            driver_s[alg as usize] += median(&driver);
            plan_s[alg as usize] += plan;
            sorted_s += sorted;
            pointers_s += sp;
            mates_s += sm;
        }
        let mut times = Vec::new();
        for _ in 0..REPLAY_REPS {
            let t = Instant::now();
            let m = tr.time("core.ld_seq", || ld_seq(&l.graph));
            times.push(t.elapsed().as_secs_f64());
            out.attempt(m.mate_array() == l.reference.as_slice(), || {
                format!("ld_seq on {} not deterministic", l.name)
            });
        }
        ld_seq_s += median(&times);
    }
    out.put(
        "part.plan_s",
        Value::new(plan_s[0], "s")
            .base("edge_balanced + min_batches_to_fit + make_batches, three graphs"),
    );
    out.put(
        "part.batches",
        Value::new(batches as f64, "count")
            .base("batches per device, summed over the three graphs"),
    );
    out.put(
        "graph.sorted_build_s",
        Value::new(sorted_s, "s").base("SortedAdjacency::build, three graphs"),
    );
    out.put(
        "core.set_pointers_s",
        Value::new(pointers_s, "s").base("self time, both algorithms, three graphs"),
    );
    out.put(
        "core.set_mates_s",
        Value::new(mates_s, "s").base("self time, both algorithms, three graphs"),
    );
    out.put(
        "core.set_pointers_ns_per_edge",
        Value::new(pointers_s * 1e9 / scanned.max(1) as f64, "ns")
            .base(format!("per edge slot scanned ({scanned})")),
    );
    out.put(
        "core.driver_self_s",
        Value::new(driver_s[0], "s").base(
            "ld-gpu run - plan - kernels of the replay that follows it, median, three graphs",
        ),
    );
    out.put(
        "core.driver_self_opt_s",
        Value::new(driver_s[1], "s").base(
            "ld-gpu-opt run - plan - sorted index - kernels of the replay that follows it, median, three graphs",
        ),
    );
    out.put(
        "core.ld_seq_s",
        Value::new(ld_seq_s, "s").base("single-threaded LD-SEQ, three graphs"),
    );

    // Counts from the runs' metrics registries (summed over the graphs).
    let count = |alg: Alg, name: &str| -> f64 {
        traced.last[alg as usize].iter().map(|r| r.metrics.counter(name) as f64).sum()
    };
    let committed = count(Alg::Plain, names::MATCHING_EDGES_COMMITTED);
    let pointers = count(Alg::Plain, names::KERNEL_POINTERS_SET);
    out.set("core.iterations", count(Alg::Plain, names::DRIVER_ITERATIONS));
    out.set("core.edges_scanned", count(Alg::Plain, names::KERNEL_EDGES_SCANNED));
    out.set("core.pointers_set", pointers);
    out.set("core.edges_committed", committed);
    out.put(
        "core.pointer_yield",
        Value::new(2.0 * committed / pointers.max(1.0), "ratio")
            .base("2 x edges_committed / pointers_set (ld-gpu)"),
    );
    let scanned_opt = count(Alg::Opt, names::KERNEL_EDGES_SCANNED);
    let skipped = count(Alg::Opt, names::OPT_EDGES_SKIPPED);
    out.set("core.edges_scanned_opt", scanned_opt);
    out.set("core.edges_skipped", skipped);
    out.put(
        "core.skip_ratio",
        Value::new(skipped / (skipped + scanned_opt).max(1.0), "ratio")
            .base("edges_skipped / (edges_skipped + edges_scanned_opt) (ld-gpu-opt)"),
    );
    out.set("gpusim.collective_bytes", count(Alg::Plain, names::COMM_COLLECTIVE_BYTES));
    out.set("gpusim.allreduce_calls", count(Alg::Plain, names::COMM_ALLREDUCE_CALLS));
    out.set("gpusim.kernel_bytes_moved", count(Alg::Plain, names::KERNEL_BYTES_MOVED));
}

/// Replay `alg`'s plan and kernels to the fixed point, as the driver
/// sequences them (devices one after another here). Returns the mate
/// array, the batches per device and the edge slots scanned.
fn replay(g: &CsrGraph, platform: &Platform, alg: Alg, tr: &mut Tracer) -> (Vec<u64>, usize, u64) {
    let n = g.num_vertices();
    let ndev = DEVICES.clamp(1, platform.max_devices);
    let mem = platform.device.mem_bytes;
    let open = tr.open("part.plan");
    let partition = Partition::edge_balanced(g, ndev);
    let nb = partition
        .parts
        .iter()
        .map(|p| min_batches_to_fit(g, p, n, mem, 1).expect("stand-in fits the scaled devices"))
        .max()
        .unwrap_or(1)
        .max(1);
    let plans: Vec<Vec<VertexRange>> =
        partition.parts.iter().map(|p| make_batches(g, p, nb)).collect();
    tr.close(open);
    let sorted = match alg {
        Alg::Opt => Some(tr.time("graph.sorted_build", || SortedAdjacency::build(g))),
        Alg::Plain => None,
    };

    let spec = &platform.device;
    let slots = (spec.sm_count * spec.max_warps_per_sm) as usize;
    let vpw = n.div_ceil(ndev).div_ceil(slots).max(1);
    let mut pointers = vec![NONE_SENTINEL; n];
    let mut mate = vec![NONE_SENTINEL; n];
    let mut retired = vec![0u8; n];
    let mut avail = vec![1u8; n];
    let mut frontiers: Option<Vec<Vec<VertexId>>> = None;
    let mut scanned = 0u64;
    loop {
        // The pointing phase: devices in parallel, each walking its
        // batches in order over its own slices of the pointer and
        // retirement arrays, as the driver runs them.
        let open = tr.open("core.set_pointers");
        let mut tasks = Vec::with_capacity(ndev);
        let (mut ptr_rest, mut ret_rest) = (&mut pointers[..], &mut retired[..]);
        for (d, part) in partition.parts.iter().enumerate() {
            let (p, p_next) = std::mem::take(&mut ptr_rest).split_at_mut(part.num_vertices());
            let (r, r_next) = std::mem::take(&mut ret_rest).split_at_mut(part.num_vertices());
            (ptr_rest, ret_rest) = (p_next, r_next);
            tasks.push((d, *part, p, r));
        }
        let (avail_ref, sorted_ref, frontiers_ref, plans_ref) =
            (&avail, sorted.as_ref(), frontiers.as_ref(), &plans);
        let per_device: Vec<(u64, u64)> = tasks
            .into_par_iter()
            .map(|(d, part, ptrs, ret)| {
                let (mut set, mut edges) = (0u64, 0u64);
                for b in plans_ref[d].iter().filter(|b| b.num_vertices() > 0) {
                    let lo = (b.start - part.start) as usize;
                    let hi = (b.end - part.start) as usize;
                    let work = frontiers_ref.map(|f| {
                        let f = &f[d];
                        &f[f.partition_point(|&u| u < b.start)..f.partition_point(|&u| u < b.end)]
                    });
                    let r = match (alg, work) {
                        (_, Some([])) => continue,
                        (Alg::Plain, _) => set_pointers_batch(
                            g,
                            b,
                            avail_ref,
                            &mut ptrs[lo..hi],
                            &mut ret[lo..hi],
                            vpw,
                            true,
                        ),
                        (Alg::Opt, None) => set_pointers_opt(
                            g,
                            sorted_ref,
                            b,
                            PointingWork::Full,
                            avail_ref,
                            &mut ptrs[lo..hi],
                            &mut ret[lo..hi],
                            vpw,
                            true,
                        ),
                        (Alg::Opt, Some(w)) => set_pointers_opt(
                            g,
                            sorted_ref,
                            b,
                            PointingWork::Worklist(w),
                            avail_ref,
                            &mut ptrs[lo..hi],
                            &mut ret[lo..hi],
                            w.len().div_ceil(slots).max(1),
                            true,
                        ),
                    };
                    set += r.pointers_set;
                    edges += r.stats.edges_scanned;
                }
                (set, edges)
            })
            .collect();
        tr.close(open);
        let set: u64 = per_device.iter().map(|&(s, _)| s).sum();
        scanned += per_device.iter().map(|&(_, e)| e).sum::<u64>();
        if set == 0 {
            break;
        }
        let (_, newly) = tr.time("core.set_mates", || set_mates(&pointers, &mut mate, &mut avail));
        assert!(newly > 0, "a pointer-setting round must commit an edge");
        if alg == Alg::Opt {
            // The optimized driver's cross-iteration frontier: vertices
            // whose target was matched away this round.
            let f: Vec<Vec<VertexId>> = partition
                .parts
                .iter()
                .map(|part| {
                    (part.start..part.end)
                        .filter(|&u| {
                            let p = pointers[u as usize];
                            avail[u as usize] != 0 && p != NONE_SENTINEL && avail[p as usize] == 0
                        })
                        .collect()
                })
                .collect();
            if f.iter().all(Vec::is_empty) {
                break;
            }
            frontiers = Some(f);
        }
    }
    (mate, nb, scanned)
}
