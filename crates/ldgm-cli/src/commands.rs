//! Subcommand implementations. Each returns its report as a `String` so
//! the logic is unit-testable without capturing stdout.
//!
//! Algorithm dispatch goes through [`MatcherRegistry`] — the CLI never
//! names an algorithm twice: the registry provides the name list for
//! `--algorithm` validation, the `match`/`profile` implementations, and
//! the error messages. Likewise `--platform` is validated against
//! [`Platform::presets`], the single source of preset truth.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use ldgm_core::augment::augment_short;
use ldgm_core::ld_gpu::{auto_tune, TuneReport};
use ldgm_core::matcher::{LdGpuMatcher, LdGpuOptMatcher};
use ldgm_core::verify::half_approx_certificate;
use ldgm_core::{
    edit_distance, nearest_names, MatchResult, Matcher, MatcherRegistry, MatcherSetup,
};
use ldgm_dyn::matcher::{IncrementalMatcher, RecomputeMatcher};
use ldgm_dyn::{DynConfig, DynamicMatcherRegistry, WorkloadKind, WorkloadSpec};
use ldgm_gpusim::metrics::names;
use ldgm_gpusim::{
    chrome_trace_json, timeline_breakdown, ClusterTopology, PhaseBreakdown, Platform, RunReport,
};
use ldgm_graph::csr::CsrGraph;
use ldgm_graph::gen::GraphGen;
use ldgm_graph::io;
use ldgm_graph::stats::{degree_cv, stats};
use ldgm_serve::{resolve_dyn_config, MatchService, ServeConfig};

use crate::args::{ArgError, Args};

/// Top-level help text.
pub const HELP: &str = "\
ldgm - locally dominant weighted graph matching (SC'24 LD-GPU reproduction)

USAGE: ldgm <command> [--option value | --option=value]...

COMMANDS:
  gen        generate a synthetic graph and write it as Matrix Market
  match      compute a matching on a Matrix Market graph
  dynamic    maintain a matching under a synthetic update stream
  serve      long-lived matching service over line-delimited JSON/TCP
  profile    phase/metric comparison of several algorithms on one graph
  stats      print Table-I-style properties of a graph
  platforms  list the simulated platform presets
  help       show this text; `ldgm help <command>` for per-command options
";

/// Per-command help texts, keyed by command name.
const COMMAND_HELP: &[(&str, &str)] = &[
    (
        "gen",
        "\
ldgm gen - generate a synthetic graph and write it as Matrix Market

OPTIONS:
  --family F      rmat|social|urand|kmer|web|lattice|geometric|similarity
                  (default rmat)
  --vertices N    vertex count (default 1024)
  --avg-degree D  average degree (default 8)
  --seed S        generator seed (default 0)
  --out FILE      write the graph as Matrix Market
",
    ),
    (
        "match",
        "\
ldgm match - compute a matching on a Matrix Market graph

OPTIONS:
  --input FILE        graph to read (required)
  --algorithm A       one of the registry algorithms (default ld-gpu);
                      run `ldgm profile` or see the error text for names
  --devices N         devices for simulated algorithms (default 1)
  --batches B         batches per device for ld-gpu (default auto)
  --platform P        simulated platform preset (default dgx-a100);
                      `ldgm platforms` lists them
  --nodes N           cluster size: N nodes of the platform joined by the
                      inter-node link (flat presets cluster over
                      InfiniBand HDR; cluster presets re-size)
  --topo-placement    topology-aware part->node placement: keep heavy cut
                      edges intra-node and bill only the node-boundary
                      fraction of each collective over the slow link
  --mem-limit BYTES   override the platform's per-device memory capacity
                      (forces the batching/streaming paths on graphs that
                      would otherwise fit whole)
  --stream            out-of-core streaming for the LD-GPU matchers:
                      band-sliced SETPOINTERS over a resident window
                      while the copy stream prefetches the next substream
  --mem-budget BYTES  cap the streaming window's device-memory budget
                      below capacity (requires --stream)
  --stream-window N   resident window depth in edge bands, >= 2 for
                      double buffering (default 2; requires --stream)
  --seed S            seed for randomized algorithms (default 0)
  --overlap           overlap collectives with compute for the LD-GPU
                      matchers (chunked allreduce on the comm stream)
  --auto-tune         search the 16 configs of (ld-gpu-opt mode on/off x
                      overlap on/off x 4 batch counts, or 4 windows with
                      --stream) with the self-tuning planner and run the
                      locked config;
                      never slower than the defaults in simulated time,
                      matching bits unchanged (ld-gpu/ld-gpu-opt only)
  --augment PASSES    refine with 2/3 short augmentations
  --verify            run validity/maximality/certificate checks
  --trace-out FILE    write a Chrome-trace/Perfetto JSON event timeline
                      (simulated algorithms; open in chrome://tracing or
                      https://ui.perfetto.dev)
  --report-json FILE  write a schema-versioned JSON run report (phases,
                      metrics, matching quality); phase totals equal the
                      reported run time
",
    ),
    (
        "dynamic",
        "\
ldgm dynamic - maintain a matching under a synthetic update stream

Applies batches of edge insertions/deletions to the input graph and
keeps the locally-dominant matching current, either incrementally
(frontier-restricted SETPOINTERS/SETMATES over a delta-CSR overlay) or
by rerunning the full static solver per batch.

OPTIONS:
  --input FILE        graph to read (required)
  --engine E          incremental|from-scratch (default incremental)
  --workload W        uniform|skewed|sliding-window (default uniform)
  --batches N         update batches to apply (default 8)
  --batch-size K      update steps per batch (default 64)
  --insert-frac F     insert probability, uniform/skewed (default 0.5)
  --window W          live-edge cap for sliding-window (default |E|)
  --platform P        simulated platform preset (default dgx-a100)
  --devices N         simulated devices (default 1)
  --nodes N           cluster size (see `ldgm help match`)
  --seed S            update-stream seed (default 0)
  --compact-frac F    delta-CSR compaction threshold (default 0.25)
  --overlap           overlap collectives with compute (chunked allreduce
                      on the comm stream)
  --auto-tune         probe the static tuner on the base graph and adopt
                      its locked overlap schedule for the update rounds
  --verify            check validity/maximality/certificate per batch
  --trace-out FILE    write the event timeline (incremental engine)
  --report-json FILE  write a schema-versioned JSON run report
",
    ),
    (
        "serve",
        "\
ldgm serve - long-lived matching service over line-delimited JSON/TCP

Loads one or more graphs, seeds a locally-dominant matching per dataset
with the incremental engine, then serves concurrent clients: point
queries (`mate`), `match-info`, single and batched updates, and
`subscribe` notifications. Updates from all clients coalesce into one
engine batch per flush (size target or deadline); reads always see the
last committed snapshot. A client op `{\"op\":\"shutdown\"}` stops the
server after an offline replay check.

OPTIONS:
  --input FILES    comma-separated Matrix Market graphs (required);
                   each is served as a dataset named by its file stem
  --host H         bind address (default 127.0.0.1)
  --port P         TCP port; 0 picks a free one (default 0)
  --reactor-threads N  epoll event-loop threads (default 2)
  --max-frame B    per-line frame cap in bytes; longer requests answer
                   413 and are discarded (default 262144)
  --coalesce K     flush the pending buffer at K updates (default 64)
  --deadline-ms D  flush stragglers after D ms (default 10)
  --max-pending M  per-tenant admission cap (default 256)
  --platform P     simulated platform preset (default dgx-a100)
  --devices N      simulated devices (default 1); collectives overlap
                   with compute exactly when N > 1
  --compact-frac F delta-CSR compaction threshold (default 0.25)
  --seed S         weight-synthesis seed for pattern-only inputs
  --addr-file F    also write the bound address to F (for scripts that
                   need the picked port)
",
    ),
    (
        "profile",
        "\
ldgm profile - phase/metric comparison of several algorithms on one graph

Runs each algorithm through the Matcher registry and prints a phase
table (time attribution summing to each run time), occupancy, and the
top metrics per algorithm.

OPTIONS:
  --input FILE      graph to read (required)
  --algorithms L    comma-separated registry names, or 'all'
                    (default ld-gpu,ld-seq,local-max,suitor-gpu)
  --platform P      simulated platform preset (default dgx-a100)
  --devices N       devices for simulated algorithms (default 1)
  --batches B       batches per device for ld-gpu (default auto)
  --nodes N         cluster size (see `ldgm help match`)
  --topo-placement  topology-aware part->node placement (LD-GPU matchers)
  --mem-limit BYTES override per-device memory capacity
  --stream          out-of-core streaming for the LD-GPU matchers
  --mem-budget BYTES  streaming window budget (requires --stream)
  --stream-window N   resident window depth in bands (requires --stream)
  --seed S          seed for randomized algorithms (default 0)
  --overlap         overlap collectives with compute (LD-GPU matchers)
  --auto-tune       tune the LD-GPU matchers in the list first over the
                    16 configs of (ld-gpu-opt mode x overlap x batch
                    count) and profile their locked configs
  --metrics N       metrics rows per algorithm (default 6)
",
    ),
    (
        "stats",
        "\
ldgm stats - print Table-I-style properties of a graph

OPTIONS:
  --input FILE  graph to read (required)
  --seed S      weight-synthesis seed for pattern-only inputs (default 0)
",
    ),
    (
        "platforms",
        "\
ldgm platforms - list the simulated platform and cluster presets

The first section shows the presets accepted by --platform: device model
and count, per-device memory, and the peer/h2d interconnects. The second
lists the cluster topologies (nodes x GPUs with per-device memory and the
intra-/inter-node link classes) behind the cluster presets and the
--nodes option.
",
    ),
];

/// Dispatch a parsed command line.
pub fn run(args: &Args) -> Result<String, ArgError> {
    match args.command.as_str() {
        "gen" => cmd_gen(args),
        "match" => cmd_match(args),
        "dynamic" => cmd_dynamic(args),
        "serve" => cmd_serve(args),
        "profile" => cmd_profile(args),
        "stats" => cmd_stats(args),
        "platforms" => Ok(cmd_platforms()),
        "help" | "--help" => cmd_help(args),
        other => Err(ArgError(format!("unknown command '{other}'; try `ldgm help`"))),
    }
}

fn cmd_help(args: &Args) -> Result<String, ArgError> {
    match args.positionals.first().map(String::as_str) {
        None => Ok(HELP.to_string()),
        Some(topic) => COMMAND_HELP
            .iter()
            .find(|(name, _)| *name == topic)
            .map(|(_, text)| text.to_string())
            .ok_or_else(|| {
                let names: Vec<&str> = COMMAND_HELP.iter().map(|(n, _)| *n).collect();
                ArgError(format!("no help for '{topic}' (commands: {})", names.join(", ")))
            }),
    }
}

fn load_graph(args: &Args) -> Result<CsrGraph, ArgError> {
    let path = args
        .get("input")
        .ok_or_else(|| ArgError("missing required option '--input FILE'".into()))?;
    io::read_mtx_file(path, args.get_num("seed", 0u64)?)
        .map_err(|e| ArgError(format!("failed to read '{path}': {e}")))
}

/// Validate `--platform` against the preset registry; typos get the
/// nearest preset name suggested.
fn parse_platform(name: &str) -> Result<Platform, ArgError> {
    Platform::by_name(name).ok_or_else(|| {
        let valid = Platform::preset_names();
        let suggestion = nearest_names(name, &valid)
            .into_iter()
            .next()
            .filter(|best| edit_distance(name, best) <= 3)
            .map(|best| format!("; did you mean '{best}'?"))
            .unwrap_or_default();
        ArgError(format!("unknown platform '{name}' (valid: {}){suggestion}", valid.join(", ")))
    })
}

/// Resolve `--auto-tune` for one of the LD-GPU matchers: search the
/// (mode × overlap × batches) config grid on `g` with short probe
/// runs and return a matcher locked to the full-run winner, which is
/// never slower (simulated) than the defaults. Other algorithms have no
/// tunable driver config and reject the flag.
fn tuned_matcher(
    algorithm: &str,
    setup: &MatcherSetup,
    g: &CsrGraph,
) -> Result<(Box<dyn Matcher>, TuneReport), ArgError> {
    let base = match algorithm {
        "ld-gpu" => LdGpuMatcher::config_from_setup(setup),
        "ld-gpu-opt" => LdGpuMatcher::config_from_setup(setup).optimized(),
        other => {
            return Err(ArgError(format!(
                "--auto-tune applies to the ld-gpu matchers (ld-gpu, ld-gpu-opt), not '{other}'"
            )))
        }
    };
    let report = auto_tune(g, &base).map_err(|e| ArgError(format!("auto-tune failed: {e}")))?;
    let matcher: Box<dyn Matcher> = match algorithm {
        "ld-gpu" => Box::new(LdGpuMatcher { cfg: report.config.clone() }),
        _ => Box::new(LdGpuOptMatcher { cfg: report.config.clone() }),
    };
    Ok((matcher, report))
}

/// One-line summary of a tuning verdict for command output.
fn tune_note(report: &TuneReport) -> String {
    format!(
        "auto-tune: probed {} candidates, locked [{}]; simulated {:.3} ms vs default {:.3} ms\n",
        report.candidates,
        report.knobs(),
        report.sim_time * 1e3,
        report.base_sim_time * 1e3,
    )
}

/// Build the matcher setup shared by `match`, `profile` and `dynamic`;
/// `--nodes` and `--mem-limit` reshape its platform.
fn matcher_setup(args: &Args, collect_trace: bool) -> Result<MatcherSetup, ArgError> {
    let mut platform = parse_platform(args.get_or("platform", "dgx-a100"))?;
    if let Some(n) = args.get("nodes") {
        let n: usize = n.parse().map_err(|_| ArgError(format!("bad --nodes '{n}'")))?;
        if n == 0 {
            return Err(ArgError("--nodes must be >= 1".into()));
        }
        platform = platform.with_nodes(n);
    }
    let parse_bytes = |name: &str| -> Result<Option<u64>, ArgError> {
        match args.get(name) {
            None => Ok(None),
            Some(b) => {
                let bytes: u64 = b.parse().map_err(|_| ArgError(format!("bad --{name} '{b}'")))?;
                if bytes == 0 {
                    return Err(ArgError(format!("--{name} must be at least 1 byte")));
                }
                Ok(Some(bytes))
            }
        }
    };
    if let Some(bytes) = parse_bytes("mem-limit")? {
        platform = platform.with_device_memory(bytes);
    }
    let streaming = args.has_flag("stream");
    let mem_budget = parse_bytes("mem-budget")?;
    let stream_window = match args.get("stream-window") {
        None => None,
        Some(w) => {
            let w: usize = w.parse().map_err(|_| ArgError(format!("bad --stream-window '{w}'")))?;
            if w < 2 {
                return Err(ArgError(
                    "--stream-window must be >= 2 (double-buffer minimum)".into(),
                ));
            }
            Some(w)
        }
    };
    if !streaming && (mem_budget.is_some() || stream_window.is_some()) {
        return Err(ArgError(
            "--mem-budget/--stream-window shape the streaming window; add --stream".into(),
        ));
    }
    Ok(MatcherSetup {
        platform,
        devices: args.get_num("devices", 1usize)?,
        batches: match args.get("batches") {
            None => None,
            Some(b) => Some(b.parse().map_err(|_| ArgError(format!("bad --batches '{b}'")))?),
        },
        seed: args.get_num("seed", 0u64)?,
        collect_trace,
        overlap: args.has_flag("overlap"),
        topology_placement: args.has_flag("topo-placement"),
        streaming,
        mem_budget,
        stream_window,
        ..Default::default()
    })
}

/// Phase attribution for a finished run, honoring the report invariant
/// (phases sum to the run time): prefer the exact timeline sweep over the
/// event trace, then the algorithm's own profile, and fall back to
/// attributing everything to the matching phase for uninstrumented host
/// algorithms.
fn result_phases(r: &MatchResult) -> PhaseBreakdown {
    if let Some(t) = &r.trace {
        return timeline_breakdown(t, r.run_time);
    }
    match &r.profile {
        Some(p) => p.phases,
        None => PhaseBreakdown { matching: r.run_time, ..Default::default() },
    }
}

fn cmd_gen(args: &Args) -> Result<String, ArgError> {
    args.expect_known(&["family", "vertices", "avg-degree", "seed", "out"])?;
    let family = args.get_or("family", "rmat");
    let n: usize = args.get_num("vertices", 1024usize)?;
    let d: f64 = args.get_num("avg-degree", 8.0f64)?;
    let seed: u64 = args.get_num("seed", 0u64)?;
    let gg = match family {
        "rmat" => GraphGen::rmat(),
        "social" => GraphGen::social(),
        "urand" => GraphGen::urand(),
        "kmer" => GraphGen::kmer(),
        "web" => GraphGen::web(),
        "lattice" => GraphGen::lattice(4),
        "geometric" => GraphGen::geometric(0.03),
        "similarity" => GraphGen::similarity(6),
        other => return Err(ArgError(format!("unknown family '{other}'"))),
    };
    let g = gg.vertices(n).avg_degree(d).seed(seed).build();
    let mut out = String::new();
    let s = stats(&g);
    writeln!(
        out,
        "generated {family}: |V|={} |E|={} d_max={} d_avg={:.1}",
        s.vertices, s.edges, s.d_max, s.d_avg
    )
    .unwrap();
    if let Some(path) = args.get("out") {
        io::write_mtx_file(&g, path)
            .map_err(|e| ArgError(format!("failed to write '{path}': {e}")))?;
        writeln!(out, "wrote {path}").unwrap();
    }
    Ok(out)
}

fn cmd_match(args: &Args) -> Result<String, ArgError> {
    args.expect_known(&[
        "input",
        "algorithm",
        "devices",
        "batches",
        "platform",
        "augment",
        "seed",
        "verify",
        "trace-out",
        "report-json",
        "overlap",
        "nodes",
        "topo-placement",
        "mem-limit",
        "stream",
        "mem-budget",
        "stream-window",
        "auto-tune",
    ])?;
    let g = load_graph(args)?;
    let algorithm = args.get_or("algorithm", "ld-gpu");
    let want_trace = args.get("trace-out").is_some() || args.get("report-json").is_some();
    let setup = matcher_setup(args, want_trace)?;
    let registry = MatcherRegistry::with_defaults(&setup);
    // Validate the name through the registry even when tuning replaces
    // the matcher, so typos keep their nearest-name suggestions.
    let matcher = registry.try_get(algorithm).map_err(|e| ArgError(e.to_string()))?;
    let mut out = String::new();
    let tuned = if args.has_flag("auto-tune") {
        let (m, report) = tuned_matcher(algorithm, &setup, &g)?;
        out.push_str(&tune_note(&report));
        Some(m)
    } else {
        None
    };
    let matcher: &dyn Matcher = tuned.as_deref().unwrap_or(matcher);
    let wall_start = std::time::Instant::now();
    let result = matcher.run(&g).map_err(|e| ArgError(e.to_string()))?;
    let wall_time_ms = wall_start.elapsed().as_secs_f64() * 1e3;

    let mut sim_note = String::new();
    if result.simulated {
        let devices = result.metrics.gauge(names::DRIVER_DEVICES).unwrap_or(1.0) as u64;
        writeln!(
            sim_note,
            "simulated {:.3} ms on {} device(s), {} iterations",
            result.run_time * 1e3,
            devices.max(1),
            result.iterations
        )
        .unwrap();
    }

    if let Some(path) = args.get("trace-out") {
        let trace = result.trace.as_ref().ok_or_else(|| {
            ArgError(format!("--trace-out: algorithm '{algorithm}' does not record traces"))
        })?;
        let doc = chrome_trace_json(trace);
        std::fs::write(path, doc.to_string_compact())
            .map_err(|e| ArgError(format!("failed to write '{path}': {e}")))?;
        writeln!(out, "wrote trace {path} ({} events)", trace.events.len()).unwrap();
    }
    if let Some(path) = args.get("report-json") {
        let report = RunReport {
            algorithm: algorithm.to_string(),
            platform: result.simulated.then(|| args.get_or("platform", "dgx-a100").to_string()),
            vertices: g.num_vertices() as u64,
            directed_edges: g.num_directed_edges() as u64,
            cardinality: result.matching.cardinality() as u64,
            weight: result.matching.weight(&g),
            sim_time: result.run_time,
            wall_time_ms,
            iterations: result.iterations,
            phases: result_phases(&result),
            metrics: result.metrics.clone(),
        };
        std::fs::write(path, report.to_json().to_string_pretty())
            .map_err(|e| ArgError(format!("failed to write '{path}': {e}")))?;
        writeln!(out, "wrote report {path}").unwrap();
    }

    let matching = result.matching;
    let passes: usize = args.get_num("augment", 0usize)?;
    let matching = if passes > 0 {
        let before = matching.weight(&g);
        let refined = augment_short(&g, matching, passes, args.get_num("seed", 0u64)?);
        writeln!(
            out,
            "augmented: {} augmentations over {} pass(es), weight {:.4} -> {:.4}",
            refined.augmentations,
            refined.passes,
            before,
            refined.matching.weight(&g)
        )
        .unwrap();
        refined.matching
    } else {
        matching
    };
    writeln!(
        out,
        "{algorithm}: matched {} of {} vertices, weight {:.4}",
        2 * matching.cardinality(),
        g.num_vertices(),
        matching.weight(&g)
    )
    .unwrap();
    out.push_str(&sim_note);
    if args.has_flag("verify") {
        matching.verify(&g).map_err(ArgError)?;
        writeln!(out, "verify: structurally valid").unwrap();
        writeln!(out, "verify: maximal = {}", matching.is_maximal(&g)).unwrap();
        if passes > 0 {
            // The static dominance certificate characterizes *locally
            // dominant* matchings; augmentation trades it for weight (the
            // refined matching is at least as heavy, so the 1/2 bound
            // still holds transitively).
            writeln!(out, "verify: 1/2 bound inherited from the pre-augmentation matching")
                .unwrap();
        } else {
            writeln!(
                out,
                "verify: 1/2-approx dominance certificate = {}",
                half_approx_certificate(&g, &matching)
            )
            .unwrap();
        }
    }
    Ok(out)
}

/// Default algorithm list for `ldgm profile`: one representative per
/// execution style (multi-GPU LD, sequential LD, edge-centric host,
/// single-GPU Suitor).
const PROFILE_DEFAULT_ALGORITHMS: &str = "ld-gpu,ld-seq,local-max,suitor-gpu";

fn cmd_dynamic(args: &Args) -> Result<String, ArgError> {
    args.expect_known(&[
        "input",
        "engine",
        "workload",
        "batches",
        "batch-size",
        "insert-frac",
        "window",
        "platform",
        "devices",
        "seed",
        "compact-frac",
        "verify",
        "trace-out",
        "report-json",
        "overlap",
        "nodes",
        "auto-tune",
    ])?;
    let g = load_graph(args)?;
    let mut setup = matcher_setup(args, false)?;
    let mut tune_line = String::new();
    if args.has_flag("auto-tune") {
        // The dynamic engines share the platform's comm-schedule knob
        // with the static driver: probe the LD-GPU grid on the base
        // graph and adopt the locked overlap setting.
        let base = LdGpuMatcher::config_from_setup(&setup);
        let report =
            auto_tune(&g, &base).map_err(|e| ArgError(format!("auto-tune failed: {e}")))?;
        setup.overlap = report.config.overlap;
        tune_line = tune_note(&report);
    }
    let engine_name = args.get_or("engine", "incremental");
    let frac: f64 = args.get_num("compact-frac", 0.25f64)?;
    if frac <= 0.0 {
        return Err(ArgError(format!("--compact-frac must be positive, got {frac}")));
    }
    // --compact-frac shapes the incremental engine, so the registry is
    // built here rather than by `DynamicMatcherRegistry::with_defaults`.
    let dyn_cfg = DynConfig::new(setup.platform.clone())
        .devices(setup.devices)
        .compact_frac(frac)
        .with_overlap(setup.overlap);
    let mut registry = DynamicMatcherRegistry::new();
    registry.register(Box::new(IncrementalMatcher::new(dyn_cfg)));
    registry.register(Box::new(RecomputeMatcher::new(setup)));
    let engine = registry.get(engine_name).ok_or_else(|| {
        ArgError(format!("unknown engine '{engine_name}' (valid: {})", registry.names().join(", ")))
    })?;
    let workload = args.get_or("workload", "uniform");
    let kind = WorkloadKind::from_name(workload).ok_or_else(|| {
        ArgError(format!(
            "unknown workload '{workload}' (valid: {})",
            WorkloadKind::names().join(", ")
        ))
    })?;
    let insert_frac: f64 = args.get_num("insert-frac", 0.5f64)?;
    if !(0.0..=1.0).contains(&insert_frac) {
        return Err(ArgError(format!("--insert-frac must be in [0, 1], got {insert_frac}")));
    }
    let spec = WorkloadSpec {
        kind,
        batches: args.get_num("batches", 8usize)?,
        batch_size: args.get_num("batch-size", 64usize)?,
        insert_frac,
        window: match args.get("window") {
            None => None,
            Some(w) => Some(w.parse().map_err(|_| ArgError(format!("bad --window '{w}'")))?),
        },
        seed: args.get_num("seed", 0u64)?,
        verify_each_batch: args.has_flag("verify"),
    };
    let wall_start = std::time::Instant::now();
    let result = engine.run(&g, &spec).map_err(|e| ArgError(e.to_string()))?;
    let wall_time_ms = wall_start.elapsed().as_secs_f64() * 1e3;

    let mut out = String::new();
    out.push_str(&tune_line);
    writeln!(
        out,
        "dynamic/{engine_name}: {} batches x {} updates ({workload}), |V|={} |E|={} -> {}",
        spec.batches,
        spec.batch_size,
        g.num_vertices(),
        g.num_edges(),
        result.graph.num_edges()
    )
    .unwrap();
    for r in &result.batch_reports {
        writeln!(
            out,
            "  batch {}: +{} -{} seed {} rounds {} new {} broken {} {:.3} ms{}",
            r.batch,
            r.inserts,
            r.deletes,
            r.seed_frontier,
            r.rounds,
            r.new_matches,
            r.broken_matches,
            r.sim_time * 1e3,
            if r.compacted { " [compacted]" } else { "" }
        )
        .unwrap();
    }
    writeln!(
        out,
        "initial solve {:.3} ms, maintenance {:.3} ms over {} batches ({:.3} ms/batch)",
        result.initial_time * 1e3,
        result.maintenance_time * 1e3,
        result.batch_reports.len(),
        result.maintenance_time * 1e3 / result.batch_reports.len().max(1) as f64
    )
    .unwrap();
    writeln!(
        out,
        "final matching: matched {} of {} vertices, weight {:.4}",
        2 * result.matching.cardinality(),
        result.graph.num_vertices(),
        result.matching.weight(&result.graph)
    )
    .unwrap();
    if spec.verify_each_batch {
        writeln!(
            out,
            "verify: all {} batches passed validity/maximality/certificate",
            spec.batches
        )
        .unwrap();
    }

    if let Some(path) = args.get("trace-out") {
        let trace = result.trace.as_ref().ok_or_else(|| {
            ArgError(format!("--trace-out: engine '{engine_name}' does not record traces"))
        })?;
        let doc = chrome_trace_json(trace);
        std::fs::write(path, doc.to_string_compact())
            .map_err(|e| ArgError(format!("failed to write '{path}': {e}")))?;
        writeln!(out, "wrote trace {path} ({} events)", trace.events.len()).unwrap();
    }
    if let Some(path) = args.get("report-json") {
        let report = RunReport {
            algorithm: format!("ld-dyn-{engine_name}"),
            platform: Some(args.get_or("platform", "dgx-a100").to_string()),
            vertices: result.graph.num_vertices() as u64,
            directed_edges: result.graph.num_directed_edges() as u64,
            cardinality: result.matching.cardinality() as u64,
            weight: result.matching.weight(&result.graph),
            sim_time: result.sim_time,
            wall_time_ms,
            iterations: result.iterations,
            phases: result.profile.phases,
            metrics: result.metrics.clone(),
        };
        std::fs::write(path, report.to_json().to_string_pretty())
            .map_err(|e| ArgError(format!("failed to write '{path}': {e}")))?;
        writeln!(out, "wrote report {path}").unwrap();
    }
    Ok(out)
}

fn cmd_serve(args: &Args) -> Result<String, ArgError> {
    args.expect_known(&[
        "input",
        "host",
        "port",
        "reactor-threads",
        "max-frame",
        "coalesce",
        "deadline-ms",
        "max-pending",
        "platform",
        "devices",
        "compact-frac",
        "seed",
        "addr-file",
    ])?;
    let inputs = args
        .get("input")
        .ok_or_else(|| ArgError("missing required option '--input FILES'".into()))?;
    let platform = parse_platform(args.get_or("platform", "dgx-a100"))?;
    let dyn_cfg = DynConfig::new(platform)
        .devices(args.get_num("devices", 1usize)?)
        .compact_frac(args.get_num("compact-frac", 0.25f64)?);
    dyn_cfg.validate().map_err(|e| ArgError(e.to_string()))?;
    let serve_cfg = ServeConfig {
        coalesce_target: args.get_num("coalesce", 64usize)?,
        deadline: Duration::from_millis(args.get_num("deadline-ms", 10u64)?),
        max_pending_per_tenant: args.get_num("max-pending", 256usize)?,
    };
    if serve_cfg.coalesce_target == 0 {
        return Err(ArgError("--coalesce must be at least 1".into()));
    }
    // Transport flags are validated before the (possibly slow) dataset
    // loads so typos fail fast.
    let threads = args.get_num("reactor-threads", 2usize)?;
    let max_frame = args.get_num("max-frame", ldgm_serve::MAX_FRAME_LEN)?;
    if max_frame == 0 {
        return Err(ArgError("--max-frame must be at least 1".into()));
    }
    let seed: u64 = args.get_num("seed", 0u64)?;
    let mut services = Vec::new();
    for path in inputs.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let g = io::read_mtx_file(path, seed)
            .map_err(|e| ArgError(format!("failed to read '{path}': {e}")))?;
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path)
            .to_string();
        let cfg = resolve_dyn_config(&g, dyn_cfg.clone());
        services.push(Arc::new(MatchService::new(name, g, cfg, serve_cfg.clone())));
    }
    if services.is_empty() {
        return Err(ArgError("--input named no datasets".into()));
    }

    let bind = format!("{}:{}", args.get_or("host", "127.0.0.1"), args.get_num("port", 0u16)?);
    let opts = ldgm_serve::ServerOptions { threads, max_frame };
    let handle = ldgm_serve::serve_opts(services.clone(), &bind, opts)
        .map_err(|e| ArgError(format!("failed to bind '{bind}': {e}")))?;

    // The command blocks until a client sends `shutdown`, so the address
    // must go out now, not with the final report.
    {
        use std::io::Write as _;
        println!("ldgm-serve listening on {} (reactor x{})", handle.addr, threads.max(1));
        let _ = std::io::stdout().flush();
    }
    if let Some(path) = args.get("addr-file") {
        std::fs::write(path, handle.addr.to_string())
            .map_err(|e| ArgError(format!("failed to write '{path}': {e}")))?;
    }
    handle.join();

    let mut out = String::new();
    writeln!(out, "ldgm-serve: shut down after serving {} dataset(s)", services.len()).unwrap();
    for svc in &services {
        let snap = svc.snapshot();
        let st = svc.stats();
        writeln!(
            out,
            "  {}: epoch {} matched {} weight {:.4} | {} flushes ({} by deadline), \
             {} updates, mean batch {:.2}, billed {:.3} sim-ms",
            svc.name(),
            snap.epoch,
            2 * snap.cardinality,
            snap.weight,
            st.flushes,
            st.deadline_flushes,
            st.updates_applied,
            st.mean_batch(),
            snap.sim_time * 1e3,
        )
        .unwrap();
    }
    Ok(out)
}

fn cmd_profile(args: &Args) -> Result<String, ArgError> {
    args.expect_known(&[
        "input",
        "algorithms",
        "platform",
        "devices",
        "batches",
        "seed",
        "metrics",
        "overlap",
        "nodes",
        "topo-placement",
        "mem-limit",
        "stream",
        "mem-budget",
        "stream-window",
        "auto-tune",
    ])?;
    let g = load_graph(args)?;
    let setup = matcher_setup(args, true)?;
    let registry = MatcherRegistry::with_defaults(&setup);
    let names: Vec<String> = match args.get_or("algorithms", PROFILE_DEFAULT_ALGORITHMS) {
        "all" => registry.names().iter().map(|s| s.to_string()).collect(),
        list => list.split(',').map(|s| s.trim().to_string()).collect(),
    };
    let top_n: usize = args.get_num("metrics", 6usize)?;

    let mut out = String::new();
    // Each requested LD-GPU matcher tuned to its locked config; the
    // profile rows look these up before the registry.
    let mut tuned: Vec<Box<dyn Matcher>> = Vec::new();
    if args.has_flag("auto-tune") {
        for alg in ["ld-gpu", "ld-gpu-opt"] {
            if names.iter().any(|n| n == alg) {
                let (m, report) = tuned_matcher(alg, &setup, &g)?;
                write!(out, "{alg} {}", tune_note(&report)).unwrap();
                tuned.push(m);
            }
        }
    }
    writeln!(
        out,
        "profile: |V|={} 2|E|={} platform={} devices={}",
        g.num_vertices(),
        g.num_directed_edges(),
        args.get_or("platform", "dgx-a100"),
        setup.devices
    )
    .unwrap();
    writeln!(
        out,
        "{:<11} {:>12} {:>6}  {:>6} {:>6} {:>6} {:>6} {:>6}  {:>5}",
        "algorithm", "time(ms)", "iters", "point%", "match%", "allr%", "xfer%", "sync%", "occ"
    )
    .unwrap();

    let mut runs: Vec<(String, MatchResult)> = Vec::new();
    for name in &names {
        let matcher = match tuned.iter().find(|m| m.name() == name) {
            Some(m) => m.as_ref(),
            None => registry.try_get(name).map_err(|e| ArgError(e.to_string()))?,
        };
        match matcher.run(&g) {
            Err(e) => writeln!(out, "{name:<11} skipped: {e}").unwrap(),
            Ok(r) => {
                let phases = result_phases(&r);
                let total = phases.total().max(1e-30);
                let pct = |v: f64| v / total * 100.0;
                let occ = match r.metrics.gauge(names::KERNEL_OCCUPANCY) {
                    Some(o) => format!("{o:>5.2}"),
                    None => format!("{:>5}", "-"),
                };
                writeln!(
                    out,
                    "{:<11} {:>12.3} {:>6}  {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}  {}",
                    name,
                    r.run_time * 1e3,
                    r.iterations,
                    pct(phases.pointing),
                    pct(phases.matching),
                    pct(phases.allreduce),
                    pct(phases.transfer),
                    pct(phases.sync),
                    occ
                )
                .unwrap();
                runs.push((name.clone(), r));
            }
        }
    }

    for (name, r) in &runs {
        if r.metrics.is_empty() {
            continue;
        }
        writeln!(out, "\n{name}: top metrics").unwrap();
        let mut entries: Vec<(&str, f64, &'static str)> =
            r.metrics.iter().map(|(k, m)| (k, m.scalar(), m.kind())).collect();
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        for (key, value, kind) in entries.into_iter().take(top_n) {
            if kind == "counter" {
                writeln!(out, "  {key:<28} {value:>14.0}").unwrap();
            } else {
                writeln!(out, "  {key:<28} {value:>14.4}").unwrap();
            }
        }
    }
    Ok(out)
}

fn cmd_stats(args: &Args) -> Result<String, ArgError> {
    args.expect_known(&["input", "seed"])?;
    let g = load_graph(args)?;
    let s = stats(&g);
    let mut out = String::new();
    writeln!(out, "|V|        {}", s.vertices).unwrap();
    writeln!(out, "|E|        {}", s.edges).unwrap();
    writeln!(out, "nnz        {}", 2 * s.edges).unwrap();
    writeln!(out, "d_max      {}", s.d_max).unwrap();
    writeln!(out, "d_avg      {:.2}", s.d_avg).unwrap();
    writeln!(out, "degree CV  {:.3}", degree_cv(&g)).unwrap();
    writeln!(out, "isolated   {}", s.isolated).unwrap();
    writeln!(out, "components {}", s.components).unwrap();
    writeln!(out, "w(E)       {:.4}", g.total_weight()).unwrap();
    writeln!(out, "CSR bytes  {}", g.csr_bytes()).unwrap();
    Ok(out)
}

fn cmd_platforms() -> String {
    let mut out = String::new();
    writeln!(out, "platform presets (--platform):").unwrap();
    for (name, p) in Platform::presets() {
        writeln!(
            out,
            "  {:<18} {:<16} {} x{:<3} mem {:>3} GB/dev  peer {} ({} GB/s)  h2d {} ({} GB/s)",
            name,
            p.name,
            p.device.name,
            p.max_devices,
            p.device.mem_bytes >> 30,
            p.interconnect.peer.name,
            p.interconnect.peer.bw_gbps,
            p.interconnect.h2d.name,
            p.interconnect.h2d.bw_gbps,
        )
        .unwrap();
    }
    writeln!(out, "\ncluster topologies (cluster presets; re-size with --nodes N):").unwrap();
    for (name, t) in ClusterTopology::presets() {
        // The topology itself is link shape only; the device (and so its
        // memory capacity) comes from the platform preset of the same
        // name, or from the flat platform the "-cluster" suffix wraps.
        let mem = Platform::by_name(name)
            .or_else(|| Platform::by_name(name.strip_suffix("-cluster").unwrap_or(name)))
            .map_or_else(|| "  ?".to_string(), |p| format!("{:>3}", p.device.mem_bytes >> 30));
        writeln!(
            out,
            "  {:<18} {:<18} {} nodes x {} GPUs  mem {} GB/dev  intra {} ({} GB/s, {} us)  inter {} ({} GB/s, {} us)",
            name,
            t.name,
            t.nodes,
            t.gpus_per_node,
            mem,
            t.intra.name,
            t.intra.bw_gbps,
            t.intra.latency_us,
            t.inter.name,
            t.inter.bw_gbps,
            t.inter.latency_us,
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nflat presets cluster over InfiniBand HDR with --nodes N; cluster presets\n\
         re-size to N nodes. --topo-placement groups graph parts onto nodes so\n\
         heavy cut edges stay on the intra-node link."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldgm_gpusim::json;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir().join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn gen_then_stats_then_match_pipeline() {
        let path = tmp("ldgm_cli_test.mtx");
        let r = run(&args(&format!(
            "gen --family urand --vertices 300 --avg-degree 6 --seed 1 --out {path}"
        )))
        .unwrap();
        assert!(r.contains("generated urand"));
        let r = run(&args(&format!("stats --input {path}"))).unwrap();
        assert!(r.contains("|V|        300"));
        let r =
            run(&args(&format!("match --input {path} --algorithm ld-gpu --devices 2 --verify")))
                .unwrap();
        assert!(r.contains("structurally valid"));
        assert!(r.contains("maximal = true"));
        assert!(r.contains("certificate = true"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_algorithm_runs() {
        let path = tmp("ldgm_cli_algos.mtx");
        run(&args(&format!("gen --vertices 200 --avg-degree 5 --seed 2 --out {path}"))).unwrap();
        // Every registry algorithm works through the CLI.
        let names: Vec<String> = MatcherRegistry::with_defaults(&MatcherSetup::default())
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(names.len() >= 8);
        for alg in &names {
            let r = run(&args(&format!("match --input {path} --algorithm {alg} --verify")))
                .unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert!(r.contains("matched"), "{alg}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn augment_improves_or_preserves() {
        let path = tmp("ldgm_cli_aug.mtx");
        run(&args(&format!("gen --vertices 250 --avg-degree 6 --seed 3 --out {path}"))).unwrap();
        let r =
            run(&args(&format!("match --input {path} --algorithm ld-seq --augment 4 --verify")))
                .unwrap();
        assert!(r.contains("augmented:"));
        assert!(r.contains("maximal = true"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&args("match")).unwrap_err().0.contains("--input"));
        assert!(run(&args("bogus")).unwrap_err().0.contains("unknown command"));
        let path = tmp("ldgm_cli_err.mtx");
        run(&args(&format!("gen --vertices 100 --avg-degree 4 --seed 4 --out {path}"))).unwrap();
        let e = run(&args(&format!("match --input {path} --algorithm nope"))).unwrap_err();
        assert!(e.0.contains("unknown algorithm"));
        assert!(e.0.contains("ld-gpu"), "error must list valid names: {e}");
        assert!(run(&args(&format!("match --input {path} --platforms x")))
            .unwrap_err()
            .0
            .contains("unknown option"));
        let e = run(&args(&format!("match --input {path} --platform dgx9000"))).unwrap_err();
        assert!(e.0.contains("unknown platform"));
        assert!(e.0.contains("dgx-a100"), "error must list presets: {e}");
        // A near-miss gets the nearest preset suggested; garbage doesn't.
        let e = run(&args(&format!("match --input {path} --platform dgx-a100s"))).unwrap_err();
        assert!(e.0.contains("did you mean 'dgx-a100'?"), "{e}");
        let e = run(&args(&format!("match --input {path} --platform zzzzzzzzzzz"))).unwrap_err();
        assert!(!e.0.contains("did you mean"), "{e}");
        assert!(run(&args(&format!("match --input {path} --nodes 0")))
            .unwrap_err()
            .0
            .contains("--nodes must be >= 1"));
        let e =
            run(&args(&format!("profile --input {path} --algorithms ld-gpu,nope"))).unwrap_err();
        assert!(e.0.contains("unknown algorithm"));
        assert!(e.0.contains("ld-seq"), "error must list valid names: {e}");
        let e = run(&args(&format!("dynamic --input {path} --engine nope"))).unwrap_err();
        assert!(e.0.contains("unknown engine"));
        assert!(e.0.contains("incremental") && e.0.contains("from-scratch"), "{e}");
        let e = run(&args(&format!("dynamic --input {path} --workload nope"))).unwrap_err();
        assert!(e.0.contains("unknown workload"));
        assert!(e.0.contains("sliding-window"), "error must list workloads: {e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dynamic_runs_both_engines_and_agrees() {
        let path = tmp("ldgm_cli_dyn.mtx");
        run(&args(&format!(
            "gen --family urand --vertices 200 --avg-degree 6 --seed 3 --out {path}"
        )))
        .unwrap();
        let inc = run(&args(&format!(
            "dynamic --input {path} --batches 3 --batch-size 10 --seed 5 --verify"
        )))
        .unwrap();
        assert!(inc.contains("dynamic/incremental: 3 batches x 10 updates (uniform)"), "{inc}");
        assert!(inc.contains("batch 2:"), "{inc}");
        assert!(inc.contains("verify: all 3 batches passed"), "{inc}");
        let scr = run(&args(&format!(
            "dynamic --input {path} --engine from-scratch --batches 3 --batch-size 10 --seed 5"
        )))
        .unwrap();
        // Same seed => same stream => identical final matching lines.
        let final_line = |s: &str| {
            s.lines().find(|l| l.starts_with("final matching:")).map(str::to_string).unwrap()
        };
        assert_eq!(final_line(&inc), final_line(&scr));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dynamic_report_and_trace_outputs() {
        let path = tmp("ldgm_cli_dyn_rep.mtx");
        let report = tmp("ldgm_cli_dyn_report.json");
        let trace = tmp("ldgm_cli_dyn_trace.json");
        run(&args(&format!(
            "gen --family urand --vertices 150 --avg-degree 5 --seed 9 --out {path}"
        )))
        .unwrap();
        let r = run(&args(&format!(
            "dynamic --input {path} --workload sliding-window --batches 2 --batch-size 8 \
             --devices 2 --report-json {report} --trace-out {trace}"
        )))
        .unwrap();
        assert!(r.contains("wrote report"), "{r}");
        assert!(r.contains("wrote trace"), "{r}");
        let doc = json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(doc.get("schema_version").and_then(json::Json::as_f64), Some(5.0));
        assert_eq!(doc.get("algorithm").and_then(json::Json::as_str), Some("ld-dyn-incremental"));
        let sim = doc.get("sim_time").and_then(json::Json::as_f64).unwrap();
        let phases = doc.get("phases").unwrap();
        let total: f64 = ["pointing", "matching", "allreduce", "transfer", "sync"]
            .iter()
            .map(|k| phases.get(k).and_then(json::Json::as_f64).unwrap())
            .sum();
        assert!((total - sim).abs() < 1e-6 * sim.max(1.0), "phases {total} vs sim {sim}");
        // from-scratch records no timeline.
        let e = run(&args(&format!(
            "dynamic --input {path} --engine from-scratch --batches 1 --trace-out {trace}"
        )))
        .unwrap_err();
        assert!(e.0.contains("does not record traces"), "{e}");
        for f in [&path, &report, &trace] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn platforms_lists_presets_and_cluster_topologies() {
        let r = run(&args("platforms")).unwrap();
        for name in Platform::preset_names() {
            assert!(r.contains(name), "{name} missing from platform listing");
        }
        assert!(r.contains("DGX-A100"));
        // The cluster-topology section names every preset with both of
        // its link classes AND its per-device memory capacity.
        let cluster_section = r.split("cluster topologies").nth(1).unwrap();
        for (name, t) in ClusterTopology::presets() {
            let line = cluster_section
                .lines()
                .find(|l| l.contains(name))
                .unwrap_or_else(|| panic!("{name} missing from topology listing"));
            assert!(line.contains(t.intra.name), "{} missing", t.intra.name);
            assert!(line.contains(t.inter.name), "{} missing", t.inter.name);
            assert!(line.contains("GB/dev"), "{name} line lacks device memory: {line}");
            assert!(!line.contains('?'), "{name} memory unresolved: {line}");
        }
    }

    #[test]
    fn cluster_match_is_identical_to_flat_and_reports_topology_metrics() {
        let path = tmp("ldgm_cli_cluster.mtx");
        let report = tmp("ldgm_cli_cluster_report.json");
        run(&args(&format!("gen --vertices 400 --avg-degree 6 --seed 7 --out {path}"))).unwrap();
        let flat = run(&args(&format!("match --input {path} --devices 8 --verify"))).unwrap();
        let clustered = run(&args(&format!(
            "match --input {path} --devices 16 --nodes 2 --topo-placement --verify \
             --report-json {report}"
        )))
        .unwrap();
        // Same matching line regardless of the cluster shape.
        let matched =
            |s: &str| s.lines().find(|l| l.contains(": matched")).map(str::to_string).unwrap();
        assert_eq!(matched(&flat), matched(&clustered));
        let doc = json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics.get("cluster.nodes").and_then(|m| m.get("value")).and_then(json::Json::as_f64),
            Some(2.0)
        );
        let cut = metrics
            .get("part.inter_node_cut")
            .and_then(|m| m.get("value"))
            .and_then(json::Json::as_f64)
            .unwrap();
        assert!((0.0..=1.0).contains(&cut), "cut {cut}");
        for f in [&path, &report] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn blossom_size_guard() {
        let path = tmp("ldgm_cli_big.mtx");
        run(&args(&format!("gen --vertices 3000 --avg-degree 4 --seed 5 --out {path}"))).unwrap();
        assert!(run(&args(&format!("match --input {path} --algorithm blossom")))
            .unwrap_err()
            .0
            .contains("O(n^3)"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_session_over_tcp() {
        use std::io::{BufRead, BufReader, Write};

        let gpath = tmp("ldgm_cli_serve.mtx");
        let apath = tmp("ldgm_cli_serve.addr");
        std::fs::remove_file(&apath).ok();
        run(&args(&format!(
            "gen --family urand --vertices 200 --avg-degree 6 --seed 4 --out {gpath}"
        )))
        .unwrap();
        let cmd = format!(
            "serve --input {gpath} --port 0 --reactor-threads 2 --coalesce 4 \
             --deadline-ms 60000 --addr-file {apath}"
        );
        let server = std::thread::spawn(move || run(&args(&cmd)));

        // The server writes its picked address once it is listening.
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&apath) {
                if !a.is_empty() {
                    break a;
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never wrote {apath}");
            std::thread::sleep(Duration::from_millis(10));
        };

        let stream = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut send = |line: &str| {
            let mut s = stream.try_clone().unwrap();
            writeln!(s, "{line}").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            json::parse(&resp).unwrap()
        };
        let info = send(r#"{"op":"match-info"}"#);
        assert_eq!(info.get("epoch").and_then(json::Json::as_f64), Some(0.0));
        // Four updates hit the coalesce target and commit epoch 1.
        let ack = send(
            r#"{"op":"update-batch","updates":[
                {"kind":"insert","u":0,"v":1,"w":9.0},
                {"kind":"insert","u":2,"v":3,"w":9.0},
                {"kind":"insert","u":4,"v":5,"w":9.0},
                {"kind":"delete","u":0,"v":1}]}"#
                .replace('\n', " ")
                .as_str(),
        );
        assert_eq!(ack.get("flushed").and_then(json::Json::as_bool), Some(true));
        let m = send(r#"{"op":"mate","v":2}"#);
        assert_eq!(m.get("mate").and_then(json::Json::as_f64), Some(3.0));
        let bye = send(r#"{"op":"shutdown"}"#);
        assert_eq!(bye.get("replay_identical").and_then(json::Json::as_bool), Some(true));

        let report = server.join().unwrap().unwrap();
        assert!(report.contains("shut down after serving 1 dataset(s)"), "{report}");
        assert!(report.contains("ldgm_cli_serve: epoch 1"), "{report}");
        for f in [&gpath, &apath] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn serve_rejects_bad_options() {
        assert!(run(&args("serve")).unwrap_err().0.contains("--input"));
        assert!(run(&args("serve --input x.mtx --coalesce 0"))
            .unwrap_err()
            .0
            .contains("--coalesce"));
        assert!(run(&args("serve --input nope_does_not_exist.mtx"))
            .unwrap_err()
            .0
            .contains("failed to read"));
        assert!(run(&args("serve --input x.mtx --bogus 1")).unwrap_err().0.contains("--bogus"));
        // The overlap schedule follows --devices, so nothing is left to
        // tune, and the reactor is the only transport.
        for gone in ["--no-auto-tune", "--overlap", "--io reactor", "--workers 4"] {
            let err = run(&args(&format!("serve --input x.mtx {gone}"))).unwrap_err().0;
            let name = gone.split(' ').next().unwrap();
            assert!(err.contains(&format!("unknown option '{name}'")), "{gone}: {err}");
        }
        assert!(run(&args("serve --input x.mtx --max-frame 0"))
            .unwrap_err()
            .0
            .contains("--max-frame"));
    }

    #[test]
    fn per_command_help() {
        assert_eq!(run(&args("help")).unwrap(), HELP);
        for cmd in ["gen", "match", "dynamic", "serve", "profile", "stats", "platforms"] {
            let h = run(&args(&format!("help {cmd}"))).unwrap();
            assert!(h.starts_with(&format!("ldgm {cmd}")), "{cmd}: {h}");
        }
        assert!(run(&args("help bogus")).unwrap_err().0.contains("no help for"));
    }

    #[test]
    fn equals_option_syntax_accepted() {
        let path = tmp("ldgm_cli_eq.mtx");
        run(&args(&format!("gen --vertices=150 --avg-degree=5 --seed=6 --out={path}"))).unwrap();
        let r = run(&args(&format!("match --input={path} --algorithm=greedy"))).unwrap();
        assert!(r.contains("greedy: matched"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_and_report_outputs() {
        let gpath = tmp("ldgm_cli_trace.mtx");
        let tpath = tmp("ldgm_cli_trace.json");
        let rpath = tmp("ldgm_cli_report.json");
        run(&args(&format!("gen --vertices 300 --avg-degree 6 --seed 7 --out {gpath}"))).unwrap();
        let r = run(&args(&format!(
            "match --input {gpath} --algorithm ld-gpu --devices 2 \
             --trace-out {tpath} --report-json {rpath}"
        )))
        .unwrap();
        assert!(r.contains("wrote trace"));
        assert!(r.contains("wrote report"));

        // Trace: valid JSON array of events; every X event has the Chrome
        // trace envelope.
        let trace = json::parse(&std::fs::read_to_string(&tpath).unwrap()).unwrap();
        let events = trace.as_array().expect("trace must be a JSON array");
        let durations: Vec<&json::Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Json::as_str) == Some("X"))
            .collect();
        assert!(!durations.is_empty());
        for e in durations {
            for key in ["name", "pid", "tid", "ts", "dur"] {
                assert!(e.get(key).is_some(), "event missing {key}");
            }
        }

        // Report: phase total equals sim_time within 1e-6 relative.
        let report = json::parse(&std::fs::read_to_string(&rpath).unwrap()).unwrap();
        assert_eq!(report.get("algorithm").and_then(json::Json::as_str), Some("ld-gpu"));
        assert_eq!(report.get("platform").and_then(json::Json::as_str), Some("dgx-a100"));
        let sim_time = report.get("sim_time").and_then(json::Json::as_f64).unwrap();
        let total =
            report.get("phases").and_then(|p| p.get("total")).and_then(json::Json::as_f64).unwrap();
        assert!(sim_time > 0.0);
        assert!((total - sim_time).abs() <= 1e-6 * sim_time, "{total} vs {sim_time}");
        for p in [&gpath, &tpath, &rpath] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn report_for_host_algorithm() {
        let gpath = tmp("ldgm_cli_hostrep.mtx");
        let rpath = tmp("ldgm_cli_hostrep.json");
        run(&args(&format!("gen --vertices 200 --avg-degree 5 --seed 8 --out {gpath}"))).unwrap();
        for alg in ["ld-seq", "greedy", "suitor-gpu"] {
            run(&args(&format!("match --input {gpath} --algorithm {alg} --report-json {rpath}")))
                .unwrap_or_else(|e| panic!("{alg}: {e}"));
            let report = json::parse(&std::fs::read_to_string(&rpath).unwrap()).unwrap();
            let sim_time = report.get("sim_time").and_then(json::Json::as_f64).unwrap();
            let total = report
                .get("phases")
                .and_then(|p| p.get("total"))
                .and_then(json::Json::as_f64)
                .unwrap();
            assert!(
                (total - sim_time).abs() <= 1e-6 * sim_time.max(1e-12),
                "{alg}: {total} vs {sim_time}"
            );
            // Host algorithms report a null platform.
            if alg != "suitor-gpu" {
                assert_eq!(report.get("platform"), Some(&json::Json::Null));
            }
        }
        std::fs::remove_file(&gpath).ok();
        std::fs::remove_file(&rpath).ok();
    }

    #[test]
    fn trace_out_rejected_for_host_algorithm() {
        let gpath = tmp("ldgm_cli_notrace.mtx");
        run(&args(&format!("gen --vertices 100 --avg-degree 4 --seed 9 --out {gpath}"))).unwrap();
        let e = run(&args(&format!(
            "match --input {gpath} --algorithm greedy --trace-out /tmp/nope.json"
        )))
        .unwrap_err();
        assert!(e.0.contains("does not record traces"));
        std::fs::remove_file(&gpath).ok();
    }

    #[test]
    fn profile_prints_phase_table() {
        let gpath = tmp("ldgm_cli_profile.mtx");
        run(&args(&format!("gen --vertices 400 --avg-degree 6 --seed 10 --out {gpath}"))).unwrap();
        let r = run(&args(&format!("profile --input {gpath}"))).unwrap();
        // Default set: four algorithms, all present as table rows.
        for alg in ["ld-gpu", "ld-seq", "local-max", "suitor-gpu"] {
            assert!(r.contains(alg), "{alg} missing:\n{r}");
        }
        assert!(r.contains("point%"));
        assert!(r.contains("top metrics"));
        assert!(r.contains("kernel.edges_scanned"));
        // Explicit list incl. a platform selection.
        let r = run(&args(&format!(
            "profile --input {gpath} --algorithms ld-gpu,cugraph --platform dgx2 --devices 4"
        )))
        .unwrap();
        assert!(r.contains("platform=dgx2"));
        assert!(r.contains("cugraph"));
        std::fs::remove_file(&gpath).ok();
    }

    #[test]
    fn ld_gpu_opt_through_match_and_profile() {
        let gpath = tmp("ldgm_cli_opt.mtx");
        let rpath = tmp("ldgm_cli_opt.json");
        run(&args(&format!("gen --vertices 500 --avg-degree 8 --seed 12 --out {gpath}"))).unwrap();
        // `match -a ld-gpu-opt` verifies and reports like the default mode.
        let r = run(&args(&format!(
            "match --input {gpath} --algorithm ld-gpu-opt --devices 2 --verify \
             --report-json {rpath}"
        )))
        .unwrap();
        assert!(r.contains("structurally valid"));
        assert!(r.contains("maximal = true"));
        let report = json::parse(&std::fs::read_to_string(&rpath).unwrap()).unwrap();
        assert_eq!(report.get("algorithm").and_then(json::Json::as_str), Some("ld-gpu-opt"));
        let card = |rep: &json::Json| {
            rep.get("matching").and_then(|m| m.get("cardinality")).and_then(json::Json::as_f64)
        };
        let opt_time = report.get("sim_time").and_then(json::Json::as_f64).unwrap();
        let opt_card = card(&report).unwrap();
        // Same matching as default ld-gpu, at lower simulated cost.
        run(&args(&format!(
            "match --input {gpath} --algorithm ld-gpu --devices 2 --report-json {rpath}"
        )))
        .unwrap();
        let report = json::parse(&std::fs::read_to_string(&rpath).unwrap()).unwrap();
        assert_eq!(card(&report), Some(opt_card));
        let def_time = report.get("sim_time").and_then(json::Json::as_f64).unwrap();
        assert!(opt_time < def_time, "opt {opt_time} vs default {def_time}");
        // Profile places both modes side by side.
        let r = run(&args(&format!(
            "profile --input {gpath} --algorithms ld-gpu,ld-gpu-opt --devices 2"
        )))
        .unwrap();
        assert!(r.contains("ld-gpu-opt"));
        std::fs::remove_file(&gpath).ok();
        std::fs::remove_file(&rpath).ok();
    }

    #[test]
    fn overlap_flag_keeps_matching_and_reports_comm_gauges() {
        let gpath = tmp("ldgm_cli_ovl.mtx");
        let rpath = tmp("ldgm_cli_ovl_report.json");
        run(&args(&format!("gen --vertices 600 --avg-degree 6 --seed 13 --out {gpath}"))).unwrap();
        let card_weight = |rep: &json::Json| {
            let m = rep.get("matching").unwrap();
            (
                m.get("cardinality").and_then(json::Json::as_f64).unwrap(),
                m.get("weight").and_then(json::Json::as_f64).unwrap(),
            )
        };
        run(&args(&format!(
            "match --input {gpath} --algorithm ld-gpu --devices 4 --report-json {rpath}"
        )))
        .unwrap();
        let plain = json::parse(&std::fs::read_to_string(&rpath).unwrap()).unwrap();
        run(&args(&format!(
            "match --input {gpath} --algorithm ld-gpu --devices 4 --overlap \
             --report-json {rpath}"
        )))
        .unwrap();
        let ovl = json::parse(&std::fs::read_to_string(&rpath).unwrap()).unwrap();
        // Billing-only: identical matching either way.
        assert_eq!(card_weight(&ovl), card_weight(&plain));
        assert_eq!(ovl.get("schema_version").and_then(json::Json::as_f64), Some(5.0));
        let gauge = |rep: &json::Json, name: &str| {
            rep.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|g| g.get("value"))
                .and_then(json::Json::as_f64)
        };
        for name in ["comm.exposed_time", "comm.hidden_time", "stream.occupancy"] {
            assert!(gauge(&ovl, name).is_some(), "{name} missing from overlap report");
        }
        std::fs::remove_file(&gpath).ok();
        std::fs::remove_file(&rpath).ok();
    }

    #[test]
    fn stream_flag_matches_plain_and_reports_streaming_metrics() {
        let gpath = tmp("ldgm_cli_stream.mtx");
        let rpath = tmp("ldgm_cli_stream_report.json");
        run(&args(&format!("gen --vertices 600 --avg-degree 6 --seed 21 --out {gpath}"))).unwrap();
        let matched =
            |s: &str| s.lines().find(|l| l.contains(": matched")).map(str::to_string).unwrap();
        let plain = run(&args(&format!("match --input {gpath} --devices 2 --verify"))).unwrap();
        // A memory limit far below the whole-graph footprint: without
        // --stream it forces the batching fallback, with --stream it
        // narrows the bands until the resident window fits.
        let limited = run(&args(&format!(
            "match --input {gpath} --devices 2 --mem-limit 50000 --verify \
             --report-json {rpath}"
        )))
        .unwrap();
        assert_eq!(matched(&plain), matched(&limited));
        let gauge = |rep: &json::Json, name: &str| {
            rep.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|g| g.get("value"))
                .and_then(json::Json::as_f64)
        };
        let doc = json::parse(&std::fs::read_to_string(&rpath).unwrap()).unwrap();
        assert!(gauge(&doc, "driver.batches").unwrap() > 1.0, "--mem-limit must force batching");
        let streamed = run(&args(&format!(
            "match --input {gpath} --devices 2 --mem-limit 50000 --stream --stream-window 2 \
             --verify --report-json {rpath}"
        )))
        .unwrap();
        // Streaming is billing-only: bit-identical matching either way.
        assert_eq!(matched(&plain), matched(&streamed));
        let doc = json::parse(&std::fs::read_to_string(&rpath).unwrap()).unwrap();
        assert_eq!(doc.get("schema_version").and_then(json::Json::as_f64), Some(5.0));
        assert!(gauge(&doc, "driver.batches").unwrap() > 1.0, "tight budget must band-slice");
        for name in
            ["mem.resident_bytes", "copy.prefetch_hidden_time", "copy.prefetch_exposed_time"]
        {
            assert!(gauge(&doc, name).is_some(), "{name} missing from streaming report");
        }
        assert!(gauge(&doc, "mem.resident_bytes").unwrap() <= 50000.0);
        // Streaming also rides through `ldgm profile`.
        let prof = run(&args(&format!(
            "profile --input {gpath} --algorithms ld-gpu --mem-limit 50000 --stream"
        )))
        .unwrap();
        assert!(prof.contains("ld-gpu"), "{prof}");
        assert!(!prof.contains("skipped:"), "{prof}");
        std::fs::remove_file(&gpath).ok();
        std::fs::remove_file(&rpath).ok();
    }

    #[test]
    fn streaming_flags_are_validated() {
        let gpath = tmp("ldgm_cli_streamval.mtx");
        run(&args(&format!("gen --vertices 80 --avg-degree 4 --seed 2 --out {gpath}"))).unwrap();
        let err = |cmd: String| run(&args(&cmd)).unwrap_err().0;
        assert!(err(format!("match --input {gpath} --mem-budget 4096")).contains("add --stream"));
        assert!(err(format!("match --input {gpath} --stream-window 4")).contains("add --stream"));
        assert!(err(format!("match --input {gpath} --stream --stream-window 1"))
            .contains("double-buffer minimum"));
        assert!(err(format!("match --input {gpath} --mem-limit 0")).contains("at least 1 byte"));
        assert!(err(format!("match --input {gpath} --stream --mem-budget junk"))
            .contains("bad --mem-budget"));
        // An impossible streaming budget surfaces the planner error.
        let e = err(format!("match --input {gpath} --stream --mem-budget 64"));
        assert!(e.contains("streaming window"), "{e}");
        std::fs::remove_file(&gpath).ok();
    }

    #[test]
    fn profile_all_skips_guarded_algorithms() {
        let gpath = tmp("ldgm_cli_profall.mtx");
        run(&args(&format!("gen --vertices 2500 --avg-degree 4 --seed 11 --out {gpath}"))).unwrap();
        let r = run(&args(&format!("profile --input {gpath} --algorithms all"))).unwrap();
        // Blossom exceeds its size guard: reported as skipped, not fatal.
        assert!(r.contains("blossom"));
        assert!(r.contains("skipped:"));
        assert!(r.contains("ld-gpu"));
        std::fs::remove_file(&gpath).ok();
    }
}
