//! The `dyn` write path with nothing in front of it, replayed in the
//! traced `serve` run for the `dyn` per-layer metrics.
//!
//! `IncrementalLd` on the serve workload's com-Friendster at 4 devices on
//! the scaled DGX-A100, fed directly by the seeded uniform `UpdateStream`
//! that the serve workload draws its writes from: first 16-update
//! batches, then 1024-update batches, on the same engine. Small batches
//! are dominated by fixed per-batch cost (upload billing, trace labels,
//! the frontier sort), large ones by stabilization rounds, so a change
//! that helps one batch size and hurts the other shows.
//!
//! This loop is bound by cache misses, and its host wall-clock on a
//! shared machine drifts between runs by more than any end-to-end bound
//! allows, so it is measured here as a layer and not as a workload.

use std::time::Instant;

use ldgm_bench::datasets::scaled_platform;
use ldgm_core::ld_seq::ld_seq;
use ldgm_dyn::{
    BatchReport, DynConfig, DynGraph, EdgeUpdate, IncrementalLd, UpdateStream, WorkloadKind,
};
use ldgm_gpusim::Platform;
use ldgm_graph::csr::CsrGraph;

use crate::report::{RunResult, Value};
use crate::stats::Summary;
use crate::trace::{self, Tracer};
use crate::{mix, sys};

/// Simulated devices.
const DEVICES: usize = 4;
/// `IncrementalLd::new` repetitions (`dyn.setup_s` is their median).
const SETUP_REPS: usize = 5;
/// The two phases: (batch size, batches).
const PHASES: [(usize, usize); 2] = [(16, 8000), (1024, 250)];
/// 16-update batches applied before `IncrementalLd::finish` in the
/// retention probe; `finish` is quadratic in the retained trace, so the
/// probe stays short.
const PROBE_BATCHES: usize = 1000;

/// What one pass of the stream measured.
#[derive(Default)]
struct Pass {
    /// Host seconds of the batches that compacted the delta store.
    compacting: Vec<f64>,
    /// Reports of every batch, per phase.
    reports: [Vec<BatchReport>; 2],
    /// Resident-set growth over the first phase, KiB.
    rss_growth_kb: f64,
}

/// Replay the stream on `g` (the serve workload's graph, drawn from
/// `seed`) and record the `dyn` per-layer metrics.
pub fn run(seed: u64, g: &CsrGraph, tr: &mut Tracer, out: &mut RunResult) {
    let mut stream = UpdateStream::new(g, WorkloadKind::Uniform, mix(seed, 0xC4));
    let phases: Vec<Vec<Vec<EdgeUpdate>>> = PHASES
        .iter()
        .map(|&(size, count)| (0..count).map(|_| stream.next_batch(size)).collect())
        .collect();
    drop(stream);
    let cfg = DynConfig::new(scaled_platform(Platform::dgx_a100())).devices(DEVICES);

    // Set-up: build the engine several times; the last one is used.
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let base = g.clone();
        engine = Some(tr.time("dyn.new", || IncrementalLd::new(base, cfg.clone())));
    }
    let engine = engine.expect("built");
    // The delta-store replay starts from the graph the engine starts from.
    let delta = engine.graph().clone();
    let pass = stream_pass(engine, &phases, tr, out);
    layers(g, &cfg, &phases, delta, &pass, tr, out);
}

/// One pass of the whole stream over `engine`, with the output checked
/// against LD-SEQ on the engine's snapshot at fixed checkpoints: halfway
/// through the first phase and at the end of each phase.
fn stream_pass(
    mut engine: IncrementalLd,
    phases: &[Vec<Vec<EdgeUpdate>>],
    tr: &mut Tracer,
    out: &mut RunResult,
) -> Pass {
    let mut pass = Pass::default();
    for (i, batches) in phases.iter().enumerate() {
        let size = PHASES[i].0;
        let span = if size == 16 { "dyn.apply.b16" } else { "dyn.apply.b1024" };
        let rss0 = sys::rss_kb();
        let mut reports = Vec::with_capacity(batches.len());
        for (k, batch) in batches.iter().enumerate() {
            let t = Instant::now();
            let rep = tr.time(span, || engine.apply_batch(batch));
            if rep.compacted {
                pass.compacting.push(t.elapsed().as_secs_f64());
            }
            reports.push(rep);
            out.attempted += 1;
            if (i == 0 && k + 1 == batches.len() / 2) || k + 1 == batches.len() {
                checkpoint(&engine, size, k, out);
            }
        }
        if i == 0 {
            pass.rss_growth_kb = sys::rss_kb() as f64 - rss0 as f64;
        }
        pass.reports[i] = reports;
    }
    pass
}

/// The maintained matching must equal LD-SEQ on the current snapshot.
fn checkpoint(engine: &IncrementalLd, size: usize, k: usize, out: &mut RunResult) {
    let expect = ld_seq(&engine.graph().snapshot());
    out.attempt(engine.mate_array() == expect.mate_array(), || {
        format!("after {} {size}-update batches: mate array differs from ld_seq", k + 1)
    });
}

/// Per-layer metrics from the traced pass, a delta-store replay and a
/// retention probe.
fn layers(
    g: &CsrGraph,
    cfg: &DynConfig,
    phases: &[Vec<Vec<EdgeUpdate>>],
    mut delta: DynGraph,
    pass: &Pass,
    tr: &mut Tracer,
    out: &mut RunResult,
) {
    let spans = tr.spans().to_vec();
    let new = trace::durations(&spans, "dyn.new");
    let s = Summary::of(&new).expect("set-up spans");
    out.put("dyn.setup_s", Value::new(s.median, "s").samples(s.n).base("IncrementalLd::new"));

    // The delta store alone: the same updates through insert/delete.
    let mut delta_ns = [0.0f64; 2];
    for (i, batches) in phases.iter().enumerate() {
        let open = tr.open("dyn.delta");
        let t = Instant::now();
        for batch in batches {
            for &u in batch {
                match u {
                    EdgeUpdate::Insert { u, v, w } => delta.insert_edge(u, v, w),
                    EdgeUpdate::Delete { u, v } => delta.delete_edge(u, v),
                };
            }
        }
        delta_ns[i] = t.elapsed().as_secs_f64() * 1e9 / (PHASES[i].0 * PHASES[i].1) as f64;
        tr.close(open);
    }
    let total_updates: usize = PHASES.iter().map(|&(k, n)| k * n).sum();
    let overall = PHASES.iter().zip(delta_ns).map(|(&(k, n), ns)| ns * (k * n) as f64).sum::<f64>()
        / total_updates as f64;
    out.put(
        "dyn.delta_ns_per_update",
        Value::new(overall, "ns").base("DynGraph::insert_edge/delete_edge on a clone, both phases"),
    );

    for (i, (metric, span)) in
        [("dyn.apply_us.b16", "dyn.apply.b16"), ("dyn.apply_us.b1024", "dyn.apply.b1024")]
            .into_iter()
            .enumerate()
    {
        let d = trace::durations(&spans, span);
        let s = Summary::of(&d).expect("traced batches");
        let median_us = s.median * 1e6;
        out.put(metric, Value::new(median_us, "us").samples(s.n).base("median apply_batch span"));
        let tail = s.tail.map_or(0.0, |(_, v)| v * 1e6);
        out.put(
            &format!("{metric}.tail"),
            Value::new(tail, "us")
                .samples(s.n)
                .tail(s.tail.map(|(p, v)| (p, v * 1e6)))
                .base("highest supported percentile"),
        );
        let size = PHASES[i].0 as f64;
        out.put(
            &format!("dyn.stabilize_self_us.b{}", PHASES[i].0),
            Value::new(median_us - delta_ns[i] * size / 1e3, "us")
                .base("median apply - delta-store time of the batch"),
        );
    }
    let compact = Summary::of(&pass.compacting).map_or(0.0, |s| s.median * 1e3);
    out.put(
        "dyn.compact_ms",
        Value::new(compact, "ms")
            .samples(pass.compacting.len())
            .base("median apply of batches that compacted"),
    );

    let reports: Vec<&BatchReport> = pass.reports.iter().flatten().collect();
    let sum = |f: fn(&BatchReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let seed_frontier = sum(|r| r.seed_frontier as u64);
    let new_matches = sum(|r| r.new_matches);
    out.set("dyn.seed_frontier", seed_frontier);
    out.set("dyn.rounds", sum(|r| r.rounds));
    out.set("dyn.new_matches", new_matches);
    out.set("dyn.broken_matches", sum(|r| r.broken_matches));
    out.put(
        "dyn.match_yield",
        Value::new(new_matches / seed_frontier.max(1.0), "ratio")
            .base("new_matches / seed_frontier, one stream"),
    );
    out.set("dyn.compactions", sum(|r| r.compacted as u64));
    out.put(
        "dyn.rss_kb_per_batch",
        Value::new(pass.rss_growth_kb / PHASES[0].1 as f64, "KiB")
            .base(format!("VmRSS growth over {} 16-update batches / batches", PHASES[0].1)),
    );

    // Retention probe: what the engine keeps, read back from `finish`.
    let mut probe = IncrementalLd::new(g.clone(), cfg.clone());
    for batch in &phases[0][..PROBE_BATCHES] {
        probe.apply_batch(batch);
    }
    let t = Instant::now();
    let fin = tr.time("gpusim.finish", || probe.finish());
    let finish_s = t.elapsed().as_secs_f64();
    out.put(
        "gpusim.trace_events",
        Value::new(fin.trace.events.len() as f64, "count")
            .base(format!("events retained after the build and {PROBE_BATCHES} 16-update batches")),
    );
    out.put(
        "gpusim.finish_s",
        Value::new(finish_s, "s").base("IncrementalLd::finish of that engine"),
    );
    let expect = ld_seq(&fin.graph);
    out.attempt(fin.matching.mate_array() == expect.mate_array(), || {
        "retention probe: finish() matching differs from ld_seq".into()
    });
}
