//! The `DynamicMatcher` entry point and registry.
//!
//! Mirrors the static [`ldgm_core::Matcher`] registry idiom for dynamic
//! workloads: a trait over (base graph, workload spec) → result, with two
//! registered engines — `"incremental"` (frontier maintenance via
//! [`IncrementalLd`]) and `"from-scratch"` (the static LD-GPU solver rerun
//! on a fresh snapshot after every batch, the baseline incremental
//! maintenance is measured against). Both consume the same seeded
//! [`UpdateStream`], so they see bit-identical update sequences and — the
//! canonical-uniqueness property — must produce bit-identical matchings.
//!
//! The dynamic registry lives alongside, not inside, the static
//! [`ldgm_core::MatcherRegistry`]: a static `Matcher` is checked against
//! the graph it was handed, while a dynamic run's matching is defined over
//! the *mutated* graph, so forcing both behind one trait would break the
//! static registry's verification contract (and `ldgm-core` cannot depend
//! on this crate without a cycle).

use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig};
use ldgm_core::{MatchError, MatcherSetup, Matching};
use ldgm_gpusim::{MetricsRegistry, PhaseBreakdown, RunProfile, Trace};
use ldgm_graph::csr::CsrGraph;

use crate::delta::DynGraph;
use crate::engine::{BatchReport, DynConfig, IncrementalLd};
use crate::stream::{UpdateStream, WorkloadKind};

/// A synthetic dynamic workload: how update batches are generated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Update-distribution shape.
    pub kind: WorkloadKind,
    /// Number of update batches to apply.
    pub batches: usize,
    /// Update steps per batch.
    pub batch_size: usize,
    /// Insert probability (uniform/skewed workloads).
    pub insert_frac: f64,
    /// Live-edge cap for sliding-window workloads (default: the initial
    /// edge count).
    pub window: Option<usize>,
    /// RNG seed; the full update sequence is a pure function of it.
    pub seed: u64,
    /// Verify validity/maximality/½-approx certificate after every batch.
    pub verify_each_batch: bool,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            kind: WorkloadKind::Uniform,
            batches: 8,
            batch_size: 64,
            insert_frac: 0.5,
            window: None,
            seed: 0,
            verify_each_batch: false,
        }
    }
}

impl WorkloadSpec {
    /// Instantiate the deterministic update stream for base graph `g`.
    pub fn make_stream(&self, g: &CsrGraph) -> UpdateStream {
        let mut s = UpdateStream::new(g, self.kind, self.seed).with_insert_frac(self.insert_frac);
        if let Some(w) = self.window {
            s = s.with_window(w);
        }
        s
    }
}

/// Result of a dynamic run, in the same shape as a static `MatchResult`
/// plus dynamic-specific timing splits and per-batch reports.
#[derive(Clone, Debug)]
pub struct DynamicRunResult {
    /// Matching after the final batch (over `graph`).
    pub matching: Matching,
    /// The final mutated graph snapshot.
    pub graph: CsrGraph,
    /// Total simulated seconds (initial solve + maintenance).
    pub sim_time: f64,
    /// Simulated seconds of the initial (pre-update) solve.
    pub initial_time: f64,
    /// Simulated seconds spent processing update batches.
    pub maintenance_time: f64,
    /// Total solver rounds/iterations across the run.
    pub iterations: u64,
    /// Phase breakdown (sums to `sim_time`) and per-round records.
    pub profile: RunProfile,
    /// Run metrics.
    pub metrics: MetricsRegistry,
    /// Event timeline (incremental engine only).
    pub trace: Option<Trace>,
    /// Per-batch maintenance summaries.
    pub batch_reports: Vec<BatchReport>,
}

/// A dynamic-matching engine: maintains a matching over `base` under the
/// update stream described by `spec`.
pub trait DynamicMatcher: Send + Sync {
    /// Registry name.
    fn name(&self) -> &str;
    /// Run the workload.
    fn run(&self, base: &CsrGraph, spec: &WorkloadSpec) -> Result<DynamicRunResult, MatchError>;
}

/// Frontier-based incremental maintenance ([`IncrementalLd`]).
pub struct IncrementalMatcher {
    cfg: DynConfig,
}

impl IncrementalMatcher {
    /// Build from an engine configuration.
    pub fn new(cfg: DynConfig) -> Self {
        IncrementalMatcher { cfg }
    }
}

impl DynamicMatcher for IncrementalMatcher {
    fn name(&self) -> &str {
        "incremental"
    }

    fn run(&self, base: &CsrGraph, spec: &WorkloadSpec) -> Result<DynamicRunResult, MatchError> {
        self.cfg.validate()?;
        let mut engine = IncrementalLd::new(base.clone(), self.cfg.clone());
        let mut stream = spec.make_stream(base);
        let mut reports = Vec::with_capacity(spec.batches);
        for i in 0..spec.batches {
            let batch = stream.next_batch(spec.batch_size);
            reports.push(engine.apply_batch(&batch));
            if spec.verify_each_batch {
                engine
                    .verify_current()
                    .map_err(|e| MatchError::Engine(format!("after batch {i}: {e}")))?;
            }
        }
        let out = engine.finish();
        Ok(DynamicRunResult {
            matching: out.matching,
            graph: out.graph,
            sim_time: out.sim_time,
            initial_time: out.initial_time,
            maintenance_time: out.maintenance_time,
            iterations: out.rounds,
            profile: out.profile,
            metrics: out.metrics,
            trace: Some(out.trace),
            batch_reports: reports,
        })
    }
}

/// From-scratch baseline: apply each batch to the [`DynGraph`] and rerun
/// the full static LD-GPU solver on a fresh snapshot.
pub struct RecomputeMatcher {
    setup: MatcherSetup,
}

impl RecomputeMatcher {
    /// Build from the shared matcher setup (platform + devices).
    pub fn new(setup: MatcherSetup) -> Self {
        RecomputeMatcher { setup }
    }

    fn solve(&self, g: &CsrGraph) -> Result<ldgm_core::ld_gpu::LdGpuOutput, MatchError> {
        // The driver's phase breakdown is timeline-derived by `SimRuntime`,
        // so it already sums to `sim_time` — no tracing detour needed.
        let cfg = LdGpuConfig::new(self.setup.platform.clone())
            .devices(self.setup.devices)
            .with_overlap(self.setup.overlap);
        LdGpu::new(cfg).try_run(g).map_err(|e| e.into_match_error("LD-GPU"))
    }
}

impl DynamicMatcher for RecomputeMatcher {
    fn name(&self) -> &str {
        "from-scratch"
    }

    fn run(&self, base: &CsrGraph, spec: &WorkloadSpec) -> Result<DynamicRunResult, MatchError> {
        let mut g = DynGraph::new(base.clone());
        let mut stream = spec.make_stream(base);
        let mut metrics = MetricsRegistry::new();
        let mut phases = PhaseBreakdown::default();
        let mut reports = Vec::with_capacity(spec.batches);
        let mut iterations = 0u64;

        let initial = self.solve(base)?;
        phases.merge(&initial.profile.phases);
        metrics.merge(&initial.metrics);
        iterations += initial.iterations as u64;
        let initial_time = initial.sim_time;

        let mut last = initial;
        let mut maintenance_time = 0.0;
        for i in 0..spec.batches {
            let batch = stream.next_batch(spec.batch_size);
            let mut inserts = 0;
            let mut deletes = 0;
            for upd in &batch {
                match *upd {
                    crate::delta::EdgeUpdate::Insert { u, v, w } => {
                        if u != v && w > 0.0 && w.is_finite() {
                            g.insert_edge(u, v, w);
                            inserts += 1;
                        }
                    }
                    crate::delta::EdgeUpdate::Delete { u, v } => {
                        if g.delete_edge(u, v) {
                            deletes += 1;
                        }
                    }
                }
            }
            g.maybe_compact();
            let snap = g.snapshot();
            let out = self.solve(&snap)?;
            phases.merge(&out.profile.phases);
            metrics.merge(&out.metrics);
            iterations += out.iterations as u64;
            maintenance_time += out.sim_time;
            if spec.verify_each_batch {
                out.matching
                    .verify(&snap)
                    .map_err(|e| MatchError::Engine(format!("after batch {i}: {e}")))?;
            }
            reports.push(BatchReport {
                batch: i as u64,
                updates: batch.len(),
                inserts,
                deletes,
                seed_frontier: snap.num_vertices(),
                rounds: out.iterations as u64,
                new_matches: out.matching.cardinality() as u64,
                broken_matches: 0,
                sim_time: out.sim_time,
                compacted: false,
            });
            last = out;
        }

        let sim_time = initial_time + maintenance_time;
        let graph = g.snapshot();
        Ok(DynamicRunResult {
            matching: last.matching,
            graph,
            sim_time,
            initial_time,
            maintenance_time,
            iterations,
            profile: RunProfile { phases, iterations: Vec::new(), sim_time },
            metrics,
            trace: None,
            batch_reports: reports,
        })
    }
}

/// Name-keyed registry of dynamic engines, mirroring
/// [`ldgm_core::MatcherRegistry`].
#[derive(Default)]
pub struct DynamicMatcherRegistry {
    entries: Vec<Box<dyn DynamicMatcher>>,
}

impl DynamicMatcherRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DynamicMatcherRegistry::default()
    }

    /// The default engines — `"incremental"` and `"from-scratch"` — built
    /// from the shared matcher setup.
    pub fn with_defaults(setup: &MatcherSetup) -> Self {
        let mut r = DynamicMatcherRegistry::new();
        let cfg = DynConfig::new(setup.platform.clone())
            .devices(setup.devices)
            .with_overlap(setup.overlap);
        r.register(Box::new(IncrementalMatcher::new(cfg)));
        r.register(Box::new(RecomputeMatcher::new(setup.clone())));
        r
    }

    /// Register an engine. Re-registering a name replaces the earlier
    /// entry (logged to stderr) and returns it; entries stay name-sorted.
    pub fn register(&mut self, m: Box<dyn DynamicMatcher>) -> Option<Box<dyn DynamicMatcher>> {
        match self.entries.binary_search_by(|e| e.name().cmp(m.name())) {
            Ok(i) => {
                eprintln!(
                    "ldgm: dynamic engine '{}' re-registered; replacing the earlier entry",
                    m.name()
                );
                Some(std::mem::replace(&mut self.entries[i], m))
            }
            Err(i) => {
                self.entries.insert(i, m);
                None
            }
        }
    }

    /// Look up an engine by name.
    pub fn get(&self, name: &str) -> Option<&dyn DynamicMatcher> {
        self.entries.binary_search_by(|e| e.name().cmp(name)).ok().map(|i| self.entries[i].as_ref())
    }

    /// Look up an engine by name, with nearest-name suggestions on a miss.
    pub fn try_get(&self, name: &str) -> Result<&dyn DynamicMatcher, MatchError> {
        self.get(name).ok_or_else(|| MatchError::unknown_algorithm(name, &self.names()))
    }

    /// Registered names, deterministically sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name()).collect()
    }

    /// Number of registered engines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::urand;

    fn setup() -> MatcherSetup {
        MatcherSetup { devices: 2, ..MatcherSetup::default() }
    }

    #[test]
    fn registry_has_both_engines() {
        let r = DynamicMatcherRegistry::with_defaults(&setup());
        assert_eq!(r.names(), vec!["from-scratch", "incremental"]);
        assert!(r.get("incremental").is_some());
        assert!(r.get("nope").is_none());
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        // A miss suggests the nearest registered engine.
        let err = r.try_get("incrmental").err().expect("miss must error");
        match &err {
            MatchError::UnknownAlgorithm { suggestions, .. } => {
                assert_eq!(suggestions[0], "incremental");
            }
            other => panic!("expected UnknownAlgorithm, got {other:?}"),
        }
        // Re-registration replaces and returns the displaced engine.
        let mut r = DynamicMatcherRegistry::with_defaults(&setup());
        let displaced = r.register(Box::new(RecomputeMatcher::new(setup())));
        assert_eq!(displaced.map(|m| m.name().to_string()), Some("from-scratch".to_string()));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn engines_agree_bit_for_bit_on_the_same_stream() {
        let g = urand(150, 600, 11);
        let spec = WorkloadSpec {
            batches: 5,
            batch_size: 25,
            seed: 13,
            verify_each_batch: true,
            ..WorkloadSpec::default()
        };
        let r = DynamicMatcherRegistry::with_defaults(&setup());
        let inc = r.get("incremental").unwrap().run(&g, &spec).unwrap();
        let scr = r.get("from-scratch").unwrap().run(&g, &spec).unwrap();
        // Canonical uniqueness: identical mate arrays, not just weights.
        assert_eq!(inc.matching, scr.matching);
        assert_eq!(inc.graph.offsets(), scr.graph.offsets());
        assert_eq!(inc.graph.weight_array(), scr.graph.weight_array());
        assert!((inc.matching.weight(&inc.graph) - scr.matching.weight(&scr.graph)).abs() < 1e-9);
    }

    #[test]
    fn incremental_beats_from_scratch_on_small_batches() {
        let g = urand(1500, 9000, 12);
        let spec = WorkloadSpec { batches: 4, batch_size: 8, seed: 5, ..WorkloadSpec::default() };
        let r = DynamicMatcherRegistry::with_defaults(&setup());
        let inc = r.get("incremental").unwrap().run(&g, &spec).unwrap();
        let scr = r.get("from-scratch").unwrap().run(&g, &spec).unwrap();
        assert!(
            inc.maintenance_time < scr.maintenance_time / 2.0,
            "incremental {} vs from-scratch {}",
            inc.maintenance_time,
            scr.maintenance_time
        );
    }

    #[test]
    fn sliding_window_workload_runs_on_both_engines() {
        let g = urand(120, 400, 13);
        let spec = WorkloadSpec {
            kind: WorkloadKind::SlidingWindow,
            batches: 3,
            batch_size: 30,
            window: Some(380),
            seed: 21,
            verify_each_batch: true,
            ..WorkloadSpec::default()
        };
        let r = DynamicMatcherRegistry::with_defaults(&setup());
        let inc = r.get("incremental").unwrap().run(&g, &spec).unwrap();
        let scr = r.get("from-scratch").unwrap().run(&g, &spec).unwrap();
        assert_eq!(inc.matching, scr.matching);
        assert!(inc.graph.num_edges() <= 380 + 30);
    }

    #[test]
    fn result_shapes_are_consistent() {
        let g = urand(200, 800, 14);
        let spec = WorkloadSpec { batches: 3, batch_size: 20, seed: 2, ..WorkloadSpec::default() };
        let r = DynamicMatcherRegistry::with_defaults(&MatcherSetup {
            platform: Platform::dgx_h100(),
            devices: 4,
            ..MatcherSetup::default()
        });
        for name in ["incremental", "from-scratch"] {
            let out = r.get(name).unwrap().run(&g, &spec).unwrap();
            assert_eq!(out.batch_reports.len(), 3, "{name}");
            assert!(out.sim_time > 0.0, "{name}");
            assert!(
                (out.initial_time + out.maintenance_time - out.sim_time).abs()
                    < 1e-9 * out.sim_time,
                "{name}"
            );
            assert!(
                (out.profile.phases.total() - out.sim_time).abs() < 1e-6 * out.sim_time,
                "{name}: phases {} vs sim {}",
                out.profile.phases.total(),
                out.sim_time
            );
            assert!(out.iterations > 0, "{name}");
            out.matching.verify(&out.graph).unwrap();
        }
    }
}
