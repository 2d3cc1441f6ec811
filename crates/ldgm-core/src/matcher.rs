//! The unified matcher API: every algorithm in this crate behind one
//! trait, discoverable through a name-keyed registry.
//!
//! A [`Matcher`] computes a [`MatchResult`]: the matching itself plus
//! whatever observability the algorithm supports — run time (simulated
//! seconds for platform algorithms, wall-clock for host algorithms), a
//! [`RunProfile`] phase breakdown, a [`MetricsRegistry`], and optionally a
//! full event [`Trace`]. The CLI's `match` and `profile` commands and the
//! cross-algorithm test suite all dispatch through
//! [`MatcherRegistry::with_defaults`] instead of hand-rolled match arms,
//! so a new algorithm only needs a `Matcher` impl and one `register` call
//! to appear everywhere.

use std::fmt;
use std::time::Instant;

use ldgm_gpusim::metrics::names;
use ldgm_gpusim::{MetricsRegistry, Platform, RunProfile, Trace};
use ldgm_graph::csr::CsrGraph;

use crate::auction::auction;
use crate::blossom::blossom_mwm;
use crate::cugraph_sim::cugraph_sim_traced;
use crate::greedy::greedy;
use crate::ld_gpu::{LdGpu, LdGpuConfig, LdGpuOutput};
use crate::ld_seq::ld_seq_profiled;
use crate::local_max::local_max_profiled;
use crate::matching::Matching;
use crate::suitor::suitor_with_stats;
use crate::suitor_par::suitor_par;
use crate::suitor_sim::suitor_sim_traced;

/// Why a matcher could not run or be selected. Structured so callers can
/// branch on the failure class instead of string-matching error text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatchError {
    /// A registry lookup failed. `suggestions` holds every valid name,
    /// ordered nearest-first by edit distance to the requested one.
    UnknownAlgorithm {
        /// The name that was requested.
        name: String,
        /// All valid names, nearest-first.
        suggestions: Vec<String>,
    },
    /// A configuration was rejected before the run started (a rule of an
    /// engine config's `validate`, a size guard, a bad parameter).
    InvalidConfig(String),
    /// The input graph/dataset could not be used (missing, malformed,
    /// structurally unusable).
    DatasetError(String),
    /// The engine itself failed mid-run (out of memory on a simulated
    /// device, infeasible batch plan, internal invariant).
    Engine(String),
}

impl MatchError {
    /// Wrap an engine-layer failure, preserving its message.
    pub fn engine(e: impl fmt::Display) -> Self {
        MatchError::Engine(e.to_string())
    }

    /// Build the lookup failure for `name` against `valid` names:
    /// suggestions are all valid names, nearest (by edit distance) first.
    pub fn unknown_algorithm(name: &str, valid: &[&str]) -> Self {
        MatchError::UnknownAlgorithm {
            name: name.to_string(),
            suggestions: nearest_names(name, valid),
        }
    }
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::UnknownAlgorithm { name, suggestions } => {
                write!(f, "unknown algorithm '{name}'")?;
                if let Some(best) = suggestions.first() {
                    if edit_distance(name, best) <= SUGGESTION_DISTANCE {
                        write!(f, " (did you mean '{best}'?)")?;
                    }
                }
                if suggestions.is_empty() {
                    write!(f, "; the registry is empty")
                } else {
                    write!(f, "; valid: {}", suggestions.join(", "))
                }
            }
            MatchError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MatchError::DatasetError(msg) => write!(f, "dataset error: {msg}"),
            MatchError::Engine(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for MatchError {}

/// Maximum edit distance at which a name is offered as "did you mean".
const SUGGESTION_DISTANCE: usize = 3;

/// Levenshtein distance between two ASCII-ish names (full unicode-scalar
/// granularity; names here are short registry keys).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Rank `valid` names by edit distance to `name` (ties alphabetical).
/// Returns every name — callers print the full list; the ordering is the
/// suggestion.
pub fn nearest_names(name: &str, valid: &[&str]) -> Vec<String> {
    let mut ranked: Vec<(usize, &str)> =
        valid.iter().map(|v| (edit_distance(name, v), *v)).collect();
    ranked.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
    ranked.into_iter().map(|(_, v)| v.to_string()).collect()
}

/// Result of one matcher run: the matching plus optional observability.
#[derive(Clone, Debug)]
pub struct MatchResult {
    /// The computed matching.
    pub matching: Matching,
    /// End-to-end run time in seconds: simulated when `simulated`,
    /// wall-clock otherwise.
    pub run_time: f64,
    /// Whether `run_time` is simulated platform time.
    pub simulated: bool,
    /// Iterations/rounds executed (0 when the notion doesn't apply).
    pub iterations: u64,
    /// Phase breakdown + per-iteration records, when the algorithm is
    /// instrumented.
    pub profile: Option<RunProfile>,
    /// Run metrics (possibly empty).
    pub metrics: MetricsRegistry,
    /// Event timeline, when requested and supported.
    pub trace: Option<Trace>,
}

impl MatchResult {
    /// A bare result for an uninstrumented host algorithm.
    fn host(matching: Matching, wall: f64) -> Self {
        MatchResult {
            matching,
            run_time: wall,
            simulated: false,
            iterations: 0,
            profile: None,
            metrics: MetricsRegistry::new(),
            trace: None,
        }
    }
}

/// A named matching algorithm.
pub trait Matcher: Send + Sync {
    /// Registry key (`"ld-gpu"`, `"suitor"`, ...).
    fn name(&self) -> &str;
    /// Compute a matching on `g`.
    fn run(&self, g: &CsrGraph) -> Result<MatchResult, MatchError>;
}

/// Shared configuration for [`MatcherRegistry::with_defaults`].
#[derive(Clone, Debug)]
pub struct MatcherSetup {
    /// Platform for simulated matchers, with any cluster size or device
    /// memory override already applied ([`Platform::with_nodes`],
    /// [`Platform::with_device_memory`]).
    pub platform: Platform,
    /// Devices for multi-GPU matchers.
    pub devices: usize,
    /// Batches per device for LD-GPU (`None` = auto).
    pub batches: Option<usize>,
    /// Seed for randomized matchers (auction).
    pub seed: u64,
    /// Record event traces where supported (LD-GPU, cuGraph, SR-GPU).
    pub collect_trace: bool,
    /// Vertex-count guard for the O(n^3) exact blossom matcher.
    pub blossom_limit: usize,
    /// Communication/computation overlap for the LD-GPU matchers (chunked
    /// collectives on the comm stream; billing-only, matching unchanged).
    pub overlap: bool,
    /// Topology-aware part→node placement for the LD-GPU matchers on
    /// cluster platforms (billing-only, matching unchanged).
    pub topology_placement: bool,
    /// Out-of-core streaming mode for the LD-GPU matchers (substream-
    /// pipelined rank bands; matching bit-identical to the resident
    /// paths).
    pub streaming: bool,
    /// Streaming byte budget per device (`None` = device memory).
    pub mem_budget: Option<u64>,
    /// Streaming resident window in bands (`None` = driver default).
    pub stream_window: Option<usize>,
}

impl Default for MatcherSetup {
    fn default() -> Self {
        MatcherSetup {
            platform: Platform::dgx_a100(),
            devices: 1,
            batches: None,
            seed: 0,
            collect_trace: false,
            blossom_limit: 2000,
            overlap: false,
            topology_placement: false,
            streaming: false,
            mem_budget: None,
            stream_window: None,
        }
    }
}

/// Name-keyed collection of matchers.
#[derive(Default)]
pub struct MatcherRegistry {
    entries: Vec<Box<dyn Matcher>>,
}

impl MatcherRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every algorithm this crate ships, configured from `setup`.
    pub fn with_defaults(setup: &MatcherSetup) -> Self {
        let mut reg = Self::new();
        reg.register(Box::new(LdGpuMatcher::from_setup(setup)));
        reg.register(Box::new(LdGpuOptMatcher::from_setup(setup)));
        reg.register(Box::new(LdSeqMatcher));
        reg.register(Box::new(LocalMaxMatcher));
        reg.register(Box::new(GreedyMatcher));
        reg.register(Box::new(SuitorMatcher));
        reg.register(Box::new(SuitorParMatcher));
        reg.register(Box::new(SuitorGpuMatcher {
            platform: setup.platform.clone(),
            collect_trace: setup.collect_trace,
        }));
        reg.register(Box::new(AuctionMatcher { seed: setup.seed }));
        reg.register(Box::new(BlossomMatcher { limit: setup.blossom_limit }));
        reg.register(Box::new(CugraphMatcher {
            platform: setup.platform.clone(),
            devices: setup.devices,
            collect_trace: setup.collect_trace,
        }));
        reg
    }

    /// Add a matcher. Re-registering an existing name replaces the old
    /// entry — loudly: the displaced matcher is logged to stderr and
    /// returned, so an intentional override can drop it while accidental
    /// duplicates leave a trace instead of silently vanishing. No front
    /// end re-registers a name.
    pub fn register(&mut self, matcher: Box<dyn Matcher>) -> Option<Box<dyn Matcher>> {
        match self.entries.binary_search_by(|m| m.name().cmp(matcher.name())) {
            Ok(i) => {
                eprintln!(
                    "ldgm: matcher '{}' re-registered; replacing the earlier entry",
                    matcher.name()
                );
                Some(std::mem::replace(&mut self.entries[i], matcher))
            }
            Err(i) => {
                self.entries.insert(i, matcher);
                None
            }
        }
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Matcher> {
        self.entries.binary_search_by(|m| m.name().cmp(name)).ok().map(|i| self.entries[i].as_ref())
    }

    /// Look up by name, with a structured error carrying nearest-name
    /// suggestions when the lookup fails.
    pub fn try_get(&self, name: &str) -> Result<&dyn Matcher, MatchError> {
        self.get(name).ok_or_else(|| MatchError::unknown_algorithm(name, &self.names()))
    }

    /// Registered names, deterministically sorted (the registry keeps its
    /// entries in name order).
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|m| m.name()).collect()
    }

    /// Iterate matchers in name order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Matcher> {
        self.entries.iter().map(|m| m.as_ref())
    }

    /// Number of registered matchers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// LD-GPU on a simulated platform.
pub struct LdGpuMatcher {
    /// Full LD-GPU configuration.
    pub cfg: LdGpuConfig,
}

impl LdGpuMatcher {
    /// The base LD-GPU configuration [`MatcherRegistry::with_defaults`]
    /// gives the `ld-gpu` matcher for `setup` — the auto-tuner's
    /// starting point ([`crate::ld_gpu::auto_tune`]).
    pub fn config_from_setup(setup: &MatcherSetup) -> LdGpuConfig {
        Self::from_setup(setup).cfg
    }

    fn from_setup(setup: &MatcherSetup) -> Self {
        let mut cfg = LdGpuConfig::new(setup.platform.clone())
            .devices(setup.devices)
            .with_overlap(setup.overlap)
            .with_topology_placement(setup.topology_placement);
        if let Some(b) = setup.batches {
            cfg = cfg.batches(b);
        }
        if setup.streaming {
            cfg = cfg.with_streaming(true);
            if let Some(bytes) = setup.mem_budget {
                cfg = cfg.with_mem_budget(bytes);
            }
            if let Some(w) = setup.stream_window {
                cfg = cfg.with_stream_window(w);
            }
        }
        if setup.collect_trace {
            cfg = cfg.with_trace();
        }
        LdGpuMatcher { cfg }
    }
}

/// Convert a driver output into a [`MatchResult`].
pub fn ld_gpu_result(out: LdGpuOutput) -> MatchResult {
    MatchResult {
        matching: out.matching,
        run_time: out.sim_time,
        simulated: true,
        iterations: out.iterations as u64,
        profile: Some(out.profile),
        metrics: out.metrics,
        trace: out.trace,
    }
}

impl Matcher for LdGpuMatcher {
    fn name(&self) -> &str {
        "ld-gpu"
    }
    fn run(&self, g: &CsrGraph) -> Result<MatchResult, MatchError> {
        let out =
            LdGpu::new(self.cfg.clone()).try_run(g).map_err(|e| e.into_match_error("LD-GPU"))?;
        Ok(ld_gpu_result(out))
    }
}

/// Optimized LD-GPU (`ld-gpu-opt`): sorted-index early exit +
/// cross-iteration frontier + sparse delta collectives. Produces the
/// bit-identical matching of plain `ld-gpu` at lower simulated cost.
pub struct LdGpuOptMatcher {
    /// Full LD-GPU configuration (the optimized mode on).
    pub cfg: LdGpuConfig,
}

impl LdGpuOptMatcher {
    fn from_setup(setup: &MatcherSetup) -> Self {
        LdGpuOptMatcher { cfg: LdGpuMatcher::from_setup(setup).cfg.optimized() }
    }
}

impl Matcher for LdGpuOptMatcher {
    fn name(&self) -> &str {
        "ld-gpu-opt"
    }
    fn run(&self, g: &CsrGraph) -> Result<MatchResult, MatchError> {
        let out = LdGpu::new(self.cfg.clone())
            .try_run(g)
            .map_err(|e| e.into_match_error("LD-GPU-opt"))?;
        Ok(ld_gpu_result(out))
    }
}

/// Sequential pointer algorithm, instrumented.
pub struct LdSeqMatcher;

impl Matcher for LdSeqMatcher {
    fn name(&self) -> &str {
        "ld-seq"
    }
    fn run(&self, g: &CsrGraph) -> Result<MatchResult, MatchError> {
        let out = ld_seq_profiled(g);
        Ok(MatchResult {
            matching: out.matching,
            run_time: out.profile.sim_time,
            simulated: false,
            iterations: out.profile.num_iterations() as u64,
            profile: Some(out.profile),
            metrics: out.metrics,
            trace: None,
        })
    }
}

/// Edge-centric LocalMax, instrumented.
pub struct LocalMaxMatcher;

impl Matcher for LocalMaxMatcher {
    fn name(&self) -> &str {
        "local-max"
    }
    fn run(&self, g: &CsrGraph) -> Result<MatchResult, MatchError> {
        let out = local_max_profiled(g);
        Ok(MatchResult {
            matching: out.matching,
            run_time: out.profile.sim_time,
            simulated: false,
            iterations: out.profile.num_iterations() as u64,
            profile: Some(out.profile),
            metrics: out.metrics,
            trace: None,
        })
    }
}

/// Global-sort greedy.
pub struct GreedyMatcher;

impl Matcher for GreedyMatcher {
    fn name(&self) -> &str {
        "greedy"
    }
    fn run(&self, g: &CsrGraph) -> Result<MatchResult, MatchError> {
        let t0 = Instant::now();
        let m = greedy(g);
        Ok(MatchResult::host(m, t0.elapsed().as_secs_f64()))
    }
}

/// Sequential Suitor with proposal metrics.
pub struct SuitorMatcher;

impl Matcher for SuitorMatcher {
    fn name(&self) -> &str {
        "suitor"
    }
    fn run(&self, g: &CsrGraph) -> Result<MatchResult, MatchError> {
        let t0 = Instant::now();
        let (m, stats) = suitor_with_stats(g);
        let mut result = MatchResult::host(m, t0.elapsed().as_secs_f64());
        result.metrics.counter_add(names::KERNEL_EDGES_SCANNED, stats.edges_scanned);
        result.metrics.counter_add(names::KERNEL_POINTERS_SET, stats.proposals);
        result
            .metrics
            .counter_add(names::MATCHING_EDGES_COMMITTED, result.matching.cardinality() as u64);
        Ok(result)
    }
}

/// Rayon-parallel Suitor.
pub struct SuitorParMatcher;

impl Matcher for SuitorParMatcher {
    fn name(&self) -> &str {
        "suitor-par"
    }
    fn run(&self, g: &CsrGraph) -> Result<MatchResult, MatchError> {
        let t0 = Instant::now();
        let m = suitor_par(g);
        Ok(MatchResult::host(m, t0.elapsed().as_secs_f64()))
    }
}

/// SR-GPU: Suitor on one simulated device.
pub struct SuitorGpuMatcher {
    /// Platform whose first device runs the kernel.
    pub platform: Platform,
    /// Record an event trace.
    pub collect_trace: bool,
}

impl Matcher for SuitorGpuMatcher {
    fn name(&self) -> &str {
        "suitor-gpu"
    }
    fn run(&self, g: &CsrGraph) -> Result<MatchResult, MatchError> {
        let out =
            suitor_sim_traced(g, &self.platform, self.collect_trace).map_err(MatchError::engine)?;
        Ok(MatchResult {
            matching: out.matching,
            run_time: out.sim_time,
            simulated: true,
            iterations: out.metrics.counter(names::DRIVER_ITERATIONS),
            profile: Some(out.profile),
            metrics: out.metrics,
            trace: out.trace,
        })
    }
}

/// Red-blue auction matching.
pub struct AuctionMatcher {
    /// Coloring seed.
    pub seed: u64,
}

impl Matcher for AuctionMatcher {
    fn name(&self) -> &str {
        "auction"
    }
    fn run(&self, g: &CsrGraph) -> Result<MatchResult, MatchError> {
        let t0 = Instant::now();
        let m = auction(g, self.seed);
        Ok(MatchResult::host(m, t0.elapsed().as_secs_f64()))
    }
}

/// Exact maximum-weight matching (O(n^3); size-guarded).
pub struct BlossomMatcher {
    /// Maximum vertex count accepted.
    pub limit: usize,
}

impl Matcher for BlossomMatcher {
    fn name(&self) -> &str {
        "blossom"
    }
    fn run(&self, g: &CsrGraph) -> Result<MatchResult, MatchError> {
        if g.num_vertices() > self.limit {
            return Err(MatchError::InvalidConfig(format!(
                "blossom is O(n^3); {} vertices is too many (limit {})",
                g.num_vertices(),
                self.limit
            )));
        }
        let t0 = Instant::now();
        let m = blossom_mwm(g, 1_000_000.0);
        Ok(MatchResult::host(m, t0.elapsed().as_secs_f64()))
    }
}

/// cuGraph-style multi-GPU baseline.
pub struct CugraphMatcher {
    /// Base platform (comm model is replaced by MPI-staged internally).
    pub platform: Platform,
    /// Device count.
    pub devices: usize,
    /// Record an event trace.
    pub collect_trace: bool,
}

impl Matcher for CugraphMatcher {
    fn name(&self) -> &str {
        "cugraph"
    }
    fn run(&self, g: &CsrGraph) -> Result<MatchResult, MatchError> {
        let out = cugraph_sim_traced(g, &self.platform, self.devices, self.collect_trace)
            .map_err(|e| e.into_match_error("cuGraph-sim"))?;
        Ok(ld_gpu_result(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldgm_graph::gen::urand;

    #[test]
    fn default_registry_contents() {
        let reg = MatcherRegistry::with_defaults(&MatcherSetup::default());
        // `names()` is deterministically sorted regardless of the order
        // `with_defaults` registered the entries in.
        assert_eq!(
            reg.names(),
            vec![
                "auction",
                "blossom",
                "cugraph",
                "greedy",
                "ld-gpu",
                "ld-gpu-opt",
                "ld-seq",
                "local-max",
                "suitor",
                "suitor-gpu",
                "suitor-par",
            ]
        );
        assert!(reg.get("ld-gpu").is_some());
        assert!(reg.get("bogus").is_none());
    }

    #[test]
    fn try_get_suggests_nearest_names() {
        let reg = MatcherRegistry::with_defaults(&MatcherSetup::default());
        assert!(reg.try_get("ld-gpu").is_ok());
        let err = reg.try_get("ld-gup").err().expect("miss must error");
        let MatchError::UnknownAlgorithm { name, suggestions } = &err else {
            panic!("expected UnknownAlgorithm, got {err:?}");
        };
        assert_eq!(name, "ld-gup");
        // Every valid name is listed, nearest typo-fix first.
        assert_eq!(suggestions.len(), reg.len());
        assert_eq!(suggestions[0], "ld-gpu");
        let msg = err.to_string();
        assert!(msg.contains("did you mean 'ld-gpu'"), "{msg}");
        assert!(msg.contains("blossom"), "full list must be printed: {msg}");
        // A distant name skips the did-you-mean clause but keeps the list.
        let msg = reg.try_get("zzzzzzzzzzzz").err().expect("miss must error").to_string();
        assert!(!msg.contains("did you mean"), "{msg}");
        assert!(msg.contains("valid:"), "{msg}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("ld-gpu", "ld-gup"), 2);
        assert_eq!(edit_distance("suitor", "suitor-par"), 4);
    }

    #[test]
    fn every_registered_matcher_runs_and_validates() {
        let g = urand(300, 1500, 1);
        let reg = MatcherRegistry::with_defaults(&MatcherSetup::default());
        for m in reg.iter() {
            let r = m.run(&g).unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            assert_eq!(r.matching.verify(&g), Ok(()), "{}", m.name());
            assert!(r.run_time >= 0.0, "{}", m.name());
        }
    }

    #[test]
    fn simulated_matchers_carry_profiles() {
        let g = urand(400, 2000, 2);
        let reg = MatcherRegistry::with_defaults(&MatcherSetup::default());
        for name in ["ld-gpu", "ld-gpu-opt", "ld-seq", "local-max", "suitor-gpu", "cugraph"] {
            let r = reg.get(name).unwrap().run(&g).unwrap();
            let p = r.profile.unwrap_or_else(|| panic!("{name}: no profile"));
            assert!(p.phases.total() > 0.0, "{name}");
            assert!(!r.metrics.is_empty(), "{name}");
        }
    }

    #[test]
    fn mem_limit_and_streaming_flow_through_setup() {
        // Streaming knobs land on the ld-gpu configs (base and opt).
        let setup = MatcherSetup {
            streaming: true,
            mem_budget: Some(1 << 22),
            stream_window: Some(4),
            ..Default::default()
        };
        let cfg = LdGpuMatcher::config_from_setup(&setup);
        assert!(cfg.streaming);
        assert_eq!(cfg.mem_budget, Some(1 << 22));
        assert_eq!(cfg.stream_window, Some(4));

        // A streaming run on a memory-limited platform still matches
        // correctly.
        let g = urand(400, 3000, 6);
        let platform = Platform::dgx_a100().with_device_memory(1 << 20);
        let setup = MatcherSetup { platform, streaming: true, ..Default::default() };
        let reg = MatcherRegistry::with_defaults(&setup);
        let r = reg.get("ld-gpu").unwrap().run(&g).unwrap();
        assert_eq!(r.matching.verify(&g), Ok(()));
    }

    #[test]
    fn blossom_guard_errors_cleanly() {
        let g = urand(50, 100, 3);
        let m = BlossomMatcher { limit: 10 };
        let err = m.run(&g).unwrap_err();
        assert!(matches!(err, MatchError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("O(n^3)"));
    }

    #[test]
    fn trace_request_propagates_to_ld_gpu() {
        let g = urand(200, 800, 4);
        let setup = MatcherSetup { collect_trace: true, ..Default::default() };
        let reg = MatcherRegistry::with_defaults(&setup);
        let r = reg.get("ld-gpu").unwrap().run(&g).unwrap();
        assert!(r.trace.is_some());
        let r = reg.get("cugraph").unwrap().run(&g).unwrap();
        assert!(r.trace.is_some());
        let r = reg.get("suitor-gpu").unwrap().run(&g).unwrap();
        assert!(r.trace.is_some());
        let r = reg.get("greedy").unwrap().run(&g).unwrap();
        assert!(r.trace.is_none());
    }

    #[test]
    fn register_replaces_by_name() {
        struct Fake;
        impl Matcher for Fake {
            fn name(&self) -> &str {
                "greedy"
            }
            fn run(&self, g: &CsrGraph) -> Result<MatchResult, MatchError> {
                Ok(MatchResult::host(Matching::new(g.num_vertices()), 0.0))
            }
        }
        let mut reg = MatcherRegistry::with_defaults(&MatcherSetup::default());
        let before = reg.len();
        let displaced = reg.register(Box::new(Fake));
        assert!(displaced.is_some(), "re-registration must return the displaced matcher");
        assert_eq!(displaced.unwrap().name(), "greedy");
        assert_eq!(reg.len(), before);
        let g = urand(10, 20, 5);
        let r = reg.get("greedy").unwrap().run(&g).unwrap();
        assert_eq!(r.matching.cardinality(), 0, "replacement matcher must win");
    }
}
