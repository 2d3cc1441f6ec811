//! LD-GPU run configuration and errors.

use ldgm_gpusim::Platform;

use crate::matcher::MatchError;

/// Configuration of an LD-GPU run.
#[derive(Clone, Debug)]
pub struct LdGpuConfig {
    /// Simulated platform (device model, interconnect, cost model, comm
    /// runtime).
    pub platform: Platform,
    /// Devices to use (clamped to `platform.max_devices`).
    pub devices: usize,
    /// Batches per device; `None` selects the minimum count whose
    /// double-buffered footprint fits device memory — the paper's default
    /// policy ("we attempt to minimize the number of batches").
    pub batches: Option<usize>,
    /// Retire vertices whose neighborhoods are exhausted (LD-GPU behaviour;
    /// the cuGraph-style baseline disables this and rescans every vertex
    /// each iteration).
    pub retire_exhausted: bool,
    /// Multiplier on kernel compute cost (1.0 for LD-GPU; > 1 models less
    /// specialized kernels in framework baselines).
    pub kernel_overhead: f64,
    /// Record per-iteration profiling (Figs. 8/11). Cheap; on by default.
    pub collect_iterations: bool,
    /// Record a full event [`ldgm_gpusim::Trace`] (copies, kernels,
    /// collectives, syncs) for Gantt inspection. Off by default.
    pub collect_trace: bool,
    /// Optimized mode: bill SETPOINTERS as scanning each list in
    /// preference order (weight desc, id asc) and stopping at the wave
    /// that holds the first available neighbor, the argmax. The kernel
    /// finds that wave on the CSR lanes by counting the keys above the
    /// argmax ([`Scan::Ranked`](super::Scan::Ranked)); no sorted index is
    /// built. Off by default (the plain-`ld-gpu` paper-faithful full
    /// scan).
    pub sorted_index: bool,
    /// Optimized mode: after the first iteration, launch SETPOINTERS only
    /// over the cross-iteration frontier — vertices whose pointer target
    /// was matched away by the previous SETMATES. Off by default.
    pub frontier: bool,
    /// Optimized mode: replace the dense `8·|V|` pointer/mate allreduces
    /// with sparse delta collectives (~16 B per written entry). Off by
    /// default.
    pub sparse_collectives: bool,
    /// Overlap mode: skip the device barrier and run the collectives as
    /// chunked operations on a per-device comm stream — each batch's slice
    /// starts reducing when its kernel finishes, hiding wire time under
    /// the kernels of slower devices and next-iteration prefetches
    /// ([`ldgm_gpusim::SimRuntime::allreduce_chunked`]). Billing-only:
    /// kernel execution and the matching are untouched. Off by default.
    pub overlap: bool,
    /// Topology-aware placement: on a cluster platform, group the
    /// edge-balanced parts onto nodes so heavy cut edges stay on the
    /// fast intra-node link, and scale the inter-node stage of every
    /// collective by the partition's node-boundary fraction
    /// ([`ldgm_part::placement::NodePlacement::topology_aware`]).
    /// Billing-only: the matching is bit-identical under any placement.
    /// Ignored on single-node platforms. Off by default (conservative
    /// full-payload inter-node billing).
    pub topology_placement: bool,
    /// Stop after this many matching iterations, leaving the matching
    /// partial — the auto-tuner's probe mode, where a few iterations'
    /// simulated time ranks candidate configs without paying for full
    /// runs. `None` (the default) runs to termination.
    pub probe_iterations: Option<usize>,
    /// Out-of-core streaming mode: instead of double-buffered batches,
    /// stream each partition through fixed-width rank bands over the
    /// preference-sorted adjacency ([`ldgm_part::plan_substreams`]),
    /// keeping only a `stream_window`-band resident window per device
    /// while the copy stream prefetches the next band under the current
    /// kernel. Runs graphs whose batched footprint exceeds device
    /// memory; the matching is bit-identical to the resident paths.
    /// Off by default. When on, `batches` is ignored.
    pub streaming: bool,
    /// Per-device byte budget the streaming planner sizes its resident
    /// window against; `None` uses the platform's device memory.
    pub mem_budget: Option<u64>,
    /// Resident band slots per device in streaming mode (must be ≥ 2,
    /// the double-buffer minimum); `None` selects 2. Bands below the
    /// window stay resident across iterations for vertices still in the
    /// worklist, so steady-state rounds re-copy almost nothing.
    pub stream_window: Option<usize>,
}

impl LdGpuConfig {
    /// Start a named-method builder on `platform`. Unlike the raw struct
    /// (or the positional `with_*` chain), the builder validates the
    /// final combination: [`LdGpuConfigBuilder::build`] rejects nonsense
    /// like zero batches or the frontier without retirement instead of
    /// silently clamping.
    pub fn builder(platform: Platform) -> LdGpuConfigBuilder {
        LdGpuConfigBuilder { cfg: LdGpuConfig::new(platform) }
    }

    /// Default configuration on `platform`: 1 device, auto batches.
    pub fn new(platform: Platform) -> Self {
        LdGpuConfig {
            platform,
            devices: 1,
            batches: None,
            retire_exhausted: true,
            kernel_overhead: 1.0,
            collect_iterations: true,
            collect_trace: false,
            sorted_index: false,
            frontier: false,
            sparse_collectives: false,
            overlap: false,
            topology_placement: false,
            probe_iterations: None,
            streaming: false,
            mem_budget: None,
            stream_window: None,
        }
    }

    /// Enable every optimization layer (the `ld-gpu-opt` preset): sorted
    /// index + cross-iteration frontier + sparse collectives.
    pub fn optimized(self) -> Self {
        self.with_sorted_index(true).with_frontier(true).with_sparse_collectives(true)
    }

    /// Toggle the preference-sorted adjacency index (early-exit scans).
    pub fn with_sorted_index(mut self, on: bool) -> Self {
        self.sorted_index = on;
        self
    }

    /// Toggle the cross-iteration pointing frontier.
    pub fn with_frontier(mut self, on: bool) -> Self {
        self.frontier = on;
        self
    }

    /// Toggle sparse delta collectives.
    pub fn with_sparse_collectives(mut self, on: bool) -> Self {
        self.sparse_collectives = on;
        self
    }

    /// Toggle communication/computation overlap (chunked collectives on
    /// the comm stream, no device barrier).
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Toggle topology-aware part→node placement (cluster platforms
    /// only; billing-layer, matching unchanged).
    pub fn with_topology_placement(mut self, on: bool) -> Self {
        self.topology_placement = on;
        self
    }

    /// Toggle the out-of-core streaming engine (substream-pipelined
    /// rank bands instead of double-buffered batches).
    pub fn with_streaming(mut self, on: bool) -> Self {
        self.streaming = on;
        self
    }

    /// Cap the per-device byte budget the streaming planner may use
    /// (clamped up to 1; `None`/unset uses the platform memory).
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget = Some(bytes.max(1));
        self
    }

    /// Fix the resident streaming window (clamped to ≥ 2 bands).
    pub fn with_stream_window(mut self, bands: usize) -> Self {
        self.stream_window = Some(bands.max(2));
        self
    }

    /// Whether any kernel-side optimization layer is enabled — when false,
    /// the driver takes the byte-identical default `ld-gpu` kernel path.
    /// `overlap` is deliberately excluded: it changes only how collectives
    /// are billed, never which kernel variant runs.
    pub fn is_optimized(&self) -> bool {
        self.sorted_index || self.frontier || self.sparse_collectives
    }

    /// Set the device count.
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = n.max(1);
        self
    }

    /// Fix the batch count per device.
    pub fn batches(mut self, b: usize) -> Self {
        self.batches = Some(b.max(1));
        self
    }

    /// Disable per-iteration profiling.
    pub fn without_iteration_profile(mut self) -> Self {
        self.collect_iterations = false;
        self
    }

    /// Enable event-trace recording (Gantt timelines).
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }
}

/// Named-method builder for [`LdGpuConfig`].
///
/// The config grew four orthogonal bool toggles (sorted/frontier/sparse/
/// overlap) that used to be set positionally through `with_*(bool)`
/// chains; the builder names each one, and [`build`](Self::build) runs
/// [`validate`](Self::validate) so impossible combinations surface as a
/// [`MatchError::InvalidConfig`] instead of a silent clamp or a deep
/// driver panic. The raw struct literal and the legacy `with_*` chain
/// keep working unchanged.
#[derive(Clone, Debug)]
pub struct LdGpuConfigBuilder {
    cfg: LdGpuConfig,
}

impl LdGpuConfigBuilder {
    /// Set the device count (validated: must be ≥ 1; counts beyond the
    /// platform fabric are clamped by the driver, as before).
    pub fn devices(mut self, n: usize) -> Self {
        self.cfg.devices = n;
        self
    }

    /// Fix the batch count per device (validated: must be ≥ 1).
    pub fn batches(mut self, b: usize) -> Self {
        self.cfg.batches = Some(b);
        self
    }

    /// Toggle the preference-sorted adjacency index (early-exit scans).
    pub fn sorted_index(mut self, on: bool) -> Self {
        self.cfg.sorted_index = on;
        self
    }

    /// Toggle the cross-iteration pointing frontier.
    pub fn frontier(mut self, on: bool) -> Self {
        self.cfg.frontier = on;
        self
    }

    /// Toggle sparse delta collectives.
    pub fn sparse_collectives(mut self, on: bool) -> Self {
        self.cfg.sparse_collectives = on;
        self
    }

    /// Toggle communication/computation overlap (chunked collectives on
    /// the comm stream).
    pub fn overlap(mut self, on: bool) -> Self {
        self.cfg.overlap = on;
        self
    }

    /// Toggle topology-aware part→node placement (cluster platforms
    /// only; billing-layer, matching unchanged).
    pub fn topology_placement(mut self, on: bool) -> Self {
        self.cfg.topology_placement = on;
        self
    }

    /// Enable every optimization layer (the `ld-gpu-opt` preset).
    pub fn optimized(self) -> Self {
        self.sorted_index(true).frontier(true).sparse_collectives(true)
    }

    /// Toggle exhausted-vertex retirement (off models framework
    /// baselines that rescan every vertex each iteration).
    pub fn retire_exhausted(mut self, on: bool) -> Self {
        self.cfg.retire_exhausted = on;
        self
    }

    /// Multiplier on kernel compute cost (validated: finite and > 0).
    pub fn kernel_overhead(mut self, factor: f64) -> Self {
        self.cfg.kernel_overhead = factor;
        self
    }

    /// Toggle per-iteration profiling records.
    pub fn collect_iterations(mut self, on: bool) -> Self {
        self.cfg.collect_iterations = on;
        self
    }

    /// Toggle event-trace recording (Gantt timelines).
    pub fn trace(mut self, on: bool) -> Self {
        self.cfg.collect_trace = on;
        self
    }

    /// Stop after `k` matching iterations (auto-tuner probe runs;
    /// validated: ≥ 1). The resulting matching is partial.
    pub fn probe_iterations(mut self, k: usize) -> Self {
        self.cfg.probe_iterations = Some(k);
        self
    }

    /// Toggle the out-of-core streaming engine (validated: `mem_budget`
    /// and `stream_window` require it).
    pub fn streaming(mut self, on: bool) -> Self {
        self.cfg.streaming = on;
        self
    }

    /// Cap the per-device streaming byte budget (validated: ≥ 1 and
    /// only meaningful with `streaming`).
    pub fn mem_budget(mut self, bytes: u64) -> Self {
        self.cfg.mem_budget = Some(bytes);
        self
    }

    /// Fix the resident streaming window in bands (validated: ≥ 2, the
    /// double-buffer minimum, and only meaningful with `streaming`).
    pub fn stream_window(mut self, bands: usize) -> Self {
        self.cfg.stream_window = Some(bands);
        self
    }

    /// Check the assembled combination without consuming the builder.
    pub fn validate(&self) -> Result<(), MatchError> {
        let c = &self.cfg;
        let bad = |msg: String| Err(MatchError::InvalidConfig(msg));
        if c.devices == 0 {
            return bad("devices must be >= 1".into());
        }
        if c.batches == Some(0) {
            return bad("batches must be >= 1 when fixed".into());
        }
        if c.probe_iterations == Some(0) {
            return bad("probe_iterations must be >= 1 when set".into());
        }
        if !(c.kernel_overhead.is_finite() && c.kernel_overhead > 0.0) {
            return bad(format!(
                "kernel_overhead must be finite and > 0, got {}",
                c.kernel_overhead
            ));
        }
        if c.frontier && !c.retire_exhausted {
            return bad(
                "frontier requires retire_exhausted: the cross-iteration frontier is seeded \
                 from retirement bookkeeping, so a rescan-everything baseline cannot drive it"
                    .into(),
            );
        }
        if c.mem_budget == Some(0) {
            return bad("mem_budget must be >= 1 byte when set".into());
        }
        if let Some(w) = c.stream_window {
            if w < 2 {
                return bad(format!("stream_window must be >= 2 (double-buffer minimum), got {w}"));
            }
        }
        if !c.streaming && (c.mem_budget.is_some() || c.stream_window.is_some()) {
            return bad(
                "mem_budget/stream_window configure the streaming engine; enable streaming".into(),
            );
        }
        Ok(())
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<LdGpuConfig, MatchError> {
        self.validate()?;
        Ok(self.cfg)
    }
}

/// Errors from an LD-GPU run.
#[derive(Clone, Debug, PartialEq)]
pub enum LdGpuError {
    /// A device partition cannot fit in device memory at any batch count
    /// (the |V|-sized global arrays or a single hub vertex overflow).
    OutOfMemory {
        /// Offending device index.
        device: usize,
        /// Device memory in bytes.
        mem_bytes: u64,
    },
    /// An explicitly requested batch count does not fit in device memory.
    BatchPlanTooLarge {
        /// Offending device index.
        device: usize,
        /// Requested batches.
        batches: usize,
        /// Required bytes for the plan.
        required: u64,
        /// Device memory in bytes.
        mem_bytes: u64,
    },
    /// The streaming planner cannot fit even the narrowest substream
    /// window — global state plus `window` single-rank bands overflow
    /// the per-device budget.
    StreamPlanTooLarge {
        /// Offending device index.
        device: usize,
        /// Requested resident window in bands.
        window: usize,
        /// Minimum bytes the narrowest pipeline needs.
        required: u64,
        /// The budget that was available.
        mem_bytes: u64,
    },
}

impl std::fmt::Display for LdGpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LdGpuError::OutOfMemory { device, mem_bytes } => write!(
                f,
                "device {device}: partition cannot fit in {mem_bytes} B at any batch count"
            ),
            LdGpuError::BatchPlanTooLarge { device, batches, required, mem_bytes } => write!(
                f,
                "device {device}: {batches}-batch plan needs {required} B, has {mem_bytes} B"
            ),
            LdGpuError::StreamPlanTooLarge { device, window, required, mem_bytes } => write!(
                f,
                "device {device}: {window}-band streaming window needs {required} B, \
                 has {mem_bytes} B"
            ),
        }
    }
}

impl std::error::Error for LdGpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_matches_legacy_chain() {
        let p = Platform::dgx_a100;
        let built = LdGpuConfig::builder(p())
            .devices(4)
            .batches(3)
            .sorted_index(true)
            .frontier(true)
            .sparse_collectives(true)
            .overlap(true)
            .trace(true)
            .build()
            .unwrap();
        let legacy =
            LdGpuConfig::new(p()).devices(4).batches(3).optimized().with_overlap(true).with_trace();
        assert_eq!(built.devices, legacy.devices);
        assert_eq!(built.batches, legacy.batches);
        assert_eq!(built.sorted_index, legacy.sorted_index);
        assert_eq!(built.frontier, legacy.frontier);
        assert_eq!(built.sparse_collectives, legacy.sparse_collectives);
        assert_eq!(built.overlap, legacy.overlap);
        assert_eq!(built.collect_trace, legacy.collect_trace);
        // The `optimized()` preset exists on the builder too.
        let opt = LdGpuConfig::builder(p()).optimized().build().unwrap();
        assert!(opt.is_optimized() && opt.sorted_index && opt.frontier && opt.sparse_collectives);
    }

    #[test]
    fn builder_rejects_nonsense_combos() {
        let p = Platform::dgx_a100;
        let invalid = |b: LdGpuConfigBuilder| {
            let err = b.build().unwrap_err();
            assert!(
                matches!(err, MatchError::InvalidConfig(_)),
                "expected InvalidConfig, got {err:?}"
            );
            err.to_string()
        };
        assert!(invalid(LdGpuConfig::builder(p()).devices(0)).contains("devices"));
        assert!(invalid(LdGpuConfig::builder(p()).batches(0)).contains("batches"));
        assert!(invalid(LdGpuConfig::builder(p()).kernel_overhead(0.0)).contains("kernel_overhead"));
        assert!(invalid(LdGpuConfig::builder(p()).kernel_overhead(f64::NAN))
            .contains("kernel_overhead"));
        assert!(invalid(LdGpuConfig::builder(p()).frontier(true).retire_exhausted(false))
            .contains("retire_exhausted"));
        // validate() is non-consuming: a valid builder can be checked and
        // then built.
        let b = LdGpuConfig::builder(p()).devices(2).batches(5);
        b.validate().unwrap();
        assert_eq!(b.build().unwrap().batches, Some(5));
    }

    #[test]
    fn builder_validates_streaming_knobs() {
        let p = Platform::dgx_a100;
        let ok = LdGpuConfig::builder(p())
            .streaming(true)
            .mem_budget(1 << 20)
            .stream_window(4)
            .build()
            .unwrap();
        assert!(ok.streaming);
        assert_eq!(ok.mem_budget, Some(1 << 20));
        assert_eq!(ok.stream_window, Some(4));
        let msg = |b: LdGpuConfigBuilder| b.build().unwrap_err().to_string();
        assert!(msg(LdGpuConfig::builder(p()).streaming(true).stream_window(1))
            .contains("stream_window"));
        assert!(msg(LdGpuConfig::builder(p()).streaming(true).mem_budget(0)).contains("mem_budget"));
        assert!(msg(LdGpuConfig::builder(p()).stream_window(4)).contains("streaming"));
        assert!(msg(LdGpuConfig::builder(p()).mem_budget(1024)).contains("streaming"));
        // The legacy chain clamps rather than validating, like the other
        // positional setters.
        let legacy = LdGpuConfig::new(p()).with_streaming(true).with_stream_window(0);
        assert_eq!(legacy.stream_window, Some(2));
        assert_eq!(LdGpuConfig::new(p()).with_mem_budget(0).mem_budget, Some(1));
    }
}
