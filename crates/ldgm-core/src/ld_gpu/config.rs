//! LD-GPU run configuration and errors.
//!
//! A config is set through its public fields or the chain setters on
//! [`LdGpuConfig::new`]; every setter stores its argument as given.
//! [`LdGpuConfig::validate`] holds every rule, and
//! [`LdGpu::try_run`](super::LdGpu::try_run) runs it before planning, so
//! a bad value is an [`LdGpuError::InvalidConfig`] whichever way it was
//! set.

use ldgm_gpusim::Platform;

use crate::matcher::MatchError;

/// Configuration of an LD-GPU run.
#[derive(Clone, Debug)]
pub struct LdGpuConfig {
    /// Simulated platform (device model, interconnect, cost model, comm
    /// runtime).
    pub platform: Platform,
    /// Devices to use (at least 1; counts beyond `platform.max_devices`
    /// use every device).
    pub devices: usize,
    /// Batches per device (at least 1); `None` selects the minimum count
    /// whose double-buffered footprint fits device memory — the paper's
    /// default policy ("we attempt to minimize the number of batches").
    pub batches: Option<usize>,
    /// Retire vertices whose neighborhoods are exhausted (LD-GPU behaviour;
    /// the cuGraph-style baseline disables this and rescans every vertex
    /// each iteration).
    pub retire_exhausted: bool,
    /// Multiplier on kernel compute cost (1.0 for LD-GPU; > 1 models less
    /// specialized kernels in framework baselines; finite and > 0).
    pub kernel_overhead: f64,
    /// Record a full event [`ldgm_gpusim::Trace`] (copies, kernels,
    /// collectives, syncs) for Gantt inspection. Off by default.
    pub collect_trace: bool,
    /// Optimized mode (`ld-gpu-opt`), three layers that leave the
    /// matching bit-identical to the default: SETPOINTERS is billed as
    /// scanning each list in preference order (weight desc, id asc) and
    /// stopping at the wave that holds the argmax, which the kernel finds
    /// on the CSR lanes by counting the keys above it
    /// ([`Scan::Ranked`](super::Scan::Ranked); no sorted index is built);
    /// after the first iteration SETPOINTERS runs only over the
    /// cross-iteration frontier, the vertices whose pointer target the
    /// previous SETMATES matched away; and the pointer and mate
    /// allreduces ship sparse deltas (~16 B per written entry) instead of
    /// dense `8·|V|` arrays. Off by default (the paper-faithful `ld-gpu`).
    pub optimized: bool,
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
    /// runs. `None` (the default) runs to termination; a set count is at
    /// least 1.
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
    /// Per-device byte budget (at least 1, streaming only) the streaming
    /// planner sizes its resident window against; `None` uses the
    /// platform's device memory.
    pub mem_budget: Option<u64>,
    /// Resident band slots per device in streaming mode (at least 2, the
    /// double-buffer minimum; streaming only); `None` selects 2. Bands
    /// below the window stay resident across iterations for vertices still
    /// in the worklist, so steady-state rounds re-copy almost nothing.
    pub stream_window: Option<usize>,
}

impl LdGpuConfig {
    /// Default configuration on `platform`: 1 device, auto batches.
    pub fn new(platform: Platform) -> Self {
        LdGpuConfig {
            platform,
            devices: 1,
            batches: None,
            retire_exhausted: true,
            kernel_overhead: 1.0,
            collect_trace: false,
            optimized: false,
            overlap: false,
            topology_placement: false,
            probe_iterations: None,
            streaming: false,
            mem_budget: None,
            stream_window: None,
        }
    }

    /// Turn on the optimized mode (the `ld-gpu-opt` preset; see the
    /// `optimized` field).
    pub fn optimized(mut self) -> Self {
        self.optimized = true;
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

    /// Cap the per-device byte budget the streaming planner may use.
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Fix the resident streaming window in bands.
    pub fn with_stream_window(mut self, bands: usize) -> Self {
        self.stream_window = Some(bands);
        self
    }

    /// Set the device count.
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = n;
        self
    }

    /// Fix the batch count per device.
    pub fn batches(mut self, b: usize) -> Self {
        self.batches = Some(b);
        self
    }

    /// Enable event-trace recording (Gantt timelines).
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Check every rule of the configuration and its platform.
    /// [`LdGpu::try_run`](super::LdGpu::try_run) calls this before
    /// planning; a failure is an [`LdGpuError::InvalidConfig`].
    pub fn validate(&self) -> Result<(), LdGpuError> {
        self.platform.validate().map_err(LdGpuError::InvalidConfig)?;
        let bad = |msg: String| Err(LdGpuError::InvalidConfig(msg));
        if self.devices == 0 {
            return bad("devices must be >= 1".into());
        }
        if self.batches == Some(0) {
            return bad("batches must be >= 1 when fixed".into());
        }
        if self.probe_iterations == Some(0) {
            return bad("probe_iterations must be >= 1 when set".into());
        }
        if !(self.kernel_overhead.is_finite() && self.kernel_overhead > 0.0) {
            return bad(format!(
                "kernel_overhead must be finite and > 0, got {}",
                self.kernel_overhead
            ));
        }
        if self.mem_budget == Some(0) {
            return bad("mem_budget must be >= 1 byte when set".into());
        }
        if let Some(w) = self.stream_window.filter(|&w| w < 2) {
            return bad(format!("stream_window must be >= 2 (double-buffer minimum), got {w}"));
        }
        if !self.streaming && (self.mem_budget.is_some() || self.stream_window.is_some()) {
            return bad(
                "mem_budget/stream_window configure the streaming engine; enable streaming".into(),
            );
        }
        Ok(())
    }
}

/// Errors from an LD-GPU run.
#[derive(Clone, Debug, PartialEq)]
pub enum LdGpuError {
    /// The configuration or its platform breaks a rule of
    /// [`LdGpuConfig::validate`]; nothing was planned or billed.
    InvalidConfig(String),
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
            LdGpuError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
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

impl LdGpuError {
    /// The registry's error for a failed run of `engine`: a rejected
    /// configuration stays [`MatchError::InvalidConfig`]; a plan that
    /// does not fit is an engine failure.
    pub fn into_match_error(self, engine: &str) -> MatchError {
        match self {
            LdGpuError::InvalidConfig(msg) => MatchError::InvalidConfig(msg),
            e => MatchError::Engine(format!("{engine} failed: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok() -> LdGpuConfig {
        LdGpuConfig::new(Platform::dgx_a100())
    }

    /// Each config must fail `validate` with a message containing its rule.
    fn assert_rejected<const N: usize>(cases: [(LdGpuConfig, &str); N]) {
        for (cfg, rule) in cases {
            match cfg.validate() {
                Err(LdGpuError::InvalidConfig(msg)) => assert!(msg.contains(rule), "{rule}: {msg}"),
                other => panic!("{rule}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_checks_the_platform() {
        let mut no_gpus = Platform::dgx_a100();
        no_gpus.max_devices = 0;
        let mut no_sms = Platform::dgx_a100();
        no_sms.device.sm_count = 0;
        let mut no_warps = Platform::dgx_a100();
        no_warps.device.max_warps_per_sm = 0;
        assert_rejected([
            (LdGpuConfig::new(no_gpus), "no devices"),
            (LdGpuConfig::new(no_sms), "no warp slots"),
            (LdGpuConfig::new(no_warps), "no warp slots"),
        ]);

        // The registry keeps a rejected configuration apart from a plan
        // that does not fit.
        let invalid = ok().devices(0).validate().unwrap_err().into_match_error("LD-GPU");
        assert_eq!(invalid, MatchError::InvalidConfig("devices must be >= 1".into()));
        let oom = LdGpuError::OutOfMemory { device: 0, mem_bytes: 1 }.into_match_error("LD-GPU");
        assert!(matches!(oom, MatchError::Engine(ref m) if m.starts_with("LD-GPU failed: ")));
    }

    /// A config built by the setter chain or a struct literal is checked
    /// by `validate`, which rejects nonsense and lets the rest through.
    #[test]
    fn builder_rejects_nonsense_combos() {
        assert_rejected([
            (ok().devices(0), "devices must be >= 1"),
            (ok().batches(0), "batches must be >= 1"),
            (LdGpuConfig { probe_iterations: Some(0), ..ok() }, "probe_iterations"),
            (LdGpuConfig { kernel_overhead: 0.0, ..ok() }, "kernel_overhead"),
            (LdGpuConfig { kernel_overhead: f64::NAN, ..ok() }, "kernel_overhead"),
        ]);

        // The setters store their arguments as given, and each rule's
        // boundary value passes.
        let edge = ok().devices(1).batches(1);
        assert_eq!((edge.devices, edge.batches), (1, Some(1)));
        edge.validate().unwrap();
        // More devices than the platform has run on all of them, and the
        // driver runs the frontier with retirement off.
        ok().devices(64).validate().unwrap();
        LdGpuConfig { retire_exhausted: false, ..ok().optimized() }.validate().unwrap();
    }

    #[test]
    fn builder_validates_streaming_knobs() {
        let streaming = ok().with_streaming(true).with_mem_budget(1 << 20).with_stream_window(4);
        assert!(streaming.streaming);
        assert_eq!((streaming.mem_budget, streaming.stream_window), (Some(1 << 20), Some(4)));
        streaming.validate().unwrap();

        // The setters no longer clamp: a window of 0 is stored and rejected.
        let closed = ok().with_streaming(true).with_stream_window(0);
        assert_eq!(closed.stream_window, Some(0));
        assert_rejected([
            (closed, "stream_window must be >= 2"),
            (ok().with_streaming(true).with_stream_window(1), "stream_window must be >= 2"),
            (ok().with_streaming(true).with_mem_budget(0), "mem_budget must be >= 1"),
            (ok().with_mem_budget(1024), "enable streaming"),
            (ok().with_stream_window(4), "enable streaming"),
        ]);

        // Each rule's boundary value passes.
        let edge = ok().with_streaming(true).with_mem_budget(1).with_stream_window(2);
        assert_eq!((edge.mem_budget, edge.stream_window), (Some(1), Some(2)));
        edge.validate().unwrap();
    }
}
