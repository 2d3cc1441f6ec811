//! # ldgm-gpusim — deterministic multi-GPU platform simulator
//!
//! This crate is the hardware-substitution substrate of the `ldgm`
//! workspace: it stands in for the CUDA + NCCL + NVLink stack of the
//! paper's DGX evaluation machines. Kernel *logic* runs for real on the
//! host (in `ldgm-core`); this crate supplies everything needed to bill
//! that execution with simulated time and to profile it the way the paper
//! does:
//!
//! * [`device`] — [`device::DeviceSpec`] presets (A100/V100) and the
//!   warp-centric kernel cost model over [`device::KernelStats`];
//! * [`interconnect`] — NVLink SXM3/SXM4 and PCIe link models;
//! * [`collective`] — NCCL ring-allreduce, MPI-staged (cuGraph/RAFT) and
//!   hierarchical multi-node cost models, and the [`NONE_SENTINEL`] of the
//!   pointer and mate arrays;
//! * [`cluster`] — [`cluster::ClusterTopology`]: N nodes × M GPUs with
//!   per-hop-class links ([`cluster::HopClass`]) behind the hierarchical
//!   collectives and topology-aware placement;
//! * [`timer`] — per-device multi-stream timelines (compute, copy and
//!   collective comm streams) with dual-buffer copy/compute overlap and
//!   explicit host synchronization;
//! * [`platform`] — [`platform::Platform`] presets: DGX-A100, DGX-2,
//!   PCIe variants;
//! * [`profile`] — phase breakdowns, per-iteration warp-edge work, and
//!   occupancy records (the paper's Figs. 5, 7, 8, 11);
//! * [`metrics`] — named counter/gauge/histogram registry every matcher
//!   fills as it runs, with the canonical name schema in
//!   [`metrics::names`];
//! * [`runtime`] — [`runtime::SimRuntime`], the shared execution/billing
//!   layer every simulated engine runs on: typed kernel/copy/sync/
//!   collective operations with billing, tracing and metric emission in
//!   one place, and a [`runtime::SimRuntime::finish`] that guarantees
//!   `phases.total() == sim_time`;
//! * [`export`] — Chrome-trace/Perfetto JSON export and timeline phase
//!   attribution;
//! * [`report`] — the versioned JSON run-report schema behind
//!   `ldgm match --report-json`;
//! * [`json`] — the dependency-free JSON value type the above build on.

pub mod cluster;
pub mod collective;
pub mod device;
pub mod export;
pub mod interconnect;
pub mod json;
pub mod metrics;
pub mod platform;
pub mod profile;
pub mod report;
pub mod runtime;
pub mod timer;
pub mod trace;

pub use cluster::{ClusterTopology, HopClass};
pub use collective::{CommModel, NONE_SENTINEL};
pub use device::{CostModel, DeviceSpec, KernelStats};
pub use export::{chrome_trace_json, timeline_breakdown};
pub use interconnect::{Interconnect, Link};
pub use json::Json;
pub use metrics::{HistogramSummary, Metric, MetricsRegistry};
pub use platform::Platform;
pub use profile::{IterationRecord, PhaseBreakdown, RunProfile};
pub use report::RunReport;
pub use runtime::{CommChunk, DeviceCtx, KernelLaunch, RunFinish, SimRuntime};
pub use timer::DeviceTimer;
pub use trace::{EventKind, Trace, TraceEvent};
