//! Batch-dynamic maintenance of locally-dominant matchings.
//!
//! The static LD-GPU solver (crate `ldgm-core`) computes a ½-approximate
//! matching in one shot. Real deployments mutate their graphs; this crate
//! maintains the matching under *batches* of edge insertions and deletions
//! without recomputing from scratch, following the batch-dynamic processing
//! model of the GPU literature (updates are applied between query epochs).
//!
//! The pointer-based locally-dominant structure is naturally incremental:
//! under the repo-wide canonical preference order ([`ldgm_core::prefer`])
//! the locally-dominant matching of a graph is *unique*, and an edge update
//! can only invalidate dominance in its local neighborhood. Per batch we
//! seed a frontier of affected vertices and re-run the
//! SETPOINTERS/SETMATES iteration restricted to that frontier until it
//! drains, billing simulated kernel launches and allreduces only for the
//! frontier work.
//!
//! Modules:
//! - [`delta`]: [`delta::DynGraph`], a delta-CSR overlay (base CSR plus
//!   per-vertex insert/delete logs, compacted back into CSR when deltas
//!   exceed a threshold).
//! - [`engine`]: [`engine::IncrementalLd`], the frontier-restricted
//!   incremental LD engine with gpusim billing.
//! - [`stream`]: [`stream::UpdateStream`], deterministic synthetic update
//!   workloads (uniform / skewed / sliding-window).
//! - [`matcher`]: the [`matcher::DynamicMatcher`] entry point and registry
//!   (incremental vs from-scratch engines behind one interface).

pub mod delta;
pub mod engine;
pub mod matcher;
pub mod stream;

pub use delta::{DynGraph, EdgeUpdate};
pub use engine::{BatchReport, DynConfig, DynRunOutput, IncrementalLd};
pub use matcher::{DynamicMatcher, DynamicMatcherRegistry, DynamicRunResult, WorkloadSpec};
pub use stream::{UpdateStream, WorkloadKind};
