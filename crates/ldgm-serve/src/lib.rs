//! # ldgm-serve — matching as a service
//!
//! Everything else in this workspace is batch-shaped: an engine runs once
//! and exits. This crate keeps graphs and their locally-dominant matchings
//! *resident* and multiplexes concurrent callers over a minimal TCP layer
//! speaking a line-delimited JSON protocol — no async runtime, no crates.io
//! dependencies.
//!
//! The load-bearing piece is the **update coalescer**
//! ([`service::MatchService`]): concurrent small updates from many clients
//! queue into a pending buffer and flush into one
//! [`ldgm_dyn::IncrementalLd`] batch when the buffer reaches a target size
//! (default 64, the BENCH_dynamic sweet spot) or a deadline elapses. Reads
//! are **snapshot-consistent**: they are served from the last *committed*
//! snapshot (an `Arc`-swapped [`service::Snapshot`]), never from a
//! half-applied batch. Correctness of coalescing follows from canonical
//! uniqueness — the repo-wide total preference order makes the LD matching
//! a pure function of the final graph state, so any batching of an
//! order-preserved update sequence commits the same matching.
//!
//! The transport is a **reactor**: a few epoll event-loop threads (via the
//! vendored [`epoll_shim`], `poll(2)` on other Unixes) driving non-blocking
//! per-connection state machines with a zero-allocation fast path for hot
//! `mate`/`update` frames.
//!
//! Modules:
//! - [`protocol`] — typed requests/responses over the hand-rolled
//!   [`ldgm_gpusim::json::Json`] value, plus the incremental
//!   [`protocol::FrameSplitter`] and the allocation-free
//!   [`protocol::wire`] serializers the reactor's hot path uses.
//! - [`service`] — the coalescing service core: pending buffer, snapshot
//!   discipline, `subscribe` notifications, per-tenant sim-time billing
//!   with admission control.
//! - [`reactor`] — the epoll event loops: shard routing, batched flushes,
//!   write-interest management, backpressure, subscription fan-out via
//!   per-shard notifier queues.
//! - [`server`] — the TCP front door: [`server::serve`] /
//!   [`server::serve_opts`], the deadline flusher, transport stats,
//!   graceful shutdown with an offline replay check.

pub mod protocol;
pub mod reactor;
pub mod server;
pub mod service;

pub use ldgm_core::UNMATCHED;
pub use protocol::{FrameSplitter, ParsedRequest, Request, SplitFrame, MAX_FRAME_LEN};
pub use server::{serve, serve_opts, ServerHandle, ServerOptions, ServerStats};
pub use service::{
    resolve_dyn_config, AdmissionError, FlushSummary, MatchService, MateChange, ServeConfig,
    ServiceStats, Snapshot, SubmitAck,
};
