//! The shared device-execution runtime every simulated engine runs on.
//!
//! [`SimRuntime`] owns the pieces the engines used to hand-roll
//! individually — per-device [`DeviceTimer`]s, the event [`Trace`], the
//! [`MetricsRegistry`] and the phase attribution — and exposes typed
//! operations that execute host-side work and bill simulated time in one
//! place: [`DeviceCtx::launch_kernel`], [`DeviceCtx::h2d_copy`],
//! [`DeviceCtx::host_sync`], [`SimRuntime::global_kernel`] and the two
//! collectives, [`SimRuntime::allreduce`] (serialized: it starts when the
//! slowest device finishes and aligns every device to its end) and
//! [`SimRuntime::allreduce_chunked`] (overlapped on the comm stream).
//! Engines choose a collective and its packed payload; they keep their
//! algorithm logic and their *semantic* counters (pointers set, edges
//! committed); everything mechanical — kernel-time billing, trace spans,
//! wire-byte math, occupancy aggregation, stall accounting — happens
//! here, under the shared [`crate::metrics::names`] schema.
//!
//! [`SimRuntime::finish`] derives the [`crate::PhaseBreakdown`] from the
//! recorded timeline via [`timeline_breakdown`], so the report invariant
//! `phases.total() == sim_time` holds *by construction* for every engine:
//! the runtime always records an internal trace (returned to the caller
//! only when requested via [`SimRuntime::with_trace`]), partitions each
//! device's wall interval `[0, sim_time]` into phases, and averages
//! across devices.
//!
//! Kernel spans whose label contains `"mate"` are attributed to the
//! `matching` phase; all other kernels count as `pointing` (the
//! convention of [`timeline_breakdown`]).

use std::borrow::Cow;

use crate::cluster::ClusterTopology;
use crate::collective::{hierarchical_allreduce_time, CommModel};
use crate::device::{CostModel, DeviceSpec, KernelStats};
use crate::export::timeline_breakdown;
use crate::interconnect::Link;
use crate::metrics::{names, MetricsRegistry};
use crate::platform::Platform;
use crate::profile::{IterationRecord, RunProfile};
use crate::timer::DeviceTimer;
use crate::trace::{EventKind, Trace};

/// Kernel-side counters a device accumulates across launches, folded into
/// the registry once at [`SimRuntime::finish`].
#[derive(Clone, Copy, Debug, Default)]
struct LaunchTotals {
    edges_scanned: u64,
    warps_launched: u64,
    bytes_moved: u64,
}

impl LaunchTotals {
    fn add(&mut self, stats: &KernelStats) {
        self.edges_scanned += stats.edges_scanned;
        self.warps_launched += stats.warps_launched;
        self.bytes_moved += stats.bytes_read + stats.bytes_written;
    }
}

/// Billing outcome of one kernel launch.
#[derive(Clone, Copy, Debug)]
pub struct KernelLaunch {
    /// Simulated start time (seconds).
    pub start: f64,
    /// Simulated end time (seconds).
    pub end: f64,
    /// Billed duration, `end - start`.
    pub duration: f64,
    /// Achieved-occupancy estimate of the launch (0..=1).
    pub occupancy: f64,
}

/// Execution context of one simulated device: its timeline, its slice of
/// the trace, and its accumulated kernel totals.
///
/// A `DeviceCtx` can be detached from the runtime
/// ([`SimRuntime::detach_devices`]) and moved into a per-device worker —
/// it owns everything it bills against, so devices proceed independently
/// (e.g. under rayon) and re-attach afterwards.
#[derive(Clone, Debug)]
pub struct DeviceCtx {
    dev: usize,
    spec: DeviceSpec,
    cost: CostModel,
    h2d: Link,
    kernel_overhead: f64,
    detailed: bool,
    timer: DeviceTimer,
    trace: Trace,
    totals: LaunchTotals,
    occ_weighted: f64,
    occ_weight: f64,
}

impl DeviceCtx {
    /// Device index within the runtime.
    pub fn index(&self) -> usize {
        self.dev
    }

    /// Build a span label lazily: the allocated `detail` string is only
    /// materialized when the caller asked for the trace back
    /// ([`SimRuntime::with_trace`]); otherwise the static `base` is
    /// recorded, keeping the always-on internal trace allocation-free on
    /// the hot path. Phase attribution only inspects static substrings
    /// (`"mate"`), so billing is identical either way.
    pub fn label(&self, base: &'static str, detail: impl FnOnce() -> String) -> Cow<'static, str> {
        if self.detailed {
            Cow::Owned(detail())
        } else {
            Cow::Borrowed(base)
        }
    }

    /// Completion time of everything scheduled on this device so far.
    pub fn horizon(&self) -> f64 {
        self.timer.horizon()
    }

    /// Schedule an async host-to-device copy of `bytes` into stream
    /// buffer `buf` over the platform's host link. Returns `(start, end)`.
    pub fn h2d_copy(
        &mut self,
        buf: usize,
        bytes: u64,
        label: impl Into<Cow<'static, str>>,
    ) -> (f64, f64) {
        let (s, e) = self.timer.schedule_h2d(buf, bytes, &self.h2d);
        self.trace.record(self.dev, EventKind::H2dCopy, label, s, e);
        (s, e)
    }

    /// Execute-and-bill one kernel launch described by `stats`: the
    /// duration comes from the device cost model (times the engine's
    /// kernel-overhead factor), the launch is scheduled against stream
    /// buffer `buf` (or the global compute queue when `None`, e.g.
    /// SETMATES-style kernels over resident arrays), and the kernel-side
    /// counters (`kernel.edges_scanned`, `kernel.warps_launched`,
    /// `kernel.bytes_moved`) plus the warp-weighted occupancy gauge are
    /// accumulated for [`SimRuntime::finish`].
    pub fn launch_kernel(
        &mut self,
        buf: Option<usize>,
        label: impl Into<Cow<'static, str>>,
        stats: &KernelStats,
    ) -> KernelLaunch {
        let dur = self.spec.kernel_time(&self.cost, stats) * self.kernel_overhead;
        let (s, e) = match buf {
            Some(b) => self.timer.schedule_kernel(b, dur),
            None => self.timer.schedule_kernel_global(dur),
        };
        self.trace.record(self.dev, EventKind::Kernel, label, s, e);
        self.totals.add(stats);
        let occ = self.spec.occupancy(&self.cost, stats);
        self.occ_weighted += occ * stats.warps_launched as f64;
        self.occ_weight += stats.warps_launched as f64;
        KernelLaunch { start: s, end: e, duration: dur, occupancy: occ }
    }

    /// Schedule a kernel span of an explicitly modeled duration (no
    /// [`KernelStats`] billing) on the global compute queue — for
    /// analytically derived serialization tails. Labels containing
    /// `"mate"` land in the `matching` phase.
    pub fn fixed_kernel(&mut self, label: impl Into<Cow<'static, str>>, dur: f64) -> (f64, f64) {
        let (s, e) = self.timer.schedule_kernel_global(dur);
        self.trace.record(self.dev, EventKind::Kernel, label, s, e);
        (s, e)
    }

    /// Explicit host-device synchronization at the platform's
    /// `host_sync_us` cost: waits for all outstanding work, then bills the
    /// sync. Returns `(start, end)` of the sync span.
    pub fn host_sync(&mut self, label: impl Into<Cow<'static, str>>) -> (f64, f64) {
        let cost = self.cost.host_sync_us * 1e-6;
        self.host_sync_with(label, cost)
    }

    /// [`DeviceCtx::host_sync`] with an explicit cost in seconds — for
    /// engines that batch many driver round-trips into one span.
    pub fn host_sync_with(&mut self, label: impl Into<Cow<'static, str>>, cost: f64) -> (f64, f64) {
        let before = self.timer.horizon();
        self.timer.host_sync(cost);
        self.trace.record(self.dev, EventKind::HostSync, label, before, before + cost);
        (before, before + cost)
    }

    /// Fixed host round-trip overhead of one kernel launch plus one host
    /// sync, in seconds — the per-round cost of round-based algorithms.
    pub fn per_round_overhead(&self) -> f64 {
        (self.cost.kernel_launch_us + self.cost.host_sync_us) * 1e-6
    }

    /// Completion time of this device's compute queue (kernels + host
    /// progress, ignoring in-flight copies and collectives) — the ready
    /// time of a payload the last kernel produced.
    pub fn compute_done(&self) -> f64 {
        self.timer.compute_done()
    }
}

/// One slice of an overlapped collective: `bytes` of payload that became
/// reducible at simulated time `ready` (its producer kernel's end).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommChunk {
    /// Packed payload bytes of the slice.
    pub bytes: u64,
    /// Simulated time the slice's producer finished (0.0 for slices that
    /// were already resident, e.g. unchanged dense array regions).
    pub ready: f64,
}

/// What [`SimRuntime::finish`] returns: the end-to-end simulated time,
/// the profile whose phase breakdown sums to `sim_time` by construction,
/// the filled metrics registry, and the trace when requested.
#[derive(Clone, Debug)]
pub struct RunFinish {
    /// End-to-end simulated time (max over device horizons).
    pub sim_time: f64,
    /// Phase breakdown (timeline-derived), per-iteration records and
    /// `sim_time`.
    pub profile: RunProfile,
    /// All metrics billed by the runtime and the engine.
    pub metrics: MetricsRegistry,
    /// The event timeline, when [`SimRuntime::with_trace`] asked for it.
    pub trace: Option<Trace>,
}

/// The shared execution/billing substrate for simulated engines: a
/// platform instantiated onto `ndev` device contexts plus the collective
/// fabric between them. See the [module docs](self) for the design.
#[derive(Clone, Debug)]
pub struct SimRuntime {
    devices: Vec<DeviceCtx>,
    comm: CommModel,
    peer: Link,
    topo: Option<ClusterTopology>,
    inter_cut: f64,
    metrics: MetricsRegistry,
    iterations: Vec<IterationRecord>,
    keep_trace: bool,
    comm_exposed: f64,
    comm_hidden: f64,
    comm_inter: f64,
}

/// Billing plan of one collective on a multi-node topology: the total
/// schedule cost, the seconds of its inter-node stage, and the wire
/// bytes split by hop class.
#[derive(Clone, Copy, Debug)]
struct HierBill {
    cost: f64,
    inter_time: f64,
    intra_bytes: u64,
    inter_bytes: u64,
    fallback: bool,
}

impl SimRuntime {
    /// Instantiate `platform` onto `ndev` devices, all at t = 0.
    pub fn new(platform: &Platform, ndev: usize) -> Self {
        assert!(ndev >= 1, "a runtime needs at least one device");
        let devices = (0..ndev)
            .map(|dev| DeviceCtx {
                dev,
                spec: platform.device.clone(),
                cost: platform.cost.clone(),
                h2d: platform.interconnect.h2d,
                kernel_overhead: 1.0,
                detailed: false,
                timer: DeviceTimer::new(),
                trace: Trace::default(),
                totals: LaunchTotals::default(),
                occ_weighted: 0.0,
                occ_weight: 0.0,
            })
            .collect();
        SimRuntime {
            devices,
            comm: platform.comm,
            peer: platform.interconnect.peer,
            topo: platform.cluster_topology(),
            inter_cut: 1.0,
            metrics: MetricsRegistry::new(),
            iterations: Vec::new(),
            keep_trace: false,
            comm_exposed: 0.0,
            comm_hidden: 0.0,
            comm_inter: 0.0,
        }
    }

    /// Fraction of each collective payload that actually crosses the
    /// inter-node link (the partition's node-boundary fraction, set by
    /// topology-aware placement). Intra-node stages always carry the
    /// full payload; only the leader ring over the slow link shrinks.
    /// Clamped to `[0, 1]`; the default of 1.0 is the conservative
    /// "everything is remote" assumption.
    pub fn set_inter_cut(&mut self, frac: f64) {
        self.inter_cut = frac.clamp(0.0, 1.0);
    }

    /// Bill plan for one `payload_bytes` collective on the cluster
    /// topology, or `None` when the runtime is flat (no topology, a
    /// non-hierarchical comm model, or every device on one node).
    ///
    /// The hierarchical schedule is reduce-scatter + allgather within
    /// each node over the fast intra-node link, then a ring across the
    /// node leaders over `topo.inter`, then the broadcast back (folded
    /// into the intra allgather). The same closed form as
    /// [`CommModel::Hierarchical`], with the inter-node payload scaled by
    /// [`SimRuntime::set_inter_cut`]. If a flat ring
    /// over the slow link beats that schedule (tiny payloads, where the
    /// second launch dominates), fall back to it — the planner is never
    /// slower than flat.
    fn hier_bill(&self, payload_bytes: u64) -> Option<HierBill> {
        let topo = self.topo?;
        let ndev = self.devices.len();
        let gpn = topo.gpus_per_node.max(1);
        let nodes = topo.nodes_spanned(ndev);
        let launch_us = match self.comm {
            CommModel::Hierarchical { launch_us, .. } => launch_us,
            _ => return None,
        };
        if nodes <= 1 {
            return None;
        }

        let inter_payload = ((payload_bytes as f64) * self.inter_cut).ceil() as u64;
        let (hier_cost, inter_ring) = hierarchical_allreduce_time(
            &self.peer,
            &topo.inter,
            launch_us,
            ndev.min(gpn),
            nodes,
            payload_bytes,
            inter_payload,
        );

        let intra_bytes: u64 = (0..nodes)
            .map(|node| {
                let m = topo.devices_on_node(node, ndev) as u64;
                2 * m.saturating_sub(1) * payload_bytes
            })
            .sum();
        let inter_bytes = 2 * (nodes as u64 - 1) * inter_payload;

        // Never-slower-than-flat: a single flat ring over the slow
        // inter-node link (what `Platform::flattened` would bill).
        let flat_cost =
            CommModel::Nccl { launch_us }.allreduce_time(&topo.inter, ndev, payload_bytes);
        if flat_cost < hier_cost {
            // Every hop of the flat ring is billed; the ring crosses a
            // node boundary on `nodes` of its `ndev` hops (p devices →
            // p ring links, `nodes` of them inter-node), so split the
            // 2(p−1)·payload wire bytes proportionally.
            let total = 2 * (ndev as u64 - 1) * payload_bytes;
            let inter_share = (total as f64 * nodes as f64 / ndev as f64).round() as u64;
            let inter_share = inter_share.min(total);
            return Some(HierBill {
                cost: flat_cost,
                inter_time: flat_cost,
                intra_bytes: total - inter_share,
                inter_bytes: inter_share,
                fallback: true,
            });
        }

        Some(HierBill {
            cost: hier_cost,
            inter_time: inter_ring,
            intra_bytes,
            inter_bytes,
            fallback: false,
        })
    }

    /// Schedule cost of one collective: the hierarchical plan on a
    /// cluster, the comm model's closed form otherwise.
    fn collective_cost(&self, payload_bytes: u64) -> f64 {
        match self.hier_bill(payload_bytes) {
            Some(bill) => bill.cost,
            None => self.comm.allreduce_time(&self.peer, self.devices.len(), payload_bytes),
        }
    }

    /// Account one collective's wire bytes (and, on clusters, its
    /// hop-class split, exposed inter-node time and fallback count).
    fn bill_wire(&mut self, bill: Option<HierBill>, payload_bytes: u64) {
        match bill {
            Some(bill) => {
                self.metrics
                    .counter_add(names::COMM_COLLECTIVE_BYTES, bill.intra_bytes + bill.inter_bytes);
                self.metrics.counter_add(names::COMM_INTRA_NODE_BYTES, bill.intra_bytes);
                self.metrics.counter_add(names::COMM_INTER_NODE_BYTES, bill.inter_bytes);
                self.comm_inter += bill.inter_time;
                if bill.fallback {
                    self.metrics.counter_add(names::COMM_HIER_FALLBACKS, 1);
                }
            }
            None => {
                let ndev = self.devices.len() as u64;
                self.metrics
                    .counter_add(names::COMM_COLLECTIVE_BYTES, 2 * (ndev - 1) * payload_bytes);
            }
        }
    }

    /// Multiply every kernel duration by `factor` (software-stack
    /// inefficiency knobs, e.g. the cuGraph emulation).
    pub fn with_kernel_overhead(mut self, factor: f64) -> Self {
        for d in &mut self.devices {
            d.kernel_overhead = factor;
        }
        self
    }

    /// Whether [`SimRuntime::finish`] returns the recorded trace. The
    /// runtime always records internally (phase attribution needs it);
    /// this only controls what the caller gets back — and whether the
    /// lazy [`DeviceCtx::label`]/[`SimRuntime::label`] helpers materialize
    /// detailed (allocated) span labels.
    pub fn with_trace(mut self, keep: bool) -> Self {
        self.keep_trace = keep;
        for d in &mut self.devices {
            d.detailed = keep;
        }
        self
    }

    /// Runtime-level counterpart of [`DeviceCtx::label`]: materialize the
    /// allocated `detail` label only when the trace will be returned to
    /// the caller.
    pub fn label(&self, base: &'static str, detail: impl FnOnce() -> String) -> Cow<'static, str> {
        if self.keep_trace {
            Cow::Owned(detail())
        } else {
            Cow::Borrowed(base)
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Completion time of everything scheduled so far, across devices.
    pub fn horizon(&self) -> f64 {
        self.devices.iter().map(DeviceCtx::horizon).fold(0.0, f64::max)
    }

    /// Completion time of the compute queues across devices — when the
    /// last kernel anywhere finishes, ignoring in-flight copies and
    /// collectives.
    pub fn compute_horizon(&self) -> f64 {
        self.devices.iter().map(DeviceCtx::compute_done).fold(0.0, f64::max)
    }

    /// Mutable access to one device's context.
    pub fn device(&mut self, dev: usize) -> &mut DeviceCtx {
        &mut self.devices[dev]
    }

    /// Take ownership of all device contexts — for fan-out into
    /// per-device workers. The runtime is unusable for device operations
    /// until [`SimRuntime::attach_devices`] hands them back.
    pub fn detach_devices(&mut self) -> Vec<DeviceCtx> {
        std::mem::take(&mut self.devices)
    }

    /// Re-attach the contexts taken by [`SimRuntime::detach_devices`], in
    /// device order.
    pub fn attach_devices(&mut self, devices: Vec<DeviceCtx>) {
        debug_assert!(self.devices.is_empty(), "attach over live devices");
        debug_assert!(
            devices.iter().enumerate().all(|(i, d)| d.dev == i),
            "devices re-attached out of order"
        );
        self.devices = devices;
    }

    /// Launch one kernel of identical duration on *every* device (bulk
    /// synchronous steps over replicated arrays, e.g. SETMATES): the
    /// duration comes from `stats` on the device cost model, the kernel
    /// counters are billed once (the work exists once, replicated), and a
    /// span is recorded per device. Returns the billed duration.
    pub fn global_kernel(
        &mut self,
        label: impl Into<Cow<'static, str>>,
        stats: &KernelStats,
    ) -> f64 {
        let label = label.into();
        let dur = {
            let d0 = &self.devices[0];
            d0.spec.kernel_time(&d0.cost, stats) * d0.kernel_overhead
        };
        for d in &mut self.devices {
            let (s, e) = d.timer.schedule_kernel_global(dur);
            d.trace.record(d.dev, EventKind::Kernel, label.clone(), s, e);
        }
        self.metrics.counter_add(names::KERNEL_EDGES_SCANNED, stats.edges_scanned);
        self.metrics.counter_add(names::KERNEL_WARPS_LAUNCHED, stats.warps_launched);
        self.metrics.counter_add(names::KERNEL_BYTES_MOVED, stats.bytes_read + stats.bytes_written);
        dur
    }

    /// Ring-allreduce a replicated payload of `payload_bytes` across all
    /// devices: every timeline aligns to the common completion point, and
    /// the collective metrics are billed — one call, plus
    /// `2 (p-1) × payload` wire bytes (zero on a single device, where the
    /// ring degenerates to a local pass). Returns `(start, end)`.
    pub fn allreduce(
        &mut self,
        label: impl Into<Cow<'static, str>>,
        payload_bytes: u64,
    ) -> (f64, f64) {
        let label = label.into();
        let bill = self.hier_bill(payload_bytes);
        let cost = match bill {
            Some(bill) => bill.cost,
            None => self.comm.allreduce_time(&self.peer, self.devices.len(), payload_bytes),
        };
        let start = self.horizon();
        let end = start + cost;
        for d in &mut self.devices {
            d.timer.align_to(end);
            d.trace.record(d.dev, EventKind::Collective, label.clone(), start, end);
        }
        self.metrics.counter_add(names::COMM_ALLREDUCE_CALLS, 1);
        self.bill_wire(bill, payload_bytes);
        // A serialized collective starts after every producer finished:
        // its whole cost sits on the critical path.
        self.comm_exposed += cost;
        (start, end)
    }

    /// Overlapped chunked allreduce: each [`CommChunk`] is a slice of the
    /// reduced payload that became reducible at its own `ready` time (its
    /// producer kernel's end), so wire time runs on the comm stream under
    /// kernels and copies that do not depend on the result. Chunks ready
    /// together are greedily coalesced into one ring operation — a uniform
    /// ready front therefore degenerates to exactly the serialized
    /// [`SimRuntime::allreduce`] cost, while an imbalanced front pipelines:
    /// early slices reduce while slow devices still compute, which is the
    /// paper's barrier-imbalance wait converted into hidden communication.
    /// When the per-operation launch/latency overhead of the chunked chain
    /// would outlive a single coalesced reduction (near-uniform front,
    /// short compute tail), the scheduler falls back to the single
    /// operation, so overlap mode never finishes later than the serialized
    /// collective would.
    ///
    /// The compute queues of all devices are held back to the final
    /// completion point (consumers depend on the fully reduced array); the
    /// copy engines stay free, so next-iteration prefetches overlap the
    /// tail. Exposed time is `end − max(ready)`; the remainder of the
    /// summed operation costs is hidden. Returns `(first_start, end)`.
    pub fn allreduce_chunked(
        &mut self,
        label: impl Into<Cow<'static, str>>,
        chunks: &[CommChunk],
    ) -> (f64, f64) {
        let label = label.into();
        let fallback = [CommChunk { bytes: 0, ready: self.compute_horizon() }];
        let chunks: &[CommChunk] = if chunks.is_empty() { &fallback } else { chunks };
        let mut order: Vec<&CommChunk> = chunks.iter().collect();
        order.sort_by(|a, b| a.ready.total_cmp(&b.ready));
        let ready_max = order.last().expect("non-empty chunk list").ready;

        // Dry-run the greedy schedule first: the fabric serializes the
        // ring operations (every one involves all devices), so each
        // group's end is the next group's earliest start.
        let fabric0 = self.devices.iter().map(|d| d.timer.comm_free()).fold(0.0, f64::max);
        let mut plan: Vec<(f64, u64, f64)> = Vec::new(); // (start, bytes, cost)
        let mut fabric = fabric0;
        let mut i = 0;
        while i < order.len() {
            let start = fabric.max(order[i].ready);
            // Coalesce every slice already reducible at the start point
            // into one ring operation.
            let mut bytes = 0u64;
            while i < order.len() && order[i].ready <= start {
                bytes += order[i].bytes;
                i += 1;
            }
            let cost = self.collective_cost(bytes);
            plan.push((start, bytes, cost));
            fabric = start + cost;
        }
        // Chunking pays a fixed launch+latency cost per ring operation; on
        // a near-uniform front with a short compute tail the op chain can
        // outlive a single coalesced reduction. Compare against the
        // everything-at-once alternative and keep the schedule that
        // finishes first (mirroring NCCL-style runtime batching).
        let total_bytes: u64 = order.iter().map(|c| c.bytes).sum();
        let single_cost = self.collective_cost(total_bytes);
        let single_start = fabric0.max(ready_max);
        if single_start + single_cost < fabric {
            plan = vec![(single_start, total_bytes, single_cost)];
        }

        let mut first_start = f64::INFINITY;
        let mut end = 0.0f64;
        let mut total_cost = 0.0;
        for &(start, bytes, cost) in &plan {
            for d in &mut self.devices {
                let (s, e) = d.timer.schedule_comm(start, cost);
                debug_assert_eq!(s, start);
                d.trace.record(d.dev, EventKind::Collective, label.clone(), s, e);
                end = e;
            }
            first_start = first_start.min(start);
            total_cost += cost;
            self.metrics.counter_add(names::COMM_ALLREDUCE_CALLS, 1);
            let bill = self.hier_bill(bytes);
            self.bill_wire(bill, bytes);
        }
        let exposed = (end - ready_max).max(0.0);
        self.comm_exposed += exposed;
        self.comm_hidden += (total_cost - exposed).max(0.0);
        // Consumers of the reduced array wait on the compute queue; the
        // copy engines keep prefetching under the collective tail.
        for d in &mut self.devices {
            d.timer.wait_kernel_until(end);
        }
        (first_start, end)
    }

    /// Record one iteration of the matching progression.
    pub fn push_iteration(&mut self, rec: IterationRecord) {
        self.iterations.push(rec);
    }

    /// Live view of the metrics accumulated so far. Long-lived callers
    /// (the serve layer) read per-batch deltas from here without waiting
    /// for [`SimRuntime::finish`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Add `delta` to a counter (engine-semantic metrics).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.metrics.gauge_set(name, value);
    }

    /// Record a histogram sample.
    pub fn observe(&mut self, name: &str, sample: f64) {
        self.metrics.observe(name, sample);
    }

    /// The livelock invariant every fixed-point engine shares: an
    /// iteration that found work to do must commit progress, or the
    /// driver would spin forever. Under the canonical total-order
    /// tie-breaking this cannot fire; it replaces per-engine ad-hoc
    /// assertion/break pairs.
    ///
    /// # Panics
    /// When `progress == 0`.
    pub fn assert_progress(&self, progress: u64, context: &str) {
        assert!(progress > 0, "livelock: {context} made no progress");
    }

    /// Close the run: drain every device, fold the accumulated kernel
    /// totals, stalls and occupancy into the registry, and derive the
    /// phase breakdown from the recorded timeline — which guarantees
    /// `profile.phases.total() == sim_time` up to floating-point
    /// rounding, for every engine, whether or not tracing was requested.
    pub fn finish(mut self) -> RunFinish {
        let mut trace = Trace::default();
        let mut totals = LaunchTotals::default();
        let mut occ_weighted = 0.0;
        let mut occ_weight = 0.0;
        let mut stalls = 0u64;
        let mut stall_time = 0.0;
        let mut sim_time = 0.0f64;
        let ndev = self.devices.len();
        for d in &mut self.devices {
            d.timer.drain();
            sim_time = sim_time.max(d.timer.horizon());
            totals.edges_scanned += d.totals.edges_scanned;
            totals.warps_launched += d.totals.warps_launched;
            totals.bytes_moved += d.totals.bytes_moved;
            occ_weighted += d.occ_weighted;
            occ_weight += d.occ_weight;
            stalls += d.timer.buffer_stalls();
            stall_time += d.timer.buffer_stall_time();
            trace.merge(std::mem::take(&mut d.trace));
        }
        let m = &mut self.metrics;
        m.counter_add(names::KERNEL_EDGES_SCANNED, totals.edges_scanned);
        m.counter_add(names::KERNEL_WARPS_LAUNCHED, totals.warps_launched);
        m.counter_add(names::KERNEL_BYTES_MOVED, totals.bytes_moved);
        // Schema parity across engines: the wire-traffic counters exist
        // even for runs that never issued a collective.
        m.counter_add(names::COMM_COLLECTIVE_BYTES, 0);
        m.counter_add(names::TIMER_BUFFER_STALLS, stalls);
        if let Some(topo) = self.topo {
            m.counter_add(names::COMM_INTRA_NODE_BYTES, 0);
            m.counter_add(names::COMM_INTER_NODE_BYTES, 0);
            m.counter_add(names::COMM_HIER_FALLBACKS, 0);
            m.gauge_set(names::COMM_INTER_TIME, self.comm_inter);
            m.gauge_set(names::CLUSTER_NODES, topo.nodes_spanned(ndev) as f64);
        }
        m.gauge_set(names::TIMER_BUFFER_STALL_TIME, stall_time);
        m.gauge_set(
            names::KERNEL_OCCUPANCY,
            if occ_weight > 0.0 { occ_weighted / occ_weight } else { 0.0 },
        );
        m.gauge_set(names::DRIVER_DEVICES, ndev as f64);
        // Overlap accounting: schema parity across engines — the gauges
        // exist (at 0) even for runs without collectives or overlap.
        m.gauge_set(names::COMM_EXPOSED_TIME, self.comm_exposed);
        m.gauge_set(names::COMM_HIDDEN_TIME, self.comm_hidden);
        let stream_busy: f64 = (0..ndev)
            .map(|d| {
                trace.busy_time(d, EventKind::Kernel)
                    + trace.busy_time(d, EventKind::H2dCopy)
                    + trace.busy_time(d, EventKind::Collective)
            })
            .sum();
        m.gauge_set(
            names::STREAM_OCCUPANCY,
            if sim_time > 0.0 { stream_busy / (3.0 * ndev as f64 * sim_time) } else { 0.0 },
        );
        let phases = timeline_breakdown(&trace, sim_time);
        debug_assert!(
            (phases.total() - sim_time).abs() <= 1e-9 * sim_time.max(1.0),
            "phase attribution lost time: {} vs {}",
            phases.total(),
            sim_time
        );
        RunFinish {
            sim_time,
            profile: RunProfile { phases, iterations: self.iterations, sim_time },
            metrics: self.metrics,
            trace: self.keep_trace.then_some(trace),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    fn stats(vertices: u64) -> KernelStats {
        KernelStats {
            vertices,
            vertices_processed: vertices,
            warps_launched: vertices.div_ceil(4),
            warps_active: vertices.div_ceil(4),
            edge_waves: vertices,
            edges_scanned: vertices * 8,
            warp_edges_sumsq: 0.0,
            max_warp_waves: 4,
            max_warp_vertices: 4,
            bytes_read: vertices * 64,
            bytes_written: vertices * 8,
        }
    }

    #[test]
    fn phases_total_equals_sim_time_by_construction() {
        let mut rt = SimRuntime::new(&Platform::dgx_a100(), 2);
        for d in 0..2 {
            rt.device(d).h2d_copy(0, 1 << 20, "copy b0");
            rt.device(d).launch_kernel(
                Some(0),
                format!("point b0 d{d}"),
                &stats(1000 * (d as u64 + 1)),
            );
        }
        rt.allreduce("allreduce ptr", 8 << 10);
        rt.global_kernel("setmates", &stats(100));
        rt.device(0).host_sync("sync");
        let fin = rt.finish();
        assert!(fin.sim_time > 0.0);
        assert!(
            (fin.profile.phases.total() - fin.sim_time).abs() <= 1e-12 * fin.sim_time,
            "total {} vs sim_time {}",
            fin.profile.phases.total(),
            fin.sim_time
        );
        // Every phase class got exercised.
        let p = fin.profile.phases;
        assert!(p.pointing > 0.0 && p.matching > 0.0 && p.allreduce > 0.0);
    }

    #[test]
    fn kernel_counters_and_occupancy_fold_into_metrics() {
        let mut rt = SimRuntime::new(&Platform::dgx_a100(), 1);
        let s = stats(512);
        rt.device(0).launch_kernel(None, "point", &s);
        let fin = rt.finish();
        assert_eq!(fin.metrics.counter(names::KERNEL_EDGES_SCANNED), s.edges_scanned);
        assert_eq!(fin.metrics.counter(names::KERNEL_WARPS_LAUNCHED), s.warps_launched);
        assert_eq!(fin.metrics.counter(names::KERNEL_BYTES_MOVED), s.bytes_read + s.bytes_written);
        let occ = fin.metrics.gauge(names::KERNEL_OCCUPANCY).unwrap();
        assert!((0.0..=1.0).contains(&occ));
        assert!(occ > 0.0);
        assert_eq!(fin.metrics.gauge(names::DRIVER_DEVICES), Some(1.0));
    }

    #[test]
    fn allreduce_wire_bytes_follow_ring_formula() {
        let mut rt = SimRuntime::new(&Platform::dgx_a100(), 4);
        rt.allreduce("allreduce ptr", 1000);
        let fin = rt.finish();
        assert_eq!(fin.metrics.counter(names::COMM_ALLREDUCE_CALLS), 1);
        assert_eq!(fin.metrics.counter(names::COMM_COLLECTIVE_BYTES), 2 * 3 * 1000);
    }

    #[test]
    fn single_device_collectives_carry_no_wire_bytes() {
        let mut rt = SimRuntime::new(&Platform::dgx_a100(), 1);
        rt.allreduce("allreduce ptr", 1000);
        rt.allreduce("allreduce frontier", 10 * 16);
        let fin = rt.finish();
        assert_eq!(fin.metrics.counter(names::COMM_ALLREDUCE_CALLS), 2);
        assert_eq!(fin.metrics.counter(names::COMM_COLLECTIVE_BYTES), 0);
    }

    #[test]
    fn detach_reattach_round_trips() {
        let mut rt = SimRuntime::new(&Platform::dgx_a100(), 3);
        let mut ctxs = rt.detach_devices();
        assert_eq!(ctxs.len(), 3);
        for c in &mut ctxs {
            c.fixed_kernel("point", 0.5 * (c.index() + 1) as f64);
        }
        rt.attach_devices(ctxs);
        assert!((rt.horizon() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn trace_returned_only_when_requested() {
        let mk = |keep: bool| {
            let mut rt = SimRuntime::new(&Platform::dgx_a100(), 1).with_trace(keep);
            rt.device(0).fixed_kernel("point", 1.0);
            rt.finish()
        };
        assert!(mk(false).trace.is_none());
        let fin = mk(true);
        let trace = fin.trace.expect("trace requested");
        assert_eq!(trace.events.len(), 1);
        let (_, hi) = trace.span().unwrap();
        assert!((hi - fin.sim_time).abs() < 1e-12);
        // The breakdown still sums to sim_time either way.
        assert!((fin.profile.phases.total() - fin.sim_time).abs() < 1e-12);
    }

    #[test]
    fn kernel_overhead_scales_durations() {
        let run = |overhead: f64| {
            let mut rt = SimRuntime::new(&Platform::dgx_a100(), 1).with_kernel_overhead(overhead);
            rt.device(0).launch_kernel(None, "point", &stats(4096));
            rt.finish().sim_time
        };
        let base = run(1.0);
        let slow = run(3.0);
        assert!((slow - 3.0 * base).abs() < 1e-12 * slow, "base {base} slow {slow}");
    }

    #[test]
    fn empty_runtime_finishes_clean() {
        let fin = SimRuntime::new(&Platform::dgx_a100(), 4).finish();
        assert_eq!(fin.sim_time, 0.0);
        assert_eq!(fin.profile.phases.total(), 0.0);
        assert_eq!(fin.metrics.counter(names::COMM_COLLECTIVE_BYTES), 0);
        assert_eq!(fin.metrics.gauge(names::KERNEL_OCCUPANCY), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "livelock")]
    fn progress_invariant_trips_on_stall() {
        SimRuntime::new(&Platform::dgx_a100(), 1).assert_progress(0, "iteration 3");
    }

    #[test]
    fn uniform_chunks_coalesce_to_serialized_cost() {
        // All slices ready at the same instant: the greedy scheduler must
        // merge them into ONE ring op whose cost equals the serialized
        // allreduce of the summed payload — no per-chunk overhead penalty.
        let mk = |chunked: bool| {
            let mut rt = SimRuntime::new(&Platform::dgx_a100(), 4);
            for d in 0..4 {
                rt.device(d).fixed_kernel("point", 1.0);
            }
            if chunked {
                let chunks: Vec<CommChunk> =
                    (0..4).map(|_| CommChunk { bytes: 250, ready: 1.0 }).collect();
                rt.allreduce_chunked("allreduce ptr", &chunks);
            } else {
                rt.allreduce("allreduce ptr", 1000);
            }
            rt.finish()
        };
        let ser = mk(false);
        let ovl = mk(true);
        assert!(
            (ovl.sim_time - ser.sim_time).abs() < 1e-15,
            "{} vs {}",
            ovl.sim_time,
            ser.sim_time
        );
        assert_eq!(
            ovl.metrics.counter(names::COMM_ALLREDUCE_CALLS),
            ser.metrics.counter(names::COMM_ALLREDUCE_CALLS)
        );
        assert_eq!(
            ovl.metrics.counter(names::COMM_COLLECTIVE_BYTES),
            ser.metrics.counter(names::COMM_COLLECTIVE_BYTES)
        );
        // Exposed time matches the serialized cost up to float round-trip
        // (the chunked path derives it as `(ready + cost) - ready`).
        let e_ovl = ovl.metrics.gauge(names::COMM_EXPOSED_TIME).unwrap();
        let e_ser = ser.metrics.gauge(names::COMM_EXPOSED_TIME).unwrap();
        assert!((e_ovl - e_ser).abs() < 1e-12, "{e_ovl} vs {e_ser}");
        let h_ovl = ovl.metrics.gauge(names::COMM_HIDDEN_TIME).unwrap();
        assert!(h_ovl.abs() < 1e-12, "hidden {h_ovl}");
    }

    #[test]
    fn imbalanced_chunks_hide_communication() {
        // Device 0 finishes its slice far earlier than device 1: the early
        // slice reduces under device 1's kernel, so the exposed time is
        // strictly less than the serialized collective's, total wire bytes
        // and the matching-relevant sim payload staying equal.
        let run = |chunked: bool| {
            let mut rt = SimRuntime::new(&Platform::dgx_a100(), 2);
            rt.device(0).fixed_kernel("point", 1.0);
            rt.device(1).fixed_kernel("point", 4.0);
            if chunked {
                rt.allreduce_chunked(
                    "allreduce ptr",
                    &[
                        CommChunk { bytes: 500_000_000, ready: 1.0 },
                        CommChunk { bytes: 500_000_000, ready: 4.0 },
                    ],
                );
            } else {
                rt.allreduce("allreduce ptr", 1_000_000_000);
            }
            rt.finish()
        };
        let ser = run(false);
        let ovl = run(true);
        assert!(ovl.sim_time < ser.sim_time, "{} vs {}", ovl.sim_time, ser.sim_time);
        let exp_ser = ser.metrics.gauge(names::COMM_EXPOSED_TIME).unwrap();
        let exp_ovl = ovl.metrics.gauge(names::COMM_EXPOSED_TIME).unwrap();
        assert!(exp_ovl < exp_ser, "exposed {exp_ovl} vs serialized {exp_ser}");
        assert!(ovl.metrics.gauge(names::COMM_HIDDEN_TIME).unwrap() > 0.0);
        assert_eq!(
            ovl.metrics.counter(names::COMM_COLLECTIVE_BYTES),
            ser.metrics.counter(names::COMM_COLLECTIVE_BYTES)
        );
        assert_eq!(ovl.metrics.counter(names::COMM_ALLREDUCE_CALLS), 2);
        // Phase attribution still accounts for every simulated second.
        assert!(
            (ovl.profile.phases.total() - ovl.sim_time).abs() <= 1e-9 * ovl.sim_time,
            "total {} vs sim_time {}",
            ovl.profile.phases.total(),
            ovl.sim_time
        );
    }

    #[test]
    fn chunked_collective_holds_kernels_not_copies() {
        let mut rt = SimRuntime::new(&Platform::dgx_a100(), 2);
        for d in 0..2 {
            rt.device(d).fixed_kernel("point", 1.0);
        }
        let (_, end) = rt
            .allreduce_chunked("allreduce mate", &[CommChunk { bytes: 4_000_000_000, ready: 1.0 }]);
        assert!(end > 1.0);
        // A dependent kernel waits for the collective...
        let (ks, _) = rt.device(0).fixed_kernel("point next", 0.5);
        assert!(ks >= end);
        // ...but a prefetch copy on device 1 started under it.
        let (cs, _) = rt.device(1).h2d_copy(0, 1 << 20, "copy next");
        assert!(cs < end, "copy at {cs} must start under the collective ending at {end}");
    }

    #[test]
    fn stream_occupancy_reported_between_zero_and_one() {
        let mut rt = SimRuntime::new(&Platform::dgx_a100(), 2);
        for d in 0..2 {
            rt.device(d).h2d_copy(0, 1 << 20, "copy");
            rt.device(d).launch_kernel(Some(0), "point", &stats(2000));
        }
        rt.allreduce("allreduce ptr", 8 << 10);
        let fin = rt.finish();
        let occ = fin.metrics.gauge(names::STREAM_OCCUPANCY).unwrap();
        assert!(occ > 0.0 && occ <= 1.0, "stream occupancy {occ}");
        // Empty runs report 0 for schema parity.
        let empty = SimRuntime::new(&Platform::dgx_a100(), 1).finish();
        assert_eq!(empty.metrics.gauge(names::STREAM_OCCUPANCY), Some(0.0));
        assert_eq!(empty.metrics.gauge(names::COMM_EXPOSED_TIME), Some(0.0));
        assert_eq!(empty.metrics.gauge(names::COMM_HIDDEN_TIME), Some(0.0));
    }

    #[test]
    fn empty_chunk_list_degenerates_to_zero_payload_call() {
        let mut rt = SimRuntime::new(&Platform::dgx_a100(), 2);
        rt.allreduce_chunked("allreduce ptr", &[]);
        let fin = rt.finish();
        assert_eq!(fin.metrics.counter(names::COMM_ALLREDUCE_CALLS), 1);
        assert_eq!(fin.metrics.counter(names::COMM_COLLECTIVE_BYTES), 0);
    }

    // ------------------------------------------------------------------
    // Hierarchical (multi-node) collectives.

    #[test]
    fn hierarchical_wire_bytes_split_by_hop_class() {
        // 2 nodes × 8 GPUs: each node runs its own 8-device ring
        // (2·(8−1)·B intra), the leaders run a 2-node ring (2·(2−1)·B
        // inter) — closed-form ring costs per hop class.
        let b = 1_000_000u64;
        let mut rt = SimRuntime::new(&Platform::dgx_a100_cluster(2), 16);
        rt.allreduce("allreduce ptr", b);
        let fin = rt.finish();
        assert_eq!(fin.metrics.counter(names::COMM_INTRA_NODE_BYTES), 2 * 2 * 7 * b);
        assert_eq!(fin.metrics.counter(names::COMM_INTER_NODE_BYTES), 2 * b);
        assert_eq!(
            fin.metrics.counter(names::COMM_COLLECTIVE_BYTES),
            fin.metrics.counter(names::COMM_INTRA_NODE_BYTES)
                + fin.metrics.counter(names::COMM_INTER_NODE_BYTES)
        );
        assert_eq!(fin.metrics.counter(names::COMM_HIER_FALLBACKS), 0);
        assert!(fin.metrics.gauge(names::COMM_INTER_TIME).unwrap() > 0.0);
        assert_eq!(fin.metrics.gauge(names::CLUSTER_NODES), Some(2.0));
    }

    #[test]
    fn ragged_device_counts_bill_partial_last_node() {
        // 12 devices on a 2×8 cluster: node 0 holds 8, node 1 holds 4.
        let b = 1_000_000u64;
        let mut rt = SimRuntime::new(&Platform::dgx_a100_cluster(2), 12);
        rt.allreduce("allreduce ptr", b);
        let fin = rt.finish();
        assert_eq!(fin.metrics.counter(names::COMM_INTRA_NODE_BYTES), (2 * 7 + 2 * 3) * b);
        assert_eq!(fin.metrics.counter(names::COMM_INTER_NODE_BYTES), 2 * b);
        assert_eq!(fin.metrics.gauge(names::CLUSTER_NODES), Some(2.0));
    }

    #[test]
    fn tiny_payloads_fall_back_to_the_flat_ring() {
        // 8 bytes over 16 devices: the hierarchical schedule's second
        // launch dominates, so the planner keeps the flat ring over the
        // slow link — never slower than flat.
        let platform = Platform::dgx_a100_cluster(2);
        let CommModel::Hierarchical { inter, launch_us, .. } = platform.comm else {
            panic!("cluster preset must be hierarchical");
        };
        let mut rt = SimRuntime::new(&platform, 16);
        rt.allreduce("allreduce ptr", 8);
        let fin = rt.finish();
        assert_eq!(fin.metrics.counter(names::COMM_HIER_FALLBACKS), 1);
        let flat = CommModel::Nccl { launch_us }.allreduce_time(&inter, 16, 8);
        assert!(
            (fin.sim_time - flat).abs() <= 1e-12 * flat,
            "fallback cost {} vs flat ring {}",
            fin.sim_time,
            flat
        );
    }

    #[test]
    fn inter_cut_scales_only_the_inter_node_stage() {
        let b = 1_000_000u64;
        let run = |cut: Option<f64>| {
            let mut rt = SimRuntime::new(&Platform::dgx_a100_cluster(2), 16);
            if let Some(c) = cut {
                rt.set_inter_cut(c);
            }
            rt.allreduce("allreduce ptr", b);
            rt.finish()
        };
        let full = run(None);
        let quarter = run(Some(0.25));
        // The intra-node stages always carry the full payload …
        assert_eq!(
            full.metrics.counter(names::COMM_INTRA_NODE_BYTES),
            quarter.metrics.counter(names::COMM_INTRA_NODE_BYTES)
        );
        // … only the leader ring shrinks with the boundary fraction.
        assert_eq!(quarter.metrics.counter(names::COMM_INTER_NODE_BYTES), 2 * b / 4);
        assert!(quarter.sim_time < full.sim_time);
        assert!(
            quarter.metrics.gauge(names::COMM_INTER_TIME).unwrap()
                < full.metrics.gauge(names::COMM_INTER_TIME).unwrap()
        );
    }

    #[test]
    fn chunked_uniform_front_on_a_cluster_coalesces_to_serialized_cost() {
        let mk = || {
            let mut rt = SimRuntime::new(&Platform::dgx_a100_cluster(2), 16);
            for d in 0..16 {
                rt.device(d).launch_kernel(None, "point", &stats(1000));
            }
            rt
        };
        let mut ser = mk();
        ser.allreduce("allreduce ptr", 4 << 20);
        let ser = ser.finish();
        let mut ovl = mk();
        let ready = ovl.compute_horizon();
        let chunks: Vec<CommChunk> = (0..4).map(|_| CommChunk { bytes: 1 << 20, ready }).collect();
        ovl.allreduce_chunked("allreduce ptr", &chunks);
        let ovl = ovl.finish();
        assert!(
            (ovl.sim_time - ser.sim_time).abs() <= 1e-9 * ser.sim_time,
            "uniform chunked {} vs serialized {}",
            ovl.sim_time,
            ser.sim_time
        );
        assert_eq!(
            ovl.metrics.counter(names::COMM_INTER_NODE_BYTES),
            ser.metrics.counter(names::COMM_INTER_NODE_BYTES)
        );
    }

    #[test]
    fn hierarchical_schedule_never_loses_to_the_flattened_platform() {
        // `flattened()` runs the same devices as one flat ring over the
        // inter-node link; the hierarchical planner must match or beat
        // it at every payload size (fallback guarantees the tie).
        let cluster = Platform::dgx_a100_cluster(2);
        let flat = cluster.clone().flattened();
        for payload in [8u64, 1 << 10, 1 << 20, 8 << 20] {
            let mut h = SimRuntime::new(&cluster, 16);
            h.allreduce("allreduce ptr", payload);
            let h = h.finish();
            let mut f = SimRuntime::new(&flat, 16);
            f.allreduce("allreduce ptr", payload);
            let f = f.finish();
            assert!(
                h.sim_time <= f.sim_time * (1.0 + 1e-12),
                "payload {payload}: hierarchical {} > flat {}",
                h.sim_time,
                f.sim_time
            );
        }
    }
}
