//! The LD-GPU driver: Algorithm 2 of the paper on the simulated platform.
//!
//! A run plans once — the edge-balanced partition, the batch count, the
//! warp width, and one walk per device — and then iterates. Per
//! iteration every device walks its batches (asynchronously loading batch
//! `b+1` while the SETPOINTERS kernel of batch `b` runs on the other
//! stream buffer, with explicit host synchronization when the batch count
//! exceeds the two buffers) or, out of core, its rank bands; then the
//! devices allreduce the pointer array, run SETMATES against the globally
//! consistent pointers, and allreduce the mate array, both reductions
//! billed by the run's [`CommPolicy`]. Termination when an iteration sets
//! no pointers (no available edges remain).
//!
//! Kernel logic executes for real (device-parallel via rayon, with the
//! per-device vertex ranges borrowed disjointly); all simulated time is
//! billed through [`ldgm_gpusim::SimRuntime`], which owns the timers, the
//! trace, the metrics registry, and the timeline-derived phase breakdown.
//!
//! The host walks live vertices only. Each device keeps an ascending list
//! of its vertices that are neither matched nor retired (the scratch
//! arena's live lists, every partition vertex at the start): a full
//! SETPOINTERS launch scans each listed vertex for real and bills the
//! warps without one in closed form, the streaming band walk starts from
//! the list, and SETMATES commits over the lists, drops the vertices that
//! matched or retired and, in frontier mode, emits the next frontier in
//! the same pass. The billed kernels stay the full sweeps of Algorithms
//! 2–3, so every simulated number is the same as an all-vertex host
//! walk's.
//!
//! # Optimized mode (`ld-gpu-opt`)
//!
//! One opt-in mode ([`LdGpuConfig::optimized`]) switches on three layers
//! together, each leaving the matching bit-identical to the default path:
//!
//! * **sorted index** — SETPOINTERS is billed as scanning each list in
//!   (weight desc, id asc) order, the canonical [`prefer`] order, where
//!   the first available neighbor is the full scan's argmax, and stopping
//!   at the wave containing it. The host needs no sorted copy for that:
//!   the kernel takes the argmax on the CSR lanes and counts the keys
//!   above it, which is the argmax's position in that order
//!   ([`Scan::Ranked`]). Only the streaming engine, whose rank bands are
//!   slices of the sorted order, builds a [`SortedAdjacency`]; that build
//!   is preprocessing, excluded from timings like the initial partition
//!   transfer (paper convention).
//! * **cross-iteration frontier** — after SETMATES, the only vertices
//!   whose pointers went stale are those whose target was just matched
//!   away; everyone else's pointer still names their best available
//!   neighbor (availability only shrinks, and anything better was already
//!   unavailable when the pointer was written). SETPOINTERS therefore
//!   launches over per-device frontier worklists only, skipping batches
//!   with empty frontier slices entirely; an empty frontier is a fixed
//!   point and terminates the loop without the default mode's final
//!   confirming scan. SETMATES stays a full-`n` global kernel (a mutual
//!   pair may join one fresh and one stale-but-valid pointer), and the
//!   frontier compaction rides on its full mate+pointer read (one extra
//!   worklist append per stale vertex, not billed separately). On the
//!   host the compaction is part of the live-list pass: a live vertex is
//!   stale exactly when its target's own pointer pair is mutual, since
//!   every live pointer names a vertex unmatched when SETMATES starts.
//! * **sparse collectives** — pointer/mate deltas ship as sparse entries
//!   (~16 B per written slot, the `ldgm-dyn` convention) instead of dense
//!   `8·|V|` payloads ([`CommPolicy`]).
//!
//! # Overlap mode (`overlap`)
//!
//! An orthogonal toggle ([`LdGpuConfig::with_overlap`], off by default)
//! that changes only how collectives are billed, never which kernel
//! variant runs: instead of a serialized allreduce that starts once the
//! slowest device finishes, each batch's slice of the pointer
//! reduction is scheduled on the device comm stream the moment its
//! producer kernel retires ([`SimRuntime::allreduce_chunked`]), hiding
//! wire time under the kernels of slower devices and next-iteration
//! prefetch copies. The matching is bit-identical to the serialized path.
//!
//! [`prefer`]: crate::matching::prefer

use std::sync::Arc;

use rayon::prelude::*;

use ldgm_gpusim::metrics::names;
use ldgm_gpusim::{
    DeviceCtx, IterationRecord, KernelLaunch, MetricsRegistry, RunProfile, SimRuntime, Trace,
    NONE_SENTINEL,
};
use ldgm_graph::csr::{CsrGraph, VertexId};
use ldgm_graph::SortedAdjacency;
use ldgm_part::placement::{cut_stats, NodePlacement};
use ldgm_part::{batch, memory, plan_substreams, Partition, SubstreamPlan, VertexRange};

use super::comm::CommPolicy;
use super::config::{LdGpuConfig, LdGpuError};
use super::kernels::{
    set_mates_live, set_pointers_band, set_pointers_scan, PointingResult, PointingWork, Scan,
};
use super::scratch::{DeviceBufs, Scratch};
use crate::matching::Matching;

/// Result of an LD-GPU run.
#[derive(Clone, Debug)]
pub struct LdGpuOutput {
    /// The computed ½-approximate matching.
    pub matching: Matching,
    /// Matching iterations executed.
    pub iterations: usize,
    /// End-to-end simulated time in seconds (pointing + matching phases,
    /// matching the paper's reporting convention).
    pub sim_time: f64,
    /// Component-wise timing and per-iteration records.
    pub profile: RunProfile,
    /// Devices actually used.
    pub devices: usize,
    /// Batches per device actually used.
    pub batches: usize,
    /// Event timeline, when [`LdGpuConfig::collect_trace`] is on.
    pub trace: Option<Trace>,
    /// Run metrics: kernel work, collective traffic, buffer stalls.
    pub metrics: MetricsRegistry,
}

/// The LD-GPU matcher.
#[derive(Clone, Debug)]
pub struct LdGpu {
    cfg: LdGpuConfig,
}

/// What one device walks in each pointing phase.
enum Walk {
    /// Resident mode: the device's batch ranges, cycled through the two
    /// stream buffers.
    Batches(Vec<VertexRange>),
    /// Out-of-core mode: the device's substream plan, whose rank bands
    /// slice the preference-sorted index (one index, shared by every
    /// device).
    Bands(SubstreamPlan, Arc<SortedAdjacency>),
}

/// Everything a run fixes before its first iteration.
struct Plan {
    partition: Partition,
    /// Batches per device; in streaming mode the deepest band count, the
    /// copy/kernel rounds a full iteration takes.
    batches: usize,
    /// Resident warp slots of one device: a worklist launch takes its warp
    /// width from the list length over this.
    slots: usize,
    /// Vertices per warp of a full launch.
    vpw: usize,
    /// One walk per device.
    walks: Vec<Walk>,
    /// Streaming: the high-water device residency over all devices.
    resident_bytes: Option<u64>,
}

impl Plan {
    /// Partition `g` over the configured devices and size every device's
    /// walk: a substream plan per device in streaming mode, otherwise one
    /// batch count for every device (paper §III-C), the configured one or
    /// the fewest that fit device memory.
    fn new(g: &CsrGraph, cfg: &LdGpuConfig) -> Result<Self, LdGpuError> {
        let n = g.num_vertices();
        let ndev = cfg.devices.min(cfg.platform.max_devices);
        let partition = Partition::edge_balanced(g, ndev);
        let mem = cfg.platform.device.mem_bytes;
        let spec = &cfg.platform.device;
        let slots = (spec.sm_count * spec.max_warps_per_sm) as usize;
        let vpw = n.div_ceil(ndev).div_ceil(slots).max(1);

        if cfg.streaming {
            let budget = cfg.mem_budget.unwrap_or(mem);
            let window = cfg.stream_window.unwrap_or(2);
            let mut plans = Vec::with_capacity(ndev);
            for (device, part) in partition.parts.iter().enumerate() {
                let plan = plan_substreams(g, part, n, budget, window).map_err(|e| {
                    LdGpuError::StreamPlanTooLarge {
                        device,
                        window,
                        required: e.required,
                        mem_bytes: e.mem_bytes,
                    }
                })?;
                plans.push(plan);
            }
            let batches = plans.iter().map(|p| p.layout.num_bands()).max().unwrap_or(0).max(1);
            let resident_bytes = plans.iter().map(|p| p.resident_bytes).max().unwrap_or(0);
            // The bands are slices of the preference-sorted order:
            // preprocessing, excluded from timings like the initial
            // partition transfer.
            let sorted = Arc::new(SortedAdjacency::build(g));
            let walks = plans.into_iter().map(|p| Walk::Bands(p, Arc::clone(&sorted))).collect();
            return Ok(Plan {
                partition,
                batches,
                slots,
                vpw,
                walks,
                resident_bytes: Some(resident_bytes),
            });
        }

        let batches = match cfg.batches {
            Some(b) => b,
            None => {
                let mut needed = 1;
                for (device, part) in partition.parts.iter().enumerate() {
                    let k = batch::min_batches_to_fit(g, part, n, mem, 1)
                        .ok_or(LdGpuError::OutOfMemory { device, mem_bytes: mem })?;
                    needed = needed.max(k);
                }
                needed
            }
        };
        let mut walks = Vec::with_capacity(ndev);
        for (device, part) in partition.parts.iter().enumerate() {
            let ranges = batch::make_batches(g, part, batches);
            if cfg.batches.is_some() {
                let required = memory::device_footprint_bytes(&ranges, n);
                if required > mem {
                    return Err(LdGpuError::BatchPlanTooLarge {
                        device,
                        batches,
                        required,
                        mem_bytes: mem,
                    });
                }
            }
            walks.push(Walk::Batches(ranges));
        }
        Ok(Plan { partition, batches, slots, vpw, walks, resident_bytes: None })
    }
}

/// What every device's pointing phase reads: the run's plan and its
/// fixed choices.
struct PointCtx<'a> {
    g: &'a CsrGraph,
    plan: &'a Plan,
    /// How a resident launch finds and bills each argmax.
    scan: Scan<'a>,
    /// Retire vertices whose neighborhoods are exhausted.
    retire: bool,
    comm: CommPolicy,
}

/// One device's share of a pointing phase: its slices of the run's
/// arrays, borrowed disjointly, its buffers, and its timeline. The
/// [`DeviceCtx`] bills every copy, kernel and sync the task issues.
struct DeviceTask<'a> {
    part: VertexRange,
    walk: &'a Walk,
    /// The SoA availability lane of the whole graph.
    avail: &'a [u8],
    /// Frontier worklist of this device (ascending, inside `part`), when
    /// the optimized mode restricts the launch; `None` scans every live
    /// vertex.
    frontier: Option<&'a [VertexId]>,
    /// This device's live list (ascending, inside `part`): its vertices
    /// that are neither matched nor retired.
    live: &'a [VertexId],
    pointers: &'a mut [u64],
    retired: &'a mut [u8],
    /// This device's slice of the streaming residency lane:
    /// `resident[i]` counts how many leading bands of vertex
    /// `part.start + i` are still held on-device from the previous
    /// iteration (empty outside streaming mode).
    resident: &'a mut [u8],
    bufs: &'a mut DeviceBufs,
    ctx: DeviceCtx,
}

/// What a device reports back after its pointing phase (its billing stays
/// inside the task's [`DeviceCtx`]).
#[derive(Default)]
struct DeviceReport {
    /// Every launch's result, merged.
    point: PointingResult,
    batches_skipped: u64,
    occ_weighted: f64,
    occ_weight: f64,
    /// Streaming: prefetch copy time that ran under band kernels vs.
    /// time the compute stream sat waiting on the copy.
    prefetch_hidden: f64,
    prefetch_exposed: f64,
}

impl DeviceReport {
    /// Fold one SETPOINTERS launch, billed as `launch`, into the report.
    fn record(&mut self, res: &PointingResult, launch: &KernelLaunch) {
        self.point.merge(res);
        self.occ_weighted += launch.occupancy * res.stats.warps_launched as f64;
        self.occ_weight += res.stats.warps_launched as f64;
    }
}

/// One pointing phase (Algorithm 2 lines 3–6): every device walks its
/// batches or bands in parallel, on its own timeline.
fn point_devices(
    cx: &PointCtx<'_>,
    rt: &mut SimRuntime,
    scratch: &mut Scratch,
    pointers: &mut [u64],
    retired: &mut [u8],
    frontier_round: bool,
) -> Vec<DeviceReport> {
    let Scratch { avail, live, frontiers, devices, resident, .. } = scratch;
    let mut tasks = Vec::with_capacity(devices.len());
    let (mut ptr_rest, mut ret_rest, mut res_rest) = (pointers, retired, &mut resident[..]);
    let per_device = cx.plan.partition.parts.iter().zip(&cx.plan.walks);
    let per_device = per_device.zip(rt.detach_devices()).zip(devices.iter_mut());
    for (d, (((part, walk), ctx), bufs)) in per_device.enumerate() {
        let len = part.num_vertices();
        let (ptr_here, ptr_next) = std::mem::take(&mut ptr_rest).split_at_mut(len);
        let (ret_here, ret_next) = std::mem::take(&mut ret_rest).split_at_mut(len);
        // The residency lane is sized only in streaming mode; otherwise
        // every device gets an empty slice.
        let res_len = len.min(res_rest.len());
        let (res_here, res_next) = std::mem::take(&mut res_rest).split_at_mut(res_len);
        (ptr_rest, ret_rest, res_rest) = (ptr_next, ret_next, res_next);
        bufs.chunks.clear();
        tasks.push(DeviceTask {
            part: *part,
            walk,
            avail,
            frontier: frontier_round.then(|| frontiers[d].as_slice()),
            live: &live[d],
            pointers: ptr_here,
            retired: ret_here,
            resident: res_here,
            bufs,
            ctx,
        });
    }
    let results: Vec<(DeviceCtx, DeviceReport)> = tasks
        .into_par_iter()
        .map(|mut task| {
            let walk = task.walk;
            let rep = match walk {
                Walk::Batches(batches) => batch_pointing(cx, batches, &mut task),
                Walk::Bands(plan, sorted) => stream_pointing(cx, plan, sorted, &mut task),
            };
            (task.ctx, rep)
        })
        .collect();
    let (ctxs, reports) = results.into_iter().unzip();
    rt.attach_devices(ctxs);
    reports
}

/// One device's resident pointing phase: walk its batches in order, each
/// loaded into stream buffer `b mod 2` while the previous batch's kernel
/// runs on the other one.
fn batch_pointing(
    cx: &PointCtx<'_>,
    batches: &[VertexRange],
    task: &mut DeviceTask<'_>,
) -> DeviceReport {
    let mut rep = DeviceReport::default();
    let nb = batches.len();
    for (b, brange) in batches.iter().enumerate() {
        // Frontier rounds restrict the launch to the batch's slice of the
        // device worklist. An empty batch (more requested batches than
        // partition vertices) or one with no frontier vertex is skipped
        // outright: no copy, no launch, no sync, and nothing to reduce (a
        // frontier round's reductions are sparse).
        let work: Option<&[VertexId]> = task.frontier.map(|f| {
            let lo = f.partition_point(|&u| u < brange.start);
            let hi = f.partition_point(|&u| u < brange.end);
            &f[lo..hi]
        });
        if brange.num_vertices() == 0 || work.is_some_and(<[VertexId]>::is_empty) {
            rep.batches_skipped += 1;
            continue;
        }
        // Async load into buffer b mod 2 (double buffer). With ≤ 2
        // batches both stay resident in the buffers: their initial load is
        // the host-device partition transfer the paper excludes from
        // timings. Beyond two batches the buffers are re-streamed every
        // iteration, which is billed.
        if nb > 2 {
            let bytes = memory::batch_buffer_bytes(brange);
            let label = task.ctx.label("copy", || format!("copy b{b}"));
            task.ctx.h2d_copy(b, bytes, label);
        }
        // Execute SETPOINTERS for real on the batch's sub-slice of this
        // device's pointer range. Compacted launches derive their own warp
        // width from the worklist length, like the incremental engine;
        // full launches walk the batch's slice of the live list.
        let lo = (brange.start - task.part.start) as usize;
        let hi = (brange.end - task.part.start) as usize;
        let (pw, vpw) = match work {
            Some(w) => (PointingWork::Worklist(w), w.len().div_ceil(cx.plan.slots).max(1)),
            None => {
                let lo = task.live.partition_point(|&u| u < brange.start);
                let hi = task.live.partition_point(|&u| u < brange.end);
                (PointingWork::Live(&task.live[lo..hi]), cx.plan.vpw)
            }
        };
        let res = set_pointers_scan(
            cx.g,
            cx.scan,
            brange,
            pw,
            task.avail,
            &mut task.pointers[lo..hi],
            &mut task.retired[lo..hi],
            vpw,
            cx.retire,
        );
        let label = task.ctx.label("point", || format!("point b{b}"));
        let launch = task.ctx.launch_kernel(Some(b), label, &res.stats);
        rep.record(&res, &launch);
        // This batch's slice of the pointer reduction is ready the moment
        // its kernel retires (early per-device reduce-scatter).
        let (vertices, written) = (brange.num_vertices() as u64, res.stats.vertices_processed);
        cx.comm.stage(&mut task.bufs.chunks, vertices, written, launch.end);
        // Paper §III-D: explicit host-device sync when more batches than
        // stream buffers.
        if nb > 2 {
            let label = task.ctx.label("sync", || format!("sync b{b}"));
            task.ctx.host_sync(label);
        }
    }
    rep
}

/// One device's out-of-core pointing phase: walk the rank bands of the
/// substream plan in preference order, prefetching band `b`'s
/// non-resident bytes on the copy stream while the kernel of band `b-1`
/// runs on the other stream buffer (`buf = band & 1`, the same
/// double-buffer cycle as the batch walk). A vertex leaves the band
/// worklist the moment it finds an available neighbor — the hit is the
/// full scan's argmax because bands tile the sorted order — so deeper
/// bands stream ever-shrinking worklists.
///
/// Residency: `task.resident[i]` counts the leading bands of vertex `i`
/// still held from the previous iteration. A band below the window that
/// is already resident bills zero copy bytes; scanning past the window
/// recycles the vertex's slots (its prefix must re-stream next time).
/// Prefetch accounting splits each copy's duration into the part that
/// ran under compute (`hidden`) and the part the compute stream spent
/// waiting on it (`exposed`).
fn stream_pointing(
    cx: &PointCtx<'_>,
    plan: &SubstreamPlan,
    sorted: &SortedAdjacency,
    task: &mut DeviceTask<'_>,
) -> DeviceReport {
    let mut rep = DeviceReport::default();
    let (g, layout, part) = (cx.g, &plan.layout, task.part);
    let DeviceBufs { chunks, band_work: work, band_next: next } = &mut *task.bufs;
    // Iteration worklist: the frontier when the optimized mode restricts
    // the launch, otherwise the device's live list. Degree-0 vertices can
    // never match and never enter.
    work.clear();
    next.clear();
    work.extend(task.frontier.unwrap_or(task.live).iter().copied().filter(|&u| g.degree(u) > 0));

    let mut ready = 0.0;
    let mut band = 0usize;
    while band < layout.num_bands() && !work.is_empty() {
        // Prefetch billing: only bytes not already resident travel. The
        // residency depth updates in the same pass — band data loaded
        // below the window is pinned for the next iteration, while
        // scanning past the window recycles the vertex's slots.
        let mut bytes = 0u64;
        for &u in work.iter() {
            let i = (u - part.start) as usize;
            if band >= task.resident[i] as usize {
                bytes += layout.vertex_band_bytes(g, u, band);
            }
            task.resident[i] = if band < plan.window { (band + 1).min(255) as u8 } else { 0 };
        }
        let copy = if bytes > 0 {
            let label = task.ctx.label("copy", || format!("stream s{band}"));
            Some(task.ctx.h2d_copy(band, bytes, label))
        } else {
            None
        };
        // Execute the band scan for real; worklist launches derive their
        // warp width from the (shrinking) worklist length.
        let vpw = work.len().div_ceil(cx.plan.slots).max(1);
        let res = set_pointers_band(
            g,
            sorted,
            layout,
            band,
            work,
            next,
            task.avail,
            task.pointers,
            task.retired,
            part.start,
            vpw,
            cx.retire,
        );
        let t0 = task.ctx.compute_done();
        let label = task.ctx.label("point", || format!("point s{band}"));
        let launch = task.ctx.launch_kernel(Some(band), label, &res.stats);
        if let Some((cs, ce)) = copy {
            let dur = ce - cs;
            let exposed = (launch.start - t0).clamp(0.0, dur);
            rep.prefetch_exposed += exposed;
            rep.prefetch_hidden += dur - exposed;
        }
        rep.record(&res, &launch);
        ready = launch.end;
        std::mem::swap(work, next);
        next.clear();
        band += 1;
    }
    // The device's whole slice of the pointer reduction is ready when its
    // last band kernel retires.
    let (vertices, written) = (part.num_vertices() as u64, rep.point.stats.vertices_processed);
    cx.comm.stage(chunks, vertices, written, ready);
    rep
}

/// Cluster placement: decide which parts share a node and measure the
/// inter-node cut. Billing-layer only — the reductions still span every
/// device and the matching is bit-identical under any placement; what
/// changes is how much of each collective payload the simulator sends
/// over the slow inter-node link.
fn place_parts(g: &CsrGraph, cfg: &LdGpuConfig, partition: &Partition, rt: &mut SimRuntime) {
    let Some(topo) = cfg.platform.cluster_topology() else {
        return;
    };
    let ndev = partition.parts.len();
    let nodes = topo.nodes_spanned(ndev);
    if nodes <= 1 {
        return;
    }
    let caps: Vec<usize> = (0..nodes).map(|node| topo.devices_on_node(node, ndev)).collect();
    let placement = if cfg.topology_placement {
        NodePlacement::topology_aware(g, partition, &caps)
    } else {
        NodePlacement::grouped(ndev, &caps)
    };
    let stats = cut_stats(g, partition, &placement);
    rt.gauge_set(names::PART_INTER_NODE_CUT, stats.cut_fraction());
    if cfg.topology_placement {
        // Only the boundary slice of the reduced arrays needs the leader
        // ring; ship that fraction inter-node.
        rt.gauge_set(names::PART_BOUNDARY_FRACTION, stats.boundary_fraction());
        rt.set_inter_cut(stats.boundary_fraction());
    }
}

impl LdGpu {
    /// Create a matcher from a configuration.
    pub fn new(cfg: LdGpuConfig) -> Self {
        LdGpu { cfg }
    }

    /// Run on `g`, panicking on an invalid or infeasible configuration.
    pub fn run(&self, g: &CsrGraph) -> LdGpuOutput {
        self.try_run(g).expect("LD-GPU configuration infeasible")
    }

    /// Run on `g`. The configuration is checked first
    /// ([`LdGpuConfig::validate`]).
    pub fn try_run(&self, g: &CsrGraph) -> Result<LdGpuOutput, LdGpuError> {
        let cfg = &self.cfg;
        cfg.validate()?;
        let n = g.num_vertices();
        let plan = Plan::new(g, cfg)?;
        let ndev = plan.partition.parts.len();
        let cx = PointCtx {
            g,
            plan: &plan,
            scan: if cfg.optimized { Scan::Ranked } else { Scan::Full },
            retire: cfg.retire_exhausted,
            comm: CommPolicy::new(cfg.overlap, cfg.optimized),
        };

        // Global device-resident arrays, and every reusable per-iteration
        // buffer in one arena for the whole run.
        let mut pointers: Vec<u64> = vec![NONE_SENTINEL; n];
        let mut mate: Vec<u64> = vec![NONE_SENTINEL; n];
        let mut retired: Vec<u8> = vec![0; n];
        let mut scratch = Scratch::new(n, &plan.partition.parts, cfg.streaming);

        let mut rt = SimRuntime::new(&cfg.platform, ndev)
            .with_kernel_overhead(cfg.kernel_overhead)
            .with_trace(cfg.collect_trace);
        place_parts(g, cfg, &plan.partition, &mut rt);

        // In the optimized mode the frontiers hold per-device worklists
        // once the first full iteration has run.
        let mut have_frontiers = false;
        let mut iterations = 0usize;
        let total_directed = g.num_directed_edges() as u64;
        let mut prefetch_hidden = 0.0f64;
        let mut prefetch_exposed = 0.0f64;

        loop {
            // ---- Pointing phase (Algorithm 2 lines 3-6) ----
            let reports = point_devices(
                &cx,
                &mut rt,
                &mut scratch,
                &mut pointers,
                &mut retired,
                have_frontiers,
            );
            let mut point = PointingResult::default();
            let mut occ_weighted = 0.0;
            let mut occ_weight = 0.0;
            let mut batches_skipped = 0u64;
            for r in &reports {
                point.merge(&r.point);
                occ_weighted += r.occ_weighted;
                occ_weight += r.occ_weight;
                prefetch_hidden += r.prefetch_hidden;
                prefetch_exposed += r.prefetch_exposed;
                batches_skipped += r.batches_skipped;
            }
            rt.counter_add(names::KERNEL_VERTICES_RETIRED, point.vertices_retired);
            rt.counter_add(names::KERNEL_POINTERS_SET, point.pointers_set);
            if cfg.optimized || cfg.streaming {
                rt.counter_add(names::OPT_EDGES_SKIPPED, point.edges_skipped);
            }
            // Batch skips also happen outside optimized mode (empty
            // batches when the plan has more batches than a partition has
            // vertices), so the counter is emitted whenever it fired.
            if cfg.optimized || batches_skipped > 0 {
                rt.counter_add(names::OPT_BATCHES_SKIPPED, batches_skipped);
            }

            if point.pointers_set == 0 {
                break; // no available edges anywhere: matching is maximal
            }
            iterations += 1;

            // ---- AllReduce pointers (line 7) ----
            let Scratch { avail, live, frontiers, devices, comm_staging, resident } = &mut scratch;
            comm_staging.clear();
            comm_staging.extend(devices.iter().flat_map(|b| b.chunks.iter().copied()));
            let written = point.stats.vertices_processed;
            cx.comm.reduce_pointers(&mut rt, n as u64, written, comm_staging);

            // ---- Matching phase: SETMATES (line 8) ----
            // The host pass walks the live lists only, dropping the
            // vertices that matched or retired and, in frontier mode,
            // refilling the frontiers (see below).
            let (mstats, new_matches) = set_mates_live(
                &pointers,
                &retired,
                &plan.partition.parts,
                live,
                cfg.optimized.then_some(&mut frontiers[..]),
                &mut mate,
                avail,
            );
            rt.counter_add(names::MATCHING_EDGES_COMMITTED, new_matches);
            rt.global_kernel("setmates", &mstats);

            // Streaming residency: vertices that just left the live set
            // (matched by this SETMATES, or retired as exhausted) release
            // their pinned window bands.
            if cfg.streaming {
                let mut evicted = 0u64;
                for (i, r) in resident.iter_mut().enumerate() {
                    if *r != 0 && (avail[i] == 0 || retired[i] != 0) {
                        *r = 0;
                        evicted += 1;
                    }
                }
                rt.counter_add(names::MEM_EVICTIONS, evicted);
            }

            // ---- AllReduce mate (line 9) ----
            cx.comm.reduce_mates(&mut rt, n as u64, 2 * new_matches);

            // Runtime-level livelock invariant: an iteration that set
            // pointers must commit at least one edge (two locally-dominant
            // endpoints point at each other under the canonical total
            // order), or the driver would re-derive the same pointers
            // forever.
            rt.assert_progress(new_matches, "SETMATES after a pointer-setting round");

            let occ = if occ_weight > 0.0 { occ_weighted / occ_weight } else { 0.0 };
            rt.push_iteration(IterationRecord::from_stats(
                iterations - 1,
                &point.stats,
                total_directed,
                occ,
                new_matches,
            ));

            // Cross-iteration frontier: the only vertices whose pointers
            // went stale are those whose target was matched away by this
            // SETMATES; everyone else still points at their best available
            // neighbor. The compaction rides on SETMATES' full mate +
            // pointer read (one worklist append per stale vertex, made by
            // the live-list pass above), so it adds no billed launch. An
            // empty frontier is a fixed point: any remaining available
            // edge's maximum would be a mutual pair and would already have
            // been committed.
            if cfg.optimized {
                let total: usize = frontiers.iter().map(Vec::len).sum();
                have_frontiers = true;
                rt.observe(names::OPT_FRONTIER_SIZE, total as f64);
                if total == 0 {
                    break; // fixed point: skip the default mode's confirming scan
                }
            }

            // Auto-tuner probes: stop after the configured number of
            // iterations — the partial run's simulated time is the
            // probe's score; the matching is simply not maximal yet.
            if cfg.probe_iterations.is_some_and(|k| iterations >= k) {
                break;
            }
        }

        rt.counter_add(names::DRIVER_ITERATIONS, iterations as u64);
        rt.gauge_set(names::DRIVER_BATCHES, plan.batches as f64);
        if let Some(high_water) = plan.resident_bytes {
            rt.gauge_set(names::MEM_RESIDENT_BYTES, high_water as f64);
            rt.gauge_set(names::COPY_PREFETCH_HIDDEN_TIME, prefetch_hidden);
            rt.gauge_set(names::COPY_PREFETCH_EXPOSED_TIME, prefetch_exposed);
        }
        let fin = rt.finish();

        let mut matching = Matching::new(n);
        for (u, &v) in mate.iter().enumerate() {
            if v != NONE_SENTINEL && (u as u64) < v {
                matching.join(u as VertexId, v as VertexId);
            }
        }
        Ok(LdGpuOutput {
            matching,
            iterations,
            sim_time: fin.sim_time,
            profile: fin.profile,
            devices: ndev,
            batches: plan.batches,
            trace: fin.trace,
            metrics: fin.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ld_seq::ld_seq;
    use crate::verify::half_approx_certificate;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::{rmat, urand, RmatParams};

    fn dgx() -> Platform {
        Platform::dgx_a100()
    }

    #[test]
    fn single_device_matches_ld_seq() {
        for seed in 0..3 {
            let g = urand(500, 3000, seed);
            let out = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
            let seq = ld_seq(&g);
            assert_eq!(out.matching.mate_array(), seq.mate_array(), "seed {seed}");
            assert_eq!(out.matching.verify(&g), Ok(()));
        }
    }

    #[test]
    fn multi_device_identical_to_ld_seq() {
        let g = rmat(1024, 8000, RmatParams::GAP_KRON, 5);
        let seq = ld_seq(&g);
        for ndev in [2, 3, 4, 8] {
            let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(ndev)).run(&g);
            assert_eq!(out.matching.mate_array(), seq.mate_array(), "{ndev} devices");
            assert_eq!(out.devices, ndev);
        }
    }

    #[test]
    fn batching_does_not_change_result() {
        let g = urand(800, 6400, 9);
        let seq = ld_seq(&g);
        for nb in [1, 2, 3, 5, 10] {
            let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(2).batches(nb)).run(&g);
            assert_eq!(out.matching.mate_array(), seq.mate_array(), "{nb} batches");
            assert_eq!(out.batches, nb);
        }
    }

    #[test]
    fn maximal_certified_and_profiled() {
        let g = rmat(2048, 20_000, RmatParams::SOCIAL, 2);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(4)).run(&g);
        assert!(out.matching.is_maximal(&g));
        assert!(half_approx_certificate(&g, &out.matching));
        assert!(out.sim_time > 0.0);
        assert_eq!(out.profile.iterations.len(), out.iterations);
        assert!(out.profile.phases.total() > 0.0);
        // First iteration scans the most edges.
        let first = out.profile.iterations[0].edges_scanned;
        for r in &out.profile.iterations[1..] {
            assert!(r.edges_scanned <= first);
        }
    }

    #[test]
    fn metrics_track_real_work() {
        let g = urand(900, 7000, 11);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(4)).run(&g);
        let m = &out.metrics;
        // Edge scans: at least one full pass over the directed adjacency.
        assert!(m.counter("kernel.edges_scanned") >= g.num_directed_edges() as u64);
        // Every matched edge was committed exactly once.
        assert_eq!(m.counter("matching.edges_committed"), out.matching.cardinality() as u64);
        // Two collectives per iteration.
        assert_eq!(m.counter("comm.allreduce_calls"), 2 * out.iterations as u64);
        assert!(m.counter("comm.collective_bytes") > 0);
        // Pointers set >= matches committed * 2 (mutual pairs).
        assert!(m.counter("kernel.pointers_set") >= 2 * m.counter("matching.edges_committed"));
        assert_eq!(m.counter("driver.iterations"), out.iterations as u64);
        let occ = m.gauge("kernel.occupancy").unwrap();
        assert!((0.0..=1.0).contains(&occ));
        assert_eq!(m.gauge("driver.devices"), Some(4.0));
    }

    #[test]
    fn retirement_metric_matches_config() {
        let g = urand(700, 3500, 12);
        let on = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
        assert!(on.metrics.counter("kernel.vertices_retired") > 0);
        let cfg = LdGpuConfig { retire_exhausted: false, ..LdGpuConfig::new(dgx()) };
        let off = LdGpu::new(cfg).run(&g);
        assert_eq!(off.metrics.counter("kernel.vertices_retired"), 0);
    }

    #[test]
    fn single_device_has_no_wire_traffic() {
        let g = urand(300, 1200, 13);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(1)).run(&g);
        assert_eq!(out.metrics.counter("comm.collective_bytes"), 0);
        assert_eq!(out.metrics.counter("comm.allreduce_calls"), 2 * out.iterations as u64);
    }

    #[test]
    fn tight_memory_forces_batches() {
        let g = urand(2000, 30_000, 3);
        // Shrink device memory to ~1/3 of the single-batch footprint.
        let part = Partition::edge_balanced(&g, 1);
        let single = memory::device_footprint_bytes(
            &batch::make_batches(&g, &part.parts[0], 1),
            g.num_vertices(),
        );
        let platform = dgx().with_device_memory(single * 2 / 5);
        let out = LdGpu::new(LdGpuConfig::new(platform)).run(&g);
        assert!(out.batches > 1, "expected batching, got {}", out.batches);
        assert_eq!(out.matching.mate_array(), ld_seq(&g).mate_array());
    }

    #[test]
    fn infeasible_memory_errors() {
        let g = urand(1000, 5000, 4);
        // Global arrays alone exceed memory.
        let platform = dgx().with_device_memory(100);
        let err = LdGpu::new(LdGpuConfig::new(platform)).try_run(&g).unwrap_err();
        assert!(matches!(err, LdGpuError::OutOfMemory { .. }));
    }

    #[test]
    fn explicit_batch_plan_too_large_errors() {
        let g = urand(1000, 20_000, 5);
        let part = Partition::edge_balanced(&g, 1);
        let single = memory::device_footprint_bytes(
            &batch::make_batches(&g, &part.parts[0], 1),
            g.num_vertices(),
        );
        let platform = dgx().with_device_memory(single / 2);
        let err = LdGpu::new(LdGpuConfig::new(platform).batches(1)).try_run(&g).unwrap_err();
        assert!(matches!(err, LdGpuError::BatchPlanTooLarge { .. }));
    }

    #[test]
    fn invalid_configs_are_rejected_before_planning() {
        let g = urand(200, 800, 8);
        let mut no_gpus = dgx();
        no_gpus.max_devices = 0;
        let mut no_sms = dgx();
        no_sms.device.sm_count = 0;
        let mut no_warps = dgx();
        no_warps.device.max_warps_per_sm = 0;
        let cfgs = [
            LdGpuConfig::new(no_gpus),
            LdGpuConfig::new(no_sms),
            LdGpuConfig::new(no_warps),
            LdGpuConfig::new(dgx()).devices(0),
            LdGpuConfig::new(dgx()).batches(0),
        ];
        for cfg in cfgs {
            let err = LdGpu::new(cfg).try_run(&g).unwrap_err();
            assert!(matches!(err, LdGpuError::InvalidConfig(_)), "{err:?}");
        }
    }

    #[test]
    fn more_devices_do_not_increase_iterations() {
        let g = urand(1500, 12_000, 6);
        let a = LdGpu::new(LdGpuConfig::new(dgx()).devices(1)).run(&g);
        let b = LdGpu::new(LdGpuConfig::new(dgx()).devices(8)).run(&g);
        assert_eq!(a.iterations, b.iterations, "iteration count is algorithm-determined");
    }

    #[test]
    fn devices_clamped_to_platform() {
        let g = urand(200, 800, 7);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(64)).run(&g);
        assert_eq!(out.devices, 8);
    }

    #[test]
    fn empty_graph_terminates_immediately() {
        let g = CsrGraph::empty(100);
        let out = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.matching.cardinality(), 0);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use ldgm_gpusim::{EventKind, Platform};
    use ldgm_graph::gen::urand;

    #[test]
    fn trace_records_expected_event_kinds() {
        let g = urand(800, 6400, 1);
        let out =
            LdGpu::new(LdGpuConfig::new(Platform::dgx_a100()).devices(2).batches(4).with_trace())
                .run(&g);
        let trace = out.trace.expect("trace requested");
        let kinds: Vec<EventKind> =
            [EventKind::H2dCopy, EventKind::Kernel, EventKind::Collective, EventKind::HostSync]
                .into_iter()
                .filter(|k| trace.events.iter().any(|e| e.kind == *k))
                .collect();
        assert_eq!(kinds.len(), 4, "4-batch run must exercise every event kind");
        // Two collectives per iteration, recorded once per device.
        let collectives = trace.events.iter().filter(|e| e.kind == EventKind::Collective).count();
        assert_eq!(collectives, 2 * out.iterations * out.devices);
        // The trace horizon matches the simulated time.
        let (_, hi) = trace.span().unwrap();
        assert!((hi - out.sim_time).abs() < 1e-12);
        // Gantt rendering works on real traces.
        assert!(trace.render_gantt(80).contains("dev0"));
    }

    #[test]
    fn trace_off_by_default() {
        let g = urand(100, 400, 2);
        let out = LdGpu::new(LdGpuConfig::new(Platform::dgx_a100())).run(&g);
        assert!(out.trace.is_none());
    }
}

#[cfg(test)]
mod opt_tests {
    use super::*;
    use crate::ld_seq::ld_seq;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::{rmat, urand, RmatParams};
    use ldgm_graph::GraphBuilder;

    fn dgx() -> Platform {
        Platform::dgx_a100()
    }

    #[test]
    fn every_toggle_combination_matches_ld_seq() {
        let g = rmat(512, 4000, RmatParams::GAP_KRON, 21);
        let seq = ld_seq(&g);
        for (opt, overlap) in [(false, false), (true, false), (false, true), (true, true)] {
            for ndev in [1, 4] {
                let cfg = LdGpuConfig { optimized: opt, ..LdGpuConfig::new(dgx()) };
                let out = LdGpu::new(cfg.devices(ndev).with_overlap(overlap)).run(&g);
                assert_eq!(
                    out.matching.mate_array(),
                    seq.mate_array(),
                    "opt {opt}, overlap {overlap}, {ndev} devices"
                );
            }
        }
    }

    #[test]
    fn opt_iteration_count_matches_default() {
        let g = urand(700, 4200, 22);
        let def = LdGpu::new(LdGpuConfig::new(dgx()).devices(2)).run(&g);
        let opt = LdGpu::new(LdGpuConfig::new(dgx()).devices(2).optimized()).run(&g);
        assert_eq!(opt.iterations, def.iterations);
        assert_eq!(opt.matching.mate_array(), def.matching.mate_array());
    }

    #[test]
    fn opt_reduces_simulated_time_and_work() {
        let g = rmat(4096, 40_000, RmatParams::SOCIAL, 23);
        let def = LdGpu::new(LdGpuConfig::new(dgx()).devices(4)).run(&g);
        let opt = LdGpu::new(LdGpuConfig::new(dgx()).devices(4).optimized()).run(&g);
        assert_eq!(opt.matching.mate_array(), def.matching.mate_array());
        assert!(opt.sim_time < def.sim_time, "opt {} vs default {}", opt.sim_time, def.sim_time);
        assert!(
            opt.metrics.counter("kernel.edges_scanned")
                < def.metrics.counter("kernel.edges_scanned")
        );
        assert!(
            opt.metrics.counter("comm.collective_bytes")
                < def.metrics.counter("comm.collective_bytes")
        );
        assert_eq!(
            opt.metrics.counter("comm.allreduce_calls"),
            def.metrics.counter("comm.allreduce_calls"),
            "same number of collectives, smaller payloads"
        );
        assert!(opt.metrics.counter("opt.edges_skipped") > 0, "hubs exceed one wave");
    }

    #[test]
    fn default_metrics_carry_no_opt_counters() {
        let g = urand(300, 1200, 24);
        let def = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
        assert_eq!(def.metrics.counter("opt.edges_skipped"), 0);
        assert_eq!(def.metrics.counter("opt.batches_skipped"), 0);
    }

    #[test]
    fn frontier_vertex_reenters_twice() {
        // u's target is matched away in two consecutive SETMATES rounds:
        // it0 commits x-p and r-s; it1 re-points {u,q} and commits y-q;
        // it2 re-points {u} alone and commits u-z.
        let (u, x, y, z, p, q, r, s) = (0u32, 1, 2, 3, 4, 5, 6, 7);
        let g = GraphBuilder::new(8)
            .add_edge(u, x, 5.0)
            .add_edge(u, y, 4.0)
            .add_edge(u, z, 3.0)
            .add_edge(x, p, 9.5)
            .add_edge(y, q, 8.0)
            .add_edge(q, r, 9.0)
            .add_edge(r, s, 10.0)
            .build();
        let seq = ld_seq(&g);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).optimized()).run(&g);
        assert_eq!(out.iterations, 3);
        assert_eq!(out.matching.cardinality(), 4);
        assert_eq!(out.matching.mate_array(), seq.mate_array());
        let def = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
        assert_eq!(def.iterations, 3);
        assert_eq!(def.matching.mate_array(), out.matching.mate_array());
    }

    #[test]
    fn frontier_vertex_with_matched_target_retires() {
        // Path a-b-c: it0 commits b-c; a's pointer target is matched away,
        // a re-enters the frontier, finds nothing available, and retires.
        // (A *pointed-at* vertex can never retire while an available vertex
        // points at it — the pointing vertex is its available neighbor —
        // so the realizable edge case is the pointing side retiring.)
        let g = GraphBuilder::new(3).add_edge(0, 1, 1.0).add_edge(1, 2, 5.0).build();
        let out = LdGpu::new(LdGpuConfig::new(dgx()).optimized()).run(&g);
        let def = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
        assert_eq!(out.matching.mate_array(), def.matching.mate_array());
        assert_eq!(out.iterations, def.iterations);
        assert_eq!(out.metrics.counter("kernel.vertices_retired"), 1, "vertex 0 retires");
        assert_eq!(def.metrics.counter("kernel.vertices_retired"), 1);
    }

    #[test]
    fn empty_frontier_terminates_without_confirming_scan() {
        // Single edge: everything matches in it0. The frontier mode sees an
        // empty worklist and stops; the default pays one more full scan to
        // observe pointers_set == 0. Same matching, same iteration count,
        // strictly less simulated time.
        let g = GraphBuilder::new(2).add_edge(0, 1, 7.0).build();
        let opt = LdGpu::new(LdGpuConfig::new(dgx()).optimized()).run(&g);
        let def = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
        assert_eq!(opt.iterations, 1);
        assert_eq!(def.iterations, 1);
        assert_eq!(opt.matching.mate_array(), def.matching.mate_array());
        assert!(opt.sim_time < def.sim_time, "opt {} vs default {}", opt.sim_time, def.sim_time);
    }

    #[test]
    fn frontier_skips_empty_batches() {
        // Many batches, tiny late-round frontier: most batch launches are
        // skipped outright and the counter records it.
        let g = rmat(1024, 8000, RmatParams::GAP_KRON, 25);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).batches(6).optimized()).run(&g);
        let def = LdGpu::new(LdGpuConfig::new(dgx()).batches(6)).run(&g);
        assert_eq!(out.matching.mate_array(), def.matching.mate_array());
        assert!(out.iterations > 1, "need a frontier round to exercise skipping");
        assert!(out.metrics.counter("opt.batches_skipped") > 0);
    }

    #[test]
    fn default_mode_skips_empty_batches() {
        // 8 batches over a 5-vertex partition: the trailing batch ranges
        // are necessarily empty. They used to bill an h2d copy + host
        // sync each; now they are skipped outright and counted.
        let g = urand(5, 10, 41);
        let seq = ld_seq(&g);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).batches(8)).run(&g);
        assert_eq!(out.matching.mate_array(), seq.mate_array());
        assert!(
            out.metrics.counter("opt.batches_skipped") >= 3,
            "at most 5 of 8 batch ranges can be non-empty"
        );
    }

    #[test]
    fn opt_with_retirement_disabled_matches_default() {
        let g = urand(600, 3600, 27);
        let mk = |opt: bool| {
            let mut cfg = LdGpuConfig::new(dgx()).devices(2);
            cfg.retire_exhausted = false;
            if opt {
                cfg = cfg.optimized();
            }
            LdGpu::new(cfg).run(&g)
        };
        let def = mk(false);
        let opt = mk(true);
        assert_eq!(opt.matching.mate_array(), def.matching.mate_array());
        assert_eq!(opt.iterations, def.iterations);
    }
}

#[cfg(test)]
mod overlap_tests {
    use super::*;
    use crate::ld_seq::ld_seq;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::{rmat, urand, RmatParams};
    use ldgm_graph::GraphBuilder;

    fn dgx() -> Platform {
        Platform::dgx_a100()
    }

    /// A hub graph edge-balanced partitioning cannot balance: vertex 0
    /// carries `leaves` edges that all land on device 0, so its pointing
    /// kernel runs long after every other device has drained.
    fn hub_graph(leaves: u32) -> ldgm_graph::csr::CsrGraph {
        let mut b = GraphBuilder::new(leaves as usize + 1);
        for v in 1..=leaves {
            b = b.add_edge(0, v, 1.0 + (v % 97) as f64);
        }
        b.build()
    }

    #[test]
    fn overlap_matches_ld_seq_across_devices() {
        let g = rmat(1024, 8000, RmatParams::GAP_KRON, 31);
        let seq = ld_seq(&g);
        for ndev in [1, 2, 4, 8] {
            let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(ndev).with_overlap(true)).run(&g);
            assert_eq!(out.matching.mate_array(), seq.mate_array(), "{ndev} devices");
        }
    }

    #[test]
    fn overlap_hides_communication_under_imbalance() {
        // The hub warp scans 1M edges serially (~500 µs straggler), far
        // past the chunked-op chain (~100 µs of NCCL launch+latency), so
        // the leaf-device slices reduce entirely under the hub kernel and
        // only the hub's own tiny slice stays exposed.
        let g = hub_graph(1_000_000);
        let ser = LdGpu::new(LdGpuConfig::new(dgx()).devices(4)).run(&g);
        let ovl = LdGpu::new(LdGpuConfig::new(dgx()).devices(4).with_overlap(true)).run(&g);
        assert_eq!(ovl.matching.mate_array(), ser.matching.mate_array());
        assert_eq!(ovl.iterations, ser.iterations);
        // Same wire traffic either way; only its placement changes.
        assert_eq!(
            ovl.metrics.counter("comm.collective_bytes"),
            ser.metrics.counter("comm.collective_bytes")
        );
        let e_ser = ser.metrics.gauge("comm.exposed_time").unwrap();
        let e_ovl = ovl.metrics.gauge("comm.exposed_time").unwrap();
        assert!(e_ovl < e_ser, "exposed {e_ovl} vs serialized {e_ser}");
        assert!(ovl.metrics.gauge("comm.hidden_time").unwrap() > 0.0);
        assert_eq!(ser.metrics.gauge("comm.hidden_time"), Some(0.0));
        assert!(ovl.sim_time < ser.sim_time, "ovl {} vs ser {}", ovl.sim_time, ser.sim_time);
    }

    #[test]
    fn overlap_composes_with_opt_toggles() {
        let g = hub_graph(2000);
        let seq = ld_seq(&g);
        let ovl =
            LdGpu::new(LdGpuConfig::new(dgx()).devices(4).optimized().with_overlap(true)).run(&g);
        assert_eq!(ovl.matching.mate_array(), seq.mate_array());
        let occ = ovl.metrics.gauge("stream.occupancy").unwrap();
        assert!((0.0..=1.0).contains(&occ), "occupancy {occ}");
    }

    #[test]
    fn overlap_single_device_keeps_invariants() {
        let g = urand(500, 3000, 33);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(1).with_overlap(true)).run(&g);
        assert_eq!(out.matching.mate_array(), ld_seq(&g).mate_array());
        assert_eq!(out.metrics.counter("comm.collective_bytes"), 0);
        assert!((out.profile.phases.total() - out.sim_time).abs() <= 1e-9 * out.sim_time.max(1.0));
    }

    #[test]
    fn overlap_preserves_phase_accounting() {
        let g = hub_graph(3000);
        let out =
            LdGpu::new(LdGpuConfig::new(dgx()).devices(4).with_overlap(true).with_trace()).run(&g);
        assert!((out.profile.phases.total() - out.sim_time).abs() <= 1e-9 * out.sim_time.max(1.0));
        let trace = out.trace.expect("trace requested");
        let (_, hi) = trace.span().unwrap();
        assert!((hi - out.sim_time).abs() < 1e-12);
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use crate::ld_seq::ld_seq;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::{rmat, urand, RmatParams};
    use ldgm_graph::BandLayout;

    fn dgx() -> Platform {
        Platform::dgx_a100()
    }

    #[test]
    fn streaming_matches_ld_seq_across_windows_and_devices() {
        let g = rmat(1024, 8000, RmatParams::GAP_KRON, 51);
        let seq = ld_seq(&g);
        for ndev in [1, 2, 4] {
            for w in [2, 3, 8] {
                let cfg = LdGpuConfig::new(dgx())
                    .devices(ndev)
                    .with_streaming(true)
                    .with_stream_window(w);
                let out = LdGpu::new(cfg).run(&g);
                assert_eq!(
                    out.matching.mate_array(),
                    seq.mate_array(),
                    "{ndev} devices, window {w}"
                );
            }
        }
    }

    #[test]
    fn tight_budget_streams_many_bands_bit_identically() {
        let g = urand(500, 5000, 52);
        let seq = ld_seq(&g);
        // Just above the narrowest feasible pipeline: single-rank bands.
        let narrowest = BandLayout::new(&g, 0, 500, 1).band_bytes(&g, 0);
        let budget = memory::global_state_bytes(500) + 2 * narrowest + 1024;
        let cfg = LdGpuConfig::new(dgx()).with_streaming(true).with_mem_budget(budget);
        let out = LdGpu::new(cfg).run(&g);
        assert_eq!(out.matching.mate_array(), seq.mate_array());
        assert!(out.batches > 1, "tight budget must force multiple bands, got {}", out.batches);
        assert!(out.metrics.counter(names::MEM_EVICTIONS) > 0, "matched vertices must evict");
        let high_water = out.metrics.gauge(names::MEM_RESIDENT_BYTES).unwrap();
        assert!(high_water <= budget as f64, "residency {high_water} over budget {budget}");
    }

    #[test]
    fn streaming_completes_where_whole_graph_refuses() {
        let g = urand(2000, 30_000, 53);
        // ~40% of the single-batch footprint: the whole-graph plan
        // refuses, streaming finishes with the same matching.
        let part = Partition::edge_balanced(&g, 1);
        let single =
            memory::device_footprint_bytes(&batch::make_batches(&g, &part.parts[0], 1), 2000);
        let platform = dgx().with_device_memory(single * 2 / 5);
        let err =
            LdGpu::new(LdGpuConfig::new(platform.clone()).batches(1)).try_run(&g).unwrap_err();
        assert!(matches!(err, LdGpuError::BatchPlanTooLarge { .. }));
        let out = LdGpu::new(LdGpuConfig::new(platform).with_streaming(true)).run(&g);
        assert_eq!(out.matching.mate_array(), ld_seq(&g).mate_array());
    }

    #[test]
    fn streaming_refuses_impossible_budget() {
        let g = urand(500, 3000, 54);
        let cfg = LdGpuConfig::new(dgx()).with_streaming(true).with_mem_budget(100);
        let err = LdGpu::new(cfg).try_run(&g).unwrap_err();
        assert!(matches!(err, LdGpuError::StreamPlanTooLarge { window: 2, .. }), "{err:?}");
        assert!(err.to_string().contains("streaming window"));
    }

    #[test]
    fn streaming_composes_with_opt_and_overlap() {
        let g = rmat(512, 4000, RmatParams::GAP_KRON, 55);
        let seq = ld_seq(&g);
        for (opt, overlap) in [(false, false), (true, false), (false, true), (true, true)] {
            let cfg = LdGpuConfig { optimized: opt, ..LdGpuConfig::new(dgx()) };
            let cfg = cfg.devices(2).with_streaming(true).with_overlap(overlap);
            let out = LdGpu::new(cfg).run(&g);
            assert_eq!(out.matching.mate_array(), seq.mate_array(), "opt {opt}, overlap {overlap}");
        }
    }

    #[test]
    fn prefetch_time_hides_behind_band_kernels() {
        // Heavy graph + tight budget: many bands stream per iteration, so
        // the copy of band b+1 runs under the kernel of band b and a
        // nonzero share of prefetch time must be hidden.
        let g = rmat(4096, 60_000, RmatParams::SOCIAL, 56);
        let n = g.num_vertices();
        let narrowest = BandLayout::new(&g, 0, n as u32, 1).band_bytes(&g, 0);
        let budget = memory::global_state_bytes(n) + 2 * narrowest + 4096;
        let cfg = LdGpuConfig::new(dgx()).with_streaming(true).with_mem_budget(budget);
        let out = LdGpu::new(cfg).run(&g);
        assert_eq!(out.matching.mate_array(), ld_seq(&g).mate_array());
        let hidden = out.metrics.gauge(names::COPY_PREFETCH_HIDDEN_TIME).unwrap();
        let exposed = out.metrics.gauge(names::COPY_PREFETCH_EXPOSED_TIME).unwrap();
        assert!(hidden > 0.0, "no prefetch time hidden (exposed {exposed})");
        assert!(exposed >= 0.0);
    }

    #[test]
    fn resident_window_cuts_second_iteration_copies() {
        // With everything resident (wide budget → one band), iterations
        // after the first re-bill nothing: total h2d traffic equals one
        // band-0 load, not one per iteration.
        let g = urand(800, 6400, 57);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).with_streaming(true).with_trace()).run(&g);
        assert!(out.iterations > 1, "need a multi-iteration run");
        assert_eq!(out.batches, 1, "wide budget should take one band");
        let trace = out.trace.expect("trace requested");
        let copies =
            trace.events.iter().filter(|e| e.kind == ldgm_gpusim::EventKind::H2dCopy).count();
        assert_eq!(copies, 1, "only the first iteration streams the resident band");
    }
}

#[cfg(test)]
mod cluster_tests {
    use super::*;
    use crate::ld_seq::ld_seq;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::{rmat, RmatParams};

    fn graph() -> CsrGraph {
        rmat(2048, 16_000, RmatParams::GAP_KRON, 17)
    }

    #[test]
    fn cluster_runs_match_single_node_and_ld_seq_bit_for_bit() {
        // The placement and the hierarchical schedule are billing-layer:
        // flat single-node, hierarchical cluster, and topology-aware
        // cluster runs all produce the same matching.
        let g = graph();
        let seq = ld_seq(&g);
        let cluster = Platform::dgx_a100_cluster(2);
        for cfg in [
            LdGpuConfig::new(Platform::dgx_a100()).devices(8),
            LdGpuConfig::new(cluster.clone()).devices(16),
            LdGpuConfig::new(cluster.clone()).devices(16).with_topology_placement(true),
            LdGpuConfig::new(cluster.clone().flattened()).devices(16),
        ] {
            let out = LdGpu::new(cfg).run(&g);
            assert_eq!(out.matching.mate_array(), seq.mate_array());
        }
    }

    #[test]
    fn hierarchical_collectives_beat_the_flattened_cluster() {
        let g = graph();
        let cluster = Platform::dgx_a100_cluster(2);
        let hier = LdGpu::new(LdGpuConfig::new(cluster.clone()).devices(16)).run(&g);
        let flat = LdGpu::new(LdGpuConfig::new(cluster.flattened()).devices(16)).run(&g);
        assert_eq!(hier.matching.mate_array(), flat.matching.mate_array());
        assert!(
            hier.sim_time <= flat.sim_time * (1.0 + 1e-12),
            "hierarchical {} vs flattened {}",
            hier.sim_time,
            flat.sim_time
        );
        assert_eq!(hier.metrics.gauge("cluster.nodes"), Some(2.0));
        assert!(hier.metrics.counter("comm.inter_node_bytes") > 0);
    }

    #[test]
    fn topology_placement_reduces_exposed_inter_node_time() {
        let g = graph();
        let cluster = Platform::dgx_a100_cluster(2);
        let hier = LdGpu::new(LdGpuConfig::new(cluster.clone()).devices(16)).run(&g);
        let aware =
            LdGpu::new(LdGpuConfig::new(cluster).devices(16).with_topology_placement(true)).run(&g);
        assert_eq!(aware.matching.mate_array(), hier.matching.mate_array());
        // The boundary fraction < 1 shrinks the leader-ring payload.
        let frac = aware.metrics.gauge("part.boundary_fraction").unwrap();
        assert!((0.0..=1.0).contains(&frac), "boundary fraction {frac}");
        let t_hier = hier.metrics.gauge("comm.inter_time").unwrap();
        let t_aware = aware.metrics.gauge("comm.inter_time").unwrap();
        assert!(t_aware <= t_hier * (1.0 + 1e-12), "aware {t_aware} vs hier {t_hier}");
        assert!(aware.sim_time <= hier.sim_time * (1.0 + 1e-12));
    }

    #[test]
    fn cluster_cut_gauges_are_fractions() {
        let g = graph();
        let out = LdGpu::new(
            LdGpuConfig::new(Platform::dgx_a100_cluster(2))
                .devices(16)
                .with_topology_placement(true),
        )
        .run(&g);
        let cut = out.metrics.gauge("part.inter_node_cut").unwrap();
        assert!((0.0..=1.0).contains(&cut), "cut {cut}");
        // Single-node prefixes of a cluster stay flat: no cluster gauges.
        let one = LdGpu::new(LdGpuConfig::new(Platform::dgx_a100_cluster(2)).devices(8)).run(&g);
        assert_eq!(one.metrics.gauge("part.inter_node_cut"), None);
        assert_eq!(one.metrics.counter("comm.inter_node_bytes"), 0);
    }
}
