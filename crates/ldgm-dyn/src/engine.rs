//! Frontier-restricted incremental LD engine.
//!
//! The repo-wide preference order ([`prefer`]: heavier weight, ties to the
//! lower vertex id) is *total* over edges, which makes the locally-dominant
//! matching of any graph unique — it equals the greedy matching taken in
//! preference order. That uniqueness is what makes incremental maintenance
//! well-defined: after a batch of updates there is exactly one correct
//! answer, the static-LD matching of the mutated snapshot, and this engine
//! converges to it by re-running the SETPOINTERS/SETMATES iteration
//! restricted to the vertices an update could have affected.
//!
//! The invariant maintained between batches: every live non-matched edge
//! has an endpoint whose matched edge is preferred over it. Updates break
//! the invariant only locally — at the endpoints of updated edges, their
//! mates, and neighbors for whom a deleted/outweighed matched edge was the
//! blocker — so those vertices seed the *frontier*. Each round, frontier
//! vertices point at their best *claimable* incident edge (one preferred
//! over both endpoints' current matched edges — a matched vertex can be
//! outbid), mutual pointers commit (unjoining any previous mates, whose
//! neighborhoods then wake), and unfulfilled claims carry the frontier into
//! the next round until it drains. The highest-ranked claimable edge
//! commits within two rounds, so termination follows the same argument as
//! the static solver's.
//!
//! Simulated cost is billed per round through [`ldgm_gpusim::SimRuntime`] —
//! pointing kernels sized by the frontier's scan work (each warp billed by
//! the static worklist launch's [`fill_warp_stats`]), the static driver's
//! [`CommPolicy`] with sparse collectives carrying only frontier entries
//! (16 bytes each: index + value), update uploads as H2D copies, and
//! compaction as a CSR reshard — so the speedup over from-scratch
//! recompute is directly measurable.

use std::sync::Arc;

use ldgm_core::ld_gpu::{fill_warp_stats, CommPolicy};
use ldgm_core::verify::half_approx_certificate;
use ldgm_core::{prefer, MatchError, Matching, UNMATCHED};
use ldgm_gpusim::metrics::names;
use ldgm_gpusim::{
    CommChunk, IterationRecord, KernelStats, MetricsRegistry, Platform, RunProfile, SimRuntime,
    Trace,
};
use ldgm_graph::csr::{CsrGraph, VertexId};

use crate::delta::{DynGraph, EdgeUpdate};

/// Configuration for the incremental engine.
#[derive(Clone, Debug)]
pub struct DynConfig {
    /// Simulated platform (device spec, interconnect, cost models).
    pub platform: Platform,
    /// Devices to bill against (vertex space split uniformly; at least 1,
    /// counts beyond `platform.max_devices` use every device).
    pub devices: usize,
    /// Delta-CSR compaction threshold as a fraction of base directed edges.
    pub compact_frac: f64,
    /// Communication/computation overlap: bill the sparse collectives as
    /// chunked operations on the comm stream — each device's frontier
    /// slice starts reducing when its pointing kernel retires. Billing
    /// only; the maintained matching is unchanged. Off by default.
    pub overlap: bool,
}

impl DynConfig {
    /// Defaults: 1 device, 25% compaction threshold.
    pub fn new(platform: Platform) -> Self {
        DynConfig { platform, devices: 1, compact_frac: 0.25, overlap: false }
    }

    /// Set the device count.
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = n;
        self
    }

    /// Set the compaction threshold fraction.
    pub fn compact_frac(mut self, frac: f64) -> Self {
        self.compact_frac = frac;
        self
    }

    /// Toggle communication/computation overlap (chunked collectives on
    /// the comm stream).
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Check every rule of the configuration and its platform
    /// ([`Platform::validate`], the rules the static driver's config
    /// checks too). The front ends
    /// ([`IncrementalMatcher`](crate::matcher::IncrementalMatcher) and
    /// `ldgm serve`) call this before building an engine;
    /// [`IncrementalLd::new`] stays infallible and runs a zero device
    /// count, or a platform without devices, on one device.
    pub fn validate(&self) -> Result<(), MatchError> {
        self.platform.validate().map_err(MatchError::InvalidConfig)?;
        if self.devices == 0 {
            return Err(MatchError::InvalidConfig("devices must be >= 1".to_string()));
        }
        if !(self.compact_frac.is_finite() && self.compact_frac > 0.0) {
            return Err(MatchError::InvalidConfig(format!(
                "compact_frac must be a positive finite fraction, got {}",
                self.compact_frac
            )));
        }
        Ok(())
    }
}

/// Per-batch maintenance summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchReport {
    /// 0-based batch index.
    pub batch: u64,
    /// Updates in the batch (including no-op deletes).
    pub updates: usize,
    /// Applied inserts/reweights.
    pub inserts: usize,
    /// Applied deletes of live edges.
    pub deletes: usize,
    /// Distinct vertices seeding the frontier.
    pub seed_frontier: usize,
    /// SETPOINTERS/SETMATES rounds until the frontier drained.
    pub rounds: u64,
    /// Edges newly committed to the matching.
    pub new_matches: u64,
    /// Previously matched edges broken (by deletion or by being outbid).
    pub broken_matches: u64,
    /// Simulated seconds this batch cost (upload + rounds + compaction).
    pub sim_time: f64,
    /// Whether the overlay was compacted after this batch.
    pub compacted: bool,
}

/// Everything an incremental run produces, in the same shape as the static
/// driver's output.
#[derive(Clone, Debug)]
pub struct DynRunOutput {
    /// The maintained matching after the final batch.
    pub matching: Matching,
    /// Snapshot of the final mutated graph.
    pub graph: CsrGraph,
    /// Total simulated seconds (initial build + maintenance).
    pub sim_time: f64,
    /// Simulated seconds of the initial full build.
    pub initial_time: f64,
    /// Simulated seconds of update maintenance only.
    pub maintenance_time: f64,
    /// Total SETPOINTERS/SETMATES rounds across build + batches.
    pub rounds: u64,
    /// Update batches applied.
    pub batches: u64,
    /// Phase breakdown and per-round records.
    pub profile: RunProfile,
    /// Kernel/collective/frontier metrics.
    pub metrics: MetricsRegistry,
    /// Full event timeline.
    pub trace: Trace,
}

/// The incremental locally-dominant matching engine.
#[derive(Clone, Debug)]
pub struct IncrementalLd {
    g: DynGraph,
    cfg: DynConfig,
    ndev: usize,
    mate: Vec<VertexId>,
    /// Weight of each vertex's matched edge; `NEG_INFINITY` when unmatched,
    /// so `prefer(w, v, mate_w[u], mate[u])` directly tests whether edge
    /// `(u, v)` outranks `u`'s current situation.
    mate_w: Vec<f64>,
    ptr: Vec<VertexId>,
    ptr_w: Vec<f64>,
    in_frontier: Vec<bool>,
    rt: SimRuntime,
    rounds: u64,
    batches: u64,
    /// Per-round records pushed into the runtime so far (their index).
    iterations_recorded: usize,
    initial_time: f64,
    /// Reusable stabilization buffers — steady-state rounds allocate
    /// nothing: the worklist being built for the next round, the
    /// endpoints freed by outbid matches, and the pointer slices staged
    /// for an overlapped reduction.
    next: Vec<VertexId>,
    freed: Vec<VertexId>,
    chunks: Vec<CommChunk>,
}

impl IncrementalLd {
    /// Build the engine over `base`, running the initial full construction
    /// (stabilization with every vertex in the frontier — exactly the
    /// static LD iteration) and billing it. Pass an `Arc` to share the base
    /// with the caller ([`DynGraph::new`]).
    pub fn new(base: impl Into<Arc<CsrGraph>>, cfg: DynConfig) -> Self {
        let g = DynGraph::new(base).with_compact_frac(cfg.compact_frac);
        let n = g.num_vertices();
        // Infallible by design: a zero count, or a platform without
        // devices, runs on one device. The front ends reject both first
        // with `DynConfig::validate`.
        let ndev = cfg.devices.min(cfg.platform.max_devices).max(1);
        // The dynamic output exposes its timeline unconditionally, so the
        // runtime keeps the trace it records anyway.
        let rt = SimRuntime::new(&cfg.platform, ndev).with_trace(true);
        let mut engine = IncrementalLd {
            g,
            ndev,
            cfg,
            mate: vec![UNMATCHED; n],
            mate_w: vec![f64::NEG_INFINITY; n],
            ptr: vec![UNMATCHED; n],
            ptr_w: vec![f64::NEG_INFINITY; n],
            in_frontier: vec![false; n],
            rt,
            rounds: 0,
            batches: 0,
            iterations_recorded: 0,
            initial_time: 0.0,
            next: Vec::new(),
            freed: Vec::new(),
            chunks: Vec::new(),
        };
        let all: Vec<VertexId> = (0..n as VertexId).collect();
        engine.stabilize(all);
        engine.initial_time = engine.horizon();
        engine
    }

    /// The dynamic graph being maintained.
    pub fn graph(&self) -> &DynGraph {
        &self.g
    }

    /// The maintained mate array.
    pub fn mate_array(&self) -> &[VertexId] {
        &self.mate
    }

    /// The maintained matching, as a checkable [`Matching`].
    pub fn matching(&self) -> Matching {
        Matching::from_mate(self.mate.clone())
    }

    /// Simulated seconds elapsed so far (max over device timelines).
    pub fn horizon(&self) -> f64 {
        self.rt.horizon()
    }

    /// Number of vertices in the maintained graph.
    pub fn num_vertices(&self) -> usize {
        self.mate.len()
    }

    /// Matched edges in the maintained matching.
    pub fn cardinality(&self) -> usize {
        self.mate.iter().filter(|&&m| m != UNMATCHED).count() / 2
    }

    /// Total weight of the maintained matching. Each matched edge's weight
    /// is cached at both endpoints, so the sum halves to the edge total.
    pub fn matched_weight(&self) -> f64 {
        self.mate
            .iter()
            .zip(&self.mate_w)
            .filter(|(&m, _)| m != UNMATCHED)
            .map(|(_, &w)| w)
            .sum::<f64>()
            / 2.0
    }

    /// Total SETPOINTERS/SETMATES rounds so far (build + maintenance).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Update batches applied so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Live view of the run metrics accumulated so far.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.rt.metrics()
    }

    /// Check the maintained matching against the current snapshot:
    /// validity, maximality, and the locally-dominant ½-approx certificate.
    pub fn verify_current(&self) -> Result<(), String> {
        let snap = self.g.snapshot();
        let m = self.matching();
        m.verify(&snap)?;
        if !m.is_maximal(&snap) {
            return Err("maintained matching is not maximal".to_string());
        }
        if !half_approx_certificate(&snap, &m) {
            return Err("maintained matching fails the ½-approx certificate".to_string());
        }
        Ok(())
    }

    /// Which device owns vertex `v` (uniform contiguous split, mirroring
    /// the static driver's contiguous ranges).
    fn owner(&self, v: VertexId) -> usize {
        let n = self.mate.len().max(1);
        (v as usize * self.ndev / n).min(self.ndev - 1)
    }

    /// Apply one batch of updates and restore the invariant. Returns the
    /// per-batch summary; the maintained matching afterwards equals static
    /// LD on the mutated snapshot.
    pub fn apply_batch(&mut self, batch: &[EdgeUpdate]) -> BatchReport {
        let t0 = self.horizon();
        let n = self.mate.len() as VertexId;
        let mut frontier: Vec<VertexId> = Vec::new();
        let mut inserts = 0usize;
        let mut deletes = 0usize;
        let mut broken_by_delete = 0u64;
        let mut wake_edges = 0u64;
        let mut wake_roots = 0u64;

        // Bill the update upload: 16 bytes per update (two ids + weight),
        // broadcast to every device.
        if !batch.is_empty() {
            let bytes = 16 * batch.len() as u64;
            let label = self.rt.label("updates", || format!("updates b{}", self.batches));
            for d in 0..self.ndev {
                self.rt.device(d).h2d_copy(0, bytes, label.clone());
            }
        }

        for upd in batch {
            let (u, v) = upd.endpoints();
            if u == v || u >= n || v >= n {
                continue;
            }
            match *upd {
                EdgeUpdate::Insert { w, .. } => {
                    if !(w > 0.0 && w.is_finite()) {
                        continue;
                    }
                    let was_mated_pair = self.mate[u as usize] == v;
                    let old_w = self.mate_w[u as usize];
                    self.g.insert_edge(u, v, w);
                    inserts += 1;
                    self.seed(u, &mut frontier);
                    self.seed(v, &mut frontier);
                    if was_mated_pair {
                        self.mate_w[u as usize] = w;
                        self.mate_w[v as usize] = w;
                        if w < old_w {
                            // A matched edge lost rank: neighbors it used
                            // to dominate may now claim its endpoints.
                            for x in [u, v] {
                                wake_roots += 1;
                                wake_edges += self.wake_claimants(x, &mut frontier);
                            }
                        }
                    }
                }
                EdgeUpdate::Delete { .. } => {
                    let was_mated_pair = self.mate[u as usize] == v;
                    if !self.g.delete_edge(u, v) {
                        continue;
                    }
                    deletes += 1;
                    self.seed(u, &mut frontier);
                    self.seed(v, &mut frontier);
                    if was_mated_pair {
                        self.mate[u as usize] = UNMATCHED;
                        self.mate[v as usize] = UNMATCHED;
                        self.mate_w[u as usize] = f64::NEG_INFINITY;
                        self.mate_w[v as usize] = f64::NEG_INFINITY;
                        broken_by_delete += 1;
                        for x in [u, v] {
                            wake_roots += 1;
                            wake_edges += self.wake_claimants(x, &mut frontier);
                        }
                    }
                }
            }
        }

        // Bill the frontier-seeding scan (endpoint bookkeeping plus the
        // neighborhood walks of freed/outweighed vertices) as one small
        // kernel per device.
        if wake_roots > 0 || !batch.is_empty() {
            let mut st = KernelStats {
                vertices: 2 * batch.len() as u64,
                vertices_processed: wake_roots,
                warps_launched: (2 * batch.len() as u64).div_ceil(32).max(1),
                edges_scanned: wake_edges,
                edge_waves: wake_edges.div_ceil(32),
                ..KernelStats::default()
            };
            st.warps_active = st.warps_launched;
            st.max_warp_vertices = st.vertices.min(32);
            st.max_warp_waves = st.edge_waves;
            st.bytes_read = st.vertices * 8 + wake_edges * 16;
            st.bytes_written = frontier.len() as u64 * 4;
            let label = self.rt.label("seed scan", || format!("seed scan b{}", self.batches));
            self.rt.global_kernel(label, &st);
        }

        frontier.sort_unstable();
        frontier.dedup();
        let seed_frontier = frontier.len();
        let (rounds, new_matches, broken_by_steal) = self.stabilize(frontier);

        // Compact the overlay once it outgrows the threshold, billed as a
        // CSR reshard: each device re-uploads its slice of the new base.
        let compacted = if self.g.should_compact() {
            self.g.compact();
            let bytes = self.g.base().csr_bytes() / self.ndev as u64;
            let label = self.rt.label("compact", || format!("compact b{}", self.batches));
            for d in 0..self.ndev {
                self.rt.device(d).h2d_copy(0, bytes.max(1), label.clone());
            }
            self.rt.counter_add(names::DYN_COMPACTIONS, 1);
            true
        } else {
            false
        };

        let report = BatchReport {
            batch: self.batches,
            updates: batch.len(),
            inserts,
            deletes,
            seed_frontier,
            rounds,
            new_matches,
            broken_matches: broken_by_delete + broken_by_steal,
            sim_time: self.horizon() - t0,
            compacted,
        };
        self.batches += 1;
        self.rt.counter_add(names::DYN_BATCHES, 1);
        self.rt.counter_add(names::DYN_UPDATES_APPLIED, (inserts + deletes) as u64);
        self.rt.counter_add(names::DYN_INSERTS, inserts as u64);
        self.rt.counter_add(names::DYN_DELETES, deletes as u64);
        self.rt.observe(names::DYN_SEED_FRONTIER, seed_frontier as f64);
        self.rt.gauge_set(names::DYN_DELTA_ENTRIES, self.g.delta_entries() as f64);
        report
    }

    /// Finalize: close the runtime and package the run in the static
    /// driver's output shape. [`SimRuntime::finish`] recovers the phase
    /// breakdown from the timeline, so it sums exactly to `sim_time`.
    pub fn finish(mut self) -> DynRunOutput {
        self.rt.counter_add(names::DRIVER_ROUNDS, self.rounds);
        let fin = self.rt.finish();
        DynRunOutput {
            matching: Matching::from_mate(self.mate),
            graph: self.g.snapshot(),
            sim_time: fin.sim_time,
            initial_time: self.initial_time,
            maintenance_time: fin.sim_time - self.initial_time,
            rounds: self.rounds,
            batches: self.batches,
            profile: fin.profile,
            metrics: fin.metrics,
            trace: fin.trace.expect("dynamic runtime always keeps its trace"),
        }
    }

    /// Add `v` and its mate to the frontier seed.
    fn seed(&mut self, v: VertexId, frontier: &mut Vec<VertexId>) {
        frontier.push(v);
        if self.mate[v as usize] != UNMATCHED {
            frontier.push(self.mate[v as usize]);
        }
    }

    /// `y`'s matched edge was deleted or lost rank: wake every neighbor
    /// `x` for whom edge `(x, y)` now outranks `x`'s own matched edge —
    /// those vertices may claim `y` (they were previously dominated).
    /// Returns edge slots scanned, for billing.
    fn wake_claimants(&self, y: VertexId, frontier: &mut Vec<VertexId>) -> u64 {
        frontier.push(y);
        for (x, w) in self.g.edges_of(y) {
            if prefer(w, y, self.mate_w[x as usize], self.mate[x as usize]) {
                frontier.push(x);
            }
        }
        self.g.scan_cost(y) as u64
    }

    /// Best claimable incident edge of `u`: preferred over *both*
    /// endpoints' current matched edges (an unmatched endpoint, at
    /// `(-inf, UNMATCHED)`, loses to any live edge). Writes `ptr`/`ptr_w`;
    /// returns whether a pointer was set.
    fn point_one(&mut self, u: VertexId) -> bool {
        let (aw, am) = (self.mate_w[u as usize], self.mate[u as usize]);
        let mut best: Option<(f64, VertexId)> = None;
        for (v, w) in self.g.edges_of(u) {
            if !prefer(w, v, aw, am) {
                continue; // does not beat u's own match
            }
            if !prefer(w, u, self.mate_w[v as usize], self.mate[v as usize]) {
                continue; // does not beat v's match: v would never accept
            }
            if best.is_none_or(|(bw, bv)| prefer(w, v, bw, bv)) {
                best = Some((w, v));
            }
        }
        match best {
            Some((w, v)) => {
                self.ptr[u as usize] = v;
                self.ptr_w[u as usize] = w;
                true
            }
            None => false,
        }
    }

    /// Run frontier-restricted SETPOINTERS/SETMATES rounds until the
    /// frontier drains. Returns `(rounds, new_matches, broken_matches)`.
    fn stabilize(&mut self, mut frontier: Vec<VertexId>) -> (u64, u64, u64) {
        let spec = self.cfg.platform.device.clone();
        let slots = ((spec.sm_count * spec.max_warps_per_sm) as usize).max(1);
        let n = self.mate.len();
        // Collectives are sparse: only frontier entries travel.
        let comm = CommPolicy::new(self.cfg.overlap, true);
        // Generous safety bound; the potential argument (each commit
        // strictly raises the matched-rank multiset) terminates far below.
        let round_cap = 4 * (n as u64 + self.g.num_edges() as u64) + 64;
        let mut rounds = 0u64;
        let mut new_total = 0u64;
        let mut broken_total = 0u64;

        loop {
            frontier.sort_unstable();
            frontier.dedup();
            if frontier.is_empty() {
                break;
            }
            rounds += 1;
            assert!(
                rounds <= round_cap,
                "stabilize failed to converge after {rounds} rounds (frontier {})",
                frontier.len()
            );
            for &u in &frontier {
                self.in_frontier[u as usize] = true;
                self.ptr[u as usize] = UNMATCHED;
            }

            // SETPOINTERS restricted to the frontier, one launch per device
            // over its contiguous slice of the (sorted) frontier.
            let mut point_stats = KernelStats::default();
            let mut pointers_set = 0u64;
            let mut occ_sum = 0.0;
            let mut occ_n = 0u32;
            self.chunks.clear();
            let mut lo = 0usize;
            for d in 0..self.ndev {
                let hi = if d + 1 == self.ndev {
                    frontier.len()
                } else {
                    frontier.partition_point(|&u| self.owner(u) <= d)
                };
                let work = &frontier[lo..hi];
                lo = hi;
                if work.is_empty() {
                    continue;
                }
                // Frontier launches derive their warp width from the
                // slice length, like the static driver's worklist
                // launches.
                let vpw = work.len().div_ceil(slots).max(1);
                let mut st = KernelStats::default();
                for chunk in work.chunks(vpw) {
                    let mut warp_edges = 0u64;
                    let mut warp_waves = 0u64;
                    for &u in chunk {
                        if self.point_one(u) {
                            pointers_set += 1;
                        }
                        let scanned = self.g.scan_cost(u) as u64;
                        warp_edges += scanned;
                        warp_waves += scanned.div_ceil(32);
                    }
                    // A static worklist warp: every listed vertex scans,
                    // and each slot pays its 4 B worklist read.
                    let vertices = chunk.len() as u64;
                    let mut warp =
                        KernelStats { warps_launched: 1, vertices, ..Default::default() };
                    fill_warp_stats(&mut warp, vertices, warp_edges, warp_waves, 4);
                    st.merge(&warp);
                }
                let label = self.rt.label("point frontier", || {
                    format!("point frontier r{}", self.rounds + rounds)
                });
                let launch = self.rt.device(d).launch_kernel(None, label, &st);
                occ_sum += launch.occupancy;
                occ_n += 1;
                // This device's frontier slice becomes reducible when its
                // pointing kernel retires.
                let entries = work.len() as u64;
                comm.stage(&mut self.chunks, entries, entries, launch.end);
                point_stats.merge(&st);
            }
            self.rt.counter_add(names::KERNEL_POINTERS_SET, pointers_set);
            self.rt.observe(names::DYN_FRONTIER_SIZE, frontier.len() as f64);

            if pointers_set == 0 {
                for &u in &frontier {
                    self.in_frontier[u as usize] = false;
                }
                break;
            }

            // Allreduce the frontier's pointer entries. Overlap mode
            // reduces each device's slice as soon as its kernel retires
            // instead of waiting for the slowest one.
            comm.reduce_pointers(&mut self.rt, n as u64, frontier.len() as u64, &self.chunks);

            // SETMATES: commit mutual pointers, unjoining outbid mates.
            // `in_frontier` guards against stale pointers of non-frontier
            // vertices (their `ptr` entries are from earlier rounds).
            let mut next = std::mem::take(&mut self.next);
            next.clear();
            let mut freed = std::mem::take(&mut self.freed);
            freed.clear();
            let mut new_matches = 0u64;
            for &u in &frontier {
                let v = self.ptr[u as usize];
                if v == UNMATCHED || u >= v || !self.in_frontier[v as usize] {
                    continue;
                }
                if self.ptr[v as usize] != u {
                    continue;
                }
                for x in [u, v] {
                    let old = self.mate[x as usize];
                    if old != UNMATCHED {
                        self.mate[old as usize] = UNMATCHED;
                        self.mate_w[old as usize] = f64::NEG_INFINITY;
                        freed.push(old);
                        broken_total += 1;
                    }
                }
                let w = self.ptr_w[u as usize];
                self.mate[u as usize] = v;
                self.mate[v as usize] = u;
                self.mate_w[u as usize] = w;
                self.mate_w[v as usize] = w;
                new_matches += 1;
            }

            // Wake outbid vertices: they and any neighbor that can now
            // claim them re-enter the frontier.
            let mut ms = KernelStats {
                vertices: frontier.len() as u64,
                vertices_processed: frontier.len() as u64,
                warps_launched: (frontier.len() as u64).div_ceil(32),
                ..KernelStats::default()
            };
            ms.warps_active = ms.warps_launched;
            ms.max_warp_vertices = ms.vertices.min(32);
            for &f in &freed {
                let scanned = self.wake_claimants(f, &mut next);
                ms.edges_scanned += scanned;
                ms.edge_waves += scanned.div_ceil(32);
            }
            ms.bytes_read = ms.vertices * (8 + 32) + ms.edges_scanned * 16;
            ms.bytes_written = new_matches * 16;
            self.rt.global_kernel("setmates", &ms);
            self.rt.counter_add(names::MATCHING_EDGES_COMMITTED, new_matches);
            new_total += new_matches;

            // Unfulfilled claims carry over; their targets must respond.
            for &u in &frontier {
                let v = self.ptr[u as usize];
                if v != UNMATCHED && self.mate[u as usize] != v {
                    next.push(u);
                    if !self.in_frontier[v as usize] {
                        next.push(v);
                    }
                }
            }
            for &u in &frontier {
                self.in_frontier[u as usize] = false;
            }

            // Allreduce the frontier's mate entries; SETMATES writes them
            // all.
            comm.reduce_mates(&mut self.rt, n as u64, frontier.len() as u64);

            let occ = if occ_n > 0 { occ_sum / occ_n as f64 } else { 0.0 };
            let iter = self.iterations_recorded;
            self.rt.push_iteration(IterationRecord::from_stats(
                iter,
                &point_stats,
                self.g.num_directed_edges() as u64,
                occ,
                new_matches,
            ));
            self.iterations_recorded += 1;

            // Recycle: the drained frontier becomes next round's spare.
            self.freed = freed;
            std::mem::swap(&mut frontier, &mut next);
            self.next = next;
        }
        self.rounds += rounds;
        (rounds, new_total, broken_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldgm_core::ld_seq::ld_seq;
    use ldgm_graph::gen::urand;
    use ldgm_graph::GraphBuilder;

    fn assert_canonical(engine: &IncrementalLd) {
        let snap = engine.graph().snapshot();
        let want = ld_seq(&snap);
        assert_eq!(
            engine.mate_array(),
            want.mate_array(),
            "maintained matching diverges from static LD on the snapshot"
        );
        engine.verify_current().unwrap();
    }

    fn dgx1() -> DynConfig {
        DynConfig::new(Platform::dgx_a100())
    }

    #[test]
    fn initial_build_equals_static_ld() {
        let g = urand(300, 1500, 1);
        let engine = IncrementalLd::new(g.clone(), dgx1());
        assert_eq!(engine.mate_array(), ld_seq(&g).mate_array());
        assert!(engine.horizon() > 0.0, "initial build must cost simulated time");
    }

    #[test]
    fn delete_cascades_down_a_path() {
        // Path 0-1 (3), 1-2 (2), 2-3 (1): LD matches {0,1} and {2,3}.
        // Deleting 0-1 must *break* {2,3} and rematch {1,2} — the frontier
        // has to chase dominance down the path.
        let g = GraphBuilder::new(4)
            .add_edge(0, 1, 3.0)
            .add_edge(1, 2, 2.0)
            .add_edge(2, 3, 1.0)
            .build();
        let mut engine = IncrementalLd::new(g, dgx1());
        assert_eq!(engine.mate_array(), &[1, 0, 3, 2]);
        let rep = engine.apply_batch(&[EdgeUpdate::Delete { u: 0, v: 1 }]);
        assert_eq!(engine.mate_array(), &[UNMATCHED, 2, 1, UNMATCHED]);
        assert!(rep.broken_matches >= 2, "both old pairs must break");
        assert_canonical(&engine);
    }

    #[test]
    fn heavy_insert_steals_both_endpoints() {
        // {0,1} at 5 and {2,3} at 4; inserting 1-2 at 9 must dissolve both.
        let g = GraphBuilder::new(4).add_edge(0, 1, 5.0).add_edge(2, 3, 4.0).build();
        let mut engine = IncrementalLd::new(g, dgx1());
        engine.apply_batch(&[EdgeUpdate::Insert { u: 1, v: 2, w: 9.0 }]);
        assert_eq!(engine.mate_array(), &[UNMATCHED, 2, 1, UNMATCHED]);
        assert_canonical(&engine);
    }

    #[test]
    fn reweight_down_reactivates_neighbors() {
        // 0-1 (10) dominates 1-2 (5); reweighting 0-1 to 1 flips dominance.
        let g = GraphBuilder::new(3).add_edge(0, 1, 10.0).add_edge(1, 2, 5.0).build();
        let mut engine = IncrementalLd::new(g, dgx1());
        assert_eq!(engine.mate_array(), &[1, 0, UNMATCHED]);
        engine.apply_batch(&[EdgeUpdate::Insert { u: 0, v: 1, w: 1.0 }]);
        assert_eq!(engine.mate_array(), &[UNMATCHED, 2, 1]);
        assert_canonical(&engine);
    }

    #[test]
    fn noop_updates_keep_matching_and_cost_little() {
        let g = urand(100, 400, 2);
        let mut engine = IncrementalLd::new(g, dgx1());
        let before = engine.matching();
        // Delete a non-existent edge: nothing should change.
        let rep = engine.apply_batch(&[EdgeUpdate::Delete { u: 0, v: 99 }]);
        assert_eq!(rep.deletes, 0);
        assert_eq!(engine.matching(), before);
        assert_canonical(&engine);
    }

    #[test]
    fn random_batches_stay_canonical() {
        let g = urand(120, 500, 3);
        let mut engine = IncrementalLd::new(g, dgx1().devices(2));
        let mut rng = ldgm_graph::Xoshiro256::seed_from_u64(99);
        for _ in 0..12 {
            let mut batch = Vec::new();
            for _ in 0..15 {
                let u = rng.below(120) as u32;
                let v = rng.below(120) as u32;
                if u == v {
                    continue;
                }
                if rng.chance(0.45) {
                    batch.push(EdgeUpdate::Delete { u, v });
                } else {
                    batch.push(EdgeUpdate::Insert { u, v, w: 0.1 + rng.next_f64() });
                }
            }
            engine.apply_batch(&batch);
            assert_canonical(&engine);
        }
    }

    #[test]
    fn overlap_billing_never_changes_maintenance() {
        // The overlap toggle reroutes collective billing only: the same
        // update stream must leave bit-identical mate arrays after every
        // batch, for any device count.
        let g = urand(150, 700, 8);
        for ndev in [1, 4] {
            let mut plain = IncrementalLd::new(g.clone(), dgx1().devices(ndev));
            let mut ovl = IncrementalLd::new(g.clone(), dgx1().devices(ndev).with_overlap(true));
            let mut rng = ldgm_graph::Xoshiro256::seed_from_u64(77);
            for _ in 0..8 {
                let mut batch = Vec::new();
                for _ in 0..12 {
                    let u = rng.below(150) as u32;
                    let v = rng.below(150) as u32;
                    if u == v {
                        continue;
                    }
                    if rng.chance(0.4) {
                        batch.push(EdgeUpdate::Delete { u, v });
                    } else {
                        batch.push(EdgeUpdate::Insert { u, v, w: 0.1 + rng.next_f64() });
                    }
                }
                plain.apply_batch(&batch);
                ovl.apply_batch(&batch);
                assert_eq!(plain.mate_array(), ovl.mate_array(), "{ndev} devices");
            }
            let out = ovl.finish();
            assert!(out.metrics.gauge("comm.exposed_time").is_some());
            assert!(out.metrics.gauge("comm.hidden_time").is_some());
            assert!((out.profile.phases.total() - out.sim_time).abs() <= 1e-9);
        }
    }

    #[test]
    fn deleting_matched_edges_empties_the_matching() {
        let g = urand(60, 200, 4);
        let mut engine = IncrementalLd::new(g, dgx1());
        // Repeatedly delete every matched edge until nothing remains.
        for _ in 0..200 {
            let edges: Vec<(u32, u32)> = engine.matching().edges().collect();
            if edges.is_empty() {
                break;
            }
            let batch: Vec<EdgeUpdate> =
                edges.iter().map(|&(u, v)| EdgeUpdate::Delete { u, v }).collect();
            engine.apply_batch(&batch);
            assert_canonical(&engine);
        }
        // Graph may still have edges, but after enough deletions the
        // matching must remain maximal on what is left.
        assert_canonical(&engine);
    }

    #[test]
    fn compaction_triggers_and_preserves_canonicity() {
        let g = urand(80, 200, 5);
        let mut engine = IncrementalLd::new(g, dgx1().compact_frac(0.05));
        let mut rng = ldgm_graph::Xoshiro256::seed_from_u64(17);
        let mut compacted = false;
        for _ in 0..20 {
            let mut batch = Vec::new();
            for _ in 0..10 {
                let u = rng.below(80) as u32;
                let v = rng.below(80) as u32;
                if u != v {
                    batch.push(EdgeUpdate::Insert { u, v, w: 0.1 + rng.next_f64() });
                }
            }
            compacted |= engine.apply_batch(&batch).compacted;
            assert_canonical(&engine);
        }
        assert!(compacted, "overlay never compacted at a 5% threshold");
        assert!(engine.graph().compactions() >= 1);
    }

    #[test]
    fn finish_packages_consistent_output() {
        let g = urand(150, 600, 6);
        let mut engine = IncrementalLd::new(g, dgx1().devices(4));
        engine.apply_batch(&[
            EdgeUpdate::Insert { u: 0, v: 1, w: 2.0 },
            EdgeUpdate::Insert { u: 2, v: 3, w: 1.5 },
        ]);
        let out = engine.finish();
        assert!(out.sim_time > 0.0);
        assert!((out.initial_time + out.maintenance_time - out.sim_time).abs() < 1e-9);
        assert!((out.profile.phases.total() - out.sim_time).abs() < 1e-6 * out.sim_time.max(1.0));
        assert_eq!(out.batches, 1);
        assert!(out.rounds > 0);
        assert!(out.metrics.counter("kernel.edges_scanned") > 0);
        assert!(out.metrics.counter("comm.allreduce_calls") > 0);
        assert!(!out.trace.events.is_empty());
        out.matching.verify(&out.graph).unwrap();
    }

    /// The three platforms the static driver's config rejects: no
    /// devices, no SMs, no warps per SM.
    fn broken_platforms() -> [(Platform, &'static str); 3] {
        let mut no_gpus = Platform::dgx_a100();
        no_gpus.max_devices = 0;
        let mut no_sms = Platform::dgx_a100();
        no_sms.device.sm_count = 0;
        let mut no_warps = Platform::dgx_a100();
        no_warps.device.max_warps_per_sm = 0;
        [(no_gpus, "no devices"), (no_sms, "no warp slots"), (no_warps, "no warp slots")]
    }

    #[test]
    fn validate_rejects_platforms_without_warp_slots() {
        for (platform, rule) in broken_platforms() {
            match DynConfig::new(platform).validate() {
                Err(MatchError::InvalidConfig(msg)) => assert!(msg.contains(rule), "{rule}: {msg}"),
                other => panic!("{rule}: expected InvalidConfig, got {other:?}"),
            }
        }
        dgx1().validate().unwrap();
    }

    #[test]
    fn new_runs_a_platform_without_devices_on_one_device() {
        let [(no_gpus, _), ..] = broken_platforms();
        let g = urand(80, 300, 8);
        let engine = IncrementalLd::new(g.clone(), DynConfig::new(no_gpus).devices(2));
        assert_eq!(engine.mate_array(), ld_seq(&g).mate_array());
    }

    #[test]
    fn small_batch_cheaper_than_rebuild() {
        let g = urand(2000, 12000, 7);
        let mut engine = IncrementalLd::new(g.clone(), dgx1());
        let initial = engine.horizon();
        let rep = engine.apply_batch(&[EdgeUpdate::Insert { u: 0, v: 1000, w: 0.5 }]);
        assert!(
            rep.sim_time < initial / 4.0,
            "single-edge maintenance ({}) should be far cheaper than a build ({initial})",
            rep.sim_time
        );
    }
}
