//! The LD-GPU kernels (Algorithm 3), executed for real on host threads.
//!
//! SETPOINTERS is warp-centric: contiguous groups of `vertices_per_warp`
//! batch vertices are assigned to warps; the warp's threads sweep each
//! vertex's adjacency in 32-wide waves, reducing the heaviest *available*
//! edge first per thread and then across the warp via shuffle reduction.
//! SETMATES is thread-per-vertex: a mutual-pointer check against the
//! globally reduced pointer array.
//!
//! The simulated kernels sweep every vertex and let matched or retired
//! ones exit early; the host walks only the *live* ones (neither matched
//! nor retired), listed in ascending order per device by the driver's
//! scratch arena. A full SETPOINTERS launch ([`PointingWork::Live`])
//! scans each listed vertex for real on the batch's warp grid and bills
//! every warp without a live vertex in closed form (launched, its
//! vertices read, nothing else), and SETMATES ([`set_mates_live`])
//! commits pairs over the live lists, drops the vertices that matched or
//! retired and emits the next frontier in the same pass, while billing
//! the full-`n` kernel. Full and frontier launches share one per-vertex
//! loop, so every scan decision and every billed byte comes from the same
//! code either way.
//!
//! Host execution is structure-of-arrays throughout: availability probes
//! gather one byte from the availability lane instead of an 8-byte mate
//! word, and the full-scan argmax is the branch-light packed-key maximum
//! of [`ldgm_graph::soa::scan_best`] — exact, because positive finite
//! weight bits are order-isomorphic to their values and the complemented
//! id breaks ties toward the smaller id, mirroring the canonical
//! [`prefer`](crate::matching::prefer) order. The optimized launches bill
//! an early exit at the wave holding that argmax in preference order
//! ([`Scan`]); the resident driver finds the wave by counting the keys
//! above the argmax on the same lanes ([`Scan::Ranked`]), and only the
//! streaming band kernel reads a preference-sorted copy. Each scan mode
//! is fixed per launch, so the plain kernel's per-vertex loop carries no
//! mode branch. A full launch cuts its live list into parallel tasks of
//! thousands of vertices at warp boundaries, so host scheduling cost is
//! amortized and every [`KernelStats`] field is identical to a
//! warp-per-task launch.
//!
//! All *billed* memory traffic still follows the simulated device model —
//! the real GPU kernel visits every vertex, gathers 8-byte mate words and
//! streams full 32-wide waves — so the cost model is unchanged by how the
//! host computes the same result.

use rayon::prelude::*;

use ldgm_gpusim::{KernelStats, NONE_SENTINEL};
use ldgm_graph::csr::{CsrGraph, VertexId, Weight};
use ldgm_graph::stream::BandLayout;
use ldgm_graph::{soa, SortedAdjacency};
use ldgm_part::VertexRange;

/// Live vertices scanned by one parallel task of a full pointing launch:
/// the batch's live list is cut into tasks of about this many entries,
/// each ending at a warp boundary, so per-task overhead (the thread-pool
/// round trip and the task bookkeeping) amortizes over thousands of scans
/// while a one-device launch still spreads over every pool thread.
///
/// The grouping cannot move a statistic. The integer counters are sums
/// and maxima, and `warp_edges_sumsq` is a sum of squared integer edge
/// counts: while a launch's sum stays below 2^53 (checked in debug
/// builds) every partial sum is an exact f64 integer, so any grouping and
/// any order of the warps give the same bits.
const TASK_VERTICES: usize = 4096;

/// 2^53: below it every integer is an exact f64.
const EXACT_F64_INTEGERS: f64 = (1u64 << 53) as f64;

/// Result of a SETPOINTERS launch over one batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct PointingResult {
    /// Launch statistics for the cost model.
    pub stats: KernelStats,
    /// Vertices that set a (non-sentinel) pointer.
    pub pointers_set: u64,
    /// Vertices retired this launch (neighborhood exhausted).
    pub vertices_retired: u64,
    /// Edge slots skipped by the early exit, relative to a full
    /// adjacency scan (0 for the default kernel).
    pub edges_skipped: u64,
}

impl PointingResult {
    /// Fold another launch's result into this one.
    pub fn merge(&mut self, other: &PointingResult) {
        self.stats.merge(&other.stats);
        self.pointers_set += other.pointers_set;
        self.vertices_retired += other.vertices_retired;
        self.edges_skipped += other.edges_skipped;
    }
}

/// Vertices a SETPOINTERS launch covers.
#[derive(Clone, Copy, Debug)]
pub enum PointingWork<'a> {
    /// Every vertex of the batch range (first iteration, or frontier
    /// tracking disabled). The launch lists the range's live vertices
    /// from the availability lane and the retirement flags, then runs as
    /// [`Live`](PointingWork::Live).
    Full,
    /// The full launch given the batch's slice of a live list: absolute
    /// vertex ids in ascending order, inside the batch range, holding at
    /// least every vertex of the range that is neither matched nor
    /// retired. Billed exactly as [`Full`](PointingWork::Full): each
    /// listed live vertex is scanned on the batch's warp grid, and every
    /// warp without one is billed in closed form (launched, 8 B read per
    /// vertex, nothing else).
    Live(&'a [VertexId]),
    /// A frontier worklist: absolute vertex ids in ascending order, all
    /// inside the batch range.
    Worklist(&'a [VertexId]),
}

/// How an optimized SETPOINTERS launch finds each vertex's argmax and
/// bills its scan.
///
/// Both early exits bill the same: the warp stops at the 32-wide wave
/// that holds the argmax in the canonical (weight desc, id asc)
/// [`prefer`](crate::matching::prefer) order. They differ only in how
/// the host finds that wave, so a launch returns bit-identical results
/// under either.
#[derive(Clone, Copy, Debug)]
pub enum Scan<'a> {
    /// Scan every list in full (the default kernel's billing).
    Full,
    /// Early exit, ranked on the CSR lanes: the packed-key argmax scan,
    /// then, for a list longer than one wave, a count of the keys above
    /// the argmax's. Keys are distinct within a list, so the count is the
    /// argmax's position in preference order. Needs no index.
    Ranked,
    /// Early exit through a preference-sorted index: the first available
    /// neighbor of a sorted list is the argmax.
    Sorted(&'a SortedAdjacency),
}

/// One vertex's scan: `(target, edges_scanned, waves, edges_skipped)`,
/// `target` being `VertexId::MAX` when no neighbor is available.
type Outcome = (VertexId, u64, u64, u64);

/// SETPOINTERS over the batch `[batch.start, batch.end)`.
///
/// * `avail` — the SoA availability lane (`avail[v] != 0` ⇔ `v`
///   unmatched), read-only; the caller keeps it in sync with the mate
///   array;
/// * `pointers_batch` — the batch's slice of the pointer array
///   (`pointers[batch.start..batch.end]`), written disjointly;
/// * `retired_batch` — the batch's slice of the retirement flags; a vertex
///   with no available neighbor can never match and is skipped in later
///   iterations (LD-SEQ's "remove from G") when `retire` is on.
///
/// [`set_pointers_scan`] with [`Scan::Full`] over [`PointingWork::Full`];
/// the driver runs the same launch over its live lists
/// ([`PointingWork::Live`]).
pub fn set_pointers_batch(
    g: &CsrGraph,
    batch: &VertexRange,
    avail: &[u8],
    pointers_batch: &mut [u64],
    retired_batch: &mut [u8],
    vertices_per_warp: usize,
    retire: bool,
) -> PointingResult {
    set_pointers_scan(
        g,
        Scan::Full,
        batch,
        PointingWork::Full,
        avail,
        pointers_batch,
        retired_batch,
        vertices_per_warp,
        retire,
    )
}

/// The default kernel's scan of one list: the packed-key argmax over
/// every slot.
#[inline]
fn full_scan(ids: &[VertexId], ws: &[Weight], avail: &[u8]) -> Outcome {
    let k = soa::scan_best(ids, ws, avail);
    let deg = ids.len() as u64;
    let best = if k == soa::NO_KEY { VertexId::MAX } else { soa::key_id(k) };
    (best, deg, soa::waves(deg), 0)
}

/// [`Scan::Ranked`] on one CSR list: the full scan's argmax, billed as
/// an early exit at its rank in preference order.
#[inline]
fn ranked_scan(ids: &[VertexId], ws: &[Weight], avail: &[u8]) -> Outcome {
    let k = soa::scan_best(ids, ws, avail);
    if k == soa::NO_KEY {
        let deg = ids.len() as u64;
        return (VertexId::MAX, deg, soa::waves(deg), 0);
    }
    // Within one wave the exit bills the whole list wherever the argmax
    // sits, so only longer lists count its rank.
    let pos = if ids.len() > soa::WAVE { soa::rank_of(ids, ws, k) } else { 0 };
    exit_at(soa::key_id(k), pos, ids.len())
}

/// [`Scan::Sorted`] on one preference-sorted list: the first available
/// neighbor is the argmax.
#[inline]
fn sorted_scan(ids: &[VertexId], _ws: &[Weight], avail: &[u8]) -> Outcome {
    match soa::first_available(ids, avail) {
        Some(pos) => exit_at(ids[pos], pos, ids.len()),
        None => {
            let deg = ids.len() as u64;
            (VertexId::MAX, deg, soa::waves(deg), 0)
        }
    }
}

/// An early exit to `target` at list position `pos` of a `len`-slot
/// list: the warp finishes the 32-wide wave that holds `pos` and skips
/// the rest.
#[inline]
fn exit_at(target: VertexId, pos: usize, len: usize) -> Outcome {
    let (scanned, waves) = exit_scan(pos, len);
    (target, scanned, waves, len as u64 - scanned)
}

/// `(edges_scanned, waves)` of a scan of `len` slots that stops at the
/// wave holding position `pos`.
#[inline]
fn exit_scan(pos: usize, len: usize) -> (u64, u64) {
    let waves = (pos as u64 + 1).div_ceil(soa::WAVE as u64);
    ((len as u64).min(waves * soa::WAVE as u64), waves)
}

/// Optimized SETPOINTERS through a preference-sorted index:
/// [`set_pointers_scan`] with [`Scan::Sorted`], or [`Scan::Full`] when
/// `sorted` is `None`. The driver's sorted-index mode bills the same
/// early exit without an index ([`Scan::Ranked`]).
#[allow(clippy::too_many_arguments)]
pub fn set_pointers_opt(
    g: &CsrGraph,
    sorted: Option<&SortedAdjacency>,
    batch: &VertexRange,
    work: PointingWork<'_>,
    avail: &[u8],
    pointers_batch: &mut [u64],
    retired_batch: &mut [u8],
    vertices_per_warp: usize,
    retire: bool,
) -> PointingResult {
    let scan = sorted.map_or(Scan::Full, Scan::Sorted);
    set_pointers_scan(
        g,
        scan,
        batch,
        work,
        avail,
        pointers_batch,
        retired_batch,
        vertices_per_warp,
        retire,
    )
}

/// SETPOINTERS with a scan mode (`scan`: the full scan or an early exit)
/// over a full launch or a frontier worklist (`work`).
///
/// Selection is bit-identical to the default kernel: every mode selects
/// the [`prefer`](crate::matching::prefer) argmax, and a worklist launch
/// only skips vertices whose pointers are still valid (their targets are
/// unmatched, so a rescan would rewrite the same value). Only the billed
/// work changes: `Worklist` launches count one warp per
/// `vertices_per_warp` worklist entries plus a 4 B worklist read per
/// vertex, and the early exit reduces `edge_waves`/`edges_scanned`.
#[allow(clippy::too_many_arguments)]
pub fn set_pointers_scan(
    g: &CsrGraph,
    scan: Scan<'_>,
    batch: &VertexRange,
    work: PointingWork<'_>,
    avail: &[u8],
    pointers_batch: &mut [u64],
    retired_batch: &mut [u8],
    vertices_per_warp: usize,
    retire: bool,
) -> PointingResult {
    let csr = (g.adjacency(), g.weight_array());
    let launch = Launch { g, batch, avail, vpw: vertices_per_warp.max(1), retire };
    let out = match scan {
        Scan::Full => launch.run(csr, full_scan, work, pointers_batch, retired_batch),
        Scan::Ranked => launch.run(csr, ranked_scan, work, pointers_batch, retired_batch),
        Scan::Sorted(idx) => {
            let lanes = (idx.adjacency(), idx.weight_array());
            launch.run(lanes, sorted_scan, work, pointers_batch, retired_batch)
        }
    };
    debug_assert!(out.stats.warp_edges_sumsq < EXACT_F64_INTEGERS, "inexact warp_edges_sumsq");
    out
}

/// The arguments of one launch that do not depend on the scan mode or
/// the vertices covered.
struct Launch<'a> {
    g: &'a CsrGraph,
    batch: &'a VertexRange,
    avail: &'a [u8],
    vpw: usize,
    retire: bool,
}

impl Launch<'_> {
    /// Run the launch with `scan` over `lanes` (the CSR lanes, or a
    /// sorted index's permutation of them under the same offsets).
    fn run<S>(
        &self,
        lanes: (&[VertexId], &[Weight]),
        scan: S,
        work: PointingWork<'_>,
        pointers_batch: &mut [u64],
        retired_batch: &mut [u8],
    ) -> PointingResult
    where
        S: Fn(&[VertexId], &[Weight], &[u8]) -> Outcome + Sync,
    {
        let Launch { g, batch, avail, vpw, .. } = *self;
        debug_assert_eq!(lanes.0.len(), g.num_directed_edges(), "lanes of another graph");
        debug_assert_eq!(pointers_batch.len(), batch.num_vertices());
        debug_assert_eq!(retired_batch.len(), batch.num_vertices());
        match work {
            PointingWork::Full => {
                let live: Vec<VertexId> = (batch.start..batch.end)
                    .filter(|&u| {
                        avail[u as usize] != 0 && retired_batch[(u - batch.start) as usize] == 0
                    })
                    .collect();
                self.live(lanes, &scan, &live, pointers_batch, retired_batch)
            }
            PointingWork::Live(live) => {
                self.live(lanes, &scan, live, pointers_batch, retired_batch)
            }
            PointingWork::Worklist(worklist) => {
                // Frontier launches are small; warp groups are processed
                // sequentially per device (devices parallelize above).
                debug_assert!(
                    worklist.iter().all(|&u| batch.contains(u)),
                    "worklist outside batch"
                );
                let (ptrs, ret) = (pointers_batch, retired_batch);
                let mut out = PointingResult::default();
                for chunk in worklist.chunks(vpw) {
                    // One slot per entry, each billed its 4 B worklist read.
                    let slots = chunk.len() as u64;
                    out.merge(&self.warp(lanes, &scan, chunk, batch.start, ptrs, ret, slots, 4));
                }
                out
            }
        }
    }

    /// A full launch over the batch's live list `live`: the list is cut
    /// into parallel tasks of about [`TASK_VERTICES`] entries at warp
    /// boundaries, each task owning the pointer and retirement slices of
    /// its warps; every warp of the batch's `vpw` grid with a listed
    /// vertex runs [`Launch::warp`], and the warps without one are billed
    /// in closed form.
    fn live<S>(
        &self,
        lanes: (&[VertexId], &[Weight]),
        scan: &S,
        live: &[VertexId],
        pointers_batch: &mut [u64],
        retired_batch: &mut [u8],
    ) -> PointingResult
    where
        S: Fn(&[VertexId], &[Weight], &[u8]) -> Outcome + Sync,
    {
        let (start, vpw) = (self.batch.start, self.vpw);
        let nv = self.batch.num_vertices();
        if nv == 0 {
            return PointingResult::default();
        }
        debug_assert!(live.windows(2).all(|w| w[0] < w[1]), "live list not ascending");
        debug_assert!(live.iter().all(|&u| self.batch.contains(u)), "live list outside batch");
        // The first vertex (batch offset) of the warp holding `u`, and the
        // vertex id one past that warp.
        let warp_base = |u: VertexId| (u - start) as usize / vpw * vpw;
        let warp_end = |u: VertexId| start + (warp_base(u) + vpw) as VertexId;

        let mut tasks = Vec::with_capacity(live.len().div_ceil(TASK_VERTICES));
        let (mut ptr_rest, mut ret_rest) = (pointers_batch, retired_batch);
        let (mut first, mut rest) = (0usize, live);
        while !rest.is_empty() {
            // Take about TASK_VERTICES entries, then the rest of the last
            // entry's warp.
            let take = if rest.len() > TASK_VERTICES {
                let end = warp_end(rest[TASK_VERTICES - 1]);
                TASK_VERTICES + rest[TASK_VERTICES..].partition_point(|&v| v < end)
            } else {
                rest.len()
            };
            let (list, next) = rest.split_at(take);
            let end = next.first().map_or(nv, |&u| warp_base(u));
            let (ptrs, ptr_next) = std::mem::take(&mut ptr_rest).split_at_mut(end - first);
            let (ret, ret_next) = std::mem::take(&mut ret_rest).split_at_mut(end - first);
            tasks.push((list, start + first as VertexId, ptrs, ret));
            (ptr_rest, ret_rest, first, rest) = (ptr_next, ret_next, end, next);
        }

        let mut out = tasks
            .into_par_iter()
            .map(|(list, base, ptrs, ret)| {
                let mut out = PointingResult::default();
                let mut rest = list;
                while let Some(&u) = rest.first() {
                    let end = warp_end(u);
                    let len = rest.iter().position(|&v| v >= end).unwrap_or(rest.len());
                    let (here, next) = rest.split_at(len);
                    let slots = vpw.min(nv - warp_base(u)) as u64;
                    out.merge(&self.warp(lanes, scan, here, base, ptrs, ret, slots, 0));
                    rest = next;
                }
                out
            })
            .reduce(PointingResult::default, |mut a, b| {
                a.merge(&b);
                a
            });
        // Every other warp of the grid has no live vertex: it launches,
        // reads its vertices' offsets and exits.
        let idle = nv as u64 - out.stats.vertices;
        out.stats.warps_launched = nv.div_ceil(vpw) as u64;
        out.stats.vertices = nv as u64;
        out.stats.bytes_read += 8 * idle;
        out
    }

    /// One warp of `vertices` slots over its listed vertices `list`
    /// (ascending; `pointers`/`retired` start at vertex `base`): each
    /// live one sets its pointer to its argmax, or to the sentinel and —
    /// when `retire` is on — retires when no neighbor is available.
    /// Closes out the warp's [`KernelStats`], `extra` bytes of worklist
    /// read billed per slot.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn warp<S>(
        &self,
        lanes: (&[VertexId], &[Weight]),
        scan: &S,
        list: &[VertexId],
        base: VertexId,
        pointers: &mut [u64],
        retired: &mut [u8],
        vertices: u64,
        extra: u64,
    ) -> PointingResult
    where
        S: Fn(&[VertexId], &[Weight], &[u8]) -> Outcome,
    {
        let (offsets, avail) = (self.g.offsets(), self.avail);
        let mut r = PointingResult {
            stats: KernelStats { warps_launched: 1, vertices, ..Default::default() },
            ..Default::default()
        };
        let (mut processed, mut warp_edges, mut warp_waves) = (0u64, 0u64, 0u64);
        for &u in list {
            let i = (u - base) as usize;
            if avail[u as usize] == 0 || retired[i] != 0 {
                continue; // matched or retired: early exit
            }
            processed += 1;
            let (lo, hi) = (offsets[u as usize] as usize, offsets[u as usize + 1] as usize);
            let (best, scanned, waves, skipped) = scan(&lanes.0[lo..hi], &lanes.1[lo..hi], avail);
            warp_edges += scanned;
            warp_waves += waves;
            r.edges_skipped += skipped;
            if best != VertexId::MAX {
                pointers[i] = best as u64;
                r.pointers_set += 1;
            } else {
                pointers[i] = NONE_SENTINEL;
                if self.retire {
                    retired[i] = 1;
                    r.vertices_retired += 1;
                }
            }
        }
        fill_warp_stats(&mut r.stats, processed, warp_edges, warp_waves, extra);
        r
    }
}

/// Banded SETPOINTERS of the out-of-core streaming engine: scan only
/// rank band `band` of each worklist vertex's preference-sorted list.
///
/// Bands partition the sorted order, so the first available hit across
/// bands 0, 1, 2, … is exactly the argmax a resident full scan would
/// select — a vertex that hits in this band sets its pointer and leaves
/// the worklist; a vertex whose list *ends* inside this band without a
/// hit is exhausted (pointer `NONE`, retired when `retire` is on); every
/// other miss is appended to `next` for the following band. Billing
/// follows the worklist kernel: one warp per `vertices_per_warp`
/// entries, a 4 B worklist read per vertex, early exit at the wave
/// containing the hit, and `edges_skipped` counts every slot a full
/// scan would have read but no band kernel will (later waves of this
/// band plus all later bands).
#[allow(clippy::too_many_arguments)]
pub fn set_pointers_band(
    g: &CsrGraph,
    sorted: &SortedAdjacency,
    layout: &BandLayout,
    band: usize,
    work: &[VertexId],
    next: &mut Vec<VertexId>,
    avail: &[u8],
    pointers_part: &mut [u64],
    retired_part: &mut [u8],
    part_start: VertexId,
    vertices_per_warp: usize,
    retire: bool,
) -> PointingResult {
    let vpw = vertices_per_warp.max(1);
    let mut out = PointingResult::default();
    // Band launches are worklist launches: warp groups are processed
    // sequentially per device (devices parallelize above).
    for chunk in work.chunks(vpw) {
        let mut stats = KernelStats { warps_launched: 1, ..Default::default() };
        let mut warp_edges: u64 = 0;
        let mut warp_waves: u64 = 0;
        let mut processed: u64 = 0;
        let mut r = PointingResult::default();
        for &u in chunk {
            let i = (u - part_start) as usize;
            stats.vertices += 1;
            if avail[u as usize] == 0 || retired_part[i] != 0 {
                continue;
            }
            processed += 1;
            let (nbrs, _) = layout.band_slice(g, sorted, u, band);
            match soa::first_available(nbrs, avail) {
                Some(pos) => {
                    let (scanned, waves) = exit_scan(pos, nbrs.len());
                    warp_edges += scanned;
                    warp_waves += waves;
                    // Everything a full scan would still have read: the
                    // tail of this band plus every later band.
                    let deg = g.degree(u) as u64;
                    r.edges_skipped += deg - (band * layout.width()) as u64 - scanned;
                    pointers_part[i] = nbrs[pos] as u64;
                    r.pointers_set += 1;
                }
                None => {
                    warp_edges += nbrs.len() as u64;
                    warp_waves += soa::waves(nbrs.len() as u64);
                    if layout.is_last_band(g, u, band) {
                        pointers_part[i] = NONE_SENTINEL;
                        if retire {
                            retired_part[i] = 1;
                            r.vertices_retired += 1;
                        }
                    } else {
                        next.push(u);
                    }
                }
            }
        }
        // 4 extra bytes per vertex: the worklist read.
        fill_warp_stats(&mut stats, processed, warp_edges, warp_waves, 4);
        r.stats = stats;
        out.merge(&r);
    }
    out
}

/// Close out one warp's [`KernelStats`] with the byte/wave model every
/// pointing launch shares, the static driver's and the incremental
/// engine's: `stats` already counts the warp's launch and its vertex
/// slots (`warps_launched`, `vertices`), `processed` of which scanned
/// `warp_edges` edge slots in `warp_waves` 32-wide waves;
/// `extra_read_per_vertex` covers the worklist read of a compacted
/// launch.
pub fn fill_warp_stats(
    stats: &mut KernelStats,
    processed: u64,
    warp_edges: u64,
    warp_waves: u64,
    extra_read_per_vertex: u64,
) {
    stats.vertices_processed = processed;
    stats.edges_scanned = warp_edges;
    stats.edge_waves = warp_waves;
    stats.warps_active = (processed > 0) as u64;
    stats.max_warp_waves = warp_waves;
    stats.max_warp_vertices = processed;
    stats.warp_edges_sumsq = (warp_edges as f64) * (warp_edges as f64);
    // Bytes at transaction granularity: CSR offsets (16 B per vertex),
    // adjacency id + weight streamed in full 32-wide waves (a warp load
    // fetches whole lines even for short lists), and one 32 B sector per
    // mate gather (uncoalesced indirect access); one pointer write per
    // processed vertex.
    stats.bytes_read = stats.vertices * (8 + extra_read_per_vertex)
        + processed * 16
        + warp_waves * 32 * (8 + 8)
        + warp_edges * 32;
    stats.bytes_written = processed * 8;
}

/// SETMATES over the full vertex set: commit mutually pointing pairs,
/// writing the mate array and clearing the availability lane for every
/// newly matched vertex (the lane stays in lock-step with the mate array
/// without a separate sweep). Returns launch statistics and the number
/// of newly matched *edges*.
///
/// The driver's live-list pass over one list of every available vertex,
/// none retired.
pub fn set_mates(pointers: &[u64], mate: &mut [u64], avail: &mut [u8]) -> (KernelStats, u64) {
    let n = mate.len();
    let whole = VertexRange { start: 0, end: n as VertexId, edge_start: 0, edge_end: 0 };
    let mut live = [(0..n as VertexId).filter(|&u| avail[u as usize] != 0).collect()];
    set_mates_live(pointers, &vec![0; n], &[whole], &mut live, None, mate, avail)
}

/// SETMATES over the devices' live lists. Device `d` owns the vertices
/// of `parts[d]` (consecutive ranges from vertex 0; only their vertex
/// bounds are read), and `live[d]` lists, ascending, every one of them
/// that is neither matched nor retired.
///
/// Commits mutually pointing pairs like [`set_mates`], and in the same
/// pass drops every listed vertex that matched or has retired and, when
/// `frontiers` is given, refills each device's frontier with its live
/// vertices whose pointer target matched this round. The launch is still
/// billed as the full-`n` kernel that checks every vertex. Returns the
/// launch statistics and the number of newly matched *edges*.
pub(crate) fn set_mates_live(
    pointers: &[u64],
    retired: &[u8],
    parts: &[VertexRange],
    live: &mut [Vec<VertexId>],
    frontiers: Option<&mut [Vec<VertexId>]>,
    mate: &mut [u64],
    avail: &mut [u8],
) -> (KernelStats, u64) {
    let n = mate.len();
    debug_assert_eq!(avail.len(), n);
    debug_assert_eq!(live.len(), parts.len());
    // The frontier test reads whether a target matched from the pointers
    // alone. That needs every live pointer to name a vertex unmatched
    // when the pass starts, which holds because a vertex whose target
    // matched re-points in the next frontier launch.
    debug_assert!(
        frontiers.is_none()
            || live.iter().flatten().all(|&u| {
                let p = pointers[u as usize];
                p == NONE_SENTINEL || avail[p as usize] != 0
            }),
        "a live pointer names a matched vertex"
    );
    let mut frontiers = frontiers.map(|f| f.iter_mut());
    let mut tasks = Vec::with_capacity(parts.len());
    let (mut mate_rest, mut avail_rest) = (mate, avail);
    for (part, list) in parts.iter().zip(live.iter_mut()) {
        let (m, m_next) = std::mem::take(&mut mate_rest).split_at_mut(part.num_vertices());
        let (a, a_next) = std::mem::take(&mut avail_rest).split_at_mut(part.num_vertices());
        (mate_rest, avail_rest) = (m_next, a_next);
        // Frontier room is reserved here, on the calling thread: the pass
        // only shrinks the list and fills the frontier up to its length.
        let mut front = frontiers.as_mut().and_then(Iterator::next);
        if let Some(f) = front.as_deref_mut() {
            f.clear();
            f.reserve(list.len());
        }
        tasks.push((part.start, list, front, m, a));
    }
    let newly: u64 = tasks
        .into_par_iter()
        .map(|(start, list, front, m, a)| commit_live(pointers, retired, start, list, front, m, a))
        .sum();
    debug_assert_eq!(newly % 2, 0, "mutual pairs must come in twos");
    let warps = (n as u64).div_ceil(32);
    let stats = KernelStats {
        vertices: n as u64,
        vertices_processed: n as u64,
        warps_launched: warps,
        warps_active: warps,
        // Mutual check: own pointer (coalesced 8 B) + indirect pointer
        // gather (32 B sector); write on match.
        bytes_read: n as u64 * (8 + 32),
        bytes_written: newly * 8,
        max_warp_vertices: 32,
        ..Default::default()
    };
    (stats, newly / 2)
}

/// One device's share of [`set_mates_live`]: `mate` and `avail` are the
/// device's slices, starting at vertex `start`. Returns the vertices
/// newly matched.
fn commit_live(
    pointers: &[u64],
    retired: &[u8],
    start: VertexId,
    list: &mut Vec<VertexId>,
    mut frontier: Option<&mut Vec<VertexId>>,
    mate: &mut [u64],
    avail: &mut [u8],
) -> u64 {
    // Whether `u` and its pointer `p` point at each other. The clamped
    // gather keeps the indirect load in bounds without a branch; the
    // sentinel compare rejects the clamped case before the result is used.
    let last = pointers.len().saturating_sub(1);
    let mutual = |u: u64, p: u64| p != NONE_SENTINEL && pointers[(p as usize).min(last)] == u;
    let mut newly = 0u64;
    let mut kept = 0usize;
    for k in 0..list.len() {
        let u = list[k];
        let p = pointers[u as usize];
        if mutual(u as u64, p) {
            let i = (u - start) as usize;
            mate[i] = p;
            avail[i] = 0;
            newly += 1;
        } else if retired[u as usize] == 0 {
            list[kept] = u;
            kept += 1;
            // `p` was unmatched when the pass started, so it matched now
            // exactly when its own pointer is mutual.
            if let Some(f) = frontier.as_deref_mut() {
                if p != NONE_SENTINEL && mutual(p, pointers[p as usize]) {
                    f.push(u);
                }
            }
        }
    }
    list.truncate(kept);
    newly
}

#[cfg(test)]
mod live_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use ldgm_graph::GraphBuilder;
    use ldgm_part::Partition;

    fn whole(g: &CsrGraph) -> VertexRange {
        Partition::edge_balanced(g, 1).parts[0]
    }

    /// The availability lane a mate array implies.
    fn avail_of(mate: &[u64]) -> Vec<u8> {
        mate.iter().map(|&m| (m == NONE_SENTINEL) as u8).collect()
    }

    #[test]
    fn pointing_selects_heaviest_available() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 2, 5.0)
            .add_edge(0, 3, 3.0)
            .build();
        let mut pointers = vec![NONE_SENTINEL; 4];
        let mut retired = vec![0u8; 4];
        let avail = vec![1u8; 4];
        let r = set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, 2, true);
        assert_eq!(pointers[0], 2);
        assert_eq!(pointers[2], 0);
        assert_eq!(r.pointers_set, 4);
        assert_eq!(r.stats.edges_scanned, 6);
    }

    #[test]
    fn pointing_skips_matched_neighbors() {
        let g = GraphBuilder::new(3).add_edge(0, 1, 5.0).add_edge(0, 2, 1.0).build();
        let mut pointers = vec![NONE_SENTINEL; 3];
        let mut retired = vec![0u8; 3];
        let mut mate = vec![NONE_SENTINEL; 3];
        mate[1] = 99; // pretend 1 is matched elsewhere
        let avail = avail_of(&mate);
        let r = set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, 1, true);
        assert_eq!(pointers[0], 2, "must skip matched vertex 1");
        // Vertex 1 is matched: early exit, no scan.
        assert_eq!(r.stats.edges_scanned, 2 + 1); // deg(0) + deg(2)
    }

    #[test]
    fn exhausted_vertices_retire() {
        let g = GraphBuilder::new(3).add_edge(0, 1, 1.0).add_edge(1, 2, 2.0).build();
        let mut pointers = vec![NONE_SENTINEL; 3];
        let mut retired = vec![0u8; 3];
        let mut mate = vec![NONE_SENTINEL; 3];
        mate[1] = 2;
        mate[2] = 1;
        let avail = avail_of(&mate);
        let r = set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, 1, true);
        // Vertex 0's only neighbor is matched: retired.
        assert_eq!(retired[0], 1);
        assert_eq!(pointers[0], NONE_SENTINEL);
        assert_eq!(r.pointers_set, 0);
        assert_eq!(r.vertices_retired, 1);
    }

    #[test]
    fn retire_flag_off_keeps_rescanning() {
        let g = GraphBuilder::new(2).add_edge(0, 1, 1.0).build();
        let mut pointers = vec![NONE_SENTINEL; 2];
        let mut retired = vec![0u8; 2];
        let mut mate = vec![NONE_SENTINEL; 2];
        mate[0] = NONE_SENTINEL;
        mate[1] = 99;
        let avail = avail_of(&mate);
        let _ = set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, 1, false);
        assert_eq!(retired[0], 0, "no retirement when disabled");
    }

    #[test]
    fn warp_stats_reflect_grouping() {
        let g = GraphBuilder::new(6)
            .add_edge(0, 1, 1.0)
            .add_edge(2, 3, 1.0)
            .add_edge(4, 5, 1.0)
            .build();
        let avail = vec![1u8; 6];
        let mut pointers = vec![NONE_SENTINEL; 6];
        let mut retired = vec![0u8; 6];
        let r = set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, 2, true);
        assert_eq!(r.stats.warps_launched, 3);
        assert_eq!(r.stats.warps_active, 3);
        assert_eq!(r.stats.vertices, 6);
    }

    #[test]
    fn super_chunked_stats_match_a_small_vpw_launch() {
        // More vertices than one TASK_VERTICES super-chunk: the grouped
        // launch must report exactly the per-warp stats a warp-per-task
        // launch would (warp count, byte model, wave maxima).
        let g = ldgm_graph::gen::urand(3 * TASK_VERTICES, 6 * TASK_VERTICES, 3);
        let avail = vec![1u8; g.num_vertices()];
        let mut pointers = vec![NONE_SENTINEL; g.num_vertices()];
        let mut retired = vec![0u8; g.num_vertices()];
        let vpw = 7; // does not divide TASK_VERTICES: exercises rounding
        let r = set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, vpw, true);
        assert_eq!(r.stats.warps_launched, g.num_vertices().div_ceil(vpw) as u64);
        assert_eq!(r.stats.vertices, g.num_vertices() as u64);
        assert_eq!(r.stats.edges_scanned, g.num_directed_edges() as u64);
    }

    #[test]
    fn set_mates_commits_mutual_pairs_only() {
        let mut mate = vec![NONE_SENTINEL; 4];
        let mut avail = vec![1u8; 4];
        // 0<->1 mutual; 2 -> 3 one-way.
        let pointers = vec![1, 0, 3, 1];
        let (stats, newly) = set_mates(&pointers, &mut mate, &mut avail);
        assert_eq!(newly, 1);
        assert_eq!(mate[0], 1);
        assert_eq!(mate[1], 0);
        assert_eq!(mate[2], NONE_SENTINEL);
        assert_eq!(avail, vec![0, 0, 1, 1], "lane cleared for the committed pair only");
        assert_eq!(stats.vertices, 4);
    }

    #[test]
    fn set_mates_ignores_already_matched() {
        let mut mate = vec![NONE_SENTINEL; 2];
        mate[0] = 1;
        mate[1] = 0;
        let mut avail = avail_of(&mate);
        let pointers = vec![1, 0];
        let (_, newly) = set_mates(&pointers, &mut mate, &mut avail);
        assert_eq!(newly, 0);
        assert_eq!(avail, vec![0, 0]);
    }

    #[test]
    fn set_mates_ignores_sentinel_pointers() {
        // A vertex pointing nowhere must not commit, even though the
        // clamped gather reads *some* slot.
        let mut mate = vec![NONE_SENTINEL; 3];
        let mut avail = vec![1u8; 3];
        let pointers = vec![NONE_SENTINEL, 2, 1];
        let (_, newly) = set_mates(&pointers, &mut mate, &mut avail);
        assert_eq!(newly, 1);
        assert_eq!(mate[0], NONE_SENTINEL);
        assert_eq!(avail, vec![1, 0, 0]);
    }

    #[test]
    fn opt_full_without_toggles_matches_default_kernel() {
        let g = ldgm_graph::gen::urand(128, 600, 7);
        let avail = vec![1u8; g.num_vertices()];
        let run = |opt: bool| {
            let mut pointers = vec![NONE_SENTINEL; g.num_vertices()];
            let mut retired = vec![0u8; g.num_vertices()];
            let r = if opt {
                set_pointers_opt(
                    &g,
                    None,
                    &whole(&g),
                    PointingWork::Full,
                    &avail,
                    &mut pointers,
                    &mut retired,
                    3,
                    true,
                )
            } else {
                set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, 3, true)
            };
            (pointers, retired, r)
        };
        let (p0, ret0, r0) = run(false);
        let (p1, ret1, r1) = run(true);
        assert_eq!(p0, p1);
        assert_eq!(ret0, ret1);
        assert_eq!(r0.pointers_set, r1.pointers_set);
        assert_eq!(r0.vertices_retired, r1.vertices_retired);
        assert_eq!(r0.stats.edges_scanned, r1.stats.edges_scanned);
        assert_eq!(r0.stats.bytes_read, r1.stats.bytes_read);
        assert_eq!(r0.stats.bytes_written, r1.stats.bytes_written);
        assert_eq!(r1.edges_skipped, 0);
    }

    #[test]
    fn sorted_early_exit_skips_tail_waves() {
        // Vertex 0 with 40 neighbors; heaviest (id 40, w 40.0) is available,
        // so the sorted scan stops after its first 32-wide wave.
        let mut b = GraphBuilder::new(41);
        for v in 1..=40u32 {
            b = b.add_edge(0, v, v as f64);
        }
        let g = b.build();
        let sorted = SortedAdjacency::build(&g);
        let avail = vec![1u8; 41];
        let mut pointers = vec![NONE_SENTINEL; 41];
        let mut retired = [0u8; 41];
        let r = set_pointers_opt(
            &g,
            Some(&sorted),
            &VertexRange { start: 0, end: 1, edge_start: 0, edge_end: 40 },
            PointingWork::Full,
            &avail,
            &mut pointers[..1],
            &mut retired[..1],
            1,
            true,
        );
        assert_eq!(pointers[0], 40, "argmax neighbor");
        assert_eq!(r.stats.edge_waves, 1, "early exit after the first wave");
        assert_eq!(r.stats.edges_scanned, 32);
        assert_eq!(r.edges_skipped, 8);
    }

    #[test]
    fn sorted_scan_matches_default_selection_when_head_unavailable() {
        // Heaviest neighbors matched away: the sorted scan walks past them
        // and still lands on the default kernel's argmax.
        let g = GraphBuilder::new(5)
            .add_edge(0, 1, 9.0)
            .add_edge(0, 2, 8.0)
            .add_edge(0, 3, 7.0)
            .add_edge(0, 4, 7.0)
            .build();
        let sorted = SortedAdjacency::build(&g);
        let mut mate = vec![NONE_SENTINEL; 5];
        mate[1] = 99;
        mate[2] = 99;
        let avail = avail_of(&mate);
        let (ids, ws) = (g.neighbors(0), g.neighbor_weights(0));
        let (best, _, _, _) = sorted_scan(sorted.neighbors(&g, 0), &[], &avail);
        assert_eq!(best, 3, "equal weights tie-break to the lower id");
        assert_eq!(best, full_scan(ids, ws, &avail).0);
        assert_eq!(best, ranked_scan(ids, ws, &avail).0);
    }

    #[test]
    fn worklist_launch_writes_only_listed_vertices_and_bills_reads() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 2.0)
            .add_edge(2, 3, 3.0)
            .build();
        let avail = vec![1u8; 4];
        let mut pointers = vec![777; 4];
        let mut retired = vec![0u8; 4];
        let worklist: Vec<VertexId> = vec![1, 3];
        let r = set_pointers_opt(
            &g,
            None,
            &whole(&g),
            PointingWork::Worklist(&worklist),
            &avail,
            &mut pointers,
            &mut retired,
            2,
            true,
        );
        assert_eq!(pointers[1], 2);
        assert_eq!(pointers[3], 2);
        assert_eq!(pointers[0], 777, "unlisted vertex untouched");
        assert_eq!(pointers[2], 777, "unlisted vertex untouched");
        assert_eq!(r.stats.vertices, 2, "only worklist entries touched");
        assert_eq!(r.stats.warps_launched, 1, "2 entries / vpw 2 = 1 warp");
        // 4 B worklist read billed per vertex on top of the offset read.
        assert_eq!(r.stats.bytes_read % 4, 0);
        let full = set_pointers_opt(
            &g,
            None,
            &whole(&g),
            PointingWork::Full,
            &avail,
            &mut [NONE_SENTINEL; 4],
            &mut [0u8; 4],
            2,
            true,
        );
        assert!(
            r.stats.bytes_read < full.stats.bytes_read,
            "compacted launch reads less than the full scan"
        );
    }

    #[test]
    fn worklist_respects_vpw_grouping() {
        let g = GraphBuilder::new(6)
            .add_edge(0, 1, 1.0)
            .add_edge(2, 3, 1.0)
            .add_edge(4, 5, 1.0)
            .build();
        let avail = vec![1u8; 6];
        let mut pointers = vec![NONE_SENTINEL; 6];
        let mut retired = vec![0u8; 6];
        let worklist: Vec<VertexId> = vec![0, 2, 4, 5];
        let r = set_pointers_opt(
            &g,
            None,
            &whole(&g),
            PointingWork::Worklist(&worklist),
            &avail,
            &mut pointers,
            &mut retired,
            3,
            true,
        );
        assert_eq!(r.stats.warps_launched, 2, "4 entries / vpw 3 = 2 warps");
        assert_eq!(r.pointers_set, 4);
    }
}
