//! The live-list host passes against the all-vertex walks they replaced,
//! kept here as oracles: [`point_full`], the SETPOINTERS sweep over every
//! batch vertex of the `vpw` warp grid, and [`set_mates_all`], the
//! SETMATES sweep over every vertex, followed by the O(n) rebuilds of the
//! live sets and the frontiers.
//!
//! A full launch over a live list must match [`point_full`] bit for bit
//! (pointers, retired flags, the counters and every [`KernelStats`]
//! field, `warp_edges_sumsq` by its bits) for lists of 0, 1, 32, 33 and
//! over 1000 entries, degree-0 vertices included, under random
//! availability and retirement masks, `vpw` 1–40 and batch ranges not
//! aligned to `vpw`. Whole runs over 1–4 devices must keep the live
//! lists, the frontiers, the mate array and the SETMATES launch equal to
//! the oracles' after every round.

use proptest::prelude::*;

use super::*;
use ldgm_graph::{GraphBuilder, Xoshiro256};
use ldgm_part::Partition;

/// The all-vertex SETPOINTERS walk: every batch vertex, warps grouped
/// into [`TASK_VERTICES`]-sized parallel tasks, per-warp stats preserved.
#[allow(clippy::too_many_arguments)]
fn point_full<S>(
    g: &CsrGraph,
    lanes: (&[VertexId], &[Weight]),
    scan: S,
    batch: &VertexRange,
    avail: &[u8],
    pointers_batch: &mut [u64],
    retired_batch: &mut [u8],
    vertices_per_warp: usize,
    retire: bool,
) -> PointingResult
where
    S: Fn(&[VertexId], &[Weight], &[u8]) -> Outcome + Sync,
{
    let nv = batch.num_vertices();
    if nv == 0 {
        return PointingResult::default();
    }
    let base = batch.start;
    let vpw = vertices_per_warp.max(1);
    let span = TASK_VERTICES.div_ceil(vpw).max(1) * vpw;

    pointers_batch
        .par_chunks_mut(span)
        .zip(retired_batch.par_chunks_mut(span))
        .enumerate()
        .map(|(t, (ptr_task, ret_task))| {
            let mut out = PointingResult::default();
            let task_first = base + (t * span) as VertexId;
            for (wi, (ptr_chunk, ret_chunk)) in
                ptr_task.chunks_mut(vpw).zip(ret_task.chunks_mut(vpw)).enumerate()
            {
                let first = task_first + (wi * vpw) as VertexId;
                out.merge(&point_warp(g, lanes, &scan, first, ptr_chunk, ret_chunk, avail, retire));
            }
            out
        })
        .reduce(PointingResult::default, |mut a, b| {
            a.merge(&b);
            a
        })
}

/// One warp of [`point_full`] over the contiguous vertices
/// `[first, first + ptr_chunk.len())`: a single slice of the id/weight
/// lanes covers the whole warp, and a running cursor replaces per-vertex
/// offset slicing.
#[allow(clippy::too_many_arguments)]
fn point_warp<S>(
    g: &CsrGraph,
    lanes: (&[VertexId], &[Weight]),
    scan: &S,
    first: VertexId,
    ptr_chunk: &mut [u64],
    ret_chunk: &mut [u8],
    avail: &[u8],
    retire: bool,
) -> PointingResult
where
    S: Fn(&[VertexId], &[Weight], &[u8]) -> Outcome,
{
    let len = ptr_chunk.len();
    let offsets = g.offsets();
    let edge_lo = offsets[first as usize] as usize;
    let edge_hi = offsets[first as usize + len] as usize;
    let ids = &lanes.0[edge_lo..edge_hi];
    let ws = &lanes.1[edge_lo..edge_hi];

    let mut r = PointingResult {
        stats: KernelStats { warps_launched: 1, vertices: len as u64, ..Default::default() },
        ..Default::default()
    };
    let mut warp_edges: u64 = 0;
    let mut warp_waves: u64 = 0;
    let mut processed: u64 = 0;
    let mut cur = 0usize;
    for (i, ptr) in ptr_chunk.iter_mut().enumerate() {
        let u = first + i as VertexId;
        let deg = (offsets[u as usize + 1] - offsets[u as usize]) as usize;
        let at = cur;
        cur += deg; // advance past skipped vertices too
        if avail[u as usize] == 0 || ret_chunk[i] != 0 {
            continue; // matched or retired: early exit
        }
        processed += 1;
        let (best, scanned, waves, skipped) = scan(&ids[at..at + deg], &ws[at..at + deg], avail);
        warp_edges += scanned;
        warp_waves += waves;
        r.edges_skipped += skipped;
        if best != VertexId::MAX {
            *ptr = best as u64;
            r.pointers_set += 1;
        } else {
            *ptr = NONE_SENTINEL;
            if retire {
                ret_chunk[i] = 1;
                r.vertices_retired += 1;
            }
        }
    }
    fill_warp_stats(&mut r.stats, processed, warp_edges, warp_waves, 0);
    r
}

/// The all-vertex SETMATES sweep: every unmatched vertex whose pointer
/// pair is mutual commits.
fn set_mates_all(pointers: &[u64], mate: &mut [u64], avail: &mut [u8]) -> (KernelStats, u64) {
    let mut newly = 0u64;
    for u in 0..mate.len() {
        let p = pointers[u];
        if mate[u] == NONE_SENTINEL && p != NONE_SENTINEL && pointers[p as usize] == u as u64 {
            mate[u] = p;
            avail[u] = 0;
            newly += 1;
        }
    }
    let n = mate.len() as u64;
    let warps = n.div_ceil(32);
    let stats = KernelStats {
        vertices: n,
        vertices_processed: n,
        warps_launched: warps,
        warps_active: warps,
        bytes_read: n * (8 + 32),
        bytes_written: newly * 8,
        max_warp_vertices: 32,
        ..Default::default()
    };
    (stats, newly / 2)
}

/// The live set of `part` rebuilt from the flags.
fn live_of(part: &VertexRange, avail: &[u8], retired: &[u8]) -> Vec<VertexId> {
    (part.start..part.end).filter(|&u| avail[u as usize] != 0 && retired[u as usize] == 0).collect()
}

/// The frontier of `part` rebuilt from the flags after SETMATES: its
/// unmatched vertices whose pointer target is matched.
fn frontier_of(part: &VertexRange, pointers: &[u64], avail: &[u8]) -> Vec<VertexId> {
    (part.start..part.end)
        .filter(|&u| {
            let p = pointers[u as usize];
            avail[u as usize] != 0 && p != NONE_SENTINEL && avail[p as usize] == 0
        })
        .collect()
}

/// A random graph on `n` vertices: about a tenth of them isolated, the
/// rest joined by about three random edges each plus up to three hubs of
/// 40–200 neighbors, with one-decimal weights so most ties fall to the
/// id order.
fn graph(rng: &mut Xoshiro256, n: usize) -> CsrGraph {
    let linked: Vec<VertexId> = (0..n as VertexId).filter(|_| !rng.chance(0.1)).collect();
    let mut b = GraphBuilder::new(n);
    let weight = |rng: &mut Xoshiro256| rng.range_inclusive(1, 30) as f64 / 10.0;
    if linked.len() >= 2 {
        let pick = |rng: &mut Xoshiro256| linked[rng.below(linked.len() as u64) as usize];
        for _ in 0..3 * linked.len() {
            let (u, v) = (pick(rng), pick(rng));
            if u != v {
                b.push_edge(u, v, weight(rng));
            }
        }
        for _ in 0..rng.below(4) {
            let hub = pick(rng);
            for _ in 0..rng.range_inclusive(40, 200) {
                let v = pick(rng);
                if v != hub {
                    b.push_edge(hub, v, weight(rng));
                }
            }
        }
    }
    b.build()
}

/// The vertex range `[start, end)` of `g`.
fn range(g: &CsrGraph, start: usize, end: usize) -> VertexRange {
    let offsets = g.offsets();
    VertexRange {
        start: start as VertexId,
        end: end as VertexId,
        edge_start: offsets[start],
        edge_end: offsets[end],
    }
}

/// Two launches agree on every output: the counters, every
/// [`KernelStats`] field and `warp_edges_sumsq` by its bits.
fn same_launch(got: &PointingResult, want: &PointingResult, at: &str) {
    prop_assert_eq!(got.pointers_set, want.pointers_set, "pointers_set, {}", at);
    prop_assert_eq!(got.vertices_retired, want.vertices_retired, "vertices_retired, {}", at);
    prop_assert_eq!(got.edges_skipped, want.edges_skipped, "edges_skipped, {}", at);
    prop_assert_eq!(
        got.stats.warp_edges_sumsq.to_bits(),
        want.stats.warp_edges_sumsq.to_bits(),
        "warp_edges_sumsq bits, {}",
        at
    );
    prop_assert_eq!(got.stats, want.stats, "kernel stats, {}", at);
}

/// Live-list lengths: 0, 1, 32 and 33 entries, over 1000, and over one
/// parallel task.
fn list_len(rng: &mut Xoshiro256, pick: usize) -> usize {
    match pick {
        0 => 0,
        1 => 1,
        2 => 32,
        3 => 33,
        4 => rng.range_inclusive(1001, 1300) as usize,
        _ => rng.range_inclusive(TASK_VERTICES as u64 + 1, 2 * TASK_VERTICES as u64 + 300) as usize,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn live_launches_equal_the_all_vertex_walk(
        seed in 0u64..u64::MAX,
        pick in 0usize..6,
        vpw in 1usize..41,
        flags in 0u8..4,
    ) {
        let (ranked, retire) = (flags & 1 != 0, flags & 2 != 0);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let k = list_len(&mut rng, pick);
        // A batch of at least `k` vertices, starting and ending off the
        // warp grid of the whole graph, with room around it.
        let len = k + rng.below(3 * vpw as u64 + 64) as usize;
        let before = rng.below(50) as usize;
        let n = before + len + rng.below(50) as usize;
        let g = graph(&mut rng, n);
        let batch = range(&g, before, before + len);

        // `k` live batch vertices; every other batch vertex is matched or
        // retired, and vertices outside the batch are available with
        // probability `p`.
        let p = [0.05, 0.3, 0.7, 1.0][rng.below(4) as usize];
        let mut avail: Vec<u8> = (0..n).map(|_| rng.chance(p) as u8).collect();
        let mut retired = vec![0u8; len];
        let mut slots: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut slots);
        let mut live: Vec<VertexId> = slots[..k].iter().map(|&i| (before + i) as VertexId).collect();
        live.sort_unstable();
        for &i in &slots[..k] {
            avail[before + i] = 1;
        }
        for &i in &slots[k..] {
            if rng.chance(0.5) {
                avail[before + i] = 0;
            } else {
                avail[before + i] = 1;
                retired[i] = 1;
            }
        }
        let pointers: Vec<u64> =
            (0..len).map(|_| if rng.chance(0.5) { NONE_SENTINEL } else { rng.below(n as u64) }).collect();

        let at = format!("seed {seed}, {k} live of {len}, vpw {vpw}, ranked {ranked}, retire {retire}");
        let lanes = (g.adjacency(), g.weight_array());
        let (mut p_or, mut r_or) = (pointers.clone(), retired.clone());
        let oracle = if ranked {
            point_full(&g, lanes, ranked_scan, &batch, &avail, &mut p_or, &mut r_or, vpw, retire)
        } else {
            point_full(&g, lanes, full_scan, &batch, &avail, &mut p_or, &mut r_or, vpw, retire)
        };
        let scan = if ranked { Scan::Ranked } else { Scan::Full };
        for (kind, work) in [("live", PointingWork::Live(&live)), ("full", PointingWork::Full)] {
            let (mut ptrs, mut ret) = (pointers.clone(), retired.clone());
            let got = set_pointers_scan(&g, scan, &batch, work, &avail, &mut ptrs, &mut ret, vpw, retire);
            let at = format!("{kind} launch, {at}");
            prop_assert_eq!(&ptrs, &p_or, "pointers, {}", at);
            prop_assert_eq!(&ret, &r_or, "retired flags, {}", at);
            same_launch(&got, &oracle, &at);
        }
    }

    #[test]
    fn live_runs_keep_the_lists_and_mates_of_the_all_vertex_passes(
        seed in 0u64..u64::MAX,
        ndev in 1usize..5,
        vpw in 1usize..41,
        flags in 0u8..4,
    ) {
        let (frontier, retire) = (flags & 1 != 0, flags & 2 != 0);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let n = rng.range_inclusive(2, 3000) as usize;
        let g = graph(&mut rng, n);
        let parts = Partition::edge_balanced(&g, ndev).parts;
        // A later round's state: some pairs matched already, some
        // vertices retired (retirement leaves the sentinel pointer).
        let mut mate = vec![NONE_SENTINEL; n];
        for u in 0..n as VertexId {
            for &v in g.neighbors(u) {
                if mate[u as usize] == NONE_SENTINEL && mate[v as usize] == NONE_SENTINEL && rng.chance(0.02) {
                    mate[u as usize] = v as u64;
                    mate[v as usize] = u as u64;
                }
            }
        }
        let mut avail: Vec<u8> = mate.iter().map(|&m| (m == NONE_SENTINEL) as u8).collect();
        let mut retired: Vec<u8> = avail.iter().map(|&a| (a != 0 && rng.chance(0.03)) as u8).collect();
        let mut pointers = vec![NONE_SENTINEL; n];
        let mut live: Vec<Vec<VertexId>> =
            parts.iter().map(|part| live_of(part, &avail, &retired)).collect();
        let mut fronts: Vec<Vec<VertexId>> = vec![Vec::new(); ndev];

        let lanes = (g.adjacency(), g.weight_array());
        for round in 0..200 {
            let at = format!("seed {seed}, {ndev} devices, vpw {vpw}, frontier {frontier}, retire {retire}, round {round}");
            let mut set = 0;
            for (d, part) in parts.iter().enumerate() {
                let (lo, hi) = (part.start as usize, part.end as usize);
                let (ptrs, ret) = (&mut pointers[lo..hi], &mut retired[lo..hi]);
                let r = if frontier && round > 0 {
                    let w = PointingWork::Worklist(&fronts[d]);
                    set_pointers_scan(&g, Scan::Full, part, w, &avail, ptrs, ret, vpw, retire)
                } else {
                    let (mut p_or, mut r_or) = (ptrs.to_vec(), ret.to_vec());
                    let oracle =
                        point_full(&g, lanes, full_scan, part, &avail, &mut p_or, &mut r_or, vpw, retire);
                    let w = PointingWork::Live(&live[d]);
                    let r = set_pointers_scan(&g, Scan::Full, part, w, &avail, ptrs, ret, vpw, retire);
                    prop_assert_eq!(&*ptrs, &p_or[..], "pointers, device {}, {}", d, at);
                    prop_assert_eq!(&*ret, &r_or[..], "retired flags, device {}, {}", d, at);
                    same_launch(&r, &oracle, &format!("device {d}, {at}"));
                    r
                };
                set += r.pointers_set;
            }
            if set == 0 {
                break;
            }

            let (mut mate_or, mut avail_or) = (mate.clone(), avail.clone());
            let (stats_or, newly_or) = set_mates_all(&pointers, &mut mate_or, &mut avail_or);
            let (mut mate_w, mut avail_w) = (mate.clone(), avail.clone());
            let wrapped = set_mates(&pointers, &mut mate_w, &mut avail_w);
            let (stats, newly) = set_mates_live(
                &pointers,
                &retired,
                &parts,
                &mut live,
                frontier.then_some(&mut fronts[..]),
                &mut mate,
                &mut avail,
            );
            prop_assert_eq!(newly, newly_or, "edges committed, {}", at);
            prop_assert_eq!(stats, stats_or, "SETMATES stats, {}", at);
            prop_assert_eq!(&mate, &mate_or, "mates, {}", at);
            prop_assert_eq!(&avail, &avail_or, "availability lane, {}", at);
            prop_assert_eq!(wrapped, (stats_or, newly_or), "set_mates, {}", at);
            prop_assert_eq!(&mate_w, &mate_or, "set_mates mates, {}", at);
            prop_assert_eq!(&avail_w, &avail_or, "set_mates availability lane, {}", at);
            for (d, part) in parts.iter().enumerate() {
                prop_assert_eq!(&live[d], &live_of(part, &avail, &retired), "live list {}, {}", d, at);
                if frontier {
                    let want = frontier_of(part, &pointers, &avail);
                    prop_assert_eq!(&fronts[d], &want, "frontier {}, {}", d, at);
                }
            }
            if frontier && fronts.iter().all(Vec::is_empty) {
                break;
            }
        }
    }
}
