//! The rank-counted early exit ([`Scan::Ranked`]) against the
//! sorted-index kernel it replaces in the driver
//! (`set_pointers_opt(g, Some(&SortedAdjacency::build(g)), ..)`).
//!
//! Both bill SETPOINTERS as stopping at the 32-wide wave that holds the
//! argmax in (weight desc, id asc) order, so every launch must agree bit
//! for bit: pointers, retirement flags, the counters and every
//! [`KernelStats`](ldgm_gpusim::KernelStats) field. Weights are rounded
//! to one decimal so most ties fall to the id order. Each graph holds
//! lists of exactly 0, 1, 32, 33, 64 and 65 neighbors and a hub of over
//! 1000, and the availability mask places each of those lists' argmax at
//! a chosen rank: the first, around the wave boundaries at 31–33, the
//! last, or none.

use proptest::prelude::*;

use ldgm_core::ld_gpu::{set_pointers_opt, set_pointers_scan, PointingResult, PointingWork, Scan};
use ldgm_gpusim::NONE_SENTINEL;
use ldgm_graph::{CsrGraph, GraphBuilder, SortedAdjacency, VertexId, Xoshiro256};
use ldgm_part::VertexRange;

/// Exact list lengths of the graph's centers, before the hub.
const CENTER_DEGREES: [usize; 6] = [0, 1, 32, 33, 64, 65];

/// A random graph with one center per [`CENTER_DEGREES`] entry plus a hub
/// of 1001–1200 neighbors, each center's neighbors its own, random edges
/// among the other vertices, one-decimal weights and shuffled ids.
/// Returns the graph and the centers' ids.
fn graph(rng: &mut Xoshiro256) -> (CsrGraph, Vec<VertexId>) {
    let hub = rng.range_inclusive(1001, 1200) as usize;
    let degrees: Vec<usize> = CENTER_DEGREES.iter().copied().chain([hub]).collect();
    let leaves: usize = degrees.iter().sum();
    let n = degrees.len() + leaves + rng.below(64) as usize;
    let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
    rng.shuffle(&mut ids);
    let weight = |rng: &mut Xoshiro256| rng.range_inclusive(1, 30) as f64 / 10.0;
    let mut b = GraphBuilder::new(n);
    let mut next_leaf = degrees.len();
    for (c, &deg) in degrees.iter().enumerate() {
        for leaf in next_leaf..next_leaf + deg {
            b.push_edge(ids[c], ids[leaf], weight(rng));
        }
        next_leaf += deg;
    }
    // Background edges never touch a center, so center lists keep their
    // exact lengths while the other lists take every length up to ~40.
    let others = degrees.len() as u64..n as u64;
    for _ in 0..rng.below(4 * n as u64) {
        let u = rng.range_inclusive(others.start, others.end - 1);
        let v = rng.range_inclusive(others.start, others.end - 1);
        if u != v {
            b.push_edge(ids[u as usize], ids[v as usize], weight(rng));
        }
    }
    (b.build(), ids[..degrees.len()].to_vec())
}

/// An availability lane: each vertex available with probability `p`,
/// then every center available with its neighbors of preference rank
/// below a chosen cut unavailable and the neighbor at the cut available,
/// so the center's argmax sits exactly at the cut (none when the cut is
/// the list length).
fn mask(
    rng: &mut Xoshiro256,
    g: &CsrGraph,
    idx: &SortedAdjacency,
    centers: &[VertexId],
    p: f64,
) -> Vec<u8> {
    let mut avail: Vec<u8> = (0..g.num_vertices()).map(|_| rng.chance(p) as u8).collect();
    for &c in centers {
        let sorted = idx.neighbors(g, c);
        let deg = sorted.len();
        let picks = [0, 1, 31, 32, 33, deg / 2, deg.saturating_sub(1), deg];
        let cut = if rng.chance(0.8) {
            picks[rng.below(picks.len() as u64) as usize]
        } else {
            rng.below(deg as u64 + 1) as usize
        }
        .min(deg);
        for &v in &sorted[..cut] {
            avail[v as usize] = 0;
        }
        if let Some(&v) = sorted.get(cut) {
            avail[v as usize] = 1;
        }
        avail[c as usize] = 1;
    }
    avail
}

/// One launch's outputs.
type Launched = (Vec<u64>, Vec<u8>, PointingResult);

/// Launch over `batch` from the given pointer and retirement state.
#[allow(clippy::too_many_arguments)]
fn launch(
    g: &CsrGraph,
    scan: Option<Scan<'_>>,
    sorted: Option<&SortedAdjacency>,
    batch: &VertexRange,
    work: PointingWork<'_>,
    avail: &[u8],
    state: &(Vec<u64>, Vec<u8>),
    vpw: usize,
    retire: bool,
) -> Launched {
    let (mut pointers, mut retired) = state.clone();
    let r = match scan {
        Some(scan) => {
            set_pointers_scan(g, scan, batch, work, avail, &mut pointers, &mut retired, vpw, retire)
        }
        None => set_pointers_opt(
            g,
            sorted,
            batch,
            work,
            avail,
            &mut pointers,
            &mut retired,
            vpw,
            retire,
        ),
    };
    (pointers, retired, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ranked_launches_equal_the_sorted_index_launches(
        seed in 0u64..u64::MAX,
        p_pick in 0usize..4,
        vpw in 1usize..41,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let (g, centers) = graph(&mut rng);
        let idx = SortedAdjacency::build(&g);
        let avail = mask(&mut rng, &g, &idx, &centers, [0.05, 0.3, 0.7, 1.0][p_pick]);
        let n = g.num_vertices() as u64;
        // A random batch range, the whole graph one time in four.
        let (start, end) = if rng.chance(0.25) {
            (0, n)
        } else {
            let a = rng.below(n);
            let b = rng.below(n);
            (a.min(b), a.max(b) + 1)
        };
        let offsets = g.offsets();
        let batch = VertexRange {
            start: start as VertexId,
            end: end as VertexId,
            edge_start: offsets[start as usize],
            edge_end: offsets[end as usize],
        };
        let len = batch.num_vertices();
        // Stale pointers and some vertices already retired.
        let state: (Vec<u64>, Vec<u8>) = (
            (0..len).map(|_| if rng.chance(0.5) { NONE_SENTINEL } else { rng.below(n) }).collect(),
            (0..len).map(|_| rng.chance(0.1) as u8).collect(),
        );
        let mut worklist: Vec<VertexId> =
            (batch.start..batch.end).filter(|_| rng.chance(0.4)).collect();
        worklist.extend(centers.iter().filter(|&&c| batch.start <= c && c < batch.end));
        worklist.sort_unstable();
        worklist.dedup();

        let works = [("full", PointingWork::Full), ("worklist", PointingWork::Worklist(&worklist))];
        for (kind, work) in works {
            for retire in [true, false] {
                let at = format!("seed {seed}, {kind} launch, retire {retire}, vpw {vpw}");
                let go = |scan, sorted| {
                    launch(&g, scan, sorted, &batch, work, &avail, &state, vpw, retire)
                };
                let (p_rank, ret_rank, rank) = go(Some(Scan::Ranked), None);
                let (p_idx, ret_idx, oracle) = go(None, Some(&idx));
                prop_assert_eq!(&p_rank, &p_idx, "pointers, {}", at);
                prop_assert_eq!(&ret_rank, &ret_idx, "retired flags, {}", at);
                prop_assert_eq!(rank.pointers_set, oracle.pointers_set, "pointers_set, {}", at);
                prop_assert_eq!(
                    rank.vertices_retired, oracle.vertices_retired, "vertices_retired, {}", at
                );
                prop_assert_eq!(rank.edges_skipped, oracle.edges_skipped, "edges_skipped, {}", at);
                prop_assert_eq!(rank.stats, oracle.stats, "kernel stats, {}", at);
                // The early exit moves billing only: the full scan selects
                // the same pointers and reads exactly the skipped slots more.
                let (p_full, ret_full, full) = go(Some(Scan::Full), None);
                prop_assert_eq!(&p_full, &p_rank, "full-scan pointers, {}", at);
                prop_assert_eq!(&ret_full, &ret_rank, "full-scan retired flags, {}", at);
                prop_assert_eq!(
                    full.stats.edges_scanned,
                    rank.stats.edges_scanned + rank.edges_skipped,
                    "scanned + skipped, {}", at
                );
            }
        }
    }
}
