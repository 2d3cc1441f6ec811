//! Ingest equivalence on the dataset registry: every Table-I stand-in
//! survives a MatrixMarket round trip bit for bit, and the CSR builder
//! and the preference-sorted index produce exactly what the comparison
//! sorts they replaced produced (kept below as oracles).

use ldgm_bench::datasets::registry;
use ldgm_graph::{io, CsrGraph, GraphBuilder, SortedAdjacency, VertexId, Weight, Xoshiro256};

/// The builder's previous CSR construction: dedup sort, counting
/// placement, then a comparison sort of every list by neighbour id.
fn old_build(n: usize, raw: &[(VertexId, VertexId, Weight)]) -> CsrGraph {
    let mut edges: Vec<(VertexId, VertexId, Weight)> = raw
        .iter()
        .filter(|&&(u, v, w)| u != v && w.is_finite() && w > 0.0)
        .map(|&(u, v, w)| if u < v { (u, v, w) } else { (v, u, w) })
        .collect();
    edges.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(b.2.total_cmp(&a.2)));
    edges.dedup_by_key(|e| (e.0, e.1));
    let mut offsets = vec![0u64; n + 1];
    for &(u, v, _) in &edges {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor: Vec<u64> = offsets[..n].to_vec();
    let mut adj = vec![0 as VertexId; offsets[n] as usize];
    let mut weights = vec![0.0; offsets[n] as usize];
    for &(u, v, w) in &edges {
        for (a, b) in [(u, v), (v, u)] {
            let c = cursor[a as usize] as usize;
            adj[c] = b;
            weights[c] = w;
            cursor[a as usize] += 1;
        }
    }
    for v in 0..n {
        let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
        let mut list: Vec<(VertexId, Weight)> =
            adj[lo..hi].iter().copied().zip(weights[lo..hi].iter().copied()).collect();
        list.sort_unstable_by_key(|&(nb, _)| nb);
        for (i, (nb, w)) in list.into_iter().enumerate() {
            adj[lo + i] = nb;
            weights[lo + i] = w;
        }
    }
    CsrGraph::from_raw(offsets, adj, weights)
}

/// The sorted index's previous construction: an index permutation per
/// vertex, sorted by weight descending (`partial_cmp`) then id ascending.
fn old_sorted(g: &CsrGraph) -> (Vec<VertexId>, Vec<Weight>) {
    let (mut adj, mut weights) = (g.adjacency().to_vec(), g.weight_array().to_vec());
    let offsets = g.offsets();
    for v in 0..g.num_vertices() {
        let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
        let (ids, ws) = (&g.adjacency()[lo..hi], &g.weight_array()[lo..hi]);
        let mut order: Vec<usize> = (0..hi - lo).collect();
        order.sort_unstable_by(|&a, &b| {
            ws[b].partial_cmp(&ws[a]).unwrap().then(ids[a].cmp(&ids[b]))
        });
        for (slot, &src) in order.iter().enumerate() {
            adj[lo + slot] = ids[src];
            weights[lo + slot] = ws[src];
        }
    }
    (adj, weights)
}

fn bits(ws: &[Weight]) -> Vec<u64> {
    ws.iter().map(|w| w.to_bits()).collect()
}

fn assert_same_graph(a: &CsrGraph, b: &CsrGraph, what: &str) {
    assert_eq!(a.offsets(), b.offsets(), "{what}: offsets");
    assert_eq!(a.adjacency(), b.adjacency(), "{what}: adjacency");
    assert_eq!(bits(a.weight_array()), bits(b.weight_array()), "{what}: weight bits");
}

/// Round-trip every other stand-in from `first` through MatrixMarket and
/// check its sorted index against the oracle.
fn check_stand_ins(first: usize) {
    let datasets = registry();
    assert_eq!(datasets.len(), 14);
    for d in datasets.into_iter().skip(first).step_by(2) {
        let g = d.build();
        let mut bytes = Vec::new();
        io::write_mtx(&g, &mut bytes).expect("in-memory write");
        let back = io::read_mtx(&bytes[..], 0).unwrap_or_else(|e| panic!("{}: {e}", d.name));
        assert_same_graph(&back, &g, d.name);

        let idx = SortedAdjacency::build(&g);
        let (adj, weights) = old_sorted(&g);
        assert_eq!(idx.adjacency(), &adj[..], "{}: sorted ids", d.name);
        assert_eq!(bits(idx.weight_array()), bits(&weights), "{}: sorted weights", d.name);
    }
}

// Two tests, so the test harness runs the halves of the registry on two
// threads.
#[test]
fn even_stand_ins_round_trip_and_match_the_sorted_oracle() {
    check_stand_ins(0);
}

#[test]
fn odd_stand_ins_round_trip_and_match_the_sorted_oracle() {
    check_stand_ins(1);
}

#[test]
fn builder_matches_the_old_build_on_unsorted_multisets() {
    let mut r = Xoshiro256::seed_from_u64(16);
    for (n, m) in [(1, 4), (2, 10), (50, 400), (700, 5_000), (3_000, 60_000), (20_000, 150_000)] {
        let mut raw = Vec::with_capacity(m);
        for _ in 0..m {
            let u = r.below(n as u64) as VertexId;
            // Some self loops, some repeated pairs with other weights.
            let v = if r.below(16) == 0 { u } else { r.below(n as u64) as VertexId };
            let w = match r.below(32) {
                0 => 0.0,
                1 => -1.5,
                2 => f64::NAN,
                3 => f64::INFINITY,
                _ => (1 + r.below(8)) as f64 / 8.0,
            };
            raw.push((u, v, w));
            if r.below(8) == 0 {
                raw.push((v, u, (1 + r.below(8)) as f64 / 8.0));
            }
        }
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &raw {
            b.push_edge(u, v, w);
        }
        assert_same_graph(&b.build(), &old_build(n, &raw), &format!("n={n} m={m}"));
    }
}
