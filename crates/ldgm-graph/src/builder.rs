//! Edge-list to CSR construction.
//!
//! The builder accepts an arbitrary multiset of weighted edge tuples,
//! removes self loops, deduplicates parallel edges (keeping the heaviest,
//! so generators may emit duplicates freely), symmetrizes, and produces a
//! [`CsrGraph`] with sorted adjacency lists using a two-pass counting-sort
//! construction — `O(n + m)` after the dedup sort.

use crate::csr::{CsrGraph, VertexId, Weight};

/// An edge tuple as the builder stores it.
pub(crate) type Edge = (VertexId, VertexId, Weight);

/// The stored form of edge `{u, v}`: `(min, max, w)`, or `None` for a self
/// loop or a weight that is not positive and finite (the paper's weight
/// function is strictly positive).
#[inline]
pub(crate) fn canonical(u: VertexId, v: VertexId, w: Weight) -> Option<Edge> {
    if u == v || !w.is_finite() || w <= 0.0 {
        return None;
    }
    Some(if u < v { (u, v, w) } else { (v, u, w) })
}

/// Accumulates edges and assembles a [`CsrGraph`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32 id space");
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Pre-reserve capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Number of (raw, pre-dedup) edges added so far.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add an undirected edge `{u, v}` with weight `w`. Self loops and
    /// non-positive weights are silently dropped (the paper's weight
    /// function is strictly positive); duplicates are resolved at build
    /// time keeping the maximum weight.
    pub fn add_edge(mut self, u: VertexId, v: VertexId, w: Weight) -> Self {
        self.push_edge(u, v, w);
        self
    }

    /// In-place variant of [`GraphBuilder::add_edge`] for hot loops.
    #[inline]
    pub fn push_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n, "endpoint out of range");
        self.edges.extend(canonical(u, v, w));
    }

    /// The edge list, for callers that add tuples already in
    /// [`canonical`] form.
    pub(crate) fn edges_mut(&mut self) -> &mut Vec<Edge> {
        &mut self.edges
    }

    /// Build the CSR graph: dedup, symmetrize, count, place.
    pub fn build(self) -> CsrGraph {
        let GraphBuilder { n, mut edges } = self;
        // Sort canonical (u < v) tuples; ties resolved to max weight.
        edges.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(b.2.total_cmp(&a.2)));
        edges.dedup_by_key(|e| (e.0, e.1));

        let mut degree = vec![0u64; n + 1];
        for &(u, v, _) in &edges {
            degree[u as usize + 1] += 1;
            degree[v as usize + 1] += 1;
        }
        // Prefix sums -> offsets.
        for i in 1..=n {
            degree[i] += degree[i - 1];
        }
        let offsets = degree;
        let total = *offsets.last().unwrap() as usize;
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut adj = vec![0 as VertexId; total];
        let mut weights = vec![0.0 as Weight; total];
        // Scanning the (u, v)-sorted edges in order places every list's
        // backward neighbours (ids below the owner) in ascending order,
        // then its forward neighbours in ascending order, so each list
        // comes out sorted.
        for &(u, v, w) in &edges {
            for (owner, nb) in [(u, v), (v, u)] {
                let c = cursor[owner as usize] as usize;
                adj[c] = nb;
                weights[c] = w;
                cursor[owner as usize] += 1;
            }
        }
        CsrGraph::from_raw(offsets, adj, weights)
    }

    /// Build from a pre-collected edge list.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (VertexId, VertexId, Weight)>,
    ) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for (u, v, w) in edges {
            b.push_edge(u, v, w);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_max_weight() {
        let g = GraphBuilder::new(2)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 0, 5.0)
            .add_edge(0, 1, 3.0)
            .build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(5.0));
    }

    #[test]
    fn drops_self_loops_and_nonpositive() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 0, 1.0)
            .add_edge(0, 1, 0.0)
            .add_edge(0, 1, -2.0)
            .add_edge(1, 2, 0.5)
            .build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(1, 2), Some(0.5));
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let g = GraphBuilder::from_edges(
            6,
            [(5, 0, 1.0), (3, 1, 2.0), (0, 3, 3.0), (4, 0, 4.0), (2, 0, 5.0), (1, 0, 6.0)],
        );
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = GraphBuilder::new(10).add_edge(0, 9, 1.0).build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(5), 0);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn large_random_build_validates() {
        use crate::rng::Xoshiro256;
        let mut r = Xoshiro256::seed_from_u64(1);
        let n = 500;
        let mut b = GraphBuilder::new(n);
        for _ in 0..5000 {
            let u = r.below(n as u64) as VertexId;
            let v = r.below(n as u64) as VertexId;
            b.push_edge(u, v, r.next_f64() + 1e-9);
        }
        let g = b.build();
        assert_eq!(g.validate(), Ok(()));
    }
}
