//! Preference-sorted adjacency index.
//!
//! [`SortedAdjacency`] stores a permuted copy of a [`CsrGraph`]'s
//! adjacency and weight arrays in which every vertex's neighbor list is
//! ordered by the canonical matching preference — weight descending, then
//! neighbor id ascending. Under that total order the *first available*
//! neighbor in a scan is exactly the argmax a full scan would select, so
//! pointing kernels can stop at the first hit instead of sweeping the
//! whole list. The index shares the base graph's offset array (same list
//! extents, different element order). The out-of-core streaming engine
//! builds it once per run, since its rank bands are slices of it; the
//! resident kernels count positions in the same order on the CSR lanes
//! instead ([`crate::soa::rank_of`]).

use rayon::prelude::*;

use crate::csr::{CsrGraph, VertexId, Weight};
use crate::soa::{key_id, key_weight, pack_key};

/// Directed edges below which the index is built on the calling thread.
const MIN_PART_EDGES: u64 = 1 << 15;

/// Per-vertex adjacency permuted into (weight desc, id asc) order.
///
/// Accessors take the base graph the index was built from; list extents
/// come from its offset array. Debug builds assert the vertex count still
/// matches.
#[derive(Clone, Debug, PartialEq)]
pub struct SortedAdjacency {
    num_vertices: usize,
    adj: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl SortedAdjacency {
    /// Build the index: each list sorted by the kernels' packed key
    /// ([`crate::soa::pack_key`]) descending, a total order with no ties
    /// since a list holds each neighbour once; `O(Σ d_v log d_v)`, on one
    /// contiguous vertex range per pool thread, the ranges holding about
    /// equal numbers of directed edges.
    pub fn build(g: &CsrGraph) -> Self {
        let offsets = g.offsets();
        let (n, total) = (g.num_vertices(), g.num_directed_edges());
        let mut adj = vec![0 as VertexId; total];
        let mut weights = vec![0.0 as Weight; total];
        let parts = (rayon::current_num_threads() as u64).min(total as u64 / MIN_PART_EDGES + 1);
        let mut items = Vec::with_capacity(parts as usize);
        let (mut adj_rest, mut weights_rest, mut start) = (&mut adj[..], &mut weights[..], 0);
        for k in 1..=parts {
            let target = total as u64 / parts * k;
            let end =
                if k == parts { n } else { offsets.partition_point(|&o| o < target).max(start) };
            let len = (offsets[end] - offsets[start]) as usize;
            let (a, a_rest) = std::mem::take(&mut adj_rest).split_at_mut(len);
            let (w, w_rest) = std::mem::take(&mut weights_rest).split_at_mut(len);
            // The range's sort buffer, sized for its longest list and
            // allocated here so that no pool thread allocates.
            let longest = (start..end).map(|v| offsets[v + 1] - offsets[v]).max().unwrap_or(0);
            items.push((start..end, a, w, Vec::<u128>::with_capacity(longest as usize)));
            (adj_rest, weights_rest, start) = (a_rest, w_rest, end);
        }
        items.into_par_iter().for_each(|(range, adj, ws, mut keys)| {
            let base = offsets[range.start] as usize;
            for v in range {
                let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
                let (ids, src) = (&g.adjacency()[lo..hi], &g.weight_array()[lo..hi]);
                keys.clear();
                keys.extend(ids.iter().zip(src).map(|(&id, &w)| pack_key(w, id)));
                keys.sort_unstable_by(|a, b| b.cmp(a));
                for (slot, &k) in (lo - base..).zip(&keys) {
                    adj[slot] = key_id(k);
                    ws[slot] = key_weight(k);
                }
            }
        });
        SortedAdjacency { num_vertices: n, adj, weights }
    }

    /// Neighbor ids of `v` in preference order.
    #[inline]
    pub fn neighbors<'a>(&'a self, g: &CsrGraph, v: VertexId) -> &'a [VertexId] {
        debug_assert_eq!(self.num_vertices, g.num_vertices(), "index built from another graph");
        let lo = g.offsets()[v as usize] as usize;
        let hi = g.offsets()[v as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Weights parallel to [`SortedAdjacency::neighbors`].
    #[inline]
    pub fn neighbor_weights<'a>(&'a self, g: &CsrGraph, v: VertexId) -> &'a [Weight] {
        debug_assert_eq!(self.num_vertices, g.num_vertices(), "index built from another graph");
        let lo = g.offsets()[v as usize] as usize;
        let hi = g.offsets()[v as usize + 1] as usize;
        &self.weights[lo..hi]
    }

    /// First *available* neighbor of `v` — the canonical argmax, since
    /// the list is in preference order — as `(neighbor, position)`, using
    /// the SoA availability lane (`avail[u] != 0` ⇔ `u` unmatched).
    /// Returns `None` when every neighbor is matched.
    #[inline]
    pub fn first_available(
        &self,
        g: &CsrGraph,
        v: VertexId,
        avail: &[u8],
    ) -> Option<(VertexId, usize)> {
        let nbrs = self.neighbors(g, v);
        crate::soa::first_available(nbrs, avail).map(|pos| (nbrs[pos], pos))
    }

    /// The full permuted id lane, indexed by the base graph's offsets —
    /// for kernels that slice a contiguous vertex range in one go.
    #[inline]
    pub fn adjacency(&self) -> &[VertexId] {
        &self.adj
    }

    /// The full permuted weight lane, parallel to
    /// [`SortedAdjacency::adjacency`].
    #[inline]
    pub fn weight_array(&self) -> &[Weight] {
        &self.weights
    }

    /// Bytes of the permuted copies (adjacency ids + weights) — what a
    /// device would additionally hold resident.
    pub fn index_bytes(&self) -> u64 {
        (self.adj.len() * std::mem::size_of::<VertexId>()
            + self.weights.len() * std::mem::size_of::<Weight>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen::{rmat, urand, RmatParams};

    #[test]
    fn orders_by_weight_desc_then_id_asc() {
        let g = GraphBuilder::new(5)
            .add_edge(0, 1, 2.0)
            .add_edge(0, 2, 5.0)
            .add_edge(0, 3, 5.0)
            .add_edge(0, 4, 1.0)
            .build();
        let idx = SortedAdjacency::build(&g);
        assert_eq!(idx.neighbors(&g, 0), &[2, 3, 1, 4]);
        assert_eq!(idx.neighbor_weights(&g, 0), &[5.0, 5.0, 2.0, 1.0]);
        // Degree-1 lists are untouched but still addressable.
        assert_eq!(idx.neighbors(&g, 4), &[0]);
    }

    #[test]
    fn is_a_permutation_of_the_base_adjacency() {
        let g = rmat(512, 4000, RmatParams::GAP_KRON, 7);
        let idx = SortedAdjacency::build(&g);
        for v in 0..g.num_vertices() as VertexId {
            let mut base: Vec<(VertexId, u64)> = g
                .neighbors(v)
                .iter()
                .zip(g.neighbor_weights(v))
                .map(|(&id, &w)| (id, w.to_bits()))
                .collect();
            let mut sorted: Vec<(VertexId, u64)> = idx
                .neighbors(&g, v)
                .iter()
                .zip(idx.neighbor_weights(&g, v))
                .map(|(&id, &w)| (id, w.to_bits()))
                .collect();
            base.sort_unstable();
            sorted.sort_unstable();
            assert_eq!(base, sorted, "vertex {v}");
        }
    }

    #[test]
    fn first_entry_is_the_prefer_argmax() {
        // The invariant the early-exit kernel relies on: head of the list
        // == heaviest neighbor, smallest id on ties.
        let g = urand(300, 2400, 3);
        let idx = SortedAdjacency::build(&g);
        for v in 0..g.num_vertices() as VertexId {
            let ws = idx.neighbor_weights(&g, v);
            let ids = idx.neighbors(&g, v);
            for i in 1..ws.len() {
                assert!(
                    ws[i - 1] > ws[i] || (ws[i - 1] == ws[i] && ids[i - 1] < ids[i]),
                    "vertex {v}: slot {i} out of preference order"
                );
            }
        }
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let g = CsrGraph::empty(4);
        let idx = SortedAdjacency::build(&g);
        assert_eq!(idx.neighbors(&g, 2), &[] as &[VertexId]);
        assert_eq!(idx.index_bytes(), 0);
    }
}
