//! Delta-CSR overlay: an immutable base CSR plus per-vertex update logs.
//!
//! CSR is the right layout for GPU kernels but the wrong one for updates —
//! inserting one edge would shift the whole adjacency array. The standard
//! batch-dynamic compromise is an overlay: the base CSR stays untouched and
//! each vertex carries a small sorted log of inserted/deleted incident
//! edges. Kernels scan `base adjacency + log`; when the logs grow past a
//! fraction of the base size the overlay is *compacted* — merged back into
//! a fresh CSR — so scan overhead stays bounded. Vertex ids are stable
//! across compaction, which is what lets the engine keep its mate/pointer
//! arrays alive across the whole update stream.
//!
//! The base is held behind an [`Arc`]: whoever built the graph (a service
//! that must replay from it, a second engine on the same input) shares one
//! copy with the overlay instead of cloning it. Compaction installs a
//! fresh `Arc`; the old base lives on only as long as another holder
//! keeps it.

use std::sync::Arc;

use ldgm_graph::csr::{CsrGraph, VertexId, Weight};

/// One edge mutation in an update batch. Updates address undirected edges;
/// the overlay mirrors them into both endpoint logs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeUpdate {
    /// Insert edge `{u, v}` with weight `w`. Inserting an edge that already
    /// exists replaces its weight (a reweight).
    Insert {
        /// One endpoint.
        u: VertexId,
        /// Other endpoint.
        v: VertexId,
        /// New positive finite weight.
        w: Weight,
    },
    /// Delete edge `{u, v}`. Deleting a missing edge is a no-op.
    Delete {
        /// One endpoint.
        u: VertexId,
        /// Other endpoint.
        v: VertexId,
    },
}

impl EdgeUpdate {
    /// The endpoints addressed by the update.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match *self {
            EdgeUpdate::Insert { u, v, .. } | EdgeUpdate::Delete { u, v } => (u, v),
        }
    }

    /// Whether this is an insert (or reweight).
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeUpdate::Insert { .. })
    }
}

/// A dynamic graph: base CSR plus per-vertex overlay logs.
///
/// Overlay entries are `(neighbor, Some(w))` for an inserted or reweighted
/// edge and `(neighbor, None)` for a deleted base edge, kept sorted by
/// neighbor id so lookups are binary searches and full scans are two-pointer
/// merges against the (also sorted) base adjacency. A `None` entry always
/// shadows a base edge: deleting an overlay-only edge removes its entry
/// outright.
#[derive(Clone, Debug)]
pub struct DynGraph {
    base: Arc<CsrGraph>,
    delta: Vec<Vec<(VertexId, Option<Weight>)>>,
    /// Total directed overlay entries (the compaction trigger).
    delta_entries: usize,
    /// Current number of live undirected edges.
    live_edges: usize,
    /// Compact when overlay entries exceed this fraction of the base's
    /// directed edges (with a small absolute floor so tiny graphs don't
    /// thrash).
    compact_frac: f64,
    compactions: u64,
}

/// Minimum overlay size before compaction triggers, regardless of fraction.
const COMPACT_FLOOR: usize = 32;

impl DynGraph {
    /// Wrap a base CSR with an empty overlay. Default compaction threshold
    /// is 25% of the base's directed edges. Pass an `Arc` to share the base
    /// with other holders; a bare `CsrGraph` is moved in.
    pub fn new(base: impl Into<Arc<CsrGraph>>) -> Self {
        let base = base.into();
        let n = base.num_vertices();
        let live_edges = base.num_edges();
        DynGraph {
            base,
            delta: vec![Vec::new(); n],
            delta_entries: 0,
            live_edges,
            compact_frac: 0.25,
            compactions: 0,
        }
    }

    /// Set the compaction threshold as a fraction of base directed edges.
    pub fn with_compact_frac(mut self, frac: f64) -> Self {
        assert!(frac > 0.0, "compaction fraction must be positive");
        self.compact_frac = frac;
        self
    }

    /// Number of vertices (stable across updates and compaction).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Current number of live undirected edges.
    pub fn num_edges(&self) -> usize {
        self.live_edges
    }

    /// Current number of live directed edges.
    pub fn num_directed_edges(&self) -> usize {
        2 * self.live_edges
    }

    /// The base CSR the overlay is layered on.
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// Directed overlay entries currently pending compaction.
    pub fn delta_entries(&self) -> usize {
        self.delta_entries
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Current weight of edge `{u, v}`, overlay-aware.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        match self.delta[u as usize].binary_search_by_key(&v, |e| e.0) {
            Ok(i) => self.delta[u as usize][i].1,
            Err(_) => self.base.edge_weight(u, v),
        }
    }

    /// Whether edge `{u, v}` is currently live.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Slots a kernel scanning `v`'s neighborhood must inspect: the base
    /// adjacency plus the overlay log (deleted edges still occupy a slot —
    /// that is the cost delta-CSR pays until compaction).
    pub fn scan_cost(&self, v: VertexId) -> usize {
        self.base.degree(v) + self.delta[v as usize].len()
    }

    /// Insert (or reweight) edge `{u, v}` with weight `w`. Returns `true`
    /// when the edge is new, `false` on a reweight. Self-loops and
    /// non-positive/non-finite weights are rejected by assertion, matching
    /// the strictness of [`CsrGraph::validate`].
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> bool {
        assert!(u != v, "self-loop insert {u}");
        assert!(w > 0.0 && w.is_finite(), "edge weight must be positive and finite, got {w}");
        let n = self.num_vertices() as VertexId;
        assert!(u < n && v < n, "endpoint out of range ({u}, {v}) with n={n}");
        let existed = self.has_edge(u, v);
        self.set_directed(u, v, Some(w));
        self.set_directed(v, u, Some(w));
        if !existed {
            self.live_edges += 1;
        }
        !existed
    }

    /// Delete edge `{u, v}`. Returns `true` if the edge existed.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.has_edge(u, v) {
            return false;
        }
        self.set_directed(u, v, None);
        self.set_directed(v, u, None);
        self.live_edges -= 1;
        true
    }

    fn set_directed(&mut self, u: VertexId, v: VertexId, val: Option<Weight>) {
        let base_has = self.base.has_edge(u, v);
        let log = &mut self.delta[u as usize];
        match log.binary_search_by_key(&v, |e| e.0) {
            Ok(i) => {
                if val.is_none() && !base_has {
                    // Deleting an overlay-only edge: drop the entry.
                    log.remove(i);
                    self.delta_entries -= 1;
                } else {
                    log[i].1 = val;
                }
            }
            Err(i) => {
                debug_assert!(val.is_some() || base_has, "tombstone for a nonexistent edge");
                log.insert(i, (v, val));
                self.delta_entries += 1;
            }
        }
    }

    /// Iterate `v`'s live incident edges as `(neighbor, weight)`, in
    /// neighbor-id order (two-pointer merge of base adjacency and overlay).
    pub fn edges_of(&self, v: VertexId) -> DeltaEdges<'_> {
        DeltaEdges {
            adj: self.base.neighbors(v),
            wts: self.base.neighbor_weights(v),
            log: &self.delta[v as usize],
            i: 0,
            j: 0,
        }
    }

    /// Iterate all live undirected edges as `(u, v, w)` with `u < v`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.edges_of(u).filter(move |&(v, _)| u < v).map(move |(v, w)| (u, v, w))
        })
    }

    /// Materialize the current graph as a fresh CSR (the overlay merged in).
    pub fn snapshot(&self) -> CsrGraph {
        let n = self.num_vertices();
        let directed = self.num_directed_edges();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(directed);
        let mut weights = Vec::with_capacity(directed);
        offsets.push(0u64);
        for v in 0..n as VertexId {
            for (u, w) in self.edges_of(v) {
                adj.push(u);
                weights.push(w);
            }
            offsets.push(adj.len() as u64);
        }
        CsrGraph::from_raw(offsets, adj, weights)
    }

    /// Whether the overlay has outgrown the compaction threshold.
    pub fn should_compact(&self) -> bool {
        let threshold = ((self.base.num_directed_edges() as f64 * self.compact_frac) as usize)
            .max(COMPACT_FLOOR);
        self.delta_entries >= threshold
    }

    /// Merge the overlay into a fresh base CSR and clear the logs.
    pub fn compact(&mut self) {
        self.base = Arc::new(self.snapshot());
        for log in &mut self.delta {
            log.clear();
        }
        self.delta_entries = 0;
        self.compactions += 1;
    }

    /// Compact if [`Self::should_compact`]; returns whether it happened.
    pub fn maybe_compact(&mut self) -> bool {
        if self.should_compact() {
            self.compact();
            true
        } else {
            false
        }
    }
}

/// Merge iterator over a vertex's base adjacency and overlay log.
pub struct DeltaEdges<'a> {
    adj: &'a [VertexId],
    wts: &'a [Weight],
    log: &'a [(VertexId, Option<Weight>)],
    i: usize,
    j: usize,
}

impl Iterator for DeltaEdges<'_> {
    type Item = (VertexId, Weight);

    fn next(&mut self) -> Option<(VertexId, Weight)> {
        loop {
            let base_next = self.adj.get(self.i).copied();
            let log_next = self.log.get(self.j).copied();
            match (base_next, log_next) {
                (Some(b), Some((l, val))) => {
                    if b < l {
                        self.i += 1;
                        return Some((b, self.wts[self.i - 1]));
                    }
                    // Overlay entry at or before the base cursor: it wins.
                    // When ids are equal the base slot is consumed too.
                    if b == l {
                        self.i += 1;
                    }
                    self.j += 1;
                    match val {
                        Some(w) => return Some((l, w)),
                        None => continue, // tombstone: edge deleted
                    }
                }
                (Some(_), None) => {
                    self.i += 1;
                    return Some((self.adj[self.i - 1], self.wts[self.i - 1]));
                }
                (None, Some((l, val))) => {
                    self.j += 1;
                    match val {
                        Some(w) => return Some((l, w)),
                        None => continue,
                    }
                }
                (None, None) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldgm_graph::gen::urand;
    use ldgm_graph::GraphBuilder;

    fn path3() -> CsrGraph {
        GraphBuilder::new(4).add_edge(0, 1, 3.0).add_edge(1, 2, 2.0).add_edge(2, 3, 1.0).build()
    }

    #[test]
    fn insert_delete_reweight_roundtrip() {
        let mut g = DynGraph::new(path3());
        assert_eq!(g.num_edges(), 3);
        assert!(g.insert_edge(0, 3, 5.0));
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.edge_weight(3, 0), Some(5.0));
        // Reweight (both on an overlay edge and a base edge).
        assert!(!g.insert_edge(0, 3, 6.0));
        assert!(!g.insert_edge(1, 2, 0.5));
        assert_eq!(g.edge_weight(0, 3), Some(6.0));
        assert_eq!(g.edge_weight(2, 1), Some(0.5));
        assert_eq!(g.num_edges(), 4);
        // Delete a base edge and an overlay edge.
        assert!(g.delete_edge(0, 1));
        assert!(g.delete_edge(3, 0));
        assert!(!g.delete_edge(0, 1), "double delete is a no-op");
        assert_eq!(g.num_edges(), 2);
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn overlay_only_delete_leaves_no_tombstone() {
        let mut g = DynGraph::new(CsrGraph::empty(3));
        g.insert_edge(0, 1, 1.0);
        assert_eq!(g.delta_entries(), 2);
        g.delete_edge(0, 1);
        assert_eq!(g.delta_entries(), 0, "insert+delete should cancel out");
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn edges_of_merges_in_order() {
        let mut g = DynGraph::new(path3());
        g.insert_edge(1, 3, 4.0);
        g.delete_edge(1, 2);
        let edges: Vec<_> = g.edges_of(1).collect();
        assert_eq!(edges, vec![(0, 3.0), (3, 4.0)]);
        assert_eq!(g.scan_cost(1), 2 + 2, "base degree 2 plus two log entries");
    }

    #[test]
    fn snapshot_matches_rebuilt_graph() {
        let mut g = DynGraph::new(path3());
        g.insert_edge(0, 2, 7.0);
        g.delete_edge(2, 3);
        g.insert_edge(1, 2, 9.0); // reweight
        let snap = g.snapshot();
        assert_eq!(snap.validate(), Ok(()));
        let want = GraphBuilder::new(4)
            .add_edge(0, 1, 3.0)
            .add_edge(0, 2, 7.0)
            .add_edge(1, 2, 9.0)
            .build();
        assert_eq!(snap.offsets(), want.offsets());
        assert_eq!(snap.adjacency(), want.adjacency());
        assert_eq!(snap.weight_array(), want.weight_array());
    }

    #[test]
    fn compaction_preserves_graph_and_resets_overlay() {
        let base = urand(100, 400, 9);
        let mut g = DynGraph::new(base);
        let mut rng = ldgm_graph::Xoshiro256::seed_from_u64(42);
        for _ in 0..120 {
            let u = rng.below(100) as VertexId;
            let v = rng.below(100) as VertexId;
            if u == v {
                continue;
            }
            if rng.chance(0.3) {
                g.delete_edge(u, v);
            } else {
                g.insert_edge(u, v, 0.1 + rng.next_f64());
            }
        }
        let before = g.snapshot();
        let edges_before = g.num_edges();
        g.compact();
        assert_eq!(g.compactions(), 1);
        assert_eq!(g.delta_entries(), 0);
        assert_eq!(g.num_edges(), edges_before);
        let after = g.snapshot();
        assert_eq!(before.offsets(), after.offsets());
        assert_eq!(before.adjacency(), after.adjacency());
        assert_eq!(before.weight_array(), after.weight_array());
    }

    #[test]
    fn shares_its_base_until_compaction() {
        let base = Arc::new(path3());
        let mut g = DynGraph::new(Arc::clone(&base));
        assert_eq!(Arc::strong_count(&base), 2, "the overlay must not copy its base");
        g.insert_edge(0, 3, 4.0);
        g.compact();
        assert_eq!(Arc::strong_count(&base), 1, "compaction installs a fresh base");
        assert_eq!(base.num_edges(), 3, "the shared original stays untouched");
        assert_eq!(g.base().num_edges(), 4);
    }

    #[test]
    fn should_compact_honors_threshold() {
        let base = urand(200, 1000, 3); // 2000 directed edges
        let mut g = DynGraph::new(base).with_compact_frac(0.05); // threshold 100
        let mut added = 0;
        let mut v = 1;
        while !g.should_compact() {
            g.insert_edge(0, v, 1.0);
            v += 1;
            added += 2;
            assert!(v < 200, "threshold never reached");
        }
        assert!(added >= 100, "compacted too early at {added} entries");
        assert!(g.maybe_compact());
        assert!(!g.maybe_compact());
    }

    #[test]
    fn iter_edges_counts_live_edges() {
        let mut g = DynGraph::new(path3());
        g.insert_edge(0, 3, 2.5);
        g.delete_edge(1, 2);
        let listed: Vec<_> = g.iter_edges().collect();
        assert_eq!(listed.len(), g.num_edges());
        assert!(listed.contains(&(0, 3, 2.5)));
        assert!(!listed.iter().any(|&(u, v, _)| (u, v) == (1, 2)));
    }
}
