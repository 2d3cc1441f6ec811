//! Reusable per-run scratch arena for the LD driver and the hot kernels.
//!
//! The driver used to birth a handful of `Vec`s every iteration — the
//! per-device frontier worklists, the overlap-mode comm-chunk staging,
//! and (implicitly, via 8-byte mate gathers) the availability view each
//! pointing scan needs. [`Scratch`] owns all of that state for the
//! lifetime of a run — and across runs, for callers like the incremental
//! engine that stabilize many deltas back to back: buffers are cleared,
//! never dropped, so steady-state iterations allocate nothing on the
//! host.
//!
//! The **availability lane** is the third SoA lane the pointing kernels
//! scan (next to the CSR id and weight lanes): `avail[v] != 0` ⇔
//! `mate[v] == NONE_SENTINEL`, one byte gathered per availability probe
//! instead of an 8-byte mate word. It starts all-available,
//! [`set_mates`](super::set_mates) keeps it in sync as pairs commit, and
//! [`Scratch::sync_avail`] rebuilds it wholesale after external mate
//! edits (dynamic deltas, partial probes).
//!
//! The **live lists** are the only vertices the LD driver's host passes
//! walk: per device, the ascending ids of its vertices that are neither
//! matched nor retired. They start as every partition vertex, and each
//! SETMATES pass drops the vertices that matched or retired, so every
//! liveness decision of a run — which vertices a full SETPOINTERS launch
//! scans, which the streaming band walk starts from, which SETMATES
//! checks — comes from this one source.

use ldgm_gpusim::{CommChunk, NONE_SENTINEL};
use ldgm_graph::csr::{CsrGraph, VertexId};

/// Reusable buffers threaded through the LD driver, the pointing/matching
/// kernels, and the incremental engine. Construction is the only
/// allocation site; every per-iteration use clears and refills.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// The SoA availability lane: `avail[v] != 0` ⇔ `v` is unmatched.
    pub(crate) avail: Vec<u8>,
    /// Per-device live lists: the ascending ids of the device's vertices
    /// that are neither matched nor retired (see the module docs).
    pub(crate) live: Vec<Vec<VertexId>>,
    /// Per-device frontier worklists (ascending vertex ids inside the
    /// device's partition range), refilled by each SETMATES pass.
    pub frontiers: Vec<Vec<VertexId>>,
    /// Per-device overlap staging: one `(payload_bytes, ready_time)`
    /// entry per batch whose collective slice became reducible.
    pub chunk_bufs: Vec<Vec<(u64, f64)>>,
    /// Flattened chunk list handed to the chunked allreduce.
    pub comm_staging: Vec<CommChunk>,
    /// Stabilization worklist of the current round (incremental engine).
    pub work: Vec<VertexId>,
    /// Stabilization worklist being built for the next round.
    pub next: Vec<VertexId>,
    /// Endpoints freed by delta edits, pending re-pointing.
    pub freed: Vec<VertexId>,
    /// Streaming residency lane: `resident[v] != 0` ⇔ `v`'s window bands
    /// are held on-device across iterations, so re-streaming them bills
    /// no copy bytes. Sized lazily by the streaming driver; empty
    /// otherwise.
    pub resident: Vec<u8>,
    /// Per-device streaming band worklist of the current band.
    pub band_work: Vec<Vec<VertexId>>,
    /// Per-device streaming band worklist being built for the next band.
    pub band_next: Vec<Vec<VertexId>>,
}

impl Scratch {
    /// Arena sized for `g`, all vertices available (mate all-`NONE`).
    pub fn for_graph(g: &CsrGraph) -> Self {
        Self::with_vertices(g.num_vertices())
    }

    /// Arena for `n` vertices, all available.
    pub fn with_vertices(n: usize) -> Self {
        Scratch { avail: vec![1; n], ..Default::default() }
    }

    /// Attach `ndev` per-device frontier/staging buffers.
    pub fn with_devices(mut self, ndev: usize) -> Self {
        self.frontiers = vec![Vec::new(); ndev];
        self.chunk_bufs = vec![Vec::new(); ndev];
        self.band_work = vec![Vec::new(); ndev];
        self.band_next = vec![Vec::new(); ndev];
        self
    }

    /// The availability lane, for kernel launches.
    #[inline]
    pub fn avail(&self) -> &[u8] {
        &self.avail
    }

    /// Mutable availability lane, for kernels that commit matches.
    #[inline]
    pub fn avail_mut(&mut self) -> &mut [u8] {
        &mut self.avail
    }

    /// Rebuild the availability lane from a mate array (resizing to it),
    /// after edits the kernels did not see — delta application in the
    /// incremental engine, or a fresh run over a dirty arena.
    pub fn sync_avail(&mut self, mate: &[u64]) {
        self.avail.resize(mate.len(), 0);
        for (a, &m) in self.avail.iter_mut().zip(mate) {
            *a = (m == NONE_SENTINEL) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_available_and_resyncs() {
        let mut s = Scratch::with_vertices(4);
        assert_eq!(s.avail(), &[1, 1, 1, 1]);
        let mate = [NONE_SENTINEL, 2, 1, NONE_SENTINEL];
        s.sync_avail(&mate);
        assert_eq!(s.avail(), &[1, 0, 0, 1]);
        // Resync resizes when the vertex count changes.
        s.sync_avail(&[NONE_SENTINEL; 6]);
        assert_eq!(s.avail().len(), 6);
        assert!(s.avail().iter().all(|&a| a == 1));
    }

    #[test]
    fn device_buffers_are_sized() {
        let s = Scratch::with_vertices(8).with_devices(3);
        assert_eq!(s.frontiers.len(), 3);
        assert_eq!(s.chunk_bufs.len(), 3);
        assert_eq!(s.band_work.len(), 3);
        assert_eq!(s.band_next.len(), 3);
        // The residency lane is lazy: only streaming runs size it.
        assert!(s.resident.is_empty());
    }
}
