//! Reusable per-run scratch arena of the LD driver.
//!
//! [`Scratch`] owns every buffer a run refills each iteration — the
//! availability lane, the live lists, the frontier worklists, the
//! overlap comm staging and the streaming band worklists — for the
//! lifetime of the run: buffers are cleared, never dropped, so
//! steady-state iterations allocate nothing on the host.
//!
//! The **availability lane** is the third SoA lane the pointing kernels
//! scan (next to the CSR id and weight lanes): `avail[v] != 0` ⇔
//! `mate[v] == NONE_SENTINEL`, one byte gathered per availability probe
//! instead of an 8-byte mate word. It starts all-available, and SETMATES
//! clears it as pairs commit.
//!
//! The **live lists** are the only vertices the LD driver's host passes
//! walk: per device, the ascending ids of its vertices that are neither
//! matched nor retired. They start as every partition vertex, and each
//! SETMATES pass drops the vertices that matched or retired, so every
//! liveness decision of a run — which vertices a full SETPOINTERS launch
//! scans, which the streaming band walk starts from, which SETMATES
//! checks — comes from this one source.

use ldgm_gpusim::CommChunk;
use ldgm_graph::csr::VertexId;
use ldgm_part::VertexRange;

/// Reusable buffers threaded through the LD driver and its kernels.
/// Construction is the only allocation site; every per-iteration use
/// clears and refills.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scratch {
    /// The SoA availability lane: `avail[v] != 0` ⇔ `v` is unmatched.
    pub(crate) avail: Vec<u8>,
    /// Per-device live lists: the ascending ids of the device's vertices
    /// that are neither matched nor retired (see the module docs).
    pub(crate) live: Vec<Vec<VertexId>>,
    /// Per-device frontier worklists (ascending vertex ids inside the
    /// device's partition range), refilled by each SETMATES pass.
    pub(crate) frontiers: Vec<Vec<VertexId>>,
    /// Per-device buffers of the pointing phase.
    pub(crate) devices: Vec<DeviceBufs>,
    /// Every device's staged chunks, flattened for the chunked allreduce.
    pub(crate) comm_staging: Vec<CommChunk>,
    /// Streaming residency lane: `resident[v]` counts the leading bands
    /// of `v` held on-device across iterations, so re-streaming them
    /// bills no copy bytes. Empty outside streaming mode.
    pub(crate) resident: Vec<u8>,
}

/// One device's buffers of the pointing phase.
#[derive(Clone, Debug, Default)]
pub(crate) struct DeviceBufs {
    /// The pointer slices the device staged for an overlapped reduction.
    pub(crate) chunks: Vec<CommChunk>,
    /// Streaming band worklist of the current band.
    pub(crate) band_work: Vec<VertexId>,
    /// Streaming band worklist being built for the next band.
    pub(crate) band_next: Vec<VertexId>,
}

impl Scratch {
    /// The arena of a run over `n` vertices split into `parts`, one per
    /// device: every vertex available and every part vertex live, with the
    /// residency lane when `streaming`.
    pub(crate) fn new(n: usize, parts: &[VertexRange], streaming: bool) -> Self {
        Scratch {
            avail: vec![1; n],
            live: parts.iter().map(|p| (p.start..p.end).collect()).collect(),
            frontiers: vec![Vec::new(); parts.len()],
            devices: vec![DeviceBufs::default(); parts.len()],
            comm_staging: Vec::new(),
            resident: if streaming { vec![0; n] } else { Vec::new() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts() -> [VertexRange; 3] {
        let range = |start, end| VertexRange { start, end, edge_start: 0, edge_end: 0 };
        [range(0, 3), range(3, 3), range(3, 8)]
    }

    #[test]
    fn starts_all_available_and_all_live() {
        let s = Scratch::new(8, &parts(), false);
        assert_eq!(s.avail, [1; 8]);
        assert_eq!(s.live, [vec![0, 1, 2], vec![], vec![3, 4, 5, 6, 7]]);
    }

    #[test]
    fn device_buffers_are_sized() {
        let s = Scratch::new(8, &parts(), false);
        assert_eq!(s.frontiers.len(), 3);
        assert_eq!(s.devices.len(), 3);
        // The residency lane is sized only for streaming runs.
        assert!(s.resident.is_empty());
        assert_eq!(Scratch::new(8, &parts(), true).resident, [0; 8]);
    }
}
