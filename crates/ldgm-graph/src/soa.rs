//! SoA scan primitives for the host-side hot kernels.
//!
//! CSR already stores adjacency as structure-of-arrays (separate id and
//! weight lanes); this module adds the third lane the pointing kernels
//! need — an **availability lane**, one byte per vertex mirroring
//! `mate[v] == NONE` — and flat scan routines over contiguous lane
//! slices. Instead of a per-edge `f64` compare plus tie-break branch and
//! an 8-byte gather into the mate array, a scan packs each candidate
//! into a single 96-bit key whose integer order *is* the canonical
//! matching preference (weight descending, then id ascending), masks it
//! by the 1-byte availability gather, and keeps a running branch-light
//! maximum. Selection is exact: positive finite `f64` bit patterns are
//! order-isomorphic to their values, and the complemented id in the low
//! bits breaks weight ties toward the smaller id.
//!
//! Scans stream whole contiguous slices; the 32-wide wave is the billing
//! granularity of the simulated kernels ([`WAVE`]), not a host blocking
//! factor.

use crate::csr::{VertexId, Weight};

/// Width of one simulated warp wave (threads sweeping an adjacency list).
pub const WAVE: usize = 32;

/// The scan key of "no available neighbor": smaller than every packed
/// key, since edge weights are positive (`w > 0` ⇒ nonzero high bits).
pub const NO_KEY: u128 = 0;

/// Pack `(weight, id)` into a key whose `u128` order is the canonical
/// preference order: weight bits in the high 64, complemented id in the
/// low 32. Requires `w > 0.0` and finite (the [`crate::csr::CsrGraph`]
/// weight invariants), so every packed key is nonzero.
#[inline]
pub fn pack_key(w: Weight, v: VertexId) -> u128 {
    debug_assert!(w > 0.0 && w.is_finite(), "scan keys need positive finite weights");
    ((w.to_bits() as u128) << 32) | (!v as u128)
}

/// Recover the neighbor id from a packed key.
#[inline]
pub fn key_id(k: u128) -> VertexId {
    !(k as u32)
}

/// Recover the weight from a packed key.
#[inline]
pub fn key_weight(k: u128) -> Weight {
    f64::from_bits((k >> 32) as u64)
}

/// Argmax scan over one vertex's id/weight lane slices: the packed key
/// of the heaviest *available* neighbor (smallest id on weight ties), or
/// [`NO_KEY`] if none is available. `avail` is the availability lane
/// (`avail[v] != 0` ⇔ `v` unmatched), indexed by every id in `ids`.
#[inline]
pub fn scan_best(ids: &[VertexId], ws: &[Weight], avail: &[u8]) -> u128 {
    debug_assert_eq!(ids.len(), ws.len());
    let mut best = NO_KEY;
    for (&v, &w) in ids.iter().zip(ws) {
        // Mask the key to NO_KEY when unavailable: no data-dependent
        // branch, one byte gathered per edge.
        let mask = (avail[v as usize] as u128).wrapping_neg();
        let k = pack_key(w, v) & mask;
        if k > best {
            best = k;
        }
    }
    best
}

/// Number of entries whose packed key is above `k`: the position of key
/// `k` in the list's preference order (weight desc, id asc), since a list
/// holds each neighbor once. With `k` the available argmax of
/// [`scan_best`], this is where a preference-sorted scan would find it.
#[inline]
pub fn rank_of(ids: &[VertexId], ws: &[Weight], k: u128) -> usize {
    debug_assert_eq!(ids.len(), ws.len());
    ids.iter().zip(ws).filter(|&(&v, &w)| pack_key(w, v) > k).count()
}

/// Position of the first available id in a preference-sorted lane slice
/// (the argmax, when `ids` is in (weight desc, id asc) order).
#[inline]
pub fn first_available(ids: &[VertexId], avail: &[u8]) -> Option<usize> {
    ids.iter().position(|&v| avail[v as usize] != 0)
}

/// Number of 32-wide waves a scan of `scanned` edge slots occupies.
#[inline]
pub fn waves(scanned: u64) -> u64 {
    scanned.div_ceil(WAVE as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rmat, urand, RmatParams};

    /// The reference selection: the default kernel's explicit
    /// weight-then-id compare over available neighbors.
    fn naive_best(ids: &[VertexId], ws: &[Weight], avail: &[u8]) -> Option<(VertexId, Weight)> {
        let mut best: Option<(VertexId, Weight)> = None;
        for (&v, &w) in ids.iter().zip(ws) {
            if avail[v as usize] == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bv, bw)) => w > bw || (w == bw && v < bv),
            };
            if better {
                best = Some((v, w));
            }
        }
        best
    }

    #[test]
    fn key_order_is_the_preference_order() {
        // Heavier wins; equal weight breaks toward the smaller id.
        assert!(pack_key(2.0, 7) > pack_key(1.0, 0));
        assert!(pack_key(1.0, 3) > pack_key(1.0, 4));
        assert!(pack_key(0.001, 0) > NO_KEY);
        assert_eq!(key_id(pack_key(3.5, 41)), 41);
        assert_eq!(key_weight(pack_key(3.5, 41)), 3.5);
    }

    #[test]
    fn scan_best_matches_naive_on_random_graphs() {
        for (seed, g) in
            [(1u64, urand(400, 3000, 1)), (2, rmat(256, 2000, RmatParams::GAP_KRON, 2))]
        {
            let n = g.num_vertices();
            // Pseudo-random availability pattern.
            let avail: Vec<u8> = (0..n)
                .map(|v| ((v as u64).wrapping_mul(seed * 2654435761) >> 7) as u8 & 1)
                .collect();
            for v in 0..n as VertexId {
                let ids = g.neighbors(v);
                let ws = g.neighbor_weights(v);
                let k = scan_best(ids, ws, &avail);
                match naive_best(ids, ws, &avail) {
                    None => assert_eq!(k, NO_KEY, "vertex {v}"),
                    Some((bv, bw)) => {
                        assert_eq!(key_id(k), bv, "vertex {v}");
                        assert_eq!(key_weight(k), bw, "vertex {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn first_available_finds_the_sorted_argmax() {
        let ids = [9, 4, 7, 1];
        let mut avail = [0u8; 10];
        assert_eq!(first_available(&ids, &avail), None);
        avail[7] = 1;
        avail[1] = 1;
        assert_eq!(first_available(&ids, &avail), Some(2));
    }

    #[test]
    fn rank_of_is_the_sorted_position() {
        // Preference order: (5.0, 3), (5.0, 8), (2.0, 1), (1.0, 9).
        let ids = [8, 1, 9, 3];
        let ws = [5.0, 2.0, 1.0, 5.0];
        assert_eq!(rank_of(&ids, &ws, pack_key(5.0, 3)), 0);
        assert_eq!(rank_of(&ids, &ws, pack_key(5.0, 8)), 1, "weight ties rank by id");
        assert_eq!(rank_of(&ids, &ws, pack_key(2.0, 1)), 2);
        assert_eq!(rank_of(&ids, &ws, pack_key(1.0, 9)), 3);
        assert_eq!(rank_of(&[], &[], pack_key(1.0, 0)), 0);
    }

    #[test]
    fn wave_accounting() {
        assert_eq!(waves(0), 0);
        assert_eq!(waves(1), 1);
        assert_eq!(waves(32), 1);
        assert_eq!(waves(33), 2);
    }
}
