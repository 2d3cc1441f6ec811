//! Collective-communication cost models.
//!
//! LD-GPU synchronizes twice per iteration with `ncclAllReduce` over the
//! `pointers` and `mate` arrays (Algorithm 2, lines 7 and 9). The cost
//! model is the standard ring-allreduce bound — `2·(N−1)/N · bytes / bw`
//! plus per-hop latency and a launch overhead — evaluated over the
//! platform's peer fabric. A second, MPI-style model (RAFT-comms as used
//! by RAPIDS cuGraph, Table V) stages traffic through host memory with
//! much higher software overhead.
//!
//! Only the cost is modelled: the devices own disjoint vertex ranges and
//! write disjoint slices of one shared array, so no data reduction runs
//! on the host.

use crate::interconnect::Link;

/// Which communication runtime the collectives emulate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CommModel {
    /// NCCL over CUDA streams (the paper's implementation).
    Nccl {
        /// Collective launch overhead in µs (~20 µs for NCCL).
        launch_us: f64,
    },
    /// MPI-based RAFT-comms as in multi-GPU cuGraph: host-staged rings
    /// with per-call software overhead an order of magnitude higher.
    MpiStaged {
        /// Per-call software overhead in µs.
        launch_us: f64,
        /// Effective bandwidth derating versus the raw link.
        bw_derate: f64,
    },
    /// Hierarchical multi-node collective (the paper's §V distributed
    /// future work): NVLink reduce-scatter within each node, an
    /// inter-node ring over the node leaders, then an intra-node
    /// broadcast. The `peer` link passed to
    /// [`CommModel::allreduce_time`] is the *intra-node* fabric.
    Hierarchical {
        /// GPUs per node.
        gpus_per_node: usize,
        /// Inter-node link (e.g. [`crate::interconnect::Link::INFINIBAND_HDR`]).
        inter: Link,
        /// NCCL launch overhead in µs.
        launch_us: f64,
    },
}

impl CommModel {
    /// Default NCCL model.
    pub fn nccl() -> Self {
        CommModel::Nccl { launch_us: 20.0 }
    }

    /// Default cuGraph/RAFT model.
    pub fn mpi_staged() -> Self {
        CommModel::MpiStaged { launch_us: 250.0, bw_derate: 0.25 }
    }

    /// Simulated duration of an allreduce of `bytes` over `n_devices`
    /// devices connected by `peer`.
    pub fn allreduce_time(&self, peer: &Link, n_devices: usize, bytes: u64) -> f64 {
        match *self {
            CommModel::Nccl { launch_us } => {
                if n_devices <= 1 {
                    // Single-rank NCCL degenerates to a cheap device-local
                    // pass: a fraction of the launch cost plus one sweep at
                    // HBM-class bandwidth.
                    return launch_us * 0.1 * 1e-6 + bytes as f64 / 400e9;
                }
                let n = n_devices as f64;
                let ring_bytes = 2.0 * (n - 1.0) / n * bytes as f64;
                launch_us * 1e-6
                    + 2.0 * (n - 1.0) * peer.latency_us * 1e-6
                    + ring_bytes / (peer.bw_gbps * 1e9)
            }
            CommModel::MpiStaged { launch_us, bw_derate } => {
                if n_devices <= 1 {
                    return launch_us * 1e-6;
                }
                let n = n_devices as f64;
                let ring_bytes = 2.0 * (n - 1.0) / n * bytes as f64;
                launch_us * 1e-6
                    + 2.0 * (n - 1.0) * (peer.latency_us * 4.0) * 1e-6
                    + ring_bytes / (peer.bw_gbps * 1e9 * bw_derate)
            }
            CommModel::Hierarchical { gpus_per_node, inter, launch_us } => {
                let per_node = n_devices.min(gpus_per_node.max(1));
                let nodes = n_devices.div_ceil(gpus_per_node.max(1)).max(1);
                if nodes <= 1 {
                    return CommModel::Nccl { launch_us }.allreduce_time(peer, n_devices, bytes);
                }
                // The leader ring carries the full payload across the
                // slow link.
                let (total, _) = hierarchical_allreduce_time(
                    peer, &inter, launch_us, per_node, nodes, bytes, bytes,
                );
                total
            }
        }
    }
}

/// The two-level allreduce over `nodes` nodes of `per_node` devices: an
/// intra-node NCCL allreduce of `bytes` over `peer` (reduce-scatter plus
/// broadcast), a ring over the node leaders carrying `inter_bytes` across
/// `inter`, and the second launch. Returns the total seconds and the
/// leader ring's share of them.
pub(crate) fn hierarchical_allreduce_time(
    peer: &Link,
    inter: &Link,
    launch_us: f64,
    per_node: usize,
    nodes: usize,
    bytes: u64,
    inter_bytes: u64,
) -> (f64, f64) {
    let intra = CommModel::Nccl { launch_us }.allreduce_time(peer, per_node, bytes);
    let nn = nodes as f64;
    let inter_ring = 2.0 * (nn - 1.0) / nn * inter_bytes as f64 / (inter.bw_gbps * 1e9)
        + 2.0 * (nn - 1.0) * inter.latency_us * 1e-6;
    (intra + inter_ring + launch_us * 1e-6, inter_ring)
}

/// Sentinel for "no value" entries in reduced arrays.
pub const NONE_SENTINEL: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_cost_grows_with_devices_for_small_payloads() {
        let m = CommModel::nccl();
        let l = Link::NVLINK_SXM4;
        let t2 = m.allreduce_time(&l, 2, 1 << 20);
        let t8 = m.allreduce_time(&l, 8, 1 << 20);
        assert!(t8 > t2, "latency term should dominate small payloads");
    }

    #[test]
    fn ring_bandwidth_term_saturates_for_large_payloads() {
        let m = CommModel::nccl();
        let l = Link::NVLINK_SXM4;
        // 2(N−1)/N approaches 2: 8-dev cost < 2× the 2-dev cost for huge
        // payloads.
        let t2 = m.allreduce_time(&l, 2, 8 << 30);
        let t8 = m.allreduce_time(&l, 8, 8 << 30);
        assert!(t8 < 2.0 * t2, "t2 {t2} t8 {t8}");
    }

    #[test]
    fn single_device_is_cheap() {
        let m = CommModel::nccl();
        let l = Link::NVLINK_SXM4;
        // Typical pointer-array payloads: the local pass avoids both the
        // ring latency and most of the launch overhead.
        assert!(m.allreduce_time(&l, 1, 1 << 20) < 0.2 * m.allreduce_time(&l, 2, 1 << 20));
    }

    #[test]
    fn mpi_model_order_of_magnitude_slower() {
        let nccl = CommModel::nccl();
        let mpi = CommModel::mpi_staged();
        let l = Link::NVLINK_SXM4;
        let ratio = mpi.allreduce_time(&l, 4, 1 << 20) / nccl.allreduce_time(&l, 4, 1 << 20);
        assert!(ratio > 5.0, "ratio {ratio}");
    }

    #[test]
    fn nvlink_collectives_beat_pcie() {
        let m = CommModel::nccl();
        let big = 64 << 20;
        let nv = m.allreduce_time(&Link::NVLINK_SXM4, 8, big);
        let pcie = m.allreduce_time(&Link::PCIE_GEN4, 8, big);
        assert!(pcie / nv > 3.0, "ratio {}", pcie / nv);
    }
}

#[cfg(test)]
mod hierarchical_tests {
    use super::*;

    #[test]
    fn single_node_degenerates_to_nccl() {
        let h = CommModel::Hierarchical {
            gpus_per_node: 8,
            inter: Link::INFINIBAND_HDR,
            launch_us: 20.0,
        };
        let n = CommModel::Nccl { launch_us: 20.0 };
        let l = Link::NVLINK_SXM4;
        assert_eq!(h.allreduce_time(&l, 8, 1 << 20), n.allreduce_time(&l, 8, 1 << 20));
    }

    #[test]
    fn crossing_nodes_costs_more_than_staying_inside() {
        let h = CommModel::Hierarchical {
            gpus_per_node: 8,
            inter: Link::INFINIBAND_HDR,
            launch_us: 20.0,
        };
        let l = Link::NVLINK_SXM4;
        // 16 GPUs over 2 nodes is slower than 8 GPUs in 1 node, despite
        // doubling the devices: the IB ring dominates.
        let t8 = h.allreduce_time(&l, 8, 8 << 20);
        let t16 = h.allreduce_time(&l, 16, 8 << 20);
        assert!(t16 > 2.0 * t8, "t8 {t8} t16 {t16}");
    }

    #[test]
    fn inter_node_cost_grows_with_node_count() {
        let h = CommModel::Hierarchical {
            gpus_per_node: 8,
            inter: Link::INFINIBAND_HDR,
            launch_us: 20.0,
        };
        let l = Link::NVLINK_SXM4;
        let t2 = h.allreduce_time(&l, 16, 1 << 20);
        let t4 = h.allreduce_time(&l, 32, 1 << 20);
        assert!(t4 > t2);
    }
}
