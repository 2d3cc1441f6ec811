//! Multi-GPU platform presets.
//!
//! A [`Platform`] bundles everything the LD-GPU driver needs to bill
//! simulated time: the device model, the node's interconnect, the kernel
//! cost model and the collective runtime. The two presets mirror the
//! paper's evaluation machines — the DGX-A100 (8× A100, NVLink SXM4) and
//! the DGX-2 (16× V100, NVLink SXM3) — plus the PCIe variant used in the
//! Fig. 9 interconnect study.

use crate::cluster::ClusterTopology;
use crate::collective::CommModel;
use crate::device::{CostModel, DeviceSpec};
use crate::interconnect::{Interconnect, Link};

/// A single-node multi-GPU platform.
#[derive(Clone, Debug, PartialEq)]
pub struct Platform {
    /// Platform name for reports.
    pub name: &'static str,
    /// Per-device model (homogeneous nodes).
    pub device: DeviceSpec,
    /// Number of GPUs installed.
    pub max_devices: usize,
    /// Node fabric (host link + peer fabric).
    pub interconnect: Interconnect,
    /// Kernel/driver cost model.
    pub cost: CostModel,
    /// Collective runtime model.
    pub comm: CommModel,
}

impl Platform {
    /// NVIDIA DGX-A100: 8× A100-SXM4-40GB over NVSwitch.
    pub fn dgx_a100() -> Self {
        Platform {
            name: "DGX-A100",
            device: DeviceSpec::a100(),
            max_devices: 8,
            interconnect: Interconnect::dgx_a100(),
            cost: CostModel::default(),
            comm: CommModel::nccl(),
        }
    }

    /// NVIDIA DGX-2: 16× V100-SXM3-32GB over NVSwitch.
    pub fn dgx2() -> Self {
        Platform {
            name: "DGX-2",
            device: DeviceSpec::v100(),
            max_devices: 16,
            interconnect: Interconnect::dgx2(),
            cost: CostModel::default(),
            comm: CommModel::nccl(),
        }
    }

    /// NVIDIA DGX-H100: 8× H100-SXM5-80GB over NVSwitch (one generation
    /// past the paper).
    pub fn dgx_h100() -> Self {
        Platform {
            name: "DGX-H100",
            device: DeviceSpec::h100(),
            max_devices: 8,
            interconnect: Interconnect {
                h2d: crate::interconnect::Link::PCIE_GEN5,
                peer: crate::interconnect::Link::NVLINK_SXM5,
            },
            cost: CostModel::default(),
            comm: CommModel::nccl(),
        }
    }

    /// NVIDIA GB200 NVL72: 72× B200 in one NVLink-5 rack domain — the
    /// Blackwell platform the paper's introduction motivates.
    pub fn nvl72() -> Self {
        Platform {
            name: "GB200-NVL72",
            device: DeviceSpec::b200(),
            max_devices: 72,
            interconnect: Interconnect {
                h2d: crate::interconnect::Link::PCIE_GEN5,
                peer: crate::interconnect::Link::NVLINK_5,
            },
            cost: CostModel::default(),
            comm: CommModel::nccl(),
        }
    }

    /// A cluster of DGX-A100 nodes joined by InfiniBand HDR — the
    /// distributed setting the paper's §V names as future work.
    /// Collectives become hierarchical (NVLink within a node, IB ring
    /// across node leaders).
    pub fn dgx_a100_cluster(nodes: usize) -> Self {
        assert!(nodes >= 1);
        let base = Self::dgx_a100();
        Platform {
            name: "DGX-A100-cluster",
            max_devices: 8 * nodes,
            comm: CommModel::Hierarchical {
                gpus_per_node: 8,
                inter: crate::interconnect::Link::INFINIBAND_HDR,
                launch_us: 20.0,
            },
            ..base
        }
    }

    /// A cluster of A100 nodes on an AWS-EFA-class cloud fabric
    /// (p4d-style): same NVLink islands as the DGX cluster, but the
    /// inter-node hop runs over EFA — lower bandwidth and much higher
    /// latency than InfiniBand HDR.
    pub fn a100_efa_cluster(nodes: usize) -> Self {
        assert!(nodes >= 1);
        let base = Self::dgx_a100();
        Platform {
            name: "A100-EFA-cluster",
            max_devices: 8 * nodes,
            comm: CommModel::Hierarchical {
                gpus_per_node: 8,
                inter: Link::AWS_EFA,
                launch_us: 25.0,
            },
            ..base
        }
    }

    /// A100 node with PCIe-only communication (Fig. 9's baseline).
    pub fn pcie_a100() -> Self {
        Platform {
            name: "A100-PCIe",
            device: DeviceSpec::a100(),
            max_devices: 8,
            interconnect: Interconnect::pcie_a100(),
            cost: CostModel::default(),
            comm: CommModel::nccl(),
        }
    }

    /// Replace the collective runtime (e.g. the cuGraph/RAFT model).
    pub fn with_comm(mut self, comm: CommModel) -> Self {
        self.comm = comm;
        self
    }

    /// Turn this node into an `nodes × gpus_per_node` cluster joined by
    /// `inter`: the current peer fabric becomes the intra-node link, the
    /// collectives become hierarchical, and `max_devices` grows to the
    /// cluster total. The NCCL launch overhead carries over.
    pub fn clustered(mut self, nodes: usize, gpus_per_node: usize, inter: Link) -> Self {
        assert!(nodes >= 1 && gpus_per_node >= 1);
        let launch_us = match self.comm {
            CommModel::Nccl { launch_us } => launch_us,
            CommModel::MpiStaged { launch_us, .. } => launch_us,
            CommModel::Hierarchical { launch_us, .. } => launch_us,
        };
        self.max_devices = nodes * gpus_per_node;
        self.comm = CommModel::Hierarchical { gpus_per_node, inter, launch_us };
        self
    }

    /// Resize to `nodes` nodes (the `--nodes N` CLI knob). Cluster
    /// platforms keep their per-node shape and inter-node link;
    /// single-node platforms become a cluster of themselves over
    /// InfiniBand HDR (`nodes == 1` leaves them untouched).
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        assert!(nodes >= 1);
        match self.comm {
            CommModel::Hierarchical { gpus_per_node, .. } => {
                self.max_devices = gpus_per_node * nodes;
                self
            }
            _ if nodes == 1 => self,
            _ => {
                let gpn = self.max_devices;
                self.clustered(nodes, gpn, Link::INFINIBAND_HDR)
            }
        }
    }

    /// The flat baseline of a cluster: the same device count on one flat
    /// ring whose every hop runs at the inter-node link — a fabric where
    /// every hop costs the same, as if the topology were invisible.
    /// Identity on single-node platforms.
    pub fn flattened(mut self) -> Self {
        if let CommModel::Hierarchical { inter, launch_us, .. } = self.comm {
            self.comm = CommModel::Nccl { launch_us };
            self.interconnect.peer = inter;
        }
        self
    }

    /// The cluster topology implied by a hierarchical platform: intra =
    /// the peer fabric, inter = the hierarchical model's slow link.
    /// `None` for single-node platforms.
    pub fn cluster_topology(&self) -> Option<ClusterTopology> {
        match self.comm {
            CommModel::Hierarchical { gpus_per_node, inter, .. } => {
                let gpn = gpus_per_node.max(1);
                Some(ClusterTopology {
                    name: self.name,
                    nodes: self.max_devices.div_ceil(gpn).max(1),
                    gpus_per_node: gpn,
                    intra: self.interconnect.peer,
                    inter,
                })
            }
            _ => None,
        }
    }

    /// Check that the platform can run anything at all: it has a device,
    /// and each device has a warp slot (an SM and a warp per SM). Both
    /// engines' config validators run this; a failure is their
    /// `InvalidConfig`, carrying this message.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_devices == 0 {
            return Err(format!("platform {} has no devices", self.name));
        }
        let spec = &self.device;
        if spec.sm_count == 0 || spec.max_warps_per_sm == 0 {
            return Err(format!(
                "device {} has no warp slots ({} SMs x {} warps per SM)",
                spec.name, spec.sm_count, spec.max_warps_per_sm
            ));
        }
        Ok(())
    }

    /// Override per-device memory (scaled-down experiments force batching
    /// by shrinking capacity instead of growing the graph).
    pub fn with_device_memory(mut self, bytes: u64) -> Self {
        self.device.mem_bytes = bytes;
        self
    }

    /// Divide every *fixed* overhead — kernel launch, host sync,
    /// collective launch, link latencies — by `div`. Scaled-down
    /// experiments shrink graphs (hence kernel and bandwidth terms) by a
    /// known factor; the fixed microsecond-scale overheads must shrink by
    /// the same factor or they dominate artificially and erase the
    /// relative behaviour the paper measures at full scale.
    pub fn with_overheads_scaled(mut self, div: f64) -> Self {
        assert!(div > 0.0);
        self.cost.kernel_launch_us /= div;
        self.cost.host_sync_us /= div;
        self.interconnect.h2d.latency_us /= div;
        self.interconnect.peer.latency_us /= div;
        self.comm = match self.comm {
            crate::collective::CommModel::Nccl { launch_us } => {
                crate::collective::CommModel::Nccl { launch_us: launch_us / div }
            }
            crate::collective::CommModel::MpiStaged { launch_us, bw_derate } => {
                crate::collective::CommModel::MpiStaged { launch_us: launch_us / div, bw_derate }
            }
            crate::collective::CommModel::Hierarchical { gpus_per_node, mut inter, launch_us } => {
                inter.latency_us /= div;
                crate::collective::CommModel::Hierarchical {
                    gpus_per_node,
                    inter,
                    launch_us: launch_us / div,
                }
            }
        };
        self
    }

    /// Every exported preset with its CLI name — the single source of
    /// truth for `--platform` parsing and the `ldgm platforms` listing.
    /// The cluster preset appears with its 4-node default; `toy` is
    /// test-only and deliberately not listed.
    pub fn presets() -> Vec<(&'static str, Platform)> {
        vec![
            ("dgx-a100", Self::dgx_a100()),
            ("dgx2", Self::dgx2()),
            ("dgx-h100", Self::dgx_h100()),
            ("nvl72", Self::nvl72()),
            ("pcie-a100", Self::pcie_a100()),
            ("dgx-a100-cluster", Self::dgx_a100_cluster(4)),
            ("a100-efa-cluster", Self::a100_efa_cluster(4)),
        ]
    }

    /// CLI names of all presets, in listing order.
    pub fn preset_names() -> Vec<&'static str> {
        Self::presets().into_iter().map(|(n, _)| n).collect()
    }

    /// Look up a preset by CLI name.
    pub fn by_name(name: &str) -> Option<Platform> {
        Self::presets().into_iter().find(|(n, _)| *n == name).map(|(_, p)| p)
    }

    /// A tiny deterministic platform for unit tests.
    pub fn toy(max_devices: usize, mem_bytes: u64) -> Self {
        Platform {
            name: "TOY",
            device: DeviceSpec::toy(mem_bytes),
            max_devices,
            interconnect: Interconnect::dgx_a100(),
            cost: CostModel::default(),
            comm: CommModel::nccl(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_machines() {
        let a = Platform::dgx_a100();
        assert_eq!(a.max_devices, 8);
        assert_eq!(a.device.name, "A100-SXM4-40GB");
        let v = Platform::dgx2();
        assert_eq!(v.max_devices, 16);
        assert_eq!(v.device.name, "V100-SXM3-32GB");
    }

    #[test]
    fn pcie_variant_has_slower_peer_fabric() {
        let nv = Platform::dgx_a100();
        let pcie = Platform::pcie_a100();
        assert!(nv.interconnect.peer.bw_gbps > 10.0 * pcie.interconnect.peer.bw_gbps);
    }

    #[test]
    fn future_generation_presets() {
        let h = Platform::dgx_h100();
        assert_eq!(h.max_devices, 8);
        assert!(h.device.achieved_bw_bytes() > Platform::dgx_a100().device.achieved_bw_bytes());
        let nvl = Platform::nvl72();
        assert_eq!(nvl.max_devices, 72);
        assert!(nvl.interconnect.peer.bw_gbps > h.interconnect.peer.bw_gbps);
        assert_eq!(nvl.device.mem_bytes, 192 * (1 << 30));
    }

    #[test]
    fn cluster_preset_is_hierarchical() {
        let c = Platform::dgx_a100_cluster(4);
        assert_eq!(c.max_devices, 32);
        assert!(matches!(c.comm, CommModel::Hierarchical { gpus_per_node: 8, .. }));
    }

    #[test]
    fn preset_registry_is_exhaustive_and_consistent() {
        let presets = Platform::presets();
        assert_eq!(presets.len(), 7);
        for (name, p) in &presets {
            assert_eq!(Platform::by_name(name).as_ref(), Some(p), "{name}");
        }
        assert!(Platform::by_name("toy").is_none());
        assert!(Platform::by_name("bogus").is_none());
        assert_eq!(Platform::preset_names()[0], "dgx-a100");
    }

    #[test]
    fn with_nodes_resizes_clusters_and_clusters_flat_platforms() {
        // A cluster platform keeps its shape and just changes node count.
        let c = Platform::dgx_a100_cluster(4).with_nodes(2);
        assert_eq!(c.max_devices, 16);
        assert!(matches!(c.comm, CommModel::Hierarchical { gpus_per_node: 8, .. }));
        // A flat platform becomes a cluster of itself over IB HDR.
        let f = Platform::dgx2().with_nodes(3);
        assert_eq!(f.max_devices, 48);
        let topo = f.cluster_topology().unwrap();
        assert_eq!((topo.nodes, topo.gpus_per_node), (3, 16));
        assert_eq!(topo.inter, Link::INFINIBAND_HDR);
        assert_eq!(topo.intra, Link::NVLINK_SXM3);
        // --nodes 1 leaves single-node platforms untouched.
        assert_eq!(Platform::dgx_a100().with_nodes(1), Platform::dgx_a100());
        assert_eq!(Platform::dgx_a100_cluster(4).with_nodes(1).max_devices, 8);
    }

    #[test]
    fn flattened_moves_the_cluster_onto_the_slow_link() {
        let c = Platform::dgx_a100_cluster(2);
        let f = c.clone().flattened();
        assert_eq!(f.max_devices, c.max_devices);
        assert!(matches!(f.comm, CommModel::Nccl { .. }));
        assert_eq!(f.interconnect.peer, Link::INFINIBAND_HDR);
        assert!(f.cluster_topology().is_none());
        // Identity off-cluster.
        assert_eq!(Platform::dgx_a100().flattened(), Platform::dgx_a100());
    }

    #[test]
    fn cluster_topology_derives_from_the_comm_model() {
        let t = Platform::a100_efa_cluster(4).cluster_topology().unwrap();
        assert_eq!((t.nodes, t.gpus_per_node), (4, 8));
        assert_eq!(t.inter, Link::AWS_EFA);
        assert_eq!(t.intra, Link::NVLINK_SXM4);
        assert_eq!(t.hop_class(0, 9), crate::cluster::HopClass::InterNode);
        assert!(Platform::dgx_a100().cluster_topology().is_none());
    }

    #[test]
    fn overrides_compose() {
        let p = Platform::dgx_a100().with_device_memory(1 << 20).with_comm(CommModel::mpi_staged());
        assert_eq!(p.device.mem_bytes, 1 << 20);
        assert!(matches!(p.comm, CommModel::MpiStaged { .. }));
    }
}
