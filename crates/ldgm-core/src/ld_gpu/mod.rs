//! **LD-GPU** — the paper's primary contribution: multi-device, batched,
//! pointer-based locally dominant ½-approximate weighted matching
//! (Algorithms 2 and 3), executed on the `ldgm-gpusim` platform simulator.
//!
//! ```
//! use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig};
//! use ldgm_gpusim::Platform;
//! use ldgm_graph::gen::GraphGen;
//!
//! let g = GraphGen::urand().vertices(512).avg_degree(8).seed(1).build();
//! let out = LdGpu::new(LdGpuConfig::new(Platform::dgx_a100()).devices(4)).run(&g);
//! assert!(out.matching.verify(&g).is_ok());
//! assert!(out.matching.is_maximal(&g));
//! ```

mod comm;
mod config;
mod driver;
mod kernels;
mod scratch;
pub mod tune;

pub use comm::CommPolicy;
pub use config::{LdGpuConfig, LdGpuError};
pub use driver::{LdGpu, LdGpuOutput};
pub use kernels::{
    fill_warp_stats, set_mates, set_pointers_batch, set_pointers_opt, set_pointers_scan,
    PointingResult, PointingWork, Scan,
};
pub use tune::{auto_tune, auto_tune_with, TuneOptions, TuneReport};
