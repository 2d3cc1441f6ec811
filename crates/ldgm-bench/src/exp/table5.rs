//! **Table V**: multi-GPU cuGraph-style baseline vs LD-GPU on 4 GPUs,
//! single batch.
//!
//! Expected shape (paper): LD-GPU an order of magnitude faster, which the
//! paper attributes to the communication abstraction — NCCL over CUDA
//! streams vs cuGraph's MPI-based RAFT comms — plus cuGraph's generic
//! process-per-GPU execution model.

use std::io::{self, Write};

use ldgm_core::cugraph_sim::cugraph_sim;
use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig};
use ldgm_gpusim::Platform;

use crate::datasets::{by_name, scaled_platform};
use crate::runner::fmt_secs;
use crate::table::Table;

/// The five graphs of the paper's Table V.
pub const GRAPHS: &[&str] = &["Queen_4147", "mycielskian18", "com-Orkut", "kmer_U1a", "kmer_V2a"];

/// Run the experiment, writing the report to `w`.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# Table V: cuGraph-style baseline vs LD-GPU on 4 GPUs (s)\n")?;
    let platform = scaled_platform(Platform::dgx_a100());
    let mut t = Table::new(vec!["Graph", "LD-GPU", "cuGraph-sim", "LD-GPU speedup"]);
    for name in GRAPHS {
        let g = by_name(name).expect("registry dataset").build();
        let ld =
            LdGpu::new(LdGpuConfig::new(platform.clone()).devices(4).batches(1)).run(&g).sim_time;
        let cu = cugraph_sim(&g, &platform, 4).expect("cuGraph-sim feasible on SMALL").sim_time;
        t.row(vec![name.to_string(), fmt_secs(ld), fmt_secs(cu), format!("{:.1}x", cu / ld)]);
    }
    writeln!(w, "{t}")
}
