//! **Table IV**: single-GPU runtime, LD-GPU vs SR-GPU, on com-Friendster
//! plus the seven SMALL graphs.
//!
//! Expected shape (paper): SR-GPU — which specializes for single-device
//! execution with per-adjacency-bounded work — wins most mid-size
//! instances, while LD-GPU is better or competitive on ~3 of 8 (the graphs
//! whose structure defeats fixed vertices-per-warp load redistribution).

use std::io::{self, Write};

use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig};
use ldgm_core::suitor_sim::suitor_sim;
use ldgm_gpusim::Platform;

use crate::datasets::{by_name, scaled_platform};
use crate::runner::fmt_secs;
use crate::table::Table;

/// The eight graphs of the paper's Table IV.
pub const GRAPHS: &[&str] = &[
    "com-Friendster",
    "Queen_4147",
    "mycielskian18",
    "HV15R",
    "com-Orkut",
    "kmer_U1a",
    "kmer_V2a",
    "mouse_gene",
];

/// Run the experiment, writing the report to `w`.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# Table IV: single-GPU runtime comparison (s)\n")?;
    let platform = scaled_platform(Platform::dgx_a100());
    let mut t = Table::new(vec!["Graph", "LD-GPU", "SR-GPU", "winner"]);
    for name in GRAPHS {
        let g = by_name(name).expect("registry dataset").build();
        let ld = LdGpu::new(LdGpuConfig::new(platform.clone())).run(&g).sim_time;
        match suitor_sim(&g, &platform) {
            Ok(sr) => {
                let winner = if ld <= sr.sim_time { "LD-GPU" } else { "SR-GPU" };
                t.row(vec![
                    name.to_string(),
                    fmt_secs(ld),
                    fmt_secs(sr.sim_time),
                    winner.to_string(),
                ]);
            }
            Err(_) => {
                t.row(vec![name.to_string(), fmt_secs(ld), "-".into(), "LD-GPU".into()]);
            }
        }
    }
    writeln!(w, "{t}")
}
