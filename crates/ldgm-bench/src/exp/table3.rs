//! **Table III**: LD-GPU speedup on a single NVIDIA A100 vs V100, SMALL
//! graphs, single device (isolating device generation from communication
//! and batching).
//!
//! Expected shape (paper): 1–4.5× A100 advantage, geometric mean ≈ 2.35×,
//! with the low-arithmetic-intensity kmer graphs benefiting the most.

use std::io::{self, Write};

use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig};
use ldgm_gpusim::Platform;

use crate::datasets::{by_name, scaled_platform};
use crate::runner::geomean;
use crate::table::Table;

/// The six graphs of the paper's Table III.
pub const GRAPHS: &[&str] =
    &["Queen_4147", "mycielskian18", "com-Orkut", "kmer_U1a", "kmer_V2a", "mouse_gene"];

/// Run the experiment, writing the report to `w`.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# Table III: LD-GPU speedup on a single A100 vs a single V100\n")?;
    let a100 = scaled_platform(Platform::dgx_a100());
    let v100 = scaled_platform(Platform::dgx2());
    let mut t = Table::new(vec!["Graph", "A100 (s)", "V100 (s)", "A100 Speedup"]);
    let mut ratios = Vec::new();
    for name in GRAPHS {
        let g = by_name(name).expect("registry dataset").build();
        let ta = LdGpu::new(LdGpuConfig::new(a100.clone())).run(&g).sim_time;
        let tv = LdGpu::new(LdGpuConfig::new(v100.clone())).run(&g).sim_time;
        let r = tv / ta;
        ratios.push(r);
        t.row(vec![name.to_string(), format!("{ta:.5}"), format!("{tv:.5}"), format!("{r:.2}x")]);
    }
    t.row(vec![
        "Geo. Mean".to_string(),
        String::new(),
        String::new(),
        format!("{:.2}x", geomean(&ratios)),
    ]);
    writeln!(w, "{t}")
}
