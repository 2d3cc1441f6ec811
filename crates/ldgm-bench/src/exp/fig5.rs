//! **Fig. 5**: component-wise timing breakdown (% of overall) — pointing,
//! matching, allreduce, batch transfer, synchronization — for SMALL and
//! LARGE graphs on 1–8 GPUs.
//!
//! Expected shape (paper): synchronization + communication ≈ 90% of
//! multi-GPU time; on a single GPU the pointing phase takes ~50%.

use std::io::{self, Write};

use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig};
use ldgm_gpusim::Platform;

use crate::datasets::{registry, scaled_platform};
use crate::table::Table;

/// Run the experiment, writing the report to `w`.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# Fig. 5: component-wise timing (% of overall)\n")?;
    let platform = scaled_platform(Platform::dgx_a100());
    let mut t = Table::new(vec![
        "Graph", "GPUs", "batches", "point%", "match%", "allred%", "xfer%", "sync%",
    ]);
    for d in registry() {
        let g = d.build();
        for nd in [1usize, 4, 8] {
            let cfg = LdGpuConfig::new(platform.clone()).devices(nd);
            let Ok(out) = LdGpu::new(cfg).try_run(&g) else {
                continue;
            };
            let pct = out.profile.phases.percentages();
            t.row(vec![
                d.name.to_string(),
                format!("{nd}"),
                format!("{}", out.batches),
                format!("{:.0}", pct[0]),
                format!("{:.0}", pct[1]),
                format!("{:.0}", pct[2]),
                format!("{:.0}", pct[3]),
                format!("{:.0}", pct[4]),
            ]);
        }
    }
    writeln!(w, "{t}")
}
