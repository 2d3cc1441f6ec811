//! **Fig. 7**: component-wise timing (% of overall) for kmer_U1a with 1,
//! 3, 5 and 10 batches on 1–8 GPUs — the per-component view behind the
//! Fig. 6 batching-scalability story.

use std::io::{self, Write};

use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig};
use ldgm_gpusim::Platform;

use crate::datasets::{by_name, scaled_platform};
use crate::table::Table;

/// Run the experiment, writing the report to `w`.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# Fig. 7: kmer_U1a component timing (% of overall) across batch counts\n")?;
    let platform = scaled_platform(Platform::dgx_a100());
    let g = by_name("kmer_U1a").expect("registry dataset").build();
    let mut t =
        Table::new(vec!["batches", "GPUs", "point%", "match%", "allred%", "xfer%", "sync%"]);
    for &nb in super::fig6::BATCHES {
        for nd in [1usize, 2, 4, 8] {
            let cfg = LdGpuConfig::new(platform.clone()).devices(nd).batches(nb);
            let Ok(out) = LdGpu::new(cfg).try_run(&g) else {
                continue;
            };
            let pct = out.profile.phases.percentages();
            t.row(vec![
                format!("{nb}"),
                format!("{nd}"),
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
