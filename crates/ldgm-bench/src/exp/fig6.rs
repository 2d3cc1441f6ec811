//! **Fig. 6**: scalability potential of batching — LD-GPU with 1
//! (default), 3, 5 and 10 batches on 1–8 GPUs, for kmer_U1a,
//! mycielskian18 and kmer_V2a.
//!
//! Expected shape (paper): the single-batch default does not scale with
//! devices on these inputs (collective overheads offset the matching-phase
//! gains); deliberately raising the batch count redistributes the
//! independent pointing work and improves multi-device scalability despite
//! the batch-transfer overheads.

use std::io::{self, Write};

use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig};
use ldgm_gpusim::Platform;

use crate::datasets::{by_name, scaled_platform};
use crate::runner::fmt_secs;
use crate::table::Table;

/// The three graphs of the paper's Fig. 6.
pub const GRAPHS: &[&str] = &["kmer_U1a", "mycielskian18", "kmer_V2a"];
/// The batch counts of the paper's Fig. 6.
pub const BATCHES: &[usize] = &[1, 3, 5, 10];

/// Run the experiment, writing the report to `w`.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# Fig. 6: LD-GPU with 1/3/5/10 batches on 1-8 GPUs (s)\n")?;
    let platform = scaled_platform(Platform::dgx_a100());
    let devices = [1usize, 2, 4, 8];
    let mut header = vec!["Graph".to_string(), "batches".to_string()];
    header.extend(devices.iter().map(|d| format!("{d} GPU")));
    header.push("scaling 1->8".into());
    let mut t = Table::new(header);
    for name in GRAPHS {
        let g = by_name(name).expect("registry dataset").build();
        for &nb in BATCHES {
            let mut cells = vec![name.to_string(), format!("{nb}")];
            let mut first = None;
            let mut last = None;
            for &nd in &devices {
                let cfg = LdGpuConfig::new(platform.clone()).devices(nd).batches(nb);
                match LdGpu::new(cfg).try_run(&g) {
                    Ok(out) => {
                        if first.is_none() {
                            first = Some(out.sim_time);
                        }
                        last = Some(out.sim_time);
                        cells.push(fmt_secs(out.sim_time));
                    }
                    Err(_) => cells.push("-".into()),
                }
            }
            match (first, last) {
                (Some(f), Some(l)) if l > 0.0 => cells.push(format!("{:.1}x", f / l)),
                _ => cells.push("-".into()),
            }
            t.row(cells);
        }
    }
    writeln!(w, "{t}")?;
    writeln!(
        w,
        "The paper's §IV-B reading: the batched configurations scale better\n\
         with device count than the single-batch default (whose multi-GPU\n\
         time is bounded by matching-phase collectives), at the price of\n\
         deliberately introduced batch-transfer overheads."
    )
}
