//! **Extension**: GPU-generation outlook — LD-GPU across four platform
//! generations, from the paper's DGX-2 (2018) and DGX-A100 (2020) to
//! DGX-H100 and the GB200 NVL72 rack the paper's introduction motivates
//! ("up to 72 latest NVIDIA Blackwell GPUs interconnected within a rack
//! using NVLink ... an order-of-magnitude increase in the GPU-GPU
//! bandwidth").

use std::io::{self, Write};

use ldgm_core::ld_gpu::{LdGpu, LdGpuConfig};
use ldgm_gpusim::Platform;

use crate::datasets::{by_name, scaled_platform};
use crate::runner::fmt_secs;
use crate::table::Table;

/// Graphs used in the generation study.
pub const GRAPHS: &[&str] = &["AGATHA-2015", "GAP-urand", "com-Friendster"];

/// Run the experiment, writing the report to `w`.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# Extension: LD-GPU across GPU generations (8 GPUs each; NVL72 also at 72)\n")?;
    let platforms: Vec<(Platform, usize)> = vec![
        (Platform::dgx2(), 8),
        (Platform::dgx_a100(), 8),
        (Platform::dgx_h100(), 8),
        (Platform::nvl72(), 8),
        (Platform::nvl72(), 72),
    ];
    let mut t = Table::new(vec!["Graph", "platform", "GPUs", "time", "vs DGX-2 (8)"]);
    for name in GRAPHS {
        let g = by_name(name).expect("registry dataset").build();
        let mut base: Option<f64> = None;
        for (platform, ndev) in &platforms {
            let p = scaled_platform(platform.clone());
            let cfg = LdGpuConfig::new(p).devices(*ndev);
            let Ok(out) = LdGpu::new(cfg).try_run(&g) else {
                continue;
            };
            if base.is_none() {
                base = Some(out.sim_time);
            }
            t.row(vec![
                name.to_string(),
                platform.name.to_string(),
                format!("{ndev}"),
                fmt_secs(out.sim_time),
                format!("{:.1}x", base.unwrap() / out.sim_time),
            ]);
        }
    }
    writeln!(w, "{t}")?;
    writeln!(
        w,
        "Note: whether 72 GPUs beat 8 on the same rack is payload-dependent:\n\
         the ring latency term grows with device count while per-device\n\
         kernel work shrinks - the paper's collective-dominated regime."
    )
}
