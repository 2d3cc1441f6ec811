//! Device/batch configuration tuning: sweep an LD-GPU configuration space
//! on a simulated platform — the §IV-B methodology ("we picked the best
//! results for every configuration by considering a range of batches") —
//! and report the winner with its component breakdown.
//!
//! ```bash
//! cargo run --release --example platform_tuning
//! ```

use ldgm::core::ld_gpu::{LdGpu, LdGpuConfig};
use ldgm::gpusim::Platform;
use ldgm::graph::gen::GraphGen;

fn main() {
    let g = GraphGen::web().vertices(60_000).avg_degree(24).seed(11).build();
    // Shrink device memory so the configuration space is interesting:
    // small device counts need batching.
    let platform = Platform::dgx_a100().with_device_memory(8 << 20).with_overheads_scaled(1024.0);

    println!(
        "tuning LD-GPU over devices x batches (graph: |V|={} |E|={})",
        g.num_vertices(),
        g.num_edges()
    );
    println!("\ndevices  batches  sim time     note");
    println!("-------  -------  -----------  ----");
    let mut best: Option<(usize, usize, f64)> = None;
    for nd in [1usize, 2, 4, 8] {
        for nb in [1usize, 2, 3, 5, 10] {
            let cfg = LdGpuConfig::new(platform.clone()).devices(nd).batches(nb);
            match LdGpu::new(cfg).try_run(&g) {
                Ok(out) => {
                    let better = best.is_none_or(|(_, _, t)| out.sim_time < t);
                    if better {
                        best = Some((nd, nb, out.sim_time));
                    }
                    println!(
                        "{nd:>7}  {nb:>7}  {:>9.1}us  {}",
                        out.sim_time * 1e6,
                        if better { "<- best so far" } else { "" }
                    );
                }
                Err(e) => println!("{nd:>7}  {nb:>7}  {:>11}  ({e})", "OOM"),
            }
        }
    }
    let (nd, nb, _) = best.expect("at least one feasible configuration");
    let out = LdGpu::new(LdGpuConfig::new(platform).devices(nd).batches(nb)).run(&g);
    let pct = out.profile.phases.percentages();
    println!("\nwinner: {nd} device(s), {nb} batch(es) -> {:.1}us simulated", out.sim_time * 1e6);
    println!(
        "breakdown: pointing {:.0}% | matching {:.0}% | allreduce {:.0}% | transfer {:.0}% | sync {:.0}%",
        pct[0], pct[1], pct[2], pct[3], pct[4]
    );
    println!(
        "matched weight {:.1} over {} iterations; first iteration touched {:.0}% of edges",
        out.matching.weight(&g),
        out.iterations,
        out.profile.iterations.first().map_or(0.0, |r| r.pct_edges)
    );
}
