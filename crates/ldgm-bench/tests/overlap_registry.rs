//! Registry-wide proof of `ldgm serve`'s boot rule: overlap the dynamic
//! engine's collectives with compute exactly when more than one device
//! shares them ([`ldgm_serve::resolve_dyn_config`]).
//!
//! On every one of the fourteen Table-I stand-ins, at 1, 2 and 4 DGX-A100
//! devices and at 2 DGX-2 devices, the same [`IncrementalLd`] build and
//! seeded uniform update stream run with overlap on and off. After the
//! build and after every batch, the mate arrays must be identical (overlap
//! is billing-only), the cumulative billed horizons equal at one device,
//! and the overlapped horizon never above the bulk one at two or more.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ldgm_bench::datasets::{registry, Dataset};
use ldgm_dyn::{DynConfig, EdgeUpdate, IncrementalLd, UpdateStream, WorkloadKind};
use ldgm_gpusim::Platform;
use ldgm_serve::resolve_dyn_config;

/// Update batches after the build.
const BATCHES: usize = 4;
/// Updates per batch (the serve coalescer's default target).
const BATCH: usize = 64;

/// Run one stand-in through every setup.
fn check(d: &Dataset) {
    let setups = [
        (Platform::dgx_a100(), 1),
        (Platform::dgx_a100(), 2),
        (Platform::dgx_a100(), 4),
        (Platform::dgx2(), 2),
    ];
    let g = Arc::new(d.build());
    let mut stream = UpdateStream::new(&g, WorkloadKind::Uniform, d.seed);
    let batches: Vec<Vec<EdgeUpdate>> = (0..BATCHES).map(|_| stream.next_batch(BATCH)).collect();
    drop(stream);
    for (platform, devices) in &setups {
        let at = format!("{} on {} x{devices}", d.name, platform.name);
        let base = DynConfig::new(platform.clone()).devices(*devices);
        assert_eq!(resolve_dyn_config(&g, base.clone()).overlap, *devices > 1, "{at}");
        // Both engines share the stand-in's one copy of the graph.
        let mut off = IncrementalLd::new(Arc::clone(&g), base.clone().with_overlap(false));
        let mut on = IncrementalLd::new(Arc::clone(&g), base.with_overlap(true));
        for step in 0..=BATCHES {
            if step > 0 {
                off.apply_batch(&batches[step - 1]);
                on.apply_batch(&batches[step - 1]);
            }
            assert_eq!(off.mate_array(), on.mate_array(), "{at}, step {step}: matching moved");
            let (t_off, t_on) = (off.horizon(), on.horizon());
            if *devices == 1 {
                assert_eq!(t_on, t_off, "{at}, step {step}: one device must bill the same");
            } else {
                assert!(t_on <= t_off, "{at}, step {step}: overlap {t_on} > bulk {t_off}");
            }
        }
    }
}

#[test]
fn overlap_never_bills_more_across_the_registry() {
    let stand_ins = registry();
    let next = AtomicUsize::new(0);
    // Two workers: in the debug test profile, generating the stand-ins
    // takes most of the time.
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while let Some(d) = stand_ins.get(next.fetch_add(1, Ordering::Relaxed)) {
                    check(d);
                }
            });
        }
    });
}
