//! Coalescer correctness properties.
//!
//! 1. **Batching invariance** (proptest): any interleaving of client
//!    update streams, admitted through the service and coalesced at an
//!    arbitrary target size, commits a matching bit-identical to applying
//!    the same arrival-ordered updates as one offline [`IncrementalLd`]
//!    stream. This is the canonical-uniqueness argument made executable:
//!    the committed matching is a pure function of the folded graph
//!    state, and the coalescer preserves the fold order.
//! 2. **Snapshot consistency** (threaded): readers racing an in-flight
//!    batch only ever observe *committed* snapshots — every observed mate
//!    array is exactly the one the writer committed at that epoch, never
//!    a half-applied mixture.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use ldgm_dyn::{DynConfig, EdgeUpdate, IncrementalLd};
use ldgm_gpusim::Platform;
use ldgm_graph::gen::urand;
use ldgm_serve::{MatchService, ServeConfig, UNMATCHED};

fn dyn_cfg() -> DynConfig {
    DynConfig::new(Platform::dgx_a100()).devices(2)
}

/// Raw op: (client, a, b, weight‰, kind) over an n-vertex graph; a kind
/// below 4 decodes as a delete, the rest as inserts/reweights.
type RawOp = (u8, u32, u32, u32, u8);

fn decode(ops: &[RawOp], n: u32) -> Vec<(String, EdgeUpdate)> {
    ops.iter()
        .filter_map(|&(client, a, b, w, kind)| {
            let (u, v) = (a % n, b % n);
            if u == v {
                return None;
            }
            let upd = if kind < 4 {
                EdgeUpdate::Delete { u, v }
            } else {
                EdgeUpdate::Insert { u, v, w: w as f64 / 1000.0 }
            };
            Some((format!("client-{}", client % 4), upd))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_interleaving_coalesced_equals_one_offline_stream(
        graph_seed in 0u64..1000,
        target in 1usize..24,
        ops in proptest::collection::vec(
            (0u8..4, 0u32..u32::MAX, 0u32..u32::MAX, 1u32..=1000, 0u8..10),
            1..80,
        ),
    ) {
        let n = 50u32;
        let g = urand(n as usize, 170, graph_seed);
        let stream = decode(&ops, n);

        // Live path: per-client submissions in arrival order, coalesced
        // at an arbitrary target (deadline/admission out of the way).
        let svc = MatchService::new(
            "prop",
            g.clone(),
            dyn_cfg(),
            ServeConfig {
                coalesce_target: target,
                deadline: Duration::from_secs(3600),
                max_pending_per_tenant: usize::MAX,
            },
        );
        for (tenant, upd) in &stream {
            svc.submit(tenant, &[*upd]).unwrap();
        }
        svc.flush();

        // Offline path: the same arrival order as one engine stream.
        let mut offline = IncrementalLd::new(g, dyn_cfg());
        let batch: Vec<EdgeUpdate> = stream.iter().map(|(_, u)| *u).collect();
        if !batch.is_empty() {
            offline.apply_batch(&batch);
        }

        let snap = svc.snapshot();
        prop_assert_eq!(snap.mate.as_slice(), offline.mate_array());
        prop_assert!((snap.weight - offline.matched_weight()).abs() < 1e-9);
        prop_assert_eq!(snap.cardinality, offline.cardinality());
        // And the service's own offline replay agrees with itself.
        prop_assert_eq!(svc.replay_check(), Ok(()));
    }
}

#[test]
fn concurrent_reads_only_observe_committed_snapshots() {
    let n = 150usize;
    let g = urand(n, 600, 17);
    let svc = Arc::new(MatchService::new(
        "threaded",
        g,
        dyn_cfg(),
        ServeConfig {
            coalesce_target: 8,
            deadline: Duration::from_secs(3600),
            max_pending_per_tenant: usize::MAX,
        },
    ));
    // Every snapshot the writer commits, by epoch. Epoch 0 is the seed.
    let committed: Arc<Mutex<BTreeMap<u64, Vec<u32>>>> = Arc::new(Mutex::new(BTreeMap::new()));
    committed.lock().unwrap().insert(0, svc.snapshot().mate.clone());
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let svc = svc.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut observed: Vec<(u64, Vec<u32>)> = Vec::new();
                let mut last_epoch = 0u64;
                // Check `stop` only after each observation so every reader
                // records at least one snapshot even if the writer finishes
                // before this thread is first scheduled.
                loop {
                    let s = svc.snapshot();
                    // Epochs only move forward for any single reader.
                    assert!(s.epoch >= last_epoch, "epoch went backwards");
                    last_epoch = s.epoch;
                    // A mate array is an involution: a half-applied batch
                    // (some entries old, some new) would break pairing.
                    for (v, &m) in s.mate.iter().enumerate() {
                        if m != UNMATCHED {
                            assert_eq!(
                                s.mate[m as usize], v as u32,
                                "snapshot at epoch {} is not a valid matching",
                                s.epoch
                            );
                        }
                    }
                    observed.push((s.epoch, s.mate.clone()));
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                observed
            })
        })
        .collect();

    // Writer: 40 batches of 8 seeded random updates, flushed by the
    // coalesce target; record each committed mate array by epoch.
    let mut rng = ldgm_graph::Xoshiro256::seed_from_u64(23);
    for _ in 0..40 {
        for _ in 0..8 {
            let u = rng.below(n as u64) as u32;
            let v = rng.below(n as u64) as u32;
            if u == v {
                continue;
            }
            let upd = if rng.chance(0.4) {
                EdgeUpdate::Delete { u, v }
            } else {
                EdgeUpdate::Insert { u, v, w: 0.1 + rng.next_f64() }
            };
            svc.submit("writer", &[upd]).unwrap();
        }
        svc.flush();
        let snap = svc.snapshot();
        committed.lock().unwrap().insert(snap.epoch, snap.mate.clone());
    }
    stop.store(true, Ordering::SeqCst);

    let committed = committed.lock().unwrap();
    assert!(committed.len() > 10, "writer must have committed many epochs");
    let mut checked = 0usize;
    for r in readers {
        for (epoch, mate) in r.join().unwrap() {
            let want = committed
                .get(&epoch)
                .unwrap_or_else(|| panic!("observed epoch {epoch} was never committed"));
            assert_eq!(&mate, want, "observed snapshot differs from the committed one");
            checked += 1;
        }
    }
    assert!(checked > 0, "readers must have observed snapshots");
    svc.replay_check().unwrap();
}
