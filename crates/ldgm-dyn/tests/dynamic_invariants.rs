//! Property-based invariants of batch-dynamic maintenance: after *every*
//! random update batch the maintained matching must pass the full static
//! check suite on the current snapshot and coincide with the static LD
//! solver (bit-identical mate array, hence equal weight — canonical
//! uniqueness under the repo's total preference order), including across
//! delta-CSR compactions; and the whole pipeline must be a pure function
//! of the workload seed.

use proptest::prelude::*;

use ldgm_core::ld_seq::ld_seq;
use ldgm_core::verify::half_approx_certificate;
use ldgm_core::MatcherSetup;
use ldgm_dyn::{
    DynConfig, DynamicMatcherRegistry, EdgeUpdate, IncrementalLd, UpdateStream, WorkloadKind,
    WorkloadSpec,
};
use ldgm_gpusim::Platform;
use ldgm_graph::{CsrGraph, GraphBuilder};

/// Strategy: an arbitrary undirected weighted graph (duplicates and
/// self-loops dropped by the builder).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..=1000), 0..max_m).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(n);
                for (u, v, w) in edges {
                    b.push_edge(u, v, w as f64 / 1000.0);
                }
                b.build()
            },
        )
    })
}

/// Strategy: raw update ops. `(a, b, w, sel)` decodes to a delete of the
/// `a`-th live edge when `sel == 0` (so deletes hit real, possibly
/// matched, edges) and otherwise an insert/reweight of `{a%n, b%n}`.
fn arb_ops(max_ops: usize) -> impl Strategy<Value = Vec<(u32, u32, u32, u8)>> {
    proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX, 1u32..=1000, 0u8..4), 1..max_ops)
}

/// Decode raw ops against the engine's *current* graph so deletions target
/// live edges by index.
fn decode(engine: &IncrementalLd, ops: &[(u32, u32, u32, u8)], n: u32) -> Vec<EdgeUpdate> {
    let mut live: Vec<(u32, u32)> = engine.graph().iter_edges().map(|(u, v, _)| (u, v)).collect();
    let mut batch = Vec::with_capacity(ops.len());
    for &(a, b, w, sel) in ops {
        if sel == 0 && !live.is_empty() {
            let idx = a as usize % live.len();
            let (u, v) = live.swap_remove(idx);
            batch.push(EdgeUpdate::Delete { u, v });
        } else {
            let (u, v) = (a % n, b % n);
            if u != v {
                batch.push(EdgeUpdate::Insert { u, v, w: w as f64 / 1000.0 });
            }
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn maintained_matching_equals_static_ld_after_every_batch(
        g in arb_graph(40, 120),
        script in proptest::collection::vec(arb_ops(12), 1..6),
    ) {
        let n = g.num_vertices() as u32;
        // Aggressive compaction so the property also crosses compactions.
        let cfg = DynConfig::new(Platform::dgx_a100()).devices(2).compact_frac(0.1);
        let mut engine = IncrementalLd::new(g, cfg);
        for ops in &script {
            let batch = decode(&engine, ops, n);
            engine.apply_batch(&batch);
            let snap = engine.graph().snapshot();
            let m = engine.matching();
            prop_assert_eq!(m.verify(&snap), Ok(()));
            prop_assert!(m.is_maximal(&snap));
            prop_assert!(half_approx_certificate(&snap, &m));
            let want = ld_seq(&snap);
            prop_assert_eq!(engine.mate_array(), want.mate_array());
            prop_assert!((m.weight(&snap) - want.weight(&snap)).abs() < 1e-9);
        }
    }

    #[test]
    fn same_seed_same_stream_same_matching(
        g in arb_graph(40, 150),
        seed in 0u64..u64::MAX,
        kind_sel in 0u8..3,
    ) {
        let kind = match kind_sel {
            0 => WorkloadKind::Uniform,
            1 => WorkloadKind::Skewed,
            _ => WorkloadKind::SlidingWindow,
        };
        // The stream itself is deterministic...
        let mut s1 = UpdateStream::new(&g, kind, seed);
        let mut s2 = UpdateStream::new(&g, kind, seed);
        for _ in 0..3 {
            prop_assert_eq!(s1.next_batch(10), s2.next_batch(10));
        }
        // ...and so is the full engine run driven by it.
        let spec = WorkloadSpec { kind, batches: 3, batch_size: 10, seed, ..WorkloadSpec::default() };
        let registry = DynamicMatcherRegistry::with_defaults(&MatcherSetup::default());
        let inc = registry.get("incremental").unwrap();
        let a = inc.run(&g, &spec).unwrap();
        let b = inc.run(&g, &spec).unwrap();
        prop_assert_eq!(a.matching, b.matching);
        prop_assert_eq!(a.sim_time, b.sim_time);
        prop_assert_eq!(a.graph.offsets(), b.graph.offsets());
        prop_assert_eq!(a.graph.weight_array(), b.graph.weight_array());
    }

    #[test]
    fn incremental_and_from_scratch_agree_on_random_workloads(
        g in arb_graph(30, 100),
        seed in 0u64..u64::MAX,
    ) {
        let spec = WorkloadSpec {
            batches: 3,
            batch_size: 8,
            seed,
            verify_each_batch: true,
            ..WorkloadSpec::default()
        };
        let registry = DynamicMatcherRegistry::with_defaults(&MatcherSetup::default());
        let inc = registry.get("incremental").unwrap().run(&g, &spec).unwrap();
        let scr = registry.get("from-scratch").unwrap().run(&g, &spec).unwrap();
        prop_assert_eq!(inc.matching, scr.matching);
        prop_assert!((inc.matching.weight(&inc.graph) - scr.matching.weight(&scr.graph)).abs() < 1e-9);
    }
}
