//! Property-based invariants over randomly generated graphs: the
//! structural contracts of the graph substrate, the partitioner, and the
//! matching family hold for *arbitrary* inputs, not just the curated
//! families.

use proptest::prelude::*;

use ldgm::core::ld_gpu::{LdGpu, LdGpuConfig};
use ldgm::core::ld_seq::ld_seq;
use ldgm::core::suitor::suitor;
use ldgm::core::verify::half_approx_certificate;
use ldgm::gpusim::Platform;
use ldgm::graph::{CsrGraph, GraphBuilder};
use ldgm::part::{make_batches, validate_batches, Partition};

/// Strategy: an arbitrary undirected weighted graph with up to `max_n`
/// vertices and `max_m` candidate edges (duplicates/self-loops dropped by
/// the builder).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_output_is_always_valid(g in arb_graph(60, 200)) {
        prop_assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn ld_seq_valid_maximal_certified(g in arb_graph(60, 200)) {
        let m = ld_seq(&g);
        prop_assert_eq!(m.verify(&g), Ok(()));
        prop_assert!(m.is_maximal(&g));
        prop_assert!(half_approx_certificate(&g, &m));
    }

    #[test]
    fn suitor_valid_maximal_and_weight_equals_ld(g in arb_graph(60, 200)) {
        let s = suitor(&g);
        prop_assert_eq!(s.verify(&g), Ok(()));
        prop_assert!(s.is_maximal(&g));
        let ld = ld_seq(&g);
        prop_assert!((s.weight(&g) - ld.weight(&g)).abs() < 1e-9,
            "suitor {} vs ld {}", s.weight(&g), ld.weight(&g));
    }

    #[test]
    fn ld_gpu_equals_ld_seq_on_arbitrary_graphs(
        g in arb_graph(50, 150),
        devices in 1usize..5,
        batches in 1usize..4,
    ) {
        let out = LdGpu::new(
            LdGpuConfig::new(Platform::dgx_a100()).devices(devices).batches(batches),
        ).run(&g);
        let seq = ld_seq(&g);
        prop_assert_eq!(out.matching.mate_array(), seq.mate_array());
    }

    #[test]
    fn ld_gpu_opt_bit_identical_across_toggle_grid(
        g in arb_graph(50, 150),
        devices_idx in 0usize..4,
        batches_idx in 0usize..3,
        toggles in 0u8..4,
    ) {
        let devices = [1usize, 2, 4, 8][devices_idx];
        let batches = [1usize, 2, 5][batches_idx];
        let seq = ld_seq(&g);
        let base = LdGpuConfig::new(Platform::dgx_a100()).devices(devices).batches(batches);
        let def = LdGpu::new(base.clone()).run(&g);
        prop_assert_eq!(def.matching.mate_array(), seq.mate_array());
        let opt = LdGpu::new(
            LdGpuConfig { optimized: toggles & 1 != 0, ..base }.with_overlap(toggles & 2 != 0),
        ).run(&g);
        prop_assert_eq!(opt.matching.mate_array(), seq.mate_array(),
            "toggles {:02b}, {} devices, {} batches", toggles, devices, batches);
        prop_assert_eq!(opt.matching.mate_array(), def.matching.mate_array());
    }

    #[test]
    fn partition_tiles_and_batches_tile(
        g in arb_graph(80, 300),
        parts in 1usize..6,
        batches in 1usize..5,
    ) {
        let p = Partition::edge_balanced(&g, parts);
        prop_assert_eq!(p.validate(&g), Ok(()));
        for part in &p.parts {
            let b = make_batches(&g, part, batches);
            prop_assert_eq!(validate_batches(&g, part, &b), Ok(()));
        }
    }

    #[test]
    fn mtx_roundtrip_is_lossless(g in arb_graph(40, 120)) {
        let mut buf = Vec::new();
        ldgm::graph::io::write_mtx(&g, &mut buf).unwrap();
        let back = ldgm::graph::io::read_mtx(&buf[..], 0).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn matched_weight_never_exceeds_total(g in arb_graph(60, 200)) {
        let m = ld_seq(&g);
        prop_assert!(m.weight(&g) <= g.total_weight() + 1e-9);
        prop_assert!(m.cardinality() <= g.num_vertices() / 2);
    }
}
