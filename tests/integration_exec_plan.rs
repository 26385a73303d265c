//! Execution-plan agreement properties.
//!
//! Every ExecGraph-lowered engine (Par Node, Par Edge) must land within
//! 1e-4 L∞ of the AoS sequential per-node engine (Seq Node, the paper's C
//! Node) — across generator families, thread counts, mixed cardinalities
//! up to `MAX_BELIEFS`, and observed nodes. For the node paradigm the
//! contract is stronger (bit-identity), which the unit suites pin; these
//! properties guard the whole surface.

use credo::engines::{ParEdgeEngine, ParNodeEngine, SeqNodeEngine};
use credo::{BpEngine, BpOptions};
use credo_graph::generators::{
    grid, kronecker, preferential_attachment, synthetic, GenOptions, PotentialKind,
};
use credo_graph::{Belief, BeliefGraph, GraphBuilder, JointMatrix, MAX_BELIEFS};
use proptest::prelude::*;

/// Splitmix-style generator so graph construction is deterministic per seed
/// without pulling a full RNG into the strategy.
fn next(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

fn random_matrix(rows: usize, cols: usize, s: &mut u64) -> JointMatrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| 0.05 + (next(s) % 1000) as f32 / 1052.0)
        .collect();
    JointMatrix::from_rows(rows, cols, data)
}

fn random_prior(card: usize, s: &mut u64) -> Belief {
    let mut vals: Vec<f32> = (0..card)
        .map(|_| 0.1 + (next(s) % 1000) as f32 / 1111.0)
        .collect();
    let sum: f32 = vals.iter().sum();
    for v in &mut vals {
        *v /= sum;
    }
    Belief::from_slice(&vals)
}

/// A connected graph whose node cardinalities are drawn independently from
/// `2..=MAX_BELIEFS`, with per-edge random potentials sized to match each
/// endpoint pair — the layout the packed plan must get prefix-offsets
/// right for.
fn mixed_cardinality_graph(n: usize, extra_edges: usize, seed: u64) -> BeliefGraph {
    let mut s = seed | 1;
    let mut b = GraphBuilder::new();
    let cards: Vec<usize> = (0..n)
        .map(|_| 2 + (next(&mut s) as usize) % (MAX_BELIEFS - 1))
        .collect();
    let ids: Vec<_> = cards
        .iter()
        .map(|&c| b.add_node(random_prior(c, &mut s)))
        .collect();
    // Spanning structure keeps messages flowing everywhere.
    for i in 1..n {
        let j = (next(&mut s) as usize) % i;
        let m = random_matrix(cards[i], cards[j], &mut s);
        b.add_undirected_edge_with(ids[i], ids[j], m);
    }
    for _ in 0..extra_edges {
        let i = (next(&mut s) as usize) % n;
        let j = (next(&mut s) as usize) % n;
        if i == j {
            continue;
        }
        let m = random_matrix(cards[i], cards[j], &mut s);
        b.add_undirected_edge_with(ids[i], ids[j], m);
    }
    b.build().expect("mixed graph builds")
}

/// Observes a deterministic handful of nodes at valid states.
fn observe_some(g: &mut BeliefGraph, count: usize, seed: u64) {
    let mut s = seed | 1;
    let n = g.num_nodes();
    for _ in 0..count.min(n / 2) {
        let v = (next(&mut s) as usize) % n;
        let card = g.cardinality(v as u32);
        g.observe(v as u32, next(&mut s) as usize % card);
    }
}

/// A fixed iteration budget pins every engine to the same trajectory
/// length, so the comparison measures accumulation drift alone.
fn pinned(iterations: u32) -> BpOptions {
    BpOptions {
        threshold: 0.0,
        max_iterations: iterations,
        ..BpOptions::default()
    }
}

fn assert_close(reference: &BeliefGraph, work: &BeliefGraph, tol: f32, label: &str) {
    for (v, (a, b)) in reference.beliefs().iter().zip(work.beliefs()).enumerate() {
        assert!(
            a.linf_diff(b) < tol,
            "{label}: node {v} diverged: {a:?} vs {b:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mixed cardinalities: the plan-lowered node engine vs the AoS
    /// sequential reference. (The edge paradigm requires uniform
    /// cardinality and is covered by the uniform property below.)
    #[test]
    fn plan_node_engines_match_direct_on_mixed_cardinalities(
        n in 3usize..40,
        extra in 0usize..60,
        seed in any::<u64>(),
        observe in 0usize..4,
        threads in 1usize..5,
    ) {
        let mut base = mixed_cardinality_graph(n, extra, seed);
        observe_some(&mut base, observe, seed ^ 0xabcd);
        let mut reference = base.clone();
        SeqNodeEngine.run(&mut reference, &pinned(20)).unwrap();

        let mut par = base.clone();
        ParNodeEngine
            .run(&mut par, &pinned(20).with_threads(threads))
            .unwrap();
        for (v, (a, b)) in reference.beliefs().iter().zip(par.beliefs()).enumerate() {
            prop_assert!(
                a.linf_diff(b) == 0.0,
                "plan Par Node is not bit-identical to AoS Seq Node at node {v}"
            );
        }
    }

    /// Uniform cardinalities across every generator family and potential
    /// kind: both plan-lowered engines vs the AoS sequential reference,
    /// with observed nodes mixed in.
    #[test]
    fn plan_engines_match_direct_across_generators(
        family in 0usize..4,
        k in 2usize..6,
        seed in any::<u64>(),
        kind in 0usize..3,
        observe in 0usize..4,
        threads in 1usize..5,
    ) {
        let potentials = match kind {
            0 => PotentialKind::SharedSmoothing(0.2),
            1 => PotentialKind::SharedRandom,
            _ => PotentialKind::PerEdgeRandom,
        };
        let gen = GenOptions::new(k).with_seed(seed).with_potentials(potentials);
        let mut base = match family {
            0 => synthetic(80, 320, &gen),
            1 => grid(9, 9, &gen),
            2 => kronecker(6, 6, &gen),
            _ => preferential_attachment(80, 3, &gen),
        };
        observe_some(&mut base, observe, seed ^ 0x1234);
        let mut reference = base.clone();
        SeqNodeEngine.run(&mut reference, &pinned(20)).unwrap();

        for (name, engine) in [
            ("Par Node", &ParNodeEngine as &dyn BpEngine),
            ("Par Edge", &ParEdgeEngine),
        ] {
            let opts = pinned(20).with_threads(threads);
            let mut work = base.clone();
            engine.run(&mut work, &opts).unwrap();
            for (v, (a, b)) in reference.beliefs().iter().zip(work.beliefs()).enumerate() {
                prop_assert!(
                    a.linf_diff(b) < 1e-4,
                    "plan {name} diverged from AoS C Node at node {v}: {a:?} vs {b:?}"
                );
            }
        }
    }

    /// Queue modes under the plan converge to the same fixed point as the
    /// AoS full-sweep reference.
    #[test]
    fn plan_queue_modes_converge_to_direct_fixed_point(
        seed in any::<u64>(),
        threads in 1usize..4,
    ) {
        let base = synthetic(120, 480, &GenOptions::new(2).with_seed(seed));
        let mut reference = base.clone();
        SeqNodeEngine
            .run(&mut reference, &BpOptions::default())
            .unwrap();
        let queued = BpOptions::with_work_queue().with_threads(threads);
        let residual = BpOptions::default()
            .with_residual_priority()
            .with_threads(threads);
        for opts in [queued, residual] {
            for engine in [&ParNodeEngine as &dyn BpEngine, &ParEdgeEngine] {
                let mut work = base.clone();
                engine.run(&mut work, &opts).unwrap();
                for (a, b) in reference.beliefs().iter().zip(work.beliefs()) {
                    prop_assert!(
                        a.linf_diff(b) < 5e-3,
                        "plan {} queue mode diverged from the AoS reference",
                        engine.name()
                    );
                }
            }
        }
    }
}

#[test]
fn observed_nodes_stay_fixed_under_the_plan() {
    let mut base = synthetic(150, 600, &GenOptions::new(2).with_seed(6));
    base.observe(7, 1);
    base.observe(23, 0);
    for engine in [
        &SeqNodeEngine as &dyn BpEngine,
        &ParNodeEngine,
        &ParEdgeEngine,
    ] {
        let mut g = base.clone();
        engine.run(&mut g, &BpOptions::default()).unwrap();
        assert_eq!(g.beliefs()[7].as_slice(), &[0.0, 1.0], "{}", engine.name());
        assert_eq!(g.beliefs()[23].as_slice(), &[1.0, 0.0], "{}", engine.name());
    }
}

#[test]
fn max_cardinality_graphs_roundtrip_through_the_plan() {
    // Full-width beliefs exercise the f32x8 kernel path end to end.
    let g = grid(6, 6, &GenOptions::new(MAX_BELIEFS).with_seed(11));
    let mut aos = g.clone();
    let mut planned = g.clone();
    SeqNodeEngine.run(&mut aos, &pinned(15)).unwrap();
    ParNodeEngine
        .run(&mut planned, &pinned(15).with_threads(1))
        .unwrap();
    assert_close(&aos, &planned, 1e-4, "grid k=32");
}
