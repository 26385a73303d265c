//! Persistent-pool per-node engine ("Par Node").

use super::pool_threads;
use crate::engine::{BpEngine, EngineError, Paradigm, Platform};
use crate::opts::BpOptions;
use crate::stats::BpStats;
use credo_graph::BeliefGraph;
use tracing::Dispatch;

/// CPU-parallel per-node loopy BP on a persistent worker pool.
///
/// Semantics match [`crate::seq::SeqNodeEngine`] exactly — same Jacobi
/// updates, same convergence sum accumulated in ascending node order, so
/// beliefs and iteration counts are bit-identical for any thread count.
/// What changes is the layout and the cost model: the graph is compiled
/// into the packed plan ([`crate::plan`]) and updated through the SIMD
/// message kernels, the pool's threads are spawned once, per-thread work
/// lands in disjoint scratch slots merged deterministically (no atomics),
/// and shared-potential graphs compute each source's outgoing message once
/// per orientation instead of once per arc.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParNodeEngine;

impl BpEngine for ParNodeEngine {
    fn name(&self) -> &'static str {
        "Par Node"
    }

    fn paradigm(&self) -> Paradigm {
        Paradigm::Node
    }

    fn platform(&self) -> Platform {
        Platform::CpuParallel
    }

    fn run_traced(
        &self,
        graph: &mut BeliefGraph,
        opts: &BpOptions,
        trace: &Dispatch,
    ) -> Result<BpStats, EngineError> {
        crate::plan::run_node_plan(self.name(), graph, opts, trace, pool_threads(opts.threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqNodeEngine;
    use credo_graph::generators::{kronecker, synthetic, GenOptions, PotentialKind};

    #[test]
    fn bitwise_matches_sequential_node_engine() {
        for threads in [1usize, 2, 4] {
            let mut g1 = synthetic(200, 800, &GenOptions::new(3).with_seed(17));
            let mut g2 = g1.clone();
            let s1 = SeqNodeEngine.run(&mut g1, &BpOptions::default()).unwrap();
            let s2 = ParNodeEngine
                .run(&mut g2, &BpOptions::default().with_threads(threads))
                .unwrap();
            assert_eq!(s1.iterations, s2.iterations, "threads={threads}");
            assert_eq!(s1.message_updates, s2.message_updates);
            assert_eq!(g1.beliefs(), g2.beliefs(), "threads={threads}");
        }
    }

    #[test]
    fn queue_mode_matches_sequential_queue_mode() {
        let mut g1 = synthetic(150, 450, &GenOptions::new(2).with_seed(8));
        let mut g2 = g1.clone();
        let s1 = SeqNodeEngine
            .run(&mut g1, &BpOptions::with_work_queue())
            .unwrap();
        let mut qopts = BpOptions::with_work_queue();
        qopts.threads = 3;
        let s2 = ParNodeEngine.run(&mut g2, &qopts).unwrap();
        assert_eq!(s1.iterations, s2.iterations);
        assert_eq!(s1.node_updates, s2.node_updates);
        assert_eq!(g1.beliefs(), g2.beliefs());
    }

    #[test]
    fn residual_priority_changes_order_not_results() {
        let mut g1 = synthetic(150, 450, &GenOptions::new(2).with_seed(8));
        let mut g2 = g1.clone();
        let mut plain = BpOptions::with_work_queue();
        plain.threads = 2;
        let s1 = ParNodeEngine.run(&mut g1, &plain).unwrap();
        let residual = BpOptions::default()
            .with_residual_priority()
            .with_threads(2);
        let s2 = ParNodeEngine.run(&mut g2, &residual).unwrap();
        // Jacobi updates are order-independent: identical trajectories.
        assert_eq!(s1.iterations, s2.iterations);
        assert_eq!(s1.node_updates, s2.node_updates);
        assert_eq!(g1.beliefs(), g2.beliefs());
    }

    #[test]
    fn per_edge_potentials_supported() {
        let opts = GenOptions::new(2)
            .with_seed(31)
            .with_potentials(PotentialKind::PerEdgeRandom);
        let mut g1 = synthetic(60, 180, &opts);
        let mut g2 = g1.clone();
        SeqNodeEngine.run(&mut g1, &BpOptions::default()).unwrap();
        ParNodeEngine
            .run(&mut g2, &BpOptions::default().with_threads(2))
            .unwrap();
        assert_eq!(g1.beliefs(), g2.beliefs());
    }

    #[test]
    fn hub_graphs_match_sequential() {
        let mut g1 = kronecker(7, 8, &GenOptions::new(2).with_seed(9));
        let mut g2 = g1.clone();
        SeqNodeEngine.run(&mut g1, &BpOptions::default()).unwrap();
        ParNodeEngine
            .run(&mut g2, &BpOptions::default().with_threads(4))
            .unwrap();
        assert_eq!(g1.beliefs(), g2.beliefs());
    }

    #[test]
    fn observed_nodes_never_change() {
        let mut g = synthetic(50, 150, &GenOptions::new(2).with_seed(4));
        g.observe(7, 1);
        let before = g.beliefs()[7];
        ParNodeEngine
            .run(&mut g, &BpOptions::default().with_threads(2))
            .unwrap();
        assert_eq!(g.beliefs()[7], before);
    }
}
