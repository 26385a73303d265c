//! Persistent-pool per-edge engine ("Par Edge").

use super::pool_threads;
use crate::engine::{BpEngine, EngineError, Paradigm, Platform};
use crate::opts::BpOptions;
use crate::stats::BpStats;
use credo_graph::BeliefGraph;
use tracing::Dispatch;

/// CPU-parallel per-edge loopy BP without atomics.
///
/// The paper's edge paradigm (§3.3) combines each arc's contribution into
/// its destination with an atomic float multiply; [`crate::openmp::OpenMpEdgeEngine`]
/// reproduces that CAS loop and counts its retries. This engine removes the
/// contention instead of paying it: each pool worker streams a contiguous
/// chunk of the active arc list (grouped by destination) and accumulates
/// **log-space partial products** in its own buffer; a marginalize pass
/// then merges the per-worker runs for each destination in worker order —
/// a deterministic reduction, so [`BpStats::atomic_retries`] is always 0
/// and results are reproducible for a fixed thread count. It runs on the
/// compiled packed plan ([`crate::plan`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ParEdgeEngine;

impl BpEngine for ParEdgeEngine {
    fn name(&self) -> &'static str {
        "Par Edge"
    }

    fn paradigm(&self) -> Paradigm {
        Paradigm::Edge
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
        crate::plan::run_edge_plan(self.name(), graph, opts, trace, pool_threads(opts.threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqEdgeEngine;
    use credo_graph::generators::{kronecker, synthetic, GenOptions, PotentialKind};
    use credo_graph::{Belief, GraphBuilder, JointMatrix};

    #[test]
    fn matches_sequential_edge_engine() {
        for threads in [1usize, 2, 4] {
            let mut g1 = synthetic(200, 800, &GenOptions::new(3).with_seed(23));
            let mut g2 = g1.clone();
            SeqEdgeEngine.run(&mut g1, &BpOptions::default()).unwrap();
            let stats = ParEdgeEngine
                .run(&mut g2, &BpOptions::default().with_threads(threads))
                .unwrap();
            assert_eq!(stats.atomic_retries, 0);
            for (a, b) in g1.beliefs().iter().zip(g2.beliefs()) {
                assert!(a.linf_diff(b) < 1e-3, "threads={threads}");
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_thread_count() {
        let mut g1 = synthetic(150, 600, &GenOptions::new(3).with_seed(41));
        let mut g2 = g1.clone();
        let opts = BpOptions::default().with_threads(4);
        let s1 = ParEdgeEngine.run(&mut g1, &opts).unwrap();
        let s2 = ParEdgeEngine.run(&mut g2, &opts).unwrap();
        assert_eq!(s1.iterations, s2.iterations);
        assert_eq!(g1.beliefs(), g2.beliefs());
    }

    #[test]
    fn matches_on_hub_graphs() {
        let mut g1 = kronecker(7, 8, &GenOptions::new(2).with_seed(9));
        let mut g2 = g1.clone();
        SeqEdgeEngine.run(&mut g1, &BpOptions::default()).unwrap();
        ParEdgeEngine
            .run(&mut g2, &BpOptions::default().with_threads(4))
            .unwrap();
        for (a, b) in g1.beliefs().iter().zip(g2.beliefs()) {
            assert!(a.linf_diff(b) < 1e-3);
        }
    }

    #[test]
    fn queue_mode_matches_plain_mode() {
        let mut g1 = synthetic(150, 450, &GenOptions::new(2).with_seed(8));
        let mut g2 = g1.clone();
        ParEdgeEngine
            .run(&mut g1, &BpOptions::default().with_threads(2))
            .unwrap();
        let mut qopts = BpOptions::with_work_queue();
        qopts.threads = 2;
        ParEdgeEngine.run(&mut g2, &qopts).unwrap();
        for (a, b) in g1.beliefs().iter().zip(g2.beliefs()) {
            assert!(a.linf_diff(b) < 5e-3);
        }
    }

    #[test]
    fn residual_priority_changes_order_not_results() {
        let mut g1 = synthetic(150, 450, &GenOptions::new(2).with_seed(8));
        let mut g2 = g1.clone();
        let mut plain = BpOptions::with_work_queue();
        plain.threads = 2;
        let s1 = ParEdgeEngine.run(&mut g1, &plain).unwrap();
        let residual = BpOptions::default()
            .with_residual_priority()
            .with_threads(2);
        let s2 = ParEdgeEngine.run(&mut g2, &residual).unwrap();
        // Reordering the arc stream moves chunk boundaries, which regroups
        // the log-sum additions — so allow last-ulp drift, nothing more.
        assert!(s1.converged && s2.converged);
        assert!(s1.iterations.abs_diff(s2.iterations) <= 1);
        for (a, b) in g1.beliefs().iter().zip(g2.beliefs()) {
            assert!(a.linf_diff(b) < 1e-4);
        }
    }

    #[test]
    fn per_edge_potentials_supported() {
        let opts = GenOptions::new(2)
            .with_seed(31)
            .with_potentials(PotentialKind::PerEdgeRandom);
        let mut g1 = synthetic(60, 180, &opts);
        let mut g2 = g1.clone();
        SeqEdgeEngine.run(&mut g1, &BpOptions::default()).unwrap();
        ParEdgeEngine
            .run(&mut g2, &BpOptions::default().with_threads(2))
            .unwrap();
        for (a, b) in g1.beliefs().iter().zip(g2.beliefs()) {
            assert!(a.linf_diff(b) < 1e-3);
        }
    }

    #[test]
    fn rejects_non_uniform_cardinality() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Belief::uniform(2));
        let n1 = b.add_node(Belief::uniform(3));
        b.add_directed_edge_with(n0, n1, JointMatrix::uniform(2, 3));
        let mut g = b.build().unwrap();
        let err = ParEdgeEngine
            .run(&mut g, &BpOptions::default())
            .unwrap_err();
        assert_eq!(err, EngineError::NonUniformCardinality);
    }
}
