//! The sequential per-node engine — the paper's "C Node" implementation.
//!
//! §3.3: "per-node processing pulls the states of all the parent nodes of a
//! given node, combines them with the joint probability matrix for the
//! edges linking the parents with the child before combining the updates
//! with the child node's state to produce its new state." No atomics are
//! needed, at the cost of random-order parent lookups.

use crate::convergence::ConvergenceTracker;
use crate::engine::{BpEngine, EngineError, Paradigm, Platform};
use crate::math::node_update;
use crate::opts::BpOptions;
use crate::queue::WorkQueue;
use crate::stats::{BpStats, IterationStats};
use credo_graph::{Belief, BeliefGraph};
use std::time::Instant;
use tracing::Dispatch;

/// Sequential per-node loopy BP over the AoS graph, as the paper's C code
/// runs it. It is the bitwise reference for [`crate::par::ParNodeEngine`],
/// which runs the same arithmetic on the compiled packed plan.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeqNodeEngine;

impl BpEngine for SeqNodeEngine {
    fn name(&self) -> &'static str {
        "C Node"
    }

    fn paradigm(&self) -> Paradigm {
        Paradigm::Node
    }

    fn platform(&self) -> Platform {
        Platform::CpuSequential
    }

    fn run_traced(
        &self,
        graph: &mut BeliefGraph,
        opts: &BpOptions,
        trace: &Dispatch,
    ) -> Result<BpStats, EngineError> {
        let opts = &opts.normalized();
        let start = Instant::now();
        let run_span = trace.span("run", &[("engine", self.name().into())]);
        let n = graph.num_nodes();
        let mut scratch: Vec<Belief> = graph.beliefs().to_vec();
        let mut tracker = ConvergenceTracker::new(opts);
        let mut node_updates = 0u64;
        let mut message_updates = 0u64;
        let mut per_iteration: Vec<IterationStats> = Vec::new();

        // Full sweep order when the queue is off: every unobserved node.
        let full_sweep: Vec<u32> = (0..n as u32)
            .filter(|&v| !graph.observed()[v as usize])
            .collect();
        let mut queue = opts
            .work_queue
            .then(|| WorkQueue::new(n, |v| !graph.observed()[v]));
        let mut changed: Vec<u32> = Vec::new();

        loop {
            let iter_start = Instant::now();
            let active: &[u32] = match &queue {
                Some(q) => q.active(),
                None => &full_sweep,
            };
            if active.is_empty() {
                tracker.mark_converged();
                break;
            }
            let queue_depth = active.len() as u64;
            let iter_span = trace.span(
                "iteration",
                &[
                    ("iter", (per_iteration.len() as u64).into()),
                    ("queue_depth", queue_depth.into()),
                ],
            );
            let msgs_before = message_updates;

            let mut sum = 0.0f32;
            changed.clear();
            {
                let prev = graph.beliefs();
                for &v in active {
                    let (new, msgs) = node_update(graph, v, prev);
                    let diff = new.l1_diff(&prev[v as usize]);
                    sum += diff;
                    message_updates += msgs;
                    scratch[v as usize] = new;
                    if diff >= opts.queue_threshold {
                        changed.push(v);
                    }
                }
            }
            node_updates += active.len() as u64;
            {
                let beliefs = graph.beliefs_mut();
                for &v in active {
                    beliefs[v as usize] = scratch[v as usize];
                }
            }

            if let Some(q) = &mut queue {
                for &v in &changed {
                    q.push_next(v);
                    if opts.wake_neighbors {
                        for &a in graph.out_arcs(v) {
                            q.push_next(graph.arc(a).dst);
                        }
                    }
                }
                q.advance();
            }

            if trace.enabled() {
                iter_span.record(&[("delta", sum.into())]);
                trace.counter("queue_depth", queue_depth as f64);
                if let Some(q) = &queue {
                    trace.counter("queue_repopulated", q.len() as f64);
                }
            }
            drop(iter_span);
            per_iteration.push(IterationStats {
                delta: sum,
                node_updates: queue_depth,
                message_updates: message_updates - msgs_before,
                queue_depth,
                elapsed: iter_start.elapsed(),
            });

            if !tracker.record(sum) {
                break;
            }
        }

        let elapsed = start.elapsed();
        if trace.enabled() {
            run_span.record(&[
                ("iterations", tracker.iterations().into()),
                ("converged", tracker.converged().into()),
            ]);
        }
        Ok(BpStats {
            engine: self.name(),
            iterations: tracker.iterations(),
            converged: tracker.converged(),
            final_delta: if tracker.last_sum().is_finite() {
                tracker.last_sum()
            } else {
                0.0
            },
            node_updates,
            message_updates,
            atomic_retries: 0,
            reported_time: elapsed,
            host_time: elapsed,
            per_iteration,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use credo_graph::generators::{synthetic, GenOptions};
    use credo_graph::{GraphBuilder, JointMatrix};

    fn two_node_chain() -> BeliefGraph {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Belief::from_slice(&[0.9, 0.1]));
        let n1 = b.add_node(Belief::uniform(2));
        b.shared_potential(JointMatrix::smoothing(2, 0.2));
        b.add_undirected_edge(n0, n1);
        b.build().unwrap()
    }

    #[test]
    fn converges_on_tiny_chain() {
        let mut g = two_node_chain();
        let stats = SeqNodeEngine.run(&mut g, &BpOptions::default()).unwrap();
        assert!(stats.converged, "stats: {stats:?}");
        assert!(stats.iterations < 200);
        // Evidence at node 0 pulls node 1 towards state 0.
        assert!(g.beliefs()[1].get(0) > 0.5);
        for b in g.beliefs() {
            assert!(b.is_normalized(1e-4));
        }
    }

    #[test]
    fn observed_nodes_never_change() {
        let mut g = two_node_chain();
        g.observe(0, 1);
        SeqNodeEngine.run(&mut g, &BpOptions::default()).unwrap();
        assert_eq!(g.beliefs()[0].as_slice(), &[0.0, 1.0]);
        // The observation propagates: node 1 leans to state 1.
        assert!(g.beliefs()[1].get(1) > 0.5);
    }

    #[test]
    fn queue_and_full_sweep_agree() {
        let mut g1 = synthetic(200, 800, &GenOptions::new(3).with_seed(5));
        let mut g2 = g1.clone();
        let plain = SeqNodeEngine.run(&mut g1, &BpOptions::default()).unwrap();
        let queued = SeqNodeEngine
            .run(&mut g2, &BpOptions::with_work_queue())
            .unwrap();
        for (a, b) in g1.beliefs().iter().zip(g2.beliefs()) {
            assert!(
                a.linf_diff(b) < 5e-3,
                "queue must not change results: {a:?} vs {b:?}"
            );
        }
        assert!(queued.node_updates <= plain.node_updates);
    }

    #[test]
    fn max_iterations_is_respected() {
        let mut g = synthetic(100, 400, &GenOptions::new(2));
        let opts = BpOptions::default()
            .with_threshold(0.0)
            .with_max_iterations(7);
        let stats = SeqNodeEngine.run(&mut g, &opts).unwrap();
        assert_eq!(stats.iterations, 7);
        assert!(!stats.converged);
    }

    #[test]
    fn counts_are_consistent() {
        let mut g = synthetic(50, 200, &GenOptions::new(2));
        let stats = SeqNodeEngine.run(&mut g, &BpOptions::default()).unwrap();
        // Every iteration touches every node and every arc (no queue, no
        // observations).
        assert_eq!(stats.node_updates, stats.iterations as u64 * 50);
        assert_eq!(stats.message_updates, stats.iterations as u64 * 400);
    }

    #[test]
    fn fully_observed_graph_converges_immediately() {
        let mut g = two_node_chain();
        g.observe(0, 0);
        g.observe(1, 1);
        let stats = SeqNodeEngine.run(&mut g, &BpOptions::default()).unwrap();
        assert!(stats.converged);
        assert_eq!(stats.node_updates, 0);
    }
}
