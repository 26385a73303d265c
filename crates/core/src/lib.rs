//! # credo-core
//!
//! The belief-propagation engines at the heart of Credo.
//!
//! Two processing paradigms (§3.3) are provided in sequential form —
//! [`seq::SeqNodeEngine`] ("C Node") and [`seq::SeqEdgeEngine`] ("C Edge")
//! — plus the traditional non-loopy two-pass algorithm (§2.1,
//! [`seq::TreeEngine`] and its deliberately unindexed
//! [`seq::NaiveTreeEngine`] baseline) and the OpenMP-analogue CPU-parallel
//! engines (§2.4, [`openmp`]). The [`par`] module goes beyond the paper:
//! native parallel engines on a persistent worker pool with deterministic
//! reductions and a concurrent work queue.
//!
//! All loopy engines implement Algorithm 1 with double-buffered (Jacobi)
//! updates, so they agree on results up to `f32` associativity; the
//! integration suite enforces agreement within 1e-3 L∞.

#![warn(missing_docs)]

mod convergence;
mod engine;
mod math;
mod msg_cache;
mod opts;
mod plan;
mod queue;
mod shard;
mod stats;
mod warm;

pub mod openmp;
pub mod par;
pub mod sched;
pub mod seq;

pub use convergence::ConvergenceTracker;
pub use engine::{BpEngine, EngineError, Paradigm, Platform};
pub use math::kernels;
pub use math::{combine_incoming, node_update};
pub use opts::BpOptions;
pub use queue::WorkQueue;
pub use shard::{
    publish_exports, run_sharded, sweep_shard, FrontierSync, ShardSource, ShardState,
    ShardedEngine, ShardedSession, SweepPhase, SweepReport, SweepSchedule, WAKE,
};
pub use stats::{BpStats, IterationStats};
pub use warm::{EvidenceDelta, WarmPolicy, WarmRun, WarmSnapshot, WarmState};
// The telemetry handle engines emit into (`BpEngine::run_traced`);
// re-exported so downstream crates need no direct `tracing` dependency.
pub use tracing::Dispatch;

/// Resets the graph's beliefs to its priors, then runs `engine` — the
/// normal way to execute BP from a clean state.
pub fn run_fresh(
    engine: &dyn BpEngine,
    graph: &mut credo_graph::BeliefGraph,
    opts: &BpOptions,
) -> Result<BpStats, EngineError> {
    graph.reset_beliefs();
    engine.run(graph, opts)
}

/// [`run_fresh`] with a telemetry dispatch attached for the run.
pub fn run_fresh_traced(
    engine: &dyn BpEngine,
    graph: &mut credo_graph::BeliefGraph,
    opts: &BpOptions,
    trace: &Dispatch,
) -> Result<BpStats, EngineError> {
    graph.reset_beliefs();
    engine.run_traced(graph, opts, trace)
}
