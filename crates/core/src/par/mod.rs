//! Native persistent-pool parallel engines — the optimization track beyond
//! the paper.
//!
//! The [`crate::openmp`] engines reproduce the paper's OpenMP cost model
//! faithfully, including its self-imposed overheads: threads are forked and
//! joined around every `parallel for` region, and the edge paradigm
//! combines messages through CAS-loop atomic float multiplies. The engines
//! here keep the paper's *semantics* — same Jacobi updates, same
//! convergence criterion, beliefs matching the sequential engines — while
//! dropping those overheads:
//!
//! * one persistent [`WorkerPool`] reused across all iterations and
//!   parallel regions (no per-region thread spawn/join);
//! * the edge paradigm accumulates per-worker **log-space partial
//!   products** merged in a deterministic reduction — zero atomics, so
//!   [`crate::BpStats::atomic_retries`] is always 0;
//! * a concurrent double-buffered [`ParWorkQueue`] where each worker
//!   appends to its own next-buffer and `advance()` k-way merges the
//!   sorted runs instead of re-sorting the whole next set;
//! * an optional residual-priority mode
//!   ([`crate::BpOptions::residual_priority`]) that processes the
//!   highest-residual nodes first;
//! * shared-potential message caching: with a shared joint matrix, the
//!   messages leaving a node are the same on every one of its out-arcs, so
//!   each iteration computes at most two mat-vec products per source node
//!   instead of one per arc.
//!
//! Both engines run on the compiled packed plan ([`crate::plan`]): the AoS
//! graph is read once to compile it and written once with the final
//! beliefs. The AoS references are the sequential engines in
//! [`crate::seq`].

mod edge;
mod node;
mod pool;
mod queue;
mod tile;

pub use edge::ParEdgeEngine;
pub use node::ParNodeEngine;
pub use pool::WorkerPool;
pub use queue::{ParQueueWorker, ParWorkQueue};
pub use tile::{degree_cuts, degree_tiles};

use crate::openmp::thread_count;
use tracing::Dispatch;

/// Splits `0..len` into at most `parts` contiguous `(start, end)` ranges of
/// near-equal size.
pub(crate) fn range_chunks(len: usize, parts: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let per = len.div_ceil(parts.max(1)).max(1);
    (0..len)
        .step_by(per)
        .map(|s| (s, (s + per).min(len)))
        .collect()
}

/// Resolves the pool size exactly like the OpenMP engines resolve theirs.
pub(crate) fn pool_threads(requested: usize) -> usize {
    thread_count(requested)
}

/// Emits end-of-run pool and queue utilization events: broadcast count,
/// per-worker busy time as a fraction of the run's wall clock, and — in
/// queue mode — repopulation totals and per-worker merge contributions.
/// Only called when the dispatch is live, so untraced runs pay nothing.
pub(crate) fn emit_pool_metrics(
    trace: &Dispatch,
    pool: &WorkerPool,
    queue: Option<&ParWorkQueue>,
    elapsed: std::time::Duration,
) {
    let wall_us = elapsed.as_secs_f64() * 1e6;
    trace.event(
        "pool",
        &[
            ("threads", pool.threads().into()),
            ("broadcasts", pool.broadcasts().into()),
        ],
    );
    for (i, ns) in pool.busy_nanos().iter().enumerate() {
        let busy_us = *ns as f64 / 1e3;
        let utilization = if wall_us > 0.0 {
            busy_us / wall_us
        } else {
            0.0
        };
        trace.event(
            "pool_worker",
            &[
                ("worker", (i as u64).into()),
                ("busy_us", busy_us.into()),
                ("utilization", utilization.into()),
            ],
        );
    }
    if let Some(q) = queue {
        trace.event(
            "queue",
            &[
                ("advances", q.advances().into()),
                ("repopulated", q.repopulated().into()),
            ],
        );
        for (i, pushes) in q.worker_pushes().iter().enumerate() {
            trace.event(
                "queue_worker",
                &[("worker", (i as u64).into()), ("pushes", (*pushes).into())],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_chunks_cover_everything() {
        for (len, parts) in [(10usize, 3usize), (1, 8), (0, 4), (16, 4), (7, 7)] {
            let chunks = range_chunks(len, parts);
            assert!(chunks.len() <= parts.max(1) + 1);
            let mut seen = 0;
            for &(lo, hi) in &chunks {
                assert_eq!(lo, seen);
                assert!(hi > lo);
                seen = hi;
            }
            assert_eq!(seen, len);
        }
    }
}
