//! Service counters, exported through the `stats` op and mirrored as
//! `credo-trace` events on traced servers.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters shared by every connection handler and inference
/// worker. All loads/stores are relaxed — these are statistics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests accepted into a queue.
    pub enqueued: AtomicU64,
    /// Requests refused because the queue was full.
    pub shed: AtomicU64,
    /// Requests whose deadline expired (in queue or mid-run).
    pub deadline_exceeded: AtomicU64,
    /// Requests rejected as malformed.
    pub bad_requests: AtomicU64,
    /// Requests answered from the posterior cache.
    pub cache_hits: AtomicU64,
    /// Requests that had to run inference.
    pub cache_misses: AtomicU64,
    /// Inference runs that took the warm frontier path.
    pub warm_runs: AtomicU64,
    /// Inference runs that ran cold.
    pub cold_runs: AtomicU64,
    /// Inference runs that needed the damped retry.
    pub damped_runs: AtomicU64,
    /// BP iterations spent by warm runs.
    pub warm_iterations: AtomicU64,
    /// BP iterations spent by cold runs.
    pub cold_iterations: AtomicU64,
    /// Batches executed by inference workers.
    pub batches: AtomicU64,
    /// Requests summed over all batches (mean batch size =
    /// `batched_requests / batches`).
    pub batched_requests: AtomicU64,
    /// Peak queue depth observed at drain time.
    pub peak_queue_depth: AtomicU64,
    /// Graphs whose compiled plan was mmap'd back from the plan store.
    pub store_hits: AtomicU64,
    /// Graphs compiled fresh because the store had no (usable) entry.
    pub store_misses: AtomicU64,
    /// Graphs that resumed from a persisted warm-start snapshot.
    pub warm_resumes: AtomicU64,
    /// Warm-start snapshots persisted at shutdown.
    pub snapshots_saved: AtomicU64,
    /// TCP connections accepted by the reactor.
    pub connections_accepted: AtomicU64,
    /// Reactor poll wakeups (events or timeouts).
    pub reactor_wakeups: AtomicU64,
    /// Fresh (cache- and warm-bypassing) inference runs.
    pub fresh_runs: AtomicU64,
    /// Distributed runs completed by the router.
    pub dist_runs: AtomicU64,
    /// Boundary-exchange sweeps driven by the router (both phases).
    pub dist_sweeps: AtomicU64,
    /// Full sweeps among `dist_sweeps`.
    pub dist_full_sweeps: AtomicU64,
    /// Node updates computed by the workers across all sweeps.
    pub dist_node_updates: AtomicU64,
    /// Worker connections re-established after an I/O failure.
    pub worker_reconnects: AtomicU64,
    /// Shards (re)shipped to workers via LoadShard.
    pub shard_reloads: AtomicU64,
    /// Workers evicted from the hash ring after reconnect failed.
    pub workers_lost: AtomicU64,
}

/// A plain-value snapshot of [`Metrics`], serializable for the `stats`
/// op and `credo loadtest --expect-*` assertions.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MetricsSnapshot {
    /// Requests accepted into a queue.
    pub enqueued: u64,
    /// Requests refused because the queue was full.
    pub shed: u64,
    /// Requests whose deadline expired.
    pub deadline_exceeded: u64,
    /// Requests rejected as malformed.
    pub bad_requests: u64,
    /// Requests answered from the posterior cache.
    pub cache_hits: u64,
    /// Requests that ran inference.
    pub cache_misses: u64,
    /// Warm-path inference runs.
    pub warm_runs: u64,
    /// Cold inference runs.
    pub cold_runs: u64,
    /// Damped-retry runs.
    pub damped_runs: u64,
    /// Iterations spent by warm runs.
    pub warm_iterations: u64,
    /// Iterations spent by cold runs.
    pub cold_iterations: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests summed over all batches.
    pub batched_requests: u64,
    /// Peak queue depth observed.
    pub peak_queue_depth: u64,
    /// Plans loaded from the plan store.
    pub store_hits: u64,
    /// Plans compiled fresh (store miss or no store).
    pub store_misses: u64,
    /// Graphs resumed from a persisted warm snapshot.
    pub warm_resumes: u64,
    /// Warm snapshots persisted at shutdown.
    pub snapshots_saved: u64,
    /// TCP connections accepted by the reactor.
    pub connections_accepted: u64,
    /// Reactor poll wakeups.
    pub reactor_wakeups: u64,
    /// Fresh (cache- and warm-bypassing) inference runs.
    pub fresh_runs: u64,
    /// Distributed runs completed by the router.
    pub dist_runs: u64,
    /// Boundary-exchange sweeps driven by the router (both phases).
    pub dist_sweeps: u64,
    /// Full sweeps among `dist_sweeps`.
    pub dist_full_sweeps: u64,
    /// Node updates computed by the workers across all sweeps.
    pub dist_node_updates: u64,
    /// Worker connections re-established after an I/O failure.
    pub worker_reconnects: u64,
    /// Shards (re)shipped to workers.
    pub shard_reloads: u64,
    /// Workers evicted from the hash ring.
    pub workers_lost: u64,
}

impl Metrics {
    /// Bumps a counter by 1.
    #[inline]
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps a counter by `n`.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a high-water-mark counter to at least `depth`.
    pub fn observe_depth(&self, depth: u64) {
        self.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            warm_runs: self.warm_runs.load(Ordering::Relaxed),
            cold_runs: self.cold_runs.load(Ordering::Relaxed),
            damped_runs: self.damped_runs.load(Ordering::Relaxed),
            warm_iterations: self.warm_iterations.load(Ordering::Relaxed),
            cold_iterations: self.cold_iterations.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
            warm_resumes: self.warm_resumes.load(Ordering::Relaxed),
            snapshots_saved: self.snapshots_saved.load(Ordering::Relaxed),
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            fresh_runs: self.fresh_runs.load(Ordering::Relaxed),
            dist_runs: self.dist_runs.load(Ordering::Relaxed),
            dist_sweeps: self.dist_sweeps.load(Ordering::Relaxed),
            dist_full_sweeps: self.dist_full_sweeps.load(Ordering::Relaxed),
            dist_node_updates: self.dist_node_updates.load(Ordering::Relaxed),
            worker_reconnects: self.worker_reconnects.load(Ordering::Relaxed),
            shard_reloads: self.shard_reloads.load(Ordering::Relaxed),
            workers_lost: self.workers_lost.load(Ordering::Relaxed),
        }
    }
}

impl MetricsSnapshot {
    /// Cache hit rate over all infer requests that reached a worker
    /// (0.0 when none have).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::default();
        Metrics::inc(&m.cache_hits);
        Metrics::add(&m.cache_misses, 3);
        m.observe_depth(7);
        m.observe_depth(2);
        let s = m.snapshot();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 3);
        assert_eq!(s.peak_queue_depth, 7);
        assert!((s.cache_hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_is_zero_without_traffic() {
        assert_eq!(Metrics::default().snapshot().cache_hit_rate(), 0.0);
    }
}
