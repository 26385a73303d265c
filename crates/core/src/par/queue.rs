//! A concurrent double-buffered work queue (§3.5, without the sequential
//! repopulation pass).
//!
//! The [`crate::queue::WorkQueue`] used by the sequential and OpenMP
//! engines repopulates on the main thread: flags are set atomically during
//! the iteration, then one thread scans them, pushes, and runs a global
//! `sort_unstable`. Here each worker appends directly to its **own**
//! next-buffer during the parallel region — deduplicated by a single
//! atomic flag per node, so no locks and no lost pushes — and
//! [`ParWorkQueue::advance`] merges the per-worker runs instead of sorting
//! the whole next set from scratch.

use std::sync::atomic::{AtomicBool, Ordering};

/// Double-buffered queue of active node indices with per-worker push
/// buffers.
#[derive(Debug)]
pub struct ParWorkQueue {
    active: Vec<u32>,
    /// One next-buffer per worker; only that worker appends to it.
    runs: Vec<Vec<u32>>,
    /// `queued[v]` is set by the first push of `v` this iteration; later
    /// pushes (from any worker) see it and drop the duplicate.
    queued: Vec<AtomicBool>,
    eligible: Vec<bool>,
    /// Repopulation passes performed (one per `advance*` call).
    advances: u64,
    /// Cumulative deduplicated pushes merged across all advances.
    repopulated: u64,
    /// Cumulative deduplicated pushes per worker run — the merge-balance
    /// signal the trace layer reports.
    worker_pushes: Vec<u64>,
    /// Scratch cursors for the k-way merge, held so `advance` performs no
    /// per-iteration allocation (asserted by the `workqueue` microbench's
    /// counting-allocator harness).
    cursors: Vec<usize>,
}

/// A single worker's handle: push access to that worker's run plus the
/// shared dedup flags. Handles for different workers can be used from
/// different threads simultaneously.
#[derive(Debug)]
pub struct ParQueueWorker<'a> {
    run: &'a mut Vec<u32>,
    queued: &'a [AtomicBool],
    eligible: &'a [bool],
}

impl ParQueueWorker<'_> {
    /// Enqueues `v` for the next iteration. Ineligible (observed) nodes and
    /// nodes already queued — by any worker — are ignored.
    #[inline]
    pub fn push(&mut self, v: u32) {
        let i = v as usize;
        if self.eligible[i] && !self.queued[i].swap(true, Ordering::Relaxed) {
            self.run.push(v);
        }
    }
}

impl ParWorkQueue {
    /// Builds a queue over `num_nodes` nodes with `workers` push buffers,
    /// initially containing every node for which `eligible` returns true.
    pub fn new(num_nodes: usize, workers: usize, eligible: impl Fn(usize) -> bool) -> Self {
        let eligible: Vec<bool> = (0..num_nodes).map(eligible).collect();
        let active: Vec<u32> = (0..num_nodes as u32)
            .filter(|&v| eligible[v as usize])
            .collect();
        ParWorkQueue {
            active,
            runs: (0..workers.max(1)).map(|_| Vec::new()).collect(),
            queued: (0..num_nodes).map(|_| AtomicBool::new(false)).collect(),
            eligible,
            advances: 0,
            repopulated: 0,
            worker_pushes: vec![0; workers.max(1)],
            cursors: vec![0; workers.max(1)],
        }
    }

    /// Restarts the queue for a new run whose first iteration processes
    /// only `initial` (deduplicated, ascending, filtered by eligibility)
    /// while later wake-up pushes may still reach **any** eligible node —
    /// the warm-start frontier schedule, where work radiates outward from
    /// changed evidence instead of starting from a full sweep.
    ///
    /// Costs O(|initial| log |initial|), not O(N): every `advance*` leaves
    /// the queued flags and push buffers clean (debug-asserted here), so
    /// only the active set and the per-run counters need replacing.
    pub fn restart(&mut self, initial: &[u32]) {
        self.debug_assert_clean();
        self.clear_counters();
        let n = self.eligible.len();
        self.active.clear();
        self.active.extend(
            initial
                .iter()
                .copied()
                .filter(|&v| (v as usize) < n && self.eligible[v as usize]),
        );
        self.active.sort_unstable();
        self.active.dedup();
    }

    /// Sets whether `v` may be queued. A caller that keeps one queue
    /// across runs mirrors every change of its eligibility rule here.
    pub fn set_eligible(&mut self, v: usize, eligible: bool) {
        self.eligible[v] = eligible;
    }

    /// The per-node eligibility mask.
    pub fn eligible(&self) -> &[bool] {
        &self.eligible
    }

    /// Repopulation passes performed so far.
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// Total deduplicated pushes merged into the active set across all
    /// repopulations.
    pub fn repopulated(&self) -> u64 {
        self.repopulated
    }

    /// Cumulative deduplicated pushes contributed by each worker's run.
    pub fn worker_pushes(&self) -> &[u64] {
        &self.worker_pushes
    }

    fn account_runs(&mut self) {
        self.advances += 1;
        for (count, run) in self.worker_pushes.iter_mut().zip(&self.runs) {
            *count += run.len() as u64;
            self.repopulated += run.len() as u64;
        }
    }

    /// The node indices to process this iteration.
    #[inline]
    pub fn active(&self) -> &[u32] {
        &self.active
    }

    /// True when nothing is left to process.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Current queue length.
    #[inline]
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Splits the queue into this iteration's active slice plus one push
    /// handle per worker. The handles borrow the queue, so they must be
    /// dropped before [`ParWorkQueue::advance`].
    pub fn begin_iteration(&mut self) -> (&[u32], Vec<ParQueueWorker<'_>>) {
        let queued = &self.queued;
        let eligible = &self.eligible;
        let workers = self
            .runs
            .iter_mut()
            .map(|run| ParQueueWorker {
                run,
                queued,
                eligible,
            })
            .collect();
        (&self.active, workers)
    }

    /// Finishes an iteration: sorts each worker's run and k-way merges the
    /// (now sorted, mutually disjoint) runs into the new active set, in
    /// ascending node order. Cheaper than the global sort when pushes are
    /// spread across workers: each run is short and already mostly ordered.
    pub fn advance(&mut self) {
        self.account_runs();
        for run in &mut self.runs {
            run.sort_unstable();
        }
        self.clear_flags();
        self.active.clear();
        // Reuse the queue-held cursor scratch: `runs.len()` never changes
        // after construction, so resizing here only writes zeros — the
        // merge stays allocation-free across iterations.
        self.cursors.clear();
        self.cursors.resize(self.runs.len(), 0);
        loop {
            let mut best: Option<(u32, usize)> = None;
            for (i, run) in self.runs.iter().enumerate() {
                if let Some(&v) = run.get(self.cursors[i]) {
                    if best.is_none_or(|(bv, _)| v < bv) {
                        best = Some((v, i));
                    }
                }
            }
            match best {
                Some((v, i)) => {
                    self.active.push(v);
                    self.cursors[i] += 1;
                }
                None => break,
            }
        }
        for run in &mut self.runs {
            run.clear();
        }
    }

    /// Finishes an iteration in residual-priority order: the new active set
    /// is sorted by descending `residuals[v]` (ties broken by ascending
    /// node id) instead of ascending node id, so the least-converged nodes
    /// are processed first.
    pub fn advance_by_residual(&mut self, residuals: &[f32]) {
        self.account_runs();
        self.clear_flags();
        self.active.clear();
        for run in &mut self.runs {
            self.active.append(run);
        }
        self.active.sort_unstable_by(|&a, &b| {
            residuals[b as usize]
                .total_cmp(&residuals[a as usize])
                .then(a.cmp(&b))
        });
    }

    fn clear_flags(&mut self) {
        for run in &self.runs {
            for &v in run {
                self.queued[v as usize].store(false, Ordering::Relaxed);
            }
        }
    }

    fn clear_counters(&mut self) {
        self.advances = 0;
        self.repopulated = 0;
        self.worker_pushes.fill(0);
    }

    fn debug_assert_clean(&self) {
        debug_assert!(
            self.runs.iter().all(Vec::is_empty),
            "push buffers hold entries outside an iteration"
        );
        debug_assert!(
            self.queued.iter().all(|f| !f.load(Ordering::Relaxed)),
            "queued flags left set outside an iteration"
        );
    }

    /// Resets to "everything eligible is active", with fresh counters.
    pub fn reset(&mut self) {
        self.clear_counters();
        self.active.clear();
        self.active
            .extend((0..self.eligible.len() as u32).filter(|&v| self.eligible[v as usize]));
        for run in &mut self.runs {
            run.clear();
        }
        for f in &self.queued {
            f.store(false, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_with_all_eligible() {
        let q = ParWorkQueue::new(5, 2, |v| v != 2);
        assert_eq!(q.active(), &[0, 1, 3, 4]);
        assert_eq!(q.len(), 4);
        assert!(!q.is_empty());
    }

    #[test]
    fn dedups_across_workers() {
        let mut q = ParWorkQueue::new(8, 3, |_| true);
        {
            let (_, mut workers) = q.begin_iteration();
            // Every worker pushes the same nodes; each lands exactly once.
            for w in &mut workers {
                w.push(5);
                w.push(1);
                w.push(5);
            }
        }
        q.advance();
        assert_eq!(q.active(), &[1, 5]);
    }

    #[test]
    fn ineligible_nodes_are_dropped() {
        let mut q = ParWorkQueue::new(4, 2, |v| v != 3);
        {
            let (_, mut workers) = q.begin_iteration();
            workers[0].push(3);
            workers[1].push(2);
        }
        q.advance();
        assert_eq!(q.active(), &[2]);
    }

    #[test]
    fn merge_produces_ascending_order() {
        let mut q = ParWorkQueue::new(100, 4, |_| true);
        {
            let (_, mut workers) = q.begin_iteration();
            // Interleaved, unsorted pushes spread across workers.
            for (i, v) in [90u32, 10, 55, 3, 72, 41, 8, 66, 23, 99, 0, 37]
                .iter()
                .enumerate()
            {
                workers[i % 4].push(*v);
            }
        }
        q.advance();
        let expected: Vec<u32> = {
            let mut e = vec![90u32, 10, 55, 3, 72, 41, 8, 66, 23, 99, 0, 37];
            e.sort_unstable();
            e
        };
        assert_eq!(q.active(), &expected[..]);
    }

    #[test]
    fn concurrent_pushes_from_scoped_threads() {
        let mut q = ParWorkQueue::new(1000, 4, |_| true);
        {
            let (_, workers) = q.begin_iteration();
            std::thread::scope(|s| {
                for (t, mut w) in workers.into_iter().enumerate() {
                    s.spawn(move || {
                        // Overlapping ranges: every node is pushed by at
                        // least two workers.
                        let lo = t * 200;
                        for v in lo..lo + 400 {
                            w.push((v % 1000) as u32);
                        }
                    });
                }
            });
        }
        q.advance();
        // 4 workers × 400 pushes cover [0, 1000) with overlaps; dedup must
        // leave each node exactly once, ascending.
        let expected: Vec<u32> = (0..1000u32).collect();
        assert_eq!(q.active(), &expected[..]);
    }

    #[test]
    fn flags_clear_between_iterations() {
        let mut q = ParWorkQueue::new(4, 2, |_| true);
        {
            let (_, mut workers) = q.begin_iteration();
            workers[0].push(2);
        }
        q.advance();
        assert_eq!(q.active(), &[2]);
        {
            let (_, mut workers) = q.begin_iteration();
            workers[1].push(2); // must not be suppressed by a stale flag
        }
        q.advance();
        assert_eq!(q.active(), &[2]);
    }

    #[test]
    fn residual_order_is_descending_with_stable_ties() {
        let mut q = ParWorkQueue::new(6, 2, |_| true);
        {
            let (_, mut workers) = q.begin_iteration();
            for v in [0, 1, 2, 3, 4] {
                workers[(v % 2) as usize].push(v);
            }
        }
        let residuals = [0.5f32, 0.1, 0.9, 0.5, 0.0, 0.0];
        q.advance_by_residual(&residuals);
        assert_eq!(q.active(), &[2, 0, 3, 1, 4]);
        // The next advance still works (flags were cleared).
        {
            let (_, mut workers) = q.begin_iteration();
            workers[0].push(4);
        }
        q.advance();
        assert_eq!(q.active(), &[4]);
    }

    #[test]
    fn drains_to_empty_and_resets() {
        let mut q = ParWorkQueue::new(3, 2, |_| true);
        q.advance();
        assert!(q.is_empty());
        q.reset();
        assert_eq!(q.active(), &[0, 1, 2]);
        assert_eq!(q.advances(), 0);
    }

    #[test]
    fn restart_matches_a_fresh_queue() {
        let mut reused = ParWorkQueue::new(10, 2, |v| v != 4);
        {
            let (_, mut workers) = reused.begin_iteration();
            workers[0].push(7);
            workers[1].push(2);
        }
        reused.advance();
        reused.set_eligible(4, true);
        reused.set_eligible(2, false);
        reused.restart(&[9, 4, 2, 4, 0, 11]);

        let mut fresh = ParWorkQueue::new(10, 2, |v| v != 2);
        fresh.restart(&[9, 4, 2, 4, 0, 11]);
        assert_eq!(reused.active(), &[0, 4, 9]);
        assert_eq!(reused.active(), fresh.active());
        assert_eq!(reused.eligible(), fresh.eligible());
        assert_eq!(reused.advances(), 0);
        assert_eq!(reused.repopulated(), 0);
        assert_eq!(reused.worker_pushes(), &[0, 0]);
        // A node queued in the last run is not suppressed by a stale flag.
        {
            let (_, mut workers) = reused.begin_iteration();
            workers[1].push(7);
        }
        reused.advance();
        assert_eq!(reused.active(), &[7]);
    }
}
