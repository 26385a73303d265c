//! Convergence bookkeeping (Algorithm 1's outer `while sum >= threshold`).

use crate::opts::BpOptions;

/// Tracks the global convergence sum and the iteration cap.
#[derive(Clone, Copy, Debug)]
pub struct ConvergenceTracker {
    threshold: f32,
    max_iterations: u32,
    iteration: u32,
    last_sum: f32,
    converged: bool,
}

impl ConvergenceTracker {
    /// Builds a tracker from the engine options.
    pub fn new(opts: &BpOptions) -> Self {
        ConvergenceTracker {
            threshold: opts.threshold,
            max_iterations: opts.max_iterations,
            iteration: 0,
            last_sum: f32::INFINITY,
            converged: false,
        }
    }

    /// Records one completed iteration with its summed L1 change; returns
    /// true when iteration should continue.
    pub fn record(&mut self, sum: f32) -> bool {
        self.iteration += 1;
        self.last_sum = sum;
        if sum < self.threshold {
            self.converged = true;
            return false;
        }
        self.iteration < self.max_iterations
    }

    /// Records one iteration that cannot certify convergence (a partial
    /// sweep, whose sum leaves the skipped nodes out); returns true while
    /// the iteration budget lasts.
    pub fn count(&mut self, sum: f32) -> bool {
        self.iteration += 1;
        self.last_sum = sum;
        self.iteration < self.max_iterations
    }

    /// Marks the run converged for a reason other than the sum (e.g. the
    /// work queue drained).
    pub fn mark_converged(&mut self) {
        self.converged = true;
    }

    /// Iterations completed.
    pub fn iterations(&self) -> u32 {
        self.iteration
    }

    /// The last recorded sum.
    pub fn last_sum(&self) -> f32 {
        self.last_sum
    }

    /// Whether convergence (rather than the cap) ended the run.
    pub fn converged(&self) -> bool {
        self.converged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stops_on_threshold() {
        let opts = BpOptions::default().with_threshold(0.5);
        let mut t = ConvergenceTracker::new(&opts);
        assert!(t.record(10.0));
        assert!(t.record(1.0));
        assert!(!t.record(0.4));
        assert!(t.converged());
        assert_eq!(t.iterations(), 3);
    }

    #[test]
    fn stops_on_cap_without_convergence() {
        let opts = BpOptions::default().with_max_iterations(3);
        let mut t = ConvergenceTracker::new(&opts);
        assert!(t.record(10.0));
        assert!(t.record(10.0));
        assert!(!t.record(10.0));
        assert!(!t.converged());
        assert_eq!(t.iterations(), 3);
    }

    #[test]
    fn counted_iterations_share_the_budget_but_never_converge() {
        let opts = BpOptions::default().with_max_iterations(2);
        let mut t = ConvergenceTracker::new(&opts);
        assert!(t.count(0.0));
        assert!(!t.converged());
        assert!(!t.record(10.0));
        assert_eq!(t.iterations(), 2);
    }

    #[test]
    fn queue_drain_marks_converged() {
        let mut t = ConvergenceTracker::new(&BpOptions::default());
        t.record(10.0);
        t.mark_converged();
        assert!(t.converged());
    }
}
