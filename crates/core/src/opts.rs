//! Engine configuration.

/// Options shared by every BP engine.
///
/// Defaults match the paper's evaluation setup (§4): "We execute each of
/// the benchmarks until they achieve a convergence within 0.001 before
/// cutting off at a maximum of 200 iterations."
///
/// # Scheduling-flag matrix
///
/// The three scheduling switches compose as follows (engines call
/// [`BpOptions::normalized`] once on entry, so the *Effective* column is
/// what actually runs regardless of how the struct was built):
///
/// | `work_queue` | `residual_priority` | Effective schedule |
/// |--------------|---------------------|--------------------|
/// | `false`      | `false`             | Full Jacobi sweep every iteration. |
/// | `true`       | `false`             | §3.5 work queue, ascending node order. |
/// | `true`       | `true`              | Work queue, descending-residual order. |
/// | `false`      | `true`              | **Normalized to** `work_queue = true`: residual ordering needs the queue's per-node residuals, so the queue is switched on rather than silently ignoring the flag. |
///
/// [`BpOptions::splash`] and [`BpOptions::decay`] select the relaxed
/// engine's task-shape variants (`credo_core::sched`); every barriered
/// engine ignores them.
///
/// The `credo_core::par` and `credo_core::sched` engines always run the
/// compiled packed plan ([`credo_graph::ExecGraph`]); the sequential and
/// OpenMP-analogue engines walk the AoS graph as the paper's C code does,
/// and Seq Node is Par Node's bitwise reference.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BpOptions {
    /// Global convergence threshold: iteration stops once the summed L1
    /// belief change (Algorithm 1's `sum`) falls below this.
    pub threshold: f32,
    /// Per-element threshold used by the work queue (§3.5): a node (or an
    /// edge, via its destination node) whose last L1 change is below this
    /// drops out of the queue until a neighbour wakes it.
    pub queue_threshold: f32,
    /// Hard iteration cap.
    pub max_iterations: u32,
    /// Enables the §3.5 work queues.
    pub work_queue: bool,
    /// When a node's belief changes by at least `queue_threshold`, re-enqueue
    /// its out-neighbours (keeps queue-mode results equal to full sweeps).
    /// Disabling this reproduces a freeze-once-converged queue.
    pub wake_neighbors: bool,
    /// Thread count for the CPU-parallel engines (ignored by sequential
    /// ones). `0` means "all available cores".
    pub threads: usize,
    /// Queue scheduling for the native parallel engines (`credo_core::par`):
    /// when true and the work queue is on, each iteration processes the
    /// highest-residual nodes first instead of ascending node order.
    /// Updates stay double-buffered (Jacobi), so results are unchanged —
    /// this reorders memory traffic, not math. Other engines ignore it.
    pub residual_priority: bool,
    /// Splash size for the relaxed scheduler (`credo_core::sched`): when
    /// non-zero, each popped root expands into a bounded-BFS neighborhood
    /// of at most this many nodes, updated forward then backward as one
    /// task (Van der Merwe et al.'s splash schedule). `0` (the default)
    /// processes single nodes. Barriered engines ignore this.
    pub splash: u32,
    /// Weighted-decay factor for the relaxed scheduler's residuals
    /// (Aksenov et al.): each wake-up priority is scaled by
    /// `decay^(times the node was already processed)`, biasing the
    /// scheduler away from repeatedly reprocessing the same hot region.
    /// `1.0` (the default) disables decay; values must be in `(0, 1]`.
    /// The *drain* test stays on the undecayed residual, so the run still
    /// terminates only at quiescence — but the reordered schedule settles
    /// slightly farther from the residual-priority fixed point than the
    /// undecayed variants (about 1e-3 where they hold 1e-4), the price of
    /// converging in fewer updates. Barriered engines ignore this.
    pub decay: f32,
}

impl Default for BpOptions {
    fn default() -> Self {
        BpOptions {
            threshold: 1e-3,
            queue_threshold: 1e-3,
            max_iterations: 200,
            work_queue: false,
            wake_neighbors: true,
            threads: 0,
            residual_priority: false,
            splash: 0,
            decay: 1.0,
        }
    }
}

impl BpOptions {
    /// Default options with the work queue enabled.
    pub fn with_work_queue() -> Self {
        BpOptions {
            work_queue: true,
            ..Default::default()
        }
    }

    /// Sets the global and per-element thresholds together.
    pub fn with_threshold(mut self, t: f32) -> Self {
        self.threshold = t;
        self.queue_threshold = t;
        self
    }

    /// Sets the iteration cap.
    pub fn with_max_iterations(mut self, n: u32) -> Self {
        self.max_iterations = n;
        self
    }

    /// Sets the CPU-parallel thread count.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Enables residual-priority scheduling for the native parallel
    /// engines (implies enabling the work queue, which supplies the
    /// per-node residuals).
    pub fn with_residual_priority(mut self) -> Self {
        self.work_queue = true;
        self.residual_priority = true;
        self
    }

    /// Enables the relaxed engine's splash variant: each popped root
    /// updates a bounded-BFS neighborhood of at most `size` nodes as one
    /// task. `0` restores single-node tasks.
    pub fn with_splash(mut self, size: u32) -> Self {
        self.splash = size;
        self
    }

    /// Enables the relaxed engine's weighted-decay residuals with factor
    /// `rho` in `(0, 1]` (`1.0` disables decay).
    ///
    /// # Panics
    /// Panics when `rho` is not in `(0, 1]`.
    pub fn with_decay(mut self, rho: f32) -> Self {
        assert!(
            rho > 0.0 && rho <= 1.0,
            "decay factor must be in (0, 1], got {rho}"
        );
        self.decay = rho;
        self
    }

    /// Resolves the scheduling-flag combinations documented in the
    /// [type-level matrix](BpOptions#scheduling-flag-matrix): residual
    /// ordering implies the work queue (its per-node residuals come from
    /// the queue's repopulation pass), and an out-of-range decay factor —
    /// possible via struct-literal construction — falls back to `1.0`
    /// (off). Every engine calls this exactly once on entry, so a
    /// hand-built `BpOptions { residual_priority: true, .. }` behaves the
    /// same as [`BpOptions::with_residual_priority`] instead of being
    /// silently ignored.
    #[must_use]
    pub fn normalized(mut self) -> Self {
        if self.residual_priority && !self.work_queue {
            self.work_queue = true;
        }
        if !(self.decay > 0.0 && self.decay <= 1.0) {
            self.decay = 1.0;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = BpOptions::default();
        assert_eq!(o.threshold, 1e-3);
        assert_eq!(o.max_iterations, 200);
        assert!(!o.work_queue);
        assert!(o.wake_neighbors);
    }

    #[test]
    fn builder_methods_compose() {
        let o = BpOptions::with_work_queue()
            .with_threshold(1e-4)
            .with_max_iterations(50)
            .with_threads(4);
        assert!(o.work_queue);
        assert_eq!(o.queue_threshold, 1e-4);
        assert_eq!(o.max_iterations, 50);
        assert_eq!(o.threads, 4);
        assert!(!o.residual_priority);
    }

    #[test]
    fn residual_priority_implies_work_queue() {
        let o = BpOptions::default().with_residual_priority();
        assert!(o.work_queue);
        assert!(o.residual_priority);
    }

    #[test]
    fn normalized_enables_queue_for_literal_residual_priority() {
        // Struct-literal construction sets the flag without the queue.
        let o = BpOptions {
            residual_priority: true,
            ..Default::default()
        };
        assert!(!o.work_queue);
        let n = o.normalized();
        assert!(n.work_queue);
        assert!(n.residual_priority);
    }

    #[test]
    fn normalized_is_identity_for_consistent_options() {
        for o in [
            BpOptions::default(),
            BpOptions::with_work_queue(),
            BpOptions::default().with_residual_priority(),
            BpOptions::default().with_splash(8).with_decay(0.5),
        ] {
            assert_eq!(o.normalized(), o);
        }
    }

    #[test]
    fn normalized_repairs_out_of_range_decay() {
        let o = BpOptions {
            decay: -0.5,
            ..Default::default()
        };
        assert_eq!(o.normalized().decay, 1.0);
        let nan = BpOptions {
            decay: f32::NAN,
            ..Default::default()
        };
        assert_eq!(nan.normalized().decay, 1.0);
    }

    #[test]
    fn splash_and_decay_builders() {
        let o = BpOptions::default().with_splash(16).with_decay(0.25);
        assert_eq!(o.splash, 16);
        assert_eq!(o.decay, 0.25);
        let d = BpOptions::default();
        assert_eq!(d.splash, 0);
        assert_eq!(d.decay, 1.0);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn zero_decay_panics() {
        let _ = BpOptions::default().with_decay(0.0);
    }
}
