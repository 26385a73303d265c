//! Warm-start re-inference: reuse a converged run when evidence changes.
//!
//! Serving workloads rarely ask cold questions — the same graph is queried
//! over and over with small evidence deltas (a handful of nodes observed
//! or released between queries). Re-running BP from the priors repeats
//! almost all of the converged run's work. [`WarmState`] keeps the
//! compiled [`ExecGraph`], a persistent [`WorkerPool`] and the packed
//! posterior array of the last run; [`WarmState::run_from`] applies an
//! [`EvidenceDelta`], seeds the work queue with just the
//! **changed-evidence frontier** (the re-bound nodes plus their
//! out-neighbours) and lets updates radiate outward — nodes the evidence
//! change never reaches are never recomputed. When the delta is too large
//! a fraction of the graph (see [`WarmPolicy::max_frontier_frac`]) or the
//! previous run did not converge, it falls back to a cold run.
//!
//! The plan is the state's only copy of the graph: [`WarmState::new`]
//! compiles the source graph and drops it, so a state built from a graph
//! holds the same memory as one loaded from the plan store
//! ([`WarmState::from_plan`]).
//!
//! # Cost
//!
//! A warm run costs O(frontier + touched), not O(N). The state keeps one
//! run scratch — the belief double buffer, the per-node diff slots, the
//! work queue, the in-degrees and the message cache — sized by its first
//! run and reused by every later one. A run restarts the queue from the
//! frontier in O(|frontier|), re-zeroes only the diff slots it wrote, and
//! [`WarmState::apply`] mirrors each observed-flag change into the
//! queue's eligibility, so no per-run setup walks the graph. Posteriors,
//! iteration counts and update counts are the same bits as with a fresh
//! scratch per run (tested over a 2000-request stream).
//!
//! # Accuracy
//!
//! The warm schedule is the §3.5 work queue with a restricted initial
//! population, so it stops near the cold run's fixed point, not on it,
//! and a warm answer carries no convergence certificate: `converged`
//! means the queued nodes' summed change fell below the threshold (or
//! the queue drained), not that a full sweep would move the beliefs by
//! less than that. The gap grows with the length of the warm
//! chain, since each run starts from the previous answer. On the
//! perfbench `serve-warm-churn` stream (100k×400k, 4 observations per
//! request), measured over all nodes against a default cold run on the
//! same evidence, the largest |warm − cold| reached 6.0e-4 to 6.3e-4
//! after a few thousand requests; the nodes beyond 1e-4 numbered 16
//! after 600 requests, 59 after 3000 and 82 to 88 after 10800 to 12000
//! (stream seed 1; seed 9001: 28 growing to 99). On 50k×200k with 8
//! observations per request it measured 6.7e-4. The distributed warm
//! runs of `ShardedSession`, which end on a certifying full sweep,
//! measured 1.5e-4 to 2.0e-4. The 1e-4 asserts in the unit and
//! integration suites hold on their small test graphs and on the sampled
//! nodes they check, not as a bound over every node of a large graph.

use crate::engine::EngineError;
use crate::opts::BpOptions;
use crate::par::{pool_threads, WorkerPool};
use crate::plan::{run_node_plan_on, NodeRunCfg, RunScratch};
use crate::stats::BpStats;
use credo_graph::{Belief, BeliefGraph, ExecGraph};
use std::collections::BTreeMap;
use std::time::Instant;
use tracing::Dispatch;

/// A change of evidence relative to the currently bound set: nodes to
/// observe (pin to a state) and overlay observations to clear (restore
/// the node's base prior).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvidenceDelta {
    /// `(node, state)` pairs to observe.
    pub observe: Vec<(u32, u32)>,
    /// Nodes whose overlay observation should be removed. Nodes that are
    /// not currently overlay-observed are ignored.
    pub clear: Vec<u32>,
}

impl EvidenceDelta {
    /// The empty delta (re-query the current evidence).
    pub fn none() -> Self {
        EvidenceDelta::default()
    }

    /// A delta that observes the given `(node, state)` pairs.
    pub fn observing(pairs: &[(u32, u32)]) -> Self {
        EvidenceDelta {
            observe: pairs.to_vec(),
            clear: Vec::new(),
        }
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.observe.is_empty() && self.clear.is_empty()
    }

    /// Number of nodes the delta touches.
    pub fn len(&self) -> usize {
        self.observe.len() + self.clear.len()
    }
}

/// Policy knobs for [`WarmState::run_from`].
#[derive(Clone, Copy, Debug)]
pub struct WarmPolicy {
    /// Fall back to a cold run when the changed-evidence frontier exceeds
    /// this fraction of the node count — past that point a restricted
    /// schedule saves nothing over a sweep.
    pub max_frontier_frac: f32,
    /// When a run exhausts its iteration budget without converging, retry
    /// once with damped updates (belief blending), which converges on
    /// graphs where undamped BP oscillates.
    pub damped_retry: bool,
    /// Damping factor for the retry (`(1 - d) * new + d * old`).
    pub damping: f32,
    /// Wall-clock cutoff: iteration stops (unconverged) at the first
    /// iteration boundary past this instant, and no damped retry starts.
    pub deadline: Option<Instant>,
}

impl Default for WarmPolicy {
    fn default() -> Self {
        WarmPolicy {
            max_frontier_frac: 0.25,
            damped_retry: true,
            damping: 0.5,
            deadline: None,
        }
    }
}

/// The result of a [`WarmState::run_from`] call.
#[derive(Clone, Debug)]
pub struct WarmRun {
    /// Engine statistics (iterations accumulate across a damped retry).
    pub stats: BpStats,
    /// True when the warm frontier schedule ran; false for a cold run.
    pub warm: bool,
    /// True when the damped retry was taken.
    pub damped: bool,
    /// Size of the changed-evidence frontier (0 for an unchanged re-query).
    pub frontier: usize,
}

/// A serializable snapshot of a [`WarmState`]'s inference progress: the
/// packed posterior array, the bound evidence overlay, and whether the
/// last run converged. Restoring it onto a fresh state built from the
/// same plan resumes serving warm — the store persists these across
/// `credo serve` restarts.
#[derive(Clone, Debug, PartialEq)]
pub struct WarmSnapshot {
    /// Packed posterior beliefs of the last run.
    pub packed: Vec<f32>,
    /// Overlay evidence `(node, state)` pairs, ascending by node.
    pub overlay: Vec<(u32, u32)>,
    /// Whether the snapshotted state had converged.
    pub converged: bool,
}

/// Reusable inference state for one graph: the compiled plan, a
/// persistent worker pool, the packed beliefs of the last run, and the
/// currently bound evidence overlay.
pub struct WarmState {
    plan: ExecGraph,
    pool: WorkerPool,
    packed: Vec<f32>,
    /// Pre-overlay bindings (prior and base observed flag), captured
    /// lazily when an overlay observation first touches a node — what a
    /// cleared node is restored to. Keeping this per-touched-node rather
    /// than materializing every node's base up front keeps state
    /// construction O(1) in graph size: a 132-byte [`Belief`] per node
    /// is 132 MB of first-touch allocation on a 1M-node graph, which
    /// dominated restart latency on the plan-store resume path.
    saved: BTreeMap<u32, (Belief, bool)>,
    /// Overlay evidence currently bound on top of the base graph.
    overlay: BTreeMap<u32, u32>,
    converged: bool,
    /// Buffers every run reuses, so a warm run pays no O(N) setup.
    /// [`WarmState::apply`] keeps its queue eligibility in step with the
    /// plan's observed flags.
    scratch: RunScratch,
}

impl WarmState {
    /// Builds warm-start state for `graph` with a worker pool of
    /// `threads` (0 = all cores): compiles the plan and drops the graph.
    /// Beliefs start at the priors; the first [`WarmState::run_from`] is
    /// therefore always a cold run.
    pub fn new(graph: BeliefGraph, threads: usize) -> Self {
        Self::from_plan(ExecGraph::compile(&graph), threads)
    }

    /// Builds warm-start state from a compiled plan (typically one
    /// mmap'd back from the blob store). The plan's priors and observed
    /// flags are taken as the base evidence state, so the plan must not
    /// have overlay evidence bound.
    pub fn from_plan(plan: ExecGraph, threads: usize) -> Self {
        let packed = plan.priors().to_vec();
        WarmState {
            plan,
            pool: WorkerPool::new(pool_threads(threads)),
            packed,
            saved: BTreeMap::new(),
            overlay: BTreeMap::new(),
            converged: false,
            scratch: RunScratch::default(),
        }
    }

    /// Captures the resumable inference state: packed posteriors, bound
    /// overlay evidence and convergence flag.
    pub fn snapshot(&self) -> WarmSnapshot {
        WarmSnapshot {
            packed: self.packed.clone(),
            overlay: self.overlay.iter().map(|(&v, &s)| (v, s)).collect(),
            converged: self.converged,
        }
    }

    /// Restores a [`WarmSnapshot`] taken from a state built over the same
    /// plan. Must be called on a fresh state (no overlay bound, no runs);
    /// validates the snapshot against the plan and rejects mismatches
    /// with [`EngineError::InvalidGraph`] without applying anything.
    pub fn restore(&mut self, snap: &WarmSnapshot) -> Result<(), EngineError> {
        if !self.overlay.is_empty() {
            return Err(EngineError::InvalidGraph(
                "warm snapshot restore requires a fresh state".into(),
            ));
        }
        if snap.packed.len() != self.plan.packed_len() {
            return Err(EngineError::InvalidGraph(format!(
                "warm snapshot holds {} packed floats, plan expects {}",
                snap.packed.len(),
                self.plan.packed_len()
            )));
        }
        self.apply(&EvidenceDelta::observing(&snap.overlay))?;
        self.packed.copy_from_slice(&snap.packed);
        self.converged = snap.converged;
        Ok(())
    }

    /// Number of nodes in the graph.
    pub fn num_nodes(&self) -> usize {
        self.plan.num_nodes()
    }

    /// The compiled execution plan.
    pub fn plan(&self) -> &ExecGraph {
        &self.plan
    }

    /// The packed posterior array of the last run (priors before any run).
    pub fn beliefs(&self) -> &[f32] {
        &self.packed
    }

    /// Node `v`'s posterior slice from the last run.
    pub fn posterior(&self, v: u32) -> &[f32] {
        self.plan.node_slice(&self.packed, v)
    }

    /// The evidence overlay currently bound (node → state).
    pub fn evidence(&self) -> &BTreeMap<u32, u32> {
        &self.overlay
    }

    /// Whether the last run converged (false before any run).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Worker threads in the persistent pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Applies an evidence delta to the compiled plan and the packed
    /// beliefs, returning the ids of nodes whose binding actually
    /// changed (already-identical observations are skipped).
    ///
    /// Rejects out-of-range nodes or states with
    /// [`EngineError::InvalidGraph`] without applying anything.
    pub fn apply(&mut self, delta: &EvidenceDelta) -> Result<Vec<u32>, EngineError> {
        let n = self.num_nodes() as u32;
        for &(v, s) in &delta.observe {
            if v >= n {
                return Err(EngineError::InvalidGraph(format!(
                    "evidence node {v} out of range (graph has {n} nodes)"
                )));
            }
            if s as usize >= self.plan.card(v) {
                return Err(EngineError::InvalidGraph(format!(
                    "evidence state {s} out of range for node {v} (cardinality {})",
                    self.plan.card(v)
                )));
            }
        }
        for &v in &delta.clear {
            if v >= n {
                return Err(EngineError::InvalidGraph(format!(
                    "evidence node {v} out of range (graph has {n} nodes)"
                )));
            }
        }

        let mut changed = Vec::new();
        for &(v, s) in &delta.observe {
            if self.overlay.get(&v) == Some(&s) {
                continue;
            }
            if !self.overlay.contains_key(&v) {
                // First overlay touch: capture the node's base binding
                // before the observation clobbers it.
                let base = (
                    Belief::from_slice(self.plan.node_slice(self.plan.priors(), v)),
                    self.plan.observed()[v as usize],
                );
                self.saved.insert(v, base);
            }
            self.overlay.insert(v, s);
            self.plan.bind_observed(v, s as usize);
            self.scratch.observed_changed(&self.plan, v);
            let off = self.plan.node_off(v);
            let c = self.plan.card(v);
            self.packed[off..off + c].copy_from_slice(&self.plan.priors()[off..off + c]);
            changed.push(v);
        }
        for &v in &delta.clear {
            if self.overlay.remove(&v).is_none() {
                continue;
            }
            let (base, base_observed) = self
                .saved
                .remove(&v)
                .expect("overlaid node always has a saved base binding");
            if base_observed {
                // The node was observed in the base graph: restore that
                // observation rather than freeing the node.
                self.plan.bind_observed(v, base.argmax());
            } else {
                self.plan.bind_prior(v, base.as_slice());
            }
            self.scratch.observed_changed(&self.plan, v);
            let off = self.plan.node_off(v);
            let c = self.plan.card(v);
            self.packed[off..off + c].copy_from_slice(base.as_slice());
            changed.push(v);
        }
        changed.sort_unstable();
        changed.dedup();
        Ok(changed)
    }

    /// The warm frontier for a set of changed nodes: the nodes themselves
    /// plus their out-neighbours, ascending and deduplicated. (Observed
    /// members are filtered out by the queue's eligibility check.)
    pub fn frontier_for(&self, changed: &[u32]) -> Vec<u32> {
        let mut frontier: Vec<u32> = Vec::with_capacity(changed.len() * 4);
        for &v in changed {
            frontier.push(v);
            frontier.extend_from_slice(self.plan.out_neighbors(v));
        }
        frontier.sort_unstable();
        frontier.dedup();
        frontier
    }

    /// Resets the packed beliefs to the (evidence-bound) priors.
    pub fn reset(&mut self) {
        self.packed.clear();
        self.packed.extend_from_slice(self.plan.priors());
        self.converged = false;
    }

    /// Runs a cold inference on the plan path: beliefs reset to priors,
    /// full sweeps (or the work queue if `opts` asks for it).
    pub fn run_cold(
        &mut self,
        name: &'static str,
        opts: &BpOptions,
        trace: &Dispatch,
        deadline: Option<Instant>,
    ) -> BpStats {
        self.reset();
        let stats = run_node_plan_on(
            name,
            &self.plan,
            &mut self.packed,
            opts,
            trace,
            &self.pool,
            &mut self.scratch,
            NodeRunCfg {
                deadline,
                ..NodeRunCfg::default()
            },
        );
        self.converged = stats.converged;
        stats
    }

    /// Applies `delta` and re-infers, reusing the converged state when
    /// the change is small enough ([`WarmPolicy::max_frontier_frac`]):
    /// the work queue starts at the changed-evidence frontier instead of
    /// a full sweep, so untouched regions of the graph are never
    /// recomputed. Falls back to a cold run otherwise, and retries once
    /// with damped updates when the budget runs out unconverged
    /// ([`WarmPolicy::damped_retry`]).
    pub fn run_from(
        &mut self,
        name: &'static str,
        delta: &EvidenceDelta,
        opts: &BpOptions,
        policy: &WarmPolicy,
        trace: &Dispatch,
    ) -> Result<WarmRun, EngineError> {
        let changed = self.apply(delta)?;
        let frontier = self.frontier_for(&changed);
        let n = self.num_nodes();
        let warm_ok =
            self.converged && (frontier.len() as f64) <= policy.max_frontier_frac as f64 * n as f64;

        let mut stats;
        let warm;
        if warm_ok {
            warm = true;
            if frontier.is_empty() {
                // Unchanged evidence on a converged state: nothing to do.
                return Ok(WarmRun {
                    stats: BpStats {
                        engine: name,
                        converged: true,
                        ..BpStats::default()
                    },
                    warm,
                    damped: false,
                    frontier: 0,
                });
            }
            stats = run_node_plan_on(
                name,
                &self.plan,
                &mut self.packed,
                opts,
                trace,
                &self.pool,
                &mut self.scratch,
                NodeRunCfg {
                    frontier: Some(&frontier),
                    damping: 0.0,
                    deadline: policy.deadline,
                },
            );
            self.converged = stats.converged;
        } else {
            warm = false;
            stats = self.run_cold(name, opts, trace, policy.deadline);
        }

        let mut damped = false;
        let deadline_hit = policy.deadline.is_some_and(|d| Instant::now() >= d);
        if !stats.converged && policy.damped_retry && !deadline_hit {
            damped = true;
            let retry = run_node_plan_on(
                name,
                &self.plan,
                &mut self.packed,
                opts,
                trace,
                &self.pool,
                &mut self.scratch,
                NodeRunCfg {
                    frontier: None,
                    damping: policy.damping,
                    deadline: policy.deadline,
                },
            );
            stats.iterations += retry.iterations;
            stats.converged = retry.converged;
            stats.final_delta = retry.final_delta;
            stats.node_updates += retry.node_updates;
            stats.message_updates += retry.message_updates;
            stats.reported_time += retry.reported_time;
            stats.host_time += retry.host_time;
            stats.per_iteration.extend(retry.per_iteration);
            self.converged = stats.converged;
        }

        if trace.enabled() {
            trace.event(
                "warm_run",
                &[
                    ("warm", warm.into()),
                    ("damped", damped.into()),
                    ("frontier", (frontier.len() as u64).into()),
                    ("iterations", (stats.iterations as u64).into()),
                    ("converged", stats.converged.into()),
                ],
            );
        }
        Ok(WarmRun {
            stats,
            warm,
            damped,
            frontier: frontier.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use credo_graph::generators::{synthetic, GenOptions};

    fn linf(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    }

    #[test]
    fn first_run_is_cold_then_requery_is_free() {
        let g = synthetic(300, 1200, &GenOptions::new(2).with_seed(7));
        let mut state = WarmState::new(g, 1);
        let opts = BpOptions::default();
        let run = state
            .run_from(
                "C Node",
                &EvidenceDelta::none(),
                &opts,
                &WarmPolicy::default(),
                &Dispatch::none(),
            )
            .unwrap();
        assert!(!run.warm, "first run must be cold");
        assert!(run.stats.converged);
        let iters = run.stats.iterations;
        assert!(iters > 0);
        // Same evidence again: converged state answers with zero work.
        let again = state
            .run_from(
                "C Node",
                &EvidenceDelta::none(),
                &opts,
                &WarmPolicy::default(),
                &Dispatch::none(),
            )
            .unwrap();
        assert!(again.warm);
        assert_eq!(again.stats.iterations, 0);
        assert_eq!(again.frontier, 0);
    }

    #[test]
    fn warm_matches_cold_posteriors_within_tolerance() {
        let g = synthetic(500, 2000, &GenOptions::new(3).with_seed(11));
        let opts = BpOptions::default();
        let policy = WarmPolicy::default();

        // Warm path: converge, then flip evidence on a few nodes.
        let mut warm = WarmState::new(g.clone(), 1);
        warm.run_from(
            "C Node",
            &EvidenceDelta::none(),
            &opts,
            &policy,
            &Dispatch::none(),
        )
        .unwrap();
        let delta = EvidenceDelta::observing(&[(3, 1), (99, 0), (250, 2)]);
        let run = warm
            .run_from("C Node", &delta, &opts, &policy, &Dispatch::none())
            .unwrap();
        assert!(run.warm, "small delta must take the warm path");
        assert!(run.stats.converged);

        // Cold reference: same evidence from scratch.
        let mut cold = WarmState::new(g, 1);
        let cold_run = cold
            .run_from("C Node", &delta, &opts, &policy, &Dispatch::none())
            .unwrap();
        assert!(!cold_run.warm);
        assert!(
            linf(warm.beliefs(), cold.beliefs()) <= 1e-4,
            "warm posteriors drifted from cold"
        );
        assert!(
            run.stats.iterations <= cold_run.stats.iterations,
            "warm ({}) should not need more iterations than cold ({})",
            run.stats.iterations,
            cold_run.stats.iterations
        );
    }

    #[test]
    fn clearing_evidence_restores_base_prior() {
        let g = synthetic(100, 400, &GenOptions::new(2).with_seed(3));
        let base = g.priors()[5];
        let mut state = WarmState::new(g, 1);
        let opts = BpOptions::default();
        let policy = WarmPolicy::default();
        state
            .run_from(
                "C Node",
                &EvidenceDelta::observing(&[(5, 1)]),
                &opts,
                &policy,
                &Dispatch::none(),
            )
            .unwrap();
        assert_eq!(state.evidence().get(&5), Some(&1));
        assert!(state.plan().observed()[5]);
        let mut delta = EvidenceDelta::none();
        delta.clear.push(5);
        state
            .run_from("C Node", &delta, &opts, &policy, &Dispatch::none())
            .unwrap();
        assert!(state.evidence().is_empty());
        assert!(!state.plan().observed()[5]);
        assert_eq!(
            state.plan().node_slice(state.plan().priors(), 5),
            base.as_slice()
        );
    }

    #[test]
    fn plan_only_clear_restores_base_prior() {
        let g = synthetic(100, 400, &GenOptions::new(2).with_seed(3));
        let plan = credo_graph::ExecGraph::compile(&g);
        let base: Vec<f32> = plan.node_slice(plan.priors(), 5).to_vec();
        let mut state = WarmState::from_plan(plan, 1);
        let opts = BpOptions::default();
        let policy = WarmPolicy::default();
        state
            .run_from(
                "C Node",
                &EvidenceDelta::observing(&[(5, 1)]),
                &opts,
                &policy,
                &Dispatch::none(),
            )
            .unwrap();
        assert!(state.plan().observed()[5]);
        let mut delta = EvidenceDelta::none();
        delta.clear.push(5);
        state
            .run_from("C Node", &delta, &opts, &policy, &Dispatch::none())
            .unwrap();
        assert!(!state.plan().observed()[5]);
        assert_eq!(state.plan().node_slice(state.plan().priors(), 5), &base[..]);
        assert!(state.evidence().is_empty());
    }

    #[test]
    fn large_delta_falls_back_to_cold() {
        let g = synthetic(200, 800, &GenOptions::new(2).with_seed(5));
        let mut state = WarmState::new(g, 1);
        let opts = BpOptions::default();
        let policy = WarmPolicy::default();
        state
            .run_from(
                "C Node",
                &EvidenceDelta::none(),
                &opts,
                &policy,
                &Dispatch::none(),
            )
            .unwrap();
        // Observe half the graph: frontier blows past max_frontier_frac.
        let pairs: Vec<(u32, u32)> = (0..100).map(|v| (v, 0)).collect();
        let run = state
            .run_from(
                "C Node",
                &EvidenceDelta::observing(&pairs),
                &opts,
                &policy,
                &Dispatch::none(),
            )
            .unwrap();
        assert!(!run.warm, "half-graph delta must run cold");
    }

    #[test]
    fn invalid_evidence_is_rejected_without_partial_application() {
        let g = synthetic(50, 150, &GenOptions::new(2).with_seed(2));
        let mut state = WarmState::new(g, 1);
        let bad_node = EvidenceDelta::observing(&[(1, 0), (5000, 1)]);
        assert!(matches!(
            state.apply(&bad_node),
            Err(EngineError::InvalidGraph(_))
        ));
        assert!(state.evidence().is_empty(), "nothing may be applied");
        let bad_state = EvidenceDelta::observing(&[(1, 9)]);
        assert!(matches!(
            state.apply(&bad_state),
            Err(EngineError::InvalidGraph(_))
        ));
        assert!(state.evidence().is_empty());
    }

    #[test]
    fn deadline_stops_iteration_early() {
        let g = synthetic(2000, 8000, &GenOptions::new(2).with_seed(9));
        let mut state = WarmState::new(g, 1);
        let opts = BpOptions::default();
        let policy = WarmPolicy {
            deadline: Some(Instant::now()),
            damped_retry: false,
            ..WarmPolicy::default()
        };
        let run = state
            .run_from(
                "C Node",
                &EvidenceDelta::none(),
                &opts,
                &policy,
                &Dispatch::none(),
            )
            .unwrap();
        assert_eq!(run.stats.iterations, 0, "expired deadline runs nothing");
        assert!(!run.stats.converged);
    }

    /// SplitMix64, so the stream below does not move when a library RNG
    /// does.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// The delta that moves `state`'s overlay to the absolute `target`
    /// evidence, as `credo serve` derives it.
    fn delta_to(state: &WarmState, target: &[(u32, u32)]) -> EvidenceDelta {
        let want: BTreeMap<u32, u32> = target.iter().copied().collect();
        EvidenceDelta {
            observe: want
                .iter()
                .filter(|(v, s)| state.evidence().get(v) != Some(s))
                .map(|(&v, &s)| (v, s))
                .collect(),
            clear: state
                .evidence()
                .keys()
                .filter(|v| !want.contains_key(v))
                .copied()
                .collect(),
        }
    }

    /// One state keeps its run scratch over a serving-shaped stream;
    /// its twin starts every request from a fresh scratch. Every answer
    /// must match bit for bit, across cold fallbacks, damped retries,
    /// runs cut by a deadline or an iteration budget (which leave a
    /// non-empty queue behind), residual ordering (which reads the diff
    /// slots of woken, uncomputed nodes) and work-queue cold runs.
    #[test]
    fn reused_scratch_matches_fresh_scratch_bitwise_over_a_stream() {
        let nodes = 20_000u32;
        let g = synthetic(nodes as usize, 80_000, &GenOptions::new(2).with_seed(42));
        let mut reused = WarmState::new(g.clone(), 1);
        let mut fresh = WarmState::new(g, 1);
        let mut rng = Mix(1);
        let mut history: Vec<Vec<(u32, u32)>> = Vec::new();
        let (mut cold, mut damped, mut cut, mut residual_warm) = (0, 0, 0, 0);
        for i in 0..2000u32 {
            let mut opts = BpOptions::default();
            let mut policy = WarmPolicy::default();
            let evidence: Vec<(u32, u32)> = match i % 1000 {
                // A large delta: the frontier passes max_frontier_frac.
                100 => (0..nodes / 4).map(|v| (v * 4, v % 2)).collect(),
                _ if i % 5 == 4 => {
                    let back = 1 + rng.below(history.len().min(60) as u64) as usize;
                    history[history.len() - back].clone()
                }
                _ => {
                    let mut ev: Vec<(u32, u32)> = Vec::new();
                    while ev.len() < 4 {
                        let v = rng.below(u64::from(nodes)) as u32;
                        if ev.iter().all(|&(u, _)| u != v) {
                            ev.push((v, rng.below(2) as u32));
                        }
                    }
                    ev
                }
            };
            match i % 1000 {
                // Too few iterations: unconverged, then a damped retry.
                300 => opts.max_iterations = 2,
                // Expired deadline: the warm queue is restarted and never run.
                500 => policy.deadline = Some(Instant::now()),
                // The cold run that follows, on the work queue.
                501 => opts = BpOptions::with_work_queue(),
                // Cut after one warm iteration, no retry.
                700 => {
                    opts.max_iterations = 1;
                    policy.damped_retry = false;
                }
                _ if i % 7 == 3 => opts = opts.with_residual_priority(),
                _ => {}
            }
            let delta = delta_to(&reused, &evidence);
            assert_eq!(delta, delta_to(&fresh, &evidence));
            fresh.scratch = RunScratch::default();
            let a = reused
                .run_from("C Node", &delta, &opts, &policy, &Dispatch::none())
                .unwrap();
            let b = fresh
                .run_from("C Node", &delta, &opts, &policy, &Dispatch::none())
                .unwrap();
            let ctx = format!("request {i}");
            assert_eq!(a.warm, b.warm, "{ctx}");
            assert_eq!(a.damped, b.damped, "{ctx}");
            assert_eq!(a.frontier, b.frontier, "{ctx}");
            assert_eq!(a.stats.converged, b.stats.converged, "{ctx}");
            assert_eq!(a.stats.iterations, b.stats.iterations, "{ctx}");
            assert_eq!(a.stats.node_updates, b.stats.node_updates, "{ctx}");
            assert_eq!(a.stats.message_updates, b.stats.message_updates, "{ctx}");
            assert_eq!(
                a.stats.final_delta.to_bits(),
                b.stats.final_delta.to_bits(),
                "{ctx}"
            );
            assert!(
                reused
                    .beliefs()
                    .iter()
                    .zip(fresh.beliefs())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{ctx}: posteriors differ"
            );
            cold += usize::from(!a.warm);
            damped += usize::from(a.damped);
            cut += usize::from(!a.stats.converged && !a.damped);
            residual_warm +=
                usize::from(a.warm && opts.residual_priority && a.stats.iterations > 1);
            history.push(evidence);
        }
        assert!(cold >= 10, "{cold} cold runs");
        assert!(damped >= 2, "{damped} damped retries");
        assert!(cut >= 4, "{cut} cut runs");
        assert!(residual_warm > 100, "{residual_warm} residual warm runs");
    }

    #[test]
    fn par_engine_warm_matches_seq_warm() {
        let g = synthetic(400, 1600, &GenOptions::new(2).with_seed(21));
        let opts = BpOptions::default();
        let delta = EvidenceDelta::observing(&[(11, 0), (200, 1)]);
        let policy = WarmPolicy::default();
        let mut a = WarmState::new(g.clone(), 1);
        let mut b = WarmState::new(g, 4);
        for (name, state) in [("C Node", &mut a), ("Par Node", &mut b)] {
            for d in [&EvidenceDelta::none(), &delta] {
                state
                    .run_from(name, d, &opts, &policy, &Dispatch::none())
                    .unwrap();
            }
        }
        assert!(linf(a.beliefs(), b.beliefs()) <= 1e-4);
    }
}
