//! Plan-lowered engine runners.
//!
//! [`crate::par::ParNodeEngine`], [`crate::par::ParEdgeEngine`] and the
//! warm-start layer ([`crate::warm`]) run here: the graph is compiled
//! once into a packed [`ExecGraph`] and the iteration loop runs on flat
//! `f32` arrays through the [`crate::math::kernels`] microkernels, never
//! touching the 132-byte AoS [`credo_graph::Belief`] records until the
//! final store-back.
//!
//! # Bit-identity
//!
//! The node runner reproduces the AoS [`crate::seq::SeqNodeEngine`]'s
//! float arithmetic exactly — same message kernels (see the kernel
//! module's bit-identity contract), same combine/rescale cadence, same
//! ascending-order convergence reduction — so beliefs, deltas, iteration
//! counts and update counts are bit-identical to Seq Node, for any thread
//! count.
//!
//! The edge runner merges per-worker log-space partial products in worker
//! order, so it is deterministic for a fixed thread count. Its float
//! grouping differs from the AoS edge engines', so it agrees with them to
//! a float tolerance, not bit for bit.

use crate::convergence::ConvergenceTracker;
use crate::engine::EngineError;
use crate::math::kernels;
use crate::msg_cache::MsgCache;
use crate::openmp::SharedSlice;
use crate::opts::BpOptions;
use crate::par::{degree_tiles, emit_pool_metrics, range_chunks, ParWorkQueue, WorkerPool};
use crate::stats::{BpStats, IterationStats};
use credo_graph::{BeliefGraph, ExecGraph, PackedArc, MAX_BELIEFS};
use std::time::Instant;
use tracing::Dispatch;

/// The buffers one [`run_node_plan_on`] call works in, kept between runs
/// so a warm run's bookkeeping costs O(frontier + touched), not O(N).
///
/// A scratch serves one plan; it sizes itself on its first run. Between
/// runs it holds these invariants, which make a reused scratch give the
/// same bits as a fresh one:
/// - every `diffs` slot is 0 (each run re-zeroes the slots it wrote);
/// - the queue's push buffers and queued flags are clean (every `advance*`
///   leaves them so), and its eligibility equals `!plan.observed()` (the
///   owner reports each observed-flag change through
///   [`RunScratch::observed_changed`]).
///
/// `next` needs no invariant: a run writes only the active nodes' ranges
/// and publishes exactly those in the same iteration.
#[derive(Default)]
pub(crate) struct RunScratch {
    next: Vec<f32>,
    diffs: DiffSlots,
    in_degrees: Vec<u32>,
    /// Unobserved nodes, rebuilt for each run that sweeps without a queue.
    full_sweep: Vec<u32>,
    cache: Option<MsgCache>,
    /// Built by the first queued run.
    queue: Option<ParWorkQueue>,
}

impl RunScratch {
    /// Allocates the plan-sized buffers on first use.
    fn size_for(&mut self, plan: &ExecGraph) {
        let n = plan.num_nodes();
        if self.cache.is_some() {
            debug_assert_eq!(self.diffs.vals.len(), n, "a run scratch serves one plan");
            return;
        }
        self.next = vec![0.0; plan.packed_len()];
        self.diffs.vals = vec![0.0; n];
        self.in_degrees = (0..n as u32).map(|v| plan.in_degree(v) as u32).collect();
        self.cache = Some(MsgCache::new(
            plan.uniform_card(),
            plan.pool_matrices(),
            plan.pot_pool(),
        ));
    }

    /// The run's queue, built on first use with `!plan.observed()` as
    /// eligibility.
    fn queue(&mut self, plan: &ExecGraph, workers: usize) -> &mut ParWorkQueue {
        let q = self.queue.get_or_insert_with(|| {
            ParWorkQueue::new(plan.num_nodes(), workers, |v| !plan.observed()[v])
        });
        debug_assert!(
            q.eligible()
                .iter()
                .zip(plan.observed())
                .all(|(&e, &o)| e != o),
            "queue eligibility out of step with the plan's observed flags"
        );
        q
    }

    /// Mirrors a change of node `v`'s observed flag in `plan` into the
    /// queue's eligibility. Whoever rebinds evidence on a plan whose
    /// scratch is kept must call this for every node it rebinds.
    pub(crate) fn observed_changed(&mut self, plan: &ExecGraph, v: u32) {
        if let Some(q) = &mut self.queue {
            q.set_eligible(v as usize, !plan.observed()[v as usize]);
        }
    }
}

/// Per-node L1 diffs plus a record of which slots the current run wrote,
/// so the run can hand them back all zero in O(touched).
#[derive(Default)]
struct DiffSlots {
    vals: Vec<f32>,
    /// Slots written this run (repeats allowed), until the list would
    /// outgrow a plain clear of `vals`; then `all` is set instead.
    dirty: Vec<u32>,
    all: bool,
}

impl DiffSlots {
    /// Records this iteration's active nodes as written.
    fn mark(&mut self, active: &[u32]) {
        if self.all {
            return;
        }
        if self.dirty.len() + active.len() > self.vals.len() / 8 {
            self.all = true;
            self.dirty.clear();
        } else {
            self.dirty.extend_from_slice(active);
        }
    }

    /// Re-zeroes every slot the run wrote.
    fn clear(&mut self) {
        if self.all {
            self.vals.fill(0.0);
        } else {
            for &v in &self.dirty {
                self.vals[v as usize] = 0.0;
            }
        }
        self.dirty.clear();
        self.all = false;
    }
}

/// Extra controls for [`run_node_plan_on`] beyond [`BpOptions`] — the
/// warm-start and serving knobs. The default value reproduces
/// [`run_node_plan`]'s behaviour exactly.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NodeRunCfg<'a> {
    /// When set, the first iteration processes only these nodes (the
    /// changed-evidence frontier) and the work queue is forced on; wake-up
    /// pushes may still reach any unobserved node, so updates radiate
    /// outward from the frontier instead of sweeping the whole graph.
    pub frontier: Option<&'a [u32]>,
    /// Belief damping factor in `[0, 1)`: each new belief is blended as
    /// `(1 - damping) * new + damping * old` before the convergence diff
    /// is taken. `0.0` (the default) is the bit-identical undamped path;
    /// positive values trade convergence speed for stability on
    /// oscillating graphs.
    pub damping: f32,
    /// Hard wall-clock cutoff: iteration stops (unconverged) at the first
    /// iteration boundary past this instant.
    pub deadline: Option<Instant>,
}

/// Runs plan-lowered node-paradigm BP on a fresh pool of `threads`
/// workers (`1` runs inline).
pub(crate) fn run_node_plan(
    name: &'static str,
    graph: &mut BeliefGraph,
    opts: &BpOptions,
    trace: &Dispatch,
    threads: usize,
) -> Result<BpStats, EngineError> {
    let opts = &opts.normalized();
    let plan = ExecGraph::compile(graph);
    let pool = WorkerPool::new(threads);
    let mut prev: Vec<f32> = Vec::new();
    plan.load_beliefs(graph, &mut prev);
    let stats = run_node_plan_on(
        name,
        &plan,
        &mut prev,
        opts,
        trace,
        &pool,
        &mut RunScratch::default(),
        NodeRunCfg::default(),
    );
    plan.store_beliefs(&prev, graph);
    Ok(stats)
}

/// The node-paradigm iteration loop on an already-compiled plan and an
/// externally owned packed belief array — the entry point the warm-start
/// layer ([`crate::warm`]) and the serving layer reuse so neither
/// recompiles the plan nor respawns the worker pool per request. `prev`
/// holds the starting beliefs on entry and the posteriors on return.
/// `scratch` holds the run's buffers; a caller that keeps it across runs
/// (see [`RunScratch`]) pays no O(N) setup for a queued run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_node_plan_on(
    name: &'static str,
    plan: &ExecGraph,
    prev: &mut [f32],
    opts: &BpOptions,
    trace: &Dispatch,
    pool: &WorkerPool,
    scratch: &mut RunScratch,
    cfg: NodeRunCfg<'_>,
) -> BpStats {
    let threads = pool.threads();
    let start = Instant::now();
    let run_span = trace.span("run", &[("engine", name.into())]);
    let n = plan.num_nodes();
    let mut tracker = ConvergenceTracker::new(opts);
    let mut node_updates = 0u64;
    let mut message_updates = 0u64;
    let mut per_iteration: Vec<IterationStats> = Vec::new();

    // Double-buffered packed beliefs: `prev` is the live state, `next` the
    // per-iteration scratch published back after each sweep.
    debug_assert_eq!(prev.len(), plan.packed_len());
    scratch.size_for(plan);
    let damping = cfg.damping;

    let queued = cfg.frontier.is_some() || opts.work_queue;
    if queued {
        let q = scratch.queue(plan, threads);
        match cfg.frontier {
            Some(frontier) => q.restart(frontier),
            None => q.reset(),
        }
    } else {
        scratch.full_sweep.clear();
        scratch
            .full_sweep
            .extend((0..n as u32).filter(|&v| !plan.observed()[v as usize]));
    }
    let RunScratch {
        next,
        diffs,
        in_degrees,
        full_sweep,
        cache,
        queue,
    } = scratch;
    let (next, in_degrees, full_sweep): (&mut [f32], &[u32], &[u32]) =
        (next, in_degrees, full_sweep);
    let cache = cache.as_mut().expect("sized above");
    let mut queue = if queued { queue.as_mut() } else { None };

    loop {
        if cfg.deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let iter_start = Instant::now();
        let active_len = match &queue {
            Some(q) => q.len(),
            None => full_sweep.len(),
        };
        if active_len == 0 {
            tracker.mark_converged();
            break;
        }
        let queue_depth = active_len as u64;
        let iter_span = trace.span(
            "iteration",
            &[
                ("iter", (per_iteration.len() as u64).into()),
                ("queue_depth", queue_depth.into()),
                ("threads", threads.into()),
            ],
        );
        let msgs_before = message_updates;
        cache.refresh(plan.pot_pool(), pool, prev, active_len, n);

        let sum: f32 = {
            let (active, mut qworkers): (&[u32], Vec<_>) = match &mut queue {
                Some(q) => {
                    let (a, w) = q.begin_iteration();
                    (a, w)
                }
                None => (full_sweep, Vec::new()),
            };
            // Arc-balanced contiguous tiles; boundaries never affect the
            // (ascending) reduction order, only who computes what.
            let tiles = degree_tiles(active, in_degrees, threads);
            let use_queue = !qworkers.is_empty();

            {
                let prev_ref = &*prev;
                let plan_ref = plan;
                let pot_pool = plan.pot_pool();
                let cache_ref = &*cache;
                let next_shared = SharedSlice::new(&mut *next);
                let diffs_shared = SharedSlice::new(&mut diffs.vals);
                let mut tile_msgs = vec![0u64; tiles.len()];
                let msgs_shared = SharedSlice::new(&mut tile_msgs);
                let qw_shared = SharedSlice::new(&mut qworkers);
                let (qt, wake) = (opts.queue_threshold, opts.wake_neighbors);
                let tiles_ref = &tiles;
                pool.broadcast(&|i| {
                    let Some(tile) = tiles_ref.get(i) else {
                        return;
                    };
                    let mut msg_buf = [0.0f32; MAX_BELIEFS];
                    let mut acc = [0.0f32; MAX_BELIEFS];
                    let mut local_msgs = 0u64;
                    for &v in *tile {
                        let off = plan_ref.node_off(v);
                        let c = plan_ref.card(v);
                        acc[..c].copy_from_slice(&plan_ref.priors()[off..off + c]);
                        let arcs = plan_ref.in_arcs(v);
                        // `combine_incoming`, restated on packed slices:
                        // same product order, same every-8th rescale.
                        for (k, arc) in arcs.iter().enumerate() {
                            let msg = cache_ref.arc_message(pot_pool, arc, prev_ref, &mut msg_buf);
                            kernels::mul_assign_packed(&mut acc[..c], msg);
                            if k % 8 == 7 {
                                kernels::scale_max_to_one_packed(&mut acc[..c]);
                            }
                        }
                        kernels::normalize_packed(&mut acc[..c]);
                        if damping > 0.0 {
                            // Damped blend (serving's degradation path);
                            // both inputs sum to 1, so the convex
                            // combination stays normalized.
                            for (a, &p) in acc[..c].iter_mut().zip(&prev_ref[off..off + c]) {
                                *a = (1.0 - damping) * *a + damping * p;
                            }
                        }
                        let diff = kernels::l1_diff_packed(&acc[..c], &prev_ref[off..off + c]);
                        local_msgs += arcs.len() as u64;
                        // SAFETY: active node ids are unique, so each node's
                        // packed range and diff slot has exactly one writer.
                        unsafe {
                            std::slice::from_raw_parts_mut(next_shared.ptr_at(off), c)
                                .copy_from_slice(&acc[..c]);
                            diffs_shared.write(v as usize, diff);
                        }
                        if use_queue && diff >= qt {
                            // SAFETY: worker handle `i` is owned by this
                            // region index for the whole broadcast.
                            let qw = unsafe { &mut *qw_shared.ptr_at(i) };
                            qw.push(v);
                            if wake {
                                for &d in plan_ref.out_neighbors(v) {
                                    qw.push(d);
                                }
                            }
                        }
                    }
                    // SAFETY: one slot per region index.
                    unsafe { msgs_shared.write(i, local_msgs) };
                });
                message_updates += tile_msgs.iter().sum::<u64>();
            }
            node_updates += active.len() as u64;

            // Publish: copy each active node's packed range into `prev`.
            {
                let prev_shared = SharedSlice::new(&mut *prev);
                let next_ref = &*next;
                let plan_ref = plan;
                let tiles_ref = &tiles;
                pool.broadcast(&|i| {
                    let Some(tile) = tiles_ref.get(i) else {
                        return;
                    };
                    for &v in *tile {
                        let off = plan_ref.node_off(v);
                        let c = plan_ref.card(v);
                        // SAFETY: unique node ids per tile.
                        unsafe {
                            std::slice::from_raw_parts_mut(prev_shared.ptr_at(off), c)
                                .copy_from_slice(&next_ref[off..off + c]);
                        }
                    }
                });
            }

            diffs.mark(active);

            // Deterministic ascending-order reduction, exactly the float
            // grouping of Seq Node's sweep (re-sort under residual
            // mode, which permutes `active`).
            let vals = &diffs.vals;
            if opts.residual_priority {
                let mut ascending = active.to_vec();
                ascending.sort_unstable();
                ascending.iter().map(|&v| vals[v as usize]).sum()
            } else {
                active.iter().map(|&v| vals[v as usize]).sum()
            }
        };

        if let Some(q) = &mut queue {
            if opts.residual_priority {
                q.advance_by_residual(&diffs.vals);
            } else {
                q.advance();
            }
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

    // Hand the diff slots back all zero: the next run's residual ordering
    // reads the slots of woken nodes it has not computed yet.
    diffs.clear();

    let elapsed = start.elapsed();
    if trace.enabled() {
        emit_pool_metrics(trace, pool, queue.as_deref(), elapsed);
        run_span.record(&[
            ("iterations", tracker.iterations().into()),
            ("converged", tracker.converged().into()),
        ]);
    }
    BpStats {
        engine: name,
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
    }
}

/// One worker's log-space output for an iteration (see
/// [`crate::par::ParEdgeEngine`]): active-list positions it touched plus
/// per-state log-message sums, grouped per position.
#[derive(Debug, Default)]
struct RunBuf {
    pos: Vec<u32>,
    sums: Vec<f32>,
}

/// Runs plan-lowered edge-paradigm BP for [`crate::par::ParEdgeEngine`]:
/// each worker streams a contiguous chunk of the active arc list and
/// accumulates log-space partial products, merged in worker order.
pub(crate) fn run_edge_plan(
    name: &'static str,
    graph: &mut BeliefGraph,
    opts: &BpOptions,
    trace: &Dispatch,
    threads: usize,
) -> Result<BpStats, EngineError> {
    let opts = &opts.normalized();
    let card = graph
        .uniform_cardinality()
        .ok_or(EngineError::NonUniformCardinality)?;
    let start = Instant::now();
    let run_span = trace.span("run", &[("engine", name.into())]);
    let plan = ExecGraph::compile(graph);
    let n = plan.num_nodes();
    let pool = WorkerPool::new(threads);
    let mut tracker = ConvergenceTracker::new(opts);
    let mut node_updates = 0u64;
    let mut message_updates = 0u64;
    let mut per_iteration: Vec<IterationStats> = Vec::new();

    let mut prev: Vec<f32> = Vec::new();
    plan.load_beliefs(graph, &mut prev);
    let mut next: Vec<f32> = prev.clone();
    let mut diffs: Vec<f32> = vec![0.0; n];
    let mut cache = MsgCache::new(plan.uniform_card(), plan.pool_matrices(), plan.pot_pool());
    let mut runs: Vec<RunBuf> = (0..threads).map(|_| RunBuf::default()).collect();

    let full_nodes: Vec<u32> = (0..n as u32)
        .filter(|&v| !plan.observed()[v as usize])
        .collect();
    // The arc stream: every pre-resolved in-arc of every active node,
    // grouped by destination in active-list order.
    let mut stream_arcs: Vec<PackedArc> = Vec::new();
    let mut stream_pos: Vec<u32> = Vec::new();
    fn build_stream(
        plan: &ExecGraph,
        active: &[u32],
        arcs: &mut Vec<PackedArc>,
        pos: &mut Vec<u32>,
    ) {
        arcs.clear();
        pos.clear();
        for (p, &v) in active.iter().enumerate() {
            let ins = plan.in_arcs(v);
            arcs.extend_from_slice(ins);
            pos.resize(pos.len() + ins.len(), p as u32);
        }
    }
    build_stream(&plan, &full_nodes, &mut stream_arcs, &mut stream_pos);

    let mut queue = opts
        .work_queue
        .then(|| ParWorkQueue::new(n, threads, |v| !plan.observed()[v]));

    loop {
        let iter_start = Instant::now();
        let active_len = match &queue {
            Some(q) => q.len(),
            None => full_nodes.len(),
        };
        if active_len == 0 {
            tracker.mark_converged();
            break;
        }
        let queue_depth = active_len as u64;
        let iter_span = trace.span(
            "iteration",
            &[
                ("iter", (per_iteration.len() as u64).into()),
                ("queue_depth", queue_depth.into()),
                ("threads", threads.into()),
            ],
        );
        let msgs_before = message_updates;
        cache.refresh(plan.pot_pool(), &pool, &prev, active_len, n);

        let sum: f32 = {
            let (active, mut qworkers): (&[u32], Vec<_>) = match &mut queue {
                Some(q) => {
                    let (a, w) = q.begin_iteration();
                    (a, w)
                }
                None => (&full_nodes, Vec::new()),
            };
            let use_queue = !qworkers.is_empty();
            if use_queue {
                build_stream(&plan, active, &mut stream_arcs, &mut stream_pos);
            }

            // Region 1: stream arcs into per-worker log-sum runs.
            {
                let prev_ref = &prev;
                let plan_ref = &plan;
                let cache_ref = &cache;
                let arc_chunks = range_chunks(stream_arcs.len(), threads);
                let (arcs_ref, pos_ref) = (&stream_arcs, &stream_pos);
                let runs_shared = SharedSlice::new(&mut runs);
                let chunks_ref = &arc_chunks;
                pool.broadcast(&|i| {
                    // SAFETY: one run buffer per region index.
                    let run = unsafe { &mut *runs_shared.ptr_at(i) };
                    run.pos.clear();
                    run.sums.clear();
                    let Some(&(lo, hi)) = chunks_ref.get(i) else {
                        return;
                    };
                    let mut msg_buf = [0.0f32; MAX_BELIEFS];
                    let mut cur = u32::MAX;
                    for k in lo..hi {
                        let p = pos_ref[k];
                        if p != cur {
                            run.pos.push(p);
                            run.sums.resize(run.sums.len() + card, 0.0);
                            cur = p;
                        }
                        let msg = cache_ref.arc_message(
                            plan_ref.pot_pool(),
                            &arcs_ref[k],
                            prev_ref,
                            &mut msg_buf,
                        );
                        let base = run.sums.len() - card;
                        for (slot, &m) in run.sums[base..].iter_mut().zip(msg) {
                            *slot += m.ln();
                        }
                    }
                });
            }
            message_updates += stream_arcs.len() as u64;

            // Region 2: marginalize — cursor-merge the per-worker runs in
            // worker order (a fixed, deterministic reduction tree).
            {
                let prev_ref = &prev;
                let plan_ref = &plan;
                let runs_ref = &runs;
                let node_chunks = range_chunks(active.len(), threads);
                let next_shared = SharedSlice::new(&mut next);
                let diffs_shared = SharedSlice::new(&mut diffs);
                let qw_shared = SharedSlice::new(&mut qworkers);
                let (qt, wake) = (opts.queue_threshold, opts.wake_neighbors);
                let (active_ref, chunks_ref) = (active, &node_chunks);
                pool.broadcast(&|i| {
                    let Some(&(lo, hi)) = chunks_ref.get(i) else {
                        return;
                    };
                    let mut cursors: Vec<usize> = runs_ref
                        .iter()
                        .map(|r| r.pos.partition_point(|&p| (p as usize) < lo))
                        .collect();
                    let mut acc = vec![0.0f32; card];
                    let mut new = vec![0.0f32; card];
                    for (p, &v) in active_ref.iter().enumerate().take(hi).skip(lo) {
                        acc.fill(0.0);
                        for (r, run) in runs_ref.iter().enumerate() {
                            let c = cursors[r];
                            if run.pos.get(c) == Some(&(p as u32)) {
                                let base = c * card;
                                for (st, a) in acc.iter_mut().enumerate() {
                                    *a += run.sums[base + st];
                                }
                                cursors[r] = c + 1;
                            }
                        }
                        // Log-sum-exp against the max for stability.
                        let mut max = f32::NEG_INFINITY;
                        for &a in &acc {
                            max = max.max(a);
                        }
                        if !max.is_finite() {
                            max = 0.0;
                        }
                        let off = plan_ref.node_off(v);
                        let prior = &plan_ref.priors()[off..off + card];
                        for (st, &a) in acc.iter().enumerate() {
                            new[st] = prior[st] * (a - max).exp();
                        }
                        kernels::normalize_packed(&mut new);
                        let diff = kernels::l1_diff_packed(&new, &prev_ref[off..off + card]);
                        // SAFETY: active node ids are unique; one writer per
                        // packed range and diff slot.
                        unsafe {
                            std::slice::from_raw_parts_mut(next_shared.ptr_at(off), card)
                                .copy_from_slice(&new);
                            diffs_shared.write(v as usize, diff);
                        }
                        if use_queue && diff >= qt {
                            // SAFETY: handle `i` is owned by this index.
                            let qw = unsafe { &mut *qw_shared.ptr_at(i) };
                            qw.push(v);
                            if wake {
                                for &d in plan_ref.out_neighbors(v) {
                                    qw.push(d);
                                }
                            }
                        }
                    }
                });
            }
            node_updates += active.len() as u64;

            // Region 3: publish.
            {
                let prev_shared = SharedSlice::new(&mut prev);
                let next_ref = &next;
                let plan_ref = &plan;
                let node_chunks = range_chunks(active.len(), threads);
                let (active_ref, chunks_ref) = (active, &node_chunks);
                pool.broadcast(&|i| {
                    let Some(&(lo, hi)) = chunks_ref.get(i) else {
                        return;
                    };
                    for &v in &active_ref[lo..hi] {
                        let off = plan_ref.node_off(v);
                        // SAFETY: unique node ids per chunk.
                        unsafe {
                            std::slice::from_raw_parts_mut(prev_shared.ptr_at(off), card)
                                .copy_from_slice(&next_ref[off..off + card]);
                        }
                    }
                });
            }

            if opts.residual_priority {
                let mut ascending = active.to_vec();
                ascending.sort_unstable();
                ascending.iter().map(|&v| diffs[v as usize]).sum()
            } else {
                active.iter().map(|&v| diffs[v as usize]).sum()
            }
        };

        if let Some(q) = &mut queue {
            if opts.residual_priority {
                q.advance_by_residual(&diffs);
            } else {
                q.advance();
            }
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

    plan.store_beliefs(&prev, graph);
    let elapsed = start.elapsed();
    if trace.enabled() {
        emit_pool_metrics(trace, &pool, queue.as_ref(), elapsed);
        run_span.record(&[
            ("iterations", tracker.iterations().into()),
            ("converged", tracker.converged().into()),
        ]);
    }
    Ok(BpStats {
        engine: name,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{ParEdgeEngine, ParNodeEngine};
    use crate::seq::SeqNodeEngine;
    use crate::BpEngine;
    use credo_graph::generators::{kronecker, synthetic, GenOptions, PotentialKind};

    fn beliefs_bitwise_equal(a: &BeliefGraph, b: &BeliefGraph) -> bool {
        a.beliefs().iter().zip(b.beliefs()).all(|(x, y)| {
            x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(p, q)| p.to_bits() == q.to_bits())
        })
    }

    fn assert_par_plan_matches_seq_aos(g: &BeliefGraph, opts: BpOptions, ctx: &str) {
        let mut g_seq = g.clone();
        let s_seq = SeqNodeEngine.run(&mut g_seq, &opts).unwrap();
        for threads in [1usize, 2, 4] {
            let ctx = format!("{ctx}, threads={threads}");
            let mut g_par = g.clone();
            let s_par = ParNodeEngine
                .run(&mut g_par, &opts.with_threads(threads))
                .unwrap();
            assert_eq!(s_par.iterations, s_seq.iterations, "{ctx}");
            assert_eq!(s_par.converged, s_seq.converged, "{ctx}");
            assert_eq!(s_par.node_updates, s_seq.node_updates, "{ctx}");
            assert_eq!(s_par.message_updates, s_seq.message_updates, "{ctx}");
            let deltas = |s: &BpStats| -> Vec<u32> {
                s.per_iteration.iter().map(|i| i.delta.to_bits()).collect()
            };
            assert_eq!(deltas(&s_par), deltas(&s_seq), "{ctx}: delta trajectory");
            assert!(beliefs_bitwise_equal(&g_par, &g_seq), "{ctx}: beliefs");
        }
    }

    /// Runs [`assert_par_plan_matches_seq_aos`] on `g` under every
    /// scheduling option.
    fn assert_par_plan_matches_seq_aos_all_schedules(g: &BeliefGraph, gname: &str) {
        let schedules = [
            ("default", BpOptions::default()),
            ("queue", BpOptions::with_work_queue()),
            ("residual", BpOptions::default().with_residual_priority()),
        ];
        for (oname, opts) in schedules {
            assert_par_plan_matches_seq_aos(g, opts, &format!("{gname}, {oname}"));
        }
    }

    /// The plan is bit-equal to the direct AoS Seq Node (the paper's C
    /// Node) under every scheduling option.
    #[test]
    fn plan_seq_node_is_bitwise_identical_to_direct() {
        let g3 = synthetic(180, 720, &GenOptions::new(3).with_seed(17));
        assert_par_plan_matches_seq_aos_all_schedules(&g3, "card 3");
        let g2 = synthetic(180, 720, &GenOptions::new(2).with_seed(8));
        assert_par_plan_matches_seq_aos_all_schedules(&g2, "card 2");
    }

    #[test]
    fn plan_par_node_matches_plan_seq_node_for_any_thread_count() {
        let g = synthetic(200, 800, &GenOptions::new(3).with_seed(17));
        assert_par_plan_matches_seq_aos(&g, BpOptions::default(), "card 3");
    }

    #[test]
    fn plan_handles_mixed_cardinalities() {
        use credo_graph::{Belief, GraphBuilder, JointMatrix};
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Belief::from_slice(&[0.7, 0.3]));
        let n1 = b.add_node(Belief::uniform(5));
        let n2 = b.add_node(Belief::uniform(3));
        b.add_undirected_edge_with(n0, n1, JointMatrix::uniform(2, 5));
        b.add_undirected_edge_with(n1, n2, JointMatrix::uniform(5, 3));
        assert_par_plan_matches_seq_aos_all_schedules(&b.build().unwrap(), "mixed");
    }

    #[test]
    fn plan_per_edge_potentials_match_direct() {
        let opts = GenOptions::new(2)
            .with_seed(31)
            .with_potentials(PotentialKind::PerEdgeRandom);
        assert_par_plan_matches_seq_aos_all_schedules(&synthetic(60, 180, &opts), "per-edge");
    }

    #[test]
    fn plan_hub_graphs_match_direct() {
        let g = kronecker(7, 8, &GenOptions::new(2).with_seed(9));
        assert_par_plan_matches_seq_aos_all_schedules(&g, "hub");
    }

    #[test]
    fn plan_edge_rejects_non_uniform_cardinality() {
        use credo_graph::{Belief, GraphBuilder, JointMatrix};
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

    #[test]
    fn plan_observed_nodes_never_change() {
        let mut g = synthetic(50, 150, &GenOptions::new(2).with_seed(4));
        g.observe(7, 1);
        let before = g.beliefs()[7];
        ParNodeEngine.run(&mut g, &BpOptions::default()).unwrap();
        assert_eq!(g.beliefs()[7], before);
    }
}
