//! The inference server: bounded per-graph queues, batching workers and
//! the TCP accept loop.
//!
//! One worker thread per loaded graph owns that graph's
//! [`WarmState`] — inference is single-writer by construction, so no
//! locks are held while BP runs. Connection handlers (and the in-process
//! client, [`Server::submit`]) enqueue jobs onto the graph's bounded
//! queue and block on a reply channel; the worker drains up to
//! [`ServeConfig::batch_max`] jobs at a time, groups them by canonical
//! evidence, and answers each group from the posterior cache or one
//! warm-start run.
//!
//! Batching invariant: groups are processed in first-arrival order and
//! every member of a group is answered from one shared posterior `Arc`,
//! so a batched schedule performs exactly the computations a sequential
//! one would, in the same order, on the same evolving warm state — which
//! is what makes batched responses bitwise-equal to sequential ones.

use crate::cache::PosteriorCache;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::protocol::{
    evidence_key, Request, Response, ERR_BAD_REQUEST, ERR_DEADLINE, ERR_SHED, ERR_UNKNOWN_GRAPH,
    OP_INFER, OP_PING, OP_SHUTDOWN, OP_STATS,
};
use crate::reactor::{run_reactor, ReactorHandler, ReplySink};
use credo_core::{BpOptions, Dispatch, EvidenceDelta, WarmPolicy, WarmState};
use credo_graph::BeliefGraph;
use credo_store::{structural_hash, PlanStore, SourceKey, StoreError};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Bound on each graph's request queue; submissions beyond it are
    /// shed with [`ERR_SHED`].
    pub queue_cap: usize,
    /// Maximum jobs drained into one batch.
    pub batch_max: usize,
    /// Deadline applied when a request carries `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// Posterior cache entries per graph (0 disables caching).
    pub cache_cap: usize,
    /// Worker-pool threads for each graph's engine (0 = all cores).
    pub engine_threads: usize,
    /// BP options for every run (iteration cap, threshold, …).
    pub opts: BpOptions,
    /// Warm-start fallback threshold (see
    /// [`WarmPolicy::max_frontier_frac`]).
    pub max_frontier_frac: f32,
    /// Whether non-converged runs retry once with damped updates.
    pub damped_retry: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: 256,
            batch_max: 32,
            default_deadline: Duration::from_secs(10),
            cache_cap: 128,
            engine_threads: 1,
            opts: BpOptions::default(),
            max_frontier_frac: 0.25,
            damped_retry: true,
        }
    }
}

/// One queued query awaiting its graph's worker.
struct Job {
    /// Canonical (sorted, deduplicated) evidence.
    evidence: Vec<(u32, u32)>,
    /// Grouping key for `evidence` (prefixed for fresh jobs so they
    /// never coalesce with cacheable ones).
    key: String,
    /// Posterior node ids to return (empty = all).
    nodes: Vec<u32>,
    /// Deterministic-probe request: run cold, bypass the cache.
    fresh: bool,
    deadline: Instant,
    reply: ReplySink,
}

/// Per-graph shared state: the queue the handlers feed and the cache the
/// worker consults. The [`WarmState`] itself lives on the worker's stack.
struct GraphSlot {
    num_nodes: usize,
    /// Merkle root of the stored plan, when the graph came through (or
    /// was saved to) a plan store — the key warm snapshots file under.
    plan_root: Option<u128>,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    cache: Mutex<PosteriorCache>,
}

struct Inner {
    cfg: ServeConfig,
    graphs: RwLock<HashMap<String, Arc<GraphSlot>>>,
    store: RwLock<Option<Arc<PlanStore>>>,
    metrics: Metrics,
    trace: Dispatch,
    shutdown: AtomicBool,
}

/// A multi-graph inference service. See the module docs for the
/// threading model.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// A server with no graphs loaded, emitting telemetry into `trace`
    /// (use [`Dispatch::none`] for an untraced server).
    pub fn new(cfg: ServeConfig, trace: Dispatch) -> Self {
        Server {
            inner: Arc::new(Inner {
                cfg,
                graphs: RwLock::new(HashMap::new()),
                store: RwLock::new(None),
                metrics: Metrics::default(),
                trace,
                shutdown: AtomicBool::new(false),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Attaches a content-addressed plan store rooted at `dir`. Graphs
    /// added afterwards through [`Server::add_graph_cached`] load their
    /// compiled plan (and latest warm snapshot) from it when present, and
    /// every store-tracked graph persists a warm snapshot at shutdown.
    pub fn set_store(&self, dir: impl Into<std::path::PathBuf>) -> Result<(), StoreError> {
        let store = PlanStore::open(dir)?;
        *self.inner.store.write().unwrap() = Some(Arc::new(store));
        Ok(())
    }

    /// Loads `graph` under `id` and starts its inference worker. The
    /// compile happens here, once; queries reuse the compiled plan.
    /// Replacing an existing id is not supported.
    pub fn add_graph(&self, id: &str, graph: BeliefGraph) {
        let state = WarmState::new(graph, self.inner.cfg.engine_threads);
        self.install(id, state, None);
    }

    /// Like [`Server::add_graph`], but routed through the attached plan
    /// store: a stored plan for `key` is mmap'd back (`store_hits`) and
    /// the latest warm snapshot restored (`warm_resumes`) — the graph is
    /// never built and never compiled, so `build` (which may fail, e.g.
    /// on a parse error) is only consulted on a miss. On a miss, or when
    /// the stored entry is damaged, `build` runs, the plan is compiled
    /// once and saved for the next restart (`store_misses`). Without a
    /// store attached this is exactly [`Server::add_graph`].
    pub fn add_graph_cached<E>(
        &self,
        id: &str,
        key: SourceKey,
        source: &str,
        build: impl FnOnce() -> Result<BeliefGraph, E>,
    ) -> Result<(), E> {
        let store = self.inner.store.read().unwrap().clone();
        let Some(store) = store else {
            self.add_graph(id, build()?);
            return Ok(());
        };
        let metrics = &self.inner.metrics;
        let threads = self.inner.cfg.engine_threads;
        match store.load_plan(&key) {
            Ok(Some((plan, manifest))) => {
                Metrics::inc(&metrics.store_hits);
                if self.inner.trace.enabled() {
                    self.inner.trace.event(
                        "store_hit",
                        &[("graph", id.into()), ("mapped", plan.is_mapped().into())],
                    );
                }
                let root = manifest.root_hash();
                let mut state = WarmState::from_plan(plan, threads);
                if let Some(root) = root {
                    if let Ok(Some(snap)) = store.load_warm_latest(root) {
                        if state.restore(&snap).is_ok() {
                            Metrics::inc(&metrics.warm_resumes);
                            if self.inner.trace.enabled() {
                                self.inner.trace.event(
                                    "warm_resume",
                                    &[
                                        ("graph", id.into()),
                                        ("converged", snap.converged.into()),
                                        ("evidence", snap.overlay.len().into()),
                                    ],
                                );
                            }
                        }
                    }
                }
                self.install(id, state, root);
            }
            miss => {
                Metrics::inc(&metrics.store_misses);
                if self.inner.trace.enabled() {
                    let why = match &miss {
                        Err(e) => e.to_string(),
                        _ => "not stored".to_string(),
                    };
                    self.inner.trace.event(
                        "store_miss",
                        &[("graph", id.into()), ("why", why.as_str().into())],
                    );
                }
                let graph = build()?;
                let structural = structural_hash(&graph);
                let state = WarmState::new(graph, threads);
                // Persisting is best-effort: a read-only or full store
                // must not stop the server from answering queries.
                let root = store
                    .save_plan(key, source, structural, state.plan())
                    .ok()
                    .and_then(|m| m.root_hash());
                self.install(id, state, root);
            }
        }
        Ok(())
    }

    fn install(&self, id: &str, state: WarmState, plan_root: Option<u128>) {
        let slot = Arc::new(GraphSlot {
            num_nodes: state.num_nodes(),
            plan_root,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cache: Mutex::new(PosteriorCache::new(self.inner.cfg.cache_cap)),
        });
        let prev = self
            .inner
            .graphs
            .write()
            .unwrap()
            .insert(id.to_string(), Arc::clone(&slot));
        assert!(prev.is_none(), "graph id {id:?} already loaded");
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::spawn(move || worker_loop(inner, slot, state));
        self.workers.lock().unwrap().push(handle);
    }

    /// Ids of the loaded graphs, sorted.
    pub fn graph_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.inner.graphs.read().unwrap().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// A point-in-time copy of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// True once [`OP_SHUTDOWN`] has been received (or
    /// [`Server::shutdown`] called).
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Stops the workers and the accept loop, then joins the workers.
    /// Queued jobs are still drained before each worker exits.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.inner.request_shutdown();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for handle in workers {
            let _ = handle.join();
        }
    }

    /// The in-process client: executes one request and blocks until its
    /// response is ready. This is the exact path TCP connections take
    /// after decoding a frame.
    pub fn submit(&self, req: &Request) -> Response {
        self.inner.submit(req)
    }

    /// Serves connections on `listener` until shutdown through the
    /// non-blocking reactor: one thread multiplexes every socket, so
    /// thousands of idle keep-alive connections cost file descriptors,
    /// not stacks. Blocks the calling thread.
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        run_reactor(listener, &*self.inner)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    /// Raises the shutdown flag and wakes every worker. Does not join —
    /// only [`Server::shutdown`] owns the handles.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for slot in self.graphs.read().unwrap().values() {
            // Grab the lock so a worker between its empty-check and its
            // wait cannot miss the wake-up.
            let _guard = slot.queue.lock().unwrap();
            slot.cv.notify_all();
        }
    }

    /// The blocking in-process path: a channel sink parks the caller
    /// until the worker (or an inline control answer) replies.
    fn submit(&self, req: &Request) -> Response {
        let (tx, rx) = mpsc::channel();
        self.handle_request(req, ReplySink::Channel(tx));
        rx.recv()
            .unwrap_or_else(|_| Response::err(ERR_DEADLINE, "worker exited before answering"))
    }

    /// Routes one request: control ops answer synchronously through the
    /// sink; infer enqueues onto the graph's worker queue. Never blocks
    /// on inference — this is the method the reactor calls.
    fn handle_request(&self, req: &Request, reply: ReplySink) {
        match req.op.as_str() {
            OP_PING => reply.send(Response::ok()),
            OP_STATS => {
                let mut resp = Response::ok();
                resp.stats_json = serde_json::to_string(&self.metrics.snapshot())
                    .unwrap_or_else(|e| e.to_string());
                reply.send(resp);
            }
            OP_SHUTDOWN => {
                self.request_shutdown();
                reply.send(Response::ok());
            }
            OP_INFER => self.enqueue_infer(req, reply),
            other => {
                Metrics::inc(&self.metrics.bad_requests);
                reply.send(Response::err(
                    ERR_BAD_REQUEST,
                    format!("unknown op {other:?}"),
                ));
            }
        }
    }

    fn enqueue_infer(&self, req: &Request, reply: ReplySink) {
        let metrics = &self.metrics;
        let slot = match self.graphs.read().unwrap().get(&req.graph) {
            Some(slot) => Arc::clone(slot),
            None => {
                Metrics::inc(&metrics.bad_requests);
                reply.send(Response::err(
                    ERR_UNKNOWN_GRAPH,
                    format!("graph {:?} is not loaded", req.graph),
                ));
                return;
            }
        };
        let evidence = match req.canonical_evidence() {
            Ok(ev) => ev,
            Err(msg) => {
                Metrics::inc(&metrics.bad_requests);
                reply.send(Response::err(ERR_BAD_REQUEST, msg));
                return;
            }
        };
        if let Some(&v) = req.nodes.iter().find(|&&v| v as usize >= slot.num_nodes) {
            Metrics::inc(&metrics.bad_requests);
            reply.send(Response::err(
                ERR_BAD_REQUEST,
                format!("node {v} out of range (graph has {} nodes)", slot.num_nodes),
            ));
            return;
        }
        let deadline = Instant::now()
            + if req.deadline_ms == 0 {
                self.cfg.default_deadline
            } else {
                Duration::from_millis(req.deadline_ms)
            };
        let key = if req.fresh {
            format!("fresh!{}", evidence_key(&evidence))
        } else {
            evidence_key(&evidence)
        };
        {
            let mut queue = slot.queue.lock().unwrap();
            if queue.len() >= self.cfg.queue_cap {
                Metrics::inc(&metrics.shed);
                reply.send(Response::err(
                    ERR_SHED,
                    format!("queue full ({} pending)", queue.len()),
                ));
                return;
            }
            queue.push_back(Job {
                evidence,
                key,
                nodes: req.nodes.clone(),
                fresh: req.fresh,
                deadline,
                reply,
            });
            Metrics::inc(&metrics.enqueued);
            self.metrics.observe_depth(queue.len() as u64);
        }
        slot.cv.notify_one();
    }
}

impl ReactorHandler for Inner {
    fn handle(&self, req: Request, reply: ReplySink) {
        self.handle_request(&req, reply);
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

/// The per-graph inference loop: drain a batch, group, answer.
fn worker_loop(inner: Arc<Inner>, slot: Arc<GraphSlot>, mut state: WarmState) {
    loop {
        let batch = {
            let mut queue = slot.queue.lock().unwrap();
            while queue.is_empty() && !inner.shutdown.load(Ordering::SeqCst) {
                queue = slot.cv.wait(queue).unwrap();
            }
            if queue.is_empty() {
                // Shutdown with nothing left to drain: persist this
                // graph's inference state so the next serve process
                // resumes warm instead of re-inferring from priors.
                drop(queue);
                snapshot_on_shutdown(&inner, &slot, &state);
                return;
            }
            let take = queue.len().min(inner.cfg.batch_max.max(1));
            queue.drain(..take).collect::<Vec<Job>>()
        };
        process_batch(&inner, &slot, &mut state, batch);
    }
}

/// Persists the worker's warm state into the attached store (best-effort;
/// requires the graph to have come through the store so its plan root is
/// known).
fn snapshot_on_shutdown(inner: &Inner, slot: &GraphSlot, state: &WarmState) {
    let Some(root) = slot.plan_root else { return };
    let store = inner.store.read().unwrap().clone();
    let Some(store) = store else { return };
    let overlay: Vec<(u32, u32)> = state.evidence().iter().map(|(&v, &s)| (v, s)).collect();
    let key = evidence_key(&overlay);
    if store.save_warm(root, &key, &state.snapshot()).is_ok() {
        Metrics::inc(&inner.metrics.snapshots_saved);
        if inner.trace.enabled() {
            inner.trace.event(
                "store_snapshot",
                &[
                    ("evidence", overlay.len().into()),
                    ("converged", state.converged().into()),
                ],
            );
        }
    }
}

fn process_batch(inner: &Inner, slot: &GraphSlot, state: &mut WarmState, batch: Vec<Job>) {
    let metrics = &inner.metrics;
    Metrics::inc(&metrics.batches);
    Metrics::add(&metrics.batched_requests, batch.len() as u64);
    if inner.trace.enabled() {
        inner
            .trace
            .event("serve_batch", &[("size", batch.len().into())]);
    }

    // Group by canonical evidence, preserving first-arrival order.
    let mut groups: Vec<(String, Vec<Job>)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for job in batch {
        match index.get(&job.key) {
            Some(&i) => groups[i].1.push(job),
            None => {
                index.insert(job.key.clone(), groups.len());
                groups.push((job.key.clone(), vec![job]));
            }
        }
    }

    for (key, jobs) in groups {
        process_group(inner, slot, state, &key, jobs);
    }
}

fn process_group(
    inner: &Inner,
    slot: &GraphSlot,
    state: &mut WarmState,
    key: &str,
    jobs: Vec<Job>,
) {
    let metrics = &inner.metrics;
    let now = Instant::now();
    let (jobs, expired): (Vec<Job>, Vec<Job>) = jobs.into_iter().partition(|j| j.deadline > now);
    for job in expired {
        Metrics::inc(&metrics.deadline_exceeded);
        job.reply
            .send(Response::err(ERR_DEADLINE, "deadline expired in queue"));
    }
    let Some(first) = jobs.first() else { return };
    let fresh = first.fresh;

    // Cache first: a hit answers the whole group with the stored bytes.
    // Fresh (deterministic-probe) groups never read the cache.
    if !fresh {
        if let Some(hit) = slot.cache.lock().unwrap().get(key) {
            Metrics::add(&metrics.cache_hits, jobs.len() as u64);
            for job in &jobs {
                let mut resp = Response::ok();
                resp.converged = true;
                resp.cached = true;
                resp.posteriors = extract(state, &hit, &job.nodes);
                job.reply.send(resp);
            }
            return;
        }
    }
    Metrics::add(&metrics.cache_misses, jobs.len() as u64);

    // Derive the delta from the state's current overlay to the group's
    // absolute evidence.
    let target: BTreeMap<u32, u32> = first.evidence.iter().copied().collect();
    let delta = EvidenceDelta {
        observe: target
            .iter()
            .filter(|(v, s)| state.evidence().get(v) != Some(s))
            .map(|(&v, &s)| (v, s))
            .collect(),
        clear: state
            .evidence()
            .keys()
            .filter(|v| !target.contains_key(v))
            .copied()
            .collect(),
    };
    // Run until the group's most patient deadline.
    let run_deadline = jobs.iter().map(|j| j.deadline).max();
    let run = if fresh {
        // Fresh: bind the evidence, then run cold from the priors —
        // the same bits every time regardless of serving history.
        Metrics::inc(&metrics.fresh_runs);
        match state.apply(&delta) {
            Ok(_) => {}
            Err(e) => {
                Metrics::add(&metrics.bad_requests, jobs.len() as u64);
                for job in &jobs {
                    job.reply
                        .send(Response::err(ERR_BAD_REQUEST, e.to_string()));
                }
                return;
            }
        }
        let stats = state.run_cold("serve", &inner.cfg.opts, &inner.trace, run_deadline);
        credo_core::WarmRun {
            stats,
            warm: false,
            damped: false,
            frontier: 0,
        }
    } else {
        let policy = WarmPolicy {
            max_frontier_frac: inner.cfg.max_frontier_frac,
            damped_retry: inner.cfg.damped_retry,
            deadline: run_deadline,
            ..WarmPolicy::default()
        };
        match state.run_from("serve", &delta, &inner.cfg.opts, &policy, &inner.trace) {
            Ok(run) => run,
            Err(e) => {
                Metrics::add(&metrics.bad_requests, jobs.len() as u64);
                for job in &jobs {
                    job.reply
                        .send(Response::err(ERR_BAD_REQUEST, e.to_string()));
                }
                return;
            }
        }
    };
    if run.warm {
        Metrics::inc(&metrics.warm_runs);
        Metrics::add(&metrics.warm_iterations, run.stats.iterations as u64);
    } else {
        Metrics::inc(&metrics.cold_runs);
        Metrics::add(&metrics.cold_iterations, run.stats.iterations as u64);
    }
    if run.damped {
        Metrics::inc(&metrics.damped_runs);
    }

    // Only an array that enters the cache is copied; answers are read
    // straight from the state's posteriors.
    if run.stats.converged && !fresh {
        let mut cache = slot.cache.lock().unwrap();
        if cache.capacity() > 0 {
            cache.put(key.to_string(), Arc::new(state.beliefs().to_vec()));
        }
    }
    let now = Instant::now();
    for job in &jobs {
        if !run.stats.converged && job.deadline <= now {
            Metrics::inc(&metrics.deadline_exceeded);
            job.reply
                .send(Response::err(ERR_DEADLINE, "deadline expired mid-run"));
            continue;
        }
        let mut resp = Response::ok();
        resp.converged = run.stats.converged;
        resp.warm = run.warm;
        resp.damped = run.damped;
        resp.iterations = run.stats.iterations;
        resp.posteriors = extract(state, state.beliefs(), &job.nodes);
        job.reply.send(resp);
    }
}

/// Pulls the requested nodes' posterior slices out of a packed array.
fn extract(state: &WarmState, packed: &[f32], nodes: &[u32]) -> Vec<(u32, Vec<f32>)> {
    let plan = state.plan();
    let all;
    let wanted: &[u32] = if nodes.is_empty() {
        all = (0..plan.num_nodes() as u32).collect::<Vec<u32>>();
        &all
    } else {
        nodes
    };
    wanted
        .iter()
        .map(|&v| (v, plan.node_slice(packed, v).to_vec()))
        .collect()
}
