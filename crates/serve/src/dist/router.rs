//! The distributed router: owns the frontier, fans sweeps out to the
//! shard workers, and fronts the client protocol.

use crate::cache::PosteriorCache;
use crate::dist::ERR_UNAVAILABLE;
use crate::metrics::Metrics;
use crate::protocol::{
    evidence_key, Request, Response, ERR_BAD_REQUEST, ERR_DEADLINE, ERR_UNKNOWN_GRAPH, OP_INFER,
    OP_PING, OP_SHUTDOWN, OP_STATS,
};
use crate::reactor::{ReactorHandler, ReplySink};
use credo_core::{BpOptions, Dispatch, FrontierSync, SweepPhase, SweepSchedule};
use credo_graph::{BeliefGraph, ShardCopy, ShardedExec, ShardedMeta};
use credo_net::{read_msg, write_frame, write_msg, HashRing, WireMsg};
use credo_store::{structural_hash, PlanStore, SourceKey};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Distributed serving configuration.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Shard-worker addresses (`host:port`).
    pub workers: Vec<String>,
    /// Shards per graph; 0 means one per worker.
    pub shards: usize,
    /// Worker-side compute threads (0 = all cores), shipped in
    /// `LoadShard`.
    pub threads: u32,
    /// Plan-store root shared with the workers; empty = no store (the
    /// workers compile from the spec instead of mmap-loading).
    pub store_dir: String,
    /// Engine options; the convergence tracker and max iterations come
    /// from here.
    pub opts: BpOptions,
    /// Posterior cache capacity per graph.
    pub cache_cap: usize,
    /// Total budget for reconnecting to a worker that dropped its link
    /// before it is evicted from the ring.
    pub reconnect_budget: Duration,
    /// Per-message I/O timeout on worker links; a worker silent for this
    /// long is treated as dead.
    pub io_timeout: Duration,
    /// Broadcast [`WireMsg::Shutdown`] to live workers when the router
    /// thread exits.
    pub shutdown_workers: bool,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            workers: Vec::new(),
            shards: 0,
            threads: 1,
            store_dir: String::new(),
            opts: BpOptions::default(),
            cache_cap: 256,
            reconnect_budget: Duration::from_secs(2),
            io_timeout: Duration::from_secs(120),
            shutdown_workers: true,
        }
    }
}

/// One graph's distributed state on the router.
struct DistGraph {
    spec: String,
    seed: u64,
    store_key: u128,
    meta: ShardedMeta,
    /// Per-node packed offsets into the assembled belief array.
    global_off: Vec<usize>,
    /// Copy lists re-based to contiguous wire payloads, shipped to the
    /// workers in `LoadShard` (the router gathers/scatters with the
    /// original frontier-indexed lists in `meta`).
    wire_imports: Vec<Vec<ShardCopy>>,
    wire_exports: Vec<Vec<ShardCopy>>,
    /// The persistent frontier plus, per shard, the halo entries its
    /// worker has not seen yet and the ones whose readers must queue.
    frontier: FrontierSync,
    /// Posteriors as of the last collect; workers ship only the nodes
    /// that moved since.
    mirror: Arc<Vec<f32>>,
    /// Shard `k` lives on worker `assignment[k]`; empty until placed.
    assignment: Vec<String>,
    loaded: Vec<bool>,
    /// Absolute evidence the workers currently have pinned.
    evidence: BTreeMap<u32, u32>,
    /// Next run must reset to priors (recovery, placement change).
    needs_reset: bool,
    cache: PosteriorCache,
}

/// A worker interaction failure, attributed so the router knows which
/// link to recycle.
enum RunError {
    /// Too few live workers to place or run the graph.
    Unavailable(String),
    /// I/O or protocol failure on one worker link.
    Worker {
        /// The failing worker's address.
        addr: String,
        /// What went wrong.
        message: String,
    },
}

struct RunResult {
    iterations: u32,
    converged: bool,
    beliefs: Arc<Vec<f32>>,
    reset: bool,
}

/// Re-bases frontier-indexed copy lists to contiguous payloads: copy
/// order is preserved, `frontier_off` becomes the running prefix.
fn rebase_all(lists: &[Vec<ShardCopy>]) -> Vec<Vec<ShardCopy>> {
    lists
        .iter()
        .map(|copies| {
            let mut off = 0u32;
            copies
                .iter()
                .map(|c| {
                    let r = ShardCopy {
                        frontier_off: off,
                        ..*c
                    };
                    off += u32::from(c.card);
                    r
                })
                .collect()
        })
        .collect()
}

/// Writes one collected shard region into the posterior mirror: the
/// whole `[lo, hi)` region when `full`, otherwise the beliefs of the
/// local `nodes`. Out-of-range ids or a length mismatch are rejected
/// before anything is written.
fn apply_beliefs(
    global_off: &[usize],
    lo: u32,
    hi: u32,
    mirror: &mut [f32],
    full: bool,
    nodes: &[u32],
    packed: &[f32],
) -> Result<(), String> {
    let at = |v: u32| global_off[(lo + v) as usize];
    if full {
        let (from, to) = (global_off[lo as usize], global_off[hi as usize]);
        if packed.len() != to - from {
            return Err(format!(
                "region of {} floats, shard packs {}",
                packed.len(),
                to - from
            ));
        }
        mirror[from..to].copy_from_slice(packed);
        return Ok(());
    }
    let owned = hi - lo;
    let mut need = 0usize;
    for &v in nodes {
        if v >= owned {
            return Err(format!("node {v} out of range: the shard owns {owned}"));
        }
        need += at(v + 1) - at(v);
    }
    if need != packed.len() {
        return Err(format!(
            "{} belief floats for nodes needing {need}",
            packed.len()
        ));
    }
    let mut from = 0usize;
    for &v in nodes {
        let (a, b) = (at(v), at(v + 1));
        mirror[a..b].copy_from_slice(&packed[from..from + b - a]);
        from += b - a;
    }
    Ok(())
}

/// Places `k` shards of `id` on distinct live workers: shard `j` prefers
/// `ring.node_for("id/j")`, probing `"id/j@1"`, `"id/j@2"`, … past
/// already-used workers (bounded, with a deterministic first-unused
/// fallback).
fn place(ring: &HashRing, id: &str, k: usize) -> Result<Vec<String>, RunError> {
    if ring.len() < k {
        return Err(RunError::Unavailable(format!(
            "{} live workers cannot hold {k} shards of {id:?} (one shard per worker per graph)",
            ring.len()
        )));
    }
    let mut used: Vec<String> = Vec::with_capacity(k);
    for shard in 0..k {
        let base = format!("{id}/{shard}");
        let mut pick = ring.node_for(&base).expect("ring is non-empty").to_string();
        let mut probe = 0usize;
        while used.contains(&pick) {
            probe += 1;
            if probe > 64 * (k + 1) {
                pick = ring
                    .members()
                    .find(|m| !used.iter().any(|u| u.as_str() == *m))
                    .expect("ring.len() >= k")
                    .to_string();
                break;
            }
            pick = ring
                .node_for(&format!("{base}@{probe}"))
                .expect("ring is non-empty")
                .to_string();
        }
        used.push(pick);
    }
    Ok(used)
}

fn connect(addr: &str, budget: Duration, io_timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + budget;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                s.set_read_timeout(Some(io_timeout)).ok();
                s.set_write_timeout(Some(io_timeout)).ok();
                return Ok(s);
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn send_to(
    links: &mut HashMap<String, TcpStream>,
    addr: &str,
    msg: &WireMsg,
) -> Result<(), RunError> {
    let Some(stream) = links.get_mut(addr) else {
        return Err(RunError::Worker {
            addr: addr.to_string(),
            message: "no live link".into(),
        });
    };
    write_msg(stream, msg).map_err(|e| RunError::Worker {
        addr: addr.to_string(),
        message: e.to_string(),
    })
}

fn recv_from(links: &mut HashMap<String, TcpStream>, addr: &str) -> Result<WireMsg, RunError> {
    let Some(stream) = links.get_mut(addr) else {
        return Err(RunError::Worker {
            addr: addr.to_string(),
            message: "no live link".into(),
        });
    };
    match read_msg(stream) {
        Ok(Some(msg)) => Ok(msg),
        Ok(None) => Err(RunError::Worker {
            addr: addr.to_string(),
            message: "worker closed the link".into(),
        }),
        Err(e) => Err(RunError::Worker {
            addr: addr.to_string(),
            message: e.to_string(),
        }),
    }
}

fn send_frame(
    links: &mut HashMap<String, TcpStream>,
    addr: &str,
    payload: &[u8],
) -> Result<(), RunError> {
    let Some(stream) = links.get_mut(addr) else {
        return Err(RunError::Worker {
            addr: addr.to_string(),
            message: "no live link".into(),
        });
    };
    write_frame(stream, payload).map_err(|e| RunError::Worker {
        addr: addr.to_string(),
        message: e.to_string(),
    })
}

/// A reply whose sparse entries do not fit the shard.
fn desync(addr: &str, message: String) -> RunError {
    RunError::Worker {
        addr: addr.to_string(),
        message: format!("desync: {message}"),
    }
}

/// A reply of the wrong kind (or for the wrong run or shard).
fn unexpected(addr: &str, request: &str, reply: WireMsg) -> RunError {
    let message = match reply {
        WireMsg::Error { code, message } => format!("{code}: {message}"),
        other => format!("{request} answered with {other:?}"),
    };
    RunError::Worker {
        addr: addr.to_string(),
        message,
    }
}

/// The distributed router: compiles each graph's sharded plan once,
/// places shards on workers through the hash ring, and drives the
/// per-sweep boundary exchange. `infer` is deliberately `&mut self` —
/// one router thread serializes runs, which is what makes the shard-order
/// `f32` convergence fold (and therefore the posteriors) deterministic.
pub struct DistRouter {
    cfg: DistConfig,
    ring: HashRing,
    links: HashMap<String, TcpStream>,
    ever_linked: HashSet<String>,
    graphs: HashMap<String, DistGraph>,
    metrics: Arc<Metrics>,
    trace: Dispatch,
    run_counter: u64,
}

impl DistRouter {
    /// A router over `cfg.workers`; connections are made lazily.
    pub fn new(cfg: DistConfig) -> DistRouter {
        let mut ring = HashRing::new();
        for w in &cfg.workers {
            ring.add(w);
        }
        DistRouter {
            cfg,
            ring,
            links: HashMap::new(),
            ever_linked: HashSet::new(),
            graphs: HashMap::new(),
            metrics: Arc::new(Metrics::default()),
            trace: Dispatch::none(),
            run_counter: 0,
        }
    }

    /// Attaches a telemetry dispatch (frontier-exchange spans).
    pub fn set_trace(&mut self, trace: Dispatch) {
        self.trace = trace;
    }

    /// The router's shared metrics.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Current shard placement of `graph`, for diagnostics and tests.
    pub fn assignment(&self, graph: &str) -> Option<&[String]> {
        self.graphs.get(graph).map(|g| g.assignment.as_slice())
    }

    /// Loaded graph ids, sorted.
    pub fn graph_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.graphs.keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Compiles `graph` into the distributed plan: K shards, re-based
    /// wire copy lists, and (when a store is configured) persisted shard
    /// blobs so workers mmap instead of compiling. The shards themselves
    /// are dropped — the router keeps only the metadata.
    pub fn add_graph(
        &mut self,
        id: &str,
        spec: &str,
        seed: u64,
        graph: &BeliefGraph,
    ) -> Result<(), String> {
        let k = if self.cfg.shards == 0 {
            self.cfg.workers.len().max(1)
        } else {
            self.cfg.shards
        };
        let sx = ShardedExec::compile(graph, k);
        let key = SourceKey::from_spec(spec, seed).with(&format!("shards={k}"));
        if !self.cfg.store_dir.is_empty() {
            let store = PlanStore::open(self.cfg.store_dir.clone()).map_err(|e| e.to_string())?;
            store
                .save_sharded(key, spec, structural_hash(graph), &sx)
                .map_err(|e| e.to_string())?;
        }
        // The router keeps only the metadata: free the shards before
        // building the per-graph state, so the two never peak together.
        let ShardedExec { meta, shards } = sx;
        drop(shards);
        let mut global_off = Vec::with_capacity(meta.num_nodes + 1);
        let mut off = 0usize;
        for &c in &meta.cards {
            global_off.push(off);
            off += c as usize;
        }
        global_off.push(off);
        let (wire_imports, wire_exports) = (rebase_all(&meta.imports), rebase_all(&meta.exports));
        let shard_count = meta.num_shards();
        let frontier = FrontierSync::new(&meta);
        self.graphs.insert(
            id.to_string(),
            DistGraph {
                spec: spec.to_string(),
                seed,
                store_key: key.0,
                meta,
                global_off,
                wire_imports,
                wire_exports,
                frontier,
                mirror: Arc::new(vec![0.0; off]),
                assignment: Vec::new(),
                loaded: vec![false; shard_count],
                evidence: BTreeMap::new(),
                needs_reset: true,
                cache: PosteriorCache::new(self.cfg.cache_cap),
            },
        );
        Ok(())
    }

    /// Answers one infer request, retrying once after worker recovery.
    pub fn infer(&mut self, req: &Request) -> Response {
        let evidence = match req.canonical_evidence() {
            Ok(e) => e,
            Err(m) => {
                Metrics::inc(&self.metrics.bad_requests);
                return Response::err(ERR_BAD_REQUEST, m);
            }
        };
        {
            let Some(g) = self.graphs.get(&req.graph) else {
                Metrics::inc(&self.metrics.bad_requests);
                return Response::err(
                    ERR_UNKNOWN_GRAPH,
                    format!("graph {:?} is not loaded", req.graph),
                );
            };
            let n = g.meta.num_nodes as u32;
            for &(v, s) in &evidence {
                if v >= n {
                    Metrics::inc(&self.metrics.bad_requests);
                    return Response::err(ERR_BAD_REQUEST, format!("node {v} out of range"));
                }
                if s >= u32::from(g.meta.cards[v as usize]) {
                    Metrics::inc(&self.metrics.bad_requests);
                    return Response::err(
                        ERR_BAD_REQUEST,
                        format!("state {s} out of range for node {v}"),
                    );
                }
            }
            if let Some(&v) = req.nodes.iter().find(|&&v| v >= n) {
                Metrics::inc(&self.metrics.bad_requests);
                return Response::err(ERR_BAD_REQUEST, format!("node {v} out of range"));
            }
        }
        let key = evidence_key(&evidence);
        if !req.fresh {
            let g = self.graphs.get_mut(&req.graph).expect("checked above");
            if let Some(hit) = g.cache.get(&key) {
                Metrics::inc(&self.metrics.cache_hits);
                let mut resp = Response::ok();
                resp.converged = true;
                resp.cached = true;
                resp.posteriors = posteriors_for(&g.global_off, &hit, &req.nodes);
                return resp;
            }
        }
        Metrics::inc(&self.metrics.cache_misses);

        let mut attempt = 0;
        loop {
            match self.run_once(&req.graph, &evidence, req.fresh) {
                Ok(run) => {
                    Metrics::inc(&self.metrics.dist_runs);
                    if req.fresh {
                        Metrics::inc(&self.metrics.fresh_runs);
                    }
                    let beliefs = run.beliefs;
                    let g = self.graphs.get_mut(&req.graph).expect("checked above");
                    if run.converged && !req.fresh {
                        g.cache.put(key, Arc::clone(&beliefs));
                    }
                    let mut resp = Response::ok();
                    resp.converged = run.converged;
                    resp.warm = !run.reset;
                    resp.iterations = run.iterations;
                    resp.posteriors = posteriors_for(&g.global_off, &beliefs, &req.nodes);
                    return resp;
                }
                Err(RunError::Unavailable(m)) => {
                    return Response::err(ERR_UNAVAILABLE, m);
                }
                Err(RunError::Worker { addr, message }) => {
                    self.handle_failure(&addr);
                    attempt += 1;
                    if attempt > 1 {
                        return Response::err(
                            ERR_UNAVAILABLE,
                            format!("worker {addr} failed twice: {message}"),
                        );
                    }
                }
            }
        }
    }

    /// Drops a failed link and marks every shard placed on `addr` as
    /// needing a reload; the affected graphs restart cold so no
    /// partially-swept state can reach a client.
    fn handle_failure(&mut self, addr: &str) {
        self.links.remove(addr);
        for g in self.graphs.values_mut() {
            if g.assignment.iter().any(|a| a == addr) {
                for (k, a) in g.assignment.iter().enumerate() {
                    if a == addr {
                        g.loaded[k] = false;
                    }
                }
                g.needs_reset = true;
            }
        }
    }

    /// Connects, places and loads until every shard of `id` is resident
    /// on a live worker. Reconnects get `reconnect_budget`; a worker
    /// that stays unreachable is evicted from the ring and its shards
    /// re-placed.
    fn ensure_ready(&mut self, id: &str) -> Result<(), RunError> {
        let k = self.graphs[id].meta.num_shards();
        let mut attempts = 0usize;
        'outer: loop {
            attempts += 1;
            if attempts > 3 + self.cfg.workers.len() * 2 {
                return Err(RunError::Unavailable(format!(
                    "placement of {id:?} did not stabilize after {attempts} attempts"
                )));
            }
            // Try to revive evicted workers when we are short on ring
            // capacity (a restarted worker rejoins here).
            if self.ring.len() < k {
                for w in self.cfg.workers.clone() {
                    if !self.ring.contains(&w) {
                        if let Ok(s) = connect(&w, Duration::from_millis(200), self.cfg.io_timeout)
                        {
                            self.ring.add(&w);
                            if !self.ever_linked.insert(w.clone()) {
                                Metrics::inc(&self.metrics.worker_reconnects);
                            }
                            self.links.insert(w, s);
                        }
                    }
                }
            }
            {
                let g = &self.graphs[id];
                if g.assignment.len() != k || g.assignment.iter().any(|a| !self.ring.contains(a)) {
                    let placement = place(&self.ring, id, k)?;
                    let g = self.graphs.get_mut(id).expect("graph exists");
                    g.assignment = placement;
                    g.loaded = vec![false; k];
                    g.needs_reset = true;
                }
            }
            for j in 0..k {
                let addr = self.graphs[id].assignment[j].clone();
                if self.links.contains_key(&addr) {
                    continue;
                }
                match connect(&addr, self.cfg.reconnect_budget, self.cfg.io_timeout) {
                    Ok(s) => {
                        if !self.ever_linked.insert(addr.clone()) {
                            Metrics::inc(&self.metrics.worker_reconnects);
                        }
                        self.links.insert(addr, s);
                    }
                    Err(_) => {
                        self.ring.remove(&addr);
                        Metrics::inc(&self.metrics.workers_lost);
                        self.handle_failure(&addr);
                        continue 'outer;
                    }
                }
            }
            for j in 0..k {
                if self.graphs[id].loaded[j] {
                    continue;
                }
                let (addr, msg) = {
                    let g = &self.graphs[id];
                    (
                        g.assignment[j].clone(),
                        WireMsg::LoadShard {
                            graph: id.to_string(),
                            spec: g.spec.clone(),
                            seed: g.seed,
                            shards: k as u32,
                            index: j as u32,
                            store_dir: self.cfg.store_dir.clone(),
                            store_key: g.store_key,
                            threads: self.cfg.threads,
                            imports: g.wire_imports[j].clone(),
                            exports: g.wire_exports[j].clone(),
                        },
                    )
                };
                let shipped = send_to(&mut self.links, &addr, &msg)
                    .and_then(|()| recv_from(&mut self.links, &addr));
                match shipped {
                    Ok(WireMsg::ShardReady { index, .. }) if index == j as u32 => {
                        self.graphs.get_mut(id).expect("graph exists").loaded[j] = true;
                        Metrics::inc(&self.metrics.shard_reloads);
                    }
                    Ok(other) => {
                        return Err(RunError::Worker {
                            addr,
                            message: format!("LoadShard answered with {other:?}"),
                        });
                    }
                    Err(_) => {
                        self.handle_failure(&addr);
                        continue 'outer;
                    }
                }
            }
            return Ok(());
        }
    }

    /// One distributed run: RunStart fan-out, boundary-exchange sweeps
    /// to convergence, collection of the moved posteriors.
    ///
    /// Every run follows the same [`SweepSchedule`] as
    /// `ShardedSession::run` and ships only the halo entries that moved
    /// (after a reset, every entry once). A cold run (reset) sweeps the
    /// full schedule; a warm run first sweeps the changed-evidence queue
    /// (shards with nothing queued and nothing woken are skipped), then
    /// full sweeps until one certifies convergence. The convergence sum
    /// is a running `f32` fold over each shard's ascending-id non-zero
    /// diffs in shard order. The dropped zeros would add nothing, so this
    /// is the identical fold the session computes, and iteration counts
    /// and posteriors match it bit for bit.
    // `j` indexes the parallel per-shard arrays (assignment, active,
    // queued, swept); iterator zips would obscure the shard-order
    // send-all/receive-all structure the bit-exactness fold depends on.
    #[allow(clippy::needless_range_loop)]
    fn run_once(
        &mut self,
        id: &str,
        evidence: &[(u32, u32)],
        fresh: bool,
    ) -> Result<RunResult, RunError> {
        self.ensure_ready(id)?;
        self.run_counter += 1;
        let run_id = self.run_counter;

        let g = self.graphs.get_mut(id).expect("graph exists");
        let links = &mut self.links;
        let trace = &self.trace;
        let metrics = &self.metrics;
        let opts = &self.cfg.opts;
        let k = g.meta.num_shards();
        let reset = g.needs_reset || fresh;
        let target: BTreeMap<u32, u32> = evidence.iter().copied().collect();
        let (observe, clear) = if reset {
            // Cold start: the full absolute evidence against priors.
            (evidence.to_vec(), Vec::new())
        } else {
            (
                target
                    .iter()
                    .filter(|(v, s)| g.evidence.get(v) != Some(s))
                    .map(|(&v, &s)| (v, s))
                    .collect(),
                g.evidence
                    .keys()
                    .filter(|v| !target.contains_key(v))
                    .copied()
                    .collect(),
            )
        };

        let run_span = trace.span(
            "dist_run",
            &[("shards", (k as u64).into()), ("run_id", run_id.into())],
        );
        // The same message goes to every shard: encode it once.
        let start = WireMsg::RunStart {
            graph: id.to_string(),
            run_id,
            reset,
            observe,
            clear,
            queue_threshold: opts.queue_threshold,
        }
        .encode();
        for j in 0..k {
            send_frame(links, &g.assignment[j], &start)?;
        }
        let mut active = vec![0u64; k];
        let mut queued = vec![0u64; k];
        for j in 0..k {
            let addr = &g.assignment[j];
            match recv_from(links, addr)? {
                WireMsg::RunReady {
                    run_id: r,
                    index,
                    active: a,
                    queued: q,
                    slots,
                    exports,
                    ..
                } if r == run_id && index == j as u32 => {
                    g.frontier
                        .publish(j, &slots, &exports)
                        .map_err(|e| desync(addr, e))?;
                    active[j] = a;
                    queued[j] = q;
                }
                other => return Err(unexpected(addr, "RunStart", other)),
            }
        }
        if reset {
            // Reset or reloaded workers hold stale halo slots.
            g.frontier.resync();
        }

        let any_queued = |queued: &[u64], frontier: &FrontierSync| {
            queued.iter().any(|&q| q > 0) || frontier.any_wakes()
        };
        let mut schedule = SweepSchedule::new(opts, !reset && any_queued(&queued, &g.frontier));
        let total_active: u64 = active.iter().sum();
        let mut swept = vec![false; k];
        let (mut slots, mut halo) = (Vec::new(), Vec::new());
        let mut sweep_no = 0u32;
        loop {
            if total_active == 0 {
                schedule.mark_converged();
                break;
            }
            let phase = schedule.phase();
            let sweep_span = trace.span(
                "frontier_exchange",
                &[
                    ("sweep", u64::from(sweep_no).into()),
                    ("phase", phase.name().into()),
                    ("frontier", (g.meta.frontier_len() as u64).into()),
                ],
            );
            // Send every shard's halo before receiving any result:
            // worker sweeps run in parallel across processes.
            for j in 0..k {
                swept[j] = match phase {
                    SweepPhase::Full => active[j] > 0,
                    SweepPhase::Queue => queued[j] > 0 || g.frontier.has_wakes(j),
                };
                if !swept[j] {
                    continue;
                }
                g.frontier.take_halo(j, &mut slots, &mut halo);
                let msg = WireMsg::SparseSweep {
                    graph: id.to_string(),
                    run_id,
                    sweep: sweep_no,
                    full: phase == SweepPhase::Full,
                    slots: std::mem::take(&mut slots),
                    halo: std::mem::take(&mut halo),
                };
                send_to(links, &g.assignment[j], &msg)?;
            }
            let (mut sum, mut nodes) = (0.0f32, 0u64);
            for j in 0..k {
                if !swept[j] {
                    continue;
                }
                let addr = &g.assignment[j];
                let (diffs, computed, q) = match recv_from(links, addr)? {
                    WireMsg::SparseSweepDone {
                        run_id: r,
                        sweep: s,
                        index,
                        slots,
                        exports,
                        diffs,
                        computed,
                        queued: q,
                        ..
                    } if r == run_id && s == sweep_no && index == j as u32 => {
                        g.frontier
                            .publish(j, &slots, &exports)
                            .map_err(|e| desync(addr, e))?;
                        (diffs, computed, q)
                    }
                    other => return Err(unexpected(addr, "Sweep", other)),
                };
                if computed > active[j]
                    || (phase == SweepPhase::Full && computed != active[j])
                    || diffs.len() as u64 > computed
                {
                    return Err(desync(
                        addr,
                        format!(
                            "{} diffs of {computed} computed nodes from a shard with {} active nodes",
                            diffs.len(),
                            active[j]
                        ),
                    ));
                }
                queued[j] = q;
                for &d in &diffs {
                    sum += d;
                }
                nodes += computed;
            }
            sweep_no += 1;
            Metrics::inc(&metrics.dist_sweeps);
            Metrics::add(&metrics.dist_node_updates, nodes);
            if phase == SweepPhase::Full {
                Metrics::inc(&metrics.dist_full_sweeps);
            }
            if trace.enabled() {
                sweep_span.record(&[("delta", sum.into()), ("nodes", nodes.into())]);
            }
            drop(sweep_span);
            if !schedule.record(sum, any_queued(&queued, &g.frontier)) {
                break;
            }
        }
        g.frontier.clear_wakes();

        let collect = WireMsg::Collect {
            graph: id.to_string(),
            run_id,
        }
        .encode();
        for j in 0..k {
            send_frame(links, &g.assignment[j], &collect)?;
        }
        let mirror = Arc::make_mut(&mut g.mirror);
        for j in 0..k {
            let addr = &g.assignment[j];
            match recv_from(links, addr)? {
                WireMsg::Beliefs {
                    run_id: r,
                    index,
                    full,
                    nodes,
                    packed,
                    ..
                } if r == run_id && index == j as u32 => {
                    if reset && !full {
                        return Err(desync(addr, "partial beliefs after a reset".into()));
                    }
                    let (lo, hi) = g.meta.ranges[j];
                    apply_beliefs(&g.global_off, lo, hi, mirror, full, &nodes, &packed)
                        .map_err(|e| desync(addr, e))?;
                }
                other => return Err(unexpected(addr, "Collect", other)),
            }
        }
        let tracker = schedule.tracker();
        if trace.enabled() {
            run_span.record(&[
                ("iterations", tracker.iterations().into()),
                ("converged", tracker.converged().into()),
                ("full_sweeps", schedule.full_sweeps().into()),
            ]);
        }
        drop(run_span);

        g.evidence = target;
        g.needs_reset = false;
        Ok(RunResult {
            iterations: tracker.iterations(),
            converged: tracker.converged(),
            beliefs: Arc::clone(&g.mirror),
            reset,
        })
    }

    /// Broadcasts [`WireMsg::Shutdown`] to every live worker link.
    pub fn shutdown_workers(&mut self) {
        for (_, mut stream) in self.links.drain() {
            let _ = write_msg(&mut stream, &WireMsg::Shutdown);
        }
    }

    #[cfg(test)]
    fn break_link(&mut self, addr: &str) {
        if let Some(s) = self.links.get(addr) {
            s.shutdown(std::net::Shutdown::Both).ok();
        }
    }
}

fn posteriors_for(global_off: &[usize], packed: &[f32], nodes: &[u32]) -> Vec<(u32, Vec<f32>)> {
    let all: Vec<u32>;
    let wanted: &[u32] = if nodes.is_empty() {
        all = (0..global_off.len() as u32 - 1).collect();
        &all
    } else {
        nodes
    };
    wanted
        .iter()
        .map(|&v| {
            (
                v,
                packed[global_off[v as usize]..global_off[v as usize + 1]].to_vec(),
            )
        })
        .collect()
}

/// One queued client request on its way to the router thread.
pub struct RouterJob {
    /// The parsed request.
    pub req: Request,
    /// Where the answer goes (reactor completion or in-process channel).
    pub reply: ReplySink,
    /// Absolute deadline; expired jobs are answered with `ERR_DEADLINE`
    /// without touching the workers.
    pub deadline: Instant,
}

/// The reactor-facing front of a [`DistRouter`]: control ops answer
/// inline on the reactor thread, infer jobs queue to the single router
/// thread (whose `&mut` serialization keeps runs deterministic).
pub struct RouterFront {
    tx: Mutex<mpsc::Sender<RouterJob>>,
    metrics: Arc<Metrics>,
    shutdown: AtomicBool,
    default_deadline: Duration,
}

impl RouterFront {
    /// A front sending jobs into `tx`, sharing the router's `metrics`.
    pub fn new(
        tx: mpsc::Sender<RouterJob>,
        metrics: Arc<Metrics>,
        default_deadline: Duration,
    ) -> RouterFront {
        RouterFront {
            tx: Mutex::new(tx),
            metrics,
            shutdown: AtomicBool::new(false),
            default_deadline,
        }
    }
}

impl ReactorHandler for RouterFront {
    fn handle(&self, req: Request, reply: ReplySink) {
        match req.op.as_str() {
            OP_PING => reply.send(Response::ok()),
            OP_STATS => {
                let mut resp = Response::ok();
                resp.stats_json = serde_json::to_string(&self.metrics.snapshot())
                    .unwrap_or_else(|_| "{}".to_string());
                reply.send(resp);
            }
            OP_SHUTDOWN => {
                self.shutdown.store(true, Ordering::SeqCst);
                reply.send(Response::ok());
            }
            OP_INFER => {
                let deadline = Instant::now()
                    + if req.deadline_ms == 0 {
                        self.default_deadline
                    } else {
                        Duration::from_millis(req.deadline_ms)
                    };
                Metrics::inc(&self.metrics.enqueued);
                let sent = self.tx.lock().expect("router front lock").send(RouterJob {
                    req,
                    reply,
                    deadline,
                });
                if let Err(mpsc::SendError(job)) = sent {
                    job.reply
                        .send(Response::err(ERR_UNAVAILABLE, "router thread exited"));
                }
            }
            other => {
                Metrics::inc(&self.metrics.bad_requests);
                reply.send(Response::err(
                    ERR_BAD_REQUEST,
                    format!("unknown op {other:?}"),
                ));
            }
        }
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

/// Drains the job queue on the (single) router thread until every
/// sender is gone, then optionally shuts the workers down.
pub fn run_router_thread(mut router: DistRouter, rx: mpsc::Receiver<RouterJob>) {
    let metrics = router.metrics();
    while let Ok(job) = rx.recv() {
        if Instant::now() > job.deadline {
            Metrics::inc(&metrics.deadline_exceeded);
            job.reply
                .send(Response::err(ERR_DEADLINE, "deadline expired in queue"));
            continue;
        }
        let resp = router.infer(&job.req);
        job.reply.send(resp);
    }
    if router.cfg.shutdown_workers {
        router.shutdown_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::run_worker;
    use credo_core::{BpEngine, ShardedEngine};
    use credo_graph::generators::{synthetic, GenOptions};
    use std::net::TcpListener;

    fn spawn_worker(graph: BeliefGraph) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
        let addr = listener.local_addr().expect("worker addr").to_string();
        std::thread::spawn(move || {
            let builder = move |_spec: &str, _seed: u64| Ok(graph.clone());
            run_worker(listener, 1, &builder).expect("worker serve loop");
        });
        addr
    }

    fn test_graph() -> BeliefGraph {
        synthetic(80, 320, &GenOptions::new(2).with_seed(33))
    }

    fn reference_posteriors(evidence: &[(u32, u32)], shards: usize) -> Vec<(u32, Vec<f32>)> {
        let mut g = test_graph();
        for &(v, s) in evidence {
            g.observe(v, s as usize);
        }
        ShardedEngine::new(shards)
            .run(&mut g, &BpOptions::default())
            .unwrap();
        g.beliefs()
            .iter()
            .enumerate()
            .map(|(v, b)| (v as u32, b.as_slice().to_vec()))
            .collect()
    }

    fn assert_bitwise(got: &[(u32, Vec<f32>)], want: &[(u32, Vec<f32>)]) {
        assert_eq!(got.len(), want.len());
        for ((gv, gb), (wv, wb)) in got.iter().zip(want) {
            assert_eq!(gv, wv);
            assert_eq!(gb.len(), wb.len(), "node {gv}");
            for (x, y) in gb.iter().zip(wb) {
                assert_eq!(x.to_bits(), y.to_bits(), "node {gv}");
            }
        }
    }

    fn router_for(workers: Vec<String>, shards: usize) -> DistRouter {
        let cfg = DistConfig {
            workers,
            shards,
            threads: 1,
            reconnect_budget: Duration::from_millis(300),
            io_timeout: Duration::from_secs(10),
            ..DistConfig::default()
        };
        let mut router = DistRouter::new(cfg);
        router
            .add_graph("g", "test", 33, &test_graph())
            .expect("add graph");
        router
    }

    #[test]
    fn distributed_posteriors_are_bitwise_identical_to_sharded_engine() {
        let workers: Vec<String> = (0..2).map(|_| spawn_worker(test_graph())).collect();
        let mut router = router_for(workers, 2);

        let evidence = [(5u32, 1u32), (41, 0)];
        let resp = router.infer(&Request::infer("g", &evidence));
        assert!(resp.ok, "{}: {}", resp.error, resp.message);
        assert!(resp.converged);
        assert_bitwise(&resp.posteriors, &reference_posteriors(&evidence, 2));

        // Same evidence again: answered by the posterior cache.
        let resp2 = router.infer(&Request::infer("g", &evidence));
        assert!(resp2.cached);
        assert_bitwise(&resp2.posteriors, &resp.posteriors);

        // Fresh probe: bypasses the cache, identical bits (determinism).
        let mut freq = Request::infer("g", &evidence);
        freq.fresh = true;
        let resp3 = router.infer(&freq);
        assert!(resp3.ok && !resp3.cached);
        assert_bitwise(&resp3.posteriors, &resp.posteriors);
        router.shutdown_workers();
    }

    #[test]
    fn warm_delta_matches_single_process_session() {
        use credo_core::ShardedSession;
        let workers: Vec<String> = (0..2).map(|_| spawn_worker(test_graph())).collect();
        let cfg = DistConfig {
            workers,
            shards: 2,
            cache_cap: 0,
            reconnect_budget: Duration::from_millis(300),
            io_timeout: Duration::from_secs(10),
            ..DistConfig::default()
        };
        let mut router = DistRouter::new(cfg);
        router
            .add_graph("g", "test", 33, &test_graph())
            .expect("add graph");

        // A multi-request stream — observe, clear, repeat an earlier set —
        // mirrored by the in-process session delta by delta: same
        // iterations, same bits, every request.
        let stream: [&[(u32, u32)]; 6] = [
            &[(5, 1)],
            &[(5, 1), (60, 0)],
            &[(60, 0), (12, 1), (33, 0)],
            &[(5, 1)],
            &[(5, 0), (70, 1), (71, 1)],
            &[(60, 0), (12, 1), (33, 0)],
        ];
        let g = test_graph();
        let mut sx = ShardedExec::compile(&g, 2);
        let mut session = ShardedSession::new(&mut sx, 1).unwrap();
        let opts = BpOptions::default();
        let trace = Dispatch::none();
        for (i, ev) in stream.iter().enumerate() {
            let resp = router.infer(&Request::infer("g", ev));
            assert!(resp.ok && resp.converged, "request {i}: {}", resp.message);
            assert_eq!(resp.warm, i > 0, "request {i}");

            let target: BTreeMap<u32, u32> = ev.iter().copied().collect();
            let observe: Vec<(u32, u32)> = target
                .iter()
                .filter(|(v, s)| session.evidence().get(v) != Some(s))
                .map(|(&v, &s)| (v, s))
                .collect();
            let clear: Vec<u32> = session
                .evidence()
                .keys()
                .filter(|v| !target.contains_key(v))
                .copied()
                .collect();
            session.apply_evidence(&mut sx, &observe, &clear).unwrap();
            let stats = session.run("ref", &mut sx, &opts, &trace).unwrap();
            assert_eq!(resp.iterations, stats.iterations, "request {i}");
            let packed = session.beliefs();
            let want: Vec<(u32, Vec<f32>)> = (0..g.num_nodes() as u32)
                .map(|v| (v, session.node_slice(&packed, v).to_vec()))
                .collect();
            assert_bitwise(&resp.posteriors, &want);
        }
        let snap = router.metrics().snapshot();
        assert!(
            snap.dist_full_sweeps < snap.dist_sweeps,
            "no queue sweep ran"
        );
        assert!(snap.dist_node_updates > 0);
        router.shutdown_workers();
    }

    /// A scripted worker for one single-shard graph: answers `LoadShard`
    /// and `RunStart` like a real one, but its `RunReady` and `Beliefs`
    /// come from `reply(run, msg)` (run counts from 1 across links).
    fn spawn_scripted_worker(reply: fn(u64, &WireMsg) -> Option<WireMsg>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
        let addr = listener.local_addr().expect("worker addr").to_string();
        std::thread::spawn(move || {
            let mut runs = 0u64;
            for conn in listener.incoming() {
                let Ok(mut s) = conn else { continue };
                while let Ok(Some(msg)) = read_msg(&mut s) {
                    if let WireMsg::RunStart { .. } = msg {
                        runs += 1;
                    }
                    let out = match &msg {
                        WireMsg::Shutdown => return,
                        WireMsg::LoadShard { index, .. } => WireMsg::ShardReady {
                            graph: "g".into(),
                            index: *index,
                            local_nodes: 80,
                            from_store: false,
                        },
                        other => match reply(runs, other) {
                            Some(m) => m,
                            None => return,
                        },
                    };
                    if write_msg(&mut s, &out).is_err() {
                        break;
                    }
                }
            }
        });
        addr
    }

    fn run_ready(run_id: u64, slots: Vec<u32>, exports: Vec<f32>) -> WireMsg {
        WireMsg::RunReady {
            graph: "g".into(),
            run_id,
            index: 0,
            active: 0,
            queued: 0,
            slots,
            exports,
        }
    }

    #[test]
    fn out_of_range_sparse_entries_are_a_desync_not_a_panic() {
        // An export index past the shard's export list.
        let bad_export = spawn_scripted_worker(|_, msg| match msg {
            WireMsg::RunStart { run_id, .. } => Some(run_ready(*run_id, vec![7], vec![0.5, 0.5])),
            _ => None,
        });
        let mut router = router_for(vec![bad_export], 1);
        let resp = router.infer(&Request::infer("g", &[(3, 1)]));
        assert!(!resp.ok);
        assert_eq!(resp.error, ERR_UNAVAILABLE);
        assert!(resp.message.contains("desync"), "{}", resp.message);
        router.shutdown_workers();

        // A collected node id past the shard's range, on a warm run (the
        // cold first run collects the whole region).
        let bad_node = spawn_scripted_worker(|run, msg| match msg {
            WireMsg::RunStart { run_id, .. } => Some(run_ready(*run_id, vec![], vec![])),
            WireMsg::Collect { run_id, .. } => Some(WireMsg::Beliefs {
                graph: "g".into(),
                run_id: *run_id,
                index: 0,
                full: run == 1,
                nodes: if run == 1 { vec![] } else { vec![80] },
                packed: vec![0.5; if run == 1 { 160 } else { 2 }],
            }),
            _ => None,
        });
        let mut router = router_for(vec![bad_node], 1);
        let first = router.infer(&Request::infer("g", &[(3, 1)]));
        assert!(first.ok, "{}", first.message);
        let resp = router.infer(&Request::infer("g", &[(4, 1)]));
        assert!(!resp.ok);
        assert!(resp.message.contains("desync"), "{}", resp.message);
        router.shutdown_workers();
    }

    #[test]
    fn broken_link_recovers_with_a_cold_rerun() {
        let workers: Vec<String> = (0..2).map(|_| spawn_worker(test_graph())).collect();
        let mut router = router_for(workers, 2);

        let ev1 = [(7u32, 0u32)];
        let r1 = router.infer(&Request::infer("g", &ev1));
        assert!(r1.ok, "{}: {}", r1.error, r1.message);
        let victim = router.assignment("g").unwrap()[0].clone();
        router.break_link(&victim);

        // Different evidence so the cache cannot answer: the first
        // attempt fails on the dead link, recovery reconnects, reloads
        // and resets cold — the answer must still be exact.
        let ev2 = [(7u32, 0u32), (30, 1)];
        let r2 = router.infer(&Request::infer("g", &ev2));
        assert!(r2.ok, "{}: {}", r2.error, r2.message);
        assert!(!r2.warm, "recovered run must be cold");
        assert_bitwise(&r2.posteriors, &reference_posteriors(&ev2, 2));
        assert!(router.metrics().snapshot().worker_reconnects >= 1);
        router.shutdown_workers();
    }

    #[test]
    fn too_few_workers_degrades_to_unavailable() {
        let worker = spawn_worker(test_graph());
        let mut router = router_for(vec![worker], 2);
        let resp = router.infer(&Request::infer("g", &[(3, 1)]));
        assert!(!resp.ok);
        assert_eq!(resp.error, ERR_UNAVAILABLE);
        router.shutdown_workers();
    }
}
