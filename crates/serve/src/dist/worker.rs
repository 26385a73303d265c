//! The shard-worker serve loop: one process, one `ExecShard` per graph.

use credo_core::{sweep_shard, ShardState, SweepPhase, SweepReport};
use credo_graph::{BeliefGraph, ExecShard, ShardedExec};
use credo_net::{read_msg, write_msg, WireMsg};
use credo_store::{PlanStore, SourceKey};
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};

/// Builds a [`BeliefGraph`] from a generator spec and seed — the
/// worker's fallback when the plan store has no shard blob to mmap. The
/// CLI passes its `load_graph`; tests pass a closure returning a clone.
pub type GraphBuilder = dyn Fn(&str, u64) -> Result<BeliefGraph, String> + Send + Sync;

/// One loaded shard plus its persistent sweep state. Halo entries
/// arrive by import index (= halo slot) and exports leave by export
/// index, so no frontier array exists on the worker.
struct WorkerShard {
    shard: ExecShard,
    index: u32,
    state: ShardState,
    run_id: u64,
    /// The current run's queue threshold (from `RunStart`).
    queue_threshold: f32,
}

struct Worker<'a> {
    builder: &'a GraphBuilder,
    pool: credo_core::par::WorkerPool,
    threads: usize,
    shards: HashMap<String, WorkerShard>,
}

fn desync(message: String) -> WireMsg {
    WireMsg::Error {
        code: "desync".into(),
        message,
    }
}

impl Worker<'_> {
    fn load_shard(&mut self, msg: &WireMsg) -> WireMsg {
        let WireMsg::LoadShard {
            graph,
            spec,
            seed,
            shards,
            index,
            store_dir,
            store_key,
            threads: _,
            imports,
            exports,
        } = msg
        else {
            unreachable!("dispatched on variant");
        };
        // Store path first: mmap exactly this worker's blob.
        let mut loaded: Option<(ExecShard, bool)> = None;
        if !store_dir.is_empty() {
            if let Ok(store) = PlanStore::open(store_dir.clone()) {
                if let Ok(Some((shard, _meta))) =
                    store.load_sharded_shard(&SourceKey(*store_key), *index as usize)
                {
                    loaded = Some((shard, true));
                }
            }
        }
        // Fallback: rebuild the graph and compile the full partition,
        // keeping only the owned slice (correct, just not mmap-cheap).
        let (shard, from_store) = match loaded {
            Some(l) => l,
            None => {
                let g = match (self.builder)(spec, *seed) {
                    Ok(g) => g,
                    Err(e) => {
                        return WireMsg::Error {
                            code: "bad_request".into(),
                            message: format!("cannot build graph from spec {spec:?}: {e}"),
                        }
                    }
                };
                let mut sx = ShardedExec::compile(&g, *shards as usize);
                if (*index as usize) >= sx.shards.len() {
                    return WireMsg::Error {
                        code: "bad_request".into(),
                        message: format!("shard {index} of {} requested", sx.shards.len()),
                    };
                }
                (sx.shards.swap_remove(*index as usize), false)
            }
        };
        if imports.len() != shard.halo.len() {
            return WireMsg::Error {
                code: "bad_request".into(),
                message: format!(
                    "{} imports for a shard with {} halo slots",
                    imports.len(),
                    shard.halo.len()
                ),
            };
        }
        let state = match ShardState::with_queue(&shard, exports) {
            Ok(st) => st,
            Err(e) => {
                return WireMsg::Error {
                    code: "bad_request".into(),
                    message: e.to_string(),
                }
            }
        };
        let local_nodes = shard.local_nodes() as u64;
        self.shards.insert(
            graph.clone(),
            WorkerShard {
                index: *index,
                shard,
                state,
                run_id: 0,
                queue_threshold: 0.0,
            },
        );
        WireMsg::ShardReady {
            graph: graph.clone(),
            index: *index,
            local_nodes,
            from_store,
        }
    }

    fn run_start(
        &mut self,
        graph: &str,
        run_id: u64,
        reset: bool,
        observe: &[(u32, u32)],
        clear: &[u32],
        queue_threshold: f32,
    ) -> WireMsg {
        let Some(ws) = self.shards.get_mut(graph) else {
            return unknown_graph(graph);
        };
        if reset {
            ws.state.reset(&ws.shard);
        }
        if let Err(e) = ws.state.apply_evidence(&ws.shard, observe, clear) {
            return WireMsg::Error {
                code: "bad_request".into(),
                message: e.to_string(),
            };
        }
        ws.run_id = run_id;
        ws.queue_threshold = queue_threshold;
        let (mut slots, mut exports) = (Vec::new(), Vec::new());
        ws.state
            .take_exports(&ws.shard, reset, &mut slots, &mut exports);
        WireMsg::RunReady {
            graph: graph.to_string(),
            run_id,
            index: ws.index,
            active: ws.state.active.len() as u64,
            queued: ws.state.queued() as u64,
            slots,
            exports,
        }
    }

    /// One sweep: sparse halo entries in, moved exports out. `full`
    /// sweeps every active node, otherwise only the queue.
    fn sparse_sweep(
        &mut self,
        graph: &str,
        run_id: u64,
        sweep: u32,
        full: bool,
        slots: &[u32],
        halo: &[f32],
    ) -> WireMsg {
        let (pool, threads) = (&self.pool, self.threads);
        let ws = match shard_on(&mut self.shards, graph, run_id, "sweep") {
            Ok(ws) => ws,
            Err(reply) => return *reply,
        };
        let qt = ws.queue_threshold;
        if let Err(e) = ws.state.apply_halo(&ws.shard, slots, halo) {
            return desync(e);
        }
        let phase = if full {
            SweepPhase::Full
        } else {
            SweepPhase::Queue
        };
        let mut report = SweepReport::default();
        sweep_shard(
            &ws.shard,
            &mut ws.state,
            phase,
            qt,
            pool,
            threads,
            &mut report,
        );
        let mut exports = Vec::new();
        ws.state
            .export_values(&ws.shard, &report.exports, &mut exports);
        // A zero diff adds nothing to the router's non-negative fold, so
        // only the non-zero ones travel, in order, beside the count.
        let computed = report.diffs.len() as u64;
        report.diffs.retain(|&d| d != 0.0);
        WireMsg::SparseSweepDone {
            graph: graph.to_string(),
            run_id,
            sweep,
            index: ws.index,
            slots: report.exports,
            exports,
            diffs: report.diffs,
            computed,
            queued: ws.state.queued() as u64,
            messages: report.messages,
        }
    }

    /// Ends a run: the beliefs moved since the last collect (all of them
    /// after a reset or load); leftover queue entries are dropped.
    fn collect(&mut self, graph: &str, run_id: u64) -> WireMsg {
        let ws = match shard_on(&mut self.shards, graph, run_id, "collect") {
            Ok(ws) => ws,
            Err(reply) => return *reply,
        };
        ws.state.clear_queue();
        let (mut nodes, mut packed) = (Vec::new(), Vec::new());
        let full = ws.state.take_changed(&ws.shard, &mut nodes, &mut packed);
        WireMsg::Beliefs {
            graph: graph.to_string(),
            run_id,
            index: ws.index,
            full,
            nodes,
            packed,
        }
    }
}

/// The shard of `graph` on run `run_id`, or the error reply.
fn shard_on<'a>(
    shards: &'a mut HashMap<String, WorkerShard>,
    graph: &str,
    run_id: u64,
    what: &str,
) -> Result<&'a mut WorkerShard, Box<WireMsg>> {
    let ws = shards
        .get_mut(graph)
        .ok_or_else(|| Box::new(unknown_graph(graph)))?;
    if ws.run_id != run_id {
        return Err(Box::new(desync(format!(
            "{what} for run {run_id}, worker is on run {}",
            ws.run_id
        ))));
    }
    Ok(ws)
}

fn unknown_graph(graph: &str) -> WireMsg {
    WireMsg::Error {
        code: "unknown_graph".into(),
        message: format!("no shard loaded for graph {graph:?}"),
    }
}

/// Runs the shard-worker serve loop until a [`WireMsg::Shutdown`]
/// arrives. The router is the only client, so connections are served one
/// at a time; shard state persists across router reconnects (a restarted
/// router re-ships `LoadShard` and resets cold anyway).
pub fn run_worker(listener: TcpListener, threads: usize, builder: &GraphBuilder) -> io::Result<()> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    let mut worker = Worker {
        builder,
        pool: credo_core::par::WorkerPool::new(threads),
        threads,
        shards: HashMap::new(),
    };
    for conn in listener.incoming() {
        let mut stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        stream.set_nodelay(true).ok();
        if serve_conn(&mut stream, &mut worker)? {
            return Ok(());
        }
    }
    Ok(())
}

/// Serves one router connection; returns `Ok(true)` on shutdown.
fn serve_conn(stream: &mut TcpStream, worker: &mut Worker<'_>) -> io::Result<bool> {
    loop {
        let msg = match read_msg(stream) {
            Ok(Some(m)) => m,
            Ok(None) => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Undecodable frame: answer structurally, then drop the
                // connection — framing may be lost.
                let _ = write_msg(
                    stream,
                    &WireMsg::Error {
                        code: "bad_frame".into(),
                        message: e.to_string(),
                    },
                );
                return Ok(false);
            }
            Err(_) => return Ok(false),
        };
        let reply = match &msg {
            WireMsg::Ping => WireMsg::Pong,
            WireMsg::Shutdown => return Ok(true),
            WireMsg::LoadShard { .. } => worker.load_shard(&msg),
            WireMsg::RunStart {
                graph,
                run_id,
                reset,
                observe,
                clear,
                queue_threshold,
            } => worker.run_start(graph, *run_id, *reset, observe, clear, *queue_threshold),
            WireMsg::SparseSweep {
                graph,
                run_id,
                sweep,
                full,
                slots,
                halo,
            } => worker.sparse_sweep(graph, *run_id, *sweep, *full, slots, halo),
            WireMsg::Collect { graph, run_id } => worker.collect(graph, *run_id),
            other => WireMsg::Error {
                code: "bad_request".into(),
                message: format!("unexpected message {other:?}"),
            },
        };
        if write_msg(stream, &reply).is_err() {
            return Ok(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use credo_graph::generators::{synthetic, GenOptions};

    fn request(s: &mut TcpStream, msg: &WireMsg) -> WireMsg {
        write_msg(s, msg).expect("send");
        read_msg(s).expect("recv").expect("reply")
    }

    fn assert_desync(reply: WireMsg) {
        match reply {
            WireMsg::Error { code, .. } => assert_eq!(code, "desync"),
            other => panic!("expected a desync error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_sparse_entries_are_a_desync_not_a_panic() {
        let g = synthetic(80, 320, &GenOptions::new(2).with_seed(33));
        let sx = ShardedExec::compile(&g, 2);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
        let addr = listener.local_addr().expect("worker addr");
        let graph = g.clone();
        let worker = std::thread::spawn(move || {
            let builder = move |_spec: &str, _seed: u64| Ok(graph.clone());
            run_worker(listener, 1, &builder).expect("worker serve loop");
        });
        let mut s = TcpStream::connect(addr).expect("connect");
        let load = WireMsg::LoadShard {
            graph: "g".into(),
            spec: "test".into(),
            seed: 33,
            shards: 2,
            index: 1,
            store_dir: String::new(),
            store_key: 0,
            threads: 1,
            imports: sx.meta.imports[1].clone(),
            exports: sx.meta.exports[1].clone(),
        };
        assert!(matches!(request(&mut s, &load), WireMsg::ShardReady { .. }));
        let start = WireMsg::RunStart {
            graph: "g".into(),
            run_id: 1,
            reset: false,
            observe: vec![(70, 1)],
            clear: vec![],
            queue_threshold: 1e-3,
        };
        assert!(matches!(request(&mut s, &start), WireMsg::RunReady { .. }));

        let halo = sx.shards[1].halo.len() as u32;
        let sweep = |slots: Vec<u32>, floats: usize| WireMsg::SparseSweep {
            graph: "g".into(),
            run_id: 1,
            sweep: 0,
            full: false,
            slots,
            halo: vec![0.5; floats],
        };
        // An import index past the halo, with or without the wake bit,
        // and a payload that does not match its entries.
        assert_desync(request(&mut s, &sweep(vec![halo], 2)));
        assert_desync(request(&mut s, &sweep(vec![0, halo | 1 << 31], 4)));
        assert_desync(request(&mut s, &sweep(vec![0], 3)));
        // The worker is unharmed: a well-formed sweep still answers.
        assert!(matches!(
            request(&mut s, &sweep(vec![0], 2)),
            WireMsg::SparseSweepDone { .. }
        ));
        // The dense sweep of wire version 1 is refused, not served.
        let dense = WireMsg::Sweep {
            graph: "g".into(),
            run_id: 1,
            sweep: 1,
            halo: vec![0.5; 2 * halo as usize],
        };
        match request(&mut s, &dense) {
            WireMsg::Error { code, .. } => assert_eq!(code, "bad_request"),
            other => panic!("expected bad_request, got {other:?}"),
        }
        write_msg(&mut s, &WireMsg::Shutdown).expect("shutdown");
        worker.join().expect("worker thread");
    }
}
