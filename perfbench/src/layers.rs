//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! It starts the workload's fleet once, drives half of `--seconds`
//! untraced and half with client-side spans around frame encode, the TCP
//! round trip and decode (their p50 difference is the tracing overhead),
//! then replays the same request stream in-process through each layer's
//! public entry points — `Server::submit`, `PosteriorCache`,
//! `WarmState::run_from`, `ExecGraph`/`ShardedExec` compilation,
//! `PlanStore`, `DistRouter::infer` against child shard-workers (with a
//! recording `Dispatch`), `ShardedSession::run` and the `WireMsg` codec —
//! timing every call as a span. Spans stay in memory and are written to
//! `.bench_out/` when the run ends. A layer a workload does not exercise
//! reports 0.

use crate::e2e::{
    check_answers, closed_loop, fetch_stats, median, quantile, start_instance, stat, Ctx, Front,
    Limit, Sample, Workload,
};
use crate::oracle::{build_graph, delta_to};
use crate::procs::{check_interrupt, cpu_ms, dir_bytes, loopback_bytes, Fleet, Res, TempDir};
use crate::stream::StreamSpec;
use crate::Metric;
use credo_core::{BpOptions, BpStats, Dispatch, WarmPolicy, WarmState};
use credo_graph::{ExecGraph, ShardedExec};
use credo_net::WireMsg;
use credo_serve::protocol::{evidence_key, read_frame, write_frame, Request, Response};
use credo_serve::{DistConfig, DistRouter, PosteriorCache, ServeConfig, Server};
use credo_store::{structural_hash, PlanStore, SourceKey};
use credo_trace::TraceBuffer;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call into a layer. Spans of one request share `request`;
/// `parent` names the span that caused this one.
struct Span {
    name: &'static str,
    parent: &'static str,
    request: u64,
    start_us: f64,
    dur_us: f64,
}

/// The benchmark's in-memory span recorder.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.spans.push(Span {
            name,
            parent,
            request,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            dur_us: start.elapsed().as_secs_f64() * 1e6,
        });
        out
    }

    fn durs_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    fn median_us(&self, name: &str) -> f64 {
        median(&self.durs_us(name))
    }

    fn mean_us(&self, name: &str) -> f64 {
        let d = self.durs_us(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    fn write(&self, path: &std::path::Path) -> Res<()> {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"parent\":\"{}\",\"request\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}\n",
                s.name, s.parent, s.request, s.start_us, s.dur_us
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

pub struct Traced {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Summed work of the BP runs a replay made.
#[derive(Default)]
struct BpTally {
    runs: u64,
    iterations: u64,
    msgs: u64,
    secs: f64,
}

impl BpTally {
    fn add(&mut self, s: &BpStats) {
        self.runs += 1;
        self.iterations += u64::from(s.iterations);
        self.msgs += s.message_updates;
        self.secs += s.host_time.as_secs_f64();
    }

    fn per_run(&self, x: f64) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            x / self.runs as f64
        }
    }
}

/// The traced closed loop: the same requests as [`closed_loop`], sent
/// over a raw socket so frame encode, round trip and decode are timed
/// apart. Returns the samples and the frame bytes sent and received.
fn traced_loop(
    addr: &str,
    start: u64,
    limit: Duration,
    stream: &StreamSpec,
    spans: &mut Spans,
) -> Res<(Vec<Sample>, u64)> {
    let t0 = Instant::now();
    let mut sock = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    sock.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    let mut bytes = 0u64;
    let mut index = start;
    while t0.elapsed() < limit {
        check_interrupt()?;
        let req: Request = stream.wire(index);
        let sent = Instant::now();
        let frame = spans.time("front.encode", "front.request", index, || {
            let mut buf = Vec::new();
            write_frame(&mut buf, &req).map(|_| buf)
        });
        let frame = frame.map_err(|e| e.to_string())?;
        let reply = spans.time("front.roundtrip", "front.request", index, || {
            sock.write_all(&frame)?;
            let mut len = [0u8; 4];
            sock.read_exact(&mut len)?;
            let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
            sock.read_exact(&mut body)?;
            let mut whole = len.to_vec();
            whole.extend_from_slice(&body);
            Ok::<Vec<u8>, std::io::Error>(whole)
        });
        let reply = reply.map_err(|e| format!("traced request {index}: {e}"))?;
        bytes += (frame.len() + reply.len()) as u64;
        let resp: Option<Response> = spans.time("front.decode", "front.request", index, || {
            read_frame(&mut &reply[..]).ok().flatten()
        });
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        spans.spans.push(Span {
            name: "front.request",
            parent: "",
            request: index,
            start_us: (sent - spans.origin).as_secs_f64() * 1e6,
            dur_us: latency_ms * 1e3,
        });
        let ok = resp.filter(|r| r.ok);
        out.push(Sample {
            index,
            latency_ms,
            cached: ok.as_ref().is_some_and(|r| r.cached),
            posteriors: ok.map(|r| r.posteriors),
        });
        index += 1;
    }
    Ok((out, bytes))
}

/// What the TCP phase measured on the live fleet.
struct TcpPhase {
    p50_untraced: f64,
    p50_traced: f64,
    samples: Vec<Sample>,
    /// One past the last request of the untraced loop.
    untraced_end: u64,
    front_bytes: u64,
    wakeups: u64,
    enqueued: u64,
    dist_sweeps: u64,
    wrong: u64,
    worker_cpu_ms: f64,
    /// Loopback bytes over both loops: client and worker links.
    loopback_bytes: f64,
    wall_s: f64,
    counts: crate::e2e::Counts,
}

fn tcp_phase(ctx: &Ctx, w: &Workload, stream: &StreamSpec, spans: &mut Spans) -> Res<TcpPhase> {
    let mut oracle = w.oracle()?;
    let first = oracle.answer(stream, 0)?;
    let inst = start_instance(ctx, w, &oracle, &first)?;
    let half = Duration::from_secs_f64(ctx.seconds / 2.0);
    let s0 = fetch_stats(&inst.addr)?;
    let wcpu0: f64 = inst.workers.iter().map(|&p| cpu_ms(p)).sum::<Res<f64>>()?;
    let lo0 = loopback_bytes()?;
    let t0 = Instant::now();
    let start = 1 + w.prefix;
    let untraced = closed_loop(&inst.addr, start, Limit::Time(half), stream)?;
    let next = untraced.last().map_or(start, |s| s.index + 1);
    let (traced, front_bytes) = traced_loop(&inst.addr, next, half, stream, spans)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let wcpu1: f64 = inst.workers.iter().map(|&p| cpu_ms(p)).sum::<Res<f64>>()?;
    let lo1 = loopback_bytes()?;
    let s1 = fetch_stats(&inst.addr)?;
    let counts = inst.counts;
    inst.stop()?;

    let lat = |s: &[Sample]| -> Vec<f64> { s.iter().map(|x| x.latency_ms).collect() };
    let p50_untraced = quantile(&lat(&untraced), 0.5);
    let p50_traced = quantile(&lat(&traced), 0.5);
    let delta = |name: &str| stat(&s1, name) - stat(&s0, name);
    let traced_n = traced.len() as u64;
    let mut samples = untraced;
    samples.extend(traced);
    samples.sort_by_key(|s| s.index);
    let wrong = check_answers(w, stream, &mut oracle, &samples)?;
    Ok(TcpPhase {
        p50_untraced,
        p50_traced,
        untraced_end: next,
        front_bytes: front_bytes / traced_n.max(1),
        wakeups: delta("reactor_wakeups"),
        enqueued: delta("enqueued"),
        wrong,
        dist_sweeps: delta("dist_sweeps"),
        worker_cpu_ms: wcpu1 - wcpu0,
        loopback_bytes: lo1 - lo0,
        wall_s,
        samples,
        counts,
    })
}

/// Work the cache and warm layers did in a direct replay.
#[derive(Default)]
struct Replay {
    warm: BpTally,
    cold: BpTally,
    frontier: u64,
    lookups: u64,
    hits: u64,
}

/// What a server's worker does for one request, replayed directly on
/// the cache and warm layers (mirrors `credo_serve::server`'s group
/// path: cache lookup, delta, warm or fallback cold run, cache insert).
fn direct_replay(
    stream: &StreamSpec,
    state: &mut WarmState,
    n: u64,
    spans: &mut Spans,
) -> Res<Replay> {
    let cfg = ServeConfig::default();
    let mut cache = PosteriorCache::new(cfg.cache_cap);
    let none = Dispatch::none();
    let policy = WarmPolicy {
        max_frontier_frac: cfg.max_frontier_frac,
        damped_retry: cfg.damped_retry,
        ..WarmPolicy::default()
    };
    let mut r = Replay::default();
    for i in 0..n {
        check_interrupt()?;
        let mut ev = stream.evidence(i);
        ev.sort_unstable();
        let key = evidence_key(&ev);
        r.lookups += 1;
        if spans
            .time("cache.get", "server.group", i, || cache.get(&key))
            .is_some()
        {
            r.hits += 1;
            continue;
        }
        let delta = delta_to(state.evidence(), &ev);
        let run = spans.time("warm.run", "server.group", i, || {
            state.run_from("serve", &delta, &cfg.opts, &policy, &none)
        });
        let run = run.map_err(|e| e.to_string())?;
        if run.warm {
            r.frontier += run.frontier as u64;
            r.warm.add(&run.stats);
        } else {
            spans.spans.last_mut().expect("just timed").name = "cold.run";
            r.cold.add(&run.stats);
        }
        if run.stats.converged {
            let packed = Arc::new(state.beliefs().to_vec());
            spans.time("cache.put", "server.group", i, || cache.put(key, packed));
        }
    }
    Ok(r)
}

/// In-process `Server::submit` on requests `0..n`, one caller.
fn submit_replay(
    stream: &StreamSpec,
    graph: credo_graph::BeliefGraph,
    n: u64,
    spans: &mut Spans,
) -> Res<credo_serve::MetricsSnapshot> {
    let server = Server::new(ServeConfig::default(), Dispatch::none());
    server.add_graph("g0", graph);
    for i in 0..n {
        check_interrupt()?;
        let req = stream.wire(i);
        let resp = spans.time("server.submit", "", i, || server.submit(&req));
        if !resp.ok {
            return Err(format!("in-process request {i}: {}", resp.message));
        }
    }
    let m = server.metrics();
    server.shutdown();
    Ok(m)
}

/// Halo/exports/diff payloads shaped like one sweep of `sx`, encoded and
/// decoded `reps` times; returns (encode µs, decode µs) per sweep.
fn wire_codec(sx: &ShardedExec, spans: &mut Spans) -> (f64, f64) {
    let meta = &sx.meta;
    let payload = |copies: &[credo_graph::ShardCopy]| -> Vec<f32> {
        vec![0.5f32; copies.iter().map(|c| c.card as usize).sum()]
    };
    let mut msgs = Vec::new();
    for (j, shard) in sx.shards.iter().enumerate() {
        msgs.push(WireMsg::Sweep {
            graph: "g0".into(),
            run_id: 1,
            sweep: 0,
            halo: payload(&meta.imports[j]),
        });
        msgs.push(WireMsg::SweepDone {
            graph: "g0".into(),
            run_id: 1,
            sweep: 0,
            index: j as u32,
            exports: payload(&meta.exports[j]),
            diffs: vec![1e-3f32; shard.local_nodes()],
            messages: 0,
        });
    }
    const REPS: u64 = 50;
    for r in 0..REPS {
        let encoded: Vec<Vec<u8>> = spans.time("net.encode", "router.sweep", r, || {
            msgs.iter().map(WireMsg::encode).collect()
        });
        spans.time("net.decode", "router.sweep", r, || {
            encoded.iter().all(|b| WireMsg::decode(b).is_ok())
        });
    }
    (spans.median_us("net.encode"), spans.median_us("net.decode"))
}

pub fn run_traced(ctx: &Ctx, w: &Workload) -> Res<Traced> {
    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    let stream = w.stream(ctx.seed);
    let tcp = tcp_phase(ctx, w, &stream, &mut spans)?;
    let program = Arc::new(TraceBuffer::new());

    let graph = spans.time("graph.build", "", 0, || build_graph(w.nodes, w.edges));
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| m.push((name, value, unit));
    put("graph.build_s", spans.median_us("graph.build") / 1e6, "s");

    // The requests of the untraced TCP loop, replayed in-process: at most
    // about 5 s of each in-process layer on either workload.
    let replay_n = tcp.untraced_end.min(match w.front {
        Front::Serve => 5000,
        Front::Route { .. } => 150,
    });
    let opts = BpOptions::default();
    let submit_p50_ms;
    let mut server_m = None;
    let mut replay = Replay::default();
    // Route's warm runs are the workers' sweeps, not `WarmState` runs.
    let mut sharded = BpTally::default();
    let mut store = (0.0, 0.0, 0.0);
    let mut router = (0.0, 0.0, 0.0, 0.0);
    let mut net = (0.0, 0.0);
    let kernel_bytes;
    let plan_mb;
    match w.front {
        Front::Serve => {
            let plan = spans.time("graph.compile", "", 0, || ExecGraph::compile(&graph));
            plan_mb = plan.memory_bytes() as f64 / 1e6;
            kernel_bytes = plan.mean_bytes_per_message(false);
            drop(plan);
            server_m = Some(submit_replay(&stream, graph.clone(), replay_n, &mut spans)?);
            submit_p50_ms = spans.median_us("server.submit") / 1e3;
            let mut state = WarmState::new(graph, 1);
            replay = direct_replay(&stream, &mut state, replay_n, &mut spans)?;
        }
        Front::Route { workers: k } => {
            let sx = spans.time("graph.compile", "", 0, || ShardedExec::compile(&graph, k));
            plan_mb = sx.shards.iter().map(|s| s.memory_bytes()).sum::<usize>() as f64 / 1e6;
            kernel_bytes = ExecGraph::compile(&graph).mean_bytes_per_message(false);
            let dir = TempDir::new("layers")?;
            let ps = PlanStore::open(dir.path.clone()).map_err(|e| e.to_string())?;
            let key = SourceKey::from_spec(&w.spec(), 42).with(&format!("shards={k}"));
            let structural = structural_hash(&graph);
            spans
                .time("store.save", "", 0, || {
                    ps.save_sharded(key, &w.spec(), structural, &sx)
                })
                .map_err(|e| e.to_string())?;
            for j in 0..k {
                let loaded = spans.time("store.load", "", j as u64, || {
                    ps.load_sharded_shard(&key, j)
                });
                loaded
                    .map_err(|e| e.to_string())?
                    .ok_or("stored shard missing")?;
            }
            store = (
                spans.median_us("store.save") / 1e6,
                spans.durs_us("store.load").iter().sum::<f64>() / 1e3,
                dir_bytes(&dir.path) as f64 / 1e6,
            );
            net = wire_codec(&sx, &mut spans);
            let packed: usize = sx.shards.iter().map(|s| s.local_len()).sum();
            drop(sx);

            // In-process router against child shard-workers, recording
            // the program's own frontier-exchange spans.
            let mut fleet = Fleet::default();
            let mut addrs = Vec::new();
            for _ in 0..k {
                let args = ["shard-worker", "--addr", "127.0.0.1:0", "--threads", "1"];
                addrs.push(fleet.spawn(&ctx.credo, &args.map(String::from))?);
            }
            let mut r = DistRouter::new(DistConfig {
                workers: addrs,
                shards: k,
                threads: 1,
                store_dir: dir.as_str(),
                cache_cap: 0,
                opts,
                ..DistConfig::default()
            });
            r.set_trace(Dispatch::new(program.clone()));
            r.add_graph("g0", &w.spec(), 42, &graph)?;
            let metrics = r.metrics();
            for i in 0..replay_n {
                check_interrupt()?;
                let req = stream.wire(i);
                let resp = spans.time("router.infer", "", i, || r.infer(&req));
                if !resp.ok {
                    return Err(format!("in-process router request {i}: {}", resp.message));
                }
            }
            r.shutdown_workers();
            drop(r);
            fleet.stop(Duration::from_secs(20))?;
            let snap = metrics.snapshot();
            let sweep_us: Vec<f64> = program
                .records()
                .iter()
                .filter_map(|rec| match rec {
                    credo_trace::Record::Span { name, dur_us, .. }
                        if *name == "frontier_exchange" =>
                    {
                        Some(*dur_us)
                    }
                    _ => None,
                })
                .collect();
            let infer: Vec<f64> = spans.durs_us("router.infer")[1..].to_vec();
            submit_p50_ms = median(&infer) / 1e3;
            router = (
                submit_p50_ms,
                snap.dist_sweeps as f64 / snap.dist_runs.max(1) as f64,
                median(&sweep_us) / 1e3,
                (packed * 4) as f64 / 1e6,
            );
            // Kernel rate from an in-process replay of the same stream.
            let mut sx = ShardedExec::compile(&graph, k);
            let mut session =
                credo_core::ShardedSession::new(&mut sx, 1).map_err(|e| e.to_string())?;
            for i in 0..replay_n.min(64) {
                let delta = delta_to(session.evidence(), &stream.evidence(i));
                session
                    .apply_evidence(&mut sx, &delta.observe, &delta.clear)
                    .map_err(|e| e.to_string())?;
                let stats = session
                    .run("oracle", &mut sx, &opts, &Dispatch::none())
                    .map_err(|e| e.to_string())?;
                if i == 0 {
                    replay.cold.add(&stats);
                } else {
                    sharded.add(&stats);
                }
            }
        }
    }
    let Replay {
        warm,
        cold,
        frontier,
        lookups,
        hits,
    } = replay;
    put(
        "graph.compile_s",
        spans.median_us("graph.compile") / 1e6,
        "s",
    );
    put("graph.plan_mb", plan_mb, "MB");

    let p50_u = tcp.p50_untraced;
    let ok = tcp.samples.len().max(1) as f64;
    put("front.overhead_ms", p50_u - submit_p50_ms, "ms");
    put("front.encode_us", spans.median_us("front.encode"), "us");
    put("front.decode_us", spans.median_us("front.decode"), "us");
    put("front.bytes_per_req", tcp.front_bytes as f64, "B");
    put(
        "front.wakeups_per_req",
        tcp.wakeups as f64 / tcp.enqueued.max(1) as f64,
        "count",
    );

    let (submit_ms, batch, depth, failed_frac) = match &server_m {
        Some(s) => (
            submit_p50_ms,
            s.batched_requests as f64 / s.batches.max(1) as f64,
            s.peak_queue_depth as f64,
            (s.shed + s.deadline_exceeded + s.bad_requests) as f64 / s.enqueued.max(1) as f64,
        ),
        None => (0.0, 0.0, 0.0, 0.0),
    };
    put("server.submit_ms", submit_ms, "ms");
    let bp_ms_per_req = (warm.secs + cold.secs) * 1e3 / replay_n.max(1) as f64;
    let server_overhead = if server_m.is_some() {
        spans.mean_us("server.submit") / 1e3 - bp_ms_per_req
    } else {
        0.0
    };
    put("server.overhead_ms", server_overhead, "ms");
    put("server.batch_size", batch, "count");
    put("server.peak_queue_depth", depth, "count");
    put("server.failed_frac", failed_frac, "ratio");

    put("cache.lookups", lookups as f64, "count");
    put(
        "cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    put("cache.get_us", spans.median_us("cache.get"), "us");
    put("cache.put_us", spans.median_us("cache.put"), "us");

    put("warm.run_ms", spans.median_us("warm.run") / 1e3, "ms");
    put(
        "warm.iterations",
        warm.per_run(warm.iterations as f64),
        "count",
    );
    put(
        "warm.frontier_nodes",
        warm.per_run(frontier as f64),
        "count",
    );
    put("warm.msg_updates", warm.per_run(warm.msgs as f64), "count");
    let fallbacks = if warm.runs == 0 {
        0.0
    } else {
        cold.runs as f64
    };
    put(
        "warm.cold_fallback_frac",
        fallbacks / (warm.runs as f64 + fallbacks).max(1.0),
        "ratio",
    );

    let msgs = (warm.msgs + cold.msgs + sharded.msgs) as f64;
    let secs = warm.secs + cold.secs + sharded.secs;
    put("kernel.msgs_per_s", msgs / secs.max(1e-9), "1/s");
    put("kernel.bytes_per_msg", kernel_bytes, "B");
    put("cold.run_ms", cold.per_run(cold.secs) * 1e3, "ms");
    put(
        "cold.iterations",
        cold.per_run(cold.iterations as f64),
        "count",
    );

    put("store.save_s", store.0, "s");
    put("store.load_ms", store.1, "ms");
    put("store.mb", store.2, "MB");

    put("router.infer_ms", router.0, "ms");
    put("router.sweeps_per_run", router.1, "count");
    put("router.sweep_ms", router.2, "ms");
    put("router.collect_mb_per_run", router.3, "MB");

    let workers = match w.front {
        Front::Route { workers } => workers as f64,
        Front::Serve => 0.0,
    };
    let shard_sweeps = tcp.dist_sweeps as f64 * workers;
    // Router-worker traffic: loopback bytes per request less the client's
    // own frames (headers included, so an estimate from above).
    let net_bytes = if workers > 0.0 {
        tcp.loopback_bytes / ok - tcp.front_bytes as f64
    } else {
        0.0
    };
    put("net.bytes_per_req", net_bytes, "B");
    put("net.encode_us_per_sweep", net.0, "us");
    put("net.decode_us_per_sweep", net.1, "us");
    put(
        "worker.cpu_ms_per_sweep",
        tcp.worker_cpu_ms / shard_sweeps.max(1.0),
        "ms",
    );
    let worker_wall_ms = workers * tcp.wall_s * 1e3;
    put(
        "worker.busy_frac",
        tcp.worker_cpu_ms / worker_wall_ms.max(1e-9),
        "ratio",
    );

    put(
        "trace.overhead_frac",
        (tcp.p50_traced - p50_u) / p50_u,
        "ratio",
    );

    let c = tcp.counts;
    put("count.warm_runs", c.warm_runs as f64, "count");
    put("count.cold_runs", c.cold_runs as f64, "count");
    put("count.bp_iterations", c.bp_iterations as f64, "count");
    put("count.cache_hits", c.cache_hits as f64, "count");
    put("count.dist_runs", c.dist_runs as f64, "count");
    put("count.dist_sweeps", c.dist_sweeps as f64, "count");

    std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
    let base = format!(".bench_out/{}-seed{}", w.name, ctx.seed);
    spans.write(std::path::Path::new(&format!("{base}.spans.jsonl")))?;
    program
        .write_json_lines(std::path::Path::new(&format!("{base}.program.jsonl")))
        .map_err(|e| e.to_string())?;
    println!(
        "{}: spans written to {base}.spans.jsonl and {base}.program.jsonl",
        w.name
    );

    let attempted = tcp.samples.len() as u64;
    let failed = tcp
        .samples
        .iter()
        .filter(|s| s.posteriors.is_none())
        .count() as u64
        + tcp.wrong;
    Ok(Traced {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    })
}
