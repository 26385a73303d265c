//! Beyond the paper — multi-process sharded serving overhead.
//!
//! The distributed router cuts `ShardedSession`'s shard loop at the
//! process boundary: per sweep it ships each worker its halo payload and
//! receives the exports back over the `credo-net` wire protocol. This
//! experiment spawns K in-process shard workers on loopback TCP, drives
//! a [`credo::serve::DistRouter`] against them, and measures what the
//! wire costs relative to the single-process session on the same graph —
//! while verifying the distributed posteriors are **bit-identical** and
//! the warm path re-converges in the same iteration count as
//! [`credo_core::ShardedSession`].
//!
//! Gated ratios (see `bench_gate`):
//! - `frontier_ratio` — packed belief floats / boundary frontier floats:
//!   how much smaller the per-sweep exchange is than shipping the whole
//!   state. Structure-determined, immune to machine noise.
//! - `warm_gain` — cold / warm iterations for a small evidence delta.
//!   Deterministic: iteration counts are part of the bit-exactness
//!   contract.
//! - `warm_update_ratio` — node updates the warm request's sweeps would
//!   cost as full sweeps / the updates its queue and full sweeps actually
//!   computed. Deterministic; a slide back to full-sweep warm runs drops
//!   it to 1. Only reported (and so only gated) when the warm run
//!   converged: a run the iteration budget cuts short says nothing about
//!   the saving.
//! - `dist_efficiency` — single-process seconds / distributed seconds;
//!   wall clock, so its baseline is blessed with a wide tolerance.
//!
//! Exits non-zero when any distributed posterior diverges from the
//! single-process engine by even one bit, or when the warm iteration
//! counts disagree — CI runs this as a correctness guard, not just a
//! report.

use credo::serve::{DistConfig, DistRouter, Request};
use credo::BpOptions;
use credo_bench::report::{fmt_secs, save_bench_json, save_json, Table};
use credo_bench::suite::Scale;
use credo_bench::{apply_max_iters, flag_value, scale_from_args};
use credo_core::{Dispatch, ShardedSession};
use credo_graph::generators::{grid, synthetic, GenOptions};
use credo_graph::{BeliefGraph, ShardedExec};
use serde::Serialize;
use std::net::TcpListener;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Row {
    graph: String,
    nodes: usize,
    edges: usize,
    workers: usize,
    /// Boundary frontier floats exchanged per sweep (sum over shards).
    frontier_floats: usize,
    /// Total packed belief floats (what a naive exchange would ship).
    packed_floats: usize,
    /// packed / frontier — how much the boundary exchange saves.
    frontier_ratio: f64,
    cold_iterations: u32,
    warm_iterations: u32,
    /// cold / warm iterations; > 1 means the warm delta path won.
    warm_gain: f64,
    /// Node updates the warm request computed across all its sweeps.
    warm_node_updates: u64,
    /// warm iterations × active nodes / `warm_node_updates`: how much the
    /// queue phase saves over sweeping every node each time; `None`
    /// when the warm run did not converge.
    warm_update_ratio: Option<f64>,
    dist_cold_seconds: f64,
    single_cold_seconds: f64,
    /// single / distributed cold seconds; < 1 is the wire overhead.
    dist_efficiency: f64,
    /// Distributed posteriors bit-identical to the in-process session.
    bitwise_equal: bool,
}

/// Serves one shard of `graph` per loaded graph on an ephemeral
/// loopback port; returns the address. The builder hands the worker a
/// clone, standing in for the CLI's generator-spec rebuild.
fn spawn_worker(graph: BeliefGraph) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
    let addr = listener.local_addr().expect("worker addr").to_string();
    std::thread::spawn(move || {
        let builder = move |_spec: &str, _seed: u64| Ok(graph.clone());
        credo::serve::run_worker(listener, 1, &builder).expect("worker serve loop");
    });
    addr
}

fn bitwise_equal(got: &[(u32, Vec<f32>)], want: &[(u32, Vec<f32>)]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|((gv, gb), (wv, wb))| {
            gv == wv
                && gb.len() == wb.len()
                && gb.iter().zip(wb).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

fn main() {
    let scale = scale_from_args();
    // Random synthetic graphs have no locality — nearly every node sits
    // on a shard boundary — while the row-major grid cuts into bands
    // whose frontier is just the seam rows. Benching both brackets the
    // frontier compression the wire protocol can expect.
    let (nodes, edges, side) = match scale {
        Scale::Quick => (10_000, 40_000, 100),
        Scale::Default => (100_000, 400_000, 316),
        Scale::Full => (1_000_000, 4_000_000, 1000),
    };
    let seed: u64 = flag_value("--seed")
        .map(|v| v.parse().expect("--seed takes an integer"))
        .unwrap_or(42);
    let opts = apply_max_iters(BpOptions::default());

    let families: Vec<(String, BeliefGraph)> = vec![
        (
            format!("synthetic-{}k", nodes / 1000),
            synthetic(nodes, edges, &GenOptions::new(2).with_seed(seed)),
        ),
        (
            format!("grid-{side}x{side}"),
            grid(side, side, &GenOptions::new(2).with_seed(seed)),
        ),
    ];

    let mut rows: Vec<Row> = Vec::new();
    let mut table = Table::new(&[
        "graph",
        "workers",
        "frontier",
        "ratio",
        "cold",
        "warm",
        "gain",
        "upd ratio",
        "dist t",
        "single t",
        "eff",
        "bitwise",
    ]);
    let mut failed = false;
    for (graph_name, g) in &families {
        let nodes = g.num_nodes();
        let edges = g.num_edges();
        // Deterministic evidence: a scattered base set, then a small
        // delta (one flip, one addition) for the warm re-run.
        let base: Vec<(u32, u32)> = (0..8u32)
            .map(|i| ((i as u64 * 997 % nodes as u64) as u32, i % 2))
            .collect();
        let mut warm_ev = base.clone();
        warm_ev[0].1 = 1 - warm_ev[0].1;
        warm_ev.push(((nodes / 2) as u32, 1));

        for &k in &[2usize, 4] {
            // Single-process mirror: compile outside the timers, cold run on
            // the base evidence, then the same warm delta.
            let mut sx = ShardedExec::compile(g, k);
            let frontier_floats = sx.meta.frontier_len();
            let packed_floats: usize = sx.meta.cards.iter().map(|&c| c as usize).sum();
            let trace = Dispatch::none();
            let mut session = ShardedSession::new(&mut sx, 1).expect("session");
            session
                .apply_evidence(&mut sx, &base, &[])
                .expect("apply base");
            let t0 = Instant::now();
            let single_stats = session
                .run("single", &mut sx, &opts, &trace)
                .expect("single cold run");
            let single_cold_seconds = t0.elapsed().as_secs_f64();
            let packed = session.beliefs();
            let want: Vec<(u32, Vec<f32>)> = (0..nodes as u32)
                .map(|v| (v, session.node_slice(&packed, v).to_vec()))
                .collect();
            let delta: Vec<(u32, u32)> = warm_ev
                .iter()
                .filter(|pair| !base.contains(pair))
                .copied()
                .collect();
            session
                .apply_evidence(&mut sx, &delta, &[])
                .expect("apply delta");
            let single_warm = session
                .run("single", &mut sx, &opts, &trace)
                .expect("single warm run");

            // The distributed side: K workers, one shard each. The untimed
            // first request ships the shards; the timed one is a `fresh`
            // probe — forced cold, cache bypassed — so both sides pay the
            // same work.
            let workers: Vec<String> = (0..k).map(|_| spawn_worker(g.clone())).collect();
            let cfg = DistConfig {
                workers,
                shards: k,
                threads: 1,
                opts,
                io_timeout: Duration::from_secs(120),
                ..DistConfig::default()
            };
            let mut router = DistRouter::new(cfg);
            router
                .add_graph("g", graph_name, seed, g)
                .expect("add graph");
            let warmup = router.infer(&Request::infer("g", &base));
            assert!(
                warmup.ok,
                "warmup failed: {} {}",
                warmup.error, warmup.message
            );

            let mut cold_req = Request::infer("g", &base);
            cold_req.fresh = true;
            let t0 = Instant::now();
            let cold = router.infer(&cold_req);
            let dist_cold_seconds = t0.elapsed().as_secs_f64();
            assert!(cold.ok, "cold failed: {} {}", cold.error, cold.message);

            let updates_before = router.metrics().snapshot().dist_node_updates;
            let warm = router.infer(&Request::infer("g", &warm_ev));
            assert!(warm.ok, "warm failed: {} {}", warm.error, warm.message);
            let warm_node_updates = router.metrics().snapshot().dist_node_updates - updates_before;
            router.shutdown_workers();
            let mut observed = g.clone();
            for &(v, s) in &warm_ev {
                observed.observe(v, s as usize);
            }
            let active = observed.observed().iter().filter(|&&o| !o).count() as u64;
            if warm_node_updates != single_warm.node_updates {
                eprintln!(
                    "FAIL: workers={k} warm node updates {warm_node_updates} != single-process {}",
                    single_warm.node_updates
                );
                failed = true;
            }

            let equal = bitwise_equal(&cold.posteriors, &want);
            if !equal {
                eprintln!("FAIL: workers={k} distributed posteriors are not bit-identical");
                failed = true;
            }
            if cold.iterations != single_stats.iterations {
                eprintln!(
                    "FAIL: workers={k} cold iterations {} != single-process {}",
                    cold.iterations, single_stats.iterations
                );
                failed = true;
            }
            if warm.iterations != single_warm.iterations {
                eprintln!(
                    "FAIL: workers={k} warm iterations {} != single-process {}",
                    warm.iterations, single_warm.iterations
                );
                failed = true;
            }
            if !warm.warm {
                eprintln!("FAIL: workers={k} delta request did not take the warm path");
                failed = true;
            }

            let row = Row {
                graph: graph_name.clone(),
                nodes,
                edges,
                workers: k,
                frontier_floats,
                packed_floats,
                frontier_ratio: packed_floats as f64 / frontier_floats.max(1) as f64,
                cold_iterations: cold.iterations,
                warm_iterations: warm.iterations,
                warm_gain: cold.iterations as f64 / warm.iterations.max(1) as f64,
                warm_node_updates,
                warm_update_ratio: warm.converged.then(|| {
                    (u64::from(warm.iterations) * active) as f64 / warm_node_updates.max(1) as f64
                }),
                dist_cold_seconds,
                single_cold_seconds,
                dist_efficiency: single_cold_seconds / dist_cold_seconds.max(1e-12),
                bitwise_equal: equal,
            };
            table.row(&[
                graph_name.clone(),
                format!("{k}"),
                format!("{}", row.frontier_floats),
                format!("{:.1}x", row.frontier_ratio),
                format!("{}", row.cold_iterations),
                format!("{}", row.warm_iterations),
                format!("{:.2}", row.warm_gain),
                row.warm_update_ratio
                    .map_or("-".to_string(), |r| format!("{r:.2}")),
                fmt_secs(row.dist_cold_seconds),
                fmt_secs(row.single_cold_seconds),
                format!("{:.2}", row.dist_efficiency),
                format!("{}", row.bitwise_equal),
            ]);
            rows.push(row);
        }
    }

    table.print();
    let json = save_json("dist", &rows).expect("write json");
    let bench = save_bench_json("dist", &rows).expect("write bench json");
    println!("wrote {} and {}", json.display(), bench.display());

    if failed {
        std::process::exit(1);
    }
    println!("OK: distributed posteriors bit-identical, warm path converges like the session");
}
