//! End-to-end tests of the serving layer: warm-start re-inference agrees
//! with cold runs across generator families and delta sizes, batched
//! responses bitwise-match sequential queries, and overload/deadline
//! conditions come back as structured errors instead of panics.

use credo::graph::generators::{
    grid, preferential_attachment, random_dag, synthetic, GenOptions, PotentialKind,
};
use credo::graph::BeliefGraph;
use credo::serve::protocol::{ERR_BAD_REQUEST, ERR_DEADLINE, ERR_SHED, ERR_UNKNOWN_GRAPH};
use credo::serve::{Client, Request, ServeConfig, Server};
use credo::{BpOptions, Dispatch, EvidenceDelta, WarmPolicy, WarmRun, WarmState};
use std::time::Duration;

/// Tight stopping threshold: the 1e-4 warm-vs-cold agreement checks need
/// the fixed point resolved well below the check's own tolerance.
fn tight_opts() -> BpOptions {
    BpOptions {
        threshold: 1e-6,
        queue_threshold: 1e-6,
        max_iterations: 2000, // grids converge slowly at 1e-6
        ..BpOptions::default()
    }
}

fn families() -> Vec<(&'static str, BeliefGraph)> {
    // Random potentials, not the default Potts smoothing: attractive
    // couplings put loopy BP in a regime with several stable fixed
    // points (flipping a hub's evidence flips whole basins), where *any*
    // restart policy — warm or cold — can land on a different one.
    // Warm-vs-cold agreement is only well-defined when the fixed point
    // is unique, which is the serving layer's operating regime.
    let o = |seed| {
        GenOptions::new(2)
            .with_seed(seed)
            .with_potentials(PotentialKind::SharedRandom)
    };
    vec![
        ("synthetic", synthetic(1500, 6000, &o(11))),
        ("grid", grid(40, 40, &o(12))),
        ("powerlaw", preferential_attachment(1500, 3, &o(13))),
        ("dag", random_dag(1500, 1500, &o(14))),
    ]
}

#[test]
fn warm_start_matches_cold_across_families_and_delta_sizes() {
    let opts = tight_opts();
    let policy = WarmPolicy::default();
    let run_from = |state: &mut WarmState, delta: &EvidenceDelta| -> WarmRun {
        state
            .run_from("C Node", delta, &opts, &policy, &Dispatch::none())
            .unwrap()
    };
    for (family, g) in families() {
        let n = g.num_nodes() as u32;
        let base: Vec<(u32, u32)> = (0..20).map(|i| (i * (n / 21), i % 2)).collect();
        let mut warm = WarmState::new(g.clone(), 1);
        let first = run_from(&mut warm, &EvidenceDelta::observing(&base));
        assert!(first.stats.converged, "{family}: base run must converge");

        for delta_size in [1usize, 4, 10] {
            // Flip the first `delta_size` base observations.
            let flipped: Vec<(u32, u32)> = base[..delta_size]
                .iter()
                .map(|&(v, s)| (v, 1 - s))
                .collect();
            let run = run_from(&mut warm, &EvidenceDelta::observing(&flipped));
            assert!(run.stats.converged, "{family}/{delta_size}: warm converges");
            assert!(
                run.warm,
                "{family}/{delta_size}: small delta takes warm path"
            );

            let mut absolute = base.clone();
            for (abs, f) in absolute[..delta_size].iter_mut().zip(&flipped) {
                *abs = *f;
            }
            let mut cold = WarmState::new(g.clone(), 1);
            run_from(&mut cold, &EvidenceDelta::observing(&absolute));

            let linf = warm
                .beliefs()
                .iter()
                .zip(cold.beliefs())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                linf <= 1e-4,
                "{family}/{delta_size}: warm vs cold L_inf {linf} > 1e-4"
            );

            // Revert for the next delta size.
            run_from(&mut warm, &EvidenceDelta::observing(&base[..delta_size]));
        }
    }
}

#[test]
fn batched_responses_bitwise_match_sequential_queries() {
    let server = Server::new(ServeConfig::default(), Dispatch::none());
    server.add_graph("g", synthetic(2000, 8000, &GenOptions::new(2).with_seed(5)));

    // Sequential pass: one query per evidence set, posteriors recorded.
    let sets: Vec<Vec<(u32, u32)>> = (0..4u32)
        .map(|i| vec![(i * 37, 0), (i * 91 + 5, 1)])
        .collect();
    let sequential: Vec<Vec<(u32, Vec<f32>)>> = sets
        .iter()
        .map(|ev| {
            let resp = server.submit(&Request::infer("g", ev));
            assert!(resp.ok && resp.converged, "sequential query failed");
            resp.posteriors
        })
        .collect();

    // Concurrent storm over the same evidence sets: whatever batching
    // the worker does, every response must match the sequential answer
    // bit for bit.
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let server = &server;
            let sets = &sets;
            let sequential = &sequential;
            scope.spawn(move || {
                for i in 0..16usize {
                    let which = (t + i) % sets.len();
                    let resp = server.submit(&Request::infer("g", &sets[which]));
                    assert!(resp.ok, "storm query failed: {}", resp.message);
                    assert_eq!(
                        resp.posteriors, sequential[which],
                        "batched response diverged from sequential"
                    );
                }
            });
        }
    });
    let m = server.metrics();
    assert!(m.cache_hits > 0, "storm must hit the posterior cache");
    assert_eq!(m.shed, 0, "default queue must not shed this load");
}

#[test]
fn deadline_exceeded_is_a_structured_error() {
    let cfg = ServeConfig {
        opts: tight_opts(), // slow convergence, so the deadline bites
        ..ServeConfig::default()
    };
    let server = Server::new(cfg, Dispatch::none());
    server.add_graph(
        "g",
        synthetic(20_000, 80_000, &GenOptions::new(2).with_seed(6)),
    );
    let mut req = Request::infer("g", &[(3, 1)]);
    req.deadline_ms = 1;
    let resp = server.submit(&req);
    assert!(!resp.ok);
    assert_eq!(resp.error, ERR_DEADLINE);
    assert!(!resp.message.is_empty());
}

#[test]
fn overload_sheds_with_a_structured_error() {
    let cfg = ServeConfig {
        queue_cap: 1,
        batch_max: 1,
        ..ServeConfig::default()
    };
    let server = Server::new(cfg, Dispatch::none());
    server.add_graph(
        "g",
        synthetic(20_000, 80_000, &GenOptions::new(2).with_seed(7)),
    );

    let shed_count = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..24u32)
            .map(|i| {
                let server = &server;
                scope.spawn(move || {
                    // Distinct evidence per request defeats the cache, so
                    // each one needs engine time and the queue backs up.
                    let resp = server.submit(&Request::infer("g", &[(i * 11, i % 2)]));
                    if resp.ok {
                        assert!(resp.iterations > 0 || resp.cached);
                        0
                    } else {
                        // Overload may surface as shed or as a missed
                        // deadline; both are structured, neither panics.
                        assert!(
                            resp.error == ERR_SHED || resp.error == ERR_DEADLINE,
                            "unexpected error {:?}",
                            resp.error
                        );
                        usize::from(resp.error == ERR_SHED)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum::<usize>()
    });
    assert!(
        shed_count > 0,
        "a 1-deep queue must shed under a 24-way burst"
    );
    assert_eq!(server.metrics().shed as usize, shed_count);
}

#[test]
fn malformed_requests_are_rejected_not_panicked() {
    let server = Server::new(ServeConfig::default(), Dispatch::none());
    server.add_graph("g", synthetic(100, 300, &GenOptions::new(2).with_seed(8)));

    let resp = server.submit(&Request::infer("nope", &[(0, 0)]));
    assert!(!resp.ok);
    assert_eq!(resp.error, ERR_UNKNOWN_GRAPH);

    // Conflicting evidence for one node.
    let resp = server.submit(&Request::infer("g", &[(4, 0), (4, 1)]));
    assert!(!resp.ok);
    assert_eq!(resp.error, ERR_BAD_REQUEST);

    // Evidence node out of range.
    let resp = server.submit(&Request::infer("g", &[(10_000, 0)]));
    assert!(!resp.ok);
    assert_eq!(resp.error, ERR_BAD_REQUEST);

    // Evidence state out of range for a 2-state node.
    let resp = server.submit(&Request::infer("g", &[(4, 9)]));
    assert!(!resp.ok);
    assert_eq!(resp.error, ERR_BAD_REQUEST);

    // Posterior node id out of range.
    let mut req = Request::infer("g", &[(4, 0)]);
    req.nodes = vec![10_000];
    let resp = server.submit(&req);
    assert!(!resp.ok);
    assert_eq!(resp.error, ERR_BAD_REQUEST);

    // Unknown op.
    let resp = server.submit(&Request::control("dance"));
    assert!(!resp.ok);
    assert_eq!(resp.error, ERR_BAD_REQUEST);
}

#[test]
fn tcp_roundtrip_serves_queries_and_stats() {
    let server = Server::new(ServeConfig::default(), Dispatch::none());
    server.add_graph("g", synthetic(500, 2000, &GenOptions::new(2).with_seed(9)));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    std::thread::scope(|scope| {
        let server_ref = &server;
        let acceptor = scope.spawn(move || server_ref.serve_tcp(listener));

        let mut client = Client::connect_retry(&addr, Duration::from_secs(10)).unwrap();
        assert!(client.ping().unwrap().ok);

        let resp = client
            .request(&Request::infer("g", &[(1, 0), (42, 1)]))
            .unwrap();
        assert!(resp.ok && resp.converged);
        assert_eq!(resp.posteriors.len(), 500);
        for (_, p) in &resp.posteriors {
            let sum: f32 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "posterior not normalized");
        }

        // Same absolute evidence, different order: served from cache.
        let resp2 = client
            .request(&Request::infer("g", &[(42, 1), (1, 0)]))
            .unwrap();
        assert!(resp2.cached);
        assert_eq!(resp2.posteriors, resp.posteriors);

        let stats = client.stats().unwrap();
        assert!(stats.ok);
        assert!(stats.stats_json.contains("cache_hits"));

        assert!(client.shutdown().unwrap().ok);
        acceptor.join().unwrap().unwrap();
    });
    assert!(server.is_shutdown());
}
