//! Multi-process sharded serving: a router process fans inference out to
//! K shard-worker processes over the `credo-net` wire protocol.
//!
//! This is `credo_core::ShardedSession` with the shard loop cut at the
//! process boundary. Each worker ([`run_worker`]) owns exactly one
//! [`credo_graph::ExecShard`] per graph — mmap-loaded from the plan store
//! when the router pre-seeded it, compiled from the generator spec
//! otherwise — and keeps the persistent
//! [`credo_core::ShardState`] between runs. The router ([`DistRouter`])
//! owns a persistent [`credo_core::FrontierSync`] and runs the session's
//! [`credo_core::SweepSchedule`]: per sweep it sends every shard with
//! work its halo entries before receiving any reply (so worker compute
//! overlaps) — only the entries that moved plus wake bits (every entry
//! once after a reset); a warm run's queue-phase sweeps skip idle
//! shards —
//! publishes the returned exports into the frontier, and left-folds the
//! convergence sum in shard order: the identical `f32` fold the
//! single-process session computes, which is what keeps distributed
//! posteriors **bit-identical** to `ShardedSession`'s (and, for cold
//! runs, to `ShardedEngine`'s).
//!
//! Placement uses the [`credo_net::HashRing`]: shard `k` of graph `g`
//! lands on `ring.node_for("g/k")`, probing `"g/k@1"`, `"g/k@2"`, … on
//! collision so every shard of a graph sits on a distinct worker (the
//! wire protocol keys worker state by graph id alone). When a worker
//! dies mid-sweep the router drops the link, re-ships shards on
//! reconnect, or evicts the address from the ring and re-places — always
//! restarting the affected graphs cold so no partially-swept state can
//! leak into an answer.

mod router;
mod worker;

pub use router::{run_router_thread, DistConfig, DistRouter, RouterFront, RouterJob};
pub use worker::{run_worker, GraphBuilder};

/// Error code: too few live workers to place every shard of a graph.
pub const ERR_UNAVAILABLE: &str = "unavailable";
