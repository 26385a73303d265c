//! The router ↔ shard-worker message set.
//!
//! The conversation mirrors the single-process sharded session
//! (`credo_core::ShardedSession`) exactly, with the frontier cut at the
//! process boundary:
//!
//! ```text
//! router                                    worker k
//!   LoadShard {spec/store key, copies}  ──▶  compile or mmap ExecShard k
//!   ◀──────────────────────────── ShardReady
//!   RunStart {reset, observe, clear,    ──▶  apply evidence, seed the queue
//!             queue_threshold}
//!   ◀── RunReady {queued, slots, exports}    (touched exports; all on reset)
//! every sweep (warm: queue phase then full phase; cold: full only):
//!   SparseSweep {full, slots, halo}     ──▶  queue (or full) sweep
//!   ◀── SparseSweepDone {slots, exports,     (moved exports, wake bits,
//!                        diffs, computed,     non-zero diffs, computed
//!                        queued}              node count)
//!   … until a full sweep's global sum is below the threshold …
//!   Collect                             ──▶
//!   ◀──────────── Beliefs {full, nodes, packed}  (nodes moved since the
//!                                                 last collect; all on reset)
//! ```
//!
//! Sweeps ship sparse entries: `slots` are copy indices (import indices
//! router → worker, export indices worker → router) whose top bit
//! (`credo_core::WAKE`) says the node crossed the queue threshold, and
//! the payload floats are the entries' beliefs concatenated. The router
//! keeps a persistent frontier and ships each shard only the halo
//! entries that moved since its last sweep (every entry after a reset),
//! so the worker's halo slots always match what the single-process
//! session would have copied. Diffs come back for the computed nodes
//! whose diff is not zero, ascending, with the count of computed nodes
//! beside them; the router left-folds them shard by shard. Skipped nodes
//! and zero diffs would add exact zeros to a non-negative `f32` sum, so
//! the sum is the full sweep's, and bit identity of that fold is what
//! keeps distributed posteriors equal to `ShardedSession`'s.
//!
//! The dense [`WireMsg::Sweep`]/[`WireMsg::SweepDone`] pair of wire
//! version 1 keeps its codec, but router and worker no longer exchange
//! it; a worker answers it with `bad_request`.

use crate::frame::ByteWriter;
use credo_graph::ShardCopy;
use credo_io::{ByteReader, IoError};

/// Protocol version; bumped on any wire-layout change.
pub const WIRE_VERSION: u32 = 3;

const TAG_PING: u8 = 1;
const TAG_PONG: u8 = 2;
const TAG_LOAD_SHARD: u8 = 3;
const TAG_SHARD_READY: u8 = 4;
const TAG_RUN_START: u8 = 5;
const TAG_RUN_READY: u8 = 6;
const TAG_SWEEP: u8 = 7;
const TAG_SWEEP_DONE: u8 = 8;
const TAG_COLLECT: u8 = 9;
const TAG_BELIEFS: u8 = 10;
const TAG_ERROR: u8 = 11;
const TAG_SHUTDOWN: u8 = 12;
const TAG_SPARSE_SWEEP: u8 = 13;
const TAG_SPARSE_SWEEP_DONE: u8 = 14;

/// One router ↔ worker message. See the module docs for the protocol
/// flow; every variant carries the graph id so one worker can hold
/// shards of several graphs.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMsg {
    /// Liveness check.
    Ping,
    /// Liveness answer.
    Pong,
    /// Assigns one shard of `graph` to the worker. The worker loads the
    /// shard from the plan store when `store_dir` is non-empty and the
    /// keyed blob exists (the mmap path), otherwise rebuilds the graph
    /// from `spec`/`seed` and compiles its `[ranges[index])` slice.
    LoadShard {
        /// Graph id (the router's client-facing name, e.g. `g0`).
        graph: String,
        /// Generator spec or file path understood by the CLI loader.
        spec: String,
        /// Generator seed.
        seed: u64,
        /// Total shard count K.
        shards: u32,
        /// This worker's shard index in `0..K`.
        index: u32,
        /// Plan-store root to mmap from; empty = always compile.
        store_dir: String,
        /// Plan-store source key (content hash) for the sharded plan.
        store_key: u128,
        /// Worker-side compute threads (0 = all cores).
        threads: u32,
        /// Frontier→halo copies for this shard, `frontier_off` re-based
        /// to the contiguous per-sweep halo payload.
        imports: Vec<ShardCopy>,
        /// Local→frontier copies, `frontier_off` re-based to the
        /// contiguous exports payload.
        exports: Vec<ShardCopy>,
    },
    /// Worker's answer to [`WireMsg::LoadShard`].
    ShardReady {
        /// Graph id.
        graph: String,
        /// Shard index.
        index: u32,
        /// Local (owned) node count.
        local_nodes: u64,
        /// Whether the shard came from the plan store (mmap) rather
        /// than a fresh compile.
        from_store: bool,
    },
    /// Starts one inference run: the worker applies the evidence delta
    /// (one-hot observe / reset-to-prior clear), optionally resets all
    /// beliefs to priors first, and rebuilds its active list.
    RunStart {
        /// Graph id.
        graph: String,
        /// Router-chosen id echoed by every reply of this run.
        run_id: u64,
        /// Reset all local beliefs to priors before applying evidence
        /// (cold run; used after worker recovery).
        reset: bool,
        /// `(node, state)` pairs to pin (global ids; worker filters to
        /// its range).
        observe: Vec<(u32, u32)>,
        /// Global node ids to release back to their priors.
        clear: Vec<u32>,
        /// The run's queue threshold: in a queue-phase sweep a node
        /// changing by at least this much queues its readers.
        queue_threshold: f32,
    },
    /// Worker's answer to [`WireMsg::RunStart`]: the boundary beliefs
    /// the evidence touched (every export after a reset), so the router
    /// can update its frontier.
    RunReady {
        /// Graph id.
        graph: String,
        /// Echoed run id.
        run_id: u64,
        /// Shard index.
        index: u32,
        /// Active (unobserved) local node count.
        active: u64,
        /// Nodes queued for the first queue-phase sweep.
        queued: u64,
        /// Export indices (top bit: wake the importers), ascending.
        slots: Vec<u32>,
        /// The entries' beliefs, concatenated.
        exports: Vec<f32>,
    },
    /// A dense full sweep (wire version 1): the halo payload holds the
    /// previous sweep's frontier values in this shard's import order.
    /// Kept in the codec only; sweeps travel as [`WireMsg::SparseSweep`].
    Sweep {
        /// Graph id.
        graph: String,
        /// Echoed run id.
        run_id: u64,
        /// Sweep number (0-based), for desync detection.
        sweep: u32,
        /// Halo payload (import-order frontier floats).
        halo: Vec<f32>,
    },
    /// Worker's answer to [`WireMsg::Sweep`].
    SweepDone {
        /// Graph id.
        graph: String,
        /// Echoed run id.
        run_id: u64,
        /// Echoed sweep number.
        sweep: u32,
        /// Shard index.
        index: u32,
        /// Exports payload: this sweep's boundary beliefs.
        exports: Vec<f32>,
        /// Per-active-node L1 belief change, ascending local id order —
        /// concatenated and folded by the router in shard order.
        diffs: Vec<f32>,
        /// Message updates this sweep (for stats).
        messages: u64,
    },
    /// One sweep. `slots` are the import indices whose frontier beliefs
    /// moved since the shard's last sweep — all of them after a reset —
    /// (top bit: queue the slot's readers), `halo` their beliefs
    /// concatenated.
    SparseSweep {
        /// Graph id.
        graph: String,
        /// Echoed run id.
        run_id: u64,
        /// Sweep number (0-based), for desync detection.
        sweep: u32,
        /// Full sweep (every active node) rather than a queue sweep.
        full: bool,
        /// Import indices, with wake bits.
        slots: Vec<u32>,
        /// The entries' beliefs, concatenated.
        halo: Vec<f32>,
    },
    /// Worker's answer to [`WireMsg::SparseSweep`].
    SparseSweepDone {
        /// Graph id.
        graph: String,
        /// Echoed run id.
        run_id: u64,
        /// Echoed sweep number.
        sweep: u32,
        /// Shard index.
        index: u32,
        /// Export indices whose beliefs moved, ascending (top bit: the
        /// node crossed the queue threshold).
        slots: Vec<u32>,
        /// The entries' beliefs, concatenated.
        exports: Vec<f32>,
        /// L1 change of every computed node whose change is not zero,
        /// ascending local id.
        diffs: Vec<f32>,
        /// Nodes computed this sweep, zero diffs included.
        computed: u64,
        /// Nodes queued for the next queue-phase sweep.
        queued: u64,
        /// Message updates this sweep (for stats).
        messages: u64,
    },
    /// Asks for the shard's beliefs changed since the last collect.
    Collect {
        /// Graph id.
        graph: String,
        /// Echoed run id.
        run_id: u64,
    },
    /// Worker's answer to [`WireMsg::Collect`].
    Beliefs {
        /// Graph id.
        graph: String,
        /// Echoed run id.
        run_id: u64,
        /// Shard index.
        index: u32,
        /// `packed` is the whole local region (after a reset or load);
        /// otherwise it holds the beliefs of `nodes`.
        full: bool,
        /// Local node ids whose beliefs moved, ascending (empty when
        /// `full`).
        nodes: Vec<u32>,
        /// The beliefs, concatenated.
        packed: Vec<f32>,
    },
    /// Either side signalling a structured failure.
    Error {
        /// Machine-readable code.
        code: String,
        /// Human-readable cause.
        message: String,
    },
    /// Asks the worker process to exit its serve loop.
    Shutdown,
}

fn write_copies(w: &mut ByteWriter, copies: &[ShardCopy]) {
    w.u32(copies.len() as u32);
    for c in copies {
        w.u32(c.local_off);
        w.u32(c.frontier_off);
        w.u32(u32::from(c.card));
    }
}

fn read_copies(r: &mut ByteReader<'_>, what: &str) -> Result<Vec<ShardCopy>, IoError> {
    let n = r.array_len(12, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let local_off = r.u32(what)?;
        let frontier_off = r.u32(what)?;
        let card = r.u32(what)?;
        let card = u16::try_from(card).map_err(|_| r.error(format!("{what}: card {card}")))?;
        out.push(ShardCopy {
            local_off,
            frontier_off,
            card,
        });
    }
    Ok(out)
}

fn read_str(r: &mut ByteReader<'_>, what: &str) -> Result<String, IoError> {
    let n = r.array_len(1, what)?;
    let bytes = r.take(n, what)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| r.error(format!("{what} is not UTF-8")))
}

fn read_pairs(r: &mut ByteReader<'_>, what: &str) -> Result<Vec<(u32, u32)>, IoError> {
    let n = r.array_len(8, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.u32(what)?, r.u32(what)?));
    }
    Ok(out)
}

fn read_u128(r: &mut ByteReader<'_>, what: &str) -> Result<u128, IoError> {
    let b = r.take(16, what)?;
    Ok(u128::from_le_bytes(b.try_into().expect("16 bytes taken")))
}

fn read_bool(r: &mut ByteReader<'_>, what: &str) -> Result<bool, IoError> {
    match r.take(1, what)?[0] {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(r.error(format!("{what}: bool byte {v}"))),
    }
}

impl WireMsg {
    /// Encodes the message payload (tag byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            WireMsg::Ping => w.u8(TAG_PING),
            WireMsg::Pong => w.u8(TAG_PONG),
            WireMsg::LoadShard {
                graph,
                spec,
                seed,
                shards,
                index,
                store_dir,
                store_key,
                threads,
                imports,
                exports,
            } => {
                w.u8(TAG_LOAD_SHARD);
                w.u32(WIRE_VERSION);
                w.str(graph);
                w.str(spec);
                w.u64(*seed);
                w.u32(*shards);
                w.u32(*index);
                w.str(store_dir);
                w.u128(*store_key);
                w.u32(*threads);
                write_copies(&mut w, imports);
                write_copies(&mut w, exports);
            }
            WireMsg::ShardReady {
                graph,
                index,
                local_nodes,
                from_store,
            } => {
                w.u8(TAG_SHARD_READY);
                w.str(graph);
                w.u32(*index);
                w.u64(*local_nodes);
                w.u8(u8::from(*from_store));
            }
            WireMsg::RunStart {
                graph,
                run_id,
                reset,
                observe,
                clear,
                queue_threshold,
            } => {
                w.u8(TAG_RUN_START);
                w.str(graph);
                w.u64(*run_id);
                w.u8(u8::from(*reset));
                w.u32(observe.len() as u32);
                for &(v, s) in observe {
                    w.u32(v);
                    w.u32(s);
                }
                w.u32s(clear);
                w.f32(*queue_threshold);
            }
            WireMsg::RunReady {
                graph,
                run_id,
                index,
                active,
                queued,
                slots,
                exports,
            } => {
                w.u8(TAG_RUN_READY);
                w.str(graph);
                w.u64(*run_id);
                w.u32(*index);
                w.u64(*active);
                w.u64(*queued);
                w.u32s(slots);
                w.f32s(exports);
            }
            WireMsg::Sweep {
                graph,
                run_id,
                sweep,
                halo,
            } => {
                w.u8(TAG_SWEEP);
                w.str(graph);
                w.u64(*run_id);
                w.u32(*sweep);
                w.f32s(halo);
            }
            WireMsg::SweepDone {
                graph,
                run_id,
                sweep,
                index,
                exports,
                diffs,
                messages,
            } => {
                w.u8(TAG_SWEEP_DONE);
                w.str(graph);
                w.u64(*run_id);
                w.u32(*sweep);
                w.u32(*index);
                w.f32s(exports);
                w.f32s(diffs);
                w.u64(*messages);
            }
            WireMsg::SparseSweep {
                graph,
                run_id,
                sweep,
                full,
                slots,
                halo,
            } => {
                w.u8(TAG_SPARSE_SWEEP);
                w.str(graph);
                w.u64(*run_id);
                w.u32(*sweep);
                w.u8(u8::from(*full));
                w.u32s(slots);
                w.f32s(halo);
            }
            WireMsg::SparseSweepDone {
                graph,
                run_id,
                sweep,
                index,
                slots,
                exports,
                diffs,
                computed,
                queued,
                messages,
            } => {
                w.u8(TAG_SPARSE_SWEEP_DONE);
                w.str(graph);
                w.u64(*run_id);
                w.u32(*sweep);
                w.u32(*index);
                w.u32s(slots);
                w.f32s(exports);
                w.f32s(diffs);
                w.u64(*computed);
                w.u64(*queued);
                w.u64(*messages);
            }
            WireMsg::Collect { graph, run_id } => {
                w.u8(TAG_COLLECT);
                w.str(graph);
                w.u64(*run_id);
            }
            WireMsg::Beliefs {
                graph,
                run_id,
                index,
                full,
                nodes,
                packed,
            } => {
                w.u8(TAG_BELIEFS);
                w.str(graph);
                w.u64(*run_id);
                w.u32(*index);
                w.u8(u8::from(*full));
                w.u32s(nodes);
                w.f32s(packed);
            }
            WireMsg::Error { code, message } => {
                w.u8(TAG_ERROR);
                w.str(code);
                w.str(message);
            }
            WireMsg::Shutdown => w.u8(TAG_SHUTDOWN),
        }
        w.into_bytes()
    }

    /// Decodes one payload. Bounds-checked: arbitrary bytes produce an
    /// error, never a panic or oversized allocation.
    pub fn decode(payload: &[u8]) -> Result<WireMsg, IoError> {
        let mut r = ByteReader::new(payload, "credo-net frame");
        let tag = r.take(1, "tag")?[0];
        let msg = match tag {
            TAG_PING => WireMsg::Ping,
            TAG_PONG => WireMsg::Pong,
            TAG_LOAD_SHARD => {
                let version = r.u32("version")?;
                if version != WIRE_VERSION {
                    return Err(r.error(format!(
                        "wire version {version}, this build speaks {WIRE_VERSION}"
                    )));
                }
                WireMsg::LoadShard {
                    graph: read_str(&mut r, "graph")?,
                    spec: read_str(&mut r, "spec")?,
                    seed: r.u64("seed")?,
                    shards: r.u32("shards")?,
                    index: r.u32("index")?,
                    store_dir: read_str(&mut r, "store_dir")?,
                    store_key: read_u128(&mut r, "store_key")?,
                    threads: r.u32("threads")?,
                    imports: read_copies(&mut r, "imports")?,
                    exports: read_copies(&mut r, "exports")?,
                }
            }
            TAG_SHARD_READY => WireMsg::ShardReady {
                graph: read_str(&mut r, "graph")?,
                index: r.u32("index")?,
                local_nodes: r.u64("local_nodes")?,
                from_store: read_bool(&mut r, "from_store")?,
            },
            TAG_RUN_START => WireMsg::RunStart {
                graph: read_str(&mut r, "graph")?,
                run_id: r.u64("run_id")?,
                reset: read_bool(&mut r, "reset")?,
                observe: read_pairs(&mut r, "observe")?,
                clear: r.u32s("clear")?,
                queue_threshold: r.f32("queue_threshold")?,
            },
            TAG_RUN_READY => WireMsg::RunReady {
                graph: read_str(&mut r, "graph")?,
                run_id: r.u64("run_id")?,
                index: r.u32("index")?,
                active: r.u64("active")?,
                queued: r.u64("queued")?,
                slots: r.u32s("slots")?,
                exports: r.f32s("exports")?,
            },
            TAG_SWEEP => WireMsg::Sweep {
                graph: read_str(&mut r, "graph")?,
                run_id: r.u64("run_id")?,
                sweep: r.u32("sweep")?,
                halo: r.f32s("halo")?,
            },
            TAG_SWEEP_DONE => WireMsg::SweepDone {
                graph: read_str(&mut r, "graph")?,
                run_id: r.u64("run_id")?,
                sweep: r.u32("sweep")?,
                index: r.u32("index")?,
                exports: r.f32s("exports")?,
                diffs: r.f32s("diffs")?,
                messages: r.u64("messages")?,
            },
            TAG_SPARSE_SWEEP => WireMsg::SparseSweep {
                graph: read_str(&mut r, "graph")?,
                run_id: r.u64("run_id")?,
                sweep: r.u32("sweep")?,
                full: read_bool(&mut r, "full")?,
                slots: r.u32s("slots")?,
                halo: r.f32s("halo")?,
            },
            TAG_SPARSE_SWEEP_DONE => WireMsg::SparseSweepDone {
                graph: read_str(&mut r, "graph")?,
                run_id: r.u64("run_id")?,
                sweep: r.u32("sweep")?,
                index: r.u32("index")?,
                slots: r.u32s("slots")?,
                exports: r.f32s("exports")?,
                diffs: r.f32s("diffs")?,
                computed: r.u64("computed")?,
                queued: r.u64("queued")?,
                messages: r.u64("messages")?,
            },
            TAG_COLLECT => WireMsg::Collect {
                graph: read_str(&mut r, "graph")?,
                run_id: r.u64("run_id")?,
            },
            TAG_BELIEFS => WireMsg::Beliefs {
                graph: read_str(&mut r, "graph")?,
                run_id: r.u64("run_id")?,
                index: r.u32("index")?,
                full: read_bool(&mut r, "full")?,
                nodes: r.u32s("nodes")?,
                packed: r.f32s("packed")?,
            },
            TAG_ERROR => WireMsg::Error {
                code: read_str(&mut r, "code")?,
                message: read_str(&mut r, "message")?,
            },
            TAG_SHUTDOWN => WireMsg::Shutdown,
            other => return Err(r.error(format!("unknown message tag {other}"))),
        };
        r.expect_end()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wake bit `credo_core::WAKE` sets on sparse entry indices.
    const WAKE_BIT: u32 = 1 << 31;

    fn sample_msgs() -> Vec<WireMsg> {
        vec![
            WireMsg::Ping,
            WireMsg::Pong,
            WireMsg::LoadShard {
                graph: "g0".into(),
                spec: "1000x4000".into(),
                seed: 42,
                shards: 4,
                index: 2,
                store_dir: "/tmp/store".into(),
                store_key: 0xdead_beef_dead_beef_dead_beef_dead_beef,
                threads: 1,
                imports: vec![ShardCopy {
                    local_off: 8,
                    frontier_off: 0,
                    card: 2,
                }],
                exports: vec![ShardCopy {
                    local_off: 0,
                    frontier_off: 2,
                    card: 3,
                }],
            },
            WireMsg::ShardReady {
                graph: "g0".into(),
                index: 2,
                local_nodes: 250,
                from_store: true,
            },
            WireMsg::RunStart {
                graph: "g0".into(),
                run_id: 7,
                reset: false,
                observe: vec![(3, 1), (900, 0)],
                clear: vec![17],
                queue_threshold: 1e-3,
            },
            WireMsg::RunReady {
                graph: "g0".into(),
                run_id: 7,
                index: 2,
                active: 248,
                queued: 9,
                slots: vec![0, 3 | WAKE_BIT],
                exports: vec![0.5, 0.5, 0.1, 0.9],
            },
            WireMsg::Sweep {
                graph: "g0".into(),
                run_id: 7,
                sweep: 0,
                halo: vec![0.25, 0.75],
            },
            WireMsg::SweepDone {
                graph: "g0".into(),
                run_id: 7,
                sweep: 0,
                index: 2,
                exports: vec![0.4, 0.6],
                diffs: vec![0.0, 1.5e-3],
                messages: 480,
            },
            WireMsg::SparseSweep {
                graph: "g0".into(),
                run_id: 7,
                sweep: 1,
                full: false,
                slots: vec![2, 5 | WAKE_BIT],
                halo: vec![0.25, 0.75, 0.5, 0.5],
            },
            WireMsg::SparseSweep {
                graph: "g0".into(),
                run_id: 7,
                sweep: 4,
                full: true,
                slots: vec![],
                halo: vec![],
            },
            WireMsg::SparseSweepDone {
                graph: "g0".into(),
                run_id: 7,
                sweep: 1,
                index: 2,
                slots: vec![1 | WAKE_BIT, 6],
                exports: vec![0.4, 0.6, 0.3, 0.7],
                diffs: vec![2.5e-3, 1.5e-3],
                computed: 3,
                queued: 12,
                messages: 96,
            },
            WireMsg::Collect {
                graph: "g0".into(),
                run_id: 7,
            },
            WireMsg::Beliefs {
                graph: "g0".into(),
                run_id: 7,
                index: 2,
                full: false,
                nodes: vec![4, 19],
                packed: vec![0.125, 0.875, 0.5, 0.5],
            },
            WireMsg::Beliefs {
                graph: "g0".into(),
                run_id: 8,
                index: 2,
                full: true,
                nodes: vec![],
                packed: vec![0.125, 0.875],
            },
            WireMsg::Error {
                code: "unavailable".into(),
                message: "worker 1 lost mid-sweep".into(),
            },
            WireMsg::Shutdown,
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for msg in sample_msgs() {
            let bytes = msg.encode();
            let back = WireMsg::decode(&bytes).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn f32_bit_patterns_survive_the_wire() {
        let halo = vec![f32::MIN_POSITIVE, 1.0 - f32::EPSILON, 3.141_592_7e-12];
        let msg = WireMsg::Sweep {
            graph: "g".into(),
            run_id: 1,
            sweep: 9,
            halo: halo.clone(),
        };
        let WireMsg::Sweep { halo: back, .. } = WireMsg::decode(&msg.encode()).unwrap() else {
            panic!("wrong variant");
        };
        for (a, b) in halo.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncations_and_mutations_never_panic() {
        // A deterministic xorshift stands in for a fuzzer: every prefix
        // of every sample and a batch of single-byte corruptions must
        // decode to Ok or Err — never panic, never allocate absurdly.
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for msg in sample_msgs() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                let _ = WireMsg::decode(&bytes[..cut]);
            }
            for _ in 0..200 {
                let mut corrupt = bytes.clone();
                let at = (next() as usize) % corrupt.len();
                corrupt[at] ^= (next() as u8) | 1;
                let _ = WireMsg::decode(&corrupt);
            }
        }
    }

    #[test]
    fn sparse_sweep_done_carries_nonzero_diffs_and_the_computed_count() {
        // A certifying sweep of 5 nodes, 3 of them unmoved: only the two
        // non-zero diffs travel, in order and bit for bit, beside the
        // count of 5.
        let msg = WireMsg::SparseSweepDone {
            graph: "g".into(),
            run_id: 3,
            sweep: 2,
            index: 1,
            slots: vec![],
            exports: vec![],
            diffs: vec![f32::MIN_POSITIVE, 7.5e-4],
            computed: 5,
            queued: 0,
            messages: 20,
        };
        let bytes = msg.encode();
        let back = WireMsg::decode(&bytes).unwrap();
        assert_eq!(back, msg);
        let WireMsg::SparseSweepDone {
            diffs, computed, ..
        } = back
        else {
            panic!("wrong variant");
        };
        assert_eq!(computed, 5);
        assert_eq!(diffs[0].to_bits(), f32::MIN_POSITIVE.to_bits());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let msg = WireMsg::LoadShard {
            graph: "g".into(),
            spec: "s".into(),
            seed: 0,
            shards: 1,
            index: 0,
            store_dir: String::new(),
            store_key: 0,
            threads: 0,
            imports: vec![],
            exports: vec![],
        };
        let mut bytes = msg.encode();
        bytes[1] = 0xFF;
        assert!(WireMsg::decode(&bytes).is_err());
    }
}
