//! Sharded node-paradigm execution ("Stream Node").
//!
//! [`run_sharded`] sweeps a [`ShardedExec`]-shaped plan one shard at a
//! time on the persistent [`WorkerPool`], exchanging boundary beliefs
//! between shards through a double-buffered frontier array. Because every
//! read — local (the shard's own `prev` buffer) or remote (the previous
//! sweep's frontier, copied into halo slots before computing) — observes
//! sweep `t-1` state, the schedule is exactly the Jacobi schedule of
//! [`crate::plan::run_node_plan`], and the per-node arithmetic uses the
//! same [`kernels`] calls in the same order: beliefs, deltas and
//! iteration counts are bit-identical to the resident Par Node plan
//! runner for any shard count and any thread count.
//!
//! Every sweep reads its messages from the same per-source cache as the
//! resident runner ([`crate::msg_cache`]), over the shard's local and
//! halo slots. It turns on when the shard's pool holds one or two square
//! matrices of one cardinality (a shared store) and the sweep computes at
//! least a quarter of the shard's local nodes, so full and certifying
//! sweeps do one mat-vec per source slot and matrix, while small queue
//! sweeps stay per-arc.
//!
//! Shards arrive through the [`ShardSource`] trait so the runner never
//! assumes they are all resident: the in-memory [`ShardedExec`] hands out
//! borrows, while `credo-stream`'s spill store loads one shard's arrays
//! from disk per visit — peak arc/potential memory is then one shard plus
//! the frontier, not the graph. (Per-*node* state — packed beliefs and
//! the convergence diffs — stays resident; it is the O(arcs) data that
//! dominates and gets bounded.)
//!
//! [`run_sharded`] ignores the work-queue and residual scheduling
//! options: its sweeps are always full sweeps, matching the plain Jacobi
//! resident run, and its [`ShardState`]s carry no work queue (whose
//! reader index costs a `u32` per arc). Warm runs of a
//! [`ShardedSession`] (and of the distributed router built on the same
//! pieces) follow the two-phase [`SweepSchedule`]: Jacobi sweeps over
//! the §3.5 changed-evidence queue
//! first — a node changing by at least `queue_threshold` queues itself
//! and its readers, readers in other shards through a [`WAKE`] bit on its
//! boundary entry — then full sweeps until one certifies convergence.

use crate::convergence::ConvergenceTracker;
use crate::engine::{BpEngine, EngineError, Paradigm, Platform};
use crate::math::kernels;
use crate::msg_cache::MsgCache;
use crate::openmp::SharedSlice;
use crate::opts::BpOptions;
use crate::par::{degree_cuts, emit_pool_metrics, pool_threads, WorkerPool};
use crate::stats::{BpStats, IterationStats};
use credo_graph::{BeliefGraph, ExecShard, ShardCopy, ShardedExec, ShardedMeta, MAX_BELIEFS};
use std::collections::BTreeMap;
use std::time::Instant;
use tracing::Dispatch;

/// Hands shards to the runner one at a time.
///
/// `with_shard` materializes shard `k` (a borrow for resident stores, a
/// disk load for spill stores) and passes it to `f`; the shard may be
/// dropped as soon as `f` returns.
pub trait ShardSource {
    /// Partition, frontier and boundary-copy metadata.
    fn meta(&self) -> &ShardedMeta;

    /// Materializes shard `k` for the duration of `f`.
    fn with_shard(&mut self, k: usize, f: &mut dyn FnMut(&ExecShard)) -> Result<(), EngineError>;
}

impl ShardSource for ShardedExec {
    fn meta(&self) -> &ShardedMeta {
        &self.meta
    }

    fn with_shard(&mut self, k: usize, f: &mut dyn FnMut(&ExecShard)) -> Result<(), EngineError> {
        f(&self.shards[k]);
        Ok(())
    }
}

/// Bit set on a sparse boundary-entry index (an export or import copy
/// index) when the entry's node changed by at least
/// [`BpOptions::queue_threshold`]: the shard importing it queues every
/// local reader of that halo slot for its next queue-phase sweep.
pub const WAKE: u32 = 1 << 31;

const NO_EXPORT: u32 = u32::MAX;

/// Which nodes a sweep computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepPhase {
    /// Only the nodes on the §3.5 changed-evidence queue.
    Queue,
    /// Every active node: the Jacobi sweep whose global sum certifies
    /// convergence.
    Full,
}

impl SweepPhase {
    /// Trace label.
    pub fn name(self) -> &'static str {
        match self {
            SweepPhase::Queue => "queue",
            SweepPhase::Full => "full",
        }
    }
}

/// A deduplicated set of local node ids, kept as an insertion-order list
/// plus membership flags so clearing costs the set's size, not the
/// shard's.
struct NodeSet {
    list: Vec<u32>,
    member: Vec<bool>,
}

impl NodeSet {
    fn new(nodes: usize) -> NodeSet {
        NodeSet {
            list: Vec::new(),
            member: vec![false; nodes],
        }
    }

    fn insert(&mut self, v: u32) {
        if !self.member[v as usize] {
            self.member[v as usize] = true;
            self.list.push(v);
        }
    }

    /// Empties the set into `out`, ascending.
    fn drain_sorted(&mut self, out: &mut Vec<u32>) {
        out.clear();
        for &v in &self.list {
            self.member[v as usize] = false;
        }
        out.append(&mut self.list);
        out.sort_unstable();
    }

    fn clear(&mut self) {
        for &v in &self.list {
            self.member[v as usize] = false;
        }
        self.list.clear();
    }
}

/// Persistent per-shard sweep state (beliefs, not arcs — this stays
/// resident across shard loads, and is the part a remote shard-worker
/// process keeps between sweeps).
///
/// A state built with [`ShardState::with_queue`] also carries the §3.5
/// work queue of a warm run ([`ShardQueue`]); one built with
/// [`ShardState::new`] — what [`run_sharded`] keeps for every shard of
/// a possibly spilled plan — holds per-node data only and runs full
/// sweeps.
pub struct ShardState {
    /// Packed beliefs: local region then halo slots.
    pub prev: Vec<f32>,
    /// Per-sweep scratch for the local region.
    pub next: Vec<f32>,
    /// Unobserved local node ids, ascending.
    pub active: Vec<u32>,
    /// Per-local-node in-degrees for the tiler.
    pub in_degrees: Vec<u32>,
    /// Per-local-node observed flags; starts from the shard's
    /// compile-time flags, updated by [`ShardState::apply_evidence`].
    pub observed: Vec<bool>,
    queue: Option<ShardQueue>,
    scratch: SweepScratch,
}

/// The buffers [`sweep_shard`] works in, kept between sweeps.
struct SweepScratch {
    /// One message per local or halo slot (see [`crate::msg_cache`]).
    cache: MsgCache,
    /// Tile `i` of a sweep is `nodes[cuts[i]..cuts[i + 1]]`.
    cuts: Vec<usize>,
    /// Message updates per tile.
    tile_msgs: Vec<u64>,
}

/// The cardinality every local and halo slot of `shard` shares, if one.
fn uniform_slot_card(shard: &ExecShard) -> Option<usize> {
    let slots = shard.node_off.len() - 1;
    let stride = if slots > 0 { shard.slot_card(0) } else { 1 };
    (0..=slots)
        .all(|s| shard.node_off[s] as usize == s * stride)
        .then_some(stride)
}

/// The work queue and change tracking of a warm-capable [`ShardState`]:
/// a consumer CSR (slot → the local nodes reading it, built once from
/// the in-arcs — one `u32` per arc), the nodes queued for the next
/// queue-phase sweep, the exports the evidence touched, and the nodes
/// changed since the last [`ShardState::take_changed`].
struct ShardQueue {
    /// `readers[reader_off[s]..reader_off[s + 1]]`: the local nodes whose
    /// in-arcs read local or halo slot `s`, ascending (once per arc).
    reader_off: Vec<u32>,
    readers: Vec<u32>,
    /// The local node of every export, in export order.
    export_nodes: Vec<u32>,
    /// Export index of each local node, or `NO_EXPORT`.
    export_of: Vec<u32>,
    /// Nodes queued for the next queue-phase sweep.
    queued: NodeSet,
    /// Export indices (with [`WAKE`]) the evidence touched since the
    /// last [`ShardState::take_exports`].
    touched: Vec<u32>,
    /// The local nodes whose beliefs moved since the last collect;
    /// `all_changed` stands for every node (fresh or reset state).
    changed: NodeSet,
    all_changed: bool,
    /// Per-local-node sweep scratch: whether any bit of the belief moved.
    moved: Vec<bool>,
    /// The current queue-phase sweep's nodes, ascending.
    sweep_nodes: Vec<u32>,
}

impl ShardQueue {
    /// Indexes `shard`'s readers and `exports` (only `local_off` and
    /// `card` are read); a copy that does not name a local node is an
    /// error.
    fn new(shard: &ExecShard, exports: &[ShardCopy]) -> Result<ShardQueue, EngineError> {
        let local = shard.local_nodes();
        // Packed offset → slot: a division when every slot has the same
        // card (the common case), a binary search otherwise.
        let slots = local + shard.halo.len();
        let uniform = uniform_slot_card(shard);
        let slot_of = |off: u32| match uniform {
            Some(stride) => off as usize / stride,
            None => shard.node_off.partition_point(|&o| o <= off) - 1,
        };

        let mut export_of = vec![NO_EXPORT; local];
        let mut export_nodes = Vec::with_capacity(exports.len());
        for (e, c) in exports.iter().enumerate() {
            let v = slot_of(c.local_off);
            if v >= local
                || shard.slot_off(v) != c.local_off as usize
                || shard.slot_card(v) != c.card as usize
            {
                return Err(EngineError::InvalidGraph(format!(
                    "export {e} (offset {}, {} states) names no local node",
                    c.local_off, c.card
                )));
            }
            export_of[v] = e as u32;
            export_nodes.push(v as u32);
        }

        // Consumer CSR, the transpose of the in-arcs: count each slot's
        // readers, turn the counts into slot ends, then fill backwards so
        // every end walks down to its slot's start and readers come out
        // ascending. A reader joined to a slot by several arcs appears
        // once per arc; the queue dedupes.
        let mut reader_off = vec![0u32; slots + 1];
        for a in shard.in_arcs.iter() {
            reader_off[slot_of(a.src_off)] += 1;
        }
        let mut end = 0u32;
        for off in reader_off.iter_mut() {
            end += *off;
            *off = end;
        }
        let mut readers = vec![0u32; shard.in_arcs.len()];
        for v in (0..local).rev() {
            for a in shard.in_arcs_of(v) {
                let s = slot_of(a.src_off);
                reader_off[s] -= 1;
                readers[reader_off[s] as usize] = v as u32;
            }
        }
        Ok(ShardQueue {
            reader_off,
            readers,
            export_nodes,
            export_of,
            queued: NodeSet::new(local),
            touched: Vec::new(),
            changed: NodeSet::new(local),
            all_changed: true,
            moved: vec![false; local],
            sweep_nodes: Vec::new(),
        })
    }

    /// Queues local node or halo slot `slot`'s readers. Observed readers
    /// are queued too and skipped when the queue is drained: the queue's
    /// emptiness then does not depend on which shard a reader lives in.
    fn enqueue_readers(&mut self, slot: usize) {
        let (a, b) = (self.reader_off[slot], self.reader_off[slot + 1]);
        for &r in &self.readers[a as usize..b as usize] {
            self.queued.insert(r);
        }
    }
}

const NEEDS_QUEUE: &str = "a warm-run operation on a ShardState built without a work queue";

impl ShardState {
    /// Sizes a full-sweep state for `shard`, starting the local region
    /// from `init_local` (packed local floats) or the shard's priors.
    pub fn new(shard: &ExecShard, init_local: Option<&[f32]>) -> ShardState {
        let local_len = shard.local_len();
        let mut prev = vec![0.0f32; shard.packed_len()];
        match init_local {
            Some(b) => prev[..local_len].copy_from_slice(b),
            None => prev[..local_len].copy_from_slice(&shard.priors),
        }
        let observed = shard.observed.clone();
        ShardState {
            next: prev[..local_len].to_vec(),
            prev,
            active: (0..shard.local_nodes() as u32)
                .filter(|&v| !observed[v as usize])
                .collect(),
            in_degrees: (0..shard.local_nodes())
                .map(|v| shard.in_degree(v))
                .collect(),
            observed,
            queue: None,
            scratch: SweepScratch {
                cache: MsgCache::new(
                    uniform_slot_card(shard),
                    shard.pool_matrices as usize,
                    &shard.pot_pool,
                ),
                cuts: Vec::new(),
                tile_msgs: Vec::new(),
            },
        }
    }

    /// A warm-capable state for `shard`, starting from its priors, with
    /// the work queue over its readers and its export copy list
    /// `exports` (only `local_off` and `card` are read; a copy that does
    /// not name a local node is an error).
    pub fn with_queue(shard: &ExecShard, exports: &[ShardCopy]) -> Result<ShardState, EngineError> {
        let queue = ShardQueue::new(shard, exports)?;
        Ok(ShardState {
            queue: Some(queue),
            ..ShardState::new(shard, None)
        })
    }

    /// Resets the local region to priors and the observed flags to the
    /// shard's compile-time flags (a cold restart). The queue empties
    /// and the next collect returns the whole region.
    pub fn reset(&mut self, shard: &ExecShard) {
        let local_len = shard.local_len();
        self.prev[..local_len].copy_from_slice(&shard.priors);
        self.next.copy_from_slice(&shard.priors);
        self.observed = shard.observed.clone();
        self.rebuild_active();
        if let Some(q) = &mut self.queue {
            q.queued.clear();
            q.touched.clear();
            q.changed.clear();
            q.all_changed = true;
        }
    }

    /// Recomputes the ascending active list from the observed flags.
    pub fn rebuild_active(&mut self) {
        self.active = (0..self.observed.len() as u32)
            .filter(|&v| !self.observed[v as usize])
            .collect();
    }

    /// Applies an evidence delta to this shard's slice of the node space:
    /// `observe` pins global nodes to one-hot beliefs, `clear` releases
    /// them back to their priors. Ids outside `shard.range` are ignored
    /// (the caller broadcasts the full delta to every shard). The active
    /// list stays ascending and changes only at the touched nodes, so the
    /// call costs O(touched), not O(local nodes); pinning a node to the
    /// same state twice is a no-op, mirroring [`BeliefGraph::observe`] /
    /// [`BeliefGraph::unobserve`] semantics bit for bit.
    ///
    /// With a work queue, every touched node seeds it: itself and its
    /// local readers; a touched export is remembered, with [`WAKE`], for
    /// [`ShardState::take_exports`] so remote readers queue too.
    pub fn apply_evidence(
        &mut self,
        shard: &ExecShard,
        observe: &[(u32, u32)],
        clear: &[u32],
    ) -> Result<(), EngineError> {
        let (lo, hi) = shard.range;
        let mut hit = Vec::new();
        for &v in clear {
            if v < lo || v >= hi {
                continue;
            }
            let local = (v - lo) as usize;
            let off = shard.slot_off(local);
            let c = shard.slot_card(local);
            self.prev[off..off + c].copy_from_slice(&shard.priors[off..off + c]);
            self.next[off..off + c].copy_from_slice(&shard.priors[off..off + c]);
            self.set_observed(local, false);
            hit.push(local);
        }
        for &(v, s) in observe {
            if v < lo || v >= hi {
                continue;
            }
            let local = (v - lo) as usize;
            let off = shard.slot_off(local);
            let c = shard.slot_card(local);
            if s as usize >= c {
                return Err(EngineError::InvalidGraph(format!(
                    "evidence state {s} out of range for node {v} with {c} states"
                )));
            }
            self.prev[off..off + c].fill(0.0);
            self.prev[off + s as usize] = 1.0;
            self.next[off..off + c].copy_from_slice(&self.prev[off..off + c]);
            self.set_observed(local, true);
            hit.push(local);
        }
        if let Some(q) = &mut self.queue {
            for v in hit {
                q.queued.insert(v as u32);
                q.enqueue_readers(v);
                q.changed.insert(v as u32);
                if q.export_of[v] != NO_EXPORT {
                    q.touched.push(q.export_of[v] | WAKE);
                }
            }
        }
        Ok(())
    }

    /// Sets local node `v`'s observed flag, inserting it into or removing
    /// it from the ascending active list when the flag flips.
    fn set_observed(&mut self, v: usize, observed: bool) {
        if std::mem::replace(&mut self.observed[v], observed) == observed {
            return;
        }
        match (self.active.binary_search(&(v as u32)), observed) {
            (Ok(at), true) => {
                self.active.remove(at);
            }
            (Err(at), false) => self.active.insert(at, v as u32),
            // Already in step (only reachable if the public fields were
            // edited by hand).
            _ => {}
        }
    }

    /// Nodes queued for the next queue-phase sweep (none without a work
    /// queue).
    pub fn queued(&self) -> usize {
        self.queue.as_ref().map_or(0, |q| q.queued.list.len())
    }

    /// Drops the queue (the end of a run).
    pub fn clear_queue(&mut self) {
        if let Some(q) = &mut self.queue {
            q.queued.clear();
        }
    }

    /// The exports a run publishes before its first sweep: every export
    /// for a cold run, the evidence-touched ones (with [`WAKE`]) for a
    /// warm one. Writes their indices to `slots` and their beliefs to
    /// `values`.
    ///
    /// # Panics
    /// On a state built without a work queue.
    pub fn take_exports(
        &mut self,
        shard: &ExecShard,
        all: bool,
        slots: &mut Vec<u32>,
        values: &mut Vec<f32>,
    ) {
        let q = self.queue.as_mut().expect(NEEDS_QUEUE);
        slots.clear();
        if all {
            slots.extend(0..q.export_nodes.len() as u32);
        } else {
            q.touched.sort_unstable();
            q.touched.dedup();
            slots.extend_from_slice(&q.touched);
        }
        q.touched.clear();
        self.export_values(shard, slots, values);
    }

    /// The current beliefs of the exports in `slots` ([`WAKE`] bits
    /// ignored), concatenated.
    ///
    /// # Panics
    /// On a state built without a work queue.
    pub fn export_values(&self, shard: &ExecShard, slots: &[u32], values: &mut Vec<f32>) {
        let q = self.queue.as_ref().expect(NEEDS_QUEUE);
        values.clear();
        for &s in slots {
            let v = q.export_nodes[(s & !WAKE) as usize] as usize;
            let off = shard.slot_off(v);
            values.extend_from_slice(&self.prev[off..off + shard.slot_card(v)]);
        }
    }

    /// Writes sparse halo entries: `slots` are import (halo slot)
    /// indices, `values` their beliefs concatenated. A [`WAKE`] entry
    /// queues the slot's local readers (when the state has a work
    /// queue). Out-of-range indices or a length mismatch are rejected
    /// before anything is written.
    pub fn apply_halo(
        &mut self,
        shard: &ExecShard,
        slots: &[u32],
        values: &[f32],
    ) -> Result<(), String> {
        let local = shard.local_nodes();
        let halo = shard.halo.len();
        let mut need = 0usize;
        for &s in slots {
            let i = (s & !WAKE) as usize;
            if i >= halo {
                return Err(format!(
                    "halo entry {i} out of range: the shard imports {halo}"
                ));
            }
            need += shard.slot_card(local + i);
        }
        if need != values.len() {
            return Err(format!(
                "{} halo floats for entries needing {need}",
                values.len()
            ));
        }
        let mut at = 0usize;
        for &s in slots {
            let slot = local + (s & !WAKE) as usize;
            let (off, c) = (shard.slot_off(slot), shard.slot_card(slot));
            self.prev[off..off + c].copy_from_slice(&values[at..at + c]);
            at += c;
            if let (Some(q), true) = (&mut self.queue, s & WAKE != 0) {
                q.enqueue_readers(slot);
            }
        }
        Ok(())
    }

    /// The local beliefs changed since the last call: returns true with
    /// the whole packed region in `packed` after a reset (or on a fresh
    /// state), otherwise the changed nodes (ascending) in `nodes` and
    /// their beliefs concatenated in `packed`.
    ///
    /// # Panics
    /// On a state built without a work queue.
    pub fn take_changed(
        &mut self,
        shard: &ExecShard,
        nodes: &mut Vec<u32>,
        packed: &mut Vec<f32>,
    ) -> bool {
        let q = self.queue.as_mut().expect(NEEDS_QUEUE);
        nodes.clear();
        packed.clear();
        let full = std::mem::replace(&mut q.all_changed, false);
        if full {
            q.changed.clear();
            packed.extend_from_slice(&self.prev[..shard.local_len()]);
        } else {
            q.changed.drain_sorted(nodes);
            for &v in nodes.iter() {
                let off = shard.slot_off(v as usize);
                packed.extend_from_slice(&self.prev[off..off + shard.slot_card(v as usize)]);
            }
        }
        full
    }
}

/// Copies a shard's boundary beliefs (`exports` copy list) out of its
/// packed `prev` array into a frontier-shaped buffer — the publish half
/// of the double-buffered boundary exchange.
pub fn publish_exports(prev: &[f32], exports: &[ShardCopy], frontier: &mut [f32]) {
    for c in exports {
        let (l, f, w) = (
            c.local_off as usize,
            c.frontier_off as usize,
            c.card as usize,
        );
        frontier[f..f + w].copy_from_slice(&prev[l..l + w]);
    }
}

/// What one [`sweep_shard`] call computed.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// L1 change of every computed node, ascending local id: the shard's
    /// slice of the global convergence fold. Skipped nodes would add
    /// exact zeros, so leaving them out keeps the `f32` sum bit for bit.
    pub diffs: Vec<f32>,
    /// Export indices whose beliefs moved, ascending; [`WAKE`] marks the
    /// ones that crossed the queue threshold in a queue-phase sweep.
    pub exports: Vec<u32>,
    /// Message updates.
    pub messages: u64,
}

/// One Jacobi sweep of one shard over an ascending node list: the queue
/// (drained) for [`SweepPhase::Queue`], `st.active` for
/// [`SweepPhase::Full`] (which drops the queue). Every computed node is
/// updated with the same SIMD kernel sequence as the resident Par Node
/// plan runner, reading `st.prev` — local region plus halo slots, which
/// the caller has filled with sweep `t-1` values — and `next` is
/// published to `prev` afterwards.
///
/// Messages come from the state's message cache, the one the resident
/// runner uses ([`crate::msg_cache`]): when the shard's pool holds one or
/// two square matrices of one cardinality and the sweep covers at least
/// a quarter of the local nodes, the sweep first computes one message
/// per local or halo slot and matrix, and every arc reads it. Otherwise
/// each arc computes its own. Both give the same bits. The tile cuts and
/// per-tile counters live in the state too, so a sweep allocates nothing
/// once the state has seen one of its size.
///
/// With a work queue the sweep also tracks what moved: changed nodes
/// for the next collect, and in `report.exports` the moved exports. In
/// the queue phase a node whose L1 change reaches `queue_threshold`
/// queues itself and its local readers, and its export (if any) carries
/// [`WAKE`] so remote readers queue too. A state without a work queue
/// (the full-sweep [`run_sharded`] path) skips all of that, and a queue
/// sweep of it computes nothing.
///
/// This is the shared compute path of [`run_sharded`], the
/// [`ShardedSession`] mirror, and the remote shard-worker: bit-identical
/// results for any caller come from all three funnelling through here.
pub fn sweep_shard(
    shard: &ExecShard,
    st: &mut ShardState,
    phase: SweepPhase,
    queue_threshold: f32,
    pool: &WorkerPool,
    threads: usize,
    report: &mut SweepReport,
) {
    report.exports.clear();
    let queue_phase = phase == SweepPhase::Queue;
    let ShardState {
        prev,
        next,
        active,
        in_degrees,
        observed,
        queue,
        scratch,
    } = st;
    let mut sweep_nodes = Vec::new();
    if let Some(q) = queue.as_mut() {
        sweep_nodes = std::mem::take(&mut q.sweep_nodes);
        if queue_phase {
            q.queued.drain_sorted(&mut sweep_nodes);
            sweep_nodes.retain(|&v| !observed[v as usize]);
        } else {
            q.queued.clear();
        }
    }
    let nodes: &[u32] = if queue_phase { &sweep_nodes } else { active };

    let SweepScratch {
        cache,
        cuts,
        tile_msgs,
    } = scratch;
    // Tiles cut `nodes` in order: tile `i` fills the diffs from
    // `cuts[i]`, so they come out ascending with no per-node scratch.
    degree_cuts(nodes, in_degrees, threads, cuts);
    tile_msgs.clear();
    tile_msgs.resize(cuts.len().saturating_sub(1), 0);
    let pot_pool: &[f32] = &shard.pot_pool;
    cache.refresh(pot_pool, pool, prev, nodes.len(), shard.local_nodes());
    report.diffs.clear();
    report.diffs.resize(nodes.len(), 0.0);
    let cuts: &[usize] = cuts;
    {
        let (prev_ref, cache_ref) = (&*prev, &*cache);
        let next_shared = SharedSlice::new(next);
        let diff_shared = SharedSlice::new(&mut report.diffs);
        let moved_shared = queue.as_mut().map(|q| SharedSlice::new(&mut q.moved));
        let msgs_shared = SharedSlice::new(tile_msgs);
        let moved_ref = &moved_shared;
        pool.broadcast(&|i| {
            let (Some(&lo), Some(&hi)) = (cuts.get(i), cuts.get(i + 1)) else {
                return;
            };
            let mut msg_buf = [0.0f32; MAX_BELIEFS];
            let mut acc = [0.0f32; MAX_BELIEFS];
            let mut local_msgs = 0u64;
            for (at, &v) in nodes[lo..hi].iter().enumerate() {
                let off = shard.slot_off(v as usize);
                let c = shard.slot_card(v as usize);
                acc[..c].copy_from_slice(&shard.priors[off..off + c]);
                let arcs = shard.in_arcs_of(v as usize);
                // Same combine as the resident plan runner: same product
                // order, same every-8th rescale.
                for (j, arc) in arcs.iter().enumerate() {
                    let msg = cache_ref.arc_message(pot_pool, arc, prev_ref, &mut msg_buf);
                    kernels::mul_assign_packed(&mut acc[..c], msg);
                    if j % 8 == 7 {
                        kernels::scale_max_to_one_packed(&mut acc[..c]);
                    }
                }
                kernels::normalize_packed(&mut acc[..c]);
                let old = &prev_ref[off..off + c];
                let diff = kernels::l1_diff_packed(&acc[..c], old);
                local_msgs += arcs.len() as u64;
                // SAFETY: local node ids are unique within a tile set and
                // tiles cover disjoint ranges of `nodes`, so each packed
                // range, per-node flag and diff position has one writer.
                unsafe {
                    if let Some(moved) = moved_ref {
                        let bits_moved = acc[..c]
                            .iter()
                            .zip(old)
                            .any(|(a, b)| a.to_bits() != b.to_bits());
                        moved.write(v as usize, bits_moved);
                    }
                    std::slice::from_raw_parts_mut(next_shared.ptr_at(off), c)
                        .copy_from_slice(&acc[..c]);
                    diff_shared.write(lo + at, diff);
                }
            }
            // SAFETY: one slot per region index.
            unsafe { msgs_shared.write(i, local_msgs) };
        });
    }
    report.messages = tile_msgs.iter().sum::<u64>();

    // Publish next -> prev for the computed nodes.
    {
        let prev_shared = SharedSlice::new(prev);
        let next_ref = &*next;
        pool.broadcast(&|i| {
            let (Some(&lo), Some(&hi)) = (cuts.get(i), cuts.get(i + 1)) else {
                return;
            };
            for &v in &nodes[lo..hi] {
                let off = shard.slot_off(v as usize);
                let c = shard.slot_card(v as usize);
                // SAFETY: unique node ids per tile.
                unsafe {
                    std::slice::from_raw_parts_mut(prev_shared.ptr_at(off), c)
                        .copy_from_slice(&next_ref[off..off + c]);
                }
            }
        });
    }

    // Sequential bookkeeping in ascending order: the moved exports, the
    // next queue.
    let Some(q) = queue else {
        return;
    };
    for (&v, &d) in nodes.iter().zip(&report.diffs) {
        let crossed = queue_phase && d >= queue_threshold;
        let moved = q.moved[v as usize];
        if moved {
            q.changed.insert(v);
        }
        if crossed {
            q.queued.insert(v);
            q.enqueue_readers(v as usize);
        }
        let e = q.export_of[v as usize];
        if (moved || crossed) && e != NO_EXPORT {
            report.exports.push(if crossed { e | WAKE } else { e });
        }
    }
    q.sweep_nodes = sweep_nodes;
}

/// The router's side of the sparse boundary exchange, shared by
/// [`ShardedSession`] and the distributed router: the persistent
/// frontier (the latest published belief of every boundary node), an
/// export→import index, and per shard the import entries its halo has
/// not seen yet (stale) or whose readers must queue (woken).
pub struct FrontierSync {
    values: Vec<f32>,
    /// `ShardedMeta::frontier_off`: packed offsets of the frontier slots.
    slot_off: Vec<u32>,
    /// Per shard: the frontier slot of each export / import entry.
    export_slot: Vec<Vec<u32>>,
    import_slot: Vec<Vec<u32>>,
    /// `route_to[route_off[f]..route_off[f + 1]]`: the `(shard, import)`
    /// entries reading frontier slot `f`.
    route_off: Vec<u32>,
    route_to: Vec<(u32, u32)>,
    /// Per shard, per import: `STALE | WOKEN` bits, and the flagged
    /// entries in marking order.
    flags: Vec<Vec<u8>>,
    marked: Vec<Vec<u32>>,
    wakes: Vec<usize>,
    /// Per shard: every halo entry is stale (after a reset or reload),
    /// whatever `flags` say.
    all_stale: Vec<bool>,
}

const STALE: u8 = 1;
const WOKEN: u8 = 2;

impl FrontierSync {
    /// An exchange over `meta`'s frontier, starting from
    /// `meta.frontier_init` with every halo in sync.
    pub fn new(meta: &ShardedMeta) -> FrontierSync {
        // Packed frontier offset → slot, one lookup per copy.
        let mut slot_at = vec![u32::MAX; meta.frontier_len()];
        for (f, &off) in meta.frontier_off[..meta.frontier.len()].iter().enumerate() {
            slot_at[off as usize] = f as u32;
        }
        let slots_of = |lists: &[Vec<ShardCopy>]| -> Vec<Vec<u32>> {
            lists
                .iter()
                .map(|l| l.iter().map(|c| slot_at[c.frontier_off as usize]).collect())
                .collect()
        };
        let export_slot = slots_of(&meta.exports);
        let import_slot = slots_of(&meta.imports);
        let mut route_off = vec![0u32; meta.frontier.len() + 1];
        for &f in import_slot.iter().flatten() {
            route_off[f as usize + 1] += 1;
        }
        for f in 0..meta.frontier.len() {
            route_off[f + 1] += route_off[f];
        }
        let mut cursor = route_off.clone();
        let mut route_to = vec![(0u32, 0u32); import_slot.iter().map(Vec::len).sum()];
        for (k, list) in import_slot.iter().enumerate() {
            for (i, &f) in list.iter().enumerate() {
                route_to[cursor[f as usize] as usize] = (k as u32, i as u32);
                cursor[f as usize] += 1;
            }
        }
        FrontierSync {
            values: meta.frontier_init.clone(),
            slot_off: meta.frontier_off.clone(),
            flags: import_slot.iter().map(|l| vec![0u8; l.len()]).collect(),
            marked: vec![Vec::new(); import_slot.len()],
            wakes: vec![0; import_slot.len()],
            all_stale: vec![false; import_slot.len()],
            export_slot,
            import_slot,
            route_off,
            route_to,
        }
    }

    fn mark(&mut self, k: usize, i: usize, bits: u8) {
        let f = &mut self.flags[k][i];
        if *f == 0 {
            self.marked[k].push(i as u32);
        }
        if bits & WOKEN != 0 && *f & WOKEN == 0 {
            self.wakes[k] += 1;
        }
        *f |= bits;
    }

    /// Publishes shard `k`'s exports: `slots` are export indices (with
    /// [`WAKE`] bits), `values` their beliefs concatenated. Entries whose
    /// bits moved go stale in every importing halo; woken entries wake
    /// every importer. Out-of-range indices or a length mismatch are
    /// rejected before anything is written.
    pub fn publish(&mut self, k: usize, slots: &[u32], values: &[f32]) -> Result<(), String> {
        let exports = self
            .export_slot
            .get(k)
            .ok_or_else(|| format!("shard {k} out of range"))?;
        let mut need = 0usize;
        for &s in slots {
            let e = (s & !WAKE) as usize;
            let Some(&f) = exports.get(e) else {
                return Err(format!(
                    "export entry {e} out of range: shard {k} exports {}",
                    exports.len()
                ));
            };
            need += (self.slot_off[f as usize + 1] - self.slot_off[f as usize]) as usize;
        }
        if need != values.len() {
            return Err(format!(
                "{} export floats for entries needing {need}",
                values.len()
            ));
        }
        let mut at = 0usize;
        for &s in slots {
            let f = self.export_slot[k][(s & !WAKE) as usize] as usize;
            let (lo, hi) = (self.slot_off[f] as usize, self.slot_off[f + 1] as usize);
            let new = &values[at..at + hi - lo];
            at += hi - lo;
            let cur = &mut self.values[lo..hi];
            let moved = cur.iter().zip(new).any(|(a, b)| a.to_bits() != b.to_bits());
            if moved {
                cur.copy_from_slice(new);
            }
            let bits = if moved { STALE } else { 0 } | if s & WAKE != 0 { WOKEN } else { 0 };
            if bits != 0 {
                for r in self.route_off[f]..self.route_off[f + 1] {
                    let (j, i) = self.route_to[r as usize];
                    self.mark(j as usize, i as usize, bits);
                }
            }
        }
        Ok(())
    }

    /// Takes shard `k`'s pending halo entries: import indices (with
    /// [`WAKE`] bits) in `slots`, their frontier beliefs in `halo`.
    pub fn take_halo(&mut self, k: usize, slots: &mut Vec<u32>, halo: &mut Vec<f32>) {
        slots.clear();
        halo.clear();
        if std::mem::take(&mut self.all_stale[k]) {
            slots.extend(0..self.import_slot[k].len() as u32);
        } else {
            slots.extend_from_slice(&self.marked[k]);
        }
        for s in slots.iter_mut() {
            let bits = std::mem::take(&mut self.flags[k][*s as usize]);
            let f = self.import_slot[k][*s as usize] as usize;
            halo.extend_from_slice(
                &self.values[self.slot_off[f] as usize..self.slot_off[f + 1] as usize],
            );
            if bits & WOKEN != 0 {
                *s |= WAKE;
            }
        }
        self.marked[k].clear();
        self.wakes[k] = 0;
    }

    /// Marks every halo entry stale: the shards were reset or reloaded,
    /// so their halo slots no longer match the frontier.
    pub fn resync(&mut self) {
        self.all_stale.fill(true);
    }

    /// Whether shard `k` has woken halo entries pending.
    pub fn has_wakes(&self, k: usize) -> bool {
        self.wakes[k] > 0
    }

    /// Whether any shard has woken halo entries pending.
    pub fn any_wakes(&self) -> bool {
        self.wakes.iter().any(|&w| w > 0)
    }

    /// Drops every pending wake-up (the end of a run); stale entries
    /// stay pending.
    pub fn clear_wakes(&mut self) {
        for k in 0..self.marked.len() {
            let flags = &mut self.flags[k];
            self.marked[k].retain(|&i| {
                flags[i as usize] &= !WOKEN;
                flags[i as usize] != 0
            });
            self.wakes[k] = 0;
        }
    }
}

/// The two-phase schedule of a sharded run, shared by
/// [`ShardedSession::run`] and the distributed router so the phase logic
/// exists once. A warm run with work queued starts in the queue phase
/// and sweeps only the changed-evidence queue; when the queue empties or
/// a queue sweep's summed change falls below `threshold` it switches to
/// full sweeps, and only a full sweep's global sum below `threshold`
/// stops the run — the same certificate as a cold run. Both phases
/// share `max_iterations`, and the queue phase never takes the budget's
/// last sweep: a run cut short by the budget still ends on a full sweep.
/// A cold run is full from the first sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepSchedule {
    tracker: ConvergenceTracker,
    threshold: f32,
    max_iterations: u32,
    phase: SweepPhase,
    full_sweeps: u32,
}

impl SweepSchedule {
    /// A schedule starting in the queue phase when `queue_first` (and
    /// the budget leaves room for a full sweep after it).
    pub fn new(opts: &BpOptions, queue_first: bool) -> SweepSchedule {
        SweepSchedule {
            tracker: ConvergenceTracker::new(opts),
            threshold: opts.threshold,
            max_iterations: opts.max_iterations,
            phase: if queue_first && opts.max_iterations > 1 {
                SweepPhase::Queue
            } else {
                SweepPhase::Full
            },
            full_sweeps: 0,
        }
    }

    /// The phase of the next sweep.
    pub fn phase(&self) -> SweepPhase {
        self.phase
    }

    /// Records a finished sweep with its summed change; `queued` says
    /// whether any node is queued (or woken) for a next queue sweep.
    /// Returns true when another sweep should run.
    pub fn record(&mut self, sum: f32, queued: bool) -> bool {
        match self.phase {
            SweepPhase::Full => {
                self.full_sweeps += 1;
                self.tracker.record(sum)
            }
            SweepPhase::Queue => {
                let more = self.tracker.count(sum);
                let last = self.tracker.iterations() + 1 >= self.max_iterations;
                if !queued || sum < self.threshold || last {
                    self.phase = SweepPhase::Full;
                }
                more
            }
        }
    }

    /// Marks the run converged without sweeping (nothing is active).
    pub fn mark_converged(&mut self) {
        self.tracker.mark_converged();
    }

    /// The convergence tracker: iterations of both phases, the last sum.
    pub fn tracker(&self) -> &ConvergenceTracker {
        &self.tracker
    }

    /// Full sweeps run so far.
    pub fn full_sweeps(&self) -> u32 {
        self.full_sweeps
    }
}

/// Copies a shard's halo slots in from the frontier (`imports` copy
/// list).
fn import_frontier(prev: &mut [f32], imports: &[ShardCopy], frontier: &[f32]) {
    for c in imports {
        let (l, f, w) = (
            c.local_off as usize,
            c.frontier_off as usize,
            c.card as usize,
        );
        prev[l..l + w].copy_from_slice(&frontier[f..f + w]);
    }
}

/// Runs sharded node-paradigm BP over `source` and returns the stats plus
/// the final packed beliefs (global prefix-offset layout, all nodes).
///
/// `init` optionally overrides the starting beliefs (global packed
/// layout); otherwise each shard starts from its priors. The frontier
/// starts from [`ShardedMeta::frontier_init`] either way. `threads` is
/// the requested worker count, 0 meaning all cores (the same resolution
/// as [`BpOptions::threads`]).
pub fn run_sharded(
    name: &'static str,
    source: &mut dyn ShardSource,
    opts: &BpOptions,
    trace: &Dispatch,
    threads: usize,
    init: Option<&[f32]>,
) -> Result<(BpStats, Vec<f32>), EngineError> {
    let threads = pool_threads(threads);
    let start = Instant::now();
    let run_span = trace.span(
        "run",
        &[
            ("engine", name.into()),
            ("shards", (source.meta().num_shards() as u64).into()),
        ],
    );
    let meta = source.meta().clone();
    let num_shards = meta.num_shards();
    let n = meta.num_nodes;
    // Global packed offsets, for `init` slicing and the final assembly.
    let mut global_off = Vec::with_capacity(n + 1);
    let mut off = 0usize;
    for &c in &meta.cards {
        global_off.push(off);
        off += c as usize;
    }
    global_off.push(off);
    if let Some(b) = init {
        if b.len() != off {
            return Err(EngineError::InvalidGraph(format!(
                "init beliefs hold {} floats, plan packs {}",
                b.len(),
                off
            )));
        }
    }

    let pool = WorkerPool::new(threads);
    let mut tracker = ConvergenceTracker::new(opts);
    let mut node_updates = 0u64;
    let mut message_updates = 0u64;
    let mut per_iteration: Vec<IterationStats> = Vec::new();

    // Init pass: one visit per shard to size the persistent belief state.
    let mut states: Vec<ShardState> = Vec::with_capacity(num_shards);
    for k in 0..num_shards {
        let load_span = trace.span("shard_load", &[("shard", (k as u64).into())]);
        let mut st = None;
        source.with_shard(k, &mut |shard| {
            let (lo, _) = shard.range;
            let init_local = init.map(|b| {
                let g = global_off[lo as usize];
                &b[g..g + shard.local_len()]
            });
            st = Some(ShardState::new(shard, init_local));
        })?;
        drop(load_span);
        states.push(st.expect("with_shard must invoke its callback"));
    }
    let active_len: usize = states.iter().map(|st| st.active.len()).sum();

    let mut frontier_prev = meta.frontier_init.clone();
    let mut frontier_next = vec![0.0f32; frontier_prev.len()];
    let mut report = SweepReport::default();

    loop {
        let iter_start = Instant::now();
        if active_len == 0 {
            tracker.mark_converged();
            break;
        }
        let iter_span = trace.span(
            "iteration",
            &[
                ("iter", (per_iteration.len() as u64).into()),
                ("queue_depth", (active_len as u64).into()),
                ("threads", threads.into()),
            ],
        );
        let msgs_before = message_updates;
        let mut sum = 0.0f32;

        // `k` also indexes `meta.imports`/`meta.exports` and names the
        // shard for `with_shard`, so a plain range loop reads best.
        #[allow(clippy::needless_range_loop)]
        for k in 0..num_shards {
            // A shard with nothing to update must still republish its
            // (static) exports: the frontier is double-buffered, so a
            // skipped export would leave stale values after the swap.
            if states[k].active.is_empty() && meta.exports[k].is_empty() {
                continue;
            }
            let shard_span = trace.span(
                "shard_sweep",
                &[
                    ("shard", (k as u64).into()),
                    ("nodes", (states[k].active.len() as u64).into()),
                ],
            );
            let st = &mut states[k];
            let imports = &meta.imports[k];
            let exports = &meta.exports[k];
            let frontier_prev_ref = &frontier_prev;
            let frontier_next_ref = &mut frontier_next;
            let report_ref = &mut report;
            let pool_ref = &pool;
            source.with_shard(k, &mut |shard| {
                // Boundary import: halo slots take the previous sweep's
                // frontier, so every remote read is a t-1 value.
                let exch_span = trace.span(
                    "boundary_exchange",
                    &[
                        ("shard", (k as u64).into()),
                        ("imports", (imports.len() as u64).into()),
                        ("exports", (exports.len() as u64).into()),
                    ],
                );
                import_frontier(&mut st.prev, imports, frontier_prev_ref);
                drop(exch_span);
                sweep_shard(
                    shard,
                    st,
                    SweepPhase::Full,
                    opts.queue_threshold,
                    pool_ref,
                    threads,
                    report_ref,
                );
                publish_exports(&st.prev, exports, frontier_next_ref);
            })?;
            // Deterministic ascending-order reduction over all shards —
            // the same single fold the resident runner computes.
            for &d in &report.diffs {
                sum += d;
            }
            message_updates += report.messages;
            drop(shard_span);
        }
        node_updates += active_len as u64;
        std::mem::swap(&mut frontier_prev, &mut frontier_next);

        if trace.enabled() {
            iter_span.record(&[("delta", sum.into())]);
            trace.counter("queue_depth", active_len as f64);
        }
        drop(iter_span);
        per_iteration.push(IterationStats {
            delta: sum,
            node_updates: active_len as u64,
            message_updates: message_updates - msgs_before,
            queue_depth: active_len as u64,
            elapsed: iter_start.elapsed(),
        });

        if !tracker.record(sum) {
            break;
        }
    }

    // Assemble the global packed beliefs: shard-local regions concatenate
    // in range order.
    let mut beliefs = vec![0.0f32; *global_off.last().unwrap()];
    for (&(lo, _), st) in meta.ranges.iter().zip(&states) {
        let g = global_off[lo as usize];
        let local_len = st.next.len();
        beliefs[g..g + local_len].copy_from_slice(&st.prev[..local_len]);
    }

    let elapsed = start.elapsed();
    if trace.enabled() {
        emit_pool_metrics(trace, &pool, None, elapsed);
        run_span.record(&[
            ("iterations", tracker.iterations().into()),
            ("converged", tracker.converged().into()),
        ]);
    }
    Ok((
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
        },
        beliefs,
    ))
}

/// A persistent sharded inference session: the warm-start counterpart of
/// [`run_sharded`], and the single-process mirror of the distributed
/// router/worker split in `credo-serve`.
///
/// Where [`run_sharded`] builds its belief state, runs to convergence
/// and returns, a session keeps the per-shard [`ShardState`]s and a
/// persistent [`FrontierSync`] alive between runs: evidence arrives as
/// deltas ([`ShardedSession::apply_evidence`] pins one-hot beliefs /
/// releases priors) and each [`ShardedSession::run`] sweeps from
/// wherever the last run converged — sharded warm-start over (possibly
/// remote) frontiers. The first run (and the first after a reset) is
/// cold: full sweeps, bit-identical to compiling the evidence into the
/// graph and running [`ShardedEngine`]. Later runs follow the two-phase
/// [`SweepSchedule`]. Either way sweeps go through [`sweep_shard`], halo
/// entries move through the same sparse exchange as on the wire, and the
/// convergence sum is the ascending-global-id left fold over the
/// computed nodes, so the distributed router reproduces a session run
/// bit for bit — the property its tests lean on.
pub struct ShardedSession {
    meta: ShardedMeta,
    states: Vec<ShardState>,
    frontier: FrontierSync,
    global_off: Vec<usize>,
    threads: usize,
    pool: WorkerPool,
    evidence: BTreeMap<u32, u32>,
    /// The next run starts from priors (a fresh or reset session), so it
    /// sweeps the full schedule from the first sweep.
    cold: bool,
}

impl ShardedSession {
    /// Builds a session over `source`, starting every shard from its
    /// priors (plus the shard's compile-time observed flags).
    pub fn new(
        source: &mut dyn ShardSource,
        threads: usize,
    ) -> Result<ShardedSession, EngineError> {
        let threads = pool_threads(threads);
        let meta = source.meta().clone();
        let num_shards = meta.num_shards();
        let mut global_off = Vec::with_capacity(meta.num_nodes + 1);
        let mut off = 0usize;
        for &c in &meta.cards {
            global_off.push(off);
            off += c as usize;
        }
        global_off.push(off);

        let mut states = Vec::with_capacity(num_shards);
        for k in 0..num_shards {
            let mut st = None;
            source.with_shard(k, &mut |shard| {
                st = Some(ShardState::with_queue(shard, &meta.exports[k]));
            })?;
            states.push(st.expect("with_shard must invoke its callback")?);
        }
        Ok(ShardedSession {
            frontier: FrontierSync::new(&meta),
            meta,
            states,
            global_off,
            threads,
            pool: WorkerPool::new(threads),
            evidence: BTreeMap::new(),
            cold: true,
        })
    }

    /// Partition/frontier metadata.
    pub fn meta(&self) -> &ShardedMeta {
        &self.meta
    }

    /// Per-node packed offsets into [`ShardedSession::beliefs`].
    pub fn global_off(&self) -> &[usize] {
        &self.global_off
    }

    /// The absolute evidence currently pinned, as `(node, state)`.
    pub fn evidence(&self) -> &BTreeMap<u32, u32> {
        &self.evidence
    }

    /// Resets every shard to priors and drops all pinned evidence; the
    /// next run is cold.
    pub fn reset(&mut self, source: &mut dyn ShardSource) -> Result<(), EngineError> {
        for (k, st) in self.states.iter_mut().enumerate() {
            source.with_shard(k, &mut |shard| st.reset(shard))?;
        }
        self.evidence.clear();
        self.cold = true;
        Ok(())
    }

    /// Applies an evidence delta across all shards and records it in the
    /// session's absolute evidence map.
    pub fn apply_evidence(
        &mut self,
        source: &mut dyn ShardSource,
        observe: &[(u32, u32)],
        clear: &[u32],
    ) -> Result<(), EngineError> {
        for (k, st) in self.states.iter_mut().enumerate() {
            let mut result = Ok(());
            source.with_shard(k, &mut |shard| {
                result = st.apply_evidence(shard, observe, clear);
            })?;
            result?;
        }
        for &v in clear {
            self.evidence.remove(&v);
        }
        for &(v, s) in observe {
            self.evidence.insert(v, s);
        }
        Ok(())
    }

    /// Whether any shard has nodes queued or woken for a queue sweep.
    fn queued(&self) -> bool {
        self.states.iter().any(|st| st.queued() > 0) || self.frontier.any_wakes()
    }

    /// Runs sweeps to convergence from the current beliefs.
    ///
    /// A cold run (the first after [`ShardedSession::new`] or
    /// [`ShardedSession::reset`]) republishes every boundary belief and
    /// sweeps the full schedule — bit-identical to [`run_sharded`]. A
    /// warm run publishes the evidence-touched exports and follows the
    /// two-phase [`SweepSchedule`]: queue sweeps over the changed-evidence
    /// queue, then full sweeps until one certifies convergence.
    pub fn run(
        &mut self,
        name: &'static str,
        source: &mut dyn ShardSource,
        opts: &BpOptions,
        trace: &Dispatch,
    ) -> Result<BpStats, EngineError> {
        let start = Instant::now();
        let num_shards = self.meta.num_shards();
        let run_span = trace.span(
            "run",
            &[
                ("engine", name.into()),
                ("shards", (num_shards as u64).into()),
            ],
        );
        let cold = std::mem::replace(&mut self.cold, false);
        let (mut slots, mut values) = (Vec::new(), Vec::new());
        for (k, st) in self.states.iter_mut().enumerate() {
            source.with_shard(k, &mut |shard| {
                st.take_exports(shard, cold, &mut slots, &mut values)
            })?;
            self.frontier
                .publish(k, &slots, &values)
                .map_err(EngineError::InvalidGraph)?;
        }
        if cold {
            self.frontier.resync();
        }
        let active_len: usize = self.states.iter().map(|st| st.active.len()).sum();

        let mut schedule = SweepSchedule::new(opts, !cold && self.queued());
        let mut node_updates = 0u64;
        let mut message_updates = 0u64;
        let mut per_iteration: Vec<IterationStats> = Vec::new();
        let mut reports = vec![SweepReport::default(); num_shards];
        let mut exported = vec![Vec::new(); num_shards];
        let mut swept = vec![false; num_shards];

        loop {
            if active_len == 0 {
                schedule.mark_converged();
                break;
            }
            let iter_start = Instant::now();
            let phase = schedule.phase();
            let iter_span = trace.span(
                "iteration",
                &[
                    ("iter", (per_iteration.len() as u64).into()),
                    ("phase", phase.name().into()),
                    ("threads", self.threads.into()),
                ],
            );
            let (mut sum, mut nodes, mut msgs) = (0.0f32, 0u64, 0u64);
            for k in 0..num_shards {
                let st = &mut self.states[k];
                swept[k] = match phase {
                    SweepPhase::Full => !st.active.is_empty(),
                    SweepPhase::Queue => st.queued() > 0 || self.frontier.has_wakes(k),
                };
                if !swept[k] {
                    continue;
                }
                self.frontier.take_halo(k, &mut slots, &mut values);
                let (report, exported) = (&mut reports[k], &mut exported[k]);
                let (pool, threads) = (&self.pool, self.threads);
                let mut halo = Ok(());
                source.with_shard(k, &mut |shard| {
                    halo = st.apply_halo(shard, &slots, &values);
                    if halo.is_ok() {
                        sweep_shard(
                            shard,
                            st,
                            phase,
                            opts.queue_threshold,
                            pool,
                            threads,
                            report,
                        );
                        st.export_values(shard, &report.exports, exported);
                    }
                })?;
                halo.map_err(EngineError::InvalidGraph)?;
                // Shard order, ascending ids within a shard: the same
                // left fold as the full schedule.
                for &d in &report.diffs {
                    sum += d;
                }
                nodes += report.diffs.len() as u64;
                msgs += report.messages;
            }
            // Publish only after every shard swept, so each read a t-1
            // frontier.
            for k in (0..num_shards).filter(|&k| swept[k]) {
                self.frontier
                    .publish(k, &reports[k].exports, &exported[k])
                    .map_err(EngineError::InvalidGraph)?;
            }
            node_updates += nodes;
            message_updates += msgs;
            if trace.enabled() {
                iter_span.record(&[("delta", sum.into()), ("nodes", nodes.into())]);
            }
            drop(iter_span);
            per_iteration.push(IterationStats {
                delta: sum,
                node_updates: nodes,
                message_updates: msgs,
                queue_depth: nodes,
                elapsed: iter_start.elapsed(),
            });
            if !schedule.record(sum, self.queued()) {
                break;
            }
        }
        // A budget cut short in the queue phase leaves work queued; the
        // next run's queue starts from its own evidence.
        for st in &mut self.states {
            st.clear_queue();
        }
        self.frontier.clear_wakes();

        let tracker = schedule.tracker();
        let elapsed = start.elapsed();
        if trace.enabled() {
            run_span.record(&[
                ("iterations", tracker.iterations().into()),
                ("converged", tracker.converged().into()),
                ("full_sweeps", schedule.full_sweeps().into()),
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

    /// Assembles the global packed beliefs (shard-local regions in range
    /// order).
    pub fn beliefs(&self) -> Vec<f32> {
        let mut beliefs = vec![0.0f32; *self.global_off.last().unwrap()];
        for (&(lo, _), st) in self.meta.ranges.iter().zip(&self.states) {
            let g = self.global_off[lo as usize];
            let local_len = st.next.len();
            beliefs[g..g + local_len].copy_from_slice(&st.prev[..local_len]);
        }
        beliefs
    }

    /// One node's packed posterior slice out of a
    /// [`ShardedSession::beliefs`] array.
    pub fn node_slice<'a>(&self, packed: &'a [f32], v: u32) -> &'a [f32] {
        &packed[self.global_off[v as usize]..self.global_off[v as usize + 1]]
    }
}

/// Sharded node-paradigm BP over a resident graph ("Stream Node").
///
/// Compiles the graph into a [`ShardedExec`] with `shards` contiguous
/// ranges and runs [`run_sharded`]. Beliefs are bit-identical to the
/// resident Par Node plan runner; the point of the resident adapter is
/// selector/CLI wiring and equivalence testing — the bounded-memory win
/// comes from feeding [`run_sharded`] a `credo-stream` spill source
/// instead.
#[derive(Clone, Copy, Debug)]
pub struct ShardedEngine {
    /// Number of contiguous shards to split the node space into.
    pub shards: usize,
}

impl ShardedEngine {
    /// Default shard count for the resident adapter.
    pub const DEFAULT_SHARDS: usize = 4;

    /// An engine splitting the graph into `shards` ranges.
    pub fn new(shards: usize) -> Self {
        ShardedEngine {
            shards: shards.max(1),
        }
    }
}

impl Default for ShardedEngine {
    fn default() -> Self {
        ShardedEngine::new(Self::DEFAULT_SHARDS)
    }
}

impl BpEngine for ShardedEngine {
    fn name(&self) -> &'static str {
        "Stream Node"
    }

    fn paradigm(&self) -> Paradigm {
        Paradigm::Node
    }

    fn platform(&self) -> Platform {
        Platform::CpuParallel
    }

    fn run_traced(
        &self,
        graph: &mut BeliefGraph,
        opts: &BpOptions,
        trace: &Dispatch,
    ) -> Result<BpStats, EngineError> {
        let mut sx = ShardedExec::compile(graph, self.shards);
        // Start from the graph's current beliefs (covers observed one-hots
        // and warm starts), exactly like the resident runners.
        let init: Vec<f32> = graph
            .beliefs()
            .iter()
            .flat_map(|b| b.as_slice().iter().copied())
            .collect();
        let (stats, beliefs) =
            run_sharded(self.name(), &mut sx, opts, trace, opts.threads, Some(&init))?;
        let mut off = 0usize;
        for b in graph.beliefs_mut().iter_mut() {
            let c = b.len();
            *b = credo_graph::Belief::from_slice(&beliefs[off..off + c]);
            off += c;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::ParNodeEngine;
    use credo_graph::generators::{grid, kronecker, synthetic, GenOptions, PotentialKind};

    fn beliefs_bitwise_equal(a: &BeliefGraph, b: &BeliefGraph) -> bool {
        a.beliefs().iter().zip(b.beliefs()).all(|(x, y)| {
            x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(p, q)| p.to_bits() == q.to_bits())
        })
    }

    #[test]
    fn sharded_is_bitwise_identical_to_resident_par_node() {
        // One pool matrix (shared smoothing) and two (shared random,
        // asymmetric): both take the cached path in full sweeps.
        let kinds = [
            ("smoothing", GenOptions::new(3).with_seed(21)),
            (
                "shared-random",
                GenOptions::new(3)
                    .with_seed(21)
                    .with_potentials(PotentialKind::SharedRandom),
            ),
        ];
        for (kind, gen) in kinds {
            for shards in [1usize, 2, 8] {
                for threads in [1usize, 3] {
                    let at = format!("{kind}, shards={shards}, threads={threads}");
                    let mut g1 = synthetic(120, 480, &gen);
                    let mut g2 = g1.clone();
                    let opts = BpOptions::default().with_threads(threads);
                    let s1 = ParNodeEngine.run(&mut g1, &opts).unwrap();
                    let s2 = ShardedEngine::new(shards).run(&mut g2, &opts).unwrap();
                    assert_eq!(s1.iterations, s2.iterations, "{at}");
                    assert_eq!(s1.node_updates, s2.node_updates, "{at}");
                    assert_eq!(s1.message_updates, s2.message_updates, "{at}");
                    for (a, b) in s1.per_iteration.iter().zip(&s2.per_iteration) {
                        assert_eq!(a.delta.to_bits(), b.delta.to_bits(), "{at}");
                    }
                    assert!(beliefs_bitwise_equal(&g1, &g2), "{at}");
                }
            }
        }
    }

    #[test]
    fn sharded_handles_per_edge_potentials_and_grids() {
        let opts_gen = GenOptions::new(2)
            .with_seed(5)
            .with_potentials(PotentialKind::PerEdgeRandom);
        let mut g1 = synthetic(90, 270, &opts_gen);
        let mut g2 = g1.clone();
        ParNodeEngine.run(&mut g1, &BpOptions::default()).unwrap();
        ShardedEngine::new(3)
            .run(&mut g2, &BpOptions::default())
            .unwrap();
        assert!(beliefs_bitwise_equal(&g1, &g2));

        let mut g1 = grid(12, 12, &GenOptions::new(2).with_seed(8));
        let mut g2 = g1.clone();
        ParNodeEngine.run(&mut g1, &BpOptions::default()).unwrap();
        ShardedEngine::new(5)
            .run(&mut g2, &BpOptions::default())
            .unwrap();
        assert!(beliefs_bitwise_equal(&g1, &g2));
    }

    #[test]
    fn sharded_respects_observed_nodes() {
        let mut g = kronecker(6, 7, &GenOptions::new(2).with_seed(3));
        g.observe(5, 1);
        let before = g.beliefs()[5];
        let mut reference = g.clone();
        ShardedEngine::new(4)
            .run(&mut g, &BpOptions::default())
            .unwrap();
        ParNodeEngine
            .run(&mut reference, &BpOptions::default())
            .unwrap();
        assert_eq!(g.beliefs()[5], before);
        assert!(beliefs_bitwise_equal(&g, &reference));
    }

    #[test]
    fn session_cold_run_matches_run_sharded() {
        let g = synthetic(100, 400, &GenOptions::new(3).with_seed(11));
        let mut sx1 = ShardedExec::compile(&g, 4);
        let mut sx2 = sx1.clone();
        let opts = BpOptions::default();
        let trace = Dispatch::none();
        let (stats1, b1) = run_sharded("A", &mut sx1, &opts, &trace, 1, None).unwrap();
        let mut session = ShardedSession::new(&mut sx2, 1).unwrap();
        let stats2 = session.run("B", &mut sx2, &opts, &trace).unwrap();
        let b2 = session.beliefs();
        assert_eq!(stats1.iterations, stats2.iterations);
        assert_eq!(stats1.message_updates, stats2.message_updates);
        for (x, y) in b1.iter().zip(&b2) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (a, b) in stats1.per_iteration.iter().zip(&stats2.per_iteration) {
            assert_eq!(a.delta.to_bits(), b.delta.to_bits());
        }
    }

    #[test]
    fn session_evidence_delta_matches_compiled_evidence() {
        // Pinning evidence into a fresh session must be bit-identical to
        // baking the same evidence into the graph and compiling — the
        // distributed serving path's correctness contract.
        let base = synthetic(80, 320, &GenOptions::new(2).with_seed(17));
        let evidence = [(5u32, 1u32), (41, 0), (79, 1)];
        let opts = BpOptions::default();
        let trace = Dispatch::none();

        let mut observed = base.clone();
        for &(v, s) in &evidence {
            observed.observe(v, s as usize);
        }
        let mut g1 = observed.clone();
        ShardedEngine::new(4).run(&mut g1, &opts).unwrap();
        let reference: Vec<f32> = g1
            .beliefs()
            .iter()
            .flat_map(|b| b.as_slice().iter().copied())
            .collect();

        let mut sx = ShardedExec::compile(&base, 4);
        let mut session = ShardedSession::new(&mut sx, 1).unwrap();
        session.apply_evidence(&mut sx, &evidence, &[]).unwrap();
        session.run("dist", &mut sx, &opts, &trace).unwrap();
        for (x, y) in reference.iter().zip(&session.beliefs()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(session.evidence().len(), 3);
    }

    /// Every shard's collect: `(full, nodes, packed)`.
    type Collected = Vec<(bool, Vec<u32>, Vec<f32>)>;

    fn collect_all(session: &mut ShardedSession, sx: &ShardedExec) -> Collected {
        session
            .states
            .iter_mut()
            .zip(&sx.shards)
            .map(|(st, shard)| {
                let (mut nodes, mut packed) = (Vec::new(), Vec::new());
                let full = st.take_changed(shard, &mut nodes, &mut packed);
                (full, nodes, packed)
            })
            .collect()
    }

    #[test]
    fn session_reset_then_rerun_is_reproducible() {
        let base = synthetic(60, 240, &GenOptions::new(2).with_seed(9));
        let opts = BpOptions::default();
        let trace = Dispatch::none();
        let mut sx = ShardedExec::compile(&base, 3);
        let mut session = ShardedSession::new(&mut sx, 1).unwrap();
        // A cold run, then a warm follow-up with different evidence;
        // each followed by a collect.
        let pass = |session: &mut ShardedSession, sx: &mut ShardedExec| {
            session.apply_evidence(sx, &[(7, 1)], &[]).unwrap();
            session.run("dist", sx, &opts, &trace).unwrap();
            let cold = (session.beliefs(), collect_all(session, sx));
            let before = session.beliefs();
            session.apply_evidence(sx, &[(30, 0)], &[7]).unwrap();
            session.run("dist", sx, &opts, &trace).unwrap();
            let after = session.beliefs();
            let warm = collect_all(session, sx);
            (cold, warm, before, after)
        };
        let (first, first_warm, before, after) = pass(&mut session, &mut sx);
        assert!(first.1.iter().all(|(full, _, _)| *full));
        // The warm collect names, ascending, at least every node whose
        // bits moved, with its current beliefs.
        for (k, (full, nodes, packed)) in first_warm.iter().enumerate() {
            assert!(!full);
            assert!(nodes.windows(2).all(|w| w[0] < w[1]));
            let (lo, hi) = sx.meta.ranges[k];
            let mut at = 0;
            for v in lo..hi {
                let (a, b) = (
                    session.node_slice(&before, v),
                    session.node_slice(&after, v),
                );
                let listed = nodes.binary_search(&(v - lo)).is_ok();
                if listed {
                    assert_eq!(&packed[at..at + b.len()], b, "node {v}");
                    at += b.len();
                }
                let moved = a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits());
                assert!(listed || !moved, "node {v} moved but was not collected");
            }
            assert_eq!(at, packed.len());
        }
        assert!(first_warm.iter().any(|(_, nodes, _)| !nodes.is_empty()));

        // Reset and replay: bitwise the same answers and the same collects.
        session.reset(&mut sx).unwrap();
        assert!(session.evidence().is_empty());
        let (again, again_warm, _, _) = pass(&mut session, &mut sx);
        for (x, y) in first.0.iter().zip(&again.0) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let bits = |c: &Collected| -> Vec<(bool, Vec<u32>, Vec<u32>)> {
            c.iter()
                .map(|(f, n, p)| (*f, n.clone(), p.iter().map(|x| x.to_bits()).collect()))
                .collect()
        };
        assert_eq!(bits(&first.1), bits(&again.1));
        assert_eq!(bits(&first_warm), bits(&again_warm));
    }

    #[test]
    fn warm_rerun_with_same_evidence_converges_immediately_and_agrees() {
        let base = synthetic(70, 280, &GenOptions::new(2).with_seed(23));
        let opts = BpOptions::default();
        let trace = Dispatch::none();
        let mut sx = ShardedExec::compile(&base, 4);
        let mut session = ShardedSession::new(&mut sx, 1).unwrap();
        session.apply_evidence(&mut sx, &[(3, 1)], &[]).unwrap();
        let cold = session.run("dist", &mut sx, &opts, &trace).unwrap();
        let cold_beliefs = session.beliefs();
        let warm = session.run("dist", &mut sx, &opts, &trace).unwrap();
        // A warm rerun starts at the converged point: it must converge
        // again at most as slowly, and stay within the convergence
        // threshold of the cold posterior (exact idempotency for repeated
        // queries is the posterior cache's job, not the sweep's).
        assert!(warm.converged);
        assert!(
            warm.iterations <= cold.iterations,
            "warm rerun took {} iterations, cold took {}",
            warm.iterations,
            cold.iterations
        );
        let drift: f32 = cold_beliefs
            .iter()
            .zip(&session.beliefs())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(drift <= opts.threshold, "warm drift {drift} over threshold");
    }

    /// A seeded stream of absolute 8-observation evidence sets: each
    /// request keeps some of the previous set (repeat), drops some
    /// (clear) and adds new nodes (observe); every third request repeats
    /// an earlier set outright.
    fn evidence_stream(nodes: u32, requests: usize, seed: u64) -> Vec<Vec<(u32, u32)>> {
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut out: Vec<Vec<(u32, u32)>> = Vec::new();
        for r in 0..requests {
            if r % 3 == 2 {
                let back = out[r - 2].clone();
                out.push(back);
                continue;
            }
            let mut ev: BTreeMap<u32, u32> = out
                .last()
                .map(|p| p.iter().copied().take(4).collect())
                .unwrap_or_default();
            while ev.len() < 8 {
                ev.insert((next() % u64::from(nodes)) as u32, (next() % 2) as u32);
            }
            out.push(ev.into_iter().collect());
        }
        out
    }

    /// The (observe, clear) delta from `current` to the absolute `target`.
    fn delta_to(
        current: &BTreeMap<u32, u32>,
        target: &[(u32, u32)],
    ) -> (Vec<(u32, u32)>, Vec<u32>) {
        let want: BTreeMap<u32, u32> = target.iter().copied().collect();
        let observe = want
            .iter()
            .filter(|(v, s)| current.get(v) != Some(s))
            .map(|(&v, &s)| (v, s))
            .collect();
        let clear = current
            .keys()
            .filter(|v| !want.contains_key(v))
            .copied()
            .collect();
        (observe, clear)
    }

    /// Replays `stream` through one warm session; returns, per request,
    /// the packed beliefs, the iteration count and the node updates.
    fn replay_warm(
        base: &BeliefGraph,
        shards: usize,
        threads: usize,
        stream: &[Vec<(u32, u32)>],
    ) -> Vec<(Vec<f32>, u32, u64)> {
        let opts = BpOptions::default();
        let trace = Dispatch::none();
        let mut sx = ShardedExec::compile(base, shards);
        let mut session = ShardedSession::new(&mut sx, threads).unwrap();
        stream
            .iter()
            .map(|ev| {
                let (observe, clear) = delta_to(session.evidence(), ev);
                session.apply_evidence(&mut sx, &observe, &clear).unwrap();
                let stats = session.run("warm", &mut sx, &opts, &trace).unwrap();
                assert!(stats.converged);
                (session.beliefs(), stats.iterations, stats.node_updates)
            })
            .collect()
    }

    /// Max |warm − converged| over all nodes and requests of the seeded
    /// stream in `warm_stream_stays_as_close_to_converged_as_full_sweeps`,
    /// measured with the full-sweep warm schedule (every warm sweep a
    /// full sweep) before the queue phase existed. The two-phase schedule
    /// measures the same value. "Converged" is the cold run continued to
    /// 100 sweeps (threshold 1e-6, which f32 rounding keeps it from
    /// reaching). Against the cold run at the default threshold the gaps
    /// are 3.2901764e-5 (full sweeps) and 3.2953918e-5 (two-phase): one
    /// f32 ulp apart at one node, where that cold answer itself sits
    /// 3.2901764e-5 from the converged one.
    const FULL_SWEEP_WARM_GAP: f32 = 1.6883016e-5;

    #[test]
    fn warm_stream_stays_as_close_to_converged_as_full_sweeps() {
        let base = synthetic(2000, 8000, &GenOptions::new(2).with_seed(42));
        let stream = evidence_stream(2000, 8, 1);
        let warm = replay_warm(&base, 2, 1, &stream);
        let converged = BpOptions::default()
            .with_threshold(1e-6)
            .with_max_iterations(100);
        let mut gap = 0.0f32;
        for (ev, (got, _, _)) in stream.iter().zip(&warm) {
            let mut g = base.clone();
            for &(v, s) in ev {
                g.observe(v, s as usize);
            }
            ShardedEngine::new(2).run(&mut g, &converged).unwrap();
            let reference = g.beliefs().iter().flat_map(|b| b.as_slice().iter());
            for (x, y) in got.iter().zip(reference) {
                gap = gap.max((x - y).abs());
            }
        }
        assert!(
            gap <= FULL_SWEEP_WARM_GAP,
            "warm gap {gap:e} over the full-sweep schedule's {FULL_SWEEP_WARM_GAP:e}"
        );
    }

    #[test]
    fn warm_stream_is_bitwise_invariant_across_shards_and_threads() {
        let base = synthetic(300, 1200, &GenOptions::new(2).with_seed(42));
        let stream = evidence_stream(300, 7, 9001);
        let reference = replay_warm(&base, 1, 1, &stream);
        // Queue sweeps must actually skip work, or this pins nothing new.
        let full: u64 = reference
            .iter()
            .map(|(_, it, _)| u64::from(*it) * 292)
            .sum();
        let done: u64 = reference.iter().map(|(_, _, n)| n).sum();
        assert!(
            done < full,
            "{done} node updates, full sweeps would do {full}"
        );
        for shards in [1usize, 2, 3] {
            for threads in [1usize, 3] {
                let got = replay_warm(&base, shards, threads, &stream);
                for (r, ((gb, gi, gn), (wb, wi, wn))) in got.iter().zip(&reference).enumerate() {
                    let at = format!("request {r}, shards={shards}, threads={threads}");
                    assert_eq!((gi, gn), (wi, wn), "{at}");
                    assert!(
                        gb.iter().zip(wb).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{at}"
                    );
                }
            }
        }
    }

    /// One Jacobi sweep of `nodes` written out plainly, one kernel call
    /// per arc: the reference a cached [`sweep_shard`] must match bit for
    /// bit. Returns the new local beliefs and the per-node diffs.
    fn per_arc_sweep(shard: &ExecShard, prev: &[f32], nodes: &[u32]) -> (Vec<f32>, Vec<f32>) {
        let mut next = prev[..shard.local_len()].to_vec();
        let mut diffs = Vec::new();
        for &v in nodes {
            let (off, c) = (shard.slot_off(v as usize), shard.slot_card(v as usize));
            let mut acc = shard.priors[off..off + c].to_vec();
            let mut msg = vec![0.0f32; c];
            for (j, arc) in shard.in_arcs_of(v as usize).iter().enumerate() {
                let s = arc.src_off as usize;
                let src = &prev[s..s + arc.src_card as usize];
                kernels::message_packed(src, shard.potential(arc), &mut msg);
                kernels::mul_assign_packed(&mut acc, &msg);
                if j % 8 == 7 {
                    kernels::scale_max_to_one_packed(&mut acc);
                }
            }
            kernels::normalize_packed(&mut acc);
            diffs.push(kernels::l1_diff_packed(&acc, &prev[off..off + c]));
            next[off..off + c].copy_from_slice(&acc);
        }
        (next, diffs)
    }

    /// [`ShardedSession::run`]'s sweep loop on `session`'s own states and
    /// frontier, checking every full sweep of every shard against
    /// [`per_arc_sweep`]. Returns (queue sweeps, full sweeps, full sweeps
    /// that read a fresh message cache).
    fn run_checked(
        session: &mut ShardedSession,
        sx: &ShardedExec,
        opts: &BpOptions,
        at: &str,
    ) -> (u32, u32, u32) {
        let shards = sx.shards.len();
        let cold = std::mem::replace(&mut session.cold, false);
        let (mut slots, mut values) = (Vec::new(), Vec::new());
        for (k, shard) in sx.shards.iter().enumerate() {
            session.states[k].take_exports(shard, cold, &mut slots, &mut values);
            session.frontier.publish(k, &slots, &values).unwrap();
        }
        if cold {
            session.frontier.resync();
        }
        let mut schedule = SweepSchedule::new(opts, !cold && session.queued());
        let mut reports = vec![SweepReport::default(); shards];
        let mut exported = vec![Vec::new(); shards];
        let mut swept = vec![false; shards];
        let (mut queue_sweeps, mut full_sweeps, mut cached) = (0, 0, 0);
        loop {
            let phase = schedule.phase();
            let mut sum = 0.0f32;
            for (k, shard) in sx.shards.iter().enumerate() {
                let st = &mut session.states[k];
                swept[k] = match phase {
                    SweepPhase::Full => !st.active.is_empty(),
                    SweepPhase::Queue => st.queued() > 0 || session.frontier.has_wakes(k),
                };
                if !swept[k] {
                    continue;
                }
                session.frontier.take_halo(k, &mut slots, &mut values);
                st.apply_halo(shard, &slots, &values).unwrap();
                let want =
                    (phase == SweepPhase::Full).then(|| per_arc_sweep(shard, &st.prev, &st.active));
                let report = &mut reports[k];
                sweep_shard(
                    shard,
                    st,
                    phase,
                    opts.queue_threshold,
                    &session.pool,
                    session.threads,
                    report,
                );
                if let Some((next, diffs)) = want {
                    let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    let sweep = schedule.tracker().iterations();
                    assert_eq!(
                        bits(&report.diffs),
                        bits(&diffs),
                        "{at}: sweep {sweep}, shard {k} diffs"
                    );
                    assert_eq!(
                        bits(&st.prev[..shard.local_len()]),
                        bits(&next),
                        "{at}: sweep {sweep}, shard {k} beliefs"
                    );
                    cached += u32::from(st.scratch.cache.is_fresh());
                }
                st.export_values(shard, &report.exports, &mut exported[k]);
                for &d in &report.diffs {
                    sum += d;
                }
            }
            for k in (0..shards).filter(|&k| swept[k]) {
                session
                    .frontier
                    .publish(k, &reports[k].exports, &exported[k])
                    .unwrap();
            }
            match phase {
                SweepPhase::Queue => queue_sweeps += 1,
                SweepPhase::Full => full_sweeps += 1,
            }
            if !schedule.record(sum, session.queued()) {
                break;
            }
        }
        for st in &mut session.states {
            st.clear_queue();
        }
        session.frontier.clear_wakes();
        (queue_sweeps, full_sweeps, cached)
    }

    #[test]
    fn cached_sweeps_match_a_per_arc_sweep_bitwise() {
        // One pool matrix, two (asymmetric: a shard may intern either
        // orientation first), and per-edge matrices (cache off).
        let kinds = [
            ("smoothing", PotentialKind::SharedSmoothing(0.3), true),
            ("shared-random", PotentialKind::SharedRandom, true),
            ("per-edge", PotentialKind::PerEdgeRandom, false),
        ];
        let opts = BpOptions::default();
        for (kind, potentials, caches) in kinds {
            let gen = GenOptions::new(2).with_seed(42).with_potentials(potentials);
            let base = synthetic(400, 1600, &gen);
            let stream = evidence_stream(400, 7, 5);
            let mut sx = ShardedExec::compile(&base, 3);
            if kind == "shared-random" {
                assert!(sx.shards.iter().all(|s| s.pool_matrices == 2));
            }
            let mut checked = ShardedSession::new(&mut sx, 2).unwrap();
            let mut plain = ShardedSession::new(&mut sx, 2).unwrap();
            let (mut queue_sweeps, mut full_sweeps, mut cached) = (0, 0, 0);
            for (r, ev) in stream.iter().enumerate() {
                let at = format!("{kind}, request {r}");
                let (observe, clear) = delta_to(checked.evidence(), ev);
                checked.apply_evidence(&mut sx, &observe, &clear).unwrap();
                plain.apply_evidence(&mut sx, &observe, &clear).unwrap();
                let (q, f, c) = run_checked(&mut checked, &sx, &opts, &at);
                (queue_sweeps, full_sweeps, cached) =
                    (queue_sweeps + q, full_sweeps + f, cached + c);
                // The checked loop is the session's own schedule.
                plain
                    .run("plain", &mut sx, &opts, &Dispatch::none())
                    .unwrap();
                let (a, b) = (checked.beliefs(), plain.beliefs());
                assert!(
                    a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{at}"
                );
            }
            assert!(queue_sweeps > 0 && full_sweeps > 0, "{kind}: both phases");
            if caches {
                assert_eq!(cached, full_sweeps * 3, "{kind}: every full sweep cached");
            } else {
                assert_eq!(cached, 0, "{kind}: per-edge matrices never cache");
            }
        }
    }

    #[test]
    fn frontier_sync_ships_only_moved_entries_and_routes_wakes() {
        let g = grid(4, 4, &GenOptions::new(2).with_seed(1));
        let sx = ShardedExec::compile(&g, 2);
        let meta = &sx.meta;
        let mut sync = FrontierSync::new(meta);
        let (mut slots, mut halo) = (Vec::new(), Vec::new());
        sync.take_halo(1, &mut slots, &mut halo);
        assert!(slots.is_empty(), "a fresh exchange starts in sync");

        // Shard 0 republishes its first export unchanged, then moved
        // with a wake bit: only the second reaches shard 1.
        let c = meta.exports[0][0];
        let old = meta.frontier_init[c.frontier_off as usize..][..c.card as usize].to_vec();
        sync.publish(0, &[0], &old).unwrap();
        sync.take_halo(1, &mut slots, &mut halo);
        assert!(slots.is_empty());
        let moved = vec![0.25f32, 0.75];
        sync.publish(0, &[WAKE], &moved).unwrap();
        assert!(sync.has_wakes(1) && !sync.has_wakes(0));
        sync.take_halo(1, &mut slots, &mut halo);
        let import = meta.imports[1]
            .iter()
            .position(|i| i.frontier_off == c.frontier_off)
            .unwrap() as u32;
        assert_eq!(slots, vec![import | WAKE]);
        assert_eq!(halo, moved);
        assert!(!sync.any_wakes());

        // Bad entries are rejected whole, before anything is written.
        let n = meta.exports[0].len() as u32;
        assert!(sync.publish(0, &[0, n], &[0.5; 4]).is_err());
        assert!(sync.publish(0, &[0], &[0.5; 3]).is_err());
        sync.take_halo(1, &mut slots, &mut halo);
        assert!(slots.is_empty());
    }

    #[test]
    fn shard_state_rejects_out_of_range_halo_entries() {
        let g = grid(4, 4, &GenOptions::new(2).with_seed(1));
        let sx = ShardedExec::compile(&g, 2);
        let shard = &sx.shards[1];
        let mut st = ShardState::with_queue(shard, &sx.meta.exports[1]).unwrap();
        let before = st.prev.clone();
        let n = shard.halo.len() as u32;
        assert!(st.apply_halo(shard, &[0, n], &[0.5; 4]).is_err());
        assert!(st.apply_halo(shard, &[WAKE], &[0.5; 3]).is_err());
        assert_eq!(st.prev, before);
        assert_eq!(st.queued(), 0);
        st.apply_halo(shard, &[WAKE], &[0.5; 2]).unwrap();
        assert!(st.queued() > 0, "a woken halo slot queues its readers");
    }

    #[test]
    fn queue_phase_leaves_the_last_sweep_of_the_budget_full() {
        let opts = BpOptions::default().with_max_iterations(3);
        let mut schedule = SweepSchedule::new(&opts, true);
        assert_eq!(schedule.phase(), SweepPhase::Queue);
        assert!(schedule.record(10.0, true));
        assert_eq!(schedule.phase(), SweepPhase::Queue);
        assert!(schedule.record(10.0, true));
        assert_eq!(schedule.phase(), SweepPhase::Full, "the last sweep is full");
        assert!(!schedule.record(10.0, true));
        assert_eq!(schedule.full_sweeps(), 1);
        assert!(!schedule.tracker().converged());

        let one = BpOptions::default().with_max_iterations(1);
        assert_eq!(SweepSchedule::new(&one, true).phase(), SweepPhase::Full);
    }

    #[test]
    fn full_sweep_state_tracks_nothing() {
        // `run_sharded` keeps one state per shard for the whole run: it
        // must hold no reader index and report no moved exports.
        let g = grid(4, 4, &GenOptions::new(2).with_seed(1));
        let sx = ShardedExec::compile(&g, 2);
        let shard = &sx.shards[0];
        let mut st = ShardState::new(shard, None);
        assert!(st.queue.is_none());
        st.apply_evidence(shard, &[(0, 1)], &[]).unwrap();
        assert_eq!(st.queued(), 0);
        let pool = WorkerPool::new(1);
        let mut report = SweepReport::default();
        sweep_shard(shard, &mut st, SweepPhase::Full, 0.0, &pool, 1, &mut report);
        assert_eq!(report.diffs.len(), st.active.len());
        assert!(report.exports.is_empty());
    }

    #[test]
    fn more_shards_than_nodes_is_fine() {
        let mut g1 = synthetic(5, 10, &GenOptions::new(2).with_seed(2));
        let mut g2 = g1.clone();
        ParNodeEngine.run(&mut g1, &BpOptions::default()).unwrap();
        ShardedEngine::new(16)
            .run(&mut g2, &BpOptions::default())
            .unwrap();
        assert!(beliefs_bitwise_equal(&g1, &g2));
    }
}
