//! The per-source message cache every node sweep shares.
//!
//! With the paper's §2.2 shared joint matrix, every arc leaving a node
//! under the same matrix carries the same message. A shared store lowers
//! to at most two pool matrices (the forward matrix and, unless it is
//! symmetric, its transpose), so one mat-vec per source slot per matrix
//! covers the whole arc set. [`MsgCache`] holds those messages for the
//! resident plan runner ([`crate::plan`]) and for [`crate::sweep_shard`],
//! where the slots are the shard's local nodes plus its halo.
//!
//! # When it turns on
//!
//! The layout must qualify, and so must the sweep:
//! - the pool holds one or two square matrices of one cardinality `c`,
//!   and every slot has `c` states;
//! - the sweep computes at least a quarter of the nodes. Refreshing
//!   touches every slot, so a small queue sweep computes its arcs one by
//!   one instead.
//!
//! Cached values come from the same [`kernels::message_packed`] call the
//! per-arc path makes, so results are bit-identical whether or not the
//! cache is fresh.

use crate::math::kernels;
use crate::openmp::SharedSlice;
use crate::par::{range_chunks, WorkerPool};
use credo_graph::{PackedArc, MAX_BELIEFS};

/// One message per source slot and pool matrix, refreshed from the
/// beliefs at the start of each qualifying sweep.
pub(crate) struct MsgCache {
    /// One array per pool matrix, back to back, each laid out like the
    /// packed beliefs: the second starts at `len`.
    msgs: Vec<f32>,
    /// The cardinality of every slot and matrix side; 0 when the layout
    /// does not qualify.
    card: usize,
    matrices: usize,
    /// Packed floats per array.
    len: usize,
    fresh: bool,
}

impl MsgCache {
    /// A cache for a layout whose slots all have `slot_card` states (or
    /// `None` when they differ) over a pool of `matrices` matrices in
    /// `pot_pool`. Allocates nothing until the first qualifying refresh.
    pub(crate) fn new(slot_card: Option<usize>, matrices: usize, pot_pool: &[f32]) -> MsgCache {
        let card = match slot_card {
            Some(c) if (1..=2).contains(&matrices) && pot_pool.len() == matrices * c * c => c,
            _ => 0,
        };
        MsgCache {
            msgs: Vec::new(),
            card,
            matrices,
            len: 0,
            fresh: false,
        }
    }

    /// Recomputes every slot's messages from the packed `prev` beliefs,
    /// in parallel on `pool`, when the layout qualifies
    /// and the sweep computes at least a quarter of the `nodes` nodes
    /// (`swept` of them); otherwise marks the cache stale.
    pub(crate) fn refresh(
        &mut self,
        pot_pool: &[f32],
        pool: &WorkerPool,
        prev: &[f32],
        swept: usize,
        nodes: usize,
    ) {
        self.fresh = false;
        let c = self.card;
        if c == 0 || swept * 4 < nodes {
            return;
        }
        self.len = prev.len();
        self.msgs.resize(self.matrices * self.len, 0.0);
        let (len, matrices) = (self.len, self.matrices);
        let chunks = range_chunks(len / c, pool.threads());
        let msgs = SharedSlice::new(&mut self.msgs);
        let chunks_ref = &chunks;
        pool.broadcast(&|i| {
            let Some(&(lo, hi)) = chunks_ref.get(i) else {
                return;
            };
            for s in lo..hi {
                let off = s * c;
                let src = &prev[off..off + c];
                for m in 0..matrices {
                    let pot = &pot_pool[m * c * c..(m + 1) * c * c];
                    // SAFETY: slot ranges are disjoint; one writer per
                    // message.
                    let out =
                        unsafe { std::slice::from_raw_parts_mut(msgs.ptr_at(m * len + off), c) };
                    kernels::message_packed(src, pot, out);
                }
            }
        });
        self.fresh = true;
    }

    /// Whether the last refresh filled the cache.
    #[cfg(test)]
    pub(crate) fn is_fresh(&self) -> bool {
        self.fresh
    }

    /// The message along `arc` given the packed `prev` beliefs: a cache
    /// read when fresh, otherwise one kernel call into `buf`.
    #[inline]
    pub(crate) fn arc_message<'a>(
        &'a self,
        pot_pool: &[f32],
        arc: &PackedArc,
        prev: &[f32],
        buf: &'a mut [f32; MAX_BELIEFS],
    ) -> &'a [f32] {
        let c = arc.dst_card as usize;
        if self.fresh {
            // Two matrices sit at offsets 0 and c·c, in the order the
            // pool interned them.
            let lo = arc.src_off as usize + if arc.pot_off == 0 { 0 } else { self.len };
            &self.msgs[lo..lo + c]
        } else {
            let s = arc.src_off as usize;
            let src = &prev[s..s + arc.src_card as usize];
            let p = arc.pot_off as usize;
            let pot = &pot_pool[p..p + arc.src_card as usize * c];
            kernels::message_packed(src, pot, &mut buf[..c]);
            &buf[..c]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_small_square_pools_of_one_cardinality_qualify() {
        let two = [0.5f32; 8];
        assert_eq!(MsgCache::new(Some(2), 2, &two).card, 2);
        assert_eq!(MsgCache::new(Some(2), 1, &two[..4]).card, 2);
        // Three matrices, mixed slot cardinalities, or a non-square pool.
        assert_eq!(MsgCache::new(Some(2), 3, &[0.5; 12]).card, 0);
        assert_eq!(MsgCache::new(None, 1, &two[..4]).card, 0);
        assert_eq!(MsgCache::new(Some(2), 1, &[0.5; 6]).card, 0);
        assert_eq!(MsgCache::new(Some(2), 0, &[]).card, 0);
    }

    #[test]
    fn cached_messages_equal_per_arc_messages_by_pool_offset() {
        // The matrix at offset 0 need not be the "forward" one: whatever
        // the pool order, a cached read equals the per-arc kernel call.
        let pool_mats = [0.9f32, 0.1, 0.3, 0.7, 0.2, 0.8, 0.6, 0.4];
        let prev = [0.25f32, 0.75, 0.6, 0.4, 1.0, 0.0];
        let arcs: Vec<PackedArc> = [(0u32, 4u32), (2, 0), (4, 4), (0, 0)]
            .iter()
            .map(|&(src_off, pot_off)| PackedArc {
                src_off,
                pot_off,
                src_card: 2,
                dst_card: 2,
            })
            .collect();
        let pool = WorkerPool::new(2);
        let mut cache = MsgCache::new(Some(2), 2, &pool_mats);
        let mut stale = [0.0f32; MAX_BELIEFS];
        let mut buf = [0.0f32; MAX_BELIEFS];
        cache.refresh(&pool_mats, &pool, &prev, 0, 3);
        assert!(
            !cache.fresh,
            "a sweep under a quarter of the nodes stays per-arc"
        );
        cache.refresh(&pool_mats, &pool, &prev, 1, 3);
        assert!(cache.fresh);
        for arc in &arcs {
            let want: Vec<u32> = MsgCache::new(None, 0, &[])
                .arc_message(&pool_mats, arc, &prev, &mut stale)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let got: Vec<u32> = cache
                .arc_message(&pool_mats, arc, &prev, &mut buf)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(got, want, "{arc:?}");
        }
    }
}
