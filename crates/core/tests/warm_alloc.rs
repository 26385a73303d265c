//! A warm `WarmState::run_from` allocates what its frontier needs, not
//! what the graph holds.
//!
//! The binary installs a counting global allocator (as the `workqueue`
//! bench does) and measures the bytes one warm run allocates on a 5k-node
//! and on a 50k-node graph under the same evidence delta. The run scratch
//! — belief buffer, diff slots, work queue, in-degrees — is sized by the
//! cold run that precedes the warm ones, so a warm run's allocations must
//! not grow with N. This file holds a single test: the counter is global,
//! and a second test running in parallel would pollute it.

use credo_core::{BpOptions, Dispatch, EvidenceDelta, WarmPolicy, WarmState};
use credo_graph::generators::{synthetic, GenOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`System`] wrapper that counts allocated bytes (`alloc` sizes plus
/// `realloc` growth).
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; the counter is a plain
// relaxed atomic add.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        BYTES.fetch_add(grown as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated by one warm run of `delta` on a converged
/// `nodes`-node graph, after warm-up runs that size the scratch.
fn warm_run_bytes(nodes: usize) -> u64 {
    let g = synthetic(nodes, nodes * 4, &GenOptions::new(2).with_seed(42));
    let mut state = WarmState::new(g, 1);
    let opts = BpOptions::default();
    let policy = WarmPolicy::default();
    let run = |state: &mut WarmState, delta: &EvidenceDelta| {
        state
            .run_from("C Node", delta, &opts, &policy, &Dispatch::none())
            .unwrap()
    };
    assert!(!run(&mut state, &EvidenceDelta::none()).warm);
    // Warm-up: one observe and one clear grow the queue's buffers.
    let warmup = [(101u32, 1u32), (2203, 0), (3307, 1), (4409, 0)];
    assert!(run(&mut state, &EvidenceDelta::observing(&warmup)).warm);
    let clear = EvidenceDelta {
        observe: Vec::new(),
        clear: warmup.iter().map(|&(v, _)| v).collect(),
    };
    assert!(run(&mut state, &clear).warm);

    let delta = EvidenceDelta::observing(&[(17, 1), (1234, 0), (3000, 1), (4500, 0)]);
    let before = BYTES.load(Ordering::Relaxed);
    let warm = run(&mut state, &delta);
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    assert!(warm.warm && warm.stats.converged);
    bytes
}

#[test]
fn warm_run_allocations_do_not_grow_with_graph_size() {
    let small = warm_run_bytes(5_000);
    let large = warm_run_bytes(50_000);
    // The per-run allocations are the frontier, the evidence bookkeeping
    // and per-iteration records: 592 B on both graphs when measured.
    // Before the scratch was kept they were about 29 bytes per node (a
    // belief copy, diffs, in-degrees, the unobserved list, the queue's
    // flags and its initial active set): 156 KB and 1.4 MB.
    assert!(
        large < 2 * small + 4096,
        "warm run allocated {large} B at 50k nodes vs {small} B at 5k"
    );
    assert!(
        large < 50_000,
        "warm run allocated {large} B at 50k nodes, at least a byte per node"
    );
}
