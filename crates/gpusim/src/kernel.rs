//! Kernel launch: functional execution plus the timing model.

use crate::device::Device;
use std::num::NonZeroUsize;
use std::time::Duration;

/// Maps `f` over `0..n` on scoped host threads, one contiguous chunk per
/// available core, and returns the results in index order.
fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let workers = cores.min(n).max(1);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| scope.spawn(move || (lo..(lo + chunk).min(n)).map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("kernel block worker panicked"))
            .collect()
    })
}

/// Grid configuration for a kernel launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid_blocks: u32,
    /// Threads per block (the paper uses 1024 throughout §4).
    pub block_threads: u32,
    /// Number of distinct addresses the kernel's atomics target (0 = "as
    /// many as there are atomics", i.e. uncontended). Drives the
    /// serialization penalty.
    pub atomic_targets: u64,
    /// Kernel name reported to the profiler (nvprof-style timeline label).
    pub name: &'static str,
}

impl LaunchConfig {
    /// One thread per item with the given block size.
    pub fn for_items(items: usize, block_threads: u32) -> Self {
        let bt = block_threads.max(1);
        LaunchConfig {
            grid_blocks: (items as u64).div_ceil(bt as u64).max(1) as u32,
            block_threads: bt,
            atomic_targets: 0,
            name: "kernel",
        }
    }

    /// Sets the distinct atomic-target count.
    pub fn with_atomic_targets(mut self, targets: u64) -> Self {
        self.atomic_targets = targets;
        self
    }

    /// Names the kernel for the profiler timeline.
    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> u64 {
        self.grid_blocks as u64 * self.block_threads as u64
    }
}

/// Per-thread work recorder handed to kernel closures. Everything recorded
/// here feeds the timing model; nothing affects functional results.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadCtx {
    cycles: f64,
    effective_global_bytes: f64,
    global_accesses: u64,
    atomics: u64,
    local_state_bytes: u32,
    // arch constants copied in at launch
    transaction_bytes: f64,
    global_access_cycles: f64,
    shared_access_cycles: f64,
    constant_access_cycles: f64,
    atomic_base_cycles: f64,
}

impl ThreadCtx {
    fn new(p: &crate::arch::ArchProfile) -> Self {
        ThreadCtx {
            transaction_bytes: p.mem_transaction_bytes as f64,
            global_access_cycles: p.global_access_cycles,
            shared_access_cycles: p.shared_access_cycles,
            constant_access_cycles: p.constant_access_cycles,
            atomic_base_cycles: p.atomic_base_cycles,
            ..Default::default()
        }
    }

    fn reset_counters(&mut self) {
        self.cycles = 0.0;
        self.effective_global_bytes = 0.0;
        self.global_accesses = 0;
        self.atomics = 0;
        // local_state_bytes is kernel-wide, not reset per thread
    }

    /// Records `n` arithmetic operations (1 cycle each).
    #[inline]
    pub fn flops(&mut self, n: u64) {
        self.cycles += n as f64;
    }

    /// Records a global-memory read of `bytes`. Uncoalesced accesses waste
    /// the rest of each memory transaction, inflating effective traffic.
    #[inline]
    pub fn global_read(&mut self, bytes: u64, coalesced: bool) {
        self.record_global(bytes, coalesced);
    }

    /// Records a global-memory write of `bytes`.
    #[inline]
    pub fn global_write(&mut self, bytes: u64, coalesced: bool) {
        self.record_global(bytes, coalesced);
    }

    #[inline]
    fn record_global(&mut self, bytes: u64, coalesced: bool) {
        let b = bytes as f64;
        let effective = if coalesced {
            b
        } else {
            // A scattered request moves whole transactions regardless of
            // how much of each is used: an 8-byte read costs a full 32-byte
            // transaction, while a 128-byte read coalesces itself.
            (b / self.transaction_bytes).ceil().max(1.0) * self.transaction_bytes
        };
        self.effective_global_bytes += effective;
        self.global_accesses += 1;
        self.cycles += self.global_access_cycles;
    }

    /// Records a read through the constant cache (§3.6 keeps the shared
    /// joint matrix there).
    #[inline]
    pub fn constant_read(&mut self, bytes: u64) {
        // Cached and broadcast: cheap, no bandwidth charge.
        let lines = (bytes as f64 / 64.0).ceil().max(1.0);
        self.cycles += self.constant_access_cycles * lines;
    }

    /// Records `n` shared-memory accesses.
    #[inline]
    pub fn shared_access(&mut self, n: u64) {
        self.cycles += self.shared_access_cycles * n as f64;
    }

    /// Records `n` atomic read-modify-write operations (the functional
    /// side happens in kernel code via [`crate::atomic_mul_f32`] etc.).
    #[inline]
    pub fn atomic(&mut self, n: u64) {
        self.atomics += n;
        self.cycles += self.atomic_base_cycles * n as f64;
    }

    /// Declares the kernel's live per-thread state in bytes (registers /
    /// local arrays); drives the occupancy model. The maximum over all
    /// threads is used.
    #[inline]
    pub fn local_state(&mut self, bytes: u32) {
        self.local_state_bytes = self.local_state_bytes.max(bytes);
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct BlockAgg {
    warp_cycles: f64, // Σ over warps of max-thread-cycles
    effective_bytes: f64,
    atomics: u64,
    max_state: u32,
}

/// Timing breakdown of one kernel launch.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Total simulated time including launch overhead.
    pub sim_time: Duration,
    /// Compute-pipeline component.
    pub compute_time: Duration,
    /// Memory-bandwidth component.
    pub mem_time: Duration,
    /// Atomic-serialization component.
    pub atomic_time: Duration,
    /// Fixed launch overhead.
    pub launch_time: Duration,
    /// Atomic operations performed.
    pub atomics: u64,
    /// Effective global traffic in bytes (after the coalescing model).
    pub effective_bytes: u64,
    /// Occupancy factor applied (1.0 = full).
    pub occupancy: f64,
}

impl Device {
    /// Launches a kernel: runs `f(&mut ctx, global_thread_id)` for every
    /// thread in the grid. Blocks execute in parallel on the host; threads
    /// within a block run sequentially, so intra-block functional behaviour
    /// is deterministic. Advances the simulated clock by the modeled kernel
    /// time and returns the breakdown.
    pub fn launch<F>(&self, cfg: LaunchConfig, f: F) -> KernelStats
    where
        F: Fn(&mut ThreadCtx, usize) + Sync,
    {
        let p = *self.profile();
        assert!(
            cfg.block_threads <= p.max_threads_per_block,
            "block of {} exceeds device limit {}",
            cfg.block_threads,
            p.max_threads_per_block
        );
        let warp = p.warp_size as usize;
        let bt = cfg.block_threads as usize;

        // Functional execution + per-block accounting. Aggregation is
        // collected per block and folded sequentially so the timing is
        // deterministic regardless of host scheduling.
        let aggs: Vec<BlockAgg> = par_map(cfg.grid_blocks as usize, |b| {
            let mut agg = BlockAgg::default();
            let mut ctx = ThreadCtx::new(&p);
            let mut warp_max = 0.0f64;
            for t in 0..bt {
                ctx.reset_counters();
                f(&mut ctx, b * bt + t);
                warp_max = warp_max.max(ctx.cycles);
                agg.effective_bytes += ctx.effective_global_bytes;
                agg.atomics += ctx.atomics;
                if (t + 1) % warp == 0 || t + 1 == bt {
                    agg.warp_cycles += warp_max;
                    warp_max = 0.0;
                }
            }
            agg.max_state = ctx.local_state_bytes;
            agg
        });

        let mut total = BlockAgg::default();
        for a in &aggs {
            total.warp_cycles += a.warp_cycles;
            total.effective_bytes += a.effective_bytes;
            total.atomics += a.atomics;
            total.max_state = total.max_state.max(a.max_state);
        }

        let occupancy = p.occupancy(total.max_state);
        let clock_hz = p.clock_ghz * 1e9;
        // Each SM issues `warp_parallelism` warps per cycle; blocks spread
        // across SMs.
        let device_issue = p.num_sms as f64 * p.warp_parallelism() as f64 * clock_hz;
        let compute_secs = total.warp_cycles / device_issue / occupancy;
        let mem_secs = total.effective_bytes / p.mem_bandwidth;
        let atomic_contention = if cfg.atomic_targets > 0 && total.atomics > 0 {
            let per_target = total.atomics as f64 / cfg.atomic_targets as f64;
            p.atomic_contention_cycles * per_target.ln_1p()
        } else {
            0.0
        };
        let atomic_secs = total.atomics as f64 * atomic_contention / (p.num_sms as f64 * clock_hz);
        let launch_secs = p.kernel_launch_us * 1e-6;
        let sim_secs = launch_secs + compute_secs.max(mem_secs) + atomic_secs;

        let t0 = {
            let mut st = self.inner.state.lock();
            let t0 = st.clock_secs;
            st.clock_secs += sim_secs;
            st.kernel_launches += 1;
            t0
        };
        let trace = self.trace();
        if trace.enabled() {
            let t0_us = t0 * 1e6;
            let launch_end_us = (t0 + launch_secs) * 1e6;
            let end_us = (t0 + sim_secs) * 1e6;
            trace.timed_span(
                crate::device::GPU_TRACK,
                cfg.name,
                t0_us,
                end_us,
                &[
                    ("grid_blocks", cfg.grid_blocks.into()),
                    ("block_threads", cfg.block_threads.into()),
                    ("occupancy", occupancy.into()),
                    ("atomics", total.atomics.into()),
                    ("effective_bytes", (total.effective_bytes as u64).into()),
                ],
            );
            trace.timed_span(
                crate::device::GPU_TRACK,
                "launch",
                t0_us,
                launch_end_us,
                &[],
            );
            trace.timed_span(
                crate::device::GPU_TRACK,
                "execute",
                launch_end_us,
                end_us,
                &[
                    ("compute_us", (compute_secs * 1e6).into()),
                    ("mem_us", (mem_secs * 1e6).into()),
                    ("atomic_us", (atomic_secs * 1e6).into()),
                ],
            );
        }

        KernelStats {
            sim_time: Duration::from_secs_f64(sim_secs),
            compute_time: Duration::from_secs_f64(compute_secs),
            mem_time: Duration::from_secs_f64(mem_secs),
            atomic_time: Duration::from_secs_f64(atomic_secs),
            launch_time: Duration::from_secs_f64(launch_secs),
            atomics: total.atomics,
            effective_bytes: total.effective_bytes as u64,
            occupancy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{PASCAL_GTX1070, VOLTA_V100};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn every_thread_runs_exactly_once() {
        let d = Device::new(PASCAL_GTX1070);
        let n = 10_000usize;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let cfg = LaunchConfig::for_items(n, 256);
        d.launch(cfg, |ctx, tid| {
            ctx.flops(1);
            if tid < n {
                hits[tid].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn launch_overhead_dominates_empty_kernels() {
        let d = Device::new(PASCAL_GTX1070);
        let stats = d.launch(LaunchConfig::for_items(32, 32), |_, _| {});
        // An (almost) empty kernel costs ≈ the launch overhead.
        let ratio = stats.launch_time.as_secs_f64() / stats.sim_time.as_secs_f64();
        assert!(ratio > 0.9, "ratio {ratio}");
    }

    #[test]
    fn uncoalesced_access_costs_more_bandwidth() {
        let d = Device::new(PASCAL_GTX1070);
        let cfg = LaunchConfig::for_items(1 << 16, 1024);
        let coalesced = d.launch(cfg, |ctx, _| ctx.global_read(8, true));
        let scattered = d.launch(cfg, |ctx, _| ctx.global_read(8, false));
        assert!(scattered.effective_bytes >= 4 * coalesced.effective_bytes);
        assert!(scattered.mem_time > coalesced.mem_time);
    }

    #[test]
    fn warp_divergence_is_charged_at_warp_max() {
        let d = Device::new(PASCAL_GTX1070);
        let cfg = LaunchConfig::for_items(1 << 14, 1024);
        // Uniform: every thread 100 flops.
        let uniform = d.launch(cfg, |ctx, _| ctx.flops(100));
        // Divergent: one thread per warp does 3200, the rest 0 — same total
        // work, but the warp pays the max.
        let divergent = d.launch(cfg, |ctx, tid| {
            if tid % 32 == 0 {
                ctx.flops(3200);
            }
        });
        assert!(
            divergent.compute_time > uniform.compute_time * 20,
            "divergent {:?} vs uniform {:?}",
            divergent.compute_time,
            uniform.compute_time
        );
    }

    #[test]
    fn atomic_contention_penalizes_hot_addresses() {
        let d = Device::new(PASCAL_GTX1070);
        let n = 1 << 16;
        let spread = d.launch(
            LaunchConfig::for_items(n, 1024).with_atomic_targets(n as u64),
            |ctx, _| ctx.atomic(1),
        );
        let hot = d.launch(
            LaunchConfig::for_items(n, 1024).with_atomic_targets(4),
            |ctx, _| ctx.atomic(1),
        );
        assert!(hot.atomic_time > spread.atomic_time * 2);
    }

    #[test]
    fn volta_atomics_are_cheaper_than_pascal() {
        let n = 1 << 16;
        let run = |profile| {
            let d = Device::new(profile);
            d.launch(
                LaunchConfig::for_items(n, 1024).with_atomic_targets(64),
                |ctx: &mut ThreadCtx, _| ctx.atomic(4),
            )
            .atomic_time
        };
        assert!(run(VOLTA_V100) < run(PASCAL_GTX1070));
    }

    #[test]
    fn register_pressure_lowers_occupancy_and_slows_kernels() {
        let d = Device::new(PASCAL_GTX1070);
        let cfg = LaunchConfig::for_items(1 << 16, 1024);
        let light = d.launch(cfg, |ctx, _| {
            ctx.local_state(16);
            ctx.flops(500);
        });
        let heavy = d.launch(cfg, |ctx, _| {
            ctx.local_state(1024);
            ctx.flops(500);
        });
        assert!(heavy.occupancy < light.occupancy);
        assert!(heavy.compute_time > light.compute_time);
    }

    #[test]
    fn big_kernels_beat_cpu_scale_throughput() {
        // Sanity-check the magnitude: 16M × 16 flops at ~3.2 Tcycle/s
        // should land in the tens-of-microseconds range, far less than a
        // millisecond and far more than the launch overhead alone.
        let d = Device::new(PASCAL_GTX1070);
        let stats = d.launch(LaunchConfig::for_items(1 << 24, 1024), |ctx, _| {
            ctx.flops(16)
        });
        let secs = stats.sim_time.as_secs_f64();
        assert!(secs > 5e-6, "{secs}");
        assert!(secs < 1e-3, "{secs}");
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn oversized_block_panics() {
        let d = Device::new(PASCAL_GTX1070);
        d.launch(
            LaunchConfig {
                grid_blocks: 1,
                block_threads: 2048,
                atomic_targets: 0,
                name: "oversized",
            },
            |_, _| {},
        );
    }
}
