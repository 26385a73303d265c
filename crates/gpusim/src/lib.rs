//! # credo-gpusim
//!
//! A functional + timing-model simulator for CUDA-like GPU execution — the
//! hardware substitution that lets this reproduction run the paper's
//! "CUDA" implementations without a physical GPU (see DESIGN.md).
//!
//! ## What it does
//!
//! * **Functional execution**: [`Device::launch`] runs a kernel closure for
//!   every thread of a grid, blocks in parallel on scoped host threads,
//!   threads within a block sequentially. Results are real — the CUDA
//!   engines' beliefs are checked against the sequential CPU engines.
//! * **Timing model**: each thread reports its work through a
//!   [`ThreadCtx`] (flops, global/shared/constant traffic, atomics, local
//!   state). Warp divergence is captured by taking the per-warp maximum of
//!   thread cycles; coalescing by a transaction-waste factor; occupancy by
//!   register-file pressure from per-thread state; atomic contention by a
//!   caller-supplied distinct-target count. An [`ArchProfile`] (Pascal
//!   GTX 1070 or Volta V100, §4) converts the totals into simulated
//!   device time, accumulated on the device's clock.
//! * **Memory management**: [`DeviceBuffer`]s charge allocation and PCIe
//!   transfer time and are bounded by the profile's VRAM capacity —
//!   §4.2's "TW and OR exceed the GPU's VRAM" falls out of this.

#![warn(missing_docs)]

mod arch;
mod buffer;
mod device;
mod kernel;
mod util;

pub use arch::{ArchProfile, PASCAL_GTX1070, VOLTA_V100};
pub use buffer::{DeviceBuffer, TrackedAlloc};
pub use device::{Device, DeviceError, GPU_TRACK, PCIE_TRACK};
pub use kernel::{KernelStats, LaunchConfig, ThreadCtx};
pub use util::{atomic_mul_f32, SharedSlice};
