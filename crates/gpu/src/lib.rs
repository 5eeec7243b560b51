//! # petal-gpu — simulated OpenCL substrate
//!
//! This crate stands in for the OpenCL runtimes used in the paper
//! (*Portable Performance on Heterogeneous Architectures*, ASPLOS'13).
//! The reproduction environment has no physical GPU, so devices here are
//! **simulated**: kernels execute *functionally* on the host (producing
//! bit-exact data), while a calibrated analytic cost model decides how much
//! *virtual time* each operation takes on a given machine.
//!
//! The crate provides:
//!
//! * [`profile`] — machine descriptions ([`profile::MachineProfile`]) with the
//!   three presets from Figure 9 of the paper: `desktop` (4-core CPU +
//!   discrete high-end GPU), `server` (32-core CPU whose OpenCL runtime is
//!   CPU-backed) and `laptop` (2-core CPU + weak mobile GPU).
//! * [`cost`] — the roofline-style cost model: kernel execution, host/device
//!   transfers, launch overhead, work-group utilization and the
//!   local-memory (scratchpad) staging trade-off.
//! * [`buffer`] — device buffers backed by real `Vec<f64>` storage plus the
//!   buffer table used for copy-in deduplication.
//! * [`compile`] — the runtime kernel compiler with the IR cache of §5.4.
//! * [`queue`] — an in-order command queue with non-blocking writes, reads
//!   and kernel launches, tracked on a virtual device timeline.
//! * [`device`] — ties the above together into a [`device::Device`].
//! * [`source`] — tiny OpenCL C source text builder used by the code
//!   generator in `petal-core`.
//!
//! # Example
//!
//! ```
//! use petal_gpu::profile::MachineProfile;
//!
//! let m = MachineProfile::desktop();
//! assert!(m.gpu.is_some());
//! assert_eq!(m.cpu.cores, 4);
//! // The server has no physical GPU; its OpenCL runtime targets the CPU.
//! assert!(MachineProfile::server().gpu.as_ref().unwrap().cpu_backed);
//! ```

pub mod buffer;
pub mod compile;
pub mod cost;
pub mod device;
pub mod profile;
pub mod queue;
pub mod source;

pub use buffer::{BufferId, BufferTable, DeviceBuffer, Recycler, SharedSlice};
pub use compile::{CompileCache, CompiledKernel, KernelHandle, KernelText};
pub use cost::{CpuWork, KernelWork};
pub use device::{Device, DeviceStats};
pub use profile::{CpuProfile, GpuProfile, MachineProfile};
pub use queue::{CommandQueue, Event, EventStatus};

use std::fmt;

/// Errors produced by the simulated OpenCL subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GpuError {
    /// A buffer id did not name a live buffer.
    UnknownBuffer(BufferId),
    /// A kernel handle did not name a compiled kernel.
    UnknownKernel(usize),
    /// Host/device size mismatch on a transfer.
    SizeMismatch {
        /// Elements expected by the device buffer.
        expected: usize,
        /// Elements supplied by the host.
        actual: usize,
    },
    /// The requested work-group size exceeds the device limit.
    WorkGroupTooLarge {
        /// Requested work-group size (work-items per group).
        requested: usize,
        /// Device maximum.
        max: usize,
    },
    /// Operation requires a GPU but the machine has none.
    NoGpu,
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::UnknownBuffer(id) => write!(f, "unknown device buffer {id:?}"),
            GpuError::UnknownKernel(h) => write!(f, "unknown kernel handle {h}"),
            GpuError::SizeMismatch { expected, actual } => {
                write!(f, "transfer size mismatch: buffer holds {expected} elements, host supplied {actual}")
            }
            GpuError::WorkGroupTooLarge { requested, max } => {
                write!(f, "work-group size {requested} exceeds device maximum {max}")
            }
            GpuError::NoGpu => write!(f, "machine has no OpenCL device"),
        }
    }
}

impl std::error::Error for GpuError {}
