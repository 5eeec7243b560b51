//! The analytic cost model.
//!
//! Every simulated operation is charged virtual time derived from a
//! roofline-style model: an operation takes the *maximum* of its compute
//! time and its memory time, plus fixed overheads. The model is intentionally
//! simple — the paper's conclusions depend on the *relative* performance of
//! devices and mappings, not on cycle accuracy — but it captures the four
//! effects the evaluation turns on:
//!
//! 1. device vs. host throughput (algorithm placement),
//! 2. interconnect transfer cost (when offloading pays off),
//! 3. scratchpad staging vs. redundant global reads (the local-memory
//!    choice, §3.1 third phase), and
//! 4. work-group geometry (the *local work size* tunable, §5.3).

use crate::profile::{CpuProfile, GpuProfile};

/// Work performed by one CPU task, used to charge virtual time to a worker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuWork {
    /// Floating point operations executed.
    pub flops: f64,
    /// Bytes moved to/from main memory (compulsory traffic).
    pub bytes: f64,
}

impl CpuWork {
    /// Convenience constructor.
    #[must_use]
    pub fn new(flops: f64, bytes: f64) -> Self {
        CpuWork { flops, bytes }
    }

    /// Virtual seconds this work takes on one core of `cpu`.
    ///
    /// Roofline: `max(flops / scalar_rate, bytes / per-core share of DRAM
    /// bandwidth)` plus the fixed per-task overhead.
    #[must_use]
    pub fn secs_on(&self, cpu: &CpuProfile) -> f64 {
        let compute = self.flops / cpu.flops_per_core;
        let memory = self.bytes / cpu.mem_bw_per_core();
        compute.max(memory) + cpu.task_overhead
    }
}

impl std::ops::Add for CpuWork {
    type Output = CpuWork;
    fn add(self, rhs: CpuWork) -> CpuWork {
        CpuWork { flops: self.flops + rhs.flops, bytes: self.bytes + rhs.bytes }
    }
}

/// Work performed by one kernel launch on the OpenCL device.
///
/// Produced by the code generator in `petal-core`; the global/local traffic
/// fields differ between the plain and the local-memory variants of the same
/// kernel, which is exactly how the model exposes that choice to the tuner.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelWork {
    /// Total work-items in the ND-range.
    pub work_items: f64,
    /// Arithmetic per work-item, flops.
    pub flops_per_item: f64,
    /// Compulsory bytes read from global memory (each input byte once).
    pub global_read_bytes: f64,
    /// Redundant global reads (overlapping stencil accesses); charged at
    /// the device's `read_cache_factor` since caches absorb most of them.
    pub redundant_read_bytes: f64,
    /// Total bytes written to global memory.
    pub global_write_bytes: f64,
    /// Bytes staged cooperatively from global into local memory
    /// (local-memory variant only; each element loaded once per group).
    pub local_fill_bytes: f64,
    /// Bytes served from local memory during the compute phase
    /// (local-memory variant only).
    pub local_traffic_bytes: f64,
    /// Number of work-groups.
    pub groups: f64,
    /// Work-items per group (the *local work size* tunable).
    pub local_size: usize,
    /// Whether this launch uses the scratchpad staging phase.
    pub uses_local_memory: bool,
    /// Fraction of peak vector throughput the kernel body achieves on a
    /// CPU-backed OpenCL runtime (1.0 for streaming elementwise bodies,
    /// lower for stencils the vectorizer handles poorly). Ignored on
    /// physical GPUs, whose efficiency is modeled by lane utilization.
    pub vector_efficiency: f64,
}

impl KernelWork {
    /// Fraction of SIMD lanes doing useful work given the warp width.
    ///
    /// A group of `local_size` work-items occupies `ceil(local_size/warp)`
    /// warps; lanes beyond `local_size` in the last warp idle.
    #[must_use]
    pub fn lane_utilization(&self, warp: usize) -> f64 {
        if self.local_size == 0 {
            return 1.0;
        }
        let warps = self.local_size.div_ceil(warp);
        self.local_size as f64 / (warps * warp) as f64
    }

    /// Virtual seconds one launch of this kernel takes on `gpu`
    /// (excluding the fixed launch overhead, which the queue charges).
    ///
    /// Roofline over compute and memory, plus per-group scheduling and
    /// (for the local-memory variant) one barrier per group.
    #[must_use]
    pub fn exec_secs(&self, gpu: &GpuProfile) -> f64 {
        let util = if gpu.cpu_backed {
            if self.vector_efficiency > 0.0 {
                self.vector_efficiency
            } else {
                1.0
            }
        } else {
            self.lane_utilization(gpu.warp)
        };
        let compute = self.work_items * self.flops_per_item / (gpu.flops * util);
        let mut memory = (self.global_read_bytes
            + self.redundant_read_bytes * gpu.read_cache_factor
            + self.global_write_bytes
            + self.local_fill_bytes)
            / gpu.global_bw;
        memory += self.local_traffic_bytes / gpu.local_bw;
        let mut t = compute.max(memory) + self.groups * gpu.group_overhead;
        if self.uses_local_memory {
            // Cooperative load is a distinct phase ended by a barrier; on a
            // CPU-backed runtime the staging copy is pure wasted work that
            // does not overlap with compute.
            t += self.groups * gpu.barrier_overhead;
            if gpu.cpu_backed {
                t +=
                    self.local_fill_bytes / gpu.global_bw + self.local_traffic_bytes / gpu.local_bw;
            }
        }
        t
    }
}

/// Virtual seconds to move `bytes` across the host↔device interconnect.
#[must_use]
pub fn transfer_secs(gpu: &GpuProfile, bytes: f64) -> f64 {
    gpu.transfer_overhead + bytes / gpu.pcie_bw
}

/// Virtual seconds to allocate a device buffer of `bytes` (the *prepare*
/// task): fixed driver overhead plus a per-byte cost that penalizes large
/// intermediate buffers on weak drivers.
#[must_use]
pub fn alloc_secs(gpu: &GpuProfile, bytes: f64) -> f64 {
    gpu.alloc_overhead + bytes * gpu.alloc_bytes_factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MachineProfile;

    fn gpu(m: &MachineProfile) -> GpuProfile {
        m.gpu.clone().unwrap()
    }

    fn streaming_kernel(n: f64, local: usize) -> KernelWork {
        KernelWork {
            work_items: n,
            flops_per_item: 100.0,
            global_read_bytes: n * 8.0,
            global_write_bytes: n * 8.0,
            local_size: local,
            groups: n / local as f64,
            ..KernelWork::default()
        }
    }

    #[test]
    fn cpu_work_is_roofline() {
        let cpu = MachineProfile::desktop().cpu;
        // Compute bound: lots of flops, no memory.
        let w = CpuWork::new(1e9, 0.0);
        assert!((w.secs_on(&cpu) - (1e9 / cpu.flops_per_core + cpu.task_overhead)).abs() < 1e-12);
        // Memory bound.
        let w = CpuWork::new(0.0, 1e9);
        assert!(w.secs_on(&cpu) > 1e9 / cpu.mem_bw);
    }

    #[test]
    fn more_work_takes_longer() {
        let g = gpu(&MachineProfile::desktop());
        let small = streaming_kernel(1e5, 128).exec_secs(&g);
        let big = streaming_kernel(1e7, 128).exec_secs(&g);
        assert!(big > small * 50.0);
    }

    #[test]
    fn lane_utilization_prefers_warp_multiples() {
        let k33 = KernelWork { local_size: 33, ..KernelWork::default() };
        let k32 = KernelWork { local_size: 32, ..KernelWork::default() };
        assert!(k32.lane_utilization(32) > k33.lane_utilization(32));
        assert!((k32.lane_utilization(32) - 1.0).abs() < 1e-12);
        assert!((k33.lane_utilization(32) - 33.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_work_groups_pay_group_overhead() {
        let g = gpu(&MachineProfile::desktop());
        let few_groups = streaming_kernel(1e6, 256).exec_secs(&g);
        let many_groups = streaming_kernel(1e6, 1).exec_secs(&g);
        assert!(many_groups > few_groups * 2.0, "{many_groups} vs {few_groups}");
    }

    /// The local-memory trade-off of §2.2: a stencil with a k-wide bounding
    /// box reads each input ~k times from global memory without staging, or
    /// once per group plus k cheap local reads with staging. Staging should
    /// win on a discrete GPU for large k, lose for k=1-ish, and always lose
    /// on a CPU-backed runtime.
    fn stencil(n: f64, k: f64, local_mem: bool) -> KernelWork {
        let reuse = k; // each input element used by ~k outputs (1D separable pass)
        KernelWork {
            work_items: n,
            flops_per_item: 2.0 * k,
            global_read_bytes: if local_mem { 0.0 } else { n * 8.0 },
            redundant_read_bytes: if local_mem { 0.0 } else { n * (reuse - 1.0) * 8.0 },
            global_write_bytes: n * 8.0,
            local_fill_bytes: if local_mem { n * 1.2 * 8.0 } else { 0.0 },
            local_traffic_bytes: if local_mem { n * reuse * 8.0 } else { 0.0 },
            groups: n / 128.0,
            local_size: 128,
            uses_local_memory: local_mem,
            vector_efficiency: 0.2,
        }
    }

    #[test]
    fn local_memory_wins_for_wide_stencils_on_discrete_gpu() {
        let g = gpu(&MachineProfile::desktop());
        let with = stencil(1e7, 17.0, true).exec_secs(&g);
        let without = stencil(1e7, 17.0, false).exec_secs(&g);
        assert!(with < without, "local mem should win at k=17: {with} vs {without}");
    }

    #[test]
    fn local_memory_is_overhead_on_cpu_backed_runtime() {
        let g = gpu(&MachineProfile::server());
        let with = stencil(1e7, 17.0, true).exec_secs(&g);
        let without = stencil(1e7, 17.0, false).exec_secs(&g);
        assert!(with > without, "staging must not pay on CPU OpenCL: {with} vs {without}");
    }

    #[test]
    fn transfer_and_compile_costs_positive() {
        let g = gpu(&MachineProfile::laptop());
        assert!(transfer_secs(&g, 1e6) > 1e6 / g.pcie_bw);
        assert!(g.compile_frontend > 0.0 && g.compile_jit > 0.0);
    }
}
