//! Machine and device profiles.
//!
//! A [`MachineProfile`] captures everything the cost model needs to know
//! about one heterogeneous machine: its CPU (core count, per-core scalar
//! throughput, memory bandwidth, scheduling overheads) and, optionally, an
//! OpenCL device. The three presets mirror Figure 9 of the paper:
//!
//! | Codename  | CPU                          | OpenCL device                          |
//! |-----------|------------------------------|----------------------------------------|
//! | `desktop` | Core i7 920, 4 cores @2.67GHz | NVIDIA Tesla C2070 (discrete, fast)    |
//! | `server`  | 4× Xeon X7550, 32 cores @2GHz | none — CPU-backed runtime (SSE codegen)|
//! | `laptop`  | Core i5 2520M, 2 cores @2.5GHz| AMD Radeon HD 6630M (mobile, weak)     |
//!
//! Absolute numbers are calibrated so the *relative* behaviour the paper
//! reports emerges (see `DESIGN.md` §6); they are not vendor datasheets.

use std::fmt;

/// CPU side of a machine: the workstealing backend's hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuProfile {
    /// Marketing name, for reports (Fig. 9 column "CPU(s)").
    pub name: String,
    /// Number of hardware cores (= default worker count).
    pub cores: usize,
    /// Effective *scalar* floating-point throughput of one core, flop/s.
    ///
    /// The paper's CPU backend emits portable C++ (unvectorized), so this is
    /// deliberately far below the SIMD peak.
    pub flops_per_core: f64,
    /// Aggregate main-memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Fixed scheduling overhead charged per executed task, seconds.
    pub task_overhead: f64,
    /// Latency of one (successful or failed) steal attempt, seconds.
    pub steal_latency: f64,
}

impl CpuProfile {
    /// Memory bandwidth available to one task, bytes/s.
    ///
    /// A fair share of the aggregate, floored at one eighth: a lone stream
    /// on a many-core machine is limited by its own load queue, not by a
    /// 1/32 slice of the socket bandwidth.
    #[must_use]
    pub fn mem_bw_per_core(&self) -> f64 {
        self.mem_bw / (self.cores.min(8)) as f64
    }
}

/// OpenCL device side of a machine.
///
/// When `cpu_backed` is true the "device" is an OpenCL runtime that JITs
/// vectorized code for the host CPU (the paper's Server machine): transfers
/// are cheap memcpys and scratchpad "local memory" maps onto the same caches
/// as ordinary loads, so explicit staging is pure overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuProfile {
    /// Marketing name, for reports (Fig. 9 column "GPU").
    pub name: String,
    /// Aggregate device floating-point throughput, flop/s.
    pub flops: f64,
    /// Global-memory bandwidth, bytes/s.
    pub global_bw: f64,
    /// Scratchpad (OpenCL local / CUDA shared) bandwidth, bytes/s.
    pub local_bw: f64,
    /// Host↔device interconnect bandwidth, bytes/s (PCIe, or memcpy when
    /// `cpu_backed`).
    pub pcie_bw: f64,
    /// Fixed overhead per kernel launch, seconds.
    pub launch_overhead: f64,
    /// Fixed overhead per host↔device transfer command, seconds.
    pub transfer_overhead: f64,
    /// Fixed overhead per buffer allocation (the *prepare* GPU task), seconds.
    pub alloc_overhead: f64,
    /// Additional allocation cost per byte, seconds/byte — large
    /// intermediate buffers are expensive to create on weak drivers (the
    /// separable-convolution "extra buffer" overhead of §2.2).
    pub alloc_bytes_factor: f64,
    /// Fraction of *redundant* (overlapping stencil) global reads that miss
    /// the device's read caches. 0 = perfect caching, 1 = every read hits
    /// DRAM.
    pub read_cache_factor: f64,
    /// Per-work-group scheduling overhead, seconds.
    pub group_overhead: f64,
    /// Cost of a work-group barrier (used by the cooperative local-memory
    /// load phase), seconds per group.
    pub barrier_overhead: f64,
    /// Full runtime kernel compilation cost: parse + optimize, seconds.
    /// Skipped on an IR-cache hit (§5.4).
    pub compile_frontend: f64,
    /// Architecture-specific JIT portion of compilation, seconds. *Not*
    /// skippable by the IR cache (OpenCL offers no binary cache).
    pub compile_jit: f64,
    /// Maximum work-items per work-group.
    pub max_work_group: usize,
    /// Preferred work-group size multiple (warp/wavefront width).
    pub warp: usize,
    /// True when the OpenCL runtime targets the host CPU (Server).
    pub cpu_backed: bool,
}

/// A complete heterogeneous machine: CPU plus optional OpenCL device.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Codename used throughout the evaluation (`Desktop`, `Server`, `Laptop`).
    pub codename: String,
    /// Operating system, for the Fig. 9 table.
    pub os: String,
    /// OpenCL runtime name, for the Fig. 9 table.
    pub opencl_runtime: String,
    /// CPU description.
    pub cpu: CpuProfile,
    /// OpenCL device, if any. `None` means OpenCL choices are unavailable
    /// entirely; a `cpu_backed` device means OpenCL choices exist but run on
    /// the CPU (the paper's Server).
    pub gpu: Option<GpuProfile>,
}

impl MachineProfile {
    /// The paper's *Desktop*: gaming rig with a Core i7 920 and a Tesla C2070.
    ///
    /// Calibrated so that streaming kernels run roughly an order of magnitude
    /// faster on the GPU than on the 4-core CPU backend, transfers cross a
    /// fast PCIe link, and scratchpad staging pays off for stencils with
    /// meaningful reuse.
    #[must_use]
    pub fn desktop() -> Self {
        MachineProfile {
            codename: "Desktop".into(),
            os: "Debian 5.0 GNU/Linux".into(),
            opencl_runtime: "CUDA Toolkit 4.2 (GPU)".into(),
            cpu: CpuProfile {
                name: "Core i7 920 @2.67GHz".into(),
                cores: 4,
                flops_per_core: 2.5e9,
                mem_bw: 20e9,
                task_overhead: 2.0e-7,
                steal_latency: 3.0e-7,
            },
            gpu: Some(GpuProfile {
                name: "NVIDIA Tesla C2070".into(),
                flops: 1.0e12,
                global_bw: 140e9,
                local_bw: 1.2e12,
                pcie_bw: 6e9,
                launch_overhead: 8e-6,
                transfer_overhead: 6e-6,
                alloc_overhead: 4e-6,
                alloc_bytes_factor: 1.0e-11,
                read_cache_factor: 0.45,
                group_overhead: 2.5e-8,
                barrier_overhead: 4.0e-9,
                compile_frontend: 1.2,
                compile_jit: 0.8,
                max_work_group: 1024,
                warp: 32,
                cpu_backed: false,
            }),
        }
    }

    /// The paper's *Server*: 32-core Xeon, no graphics card; its OpenCL
    /// runtime (AMD APP SDK) generates optimized SSE code for the CPU.
    ///
    /// The "device" therefore shares host memory (transfers are memcpys),
    /// has no scratchpad advantage (`local_bw == global_bw`), but achieves a
    /// much higher arithmetic rate than the unvectorized CPU backend.
    #[must_use]
    pub fn server() -> Self {
        MachineProfile {
            codename: "Server".into(),
            os: "Debian 5.0 GNU/Linux".into(),
            opencl_runtime: "AMD APP SDK 2.5 (CPU/SSE)".into(),
            cpu: CpuProfile {
                name: "4x Xeon X7550 @2GHz".into(),
                cores: 32,
                flops_per_core: 2.0e9,
                mem_bw: 60e9,
                task_overhead: 2.5e-7,
                steal_latency: 5.0e-7,
            },
            gpu: Some(GpuProfile {
                name: "none (OpenCL on CPU)".into(),
                // 32 cores x 2 GHz x 4-wide SSE x ~2 from better codegen.
                flops: 5.0e11,
                global_bw: 60e9,
                local_bw: 60e9,
                pcie_bw: 16e9, // memcpy within host RAM
                launch_overhead: 2.5e-5,
                transfer_overhead: 2e-6,
                alloc_overhead: 2e-6,
                alloc_bytes_factor: 5.0e-12,
                read_cache_factor: 0.05,
                group_overhead: 1.2e-7,
                barrier_overhead: 8.0e-7,
                compile_frontend: 0.9,
                compile_jit: 0.5,
                max_work_group: 1024,
                warp: 4,
                cpu_backed: true,
            }),
        }
    }

    /// The paper's *Laptop* (a Mac Mini): 2-core Core i5 plus a mobile
    /// Radeon HD 6630M.
    ///
    /// The mobile GPU is only a small factor faster than the CPU for
    /// streaming work and sits behind a slow interconnect, which is what
    /// makes concurrent CPU+GPU splits profitable here and nowhere else.
    #[must_use]
    pub fn laptop() -> Self {
        MachineProfile {
            codename: "Laptop".into(),
            os: "Mac OS X Lion (10.7.2)".into(),
            opencl_runtime: "Xcode 4.2 (GPU)".into(),
            cpu: CpuProfile {
                name: "Core i5 2520M @2.5GHz".into(),
                cores: 2,
                flops_per_core: 3.0e9,
                mem_bw: 12e9,
                task_overhead: 1.8e-7,
                steal_latency: 2.5e-7,
            },
            gpu: Some(GpuProfile {
                name: "AMD Radeon HD 6630M".into(),
                flops: 2.2e11,
                global_bw: 25.6e9,
                local_bw: 2.6e11,
                pcie_bw: 2.0e9,
                launch_overhead: 1.5e-5,
                transfer_overhead: 1.0e-5,
                alloc_overhead: 6e-6,
                alloc_bytes_factor: 1.5e-10,
                read_cache_factor: 0.3,
                group_overhead: 4.0e-8,
                barrier_overhead: 8.0e-9,
                compile_frontend: 1.5,
                compile_jit: 1.0,
                max_work_group: 256,
                warp: 64,
                cpu_backed: false,
            }),
        }
    }

    /// An *iGPU* machine beyond the paper's three: a low-power desktop
    /// whose only OpenCL device is an integrated GPU sharing host DRAM.
    ///
    /// The interconnect is a memcpy through shared memory (fast, low
    /// per-transfer overhead), but the device competes with the CPU for
    /// the same bandwidth: `global_bw` equals the host memory bandwidth,
    /// and the scratchpad advantage is modest. The interesting tuning
    /// regime is the opposite of the Desktop's — transfers are nearly
    /// free, so fractional CPU+GPU splits win even for streaming kernels.
    #[must_use]
    pub fn igpu() -> Self {
        MachineProfile {
            codename: "iGPU".into(),
            os: "Ubuntu 12.04 GNU/Linux".into(),
            opencl_runtime: "Intel OpenCL SDK 2012 (iGPU)".into(),
            cpu: CpuProfile {
                name: "Core i3 3225 @3.3GHz".into(),
                cores: 2,
                flops_per_core: 3.2e9,
                mem_bw: 21e9,
                task_overhead: 1.8e-7,
                steal_latency: 2.5e-7,
            },
            gpu: Some(GpuProfile {
                name: "Intel HD Graphics 4000".into(),
                flops: 1.2e11,
                global_bw: 21e9, // shares host DRAM with the CPU
                local_bw: 1.0e11,
                pcie_bw: 10e9, // memcpy within shared memory
                launch_overhead: 1.2e-5,
                transfer_overhead: 1.5e-6,
                alloc_overhead: 2.5e-6,
                alloc_bytes_factor: 4.0e-12,
                read_cache_factor: 0.25,
                group_overhead: 5.0e-8,
                barrier_overhead: 1.0e-8,
                compile_frontend: 1.1,
                compile_jit: 0.7,
                max_work_group: 512,
                warp: 16,
                cpu_backed: false,
            }),
        }
    }

    /// A *ManyCore* server beyond the paper's three: 64 slow cores and no
    /// OpenCL runtime at all.
    ///
    /// With `gpu: None` every OpenCL choice is statically unavailable, so
    /// tuning is purely about CPU-side structure (chunking, cutoffs,
    /// algorithm selection) and the workstealing scheduler carries all the
    /// parallelism — the stress case for the runtime's scaling paths.
    #[must_use]
    pub fn manycore() -> Self {
        MachineProfile {
            codename: "ManyCore".into(),
            os: "CentOS 6.3 GNU/Linux".into(),
            opencl_runtime: "none".into(),
            cpu: CpuProfile {
                name: "4x Opteron 6276 @2.3GHz".into(),
                cores: 64,
                flops_per_core: 1.6e9,
                mem_bw: 102e9,
                task_overhead: 3.0e-7,
                steal_latency: 6.0e-7,
            },
            gpu: None,
        }
    }

    /// All three paper machines, in presentation order.
    #[must_use]
    pub fn all() -> Vec<MachineProfile> {
        vec![Self::desktop(), Self::server(), Self::laptop()]
    }

    /// The paper machines plus the two extension profiles ([`Self::igpu`],
    /// [`Self::manycore`]) used by the extended fig7 matrices.
    #[must_use]
    pub fn extended() -> Vec<MachineProfile> {
        vec![Self::desktop(), Self::server(), Self::laptop(), Self::igpu(), Self::manycore()]
    }

    /// Look up a preset by (case-insensitive) codename.
    #[must_use]
    pub fn by_codename(name: &str) -> Option<MachineProfile> {
        match name.to_ascii_lowercase().as_str() {
            "desktop" => Some(Self::desktop()),
            "server" => Some(Self::server()),
            "laptop" => Some(Self::laptop()),
            "igpu" => Some(Self::igpu()),
            "manycore" => Some(Self::manycore()),
            _ => None,
        }
    }

    /// Aggregate scalar CPU throughput (all cores), flop/s.
    #[must_use]
    pub fn cpu_flops(&self) -> f64 {
        self.cpu.flops_per_core * self.cpu.cores as f64
    }

    /// True when the machine exposes any OpenCL device (physical or
    /// CPU-backed).
    #[must_use]
    pub fn has_opencl(&self) -> bool {
        self.gpu.is_some()
    }

    /// True when the machine has a *physical* (non-CPU-backed) GPU.
    #[must_use]
    pub fn has_physical_gpu(&self) -> bool {
        self.gpu.as_ref().is_some_and(|g| !g.cpu_backed)
    }
}

impl fmt::Display for MachineProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({} cores), GPU: {}, OS: {}, OpenCL: {}",
            self.codename,
            self.cpu.name,
            self.cpu.cores,
            self.gpu.as_ref().map_or("None", |g| g.name.as_str()),
            self.os,
            self.opencl_runtime,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_figure9_shape() {
        let d = MachineProfile::desktop();
        let s = MachineProfile::server();
        let l = MachineProfile::laptop();
        assert_eq!(d.cpu.cores, 4);
        assert_eq!(s.cpu.cores, 32);
        assert_eq!(l.cpu.cores, 2);
        assert!(d.has_physical_gpu());
        assert!(!s.has_physical_gpu());
        assert!(s.has_opencl());
        assert!(l.has_physical_gpu());
    }

    #[test]
    fn desktop_gpu_much_faster_than_cpu_laptop_less_so() {
        let d = MachineProfile::desktop();
        let l = MachineProfile::laptop();
        let d_ratio = d.gpu.as_ref().unwrap().flops / d.cpu_flops();
        let l_ratio = l.gpu.as_ref().unwrap().flops / l.cpu_flops();
        assert!(d_ratio > 20.0, "desktop GPU:CPU ratio {d_ratio}");
        assert!(
            l_ratio < d_ratio / 2.0,
            "laptop ratio {l_ratio} should be far below desktop {d_ratio}"
        );
    }

    #[test]
    fn server_local_memory_has_no_bandwidth_advantage() {
        let s = MachineProfile::server();
        let g = s.gpu.unwrap();
        assert_eq!(g.local_bw, g.global_bw);
        assert!(g.cpu_backed);
    }

    #[test]
    fn lookup_by_codename() {
        assert!(MachineProfile::by_codename("DESKTOP").is_some());
        assert!(MachineProfile::by_codename("laptop").is_some());
        assert!(MachineProfile::by_codename("iGPU").is_some());
        assert!(MachineProfile::by_codename("ManyCore").is_some());
        assert!(MachineProfile::by_codename("phone").is_none());
    }

    #[test]
    fn display_is_nonempty() {
        for m in MachineProfile::extended() {
            assert!(!m.to_string().is_empty());
        }
    }

    #[test]
    fn extension_profiles_have_the_intended_shape() {
        let i = MachineProfile::igpu();
        let ig = i.gpu.as_ref().unwrap();
        assert!(i.has_physical_gpu());
        assert_eq!(ig.global_bw, i.cpu.mem_bw, "iGPU shares host DRAM");
        // Weak device relative to the Desktop's discrete card, cheap link.
        assert!(ig.flops < MachineProfile::desktop().gpu.unwrap().flops / 4.0);
        assert!(ig.pcie_bw > MachineProfile::laptop().gpu.unwrap().pcie_bw);

        let m = MachineProfile::manycore();
        assert!(!m.has_opencl(), "ManyCore has no OpenCL runtime at all");
        assert_eq!(m.cpu.cores, 64);
        assert!(m.cpu_flops() > MachineProfile::server().cpu_flops());
    }

    #[test]
    fn extended_is_all_plus_two() {
        let all = MachineProfile::all();
        let ext = MachineProfile::extended();
        assert_eq!(ext.len(), all.len() + 2);
        assert_eq!(
            ext.iter().map(|m| m.codename.as_str()).collect::<Vec<_>>()[..3],
            all.iter().map(|m| m.codename.as_str()).collect::<Vec<_>>()[..]
        );
    }
}
