//! The external baselines used in Fig. 7, recreated as fixed
//! configurations in our system.
//!
//! The paper compares against hand-written programs (NVIDIA SDK samples,
//! CUDPP, hand-coded PetaBricks configs). Those roles are played here by
//! pinned configurations:
//!
//! * **CPU-only Config** (Fig. 7b) — autotuning with OpenCL choices
//!   disabled: every selector forced to the CPU backend.
//! * **GPU-only Config** (Fig. 7d) — the hand-written bitonic sort on the
//!   GPU.
//! * **Hand-coded OpenCL** (Fig. 7c/7e) — a fixed, non-tuned OpenCL
//!   mapping: separable convolution with scratchpad staging at a fixed
//!   work-group geometry, and the data-parallel matmul kernel. These stand
//!   in for the SDK samples: reasonable hand choices that are never
//!   retuned per machine.

use petal_apps::Benchmark;
use petal_core::{Config, Selector, Tunable};
use petal_gpu::profile::MachineProfile;

/// `bench`'s Fig. 7 baseline on `machine`: the row label and its config,
/// which is `None` where the baseline cannot run there. `None` for a
/// benchmark the paper gives no baseline.
#[must_use]
pub fn baseline(
    bench: &dyn Benchmark,
    machine: &MachineProfile,
) -> Option<(&'static str, Option<Config>)> {
    Some(match bench.name() {
        "Black-Scholes" | "Poisson2D SOR" => ("CPU-only Config", Some(cpu_only(bench, machine))),
        "Sort" => ("GPU-only Config", gpu_bitonic_sort(bench, machine)),
        "Strassen" => ("Hand-coded OpenCL", handcoded_matmul(bench, machine)),
        "SeparableConvolution" => ("Hand-coded OpenCL", handcoded_convolution(bench, machine)),
        _ => return None,
    })
}

/// CPU-only configuration: every OpenCL choice disabled (Fig. 7b baseline).
#[must_use]
pub fn cpu_only(bench: &dyn Benchmark, machine: &MachineProfile) -> Config {
    let program = bench.program(machine);
    let mut cfg = program.default_config(machine);
    let names: Vec<String> = cfg.selectors().map(|(n, _)| n.to_owned()).collect();
    for name in names {
        let n = cfg.selector(&name).expect("iterated").num_algs();
        cfg.set_selector(&name, Selector::constant(0, n));
        if cfg.tunable(&format!("{name}.gpu_ratio")).is_some() {
            cfg.set_tunable(&format!("{name}.gpu_ratio"), Tunable::new(0, 0, 8));
        }
    }
    cfg
}

/// The hand-written GPU bitonic sort (Fig. 7d "GPU-only Config").
#[must_use]
pub fn gpu_bitonic_sort(bench: &dyn Benchmark, machine: &MachineProfile) -> Option<Config> {
    if !machine.has_opencl() {
        return None;
    }
    let mut cfg = bench.program(machine).default_config(machine);
    cfg.set_selector("sort", Selector::constant(7, 8));
    Some(cfg)
}

/// The "Hand-coded OpenCL" separable-convolution baseline (Fig. 7c): the
/// SDK-style fixed mapping — separable, scratchpad staging, a fixed
/// work-group size chosen for NVIDIA hardware and never retuned.
#[must_use]
pub fn handcoded_convolution(bench: &dyn Benchmark, machine: &MachineProfile) -> Option<Config> {
    if !machine.has_physical_gpu() {
        return None; // the SDK sample "only runs on our Desktop system"
    }
    // Fig. 2's `ConvMapping::SeparableLocalMem`: separable, every pass
    // OpenCL with scratchpad staging (backend 2), all on the device.
    let mut cfg = bench.program(machine).default_config(machine);
    cfg.set_selector("separable", Selector::constant(1, 2));
    for t in ["convolve2d", "convolve_rows", "convolve_columns"] {
        cfg.set_selector(t, Selector::constant(2, 3));
        cfg.set_tunable(&format!("{t}.gpu_ratio"), Tunable::new(8, 0, 8));
        // 96 = 3 warps: fine on NVIDIA, a poor fit elsewhere — the point of
        // a hand-coded constant.
        cfg.set_tunable(&format!("{t}.local_size"), Tunable::new(96, 1, 1024));
    }
    Some(cfg)
}

/// The "Hand-coded OpenCL" matmul baseline (Fig. 7e): the data-parallel
/// GPU kernel pinned at a fixed geometry.
#[must_use]
pub fn handcoded_matmul(bench: &dyn Benchmark, machine: &MachineProfile) -> Option<Config> {
    if !machine.has_physical_gpu() {
        return None;
    }
    let mut cfg = bench.program(machine).default_config(machine);
    cfg.set_selector("matmul", Selector::constant(6, 7));
    cfg.set_tunable("matmul.local_size", Tunable::new(256, 1, 1024));
    cfg.set_tunable("matmul.gpu_ratio", Tunable::new(8, 0, 8));
    Some(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_apps::convolution::{ConvMapping, SeparableConvolution};
    use petal_apps::sort::Sort;
    use petal_apps::strassen::Strassen;

    #[test]
    fn cpu_only_config_runs_everywhere() {
        let b = Strassen::new(64);
        for m in MachineProfile::all() {
            let cfg = cpu_only(&b, &m);
            assert!(b.run_with_config(&m, &cfg).is_ok(), "{}", m.codename);
        }
    }

    #[test]
    fn gpu_baselines_run_on_gpu_machines() {
        let d = MachineProfile::desktop();
        let sort = Sort::new(4096);
        let cfg = gpu_bitonic_sort(&sort, &d).expect("desktop has a device");
        sort.run_with_config(&d, &cfg).unwrap();
        let conv = SeparableConvolution::new(64, 5);
        let cfg = handcoded_convolution(&conv, &d).expect("desktop has a physical GPU");
        conv.run_with_config(&d, &cfg).unwrap();
        let mm = Strassen::new(64);
        let cfg = handcoded_matmul(&mm, &d).expect("desktop has a physical GPU");
        mm.run_with_config(&d, &cfg).unwrap();
    }

    #[test]
    fn handcoded_convolution_is_the_separable_local_memory_mapping() {
        let d = MachineProfile::desktop();
        let conv = SeparableConvolution::new(64, 5);
        let handcoded = handcoded_convolution(&conv, &d).expect("desktop has a physical GPU");
        let mut mapping = conv.mapping_config(&d, ConvMapping::SeparableLocalMem);
        for t in ["convolve2d", "convolve_rows", "convolve_columns"] {
            mapping.set_tunable(&format!("{t}.local_size"), Tunable::new(96, 1, 1024));
        }
        assert_eq!(handcoded, mapping);
    }

    #[test]
    fn handcoded_baselines_absent_without_physical_gpu() {
        let s = MachineProfile::server();
        let conv = SeparableConvolution::new(64, 5);
        assert!(handcoded_convolution(&conv, &s).is_none());
    }
}
