//! End-to-end pipeline tests: language → analyses → codegen → runtime,
//! exercised through the public facade.

use petal::prelude::*;
use petal_apps::all_benchmarks;
use petal_core::codegen;
use petal_core::stencil::{AccessPattern, Span, StencilInput, StencilRule};
use std::sync::Arc;

#[test]
fn all_benchmarks_verify_under_default_configs() {
    for bench in all_benchmarks() {
        let small = bench.resized(bench.input_size().min(2048)).unwrap_or(bench);
        for machine in MachineProfile::all() {
            let r = small.run_default(&machine);
            assert!(r.is_ok(), "{} on {}: {:?}", small.name(), machine.codename, r.err());
        }
    }
}

#[test]
fn generated_opencl_sources_are_stable_golden() {
    // The compile cache keys on source text, so codegen must be
    // deterministic. Pin structural landmarks of both variants.
    let rule = petal_apps::convolution::SeparableConvolution::rule_rows(7);
    let plain = codegen::generate_source(&rule, false);
    let local = codegen::generate_source(&rule, true);
    assert_eq!(plain, codegen::generate_source(&rule, false), "codegen is deterministic");
    for needle in [
        "__kernel void convolve_rows(",
        "__global const double* in0",
        "int x = get_global_id(0);",
        "out[y * out_w + x] = result;",
    ] {
        assert!(plain.contains(needle), "missing {needle:?} in:\n{plain}");
    }
    for needle in [
        "__kernel void convolve_rows_localmem(",
        "__local double tile0[",
        "barrier(CLK_LOCAL_MEM_FENCE);",
        "cooperative load phase",
    ] {
        assert!(local.contains(needle), "missing {needle:?} in:\n{local}");
    }
}

#[test]
fn wavefront_rules_are_rejected_like_the_paper_says() {
    let rule = StencilRule {
        name: "wavefront".into(),
        inputs: vec![StencilInput { index: 0, access: AccessPattern::Wavefront }],
        flops_per_output: 1.0,
        body_c: String::new(),
        elem: Arc::new(|_, _, _| 0.0),
        span: Span::PerCell { why: "a test rule" },
        native_only_body: false,
        text: Default::default(),
    };
    assert!(rule.opencl_verdict().is_err());
    assert!(!rule.has_local_memory_variant());
}

#[test]
fn executor_reports_are_deterministic() {
    let bench = petal_apps::sort::Sort::new(20_000);
    let machine = MachineProfile::server();
    let cfg = bench.program(&machine).default_config(&machine);
    let a = bench.run_with_config(&machine, &cfg).unwrap();
    let b = bench.run_with_config(&machine, &cfg).unwrap();
    assert_eq!(a.rt.makespan, b.rt.makespan);
    assert_eq!(a.rt.steals, b.rt.steals);
    assert_eq!(a.rt.cpu_tasks, b.rt.cpu_tasks);
}

#[test]
fn machines_disagree_on_the_best_configuration() {
    // The thesis of the paper in one assertion: the same pinned
    // configuration ranks differently across machines.
    let bench = petal_apps::convolution::SeparableConvolution::new(192, 7);
    let ranked: Vec<Vec<&str>> = MachineProfile::all()
        .iter()
        .map(|m| {
            let mut times: Vec<(&str, f64)> = petal_apps::convolution::ConvMapping::all()
                .into_iter()
                .map(|mp| {
                    let cfg = bench.mapping_config(m, mp);
                    let t =
                        bench.run_with_config(m, &cfg).expect("mapping runs").virtual_time_secs();
                    (mp.label(), t)
                })
                .collect();
            times.sort_by(|a, b| a.1.total_cmp(&b.1));
            times.into_iter().map(|(l, _)| l).collect()
        })
        .collect();
    assert!(
        ranked.windows(2).any(|w| w[0] != w[1]),
        "at least two machines must rank the mappings differently: {ranked:?}"
    );
}
