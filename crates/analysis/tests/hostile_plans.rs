//! Hostile-plan fixtures: every class of defect the verifier exists to
//! catch, injected deliberately, with exact step/tunable assertions on the
//! diagnostics — plus the determinism audit: verifier-clean random DAG
//! plans must execute bit-identically under both scheduler policies.

use petal_analysis::legality::{check_hazards, check_movement, check_placements, check_plan};
use petal_analysis::lint::lint_config;
use petal_analysis::{Pass, Severity};
use petal_blas::Matrix;
use petal_core::plan::{
    analyze_movement, CopyOutPolicy, NativeStep, Placement, PlanBuilder, StencilStep,
};
use petal_core::stencil::{AccessPattern, Span, StencilInput, StencilRule};
use petal_core::{Config, Executor, MatrixId, Program, Selector, Tunable, World};
use petal_gpu::profile::MachineProfile;
use petal_rt::{Charge, SchedPolicy};
use proptest::prelude::*;
use std::sync::Arc;

const GPU: Placement = Placement::OpenCl { local_memory: false, local_size: 16 };
const CPU: Placement = Placement::Cpu { chunks: 2 };

/// out[y][x] = 2 * in[y][x] — trivially OpenCL-mappable.
fn double_rule() -> Arc<StencilRule> {
    Arc::new(StencilRule {
        name: "dbl".into(),
        inputs: vec![StencilInput { index: 0, access: AccessPattern::Point }],
        flops_per_output: 1.0,
        body_c: "result = 2.0 * IN0(x, y);".into(),
        elem: Arc::new(|env, x, y| 2.0 * env.inputs[0].at(x, y)),
        span: Span::PerCell { why: "a test rule" },
        native_only_body: false,
        text: Default::default(),
    })
}

fn stencil(input: MatrixId, output: MatrixId, n: usize, placement: Placement) -> StencilStep {
    StencilStep {
        rule: double_rule(),
        inputs: vec![input],
        output,
        out_dims: (n, n),
        user_scalars: vec![],
        placement,
    }
}

/// A do-nothing native step with declared read/write sets.
fn native(label: &str, reads: Vec<MatrixId>, writes: Vec<MatrixId>) -> NativeStep {
    NativeStep {
        label: label.into(),
        reads,
        writes,
        run: Box::new(|_w: &mut World, _ctx| Charge::Secs(1.0e-6)),
    }
}

fn alloc_n(world: &mut World, count: usize, n: usize) -> Vec<MatrixId> {
    (0..count).map(|_| world.alloc(Matrix::zeros(n, n))).collect()
}

// ---------------------------------------------------------------------------
// Pass 1: injected hazards
// ---------------------------------------------------------------------------

#[test]
fn injected_ww_hazard_is_reported_with_exact_steps() {
    let mut w = World::new();
    let m = alloc_n(&mut w, 2, 4);
    let mut p = PlanBuilder::new();
    p.native(native("writer_a", vec![], vec![m[0]]), &[]);
    p.native(native("writer_b", vec![], vec![m[0]]), &[]); // unordered!
    let findings = check_hazards(&p.build());
    assert_eq!(findings.len(), 1);
    let f = &findings[0];
    assert_eq!(f.pass, Pass::Hazard);
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.key, "hazard:write-write:0-1", "step-precise key");
    assert!(f.message.contains("`writer_a`") && f.message.contains("`writer_b`"), "{}", f.message);
    assert!(f.denied(), "hazards always fail --deny");
}

#[test]
fn injected_rw_hazard_is_reported_with_exact_steps() {
    let mut w = World::new();
    let m = alloc_n(&mut w, 3, 4);
    let mut p = PlanBuilder::new();
    let s0 = p.native(native("writer", vec![], vec![m[0]]), &[]);
    // Reader of m0 ordered only against an unrelated step — unordered
    // against the writer.
    let s1 = p.native(native("unrelated", vec![], vec![m[1]]), &[]);
    let _ = s0;
    p.native(native("reader", vec![m[0]], vec![m[2]]), &[s1]);
    let findings = check_hazards(&p.build());
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].key, "hazard:read-write:0-2");
    assert!(findings[0].message.contains("`reader`"), "{}", findings[0].message);
}

#[test]
fn dag_ordering_suppresses_the_same_access_pattern() {
    let mut w = World::new();
    let m = alloc_n(&mut w, 3, 4);
    let mut p = PlanBuilder::new();
    let s0 = p.native(native("writer", vec![], vec![m[0]]), &[]);
    let s1 = p.native(native("mid", vec![m[0]], vec![m[1]]), &[s0]);
    p.native(native("reader", vec![m[0]], vec![m[2]]), &[s1]); // transitive order
    assert!(check_hazards(&p.build()).is_empty());
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "unordered data hazard")]
fn executor_debug_asserts_on_hazardous_plans() {
    let mut w = World::new();
    let m = alloc_n(&mut w, 1, 4);
    let mut p = PlanBuilder::new();
    p.native(native("a", vec![], vec![m[0]]), &[]);
    p.native(native("b", vec![], vec![m[0]]), &[]);
    let _ = Executor::new(&MachineProfile::desktop()).run(p.build(), &mut w);
}

// ---------------------------------------------------------------------------
// Pass 2: placement and movement legality
// ---------------------------------------------------------------------------

#[test]
fn opencl_placement_on_gpuless_machine_is_an_error() {
    let mut w = World::new();
    let m = alloc_n(&mut w, 2, 4);
    let mut p = PlanBuilder::new();
    p.stencil(stencil(m[0], m[1], 4, GPU), &[]);
    let manycore = MachineProfile::extended()
        .into_iter()
        .find(|mp| !mp.has_opencl())
        .expect("a no-device profile exists");
    let findings = check_placements(&p.build(), &manycore);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].key, "placement:no-device:0");
    assert_eq!(findings[0].severity, Severity::Error);
}

#[test]
fn oversized_local_size_is_an_error() {
    let mut w = World::new();
    let m = alloc_n(&mut w, 2, 4);
    let mut p = PlanBuilder::new();
    let desktop = MachineProfile::desktop();
    let too_big = desktop.gpu.as_ref().expect("desktop has a GPU").max_work_group + 1;
    p.stencil(
        stencil(m[0], m[1], 4, Placement::OpenCl { local_memory: false, local_size: too_big }),
        &[],
    );
    let findings = check_placements(&p.build(), &desktop);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].key, "placement:local-size:0");
}

#[test]
fn zero_chunk_cpu_placement_is_an_error() {
    let mut w = World::new();
    let m = alloc_n(&mut w, 2, 4);
    let mut p = PlanBuilder::new();
    p.stencil(stencil(m[0], m[1], 4, Placement::Cpu { chunks: 0 }), &[]);
    let findings = check_placements(&p.build(), &MachineProfile::desktop());
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].key, "placement:zero-chunks:0");
}

#[test]
fn missing_transfer_to_host_consumer_is_caught() {
    // GPU producer feeding a CPU consumer: the §3.2 analysis must classify
    // the producer Eager. A doctored Reused classification (the "missing
    // transfer" defect) must be rejected with the producer's step index.
    let mut w = World::new();
    let m = alloc_n(&mut w, 3, 4);
    let mut p = PlanBuilder::new();
    let s0 = p.stencil(stencil(m[0], m[1], 4, GPU), &[]);
    p.stencil(stencil(m[1], m[2], 4, CPU), &[s0]);
    let plan = p.build();

    // The executor's own classification is sound ...
    assert!(check_movement(&plan, &analyze_movement(&plan)).is_empty());

    // ... and the doctored one is rejected.
    let doctored = vec![Some(CopyOutPolicy::Reused), None];
    let findings = check_movement(&plan, &doctored);
    assert_eq!(findings.len(), 1);
    let f = &findings[0];
    assert_eq!(f.key, "movement:0", "the GPU producer, not the consumer");
    assert!(f.message.contains("no transfer on any path"), "{}", f.message);
    assert_eq!(f.severity, Severity::Error);
}

#[test]
fn missing_policy_on_gpu_step_is_caught() {
    let mut w = World::new();
    let m = alloc_n(&mut w, 2, 4);
    let mut p = PlanBuilder::new();
    p.stencil(stencil(m[0], m[1], 4, GPU), &[]);
    p.mark_output(m[1]);
    let findings = check_movement(&p.build(), &[None]);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].key, "movement:missing-policy:0");
}

#[test]
fn lazy_where_host_needs_eager_is_caught() {
    // Program output produced on the GPU: §3.2 demands Eager. A Lazy
    // classification relies on a pull the executor never forces for plain
    // stencil consumers.
    let mut w = World::new();
    let m = alloc_n(&mut w, 2, 4);
    let mut p = PlanBuilder::new();
    p.stencil(stencil(m[0], m[1], 4, GPU), &[]);
    p.mark_output(m[1]);
    let findings = check_movement(&p.build(), &[Some(CopyOutPolicy::Lazy)]);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].key, "movement:0");
    assert!(findings[0].message.contains("deferred copy-out"), "{}", findings[0].message);
}

// ---------------------------------------------------------------------------
// Pass 3: structural config lint
// ---------------------------------------------------------------------------

fn one_site_program() -> Program {
    let mut p = Program::new("hostile");
    p.add_site(petal_core::ChoiceSite {
        name: "site".into(),
        num_algs: 3,
        opencl: false,
        local_memory_variant: false,
        fractional: false,
    });
    p
}

#[test]
fn cutoff_shadowed_selector_arm_is_reported() {
    let program = one_site_program();
    let machine = MachineProfile::desktop();
    let mut cfg = program.default_config(&machine);
    // Arm 1 (alg 2) starts at 5000, but the input is only 1024 elements:
    // the arm can never fire.
    cfg.set_selector("site", Selector::new(vec![5000], vec![1, 2], 3));
    let findings = lint_config(&program, &machine, &cfg, 1024);
    assert_eq!(findings.len(), 1);
    let f = &findings[0];
    assert_eq!(f.key, "shadowed-arm:site:1", "tunable-precise key");
    assert!(f.message.contains("alg 2") && f.message.contains("5000"), "{}", f.message);
    assert_eq!(f.severity, Severity::Warning);
}

#[test]
fn reachable_piecewise_selector_is_clean() {
    let program = one_site_program();
    let machine = MachineProfile::desktop();
    let mut cfg = program.default_config(&machine);
    cfg.set_selector("site", Selector::new(vec![512], vec![1, 2], 3));
    assert!(lint_config(&program, &machine, &cfg, 1024).is_empty());
}

#[test]
fn redundant_selector_level_is_reported() {
    let program = one_site_program();
    let machine = MachineProfile::desktop();
    let mut cfg = program.default_config(&machine);
    cfg.set_selector("site", Selector::new(vec![256], vec![1, 1], 3));
    let findings = lint_config(&program, &machine, &cfg, 1024);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].key, "redundant-level:site:0");
}

#[test]
fn out_of_range_tunable_value_is_an_error() {
    let program = one_site_program();
    let machine = MachineProfile::desktop();
    let mut cfg = program.default_config(&machine);
    // `Tunable::new` clamps, so forge the struct directly — this models a
    // hand-edited or corrupted stored config.
    cfg.set_tunable("rogue", Tunable { value: 99, min: 1, max: 8 });
    let findings = lint_config(&program, &machine, &cfg, 1024);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].key, "tunable-range:rogue");
    assert_eq!(findings[0].severity, Severity::Error);
    assert!(findings[0].denied());
}

#[test]
fn out_of_range_extra_tunable_default_is_an_error() {
    let mut program = one_site_program();
    program.add_tunable("bad_default", 500, 1, 64);
    let machine = MachineProfile::desktop();
    let cfg = Config::new();
    let findings = lint_config(&program, &machine, &cfg, 1024);
    assert!(findings.iter().any(|f| f.key == "default-range:bad_default"), "{findings:?}");
}

// ---------------------------------------------------------------------------
// Determinism audit: verifier-clean random plans are policy-independent
// ---------------------------------------------------------------------------

/// One random step: which earlier value it reads and how it is placed.
#[derive(Debug, Clone)]
struct StepSpec {
    /// Index into the pool of already-produced matrices (modulo its size).
    src: usize,
    /// 0 = CPU, 1 = OpenCL, 2 = split.
    place: u8,
    /// Extra dependencies on earlier steps (indices modulo position).
    extra_deps: Vec<usize>,
}

fn plan_strategy() -> impl Strategy<Value = (Vec<StepSpec>, u64)> {
    let step = (any::<usize>(), 0u8..3, proptest::collection::vec(any::<usize>(), 0..3))
        .prop_map(|(src, place, extra_deps)| StepSpec { src, place, extra_deps });
    (proptest::collection::vec(step, 1..10), any::<u64>())
}

/// Build the spec's plan: step `i` reads one existing matrix and writes a
/// fresh one, depending on the producer of its input (hazard-free by
/// construction) plus arbitrary extra earlier steps.
fn build_plan(specs: &[StepSpec], n: usize) -> (World, petal_core::plan::Plan, Vec<MatrixId>) {
    let mut world = World::new();
    let a0 = world.alloc(Matrix::from_fn(n, n, |r, c| (r * n + c + 1) as f64));
    // produced[k] = (matrix, Some(step that wrote it))
    let mut produced: Vec<(MatrixId, Option<petal_core::plan::StepId>)> = vec![(a0, None)];
    let mut p = PlanBuilder::new();
    let mut outputs = Vec::new();
    let mut sids: Vec<petal_core::plan::StepId> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let (src, producer) = produced[spec.src % produced.len()];
        let out = world.alloc(Matrix::zeros(n, n));
        let mut deps: Vec<petal_core::plan::StepId> = producer.into_iter().collect();
        for &d in &spec.extra_deps {
            if i > 0 {
                let id = sids[d % i];
                if !deps.contains(&id) {
                    deps.push(id);
                }
            }
        }
        let placement = match spec.place {
            0 => CPU,
            1 => GPU,
            _ => Placement::Split {
                gpu_eighths: 4,
                local_memory: false,
                local_size: 16,
                cpu_chunks: 2,
            },
        };
        let sid = p.stencil(stencil(src, out, n, placement), &deps);
        produced.push((out, Some(sid)));
        sids.push(sid);
        outputs.push(out);
    }
    let last = outputs.last().copied().expect("at least one step");
    p.mark_output(last);
    (world, p.build(), outputs)
}

fn run_policy(
    specs: &[StepSpec],
    n: usize,
    seed: u64,
    policy: SchedPolicy,
) -> (Vec<Matrix>, petal_core::ExecReport) {
    let (mut world, plan, outputs) = build_plan(specs, n);
    let mut ex = Executor::new(&MachineProfile::desktop());
    ex.set_seed(seed).set_sched_policy(policy);
    let report = ex.run(plan, &mut world).expect("clean plans execute");
    let mats = outputs.iter().map(|&m| world.get(m).clone()).collect();
    (mats, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random hazard-free DAG plans: (a) the verifier agrees they are
    /// clean, (b) execution is bit-identical under both scheduler
    /// policies — results, makespan, steal counters, everything.
    #[test]
    fn verifier_clean_plans_run_identically_under_both_policies(
        (specs, seed) in plan_strategy()
    ) {
        let n = 4;
        let machine = MachineProfile::desktop();
        let (_, plan, _) = build_plan(&specs, n);
        let findings = check_plan(&plan, &machine);
        prop_assert!(findings.is_empty(), "construction is hazard-free: {findings:?}");

        let (mats_a, rep_a) = run_policy(&specs, n, seed, SchedPolicy::Incremental);
        let (mats_b, rep_b) = run_policy(&specs, n, seed, SchedPolicy::NaiveScan);
        prop_assert_eq!(rep_a, rep_b, "reports must be bit-identical");
        for (i, (a, b)) in mats_a.iter().zip(&mats_b).enumerate() {
            prop_assert!(a.approx_eq(b, 0.0), "output {i} diverged between policies");
        }
    }
}
