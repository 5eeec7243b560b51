//! Execution plans and the data-movement analysis of §3.2.
//!
//! A [`Plan`] is the *schedule* the PetaBricks compiler generates "for each
//! assignment of choices in a transform": a DAG of steps, each either a
//! [`StencilStep`] (a rule application placed on the CPU backend, the
//! OpenCL backend, or fractionally split across both) or a [`NativeStep`]
//! (CPU-only code, possibly with dynamic recursion — the part the static
//! analysis cannot see through).
//!
//! After the schedule is built, [`analyze_movement`] classifies every
//! OpenCL-placed output region exactly as the paper does:
//!
//! * **must copy-out** — immediately consumed by CPU code (or a program
//!   output): copy eagerly;
//! * **reused** — consumed only by further OpenCL rules: leave it in GPU
//!   memory;
//! * **may copy-out** — consumed by dynamic control flow the analysis
//!   cannot resolve: defer the copy and insert a check before any consumer
//!   (`World::ensure_host`).

use crate::config::Config;
use crate::data::{MatrixId, World};
use crate::stencil::StencilRule;
use petal_gpu::profile::MachineProfile;
use petal_rt::{Charge, CpuCtx};
use std::sync::Arc;

/// Identifier of a step within one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StepId(pub(crate) usize);

impl StepId {
    /// Raw index, for diagnostics.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Where a stencil step executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// CPU workstealing backend, output rows divided into `chunks` tasks.
    Cpu {
        /// Parallel row-chunks (1 = sequential).
        chunks: usize,
    },
    /// OpenCL backend.
    OpenCl {
        /// Use the generated scratchpad variant.
        local_memory: bool,
        /// Work-items per work-group.
        local_size: usize,
    },
    /// Concurrent CPU + OpenCL: the first `gpu_eighths/8` of the rows on
    /// the device, the rest on CPU chunks (§4.3 work balancing).
    Split {
        /// Eighths of the output computed on the device (1..=7).
        gpu_eighths: u8,
        /// Use the scratchpad variant for the device part.
        local_memory: bool,
        /// Work-items per work-group.
        local_size: usize,
        /// CPU row-chunks for the host part.
        cpu_chunks: usize,
    },
}

impl Placement {
    /// True when any fraction of the step runs on the OpenCL device.
    #[must_use]
    pub fn uses_opencl(&self) -> bool {
        !matches!(self, Placement::Cpu { .. })
    }
}

/// One data-parallel rule application.
pub struct StencilStep {
    /// The rule to apply.
    pub rule: Arc<StencilRule>,
    /// Input matrices, positionally matching the rule's declared inputs.
    pub inputs: Vec<MatrixId>,
    /// Output matrix (must differ from every input).
    pub output: MatrixId,
    /// Output dimensions `(cols, rows)`.
    pub out_dims: (usize, usize),
    /// Scalar parameters forwarded to the rule body.
    pub user_scalars: Vec<f64>,
    /// Device placement.
    pub placement: Placement,
}

/// Closure type for native steps: arbitrary CPU code with dynamic spawning.
/// `Send` so a whole plan (and the trial evaluating it) can move to an
/// evaluation-farm worker thread.
pub type NativeFn = Box<dyn FnOnce(&mut World, &mut CpuCtx<World>) -> Charge + Send>;

/// One CPU-only step (external library calls, recursive poly-algorithms).
pub struct NativeStep {
    /// Human-readable label.
    pub label: String,
    /// Matrices this step may read (used by the movement analysis; reads
    /// beyond this set are a benchmark bug).
    pub reads: Vec<MatrixId>,
    /// Matrices this step may write.
    pub writes: Vec<MatrixId>,
    /// The code.
    pub run: NativeFn,
}

/// A step body.
pub enum StepKind {
    /// Automated data-parallel rule application.
    Stencil(StencilStep),
    /// Opaque CPU code.
    Native(NativeStep),
}

impl std::fmt::Debug for StepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepKind::Stencil(s) => f
                .debug_struct("Stencil")
                .field("rule", &s.rule.name)
                .field("placement", &s.placement)
                .finish_non_exhaustive(),
            StepKind::Native(n) => {
                f.debug_struct("Native").field("label", &n.label).finish_non_exhaustive()
            }
        }
    }
}

/// A node of the schedule DAG.
#[derive(Debug)]
pub struct Step {
    /// What the step does.
    pub kind: StepKind,
    /// Steps that must complete first.
    pub deps: Vec<StepId>,
}

impl Step {
    /// Matrices this step reads (whole-matrix granularity). For stencils
    /// this is the positional input list; for native steps the declared
    /// `reads` set — reads outside it are a benchmark bug, which is exactly
    /// what the hazard pass and the executor's debug cross-check assume.
    #[must_use]
    pub fn reads(&self) -> &[MatrixId] {
        match &self.kind {
            StepKind::Stencil(s) => &s.inputs,
            StepKind::Native(n) => &n.reads,
        }
    }

    /// Matrices this step writes (whole-matrix granularity).
    #[must_use]
    pub fn writes(&self) -> &[MatrixId] {
        match &self.kind {
            StepKind::Stencil(s) => std::slice::from_ref(&s.output),
            StepKind::Native(n) => &n.writes,
        }
    }

    /// Short human-readable name for diagnostics (rule name or label).
    #[must_use]
    pub fn describe(&self) -> &str {
        match &self.kind {
            StepKind::Stencil(s) => &s.rule.name,
            StepKind::Native(n) => &n.label,
        }
    }
}

/// Copy-out policy assigned to an OpenCL-placed output (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyOutPolicy {
    /// *must copy-out*: copied eagerly via a copy-out completion task.
    Eager,
    /// *reused*: left in GPU memory; the next kernel's copy-in deduplicates.
    Reused,
    /// *may copy-out*: deferred; consumers pull through `ensure_host`.
    Lazy,
}

/// A complete schedule for one configuration.
pub struct Plan {
    steps: Vec<Step>,
    outputs: Vec<MatrixId>,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan").field("steps", &self.steps).field("outputs", &self.outputs).finish()
    }
}

impl Plan {
    /// Steps in creation (schedule) order.
    #[must_use]
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Program outputs (always copied back to the host eagerly).
    #[must_use]
    pub fn outputs(&self) -> &[MatrixId] {
        &self.outputs
    }

    /// Decompose into steps (in schedule order) and outputs: what the
    /// executor lowers, and what a harness feeds back through a
    /// [`PlanBuilder`] to run a variant of a benchmark's plan.
    #[must_use]
    pub fn into_steps(self) -> (Vec<Step>, Vec<MatrixId>) {
        (self.steps, self.outputs)
    }
}

/// Incremental plan construction.
#[derive(Default)]
pub struct PlanBuilder {
    steps: Vec<Step>,
    outputs: Vec<MatrixId>,
}

impl std::fmt::Debug for PlanBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanBuilder").field("steps", &self.steps.len()).finish()
    }
}

impl PlanBuilder {
    /// Empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a stencil step.
    ///
    /// # Panics
    /// Panics if the output matrix is also an input (stencils never run in
    /// place) or a dependency id is out of range.
    pub fn stencil(&mut self, step: StencilStep, deps: &[StepId]) -> StepId {
        assert!(!step.inputs.contains(&step.output), "stencil output must differ from its inputs");
        self.push(StepKind::Stencil(step), deps)
    }

    /// Append a native step.
    pub fn native(&mut self, step: NativeStep, deps: &[StepId]) -> StepId {
        self.push(StepKind::Native(step), deps)
    }

    fn push(&mut self, kind: StepKind, deps: &[StepId]) -> StepId {
        let this = StepId(self.steps.len());
        for (i, d) in deps.iter().enumerate() {
            assert!(
                d.0 < self.steps.len(),
                "step {this:?} ({kind:?}): dependency {d:?} does not exist yet \
                 (self-references and forward edges are impossible in a plan DAG)"
            );
            assert!(
                !deps[..i].contains(d),
                "step {this:?} ({kind:?}): duplicate dependency {d:?} — each \
                 predecessor may be listed once (the verifier's graph pass \
                 assumes a well-formed DAG)"
            );
        }
        self.steps.push(Step { kind, deps: deps.to_vec() });
        this
    }

    /// Declare a matrix as a program output (forces eager copy-out).
    pub fn mark_output(&mut self, m: MatrixId) {
        if !self.outputs.contains(&m) {
            self.outputs.push(m);
        }
    }

    /// Finish the plan.
    #[must_use]
    pub fn build(self) -> Plan {
        Plan { steps: self.steps, outputs: self.outputs }
    }
}

/// Kind of a scheduling hazard between two unordered steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// Both steps write the matrix; the surviving value depends on
    /// scheduling order.
    WriteWrite,
    /// One step reads what the other writes with no ordering edge; the
    /// reader may observe either the old or the new value.
    ReadWrite,
}

impl std::fmt::Display for HazardKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HazardKind::WriteWrite => write!(f, "write-write"),
            HazardKind::ReadWrite => write!(f, "read-write"),
        }
    }
}

/// A pair of steps whose accesses to one matrix are not ordered by the
/// dependence DAG — the plan's result could depend on the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hazard {
    /// What kind of conflict.
    pub kind: HazardKind,
    /// The two conflicting steps (`first < second` in schedule order; for
    /// read-write hazards `first` is not necessarily the writer).
    pub steps: (StepId, StepId),
    /// The matrix both steps touch.
    pub matrix: MatrixId,
}

/// Build the transitive ordering relation of a plan's dependence DAG.
#[must_use]
pub fn reachability(plan: &Plan) -> petal_rt::Reachability {
    petal_rt::Reachability::from_deps(plan.steps().len(), |i| {
        plan.steps()[i].deps.iter().map(|d| d.0).collect::<Vec<_>>()
    })
}

/// The hazard/race pass: report every pair of steps that touch the same
/// matrix — at least one writing — with **no ordering path** between them in
/// the dependence DAG. A clean (empty) result means the plan's output is
/// independent of scheduling, which is the precondition both for the
/// determinism contract and for [`analyze_movement`]'s schedule-order
/// consumer scan being sound.
///
/// Granularity is the whole `MatrixId`: two writers of disjoint regions of
/// one matrix must still be ordered (or split the matrix), matching the
/// conservative contract `NativeStep::reads`/`writes` already declares.
#[must_use]
pub fn hazards(plan: &Plan) -> Vec<Hazard> {
    let steps = plan.steps();
    let reach = reachability(plan);
    // Group accesses per matrix: (step index, is_write).
    let mut by_matrix: std::collections::BTreeMap<MatrixId, Vec<(usize, bool)>> =
        std::collections::BTreeMap::new();
    for (i, step) in steps.iter().enumerate() {
        for m in step.reads() {
            by_matrix.entry(*m).or_default().push((i, false));
        }
        for m in step.writes() {
            by_matrix.entry(*m).or_default().push((i, true));
        }
    }
    let mut found = Vec::new();
    for (matrix, accesses) in by_matrix {
        for (ai, &(i, iw)) in accesses.iter().enumerate() {
            for &(j, jw) in &accesses[ai + 1..] {
                if i == j || (!iw && !jw) || reach.ordered(i, j) {
                    continue;
                }
                let kind = if iw && jw { HazardKind::WriteWrite } else { HazardKind::ReadWrite };
                let (a, b) = if i < j { (i, j) } else { (j, i) };
                found.push(Hazard { kind, steps: (StepId(a), StepId(b)), matrix });
            }
        }
    }
    found.sort_by_key(|h| (h.steps, h.matrix));
    found.dedup();
    found
}

/// The §3.2 analysis: classify every OpenCL-placed stencil output.
///
/// Returns one entry per step; `None` for steps that produce nothing on the
/// device (pure-CPU or native steps).
#[must_use]
pub fn analyze_movement(plan: &Plan) -> Vec<Option<CopyOutPolicy>> {
    let steps = plan.steps();
    let mut policies = vec![None; steps.len()];
    for (i, step) in steps.iter().enumerate() {
        let StepKind::Stencil(s) = &step.kind else { continue };
        if !s.placement.uses_opencl() {
            continue;
        }
        // A fractional split always computes part of the matrix on the CPU,
        // so the device part must consolidate back into host memory.
        if matches!(s.placement, Placement::Split { .. }) {
            policies[i] = Some(CopyOutPolicy::Eager);
            continue;
        }
        let mut cpu_consumer = plan.outputs().contains(&s.output);
        let mut gpu_consumer = false;
        let mut dynamic_consumer = false;
        for later in &steps[i + 1..] {
            match &later.kind {
                StepKind::Stencil(t) => {
                    if t.inputs.contains(&s.output) {
                        if t.placement.uses_opencl() {
                            gpu_consumer = true;
                        } else {
                            cpu_consumer = true;
                        }
                    }
                    if t.output == s.output {
                        break; // overwritten; later consumers see new data
                    }
                }
                StepKind::Native(n) => {
                    if n.reads.contains(&s.output) {
                        dynamic_consumer = true;
                    }
                    if n.writes.contains(&s.output) {
                        break;
                    }
                }
            }
        }
        policies[i] = Some(if cpu_consumer {
            CopyOutPolicy::Eager
        } else if dynamic_consumer {
            CopyOutPolicy::Lazy
        } else if gpu_consumer {
            CopyOutPolicy::Reused
        } else {
            // Nothing consumes it (dead value): copy eagerly for safety.
            CopyOutPolicy::Eager
        });
    }
    policies
}

/// Structural fingerprint of a lowered plan (FNV-1a).
///
/// Two plans with the same fingerprint lower to the same task structure:
/// same step kinds in the same order, same placements, same buffer wiring,
/// same dependence edges. `petal-verify` varies one configuration knob at
/// a time and declares the knob *dead* when no probed variation ever
/// changes the fingerprint. A native step hashes only its label, so
/// closures that re-read the configuration at run time are invisible here
/// (see `Benchmark::dynamic_config_keys`).
#[must_use]
pub fn plan_fingerprint(plan: &Plan) -> u64 {
    let mut h = petal_gpu::Fnv::default();
    h.write_usize(plan.steps().len());
    for step in plan.steps() {
        match &step.kind {
            StepKind::Stencil(s) => {
                h.write(&[1]);
                h.write_str(&s.rule.name);
                // Placement debug form covers the variant and every knob
                // (chunks, local_size, local_memory, gpu_eighths).
                h.write_str(&format!("{:?}", s.placement));
                h.write_usize(s.out_dims.0);
                h.write_usize(s.out_dims.1);
                for sc in &s.user_scalars {
                    h.write(&sc.to_bits().to_le_bytes());
                }
            }
            StepKind::Native(n) => {
                h.write(&[2]);
                h.write_str(&n.label);
            }
        }
        for m in step.reads() {
            h.write_usize(m.index());
        }
        h.write(&[0xfe]);
        for m in step.writes() {
            h.write_usize(m.index());
        }
        h.write(&[0xfd]);
        for d in &step.deps {
            h.write_usize(d.index());
        }
    }
    for m in plan.outputs() {
        h.write_usize(m.index());
    }
    h.finish()
}

/// Map a configuration to a placement for the named transform, following
/// the paper's GPU choice representation (§5.3): selector value 0 = CPU
/// backend, 1 = OpenCL with global memory, 2 = OpenCL with the local-memory
/// variant; plus the `*.local_size` and `*.gpu_ratio` tunables.
#[must_use]
pub fn placement_from_config(
    cfg: &Config,
    transform: &str,
    input_size: u64,
    machine: &MachineProfile,
    rule: &StencilRule,
    out_rows: usize,
) -> Placement {
    let opencl_ok = machine.has_opencl() && rule.opencl_verdict().is_ok();
    let mut choice = cfg.select(transform, input_size);
    if !opencl_ok {
        choice = 0;
    }
    if choice == 2 && !rule.has_local_memory_variant() {
        choice = 1;
    }
    let chunks = cpu_chunks(cfg, machine, out_rows);
    if choice == 0 {
        return Placement::Cpu { chunks };
    }
    let local_memory = choice == 2;
    let max_wg = machine.gpu.as_ref().map_or(1, |g| g.max_work_group);
    let local_size =
        cfg.tunable_or(&format!("{transform}.local_size"), 128).clamp(1, max_wg as i64) as usize;
    let ratio = cfg.tunable_or(&format!("{transform}.gpu_ratio"), 8).clamp(0, 8) as u8;
    match ratio {
        0 => Placement::Cpu { chunks },
        8 => Placement::OpenCl { local_memory, local_size },
        e => Placement::Split { gpu_eighths: e, local_memory, local_size, cpu_chunks: chunks },
    }
}

/// CPU chunk count from the `split_rows` and `sequential_cutoff` tunables.
#[must_use]
pub fn cpu_chunks(cfg: &Config, machine: &MachineProfile, out_rows: usize) -> usize {
    let seq_cutoff = cfg.tunable_or("sequential_cutoff", 64).max(1) as usize;
    if out_rows <= seq_cutoff {
        return 1;
    }
    let split_rows = cfg.tunable_or("split_rows", 0);
    let chunks =
        if split_rows > 0 { out_rows.div_ceil(split_rows as usize) } else { machine.cpu.cores * 2 };
    chunks.clamp(1, out_rows.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Selector, Tunable};
    use crate::stencil::{AccessPattern, Span, StencilInput};

    fn rule(access: AccessPattern) -> Arc<StencilRule> {
        Arc::new(StencilRule {
            name: "r".into(),
            inputs: vec![StencilInput { index: 0, access }],
            flops_per_output: 1.0,
            body_c: "result = IN0(x, y);".into(),
            elem: Arc::new(|env, x, y| env.inputs[0].at(x, y)),
            span: Span::PerCell { why: "a test rule" },
            native_only_body: false,
            text: Default::default(),
        })
    }

    fn stencil_step(input: MatrixId, output: MatrixId, placement: Placement) -> StencilStep {
        StencilStep {
            rule: rule(AccessPattern::Point),
            inputs: vec![input],
            output,
            out_dims: (4, 4),
            user_scalars: vec![],
            placement,
        }
    }

    fn ids() -> (MatrixId, MatrixId, MatrixId) {
        let mut w = World::new();
        let a = w.alloc(petal_blas::Matrix::zeros(4, 4));
        let b = w.alloc(petal_blas::Matrix::zeros(4, 4));
        let c = w.alloc(petal_blas::Matrix::zeros(4, 4));
        (a, b, c)
    }

    const GPU: Placement = Placement::OpenCl { local_memory: false, local_size: 64 };
    const CPU: Placement = Placement::Cpu { chunks: 2 };

    #[test]
    fn gpu_to_cpu_consumer_is_eager() {
        let (a, b, c) = ids();
        let mut p = PlanBuilder::new();
        let s1 = p.stencil(stencil_step(a, b, GPU), &[]);
        p.stencil(stencil_step(b, c, CPU), &[s1]);
        let plan = p.build();
        let pol = analyze_movement(&plan);
        assert_eq!(pol[0], Some(CopyOutPolicy::Eager));
        assert_eq!(pol[1], None, "CPU steps produce nothing on the device");
    }

    #[test]
    fn gpu_to_gpu_consumer_is_reused() {
        let (a, b, c) = ids();
        let mut p = PlanBuilder::new();
        let s1 = p.stencil(stencil_step(a, b, GPU), &[]);
        p.stencil(stencil_step(b, c, GPU), &[s1]);
        let pol = analyze_movement(&p.build());
        assert_eq!(pol[0], Some(CopyOutPolicy::Reused));
    }

    #[test]
    fn dynamic_consumer_is_lazy() {
        let (a, b, _) = ids();
        let mut p = PlanBuilder::new();
        let s1 = p.stencil(stencil_step(a, b, GPU), &[]);
        p.native(
            NativeStep {
                label: "dyn".into(),
                reads: vec![b],
                writes: vec![],
                run: Box::new(|_, _| Charge::Secs(0.0)),
            },
            &[s1],
        );
        let pol = analyze_movement(&p.build());
        assert_eq!(pol[0], Some(CopyOutPolicy::Lazy));
    }

    #[test]
    fn program_output_forces_eager_even_with_gpu_consumers() {
        let (a, b, c) = ids();
        let mut p = PlanBuilder::new();
        let s1 = p.stencil(stencil_step(a, b, GPU), &[]);
        p.stencil(stencil_step(b, c, GPU), &[s1]);
        p.mark_output(b);
        let pol = analyze_movement(&p.build());
        assert_eq!(pol[0], Some(CopyOutPolicy::Eager));
    }

    #[test]
    fn split_placement_is_always_eager() {
        let (a, b, c) = ids();
        let mut p = PlanBuilder::new();
        let split =
            Placement::Split { gpu_eighths: 6, local_memory: false, local_size: 64, cpu_chunks: 2 };
        let s1 = p.stencil(stencil_step(a, b, split), &[]);
        p.stencil(stencil_step(b, c, GPU), &[s1]);
        let pol = analyze_movement(&p.build());
        assert_eq!(pol[0], Some(CopyOutPolicy::Eager));
    }

    #[test]
    fn overwrite_cuts_consumer_search() {
        let (a, b, _) = ids();
        let mut p = PlanBuilder::new();
        let s1 = p.stencil(stencil_step(a, b, GPU), &[]);
        // b overwritten on the GPU, then read by the CPU: only the second
        // producer must copy out eagerly.
        let s2 = p.stencil(stencil_step(a, b, GPU), &[s1]);
        let (_, _, c) = ids();
        p.stencil(stencil_step(b, c, CPU), &[s2]);
        let pol = analyze_movement(&p.build());
        assert_eq!(pol[0], Some(CopyOutPolicy::Eager), "dead value copied for safety");
        assert_eq!(pol[1], Some(CopyOutPolicy::Eager));
    }

    #[test]
    fn placement_mapping_respects_machine_and_rule() {
        let mut cfg = Config::new();
        cfg.set_selector("t", Selector::constant(2, 3));
        cfg.set_tunable("t.local_size", Tunable::new(256, 1, 1024));
        cfg.set_tunable("t.gpu_ratio", Tunable::new(8, 0, 8));
        let desktop = MachineProfile::desktop();
        let stencil_rule = rule(AccessPattern::Stencil { w: 3, h: 3 });
        let p = placement_from_config(&cfg, "t", 1000, &desktop, &stencil_rule, 100);
        assert_eq!(p, Placement::OpenCl { local_memory: true, local_size: 256 });
        // Local-memory choice degrades to global for rules without the variant.
        let point_rule = rule(AccessPattern::Point);
        let p = placement_from_config(&cfg, "t", 1000, &desktop, &point_rule, 100);
        assert_eq!(p, Placement::OpenCl { local_memory: false, local_size: 256 });
        // No OpenCL on the machine: always CPU.
        let mut no_gpu = desktop.clone();
        no_gpu.gpu = None;
        let p = placement_from_config(&cfg, "t", 1000, &no_gpu, &stencil_rule, 100);
        assert!(matches!(p, Placement::Cpu { .. }));
        // Fractional ratio becomes a split.
        cfg.set_tunable("t.gpu_ratio", Tunable::new(6, 0, 8));
        let p = placement_from_config(&cfg, "t", 1000, &desktop, &stencil_rule, 100);
        assert!(matches!(p, Placement::Split { gpu_eighths: 6, .. }));
    }

    #[test]
    #[should_panic(expected = "duplicate dependency")]
    fn duplicate_dependency_panics() {
        let (a, b, c) = ids();
        let mut p = PlanBuilder::new();
        let s1 = p.stencil(stencil_step(a, b, CPU), &[]);
        p.stencil(stencil_step(b, c, CPU), &[s1, s1]);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn self_referencing_dependency_panics() {
        let (a, b, _) = ids();
        let mut p = PlanBuilder::new();
        // The id a step *would* get, passed as its own dependency.
        p.stencil(stencil_step(a, b, CPU), &[StepId(0)]);
    }

    #[test]
    fn step_read_write_sets() {
        let (a, b, _) = ids();
        let mut p = PlanBuilder::new();
        p.stencil(stencil_step(a, b, CPU), &[]);
        p.native(
            NativeStep {
                label: "n".into(),
                reads: vec![b],
                writes: vec![a],
                run: Box::new(|_, _| Charge::Secs(0.0)),
            },
            &[],
        );
        let plan = p.build();
        assert_eq!(plan.steps()[0].reads(), &[a]);
        assert_eq!(plan.steps()[0].writes(), &[b]);
        assert_eq!(plan.steps()[1].reads(), &[b]);
        assert_eq!(plan.steps()[1].writes(), &[a]);
        assert_eq!(plan.steps()[0].describe(), "r");
        assert_eq!(plan.steps()[1].describe(), "n");
    }

    #[test]
    fn ordered_plan_has_no_hazards() {
        let (a, b, c) = ids();
        let mut p = PlanBuilder::new();
        let s1 = p.stencil(stencil_step(a, b, GPU), &[]);
        p.stencil(stencil_step(b, c, CPU), &[s1]);
        assert!(hazards(&p.build()).is_empty());
    }

    #[test]
    fn unordered_writers_are_a_ww_hazard() {
        let (a, b, _) = ids();
        let mut p = PlanBuilder::new();
        let _s1 = p.stencil(stencil_step(a, b, CPU), &[]);
        let _s2 = p.stencil(stencil_step(a, b, CPU), &[]);
        let hs = hazards(&p.build());
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].kind, HazardKind::WriteWrite);
        assert_eq!(hs[0].steps, (StepId(0), StepId(1)));
        assert_eq!(hs[0].matrix, b);
    }

    #[test]
    fn unordered_reader_and_writer_are_a_rw_hazard() {
        let (a, b, c) = ids();
        let mut p = PlanBuilder::new();
        let _producer = p.stencil(stencil_step(a, b, CPU), &[]);
        // Reads b without depending on its producer.
        p.stencil(stencil_step(b, c, CPU), &[]);
        let hs = hazards(&p.build());
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].kind, HazardKind::ReadWrite);
        assert_eq!(hs[0].matrix, b);
    }

    #[test]
    fn transitive_ordering_suppresses_hazard() {
        let (a, b, c) = ids();
        let mut p = PlanBuilder::new();
        let s1 = p.stencil(stencil_step(a, b, CPU), &[]);
        let s2 = p.stencil(stencil_step(b, c, CPU), &[s1]);
        // Writes b again, ordered only transitively through s2.
        p.stencil(stencil_step(c, b, CPU), &[s2]);
        assert!(hazards(&p.build()).is_empty());
    }

    #[test]
    fn in_place_native_step_is_not_a_self_hazard() {
        let (a, _, _) = ids();
        let mut p = PlanBuilder::new();
        p.native(
            NativeStep {
                label: "inplace".into(),
                reads: vec![a],
                writes: vec![a],
                run: Box::new(|_, _| Charge::Secs(0.0)),
            },
            &[],
        );
        assert!(hazards(&p.build()).is_empty());
    }

    #[test]
    fn chunking_respects_sequential_cutoff() {
        let m = MachineProfile::desktop();
        let mut cfg = Config::new();
        cfg.set_tunable("sequential_cutoff", Tunable::new(128, 1, 1 << 20));
        assert_eq!(cpu_chunks(&cfg, &m, 100), 1);
        assert!(cpu_chunks(&cfg, &m, 1000) > 1);
        cfg.set_tunable("split_rows", Tunable::new(100, 1, 1 << 20));
        assert_eq!(cpu_chunks(&cfg, &m, 1000), 10);
    }
}
