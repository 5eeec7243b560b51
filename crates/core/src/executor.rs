//! The heterogeneous executor: lowers a [`Plan`] onto the hybrid
//! workstealing/work-pushing runtime.
//!
//! For every stencil step the executor emits exactly the task structure of
//! §4.2: one *prepare* task, one *copy-in* task per input (deduplicated
//! against the device residency table), one *execute* task (asynchronous
//! kernel launch plus non-blocking reads for eager copy-outs or a deferred
//! entry for lazy ones), and one *copy-out completion* task per eager
//! region. CPU placements become row-chunk tasks on the workstealing side;
//! fractional splits emit both and join on completion.
//!
//! OpenCL kernels are registered (and their runtime compiles logged) when
//! the plan is lowered, mirroring the JIT cost structure of §5.4.

use crate::codegen::{self, Geometry, RawInput};
use crate::data::{LazyEntry, World};
use crate::plan::{analyze_movement, CopyOutPolicy, Placement, Plan, StencilStep, StepKind};
use crate::Error;
use petal_gpu::buffer::{BufferId, SharedSlice};
use petal_gpu::compile::{CompileEvent, KernelHandle};
use petal_gpu::cost;
use petal_gpu::device::{Device, KernelLaunch};
use petal_gpu::profile::MachineProfile;
use petal_gpu::queue::{Event, EventStatus};
use petal_rt::{Charge, Engine, GpuOutcome, GpuTaskClass, RunReport, TaskId};
use std::sync::{Arc, Mutex};

/// The task ids a lowered step starts or ends with. Native steps are one
/// task each; keeping them out of `Vec` saves two allocations per step on
/// the lowering path (recursive plans have tens of thousands of steps).
enum TaskSet {
    One(TaskId),
    Many(Vec<TaskId>),
}

impl TaskSet {
    fn as_slice(&self) -> &[TaskId] {
        match self {
            TaskSet::One(id) => std::slice::from_ref(id),
            TaskSet::Many(v) => v,
        }
    }
}

/// Manager-side cost of issuing one non-blocking device call.
const ISSUE_SECS: f64 = 2.0e-6;

/// Result of executing one plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecReport {
    /// Runtime statistics (makespan, steals, dedup hits, ...).
    pub rt: RunReport,
    /// Virtual seconds the kernel compiles of this run cost in a process
    /// that had compiled none of them: `frontend_secs + jit_secs` of each
    /// of `compile_events`, summed in compile order (zero once the kernels
    /// are warm in the process).
    pub compile_secs: f64,
    /// Lazy copy-out pulls performed by consumers.
    pub lazy_pulls: usize,
    /// Kernel compiles done while lowering this plan, in compile order.
    /// The evaluation farm replays these against its shared process/IR-cache
    /// model to price trials deterministically.
    pub compile_events: Vec<CompileEvent>,
}

impl ExecReport {
    /// Steady-state execution time: the scheduler makespan.
    #[must_use]
    pub fn virtual_time_secs(&self) -> f64 {
        self.rt.makespan
    }
}

/// Executes plans on one machine, keeping the device's compiled-kernel
/// cache warm across runs (as a real process would).
pub struct Executor {
    machine: MachineProfile,
    device: Option<Device>,
    seed: u64,
    sched_policy: petal_rt::SchedPolicy,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor").field("machine", &self.machine.codename).finish_non_exhaustive()
    }
}

impl Executor {
    /// Executor for `machine` with one worker per core (the paper pins
    /// thread count to core count when migrating configurations).
    #[must_use]
    pub fn new(machine: &MachineProfile) -> Self {
        Executor {
            machine: machine.clone(),
            device: machine.gpu.clone().map(Device::new),
            seed: 0x5eed,
            sched_policy: petal_rt::SchedPolicy::Incremental,
        }
    }

    /// Override the deterministic scheduling seed.
    pub fn set_seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Pin the scheduling-core implementation of the engines this
    /// executor builds (`Incremental` otherwise). The two policies are
    /// bit-identical in behavior (the determinism audit in
    /// `petal_analysis` proves it on verifier-clean plans); this knob
    /// exists so that proof, and `bench_hotpath`'s "before" column, can
    /// run both sides explicitly.
    pub fn set_sched_policy(&mut self, policy: petal_rt::SchedPolicy) -> &mut Self {
        self.sched_policy = policy;
        self
    }

    /// The machine this executor targets.
    #[must_use]
    pub fn machine(&self) -> &MachineProfile {
        &self.machine
    }

    /// The device, if any (for inspecting its buffers).
    #[must_use]
    pub fn device(&self) -> Option<&Device> {
        self.device.as_ref()
    }

    /// Lower `plan` to tasks, run it to completion against `world`, and
    /// report timing.
    ///
    /// # Errors
    /// Propagates scheduler deadlocks, device failures, and attempts to use
    /// OpenCL placements on a machine without a device.
    pub fn run(&mut self, plan: Plan, world: &mut World) -> Result<ExecReport, Error> {
        // Cross-check the static analyzer's hazard-freedom claim: every plan
        // the executor runs in a test build must be scheduling-independent,
        // otherwise the movement analysis below (a schedule-order scan) is
        // unsound and the determinism contract is void.
        #[cfg(debug_assertions)]
        {
            let hs = crate::plan::hazards(&plan);
            debug_assert!(
                hs.is_empty(),
                "plan has {} unordered data hazard(s); first: {:?} — \
                 run petal-verify for the full report",
                hs.len(),
                hs[0]
            );
        }
        let policies = analyze_movement(&plan);
        // Per-run process-restart modeling (§5.4) lives in the evaluation
        // farm now: a farm trial gets a fresh executor (= fresh process)
        // and the farm re-prices compiles against its shared IR-cache
        // model, so the executor itself only resets transient device state.
        // The device draws this run's buffers from the world's recycler,
        // so they recycle with the world's own matrices, session-long.
        let mut device = self.device.take();
        if let Some(d) = &mut device {
            d.reset_timeline();
            d.buffers_mut().draw_from(Arc::clone(world.recycler()));
        }
        let lazy_before = world.lazy_pulls;

        let mut engine: Engine<World> = Engine::with_device_and_workers(
            &self.machine,
            self.machine.cpu.cores,
            device,
            self.seed,
        );
        engine.set_sched_policy(self.sched_policy);

        let (steps, _outputs) = plan.into_steps();
        // Native steps (the overwhelming majority in recursive plans) lower
        // to exactly one task, so the per-step initial/terminal sets are
        // kept alloc-free for that case.
        let mut terminals: Vec<TaskSet> = Vec::with_capacity(steps.len());
        let mut initials: Vec<TaskSet> = Vec::with_capacity(steps.len());

        for (idx, step) in steps.into_iter().enumerate() {
            let (init, term) = match step.kind {
                StepKind::Native(n) => {
                    let id = engine.add_cpu_task_boxed(n.run);
                    (TaskSet::One(id), TaskSet::One(id))
                }
                StepKind::Stencil(s) => {
                    let policy = policies[idx].unwrap_or(CopyOutPolicy::Eager);
                    let (init, term) = self.lower_stencil(&mut engine, &s, policy)?;
                    (TaskSet::Many(init), TaskSet::Many(term))
                }
            };
            for dep in &step.deps {
                for &t in terminals[dep.index()].as_slice() {
                    for &i in init.as_slice() {
                        engine.add_dependency(i, t).map_err(Error::Rt)?;
                    }
                }
            }
            initials.push(init);
            terminals.push(term);
        }

        let rt = engine.run(world).map_err(Error::Rt)?;
        self.device = engine.take_device();
        let compile_events = self.device.as_mut().map(Device::take_compile_log).unwrap_or_default();
        let compile_secs =
            compile_events.iter().fold(0.0, |s, e| s + (e.frontend_secs + e.jit_secs));
        Ok(ExecReport {
            rt,
            compile_secs,
            lazy_pulls: world.lazy_pulls - lazy_before,
            compile_events,
        })
    }

    /// Emit tasks for one stencil step; returns (initial, terminal) tasks.
    #[allow(clippy::too_many_lines)]
    fn lower_stencil(
        &mut self,
        engine: &mut Engine<World>,
        s: &StencilStep,
        policy: CopyOutPolicy,
    ) -> Result<(Vec<TaskId>, Vec<TaskId>), Error> {
        let (out_w, out_h) = s.out_dims;
        let (gpu_rows, cpu_chunks, local_memory, local_size) = match s.placement {
            Placement::Cpu { chunks } => (0, chunks, false, 1),
            Placement::OpenCl { local_memory, local_size } => (out_h, 0, local_memory, local_size),
            Placement::Split { gpu_eighths, local_memory, local_size, cpu_chunks } => {
                ((out_h * gpu_eighths as usize) / 8, cpu_chunks, local_memory, local_size)
            }
        };

        let mut initials = Vec::new();
        let mut terminals = Vec::new();

        // ----- CPU part: rows [gpu_rows, out_h) in `cpu_chunks` tasks -----
        if gpu_rows < out_h {
            let rows = out_h - gpu_rows;
            let chunks = cpu_chunks.clamp(1, rows);
            let per = rows.div_ceil(chunks);
            let mut r0 = gpu_rows;
            while r0 < out_h {
                let r1 = (r0 + per).min(out_h);
                let rule = Arc::clone(&s.rule);
                let inputs = s.inputs.clone();
                let output = s.output;
                let scalars = s.user_scalars.clone();
                let id = engine.add_cpu_task(move |world: &mut World, ctx| {
                    let mut extra = 0.0;
                    for &i in &inputs {
                        extra += world.ensure_host(i, ctx.now());
                    }
                    let geom = Geometry {
                        out_w,
                        out_h,
                        row0: r0,
                        row1: r1,
                        in_dims: inputs
                            .iter()
                            .map(|&i| {
                                let m = world.get(i);
                                (m.cols(), m.rows())
                            })
                            .collect(),
                        local_size: 1,
                    };
                    let mut out = world.take_matrix(output);
                    {
                        let raw: Vec<RawInput<'_>> = inputs
                            .iter()
                            .map(|&i| {
                                let m = world.get(i);
                                (m.as_slice(), m.cols(), m.rows())
                            })
                            .collect();
                        let rows = &mut out.as_mut_slice()[r0 * out_w..r1 * out_w];
                        codegen::run_global(&rule, &raw, &scalars, rows, &geom);
                    }
                    let work = codegen::cpu_work(&rule, &geom, r1 - r0);
                    world.restore_matrix(output, out);
                    Charge::WorkPlusSecs(work, extra)
                });
                initials.push(id);
                terminals.push(id);
                r0 = r1;
            }
        }

        // ----- GPU part: rows [0, gpu_rows) as one kernel invocation -----
        if gpu_rows > 0 {
            let Some(device) = engine.device_mut() else {
                return Err(Error::Validation(format!(
                    "rule '{}' placed on OpenCL but machine '{}' has no device",
                    s.rule.name, self.machine.codename
                )));
            };
            s.rule.opencl_verdict().map_err(|r| {
                Error::Validation(format!("rule '{}' cannot map to OpenCL: {r}", s.rule.name))
            })?;
            let body = codegen::make_kernel_body(Arc::clone(&s.rule), local_memory);
            let handle = device.register_kernel(s.rule.kernel_text(local_memory), body);

            let chain = self.gpu_invocation_chain(
                engine,
                s,
                handle,
                policy,
                gpu_rows,
                local_memory,
                local_size,
            );
            // Chain order: prepare -> copy-ins -> execute -> copy-out done.
            initials.push(chain.prepare);
            match (policy, chain.copy_out_done) {
                (CopyOutPolicy::Eager, Some(done)) => terminals.push(done),
                _ => terminals.push(chain.execute),
            }
        }
        Ok((initials, terminals))
    }

    /// Build the four-task GPU chain for one kernel invocation.
    #[allow(clippy::too_many_arguments)]
    fn gpu_invocation_chain(
        &self,
        engine: &mut Engine<World>,
        s: &StencilStep,
        handle: KernelHandle,
        policy: CopyOutPolicy,
        gpu_rows: usize,
        local_memory: bool,
        local_size: usize,
    ) -> GpuChain {
        #[derive(Default)]
        struct Inv {
            in_bufs: Vec<Option<(BufferId, bool)>>,
            out_buf: Option<BufferId>,
            read: Option<(Event, SharedSlice)>,
        }
        // Shared invocation state between the four chain tasks. `Arc<Mutex>`
        // (not `Rc<RefCell>`): the chain must be `Send` so a whole trial can
        // run on an evaluation-farm worker thread. Tasks of one engine never
        // run concurrently, so the lock is uncontended. The per-input slots
        // are sized up front so no task ever grows the vector.
        let inv =
            Arc::new(Mutex::new(Inv { in_bufs: vec![None; s.inputs.len()], ..Inv::default() }));

        let (out_w, out_h) = s.out_dims;
        let inputs = s.inputs.clone();
        let output = s.output;

        // Prepare: allocate buffers (reusing resident input copies).
        let prepare = {
            let inv = Arc::clone(&inv);
            let inputs = inputs.clone();
            engine.add_gpu_task(GpuTaskClass::Prepare, move |world: &mut World, ctx| {
                let mut secs = 0.0;
                let profile = ctx.device.profile().clone();
                let mut st = inv.lock().expect("inv lock");
                for (k, &i) in inputs.iter().enumerate() {
                    let (cols, rows) = world.get_dims(i);
                    let m_len = cols * rows;
                    let key = world.residency_key(i, 0, rows);
                    if let Some(id) = ctx.device.buffers().lookup_resident(key) {
                        st.in_bufs[k] = Some((id, true));
                    } else {
                        // A slot that borrows its donor gets a buffer that
                        // borrows it too: nothing to zero-fill, and nothing
                        // for the copy-in to copy if the slot still does.
                        let id = match world.shared(i) {
                            Some(donor) => ctx.device.alloc_buffer_shared(Arc::clone(donor).into()),
                            None => ctx.device.alloc_buffer(m_len),
                        };
                        secs += cost::alloc_secs(&profile, m_len as f64 * 8.0);
                        st.in_bufs[k] = Some((id, false));
                    }
                }
                let out_len = out_w * gpu_rows;
                let ob = ctx.device.alloc_buffer(out_len);
                secs += cost::alloc_secs(&profile, out_len as f64 * 8.0);
                st.out_buf = Some(ob);
                Ok(GpuOutcome::Done { manager_secs: secs })
            })
        };

        // One copy-in per input, deduplicated against the residency table.
        let mut copy_ins = Vec::with_capacity(inputs.len());
        for (k, &i) in inputs.iter().enumerate() {
            let inv = Arc::clone(&inv);
            let id = engine.add_gpu_task(GpuTaskClass::CopyIn, move |world: &mut World, ctx| {
                let (buf, resident) =
                    inv.lock().expect("inv lock").in_bufs[k].expect("prepare ran before copy-in");
                if resident {
                    ctx.note_dedup_hit();
                    return Ok(GpuOutcome::Done { manager_secs: 1.0e-7 });
                }
                if world.has_pending_copy_out(i) {
                    // Rare: a lazily-deferred producer feeding a GPU consumer
                    // that lost residency; materialize on the host first.
                    let _ = world.ensure_host(i, ctx.now);
                }
                let rows = world.get_dims(i).1;
                let key = world.residency_key(i, 0, rows);
                // A donor is read-only for as long as anyone holds it, so
                // a slot that still borrows one is copied in by reference;
                // an owned matrix (a host write detaches the slot, between
                // prepare and here included) is copied, handed over as a
                // slice.
                match world.shared(i) {
                    Some(donor) => {
                        ctx.device.enqueue_write_shared(ctx.now, buf, Arc::clone(donor).into())?
                    }
                    None => ctx.device.enqueue_write(ctx.now, buf, world.get(i).as_slice())?,
                };
                ctx.device.buffers_mut().mark_resident(key, buf);
                Ok(GpuOutcome::Done { manager_secs: ISSUE_SECS })
            });
            engine.add_dependency(id, prepare).expect("fresh tasks accept dependencies");
            copy_ins.push(id);
        }

        // Execute: launch the kernel, then issue the copy-out per policy.
        let execute = {
            let inv = Arc::clone(&inv);
            let rule = Arc::clone(&s.rule);
            let scalars = s.user_scalars.clone();
            engine.add_gpu_task(GpuTaskClass::Execute, move |world: &mut World, ctx| {
                let (st_bufs, out_buf) = {
                    let st = inv.lock().expect("inv lock");
                    let mut v: Vec<BufferId> =
                        st.in_bufs.iter().map(|b| b.expect("copy-in ran").0).collect();
                    let out = st.out_buf.expect("prepare ran");
                    v.push(out);
                    (v, out)
                };
                let geom = Geometry {
                    out_w,
                    out_h,
                    row0: 0,
                    row1: gpu_rows,
                    in_dims: inputs.iter().map(|&i| world.get_dims(i)).collect(),
                    local_size,
                };
                let launch = KernelLaunch {
                    kernel: handle,
                    buffers: st_bufs,
                    scalars: codegen::encode_scalars(&geom, &scalars),
                    work: codegen::kernel_work(&rule, &geom, local_memory),
                };
                let kev = ctx.device.enqueue_kernel(ctx.now, &launch)?;
                match policy {
                    CopyOutPolicy::Eager => {
                        let (ev, data) = ctx.device.enqueue_read(ctx.now, out_buf)?;
                        inv.lock().expect("inv lock").read = Some((ev, data));
                        // Keep the device copy usable by later kernels too.
                        if gpu_rows == out_h {
                            let key = world.residency_key(output, 0, out_h);
                            ctx.device.buffers_mut().mark_resident(key, out_buf);
                        }
                    }
                    CopyOutPolicy::Lazy => {
                        let data = ctx.device.buffers_mut().get_mut(out_buf)?.snapshot();
                        let bytes = data.len() as f64 * 8.0;
                        let pull = cost::transfer_secs(ctx.device.profile(), bytes);
                        let key = world.residency_key(output, 0, out_h);
                        ctx.device.buffers_mut().mark_resident(key, out_buf);
                        world.defer_copy_out(
                            output,
                            LazyEntry { data, ready_at: kev.complete_at, pull_secs: pull },
                        );
                    }
                    CopyOutPolicy::Reused => {
                        let key = world.residency_key(output, 0, out_h);
                        ctx.device.buffers_mut().mark_resident(key, out_buf);
                    }
                }
                Ok(GpuOutcome::Done { manager_secs: ISSUE_SECS })
            })
        };
        for &c in &copy_ins {
            engine.add_dependency(execute, c).expect("fresh tasks accept dependencies");
        }

        // Copy-out completion: poll the non-blocking read (eager only).
        let copy_out_done = if policy == CopyOutPolicy::Eager {
            let inv = Arc::clone(&inv);
            let id =
                engine.add_gpu_task(GpuTaskClass::CopyOutDone, move |world: &mut World, ctx| {
                    // One lock session covers both the poll and the data
                    // handover (the poll used to re-lock to take the data).
                    let mut st = inv.lock().expect("inv lock");
                    {
                        let (ev, _) = st.read.as_ref().expect("execute issued the read");
                        if let EventStatus::Pending = ev.status_at(ctx.now) {
                            return Ok(GpuOutcome::Requeue { ready_at: ev.complete_at });
                        }
                    }
                    let (_, data) = st.read.take().expect("read present");
                    drop(st);
                    let mut out = world.take_matrix(output);
                    out.as_mut_slice()[0..out_w * gpu_rows].copy_from_slice(&data);
                    world.restore_matrix(output, out);
                    Ok(GpuOutcome::Done { manager_secs: 1.0e-6 })
                });
            engine.add_dependency(id, execute).expect("fresh tasks accept dependencies");
            Some(id)
        } else {
            None
        };

        GpuChain { prepare, execute, copy_out_done }
    }
}

struct GpuChain {
    prepare: TaskId,
    execute: TaskId,
    copy_out_done: Option<TaskId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::MatrixId;
    use crate::plan::{NativeStep, PlanBuilder};
    use crate::stencil::{AccessPattern, Span, StencilInput, StencilRule};
    use petal_blas::Matrix;
    use petal_gpu::device::DeviceStats;

    /// out[y][x] = 2 * in[y][x]
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

    fn setup(n: usize) -> (World, MatrixId, MatrixId) {
        let mut w = World::new();
        let a = w.alloc(Matrix::from_fn(n, n, |r, c| (r * n + c) as f64));
        let b = w.alloc(Matrix::zeros(n, n));
        (w, a, b)
    }

    fn step(a: MatrixId, b: MatrixId, n: usize, placement: Placement) -> StencilStep {
        StencilStep {
            rule: double_rule(),
            inputs: vec![a],
            output: b,
            out_dims: (n, n),
            user_scalars: vec![],
            placement,
        }
    }

    fn expected(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| 2.0 * (r * n + c) as f64)
    }

    #[test]
    fn cpu_placement_computes_correctly() {
        let (mut w, a, b) = setup(8);
        let mut p = PlanBuilder::new();
        p.stencil(step(a, b, 8, Placement::Cpu { chunks: 3 }), &[]);
        p.mark_output(b);
        let mut ex = Executor::new(&MachineProfile::desktop());
        let rep = ex.run(p.build(), &mut w).unwrap();
        assert!(w.get(b).approx_eq(&expected(8), 0.0));
        assert!(rep.virtual_time_secs() > 0.0);
        assert_eq!(rep.rt.gpu_tasks, 0);
    }

    #[test]
    fn gpu_placement_computes_and_copies_out() {
        let (mut w, a, b) = setup(8);
        let mut p = PlanBuilder::new();
        p.stencil(step(a, b, 8, Placement::OpenCl { local_memory: false, local_size: 16 }), &[]);
        p.mark_output(b);
        let mut ex = Executor::new(&MachineProfile::desktop());
        let rep = ex.run(p.build(), &mut w).unwrap();
        assert!(w.get(b).approx_eq(&expected(8), 0.0));
        // prepare + copy-in + execute + copy-out completion.
        assert!(rep.rt.gpu_tasks >= 4, "gpu tasks {}", rep.rt.gpu_tasks);
        assert_eq!(rep.compile_events.len(), 1, "first run JIT-compiles");
    }

    #[test]
    fn split_placement_joins_both_parts() {
        let (mut w, a, b) = setup(16);
        let mut p = PlanBuilder::new();
        p.stencil(
            step(
                a,
                b,
                16,
                Placement::Split {
                    gpu_eighths: 5,
                    local_memory: false,
                    local_size: 16,
                    cpu_chunks: 2,
                },
            ),
            &[],
        );
        p.mark_output(b);
        let mut ex = Executor::new(&MachineProfile::laptop());
        ex.run(p.build(), &mut w).unwrap();
        assert!(w.get(b).approx_eq(&expected(16), 0.0), "both halves must land");
    }

    #[test]
    fn gpu_chain_reuses_resident_data() {
        // b = 2a (GPU), c = 2b (GPU): the second kernel's copy-in must
        // dedup against b's resident buffer.
        let (mut w, a, b) = setup(8);
        let c = w.alloc(Matrix::zeros(8, 8));
        let mut p = PlanBuilder::new();
        let gpu = Placement::OpenCl { local_memory: false, local_size: 16 };
        let s1 = p.stencil(step(a, b, 8, gpu), &[]);
        p.stencil(step(b, c, 8, gpu), &[s1]);
        p.mark_output(c);
        let mut ex = Executor::new(&MachineProfile::desktop());
        let rep = ex.run(p.build(), &mut w).unwrap();
        let want = Matrix::from_fn(8, 8, |r, cc| 4.0 * (r * 8 + cc) as f64);
        assert!(w.get(c).approx_eq(&want, 0.0));
        assert!(rep.rt.copy_in_dedup_hits >= 1, "dedup hits {}", rep.rt.copy_in_dedup_hits);
    }

    /// What a run leaves behind that a by-reference copy-in must not move.
    fn observed(ex: &Executor, w: &World, out: MatrixId) -> (Vec<u64>, DeviceStats, usize) {
        let device = ex.device().expect("desktop has a device");
        let bits: Vec<u64> = w.get(out).as_slice().iter().map(|x| x.to_bits()).collect();
        (bits, device.stats(), device.buffers().peak_bytes())
    }

    #[test]
    fn a_shared_input_is_copied_in_by_reference_and_runs_as_a_copied_one_does() {
        let n = 16;
        let donor = Arc::new(Matrix::from_fn(n, n, |r, c| (r * n + c) as f64));
        let split =
            Placement::Split { gpu_eighths: 5, local_memory: false, local_size: 16, cpu_chunks: 2 };
        for placement in [Placement::OpenCl { local_memory: false, local_size: 16 }, split] {
            let run = |shared: bool| {
                let mut w = World::new();
                let a = if shared {
                    w.alloc_shared(Arc::clone(&donor))
                } else {
                    w.alloc(Matrix::clone(&donor))
                };
                let b = w.alloc(Matrix::zeros(n, n));
                let mut p = PlanBuilder::new();
                p.stencil(step(a, b, n, placement), &[]);
                p.mark_output(b);
                let mut ex = Executor::new(&MachineProfile::desktop());
                let rep = ex.run(p.build(), &mut w).unwrap();
                // World, device buffers and our handle, while all three live.
                assert_eq!(Arc::strong_count(&donor), if shared { 3 } else { 1 });
                assert!(w.get(b).approx_eq(&expected(n), 0.0));
                (rep, observed(&ex, &w, b))
            };
            assert_eq!(run(true), run(false), "{placement:?}");
            assert_eq!(Arc::strong_count(&donor), 1, "world and executor let go of the donor");
            assert_eq!(*donor, Matrix::from_fn(n, n, |r, c| (r * n + c) as f64));
        }
    }

    #[test]
    fn a_host_write_between_prepare_and_copy_in_falls_back_to_the_copy() {
        // No verified plan writes a stencil's input while its chain is in
        // flight (the write below is undeclared, so that `hazards` lets it
        // through): the copy-in looks at the slot again because it costs
        // nothing to, not because it has to. Prepare issues two allocations
        // (8 µs on the Desktop manager thread); the write starts 1.2 µs in.
        let n = 8;
        let donor = Arc::new(Matrix::from_fn(n, n, |r, c| (r * n + c) as f64));
        let mut w = World::new();
        let a = w.alloc_shared(Arc::clone(&donor));
        let b = w.alloc(Matrix::zeros(n, n));
        let holders_at_write = Arc::new(Mutex::new(0));
        let mut p = PlanBuilder::new();
        p.stencil(step(a, b, n, Placement::OpenCl { local_memory: false, local_size: 16 }), &[]);
        let native = |label: &str, run: crate::plan::NativeFn| NativeStep {
            label: label.into(),
            reads: vec![],
            writes: vec![],
            run,
        };
        let wait = p.native(native("wait", Box::new(|_, _| Charge::Secs(1.0e-6))), &[]);
        let (seen, held) = (Arc::clone(&holders_at_write), Arc::clone(&donor));
        p.native(
            native(
                "undeclared write",
                Box::new(move |world, _| {
                    *seen.lock().expect("unshared") = Arc::strong_count(&held);
                    world.get_mut(a)[(0, 0)] = 100.0;
                    Charge::Secs(0.0)
                }),
            ),
            &[wait],
        );
        p.mark_output(b);
        let mut ex = Executor::new(&MachineProfile::desktop());
        ex.run(p.build(), &mut w).unwrap();
        // Ours, the closure's, the slot's — and the buffer prepare reserved.
        assert_eq!(
            *holders_at_write.lock().expect("unshared"),
            4,
            "prepare ran first, by reference"
        );
        let mut want = expected(n);
        want[(0, 0)] = 200.0;
        assert!(w.get(b).approx_eq(&want, 0.0), "the copy-in ran second, and copied");
        assert_eq!(donor[(0, 0)], 0.0, "nothing wrote through to the donor");
        drop((w, ex));
        assert_eq!(Arc::strong_count(&donor), 1);
    }

    #[test]
    fn lazy_copy_out_is_pulled_by_native_consumer() {
        let (mut w, a, b) = setup(4);
        let result = w.alloc(Matrix::zeros(1, 1));
        let mut p = PlanBuilder::new();
        let gpu = Placement::OpenCl { local_memory: false, local_size: 16 };
        let s1 = p.stencil(step(a, b, 4, gpu), &[]);
        p.native(
            NativeStep {
                label: "sum".into(),
                reads: vec![b],
                writes: vec![result],
                run: Box::new(move |world, ctx| {
                    let extra = world.ensure_host(b, ctx.now());
                    let total: f64 = world.get(b).as_slice().iter().sum();
                    world.get_mut(result)[(0, 0)] = total;
                    Charge::WorkPlusSecs(petal_gpu::cost::CpuWork::new(16.0, 128.0), extra)
                }),
            },
            &[s1],
        );
        p.mark_output(result);
        let mut ex = Executor::new(&MachineProfile::desktop());
        let rep = ex.run(p.build(), &mut w).unwrap();
        let want: f64 = (0..16).map(|i| 2.0 * i as f64).sum();
        assert_eq!(w.get(result)[(0, 0)], want);
        assert_eq!(rep.lazy_pulls, 1, "the native consumer pulled the deferred region");
    }

    #[test]
    fn opencl_on_gpuless_machine_is_rejected() {
        let (mut w, a, b) = setup(4);
        let mut p = PlanBuilder::new();
        p.stencil(step(a, b, 4, Placement::OpenCl { local_memory: false, local_size: 16 }), &[]);
        let mut machine = MachineProfile::desktop();
        machine.gpu = None;
        let mut ex = Executor::new(&machine);
        let err = ex.run(p.build(), &mut w).unwrap_err();
        assert!(matches!(err, Error::Validation(_)), "{err:?}");
    }

    /// b = 2a, then c = 3b, both on the device: two kernels.
    fn two_kernel_run(ex: &mut Executor) -> ExecReport {
        let (mut w, a, b) = setup(8);
        let c = w.alloc(Matrix::zeros(8, 8));
        let triple = Arc::new(StencilRule {
            name: "tpl".into(),
            body_c: "result = 3.0 * IN0(x, y);".into(),
            elem: Arc::new(|env, x, y| 3.0 * env.inputs[0].at(x, y)),
            ..(*double_rule()).clone()
        });
        let gpu = Placement::OpenCl { local_memory: false, local_size: 16 };
        let mut p = PlanBuilder::new();
        let s1 = p.stencil(step(a, b, 8, gpu), &[]);
        p.stencil(StencilStep { rule: triple, ..step(b, c, 8, gpu) }, &[s1]);
        p.mark_output(c);
        let report = ex.run(p.build(), &mut w).unwrap();
        assert!(w.get(c).approx_eq(&Matrix::from_fn(8, 8, |r, cc| 6.0 * (r * 8 + cc) as f64), 0.0));
        report
    }

    #[test]
    fn compile_secs_is_the_fold_of_the_runs_compile_events() {
        let mut ex = Executor::new(&MachineProfile::desktop());
        let rep = two_kernel_run(&mut ex);
        assert_eq!(rep.compile_events.len(), 2);
        let fold = rep.compile_events.iter().fold(0.0, |s, e| s + (e.frontend_secs + e.jit_secs));
        assert_eq!(rep.compile_secs.to_bits(), fold.to_bits());
        // What a `+=` of each compile's full price from 0.0 gives.
        let g = MachineProfile::desktop().gpu.unwrap();
        let full = g.compile_frontend + g.compile_jit;
        assert_eq!(rep.compile_secs.to_bits(), (0.0 + full + full).to_bits());
    }

    #[test]
    fn second_run_compiles_nothing() {
        let mut ex = Executor::new(&MachineProfile::desktop());
        two_kernel_run(&mut ex);
        let second = two_kernel_run(&mut ex);
        assert!(second.compile_events.is_empty(), "kernel cache is warm");
        assert_eq!(second.compile_secs.to_bits(), 0.0_f64.to_bits(), "+0.0");
    }

    #[test]
    fn a_reused_executor_holds_one_runs_buffers_and_recycles_the_run_befores() {
        let recycler = Arc::new(petal_gpu::buffer::Recycler::default());
        let run = |ex: &mut Executor| {
            let mut w = World::on(Arc::clone(&recycler));
            let a = w.alloc(Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f64));
            let b = w.zeros(8, 8);
            let mut p = PlanBuilder::new();
            p.stencil(
                step(a, b, 8, Placement::OpenCl { local_memory: false, local_size: 16 }),
                &[],
            );
            p.mark_output(b);
            let report = ex.run(p.build(), &mut w).unwrap();
            assert!(w.get(b).approx_eq(&expected(8), 0.0));
            let buffers = ex.device().expect("desktop has a device").buffers();
            (report.rt, buffers.live_buffers(), buffers.bytes_allocated(), buffers.peak_bytes())
        };
        let mut ex = Executor::new(&MachineProfile::desktop());
        let first = run(&mut ex);
        assert_eq!((first.1, first.2), (2, 2 * 64 * 8), "an input and an output buffer");
        // The world's output and the two device buffers, once.
        assert_eq!(recycler.fresh_and_reused(), (3, 0));
        for runs in 2..=3 {
            assert_eq!(run(&mut ex), first, "run {runs} leaves what one run leaves");
            assert_eq!(recycler.fresh_and_reused(), (3, 3 * (runs - 1)));
        }
    }

    #[test]
    fn local_memory_variant_matches_global_results() {
        let n = 12;
        let blur = Arc::new(StencilRule {
            name: "blur3".into(),
            inputs: vec![StencilInput { index: 0, access: AccessPattern::Stencil { w: 3, h: 3 } }],
            flops_per_output: 18.0,
            body_c: "for (int j = 0; j < 3; j++)\n    for (int i = 0; i < 3; i++)\n        result += IN0(x + i, y + j);".into(),
            elem: Arc::new(|env, x, y| {
                let mut s = 0.0;
                for j in 0..3 {
                    for i in 0..3 {
                        s += env.inputs[0].at(x + i, y + j);
                    }
                }
                s
            }),
            span: Span::PerCell { why: "a test rule" },
            native_only_body: false,
            text: Default::default(),
        });
        let run_variant = |local_memory: bool| {
            let mut w = World::new();
            let a = w.alloc(Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 7) % 11) as f64));
            let b = w.alloc(Matrix::zeros(n - 2, n - 2));
            let mut p = PlanBuilder::new();
            p.stencil(
                StencilStep {
                    rule: Arc::clone(&blur),
                    inputs: vec![a],
                    output: b,
                    out_dims: (n - 2, n - 2),
                    user_scalars: vec![],
                    placement: Placement::OpenCl { local_memory, local_size: 32 },
                },
                &[],
            );
            p.mark_output(b);
            let mut ex = Executor::new(&MachineProfile::desktop());
            ex.run(p.build(), &mut w).unwrap();
            w.get(b).clone()
        };
        let global = run_variant(false);
        let local = run_variant(true);
        assert!(global.approx_eq(&local, 0.0), "scratchpad staging must be transparent");
    }
}
