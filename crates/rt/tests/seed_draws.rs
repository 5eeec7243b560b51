//! `RunReport::seed_draws` counts every read of the engine's seed: one per
//! steal-victim probe, one per random deque a GPU-woken CPU task is placed
//! on. A run that counted none computed what every seed computes — same
//! report, same action trace, same host state — which is what lets the
//! evaluation farm answer a repeat of such a trial without running it.

use petal_gpu::cost::CpuWork;
use petal_gpu::profile::MachineProfile;
use petal_rt::{Charge, Engine, GpuOutcome, GpuTaskClass, RunReport, SchedAction, SchedPolicy};
use proptest::prelude::*;

/// One task of a random DAG.
#[derive(Debug, Clone, Copy)]
enum TaskSpec {
    /// CPU task with some model work, spawning `children` small subtasks.
    Cpu { flops: u32, children: usize },
    /// GPU task; `requeue` polls once before completing, as a copy-out
    /// whose read is still in flight does.
    Gpu { manager_nanos: u32, requeue: bool },
}

#[derive(Debug, Clone)]
struct GraphSpec {
    tasks: Vec<TaskSpec>,
    /// Per task: indices of strictly earlier tasks it depends on.
    deps: Vec<Vec<usize>>,
    machine_idx: usize,
    workers: usize,
    seed: u64,
}

impl GraphSpec {
    /// The same DAG with every task a GPU task.
    fn gpu_only(&self) -> Self {
        let tasks = self
            .tasks
            .iter()
            .map(|&t| match t {
                TaskSpec::Cpu { flops, children } => {
                    TaskSpec::Gpu { manager_nanos: flops % 5_000 + 1, requeue: children == 1 }
                }
                gpu @ TaskSpec::Gpu { .. } => gpu,
            })
            .collect();
        GraphSpec { tasks, ..self.clone() }
    }
}

fn task_strategy() -> impl Strategy<Value = TaskSpec> {
    (0u8..4, 1u32..2_000_000, 0usize..3, 1u32..5_000, any::<bool>()).prop_map(
        |(kind, flops, children, manager_nanos, requeue)| {
            if kind < 3 {
                TaskSpec::Cpu { flops, children }
            } else {
                TaskSpec::Gpu { manager_nanos, requeue }
            }
        },
    )
}

/// Sparse random DAGs, so that chains and lone tasks — runs with nothing
/// to steal — come up beside wide ones.
fn graph_strategy() -> impl Strategy<Value = GraphSpec> {
    (1usize..24).prop_flat_map(|n| {
        let tasks = proptest::collection::vec(task_strategy(), n);
        let deps = proptest::collection::vec(proptest::collection::vec(0usize..n, 0..3), n);
        (tasks, deps, 0usize..3, 1usize..5, any::<u64>()).prop_map(
            move |(tasks, raw_deps, machine_idx, workers, seed)| {
                let deps = raw_deps
                    .into_iter()
                    .enumerate()
                    .map(|(i, ds)| {
                        let mut ds: Vec<usize> = ds.into_iter().filter(|&d| d < i).collect();
                        ds.sort_unstable();
                        ds.dedup();
                        ds
                    })
                    .collect();
                GraphSpec { tasks, deps, machine_idx, workers, seed }
            },
        )
    })
}

type Observed = (u64, RunReport, Vec<(f64, SchedAction)>);

/// Build and run the spec's engine under `seed` and `policy`: the final
/// host state, the report and the full action trace.
fn run(spec: &GraphSpec, seed: u64, policy: SchedPolicy) -> Observed {
    // All three paper machines have a GPU.
    let machine = &MachineProfile::all()[spec.machine_idx];
    let mut engine: Engine<u64> = Engine::with_workers(machine, spec.workers, seed);
    engine.set_sched_policy(policy);
    engine.enable_trace();
    let mut ids = Vec::with_capacity(spec.tasks.len());
    for (i, t) in spec.tasks.iter().enumerate() {
        let id = match *t {
            TaskSpec::Cpu { flops, children } => engine.add_cpu_task(move |s: &mut u64, ctx| {
                *s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i as u64);
                for c in 0..children {
                    ctx.spawn_cpu(move |s: &mut u64, _| {
                        *s = s.wrapping_add((i * 31 + c + 1) as u64);
                        Charge::Secs(1.0e-7 * (c + 1) as f64)
                    });
                }
                Charge::Work(CpuWork::new(f64::from(flops), f64::from(flops) / 2.0))
            }),
            TaskSpec::Gpu { manager_nanos, requeue } => {
                let mut polled = false;
                engine.add_gpu_task(GpuTaskClass::Execute, move |s: &mut u64, ctx| {
                    if requeue && !polled {
                        polled = true;
                        return Ok(GpuOutcome::Requeue { ready_at: ctx.now + 3.0e-6 });
                    }
                    *s = s.wrapping_mul(31).wrapping_add(i as u64);
                    Ok(GpuOutcome::Done { manager_secs: f64::from(manager_nanos) * 1.0e-9 })
                })
            }
        };
        ids.push(id);
    }
    for (i, ds) in spec.deps.iter().enumerate() {
        for &d in ds {
            engine.add_dependency(ids[i], ids[d]).expect("valid dependency");
        }
    }
    let mut state = 0u64;
    let report = engine.run(&mut state).expect("acyclic graphs never deadlock");
    (state, report, engine.take_trace())
}

/// Two seeds unlike `seed` and each other.
fn other_seeds(seed: u64) -> [u64; 2] {
    [seed ^ 0x9e37_79b9_7f4a_7c15, seed.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(1)]
}

/// Runs `spec` under its seed and both policies; when the run drew nothing,
/// also under two other seeds, and holds all of them equal. Returns the
/// draw count.
fn check_seed_free_runs_ignore_their_seed(spec: &GraphSpec) -> usize {
    let first = run(spec, spec.seed, SchedPolicy::Incremental);
    let scan = run(spec, spec.seed, SchedPolicy::NaiveScan);
    assert_eq!(first.1.seed_draws, scan.1.seed_draws, "the policies draw alike");
    assert!(first.1.seed_draws >= first.1.steal_attempts, "every probe is a draw");
    if first.1.seed_draws == 0 {
        for seed in other_seeds(spec.seed) {
            let other = run(spec, seed, SchedPolicy::Incremental);
            assert_eq!(other.0, first.0, "host state under seed {seed}");
            assert_eq!(other.1, first.1, "report under seed {seed}");
            assert_eq!(other.2, first.2, "trace under seed {seed}");
        }
    }
    first.1.seed_draws
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_run_that_drew_nothing_is_the_same_under_three_seeds(spec in graph_strategy()) {
        check_seed_free_runs_ignore_their_seed(&spec);
    }

    #[test]
    fn one_worker_or_only_gpu_tasks_draw_nothing(spec in graph_strategy()) {
        let one = GraphSpec { workers: 1, ..spec.clone() };
        prop_assert_eq!(check_seed_free_runs_ignore_their_seed(&one), 0, "one worker");
        let gpu = spec.gpu_only();
        prop_assert_eq!(check_seed_free_runs_ignore_their_seed(&gpu), 0, "only GPU tasks");
    }

    /// `gpus` GPU roots each wake `woken` CPU tasks that wait on it alone,
    /// beside `roots` CPU roots that spawn work for idle workers to steal:
    /// the draws are the steal probes plus one per GPU-woken CPU task.
    #[test]
    fn a_stealing_run_draws_once_per_probe_and_per_gpu_woken_task(
        (workers, roots, gpus, woken, seed) in (2usize..6, 2usize..6, 0usize..4, 1usize..4, any::<u64>())
    ) {
        let mut tasks = vec![TaskSpec::Cpu { flops: 400_000, children: 2 }; roots];
        let mut deps = vec![Vec::new(); roots];
        for _ in 0..gpus {
            let gpu = tasks.len();
            tasks.push(TaskSpec::Gpu { manager_nanos: 2_000, requeue: false });
            deps.push(Vec::new());
            for _ in 0..woken {
                tasks.push(TaskSpec::Cpu { flops: 100_000, children: 0 });
                deps.push(vec![gpu]);
            }
        }
        let spec = GraphSpec { tasks, deps, machine_idx: 0, workers, seed };
        let (_, report, _) = run(&spec, seed, SchedPolicy::Incremental);
        prop_assert!(report.steal_attempts > 0, "idle workers probe for the roots");
        prop_assert_eq!(report.seed_draws, report.steal_attempts + gpus * woken);
        let (_, scan, _) = run(&spec, seed, SchedPolicy::NaiveScan);
        prop_assert_eq!(scan.seed_draws, report.seed_draws);
    }
}

/// The random sweep is not vacuous: some runs on several workers draw
/// nothing, and some draw.
#[test]
fn the_sweep_holds_seed_free_and_seeded_runs_on_several_workers() {
    let (mut free, mut drawn) = (0, 0);
    for seed in 0..64u64 {
        // A chain of CPU tasks on three workers: nothing to steal.
        let chain = GraphSpec {
            tasks: vec![TaskSpec::Cpu { flops: 1_000 * (seed as u32 + 1), children: 0 }; 4],
            deps: vec![vec![], vec![0], vec![1], vec![2]],
            machine_idx: (seed % 3) as usize,
            workers: 3,
            seed,
        };
        // Two independent roots: the idle workers steal one.
        let wide = GraphSpec { deps: vec![vec![]; 4], ..chain.clone() };
        for spec in [chain, wide] {
            match check_seed_free_runs_ignore_their_seed(&spec) {
                0 => free += 1,
                _ => drawn += 1,
            }
        }
    }
    assert_eq!((free, drawn), (64, 64));
}
