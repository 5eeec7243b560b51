//! # petal-rt — hybrid workstealing / work-pushing runtime in virtual time
//!
//! A faithful implementation of §4 of *Portable Performance on Heterogeneous
//! Architectures* (ASPLOS'13):
//!
//! * **Task model** ([`task`]) — tasks form arbitrary acyclic dependency
//!   graphs with the paper's five states (*new*, *non-runnable*, *runnable*,
//!   *complete*, *continued*), dynamic dependency pointers, dependency
//!   counts, and continuation tasks that inherit their parent's dependents.
//! * **CPU workstealing** ([`engine`]) — each worker owns a THE-style deque;
//!   it pops from the top of its own deque and steals from the bottom of a
//!   random victim's.
//! * **GPU work-pushing** — a dedicated GPU management thread owns a FIFO of
//!   GPU tasks (the four classes of §4.2: *prepare*, *copy-in*, *execute*,
//!   *copy-out completion*), never blocks on device operations, and pushes
//!   CPU tasks it wakes to the bottom of a *random* worker's deque, while
//!   CPU-caused wakeups go to the top of the causing worker's own deque
//!   (Fig. 5).
//!
//! The one deliberate departure from the paper: the engine advances a
//! **virtual clock** instead of wall time. Workers and the GPU manager are
//! simulated entities; every task charges time through the cost model in
//! [`petal_gpu`]. Data transformations are real (closures mutate the host
//! state `S`), so outputs are bit-exact and checkable, while timing is
//! deterministic and machine-profile dependent — which is what the
//! autotuner needs to reproduce the paper's per-machine results.
//!
//! ## `Send` evaluation state
//!
//! Task closures ([`task::CpuFn`], [`task::GpuFn`]) carry a **`Send`
//! bound**, and the engine asserts at compile time that `Engine<S>: Send`
//! whenever `S: Send`. An entire evaluation — engine, task graph, device,
//! host state — can therefore be moved onto another OS thread wholesale.
//! That is the foundation of `petal-farm`, which runs autotuner trials
//! (each owning an independent `Executor`/`Engine`/`World`) on a pool of
//! real threads while keeping results bit-identical at any thread count:
//! the virtual clock inside each engine is untouched by wall-clock
//! scheduling outside it. Shared per-chain state in closures uses
//! `Arc<Mutex<..>>` rather than `Rc<RefCell<..>>`; within one engine the
//! lock is uncontended because tasks of a single run never execute
//! concurrently.
//!
//! # Example
//!
//! ```
//! use petal_gpu::cost::CpuWork;
//! use petal_gpu::profile::MachineProfile;
//! use petal_rt::{Charge, Engine};
//!
//! // Sum 1..=3 with three parallel leaf tasks and a dependent reducer.
//! let mut engine: Engine<Vec<f64>> = Engine::new(&MachineProfile::desktop(), 42);
//! let leaves: Vec<_> = (0..3)
//!     .map(|i| {
//!         engine.add_cpu_task(move |state: &mut Vec<f64>, _ctx: &mut petal_rt::CpuCtx<Vec<f64>>| {
//!             state[i] = (i + 1) as f64;
//!             Charge::Work(CpuWork::new(1.0, 8.0))
//!         })
//!     })
//!     .collect();
//! let reduce = engine.add_cpu_task(|state: &mut Vec<f64>, _ctx: &mut petal_rt::CpuCtx<Vec<f64>>| {
//!     let total: f64 = state.iter().sum();
//!     state.push(total);
//!     Charge::Work(CpuWork::new(3.0, 32.0))
//! });
//! for l in &leaves {
//!     engine.add_dependency(reduce, *l)?;
//! }
//! let mut state = vec![0.0; 3];
//! let report = engine.run(&mut state)?;
//! assert_eq!(state[3], 6.0);
//! assert!(report.makespan > 0.0);
//! # Ok::<(), petal_rt::RtError>(())
//! ```

pub mod engine;
pub mod graph;
pub mod stats;
pub mod task;

pub use engine::{Engine, SchedAction, SchedPolicy};
pub use graph::Reachability;
pub use stats::RunReport;
pub use task::{Charge, CpuCtx, GpuCtx, GpuOutcome, GpuTaskClass, TaskId, TaskState};

use petal_gpu::GpuError;
use std::fmt;

/// Errors produced by the runtime engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RtError {
    /// No entity can make progress but tasks remain incomplete (a
    /// dependency cycle or a dependency on a task that never runs).
    Deadlock {
        /// Number of unfinished tasks.
        remaining: usize,
    },
    /// A GPU task was created on a machine without an OpenCL device, or a
    /// device operation failed.
    Gpu(GpuError),
    /// A dependency was added to a task not in the *new* state (§4.1:
    /// "dependencies may only be added to a task while it is in the new
    /// state").
    DependencyOnStartedTask {
        /// The task whose dependency list was being extended.
        task: TaskId,
    },
    /// An unknown task id was referenced.
    UnknownTask(TaskId),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::Deadlock { remaining } => {
                write!(f, "scheduler deadlock: {remaining} tasks can never run")
            }
            RtError::Gpu(e) => write!(f, "gpu: {e}"),
            RtError::DependencyOnStartedTask { task } => {
                write!(f, "dependency added to task {task:?} after it left the new state")
            }
            RtError::UnknownTask(id) => write!(f, "unknown task {id:?}"),
        }
    }
}

impl std::error::Error for RtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RtError::Gpu(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GpuError> for RtError {
    fn from(e: GpuError) -> Self {
        RtError::Gpu(e)
    }
}
