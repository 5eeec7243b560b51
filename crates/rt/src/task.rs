//! The task model of §4.1–4.2.
//!
//! Tasks are nodes of an arbitrary acyclic dependency graph. Each task has a
//! state, a dependency count and a list of dependent tasks; completion
//! decrements dependents' counts and enqueues those that reach zero. A task
//! may return a *continuation* task, which inherits its dependents.
//!
//! Two task kinds exist: CPU tasks (scheduled by workstealing among worker
//! deques) and GPU tasks (pushed to the GPU management thread's FIFO). GPU
//! tasks come in the four classes of §4.2.

use crate::RtError;
use petal_gpu::cost::CpuWork;
use petal_gpu::device::Device;
use petal_gpu::GpuError;

/// Identifier of a task within one [`crate::Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// Raw index, for diagnostics.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The five task states of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Being constructed; dependencies may still be added.
    New,
    /// Waiting on a non-zero dependency count. Stored only in the
    /// dependents lists of other tasks.
    NonRunnable,
    /// Zero dependencies; in exactly one deque / the GPU FIFO, or running.
    Runnable,
    /// Executed, no continuation. Depending on a complete task is a no-op.
    Complete,
    /// Executed and returned a continuation; dependents were forwarded to it.
    Continued,
}

/// The four classes of GPU tasks run by the GPU management thread (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuTaskClass {
    /// Allocate buffers and update metadata for a kernel execution.
    Prepare,
    /// Non-blocking host→device copy of one input; completes immediately
    /// after the call (or instantly when deduplicated by the buffer table).
    CopyIn,
    /// Launch the kernel asynchronously, issue non-blocking reads for
    /// *must-copy-out* regions, register *may-copy-out* regions as pending.
    Execute,
    /// Poll the non-blocking read; if still in flight, the manager pushes
    /// this task to the back of its queue.
    CopyOutDone,
}

/// Virtual time charged by a CPU task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Charge {
    /// Charge from a work descriptor via the machine's CPU roofline model.
    Work(CpuWork),
    /// Charge a fixed number of virtual seconds (plus per-task overhead).
    Secs(f64),
    /// Charge both model work and fixed seconds (e.g. a lazy copy-out wait
    /// followed by compute).
    WorkPlusSecs(CpuWork, f64),
}

/// Result of one invocation of a GPU task closure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GpuOutcome {
    /// The task is complete; the manager was busy `manager_secs` issuing
    /// the non-blocking call.
    Done {
        /// Seconds the GPU management thread spent on the call.
        manager_secs: f64,
    },
    /// A copy-out is still in flight; re-enqueue at the back of the FIFO,
    /// eligible again at `ready_at` (the device-side completion time).
    Requeue {
        /// Virtual time when the polled event completes.
        ready_at: f64,
    },
}

/// Closure type for CPU tasks. `Send` because an [`crate::Engine`] (and the
/// whole per-trial evaluation state around it) must be movable onto a farm
/// worker thread.
pub type CpuFn<S> = Box<dyn FnOnce(&mut S, &mut CpuCtx<S>) -> Charge + Send>;
/// Closure type for GPU tasks (FnMut: a copy-out poll may run repeatedly).
pub type GpuFn<S> = Box<dyn FnMut(&mut S, &mut GpuCtx<'_>) -> Result<GpuOutcome, GpuError> + Send>;

/// What a task does when executed.
pub enum TaskKind<S> {
    /// Runs on a CPU worker.
    Cpu(CpuFn<S>),
    /// Runs on the GPU management thread.
    Gpu(GpuTaskClass, GpuFn<S>),
}

impl<S> std::fmt::Debug for TaskKind<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskKind::Cpu(_) => f.write_str("Cpu(..)"),
            TaskKind::Gpu(c, _) => write!(f, "Gpu({c:?}, ..)"),
        }
    }
}

/// Context handed to CPU task closures: the current virtual time plus a
/// spawn buffer for dynamically created child tasks (the mechanism behind
/// recursive poly-algorithms and deferred continuation scheduling).
pub struct CpuCtx<S> {
    pub(crate) now: f64,
    pub(crate) spawned: Vec<TaskKind<S>>,
    pub(crate) deps: Vec<(SpawnRef, SpawnRef)>,
    pub(crate) continuation: Option<usize>,
}

/// Reference to a task from inside a CPU closure: either one spawned in this
/// closure or a pre-existing task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpawnRef {
    /// The `n`-th task spawned by this closure.
    Local(usize),
    /// A task that already existed before this closure ran.
    Existing(TaskId),
}

impl From<TaskId> for SpawnRef {
    fn from(id: TaskId) -> Self {
        SpawnRef::Existing(id)
    }
}

impl<S> CpuCtx<S> {
    pub(crate) fn new(now: f64) -> Self {
        CpuCtx { now, spawned: Vec::new(), deps: Vec::new(), continuation: None }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Spawn a child CPU task. Children are pushed onto the top of the
    /// executing worker's deque in creation order when this task finishes.
    pub fn spawn_cpu(
        &mut self,
        f: impl FnOnce(&mut S, &mut CpuCtx<S>) -> Charge + Send + 'static,
    ) -> SpawnRef {
        self.spawned.push(TaskKind::Cpu(Box::new(f)));
        SpawnRef::Local(self.spawned.len() - 1)
    }

    /// Declare that `task` cannot run until `on` completes.
    pub fn depend(&mut self, task: SpawnRef, on: SpawnRef) {
        self.deps.push((task, on));
    }

    /// Nominate a spawned child as this task's *continuation*: the current
    /// task transitions to [`TaskState::Continued`] and its dependents are
    /// forwarded to the child.
    ///
    /// # Panics
    /// Panics if `c` is not a local spawn of this closure.
    pub fn set_continuation(&mut self, c: SpawnRef) {
        match c {
            SpawnRef::Local(i) => self.continuation = Some(i),
            SpawnRef::Existing(_) => panic!("continuation must be spawned by the same closure"),
        }
    }
}

/// Context handed to GPU task closures by the GPU management thread.
pub struct GpuCtx<'a> {
    /// Current virtual time (when the manager issues the call).
    pub now: f64,
    /// The simulated OpenCL device.
    pub device: &'a mut Device,
    pub(crate) dedup_hits: usize,
}

impl GpuCtx<'_> {
    /// Record a copy-in that was skipped because the buffer table already
    /// held the data (§4.3 copy-in management).
    pub fn note_dedup_hit(&mut self) {
        self.dedup_hits += 1;
    }
}

/// A task record in the arena.
pub(crate) struct Task<S> {
    pub(crate) state: TaskState,
    /// Taken (set to `None`) when the task starts executing.
    pub(crate) kind: Option<TaskKind<S>>,
    pub(crate) dep_count: usize,
    pub(crate) dependents: Vec<TaskId>,
    /// Forwarding pointer for `Continued` tasks.
    pub(crate) continuation: Option<TaskId>,
    pub(crate) is_gpu: bool,
    /// Latest virtual completion time among satisfied dependencies: the
    /// earliest instant this task may start. (The engine executes tasks
    /// atomically in processing order, so the *last-processed* dependency
    /// is not necessarily the *latest-finishing* one.)
    pub(crate) ready_at: f64,
    /// Virtual time this task completed (valid in `Complete`/`Continued`).
    pub(crate) completed_at: f64,
}

/// The task arena: owns every task of one engine run.
pub(crate) struct Arena<S> {
    pub(crate) tasks: Vec<Task<S>>,
}

impl<S> Arena<S> {
    pub(crate) fn new() -> Self {
        Arena { tasks: Vec::new() }
    }

    pub(crate) fn add(&mut self, kind: TaskKind<S>) -> TaskId {
        let is_gpu = matches!(kind, TaskKind::Gpu(..));
        self.tasks.push(Task {
            state: TaskState::New,
            kind: Some(kind),
            dep_count: 0,
            dependents: Vec::new(),
            continuation: None,
            is_gpu,
            ready_at: 0.0,
            completed_at: 0.0,
        });
        TaskId(self.tasks.len() - 1)
    }

    pub(crate) fn get(&self, id: TaskId) -> Result<&Task<S>, RtError> {
        self.tasks.get(id.0).ok_or(RtError::UnknownTask(id))
    }

    /// Follow `Continued` forwarding pointers to the live target (§4.1:
    /// "subsequent attempts to depend on this task instead depend on the
    /// continuation task, possibly recursively").
    pub(crate) fn resolve(&self, mut id: TaskId) -> TaskId {
        while let Some(t) = self.tasks.get(id.0) {
            match (t.state, t.continuation) {
                (TaskState::Continued, Some(next)) => id = next,
                _ => break,
            }
        }
        id
    }

    /// Add a dependency: `task` (which must be `New`) waits for `on`.
    ///
    /// Depending on a `Complete` task is a no-op; depending on a `Continued`
    /// task depends on its continuation.
    pub(crate) fn add_dependency(&mut self, task: TaskId, on: TaskId) -> Result<(), RtError> {
        if self.get(task)?.state != TaskState::New {
            return Err(RtError::DependencyOnStartedTask { task });
        }
        let on = self.resolve(on);
        if self.get(on)?.state == TaskState::Complete {
            // No count to track (§4.1), but the dependent still must not
            // start before the completed task's virtual finish time.
            let done_at = self.tasks[on.0].completed_at;
            let t = &mut self.tasks[task.0];
            t.ready_at = t.ready_at.max(done_at);
            return Ok(());
        }
        self.tasks[on.0].dependents.push(task);
        self.tasks[task.0].dep_count += 1;
        Ok(())
    }

    /// Finish dependency creation for a `New` task: it becomes `Runnable`
    /// (returned as `true`, caller must enqueue it) or `NonRunnable`.
    pub(crate) fn finalize(&mut self, id: TaskId) -> bool {
        let t = &mut self.tasks[id.0];
        debug_assert_eq!(t.state, TaskState::New, "finalize() twice on {id:?}");
        if t.dep_count == 0 {
            t.state = TaskState::Runnable;
            true
        } else {
            t.state = TaskState::NonRunnable;
            false
        }
    }

    /// Mark `id` complete at virtual time `at`; push the dependents that
    /// became runnable into `woken` (cleared first), paired with the
    /// earliest virtual time each may start (the max of all its
    /// dependencies' completion times). Takes a caller-owned buffer so the
    /// engine's completion hot path reuses one allocation run-long.
    pub(crate) fn complete(&mut self, id: TaskId, at: f64, woken: &mut Vec<(TaskId, f64)>) {
        woken.clear();
        self.tasks[id.0].state = TaskState::Complete;
        self.tasks[id.0].completed_at = at;
        let dependents = std::mem::take(&mut self.tasks[id.0].dependents);
        for d in &dependents {
            let dt = &mut self.tasks[d.0];
            debug_assert!(dt.dep_count > 0);
            dt.dep_count -= 1;
            dt.ready_at = dt.ready_at.max(at);
            if dt.dep_count == 0 && dt.state == TaskState::NonRunnable {
                dt.state = TaskState::Runnable;
                woken.push((*d, dt.ready_at));
            }
        }
    }

    /// Mark `id` continued by `cont`, transferring its dependents.
    pub(crate) fn continue_with(&mut self, id: TaskId, cont: TaskId) {
        let dependents = std::mem::take(&mut self.tasks[id.0].dependents);
        self.tasks[id.0].state = TaskState::Continued;
        self.tasks[id.0].continuation = Some(cont);
        self.tasks[cont.0].dependents.extend(dependents);
    }

    pub(crate) fn unfinished(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| !matches!(t.state, TaskState::Complete | TaskState::Continued))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type S = ();

    fn noop() -> TaskKind<S> {
        TaskKind::Cpu(Box::new(|_, _| Charge::Secs(0.0)))
    }

    #[test]
    fn dependency_counting_and_wakeup() {
        let mut a: Arena<S> = Arena::new();
        let t1 = a.add(noop());
        let t2 = a.add(noop());
        a.add_dependency(t2, t1).unwrap();
        assert!(a.finalize(t1));
        assert!(!a.finalize(t2));
        assert_eq!(a.get(t2).unwrap().state, TaskState::NonRunnable);
        let mut woken = Vec::new();
        a.complete(t1, 1.0, &mut woken);
        assert_eq!(woken, vec![(t2, 1.0)]);
        assert_eq!(a.get(t2).unwrap().state, TaskState::Runnable);
    }

    #[test]
    fn depending_on_complete_task_is_noop() {
        let mut a: Arena<S> = Arena::new();
        let t1 = a.add(noop());
        a.finalize(t1);
        a.complete(t1, 1.0, &mut Vec::new());
        let t2 = a.add(noop());
        a.add_dependency(t2, t1).unwrap();
        assert_eq!(a.get(t2).unwrap().dep_count, 0);
        assert!(a.finalize(t2));
    }

    #[test]
    fn dependency_after_start_is_rejected() {
        let mut a: Arena<S> = Arena::new();
        let t1 = a.add(noop());
        let t2 = a.add(noop());
        a.finalize(t2);
        let err = a.add_dependency(t2, t1).unwrap_err();
        assert_eq!(err, RtError::DependencyOnStartedTask { task: t2 });
    }

    #[test]
    fn continuation_inherits_dependents_and_forwards() {
        let mut a: Arena<S> = Arena::new();
        let t1 = a.add(noop());
        let waiter = a.add(noop());
        a.add_dependency(waiter, t1).unwrap();
        a.finalize(t1);
        a.finalize(waiter);
        // t1 runs and continues into c.
        let c = a.add(noop());
        a.continue_with(t1, c);
        assert_eq!(a.get(t1).unwrap().state, TaskState::Continued);
        // waiter is still blocked: its dependency now comes from c.
        assert_eq!(a.get(waiter).unwrap().state, TaskState::NonRunnable);
        // New dependencies on t1 resolve to c.
        let late = a.add(noop());
        a.add_dependency(late, t1).unwrap();
        assert_eq!(a.resolve(t1), c);
        assert_eq!(a.get(late).unwrap().dep_count, 1);
        a.finalize(c);
        let mut woken = Vec::new();
        a.complete(c, 2.0, &mut woken);
        assert!(woken.iter().any(|(w, _)| *w == waiter));
        // `late` was still `New`, so completion satisfied its dependency
        // without waking it; finalize now sees zero dependencies.
        assert_eq!(a.get(late).unwrap().dep_count, 0);
        assert!(a.finalize(late));
    }

    #[test]
    fn chained_continuations_resolve_recursively() {
        let mut a: Arena<S> = Arena::new();
        let t = a.add(noop());
        a.finalize(t);
        let c1 = a.add(noop());
        a.continue_with(t, c1);
        a.finalize(c1);
        let c2 = a.add(noop());
        a.continue_with(c1, c2);
        assert_eq!(a.resolve(t), c2);
    }

    #[test]
    fn unfinished_counts_live_tasks() {
        let mut a: Arena<S> = Arena::new();
        let t1 = a.add(noop());
        let t2 = a.add(noop());
        a.finalize(t1);
        a.finalize(t2);
        assert_eq!(a.unfinished(), 2);
        a.complete(t1, 0.5, &mut Vec::new());
        assert_eq!(a.unfinished(), 1);
    }
}
