//! The virtual-time scheduler: workstealing CPU workers plus the
//! work-pushing GPU management thread (Fig. 4 / Fig. 5 of the paper).
//!
//! The engine is a deterministic discrete-event simulation. Every entity
//! (CPU worker or GPU manager) has a `free_at` instant; queue items carry
//! the virtual time they *arrived*. An entity acts at
//! `max(free_at, earliest arrival in its queue)`, and the engine always
//! advances the entity with the earliest possible action, so causality is
//! never violated: no task runs before the event that made it runnable.
//!
//! Scheduling rules (exactly the paper's):
//!
//! * A worker pops from the **top of its own deque** (LIFO).
//! * An idle worker **steals from the bottom** (FIFO end) of a uniformly
//!   random victim's deque, paying a latency per attempt.
//! * A task spawned by a CPU task goes to the **top of the spawning
//!   worker's deque**; one made runnable by a CPU-task completion likewise.
//! * A GPU task that becomes runnable is **pushed to the bottom of the GPU
//!   management thread's FIFO** (work-pushing; Fig. 5a).
//! * A CPU task made runnable by a GPU task is pushed to the **bottom of a
//!   random worker's deque** (Fig. 5b).
//! * A copy-out-completion task whose read is still in flight is re-queued
//!   at the back of the FIFO and becomes eligible when the read lands.
//!
//! # Scheduling-core implementation
//!
//! The hot loop is *incremental*: every queue caches its minimum arrival
//! (`MinCache`, updated on push/pop/steal instead of recomputed), and the
//! per-entity next-action times live in small deterministic tournament
//! trees (`MinTree`, keyed by `(time, entity index)` with ties broken
//! toward the smaller index), so one scheduling decision is O(log workers)
//! instead of O(workers × queue length). The previous full-scan scheduler
//! is retained verbatim as [`SchedPolicy::NaiveScan`] — it is the test
//! oracle for `tests/sched_equiv.rs` and the "before" half of the
//! `bench_hotpath` throughput table. Both policies produce bit-identical
//! `(time, action)` sequences, RNG consumption, and [`RunReport`]s; see
//! ARCHITECTURE.md ("Scheduler internals") for the invariants.

use crate::stats::RunReport;
use crate::task::{Arena, Charge, CpuCtx, GpuCtx, GpuOutcome, SpawnRef, TaskId, TaskKind};
use crate::RtError;
use petal_gpu::device::Device;
use petal_gpu::profile::{CpuProfile, MachineProfile};
use petal_gpu::GpuError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Manager time spent re-checking an in-flight read (§4.2 copy-out
/// completion poll).
const POLL_COST: f64 = 1.0e-6;

/// Give up a steal round after this many randomized attempts and fall back
/// to a deterministic scan.
const MAX_STEAL_ATTEMPTS_FACTOR: usize = 4;

/// Which scheduling-core implementation an [`Engine`] uses.
///
/// Both produce **bit-identical behavior** — the same `(time, action)`
/// sequence, the same RNG consumption, the same [`RunReport`] — so the
/// choice only affects host time. `NaiveScan` exists as the property-test
/// oracle and as the "before" measurement in the `bench_hotpath` harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Incrementally maintained cached mins + tournament trees: each
    /// scheduling decision is O(log workers). The default.
    Incremental,
    /// The original full-scan scheduler: every decision rescans every
    /// deque (O(workers × queue length)). Kept as the equivalence oracle.
    NaiveScan,
}

/// One scheduling decision: which entity acts. Public so the equivalence
/// tests can compare full action traces between policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedAction {
    /// Worker `i` pops the top of its own deque.
    PopOwn(usize),
    /// Worker `i` (whose deque is empty) attempts to steal.
    Steal(usize),
    /// The GPU management thread runs the front of its FIFO.
    Manager,
}

#[derive(Debug, Clone, Copy)]
struct QueueItem {
    task: TaskId,
    arrival: f64,
}

/// Incrementally maintained minimum over a queue's arrival times.
///
/// `count` tracks how many items currently share the minimum, so the
/// common pattern of a batch of children arriving at the same instant
/// costs O(1) per push *and* per pop; a full refold (O(queue)) happens
/// only when the last copy of the minimum leaves the queue.
#[derive(Debug, Clone, Copy)]
struct MinCache {
    min: f64,
    count: usize,
}

impl Default for MinCache {
    fn default() -> Self {
        MinCache { min: f64::INFINITY, count: 0 }
    }
}

impl MinCache {
    fn push(&mut self, arrival: f64) {
        if arrival < self.min {
            self.min = arrival;
            self.count = 1;
        } else if arrival == self.min {
            self.count += 1;
        }
    }

    /// Record a removal; `true` means the last copy of the minimum left
    /// and the caller must [`MinCache::refold`] over the survivors.
    #[must_use]
    fn remove(&mut self, arrival: f64) -> bool {
        if arrival == self.min {
            self.count -= 1;
            if self.count == 0 {
                self.min = f64::INFINITY;
                return true;
            }
        }
        false
    }

    fn refold(&mut self, arrivals: impl Iterator<Item = f64>) {
        self.min = f64::INFINITY;
        self.count = 0;
        for a in arrivals {
            self.push(a);
        }
    }

    fn get(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }
}

/// A flat tournament tree over a fixed set of entity slots, keyed by
/// `f64` with ties broken toward the **leftmost** (smallest-index) slot —
/// exactly the tie order the scan-based scheduler gets from iterating
/// workers in index order with a strict `<` comparison. Empty slots hold
/// `+inf`. Updates are O(log n); the minimum and the deterministic
/// "leftmost slot ≤ bound" query are O(log n) or better.
#[derive(Debug, Clone)]
struct MinTree {
    /// Leaf values, padded with `+inf` to `cap` (a power of two).
    vals: Vec<f64>,
    /// 1-based heap of winners: `win[k]` is the index of the minimal leaf
    /// under internal node `k` (left wins ties); `win[cap + i] == i`.
    win: Vec<u32>,
    cap: usize,
}

impl MinTree {
    fn new(n: usize) -> Self {
        let cap = n.max(1).next_power_of_two();
        let mut win = vec![0u32; 2 * cap];
        for (i, w) in win[cap..].iter_mut().enumerate() {
            *w = i as u32;
        }
        let mut tree = MinTree { vals: vec![f64::INFINITY; cap], win, cap };
        for k in (1..cap).rev() {
            tree.win[k] = tree.winner(tree.win[2 * k], tree.win[2 * k + 1]);
        }
        tree
    }

    fn winner(&self, l: u32, r: u32) -> u32 {
        if self.vals[l as usize] <= self.vals[r as usize] {
            l
        } else {
            r
        }
    }

    fn update(&mut self, i: usize, v: f64) {
        self.vals[i] = v;
        let mut k = (self.cap + i) >> 1;
        while k >= 1 {
            self.win[k] = self.winner(self.win[2 * k], self.win[2 * k + 1]);
            k >>= 1;
        }
    }

    /// `(min value, leftmost slot holding it)`, or `None` if all empty.
    fn min(&self) -> Option<(f64, usize)> {
        let w = self.win[1] as usize;
        let v = self.vals[w];
        v.is_finite().then_some((v, w))
    }

    /// Leftmost slot with value `<= bound`, if any.
    fn leftmost_at_most(&self, bound: f64) -> Option<usize> {
        if self.vals[self.win[1] as usize] > bound {
            return None;
        }
        let mut k = 1;
        while k < self.cap {
            k = if self.vals[self.win[2 * k] as usize] <= bound { 2 * k } else { 2 * k + 1 };
        }
        Some(k - self.cap)
    }
}

#[derive(Debug, Default)]
struct WorkerState {
    /// THE-style deque: the front is the bottom (steal end), the back is
    /// the top (owner end).
    deque: VecDeque<QueueItem>,
    free_at: f64,
    busy: f64,
    min_cache: MinCache,
}

impl WorkerState {
    fn push_top(&mut self, item: QueueItem) {
        self.min_cache.push(item.arrival);
        self.deque.push_back(item);
    }

    fn push_bottom(&mut self, item: QueueItem) {
        self.min_cache.push(item.arrival);
        self.deque.push_front(item);
    }

    fn note_removed(&mut self, arrival: f64) {
        if self.min_cache.remove(arrival) {
            self.min_cache.refold(self.deque.iter().map(|i| i.arrival));
        }
    }

    /// Full-fold min arrival (naive-scan oracle; ignores the cache).
    fn min_arrival_scan(&self) -> Option<f64> {
        self.deque
            .iter()
            .map(|i| i.arrival)
            .fold(None, |acc, a| Some(acc.map_or(a, |m: f64| m.min(a))))
    }

    /// Pop the topmost item that has arrived by `now`. The common case —
    /// the top item itself is eligible — is O(1); otherwise the fallback
    /// scan is counted in `rescans`.
    fn pop_top_eligible(&mut self, now: f64, rescans: &mut usize) -> Option<TaskId> {
        match self.deque.back() {
            Some(top) if top.arrival <= now => {
                let item = self.deque.pop_back().expect("checked non-empty");
                self.note_removed(item.arrival);
                Some(item.task)
            }
            Some(_) => {
                *rescans += 1;
                let idx = self.deque.iter().rposition(|i| i.arrival <= now)?;
                let item = self.deque.remove(idx).expect("index in range");
                self.note_removed(item.arrival);
                Some(item.task)
            }
            None => None,
        }
    }

    /// Steal the bottommost item that has arrived by `now` (same fast
    /// path / counted-fallback structure as [`Self::pop_top_eligible`]).
    fn steal_bottom_eligible(&mut self, now: f64, rescans: &mut usize) -> Option<TaskId> {
        match self.deque.front() {
            Some(bottom) if bottom.arrival <= now => {
                let item = self.deque.pop_front().expect("checked non-empty");
                self.note_removed(item.arrival);
                Some(item.task)
            }
            Some(_) => {
                *rescans += 1;
                let idx = self.deque.iter().position(|i| i.arrival <= now)?;
                let item = self.deque.remove(idx).expect("index in range");
                self.note_removed(item.arrival);
                Some(item.task)
            }
            None => None,
        }
    }
}

#[derive(Debug, Default)]
struct ManagerState {
    fifo: VecDeque<QueueItem>,
    free_at: f64,
    min_cache: MinCache,
}

impl ManagerState {
    fn push_back(&mut self, item: QueueItem) {
        self.min_cache.push(item.arrival);
        self.fifo.push_back(item);
    }

    fn min_arrival(&self) -> Option<f64> {
        self.min_cache.get()
    }

    fn min_arrival_scan(&self) -> Option<f64> {
        self.fifo
            .iter()
            .map(|i| i.arrival)
            .fold(None, |acc, a| Some(acc.map_or(a, |m: f64| m.min(a))))
    }

    fn note_removed(&mut self, arrival: f64) {
        if self.min_cache.remove(arrival) {
            self.min_cache.refold(self.fifo.iter().map(|i| i.arrival));
        }
    }

    /// Pop the frontmost item that has arrived by `now`.
    fn pop_front_eligible(&mut self, now: f64, rescans: &mut usize) -> Option<TaskId> {
        match self.fifo.front() {
            Some(front) if front.arrival <= now => {
                let item = self.fifo.pop_front().expect("checked non-empty");
                self.note_removed(item.arrival);
                Some(item.task)
            }
            Some(_) => {
                *rescans += 1;
                let idx = self.fifo.iter().position(|i| i.arrival <= now)?;
                let item = self.fifo.remove(idx).expect("index in range");
                self.note_removed(item.arrival);
                Some(item.task)
            }
            None => None,
        }
    }
}

/// The runtime engine for one machine.
///
/// Generic over the host state `S` that CPU/GPU task closures mutate — the
/// executor in `petal-core` stores matrices there.
pub struct Engine<S> {
    arena: Arena<S>,
    workers: Vec<WorkerState>,
    manager: ManagerState,
    device: Option<Device>,
    cpu: CpuProfile,
    rng: StdRng,
    report: RunReport,
    roots: Vec<TaskId>,
    max_completion: f64,
    policy: SchedPolicy,
    /// Busy workers: `max(free_at, min arrival)` keyed by worker index.
    pop_tree: MinTree,
    /// Idle (empty-deque) workers: `free_at` keyed by worker index.
    steal_tree: MinTree,
    /// Per-worker min arrival; the root is the global min the steal rule
    /// needs, shared with `act_steal` so the two can never disagree.
    arrival_tree: MinTree,
    /// Reused by every completion for the woken-dependents hand-off, so
    /// the hot loop allocates nothing per task.
    woken_scratch: Vec<(TaskId, f64)>,
    trace: Option<Vec<(f64, SchedAction)>>,
}

impl<S> Engine<S> {
    /// Engine for `machine` with one worker per core and a fresh device.
    #[must_use]
    pub fn new(machine: &MachineProfile, seed: u64) -> Self {
        let device = machine.gpu.clone().map(Device::new);
        Self::with_device_and_workers(machine, machine.cpu.cores, device, seed)
    }

    /// Engine with an explicit worker count (the paper removes the thread
    /// count from the search space and pins it to the core count; tests use
    /// other values).
    #[must_use]
    pub fn with_workers(machine: &MachineProfile, workers: usize, seed: u64) -> Self {
        let device = machine.gpu.clone().map(Device::new);
        Self::with_device_and_workers(machine, workers, device, seed)
    }

    /// Engine reusing an existing device (keeps its compile cache warm
    /// across autotuning trials).
    #[must_use]
    pub fn with_device_and_workers(
        machine: &MachineProfile,
        workers: usize,
        device: Option<Device>,
        seed: u64,
    ) -> Self {
        let workers = workers.max(1);
        let mut engine = Engine {
            arena: Arena::new(),
            workers: (0..workers).map(|_| WorkerState::default()).collect(),
            manager: ManagerState::default(),
            device,
            cpu: machine.cpu.clone(),
            rng: StdRng::seed_from_u64(seed),
            report: RunReport::default(),
            roots: Vec::new(),
            max_completion: 0.0,
            policy: SchedPolicy::Incremental,
            pop_tree: MinTree::new(workers),
            steal_tree: MinTree::new(workers),
            arrival_tree: MinTree::new(workers),
            woken_scratch: Vec::new(),
            trace: None,
        };
        for i in 0..workers {
            engine.refresh_worker(i);
        }
        engine
    }

    /// Number of CPU workers.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Override the scheduling-core implementation for this engine
    /// (behavior is identical either way; only host time differs).
    pub fn set_sched_policy(&mut self, policy: SchedPolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// The scheduling-core implementation this engine uses.
    #[must_use]
    pub fn sched_policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Record every scheduling decision as `(virtual time, action)`;
    /// retrieve with [`Engine::take_trace`]. Costs one `Vec` push per
    /// event, so leave it off outside tests.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The decisions recorded since [`Engine::enable_trace`] (recording
    /// stops and the buffer is handed over).
    pub fn take_trace(&mut self) -> Vec<(f64, SchedAction)> {
        self.trace.take().unwrap_or_default()
    }

    /// The simulated OpenCL device, if the machine has one.
    #[must_use]
    pub fn device(&self) -> Option<&Device> {
        self.device.as_ref()
    }

    /// Mutable device access (to register kernels before running).
    pub fn device_mut(&mut self) -> Option<&mut Device> {
        self.device.as_mut()
    }

    /// Extract the device (to thread its compile cache into the next run).
    pub fn take_device(&mut self) -> Option<Device> {
        self.device.take()
    }

    /// Create a root CPU task (state *new* until [`Engine::run`] starts).
    pub fn add_cpu_task(
        &mut self,
        f: impl FnOnce(&mut S, &mut CpuCtx<S>) -> Charge + Send + 'static,
    ) -> TaskId {
        self.add_cpu_task_boxed(Box::new(f))
    }

    /// [`Engine::add_cpu_task`] for an already-boxed body: callers that
    /// store task closures boxed (the executor's plan lowering) hand the
    /// box over instead of paying a second allocation per task.
    pub fn add_cpu_task_boxed(&mut self, f: crate::task::CpuFn<S>) -> TaskId {
        let id = self.arena.add(TaskKind::Cpu(f));
        self.roots.push(id);
        id
    }

    /// Create a root GPU task of the given class.
    pub fn add_gpu_task(
        &mut self,
        class: crate::task::GpuTaskClass,
        f: impl FnMut(&mut S, &mut GpuCtx<'_>) -> Result<GpuOutcome, GpuError> + Send + 'static,
    ) -> TaskId {
        let id = self.arena.add(TaskKind::Gpu(class, Box::new(f)));
        self.roots.push(id);
        id
    }

    /// Declare that `task` cannot start until `on` completes.
    ///
    /// # Errors
    /// [`RtError::DependencyOnStartedTask`] if `task` already left the *new*
    /// state, [`RtError::UnknownTask`] for dangling ids.
    pub fn add_dependency(&mut self, task: TaskId, on: TaskId) -> Result<(), RtError> {
        self.arena.add_dependency(task, on)
    }

    /// Run every task to completion, mutating `state`, and report timing.
    ///
    /// # Errors
    /// [`RtError::Deadlock`] when unfinished tasks can never run,
    /// [`RtError::Gpu`] when a GPU task exists without a device or a device
    /// operation fails.
    pub fn run(&mut self, state: &mut S) -> Result<RunReport, RtError> {
        // Transition every pre-created task out of *new*, enqueueing the
        // runnable ones: CPU roots seed worker 0 (stealing spreads them),
        // GPU roots seed the manager FIFO.
        for id in std::mem::take(&mut self.roots) {
            if self.arena.finalize(id) {
                self.enqueue_initial(id);
            }
        }
        if !self.manager.fifo.is_empty() && self.device.is_none() {
            return Err(RtError::Gpu(GpuError::NoGpu));
        }

        while let Some((t, action)) = self.next_action() {
            self.report.sched_steps += 1;
            if let Some(trace) = &mut self.trace {
                trace.push((t, action));
            }
            match action {
                SchedAction::PopOwn(i) => self.act_pop_own(i, t, state)?,
                SchedAction::Steal(i) => self.act_steal(i, t, state)?,
                SchedAction::Manager => self.act_manager(t, state)?,
            }
        }

        if self.arena.unfinished() > 0 {
            return Err(RtError::Deadlock { remaining: self.arena.unfinished() });
        }

        self.report.makespan = self.max_completion;
        self.report.worker_busy = self.workers.iter().map(|w| w.busy).collect();
        if let Some(d) = &self.device {
            if self.report.gpu_tasks > 0 {
                // The device timeline may extend past the last manager-side
                // completion only when nothing awaited it; outputs always
                // have copy-out completions, so this is a safety net.
                self.report.makespan = self.report.makespan.max(d.busy_until());
            }
            self.report.device = d.stats();
            self.report.device_busy = d.busy_secs();
        }
        Ok(self.report.clone())
    }

    fn enqueue_initial(&mut self, id: TaskId) {
        if self.arena.tasks[id.0].is_gpu {
            self.manager.push_back(QueueItem { task: id, arrival: 0.0 });
        } else {
            self.workers[0].push_top(QueueItem { task: id, arrival: 0.0 });
            self.refresh_worker(0);
        }
    }

    /// Re-derive worker `i`'s tournament-tree keys from its queue state.
    /// A worker is *either* a pop candidate (non-empty deque) *or* a steal
    /// candidate (empty deque) — never both — mirroring the `if/else if`
    /// of the scan scheduler.
    fn refresh_worker(&mut self, i: usize) {
        let w = &self.workers[i];
        match w.min_cache.get() {
            Some(min) => {
                self.arrival_tree.update(i, min);
                self.pop_tree.update(i, w.free_at.max(min));
                self.steal_tree.update(i, f64::INFINITY);
            }
            None => {
                self.arrival_tree.update(i, f64::INFINITY);
                self.pop_tree.update(i, f64::INFINITY);
                self.steal_tree.update(i, w.free_at);
            }
        }
    }

    /// The earliest possible action across all entities; `None` when no
    /// queue holds work. Ties break toward the smaller worker index, with
    /// the manager losing all ties — the exact order the scan scheduler
    /// derives from its iteration order.
    fn next_action(&self) -> Option<(f64, SchedAction)> {
        match self.policy {
            SchedPolicy::Incremental => self.next_action_incremental(),
            SchedPolicy::NaiveScan => self.next_action_naive(),
        }
    }

    fn next_action_incremental(&self) -> Option<(f64, SchedAction)> {
        // Best CPU-side candidate by (time, worker index).
        let mut cpu: Option<(f64, usize, bool)> = self.pop_tree.min().map(|(t, i)| (t, i, false));
        if let Some((global_min, _)) = self.arrival_tree.min() {
            // An idle worker acts at max(free_at, global min arrival):
            // workers already free when the work arrives all act at the
            // global min (leftmost such index wins); otherwise the
            // earliest-free idle worker wins.
            let steal: Option<(f64, usize)> = match self.steal_tree.leftmost_at_most(global_min) {
                Some(i) => Some((global_min, i)),
                None => self.steal_tree.min(),
            };
            if let Some((ts, si)) = steal {
                let better = match cpu {
                    None => true,
                    Some((tp, pi, _)) => ts < tp || (ts == tp && si < pi),
                };
                if better {
                    cpu = Some((ts, si, true));
                }
            }
        }
        let mut best = cpu.map(|(t, i, steal)| {
            (t, if steal { SchedAction::Steal(i) } else { SchedAction::PopOwn(i) })
        });
        if let Some(arr) = self.manager.min_arrival() {
            let tm = self.manager.free_at.max(arr);
            if best.map_or(true, |(bt, _)| tm < bt) {
                best = Some((tm, SchedAction::Manager));
            }
        }
        best
    }

    /// The original scan scheduler, kept as the equivalence oracle: full
    /// O(queue) folds per worker plus a global fold, every event.
    fn next_action_naive(&self) -> Option<(f64, SchedAction)> {
        let mut best: Option<(f64, SchedAction)> = None;
        let consider = |t: f64, a: SchedAction, best: &mut Option<(f64, SchedAction)>| {
            if best.map_or(true, |(bt, _)| t < bt) {
                *best = Some((t, a));
            }
        };
        let global_min_cpu = self
            .workers
            .iter()
            .filter_map(WorkerState::min_arrival_scan)
            .fold(None::<f64>, |acc, a| Some(acc.map_or(a, |m| m.min(a))));
        for (i, w) in self.workers.iter().enumerate() {
            if let Some(arr) = w.min_arrival_scan() {
                consider(w.free_at.max(arr), SchedAction::PopOwn(i), &mut best);
            } else if let Some(arr) = global_min_cpu {
                // Only other deques hold work: this worker can steal.
                consider(w.free_at.max(arr), SchedAction::Steal(i), &mut best);
            }
        }
        if let Some(arr) = self.manager.min_arrival_scan() {
            consider(self.manager.free_at.max(arr), SchedAction::Manager, &mut best);
        }
        best
    }

    /// `t0` is the action time computed by `next_action`
    /// (`free_at.max(min arrival)`), threaded through so it is derived
    /// exactly once.
    fn act_pop_own(&mut self, i: usize, t0: f64, state: &mut S) -> Result<(), RtError> {
        let task = self.workers[i]
            .pop_top_eligible(t0, &mut self.report.eligibility_rescans)
            .expect("eligible item exists at t0 by construction");
        self.run_cpu_task(i, task, t0, state)
    }

    /// `t` is the action time from `next_action`: `free_at.max(global min
    /// arrival)`. Threading it through (instead of refolding every deque
    /// here, as the code once did) means the steal path and the scheduler
    /// can never disagree about the global minimum.
    fn act_steal(&mut self, i: usize, t: f64, state: &mut S) -> Result<(), RtError> {
        let mut now = t;
        let n = self.workers.len();
        let max_attempts = MAX_STEAL_ATTEMPTS_FACTOR * n.max(2);
        for _ in 0..max_attempts {
            let victim = self.rng.gen_range(0..n);
            now += self.cpu.steal_latency;
            self.report.steal_attempts += 1;
            if victim == i {
                continue;
            }
            if let Some(task) = self.workers[victim]
                .steal_bottom_eligible(now, &mut self.report.eligibility_rescans)
            {
                self.refresh_worker(victim);
                self.report.steals += 1;
                return self.run_cpu_task(i, task, now, state);
            }
        }
        // Randomization failed repeatedly; deterministic sweep (victims with
        // eligible work must exist at `now` since time only advanced).
        for victim in 0..n {
            if victim == i {
                continue;
            }
            if let Some(task) = self.workers[victim]
                .steal_bottom_eligible(now, &mut self.report.eligibility_rescans)
            {
                self.refresh_worker(victim);
                self.report.steals += 1;
                return self.run_cpu_task(i, task, now, state);
            }
        }
        // The work was taken by someone else in the meantime — record the
        // wasted time and return to the scheduling loop.
        self.workers[i].free_at = now;
        self.refresh_worker(i);
        Ok(())
    }

    fn run_cpu_task(
        &mut self,
        worker: usize,
        task: TaskId,
        t0: f64,
        state: &mut S,
    ) -> Result<(), RtError> {
        let kind = self.arena.tasks[task.0].kind.take().expect("task body present");
        let f = match kind {
            TaskKind::Cpu(f) => f,
            TaskKind::Gpu(..) => unreachable!("CPU deques only hold CPU tasks"),
        };
        let mut ctx = CpuCtx::new(t0);
        let charge = f(state, &mut ctx);
        let secs = match charge {
            Charge::Work(w) => w.secs_on(&self.cpu),
            Charge::Secs(s) => s + self.cpu.task_overhead,
            Charge::WorkPlusSecs(w, s) => w.secs_on(&self.cpu) + s,
        };
        let t1 = t0 + secs;
        self.workers[worker].free_at = t1;
        self.workers[worker].busy += secs;
        self.report.cpu_tasks += 1;
        self.max_completion = self.max_completion.max(t1);

        // Merge dynamically spawned children and dependencies.
        let CpuCtx { spawned, deps, continuation, .. } = ctx;
        let mut new_ids = Vec::with_capacity(spawned.len());
        for kind in spawned {
            new_ids.push(self.arena.add(kind));
        }
        let resolve = |r: SpawnRef, ids: &[TaskId]| -> TaskId {
            match r {
                SpawnRef::Local(k) => ids[k],
                SpawnRef::Existing(id) => id,
            }
        };
        for (t, on) in deps {
            self.arena.add_dependency(resolve(t, &new_ids), resolve(on, &new_ids))?;
        }
        let cont_id = continuation.map(|k| new_ids[k]);
        if let Some(c) = cont_id {
            self.arena.continue_with(task, c);
        }
        // Children enter the schedule at t1 (or later, when they depend on
        // tasks that finished at a later virtual instant): CPU children on
        // top of this worker's deque in creation order, GPU children at
        // the FIFO back.
        for id in &new_ids {
            if self.arena.finalize(*id) {
                let ready = t1.max(self.arena.tasks[id.0].ready_at);
                self.enqueue_from_cpu(worker, *id, ready);
            }
        }
        if cont_id.is_none() {
            let mut woken = std::mem::take(&mut self.woken_scratch);
            self.arena.complete(task, t1, &mut woken);
            for &(id, ready_at) in &woken {
                self.enqueue_from_cpu(worker, id, ready_at);
            }
            self.woken_scratch = woken;
        }
        // One tree refresh covers the pop, the free_at advance, and every
        // child pushed onto this worker's own deque above.
        self.refresh_worker(worker);
        Ok(())
    }

    /// Enqueue a task made runnable by CPU worker `worker` at time `t`:
    /// top of that worker's own deque, or the GPU FIFO (Fig. 5a/5c).
    fn enqueue_from_cpu(&mut self, worker: usize, id: TaskId, t: f64) {
        if self.arena.tasks[id.0].is_gpu {
            self.manager.push_back(QueueItem { task: id, arrival: t });
        } else {
            self.workers[worker].push_top(QueueItem { task: id, arrival: t });
        }
    }

    fn act_manager(&mut self, t0: f64, state: &mut S) -> Result<(), RtError> {
        let task = self
            .manager
            .pop_front_eligible(t0, &mut self.report.eligibility_rescans)
            .expect("eligible item exists at t0 by construction");
        let mut kind = self.arena.tasks[task.0].kind.take().expect("task body present");
        let device = self.device.as_mut().ok_or(RtError::Gpu(GpuError::NoGpu))?;
        let outcome = {
            let TaskKind::Gpu(_, f) = &mut kind else {
                unreachable!("the FIFO only holds GPU tasks")
            };
            let mut ctx = GpuCtx { now: t0, device, dedup_hits: 0 };
            let out = f(state, &mut ctx)?;
            self.report.copy_in_dedup_hits += ctx.dedup_hits;
            out
        };
        match outcome {
            GpuOutcome::Done { manager_secs } => {
                let t1 = t0 + manager_secs;
                self.manager.free_at = t1;
                self.report.gpu_tasks += 1;
                self.max_completion = self.max_completion.max(t1);
                let mut woken = std::mem::take(&mut self.woken_scratch);
                self.arena.complete(task, t1, &mut woken);
                for &(id, ready_at) in &woken {
                    self.enqueue_from_gpu(id, ready_at);
                }
                self.woken_scratch = woken;
            }
            GpuOutcome::Requeue { ready_at } => {
                self.arena.tasks[task.0].kind = Some(kind);
                let arrival = ready_at.max(t0 + POLL_COST);
                self.manager.push_back(QueueItem { task, arrival });
                self.manager.free_at = t0 + POLL_COST;
                self.report.copy_out_requeues += 1;
            }
        }
        Ok(())
    }

    /// Enqueue a task made runnable by the GPU manager at time `t`: bottom
    /// of a *random* worker's deque for CPU tasks (Fig. 5b), FIFO back for
    /// GPU tasks.
    fn enqueue_from_gpu(&mut self, id: TaskId, t: f64) {
        if self.arena.tasks[id.0].is_gpu {
            self.manager.push_back(QueueItem { task: id, arrival: t });
        } else {
            let w = self.rng.gen_range(0..self.workers.len());
            self.workers[w].push_bottom(QueueItem { task: id, arrival: t });
            self.refresh_worker(w);
        }
    }
}

// Compile-time guarantee behind the evaluation farm: an engine whose host
// state is `Send` can be moved to a worker thread wholesale (task closures
// carry a `Send` bound, the device owns no thread-local state).
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn engine_is_send<S: Send>() {
        assert_send::<Engine<S>>();
    }
    engine_is_send::<()>();
};

impl<S> std::fmt::Debug for Engine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers.len())
            .field("tasks", &self.arena.tasks.len())
            .field("has_device", &self.device.is_some())
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::GpuTaskClass;
    use petal_gpu::cost::CpuWork;

    fn machine() -> MachineProfile {
        MachineProfile::desktop()
    }

    #[test]
    fn min_cache_tracks_duplicates() {
        let mut c = MinCache::default();
        c.push(2.0);
        c.push(1.0);
        c.push(1.0);
        assert_eq!(c.get(), Some(1.0));
        assert!(!c.remove(1.0), "a duplicate min remains");
        assert_eq!(c.get(), Some(1.0));
        assert!(!c.remove(2.0), "removing a non-min never refolds");
        assert!(c.remove(1.0), "last copy of the min forces a refold");
        c.refold(std::iter::empty());
        assert_eq!(c.get(), None);
    }

    #[test]
    fn min_tree_prefers_leftmost_on_ties() {
        let mut t = MinTree::new(5);
        assert_eq!(t.min(), None);
        t.update(3, 2.0);
        t.update(1, 2.0);
        t.update(4, 5.0);
        assert_eq!(t.min(), Some((2.0, 1)), "smallest index wins the tie");
        assert_eq!(t.leftmost_at_most(1.0), None);
        assert_eq!(t.leftmost_at_most(2.0), Some(1));
        assert_eq!(t.leftmost_at_most(10.0), Some(1));
        t.update(1, f64::INFINITY);
        assert_eq!(t.min(), Some((2.0, 3)));
        assert_eq!(t.leftmost_at_most(5.0), Some(3));
    }

    #[test]
    fn single_task_runs_and_charges_time() {
        let mut e: Engine<u32> = Engine::new(&machine(), 1);
        e.add_cpu_task(|s, _| {
            *s += 1;
            Charge::Work(CpuWork::new(2.5e9, 0.0))
        });
        let mut s = 0u32;
        let r = e.run(&mut s).unwrap();
        assert_eq!(s, 1);
        // 2.5e9 flops on a 2.5e9 flop/s core ≈ 1 second.
        assert!((r.makespan - 1.0).abs() < 1e-3, "makespan {}", r.makespan);
        assert_eq!(r.cpu_tasks, 1);
        assert!(r.sched_steps >= 1, "every action is one sched step");
    }

    #[test]
    fn independent_tasks_run_in_parallel_via_stealing() {
        let mut e: Engine<()> = Engine::new(&machine(), 7);
        for _ in 0..4 {
            e.add_cpu_task(|_, _| Charge::Work(CpuWork::new(2.5e9, 0.0)));
        }
        let r = e.run(&mut ()).unwrap();
        // Four 1-second tasks on four workers: ≈ 1 second, not 4.
        assert!(r.makespan < 1.5, "makespan {}", r.makespan);
        assert!(r.steals >= 3, "steals {}", r.steals);
    }

    #[test]
    fn dependencies_serialize() {
        let mut e: Engine<Vec<u32>> = Engine::new(&machine(), 3);
        let a = e.add_cpu_task(|s: &mut Vec<u32>, _| {
            s.push(1);
            Charge::Work(CpuWork::new(2.5e9, 0.0))
        });
        let b = e.add_cpu_task(|s: &mut Vec<u32>, _| {
            s.push(2);
            Charge::Work(CpuWork::new(2.5e9, 0.0))
        });
        e.add_dependency(b, a).unwrap();
        let mut s = Vec::new();
        let r = e.run(&mut s).unwrap();
        assert_eq!(s, vec![1, 2]);
        assert!(r.makespan >= 2.0, "sequential chain: {}", r.makespan);
    }

    #[test]
    fn dynamic_spawn_with_continuation() {
        // A parent spawns two children and a continuation that sums their
        // results; an external waiter depends on the parent and must see
        // the continuation's output (dependent forwarding).
        let mut e: Engine<Vec<f64>> = Engine::new(&machine(), 5);
        let parent = e.add_cpu_task(|_s, ctx: &mut CpuCtx<Vec<f64>>| {
            let c1 = ctx.spawn_cpu(|s, _| {
                s[0] = 10.0;
                Charge::Secs(1e-6)
            });
            let c2 = ctx.spawn_cpu(|s, _| {
                s[1] = 32.0;
                Charge::Secs(1e-6)
            });
            let cont = ctx.spawn_cpu(|s, _| {
                s[2] = s[0] + s[1];
                Charge::Secs(1e-6)
            });
            ctx.depend(cont, c1);
            ctx.depend(cont, c2);
            ctx.set_continuation(cont);
            Charge::Secs(1e-6)
        });
        let waiter = e.add_cpu_task(|s: &mut Vec<f64>, _| {
            s[3] = s[2] * 2.0;
            Charge::Secs(1e-6)
        });
        e.add_dependency(waiter, parent).unwrap();
        let mut s = vec![0.0; 4];
        e.run(&mut s).unwrap();
        assert_eq!(s, vec![10.0, 32.0, 42.0, 84.0]);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut e: Engine<()> = Engine::new(&machine(), 1);
        let a = e.add_cpu_task(|_, _| Charge::Secs(0.0));
        let b = e.add_cpu_task(|_, _| Charge::Secs(0.0));
        // Cycle: a→b→a.
        e.add_dependency(a, b).unwrap();
        e.add_dependency(b, a).unwrap();
        let err = e.run(&mut ()).unwrap_err();
        assert_eq!(err, RtError::Deadlock { remaining: 2 });
    }

    #[test]
    fn gpu_task_without_device_errors() {
        let mut m = machine();
        m.gpu = None;
        let mut e: Engine<()> = Engine::new(&m, 1);
        e.add_gpu_task(GpuTaskClass::Prepare, |_, _| Ok(GpuOutcome::Done { manager_secs: 0.0 }));
        assert!(matches!(e.run(&mut ()), Err(RtError::Gpu(GpuError::NoGpu))));
    }

    #[test]
    fn gpu_chain_runs_in_fifo_order_and_wakes_cpu() {
        // prepare -> copy-in -> execute -> copy-out completion; a CPU task
        // depends on the copy-out. Uses the device only for its timeline.
        let mut e: Engine<Vec<f64>> = Engine::new(&machine(), 11);
        let prep = e.add_gpu_task(GpuTaskClass::Prepare, |_, ctx| {
            let overhead = ctx.device.profile().alloc_overhead;
            Ok(GpuOutcome::Done { manager_secs: overhead })
        });
        let copy = e.add_gpu_task(GpuTaskClass::CopyIn, |s: &mut Vec<f64>, ctx| {
            s[0] = 1.0;
            Ok(GpuOutcome::Done { manager_secs: ctx.device.profile().transfer_overhead })
        });
        // "Kernel" finishes on the device 1ms after issue.
        let exec = e.add_gpu_task(GpuTaskClass::Execute, |s: &mut Vec<f64>, ctx| {
            s[1] = s[0] + 1.0;
            s[3] = ctx.now + 1e-3; // completion time of the modeled read
            Ok(GpuOutcome::Done { manager_secs: 2e-6 })
        });
        let done = e.add_gpu_task(GpuTaskClass::CopyOutDone, |s: &mut Vec<f64>, ctx| {
            if ctx.now < s[3] {
                Ok(GpuOutcome::Requeue { ready_at: s[3] })
            } else {
                s[2] = s[1] * 2.0;
                Ok(GpuOutcome::Done { manager_secs: 1e-6 })
            }
        });
        let cpu = e.add_cpu_task(|s: &mut Vec<f64>, _| {
            s[4] = s[2] + 0.5;
            Charge::Secs(1e-6)
        });
        e.add_dependency(cpu, done).unwrap();
        // FIFO order comes from creation order of the root GPU tasks; the
        // copy-out poll must requeue at least once.
        let _ = (prep, copy, exec);
        let mut s = vec![0.0; 5];
        let r = e.run(&mut s).unwrap();
        assert_eq!(s[2], 4.0);
        assert_eq!(s[4], 4.5);
        assert!(r.copy_out_requeues >= 1, "requeues {}", r.copy_out_requeues);
        assert!(r.makespan >= 1e-3, "makespan must cover the device read");
        assert_eq!(r.gpu_tasks, 4);
        assert_eq!(r.cpu_tasks, 1);
    }

    #[test]
    fn determinism_same_seed_same_schedule() {
        let run = |seed: u64| {
            let mut e: Engine<()> = Engine::new(&machine(), seed);
            for i in 0..32 {
                e.add_cpu_task(move |_, _| Charge::Work(CpuWork::new(1e6 * (i + 1) as f64, 0.0)));
            }
            e.run(&mut ()).unwrap()
        };
        let a = run(123);
        let b = run(123);
        assert_eq!(a, b);
        let c = run(124);
        // Different seed: same work, almost surely different steal pattern.
        assert_eq!(c.cpu_tasks, a.cpu_tasks);
    }

    #[test]
    fn naive_scan_policy_is_bit_identical() {
        // A quick inline smoke of the cross-check that
        // tests/sched_equiv.rs does exhaustively on random DAGs.
        let run = |policy: SchedPolicy| {
            let mut e: Engine<u64> = Engine::new(&machine(), 99);
            e.set_sched_policy(policy);
            e.enable_trace();
            for i in 0..48u64 {
                e.add_cpu_task(move |s, _| {
                    *s = s.wrapping_mul(31).wrapping_add(i);
                    Charge::Work(CpuWork::new(1e5 * (i % 7 + 1) as f64, 0.0))
                });
            }
            let mut s = 0u64;
            let r = e.run(&mut s).unwrap();
            (s, r, e.take_trace())
        };
        let (s_inc, r_inc, t_inc) = run(SchedPolicy::Incremental);
        let (s_scan, r_scan, t_scan) = run(SchedPolicy::NaiveScan);
        assert_eq!(s_inc, s_scan);
        assert_eq!(r_inc, r_scan);
        assert_eq!(t_inc, t_scan);
        assert!(!t_inc.is_empty());
    }

    #[test]
    fn worker_count_override() {
        let mut e: Engine<()> = Engine::with_workers(&machine(), 1, 1);
        for _ in 0..4 {
            e.add_cpu_task(|_, _| Charge::Work(CpuWork::new(2.5e9, 0.0)));
        }
        let r = e.run(&mut ()).unwrap();
        assert_eq!(e.worker_count(), 1);
        assert!(r.makespan >= 4.0, "serial on one worker: {}", r.makespan);
        assert_eq!(r.steals, 0);
    }

    #[test]
    fn late_dependency_on_complete_task_is_noop() {
        let mut e: Engine<Vec<u32>> = Engine::new(&machine(), 2);
        let a = e.add_cpu_task(|s: &mut Vec<u32>, _| {
            s.push(1);
            Charge::Secs(1e-9)
        });
        // b spawns a child depending on `a`, which long completed.
        let b = e.add_cpu_task(move |_, ctx: &mut CpuCtx<Vec<u32>>| {
            let child = ctx.spawn_cpu(|s, _| {
                s.push(3);
                Charge::Secs(1e-9)
            });
            ctx.depend(child, SpawnRef::Existing(a));
            Charge::Secs(1e-3)
        });
        e.add_dependency(b, a).unwrap();
        let mut s = Vec::new();
        e.run(&mut s).unwrap();
        assert_eq!(s, vec![1, 3]);
    }
}
