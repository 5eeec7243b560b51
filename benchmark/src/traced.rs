//! `Traced`: a `petal_apps::Benchmark` that delegates to the real one and
//! timestamps the calls the evaluation farm makes into it. Handing it to
//! an ordinary `threads = 1` `Autotuner::run` yields, per trial, the
//! host time of `resized`, `instantiate` and the returned `check`
//! closure — and, as the gaps between them, of `Executor::run` and of
//! everything the farm and the tuner do between two trials — without
//! touching a line of the crates. It also captures the exact
//! `(config, size)` stream of the tune for replay.

use crate::trace::Tracer;
use petal_apps::{Benchmark, Instance};
use petal_core::{Config, Program};
use petal_gpu::profile::MachineProfile;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One call into the wrapped benchmark.
#[derive(Debug, Clone)]
enum Event {
    Resize { start: Instant, end: Instant, found: bool },
    Instantiate { start: Instant, end: Instant, config: Config, size: u64 },
    Check { start: Instant, end: Instant, passed: bool },
}

/// The calls of one tune, in order. Shared by the wrapper, its resized
/// children and the check closures it hands out.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Vec<Event>,
}

type Shared = Arc<Mutex<Recorder>>;

fn record(rec: &Shared, event: Event) {
    rec.lock().expect("a recorder lock is only held to push").events.push(event);
}

/// The wrapper. Transparent by construction: every method forwards to
/// `inner`, so a tune of the wrapper is bit-identical to a tune of
/// `inner` (proven by this package's tests).
pub struct Traced {
    inner: Box<dyn Benchmark>,
    rec: Shared,
}

impl Traced {
    pub fn new(inner: Box<dyn Benchmark>) -> Self {
        Traced { inner, rec: Shared::default() }
    }

    /// Take everything recorded since the last call.
    pub fn take(&self) -> Recorder {
        std::mem::take(&mut *self.rec.lock().expect("recorder lock"))
    }
}

impl Benchmark for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn spec(&self) -> String {
        self.inner.spec()
    }

    fn input_size(&self) -> u64 {
        self.inner.input_size()
    }

    fn program(&self, machine: &MachineProfile) -> Program {
        self.inner.program(machine)
    }

    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        let start = Instant::now();
        let Instance { world, plan, check } = self.inner.instantiate(machine, cfg);
        let end = Instant::now();
        let size = self.inner.input_size();
        record(&self.rec, Event::Instantiate { start, end, config: cfg.clone(), size });
        let rec = Arc::clone(&self.rec);
        let timed_check = Box::new(move |w: &petal_core::World| {
            let start = Instant::now();
            let verdict = check(w);
            record(&rec, Event::Check { start, end: Instant::now(), passed: verdict.is_ok() });
            verdict
        });
        Instance { world, plan, check: timed_check }
    }

    fn resized(&self, size: u64) -> Option<Box<dyn Benchmark>> {
        let start = Instant::now();
        let inner = self.inner.resized(size);
        record(&self.rec, Event::Resize { start, end: Instant::now(), found: inner.is_some() });
        inner.map(|inner| {
            Box::new(Traced { inner, rec: Arc::clone(&self.rec) }) as Box<dyn Benchmark>
        })
    }

    fn dynamic_config_keys(&self) -> Vec<String> {
        self.inner.dynamic_config_keys()
    }
}

/// One trial of a traced tune, as reconstructed from the recorder.
#[derive(Debug, Clone)]
pub struct Trial {
    pub config: Config,
    pub size: u64,
    /// `check` ran and accepted the output.
    pub passed: bool,
}

impl Recorder {
    /// Turn the recorded calls of one tune (which ran from `tune_start`
    /// to `tune_end`) into spans under one root and return the trials.
    ///
    /// Span tree: `tuner.run` ⊃ { `farm.trial` ⊃ { `apps.resize`,
    /// `apps.instantiate`, `core.execute`, `apps.check` },
    /// `tuner.between_trials` }. `core.execute` is the gap from the end
    /// of `instantiate` to the start of `check` (`Executor::new`,
    /// `set_seed`, `Executor::run`); `tuner.between_trials` is the gap
    /// from one trial's last call to the next trial's first (outcome
    /// assembly, the farm's merge, the tuner's selection and mutation).
    /// A trial whose run failed has no `check`; its `core.execute` then
    /// extends to the next trial, which is the tightest bound visible
    /// from outside.
    pub fn into_spans(
        self,
        tracer: &mut Tracer,
        trace_id: u64,
        tune_start: Instant,
        tune_end: Instant,
    ) -> Vec<Trial> {
        let root = tracer.push(trace_id, None, "tuner.run", tune_start, tune_end);
        // Group events into trials: an optional Resize, one Instantiate,
        // an optional Check.
        let mut trials = Vec::new();
        let mut groups: Vec<Vec<Event>> = Vec::new();
        for event in self.events {
            let starts_trial = match (&event, groups.last()) {
                (_, None) => true,
                (Event::Resize { .. }, Some(_)) => true,
                // A trial is over once it instantiated, or once its
                // resize found the size too small to run.
                (Event::Instantiate { .. }, Some(g)) => g.iter().any(|e| {
                    matches!(e, Event::Instantiate { .. } | Event::Resize { found: false, .. })
                }),
                (Event::Check { .. }, Some(_)) => false,
            };
            if starts_trial {
                groups.push(Vec::new());
            }
            groups.last_mut().expect("pushed above").push(event);
        }
        let first_call = |g: &[Event]| match &g[0] {
            Event::Resize { start, .. }
            | Event::Instantiate { start, .. }
            | Event::Check { start, .. } => *start,
        };
        for (i, group) in groups.iter().enumerate() {
            let next_start = groups.get(i + 1).map_or(tune_end, |g| first_call(g));
            let trial_start = first_call(group);
            let mut inst_end = None;
            let mut check = None;
            let mut config_size = None;
            for event in group {
                match event {
                    Event::Instantiate { end, config, size, .. } => {
                        inst_end = Some(*end);
                        config_size = Some((config.clone(), *size));
                    }
                    Event::Check { start, end, passed } => check = Some((*start, *end, *passed)),
                    Event::Resize { .. } => {}
                }
            }
            let trial_end = check.map_or(next_start, |(_, end, _)| end);
            let trial = tracer.push(trace_id, Some(root), "farm.trial", trial_start, trial_end);
            for event in group {
                match event {
                    Event::Resize { start, end, .. } => {
                        tracer.push(trace_id, Some(trial), "apps.resize", *start, *end);
                    }
                    Event::Instantiate { start, end, .. } => {
                        tracer.push(trace_id, Some(trial), "apps.instantiate", *start, *end);
                    }
                    Event::Check { start, end, .. } => {
                        tracer.push(trace_id, Some(trial), "apps.check", *start, *end);
                    }
                }
            }
            if let Some(inst_end) = inst_end {
                let exec_end = check.map_or(next_start, |(start, _, _)| start);
                tracer.push(trace_id, Some(trial), "core.execute", inst_end, exec_end);
            }
            if check.is_some() {
                tracer.push(trace_id, Some(root), "tuner.between_trials", trial_end, next_start);
            }
            if let Some((config, size)) = config_size {
                trials.push(Trial {
                    config,
                    size,
                    passed: check.is_some_and(|(_, _, passed)| passed),
                });
            }
        }
        trials
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{tuned_line, tuner_settings};
    use petal_apps::blackscholes::BlackScholes;
    use petal_tuner::{Autotuner, FarmSettings};

    #[test]
    fn a_wrapped_tune_is_bit_identical_and_fully_recorded() {
        let machine = MachineProfile::laptop();
        let settings = || tuner_settings(7, 6, FarmSettings::sequential());
        let plain = Autotuner::new(&BlackScholes::new(4_096), &machine, settings()).run();

        let traced = Traced::new(Box::new(BlackScholes::new(4_096)));
        let start = Instant::now();
        let wrapped = Autotuner::new(&traced, &machine, settings()).run();
        let end = Instant::now();
        assert_eq!(tuned_line(&wrapped), tuned_line(&plain));
        assert_eq!(wrapped.stats.round_best, plain.stats.round_best);

        let mut tracer = Tracer::new();
        let trials = traced.take().into_spans(&mut tracer, 1, start, end);
        // One recorded trial per evaluation, at all three sizes of the
        // schedule: the small ones only reach `instantiate` through a
        // resized child, so children stayed wrapped.
        assert_eq!(trials.len(), plain.stats.trials);
        let mut sizes: Vec<u64> = trials.iter().map(|t| t.size).collect();
        sizes.dedup();
        assert_eq!(sizes, [256, 1_024, 4_096]);
        let count = |name: &str| tracer.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("tuner.run"), 1);
        assert_eq!(count("farm.trial"), trials.len());
        assert_eq!(count("apps.instantiate"), trials.len());
        assert_eq!(count("apps.check"), trials.len());
        assert!(count("apps.resize") > 0 && count("apps.resize") < trials.len());
        // Children never leave their parent's interval.
        for s in &tracer.spans {
            if let Some(p) = s.parent {
                let parent = &tracer.spans[p as usize - 1];
                assert!(
                    parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                    "{s:?} in {parent:?}"
                );
            }
        }
    }

    #[test]
    fn resized_children_record_into_the_parent() {
        let traced = Traced::new(Box::new(BlackScholes::new(4_096)));
        let child = traced.resized(1_024).expect("1024 options is a valid size");
        let machine = MachineProfile::desktop();
        let cfg = child.program(&machine).default_config(&machine);
        let instance = child.instantiate(&machine, &cfg);
        drop(instance);
        assert!(traced.resized(1).is_none(), "too small to run");
        let events = traced.take().events;
        assert!(matches!(events[0], Event::Resize { found: true, .. }));
        assert!(matches!(events[1], Event::Instantiate { size: 1_024, .. }));
        assert!(matches!(events[2], Event::Resize { found: false, .. }));
    }
}
