//! # petal-tuner — the evolutionary autotuner (§5)
//!
//! Searches the configuration space of a benchmark for one machine:
//!
//! * **Representation** — a [`petal_core::Config`]: selectors (piecewise
//!   algorithm choices over input sizes, §5.1) plus bounded integer
//!   tunables (OpenCL local work sizes, GPU/CPU ratios in 1/8 steps,
//!   cutoffs).
//! * **Algorithm** (§5.2) — an *asexual* evolutionary search: each new
//!   candidate has a single parent, and is admitted to the population only
//!   if it outperforms that parent. Test input sizes grow exponentially,
//!   exploiting optimal substructure; small sizes run fewer trials (§5.4's
//!   mitigation of kernel-compile overhead, which the simulated device also
//!   charges).
//! * **Mutators** ([`mutate`]) — selector manipulation (add / remove /
//!   change a level), and tunable manipulation with log-normal scaling for
//!   size-like values ("a value is equally likely to be halved as ...
//!   doubled") and uniform choice for small-range values.
//!
//! ## Evaluation on the farm
//!
//! Candidate evaluation — where all the search time goes — runs on
//! [`petal_farm::EvalFarm`], a pool of real OS threads. Each round's trial
//! budget is spent in *generations*: a generation mutates a batch of
//! children from the current population (batch size = population capacity,
//! so the shape of the search is independent of the thread count), the farm
//! evaluates the whole batch in parallel, and the results are merged back
//! in submission order. Every trial owns an independent
//! `Executor`/`Engine`/`World` seeded from `(tuner_seed, round,
//! trial_index)`, and the farm re-prices kernel-compile charges against a
//! shared process/IR-cache model in merge order — so a search is
//! **bit-identical at 1 and N threads** ([`FarmSettings::threads`] only
//! changes wall-clock time).
//!
//! The fitness of a candidate is the virtual makespan reported by the
//! deterministic executor; candidates that fail the benchmark's
//! correctness/accuracy check (e.g. the SVD accuracy target) are rejected
//! outright.
//!
//! ## Perturbation restarts ("kicks")
//!
//! The admit-only-if-better rule of §5.2 cannot cross fitness valleys: a
//! mapping that only pays off after two coordinated changes (e.g. switching
//! to separable convolution *and* enabling scratchpad staging) is never
//! reached through strictly improving single mutations. When
//! [`TunerSettings::kick_after`] consecutive generations bring no
//! improvement, the tuner fires a *kick*: the batch is generated by
//! stacking [`TunerSettings::kick_strength`] mutations on the incumbent
//! best, and the children are admitted if they beat the population's
//! *worst* member instead of their parent. The best candidate is never
//! evicted, so best-cost stays monotonically non-increasing.

#![warn(missing_docs)]

pub mod mutate;

pub use petal_farm::FarmSettings;

use petal_apps::Benchmark;
use petal_core::{Config, Program};
use petal_farm::{job_seed, EvalFarm, EvalJob};
use petal_gpu::profile::MachineProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A donor configuration seeding generation 0 of the search — usually
/// the registry's nearest stored config for this (benchmark, size) on a
/// similar machine (`petal_registry::ConfigStore::lookup`), so re-tuning
/// after a migration only has to *repair* the migration penalty instead
/// of rediscovering the whole mapping.
///
/// The verbatim donor config always leads the population and is the
/// first trial evaluated in every round's survivor batch and in the
/// final full-size batch, so a perfect donor is zero-regression: the
/// search can never return a config worse than the donor.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// The donor configuration.
    pub config: Config,
    /// Provenance label (e.g. `registry:family:Laptop`), recorded in
    /// [`TuningStats::warm_source`].
    pub source: String,
}

/// Knobs controlling the search effort.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerSettings {
    /// RNG seed (the whole search is deterministic given the seed).
    pub seed: u64,
    /// Mutants evaluated per input-size round.
    pub trials_per_round: usize,
    /// Population capacity (best candidates kept).
    pub population: usize,
    /// Input sizes as fractions of the benchmark's final size; the last
    /// entry should be 1.0. Sizes grow exponentially as in §5.2.
    pub size_schedule: Vec<f64>,
    /// Fewer trials at small sizes: the fraction of `trials_per_round`
    /// used for every entry of the schedule except the last (§5.4).
    pub small_size_trial_fraction: f64,
    /// Model a process restart per candidate test, so every trial re-JITs
    /// its kernels (the fixed startup cost that dominates small-input
    /// autotuning in §5.4). The IR cache then skips the frontend.
    pub model_process_restarts: bool,
    /// Evaluation-farm knobs (worker thread count). Changing the thread
    /// count never changes the search result, only its wall-clock time.
    pub farm: FarmSettings,
    /// Fire a perturbation restart after this many consecutive generations
    /// without improvement of the best candidate; `0` disables kicks.
    pub kick_after: usize,
    /// Stacked mutations applied to the incumbent best when a kick fires.
    pub kick_strength: usize,
    /// Seed generation 0 from a stored donor configuration instead of
    /// searching from the default config alone. `None` tunes from
    /// scratch (bit-identical to builds without the field).
    pub warm_start: Option<WarmStart>,
}

impl TunerSettings {
    /// The default search effort used by the figure harnesses.
    #[must_use]
    pub fn standard() -> Self {
        TunerSettings {
            seed: 0xa11ce,
            trials_per_round: 48,
            population: 6,
            size_schedule: vec![1.0 / 64.0, 1.0 / 8.0, 1.0],
            small_size_trial_fraction: 0.5,
            model_process_restarts: true,
            farm: FarmSettings::sequential(),
            kick_after: 2,
            kick_strength: 3,
            warm_start: None,
        }
    }

    /// A tiny budget for unit tests and doc examples.
    #[must_use]
    pub fn smoke() -> Self {
        TunerSettings {
            seed: 7,
            trials_per_round: 6,
            population: 3,
            size_schedule: vec![0.25, 1.0],
            small_size_trial_fraction: 0.5,
            model_process_restarts: false,
            farm: FarmSettings::sequential(),
            kick_after: 2,
            kick_strength: 3,
            warm_start: None,
        }
    }
}

impl Default for TunerSettings {
    fn default() -> Self {
        Self::standard()
    }
}

/// Accounting over one autotuning run (feeds the Fig. 8 table).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuningStats {
    /// Candidate evaluations performed.
    pub trials: usize,
    /// Candidates rejected by the correctness/accuracy check.
    pub rejected: usize,
    /// Total virtual time spent testing (execution + JIT compiles) — the
    /// analog of the paper's "Mean Autotuning Time".
    pub tuning_secs: f64,
    /// Virtual seconds of that spent in runtime kernel compilation.
    pub compile_secs: f64,
    /// Evaluation-farm worker threads used (in-process mode).
    pub threads: usize,
    /// Evaluation-farm worker *processes* used; 0 when evaluation stayed
    /// in-process (see [`FarmSettings::shards`]).
    pub shards: usize,
    /// Perturbation restarts fired (see [`TunerSettings::kick_after`]).
    pub kicks: usize,
    /// Best fitness after each generation, one inner vector per
    /// input-size round (fitnesses are at that round's size, so they are
    /// comparable *within* an inner vector and non-increasing there).
    pub round_best: Vec<Vec<f64>>,
    /// Cumulative virtual tuning seconds after each generation, shaped
    /// exactly like [`Self::round_best`] — together they form the repair
    /// curve (fitness over search effort) the fig7 harness reports.
    pub round_secs: Vec<Vec<f64>>,
    /// Provenance of the warm-start donor ([`WarmStart::source`]);
    /// `None` when the search ran from scratch.
    pub warm_source: Option<String>,
    /// First generation (1-based, counted across all rounds) whose
    /// population best *strictly* beat the warm-start donor's fitness at
    /// that round's input size — how long the search took to start
    /// repairing the migration penalty. `None` when tuning from scratch
    /// or when the donor was never beaten.
    pub repair_generations: Option<usize>,
}

impl TuningStats {
    /// The parity point against a full-size target time: the first
    /// generation whose best candidate reached `target`, as
    /// `(generation, cumulative virtual tuning seconds)`.
    ///
    /// Only the schedule's last round runs at the full input size, so
    /// only its fitnesses are compared against `target`; generations
    /// spent in earlier (smaller-size) rounds still count toward the
    /// generation number and their virtual seconds toward the time —
    /// they are search effort like any other. `None` when the search
    /// never reached `target`.
    #[must_use]
    pub fn parity_point(&self, target: f64) -> Option<(usize, f64)> {
        let final_best = self.round_best.last()?;
        let final_secs = self.round_secs.last()?;
        let earlier: usize =
            self.round_best[..self.round_best.len() - 1].iter().map(Vec::len).sum();
        final_best
            .iter()
            .zip(final_secs)
            .position(|(&best, _)| best <= target)
            .map(|i| (earlier + i + 1, final_secs[i]))
    }
}

/// The result of autotuning.
#[derive(Debug, Clone)]
pub struct Tuned {
    /// The best configuration found.
    pub config: Config,
    /// Its virtual execution time at full input size.
    pub time_secs: f64,
    /// Search accounting.
    pub stats: TuningStats,
}

struct Candidate {
    config: Config,
    fitness: f64,
}

/// The evolutionary autotuner for one (benchmark, machine) pair.
pub struct Autotuner<'a> {
    benchmark: &'a dyn Benchmark,
    machine: MachineProfile,
    program: Program,
    settings: TunerSettings,
    rng: StdRng,
    farm: EvalFarm,
    stats: TuningStats,
}

impl std::fmt::Debug for Autotuner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Autotuner")
            .field("benchmark", &self.benchmark.name())
            .field("machine", &self.machine.codename)
            .finish_non_exhaustive()
    }
}

impl<'a> Autotuner<'a> {
    /// New tuner with the given search effort.
    #[must_use]
    pub fn new(
        benchmark: &'a dyn Benchmark,
        machine: &MachineProfile,
        settings: TunerSettings,
    ) -> Self {
        let farm = EvalFarm::new(&settings.farm, settings.model_process_restarts);
        let (threads, shards) = (farm.threads(), farm.shards());
        Autotuner {
            benchmark,
            machine: machine.clone(),
            program: benchmark.program(machine),
            settings,
            rng: StdRng::seed_from_u64(0),
            farm,
            stats: TuningStats { threads, shards, ..TuningStats::default() },
        }
    }

    /// Enable or disable the modeled persistent IR cache (§5.4 ablation).
    pub fn set_ir_cache(&mut self, enabled: bool) -> &mut Self {
        self.farm.set_ir_cache(enabled);
        self
    }

    /// Run the search and return the best configuration.
    ///
    /// Trials are dispatched in generation batches to the evaluation farm;
    /// the modeled kernel/IR caches persist across trials exactly as one
    /// autotuning session would behave, and the accumulated compile time is
    /// reported in [`TuningStats`].
    pub fn run(&mut self) -> Tuned {
        self.rng = StdRng::seed_from_u64(self.settings.seed);
        self.farm.reset();
        self.stats = TuningStats {
            threads: self.farm.threads(),
            shards: self.farm.shards(),
            ..TuningStats::default()
        };
        let schedule = self.settings.size_schedule.clone();
        let full_size = self.benchmark.input_size();
        let seed_config = self.program.default_config(&self.machine);
        let warm = self.settings.warm_start.clone();
        let mut population = vec![Candidate { config: seed_config, fitness: f64::INFINITY }];
        if let Some(ws) = &warm {
            self.stats.warm_source = Some(ws.source.clone());
            // The verbatim donor leads the population (and therefore every
            // survivor batch); mutated clones of it fill the remaining
            // capacity so generation 0 searches the donor's neighborhood.
            let mut seeded = vec![Candidate { config: ws.config.clone(), fitness: f64::INFINITY }];
            seeded.append(&mut population);
            while seeded.len() < self.settings.population.max(1) {
                let cfg = mutate::mutate(
                    &ws.config,
                    &self.program,
                    &self.machine,
                    full_size,
                    &mut self.rng,
                );
                seeded.push(Candidate { config: cfg, fitness: f64::INFINITY });
            }
            population = seeded;
        }
        // Generations counted across rounds, for the repair curve.
        let mut generation = 0usize;

        for (round, frac) in schedule.iter().enumerate() {
            let is_final = round == schedule.len() - 1;
            let size = ((full_size as f64 * frac) as u64).max(1);
            let trials = if is_final {
                self.settings.trials_per_round
            } else {
                ((self.settings.trials_per_round as f64 * self.settings.small_size_trial_fraction)
                    as usize)
                    .max(1)
            };
            // Per-round trial coordinate, part of every job's engine seed.
            let mut trial_index = 0u64;

            // Re-evaluate survivors at the new size (one farm batch). With
            // a warm start, the verbatim donor config is prepended as the
            // round's *first* trial — whether or not it is still in the
            // population — so the donor's fitness at this size is always
            // known and repair progress can be measured against it.
            let mut batch: Vec<Config> = Vec::with_capacity(population.len() + 1);
            if let Some(ws) = &warm {
                batch.push(ws.config.clone());
            }
            batch.extend(population.iter().map(|c| c.config.clone()));
            let results = self.dispatch(batch, size, round as u64, &mut trial_index);
            let offset = usize::from(warm.is_some());
            let warm_fitness = if warm.is_some() {
                results[0].fitness.unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            };
            for (cand, res) in population.iter_mut().zip(&results[offset..]) {
                cand.fitness = res.fitness.unwrap_or(f64::INFINITY);
            }
            population.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));

            self.stats.round_best.push(Vec::new());
            self.stats.round_secs.push(Vec::new());
            let mut done = 0;
            let mut stagnant = 0;
            // Escalating kicks: every kick that fails to unlock an
            // improvement perturbs deeper on the next firing (classic
            // iterated-local-search escalation), so successive restarts
            // explore progressively farther from the incumbent.
            let mut kick_level = 1;
            while done < trials {
                // One generation: a batch of children mutated from the
                // current population. The batch size equals the population
                // capacity, so the search trajectory is independent of the
                // farm's thread count.
                let batch = self.settings.population.max(1).min(trials - done);
                let best_before = population[0].fitness;
                let kick = self.settings.kick_after > 0 && stagnant >= self.settings.kick_after;
                let mut parent_fitness = Vec::with_capacity(batch);
                let mut children = Vec::with_capacity(batch);
                for _ in 0..batch {
                    if kick {
                        // Perturbation restart: stacked mutations on the
                        // incumbent best to hop across fitness valleys.
                        let mut cfg = population[0].config.clone();
                        for _ in 0..self.settings.kick_strength.max(1) * kick_level {
                            cfg = mutate::mutate(
                                &cfg,
                                &self.program,
                                &self.machine,
                                full_size,
                                &mut self.rng,
                            );
                        }
                        children.push(cfg);
                        parent_fitness.push(None);
                    } else {
                        let parent_idx = self.pick_parent(population.len());
                        parent_fitness.push(Some(population[parent_idx].fitness));
                        children.push(mutate::mutate(
                            &population[parent_idx].config,
                            &self.program,
                            &self.machine,
                            full_size,
                            &mut self.rng,
                        ));
                    }
                }
                if kick {
                    self.stats.kicks += 1;
                    stagnant = 0;
                    kick_level = (kick_level + 1).min(4);
                }

                let results = self.dispatch(children.clone(), size, round as u64, &mut trial_index);
                for ((child, parent), res) in children.into_iter().zip(parent_fitness).zip(results)
                {
                    let Some(f) = res.fitness else {
                        self.stats.rejected += 1;
                        continue;
                    };
                    let admit = match parent {
                        // §5.2: children join only if they beat their parent.
                        Some(pf) => f < pf,
                        // Kick children only need to beat the current worst
                        // (the best is never evicted, so best-cost stays
                        // monotone).
                        None => {
                            population.len() < self.settings.population
                                || f < population.last().map_or(f64::INFINITY, |c| c.fitness)
                        }
                    };
                    if admit {
                        population.push(Candidate { config: child, fitness: f });
                        population.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
                        population.truncate(self.settings.population.max(1));
                    }
                }
                if population[0].fitness < best_before {
                    stagnant = 0;
                    kick_level = 1;
                } else if !kick {
                    stagnant += 1;
                }
                self.stats.round_best.last_mut().expect("pushed above").push(population[0].fitness);
                self.stats
                    .round_secs
                    .last_mut()
                    .expect("pushed above")
                    .push(self.stats.tuning_secs);
                generation += 1;
                if warm.is_some()
                    && self.stats.repair_generations.is_none()
                    && population[0].fitness < warm_fitness
                {
                    self.stats.repair_generations = Some(generation);
                }
                done += batch;
            }
        }

        // Make sure the winner's fitness reflects the full size. With a
        // warm start the verbatim donor is evaluated first here too: the
        // winner is the minimum over population ∪ {donor} (ties go to the
        // donor), so a perfect donor can never be regressed on.
        let mut final_index = 0u64;
        let mut finalists: Vec<Config> = Vec::with_capacity(population.len() + 1);
        if let Some(ws) = &warm {
            finalists.push(ws.config.clone());
        }
        finalists.extend(population.iter().map(|c| c.config.clone()));
        let results = self.dispatch(finalists, full_size, schedule.len() as u64, &mut final_index);
        let offset = usize::from(warm.is_some());
        let mut best_idx = 0;
        let mut best_time = f64::INFINITY;
        for (i, res) in results.iter().enumerate() {
            let t = res.fitness.unwrap_or(f64::INFINITY);
            if t < best_time {
                best_time = t;
                best_idx = i;
            }
        }
        let config = match (warm, best_idx.checked_sub(offset)) {
            (Some(ws), None) => ws.config,
            (_, Some(i)) => population.swap_remove(i).config,
            (None, None) => unreachable!("offset is 0 without a warm start"),
        };
        Tuned { config, time_secs: best_time, stats: self.stats.clone() }
    }

    /// Send one batch of configurations to the farm and absorb the
    /// accounting. `trial_index` advances by one per job so every trial in
    /// a round gets a distinct deterministic engine seed.
    fn dispatch(
        &mut self,
        configs: Vec<Config>,
        size: u64,
        round: u64,
        trial_index: &mut u64,
    ) -> Vec<petal_farm::EvalResult> {
        let jobs: Vec<EvalJob> = configs
            .into_iter()
            .map(|config| {
                let seed = job_seed(self.settings.seed, round, *trial_index);
                *trial_index += 1;
                EvalJob { config, size, engine_seed: seed }
            })
            .collect();
        let results = self.farm.evaluate(self.benchmark, &self.machine, &jobs);
        for res in &results {
            if res.ran {
                self.stats.trials += 1;
                self.stats.tuning_secs += res.trial_secs;
                self.stats.compile_secs += res.compile_secs;
            }
        }
        results
    }

    /// Biased parent selection: index 0 (the best) is picked most often.
    fn pick_parent(&mut self, len: usize) -> usize {
        let a = self.rng.gen_range(0..len);
        let b = self.rng.gen_range(0..len);
        a.min(b)
    }

    /// Search accounting so far.
    #[must_use]
    pub fn stats(&self) -> TuningStats {
        self.stats.clone()
    }
}

/// Render a configuration for the Fig. 6 table: the selector poly-algorithm
/// levels plus the placement-relevant tunables.
#[must_use]
pub fn describe_config(cfg: &Config) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, sel) in cfg.selectors() {
        let _ = write!(out, "{name}: alg {}", sel.algs()[0]);
        for (c, a) in sel.cutoffs().iter().zip(&sel.algs()[1..]) {
            let _ = write!(out, " | >= {c}: alg {a}");
        }
        if let Some(r) = cfg.tunable(&format!("{name}.gpu_ratio")) {
            let _ = write!(out, " (gpu {}/8)", r.value);
        }
        if let Some(l) = cfg.tunable(&format!("{name}.local_size")) {
            let _ = write!(out, " (lws {})", l.value);
        }
        out.push_str("; ");
    }
    out.trim_end_matches("; ").to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_apps::blackscholes::BlackScholes;
    use petal_apps::convolution::SeparableConvolution;

    #[test]
    fn tuner_improves_on_the_default_config() {
        // Black-Scholes on the Desktop: the default (CPU) config is far
        // from the GPU optimum; even a smoke-budget search must find a
        // large win.
        let bench = BlackScholes::new(100_000);
        let machine = MachineProfile::desktop();
        let default_time = bench.run_default(&machine).expect("default runs").virtual_time_secs();
        let mut tuner = Autotuner::new(&bench, &machine, TunerSettings::smoke());
        let tuned = tuner.run();
        assert!(
            tuned.time_secs < default_time * 0.7,
            "tuned {} vs default {default_time}",
            tuned.time_secs
        );
        assert!(tuned.stats.trials > 0);
    }

    #[test]
    fn search_is_deterministic_given_a_seed() {
        let bench = SeparableConvolution::new(96, 5);
        let machine = MachineProfile::laptop();
        let run = || Autotuner::new(&bench, &machine, TunerSettings::smoke()).run();
        let a = run();
        let b = run();
        assert_eq!(a.config, b.config);
        assert_eq!(a.time_secs, b.time_secs);
    }

    #[test]
    fn tuning_time_accounts_compiles() {
        let bench = SeparableConvolution::new(96, 5);
        let machine = MachineProfile::desktop();
        let settings = TunerSettings { trials_per_round: 32, ..TunerSettings::smoke() };
        let mut tuner = Autotuner::new(&bench, &machine, settings);
        let tuned = tuner.run();
        assert!(tuned.stats.tuning_secs > 0.0);
        assert!(
            tuned.stats.compile_secs > 0.0,
            "OpenCL candidates must have JIT-compiled at least once"
        );
        assert!(tuned.stats.tuning_secs >= tuned.stats.compile_secs);
    }

    #[test]
    fn describe_config_mentions_selectors_and_ratios() {
        let bench = BlackScholes::new(1024);
        let machine = MachineProfile::desktop();
        let cfg = bench.program(&machine).default_config(&machine);
        let text = describe_config(&cfg);
        assert!(text.contains("blackscholes"));
        assert!(text.contains("gpu 8/8"));
    }
}
