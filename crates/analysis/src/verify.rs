//! The sweep driver behind `petal-verify`: run all three passes over a
//! (benchmark × machine) matrix, on both the seed (default) configuration
//! and — optionally — a freshly autotuned one.

use crate::allowlist;
use crate::legality::check_plan;
use crate::lint::{lint_choice_space, lint_config, LintBudget};
use crate::report::VerifyReport;
use petal_apps::Benchmark;
use petal_core::Config;
use petal_gpu::profile::MachineProfile;
use petal_tuner::{Autotuner, TunerSettings};

/// What `verify_benchmark` should sweep.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Probing effort for the choice-space linter.
    pub budget: LintBudget,
    /// Also autotune (smoke effort) and verify the tuned configuration —
    /// this is how the verifier covers configs the search actually visits,
    /// not just the seed.
    pub tuned: bool,
}

impl VerifyOptions {
    /// Full sweep (CLI default).
    #[must_use]
    pub fn full() -> Self {
        VerifyOptions { budget: LintBudget::full(), tuned: true }
    }

    /// Fast sweep for the CI gate (`PETAL_SMOKE=1`).
    #[must_use]
    pub fn smoke() -> Self {
        VerifyOptions { budget: LintBudget::smoke(), tuned: false }
    }
}

/// Verify one concrete configuration: structural config lint plus
/// hazard/legality passes on the plan it lowers to.
fn verify_config(
    benchmark: &dyn Benchmark,
    machine: &MachineProfile,
    cfg: &Config,
) -> VerifyReport {
    let program = benchmark.program(machine);
    let mut findings = lint_config(&program, machine, cfg, benchmark.input_size());
    let instance = benchmark.instantiate(machine, cfg);
    for mut f in check_plan(&instance.plan, machine) {
        f.benchmark = program.name.clone();
        f.machine = machine.codename.clone();
        findings.push(f);
    }
    VerifyReport { findings, plans_checked: 1, configs_probed: 0 }
}

/// Run all three passes for one (benchmark, machine) pair.
#[must_use]
pub fn verify_benchmark(
    benchmark: &dyn Benchmark,
    machine: &MachineProfile,
    options: &VerifyOptions,
) -> VerifyReport {
    let program = benchmark.program(machine);
    let mut report = verify_config(benchmark, machine, &program.default_config(machine));
    report.merge(lint_choice_space(benchmark, machine, &options.budget));
    if options.tuned {
        let tuned = Autotuner::new(benchmark, machine, TunerSettings::smoke()).run();
        report.merge(verify_config(benchmark, machine, &tuned.config));
    }
    allowlist::apply(&mut report.findings);
    report
}
