//! Pass 3: the choice-space linter.
//!
//! Works on a benchmark's [`Program`] metadata and its lowered plans:
//!
//! * **structural config lint** ([`lint_config`]) — cutoff-shadowed
//!   selector arms, redundant levels, tunable values outside their declared
//!   range, extra-tunable defaults outside their declared range;
//! * **dead-choice probing** ([`lint_choice_space`]) — instantiate the
//!   benchmark under systematically varied configurations and flag every
//!   selector and tunable whose variation never changes the lowered plan's
//!   structural fingerprint.
//!
//! Probing quantifies over *reachable* configurations, not just the
//! default: each knob is varied on top of every single-site selector
//! assignment, every pair of selector assignments (for cross-site gating
//! like SeparableConvolution's `separable` → `convolve_rows` dependency),
//! and "augmented" bases that pin every `*.gpu_ratio` to a fractional
//! split and `sequential_cutoff` to its minimum (for knobs that only
//! matter once a split or chunking is active). Knobs reachable only
//! through *deeper* joint assignments must be allowlisted with a written
//! justification (see [`crate::allowlist`]).
//!
//! Keys consulted by dynamic control flow inside native steps
//! ([`petal_apps::Benchmark::dynamic_config_keys`]) are exempt: their
//! effect is invisible to plan structure by construction.

use crate::legality::check_plan;
use crate::report::{Finding, Pass, Severity, VerifyReport};
use petal_apps::Benchmark;
use petal_core::plan::plan_fingerprint;
use petal_core::program::Program;
use petal_core::{Config, Selector, Tunable};
use petal_gpu::profile::MachineProfile;
use std::collections::{BTreeMap, BTreeSet};

/// Effort knobs for the probing linter.
#[derive(Debug, Clone)]
pub struct LintBudget {
    /// Probe at a single reduced input size so the CI gate stays fast.
    pub smoke: bool,
}

impl LintBudget {
    /// Full probing (CLI default).
    #[must_use]
    pub fn full() -> Self {
        LintBudget { smoke: false }
    }

    /// Fast probing for the CI gate.
    #[must_use]
    pub fn smoke() -> Self {
        LintBudget { smoke: true }
    }
}

/// Structural lint of one configuration against its program metadata and
/// the benchmark's input-size range. Cheap — runs on every config the
/// verifier sees, including tuned ones.
#[must_use]
pub fn lint_config(
    program: &Program,
    machine: &MachineProfile,
    cfg: &Config,
    input_size: u64,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut emit = |severity: Severity, key: String, message: String| {
        out.push(Finding {
            pass: Pass::ChoiceSpace,
            severity,
            benchmark: program.name.clone(),
            machine: machine.codename.clone(),
            key,
            message,
            allowed: None,
        });
    };
    for (name, sel) in cfg.selectors() {
        // Arm `i+1` covers input sizes >= cutoffs[i]; the benchmark never
        // presents a size above its declared input size.
        for (i, &cutoff) in sel.cutoffs().iter().enumerate() {
            if cutoff > input_size {
                emit(
                    Severity::Warning,
                    format!("shadowed-arm:{name}:{}", i + 1),
                    format!(
                        "selector `{name}` arm {} (alg {}) starts at cutoff {cutoff}, \
                         beyond the benchmark's input size {input_size} — the arm is \
                         unreachable",
                        i + 1,
                        sel.algs()[i + 1],
                    ),
                );
            }
        }
        for (i, pair) in sel.algs().windows(2).enumerate() {
            if pair[0] == pair[1] {
                emit(
                    Severity::Warning,
                    format!("redundant-level:{name}:{i}"),
                    format!(
                        "selector `{name}` arms {i} and {} both pick alg {} — the \
                         cutoff between them is a wasted level (max {} levels)",
                        i + 1,
                        pair[0],
                        petal_core::config::MAX_SELECTOR_LEVELS,
                    ),
                );
            }
        }
    }
    for (name, t) in cfg.tunables() {
        if t.value < t.min || t.value > t.max {
            emit(
                Severity::Error,
                format!("tunable-range:{name}"),
                format!(
                    "tunable `{name}` value {} outside its declared range {}..={}",
                    t.value, t.min, t.max
                ),
            );
        }
    }
    for (name, default, min, max) in &program.extra_tunables {
        if default < min || default > max {
            emit(
                Severity::Error,
                format!("default-range:{name}"),
                format!(
                    "extra tunable `{name}` declares default {default} outside its \
                     range {min}..={max}"
                ),
            );
        }
    }
    out
}

/// A selector assignment on top of the default config, plus the optional
/// "augmentation" (gpu_ratio → 1, sequential_cutoff → min) that exposes
/// split-/chunking-gated knobs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Base {
    assign: BTreeMap<String, usize>,
    aug: bool,
}

fn base_config(program: &Program, machine: &MachineProfile, base: &Base) -> Config {
    let mut cfg = program.default_config(machine);
    for site in &program.sites {
        if let Some(&v) = base.assign.get(&site.name) {
            cfg.set_selector(&site.name, Selector::constant(v, program.site_algs(site, machine)));
        }
    }
    if base.aug {
        let pins: Vec<(String, Tunable)> = cfg
            .tunables()
            .filter(|(name, _)| name.ends_with(".gpu_ratio") || *name == "sequential_cutoff")
            .map(|(name, t)| {
                let pinned = if name.ends_with(".gpu_ratio") { 1 } else { t.min };
                (name.to_owned(), Tunable::new(pinned, t.min, t.max))
            })
            .collect();
        for (name, t) in pins {
            cfg.set_tunable(&name, t);
        }
    }
    cfg
}

/// Memo key for one probe: (selector base, tunable override, input size).
type ProbeKey = (Base, Option<(String, i64)>, u64);

/// The probing engine: fingerprints plans across configuration variants
/// and sizes, memoizing by [`ProbeKey`].
struct Prober<'a> {
    program: &'a Program,
    machine: &'a MachineProfile,
    /// (size, benchmark at that size), largest first.
    sized: Vec<(u64, Box<dyn Benchmark>)>,
    cache: BTreeMap<ProbeKey, u64>,
    /// Plan-level (hazard/legality) findings discovered while probing,
    /// deduplicated by key.
    plan_findings: BTreeMap<String, Finding>,
    probes: usize,
}

impl Prober<'_> {
    /// Fingerprints of `base` (+ optional single-tunable override) at every
    /// probe size.
    fn fingerprints(&mut self, base: &Base, tweak: Option<(&str, i64)>) -> Vec<u64> {
        let mut fps = Vec::with_capacity(self.sized.len());
        for idx in 0..self.sized.len() {
            let size = self.sized[idx].0;
            let cache_key = (base.clone(), tweak.map(|(n, v)| (n.to_owned(), v)), size);
            if let Some(&fp) = self.cache.get(&cache_key) {
                fps.push(fp);
                continue;
            }
            let mut cfg = base_config(self.program, self.machine, base);
            if let Some((name, value)) = tweak {
                if let Some(t) = cfg.tunable(name).copied() {
                    cfg.set_tunable(name, Tunable::new(value, t.min, t.max));
                }
            }
            let instance = self.sized[idx].1.instantiate(self.machine, &cfg);
            self.probes += 1;
            let fp = plan_fingerprint(&instance.plan);
            for mut f in check_plan(&instance.plan, self.machine) {
                f.benchmark = self.program.name.clone();
                f.machine = self.machine.codename.clone();
                self.plan_findings.entry(f.key.clone()).or_insert(f);
            }
            self.cache.insert(cache_key, fp);
            fps.push(fp);
        }
        fps
    }
}

/// Probe the benchmark's whole choice space on one machine and report dead
/// selectors and dead tunables (plus any hazard/legality finding surfaced
/// by the probed plans).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn lint_choice_space(
    benchmark: &dyn Benchmark,
    machine: &MachineProfile,
    budget: &LintBudget,
) -> VerifyReport {
    let program = benchmark.program(machine);
    let full = benchmark.input_size();
    let mut sized: Vec<(u64, Box<dyn Benchmark>)> = Vec::new();
    if budget.smoke {
        // One reduced size keeps the CI gate fast; fall back to the full
        // size for benchmarks that cannot shrink that far. A quarter of the
        // declared size stays above small-size degradation guards (e.g.
        // Strassen's MIN_RECURSE) that would mask device paths entirely.
        let target = (full / 4).max(2);
        match benchmark.resized(target) {
            Some(b) => sized.push((target, b)),
            None => {
                if let Some(b) = benchmark.resized(full) {
                    sized.push((full, b));
                }
            }
        }
    } else {
        for size in [full, full / 8, full / 64] {
            if sized.iter().any(|(s, _)| *s == size) {
                continue;
            }
            if let Some(b) = benchmark.resized(size) {
                sized.push((size, b));
            }
        }
    }
    if sized.is_empty() {
        // `resized` unsupported: probe at the declared size only.
        if let Some(b) = benchmark.resized(full) {
            sized.push((full, b));
        }
    }
    if sized.is_empty() {
        // No way to re-instantiate the benchmark — better a loud finding
        // than a silently clean report.
        return VerifyReport {
            findings: vec![Finding {
                pass: Pass::ChoiceSpace,
                severity: Severity::Warning,
                benchmark: program.name,
                machine: machine.codename.clone(),
                key: "probe-unsupported".into(),
                message: "benchmark does not support `resized`; choice-space \
                          probing skipped"
                    .into(),
                allowed: None,
            }],
            ..VerifyReport::default()
        };
    }
    let dynamic: BTreeSet<String> = benchmark.dynamic_config_keys().into_iter().collect();
    let mut prober = Prober {
        program: &program,
        machine,
        sized,
        cache: BTreeMap::new(),
        plan_findings: BTreeMap::new(),
        probes: 0,
    };
    let default_base = Base { assign: BTreeMap::new(), aug: false };

    // Enumerate selector bases: default, singles, (non-smoke) pairs.
    let site_algs: Vec<(String, usize)> =
        program.sites.iter().map(|s| (s.name.clone(), program.site_algs(s, machine))).collect();
    let mut singles: Vec<Base> = Vec::new();
    for (name, algs) in &site_algs {
        for v in 1..*algs {
            let mut assign = BTreeMap::new();
            assign.insert(name.clone(), v);
            singles.push(Base { assign, aug: false });
        }
    }
    // Pairwise bases are kept even in smoke mode: cross-site gating (e.g.
    // SeparableConvolution's `separable` choice enabling the two-pass
    // sites) otherwise produces false dead-choice findings, and the smoke
    // budget already saves its time through the single reduced input size.
    let mut pairs: Vec<Base> = Vec::new();
    for (i, (ni, ai)) in site_algs.iter().enumerate() {
        for (nj, aj) in site_algs.iter().skip(i + 1) {
            for vi in 1..*ai {
                for vj in 1..*aj {
                    let mut assign = BTreeMap::new();
                    assign.insert(ni.clone(), vi);
                    assign.insert(nj.clone(), vj);
                    pairs.push(Base { assign, aug: false });
                }
            }
        }
    }

    let mut findings = Vec::new();

    // Dead selectors: a selector is alive when some pair of bases differing
    // only in its value fingerprints differently.
    let default_fp = prober.fingerprints(&default_base, None);
    for (name, algs) in &site_algs {
        if dynamic.contains(name) || *algs <= 1 {
            continue;
        }
        let mut alive = false;
        for v in 1..*algs {
            let mut assign = BTreeMap::new();
            assign.insert(name.clone(), v);
            if prober.fingerprints(&Base { assign, aug: false }, None) != default_fp {
                alive = true;
                break;
            }
        }
        if !alive {
            // Pairs: the selector may only matter under another site's
            // non-default choice (cross-site gating).
            'outer: for other in pairs.iter().filter(|b| b.assign.contains_key(name)) {
                let mut without = other.clone();
                without.assign.remove(name);
                if prober.fingerprints(other, None) != prober.fingerprints(&without, None) {
                    alive = true;
                    break 'outer;
                }
            }
        }
        if !alive {
            findings.push(Finding {
                pass: Pass::ChoiceSpace,
                severity: Severity::Warning,
                benchmark: program.name.clone(),
                machine: machine.codename.clone(),
                key: format!("dead-selector:{name}"),
                message: format!(
                    "selector `{name}` ({algs} algs): no probed value changes the \
                     lowered plan at any probed input size — dead choice \
                     dimension",
                ),
                allowed: None,
            });
        }
    }

    // Dead tunables: probe {min, mid, max} on top of the relevant bases.
    let tunable_names: Vec<(String, Tunable)> = {
        let cfg = program.default_config(machine);
        cfg.tunables().map(|(n, t)| (n.to_owned(), *t)).collect()
    };
    for (name, t) in &tunable_names {
        if dynamic.contains(name) || t.min == t.max {
            continue;
        }
        let site = name.split('.').next().filter(|_| name.contains('.'));
        let mut bases: Vec<Base> = vec![default_base.clone()];
        let relevant = |b: &Base| match site {
            Some(s) => b.assign.contains_key(s),
            None => true,
        };
        bases.extend(singles.iter().filter(|b| relevant(b)).cloned());
        bases.extend(pairs.iter().filter(|b| relevant(b)).cloned());
        // Augmented twins expose split-/chunk-gated knobs.
        let augmented: Vec<Base> = bases
            .iter()
            .filter(|b| !b.aug)
            .map(|b| Base { assign: b.assign.clone(), aug: true })
            .collect();
        bases.extend(augmented);
        let values: Vec<i64> = [t.min, (t.min + t.max) / 2, t.max]
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut alive = false;
        'probe: for base in &bases {
            let baseline = prober.fingerprints(base, None);
            for &v in &values {
                if prober.fingerprints(base, Some((name, v))) != baseline {
                    alive = true;
                    break 'probe;
                }
            }
        }
        if !alive {
            findings.push(Finding {
                pass: Pass::ChoiceSpace,
                severity: Severity::Warning,
                benchmark: program.name.clone(),
                machine: machine.codename.clone(),
                key: format!("dead-tunable:{name}"),
                message: format!(
                    "tunable `{name}` ({}..={}): no probed value changes the lowered \
                     plan under any probed selector assignment — dead search \
                     dimension",
                    t.min, t.max
                ),
                allowed: None,
            });
        }
    }

    let mut report = VerifyReport {
        findings: prober.plan_findings.into_values().collect(),
        plans_checked: prober.probes,
        configs_probed: prober.probes,
    };
    report.findings.extend(findings);
    report
}
