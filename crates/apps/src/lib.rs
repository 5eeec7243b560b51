//! # petal-apps — the seven paper benchmarks
//!
//! Each module reproduces one benchmark from §6 of *Portable Performance on
//! Heterogeneous Architectures*, expressed against the `petal-core` choice
//! API so the autotuner can search its algorithm/placement/mapping space:
//!
//! | Module | Benchmark | Choice space highlights |
//! |---|---|---|
//! | [`blackscholes`] | Black-Scholes | CPU/GPU placement, fractional 1/8 splits |
//! | [`poisson`] | Poisson2D SOR | per-phase backend choice (split vs. iterate) |
//! | [`convolution`] | SeparableConvolution | 2D vs. separable × local-memory mapping |
//! | [`sort`] | Sort | 7-algorithm recursive poly-algorithm + GPU bitonic |
//! | [`strassen`] | Strassen | recursive decompositions, LAPACK leaf, GPU matmul |
//! | [`svd`] | SVD (variable accuracy) | task-parallel CPU+GPU, nested matmul selectors |
//! | [`tridiagonal`] | Tridiagonal Solver | direct solve vs. GPU cyclic reduction |
//!
//! All inputs are deterministic (seeded), and every benchmark carries a
//! host-side reference implementation used by `Instance::check`.

pub mod blackscholes;
pub mod cli;
pub mod convolution;
pub mod poisson;
pub mod sort;
pub mod strassen;
pub mod svd;
pub mod tridiagonal;
pub mod workload;

use petal_blas::Matrix;
use petal_core::executor::{ExecReport, Executor};
use petal_core::{Config, Error, MatrixId, Plan, Program, World};
use petal_gpu::profile::MachineProfile;
use std::sync::Arc;

/// Post-run verification closure against the reference implementation.
/// `Send` so a whole instance can be built and verified on an
/// evaluation-farm worker thread.
pub type CheckFn = Box<dyn Fn(&World) -> Result<(), String> + Send>;

/// The check of a benchmark whose prepared answer is a matrix: `out` within
/// `tol` of `expected` in every element, else the largest difference.
pub(crate) fn check_within(out: MatrixId, expected: Arc<Matrix>, tol: f64) -> CheckFn {
    Box::new(move |w: &World| {
        let got = w.get(out);
        if got.approx_eq(&expected, tol) {
            Ok(())
        } else {
            Err(format!("max abs diff {}", got.max_abs_diff(&expected)))
        }
    })
}

/// `n` when it reaches a kind's smallest size `min`, the kind's refusal
/// otherwise: all of validity for the kinds whose one parameter is `n`.
pub(crate) fn at_least(kind: &str, n: usize, min: usize) -> Result<usize, String> {
    if n < min {
        return Err(format!("{kind}: n must be >= {min}"));
    }
    Ok(n)
}

/// What a kind's `try_new` built, as the object `resized` and
/// [`benchmark_from_spec`] hand out.
pub(crate) fn boxed(built: impl Benchmark + 'static) -> Box<dyn Benchmark> {
    Box::new(built)
}

/// One runnable problem instance: the world holding inputs/outputs, the
/// schedule for the chosen configuration, and a correctness check to run
/// after execution.
pub struct Instance {
    /// Matrices (inputs allocated, outputs zeroed).
    pub world: World,
    /// The schedule for this configuration.
    pub plan: Plan,
    /// Post-run verification against the reference implementation.
    pub check: CheckFn,
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance").field("plan", &self.plan).finish_non_exhaustive()
    }
}

/// A tunable benchmark: everything the autotuner and the figure harnesses
/// need.
///
/// `Send + Sync` is part of the contract: the evaluation farm shares a
/// benchmark by reference across its worker threads, each of which calls
/// [`Benchmark::instantiate`] to build an independent trial.
///
/// A benchmark is a problem description (sizes, seeds, accuracy targets)
/// whose validity — smallest size, shape, every derived extent
/// representable — is stated once, by its kind's `try_new`: `new` panics
/// where that errs, `resized` answers `None` and [`benchmark_from_spec`]
/// passes the message on, so the three cannot disagree. Beside it lives
/// whatever it chooses to memoise of the *prepared* half of an
/// instance: anything that is a pure function of [`Benchmark::spec`] —
/// the seeded inputs, the host reference answer `check` compares
/// against, the data-parallel rules its plans are made of (each of which
/// generates its kernel text once) — and of nothing else (not the
/// machine, not the configuration, not which thread asked first). The
/// seven benchmarks here build that once, on the first `instantiate`, in
/// a private `OnceLock`, and hand every trial `Arc`s of it
/// ([`World::alloc_shared`] copies an input only if a plan writes it). A
/// memo hit and a fresh build must be indistinguishable to the caller;
/// `crates/farm/tests/prepared.rs` holds every benchmark to that.
///
/// What a plan step computes *from prepared state alone* is prepared
/// state too: [`tridiagonal`]'s two CPU solves read the prepared system
/// itself, not a `World` slot a configuration could have reached, so the
/// first trial to run one stores the solution and every trial copies it
/// out.
///
/// An *intermediate* result — what a plan step computes at run time from
/// a matrix in its `World` — may join the prepared state only keyed by
/// the bit pattern of the input it was computed from: the step compares
/// the input it was handed with the stored key by
/// [`petal_blas::same_bits`] (and nothing looser: not `==`, not a
/// tolerance), reuses the stored result on a match and recomputes
/// otherwise, never replacing the entry, so that hit ≡ miss whatever the
/// configuration did upstream
/// ([`svd`]'s eigendecomposition of `AᵀA` is one such entry;
/// [`blackscholes`]' prices are the other, checked per span of cells by
/// the rule's span body). What the step charges and what the plan looks
/// like must not depend on it.
///
/// The memo lives and dies with the object. The evaluation farm never
/// instantiates the object it is handed: it evaluates on children built
/// through [`Benchmark::resized`] (one per input size, the full size
/// included) that it owns for the length of a tuning session, so a
/// long-lived benchmark object retains nothing between tunes.
pub trait Benchmark: Send + Sync {
    /// Display name (matches the paper's benchmark tables).
    fn name(&self) -> &str;

    /// A machine-readable constructor spec: one line of `kind key=value …`
    /// that [`benchmark_from_spec`] parses back into an equivalent
    /// benchmark. This is how the process-sharded evaluation farm ships a
    /// benchmark identity to its `petal-shard` worker processes, so the
    /// round-trip contract is strict: `benchmark_from_spec(&b.spec())`
    /// must rebuild a benchmark with the same name, the same input size
    /// and bit-identical evaluation behaviour. Floating-point parameters
    /// are therefore encoded as exact IEEE-754 bit patterns (`0x…`).
    fn spec(&self) -> String;

    /// The input size fed to selectors.
    fn input_size(&self) -> u64;

    /// Choice-space metadata (selectors, tunables, kernel counts).
    fn program(&self, machine: &MachineProfile) -> Program;

    /// Build a world + plan for one configuration.
    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance;

    /// Convenience: build, execute on a fresh executor, verify, report.
    ///
    /// # Errors
    /// Execution failures, or a [`Error::Validation`] when the result does
    /// not match the reference implementation.
    fn run_with_config(&self, machine: &MachineProfile, cfg: &Config) -> Result<ExecReport, Error> {
        let Instance { mut world, plan, check } = self.instantiate(machine, cfg);
        let mut ex = Executor::new(machine);
        let report = ex.run(plan, &mut world)?;
        check(&world).map_err(Error::Validation)?;
        Ok(report)
    }

    /// A smaller (or larger) copy of this benchmark for the autotuner's
    /// exponentially growing input-size schedule (§5.2). `None` when the
    /// size is too small to be a valid instance.
    ///
    /// `resized(self.input_size())`, when it is `Some`, must reproduce
    /// `self`: same [`Benchmark::spec`], bit-identical evaluation. The
    /// farm evaluates full-size trials on that child; only a benchmark
    /// that refuses its own size (this default does) is instantiated
    /// directly. The farm builds every size after the first from the
    /// largest child it holds, so a child's `resized(size)` must build
    /// what its parent's would; it may hand the new child prepared state
    /// to build on, never a different instance.
    fn resized(&self, size: u64) -> Option<Box<dyn Benchmark>> {
        let _ = size;
        None
    }

    /// Config keys (selector or tunable names) consulted by *dynamic*
    /// control flow — closures inside `NativeStep`s that re-read the
    /// configuration at runtime, invisible to any static analysis of the
    /// lowered plan. The choice-space linter (`petal-verify`) must not
    /// flag these as dead just because varying them leaves the plan's
    /// structure unchanged. Default: none (every key's effect is visible
    /// in the plan).
    fn dynamic_config_keys(&self) -> Vec<String> {
        Vec::new()
    }

    /// Whether the evaluation farm may answer a trial from the outcome of
    /// an earlier one instead of running it. It does so only for a trial
    /// whose engine never read its seed, keyed by (machine, size, plan
    /// fingerprint, the values of [`Benchmark::dynamic_config_keys`]): the
    /// repeat is instantiated but neither run nor checked. Say `true` only
    /// when that key is complete — no native closure reads a key it does
    /// not declare — and nothing is owed a run or a `check` per trial.
    /// Default: `false`, so a wrapper that watches its trials, and does
    /// not forward this, has every trial run.
    fn memoisable(&self) -> bool {
        false
    }

    /// Convenience: run with the untuned default configuration.
    ///
    /// # Errors
    /// Same as [`Benchmark::run_with_config`].
    fn run_default(&self, machine: &MachineProfile) -> Result<ExecReport, Error> {
        let cfg = self.program(machine).default_config(machine);
        self.run_with_config(machine, &cfg)
    }
}

/// Parse one `key=value` token of a [`Benchmark::spec`] line.
fn spec_field<'a>(tokens: &'a [&str], key: &str) -> Result<&'a str, String> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| format!("spec is missing `{key}=`"))
}

fn spec_usize(tokens: &[&str], key: &str) -> Result<usize, String> {
    spec_field(tokens, key)?.parse().map_err(|_| format!("spec field `{key}` is not an integer"))
}

/// Decode an `0x…` IEEE-754 bit pattern written by a spec (exactness is
/// part of the round-trip contract; decimal text could drift).
fn spec_f64_bits(tokens: &[&str], key: &str) -> Result<f64, String> {
    spec_f64_parse(spec_field(tokens, key)?).map_err(|e| format!("spec field `{key}`: {e}"))
}

/// Encode an `f64` as its exact IEEE-754 bit pattern (`0x` + 16 hex
/// digits). The inverse of [`spec_f64_parse`]; shared by benchmark specs
/// and the shard wire format so the two "exact float" encodings can
/// never drift apart.
#[must_use]
pub fn spec_f64(value: f64) -> String {
    let mut out = String::with_capacity(18);
    spec_f64_into(value, &mut out);
    out
}

/// [`spec_f64`] appended to an existing buffer — the allocation-free form
/// the shard wire encoder uses on its per-job hot path.
pub fn spec_f64_into(value: f64, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(out, "0x{:016x}", value.to_bits());
}

/// Decode an `f64` encoded by [`spec_f64`], bit-exactly (NaN payloads
/// included).
///
/// # Errors
/// When the text is not `0x` followed by a valid hex bit pattern.
pub fn spec_f64_parse(raw: &str) -> Result<f64, String> {
    let hex = raw.strip_prefix("0x").ok_or_else(|| format!("`{raw}` must be 0x…"))?;
    u64::from_str_radix(hex, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("`{raw}` is not a hex bit pattern"))
}

/// Rebuild a benchmark from a [`Benchmark::spec`] line.
///
/// This is the inverse of [`Benchmark::spec`] and the entry point the
/// `petal-shard` worker binary uses to reconstruct its benchmark from the
/// shard-protocol `INIT` message.
///
/// # Errors
/// Returns a human-readable message when the kind is unknown, a field is
/// missing or malformed, or the kind's `try_new` refuses the parameters
/// (so a corrupt spec never panics a worker).
pub fn benchmark_from_spec(spec: &str) -> Result<Box<dyn Benchmark>, String> {
    let tokens: Vec<&str> = spec.split_whitespace().collect();
    let (&kind, params) = tokens.split_first().ok_or_else(|| "empty spec".to_owned())?;
    let n = || spec_usize(params, "n");
    match kind {
        "blackscholes" => blackscholes::BlackScholes::try_new(n()?).map(boxed),
        "poisson2d" => poisson::Poisson2D::try_new(n()?, spec_usize(params, "iters")?).map(boxed),
        "convolution" => {
            convolution::SeparableConvolution::try_new(n()?, spec_usize(params, "k")?).map(boxed)
        }
        "sort" => sort::Sort::try_new(n()?).map(boxed),
        "strassen" => strassen::Strassen::try_new(n()?).map(boxed),
        "svd" => svd::Svd::try_new(n()?, spec_f64_bits(params, "target")?).map(boxed),
        "tridiagonal" => tridiagonal::Tridiagonal::try_new(n()?).map(boxed),
        other => Err(format!("unknown benchmark kind `{other}`")),
    }
}

/// All seven benchmarks at the sizes used by the harness binaries
/// (reduced from the paper's sizes so functional execution stays fast; the
/// harness `--full` flag restores the paper's sizes).
#[must_use]
pub fn all_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(blackscholes::BlackScholes::new(100_000)),
        Box::new(poisson::Poisson2D::new(128, 8)),
        Box::new(convolution::SeparableConvolution::new(256, 7)),
        Box::new(sort::Sort::new(1 << 16)),
        Box::new(strassen::Strassen::new(256)),
        Box::new(svd::Svd::new(64, 0.15)),
        Box::new(tridiagonal::Tridiagonal::new(1 << 12)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row per kind, at every parameter but `n` its own smallest: what
    /// the law tests below are driven from.
    struct Kind {
        /// The smallest `n` that is an instance (the tests hold it to that).
        min_n: usize,
        /// `input_size()` is `n` to this power.
        dim: u32,
        /// The spec line at `n`.
        spec: fn(usize) -> String,
        /// The kind's `try_new` at `n`.
        try_new: fn(usize) -> Result<Box<dyn Benchmark>, String>,
    }

    fn kinds() -> [Kind; 7] {
        [
            Kind {
                min_n: blackscholes::MIN_N,
                dim: 1,
                spec: |n| format!("blackscholes n={n}"),
                try_new: |n| blackscholes::BlackScholes::try_new(n).map(boxed),
            },
            Kind {
                min_n: poisson::MIN_N,
                dim: 2,
                spec: |n| format!("poisson2d n={n} iters=1"),
                try_new: |n| poisson::Poisson2D::try_new(n, 1).map(boxed),
            },
            Kind {
                min_n: 10, // n > 3k
                dim: 2,
                spec: |n| format!("convolution n={n} k=3"),
                try_new: |n| convolution::SeparableConvolution::try_new(n, 3).map(boxed),
            },
            Kind {
                min_n: sort::MIN_N,
                dim: 1,
                spec: |n| format!("sort n={n}"),
                try_new: |n| sort::Sort::try_new(n).map(boxed),
            },
            Kind {
                min_n: strassen::MIN_N,
                dim: 1,
                spec: |n| format!("strassen n={n}"),
                try_new: |n| strassen::Strassen::try_new(n).map(boxed),
            },
            Kind {
                min_n: svd::MIN_N,
                dim: 1,
                spec: |n| format!("svd n={n} target={}", spec_f64(1.0)),
                try_new: |n| svd::Svd::try_new(n, 1.0).map(boxed),
            },
            Kind {
                min_n: tridiagonal::MIN_N,
                dim: 1,
                spec: |n| format!("tridiagonal n={n}"),
                try_new: |n| tridiagonal::Tridiagonal::try_new(n).map(boxed),
            },
        ]
    }

    /// The harness sizes, and the smallest instance of every kind as the
    /// factory builds it.
    fn harness_and_smallest() -> Vec<Box<dyn Benchmark>> {
        let smallest = kinds().into_iter().map(|k| {
            let spec = (k.spec)(k.min_n);
            benchmark_from_spec(&spec).unwrap_or_else(|e| panic!("`{spec}` is an instance: {e}"))
        });
        all_benchmarks().into_iter().chain(smallest).collect()
    }

    #[test]
    fn specs_round_trip_through_the_factory() {
        for b in harness_and_smallest() {
            let spec = b.spec();
            let rebuilt = benchmark_from_spec(&spec)
                .unwrap_or_else(|e| panic!("{}: spec `{spec}` did not parse: {e}", b.name()));
            assert_eq!(rebuilt.name(), b.name());
            assert_eq!(rebuilt.input_size(), b.input_size());
            assert_eq!(rebuilt.spec(), spec, "spec must be canonical");
        }
    }

    #[test]
    fn resizing_to_the_own_size_reproduces_the_benchmark() {
        // The farm's per-size table builds the full-size child this way;
        // Poisson2D and SeparableConvolution get there through a square
        // root. At the harness sizes, and at the smallest size the factory
        // accepts: an object the factory builds is one `resized` builds.
        for b in harness_and_smallest() {
            let same = b
                .resized(b.input_size())
                .unwrap_or_else(|| panic!("`{}` refuses its own size", b.spec()));
            assert_eq!(same.spec(), b.spec());
            assert_eq!(same.input_size(), b.input_size());
        }
    }

    #[test]
    fn bad_specs_error_instead_of_panicking() {
        let below_the_smallest: Vec<String> =
            kinds().iter().map(|k| (k.spec)(k.min_n - 1)).collect();
        for bad in [
            "",
            "warp10 n=4",
            "sort",
            "sort n=zero",
            "sort n=0",
            "convolution n=16 k=4",
            "poisson2d n=128",
            "svd n=64 target=0.15",
            "svd n=64 target=0x0000000000000000",
            "svd n=7 target=0x3fc3333333333333",
            "tridiagonal n=2",
            // Parameters whose derived extents (3k, n², n + 2) no `usize`
            // holds: refused, in debug and in release, not wrapped.
            "convolution n=5 k=18446744073709551615",
            "poisson2d n=4294967296 iters=1",
            "convolution n=4294967296 k=3",
            "poisson2d n=18446744073709551615 iters=1",
        ]
        .into_iter()
        .chain(below_the_smallest.iter().map(String::as_str))
        {
            assert!(benchmark_from_spec(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    /// A kind's validity is stated once, so its three readers cannot
    /// disagree: around every minimum (and at sizes whose squares no
    /// `usize` holds), `try_new` errs exactly where the factory does, with
    /// the same message, and exactly where `resized` answers `None`.
    #[test]
    fn try_new_resized_and_the_factory_agree_on_what_an_instance_is() {
        for k in kinds() {
            let smallest = (k.try_new)(k.min_n).expect("the table's row is an instance");
            for n in (k.min_n - 2..=k.min_n + 2).chain([1 << 32, usize::MAX]) {
                let spec = (k.spec)(n);
                let refusal = (k.try_new)(n).err();
                assert_eq!(
                    refusal.is_none(),
                    n >= k.min_n && (k.dim == 1 || n < 1 << 32),
                    "`{spec}`"
                );
                assert_eq!(benchmark_from_spec(&spec).err(), refusal, "`{spec}`: the factory");
                if let Some(size) = (n as u64).checked_pow(k.dim) {
                    let child = smallest.resized(size);
                    assert_eq!(child.is_none(), refusal.is_some(), "`{spec}`: resized({size})");
                    if let Some(child) = child {
                        assert_eq!(child.spec(), spec);
                    }
                }
            }
        }
    }

    #[test]
    fn svd_spec_preserves_the_exact_accuracy_target() {
        let b = svd::Svd::new(32, 0.1 + 0.2 - 0.25); // deliberately non-representable-looking
        let rebuilt = benchmark_from_spec(&b.spec()).expect("parses");
        assert_eq!(rebuilt.spec(), b.spec());
    }

    /// Small instances under Desktop configurations that between them
    /// lower every rule of every benchmark to the device, the convolution
    /// rules as their `_localmem` variant.
    fn device_trials() -> Vec<(Box<dyn Benchmark>, Config)> {
        use petal_core::{Selector, Tunable};
        let m = MachineProfile::desktop();
        let pinned = |b: Box<dyn Benchmark>, selectors: &[(&str, usize, usize)]| {
            let mut cfg = b.program(&m).default_config(&m);
            for &(site, choice, choices) in selectors {
                cfg.set_selector(site, Selector::constant(choice, choices));
            }
            (b, cfg)
        };
        // Keeping every rank makes SVD's nested multiply square, which is
        // when it may take the device choice.
        let mut svd =
            pinned(Box::new(svd::Svd::new(16, 0.5)), &[("ata", 1, 2), ("matmul_svd", 6, 7)]);
        svd.1.set_tunable("svd_rank", Tunable::new(16, 1, 16));
        let conv = || Box::new(convolution::SeparableConvolution::new(48, 5));
        vec![
            pinned(Box::new(blackscholes::BlackScholes::new(4_096)), &[("blackscholes", 1, 2)]),
            pinned(
                Box::new(poisson::Poisson2D::new(16, 2)),
                &[("sor_split", 1, 2), ("sor_iter", 1, 2)],
            ),
            pinned(conv(), &[("separable", 0, 2), ("convolve2d", 2, 3)]),
            pinned(
                conv(),
                &[("separable", 1, 2), ("convolve_rows", 2, 3), ("convolve_columns", 2, 3)],
            ),
            pinned(Box::new(sort::Sort::new(256)), &[("sort", 7, 8)]),
            pinned(Box::new(strassen::Strassen::new(64)), &[("matmul", 6, 7)]),
            svd,
            pinned(Box::new(tridiagonal::Tridiagonal::new(512)), &[("tridiag", 2, 3)]),
        ]
    }

    #[test]
    fn every_rule_an_app_lowers_holds_the_text_a_fresh_generation_gives() {
        use petal_core::codegen::{entry_name, generate_source};
        use petal_core::plan::StepKind;
        use petal_gpu::compile::source_hash;
        let m = MachineProfile::desktop();
        let mut seen = std::collections::BTreeSet::new();
        for (b, cfg) in device_trials() {
            let Instance { mut world, plan, .. } = b.instantiate(&m, &cfg);
            let rules: Vec<_> = plan
                .steps()
                .iter()
                .filter_map(|step| match &step.kind {
                    StepKind::Stencil(s) => Some(std::sync::Arc::clone(&s.rule)),
                    StepKind::Native(_) => None,
                })
                .collect();
            Executor::new(&m).run(plan, &mut world).expect("the trial runs");
            for rule in rules {
                // A clone starts with empty cells: nothing stored is read.
                let fresh = (*rule).clone();
                for local_memory in [false, true] {
                    if local_memory && !rule.has_local_memory_variant() {
                        continue;
                    }
                    let text = rule.kernel_text(local_memory);
                    let source = generate_source(&fresh, local_memory);
                    assert_eq!(text.name(), entry_name(&fresh, local_memory));
                    assert_eq!(text.source_hash(), source_hash(&source), "{}", text.name());
                    assert_eq!(text.source(), source);
                    seen.insert(text.name().to_owned());
                }
            }
        }
        let all = [
            "ata",
            "bitonic_pass",
            "black_scholes",
            "convolve2d",
            "convolve2d_localmem",
            "convolve_columns",
            "convolve_columns_localmem",
            "convolve_rows",
            "convolve_rows_localmem",
            "cr_backsub",
            "cr_reduce",
            "matmul_dp",
            "sor_combine",
            "sor_split",
            "sor_sweep",
        ];
        assert_eq!(seen.iter().map(String::as_str).collect::<Vec<_>>(), all);
    }

    #[test]
    fn a_trial_reports_the_same_on_a_cold_text_cell_a_warm_one_and_a_fresh_object() {
        let m = MachineProfile::desktop();
        for (b, cfg) in device_trials() {
            let cold = b.run_with_config(&m, &cfg).expect("runs");
            assert!(!cold.compile_events.is_empty(), "`{}` compiles a kernel", b.spec());
            let warm = b.run_with_config(&m, &cfg).expect("runs");
            let untouched = benchmark_from_spec(&b.spec()).expect("specs round-trip");
            let fresh = untouched.run_with_config(&m, &cfg).expect("runs");
            // The whole report, `compile_events` (hashes, frontend and JIT
            // seconds, in compile order) included.
            assert_eq!(warm, cold, "`{}`, warm cell", b.spec());
            assert_eq!(fresh, cold, "`{}`, fresh object", b.spec());
        }
    }

    /// Copy-ins by reference are invisible: every device trial above, and
    /// Black-Scholes and the Tridiagonal chain split 6⁄8 as well, once as
    /// instantiated (inputs shared with the prepared state, so the device
    /// holds them by reference) and once with every shared slot detached
    /// into a copy of its own first (so every copy-in copies, as at the
    /// parent of this mechanism): the same report, device statistics, peak
    /// device bytes and matrices, and donors nobody wrote or kept.
    #[test]
    fn a_trial_runs_the_same_with_shared_inputs_held_by_reference_and_copied_in() {
        use petal_blas::same_bits;
        use petal_core::Tunable;
        let m = MachineProfile::desktop();
        let mut trials = device_trials();
        let whole = trials.len();
        for (at, site) in [(0, "blackscholes"), (trials.len() - 1, "tridiag")] {
            let mut cfg = trials[at].1.clone();
            cfg.set_tunable(&format!("{site}.gpu_ratio"), Tunable::new(6, 0, 8));
            trials.push((benchmark_from_spec(&trials[at].0.spec()).expect("round-trips"), cfg));
        }
        let touched = |plan: &Plan| -> Vec<MatrixId> {
            let mut ids = plan.outputs().to_vec();
            for step in plan.steps() {
                ids.extend(step.reads().iter().chain(step.writes()));
            }
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let all_same_bits = |a: &[Vec<f64>], b: &[Vec<f64>]| {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same_bits(a, b))
        };
        for (at, (b, cfg)) in trials.into_iter().enumerate() {
            let what = format!("`{}`{}", b.spec(), if at < whole { "" } else { ", split 6/8" });
            // An instance that never runs keeps the donors reachable.
            let Instance { world: idle, plan, .. } = b.instantiate(&m, &cfg);
            let donors: Vec<_> =
                touched(&plan).iter().filter_map(|&id| idle.shared(id).cloned()).collect();
            assert!(!donors.is_empty(), "{what}: shares no input");
            let untouched: Vec<_> =
                donors.iter().map(|d| (Arc::strong_count(d), d.as_slice().to_vec())).collect();
            let run = |copied: bool| {
                let Instance { mut world, plan, .. } = b.instantiate(&m, &cfg);
                let ids = touched(&plan);
                for &id in &ids {
                    if copied && world.shared(id).is_some() {
                        let _ = world.get_mut(id);
                    }
                }
                let mut ex = Executor::new(&m);
                let report = ex.run(plan, &mut world).expect("the trial runs");
                let holders: Vec<_> = donors.iter().map(Arc::strong_count).collect();
                let device = ex.device().expect("desktop has a device");
                let device = (device.stats(), device.buffers().peak_bytes());
                let left: Vec<_> = ids
                    .iter()
                    .map(|&id| {
                        let _ = world.ensure_host(id, f64::MAX);
                        world.get(id).as_slice().to_vec()
                    })
                    .collect();
                ((report, device), left, holders)
            };
            let (by_reference, left_by_reference, held) = run(false);
            let slot_and_buffer = held.iter().zip(&untouched).any(|(h, (idle, _))| *h >= idle + 2);
            // (Sort's plans sort their input in place: its slot is
            // detached before any copy-in sees it.)
            let sorts = b.spec().starts_with("sort ");
            assert!(slot_and_buffer != sorts, "{what}: donors held by a device buffer: {held:?}");
            let (copying, left_copying, held) = run(true);
            let idle_counts: Vec<_> = untouched.iter().map(|(count, _)| *count).collect();
            assert_eq!(held, idle_counts, "{what}: a detached slot's copy-in held a donor");
            assert_eq!(by_reference, copying, "{what}");
            assert!(all_same_bits(&left_by_reference, &left_copying), "{what}: matrices");
            for (donor, (count, was)) in donors.iter().zip(&untouched) {
                assert_eq!(Arc::strong_count(donor), *count, "{what}: a trial kept a donor");
                assert!(same_bits(donor.as_slice(), was), "{what}: a trial wrote a donor");
            }
        }
    }

    /// A session pays the allocator for one trial's storage, once: in a
    /// run of identical trials on one object the recycler's `fresh` count
    /// stays where the first trial left it and `reused` grows by exactly
    /// that per trial — on the device configurations above and on the
    /// (CPU) defaults, exact counts, the same on every repeat. These are
    /// the session's own counts, of storage below the process list's
    /// floor of 8 192 elements: Black-Scholes' and Sort's default rows
    /// (12 544 and 8 192 elements) have none, and their large storage is
    /// counted by `crates/farm/tests/tier.rs`, whose process no other
    /// test shares.
    #[test]
    fn identical_trials_allocate_once_and_recycle_exactly_that_from_then_on() {
        let m = MachineProfile::desktop();
        let defaults = all_benchmarks().into_iter().map(|b| {
            let small = b.resized(b.input_size() / 8).expect("a ladder rung");
            let cfg = small.program(&m).default_config(&m);
            (small, cfg)
        });
        for (b, cfg) in device_trials().into_iter().chain(defaults) {
            let trial = || {
                let Instance { mut world, plan, .. } = b.instantiate(&m, &cfg);
                let recycler = Arc::clone(world.recycler());
                Executor::new(&m).run(plan, &mut world).expect("the trial runs");
                drop(world);
                recycler.fresh_and_reused()
            };
            let (fresh, reused_within) = trial();
            let all_large = b.input_size() >= 8_192;
            assert_eq!(fresh == 0, all_large, "`{}`: a trial's small outputs", b.spec());
            let per_trial = fresh + reused_within;
            for repeat in 1..=3 {
                let want = (fresh, reused_within + repeat * per_trial);
                assert_eq!(trial(), want, "`{}`, repeat {repeat}", b.spec());
            }
        }
    }

    /// A NaN in one cell of an otherwise right output fails the check:
    /// Black-Scholes' own, and `check_within`'s (Strassen's).
    #[test]
    fn one_nan_output_cell_fails_the_check() {
        let m = MachineProfile::desktop();
        let kinds: [Box<dyn Benchmark>; 2] = [
            Box::new(blackscholes::BlackScholes::new(4_096)),
            Box::new(strassen::Strassen::new(64)),
        ];
        for b in kinds {
            let cfg = b.program(&m).default_config(&m);
            let Instance { mut world, plan, check } = b.instantiate(&m, &cfg);
            let out = plan.outputs()[0];
            Executor::new(&m).run(plan, &mut world).expect("the trial runs");
            assert_eq!(check(&world), Ok(()), "`{}`: the trial's answer is right", b.spec());
            world.get_mut(out)[(1, 2)] = f64::NAN;
            assert!(check(&world).is_err(), "`{}`: a NaN cell must fail", b.spec());
        }
    }

    #[test]
    fn every_benchmark_runs_with_defaults_on_every_machine() {
        // Including the iGPU/ManyCore extension profiles: default configs
        // must be valid on machines with a shared-memory device and on
        // machines with no OpenCL runtime at all.
        for b in all_benchmarks() {
            for m in MachineProfile::extended() {
                let r = b.run_default(&m);
                assert!(r.is_ok(), "{} on {}: {:?}", b.name(), m.codename, r.err());
            }
        }
    }
}
