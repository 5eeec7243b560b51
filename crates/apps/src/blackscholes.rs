//! The Black-Scholes benchmark (§6.2, Fig. 7a).
//!
//! Prices `n` European call options: every output element is an independent
//! closed-form evaluation over the spot price, strike and expiry arrays —
//! the ideal streaming kernel. The interesting choice is pure *placement*:
//! all on the GPU, all on the CPU, or — on machines where the two are close
//! in throughput (the paper's Laptop) — a concurrent fractional split
//! ("25% on CPU and 75% on GPU" in Fig. 6).

use crate::workload::random_vec;
use crate::Instance;
use petal_blas::Matrix;
use petal_core::plan::{placement_from_config, PlanBuilder, StencilStep};
use petal_core::program::ChoiceSite;
use petal_core::stencil::{AccessPattern, StencilInput, StencilRule};
use petal_core::{Config, Program, World};
use petal_gpu::profile::MachineProfile;
use std::sync::{Arc, OnceLock};

/// Risk-free rate used by the workload.
pub const RATE: f64 = 0.02;
/// Volatility used by the workload.
pub const VOLATILITY: f64 = 0.30;

/// The smallest `n` that is an instance: what [`BlackScholes::new`] asserts,
/// `resized` refuses below and [`crate::benchmark_from_spec`] rejects, so a
/// resized child is always a size the factory would rebuild.
pub const MIN_N: usize = 64;

/// Arithmetic cost per option: exp/log/sqrt-heavy closed form.
const FLOPS_PER_OPTION: f64 = 220.0;

/// Standard normal CDF via the Abramowitz–Stegun polynomial (the classic
/// kernel used in GPU Black-Scholes samples).
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    let a1 = 0.319_381_530;
    let a2 = -0.356_563_782;
    let a3 = 1.781_477_937;
    let a4 = -1.821_255_978;
    let a5 = 1.330_274_429;
    let k = 1.0 / (1.0 + 0.231_641_9 * x.abs());
    let poly = k * (a1 + k * (a2 + k * (a3 + k * (a4 + k * a5))));
    let pdf = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let cdf = 1.0 - pdf * poly;
    if x >= 0.0 {
        cdf
    } else {
        1.0 - cdf
    }
}

/// Closed-form European call price.
#[must_use]
pub fn call_price(s: f64, k: f64, t: f64, r: f64, v: f64) -> f64 {
    let sqrt_t = t.sqrt();
    let d1 = ((s / k).ln() + (r + 0.5 * v * v) * t) / (v * sqrt_t);
    let d2 = d1 - v * sqrt_t;
    s * normal_cdf(d1) - k * (-r * t).exp() * normal_cdf(d2)
}

/// The Black-Scholes benchmark over `n` options.
#[derive(Debug, Clone)]
pub struct BlackScholes {
    n: usize,
    prepared: OnceLock<Prepared>,
}

/// What every instance of one `n` shares: the seeded inputs, shaped
/// `rows × cols`, the host reference prices and the pricing rule.
#[derive(Debug, Clone)]
struct Prepared {
    spot: Arc<Matrix>,
    strike: Arc<Matrix>,
    expiry: Arc<Matrix>,
    expected: Arc<Vec<f64>>,
    rule: Arc<StencilRule>,
}

impl BlackScholes {
    /// New instance with `n` options (the paper tests 500 000).
    ///
    /// # Panics
    /// Panics when `n <` [`MIN_N`].
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= MIN_N, "too few options");
        BlackScholes { n, prepared: OnceLock::new() }
    }

    /// The logical option array as `rows × cols`, so fractional CPU/GPU
    /// splits can divide it by rows.
    fn shape(&self) -> (usize, usize) {
        let rows = 64.min(self.n);
        (rows, self.n.div_ceil(rows))
    }

    fn prepared(&self) -> &Prepared {
        self.prepared.get_or_init(|| {
            let (rows, cols) = self.shape();
            let n = rows * cols;
            let s = random_vec(n, 5.0, 30.0, 11);
            let k = random_vec(n, 1.0, 100.0, 12);
            let t = random_vec(n, 0.25, 10.0, 13);
            let expected = (0..n).map(|i| call_price(s[i], k[i], t[i], RATE, VOLATILITY)).collect();
            let shaped = |v| Arc::new(Matrix::from_vec(rows, cols, v));
            Prepared {
                spot: shaped(s),
                strike: shaped(k),
                expiry: shaped(t),
                expected: Arc::new(expected),
                rule: Self::rule(),
            }
        })
    }

    /// The data-parallel pricing rule: three `Point` inputs, one output.
    #[must_use]
    pub fn rule() -> Arc<StencilRule> {
        Arc::new(StencilRule {
            name: "black_scholes".into(),
            inputs: vec![
                StencilInput { index: 0, access: AccessPattern::Point },
                StencilInput { index: 1, access: AccessPattern::Point },
                StencilInput { index: 2, access: AccessPattern::Point },
            ],
            flops_per_output: FLOPS_PER_OPTION,
            body_c: "double s = IN0(x, y), k = IN1(x, y), t = IN2(x, y);\n\
                     double r = user_scalars[0], v = user_scalars[1];\n\
                     double sq = sqrt(t);\n\
                     double d1 = (log(s / k) + (r + 0.5 * v * v) * t) / (v * sq);\n\
                     double d2 = d1 - v * sq;\n\
                     result = s * petal_cnd(d1) - k * exp(-r * t) * petal_cnd(d2);"
                .into(),
            elem: Arc::new(|env, x, y| {
                let s = env.inputs[0].at(x, y);
                let k = env.inputs[1].at(x, y);
                let t = env.inputs[2].at(x, y);
                call_price(s, k, t, env.scalars[0], env.scalars[1])
            }),
            span: None, // 37.7 ns of libm in a 38.7 ns cell: no dispatch share to remove
            native_only_body: false,
            text: Default::default(),
        })
    }
}

impl crate::Benchmark for BlackScholes {
    fn name(&self) -> &str {
        "Black-Scholes"
    }

    fn spec(&self) -> String {
        format!("blackscholes n={}", self.n)
    }

    fn input_size(&self) -> u64 {
        self.n as u64
    }

    fn resized(&self, size: u64) -> Option<Box<dyn crate::Benchmark>> {
        (size >= MIN_N as u64)
            .then(|| Box::new(BlackScholes::new(size as usize)) as Box<dyn crate::Benchmark>)
    }

    fn program(&self, _machine: &MachineProfile) -> Program {
        let mut p = Program::new("blackscholes");
        p.add_site(ChoiceSite {
            name: "blackscholes".into(),
            num_algs: 1,
            opencl: true,
            // Point access: bounding box 1, so no scratchpad variant (§3.1).
            local_memory_variant: false,
            fractional: true,
        });
        p
    }

    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        let (rows, cols) = self.shape();
        let n = rows * cols;
        let prepared = self.prepared();
        let mut world = World::new();
        let spot = world.alloc_shared(Arc::clone(&prepared.spot));
        let strike = world.alloc_shared(Arc::clone(&prepared.strike));
        let expiry = world.alloc_shared(Arc::clone(&prepared.expiry));
        let out = world.alloc(Matrix::zeros(rows, cols));

        let rule = Arc::clone(&prepared.rule);
        let placement = placement_from_config(cfg, "blackscholes", n as u64, machine, &rule, rows);
        let mut p = PlanBuilder::new();
        p.stencil(
            StencilStep {
                rule,
                inputs: vec![spot, strike, expiry],
                output: out,
                out_dims: (cols, rows),
                user_scalars: vec![RATE, VOLATILITY],
                placement,
            },
            &[],
        );
        p.mark_output(out);

        let expected = Arc::clone(&prepared.expected);
        let check = Box::new(move |w: &World| -> Result<(), String> {
            let got = w.get(out).as_slice();
            for (i, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
                if (g - e).abs() > 1e-9 * (1.0 + e.abs()) {
                    return Err(format!("option {i}: got {g}, want {e}"));
                }
            }
            Ok(())
        });
        Instance { world, plan: p.build(), check }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;
    use petal_core::{Selector, Tunable};

    #[test]
    fn cnd_matches_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn price_is_sane() {
        // Deep in-the-money call with zero-ish time value ≈ S - K·e^{-rT}.
        let p = call_price(100.0, 50.0, 1.0, 0.02, 0.2);
        assert!((p - (100.0 - 50.0 * (-0.02f64).exp())).abs() < 0.1, "{p}");
        // Price within no-arbitrage bounds.
        assert!(p < 100.0 && p > 0.0);
    }

    #[test]
    fn runs_on_cpu_gpu_and_split() {
        let b = BlackScholes::new(4096);
        let m = MachineProfile::laptop();
        let mut cfg = b.program(&m).default_config(&m);
        // CPU only.
        cfg.set_selector("blackscholes", Selector::constant(0, 2));
        let cpu = b.run_with_config(&m, &cfg).unwrap();
        // GPU only.
        cfg.set_selector("blackscholes", Selector::constant(1, 2));
        cfg.set_tunable("blackscholes.gpu_ratio", Tunable::new(8, 0, 8));
        let gpu = b.run_with_config(&m, &cfg).unwrap();
        // 75% GPU / 25% CPU split.
        cfg.set_tunable("blackscholes.gpu_ratio", Tunable::new(6, 0, 8));
        let split = b.run_with_config(&m, &cfg).unwrap();
        assert!(cpu.virtual_time_secs() > 0.0);
        assert!(gpu.virtual_time_secs() > 0.0);
        assert!(split.virtual_time_secs() > 0.0);
    }

    #[test]
    fn laptop_split_beats_both_pure_placements() {
        // The paper's Fig. 7(a) headline: on the Laptop a 25/75 CPU/GPU
        // division outperforms either processor alone.
        let b = BlackScholes::new(200_000);
        let m = MachineProfile::laptop();
        let mut cfg = b.program(&m).default_config(&m);
        cfg.set_selector("blackscholes", Selector::constant(1, 2));
        let time = |cfg: &Config| b.run_with_config(&m, cfg).unwrap().virtual_time_secs();
        cfg.set_tunable("blackscholes.gpu_ratio", Tunable::new(8, 0, 8));
        let gpu_only = time(&cfg);
        cfg.set_tunable("blackscholes.gpu_ratio", Tunable::new(0, 0, 8));
        let cpu_only = time(&cfg);
        cfg.set_tunable("blackscholes.gpu_ratio", Tunable::new(6, 0, 8));
        let split = time(&cfg);
        assert!(split < gpu_only, "split {split} must beat GPU-only {gpu_only}");
        assert!(split < cpu_only, "split {split} must beat CPU-only {cpu_only}");
    }

    #[test]
    fn desktop_prefers_pure_gpu() {
        let b = BlackScholes::new(200_000);
        let m = MachineProfile::desktop();
        let mut cfg = b.program(&m).default_config(&m);
        cfg.set_selector("blackscholes", Selector::constant(1, 2));
        let time = |cfg: &Config| b.run_with_config(&m, cfg).unwrap().virtual_time_secs();
        cfg.set_tunable("blackscholes.gpu_ratio", Tunable::new(8, 0, 8));
        let gpu_only = time(&cfg);
        cfg.set_tunable("blackscholes.gpu_ratio", Tunable::new(6, 0, 8));
        let split = time(&cfg);
        assert!(gpu_only < split, "desktop GPU-only {gpu_only} must beat the 6/8 split {split}");
    }
}
