//! The SVD benchmark (§6.2, Fig. 7f): variable-accuracy low-rank matrix
//! approximation.
//!
//! Approximates an `n × n` matrix by a rank-`k` truncated SVD computed via
//! the eigendecomposition of `AᵀA`. The autotuner's choices include:
//!
//! * how many singular values to keep (`svd_rank` — the *variable accuracy*
//!   knob; candidates that miss the accuracy target are rejected outright);
//! * where the first phase (`AᵀA`) runs — CPU, OpenCL, or a concurrent
//!   task-parallel division between both (the Desktop configuration in
//!   Fig. 6);
//! * how the nested matrix multiplies are performed, through a *separate*
//!   selector (`matmul_svd`) from the standalone Strassen benchmark — the
//!   paper's point that "the best configurations of the same sub-program in
//!   different applications vary on the same system".

use crate::strassen::{build_matmul, MatmulRules};
use crate::workload::random_matrix;
use crate::Instance;
use petal_blas::eigen::{jacobi_eigh, EigenDecomposition};
use petal_blas::{same_bits, Matrix};
use petal_core::plan::{placement_from_config, NativeStep, PlanBuilder, StencilStep};
use petal_core::program::ChoiceSite;
use petal_core::stencil::{saxpy, sum_identity, AccessPattern, Span, StencilInput, StencilRule};
use petal_core::{Config, Program, World};
use petal_gpu::buffer::Recycler;
use petal_gpu::cost::CpuWork;
use petal_gpu::profile::MachineProfile;
use petal_rt::Charge;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// The smallest `n` that is an instance ([`Svd::try_new`]).
pub const MIN_N: usize = 8;

/// The `AᵀA` rule: `B[y][x] = Σ_r A[r][y]·A[r][x]` (two column reads of
/// the same input).
#[must_use]
pub fn rule_ata() -> Arc<StencilRule> {
    Arc::new(StencilRule {
        name: "ata".into(),
        inputs: vec![
            StencilInput { index: 0, access: AccessPattern::Column },
            StencilInput { index: 0, access: AccessPattern::Column },
        ],
        flops_per_output: 0.0, // set per instantiation
        body_c: "int m = (int)user_scalars[0];\n\
                 for (int r = 0; r < m; r++)\n\
                     result += IN0(y, r) * IN0(x, r);"
            .into(),
        elem: Arc::new(|env, x, y| {
            let m = env.scalars[0] as usize;
            (0..m).map(|r| env.inputs[0].at(y, r) * env.inputs[1].at(x, r)).sum()
        }),
        // r-outer SAXPY over the row: every cell still takes its terms
        // r = 0, 1, … in order from `sum()`'s starting value.
        span: Span::Rows(Arc::new(|env, x0, y, out| {
            let m = env.scalars[0] as usize;
            out.fill(sum_identity());
            for r in 0..m {
                saxpy(out, env.inputs[0].at(y, r), env.inputs[1].row_span(r, x0, out.len()));
            }
        })),
        native_only_body: false,
        text: Default::default(),
    })
}

/// The config-independent half of an instance, shared by every trial.
#[derive(Debug)]
struct Prepared {
    /// The input matrix, which is also what `check` measures the
    /// reconstruction against.
    input: Arc<Matrix>,
    /// `‖input‖_F`, the denominator of `check`'s relative error.
    norm: f64,
    /// The `AᵀA` rule at this size's flop count, and the nested
    /// multiply's.
    ata: Arc<StencilRule>,
    matmul: MatmulRules,
    /// The first `AᵀA` a `jacobi_eigh` step was handed and its
    /// eigendecomposition. No tunable reaches that product's bits
    /// (`svd_rank` truncates afterwards, `ata` only places the stencil),
    /// so every later trial is expected to present the same matrix.
    eig: OnceLock<(Matrix, EigenDecomposition)>,
    /// Every trial's `World` is built on this, so its storage recycles.
    recycler: Arc<Recycler>,
}

/// Phase 2's kernel call, with the benchmark's tolerance and sweep cap.
fn solve(b: &Matrix) -> EigenDecomposition {
    jacobi_eigh(b, 1e-11 * b.frobenius_norm().max(1.0), 48)
}

impl Prepared {
    /// The Jacobi eigendecomposition of `ata`: the stored one when `ata`
    /// is the stored key bit for bit, otherwise computed for this call
    /// (the entry is never replaced). Either way it is `solve(ata)`, so a
    /// hit and a miss are indistinguishable. The call that fills the entry
    /// made the key from `ata`, so it does not compare them.
    fn eigh(&self, ata: &Matrix) -> Cow<'_, EigenDecomposition> {
        let mut filled_here = false;
        let (key, eig) = self.eig.get_or_init(|| {
            filled_here = true;
            (ata.clone(), solve(ata))
        });
        let same_shape = (key.rows(), key.cols()) == (ata.rows(), ata.cols());
        if filled_here || (same_shape && same_bits(key.as_slice(), ata.as_slice())) {
            Cow::Borrowed(eig)
        } else {
            Cow::Owned(solve(ata))
        }
    }
}

/// The SVD benchmark over an `n × n` input with accuracy target
/// `max_relative_error`.
#[derive(Debug, Clone)]
pub struct Svd {
    n: usize,
    target: f64,
    prepared: OnceLock<Arc<Prepared>>,
}

impl Svd {
    /// New instance (the paper uses n = 256).
    ///
    /// # Errors
    /// When `n <` [`MIN_N`] or the target is not a relative Frobenius
    /// error in `(0, 1]`.
    pub fn try_new(n: usize, max_relative_error: f64) -> Result<Self, String> {
        if !(n >= MIN_N && max_relative_error > 0.0 && max_relative_error <= 1.0) {
            return Err(format!("svd: need n >= {MIN_N} and target in (0, 1]"));
        }
        Ok(Svd { n, target: max_relative_error, prepared: OnceLock::new() })
    }

    /// [`Self::try_new`] for parameters known to be valid.
    ///
    /// # Panics
    /// Panics where `try_new` errs.
    #[must_use]
    pub fn new(n: usize, max_relative_error: f64) -> Self {
        Self::try_new(n, max_relative_error).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The accuracy target.
    #[must_use]
    pub fn target(&self) -> f64 {
        self.target
    }

    /// The benchmark's input matrix: a Gaussian kernel (rapidly decaying
    /// spectrum) plus small noise, so modest ranks meet the accuracy
    /// target while rank still trades time for quality.
    #[must_use]
    pub fn input_matrix(&self) -> Matrix {
        let noise = random_matrix(self.n, self.n, -0.003, 0.003, 61);
        Matrix::from_fn(self.n, self.n, |r, c| {
            let d = (r as f64 - c as f64) / 6.0;
            (-d * d).exp() + noise[(r, c)]
        })
    }

    fn prepared(&self) -> Arc<Prepared> {
        Arc::clone(self.prepared.get_or_init(|| {
            let input = self.input_matrix();
            let norm = input.frobenius_norm();
            let flops_per_output = 2.0 * self.n as f64;
            Arc::new(Prepared {
                input: Arc::new(input),
                norm,
                ata: Arc::new(StencilRule { flops_per_output, ..(*rule_ata()).clone() }),
                matmul: MatmulRules::new(self.n),
                eig: OnceLock::new(),
                recycler: Arc::default(),
            })
        }))
    }
}

impl crate::Benchmark for Svd {
    fn name(&self) -> &str {
        "SVD"
    }

    fn spec(&self) -> String {
        format!("svd n={} target={}", self.n, crate::spec_f64(self.target))
    }

    fn input_size(&self) -> u64 {
        self.n as u64
    }

    fn resized(&self, size: u64) -> Option<Box<dyn crate::Benchmark>> {
        Self::try_new(size as usize, self.target).map(crate::boxed).ok()
    }

    fn dynamic_config_keys(&self) -> Vec<String> {
        // The kept rank `k` is captured by the Jacobi / truncation closures:
        // it changes what they compute (and the accuracy/time trade-off) but
        // is invisible to plan structure except in the degenerate k == n
        // case, so the choice-space linter must not demand a structural
        // effect from it.
        vec!["svd_rank".into()]
    }

    fn program(&self, _machine: &MachineProfile) -> Program {
        let mut p = Program::new("svd");
        p.add_site(ChoiceSite {
            name: "ata".into(),
            num_algs: 1,
            opencl: true,
            local_memory_variant: false,
            fractional: true,
        });
        // The nested multiply selector — distinct from Strassen's own.
        p.add_site(ChoiceSite {
            name: "matmul_svd".into(),
            num_algs: 6,
            opencl: true,
            local_memory_variant: false,
            fractional: true,
        });
        p.add_tunable("svd_rank", (self.n / 4).max(1) as i64, 1, self.n as i64);
        p
    }

    #[allow(clippy::too_many_lines)]
    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        let n = self.n;
        let k = (cfg.tunable_or("svd_rank", (n / 4).max(1) as i64).clamp(1, n as i64)) as usize;
        let prepared = self.prepared();
        let mut world = World::on(Arc::clone(&prepared.recycler));
        let a = world.alloc_shared(Arc::clone(&prepared.input));
        let ata = world.zeros(n, n);
        let vk = world.zeros(n, k);
        let sigma = world.zeros(1, k);
        let usc = world.zeros(n, k); // U·diag(σ)
        let vkt = world.zeros(k, n);
        let avk = world.zeros(n, k);
        let approx = world.zeros(n, n);

        let mut p = PlanBuilder::new();

        // Phase 1: B = AᵀA, placeable on CPU/GPU/split (task parallelism).
        let rule = Arc::clone(&prepared.ata);
        let place = placement_from_config(cfg, "ata", n as u64, machine, &rule, n);
        let s_ata = p.stencil(
            StencilStep {
                rule,
                inputs: vec![a],
                output: ata,
                out_dims: (n, n),
                user_scalars: vec![n as f64],
                placement: place,
            },
            &[],
        );

        // Phase 2: symmetric eigendecomposition of B (sequential Jacobi),
        // computed once per distinct B (see `Prepared::eigh`).
        let memo = Arc::clone(&prepared);
        let s_eig = p.native(
            NativeStep {
                label: "jacobi_eigh".into(),
                reads: vec![ata],
                writes: vec![vk, sigma, vkt],
                run: Box::new(move |w: &mut World, ctx| {
                    let extra = w.ensure_host(ata, ctx.now());
                    let eig = memo.eigh(w.get(ata));
                    let vk_m = Matrix::from_fn(n, k, |r, c| eig.vectors[(r, c)]);
                    let sig: Vec<f64> =
                        eig.values.iter().take(k).map(|l| l.max(0.0).sqrt()).collect();
                    w.set(vkt, vk_m.transposed());
                    w.set(vk, vk_m);
                    w.set(sigma, Matrix::from_vec(1, k, sig));
                    // Cyclic Jacobi sweeps are ~O(n^3) per sweep.
                    Charge::WorkPlusSecs(
                        CpuWork::new(10.0 * (n * n * n) as f64, (n * n * 8) as f64),
                        extra,
                    )
                }),
            },
            &[s_ata],
        );

        // Phase 3a: A·Vk through the nested multiply selector. The
        // rectangular product is padded notionally: we run it as a native
        // leaf when the recursive selector picks a decomposition it cannot
        // apply to an n×k shape.
        let s_avk = {
            let choice = cfg.select("matmul_svd", n as u64);
            if choice == 6 && machine.has_opencl() && n == k {
                build_matmul(
                    &prepared.matmul,
                    &mut p,
                    &mut world,
                    cfg,
                    machine,
                    "matmul_svd",
                    a,
                    vk,
                    avk,
                    n,
                    &[s_eig],
                )
                .pop()
                .expect("matmul emits steps")
            } else {
                p.native(
                    NativeStep {
                        label: "avk_leaf".into(),
                        reads: vec![a, vk],
                        writes: vec![avk],
                        run: Box::new(move |w: &mut World, ctx| {
                            let extra = w.ensure_host(a, ctx.now()) + w.ensure_host(vk, ctx.now());
                            let prod = petal_blas::gemm::lapack_gemm(w.get(a), w.get(vk));
                            w.set(avk, prod);
                            Charge::WorkPlusSecs(
                                CpuWork::new(2.0 * (n * n * k) as f64 / 4.0, (n * k * 8) as f64),
                                extra,
                            )
                        }),
                    },
                    &[s_eig],
                )
            }
        };

        // Phase 3b: scale columns by 1/σ then by σ — net effect: U·diag(σ)
        // is exactly A·Vk (σ cancels), but the explicit step keeps the
        // structure (and cost) of the real pipeline.
        let s_scale = p.native(
            NativeStep {
                label: "scale_u".into(),
                reads: vec![avk, sigma],
                writes: vec![usc],
                run: Box::new(move |w: &mut World, ctx| {
                    let extra = w.ensure_host(avk, ctx.now()) + w.ensure_host(sigma, ctx.now());
                    let data = w.get(avk).clone();
                    w.set(usc, data);
                    Charge::WorkPlusSecs(
                        CpuWork::new(2.0 * (n * k) as f64, (n * k * 8 * 2) as f64),
                        extra,
                    )
                }),
            },
            &[s_avk, s_eig],
        );

        // Phase 4: approx = (U·diag(σ))·Vkᵀ = A·Vk·Vkᵀ.
        let _s_rec = p.native(
            NativeStep {
                label: "reconstruct".into(),
                reads: vec![usc, vkt],
                writes: vec![approx],
                run: Box::new(move |w: &mut World, ctx| {
                    let extra = w.ensure_host(usc, ctx.now()) + w.ensure_host(vkt, ctx.now());
                    let prod = petal_blas::gemm::lapack_gemm(w.get(usc), w.get(vkt));
                    w.set(approx, prod);
                    Charge::WorkPlusSecs(
                        CpuWork::new(2.0 * (n * n * k) as f64 / 4.0, (n * n * 8) as f64),
                        extra,
                    )
                }),
            },
            &[s_scale],
        );
        p.mark_output(approx);

        let target = self.target;
        let check = Box::new(move |w: &World| -> Result<(), String> {
            let err =
                prepared.input.sub(w.get(approx)).frobenius_norm() / prepared.norm.max(1e-300);
            if err <= target {
                Ok(())
            } else {
                Err(format!("relative error {err:.4} exceeds target {target}"))
            }
        });
        Instance { world, plan: p.build(), check }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::span_oracle;
    use crate::Benchmark;
    use petal_blas::gemm::lapack_gemm;
    use petal_core::{Executor, Selector, Tunable};

    #[test]
    fn ata_span_matches_elem_bit_for_bit() {
        // A is 29 × 37 (both reads are of the one input), AᵀA 37 × 37.
        let (m, n) = (29, 37);
        span_oracle::sweep(&rule_ata(), &[(n, m)], &[m as f64], (n, n));
    }

    #[test]
    fn a_key_one_ulp_off_recomputes_and_leaves_the_entry_intact() {
        let same = |a: &EigenDecomposition, b: &EigenDecomposition| {
            same_bits(&a.values, &b.values) && same_bits(a.vectors.as_slice(), b.vectors.as_slice())
        };
        let prepared = Svd::new(16, 0.15).prepared();
        let first = lapack_gemm(&prepared.input.transposed(), &prepared.input);
        let mut nudged = first.clone();
        nudged[(3, 5)] = f64::from_bits(first[(3, 5)].to_bits() + 1);

        assert!(matches!(prepared.eigh(&first), Cow::Borrowed(_)), "the miss fills the cell");
        let other = prepared.eigh(&nudged);
        assert!(matches!(other, Cow::Owned(_)), "one ulp off is another matrix");
        assert!(same(&other, &solve(&nudged)));
        assert!(!same(&other, &solve(&first)));
        let (key, stored) = prepared.eig.get().expect("filled by the first call");
        assert_eq!(key, &first);
        assert!(same(stored, &solve(&first)));
        assert!(matches!(prepared.eigh(&first), Cow::Borrowed(_)), "and still hits");
    }

    #[test]
    fn every_ata_placement_presents_the_memoised_key() {
        let b = Svd::new(48, 0.3);
        let m = MachineProfile::desktop();
        // gpu_ratio 0 = CPU, 8 = OpenCL (copied out on demand), 4 = split.
        for ratio in [0, 8, 4] {
            let mut cfg = b.program(&m).default_config(&m);
            cfg.set_selector("ata", Selector::constant(1, 2));
            cfg.set_tunable("ata.gpu_ratio", Tunable::new(ratio, 0, 8));
            let Instance { mut world, plan, .. } = b.instantiate(&m, &cfg);
            let ata = plan.steps()[0].writes()[0];
            Executor::new(&m).run(plan, &mut world).expect("runs");
            let hit = matches!(b.prepared().eigh(world.get(ata)), Cow::Borrowed(_));
            assert!(hit, "gpu_ratio {ratio}: AᵀA differs from the first trial's");
        }
    }

    #[test]
    fn default_rank_meets_target_everywhere() {
        let b = Svd::new(48, 0.2);
        for m in MachineProfile::all() {
            let r = b.run_default(&m);
            assert!(r.is_ok(), "{}: {:?}", m.codename, r.err());
        }
    }

    #[test]
    fn rank_too_low_fails_the_accuracy_check() {
        let b = Svd::new(48, 0.02);
        let m = MachineProfile::desktop();
        let mut cfg = b.program(&m).default_config(&m);
        cfg.set_tunable("svd_rank", Tunable::new(1, 1, 48));
        let r = b.run_with_config(&m, &cfg);
        assert!(r.is_err(), "rank 1 cannot hit a 2% target");
    }

    #[test]
    fn higher_rank_costs_more_time() {
        let b = Svd::new(48, 0.9);
        let m = MachineProfile::desktop();
        let t = |rank: i64| {
            let mut cfg = b.program(&m).default_config(&m);
            cfg.set_tunable("svd_rank", Tunable::new(rank, 1, 48));
            b.run_with_config(&m, &cfg).unwrap().virtual_time_secs()
        };
        assert!(t(4) < t(40), "rank 40 must cost more than rank 4");
    }

    #[test]
    fn ata_phase_runs_on_gpu_and_split() {
        let b = Svd::new(48, 0.3);
        let m = MachineProfile::desktop();
        for (sel, ratio) in [(1, 8), (1, 4)] {
            let mut cfg = b.program(&m).default_config(&m);
            cfg.set_selector("ata", Selector::constant(sel, 2));
            cfg.set_tunable("ata.gpu_ratio", Tunable::new(ratio, 0, 8));
            let r = b.run_with_config(&m, &cfg);
            assert!(r.is_ok(), "ratio {ratio}: {:?}", r.err());
        }
    }
}
