//! The Tridiagonal Solver benchmark (§6.2, Fig. 7g).
//!
//! "Often algorithmic changes are required to utilize the GPU": the
//! sequential Thomas algorithm is the fastest CPU choice but has a
//! loop-carried dependency the OpenCL analysis rejects, while cyclic
//! reduction does asymptotically more work in data-parallel levels — a win
//! only on a machine with a real GPU (the paper's Desktop).
//!
//! Choices: 0 = Thomas direct solve (CPU), 1 = cyclic reduction on the CPU
//! backend, 2 = cyclic reduction as a chain of OpenCL kernels (one
//! reduction kernel per level, one back-substitution kernel per level).
//!
//! The four bands are packed in a `4 × m` matrix (rows a, b, c, d) so each
//! level is a single kernel launch.

use crate::Instance;
use petal_blas::tridiag::{
    cyclic_reduction_solve, diagonally_dominant_system, thomas_solve, TridiagonalSystem,
};
use petal_blas::Matrix;
use petal_core::plan::{placement_from_config, Placement, PlanBuilder, StencilStep};
use petal_core::program::ChoiceSite;
use petal_core::stencil::{AccessPattern, Span, StencilInput, StencilRule};
use petal_core::{Config, Program, World};
use petal_gpu::buffer::Recycler;
use petal_gpu::cost::CpuWork;
use petal_gpu::profile::MachineProfile;
use petal_rt::Charge;
use std::sync::{Arc, OnceLock};

/// The smallest `n` that is an instance ([`Tridiagonal::try_new`]).
pub const MIN_N: usize = 4;

/// Stop the GPU reduction and solve directly below this size.
const DIRECT_CUTOFF: usize = 64;

/// Pack a system into a `4 × m` band matrix.
fn pack(sys: &TridiagonalSystem) -> Matrix {
    let m = sys.len();
    Matrix::from_fn(4, m, |band, i| match band {
        0 => sys.a[i],
        1 => sys.b[i],
        2 => sys.c[i],
        _ => sys.d[i],
    })
}

/// Unpack a `4 × m` band matrix.
fn unpack(m: &Matrix) -> TridiagonalSystem {
    TridiagonalSystem::new(
        m.row(0).to_vec(),
        m.row(1).to_vec(),
        m.row(2).to_vec(),
        m.row(3).to_vec(),
    )
}

/// The tridiagonal benchmark over an `n`-unknown system.
#[derive(Debug, Clone)]
pub struct Tridiagonal {
    n: usize,
    prepared: OnceLock<Arc<Prepared>>,
}

/// The config-independent half of an instance, shared by every trial.
#[derive(Debug)]
struct Prepared {
    /// The system every instance solves. The check is its residual, so
    /// there is no reference answer to keep beside it.
    sys: TridiagonalSystem,
    /// The system packed for the GPU chain, built when a plan first
    /// takes that choice.
    bands: OnceLock<Arc<Matrix>>,
    /// `thomas_solve(sys)` and `cyclic_reduction_solve(sys)`, each computed
    /// by the first trial whose plan runs that solver. Both read `sys`
    /// here and nothing in a `World`, so no configuration reaches their
    /// input and no key check is needed.
    thomas: OnceLock<Vec<f64>>,
    cyclic: OnceLock<Vec<f64>>,
    /// The two rules of the GPU chain.
    reduce: Arc<StencilRule>,
    backsub: Arc<StencilRule>,
    /// Every trial's `World` is built on this, so its storage recycles.
    recycler: Arc<Recycler>,
}

impl Tridiagonal {
    /// New instance (`n` unknowns; the paper evaluates 1024² total work).
    ///
    /// # Errors
    /// When `n <` [`MIN_N`].
    pub fn try_new(n: usize) -> Result<Self, String> {
        crate::at_least("tridiagonal", n, MIN_N)
            .map(|n| Tridiagonal { n, prepared: OnceLock::new() })
    }

    /// [`Self::try_new`] for parameters known to be valid.
    ///
    /// # Panics
    /// Panics where `try_new` errs.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::try_new(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// One cyclic-reduction level as a data-parallel rule:
    /// `out[band][j]` from gathers at indices `2j-1, 2j, 2j+1` of the input
    /// band matrix (`scalars[0]` = input length `m`).
    fn rule_reduce() -> Arc<StencilRule> {
        Arc::new(StencilRule {
            name: "cr_reduce".into(),
            inputs: vec![StencilInput { index: 0, access: AccessPattern::Gather }],
            flops_per_output: 14.0,
            body_c: "int m = (int)user_scalars[0];\n\
                     int i = 2 * x;\n\
                     double alpha = (i > 0) ? -IN0(i, 0) / IN0(i - 1, 1) : 0.0;\n\
                     double beta = (i + 1 < m) ? -IN0(i, 2) / IN0(i + 1, 1) : 0.0;\n\
                     /* y selects the output band (a, b, c, d) */\n\
                     ..."
            .into(),
            elem: Arc::new(|env, x, y| {
                let m = env.scalars[0] as usize;
                let bands = &env.inputs[0];
                let i = 2 * x;
                let a = |i: usize| bands.at(i, 0);
                let b = |i: usize| bands.at(i, 1);
                let c = |i: usize| bands.at(i, 2);
                let d = |i: usize| bands.at(i, 3);
                let alpha = if i > 0 { -a(i) / b(i - 1) } else { 0.0 };
                let beta = if i + 1 < m { -c(i) / b(i + 1) } else { 0.0 };
                match y {
                    0 => {
                        if i > 0 {
                            alpha * a(i - 1)
                        } else {
                            0.0
                        }
                    }
                    1 => {
                        b(i) + if i > 0 { alpha * c(i - 1) } else { 0.0 }
                            + if i + 1 < m { beta * a(i + 1) } else { 0.0 }
                    }
                    2 => {
                        if i + 1 < m {
                            beta * c(i + 1)
                        } else {
                            0.0
                        }
                    }
                    _ => {
                        d(i) + if i > 0 { alpha * d(i - 1) } else { 0.0 }
                            + if i + 1 < m { beta * d(i + 1) } else { 0.0 }
                    }
                }
            }),
            // The same cell over the four bands as slices, the output band
            // chosen once per row; `a` and `c` need only one of
            // `alpha`/`beta`, so they divide once per cell.
            span: Span::Rows(Arc::new(|env, x0, y, out| {
                let m = env.scalars[0] as usize;
                let [a, b, c, d] = [0, 1, 2, 3].map(|band| env.inputs[0].row_span(band, 0, m));
                // What eliminating the left and the right neighbour adds
                // to a band at row `i`.
                let left =
                    |v: &[f64], i: usize| if i > 0 { -a[i] / b[i - 1] * v[i - 1] } else { 0.0 };
                let right =
                    |v: &[f64], i: usize| if i + 1 < m { -c[i] / b[i + 1] * v[i + 1] } else { 0.0 };
                let cells = (x0..).map(|x| 2 * x).zip(out);
                match y {
                    0 => cells.for_each(|(i, o)| *o = left(a, i)),
                    1 => cells.for_each(|(i, o)| *o = b[i] + left(c, i) + right(a, i)),
                    2 => cells.for_each(|(i, o)| *o = right(c, i)),
                    _ => cells.for_each(|(i, o)| *o = d[i] + left(d, i) + right(d, i)),
                }
            })),
            native_only_body: false,
            text: Default::default(),
        })
    }

    /// One back-substitution level: rebuild the length-`m` solution from
    /// the even-index solution (`inputs = [bands, even]`).
    fn rule_backsub() -> Arc<StencilRule> {
        Arc::new(StencilRule {
            name: "cr_backsub".into(),
            inputs: vec![
                StencilInput { index: 0, access: AccessPattern::Gather },
                StencilInput { index: 1, access: AccessPattern::Gather },
            ],
            flops_per_output: 6.0,
            body_c: "int m = (int)user_scalars[0];\n\
                     if ((x & 1) == 0) { result = IN1(x / 2, 0); } else { /* odd solve */ }"
                .into(),
            elem: Arc::new(|env, x, _y| {
                let m = env.scalars[0] as usize;
                let bands = &env.inputs[0];
                let even = &env.inputs[1];
                if x % 2 == 0 {
                    return even.at(x / 2, 0);
                }
                let left = bands.at(x, 0) * even.at((x - 1) / 2, 0);
                let right =
                    if x + 1 < m { bands.at(x, 2) * even.at(x.div_ceil(2), 0) } else { 0.0 };
                (bands.at(x, 3) - left - right) / bands.at(x, 1)
            }),
            // The same cell, bands and even solution read as slices.
            span: Span::Rows(Arc::new(|env, x0, _y, out| {
                let m = env.scalars[0] as usize;
                let [a, b, c, d] = [0, 1, 2, 3].map(|band| env.inputs[0].row_span(band, 0, m));
                let even = env.inputs[1].row_span(0, 0, env.inputs[1].width());
                for (x, o) in (x0..).zip(out) {
                    *o = if x % 2 == 0 {
                        even[x / 2]
                    } else {
                        let left = a[x] * even[(x - 1) / 2];
                        let right = if x + 1 < m { c[x] * even[x.div_ceil(2)] } else { 0.0 };
                        (d[x] - left - right) / b[x]
                    };
                }
            })),
            native_only_body: false,
            text: Default::default(),
        })
    }

    fn prepared(&self) -> &Arc<Prepared> {
        self.prepared.get_or_init(|| {
            Arc::new(Prepared {
                sys: diagonally_dominant_system(self.n, 41),
                bands: OnceLock::new(),
                thomas: OnceLock::new(),
                cyclic: OnceLock::new(),
                reduce: Self::rule_reduce(),
                backsub: Self::rule_backsub(),
                recycler: Arc::default(),
            })
        })
    }
}

impl crate::Benchmark for Tridiagonal {
    fn name(&self) -> &str {
        "Tridiagonal Solver"
    }

    fn spec(&self) -> String {
        format!("tridiagonal n={}", self.n)
    }

    fn input_size(&self) -> u64 {
        self.n as u64
    }

    fn resized(&self, size: u64) -> Option<Box<dyn crate::Benchmark>> {
        Self::try_new(size as usize).map(crate::boxed).ok()
    }

    fn program(&self, _machine: &MachineProfile) -> Program {
        let mut p = Program::new("tridiagonal");
        // Declared CPU algorithms: Thomas, CPU cyclic reduction. OpenCL
        // adds the GPU cyclic-reduction chain.
        p.add_site(ChoiceSite {
            name: "tridiag".into(),
            num_algs: 2,
            opencl: true,
            local_memory_variant: false,
            fractional: true,
        });
        p
    }

    #[allow(clippy::too_many_lines)]
    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        let prepared = self.prepared();
        let n = self.n;
        let mut world = World::on(Arc::clone(&prepared.recycler));
        let x_out = world.zeros(1, n);
        let mut choice = cfg.select("tridiag", n as u64);
        if choice == 2 && !machine.has_opencl() {
            choice = 0;
        }
        let mut p = PlanBuilder::new();
        match choice {
            2 => {
                // GPU cyclic reduction: one kernel per level, then a direct
                // solve at the cutoff, then back-substitution kernels.
                let (reduce, backsub) = (&prepared.reduce, &prepared.backsub);
                let place = |rule: &Arc<StencilRule>, rows: usize| {
                    match placement_from_config(cfg, "tridiag", n as u64, machine, rule, rows) {
                        // Selector value 2 *is* the GPU chain (that is the
                        // point of this branch); if the ratio tunable drives
                        // the mapping back to pure CPU, honor the choice and
                        // keep the kernels on the device. The site tunables
                        // (`tridiag.local_size`, `tridiag.gpu_ratio`) are
                        // consulted under the site's own name so the tuner
                        // actually reaches them (petal-verify: dead-tunable
                        // finding, fixed).
                        Placement::Cpu { .. } => Placement::OpenCl {
                            local_memory: false,
                            local_size: cfg.tunable_or("tridiag.local_size", 128).clamp(
                                1,
                                machine.gpu.as_ref().map_or(1, |g| g.max_work_group) as i64,
                            ) as usize,
                        },
                        other => other,
                    }
                };
                let bands = prepared.bands.get_or_init(|| Arc::new(pack(&prepared.sys)));
                let mut bands_id = world.alloc_shared(Arc::clone(bands));
                let mut sizes = vec![n];
                let mut deps = Vec::new();
                let mut levels = Vec::new();
                while *sizes.last().expect("nonempty") > DIRECT_CUTOFF {
                    let m = *sizes.last().expect("nonempty");
                    let half = m.div_ceil(2);
                    let next = world.zeros(4, half);
                    let s = p.stencil(
                        StencilStep {
                            rule: Arc::clone(reduce),
                            inputs: vec![bands_id],
                            output: next,
                            out_dims: (half, 4),
                            user_scalars: vec![m as f64],
                            placement: place(reduce, 4),
                        },
                        &deps,
                    );
                    levels.push((bands_id, m));
                    bands_id = next;
                    sizes.push(half);
                    deps = vec![s];
                }
                // Direct solve of the small remaining system on the CPU.
                let small_x = world.zeros(1, *sizes.last().expect("nonempty"));
                let small_bands = bands_id;
                let small_step = p.native(
                    petal_core::plan::NativeStep {
                        label: "cr_direct".into(),
                        reads: vec![small_bands],
                        writes: vec![small_x],
                        run: Box::new(move |w: &mut World, ctx| {
                            let extra = w.ensure_host(small_bands, ctx.now());
                            let sys = unpack(w.get(small_bands));
                            let x = thomas_solve(&sys);
                            let len = x.len();
                            w.set(small_x, Matrix::from_vec(1, len, x));
                            Charge::WorkPlusSecs(
                                CpuWork::new(8.0 * len as f64, 40.0 * len as f64),
                                extra,
                            )
                        }),
                    },
                    &deps,
                );
                // Back-substitute up through the levels.
                let mut even_x = small_x;
                let mut deps = vec![small_step];
                for (level_bands, m) in levels.into_iter().rev() {
                    let full = world.zeros(1, m);
                    let s = p.stencil(
                        StencilStep {
                            rule: Arc::clone(backsub),
                            inputs: vec![level_bands, even_x],
                            output: full,
                            out_dims: (m, 1),
                            user_scalars: vec![m as f64],
                            placement: place(backsub, 1),
                        },
                        &deps,
                    );
                    even_x = full;
                    deps = vec![s];
                }
                // Copy the final vector into the declared output.
                let final_x = even_x;
                p.native(
                    petal_core::plan::NativeStep {
                        label: "cr_finish".into(),
                        reads: vec![final_x],
                        writes: vec![x_out],
                        run: Box::new(move |w: &mut World, ctx| {
                            let extra = w.ensure_host(final_x, ctx.now());
                            let mut x = w.take_matrix(x_out);
                            x.as_mut_slice().copy_from_slice(w.get(final_x).as_slice());
                            let len = x.len();
                            w.restore_matrix(x_out, x);
                            Charge::WorkPlusSecs(CpuWork::new(0.0, 16.0 * len as f64), extra)
                        }),
                    },
                    &deps,
                );
            }
            alg => {
                // CPU algorithms as one native step (both are sequential
                // over the bands; CR does ~2x the arithmetic). Either
                // solution is a function of the prepared system alone, so
                // the first trial to need it computes it and every trial
                // copies it out; the charge is the solver's all the same.
                let prepared = Arc::clone(prepared);
                p.native(
                    petal_core::plan::NativeStep {
                        label: if alg == 1 { "cr_cpu".into() } else { "thomas".into() },
                        reads: vec![],
                        writes: vec![x_out],
                        run: Box::new(move |w: &mut World, _ctx| {
                            // Thomas streams ~6 arrays twice (forward +
                            // back-substitution); sequential CR touches
                            // roughly twice that across its levels.
                            let sys = &prepared.sys;
                            let (x, flops_per, bytes_per) = if alg == 1 {
                                (
                                    prepared.cyclic.get_or_init(|| cyclic_reduction_solve(sys)),
                                    34.0,
                                    220.0,
                                )
                            } else {
                                (prepared.thomas.get_or_init(|| thomas_solve(sys)), 16.0, 100.0)
                            };
                            w.get_mut(x_out).as_mut_slice().copy_from_slice(x);
                            let len = x.len() as f64;
                            Charge::Work(CpuWork::new(flops_per * len, bytes_per * len))
                        }),
                    },
                    &[],
                );
            }
        }
        p.mark_output(x_out);

        let prepared = Arc::clone(prepared);
        let check = Box::new(move |w: &World| -> Result<(), String> {
            let x = w.get(x_out).as_slice();
            let r = prepared.sys.residual(x);
            if r < 1e-6 {
                Ok(())
            } else {
                Err(format!("residual {r}"))
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
    use petal_core::Selector;

    #[test]
    fn cyclic_reduction_spans_match_elem_bit_for_bit() {
        // An even level, an odd one (its last even row has no right
        // neighbour) and the last level above the direct-solve cutoff. The
        // zero and ±inf fills drive 0/0 and inf − inf through the
        // reduction: those NaNs are `elem`'s bits too.
        for m in [130, 129, DIRECT_CUTOFF + 1] {
            let half = m.div_ceil(2);
            span_oracle::sweep(&Tridiagonal::rule_reduce(), &[(m, 4)], &[m as f64], (half, 4));
            let inputs = [(m, 4), (half, 1)];
            span_oracle::sweep(&Tridiagonal::rule_backsub(), &inputs, &[m as f64], (m, 1));
        }
    }

    #[test]
    fn a_memoised_solution_is_the_solver_called_directly() {
        let b = Tridiagonal::new(300);
        let m = MachineProfile::desktop();
        let solvers: [fn(&TridiagonalSystem) -> Vec<f64>; 2] =
            [thomas_solve, cyclic_reduction_solve];
        for (alg, solve) in solvers.into_iter().enumerate() {
            let mut cfg = b.program(&m).default_config(&m);
            cfg.set_selector("tridiag", Selector::constant(alg, 3));
            let want = solve(&b.prepared().sys);
            // The trial that fills the cell, then two that find it filled.
            for trial in 1..=3 {
                let Instance { mut world, plan, .. } = b.instantiate(&m, &cfg);
                let x_out = plan.outputs()[0];
                petal_core::Executor::new(&m).run(plan, &mut world).expect("runs");
                let got = world.get(x_out).as_slice();
                assert!(petal_blas::same_bits(got, &want), "choice {alg}, trial {trial}");
            }
        }
        assert!(b.prepared().thomas.get().is_some() && b.prepared().cyclic.get().is_some());
    }

    #[test]
    fn all_three_choices_solve_the_system() {
        let b = Tridiagonal::new(1 << 10);
        let m = MachineProfile::desktop();
        for alg in 0..3 {
            let mut cfg = b.program(&m).default_config(&m);
            cfg.set_selector("tridiag", Selector::constant(alg, 3));
            let r = b.run_with_config(&m, &cfg);
            assert!(r.is_ok(), "alg {alg}: {:?}", r.err());
        }
    }

    #[test]
    fn gpu_choice_degrades_gracefully_without_device() {
        let b = Tridiagonal::new(256);
        let mut m = MachineProfile::desktop();
        m.gpu = None;
        let mut cfg = b.program(&m).default_config(&m);
        cfg.set_selector("tridiag", Selector::constant(0, 1));
        b.run_with_config(&m, &cfg).unwrap();
    }

    /// Fig. 7(g)/Fig. 6 shape: cyclic reduction on the GPU wins on Desktop
    /// at large sizes; the sequential direct solve wins on the Laptop.
    #[test]
    fn desktop_prefers_gpu_cyclic_reduction_at_scale() {
        let b = Tridiagonal::new(1 << 21);
        let time = |m: &MachineProfile, alg: usize| {
            let mut cfg = b.program(m).default_config(m);
            cfg.set_selector("tridiag", Selector::constant(alg, 3));
            b.run_with_config(m, &cfg).unwrap().virtual_time_secs()
        };
        let d = MachineProfile::desktop();
        let thomas_d = time(&d, 0);
        let gpu_d = time(&d, 2);
        assert!(gpu_d < thomas_d, "desktop: CR-GPU {gpu_d} vs Thomas {thomas_d}");
        let l = MachineProfile::laptop();
        let thomas_l = time(&l, 0);
        let gpu_l = time(&l, 2);
        assert!(thomas_l < gpu_l, "laptop: Thomas {thomas_l} vs CR-GPU {gpu_l}");
    }

    #[test]
    fn cpu_cyclic_reduction_loses_to_thomas_on_cpu() {
        let b = Tridiagonal::new(1 << 18);
        let m = MachineProfile::server();
        let time = |alg: usize| {
            let mut cfg = b.program(&m).default_config(&m);
            cfg.set_selector("tridiag", Selector::constant(alg, 3));
            b.run_with_config(&m, &cfg).unwrap().virtual_time_secs()
        };
        assert!(time(0) < time(1), "direct solve beats sequential CR on a CPU");
    }
}
