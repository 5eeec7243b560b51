//! The Poisson2D SOR benchmark (§6.2, Fig. 7b).
//!
//! Solves Poisson's equation with Red-Black Successive Over-Relaxation.
//! "Before main iteration, the algorithm splits the input matrix into
//! separate buffers of red and black cells for cache efficiency" — the
//! *split* phase and the *iterate* phase are independent choice sites, and
//! the paper's headline is that their best placements flip between
//! machines (Desktop/Laptop: split on CPU, iterate on GPU; Server: split
//! on OpenCL, iterate on CPU).
//!
//! Grids carry a one-cell zero boundary; red cells have even `x+y`, black
//! cells odd. Each color's values live in their own full-size buffer
//! (zeros at the other color's positions).

use crate::workload::random_matrix;
use crate::Instance;
use petal_blas::Matrix;
use petal_core::plan::{placement_from_config, PlanBuilder, StencilStep, StepId};
use petal_core::program::ChoiceSite;
use petal_core::stencil::{AccessPattern, Span, StencilInput, StencilRule};
use petal_core::{Config, MatrixId, Program, World};
use petal_gpu::buffer::Recycler;
use petal_gpu::profile::MachineProfile;
use std::sync::{Arc, OnceLock};

/// The smallest `n` that is an instance ([`Poisson2D::try_new`]).
pub const MIN_N: usize = 8;

/// Over-relaxation factor.
pub const OMEGA: f64 = 1.6;

/// Poisson2D SOR on an `n × n` interior grid, running `iters` red+black
/// sweeps.
#[derive(Debug, Clone)]
pub struct Poisson2D {
    n: usize,
    iters: usize,
    prepared: OnceLock<Prepared>,
}

/// What every instance of one `(n, iters)` shares: the initial grid
/// (zero boundary), the right-hand side, the host SOR answer and the
/// three rules.
#[derive(Debug, Clone)]
struct Prepared {
    u0: Arc<Matrix>,
    f: Arc<Matrix>,
    expected: Arc<Matrix>,
    split: Arc<StencilRule>,
    sweep: Arc<StencilRule>,
    combine: Arc<StencilRule>,
    /// Every trial's `World` is built on this, so its storage recycles.
    recycler: Arc<Recycler>,
}

impl Poisson2D {
    /// New instance (the paper uses n = 2048).
    ///
    /// # Errors
    /// When `n <` [`MIN_N`], `iters == 0`, or the `(n + 2)²` cells of the
    /// grid with its boundary are more than a `usize` counts.
    pub fn try_new(n: usize, iters: usize) -> Result<Self, String> {
        let cells = n.checked_add(2).and_then(|n2| n2.checked_mul(n2));
        if n < MIN_N || iters < 1 || cells.is_none() {
            return Err(format!("poisson2d: need n >= {MIN_N}, iters >= 1 and (n + 2)^2 a usize"));
        }
        Ok(Poisson2D { n, iters, prepared: OnceLock::new() })
    }

    /// [`Self::try_new`] for parameters known to be valid.
    ///
    /// # Panics
    /// Panics where `try_new` errs.
    #[must_use]
    pub fn new(n: usize, iters: usize) -> Self {
        Self::try_new(n, iters).unwrap_or_else(|e| panic!("{e}"))
    }

    fn prepared(&self) -> &Prepared {
        self.prepared.get_or_init(|| {
            let n2 = self.n + 2; // interior plus zero boundary
            let mut u0 = random_matrix(n2, n2, -1.0, 1.0, 31);
            for i in 0..n2 {
                u0[(0, i)] = 0.0;
                u0[(n2 - 1, i)] = 0.0;
                u0[(i, 0)] = 0.0;
                u0[(i, n2 - 1)] = 0.0;
            }
            let f = random_matrix(n2, n2, -1.0, 1.0, 32);
            let expected = Arc::new(Self::reference(&u0, &f, self.iters));
            Prepared {
                u0: Arc::new(u0),
                f: Arc::new(f),
                expected,
                split: Self::rule_split(),
                sweep: Self::rule_sweep(),
                combine: Self::rule_combine(),
                recycler: Arc::default(),
            }
        })
    }

    /// Extraction rule for the split phase: keep cells of `color`
    /// (`scalars[0]`), zero elsewhere.
    fn rule_split() -> Arc<StencilRule> {
        Arc::new(StencilRule {
            name: "sor_split".into(),
            inputs: vec![StencilInput { index: 0, access: AccessPattern::Point }],
            flops_per_output: 2.0,
            body_c: "int color = (int)user_scalars[0];\n\
                     result = (((x + y) & 1) == color) ? IN0(x, y) : 0.0;"
                .into(),
            elem: Arc::new(|env, x, y| {
                let color = env.scalars[0] as usize;
                if (x + y) % 2 == color {
                    env.inputs[0].at(x, y)
                } else {
                    0.0
                }
            }),
            // The same cell, the row read as one slice.
            span: Span::Rows(Arc::new(|env, x0, y, out| {
                let color = env.scalars[0] as usize;
                let row = env.inputs[0].row_span(y, x0, out.len());
                for ((x, o), &v) in (x0..).zip(out).zip(row) {
                    *o = if (x + y) % 2 == color { v } else { 0.0 };
                }
            })),
            native_only_body: false,
            text: Default::default(),
        })
    }

    /// One half-sweep: update cells of `color` from the other color's
    /// buffer. Inputs: `[other, mine, f]`; neighbor reads make this a
    /// gather, so no scratchpad variant exists (§3.1 bounding-box test).
    fn rule_sweep() -> Arc<StencilRule> {
        Arc::new(StencilRule {
            name: "sor_sweep".into(),
            inputs: vec![
                StencilInput { index: 0, access: AccessPattern::Gather },
                StencilInput { index: 1, access: AccessPattern::Point },
                StencilInput { index: 2, access: AccessPattern::Point },
            ],
            flops_per_output: 10.0,
            body_c: "int color = (int)user_scalars[0];\n\
                     double omega = user_scalars[1];\n\
                     double h2 = user_scalars[2];\n\
                     int n1 = out_w - 1;\n\
                     if (x == 0 || y == 0 || x == n1 || y == n1 || ((x + y) & 1) != color) {\n\
                         result = (((x + y) & 1) == color) ? IN1(x, y) : 0.0;\n\
                     } else {\n\
                         double nb = IN0(x - 1, y) + IN0(x + 1, y) + IN0(x, y - 1) + IN0(x, y + 1);\n\
                         result = (1.0 - omega) * IN1(x, y) + omega * 0.25 * (nb - h2 * IN2(x, y));\n\
                     }"
                .into(),
            elem: Arc::new(|env, x, y| {
                let color = env.scalars[0] as usize;
                let omega = env.scalars[1];
                let h2 = env.scalars[2];
                let n1 = env.inputs[1].width() - 1;
                let is_mine = (x + y) % 2 == color;
                if x == 0 || y == 0 || x == n1 || y == n1 || !is_mine {
                    return if is_mine { env.inputs[1].at(x, y) } else { 0.0 };
                }
                let nb = env.inputs[0].at(x - 1, y)
                    + env.inputs[0].at(x + 1, y)
                    + env.inputs[0].at(x, y - 1)
                    + env.inputs[0].at(x, y + 1);
                (1.0 - omega) * env.inputs[1].at(x, y) + omega * 0.25 * (nb - h2 * env.inputs[2].at(x, y))
            }),
            // The same cell — parity and boundary still decided per cell,
            // the four neighbours summed in `elem`'s order — over the three
            // rows of `other` and this row of `mine` and `f` as slices. A
            // boundary row reads no neighbour row, as in `elem`.
            span: Span::Rows(Arc::new(|env, x0, y, out| {
                let color = env.scalars[0] as usize;
                let omega = env.scalars[1];
                let h2 = env.scalars[2];
                let n1 = env.inputs[1].width() - 1;
                let mine = env.inputs[1].row_span(y, x0, out.len());
                let kept = |x: usize, v: f64| if (x + y) % 2 == color { v } else { 0.0 };
                if y == 0 || y == n1 {
                    for ((x, o), &v) in (x0..).zip(out).zip(mine) {
                        *o = kept(x, v);
                    }
                    return;
                }
                let other = &env.inputs[0];
                let [up, mid, down] = [y - 1, y, y + 1].map(|r| other.row_span(r, 0, other.width()));
                let f = env.inputs[2].row_span(y, x0, out.len());
                for (((x, o), &v), &fv) in (x0..).zip(out).zip(mine).zip(f) {
                    *o = if x == 0 || x == n1 || (x + y) % 2 != color {
                        kept(x, v)
                    } else {
                        let nb = mid[x - 1] + mid[x + 1] + up[x] + down[x];
                        (1.0 - omega) * v + omega * 0.25 * (nb - h2 * fv)
                    };
                }
            })),
            native_only_body: false,
            text: Default::default(),
        })
    }

    /// Recombination rule: `u = red + black`.
    fn rule_combine() -> Arc<StencilRule> {
        Arc::new(StencilRule {
            name: "sor_combine".into(),
            inputs: vec![
                StencilInput { index: 0, access: AccessPattern::Point },
                StencilInput { index: 1, access: AccessPattern::Point },
            ],
            flops_per_output: 1.0,
            body_c: "result = IN0(x, y) + IN1(x, y);".into(),
            elem: Arc::new(|env, x, y| env.inputs[0].at(x, y) + env.inputs[1].at(x, y)),
            span: Span::Rows(Arc::new(|env, x0, y, out| {
                let red = env.inputs[0].row_span(y, x0, out.len());
                let black = env.inputs[1].row_span(y, x0, out.len());
                for ((o, &r), &b) in out.iter_mut().zip(red).zip(black) {
                    *o = r + b;
                }
            })),
            native_only_body: false,
            text: Default::default(),
        })
    }

    /// Host reference: identical arithmetic, sequentially.
    #[must_use]
    pub fn reference(u0: &Matrix, f: &Matrix, iters: usize) -> Matrix {
        let n2 = u0.rows();
        let h2 = 1.0 / ((n2 - 1) as f64 * (n2 - 1) as f64);
        let mut red =
            Matrix::from_fn(n2, n2, |y, x| if (x + y) % 2 == 0 { u0[(y, x)] } else { 0.0 });
        let mut black =
            Matrix::from_fn(n2, n2, |y, x| if (x + y) % 2 == 1 { u0[(y, x)] } else { 0.0 });
        let sweep = |mine: &Matrix, other: &Matrix, color: usize| -> Matrix {
            Matrix::from_fn(n2, n2, |y, x| {
                let is_mine = (x + y) % 2 == color;
                if x == 0 || y == 0 || x == n2 - 1 || y == n2 - 1 || !is_mine {
                    return if is_mine { mine[(y, x)] } else { 0.0 };
                }
                let nb =
                    other[(y, x - 1)] + other[(y, x + 1)] + other[(y - 1, x)] + other[(y + 1, x)];
                (1.0 - OMEGA) * mine[(y, x)] + OMEGA * 0.25 * (nb - h2 * f[(y, x)])
            })
        };
        for _ in 0..iters {
            red = sweep(&red, &black, 0);
            black = sweep(&black, &red, 1);
        }
        red.add(&black)
    }
}

impl crate::Benchmark for Poisson2D {
    fn name(&self) -> &str {
        "Poisson2D SOR"
    }

    fn spec(&self) -> String {
        format!("poisson2d n={} iters={}", self.n, self.iters)
    }

    fn input_size(&self) -> u64 {
        (self.n * self.n) as u64
    }

    fn resized(&self, size: u64) -> Option<Box<dyn crate::Benchmark>> {
        let n = (size as f64).sqrt() as usize;
        Self::try_new(n, self.iters).map(crate::boxed).ok()
    }

    fn memoisable(&self) -> bool {
        true
    }

    fn program(&self, _machine: &MachineProfile) -> Program {
        let mut p = Program::new("poisson2d_sor");
        p.add_site(ChoiceSite {
            name: "sor_split".into(),
            num_algs: 1,
            opencl: true,
            local_memory_variant: false,
            fractional: true,
        });
        p.add_site(ChoiceSite {
            name: "sor_iter".into(),
            num_algs: 1,
            opencl: true,
            local_memory_variant: false,
            fractional: true,
        });
        p
    }

    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        let n2 = self.n + 2; // interior plus zero boundary
        let h2 = 1.0 / ((n2 - 1) as f64 * (n2 - 1) as f64);
        let size = (self.n * self.n) as u64;
        let prepared = self.prepared();
        let mut world = World::on(Arc::clone(&prepared.recycler));
        let u0 = world.alloc_shared(Arc::clone(&prepared.u0));
        let f = world.alloc_shared(Arc::clone(&prepared.f));
        // Ping-pong color buffers.
        let mut red = [world.zeros(n2, n2), world.zeros(n2, n2)];
        let mut black = [world.zeros(n2, n2), world.zeros(n2, n2)];
        let out = world.zeros(n2, n2);

        let (split_rule, sweep_rule, combine_rule) =
            (&prepared.split, &prepared.sweep, &prepared.combine);
        let split_place = placement_from_config(cfg, "sor_split", size, machine, split_rule, n2);
        let iter_place = placement_from_config(cfg, "sor_iter", size, machine, sweep_rule, n2);

        let mut p = PlanBuilder::new();
        let step = |p: &mut PlanBuilder,
                    rule: &Arc<StencilRule>,
                    inputs: Vec<MatrixId>,
                    output: MatrixId,
                    scalars: Vec<f64>,
                    place,
                    deps: &[StepId]| {
            p.stencil(
                StencilStep {
                    rule: Arc::clone(rule),
                    inputs,
                    output,
                    out_dims: (n2, n2),
                    user_scalars: scalars,
                    placement: place,
                },
                deps,
            )
        };
        let s_red = step(&mut p, split_rule, vec![u0], red[0], vec![0.0], split_place, &[]);
        let s_black = step(&mut p, split_rule, vec![u0], black[0], vec![1.0], split_place, &[]);
        let mut last = vec![s_red, s_black];
        for _ in 0..self.iters {
            let r2 = step(
                &mut p,
                sweep_rule,
                vec![black[0], red[0], f],
                red[1],
                vec![0.0, OMEGA, h2],
                iter_place,
                &last,
            );
            let b2 = step(
                &mut p,
                sweep_rule,
                vec![red[1], black[0], f],
                black[1],
                vec![1.0, OMEGA, h2],
                iter_place,
                &[r2],
            );
            red.swap(0, 1);
            black.swap(0, 1);
            last = vec![b2];
        }
        let _fin =
            step(&mut p, combine_rule, vec![red[0], black[0]], out, vec![], iter_place, &last);
        p.mark_output(out);

        let check = crate::check_within(out, Arc::clone(&prepared.expected), 1e-9);
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
    fn sor_spans_match_elem_bit_for_bit() {
        // A 37 × 37 grid (interior 35): ragged against both tiles, both
        // colours, the boundary rows inside the whole-output sweep and
        // outside the banded one.
        let n2 = 37;
        let h2 = 1.0 / ((n2 - 1) as f64 * (n2 - 1) as f64);
        for color in [0.0, 1.0] {
            span_oracle::sweep(&Poisson2D::rule_split(), &[(n2, n2)], &[color], (n2, n2));
            let grids = [(n2, n2); 3];
            span_oracle::sweep(&Poisson2D::rule_sweep(), &grids, &[color, OMEGA, h2], (n2, n2));
        }
        span_oracle::sweep(&Poisson2D::rule_combine(), &[(n2, n2); 2], &[], (n2, n2));
    }

    fn phase_config(m: &MachineProfile, split_gpu: bool, iter_gpu: bool) -> Config {
        let b = Poisson2D::new(32, 3);
        let mut cfg = b.program(m).default_config(m);
        cfg.set_selector("sor_split", Selector::constant(usize::from(split_gpu), 2));
        cfg.set_selector("sor_iter", Selector::constant(usize::from(iter_gpu), 2));
        cfg
    }

    #[test]
    fn all_phase_placements_verify() {
        let b = Poisson2D::new(32, 3);
        for m in MachineProfile::all() {
            for (sg, ig) in [(false, false), (false, true), (true, false), (true, true)] {
                let cfg = phase_config(&m, sg, ig);
                let r = b.run_with_config(&m, &cfg);
                assert!(r.is_ok(), "{} split_gpu={sg} iter_gpu={ig}: {:?}", m.codename, r.err());
            }
        }
    }

    #[test]
    fn reference_reduces_residual() {
        // SOR should move toward the solution: later iterates change less.
        let u0 = random_matrix(18, 18, -1.0, 1.0, 5);
        let f = random_matrix(18, 18, -1.0, 1.0, 6);
        let a = Poisson2D::reference(&u0, &f, 2);
        let b = Poisson2D::reference(&u0, &f, 3);
        let c = Poisson2D::reference(&u0, &f, 40);
        let d = Poisson2D::reference(&u0, &f, 41);
        assert!(c.max_abs_diff(&d) < a.max_abs_diff(&b), "iteration must converge");
    }

    /// The Fig. 7(b) shape: on machines with a physical GPU, iterating on
    /// the device beats iterating on the CPU; on the Server (CPU-backed
    /// OpenCL) the iterate phase belongs on the CPU backend.
    #[test]
    fn iterate_placement_flips_between_desktop_and_server() {
        let b = Poisson2D::new(192, 6);
        let t = |m: &MachineProfile, sg: bool, ig: bool| {
            let b_big = &b;
            let mut cfg = b_big.program(m).default_config(m);
            cfg.set_selector("sor_split", Selector::constant(usize::from(sg), 2));
            cfg.set_selector("sor_iter", Selector::constant(usize::from(ig), 2));
            b_big.run_with_config(m, &cfg).unwrap().virtual_time_secs()
        };
        let desktop = MachineProfile::desktop();
        assert!(
            t(&desktop, false, true) < t(&desktop, false, false),
            "desktop iterates faster on the GPU"
        );
    }
}
