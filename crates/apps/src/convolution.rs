//! The SeparableConvolution benchmark (Fig. 1, Fig. 2, Fig. 7c).
//!
//! Convolves a 2D matrix with a separable kernel. The top-level transform
//! has two rule choices exactly as in Fig. 1: a single-pass 2D convolution,
//! or two 1D passes through an intermediate `buffer`. Each pass can run on
//! the CPU backend or as an OpenCL kernel with or without the scratchpad
//! (local-memory) variant — the four OpenCL mappings whose crossovers
//! Fig. 2 plots.

use crate::workload::{random_matrix, triangle_kernel};
use crate::Instance;
use petal_blas::Matrix;
use petal_core::plan::{placement_from_config, PlanBuilder, StencilStep};
use petal_core::program::ChoiceSite;
use petal_core::stencil::{saxpy, sum_identity, AccessPattern, Span, StencilInput, StencilRule};
use petal_core::{Config, Program, Selector, Tunable, World};
use petal_gpu::buffer::Recycler;
use petal_gpu::profile::MachineProfile;
use std::sync::{Arc, OnceLock};

/// The four hand-pinned OpenCL mappings of Fig. 2, plus the autotuned row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvMapping {
    /// Single-pass 2D kernel, global memory only.
    TwoDNoLocal,
    /// Single-pass 2D kernel with scratchpad staging.
    TwoDLocalMem,
    /// Two 1D passes, global memory only.
    SeparableNoLocal,
    /// Two 1D passes with scratchpad staging.
    SeparableLocalMem,
}

impl ConvMapping {
    /// All four mappings in Fig. 2's legend order.
    #[must_use]
    pub fn all() -> [ConvMapping; 4] {
        [
            ConvMapping::TwoDLocalMem,
            ConvMapping::TwoDNoLocal,
            ConvMapping::SeparableLocalMem,
            ConvMapping::SeparableNoLocal,
        ]
    }

    /// Legend label used by the Fig. 2 harness.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ConvMapping::TwoDLocalMem => "2D Localmem",
            ConvMapping::TwoDNoLocal => "2D No-local",
            ConvMapping::SeparableLocalMem => "Separable Localmem",
            ConvMapping::SeparableNoLocal => "Separable No-local",
        }
    }
}

/// SeparableConvolution over an `n × n` input with a width-`k` kernel.
#[derive(Debug, Clone)]
pub struct SeparableConvolution {
    n: usize,
    k: usize,
    prepared: OnceLock<Prepared>,
}

/// What every instance of one `(n, k)` shares: the image, the 1D kernel,
/// the host 2D convolution of the two and the three width-`k` rules.
#[derive(Debug, Clone)]
struct Prepared {
    input: Arc<Matrix>,
    kernel: Arc<Matrix>,
    expected: Arc<Matrix>,
    rule_2d: Arc<StencilRule>,
    rule_rows: Arc<StencilRule>,
    rule_cols: Arc<StencilRule>,
    /// Every trial's `World` is built on this, so its storage recycles.
    recycler: Arc<Recycler>,
}

impl SeparableConvolution {
    /// New instance (`n` > 3·`k` keeps the output non-degenerate; the paper
    /// uses n = 3520, k ∈ 3..17 odd).
    ///
    /// # Errors
    /// When `k` is even or below 3, `n` is not above `3k`, or `3k` or the
    /// `n²` cells of the image are more than a `usize` counts.
    pub fn try_new(n: usize, k: usize) -> Result<Self, String> {
        let fits = k.checked_mul(3).is_some_and(|k3| n > k3) && n.checked_mul(n).is_some();
        if !(k % 2 == 1 && k >= 3 && fits) {
            return Err("convolution: need odd k >= 3, n > 3k and n^2 a usize".into());
        }
        Ok(SeparableConvolution { n, k, prepared: OnceLock::new() })
    }

    /// [`Self::try_new`] for parameters known to be valid.
    ///
    /// # Panics
    /// Panics where `try_new` errs.
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        Self::try_new(n, k).unwrap_or_else(|e| panic!("{e}"))
    }

    fn prepared(&self) -> &Prepared {
        self.prepared.get_or_init(|| {
            let input = random_matrix(self.n, self.n, -1.0, 1.0, 21);
            let kernel = triangle_kernel(self.k);
            let expected = Arc::new(Self::reference(&input, &kernel));
            Prepared {
                input: Arc::new(input),
                kernel: Arc::new(kernel),
                expected,
                rule_2d: Self::rule_2d(self.k),
                rule_rows: Self::rule_rows(self.k),
                rule_cols: Self::rule_cols(self.k),
                recycler: Arc::default(),
            }
        })
    }

    /// Kernel width.
    #[must_use]
    pub fn kernel_width(&self) -> usize {
        self.k
    }

    /// The `Convolve2D` rule of Fig. 1: one `k × k` stencil pass.
    #[must_use]
    pub fn rule_2d(k: usize) -> Arc<StencilRule> {
        Arc::new(StencilRule {
            name: "convolve2d".into(),
            inputs: vec![
                StencilInput { index: 0, access: AccessPattern::Stencil { w: k, h: k } },
                StencilInput { index: 1, access: AccessPattern::All },
            ],
            flops_per_output: 3.0 * (k * k) as f64,
            body_c: "int k = (int)user_scalars[0];\n\
                     for (int j = 0; j < k; j++)\n\
                     for (int i = 0; i < k; i++)\n\
                         result += IN0(x + i, y + j) * IN1(i, 0) * IN1(j, 0);"
                .into(),
            elem: Arc::new(|env, x, y| {
                let k = env.scalars[0] as usize;
                let mut acc = 0.0;
                for j in 0..k {
                    for i in 0..k {
                        acc += env.inputs[0].at(x + i, y + j)
                            * env.inputs[1].at(i, 0)
                            * env.inputs[1].at(j, 0);
                    }
                }
                acc
            }),
            // Tap-outer: every cell still takes its k² taps in `elem`'s
            // (j, i) order from `elem`'s 0.0, each as `(in · cᵢ) · cⱼ`.
            span: Span::Rows(Arc::new(|env, x0, y, out| {
                let k = env.scalars[0] as usize;
                let coef = env.inputs[1].row_span(0, 0, k);
                out.fill(0.0);
                for (j, &cj) in coef.iter().enumerate() {
                    for (i, &ci) in coef.iter().enumerate() {
                        let taps = env.inputs[0].row_span(y + j, x0 + i, out.len());
                        for (o, &v) in out.iter_mut().zip(taps) {
                            *o += v * ci * cj;
                        }
                    }
                }
            })),
            native_only_body: false,
            text: Default::default(),
        })
    }

    /// The `ConvolveRows` rule: horizontal 1D pass.
    #[must_use]
    pub fn rule_rows(k: usize) -> Arc<StencilRule> {
        Arc::new(StencilRule {
            name: "convolve_rows".into(),
            inputs: vec![
                StencilInput { index: 0, access: AccessPattern::Stencil { w: k, h: 1 } },
                StencilInput { index: 1, access: AccessPattern::All },
            ],
            flops_per_output: 2.0 * k as f64,
            body_c: "int k = (int)user_scalars[0];\n\
                     for (int i = 0; i < k; i++)\n\
                         result += IN0(x + i, y) * IN1(i, 0);"
                .into(),
            elem: Arc::new(|env, x, y| {
                let k = env.scalars[0] as usize;
                (0..k).map(|i| env.inputs[0].at(x + i, y) * env.inputs[1].at(i, 0)).sum()
            }),
            // Tap-outer shifted SAXPY, taps in `elem`'s order.
            span: Span::Rows(Arc::new(|env, x0, y, out| {
                let k = env.scalars[0] as usize;
                out.fill(sum_identity());
                for (i, &c) in env.inputs[1].row_span(0, 0, k).iter().enumerate() {
                    saxpy(out, c, env.inputs[0].row_span(y, x0 + i, out.len()));
                }
            })),
            native_only_body: false,
            text: Default::default(),
        })
    }

    /// The `ConvolveColumns` rule: vertical 1D pass.
    #[must_use]
    pub fn rule_cols(k: usize) -> Arc<StencilRule> {
        Arc::new(StencilRule {
            name: "convolve_columns".into(),
            inputs: vec![
                StencilInput { index: 0, access: AccessPattern::Stencil { w: 1, h: k } },
                StencilInput { index: 1, access: AccessPattern::All },
            ],
            flops_per_output: 2.0 * k as f64,
            body_c: "int k = (int)user_scalars[0];\n\
                     for (int i = 0; i < k; i++)\n\
                         result += IN0(x, y + i) * IN1(i, 0);"
                .into(),
            elem: Arc::new(|env, x, y| {
                let k = env.scalars[0] as usize;
                (0..k).map(|i| env.inputs[0].at(x, y + i) * env.inputs[1].at(i, 0)).sum()
            }),
            // Tap-outer SAXPY down the rows, taps in `elem`'s order.
            span: Span::Rows(Arc::new(|env, x0, y, out| {
                let k = env.scalars[0] as usize;
                out.fill(sum_identity());
                for (i, &c) in env.inputs[1].row_span(0, 0, k).iter().enumerate() {
                    saxpy(out, c, env.inputs[0].row_span(y + i, x0, out.len()));
                }
            })),
            native_only_body: false,
            text: Default::default(),
        })
    }

    /// A configuration that pins one of the four Fig. 2 OpenCL mappings.
    #[must_use]
    pub fn mapping_config(&self, machine: &MachineProfile, mapping: ConvMapping) -> Config {
        use crate::Benchmark;
        let mut cfg = self.program(machine).default_config(machine);
        let (separable, local) = match mapping {
            ConvMapping::TwoDNoLocal => (false, false),
            ConvMapping::TwoDLocalMem => (false, true),
            ConvMapping::SeparableNoLocal => (true, false),
            ConvMapping::SeparableLocalMem => (true, true),
        };
        cfg.set_selector("separable", Selector::constant(usize::from(separable), 2));
        let backend = if local { 2 } else { 1 };
        for t in ["convolve2d", "convolve_rows", "convolve_columns"] {
            cfg.set_selector(t, Selector::constant(backend, 3));
            cfg.set_tunable(&format!("{t}.gpu_ratio"), Tunable::new(8, 0, 8));
        }
        cfg
    }

    /// Host reference: direct 2D convolution with the separable kernel.
    #[must_use]
    pub fn reference(input: &Matrix, kernel: &Matrix) -> Matrix {
        let k = kernel.cols();
        let out_w = input.cols() - k + 1;
        let out_h = input.rows() - k + 1;
        Matrix::from_fn(out_h, out_w, |y, x| {
            let mut acc = 0.0;
            for j in 0..k {
                for i in 0..k {
                    acc += input[(y + j, x + i)] * kernel[(0, i)] * kernel[(0, j)];
                }
            }
            acc
        })
    }
}

impl crate::Benchmark for SeparableConvolution {
    fn name(&self) -> &str {
        "SeparableConvolution"
    }

    fn spec(&self) -> String {
        format!("convolution n={} k={}", self.n, self.k)
    }

    fn input_size(&self) -> u64 {
        (self.n * self.n) as u64
    }

    fn resized(&self, size: u64) -> Option<Box<dyn crate::Benchmark>> {
        let n = (size as f64).sqrt() as usize;
        Self::try_new(n, self.k).map(crate::boxed).ok()
    }

    fn program(&self, _machine: &MachineProfile) -> Program {
        let mut p = Program::new("separable_convolution");
        // The algorithmic choice of Fig. 1 (single 2D pass vs. two 1D
        // passes) plus a backend/mapping site per Convolve* transform.
        p.add_site(ChoiceSite {
            name: "separable".into(),
            num_algs: 2,
            opencl: false,
            local_memory_variant: false,
            fractional: false,
        });
        for t in ["convolve2d", "convolve_rows", "convolve_columns"] {
            p.add_site(ChoiceSite {
                name: t.into(),
                num_algs: 1,
                opencl: true,
                local_memory_variant: true,
                fractional: true,
            });
        }
        p
    }

    #[allow(clippy::too_many_lines)]
    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        let (n, k) = (self.n, self.k);
        let prepared = self.prepared();
        let mut world = World::on(Arc::clone(&prepared.recycler));
        let input = world.alloc_shared(Arc::clone(&prepared.input));
        let kernel = world.alloc_shared(Arc::clone(&prepared.kernel));
        let out_n = n - k + 1;
        let out = world.zeros(out_n, out_n);

        let size = (n * n) as u64;
        let separable = cfg.select("separable", size) == 1;
        let mut p = PlanBuilder::new();
        if separable {
            // Choice 2: ConvolveRows into `buffer`, then ConvolveColumns.
            let buffer = world.zeros(n, out_n);
            let rows_rule = Arc::clone(&prepared.rule_rows);
            let rows_place =
                placement_from_config(cfg, "convolve_rows", size, machine, &rows_rule, n);
            let s1 = p.stencil(
                StencilStep {
                    rule: rows_rule,
                    inputs: vec![input, kernel],
                    output: buffer,
                    out_dims: (out_n, n),
                    user_scalars: vec![k as f64],
                    placement: rows_place,
                },
                &[],
            );
            let cols_rule = Arc::clone(&prepared.rule_cols);
            let cols_place =
                placement_from_config(cfg, "convolve_columns", size, machine, &cols_rule, out_n);
            p.stencil(
                StencilStep {
                    rule: cols_rule,
                    inputs: vec![buffer, kernel],
                    output: out,
                    out_dims: (out_n, out_n),
                    user_scalars: vec![k as f64],
                    placement: cols_place,
                },
                &[s1],
            );
        } else {
            // Choice 1: one Convolve2D pass.
            let rule = Arc::clone(&prepared.rule_2d);
            let place = placement_from_config(cfg, "convolve2d", size, machine, &rule, out_n);
            p.stencil(
                StencilStep {
                    rule,
                    inputs: vec![input, kernel],
                    output: out,
                    out_dims: (out_n, out_n),
                    user_scalars: vec![k as f64],
                    placement: place,
                },
                &[],
            );
        }
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

    #[test]
    fn convolution_spans_match_elem_bit_for_bit() {
        // A 41 × 38 image under a width-5 kernel: every output extent is
        // ragged against the 16-wide tile, and the coefficients are put
        // through the same fills as the image.
        let (k, w, h) = (5, 41, 38);
        let (out_w, out_h) = (w - k + 1, h - k + 1);
        let sweep = |rule: Arc<StencilRule>, image: (usize, usize), out: (usize, usize)| {
            span_oracle::sweep(&rule, &[image, (k, 1)], &[k as f64], out);
        };
        sweep(SeparableConvolution::rule_2d(k), (w, h), (out_w, out_h));
        sweep(SeparableConvolution::rule_rows(k), (w, h), (out_w, h));
        sweep(SeparableConvolution::rule_cols(k), (out_w, h), (out_w, out_h));
    }

    #[test]
    fn all_four_mappings_compute_identical_results() {
        let b = SeparableConvolution::new(48, 5);
        let m = MachineProfile::desktop();
        for mapping in ConvMapping::all() {
            let cfg = b.mapping_config(&m, mapping);
            let r = b.run_with_config(&m, &cfg);
            assert!(r.is_ok(), "{mapping:?}: {:?}", r.err());
        }
    }

    #[test]
    fn separable_choice_changes_plan_shape() {
        let b = SeparableConvolution::new(48, 5);
        let m = MachineProfile::desktop();
        let two_d = b.instantiate(&m, &b.mapping_config(&m, ConvMapping::TwoDNoLocal));
        let sep = b.instantiate(&m, &b.mapping_config(&m, ConvMapping::SeparableNoLocal));
        assert_eq!(two_d.plan.steps().len(), 1);
        assert_eq!(sep.plan.steps().len(), 2);
    }

    #[test]
    fn cpu_backend_also_verifies() {
        let b = SeparableConvolution::new(40, 3);
        let m = MachineProfile::server();
        let cfg = b.program(&m).default_config(&m); // all-CPU defaults
        b.run_with_config(&m, &cfg).unwrap();
    }

    /// The §2.2 claim that drives Fig. 2: as the kernel widens, separable
    /// passes overtake the single 2D pass on the Desktop GPU, and the
    /// scratchpad variant overtakes the global-memory one.
    #[test]
    fn desktop_crossovers_match_paper_shape() {
        let m = MachineProfile::desktop();
        let time = |k: usize, mapping: ConvMapping| {
            let b = SeparableConvolution::new(512, k);
            let cfg = b.mapping_config(&m, mapping);
            b.run_with_config(&m, &cfg).unwrap().virtual_time_secs()
        };
        // Wide kernel: separable + local memory is the Desktop winner.
        let wide = 13;
        let sep_local = time(wide, ConvMapping::SeparableLocalMem);
        let two_d_local = time(wide, ConvMapping::TwoDLocalMem);
        let sep_global = time(wide, ConvMapping::SeparableNoLocal);
        assert!(sep_local < two_d_local, "{sep_local} vs {two_d_local}");
        assert!(sep_local < sep_global, "{sep_local} vs {sep_global}");
        // 2D grows faster with k than separable.
        let ratio_2d = time(13, ConvMapping::TwoDNoLocal) / time(3, ConvMapping::TwoDNoLocal);
        let ratio_sep =
            time(13, ConvMapping::SeparableNoLocal) / time(3, ConvMapping::SeparableNoLocal);
        assert!(ratio_2d > ratio_sep, "2D must scale worse: {ratio_2d} vs {ratio_sep}");
    }

    /// Server's CPU-backed OpenCL makes explicit prefetching pure overhead
    /// (Fig. 6: "1D kernel on OpenCL", no local memory).
    #[test]
    fn server_prefers_no_local_memory() {
        let m = MachineProfile::server();
        let b = SeparableConvolution::new(192, 7);
        let t = |mp: ConvMapping| {
            b.run_with_config(&m, &b.mapping_config(&m, mp)).unwrap().virtual_time_secs()
        };
        assert!(
            t(ConvMapping::SeparableNoLocal) < t(ConvMapping::SeparableLocalMem),
            "staging must lose on the CPU OpenCL runtime"
        );
    }
}
