//! The Strassen benchmark (§6.2, Fig. 7e): dense matrix multiplication.
//!
//! "The choices include: transposing any combination of the inputs; four
//! different recursive decompositions, including Strassen's algorithm;
//! various blocking methods; naive matrix multiplication; and calling the
//! LAPACK external library." The selector is consulted at every recursive
//! call site, so tuned configurations are poly-algorithms like Fig. 6's
//! "8-way parallel recursive decomposition on CPU, call LAPACK when
//! < 682×682" (Server) vs. "directly call LAPACK" (Laptop) vs. "data
//! parallel on GPU" (Desktop).
//!
//! Selector values: 0 = LAPACK leaf, 1 = naive leaf, 2 = transposed leaf,
//! 3 = blocked leaf, 4 = 8-multiply recursive decomposition, 5 = Strassen's
//! 7-multiply decomposition; with OpenCL available, 6 = data-parallel GPU
//! kernel (with the `*.gpu_ratio` fractional split).

use crate::workload::random_matrix;
use crate::Instance;
use petal_blas::gemm::{
    blocked_gemm, gemm_flops, lapack_gemm, lapack_gemm_into, naive_gemm, transposed_gemm,
};
use petal_blas::{same_bits, Matrix};
use petal_core::plan::{NativeStep, Placement, PlanBuilder, StencilStep, StepId};
use petal_core::program::ChoiceSite;
use petal_core::stencil::{saxpy, sum_identity, AccessPattern, Span, StencilInput, StencilRule};
use petal_core::{Config, MatrixId, Program, World};
use petal_gpu::buffer::Recycler;
use petal_gpu::cost::CpuWork;
use petal_gpu::profile::MachineProfile;
use petal_rt::Charge;
use std::sync::{Arc, OnceLock};

/// The smallest `n` that is an instance ([`Strassen::try_new`]).
pub const MIN_N: usize = 8;

/// Recursion never descends below this size (leaves take over).
pub const MIN_RECURSE: usize = 32;

/// The data-parallel matmul rule: `C[y][x] = Σ_k A[y][k]·B[k][x]`.
#[must_use]
pub fn rule_matmul() -> Arc<StencilRule> {
    Arc::new(StencilRule {
        name: "matmul_dp".into(),
        inputs: vec![
            StencilInput { index: 0, access: AccessPattern::Row },
            StencilInput { index: 1, access: AccessPattern::Column },
        ],
        flops_per_output: 0.0, // set per instantiation (depends on K)
        body_c: "int kk = (int)user_scalars[0];\n\
                 for (int k = 0; k < kk; k++)\n\
                     result += IN0(k, y) * IN1(x, k);"
            .into(),
        elem: Arc::new(|env, x, y| {
            let kk = env.scalars[0] as usize;
            (0..kk).map(|k| env.inputs[0].at(k, y) * env.inputs[1].at(x, k)).sum()
        }),
        // k-outer SAXPY over the row: every cell still takes its terms
        // k = 0, 1, … in order from `sum()`'s starting value.
        span: Span::Rows(Arc::new(|env, x0, y, out| {
            let kk = env.scalars[0] as usize;
            out.fill(sum_identity());
            for (k, &a) in env.inputs[0].row_span(y, 0, kk).iter().enumerate() {
                saxpy(out, a, env.inputs[1].row_span(k, x0, out.len()));
            }
        })),
        native_only_body: false,
        text: Default::default(),
    })
}

/// The [`rule_matmul`] rule at every size a recursion from a root of `n`
/// can place on the device — `n`, `n/2`, `n/4`, … (a level only recurses
/// on an even size) — each with that size's flop count, built the first
/// time a plan asks for it and shared by every plan after.
#[derive(Debug, Clone)]
pub struct MatmulRules {
    n: usize,
    by_depth: Vec<OnceLock<Arc<StencilRule>>>,
}

impl MatmulRules {
    /// The (empty) table for products rooted at `n × n`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        MatmulRules { n, by_depth: vec![OnceLock::new(); n.ilog2() as usize + 1] }
    }

    fn at(&self, n: usize) -> &Arc<StencilRule> {
        let depth = (self.n / n).trailing_zeros() as usize;
        assert_eq!(self.n >> depth, n, "{n} is not a recursion size of {}", self.n);
        self.by_depth[depth].get_or_init(|| {
            Arc::new(StencilRule { flops_per_output: 2.0 * n as f64, ..(*rule_matmul()).clone() })
        })
    }
}

/// Emit a plan computing `c = a · b` (all `n × n`), consulting
/// `cfg.select(selector, n)` at every recursion level. `rules` is the
/// caller's table for the root size of this product.
///
/// Returns the terminal steps of the multiplication.
#[allow(clippy::too_many_arguments)]
pub fn build_matmul(
    rules: &MatmulRules,
    p: &mut PlanBuilder,
    world: &mut World,
    cfg: &Config,
    machine: &MachineProfile,
    selector: &str,
    a: MatrixId,
    b: MatrixId,
    c: MatrixId,
    n: usize,
    deps: &[StepId],
) -> Vec<StepId> {
    let mut choice = cfg.select(selector, n as u64);
    let gpu_index = 6;
    if choice == gpu_index && !machine.has_opencl() {
        choice = 0;
    }
    if n < MIN_RECURSE || n % 2 != 0 {
        choice = choice.min(3); // leaves only
    }
    match choice {
        4 => build_recursive_8(rules, p, world, cfg, machine, selector, a, b, c, n, deps),
        5 => build_strassen_7(rules, p, world, cfg, machine, selector, a, b, c, n, deps),
        6 => {
            let max_wg = machine.gpu.as_ref().map_or(1, |g| g.max_work_group) as i64;
            let local_size =
                cfg.tunable_or(&format!("{selector}.local_size"), 128).clamp(1, max_wg) as usize;
            let ratio = cfg.tunable_or(&format!("{selector}.gpu_ratio"), 8).clamp(0, 8) as u8;
            // The CPU-side portion chunks like every other stencil: through
            // `cpu_chunks`, so `sequential_cutoff` / `split_rows` actually
            // steer it (petal-verify: dead-tunable finding, fixed — the old
            // hardcoded `cores * 2` ignored both knobs).
            let chunks = petal_core::plan::cpu_chunks(cfg, machine, n);
            let placement = match ratio {
                0 => Placement::Cpu { chunks },
                8 => Placement::OpenCl { local_memory: false, local_size },
                e => Placement::Split {
                    gpu_eighths: e,
                    local_memory: false,
                    local_size,
                    cpu_chunks: chunks,
                },
            };
            let s = p.stencil(
                StencilStep {
                    rule: Arc::clone(rules.at(n)),
                    inputs: vec![a, b],
                    output: c,
                    out_dims: (n, n),
                    user_scalars: vec![n as f64],
                    placement,
                },
                deps,
            );
            vec![s]
        }
        leaf => {
            let s = p.native(
                NativeStep {
                    label: format!("gemm_leaf{leaf}_{n}"),
                    reads: vec![a, b],
                    writes: vec![c],
                    run: Box::new(move |w: &mut World, ctx| {
                        let extra = w.ensure_host(a, ctx.now()) + w.ensure_host(b, ctx.now());
                        // The output was preallocated (all zeros) at plan
                        // build; the kernel writes it in place.
                        let mut out = w.take_matrix(c);
                        let work = leaf_gemm_into(&mut out, leaf, w.get(a), w.get(b));
                        w.restore_matrix(c, out);
                        Charge::WorkPlusSecs(work, extra)
                    }),
                },
                deps,
            );
            vec![s]
        }
    }
}

/// Execute one leaf kernel choice into the (all-zeros) output and return
/// its cost charge. The charge is the chosen algorithm's; the bits are the
/// same whichever is chosen (`petal_blas::gemm`: one fold), so the host
/// runs the one route and debug builds hold it to the leaf's definition.
fn leaf_gemm_into(out: &mut Matrix, leaf: usize, a: &Matrix, b: &Matrix) -> CpuWork {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let flops = gemm_flops(m, k, n);
    lapack_gemm_into(out, a, b);
    let is = |definition: Matrix| same_bits(out.as_slice(), definition.as_slice());
    match leaf {
        1 => {
            debug_assert!(is(naive_gemm(a, b)), "leaf 1 is not the naive product's bits");
            CpuWork::new(flops, flops * 4.0) // strided misses
        }
        2 => {
            debug_assert!(is(transposed_gemm(a, b)), "leaf 2 is not the transposed product's bits");
            CpuWork::new(flops, flops * 0.8)
        }
        3 => {
            debug_assert!(is(blocked_gemm(a, b, 64)), "leaf 3 is not the blocked product's bits");
            CpuWork::new(flops, flops * 0.35)
        }
        // LAPACK: vectorized (≈4-wide) and cache-blocked.
        _ => {
            // The route is this leaf's definition: nothing to compare.
            CpuWork::new(flops / 4.0, flops * 0.3)
        }
    }
}

/// Quadrant helper: allocate the four `n/2` quadrants of a matrix.
fn alloc_quads(world: &mut World, h: usize) -> [MatrixId; 4] {
    [world.zeros(h, h), world.zeros(h, h), world.zeros(h, h), world.zeros(h, h)]
}

/// Native step extracting the 2×2 quadrants of `src` into `dst`.
fn split_step(
    p: &mut PlanBuilder,
    src: MatrixId,
    dst: [MatrixId; 4],
    h: usize,
    deps: &[StepId],
) -> StepId {
    p.native(
        NativeStep {
            label: format!("split_{h}"),
            reads: vec![src],
            writes: dst.to_vec(),
            run: Box::new(move |w: &mut World, ctx| {
                let extra = w.ensure_host(src, ctx.now());
                let m = w.take_matrix(src);
                for (q, id) in dst.into_iter().enumerate() {
                    let (r0, c0) = (h * (q / 2), h * (q % 2));
                    // Row copies into the quadrant's existing buffer: no
                    // per-split allocation.
                    let d = w.get_mut(id);
                    for r in 0..h {
                        d.row_mut(r).copy_from_slice(&m.row(r0 + r)[c0..c0 + h]);
                    }
                }
                w.restore_matrix(src, m);
                Charge::WorkPlusSecs(CpuWork::new(0.0, (4 * h * h * 8 * 2) as f64), extra)
            }),
        },
        deps,
    )
}

/// 8-multiply recursive decomposition: the classic 2×2 block algorithm,
/// with all eight sub-multiplies as independent (stealable) chains.
#[allow(clippy::too_many_arguments)]
fn build_recursive_8(
    rules: &MatmulRules,
    p: &mut PlanBuilder,
    world: &mut World,
    cfg: &Config,
    machine: &MachineProfile,
    selector: &str,
    a: MatrixId,
    b: MatrixId,
    c: MatrixId,
    n: usize,
    deps: &[StepId],
) -> Vec<StepId> {
    let h = n / 2;
    let aq = alloc_quads(world, h);
    let bq = alloc_quads(world, h);
    let sa = split_step(p, a, aq, h, deps);
    let sb = split_step(p, b, bq, h, deps);
    // c11 = a11 b11 + a12 b21 ; c12 = a11 b12 + a12 b22 ; etc.
    let pairs: [(usize, usize); 8] =
        [(0, 0), (1, 2), (0, 1), (1, 3), (2, 0), (3, 2), (2, 1), (3, 3)];
    let mut products = Vec::with_capacity(8);
    let mut terminals = Vec::new();
    for (ai, bi) in pairs {
        let t = world.zeros(h, h);
        let term =
            build_matmul(rules, p, world, cfg, machine, selector, aq[ai], bq[bi], t, h, &[sa, sb]);
        products.push(t);
        terminals.extend(term);
    }
    let combine = p.native(
        NativeStep {
            label: format!("combine8_{n}"),
            reads: products.clone(),
            writes: vec![c],
            run: Box::new(move |w: &mut World, ctx| {
                let mut extra = 0.0;
                for &t in &products {
                    extra += w.ensure_host(t, ctx.now());
                }
                let mut out = Matrix::zeros(n, n);
                for q in 0..4 {
                    // Sum the two products straight into the output block —
                    // the same `x + y` per element as the former
                    // `add`-then-`set_block` (bit-identical), without the
                    // intermediate allocation and copy.
                    let (r0, c0) = (h * (q / 2), h * (q % 2));
                    let (p1, p2) = (w.get(products[2 * q]), w.get(products[2 * q + 1]));
                    for r in 0..h {
                        let dst = &mut out.row_mut(r0 + r)[c0..c0 + h];
                        for ((d, &x), &y) in dst.iter_mut().zip(p1.row(r)).zip(p2.row(r)) {
                            *d = x + y;
                        }
                    }
                }
                w.set(c, out);
                Charge::WorkPlusSecs(CpuWork::new((n * n) as f64, (n * n * 8 * 3) as f64), extra)
            }),
        },
        &terminals,
    );
    vec![combine]
}

/// Strassen's 7-multiply decomposition.
#[allow(clippy::too_many_arguments)]
fn build_strassen_7(
    rules: &MatmulRules,
    p: &mut PlanBuilder,
    world: &mut World,
    cfg: &Config,
    machine: &MachineProfile,
    selector: &str,
    a: MatrixId,
    b: MatrixId,
    c: MatrixId,
    n: usize,
    deps: &[StepId],
) -> Vec<StepId> {
    let h = n / 2;
    let aq = alloc_quads(world, h);
    let bq = alloc_quads(world, h);
    let sa = split_step(p, a, aq, h, deps);
    let sb = split_step(p, b, bq, h, deps);
    // Left/right operands of the seven products, as (+/-) quadrant sums:
    // M1=(A11+A22)(B11+B22), M2=(A21+A22)B11, M3=A11(B12-B22),
    // M4=A22(B21-B11), M5=(A11+A12)B22, M6=(A21-A11)(B11+B12),
    // M7=(A12-A22)(B21+B22).
    type Combo = (Vec<(usize, f64)>, bool); // (terms, from_a)
    let operands: [(Combo, Combo); 7] = [
        ((vec![(0, 1.0), (3, 1.0)], true), (vec![(0, 1.0), (3, 1.0)], false)),
        ((vec![(2, 1.0), (3, 1.0)], true), (vec![(0, 1.0)], false)),
        ((vec![(0, 1.0)], true), (vec![(1, 1.0), (3, -1.0)], false)),
        ((vec![(3, 1.0)], true), (vec![(2, 1.0), (0, -1.0)], false)),
        ((vec![(0, 1.0), (1, 1.0)], true), (vec![(3, 1.0)], false)),
        ((vec![(2, 1.0), (0, -1.0)], true), (vec![(0, 1.0), (1, 1.0)], false)),
        ((vec![(1, 1.0), (3, -1.0)], true), (vec![(2, 1.0), (3, 1.0)], false)),
    ];
    let mut m_ids = Vec::with_capacity(7);
    let mut terminals = Vec::new();
    for (left, right) in operands {
        let make_operand = |p: &mut PlanBuilder, world: &mut World, combo: &Combo| {
            let (terms, from_a) = combo;
            let quads = if *from_a { aq } else { bq };
            if terms.len() == 1 && (terms[0].1 - 1.0).abs() < f64::EPSILON {
                // A bare quadrant: no sum step needed.
                (quads[terms[0].0], None)
            } else {
                let dst = world.zeros(h, h);
                let terms = terms.clone();
                let s = p.native(
                    NativeStep {
                        label: format!("strassen_sum_{h}"),
                        reads: terms.iter().map(|&(q, _)| quads[q]).collect(),
                        writes: vec![dst],
                        run: Box::new(move |w: &mut World, ctx| {
                            let mut extra = 0.0;
                            for &(q, _) in &terms {
                                extra += w.ensure_host(quads[q], ctx.now());
                            }
                            let mut acc = Matrix::zeros(h, h);
                            for &(q, sign) in &terms {
                                acc = acc.add(&w.get(quads[q]).scaled(sign));
                            }
                            w.set(dst, acc);
                            Charge::WorkPlusSecs(
                                CpuWork::new((h * h) as f64, (h * h * 8 * 3) as f64),
                                extra,
                            )
                        }),
                    },
                    &[sa, sb],
                );
                (dst, Some(s))
            }
        };
        let (l_id, l_step) = make_operand(p, world, &left);
        let (r_id, r_step) = make_operand(p, world, &right);
        let mut product_deps = vec![sa, sb];
        product_deps.extend(l_step);
        product_deps.extend(r_step);
        let t = world.zeros(h, h);
        let term =
            build_matmul(rules, p, world, cfg, machine, selector, l_id, r_id, t, h, &product_deps);
        m_ids.push(t);
        terminals.extend(term);
    }
    let combine = p.native(
        NativeStep {
            label: format!("strassen_combine_{n}"),
            reads: m_ids.clone(),
            writes: vec![c],
            run: Box::new(move |w: &mut World, ctx| {
                let mut extra = 0.0;
                for &t in &m_ids {
                    extra += w.ensure_host(t, ctx.now());
                }
                let m = |i: usize| w.get(m_ids[i]);
                let c11 = m(0).add(m(3)).sub(m(4)).add(m(6));
                let c12 = m(2).add(m(4));
                let c21 = m(1).add(m(3));
                let c22 = m(0).sub(m(1)).add(m(2)).add(m(5));
                let mut out = Matrix::zeros(n, n);
                out.set_block(0, 0, &c11);
                out.set_block(0, h, &c12);
                out.set_block(h, 0, &c21);
                out.set_block(h, h, &c22);
                w.set(c, out);
                Charge::WorkPlusSecs(
                    CpuWork::new(2.0 * (n * n) as f64, (n * n * 8 * 4) as f64),
                    extra,
                )
            }),
        },
        &terminals,
    );
    vec![combine]
}

/// The Strassen benchmark: `c = a · b` over `n × n` inputs.
#[derive(Debug, Clone)]
pub struct Strassen {
    n: usize,
    prepared: OnceLock<Prepared>,
}

/// What every instance of one `n` shares: both factors, their reference
/// product and the device rules.
#[derive(Debug, Clone)]
struct Prepared {
    a: Arc<Matrix>,
    b: Arc<Matrix>,
    expected: Arc<Matrix>,
    rules: MatmulRules,
    /// Every trial's `World` is built on this, so its storage recycles.
    recycler: Arc<Recycler>,
}

impl Strassen {
    /// New instance (the paper uses n = 1024).
    ///
    /// # Errors
    /// When `n <` [`MIN_N`].
    pub fn try_new(n: usize) -> Result<Self, String> {
        crate::at_least("strassen", n, MIN_N).map(|n| Strassen { n, prepared: OnceLock::new() })
    }

    /// [`Self::try_new`] for parameters known to be valid.
    ///
    /// # Panics
    /// Panics where `try_new` errs.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::try_new(n).unwrap_or_else(|e| panic!("{e}"))
    }

    fn prepared(&self) -> &Prepared {
        self.prepared.get_or_init(|| {
            let a = random_matrix(self.n, self.n, -1.0, 1.0, 51);
            let b = random_matrix(self.n, self.n, -1.0, 1.0, 52);
            let expected = Arc::new(lapack_gemm(&a, &b));
            Prepared {
                a: Arc::new(a),
                b: Arc::new(b),
                expected,
                rules: MatmulRules::new(self.n),
                recycler: Arc::default(),
            }
        })
    }
}

impl crate::Benchmark for Strassen {
    fn name(&self) -> &str {
        "Strassen"
    }

    fn spec(&self) -> String {
        format!("strassen n={}", self.n)
    }

    fn input_size(&self) -> u64 {
        self.n as u64
    }

    fn resized(&self, size: u64) -> Option<Box<dyn crate::Benchmark>> {
        Self::try_new(size as usize).map(crate::boxed).ok()
    }

    fn memoisable(&self) -> bool {
        true
    }

    fn program(&self, _machine: &MachineProfile) -> Program {
        let mut p = Program::new("strassen");
        p.add_site(ChoiceSite {
            name: "matmul".into(),
            // LAPACK, naive, transposed, blocked, 8-way, Strassen-7.
            num_algs: 6,
            opencl: true,
            // The hand-coded OpenCL baseline's local-memory accumulation is
            // deliberately not implemented (§6.2: "we have not implemented
            // a similar optimization").
            local_memory_variant: false,
            fractional: true,
        });
        p
    }

    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        let n = self.n;
        let prepared = self.prepared();
        let mut world = World::on(Arc::clone(&prepared.recycler));
        let a = world.alloc_shared(Arc::clone(&prepared.a));
        let b = world.alloc_shared(Arc::clone(&prepared.b));
        let c = world.zeros(n, n);
        let mut p = PlanBuilder::new();
        build_matmul(&prepared.rules, &mut p, &mut world, cfg, machine, "matmul", a, b, c, n, &[]);
        p.mark_output(c);
        let tol = 1e-6 * prepared.expected.frobenius_norm().max(1.0);
        let check = crate::check_within(c, Arc::clone(&prepared.expected), tol);
        Instance { world, plan: p.build(), check }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{checked_trial, span_oracle};
    use crate::Benchmark;
    use petal_core::{Selector, Tunable};

    fn config_with(m: &MachineProfile, b: &Strassen, sel: Selector) -> Config {
        let mut cfg = b.program(m).default_config(m);
        cfg.set_selector("matmul", sel);
        cfg
    }

    #[test]
    fn matmul_span_matches_elem_bit_for_bit() {
        // A 23 × 29 by 29 × 37 product: no extent a multiple of the tile.
        let (m, kk, n) = (23, 29, 37);
        span_oracle::sweep(&rule_matmul(), &[(kk, m), (n, kk)], &[kk as f64], (n, m));
    }

    #[test]
    fn every_choice_multiplies_correctly() {
        let b = Strassen::new(64);
        let m = MachineProfile::desktop();
        for alg in 0..7 {
            let cfg = config_with(&m, &b, Selector::constant(alg, 7));
            let r = b.run_with_config(&m, &cfg);
            assert!(r.is_ok(), "alg {alg}: {:?}", r.err());
        }
    }

    /// The leaf law on whole trials: whichever leaf the selector names,
    /// the world is left holding the naive product's bits (24: every
    /// output row is one full chunk and a remainder; 64: whole chunks),
    /// and the trial's virtual time is the leaf's own — pinned to the
    /// values read before the four bodies became one route, so a
    /// `CpuWork` that moves with a body fails here by name.
    #[test]
    fn leaf_law_every_choice_leaves_the_naive_products_bits_at_its_own_virtual_time() {
        let m = MachineProfile::desktop();
        let pinned: [(usize, [u64; 4]); 2] = [
            (
                24,
                [
                    0x3ec8_dedc_0979_d30a,
                    0x3ef7_670c_c503_8175,
                    0x3ee7_9cbc_aa38_fad3,
                    0x3ee7_9cbc_aa38_fad3,
                ],
            ),
            (
                64,
                [
                    0x3f0b_97b7_cc72_7a6a,
                    0x3f3b_803a_d82b_1551,
                    0x3f2b_8395_d67e_6ce7,
                    0x3f2b_8395_d67e_6ce7,
                ],
            ),
        ];
        for (n, by_leaf) in pinned {
            let b = Strassen::new(n);
            let product = naive_gemm(&b.prepared().a, &b.prepared().b);
            for (leaf, want) in by_leaf.into_iter().enumerate() {
                let cfg = config_with(&m, &b, Selector::constant(leaf, 7));
                let (left, secs) = checked_trial(&b, &m, &cfg);
                assert!(same_bits(&left, product.as_slice()), "n = {n}, leaf {leaf}");
                assert_eq!(secs, want, "n = {n}, leaf {leaf}: {secs:#x}");
            }
        }
    }

    #[test]
    fn polyalgorithm_recursion_with_cutoff() {
        // 8-way above 32, LAPACK below: the Fig. 6 Server shape.
        let b = Strassen::new(128);
        let m = MachineProfile::server();
        let cfg = config_with(&m, &b, Selector::new(vec![33], vec![0, 4], 7));
        b.run_with_config(&m, &cfg).unwrap();
    }

    #[test]
    fn odd_sizes_fall_back_to_leaves() {
        let b = Strassen::new(63);
        let m = MachineProfile::laptop();
        let cfg = config_with(&m, &b, Selector::constant(5, 7));
        b.run_with_config(&m, &cfg).unwrap();
    }

    /// Fig. 7(e) shape: the GPU data-parallel choice wins on Desktop by a
    /// large factor; direct LAPACK wins on Laptop.
    #[test]
    fn gpu_wins_desktop_lapack_wins_laptop() {
        let b = Strassen::new(512);
        let time = |m: &MachineProfile, sel: Selector, ratio: i64| {
            let mut cfg = config_with(m, &b, sel);
            cfg.set_tunable("matmul.gpu_ratio", Tunable::new(ratio, 0, 8));
            b.run_with_config(m, &cfg).unwrap().virtual_time_secs()
        };
        let d = MachineProfile::desktop();
        let gpu_d = time(&d, Selector::constant(6, 7), 8);
        let lapack_d = time(&d, Selector::constant(0, 7), 8);
        assert!(gpu_d < lapack_d / 3.0, "desktop GPU {gpu_d} vs LAPACK {lapack_d}");
        let l = MachineProfile::laptop();
        let gpu_l = time(&l, Selector::constant(6, 7), 8);
        let lapack_l = time(&l, Selector::constant(0, 7), 8);
        assert!(lapack_l < gpu_l, "laptop LAPACK {lapack_l} vs GPU {gpu_l}");
    }

    #[test]
    fn strassen_recursion_beats_naive_leaf() {
        let b = Strassen::new(256);
        let m = MachineProfile::server();
        let naive = {
            let cfg = config_with(&m, &b, Selector::constant(1, 7));
            b.run_with_config(&m, &cfg).unwrap().virtual_time_secs()
        };
        let eight_way = {
            let cfg = config_with(&m, &b, Selector::new(vec![65], vec![0, 4], 7));
            b.run_with_config(&m, &cfg).unwrap().virtual_time_secs()
        };
        assert!(eight_way < naive, "8-way+LAPACK {eight_way} vs naive {naive}");
    }
}
