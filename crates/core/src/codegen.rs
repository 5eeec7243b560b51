//! OpenCL kernel generation (§3.1 phases 2 and 3).
//!
//! For every mappable [`StencilRule`] this module produces:
//!
//! * **OpenCL C source text** for the plain (global-memory) variant and,
//!   when the bounding-box analysis allows, the **local-memory variant**
//!   with a generated cooperative load phase and a barrier — the
//!   "traditionally hand-written scratchpad memory optimization that
//!   requires significant memory access rewriting and the generation of
//!   multi-phase cooperative loads and stores" (§1.1). Rule bodies are
//!   written against `INk(x, y)` macros; the two variants bind the macros
//!   to global or staged-local storage respectively.
//! * A **work descriptor** ([`KernelWork`]) for the cost model: the two
//!   variants differ exactly in where their stencil reuse traffic lands
//!   (redundant global reads vs. staged local reads).
//! * A **functional body** that executes the kernel semantics on host data
//!   — including real tile staging for the local variant, so bounding-box
//!   violations are caught by the tile views.

use crate::stencil::{AccessPattern, Span, StencilEnv, StencilRule, View};
use petal_gpu::buffer::BufferTable;
use petal_gpu::cost::{CpuWork, KernelWork};
use petal_gpu::device::{KernelBody, KernelLaunch};
use petal_gpu::source::{kernel_signature, SourceBuilder};
use petal_gpu::GpuError;
use std::sync::Arc;

/// Geometry of one stencil launch: the output region and input shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct Geometry {
    /// Output matrix width (columns).
    pub out_w: usize,
    /// Output matrix height (rows).
    pub out_h: usize,
    /// First output row computed by this launch (ratio splits compute
    /// `[row0, row1)`; the full matrix is `[0, out_h)`).
    pub row0: usize,
    /// One past the last output row computed by this launch.
    pub row1: usize,
    /// `(cols, rows)` of each input matrix, in declaration order.
    pub in_dims: Vec<(usize, usize)>,
    /// Work-items per work-group (the local-work-size tunable).
    pub local_size: usize,
}

impl Geometry {
    /// Output cells computed by this launch.
    #[must_use]
    pub fn items(&self) -> usize {
        self.out_w * (self.row1 - self.row0)
    }

    /// 2D work-group tile `(w, h)` derived from the local size: 16-wide
    /// rows of work-items when possible (coalesced accesses), otherwise a
    /// single row.
    #[must_use]
    pub fn tile(&self) -> (usize, usize) {
        let ls = self.local_size.max(1);
        if ls >= 16 && ls % 16 == 0 {
            (16, ls / 16)
        } else {
            (ls, 1)
        }
    }

    /// Number of work-groups covering the output region.
    #[must_use]
    pub fn groups(&self) -> usize {
        let (tw, th) = self.tile();
        self.out_w.div_ceil(tw) * (self.row1 - self.row0).div_ceil(th)
    }
}

/// Vectorization efficiency a CPU-backed OpenCL runtime achieves on this
/// rule's body (see [`KernelWork::vector_efficiency`]).
#[must_use]
fn vector_efficiency(rule: &StencilRule) -> f64 {
    let worst = rule
        .inputs
        .iter()
        .map(|i| match i.access {
            AccessPattern::Point | AccessPattern::All => 1.0,
            AccessPattern::Row | AccessPattern::Column => 0.4,
            AccessPattern::Gather => 0.5,
            AccessPattern::Stencil { .. } => 0.2,
            AccessPattern::Sequential | AccessPattern::Wavefront => 0.1,
        })
        .fold(1.0, f64::min);
    worst
}

/// Redundant (non-compulsory) global reads per output for one input.
///
/// Stencil overlap is charged in full (the device cache factor discounts
/// it); whole-row/column reuse is capped because real matmul-style kernels
/// tile those accesses through caches; broadcast inputs are tiny and stay
/// cached after one read.
fn redundant_reads(access: AccessPattern, rpo: f64) -> f64 {
    let raw = (rpo - 1.0).max(0.0);
    match access {
        // Broadcast inputs are tiny and stay cached after one read.
        AccessPattern::All => raw.min(1.0),
        // Row/Column reuse is charged in full: the generated kernel reads
        // whole rows/columns through global memory (the paper notes its
        // matmul lacks the hand-written local-memory accumulation, §6.2),
        // so it is memory-bound — which is what makes the mobile GPU lose.
        _ => raw,
    }
}

/// Build the cost-model descriptor for one launch of `rule`.
#[must_use]
pub fn kernel_work(rule: &StencilRule, geom: &Geometry, local_memory: bool) -> KernelWork {
    let items = geom.items() as f64;
    let mut compulsory = 0.0;
    let mut redundant = 0.0;
    let mut local_fill = 0.0;
    let mut local_traffic = 0.0;
    let (tw, th) = geom.tile();
    let groups = geom.groups() as f64;
    for inp in &rule.inputs {
        let (in_w, in_h) = geom.in_dims[inp.index];
        let rpo = inp.access.reads_per_output(in_w, in_h);
        if local_memory {
            match inp.access.bounding_box() {
                Some((bw, bh)) if bw * bh > 1 => {
                    // Cooperative load: each group stages its output tile
                    // plus halo, once.
                    let tile_in = ((tw + bw - 1) * (th + bh - 1)) as f64;
                    local_fill += groups * tile_in * 8.0;
                    local_traffic += items * rpo * 8.0;
                }
                _ => {
                    if matches!(inp.access, AccessPattern::All) {
                        // Broadcast input staged wholesale per group.
                        local_fill += groups * (in_w * in_h) as f64 * 8.0;
                        local_traffic += items * rpo * 8.0;
                    } else {
                        compulsory += items * 8.0;
                        redundant += items * redundant_reads(inp.access, rpo) * 8.0;
                    }
                }
            }
        } else {
            compulsory += items * 8.0;
            redundant += items * redundant_reads(inp.access, rpo) * 8.0;
        }
    }
    KernelWork {
        work_items: items,
        flops_per_item: rule.flops_per_output,
        global_read_bytes: compulsory,
        redundant_read_bytes: redundant,
        global_write_bytes: items * 8.0,
        local_fill_bytes: local_fill,
        local_traffic_bytes: local_traffic,
        groups,
        local_size: geom.local_size,
        uses_local_memory: local_memory,
        vector_efficiency: vector_efficiency(rule),
    }
}

/// CPU-backend cost of computing rows `[row0, row1)` of the output on one
/// worker: scalar flops plus compulsory memory traffic (hardware caches
/// absorb most stencil reuse on the CPU).
#[must_use]
pub fn cpu_work(rule: &StencilRule, geom: &Geometry, rows: usize) -> CpuWork {
    let items = (geom.out_w * rows) as f64;
    let mut bytes = items * 8.0; // output writes
    for inp in &rule.inputs {
        let (in_w, in_h) = geom.in_dims[inp.index];
        let rpo = inp.access.reads_per_output(in_w, in_h);
        bytes += items * 8.0 * (1.0 + 0.05 * (rpo - 1.0).max(0.0));
    }
    CpuWork::new(items * rule.flops_per_output, bytes)
}

// ---------------------------------------------------------------------------
// Source generation
// ---------------------------------------------------------------------------

/// The kernel entry point of one variant of `rule`: its name, suffixed
/// `_localmem` for the scratchpad variant.
#[must_use]
pub fn entry_name(rule: &StencilRule, local_memory: bool) -> String {
    format!("{}{}", rule.name, if local_memory { "_localmem" } else { "" })
}

/// Generate the OpenCL C source for `rule` — the one text generator; a
/// lowering reads it through [`StencilRule::kernel_text`], which calls this
/// once per rule and variant.
///
/// The `local_memory` variant prefixes the body with a cooperative load of
/// each bounded input's tile (plus halo) into `__local` storage, separated
/// from the compute phase by `barrier(CLK_LOCAL_MEM_FENCE)`, and rebinds the
/// `INk` macros to the staged tiles.
#[must_use]
pub fn generate_source(rule: &StencilRule, local_memory: bool) -> String {
    let mut buffers: Vec<(String, String)> = rule
        .inputs
        .iter()
        .map(|i| ("__global const double*".to_owned(), format!("in{}", i.index)))
        .collect();
    buffers.push(("__global double*".to_owned(), "out".to_owned()));
    let buf_refs: Vec<(&str, &str)> =
        buffers.iter().map(|(q, n)| (q.as_str(), n.as_str())).collect();
    let mut scalars: Vec<(String, String)> = vec![
        ("int".into(), "out_w".into()),
        ("int".into(), "out_h".into()),
        ("int".into(), "row0".into()),
        ("int".into(), "row1".into()),
    ];
    for i in &rule.inputs {
        scalars.push(("int".into(), format!("in{}_w", i.index)));
        scalars.push(("int".into(), format!("in{}_h", i.index)));
    }
    scalars.push(("int".into(), "n_user_scalars".into()));
    scalars.push(("__global const double*".into(), "user_scalars".into()));
    let scalar_refs: Vec<(&str, &str)> =
        scalars.iter().map(|(t, n)| (t.as_str(), n.as_str())).collect();

    let name = entry_name(rule, local_memory);
    let mut b = SourceBuilder::new();
    b.line("// Generated by petal-core; do not edit.");
    b.line("#pragma OPENCL EXTENSION cl_khr_fp64 : enable");
    if local_memory {
        // Conservative static scratchpad bound: the widest tile the runtime
        // ever launches (16x64 work-items) plus this rule's halo.
        for i in &rule.inputs {
            if stage_in_local(i.access) {
                let (bw, bh) = i.access.bounding_box().unwrap_or((64, 64));
                b.line(&format!(
                    "#define PETAL_TILE{}_ELEMS ({})",
                    i.index,
                    (16 + bw - 1) * (64 + bh - 1)
                ));
            }
        }
    }
    for i in &rule.inputs {
        let k = i.index;
        if local_memory && stage_in_local(i.access) {
            b.line(&format!(
                "#define IN{k}(x, y) tile{k}[((y) - tile{k}_y0) * tile{k}_w + ((x) - tile{k}_x0)]"
            ));
        } else {
            b.line(&format!("#define IN{k}(x, y) in{k}[(y) * in{k}_w + (x)]"));
        }
    }
    b.blank();
    b.open(&kernel_signature(&name, &buf_refs, &scalar_refs));
    b.line("int x = get_global_id(0);");
    b.line("int y = get_global_id(1) + row0;");
    if local_memory {
        emit_cooperative_loads(&mut b, rule);
    }
    b.line("if (x >= out_w || y >= row1) return;");
    b.line("double result = 0.0;");
    b.open("");
    for line in rule.body_c.lines() {
        b.line(line.trim_end());
    }
    b.close();
    b.line("out[y * out_w + x] = result;");
    b.close();
    b.build()
}

fn stage_in_local(access: AccessPattern) -> bool {
    match access.bounding_box() {
        Some((w, h)) => w * h > 1,
        None => matches!(access, AccessPattern::All),
    }
}

fn emit_cooperative_loads(b: &mut SourceBuilder, rule: &StencilRule) {
    b.line("// --- cooperative load phase (generated) ---");
    for i in &rule.inputs {
        if !stage_in_local(i.access) {
            continue;
        }
        let k = i.index;
        match i.access {
            AccessPattern::All => {
                b.line(&format!("__local double tile{k}[PETAL_TILE{k}_ELEMS];"));
                b.line(&format!("const int tile{k}_x0 = 0, tile{k}_y0 = 0;"));
                b.line(&format!("const int tile{k}_w = in{k}_w;"));
                b.open(&format!(
                    "for (int i = get_local_id(1) * get_local_size(0) + get_local_id(0); \
                     i < in{k}_w * in{k}_h; i += get_local_size(0) * get_local_size(1))"
                ));
                b.line(&format!("tile{k}[i] = in{k}[i];"));
                b.close();
            }
            _ => {
                let (bw, bh) = i.access.bounding_box().expect("staged inputs have a box");
                b.line(&format!("__local double tile{k}[PETAL_TILE{k}_ELEMS];"));
                b.line(&format!("const int tile{k}_x0 = get_group_id(0) * get_local_size(0);"));
                b.line(&format!(
                    "const int tile{k}_y0 = get_group_id(1) * get_local_size(1) + row0;"
                ));
                b.line(&format!("const int tile{k}_w = get_local_size(0) + {};", bw - 1));
                b.line(&format!("const int tile{k}_h = get_local_size(1) + {};", bh - 1));
                b.open(&format!(
                    "for (int i = get_local_id(1) * get_local_size(0) + get_local_id(0); \
                     i < tile{k}_w * tile{k}_h; i += get_local_size(0) * get_local_size(1))"
                ));
                b.line(&format!("int gx = tile{k}_x0 + i % tile{k}_w;"));
                b.line(&format!("int gy = tile{k}_y0 + i / tile{k}_w;"));
                b.line(&format!(
                    "tile{k}[i] = (gx < in{k}_w && gy < in{k}_h) ? in{k}[gy * in{k}_w + gx] : 0.0;"
                ));
                b.close();
            }
        }
    }
    b.line("barrier(CLK_LOCAL_MEM_FENCE);");
    b.line("// --- compute phase ---");
}

// ---------------------------------------------------------------------------
// Functional execution
// ---------------------------------------------------------------------------

/// Raw borrowed input: `(row-major data, cols, rows)`.
pub type RawInput<'a> = (&'a [f64], usize, usize);

/// Compute the `out.len()` cells of output row `y` starting at column `x0`:
/// one call of the rule's span body when it has one, `elem` cell by cell
/// when it says [`Span::PerCell`]. Debug builds hold the span to its contract at both ends of
/// every span, so every test that runs a rule cross-checks its two forms.
fn eval_span(rule: &StencilRule, env: &StencilEnv<'_>, x0: usize, y: usize, out: &mut [f64]) {
    let Span::Rows(span) = &rule.span else {
        for (i, o) in out.iter_mut().enumerate() {
            *o = (rule.elem)(env, x0 + i, y);
        }
        return;
    };
    span(env, x0, y, out);
    if cfg!(debug_assertions) && !out.is_empty() {
        for i in [0, out.len() - 1] {
            let want = (rule.elem)(env, x0 + i, y);
            assert!(
                out[i].to_bits() == want.to_bits(),
                "rule '{}': span gives {:e} at ({}, {y}), elem gives {want:e}",
                rule.name,
                out[i],
                x0 + i
            );
        }
    }
}

/// Execute the plain (global-memory) variant on host slices: compute output
/// rows `[row0, row1)` into `out`, which holds exactly those rows.
///
/// # Panics
/// Panics if the output slice is not the launch's row range or a body read
/// escapes its input.
pub fn run_global(
    rule: &StencilRule,
    inputs: &[RawInput<'_>],
    scalars: &[f64],
    out: &mut [f64],
    geom: &Geometry,
) {
    assert_eq!(out.len(), geom.items(), "output slice is the launch's row range");
    let views: Vec<View<'_>> = rule
        .inputs
        .iter()
        .map(|i| {
            let (data, cols, rows) = inputs[i.index];
            View::Full { data, cols, rows }
        })
        .collect();
    let env = StencilEnv { inputs: &views, scalars };
    for y in geom.row0..geom.row1 {
        let at = (y - geom.row0) * geom.out_w;
        eval_span(rule, &env, 0, y, &mut out[at..at + geom.out_w]);
    }
}

/// Execute the local-memory variant on host slices: iterate work-groups,
/// stage each bounded input's tile (plus halo) and every broadcast input,
/// then compute from the staged views only, into `out`, which holds exactly
/// rows `[row0, row1)`.
///
/// # Panics
/// Panics if a body read escapes the staged tile — the executable
/// equivalent of writing past the cooperative load in real OpenCL.
pub fn run_tiled(
    rule: &StencilRule,
    inputs: &[RawInput<'_>],
    scalars: &[f64],
    out: &mut [f64],
    geom: &Geometry,
) {
    assert_eq!(out.len(), geom.items(), "output slice is the launch's row range");
    let (tw, th) = geom.tile();
    let mut ty = geom.row0;
    while ty < geom.row1 {
        let mut tx = 0;
        while tx < geom.out_w {
            let tile_w_out = tw.min(geom.out_w - tx);
            let tile_h_out = th.min(geom.row1 - ty);
            // Cooperative load phase: build tile views.
            let views: Vec<View<'_>> = rule
                .inputs
                .iter()
                .map(|i| {
                    let (data, cols, rows) = inputs[i.index];
                    if !stage_in_local(i.access) {
                        return View::Full { data, cols, rows };
                    }
                    let (x0, y0, tcols, trows) = match i.access {
                        AccessPattern::All => (0, 0, cols, rows),
                        _ => {
                            let (bw, bh) = i.access.bounding_box().expect("staged => bounded");
                            (
                                tx.min(cols.saturating_sub(1)),
                                ty.min(rows.saturating_sub(1)),
                                (tile_w_out + bw - 1).min(cols - tx.min(cols - 1)),
                                (tile_h_out + bh - 1).min(rows - ty.min(rows - 1)),
                            )
                        }
                    };
                    let mut staged = vec![0.0; tcols * trows];
                    for r in 0..trows {
                        let src = (y0 + r) * cols + x0;
                        staged[r * tcols..(r + 1) * tcols].copy_from_slice(&data[src..src + tcols]);
                    }
                    View::Tile { data: staged, x0, y0, cols: tcols, rows: trows }
                })
                .collect();
            // Compute phase, reading only staged data.
            let env = StencilEnv { inputs: &views, scalars };
            for y in ty..ty + tile_h_out {
                let at = (y - geom.row0) * geom.out_w + tx;
                eval_span(rule, &env, tx, y, &mut out[at..at + tile_w_out]);
            }
            tx += tw;
        }
        ty += th;
    }
}

/// Encode a launch geometry plus user scalars into the flat scalar vector
/// carried by [`KernelLaunch`].
#[must_use]
pub fn encode_scalars(geom: &Geometry, user: &[f64]) -> Vec<f64> {
    let mut v = vec![
        geom.out_w as f64,
        geom.out_h as f64,
        geom.row0 as f64,
        geom.row1 as f64,
        geom.local_size as f64,
        geom.in_dims.len() as f64,
    ];
    for &(w, h) in &geom.in_dims {
        v.push(w as f64);
        v.push(h as f64);
    }
    v.extend_from_slice(user);
    v
}

/// Decode [`encode_scalars`] output back into a geometry and user scalars.
///
/// # Panics
/// Panics on malformed encodings (an internal invariant).
#[must_use]
pub fn decode_scalars(scalars: &[f64]) -> (Geometry, Vec<f64>) {
    let n_inputs = scalars[5] as usize;
    let mut in_dims = Vec::with_capacity(n_inputs);
    for i in 0..n_inputs {
        in_dims.push((scalars[6 + 2 * i] as usize, scalars[7 + 2 * i] as usize));
    }
    let geom = Geometry {
        out_w: scalars[0] as usize,
        out_h: scalars[1] as usize,
        row0: scalars[2] as usize,
        row1: scalars[3] as usize,
        in_dims,
        local_size: scalars[4] as usize,
    };
    let user = scalars[6 + 2 * n_inputs..].to_vec();
    (geom, user)
}

/// Wrap a rule as a device [`KernelBody`]. Buffer convention: one buffer
/// per input in declaration order, then the output buffer **sized to the
/// launch's `[row0, row1)` row range**, which the kernel writes in place
/// while reading its inputs in place (so the output buffer cannot also be
/// an input: it reads as empty for the duration of the launch).
#[must_use]
pub fn make_kernel_body(rule: Arc<StencilRule>, local_memory: bool) -> Arc<dyn KernelBody> {
    Arc::new(move |bufs: &mut BufferTable, launch: &KernelLaunch| -> Result<(), GpuError> {
        let (geom, user) = decode_scalars(&launch.scalars);
        // The output buffer follows the *matrix* arguments (a rule may
        // declare several reads of the same matrix).
        let out_id = launch.buffers[geom.in_dims.len()];
        bufs.with_output(out_id, |bufs, out| {
            let mut inputs: Vec<RawInput<'_>> = Vec::with_capacity(geom.in_dims.len());
            for (k, &(w, h)) in geom.in_dims.iter().enumerate() {
                let data = bufs.get(launch.buffers[k])?.data();
                if data.len() != w * h {
                    return Err(GpuError::SizeMismatch { expected: w * h, actual: data.len() });
                }
                inputs.push((data, w, h));
            }
            if out.len() != geom.items() {
                return Err(GpuError::SizeMismatch { expected: geom.items(), actual: out.len() });
            }
            if local_memory {
                run_tiled(&rule, &inputs, &user, out, &geom);
            } else {
                run_global(&rule, &inputs, &user, out, &geom);
            }
            Ok(())
        })?
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::StencilInput;

    /// 1D horizontal box blur of width `k` (scalar 0), kernel-free.
    fn blur_rule(k: usize) -> StencilRule {
        StencilRule {
            name: "blur_rows".into(),
            inputs: vec![StencilInput { index: 0, access: AccessPattern::Stencil { w: k, h: 1 } }],
            flops_per_output: 2.0 * k as f64,
            body_c: "int k = (int)user_scalars[0];\nfor (int i = 0; i < k; i++) result += IN0(x + i, y);".into(),
            elem: Arc::new(|env, x, y| {
                let k = env.scalars[0] as usize;
                (0..k).map(|i| env.inputs[0].at(x + i, y)).sum()
            }),
            span: Span::PerCell { why: "the form the tests below compare a span with" },
            native_only_body: false,
            text: Default::default(),
        }
    }

    /// [`blur_rule`] with a span body that reads `reach` columns per tap
    /// row: `out.len()` is what the declared box allows.
    fn blur_rule_with_span(k: usize, reach: fn(usize) -> usize) -> StencilRule {
        StencilRule {
            span: Span::Rows(Arc::new(move |env, x0, y, out| {
                let k = env.scalars[0] as usize;
                out.fill(crate::stencil::sum_identity());
                for i in 0..k {
                    let taps = env.inputs[0].row_span(y, x0 + i, reach(out.len()));
                    for (o, &v) in out.iter_mut().zip(taps) {
                        *o += v;
                    }
                }
            })),
            ..blur_rule(k)
        }
    }

    fn geom(out_w: usize, out_h: usize, in_w: usize, in_h: usize, ls: usize) -> Geometry {
        Geometry { out_w, out_h, row0: 0, row1: out_h, in_dims: vec![(in_w, in_h)], local_size: ls }
    }

    #[test]
    fn global_and_tiled_execution_agree() {
        let rule = blur_rule(3);
        let in_w = 10;
        let in_h = 6;
        let input: Vec<f64> = (0..in_w * in_h).map(|i| i as f64).collect();
        let g = geom(in_w - 2, in_h, in_w, in_h, 32);
        let mut a = vec![0.0; g.out_w * g.out_h];
        let mut b = vec![0.0; g.out_w * g.out_h];
        run_global(&rule, &[(&input, in_w, in_h)], &[3.0], &mut a, &g);
        run_tiled(&rule, &[(&input, in_w, in_h)], &[3.0], &mut b, &g);
        assert_eq!(a, b, "scratchpad staging must not change results");
        // Spot check: out[0,0] = in[0]+in[1]+in[2].
        assert_eq!(a[0], 0.0 + 1.0 + 2.0);
    }

    #[test]
    fn row_range_restricts_computation() {
        let rule = blur_rule(3);
        let in_w = 8;
        let in_h = 4;
        let input: Vec<f64> = (0..in_w * in_h).map(|i| (i / in_w) as f64).collect();
        let mut g = geom(in_w - 2, in_h, in_w, in_h, 16);
        g.row0 = 1;
        g.row1 = 3;
        // The launch's rows, as the band of a whole matrix they are.
        let mut out = vec![-1.0; g.out_w * g.out_h];
        for run in [run_global, run_tiled] {
            let band = &mut out[g.row0 * g.out_w..g.row1 * g.out_w];
            run(&rule, &[(&input, in_w, in_h)], &[3.0], band, &g);
            assert_eq!(out[0], -1.0, "row 0 untouched");
            assert_eq!(out[g.out_w], 3.0, "row 1 computed from input row 1");
            assert_eq!(out[3 * g.out_w - 1], 6.0, "row 2 computed from input row 2");
            assert_eq!(out[3 * g.out_w], -1.0, "row 3 untouched");
        }
    }

    #[test]
    #[should_panic(expected = "the launch's row range")]
    fn a_whole_matrix_is_not_a_row_range() {
        let mut g = geom(6, 4, 8, 4, 16);
        g.row0 = 1;
        run_global(&blur_rule(3), &[(&[0.0; 32], 8, 4)], &[3.0], &mut [0.0; 24], &g);
    }

    #[test]
    fn span_form_matches_elem_over_full_and_tile_views() {
        let rule = blur_rule_with_span(3, |len| len);
        let (in_w, in_h) = (45, 9);
        let input: Vec<f64> = (0..in_w * in_h).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        // 43 columns: two whole 16-wide tiles and a ragged third; rows 2..7
        // of 9: a band that starts and ends inside the matrix.
        let mut g = geom(in_w - 2, in_h, in_w, in_h, 48);
        (g.row0, g.row1) = (2, 7);
        crate::stencil::assert_span_matches_elem(&rule, &[(&input, in_w, in_h)], &[3.0], &g);
    }

    #[test]
    #[should_panic(expected = "outside staged tile")]
    fn span_reading_one_column_past_its_staged_tile_panics_like_at() {
        let rule = blur_rule_with_span(3, |len| len + 1);
        let (in_w, in_h) = (40, 4);
        let input = vec![1.0; in_w * in_h];
        let g = geom(in_w - 2, in_h, in_w, in_h, 16);
        run_tiled(&rule, &[(&input, in_w, in_h)], &[3.0], &mut vec![0.0; g.items()], &g);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "span gives")]
    fn debug_builds_hold_a_span_to_elem_at_both_ends() {
        let mut rule = blur_rule_with_span(3, |len| len);
        let Span::Rows(good) = rule.span else { panic!("defined above") };
        rule.span = Span::Rows(Arc::new(move |env, x0, y, out| {
            good(env, x0, y, out);
            *out.last_mut().expect("non-empty span") += 1.0;
        }));
        let g = geom(6, 2, 8, 2, 16);
        run_global(&rule, &[(&[1.0; 16], 8, 2)], &[3.0], &mut [0.0; 12], &g);
    }

    #[test]
    fn generated_source_has_expected_structure() {
        let rule = blur_rule(5);
        let plain = generate_source(&rule, false);
        assert!(plain.contains("__kernel void blur_rows("));
        assert!(plain.contains("#define IN0(x, y) in0[(y) * in0_w + (x)]"));
        assert!(!plain.contains("__local"), "plain variant has no scratchpad");
        let local = generate_source(&rule, true);
        assert!(local.contains("__kernel void blur_rows_localmem("));
        assert!(local.contains("__local double tile0["));
        assert!(local.contains("barrier(CLK_LOCAL_MEM_FENCE);"));
        assert!(local.contains("#define IN0(x, y) tile0["));
        assert_ne!(plain, local);
    }

    #[test]
    fn work_descriptor_moves_reuse_traffic_to_local() {
        let rule = blur_rule(9);
        let g = geom(100, 100, 108, 100, 64);
        let plain = kernel_work(&rule, &g, false);
        let local = kernel_work(&rule, &g, true);
        assert!(plain.redundant_read_bytes > 0.0);
        assert_eq!(local.redundant_read_bytes, 0.0);
        assert!(local.local_traffic_bytes > 0.0);
        assert!(local.local_fill_bytes > 0.0);
        assert!(local.uses_local_memory);
        assert_eq!(plain.work_items, 10_000.0);
        // Staged fill is far below the naive reuse traffic.
        assert!(local.local_fill_bytes < plain.redundant_read_bytes);
    }

    #[test]
    fn scalar_encoding_roundtrip() {
        let g = Geometry {
            out_w: 33,
            out_h: 17,
            row0: 2,
            row1: 9,
            in_dims: vec![(40, 17), (5, 1)],
            local_size: 128,
        };
        let enc = encode_scalars(&g, &[7.5, -1.0]);
        let (back, user) = decode_scalars(&enc);
        assert_eq!(back, g);
        assert_eq!(user, vec![7.5, -1.0]);
    }

    #[test]
    fn kernel_body_executes_against_buffers() {
        let rule = Arc::new(blur_rule(3));
        let body = make_kernel_body(Arc::clone(&rule), false);
        let mut bufs = BufferTable::new();
        let in_w = 6;
        let in_h = 2;
        let input: Vec<f64> = (0..in_w * in_h).map(|i| i as f64).collect();
        let in_id = bufs.alloc(in_w * in_h);
        bufs.write(in_id, &input).unwrap();
        let g = geom(in_w - 2, in_h, in_w, in_h, 8);
        let out_id = bufs.alloc(g.out_w * g.out_h);
        let launch = KernelLaunch {
            kernel: petal_gpu::compile::KernelHandle::from_raw(0),
            buffers: vec![in_id, out_id],
            scalars: encode_scalars(&g, &[3.0]),
            work: kernel_work(&rule, &g, false),
        };
        body.execute(&mut bufs, &launch).unwrap();
        let out = bufs.get(out_id).unwrap().data().to_vec();
        assert_eq!(out[0], 3.0); // 0+1+2
        assert_eq!(out[g.out_w], 21.0); // 6+7+8
    }

    #[test]
    fn kernel_body_writes_its_row_range_in_place() {
        let rule = Arc::new(blur_rule_with_span(3, |len| len));
        let (in_w, in_h) = (20, 5);
        let input: Vec<f64> = (0..in_w * in_h).map(|i| i as f64).collect();
        let mut g = geom(in_w - 2, in_h, in_w, in_h, 16);
        (g.row0, g.row1) = (1, 4);
        let mut want = vec![0.0; g.items()];
        run_global(&blur_rule(3), &[(&input, in_w, in_h)], &[3.0], &mut want, &g);
        for local_memory in [false, true] {
            let mut bufs = BufferTable::new();
            let in_id = bufs.alloc(in_w * in_h);
            bufs.write(in_id, &input).unwrap();
            let out_id = bufs.alloc(g.items());
            let mut launch = KernelLaunch {
                kernel: petal_gpu::compile::KernelHandle::from_raw(0),
                buffers: vec![in_id, out_id],
                scalars: encode_scalars(&g, &[3.0]),
                work: kernel_work(&rule, &g, local_memory),
            };
            let body = make_kernel_body(Arc::clone(&rule), local_memory);
            body.execute(&mut bufs, &launch).unwrap();
            assert_eq!(bufs.get(out_id).unwrap().data(), want);
            assert_eq!(bufs.get(in_id).unwrap().data(), input, "inputs are read in place");
            // Errors are what they were, and leave the output buffer whole.
            let whole = bufs.alloc(g.out_w * g.out_h);
            launch.buffers[1] = whole;
            assert_eq!(
                body.execute(&mut bufs, &launch).unwrap_err(),
                GpuError::SizeMismatch { expected: g.items(), actual: g.out_w * g.out_h }
            );
            assert_eq!(bufs.get(whole).unwrap().len(), g.out_w * g.out_h);
            launch.buffers = vec![out_id, out_id];
            assert_eq!(
                body.execute(&mut bufs, &launch).unwrap_err(),
                GpuError::SizeMismatch { expected: in_w * in_h, actual: 0 },
                "a launch cannot read the buffer it writes"
            );
        }
    }

    #[test]
    fn tile_geometry_prefers_16_wide_rows() {
        let g = geom(100, 50, 100, 50, 128);
        assert_eq!(g.tile(), (16, 8));
        let g = geom(100, 50, 100, 50, 7);
        assert_eq!(g.tile(), (7, 1));
        let g = geom(100, 50, 100, 50, 128);
        assert_eq!(g.groups(), 7 * 7);
    }
}
