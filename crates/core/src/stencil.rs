//! Data-parallel rules and the static analyses that map them to OpenCL.
//!
//! A [`StencilRule`] is the paper's elementwise rule (`Out.cell(x,y) from
//! (In.region(...))`): for every output cell it reads declared regions of
//! its inputs and computes one value. The declared [`AccessPattern`] drives
//! the three compiler phases of §3.1:
//!
//! 1. **dependency analysis** — [`opencl_mappability`]: sequential and
//!    data-parallel patterns map to OpenCL kernels; wavefront and
//!    loop-carried patterns are rejected (as in the paper's implementation);
//! 2. **code conversion** — `petal_core::codegen` turns accepted rules into
//!    kernel source + functional bodies;
//! 3. **local-memory synthesis** — [`local_memory_applicable`]: when the
//!    bounding box is a constant region larger than one cell, a scratchpad
//!    variant with a cooperative load phase is generated as an additional
//!    choice.

use crate::codegen::{entry_name, generate_source, run_global, run_tiled, Geometry, RawInput};
use petal_gpu::compile::KernelText;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// How a rule's output cell depends on an input matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// `out[y][x]` reads `in[y][x]` only (bounding box 1×1).
    Point,
    /// `out[y][x]` reads the `w × h` box anchored at `(x, y)`
    /// (e.g. convolution; bounding box constant and > 1).
    Stencil {
        /// Box width (columns).
        w: usize,
        /// Box height (rows).
        h: usize,
    },
    /// `out[y][x]` reads all of row `y` (e.g. the A operand of matmul).
    Row,
    /// `out[y][x]` reads all of column `x` (e.g. the B operand of matmul).
    Column,
    /// Arbitrary affine gathers (e.g. the XOR-partner reads of bitonic
    /// sort). Mappable to OpenCL, but no local-memory variant.
    Gather,
    /// Every output cell reads the whole (small) input — broadcast data
    /// such as convolution coefficients. Staged wholesale into local memory
    /// when another input triggers the scratchpad variant.
    All,
    /// Whole-input access with a loop-carried dependency (e.g. a forward
    /// sweep). Not data parallel.
    Sequential,
    /// Diagonal wavefront dependencies — "more complex parallel patterns,
    /// such as wavefront parallelism, can not be \[mapped\] in our current
    /// implementation" (§3.1).
    Wavefront,
}

impl AccessPattern {
    /// Input elements read per output cell, given the input width `in_w`
    /// and height `in_h` (for whole-row/column patterns).
    #[must_use]
    pub fn reads_per_output(&self, in_w: usize, in_h: usize) -> f64 {
        match self {
            AccessPattern::Point => 1.0,
            AccessPattern::Stencil { w, h } => (w * h) as f64,
            AccessPattern::Row => in_w as f64,
            AccessPattern::Column => in_h as f64,
            AccessPattern::Gather => 2.0,
            AccessPattern::All => (in_w * in_h) as f64,
            AccessPattern::Sequential | AccessPattern::Wavefront => (in_w * in_h) as f64,
        }
    }

    /// The constant bounding box `(w, h)` of this access, when one exists.
    #[must_use]
    pub fn bounding_box(&self) -> Option<(usize, usize)> {
        match self {
            AccessPattern::Point => Some((1, 1)),
            AccessPattern::Stencil { w, h } => Some((*w, *h)),
            _ => None,
        }
    }
}

/// Why a rule cannot be converted to an OpenCL kernel (phase 1/2 rejection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenClReject {
    /// The dependency analysis found a loop-carried (sequential-within-rule)
    /// dependency.
    SequentialDependency,
    /// Wavefront parallelism is not supported by the current conversion.
    WavefrontDependency,
    /// The rule body contains constructs with no OpenCL equivalent (inline
    /// native code, external library calls — §3.1 phase 2).
    NativeConstruct,
}

impl fmt::Display for OpenClReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenClReject::SequentialDependency => write!(f, "loop-carried dependency"),
            OpenClReject::WavefrontDependency => write!(f, "wavefront parallelism unsupported"),
            OpenClReject::NativeConstruct => write!(f, "body contains native-only constructs"),
        }
    }
}

/// Phase-1 dependency analysis: can this rule's iteration pattern execute
/// under the OpenCL model?
///
/// # Errors
/// The reason for rejection, mirroring §3.1.
pub fn opencl_mappability(inputs: &[StencilInput]) -> Result<(), OpenClReject> {
    for i in inputs {
        match i.access {
            AccessPattern::Sequential => return Err(OpenClReject::SequentialDependency),
            AccessPattern::Wavefront => return Err(OpenClReject::WavefrontDependency),
            _ => {}
        }
    }
    Ok(())
}

/// Phase-3 analysis: a local-memory (scratchpad) variant exists exactly when
/// some input's bounding box is a constant region larger than one cell —
/// "if the size of the bounding box is one, there is no need to copy the
/// data into local memory" (§3.1).
#[must_use]
pub fn local_memory_applicable(inputs: &[StencilInput]) -> bool {
    inputs.iter().any(|i| match i.access.bounding_box() {
        Some((w, h)) => w * h > 1,
        None => false,
    })
}

/// One declared input of a stencil rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilInput {
    /// Position in the invocation's input-matrix list.
    pub index: usize,
    /// Declared access pattern.
    pub access: AccessPattern,
}

/// Read-only view over an input during functional kernel execution.
///
/// A `Full` view exposes the entire matrix; a `Tile` view exposes only the
/// staged scratchpad region and *panics on out-of-tile access* — which makes
/// the generated cooperative-load bounds an executable assertion.
#[derive(Debug)]
pub enum View<'a> {
    /// Whole-matrix access (global-memory variant).
    Full {
        /// Row-major data.
        data: &'a [f64],
        /// Columns.
        cols: usize,
        /// Rows.
        rows: usize,
    },
    /// Scratchpad tile staged by the cooperative load phase.
    Tile {
        /// Tile contents (row-major, tile-local).
        data: Vec<f64>,
        /// Global column of tile element (0,0).
        x0: usize,
        /// Global row of tile element (0,0).
        y0: usize,
        /// Tile columns.
        cols: usize,
        /// Tile rows.
        rows: usize,
    },
}

impl View<'_> {
    /// Read the element at *global* coordinates `(x, y)`.
    ///
    /// # Panics
    /// Panics when the coordinate lies outside the view — for tiles this
    /// means the rule body read outside its declared bounding box.
    #[must_use]
    pub fn at(&self, x: usize, y: usize) -> f64 {
        match self {
            View::Full { data, cols, rows } => {
                assert!(x < *cols && y < *rows, "read ({x},{y}) outside {cols}x{rows} input");
                data[y * cols + x]
            }
            View::Tile { data, x0, y0, cols, rows } => {
                assert!(
                    x >= *x0 && y >= *y0 && x - x0 < *cols && y - y0 < *rows,
                    "read ({x},{y}) outside staged tile [{x0}..{},{y0}..{}) — \
                     rule body violates its declared bounding box",
                    x0 + cols,
                    y0 + rows
                );
                data[(y - y0) * cols + (x - x0)]
            }
        }
    }

    /// Read the `len` elements of row `y` starting at *global* column `x0`
    /// as one slice — the read span bodies are built on.
    ///
    /// # Panics
    /// Panics when any element of the span lies outside the view, exactly
    /// as [`View::at`] would on that element: for tiles the cooperative-load
    /// bounds stay an executable assertion, now over whole spans.
    #[must_use]
    pub fn row_span(&self, y: usize, x0: usize, len: usize) -> &[f64] {
        match self {
            View::Full { data, cols, rows } => {
                assert!(
                    x0 + len <= *cols && y < *rows,
                    "read ({x0}..{},{y}) outside {cols}x{rows} input",
                    x0 + len
                );
                &data[y * cols + x0..][..len]
            }
            View::Tile { data, x0: tx0, y0, cols, rows } => {
                assert!(
                    x0 >= *tx0 && y >= *y0 && x0 - tx0 + len <= *cols && y - y0 < *rows,
                    "read ({x0}..{},{y}) outside staged tile [{tx0}..{},{y0}..{}) — \
                     rule body violates its declared bounding box",
                    x0 + len,
                    tx0 + cols,
                    y0 + rows
                );
                &data[(y - y0) * cols + (x0 - tx0)..][..len]
            }
        }
    }

    /// Width of the underlying *global* input (for Row/Column loops).
    #[must_use]
    pub fn width(&self) -> usize {
        match self {
            View::Full { cols, .. } | View::Tile { cols, .. } => *cols,
        }
    }

    /// Height of the underlying *global* input.
    #[must_use]
    pub fn height(&self) -> usize {
        match self {
            View::Full { rows, .. } | View::Tile { rows, .. } => *rows,
        }
    }
}

/// Environment handed to a rule body for one output cell.
#[derive(Debug)]
pub struct StencilEnv<'a> {
    /// One view per declared input, in declaration order.
    pub inputs: &'a [View<'a>],
    /// Scalar parameters (kernel widths, sizes, constants).
    pub scalars: &'a [f64],
}

/// Rule body: computes the value of output cell `(x, y)`.
pub type ElemFn = Arc<dyn Fn(&StencilEnv<'_>, usize, usize) -> f64 + Send + Sync>;

/// Span body `(env, x0, y, out)`: computes the `out.len()` cells of output
/// row `y` starting at column `x0` in one call (see [`Span::Rows`]).
pub type SpanFn = Arc<dyn Fn(&StencilEnv<'_>, usize, usize, &mut [f64]) + Send + Sync>;

/// How the functional simulation computes a row of a rule's cells. Every
/// rule states the decision (there is no default): a rule that runs cell by
/// cell pays a `dyn` call and asserted reads per cell, and says why in its
/// own source.
#[derive(Clone)]
pub enum Span {
    /// A row-at-a-time form of `elem`: one call per output row (or per tile
    /// row under the scratchpad variant). Contract: after
    /// `span(env, x0, y, out)`, `out[i]` equals `elem(env, x0 + i, y)` **bit
    /// for bit** for every `i` — same terms, same order, same starting
    /// value per cell; only independent cells may be interleaved. It reads
    /// inputs through [`View::row_span`] (or [`View::at`]) only, so a read
    /// outside a staged tile still panics. Debug builds spot-check both ends
    /// of every span against `elem`; [`assert_span_matches_elem`] checks
    /// every cell.
    Rows(SpanFn),
    /// `elem`, one call per cell, and why this rule has no row form.
    PerCell { why: &'static str },
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Rows(_) => f.write_str("Rows"),
            Span::PerCell { why } => f.debug_struct("PerCell").field("why", why).finish(),
        }
    }
}

/// What `Iterator::sum::<f64>()` starts from — the value a span body must
/// give every cell before the first term when `elem` is written with `sum()`
/// (`-0.0` since Rust 1.83, `0.0` before: asked of `Sum`, not assumed).
#[must_use]
pub fn sum_identity() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// `out[i] += a * xs[i]`: the step span bodies are built from. Each lane is
/// one cell's own accumulator taking its next term, so a body that issues
/// these steps in `elem`'s term order computes `elem`'s bits however wide
/// the loop is vectorised (no FMA, no reassociation: rustc keeps strict
/// IEEE semantics).
pub fn saxpy(out: &mut [f64], a: f64, xs: &[f64]) {
    for (o, &x) in out.iter_mut().zip(xs) {
        *o += a * x;
    }
}

/// A rule's generated kernel text, one cell per variant (global memory,
/// `_localmem`), filled the first time that variant is lowered
/// ([`StencilRule::kernel_text`]).
///
/// The text is a function of the rule's other fields, so a copy of a rule
/// does not take it along: `clone()` yields empty cells, so a rebuild from
/// a clone ([`StencilRule::per_cell`], `StencilRule { body_c, ..rule.clone() }`)
/// can never carry text generated from the fields it replaced.
#[derive(Debug, Default)]
pub struct KernelTexts([OnceLock<KernelText>; 2]);

impl Clone for KernelTexts {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// A data-parallel rule (the paper's elementwise `Rule`).
///
/// The body appears three times: [`body_c`](Self::body_c) is the OpenCL C
/// text (hashed, priced, never executed); [`elem`](Self::elem) is the
/// functional definition of one output cell; [`span`](Self::span) says
/// whether a row of cells is computed per call, by a body that must
/// reproduce `elem` bit for bit, or cell by cell. Costs (`codegen::kernel_work`, `codegen::cpu_work`) come from
/// the declared [`inputs`](Self::inputs) and
/// [`flops_per_output`](Self::flops_per_output) alone, so which form the
/// host runs never reaches virtual time.
#[derive(Clone)]
pub struct StencilRule {
    /// Rule name (becomes the kernel entry point).
    pub name: String,
    /// Declared inputs with access patterns.
    pub inputs: Vec<StencilInput>,
    /// Arithmetic per output cell, for the cost model.
    pub flops_per_output: f64,
    /// The C body emitted into generated OpenCL source. Written against the
    /// `INk(x, y)` macros and assigning `result` (see `codegen`).
    pub body_c: String,
    /// Functional implementation, semantically identical to `body_c`: the
    /// **definition** of the rule's value at one cell, and the oracle every
    /// other form is checked against.
    pub elem: ElemFn,
    /// How the functional simulation runs the rule: a row-at-a-time form
    /// of `elem`, or `elem` cell by cell and why.
    pub span: Span,
    /// True when the body contains constructs OpenCL cannot express
    /// (phase-2 rejection even if the pattern is data parallel).
    pub native_only_body: bool,
    /// The generated kernel text, empty (`Default::default()`) until the
    /// rule is first lowered to a device. A rule is built once and shared
    /// (`Arc`) by every step and trial that uses it, so the text is
    /// generated once per rule; change a field only on a `clone()`.
    pub text: KernelTexts,
}

impl fmt::Debug for StencilRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StencilRule")
            .field("name", &self.name)
            .field("inputs", &self.inputs)
            .field("flops_per_output", &self.flops_per_output)
            .field("span", &self.span)
            .field("native_only_body", &self.native_only_body)
            .finish_non_exhaustive()
    }
}

impl StencilRule {
    /// The kernel text of one variant — entry-point name, OpenCL C source
    /// and source hash, exactly what [`generate_source`] and
    /// `petal_gpu::compile::source_hash` give for this rule — generated on
    /// the first call and shared from then on.
    pub fn kernel_text(&self, local_memory: bool) -> &KernelText {
        self.text.0[usize::from(local_memory)].get_or_init(|| {
            KernelText::new(&entry_name(self, local_memory), &generate_source(self, local_memory))
        })
    }

    /// This rule run cell by cell: a clone (so it carries no generated
    /// kernel text) whose span is taken away, every other field kept — the
    /// `elem` oracle a span body is compared against, and the one way to
    /// derive a spanless rule from an existing one.
    #[must_use]
    pub fn per_cell(&self) -> StencilRule {
        StencilRule { span: Span::PerCell { why: "the `elem` oracle" }, ..self.clone() }
    }

    /// Full mappability verdict (phases 1 and 2 of §3.1).
    ///
    /// # Errors
    /// The first rejection encountered.
    pub fn opencl_verdict(&self) -> Result<(), OpenClReject> {
        opencl_mappability(&self.inputs)?;
        if self.native_only_body {
            return Err(OpenClReject::NativeConstruct);
        }
        Ok(())
    }

    /// Whether the scratchpad variant can be synthesized (phase 3).
    #[must_use]
    pub fn has_local_memory_variant(&self) -> bool {
        self.opencl_verdict().is_ok() && local_memory_applicable(&self.inputs)
    }

    /// Union bounding box over all inputs that have one, `(w, h)`.
    #[must_use]
    pub fn union_bounding_box(&self) -> (usize, usize) {
        let mut bw = 1;
        let mut bh = 1;
        for i in &self.inputs {
            if let Some((w, h)) = i.access.bounding_box() {
                bw = bw.max(w);
                bh = bh.max(h);
            }
        }
        (bw, bh)
    }
}

/// The span oracle: run `rule` over `geom` with its span body and again
/// with the span removed (so `elem` computes every cell), over `Full`
/// views ([`run_global`]) and over the staged `Tile` views of the
/// scratchpad variant ([`run_tiled`]), and compare every cell by `to_bits`.
///
/// # Panics
/// Panics when the rule defines no span, or names the first cell whose
/// bits differ (an unwritten cell differs: outputs start as a NaN no
/// arithmetic produces).
pub fn assert_span_matches_elem(
    rule: &StencilRule,
    inputs: &[RawInput<'_>],
    scalars: &[f64],
    geom: &Geometry,
) {
    assert!(matches!(rule.span, Span::Rows(_)), "rule '{}' defines no span body", rule.name);
    let oracle = rule.per_cell();
    let unwritten = f64::from_bits(0x7ff8_dead_beef_0000);
    type Run = fn(&StencilRule, &[RawInput<'_>], &[f64], &mut [f64], &Geometry);
    for (views, run) in [("Full", run_global as Run), ("Tile", run_tiled as Run)] {
        let mut want = vec![unwritten; geom.items()];
        let mut got = want.clone();
        run(&oracle, inputs, scalars, &mut want, geom);
        run(rule, inputs, scalars, &mut got, geom);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits(),
                "rule '{}', {views} views, cell ({}, {}): span gives {g:e} ({:#018x}), \
                 elem gives {w:e} ({:#018x})",
                rule.name,
                i % geom.out_w,
                geom.row0 + i / geom.out_w,
                g.to_bits(),
                w.to_bits()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(patterns: &[AccessPattern], native: bool) -> StencilRule {
        StencilRule {
            name: "t".into(),
            inputs: patterns
                .iter()
                .enumerate()
                .map(|(i, &access)| StencilInput { index: i, access })
                .collect(),
            flops_per_output: 1.0,
            body_c: "result = 0.0;".into(),
            elem: Arc::new(|_, _, _| 0.0),
            span: Span::PerCell { why: "a test rule that is never run" },
            native_only_body: native,
            text: Default::default(),
        }
    }

    #[test]
    fn data_parallel_patterns_map_to_opencl() {
        for p in [
            AccessPattern::Point,
            AccessPattern::Stencil { w: 5, h: 5 },
            AccessPattern::Row,
            AccessPattern::Column,
            AccessPattern::Gather,
        ] {
            assert!(rule(&[p], false).opencl_verdict().is_ok(), "{p:?}");
        }
    }

    #[test]
    fn sequential_and_wavefront_are_rejected() {
        assert_eq!(
            rule(&[AccessPattern::Sequential], false).opencl_verdict(),
            Err(OpenClReject::SequentialDependency)
        );
        assert_eq!(
            rule(&[AccessPattern::Wavefront], false).opencl_verdict(),
            Err(OpenClReject::WavefrontDependency)
        );
    }

    #[test]
    fn native_bodies_are_rejected_in_phase_two() {
        assert_eq!(
            rule(&[AccessPattern::Point], true).opencl_verdict(),
            Err(OpenClReject::NativeConstruct)
        );
    }

    #[test]
    fn kernel_text_is_generated_once_per_rule_and_never_cloned() {
        use petal_gpu::compile::source_hash;
        let lowered = rule(&[AccessPattern::Stencil { w: 3, h: 1 }], false);
        for local_memory in [false, true] {
            let text = lowered.kernel_text(local_memory);
            assert!(std::ptr::eq(text, lowered.kernel_text(local_memory)), "one text per variant");
            assert_eq!(text.name(), entry_name(&lowered, local_memory));
            assert_eq!(text.source(), generate_source(&lowered, local_memory));
            assert_eq!(text.source_hash(), source_hash(text.source()));
        }
        assert_ne!(lowered.kernel_text(false), lowered.kernel_text(true));
        // A rebuild from a clone of a lowered rule gets text from its own
        // fields, not the text its donor had already generated.
        let edited = StencilRule { body_c: "result = 1.0;".into(), ..lowered.clone() };
        let text = edited.kernel_text(false);
        assert_ne!(text.source_hash(), lowered.kernel_text(false).source_hash());
        assert_eq!(text.source(), generate_source(&edited, false));
    }

    #[test]
    fn per_cell_strips_the_span_keeps_every_other_field_and_carries_no_text() {
        let lowered = StencilRule {
            span: Span::Rows(Arc::new(|_, _, _, out| out.fill(0.0))),
            ..rule(&[AccessPattern::Stencil { w: 3, h: 1 }, AccessPattern::All], true)
        };
        let _ = (lowered.kernel_text(false), lowered.kernel_text(true));
        let stripped = lowered.per_cell();
        assert!(matches!(stripped.span, Span::PerCell { .. }));
        assert_eq!(stripped.name, lowered.name);
        assert_eq!(stripped.inputs, lowered.inputs);
        assert_eq!(stripped.flops_per_output.to_bits(), lowered.flops_per_output.to_bits());
        assert_eq!(stripped.body_c, lowered.body_c);
        assert!(Arc::ptr_eq(&stripped.elem, &lowered.elem));
        assert_eq!(stripped.native_only_body, lowered.native_only_body);
        assert!(stripped.text.0.iter().all(|cell| cell.get().is_none()), "text is per object");
        assert!(lowered.text.0.iter().all(|cell| cell.get().is_some()), "the donor keeps its own");
        // The decision is what `Debug` shows of the span.
        assert!(format!("{lowered:?}").contains("span: Rows"));
        assert!(format!("{stripped:?}").contains("span: PerCell { why: \"the `elem` oracle\" }"));
    }

    #[test]
    fn local_memory_needs_bounding_box_greater_than_one() {
        assert!(!rule(&[AccessPattern::Point], false).has_local_memory_variant());
        assert!(rule(&[AccessPattern::Stencil { w: 3, h: 1 }], false).has_local_memory_variant());
        assert!(!rule(&[AccessPattern::Row], false).has_local_memory_variant());
        assert!(!rule(&[AccessPattern::Gather], false).has_local_memory_variant());
        // A 1x1 "stencil" is a point: no staging either.
        assert!(!rule(&[AccessPattern::Stencil { w: 1, h: 1 }], false).has_local_memory_variant());
    }

    #[test]
    fn union_bounding_box_covers_all_inputs() {
        let r = rule(
            &[AccessPattern::Stencil { w: 3, h: 1 }, AccessPattern::Stencil { w: 1, h: 7 }],
            false,
        );
        assert_eq!(r.union_bounding_box(), (3, 7));
    }

    #[test]
    fn reads_per_output_by_pattern() {
        assert_eq!(AccessPattern::Point.reads_per_output(10, 10), 1.0);
        assert_eq!(AccessPattern::Stencil { w: 3, h: 3 }.reads_per_output(10, 10), 9.0);
        assert_eq!(AccessPattern::Row.reads_per_output(10, 20), 10.0);
        assert_eq!(AccessPattern::Column.reads_per_output(10, 20), 20.0);
    }

    #[test]
    fn tile_view_panics_outside_bounding_box() {
        let v = View::Tile { data: vec![0.0; 4], x0: 2, y0: 2, cols: 2, rows: 2 };
        assert_eq!(v.at(3, 3), 0.0);
        let r = std::panic::catch_unwind(|| v.at(0, 0));
        assert!(r.is_err(), "out-of-tile read must panic");
    }

    #[test]
    fn row_span_reads_what_at_reads_and_panics_where_at_panics() {
        let data: Vec<f64> = (0..12).map(f64::from).collect();
        let full = View::Full { data: &data, cols: 4, rows: 3 };
        // The same matrix's columns 1..4 of rows 1..3, staged.
        let tile = View::Tile {
            data: vec![5.0, 6.0, 7.0, 9.0, 10.0, 11.0],
            x0: 1,
            y0: 1,
            cols: 3,
            rows: 2,
        };
        for v in [&full, &tile] {
            assert_eq!(v.row_span(2, 1, 3), [v.at(1, 2), v.at(2, 2), v.at(3, 2)]);
            assert!(v.row_span(1, 4, 0).is_empty(), "an empty span at the edge reads nothing");
        }
        for (y, x0, len) in [(1, 0, 2), (0, 1, 1), (1, 2, 3), (3, 1, 1)] {
            let at =
                std::panic::catch_unwind(|| (x0..x0 + len).map(|x| tile.at(x, y)).sum::<f64>());
            let span = std::panic::catch_unwind(|| tile.row_span(y, x0, len).len());
            assert!(at.is_err() && span.is_err(), "({x0}..{},{y}) is outside the tile", x0 + len);
        }
        assert!(std::panic::catch_unwind(|| full.row_span(0, 2, 3).len()).is_err());
    }

    #[test]
    fn full_view_indexing() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = View::Full { data: &data, cols: 3, rows: 2 };
        assert_eq!(v.at(2, 1), 6.0);
        assert_eq!(v.width(), 3);
        assert_eq!(v.height(), 2);
    }
}
