//! The Sort benchmark (§6.2, Fig. 7d).
//!
//! "The benchmark includes 7 sorting algorithms: merge sort, parallel merge
//! sort, quick sort, insertion sort, selection sort, radix sort, and
//! bitonic sort ... The configuration defines a poly-algorithm that
//! combines these sort building blocks together into a hybrid sorting
//! algorithm." The `sort` selector is consulted at every recursive call
//! site with the *current region size*, so tuned configurations look like
//! Fig. 6's "2MS (PM) above 174762, then QS until 64294, then 4MS until
//! 341, then IS".
//!
//! Selector values: 0 = insertion, 1 = selection, 2 = quicksort,
//! 3 = radix, 4 = 2-way merge sort, 5 = 4-way merge sort, 6 = bitonic
//! (CPU); with OpenCL available, 7 = bitonic sort as a chain of OpenCL
//! kernels (the paper's hand-written *GPU-only Config* baseline). Merge
//! sorts switch to a two-task *parallel merge* (PM) above the
//! `merge_parallel_cutoff` tunable.

use crate::workload::random_vec;
use crate::Instance;
use petal_blas::Matrix;
use petal_core::plan::{NativeStep, Placement, PlanBuilder, StencilStep};
use petal_core::program::ChoiceSite;
use petal_core::stencil::{AccessPattern, Span, StencilInput, StencilRule};
use petal_core::{Config, MatrixId, Program, World};
use petal_gpu::buffer::Recycler;
use petal_gpu::cost::CpuWork;
use petal_gpu::profile::MachineProfile;
use petal_rt::{Charge, CpuCtx};
use std::sync::{Arc, OnceLock};

/// The smallest `n` that is an instance ([`Sort::try_new`]).
pub const MIN_N: usize = 16;

/// Everything a recursive sort task needs.
#[derive(Clone)]
struct SortParams {
    cfg: Arc<Config>,
    data: MatrixId,
    scratch: MatrixId,
    lo: usize,
    hi: usize,
}

/// The Sort benchmark over `n` doubles.
#[derive(Debug, Clone)]
pub struct Sort {
    n: usize,
    prepared: OnceLock<Prepared>,
}

/// What every instance of one `n` shares: the unsorted input (a plan
/// sorts it in place, so each world copies it on its first write), the
/// sorted answer and the GPU chain's rule.
#[derive(Debug, Clone)]
struct Prepared {
    values: Arc<Matrix>,
    expected: Arc<Vec<f64>>,
    bitonic: Arc<StencilRule>,
    /// Every trial's `World` is built on this, so its storage recycles.
    recycler: Arc<Recycler>,
}

impl Sort {
    /// New instance (the paper uses n = 2²⁰).
    ///
    /// # Errors
    /// When `n <` [`MIN_N`].
    pub fn try_new(n: usize) -> Result<Self, String> {
        crate::at_least("sort", n, MIN_N).map(|n| Sort { n, prepared: OnceLock::new() })
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
            let values = random_vec(self.n, -1e6, 1e6, 71);
            let mut expected = values.clone();
            expected.sort_by(f64::total_cmp);
            Prepared {
                values: Arc::new(Matrix::from_vec(1, self.n, values)),
                expected: Arc::new(expected),
                bitonic: Self::rule_bitonic(),
                recycler: Arc::default(),
            }
        })
    }

    /// One bitonic compare-exchange pass (`scalars = [j, k]`).
    fn rule_bitonic() -> Arc<StencilRule> {
        Arc::new(StencilRule {
            name: "bitonic_pass".into(),
            inputs: vec![StencilInput { index: 0, access: AccessPattern::Gather }],
            flops_per_output: 4.0,
            body_c: "int j = (int)user_scalars[0];\n\
                     int k = (int)user_scalars[1];\n\
                     int partner = x ^ j;\n\
                     double a = IN0(x, 0), b = IN0(partner, 0);\n\
                     int asc = ((x & k) == 0);\n\
                     int keep_small = (x < partner) == (asc != 0);\n\
                     result = keep_small ? fmin(a, b) : fmax(a, b);"
                .into(),
            elem: Arc::new(|env, x, _y| {
                let j = env.scalars[0] as usize;
                let k = env.scalars[1] as usize;
                let partner = x ^ j;
                let a = env.inputs[0].at(x, 0);
                let b = env.inputs[0].at(partner, 0);
                let asc = (x & k) == 0;
                let keep_small = (x < partner) == asc;
                if keep_small {
                    a.min(b)
                } else {
                    a.max(b)
                }
            }),
            // The same cell, reading the row as one slice: whatever `j`
            // is, both reads are plain slice reads.
            span: Span::Rows(Arc::new(|env, x0, _y, out| {
                let j = env.scalars[0] as usize;
                let k = env.scalars[1] as usize;
                let row = env.inputs[0].row_span(0, 0, env.inputs[0].width());
                for (x, o) in (x0..).zip(out) {
                    let partner = x ^ j;
                    let (a, b) = (row[x], row[partner]);
                    let keep_small = (x < partner) == ((x & k) == 0);
                    *o = if keep_small { a.min(b) } else { a.max(b) };
                }
            })),
            native_only_body: false,
            text: Default::default(),
        })
    }
}

impl crate::Benchmark for Sort {
    fn name(&self) -> &str {
        "Sort"
    }

    fn spec(&self) -> String {
        format!("sort n={}", self.n)
    }

    fn input_size(&self) -> u64 {
        self.n as u64
    }

    fn resized(&self, size: u64) -> Option<Box<dyn crate::Benchmark>> {
        Self::try_new(size as usize).map(crate::boxed).ok()
    }

    fn program(&self, _machine: &MachineProfile) -> Program {
        let mut p = Program::new("sort");
        p.add_site(ChoiceSite {
            name: "sort".into(),
            num_algs: 7,
            opencl: true,
            local_memory_variant: false,
            // The bitonic chain always runs whole stages on the device; no
            // fractional CPU/GPU split exists, so emitting `sort.gpu_ratio`
            // would be a dead tunable (petal-verify finding, fixed).
            fractional: false,
        });
        p.add_tunable("merge_parallel_cutoff", 1 << 15, 16, 1 << 24);
        p
    }

    fn dynamic_config_keys(&self) -> Vec<String> {
        // The CPU path is one opaque native step whose closure re-reads the
        // `sort` selector and the merge cutoff at every recursion level;
        // varying them changes behaviour without changing plan structure.
        vec!["sort".into(), "merge_parallel_cutoff".into()]
    }

    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        let n = self.n;
        let prepared = self.prepared();
        let mut world = World::on(Arc::clone(&prepared.recycler));
        let data = world.alloc_shared(Arc::clone(&prepared.values));
        let mut p = PlanBuilder::new();

        let top_choice = cfg.select("sort", n as u64);
        if top_choice == 7 && machine.has_opencl() {
            build_gpu_bitonic(&mut p, &mut world, machine, cfg, &prepared.bitonic, data, n);
        } else {
            let scratch = world.zeros(1, n);
            let params = SortParams { cfg: Arc::new(cfg.clone()), data, scratch, lo: 0, hi: n };
            p.native(
                NativeStep {
                    label: "sort_root".into(),
                    reads: vec![data],
                    writes: vec![data],
                    run: Box::new(move |w: &mut World, ctx| sort_step(w, ctx, &params)),
                },
                &[],
            );
        }
        p.mark_output(data);

        let expected = Arc::clone(&prepared.expected);
        let check = Box::new(move |w: &World| -> Result<(), String> {
            let got = w.get(data).as_slice();
            if got.len() != expected.len() {
                return Err("length changed".into());
            }
            for (i, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
                if g != e {
                    return Err(format!("index {i}: got {g}, want {e}"));
                }
            }
            Ok(())
        });
        Instance { world, plan: p.build(), check }
    }
}

// ---------------------------------------------------------------------------
// Recursive CPU poly-algorithm
// ---------------------------------------------------------------------------

/// One sort task: consult the selector for this region size, run a leaf in
/// place or spawn children plus a continuation (the Cilk-style pattern the
/// runtime's task model exists for).
fn sort_step(w: &mut World, ctx: &mut CpuCtx<World>, params: &SortParams) -> Charge {
    let SortParams { cfg, data, scratch: _, lo, hi } = params.clone();
    let m = hi - lo;
    if m <= 1 {
        return Charge::Work(CpuWork::new(1.0, 16.0));
    }
    // GPU bitonic (7) is only available at the top level; recursive call
    // sites degrade it to the CPU bitonic.
    let choice = cfg.select("sort", m as u64).min(6);
    match choice {
        1 => {
            sort_region(region_mut(w, data, lo, hi), selection_sort);
            Charge::Work(CpuWork::new(0.6 * (m * m) as f64, (m * 8) as f64))
        }
        2 if m >= 8 => {
            let slice = region_mut(w, data, lo, hi);
            let split = lo + partition(slice);
            let left = SortParams { lo, hi: split, ..params.clone() };
            let right = SortParams { lo: split + 1, hi, ..params.clone() };
            let c1 = ctx.spawn_cpu(move |w, ctx| sort_step(w, ctx, &left));
            let c2 = ctx.spawn_cpu(move |w, ctx| sort_step(w, ctx, &right));
            let join = ctx.spawn_cpu(|_, _| Charge::Work(CpuWork::new(1.0, 0.0)));
            ctx.depend(join, c1);
            ctx.depend(join, c2);
            ctx.set_continuation(join);
            Charge::Work(CpuWork::new(3.0 * m as f64, (m * 8) as f64))
        }
        3 => {
            sort_region(region_mut(w, data, lo, hi), radix_sort);
            Charge::Work(CpuWork::new(18.0 * m as f64, (m * 8 * 10) as f64))
        }
        4 | 5 if m >= 8 => {
            let ways = if choice == 4 { 2 } else { 4 };
            let mut children = Vec::with_capacity(ways);
            let mut bounds = Vec::with_capacity(ways + 1);
            for i in 0..=ways {
                bounds.push(lo + m * i / ways);
            }
            for i in 0..ways {
                let child = SortParams { lo: bounds[i], hi: bounds[i + 1], ..params.clone() };
                children.push(ctx.spawn_cpu(move |w, ctx| sort_step(w, ctx, &child)));
            }
            let merge_params = params.clone();
            let merge = ctx.spawn_cpu(move |w, ctx| merge_step(w, ctx, &merge_params, ways));
            for c in children {
                ctx.depend(merge, c);
            }
            ctx.set_continuation(merge);
            Charge::Work(CpuWork::new(2.0 * m as f64, 64.0))
        }
        6 => {
            sort_region(region_mut(w, data, lo, hi), bitonic_sort_cpu);
            let logn = (m as f64).log2().ceil().max(1.0);
            Charge::Work(CpuWork::new(2.0 * m as f64 * logn * logn, (m * 16) as f64))
        }
        _ => {
            // Insertion sort (and the base case for tiny quick/merge regions).
            sort_region(region_mut(w, data, lo, hi), insertion_sort);
            Charge::Work(CpuWork::new(0.3 * (m * m) as f64, (m * 8) as f64))
        }
    }
}

/// Merge `ways` sorted runs of `[lo, hi)`. Above the parallel-merge cutoff
/// a 2-way merge splits into two co-ranked half-merges (the paper's "PM").
fn merge_step(w: &mut World, ctx: &mut CpuCtx<World>, params: &SortParams, ways: usize) -> Charge {
    let SortParams { cfg, data, scratch, lo, hi } = params.clone();
    let m = hi - lo;
    let pm_cutoff = cfg.tunable_or("merge_parallel_cutoff", 1 << 15).max(16) as usize;
    if ways == 2 && m >= pm_cutoff {
        // Parallel merge: split the output range at its midpoint via
        // co-ranking, merge the two output halves as independent tasks.
        let mid = lo + m / 2;
        let p1 = params.clone();
        let t1 = ctx.spawn_cpu(move |w, _| half_merge(w, &p1, mid, true));
        let p2 = params.clone();
        let t2 = ctx.spawn_cpu(move |w, _| half_merge(w, &p2, mid, false));
        let copyback = ctx.spawn_cpu(move |w, _| {
            let merged = w.get(scratch).as_slice()[lo..hi].to_vec();
            region_mut(w, data, lo, hi).copy_from_slice(&merged);
            Charge::Work(CpuWork::new(m as f64, (m * 16) as f64))
        });
        ctx.depend(copyback, t1);
        ctx.depend(copyback, t2);
        ctx.set_continuation(copyback);
        return Charge::Work(CpuWork::new(64.0, 64.0));
    }
    // Sequential k-way merge: stage the runs in the scratch buffer, merge
    // them back into place.
    let mut staged = w.take_matrix(scratch);
    staged.as_mut_slice()[lo..hi].copy_from_slice(&w.get(data).as_slice()[lo..hi]);
    merge_runs(region_mut(w, data, lo, hi), &staged.as_slice()[lo..hi], ways);
    w.restore_matrix(scratch, staged);
    Charge::Work(CpuWork::new((ways * m) as f64, (m * 8 * 3) as f64))
}

/// Merge into `out` the `ways ≤ 4` sorted runs that `runs` is, cut evenly
/// as `sort_step` cut them. The smallest head by strict `<` goes next, so
/// among equal heads the lowest-numbered run's.
fn merge_runs(out: &mut [f64], runs: &[f64], ways: usize) {
    let m = runs.len();
    let bounds: [usize; 5] = std::array::from_fn(|i| m * i.min(ways) / ways);
    let mut cursors = bounds;
    for slot in out.iter_mut() {
        let mut best: Option<(usize, f64)> = None;
        for r in 0..ways {
            if cursors[r] < bounds[r + 1] {
                let v = runs[cursors[r]];
                if best.map_or(true, |(_, bv)| v < bv) {
                    best = Some((r, v));
                }
            }
        }
        let (r, v) = best.expect("total length preserved");
        cursors[r] += 1;
        *slot = v;
    }
}

/// Merge one half of the output range `[lo, hi)` into the scratch buffer.
fn half_merge(w: &mut World, params: &SortParams, mid_src: usize, lower: bool) -> Charge {
    let SortParams { data, scratch, lo, hi, .. } = params.clone();
    let m = hi - lo;
    let a: Vec<f64> = w.get(data).as_slice()[lo..mid_src].to_vec();
    let b: Vec<f64> = w.get(data).as_slice()[mid_src..hi].to_vec();
    let out_mid = m / 2;
    let (i0, j0, take) = if lower {
        let (i, j) = co_rank(out_mid, &a, &b);
        // Lower half merges the first `out_mid` outputs starting from (0,0)
        // — but computing the co-rank here validates the split.
        debug_assert_eq!(i + j, out_mid);
        (0, 0, out_mid)
    } else {
        let (i, j) = co_rank(out_mid, &a, &b);
        (i, j, m - out_mid)
    };
    let mut i = i0;
    let mut j = j0;
    let offset = if lower { 0 } else { out_mid };
    let out = region_mut(w, scratch, lo, hi);
    for t in 0..take {
        let v = if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        out[offset + t] = v;
    }
    Charge::Work(CpuWork::new(take as f64 * 2.0, (take * 24) as f64))
}

/// Co-ranking: find `(i, j)` with `i + j = k` splitting the merge of `a`
/// and `b` at output position `k`.
fn co_rank(k: usize, a: &[f64], b: &[f64]) -> (usize, usize) {
    let mut i = k.min(a.len());
    let mut j = k - i;
    let mut i_low = k.saturating_sub(b.len());
    loop {
        if i > 0 && j < b.len() && a[i - 1] > b[j] {
            let delta = (i - i_low).div_ceil(2);
            i -= delta;
            j += delta;
        } else if j > 0 && i < a.len() && b[j - 1] > a[i] {
            let delta = (k.min(a.len()) - i).div_ceil(2).max(1);
            i_low = i;
            i += delta.min(k.min(a.len()) - i);
            j = k - i;
        } else {
            return (i, j);
        }
    }
}

/// Mutable view of `data[lo..hi]`.
fn region_mut(w: &mut World, id: MatrixId, lo: usize, hi: usize) -> &mut [f64] {
    &mut w.get_mut(id).as_mut_slice()[lo..hi]
}

/// Whether `a` has exactly one sorted arrangement, bit for bit: no NaN
/// (unordered, so an algorithm's comparison sequence shows in where it
/// lands) and not both zeros (`-0.0 == 0.0`, so stability shows). Any other
/// two elements are either `<`-ordered or the same bits.
fn uniquely_ordered(a: &[f64]) -> bool {
    let (mut nan, mut pos_zero, mut neg_zero) = (false, false, false);
    for &x in a {
        nan |= x.is_nan();
        pos_zero |= x.to_bits() == 0.0f64.to_bits();
        neg_zero |= x.to_bits() == (-0.0f64).to_bits();
    }
    !(nan || pos_zero && neg_zero)
}

/// Sort a region in place to the bits `definition` would leave — the
/// body of every in-place leaf. The leaf's `Charge` prices `definition`;
/// the host only owes its result, and on a [`uniquely_ordered`] region
/// every correct sort leaves the same one, so the library's runs. Any
/// other region goes through `definition` itself. (Radix sort's key order
/// *is* `total_cmp`, so it would need no guard; it takes the same route
/// as the rest rather than one of its own.) Debug builds run `definition`
/// beside the route on every call.
fn sort_region(a: &mut [f64], definition: fn(&mut [f64])) {
    if !uniquely_ordered(a) {
        return definition(a);
    }
    let mut defined = if cfg!(debug_assertions) { a.to_vec() } else { Vec::new() };
    a.sort_unstable_by(f64::total_cmp);
    debug_assert!(
        {
            definition(&mut defined);
            petal_blas::same_bits(a, &defined)
        },
        "a sort leaf's route left other bits than its definition"
    );
}

fn insertion_sort(a: &mut [f64]) {
    for i in 1..a.len() {
        let v = a[i];
        let mut j = i;
        while j > 0 && a[j - 1] > v {
            a[j] = a[j - 1];
            j -= 1;
        }
        a[j] = v;
    }
}

fn selection_sort(a: &mut [f64]) {
    for i in 0..a.len() {
        let mut min = i;
        for j in i + 1..a.len() {
            if a[j] < a[min] {
                min = j;
            }
        }
        a.swap(i, min);
    }
}

/// Lomuto partition with median-of-three pivot; returns the pivot index.
fn partition(a: &mut [f64]) -> usize {
    let n = a.len();
    let mid = n / 2;
    // Median-of-three to the end.
    if a[0] > a[mid] {
        a.swap(0, mid);
    }
    if a[0] > a[n - 1] {
        a.swap(0, n - 1);
    }
    if a[mid] > a[n - 1] {
        a.swap(mid, n - 1);
    }
    a.swap(mid, n - 1);
    let pivot = a[n - 1];
    let mut store = 0;
    for i in 0..n - 1 {
        if a[i] < pivot {
            a.swap(i, store);
            store += 1;
        }
    }
    a.swap(store, n - 1);
    store
}

/// LSD radix sort on the order-preserving `u64` image of `f64`.
fn radix_sort(a: &mut [f64]) {
    fn key(x: f64) -> u64 {
        let bits = x.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits ^ (1 << 63)
        }
    }
    let mut keys: Vec<(u64, f64)> = a.iter().map(|&x| (key(x), x)).collect();
    let mut buf = vec![(0u64, 0.0f64); keys.len()];
    for pass in 0..8 {
        let shift = pass * 8;
        let mut counts = [0usize; 256];
        for &(k, _) in &keys {
            counts[((k >> shift) & 0xff) as usize] += 1;
        }
        let mut pos = [0usize; 256];
        let mut acc = 0;
        for (b, c) in counts.iter().enumerate() {
            pos[b] = acc;
            acc += c;
        }
        for &(k, v) in &keys {
            let b = ((k >> shift) & 0xff) as usize;
            buf[pos[b]] = (k, v);
            pos[b] += 1;
        }
        std::mem::swap(&mut keys, &mut buf);
    }
    for (slot, (_, v)) in a.iter_mut().zip(keys) {
        *slot = v;
    }
}

/// In-place sequential bitonic sort (pads internally to a power of two).
fn bitonic_sort_cpu(a: &mut [f64]) {
    let n = a.len().next_power_of_two();
    let mut v = Vec::with_capacity(n);
    v.extend_from_slice(a);
    v.resize(n, f64::INFINITY);
    let mut k = 2;
    while k <= n {
        let mut j = k / 2;
        while j >= 1 {
            for x in 0..n {
                let partner = x ^ j;
                if partner > x {
                    let asc = (x & k) == 0;
                    if (v[x] > v[partner]) == asc {
                        v.swap(x, partner);
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    a.copy_from_slice(&v[..a.len()]);
}

// ---------------------------------------------------------------------------
// GPU bitonic chain
// ---------------------------------------------------------------------------

/// Build the OpenCL bitonic plan: pad to a power of two, one kernel per
/// `(k, j)` pass ping-ponging two buffers, unpad at the end.
fn build_gpu_bitonic(
    p: &mut PlanBuilder,
    world: &mut World,
    machine: &MachineProfile,
    cfg: &Config,
    rule: &Arc<StencilRule>,
    data: MatrixId,
    n: usize,
) {
    let n_pad = n.next_power_of_two().max(2);
    let mut bufs = [world.zeros(1, n_pad), world.zeros(1, n_pad)];
    let pad_step = p.native(
        NativeStep {
            label: "bitonic_pad".into(),
            reads: vec![data],
            writes: vec![bufs[0]],
            run: Box::new(move |w: &mut World, _| {
                let mut v = w.get(data).as_slice().to_vec();
                v.resize(n_pad, f64::INFINITY);
                w.set(bufs[0], Matrix::from_vec(1, n_pad, v));
                Charge::Work(CpuWork::new(0.0, (n_pad * 16) as f64))
            }),
        },
        &[],
    );
    let max_wg = machine.gpu.as_ref().map_or(1, |g| g.max_work_group) as i64;
    let local_size = cfg.tunable_or("sort.local_size", 256).clamp(1, max_wg) as usize;
    let mut deps = vec![pad_step];
    let mut k = 2;
    while k <= n_pad {
        let mut j = k / 2;
        while j >= 1 {
            let s = p.stencil(
                StencilStep {
                    rule: Arc::clone(rule),
                    inputs: vec![bufs[0]],
                    output: bufs[1],
                    out_dims: (n_pad, 1),
                    user_scalars: vec![j as f64, k as f64],
                    placement: Placement::OpenCl { local_memory: false, local_size },
                },
                &deps,
            );
            bufs.swap(0, 1);
            deps = vec![s];
            j /= 2;
        }
        k *= 2;
    }
    p.native(
        NativeStep {
            label: "bitonic_unpad".into(),
            reads: vec![bufs[0]],
            writes: vec![data],
            run: Box::new(move |w: &mut World, ctx| {
                let extra = w.ensure_host(bufs[0], ctx.now());
                let v = w.get(bufs[0]).as_slice()[..n].to_vec();
                w.set(data, Matrix::from_vec(1, n, v));
                Charge::WorkPlusSecs(CpuWork::new(0.0, (n * 16) as f64), extra)
            }),
        },
        &deps,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{checked_trial, span_oracle};
    use crate::Benchmark;
    use petal_core::{Selector, Tunable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bitonic_span_matches_elem_bit_for_bit() {
        // Every pass of the n = 64 network. (No fill mixes +0.0 with -0.0:
        // `f64::min` may return either of that pair, so those bits are not
        // `elem`'s to define.)
        let n = 64;
        let mut k = 2;
        while k <= n {
            let mut j = k / 2;
            while j >= 1 {
                span_oracle::sweep(&Sort::rule_bitonic(), &[(n, 1)], &[j as f64, k as f64], (n, 1));
                j /= 2;
            }
            k *= 2;
        }
    }

    #[test]
    fn primitive_sorts_agree_with_std() {
        let mut reference = random_vec(500, -100.0, 100.0, 3);
        let original = reference.clone();
        reference.sort_by(f64::total_cmp);
        for f in [insertion_sort, selection_sort, radix_sort, bitonic_sort_cpu] {
            let mut v = original.clone();
            f(&mut v);
            assert_eq!(v, reference);
        }
    }

    /// The definitions behind the in-place leaves (selector values 0, 1, 3
    /// and 6), named.
    type Definition = fn(&mut [f64]);
    const DEFINITIONS: [(&str, Definition); 4] = [
        ("insertion", insertion_sort),
        ("selection", selection_sort),
        ("radix", radix_sort),
        ("bitonic", bitonic_sort_cpu),
    ];

    /// A region of one operand class: integers (so duplicates), with a
    /// quarter of the cells replaced by draws from `special`.
    fn region(len: usize, special: &[f64], seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| match special {
                [_, ..] if rng.gen_range(0..4) == 0 => special[rng.gen_range(0..special.len())],
                // (`+ 0.0`: a rounded -0.3 is -0.0, and signed zeros are a class of their own.)
                _ => rng.gen_range(-8.0f64..8.0).round() + 0.0,
            })
            .collect()
    }

    #[test]
    fn leaf_law_a_route_leaves_its_definitions_bits_on_every_region() {
        let nans = [f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_0000_0000_0001)];
        let classes: [(&str, &[f64]); 6] = [
            ("integers", &[]),
            ("signed zeros", &[0.0, -0.0]),
            ("infinities", &[f64::INFINITY, f64::NEG_INFINITY]),
            ("subnormals", &[5e-324, -5e-324, 1e-310, -1e-310]),
            ("NaNs", &nans),
            ("everything", &[-0.0, f64::INFINITY, 5e-324, f64::NAN]),
        ];
        let mut decisions = [0, 0];
        for len in (0..=70).chain([4096]) {
            let regions = classes.map(|(class, special)| (class, region(len, special, len as u64)));
            let uniform = ("uniform", random_vec(len, -1e6, 1e6, len as u64));
            for (class, v) in regions.into_iter().chain([uniform]) {
                // The guard, restated: no NaN, and not a zero of each sign.
                let holds = |bits: u64| v.iter().any(|x| x.to_bits() == bits);
                let both_zeros = holds(0.0f64.to_bits()) && holds((-0.0f64).to_bits());
                let unique = !(both_zeros || v.iter().any(|x| x.is_nan()));
                assert_eq!(uniquely_ordered(&v), unique, "{class}, length {len}");
                decisions[usize::from(unique)] += 1;
                for (name, definition) in DEFINITIONS {
                    if name == "selection" && len > 70 {
                        continue; // quadratic: the long region is for the rest
                    }
                    let (mut routed, mut defined) = (v.clone(), v.clone());
                    sort_region(&mut routed, definition);
                    definition(&mut defined);
                    assert!(
                        petal_blas::same_bits(&routed, &defined),
                        "{name} on {class}, length {len}"
                    );
                }
            }
        }
        assert!(decisions.iter().all(|&n| n > 100), "both sides of the guard: {decisions:?}");
    }

    #[test]
    fn leaf_law_the_guard_sends_what_an_algorithm_shows_in_to_the_definition() {
        // Where the definitions differ from each other and from the
        // library's `total_cmp` order, the route is the definition's.
        let zeros = [1.0, 0.0, -0.0, -1.0];
        let nans = [3.0, f64::NAN, 1.0, 2.0];
        for region in [zeros, nans] {
            assert!(!uniquely_ordered(&region));
            let mut by_total_cmp = region;
            by_total_cmp.sort_unstable_by(f64::total_cmp);
            let (mut routed, mut defined) = (region, region);
            sort_region(&mut routed, insertion_sort);
            insertion_sort(&mut defined);
            assert!(petal_blas::same_bits(&routed, &defined));
            assert!(!petal_blas::same_bits(&routed, &by_total_cmp), "{region:?} tells them apart");
        }
        // Radix sort's key order is `total_cmp`: no region tells them apart.
        for mut region in [zeros, nans] {
            let mut by_total_cmp = region;
            by_total_cmp.sort_unstable_by(f64::total_cmp);
            radix_sort(&mut region);
            assert!(petal_blas::same_bits(&region, &by_total_cmp));
        }
        for unique in [&[][..], &[-0.0, -0.0], &[0.0, 5e-324, f64::INFINITY, f64::NEG_INFINITY]] {
            assert!(uniquely_ordered(unique), "{unique:?}");
        }
    }

    #[test]
    fn merge_ties_go_to_the_lowest_numbered_run() {
        // Four runs of a 10-cell region (cut at 2, 5, 7): duplicates across
        // runs, and a zero of each sign in runs 1 and 2 — `<` calls them
        // equal, so run 1's comes first whatever its sign.
        let runs = [1.0, 2.0, 0.0, 1.0, 3.0, -0.0, 1.0, 1.0, 2.0, 2.0];
        let mut out = [f64::NAN; 10];
        merge_runs(&mut out, &runs, 4);
        assert!(petal_blas::same_bits(&out, &[0.0, -0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0]));
        // Two runs (cut at 5), the zeros the other way round.
        let runs = [-0.0, 1.0, 1.0, 2.0, 4.0, 0.0, 1.0, 3.0, 4.0, 4.0];
        merge_runs(&mut out, &runs, 2);
        assert!(petal_blas::same_bits(&out, &[-0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 4.0, 4.0]));
    }

    /// The leaf law on whole trials: whichever algorithm the selector
    /// names, the world is left holding the prepared expectation's bits,
    /// and the trial's virtual time is the algorithm's — pinned to the
    /// values read before the leaves' bodies were rerouted, so a `Charge`
    /// that moves with a body fails here by name.
    #[test]
    fn leaf_law_every_choice_leaves_the_expected_bits_at_its_own_virtual_time() {
        let b = Sort::new(3000);
        let m = MachineProfile::desktop();
        let pinned: [u64; 7] = [
            0x3f51_b2af_eb14_b670,
            0x3f61_b244_8b4a_4b7e,
            0x3f1d_59d4_9e01_a73f,
            0x3f09_454b_63ab_a103,
            0x3f22_0305_f08f_31a8,
            0x3f20_15c5_e6b3_e69d,
            0x3f36_a98f_b0e2_8b7b,
        ];
        for (alg, want) in pinned.into_iter().enumerate() {
            let mut cfg = b.program(&m).default_config(&m);
            cfg.set_selector("sort", Selector::constant(alg, 8));
            let (left, secs) = checked_trial(&b, &m, &cfg);
            assert!(petal_blas::same_bits(&left, &b.prepared().expected), "sort = {alg}");
            assert_eq!(secs, want, "sort = {alg}: {secs:#x}");
        }
    }

    #[test]
    fn partition_separates_around_pivot() {
        let mut v = random_vec(101, -10.0, 10.0, 9);
        let p = partition(&mut v);
        for (i, x) in v.iter().enumerate() {
            if i < p {
                assert!(*x <= v[p]);
            } else {
                assert!(*x >= v[p]);
            }
        }
    }

    #[test]
    fn co_rank_splits_are_consistent() {
        let mut a = random_vec(40, 0.0, 1.0, 1);
        let mut b = random_vec(25, 0.0, 1.0, 2);
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        for k in [0, 1, 10, 32, 65] {
            let (i, j) = co_rank(k, &a, &b);
            assert_eq!(i + j, k);
            // Every element in the prefix is ≤ every element in the suffix.
            let prefix_max =
                a[..i].iter().chain(b[..j].iter()).copied().fold(f64::NEG_INFINITY, f64::max);
            let suffix_min =
                a[i..].iter().chain(b[j..].iter()).copied().fold(f64::INFINITY, f64::min);
            assert!(prefix_max <= suffix_min, "k={k}: {prefix_max} > {suffix_min}");
        }
    }

    #[test]
    fn every_algorithm_choice_sorts() {
        let b = Sort::new(5000);
        let m = MachineProfile::desktop();
        for alg in 0..8 {
            let mut cfg = b.program(&m).default_config(&m);
            cfg.set_selector("sort", Selector::constant(alg, 8));
            let r = b.run_with_config(&m, &cfg);
            assert!(r.is_ok(), "alg {alg}: {:?}", r.err());
        }
    }

    #[test]
    fn paper_style_polyalgorithm_sorts_and_uses_cutoffs() {
        // 4MS above 7622, 2MS until 2730, insertion below (the Server
        // configuration in Fig. 6).
        let b = Sort::new(60_000);
        let m = MachineProfile::server();
        let mut cfg = b.program(&m).default_config(&m);
        cfg.set_selector("sort", Selector::new(vec![2730, 7622], vec![0, 4, 5], 8));
        b.run_with_config(&m, &cfg).unwrap();
    }

    #[test]
    fn parallel_merge_cutoff_changes_nothing_functionally() {
        let b = Sort::new(40_000);
        let m = MachineProfile::desktop();
        for cutoff in [16, 1 << 20] {
            let mut cfg = b.program(&m).default_config(&m);
            cfg.set_selector("sort", Selector::new(vec![256], vec![0, 4], 8));
            cfg.set_tunable("merge_parallel_cutoff", Tunable::new(cutoff, 16, 1 << 24));
            b.run_with_config(&m, &cfg).unwrap();
        }
    }

    /// Fig. 7(d) shape: a poly-algorithm on the CPU beats the GPU bitonic
    /// configuration on every machine.
    #[test]
    fn cpu_polyalgorithm_beats_gpu_bitonic() {
        let b = Sort::new(1 << 16);
        for m in MachineProfile::all() {
            let mut cfg = b.program(&m).default_config(&m);
            cfg.set_selector("sort", Selector::new(vec![512], vec![0, 4], 8));
            let cpu = b.run_with_config(&m, &cfg).unwrap().virtual_time_secs();
            if !m.has_physical_gpu() {
                continue;
            }
            cfg.set_selector("sort", Selector::constant(7, 8));
            let gpu = b.run_with_config(&m, &cfg).unwrap().virtual_time_secs();
            assert!(cpu < gpu, "{}: CPU poly {cpu} vs GPU bitonic {gpu}", m.codename);
        }
    }
}
