//! The Black-Scholes benchmark (§6.2, Fig. 7a).
//!
//! Prices `n` European call options: every output element is an independent
//! closed-form evaluation over the spot price, strike and expiry arrays —
//! the ideal streaming kernel. The interesting choice is pure *placement*:
//! all on the GPU, all on the CPU, or — on machines where the two are close
//! in throughput (the paper's Laptop) — a concurrent fractional split
//! ("25% on CPU and 75% on GPU" in Fig. 6).

use crate::Instance;
use petal_blas::{same_bits, Matrix};
use petal_core::plan::{placement_from_config, PlanBuilder, StencilStep};
use petal_core::program::ChoiceSite;
use petal_core::stencil::{AccessPattern, Span, StencilInput, StencilRule};
use petal_core::{Config, Program, World};
use petal_gpu::buffer::Recycler;
use petal_gpu::profile::MachineProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// Risk-free rate used by the workload.
pub const RATE: f64 = 0.02;
/// Volatility used by the workload.
pub const VOLATILITY: f64 = 0.30;

/// The smallest `n` that is an instance ([`BlackScholes::try_new`]).
pub const MIN_N: usize = 64;

/// Arithmetic cost per option: exp/log/sqrt-heavy closed form.
const FLOPS_PER_OPTION: f64 = 220.0;

/// Spot price, strike and expiry: the range each is drawn from and the
/// seed of its stream. Each is one sequence (`workload::random_vec`'s), so
/// the inputs of `n` options are a prefix of the inputs of any more.
const STREAMS: [(f64, f64, u64); 3] = [(5.0, 30.0, 11), (1.0, 100.0, 12), (0.25, 10.0, 13)];

/// Standard normal CDF via the Abramowitz–Stegun polynomial (the classic
/// kernel used in GPU Black-Scholes samples).
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    normal_cdf_given(x, (-0.5 * x * x).exp())
}

/// [`normal_cdf`] of `x` given `e = exp(-x²/2)`: the arithmetic after the
/// `exp`, which both pricing forms call.
fn normal_cdf_given(x: f64, e: f64) -> f64 {
    let a1 = 0.319_381_530;
    let a2 = -0.356_563_782;
    let a3 = 1.781_477_937;
    let a4 = -1.821_255_978;
    let a5 = 1.330_274_429;
    let k = 1.0 / (1.0 + 0.231_641_9 * x.abs());
    let poly = k * (a1 + k * (a2 + k * (a3 + k * (a4 + k * a5))));
    let pdf = e / (2.0 * std::f64::consts::PI).sqrt();
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

/// [`call_price`] of every option `(s[i], k[i], t[i])` into `out[i]`, bit
/// for bit. It works 64 options at a time, phase by phase — every `ln`,
/// then `sqrt`, `d1` and `d2`, then the three `exp`s, then the combine — so
/// the libm calls run back to back and the arithmetic between them
/// vectorises; each lane runs `call_price`'s operations in its order.
///
/// # Panics
/// When the four slices differ in length.
pub fn call_prices(s: &[f64], k: &[f64], t: &[f64], r: f64, v: f64, out: &mut [f64]) {
    const BLOCK: usize = 64;
    assert!(s.len() == out.len() && k.len() == out.len() && t.len() == out.len());
    let blocks = s.chunks(BLOCK).zip(k.chunks(BLOCK)).zip(t.chunks(BLOCK));
    for (((s, k), t), out) in blocks.zip(out.chunks_mut(BLOCK)) {
        let n = out.len();
        let [mut ln, mut d1, mut d2, mut e1, mut e2, mut disc] = [[0.0; BLOCK]; 6];
        for i in 0..n {
            ln[i] = (s[i] / k[i]).ln();
        }
        for i in 0..n {
            let sqrt_t = t[i].sqrt();
            d1[i] = (ln[i] + (r + 0.5 * v * v) * t[i]) / (v * sqrt_t);
            d2[i] = d1[i] - v * sqrt_t;
        }
        for i in 0..n {
            e1[i] = (-0.5 * d1[i] * d1[i]).exp();
            e2[i] = (-0.5 * d2[i] * d2[i]).exp();
            disc[i] = (-r * t[i]).exp();
        }
        for i in 0..n {
            out[i] = s[i] * normal_cdf_given(d1[i], e1[i])
                - k[i] * disc[i] * normal_cdf_given(d2[i], e2[i]);
        }
    }
}

/// The Black-Scholes benchmark over `n` options.
#[derive(Debug, Clone)]
pub struct BlackScholes {
    n: usize,
    prepared: OnceLock<Prepared>,
    /// The longest priced prefix the object this one was resized from
    /// knew: its prepared state is built on it.
    from: Option<Prefix>,
}

/// What every instance of one `n` shares: the priced inputs and the
/// pricing rule, whose span body is keyed on them.
#[derive(Debug, Clone)]
struct Prepared {
    priced: Arc<Priced>,
    rule: Arc<StencilRule>,
    /// Every trial's `World` is built on this, so its storage recycles.
    recycler: Arc<Recycler>,
    /// The longest priced prefix known once `priced` was built, which a
    /// resized child is handed.
    known: Prefix,
}

/// The seeded inputs and the price of every option.
#[derive(Debug)]
struct Priced {
    /// Spot price, strike and expiry, each shaped `rows × cols`.
    inputs: [Arc<Matrix>; 3],
    /// `call_price` of each cell of `inputs` at [`RATE`] and
    /// [`VOLATILITY`], row-major: what `check` compares against, and what
    /// the rule's span copies out for cells it finds to be these inputs.
    prices: Vec<f64>,
}

/// The first options of every instance, priced, and the three [`STREAMS`]
/// just after them: all a larger instance needs to draw and price only
/// the options after these.
#[derive(Debug, Clone)]
struct Prefix {
    priced: Arc<Priced>,
    streams: [StdRng; 3],
}

impl Priced {
    /// The first `rows × cols` options, priced: those `from` holds are
    /// copied, only the rest are drawn and priced. Returns them with the
    /// longest prefix known after.
    fn new(rows: usize, cols: usize, from: Option<&Prefix>) -> (Arc<Self>, Prefix) {
        let n = rows * cols;
        let held: [&[f64]; 4] = from.map_or([&[]; 4], |p| {
            let [s, k, t] = &p.priced.inputs;
            [s.as_slice(), k.as_slice(), t.as_slice(), &p.priced.prices]
        });
        let have = held[3].len().min(n);
        let mut columns = held.map(|c| c[..have].to_vec());
        columns.iter_mut().for_each(|c| c.reserve_exact(n - have));
        let mut streams = from.map_or_else(
            || STREAMS.map(|(_, _, seed)| StdRng::seed_from_u64(seed)),
            |p| p.streams.clone(),
        );
        // One option at a time, one value from each stream (the fourth
        // column, the prices, is not drawn).
        for _ in have..n {
            for ((column, rng), (lo, hi, _)) in columns.iter_mut().zip(&mut streams).zip(STREAMS) {
                column.push(rng.gen_range(lo..hi));
            }
        }
        let [s, k, t, mut prices] = columns;
        prices.resize(n, 0.0);
        call_prices(&s[have..], &k[have..], &t[have..], RATE, VOLATILITY, &mut prices[have..]);
        let inputs = [s, k, t].map(|column| Arc::new(Matrix::from_vec(rows, cols, column)));
        let priced = Arc::new(Priced { inputs, prices });
        // `from` is the longer prefix when it holds options past these;
        // otherwise `streams` are just after these.
        let known = match from {
            Some(p) if p.priced.prices.len() > have => p.clone(),
            _ => Prefix { priced: Arc::clone(&priced), streams },
        };
        (priced, known)
    }

    /// The stored prices of the span of row `y` that starts at column `x0`,
    /// when the spans `given` of the three inputs and both scalars are, bit
    /// for bit, what those prices were computed from; `None` for any other
    /// span, which the caller prices itself. `call_price` is a function of
    /// those five bit patterns, so a hit and a miss are indistinguishable.
    fn span(&self, given: &[&[f64]; 3], r: f64, v: f64, x0: usize, y: usize) -> Option<&[f64]> {
        let (rows, cols) = (self.inputs[0].rows(), self.inputs[0].cols());
        let len = given[0].len();
        let at = y * cols + x0;
        let hit = y < rows
            && x0 + len <= cols
            && same_bits(&[r, v], &[RATE, VOLATILITY])
            && given
                .iter()
                .zip(&self.inputs)
                .all(|(g, key)| same_bits(g, &key.as_slice()[at..at + len]));
        hit.then(|| &self.prices[at..at + len])
    }
}

impl Prepared {
    /// Price a `rows × cols` instance on `from` ([`Priced::new`]) and
    /// build the rule around the result. The rule has no constructor of its
    /// own: the only `black_scholes` there is carries the keyed span.
    fn new(rows: usize, cols: usize, from: Option<&Prefix>) -> Self {
        let (priced, known) = Priced::new(rows, cols, from);
        let memo = Arc::clone(&priced);
        // The data-parallel pricing rule: three `Point` inputs, one output.
        let rule = Arc::new(StencilRule {
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
            // A cell is ≈ 30 ns of libm over inputs no tunable reaches, so
            // the span is keyed: a span of the prepared inputs copies its
            // row of prices out, any other is priced by `call_prices`,
            // which is `elem`'s `call_price` bit for bit.
            span: Span::Rows(Arc::new(move |env, x0, y, out| {
                let given = [0, 1, 2].map(|k| env.inputs[k].row_span(y, x0, out.len()));
                let (r, v) = (env.scalars[0], env.scalars[1]);
                if let Some(prices) = memo.span(&given, r, v, x0, y) {
                    out.copy_from_slice(prices);
                } else {
                    let [s, k, t] = given;
                    call_prices(s, k, t, r, v, out);
                }
            })),
            native_only_body: false,
            text: Default::default(),
        });
        Prepared { priced, rule, recycler: Arc::default(), known }
    }
}

impl BlackScholes {
    /// New instance with `n` options (the paper tests 500 000).
    ///
    /// # Errors
    /// When `n <` [`MIN_N`].
    pub fn try_new(n: usize) -> Result<Self, String> {
        crate::at_least("blackscholes", n, MIN_N).map(|n| BlackScholes {
            n,
            prepared: OnceLock::new(),
            from: None,
        })
    }

    /// [`Self::try_new`] for parameters known to be valid.
    ///
    /// # Panics
    /// Panics where `try_new` errs.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::try_new(n).unwrap_or_else(|e| panic!("{e}"))
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
            Prepared::new(rows, cols, self.from.as_ref())
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

    /// The child starts from the longest priced prefix this object knows
    /// — its own prepared state's, else the one it was built from — so it
    /// draws and prices only the options after it. Nothing is prepared here.
    fn resized(&self, size: u64) -> Option<Box<dyn crate::Benchmark>> {
        let mut child = Self::try_new(size as usize).ok()?;
        child.from =
            self.prepared.get().map_or_else(|| self.from.clone(), |p| Some(p.known.clone()));
        Some(crate::boxed(child))
    }

    fn memoisable(&self) -> bool {
        true
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
        let mut world = World::on(Arc::clone(&prepared.recycler));
        let inputs: Vec<_> =
            prepared.priced.inputs.iter().map(|m| world.alloc_shared(Arc::clone(m))).collect();
        let out = world.zeros(rows, cols);

        let rule = Arc::clone(&prepared.rule);
        let placement = placement_from_config(cfg, "blackscholes", n as u64, machine, &rule, rows);
        let mut p = PlanBuilder::new();
        p.stencil(
            StencilStep {
                rule,
                inputs,
                output: out,
                out_dims: (cols, rows),
                user_scalars: vec![RATE, VOLATILITY],
                placement,
            },
            &[],
        );
        p.mark_output(out);

        let priced = Arc::clone(&prepared.priced);
        let check = Box::new(move |w: &World| -> Result<(), String> {
            let got = w.get(out).as_slice();
            // A NaN compares false, so it is not within.
            let within = |(g, e): (&f64, &f64)| (g - e).abs() <= 1e-9 * (1.0 + e.abs());
            // One pass with no early exit, so it vectorises; only a failed
            // check looks for the first option that is off.
            if got.iter().zip(&priced.prices).fold(true, |all, pair| all & within(pair)) {
                return Ok(());
            }
            let off = got.iter().zip(&priced.prices).position(|pair| !within(pair));
            let i = off.expect("an option is off");
            Err(format!("option {i}: got {}, want {}", got[i], priced.prices[i]))
        });
        Instance { world, plan: p.build(), check }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::random_vec;
    use crate::Benchmark;
    use petal_core::codegen::{Geometry, RawInput};
    use petal_core::stencil::assert_span_matches_elem;
    use petal_core::{Selector, Tunable};
    use std::borrow::Borrow;

    /// `petal_core`'s bit-equality oracle over the whole output and a band
    /// inside it. `Full` views hand the span whole rows; the tiled run
    /// hands it 16- and 7-wide pieces of them, ragged at the right edge
    /// (a `Point` input is never staged, so those are `Full` views too).
    fn oracle(rule: &StencilRule, inputs: &[impl Borrow<Matrix>; 3], scalars: &[f64]) {
        let (rows, cols) = (inputs[0].borrow().rows(), inputs[0].borrow().cols());
        let raw: Vec<RawInput<'_>> =
            inputs.iter().map(|m| (m.borrow().as_slice(), cols, rows)).collect();
        for (row0, row1) in [(0, rows), (rows / 5, rows - rows / 3)] {
            for local_size in [48, 7] {
                let geom = Geometry {
                    out_w: cols,
                    out_h: rows,
                    row0,
                    row1,
                    in_dims: vec![(cols, rows); 3],
                    local_size,
                };
                assert_span_matches_elem(rule, &raw, scalars, &geom);
            }
        }
    }

    /// Whether the memo answers for columns `x0..x0 + len` of row `y` of
    /// `inputs`.
    fn hits(
        priced: &Priced,
        inputs: &[Matrix; 3],
        scalars: [f64; 2],
        (x0, y, len): (usize, usize, usize),
    ) -> bool {
        let given = [0, 1, 2].map(|k| &inputs[k].row(y)[x0..x0 + len]);
        priced.span(&given, scalars[0], scalars[1], x0, y).is_some()
    }

    #[test]
    fn the_keyed_span_matches_elem_on_a_hit_a_miss_and_a_changed_scalar() {
        // 64 × 45: two whole 16-wide tiles and a ragged third per row.
        let b = BlackScholes::new(64 * 45);
        let Prepared { priced, rule, .. } = b.prepared();
        let (rows, cols) = b.shape();
        let scalars = [RATE, VOLATILITY];
        let copies = [0, 1, 2].map(|k| Matrix::clone(&priced.inputs[k]));

        // The prepared inputs hit wherever a span starts and ends, whether
        // they are the donors themselves (what a trial hands over: known by
        // address) or copies of them (compared bit for bit).
        oracle(rule, &priced.inputs, &scalars);
        oracle(rule, &copies, &scalars);
        for span in [(0, 0, cols), (16, 7, 16), (32, rows - 1, cols - 32), (cols - 1, 3, 1)] {
            assert!(hits(priced, &copies, scalars, span), "{span:?} of the prepared inputs");
        }
        // Beyond the prepared shape there is nothing to compare with.
        let given = [&copies[0].row(0)[..cols]; 3];
        assert!(priced.span(&given, RATE, VOLATILITY, 0, rows).is_none());
        assert!(priced.span(&given, RATE, VOLATILITY, 1, 0).is_none());

        // One bit flipped in one input, at the first, a middle and the last
        // cell of a row: every span that covers the cell misses and is
        // priced from what it was handed, every other span still hits.
        let y = rows / 2;
        for input in 0..3 {
            for x in [0, cols / 2, cols - 1] {
                for bit in [0, 40] {
                    let mut flipped = copies.clone();
                    let cell = &mut flipped[input][(y, x)];
                    *cell = f64::from_bits(cell.to_bits() ^ (1 << bit));
                    let what = format!("input {input}, cell ({x}, {y}), bit {bit}");
                    assert!(!hits(priced, &flipped, scalars, (0, y, cols)), "{what}: its row");
                    assert!(!hits(priced, &flipped, scalars, (x, y, 1)), "{what}: the cell alone");
                    assert!(hits(priced, &flipped, scalars, (0, y - 1, cols)), "{what}: row above");
                    assert!(hits(priced, &flipped, scalars, (0, y + 1, cols)), "{what}: row below");
                    if x > 0 {
                        assert!(hits(priced, &flipped, scalars, (0, y, x)), "{what}: to its left");
                    }
                    oracle(rule, &flipped, &scalars);
                }
            }
        }

        // A scalar one bit off misses everywhere.
        for changed in [[f64::from_bits(RATE.to_bits() ^ 1), VOLATILITY], [RATE, 0.25]] {
            assert!(!hits(priced, &copies, changed, (0, 0, cols)), "scalars {changed:?}");
            oracle(rule, &copies, &changed);
        }
    }

    /// The memo's own oracle: `check` compares a trial's output with the
    /// vector the span copies from, so that vector is held to `call_price`
    /// here, cell by cell — called as `elem` calls it, with scalars the
    /// compiler cannot see through — and its inputs to the three seeded
    /// streams (`random_vec`), whether the options were all drawn here or
    /// some were copied from a smaller or a larger prefix. The prefix each
    /// build reports as the longest known is positioned on its streams.
    #[test]
    fn the_span_memo_holds_call_price_of_its_own_inputs_bit_for_bit() {
        let (r, v) = std::hint::black_box((RATE, VOLATILITY));
        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (smaller, larger) = (BlackScholes::new(1_000), BlackScholes::new(60_000));
        for n in [MIN_N, 4_096, 50_000] {
            let (rows, cols) = BlackScholes::new(n).shape();
            for from in [None, Some(&smaller.prepared().known), Some(&larger.prepared().known)] {
                let (priced, known) = Priced::new(rows, cols, from);
                let what = format!("n = {n} on {:?} options", from.map(|p| p.priced.prices.len()));
                let [s, k, t] = [0, 1, 2].map(|i| priced.inputs[i].as_slice());
                for (column, (lo, hi, seed)) in [s, k, t].into_iter().zip(STREAMS) {
                    assert_eq!(
                        bits(column),
                        bits(&random_vec(rows * cols, lo, hi, seed)),
                        "{what}"
                    );
                }
                assert_eq!(priced.prices.len(), s.len());
                for (i, price) in priced.prices.iter().enumerate() {
                    let want = call_price(s[i], k[i], t[i], r, v);
                    assert_eq!(price.to_bits(), want.to_bits(), "{what}, option {i}");
                }
                let len = known.priced.prices.len();
                assert_eq!(len, from.map_or(0, |p| p.priced.prices.len()).max(s.len()), "{what}");
                let mut next = known.streams.clone();
                for (rng, (lo, hi, seed)) in next.iter_mut().zip(STREAMS) {
                    let want = random_vec(len + 1, lo, hi, seed)[len];
                    assert_eq!(rng.gen_range(lo..hi).to_bits(), want.to_bits(), "{what}");
                }
            }
        }
    }

    /// `call_prices` is `call_price` bit for bit: at every length from 0 to
    /// two blocks and a tail, and on every combination of values a blocked
    /// form could get wrong in spot, strike and expiry (±0, negative,
    /// subnormal, ±inf, NaN). One exception: where an input is NaN, both
    /// are NaN but the sign may differ, because an operation on two NaNs
    /// may return either (Rust does not fix which, and the vectorised
    /// phases commute operands). The rule's miss path, which calls
    /// `call_prices`, keeps `elem`'s bits on copies of the prepared inputs
    /// with every value but NaN planted.
    #[test]
    fn call_prices_is_call_price_bit_for_bit() {
        let assert_same = |[s, k, t]: [&[f64]; 3], (r, v): (f64, f64), what: &str| {
            let mut got = vec![0.5; s.len()];
            call_prices(s, k, t, r, v, &mut got);
            for (i, got) in got.iter().enumerate() {
                let want = call_price(s[i], k[i], t[i], r, v);
                if [s[i], k[i], t[i], r, v].iter().any(|x| x.is_nan()) {
                    assert!(got.is_nan() && want.is_nan(), "{what}, option {i}");
                } else {
                    assert_eq!(got.to_bits(), want.to_bits(), "{what}, option {i}");
                }
            }
        };
        let scalars = std::hint::black_box((RATE, VOLATILITY));
        let drawn = STREAMS.map(|(lo, hi, seed)| random_vec(130, lo, hi, seed));
        for len in 0..=130 {
            assert_same(drawn.each_ref().map(|c| &c[..len]), scalars, &format!("length {len}"));
        }

        let hostile = [25.0, 0.0, -0.0, -3.0, 4e-320, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut columns: [Vec<f64>; 3] = Default::default();
        for s in hostile {
            for k in hostile {
                for t in hostile {
                    for (column, x) in columns.iter_mut().zip([s, k, t]) {
                        column.push(x);
                    }
                }
            }
        }
        for scalars in [scalars, (0.0, 0.0), (-0.0, f64::NAN)] {
            assert_same(columns.each_ref().map(Vec::as_slice), scalars, &format!("{scalars:?}"));
        }

        let b = BlackScholes::new(64 * 45);
        let Prepared { priced, rule, .. } = b.prepared();
        let planted = [0, 1, 2].map(|i| {
            let mut m = Matrix::clone(&priced.inputs[i]);
            for (j, x) in m.as_mut_slice().iter_mut().enumerate().step_by(5) {
                *x = hostile[(j / 5 + i) % (hostile.len() - 1)];
            }
            m
        });
        oracle(rule, &planted, &[RATE, VOLATILITY]);
    }

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
