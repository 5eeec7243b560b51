//! Deterministic workload generators shared by the benchmarks, tests and
//! figure harnesses.

use petal_blas::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether smoke-sized inputs were requested via `PETAL_SMOKE` (any value
/// but `0`). Set by the root package's `tests/examples_smoke.rs`; examples
/// and harnesses shrink their workloads when it is on.
#[must_use]
pub fn smoke_mode() -> bool {
    std::env::var_os("PETAL_SMOKE").is_some_and(|v| v != "0")
}

/// Uniform random matrix in `[lo, hi)` with a fixed seed.
#[must_use]
pub fn random_matrix(rows: usize, cols: usize, lo: f64, hi: f64, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
}

/// Uniform random vector in `[lo, hi)`.
#[must_use]
pub fn random_vec(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// A normalized 1D convolution kernel of width `k` (triangle window).
#[must_use]
pub fn triangle_kernel(k: usize) -> Matrix {
    let mid = (k as f64 - 1.0) / 2.0;
    let mut weights: Vec<f64> = (0..k).map(|i| 1.0 + mid - (i as f64 - mid).abs()).collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    Matrix::from_vec(1, k, weights)
}

/// One checked trial of `b` under `cfg`: the bits its output matrix is
/// left holding, and its virtual time's.
#[cfg(test)]
pub(crate) fn checked_trial(
    b: &dyn crate::Benchmark,
    machine: &petal_gpu::profile::MachineProfile,
    cfg: &petal_core::Config,
) -> (Vec<f64>, u64) {
    let crate::Instance { mut world, plan, check } = b.instantiate(machine, cfg);
    let out = plan.outputs()[0];
    let report = petal_core::Executor::new(machine).run(plan, &mut world).expect("the trial runs");
    check(&world).expect("the trial's answer is right");
    (world.get(out).as_slice().to_vec(), report.virtual_time_secs().to_bits())
}

/// The sweep every rule with a span body is put through by its app's
/// tests: `petal_core`'s bit-equality oracle over each combination of the
/// operand fills below, over the whole output and over a band inside it,
/// under a 16 × 3 and a 7 × 1 work-group tile.
#[cfg(test)]
pub(crate) mod span_oracle {
    use super::{random_matrix, Matrix};
    use petal_core::codegen::{Geometry, RawInput};
    use petal_core::stencil::{assert_span_matches_elem, StencilRule};

    /// Operand fills a span body could get wrong while ordinary data hides
    /// it: `zeros` is Strassen's padding; the two `-0.0` fills make every
    /// product of a cell `-0.0`, so the cell's bits are `sum()`'s starting
    /// value's; `inf` turns sums into NaNs; `tiny` makes products subnormal
    /// or underflow them to signed zeros.
    const FILLS: [&str; 6] = ["random", "zeros", "-0.0", "-0.0 | +", "inf", "tiny"];

    fn filled(fill: &str, rows: usize, cols: usize) -> Matrix {
        let noise = random_matrix(rows, cols, -1.0, 1.0, 97);
        Matrix::from_fn(rows, cols, |r, c| {
            let v = noise[(r, c)];
            match fill {
                "random" => v,
                "zeros" => 0.0,
                "-0.0" => -0.0,
                "-0.0 | +" if c % 2 == 0 => -0.0,
                "-0.0 | +" => v.abs() + 0.5,
                "inf" if (3 * r + c) % 11 == 0 => f64::INFINITY.copysign(v),
                "inf" => v,
                "tiny" if c % 3 == 0 => v * 1e-310,
                "tiny" => v * 1e-160,
                other => unreachable!("no fill named {other}"),
            }
        })
    }

    /// Check `rule` over a `w × h` output with inputs of `in_dims`
    /// (`(cols, rows)`, as [`Geometry`] has them), each filled every way in
    /// [`FILLS`].
    pub(crate) fn sweep(
        rule: &StencilRule,
        in_dims: &[(usize, usize)],
        scalars: &[f64],
        (w, h): (usize, usize),
    ) {
        for combo in 0..FILLS.len().pow(in_dims.len() as u32) {
            let (mut rest, mut names, mut operands) = (combo, Vec::new(), Vec::new());
            for &(cols, rows) in in_dims {
                names.push(FILLS[rest % FILLS.len()]);
                operands.push(filled(FILLS[rest % FILLS.len()], rows, cols));
                rest /= FILLS.len();
            }
            let raw: Vec<RawInput<'_>> =
                operands.iter().map(|m| (m.as_slice(), m.cols(), m.rows())).collect();
            for (row0, row1) in [(0, h), (h / 5, h - h / 3)] {
                for local_size in [48, 7] {
                    // Shown only if the oracle panics: which case it was.
                    println!("fills {names:?}, rows {row0}..{row1}, local size {local_size}");
                    let geom = Geometry {
                        out_w: w,
                        out_h: h,
                        row0,
                        row1,
                        in_dims: in_dims.to_vec(),
                        local_size,
                    };
                    assert_span_matches_elem(rule, &raw, scalars, &geom);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_matrix(4, 4, 0.0, 1.0, 7), random_matrix(4, 4, 0.0, 1.0, 7));
        assert_ne!(random_matrix(4, 4, 0.0, 1.0, 7), random_matrix(4, 4, 0.0, 1.0, 8));
        assert_eq!(random_vec(5, -1.0, 1.0, 3), random_vec(5, -1.0, 1.0, 3));
    }

    #[test]
    fn triangle_kernel_is_normalized_and_symmetric() {
        for k in [3, 5, 7, 17] {
            let m = triangle_kernel(k);
            let s: f64 = m.as_slice().iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "k={k}");
            assert!((m[(0, 0)] - m[(0, k - 1)]).abs() < 1e-12);
        }
    }
}
