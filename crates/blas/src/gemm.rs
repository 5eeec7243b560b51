//! Dense matrix multiplication kernels.
//!
//! The Strassen benchmark's choice space includes "various blocking
//! methods; naive matrix multiplication; and calling the LAPACK external
//! library" (§6.2). These are those leaves. [`lapack_gemm`] is the stand-in
//! for the LAPACK call: an opaque, well-optimized library leaf.
//!
//! **One fold.** Every kernel here computes each output cell as
//! `0.0 + a₀b₀ + a₁b₁ + …` in ascending `p` — [`naive_gemm`] and
//! [`transposed_gemm`] literally, [`blocked_gemm_into`] on an all-zeros
//! output because its `p` blocks ascend and its `j` lanes are independent
//! — so all of them produce the same bits (`k = 0` gives `0.0`; a cell
//! whose every product is `-0.0` gives `0.0 + -0.0 = 0.0` everywhere).
//! They differ only in how they walk memory, which is what the choice
//! space's *cost model* prices per leaf. The host therefore runs one
//! route, [`lapack_gemm_into`], whichever leaf was chosen; the others stay
//! as the definitions that route is held to (this module's tests, and the
//! Strassen leaf's debug assertion).

use crate::matrix::Matrix;

/// Register width of [`blocked_gemm_into`]'s j-chunked kernel (16 f64 =
/// four 256-bit vectors: enough lanes to vectorize, few enough to stay in
/// registers across the whole p loop). An output narrower than this has no
/// full chunk, which is where [`lapack_gemm_into`] switches kernels.
const W: usize = 16;

/// Textbook triple loop: `C = A·B`.
///
/// # Panics
/// Panics when inner dimensions disagree.
#[must_use]
pub fn naive_gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let crow = c.row_mut(i);
        for (j, cj) in crow.iter_mut().enumerate() {
            // Column walk of `b` (the deliberately cache-hostile access
            // pattern this leaf models), accumulated in `p` order.
            let mut acc = 0.0;
            for (p, &ap) in arow.iter().enumerate().take(k) {
                acc += ap * b.row(p)[j];
            }
            *cj = acc;
        }
    }
    c
}

/// Triple loop over a pre-transposed `B`, giving unit-stride inner loops
/// (one of the benchmark's "transposing any combination of the inputs"
/// choices).
///
/// # Panics
/// Panics when inner dimensions disagree.
#[must_use]
pub fn transposed_gemm(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    transposed_gemm_into(&mut c, a, b);
    c
}

/// [`transposed_gemm`] **overwriting** a caller-provided `m × n` output —
/// the allocation-free form recursive decompositions use on their
/// preallocated product matrices. Result bits are identical to
/// [`transposed_gemm`].
///
/// # Panics
/// Panics when inner or output dimensions disagree.
pub fn transposed_gemm_into(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!((c.rows(), c.cols()), (a.rows(), b.cols()), "output dimensions must agree");
    let bt = b.transposed();
    let (m, k) = (a.rows(), a.cols());
    for i in 0..m {
        let arow = a.row(i);
        let crow = c.row_mut(i);
        if k == 0 {
            crow.fill(0.0);
            continue;
        }
        // Zip keeps the p-ascending accumulation order (bit-identical to
        // the indexed loop) while eliding the bounds checks; walking the
        // transposed rows with `chunks_exact` skips per-row asserts.
        for (cj, brow) in crow.iter_mut().zip(bt.as_slice().chunks_exact(k)) {
            *cj = arow.iter().zip(brow).fold(0.0, |acc, (&x, &y)| acc + x * y);
        }
    }
}

/// Cache-blocked multiplication with block size `bs`.
///
/// # Panics
/// Panics when inner dimensions disagree or `bs == 0`.
#[must_use]
pub fn blocked_gemm(a: &Matrix, b: &Matrix, bs: usize) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    blocked_gemm_into(&mut c, a, b, bs);
    c
}

/// [`blocked_gemm`] **accumulating** into a caller-provided `m × n`
/// output (`C += A·B`; pass an all-zeros `C` for the plain product) — the
/// allocation-free form recursive decompositions use on their
/// preallocated product matrices. On a zeroed output the result bits are
/// identical to [`blocked_gemm`].
///
/// # Panics
/// Panics when inner or output dimensions disagree, or `bs == 0`.
pub fn blocked_gemm_into(c: &mut Matrix, a: &Matrix, b: &Matrix, bs: usize) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!((c.rows(), c.cols()), (a.rows(), b.cols()), "output dimensions must agree");
    assert!(bs > 0, "block size must be positive");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if n == 0 || k == 0 {
        return;
    }
    for ii in (0..m).step_by(bs) {
        for pp in (0..k).step_by(bs) {
            let phi = (pp + bs).min(k);
            for jj in (0..n).step_by(bs) {
                let jhi = (jj + bs).min(n);
                for i in ii..(ii + bs).min(m) {
                    // Every `c[i][j]` accumulates its `p` terms in the same
                    // ascending order as the indexed triple loop (distinct
                    // `j` lanes are independent), so the result is
                    // bit-identical however the j range is chunked. The
                    // W-wide chunks keep the accumulator in registers for
                    // the whole p loop instead of storing and reloading
                    // `c`'s row once per `p`; `chunks_exact` walks `b`'s
                    // rows `pp..phi` in order without per-row asserts.
                    let arow = &a.row(i)[pp..phi];
                    let crow = &mut c.row_mut(i)[jj..jhi];
                    let bblock = &b.as_slice()[pp * n..phi * n];
                    let mut j = 0;
                    while j + W <= crow.len() {
                        let mut acc = [0.0f64; W];
                        acc.copy_from_slice(&crow[j..j + W]);
                        for (&aip, brow) in arow.iter().zip(bblock.chunks_exact(n)) {
                            let brow = &brow[jj + j..jj + j + W];
                            for (al, &bj) in acc.iter_mut().zip(brow) {
                                *al += aip * bj;
                            }
                        }
                        crow[j..j + W].copy_from_slice(&acc);
                        j += W;
                    }
                    if j < crow.len() {
                        // Remainder lanes: plain row-slice SAXPY.
                        for (&aip, brow) in arow.iter().zip(bblock.chunks_exact(n)) {
                            let brow = &brow[jj..jhi];
                            for (cj, &bj) in crow[j..].iter_mut().zip(&brow[j..]) {
                                *cj += aip * bj;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The "LAPACK" leaf: the best-performing plain kernel we have for the
/// operands' shape (see [`lapack_gemm_into`]). The choice space treats it
/// as an opaque external library call, exactly as the paper treats LAPACK.
///
/// # Panics
/// Panics when inner dimensions disagree.
#[must_use]
pub fn lapack_gemm(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    lapack_gemm_into(&mut c, a, b);
    c
}

/// [`lapack_gemm`] writing into a caller-provided **all-zeros** `m × n`
/// output; result bits are identical to [`lapack_gemm`] — and to every
/// other kernel of this module (one fold, see the module docs).
///
/// The kernel is picked by the output's width, a property of the operands:
/// the register-blocked kernel wherever a row of `c` holds a full
/// `W`-lane chunk, the transposed dot-product kernel for skinnier outputs,
/// whose rows would all be remainder lanes.
///
/// # Panics
/// Panics when inner or output dimensions disagree.
pub fn lapack_gemm_into(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    if b.cols() >= W {
        blocked_gemm_into(c, a, b, 64);
    } else {
        transposed_gemm_into(c, a, b);
    }
}

/// Flops for an `m×k · k×n` multiplication (one multiply + one add per
/// inner-loop step); used by the cost model.
#[must_use]
pub fn gemm_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::same_bits;
    use proptest::prelude::*;

    fn sample(r: usize, c: usize, seed: usize) -> Matrix {
        Matrix::from_fn(r, c, |i, j| ((i * 7 + j * 13 + seed) % 10) as f64 - 4.5)
    }

    #[test]
    fn identity_is_neutral() {
        let a = sample(5, 5, 3);
        let i = Matrix::identity(5);
        assert!(naive_gemm(&a, &i).approx_eq(&a, 1e-12));
        assert!(naive_gemm(&i, &a).approx_eq(&a, 1e-12));
    }

    /// Every kernel of the module is one fold: the same bits as
    /// [`naive_gemm`], the `_into` forms on a zeroed output.
    fn assert_one_fold(a: &Matrix, b: &Matrix, bs: usize) {
        let reference = naive_gemm(a, b);
        let into = |kernel: &dyn Fn(&mut Matrix)| {
            let mut c = Matrix::zeros(a.rows(), b.cols());
            kernel(&mut c);
            c
        };
        for (name, got) in [
            ("transposed_gemm", transposed_gemm(a, b)),
            ("blocked_gemm", blocked_gemm(a, b, bs)),
            ("lapack_gemm", lapack_gemm(a, b)),
            ("transposed_gemm_into", into(&|c| transposed_gemm_into(c, a, b))),
            ("blocked_gemm_into", into(&|c| blocked_gemm_into(c, a, b, bs))),
            ("lapack_gemm_into", into(&|c| lapack_gemm_into(c, a, b))),
        ] {
            assert_eq!((got.rows(), got.cols()), (reference.rows(), reference.cols()), "{name}");
            assert!(
                same_bits(got.as_slice(), reference.as_slice()),
                "{name} (bs {bs}) differs from naive_gemm on {}x{}x{}",
                a.rows(),
                a.cols(),
                b.cols()
            );
        }
    }

    #[test]
    fn all_kernels_agree_on_rectangular_inputs() {
        // (m, k, n): an empty sum, outputs narrower than / exactly / raggedly
        // wider than one register chunk, and one crossing every 64-block edge.
        let shapes = [
            (7, 13, 5),
            (1, 1, 1),
            (3, 0, 4),
            (5, 9, W - 1),
            (4, 6, W),
            (6, 20, W + 3),
            (65, 129, 31),
        ];
        for (m, k, n) in shapes {
            for bs in [4, 64] {
                assert_one_fold(&sample(m, k, 1), &sample(k, n, 2), bs);
            }
        }
        // Every product is -0.0: a fold started from -0.0, or a remainder
        // lane summed apart from its cell, would leave -0.0 where the
        // definition's `0.0 + -0.0 + …` leaves 0.0.
        let a = Matrix::from_fn(5, 7, |_, _| -0.0);
        for n in [3, W + 3] {
            let b = Matrix::from_fn(7, n, |i, j| (1 + i + j) as f64);
            assert_one_fold(&a, &b, 64);
            assert!(naive_gemm(&a, &b).as_slice().iter().all(|c| c.to_bits() == 0.0f64.to_bits()));
        }
    }

    #[test]
    fn gemm_flops_counts_mul_add() {
        assert_eq!(gemm_flops(2, 3, 4), 48.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let _ = naive_gemm(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_blocked_matches_naive(m in 1usize..12, k in 0usize..12, n in 1usize..2 * W + 4,
                                      bs in 1usize..8, seed in 0usize..100) {
            assert_one_fold(&sample(m, k, seed), &sample(k, n, seed + 1), bs);
        }

        #[test]
        fn prop_distributes_over_addition(n in 1usize..8, seed in 0usize..50) {
            // A·(B + C) == A·B + A·C
            let a = sample(n, n, seed);
            let b = sample(n, n, seed + 1);
            let c = sample(n, n, seed + 2);
            let lhs = lapack_gemm(&a, &b.add(&c));
            let rhs = lapack_gemm(&a, &b).add(&lapack_gemm(&a, &c));
            prop_assert!(lhs.approx_eq(&rhs, 1e-8));
        }
    }
}
