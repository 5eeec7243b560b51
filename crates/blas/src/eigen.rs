//! Symmetric eigendecomposition.
//!
//! The paper's SVD benchmark "approximates a matrix through a factorization
//! that consumes less space" and is a *variable accuracy* benchmark: the
//! number of retained singular values trades quality for time (§6.2, \[4\]).
//! This is the numerical kernel; the truncation and the CPU/GPU
//! task-parallel orchestration are `petal-apps::svd`.

use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition `A = V·diag(λ)·Vᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenDecomposition {
    /// Eigenvalues, sorted descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as *columns*, in the same order.
    pub vectors: Matrix,
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Sweeps Givens rotations over every off-diagonal pair until convergence
/// (off-diagonal Frobenius mass below `tol`) or `max_sweeps` is exhausted.
/// Works on raw row slices, and accumulates `V` transposed so that rotating
/// two of its columns is a rotation of two contiguous rows.
///
/// # Panics
/// Panics if `a` is not square.
#[must_use]
pub fn jacobi_eigh(a: &Matrix, tol: f64, max_sweeps: usize) -> EigenDecomposition {
    assert_eq!(a.rows(), a.cols(), "symmetric eigendecomposition needs a square matrix");
    let n = a.rows();
    let mut m = a.as_slice().to_vec();
    let mut vt = Matrix::identity(n).into_vec();

    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for p in 0..n {
            for &x in &m[p * n + p + 1..(p + 1) * n] {
                off += x * x;
            }
        }
        if off.sqrt() <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() < f64::EPSILON {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Columns p and q of m, then rows p and q of m, then
                // columns p and q of V.
                for row in m.chunks_exact_mut(n) {
                    let (mkp, mkq) = (row[p], row[q]);
                    row[p] = c * mkp - s * mkq;
                    row[q] = s * mkp + c * mkq;
                }
                rotate_rows(&mut m, n, p, q, c, s);
                rotate_rows(&mut vt, n, p, q, c, s);
            }
        }
    }

    // Sort by eigenvalue, descending.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[j * n + j].partial_cmp(&m[i * n + i]).expect("finite eigenvalues"));
    let values = order.iter().map(|&i| m[i * n + i]).collect();
    let vectors = Matrix::from_fn(n, n, |r, c| vt[order[c] * n + r]);
    EigenDecomposition { values, vectors }
}

/// Apply the Givens rotation `(c, s)` to rows `p < q` of a row-major
/// buffer of `n`-wide rows.
fn rotate_rows(data: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = data.split_at_mut(q * n);
    for (x, y) in head[p * n..(p + 1) * n].iter_mut().zip(&mut tail[..n]) {
        let (xp, xq) = (*x, *y);
        *x = c * xp - s * xq;
        *y = s * xp + c * xq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::lapack_gemm;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The indexed kernel [`jacobi_eigh`] replaced, kept as its oracle:
    /// the same floating-point operations in the same order, so the two
    /// must agree bit for bit on every input.
    fn jacobi_eigh_indexed(a: &Matrix, tol: f64, max_sweeps: usize) -> EigenDecomposition {
        assert_eq!(a.rows(), a.cols(), "symmetric eigendecomposition needs a square matrix");
        let n = a.rows();
        let mut m = a.clone();
        let mut v = Matrix::identity(n);

        for _ in 0..max_sweeps {
            let mut off = 0.0;
            for p in 0..n {
                for q in (p + 1)..n {
                    off += m[(p, q)] * m[(p, q)];
                }
            }
            if off.sqrt() <= tol {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() < f64::EPSILON {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Rotate rows/columns p and q of m.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    // Accumulate the rotation into the eigenvector matrix.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }

        // Sort by eigenvalue, descending.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| m[(j, j)].partial_cmp(&m[(i, i)]).expect("finite eigenvalues"));
        let values = order.iter().map(|&i| m[(i, i)]).collect();
        let vectors = Matrix::from_fn(n, n, |r, c| v[(r, order[c])]);
        EigenDecomposition { values, vectors }
    }

    fn assert_matches_oracle(a: &Matrix, tol: f64, max_sweeps: usize) {
        use crate::same_bits;
        let (got, want) =
            (jacobi_eigh(a, tol, max_sweeps), jacobi_eigh_indexed(a, tol, max_sweeps));
        assert!(same_bits(&got.values, &want.values), "values, n={}", a.rows());
        let same_vectors = same_bits(got.vectors.as_slice(), want.vectors.as_slice());
        assert!(same_vectors, "vectors, n={}", a.rows());
    }

    fn symmetric(n: usize, seed: usize) -> Matrix {
        let raw = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 17 + seed) % 13) as f64 - 6.0);
        raw.add(&raw.transposed()).scaled(0.5)
    }

    /// `AᵀA` of the SVD benchmark's input (`petal_apps::svd`: a Gaussian
    /// kernel plus seeded noise), summed as its `ata` stencil sums it.
    fn benchmark_ata(n: usize) -> Matrix {
        let mut rng = StdRng::seed_from_u64(61);
        let a = Matrix::from_fn(n, n, |r, c| {
            let d = (r as f64 - c as f64) / 6.0;
            (-d * d).exp() + rng.gen_range(-0.003..0.003)
        });
        Matrix::from_fn(n, n, |y, x| (0..n).map(|r| a[(r, y)] * a[(r, x)]).sum())
    }

    #[test]
    fn eigh_reconstructs_diagonal_matrix() {
        let a = Matrix::from_fn(3, 3, |r, c| if r == c { (3 - r) as f64 } else { 0.0 });
        let e = jacobi_eigh(&a, 1e-14, 32);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigh_satisfies_a_v_eq_v_lambda() {
        let a = symmetric(8, 5);
        let e = jacobi_eigh(&a, 1e-12, 64);
        let av = lapack_gemm(&a, &e.vectors);
        let vl = Matrix::from_fn(8, 8, |r, c| e.vectors[(r, c)] * e.values[c]);
        assert!(av.approx_eq(&vl, 1e-7), "max diff {}", av.max_abs_diff(&vl));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = symmetric(6, 9);
        let e = jacobi_eigh(&a, 1e-12, 64);
        let vtv = lapack_gemm(&e.vectors.transposed(), &e.vectors);
        assert!(vtv.approx_eq(&Matrix::identity(6), 1e-8));
    }

    #[test]
    fn edge_cases_match_the_indexed_oracle_bit_for_bit() {
        let diagonal =
            Matrix::from_fn(5, 5, |r, c| if r == c { (r * r) as f64 - 3.0 } else { 0.0 });
        assert_matches_oracle(&diagonal, 1e-12, 64);
        assert_matches_oracle(&Matrix::zeros(7, 7), 1e-12, 64);
        // Repeated eigenvalues: all-ones has spectrum {n, 0, …, 0}.
        assert_matches_oracle(&Matrix::from_fn(6, 6, |_, _| 1.0), 1e-12, 64);
        assert_matches_oracle(&Matrix::identity(4).scaled(2.5), 0.0, 64);
        let a = symmetric(8, 5);
        assert_matches_oracle(&a, 1e-12, 0);
        // Off-diagonal mass is 16.9 before the first sweep and 5.7 after
        // it: this tolerance stops after exactly one.
        let loose = 6.0;
        assert_matches_oracle(&a, loose, 64);
        assert_eq!(jacobi_eigh(&a, loose, 64), jacobi_eigh(&a, 0.0, 1));
        assert_ne!(jacobi_eigh(&a, loose, 64), jacobi_eigh(&a, 0.0, 2));
    }

    #[test]
    fn the_svd_benchmarks_ata_matches_the_indexed_oracle_bit_for_bit() {
        for n in [16, 64] {
            let ata = benchmark_ata(n);
            assert_matches_oracle(&ata, 1e-11 * ata.frobenius_norm().max(1.0), 48);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_matches_the_indexed_oracle_bit_for_bit(
            n in 1usize..=24,
            raw in proptest::collection::vec(-10.0f64..10.0, 24 * 24),
            max_sweeps in 0usize..=12,
        ) {
            let a = Matrix::from_fn(n, n, |r, c| 0.5 * (raw[r * 24 + c] + raw[c * 24 + r]));
            assert_matches_oracle(&a, 1e-9, max_sweeps);
        }
    }
}
