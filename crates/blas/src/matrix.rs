//! The dense row-major matrix type shared across the workspace.
//!
//! This is the PetaBricks *matrix* (§4.3): "an input or an output of a
//! transform ... an n-dimensional dense array of elements". Two dimensions
//! suffice for every benchmark in the paper; vectors are `1×n` or `n×1`
//! matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow");
        Matrix { rows, cols, data: vec![0.0; len] }
    }

    /// Build from a function of `(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Wrap an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must match dimensions");
        Matrix { rows, cols, data }
    }

    /// Identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major backing slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    ///
    /// # Panics
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        let cols = self.cols;
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Transposed copy.
    #[must_use]
    pub fn transposed(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.data.len());
        if !self.data.is_empty() {
            for c in 0..self.cols {
                data.extend(self.data[c..].iter().step_by(self.cols));
            }
        }
        Matrix { rows: self.cols, cols: self.rows, data }
    }

    /// Copy of the `rows × cols` block whose top-left corner is
    /// `(row0, col0)`.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    #[must_use]
    pub fn block(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(row0 + rows <= self.rows && col0 + cols <= self.cols, "block out of bounds");
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            let start = (row0 + r) * self.cols + col0;
            data.extend_from_slice(&self.data[start..start + cols]);
        }
        Matrix { rows, cols, data }
    }

    /// Write `src` into the block whose top-left corner is `(row0, col0)`.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn set_block(&mut self, row0: usize, col0: usize, src: &Matrix) {
        assert!(
            row0 + src.rows <= self.rows && col0 + src.cols <= self.cols,
            "block out of bounds"
        );
        for r in 0..src.rows {
            let start = (row0 + r) * self.cols + col0;
            self.data[start..start + src.cols].copy_from_slice(src.row(r));
        }
    }

    /// Element-wise sum.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "dimension mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise difference.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "dimension mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Multiply every element by `s`.
    #[must_use]
    pub fn scaled(&self, s: f64) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute element-wise difference to `other`; NaN when any
    /// difference is NaN (`f64::max` would drop it).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "dimension mismatch");
        let diffs = self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs());
        diffs.fold(0.0, |max, d| if d > max || d.is_nan() { d } else { max })
    }

    /// True when every element differs from `other` by at most `tol`; a
    /// NaN difference is not within. One pass with no early exit, so it
    /// vectorises.
    #[must_use]
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        let diffs = self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs());
        (self.rows, self.cols) == (other.rows, other.cols)
            && diffs.fold(true, |all, d| all & (d <= tol))
    }
}

/// The row-major elements, as [`Matrix::as_slice`] gives them.
impl AsRef<[f64]> for Matrix {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}:", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn degenerate_transpose_and_rows() {
        let m = Matrix::zeros(0, 3);
        let t = m.transposed();
        assert_eq!((t.rows(), t.cols()), (3, 0));
        assert!(t.is_empty());
        let mut m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        m.row_mut(1)[2] = 9.0;
        assert_eq!(m.row(1), &[3.0, 4.0, 9.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn block_get_set_roundtrip() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let b = m.block(1, 2, 2, 2);
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        let mut z = Matrix::zeros(4, 4);
        z.set_block(1, 2, &b);
        assert_eq!(z[(2, 3)], m[(2, 3)]);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "block out of bounds")]
    fn oversized_block_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.block(1, 1, 2, 2);
    }

    #[test]
    fn arithmetic() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f64);
        let b = Matrix::identity(2);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.scaled(2.0)[(1, 1)], 4.0);
        assert!((Matrix::identity(3).frobenius_norm() - 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn a_nan_difference_is_kept_and_never_within() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let mut b = a.clone();
        b[(1, 2)] = f64::NAN;
        assert!(a.max_abs_diff(&b).is_nan());
        assert!(!a.approx_eq(&b, f64::INFINITY));
        assert!(a.approx_eq(&a.scaled(1.0 + 1e-15), 1e-12));
    }

    #[test]
    fn display_is_nonempty_and_truncates() {
        let m = Matrix::zeros(20, 20);
        let s = m.to_string();
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains("..."));
    }

    proptest! {
        #[test]
        fn prop_add_commutes(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
            let a = Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 7 + seed as usize) % 17) as f64);
            let b = Matrix::from_fn(rows, cols, |r, c| ((r * 13 + c * 3 + seed as usize) % 23) as f64);
            prop_assert_eq!(a.add(&b), b.add(&a));
        }

        #[test]
        fn prop_transpose_preserves_norm(rows in 1usize..8, cols in 1usize..8) {
            let m = Matrix::from_fn(rows, cols, |r, c| (r as f64) - 2.0 * (c as f64));
            prop_assert!((m.frobenius_norm() - m.transposed().frobenius_norm()).abs() < 1e-9);
        }
    }
}
