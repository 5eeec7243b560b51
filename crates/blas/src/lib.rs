//! # petal-blas — dense linear algebra and tridiagonal substrate
//!
//! The paper's Strassen and SVD benchmarks bottom out in calls to LAPACK
//! ("call LAPACK when < 682×682", Fig. 6); its Tridiagonal Solver benchmark
//! needs direct solvers to compare against cyclic reduction. This crate is
//! the from-scratch substitute for those external libraries:
//!
//! * [`matrix`] — the dense row-major [`Matrix`] type shared by the whole
//!   workspace (the PetaBricks *matrix* of §4.3).
//! * [`gemm`] — naive, transposed and cache-blocked matrix multiplication;
//!   [`gemm::lapack_gemm`] is the tuned leaf kernel that plays the role of
//!   the LAPACK call in the choice space.
//! * [`tridiag`] — the Thomas algorithm and sequential cyclic reduction for
//!   tridiagonal systems.
//! * [`eigen`] — cyclic Jacobi symmetric eigendecomposition (the
//!   variable-accuracy SVD benchmark's math).
//!
//! Everything here is *pure math on host data* — scheduling, devices and
//! costs live in the other crates.

pub mod eigen;
pub mod gemm;
pub mod matrix;
pub mod tridiag;

pub use matrix::Matrix;

/// Whether two slices hold the same bit patterns, element for element — the
/// one comparison prepared state may be keyed on (`-0.0` is not `0.0`, a NaN
/// equals itself payload for payload). Slices at the same address are the
/// same memory, so they are not read.
#[must_use]
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && (std::ptr::eq(a.as_ptr(), b.as_ptr())
            || a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::same_bits;

    #[test]
    fn same_bits_is_length_then_address_then_every_bit_pattern() {
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let a = [1.0, -0.0, nan];
        assert!(same_bits(&a, &a), "the same memory");
        let copy = a;
        assert!(same_bits(&a, &copy), "a copy, NaN payload included");
        assert!(!same_bits(&a, &a[..2]), "a prefix at the same address is shorter");
        assert!(!same_bits(&a, &[1.0, 0.0, nan]), "-0.0 is not 0.0");
        assert!(!same_bits(&a, &[1.0, -0.0, f64::NAN]), "another NaN");
        assert!(same_bits(&[], &[]));
    }
}
