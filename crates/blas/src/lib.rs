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
