//! Dense `f32` matrix math substrate for the DeltaZip reproduction.
//!
//! Every higher-level crate (the transformer substrate, the compression
//! pipeline, the CPU reference kernels) builds on the [`Matrix`] type defined
//! here. The crate deliberately stays small and dependency-free: row-major
//! dense storage, a blocked single-threaded GEMM, the little
//! bit of linear algebra the OBS solver needs (Cholesky factorization and
//! positive-definite inversion), and summary statistics used by the
//! experiment harness.
//!
//! # Examples
//!
//! ```
//! use dz_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

pub mod gemm;
pub mod linalg;
pub mod matrix;
pub mod rng;
pub mod stats;

pub use matrix::Matrix;
pub use rng::Rng;
