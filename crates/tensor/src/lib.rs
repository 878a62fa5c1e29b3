#![warn(missing_docs)]
//! # rdd-tensor
//!
//! The numeric substrate for the RDD (Reliable Data Distillation, SIGMOD
//! 2020) reproduction: dense and CSR sparse matrices, the small set of
//! kernels GCN training needs, a tape-based reverse-mode autodiff engine,
//! weight initialization, the seeded generator and the Adam optimizer.
//!
//! Everything is `f32`, CPU-only, single-threaded, and deterministic under
//! a fixed seed.
//!
//! ```
//! use rdd_tensor::{Matrix, Tape};
//! use std::rc::Rc;
//!
//! let mut tape = Tape::new();
//! let w = tape.param(0, Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
//! let x = tape.constant(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
//! let y = tape.matmul(x, w);
//! let loss = tape.mse_rows(y, Rc::new(Matrix::zeros(1, 2)), Rc::new(vec![0]));
//! let grads = tape.backward(loss, 1);
//! assert!(grads[0].is_some());
//! ```

pub mod autograd;
pub mod init;
pub mod matrix;
pub mod mutate;
pub mod optim;
pub mod rng;
mod rows;
pub mod simd;
pub mod sparse;
pub mod workspace;

pub use autograd::{Tape, Var};
pub use init::{glorot_uniform, uniform};
pub use matrix::Matrix;
pub use optim::Adam;
pub use rng::{seeded_rng, Rng};
pub use simd::SimdTier;
pub use sparse::CsrMatrix;
pub use workspace::{Workspace, WorkspaceStats};
