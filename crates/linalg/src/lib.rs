//! Dense linear algebra substrate for MISTIQUE.
//!
//! The SVCCA diagnostic technique (Raghu et al., reproduced as Algorithm 2 of the
//! MISTIQUE paper) requires singular value decomposition and canonical correlation
//! analysis over activation matrices. The paper's Python implementation leans on
//! numpy/scipy; this crate provides the equivalent primitives from scratch:
//!
//! - [`Matrix`]: a dense, row-major, f64 matrix with the usual operations,
//! - [`svd::thin_svd`]: thin SVD — Householder QR of a tall input, then
//!   one-sided Jacobi on the small triangular factor,
//! - [`cca::cca`]: canonical correlation analysis built on the SVD,
//! - [`pca::Pca`]: principal component analysis for projection diagnostics,
//! - [`svcca::svcca`]: the full SVCCA procedure (SVD-truncate both sides, then
//!   CCA between the two truncated bases: two tall decompositions in all).
//!
//! Everything is deterministic, pure and single-threaded — no external BLAS,
//! the same input gives the same bits on every call — and total: non-finite
//! input yields non-finite output, never a panic.

pub mod cca;
pub mod matrix;
pub mod pca;
pub mod stats;
pub mod svcca;
pub mod svd;

pub use cca::{cca, CcaResult};
pub use matrix::Matrix;
pub use pca::Pca;
pub use svcca::{svcca, SvccaResult};
pub use svd::{thin_svd, Svd};
