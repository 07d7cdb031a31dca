//! Activation quantization and summarization (MISTIQUE Sec 4.1).
//!
//! Diagnostic techniques care about *relative* activation values, so MISTIQUE
//! quantizes aggressively before storing:
//!
//! - [`half`]: IEEE-754 binary16 conversion, built from scratch — the engine
//!   behind **LP_QT** (lower-precision float storage, 2× reduction from f32).
//! - [`kbit`]: **KBIT_QT** — equi-depth quantile binning into `2^k` codes
//!   (k = 8 by default, 256 bins), plus reconstruction back to representative
//!   values. Sub-byte codes are bit-packed ([`bitpack`]).
//! - [`threshold`]: **THRESHOLD_QT** — binarize at a percentile threshold
//!   (e.g. NetDissect's top-0.5% rule), 32× reduction.
//! - [`pool`]: **POOL_QT** — σ×σ average or max pooling of 2-D activation
//!   maps; σ=2 is the paper's default, σ=S collapses each map to one value.

pub mod bitpack;
pub mod half;
pub mod kbit;
pub mod pool;
pub mod threshold;

pub use half::f16;
pub use kbit::KbitQuantizer;
pub use pool::{avg_pool2d, max_pool2d, PoolKind};
pub use threshold::ThresholdQuantizer;
