//! Columnar data model for MISTIQUE.
//!
//! The paper (Sec 3) represents every model intermediate — including the input
//! data and final predictions — as a *dataframe*: a logical table with named,
//! typed columns and an implicit `row_id`. Rows are grouped into **RowBlocks**
//! (1 000 rows by default in the evaluation) and the cells of one column within
//! one RowBlock form a **ColumnChunk**, the unit of storage, hashing,
//! de-duplication, and compression.
//!
//! This crate provides:
//! - [`DType`] / [`ColumnData`]: the supported cell types,
//! - [`Column`] and [`DataFrame`]: the logical view,
//! - [`ColumnChunk`]: the physical unit with canonical byte serialization,
//! - [`DataFrame::chunks`]: splitting a DataFrame into `(RowBlock, ColumnChunk)` pieces.

pub mod chunk;
pub mod column;
pub mod frame;

pub use chunk::{ChunkError, ChunkView, ColumnChunk};
pub use column::{Column, ColumnData, DType};
pub use frame::DataFrame;

/// Default number of rows per RowBlock, matching the paper's evaluation setup
/// ("RowBlocks in MISTIQUE were set to be 1K rows", Sec 8.1).
pub const DEFAULT_ROW_BLOCK_SIZE: usize = 1000;
