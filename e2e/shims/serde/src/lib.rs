//! Offline stand-in for `serde`: marker traits plus derives, enough for
//! the engine's `#[derive(Serialize, Deserialize)]` types to compile.
//! Nothing serialises — `serde_json`'s stand-in returns `Err` at run time —
//! so the benchmark never calls `persist()` / `reopen()`.

pub use serde_derive::{Deserialize, Serialize};

/// Marker for types the engine derives `Serialize` on.
pub trait Serialize {}

/// Marker for types the engine derives `Deserialize` on.
pub trait Deserialize<'de>: Sized {}

pub mod de {
    /// A type deserialisable from any lifetime.
    pub trait DeserializeOwned: for<'de> super::Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> super::Deserialize<'de> {}
}
