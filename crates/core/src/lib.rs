//! # MISTIQUE: Model Intermediate STore and QUery Engine
//!
//! A from-scratch Rust reproduction of *"MISTIQUE: A System to Store and
//! Query Model Intermediates for Model Diagnosis"* (Vartak et al., SIGMOD
//! 2018).
//!
//! MISTIQUE captures the intermediate datasets a machine-learning model
//! produces — the outputs of every pipeline stage (TRAD) or the hidden
//! activations of every layer (DNN) — stores them compactly, and answers
//! diagnostic queries by *either* reading a stored intermediate *or*
//! re-running the model, whichever the cost model says is cheaper.
//!
//! ## Quick start
//!
//! ```no_run
//! use mistique_core::{Mistique, MistiqueConfig, ModelSource};
//! use mistique_pipeline::{templates, ZillowData};
//! use std::sync::Arc;
//!
//! let data = Arc::new(ZillowData::generate(5_000, 42));
//! let mut mistique = Mistique::open("/tmp/mistique-demo", MistiqueConfig::default()).unwrap();
//!
//! // Log every intermediate of one Zillow pipeline.
//! let pipeline = templates::zillow_pipelines().remove(0);
//! let id = mistique
//!     .register_trad(pipeline, Arc::clone(&data))
//!     .unwrap();
//! mistique.log_intermediates(&id).unwrap();
//!
//! // Query: MISTIQUE decides read-vs-rerun via the cost model.
//! let interms = mistique.intermediates_of(&id);
//! let result = mistique.get_intermediate(&interms[3], None, None).unwrap();
//! println!("fetched {} rows via {:?}", result.frame.n_rows(), result.strategy);
//! ```
//!
//! ## Architecture (paper Fig 3)
//!
//! | Paper component | Here |
//! |---|---|
//! | PipelineExecutor | [`executor::ModelSource`] (TRAD pipelines + DNN checkpoints) |
//! | DataStore (InMemoryStore + disk) | `mistique_store::DataStore` |
//! | ChunkReader | [`reader`] (in [`Mistique::get_intermediate`]) |
//! | MetadataDB | [`metadata::MetadataDb`] |
//! | Cost model (Sec 5) | [`cost::CostModel`] |
//! | Quantization (Sec 4.1) | `mistique_quantize` + [`capture`] |
//! | Dedup (Sec 4.2) | `mistique_dedup` + `mistique_store` |
//! | Adaptive materialization (Sec 4.3) | [`Mistique::get_intermediate`] + γ |
//! | Diagnostic queries (Table 1/5) | [`diagnostics`] |

pub mod audit;
pub mod capture;
pub mod cost;
pub mod dash;
pub mod diagnostics;
pub mod error;
pub mod executor;
pub mod index_state;
pub mod manager;
pub mod metadata;
pub mod persist;
mod prefix;
pub mod reader;
pub mod replay;
pub mod report;
pub mod system;

pub use audit::{INTERVAL_CAPTURE, SLO_BURN_FACTOR, SLO_MIN_SAMPLES};
pub use dash::{render_top, top_view, TopView};

pub use capture::{CaptureScheme, ValueScheme};
pub use cost::{CostModel, DriftMonitor};
// Observability (the `mistique-obs` crate) re-exported for convenience:
// `Mistique::obs()` hands out an `Obs`, snapshots come back as `Snapshot`.
pub use error::MistiqueError;
pub use executor::ModelSource;
pub use index_state::IndexPruning;
pub use manager::{next_demotion, COMPACT_LIVE_RATIO};
pub use metadata::{IntermediateMeta, MetadataDb, ModelKind};
pub use mistique_index::{IntermediateIndex, DEFAULT_TOP_M};
pub use mistique_obs::{
    AuditEffect, AuditLog, AuditRecord, AuditStats, Counter, DemotionRecord, Gauge, HistPoint,
    Histogram, Obs, SegmentIo, Snapshot, Span, SpanContext, SpanRecord, Timeline, TimelinePoint,
};
pub use mistique_store::{
    CompactionReport, RetractOutcome, StoreSubdir, AUDIT_SUBDIR, INDEX_SUBDIR,
};
pub use reader::{FetchResult, FetchStrategy};
pub use replay::{
    decode_arch, differential_replay, encode_arch, replay_into, DifferentialReport, ReplayOptions,
    ReplayOutcome,
};
pub use report::{PlanChoice, QueryReport, ReclaimReport, ReportRing};
pub use system::{Mistique, MistiqueConfig, StorageStrategy};
