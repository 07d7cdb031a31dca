//! Traditional ML pipeline substrate (TRAD models, Sec 2.1 / 7.1.1).
//!
//! The paper evaluates MISTIQUE on 50 scikit-learn pipelines derived from
//! Kaggle Zestimate scripts. scikit-learn does not exist here, so this crate
//! implements the whole substrate from scratch:
//!
//! - [`data`]: a deterministic synthetic generator for the three Zillow
//!   tables (properties, train, test) with the same column shapes,
//! - [`stage`]: the transformer vocabulary of Table 4 (ReadCSV, Join,
//!   SelectColumn, DropColumns, FillNA, Avg, OneHotEncoding,
//!   GetConstructionRecency, ComputeNeighborhood, IsResidential,
//!   TrainTestSplit, Train*, Predict),
//! - [`model`]: trainable models — ElasticNet via coordinate descent and a
//!   gradient-boosted decision-tree ensemble standing in for
//!   XGBoost/LightGBM,
//! - [`pipeline`]: the executable pipeline: an ordered list of stages, each
//!   emitting one intermediate dataframe,
//! - [`templates`]: the ten pipeline templates P1–P10 of Appendix E, each
//!   instantiated with five hyper-parameter variants = 50 pipelines,
//! - [`spec`]: a JSON pipeline specification standing in for the paper's
//!   YAML format.
//!
//! Every stage is deterministic given the pipeline's seed, so re-running a
//! pipeline reproduces byte-identical intermediates — the property both
//! dedup and the read-vs-rerun cost model rely on.

pub mod csv;
pub mod data;
pub mod model;
pub mod pipeline;
pub mod spec;
pub mod stage;
pub mod templates;

pub use data::ZillowData;
pub use pipeline::{Pipeline, PipelineContext, RunRecord};
pub use spec::PipelineSpec;
pub use stage::Stage;
