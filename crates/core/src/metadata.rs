//! The MetadataDB (Fig 3): the central registry tying models, intermediates,
//! storage state, measured costs, and query statistics together.

use std::collections::HashMap;
use std::time::Duration;

use crate::capture::CaptureScheme;

/// What kind of model produced an intermediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Traditional ML pipeline (scikit-learn-style stages).
    Trad,
    /// Deep neural network checkpoint.
    Dnn,
}

/// Registered model metadata.
#[derive(Clone, Debug)]
pub struct ModelMeta {
    /// Model id (`P3_v1` or `CIFAR10_VGG16@epoch5`).
    pub id: String,
    /// TRAD or DNN.
    pub kind: ModelKind,
    /// Number of stages / layers.
    pub n_stages: usize,
    /// Measured time to instantiate the model (the cost model's
    /// `t_model_load`; the paper measured 1.2 s for VGG16).
    pub model_load: Duration,
    /// Examples the model was logged over.
    pub n_examples: usize,
    /// Ordered intermediate ids, one per stage.
    pub intermediates: Vec<String>,
}

/// Per-intermediate metadata: schema, storage state, measured costs, and the
/// query counter driving adaptive materialization.
#[derive(Clone, Debug)]
pub struct IntermediateMeta {
    /// Intermediate id: `<model>.<stage>` (e.g. `P3_v1.interm4_Join`,
    /// `CIFAR10_VGG16@epoch5.layer11`).
    pub id: String,
    /// Owning model id.
    pub model_id: String,
    /// Stage / layer index within the model.
    pub stage_index: usize,
    /// Rows in the intermediate.
    pub n_rows: usize,
    /// Column names in order.
    pub columns: Vec<String>,
    /// Capture scheme the stored bytes use.
    pub scheme: CaptureScheme,
    /// Whether chunks for this intermediate are materialized in the store.
    pub materialized: bool,
    /// Serialized (uncompressed) bytes of the stored representation.
    pub stored_bytes: u64,
    /// Measured execution time of this stage alone during logging.
    pub exec_time: Duration,
    /// Measured cumulative execution time of stages `0..=stage_index`
    /// (the re-run cost numerator of Eq 2/3).
    pub cum_exec_time: Duration,
    /// Number of queries that have touched this intermediate (Eq 5's
    /// `n_query(i)`).
    pub n_queries: u64,
    /// Serialized KBIT quantizer when the value scheme is KBIT.
    pub quantizer: Option<Vec<u8>>,
    /// Fitted threshold when the value scheme is THRESHOLD.
    pub threshold: Option<f32>,
    /// Post-pooling activation geometry `(channels, h, w)` for DNN layers.
    pub shape: Option<(usize, usize, usize)>,
    /// Whether the reclaim ladder already re-encoded this intermediate's
    /// chunks as base+delta frames (the rung between THRESHOLD and purge);
    /// re-encoding is attempted at most once per materialization.
    pub delta_encoded: bool,
    /// The DNN layer's chain digest: H(the previous layer's digest, every
    /// field of the layer), rooted at the dataset's content digest. Two
    /// intermediates with one chain hold the same activations, so a later
    /// checkpoint binds to this one's chunks instead of logging them again
    /// (DESIGN.md §2 "Logging a shared prefix once"). `None` for TRAD
    /// stages, for layers logged under a strategy other than Dedup, and in
    /// manifests from before the field.
    pub chain: Option<(u64, u64)>,
}

impl IntermediateMeta {
    /// Stored bytes per row (used by the cost model's `t_read`, Eq 4).
    pub fn bytes_per_row(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.stored_bytes as f64 / self.n_rows as f64
        }
    }
}

/// The metadata database.
#[derive(Debug, Default)]
pub struct MetadataDb {
    models: HashMap<String, ModelMeta>,
    intermediates: HashMap<String, IntermediateMeta>,
}

impl MetadataDb {
    /// Create an empty registry.
    pub fn new() -> MetadataDb {
        MetadataDb::default()
    }

    /// Register a model. Returns `false` if the id already exists.
    pub fn register_model(&mut self, meta: ModelMeta) -> bool {
        if self.models.contains_key(&meta.id) {
            return false;
        }
        self.models.insert(meta.id.clone(), meta);
        true
    }

    /// Look up a model.
    pub fn model(&self, id: &str) -> Option<&ModelMeta> {
        self.models.get(id)
    }

    /// Mutable model lookup.
    pub fn model_mut(&mut self, id: &str) -> Option<&mut ModelMeta> {
        self.models.get_mut(id)
    }

    /// All model ids, sorted for determinism.
    pub fn model_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.models.keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Insert or replace intermediate metadata.
    pub fn upsert_intermediate(&mut self, meta: IntermediateMeta) {
        self.intermediates.insert(meta.id.clone(), meta);
    }

    /// Look up an intermediate.
    pub fn intermediate(&self, id: &str) -> Option<&IntermediateMeta> {
        self.intermediates.get(id)
    }

    /// Mutable intermediate lookup.
    pub fn intermediate_mut(&mut self, id: &str) -> Option<&mut IntermediateMeta> {
        self.intermediates.get_mut(id)
    }

    /// Intermediates of a model in stage order.
    pub fn intermediates_of(&self, model_id: &str) -> Vec<&IntermediateMeta> {
        let mut v: Vec<&IntermediateMeta> = self
            .intermediates
            .values()
            .filter(|m| m.model_id == model_id)
            .collect();
        v.sort_by_key(|m| m.stage_index);
        v
    }

    /// The intermediates carrying chain digest `chain`, by id.
    pub(crate) fn with_chain(&self, chain: (u64, u64)) -> Vec<&IntermediateMeta> {
        let mut v: Vec<&IntermediateMeta> = self
            .intermediates
            .values()
            .filter(|m| m.chain == Some(chain))
            .collect();
        v.sort_by(|a, b| a.id.cmp(&b.id));
        v
    }

    /// Count of registered intermediates.
    pub fn n_intermediates(&self) -> usize {
        self.intermediates.len()
    }

    /// Record one query against an intermediate, returning the new count.
    pub fn bump_queries(&mut self, id: &str) -> u64 {
        match self.intermediates.get_mut(id) {
            Some(m) => {
                m.n_queries += 1;
                m.n_queries
            }
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_interm(id: &str, model: &str, stage: usize) -> IntermediateMeta {
        IntermediateMeta {
            id: id.into(),
            model_id: model.into(),
            stage_index: stage,
            n_rows: 100,
            columns: vec!["a".into(), "b".into()],
            scheme: CaptureScheme::full(),
            materialized: true,
            stored_bytes: 1600,
            exec_time: Duration::from_millis(5),
            cum_exec_time: Duration::from_millis(20),
            n_queries: 0,
            quantizer: None,
            threshold: None,
            shape: None,
            delta_encoded: false,
            chain: None,
        }
    }

    #[test]
    fn register_and_lookup_models() {
        let mut db = MetadataDb::new();
        assert!(db.register_model(ModelMeta {
            id: "m1".into(),
            kind: ModelKind::Trad,
            n_stages: 3,
            model_load: Duration::ZERO,
            n_examples: 100,
            intermediates: vec![],
        }));
        assert!(!db.register_model(ModelMeta {
            id: "m1".into(),
            kind: ModelKind::Trad,
            n_stages: 3,
            model_load: Duration::ZERO,
            n_examples: 100,
            intermediates: vec![],
        }));
        assert!(db.model("m1").is_some());
        assert!(db.model("m2").is_none());
    }

    #[test]
    fn intermediates_sorted_by_stage() {
        let mut db = MetadataDb::new();
        db.upsert_intermediate(sample_interm("m.i2", "m", 2));
        db.upsert_intermediate(sample_interm("m.i0", "m", 0));
        db.upsert_intermediate(sample_interm("other.i0", "other", 0));
        let of_m = db.intermediates_of("m");
        assert_eq!(of_m.len(), 2);
        assert_eq!(of_m[0].stage_index, 0);
        assert_eq!(of_m[1].stage_index, 2);
    }

    #[test]
    fn query_counter_increments() {
        let mut db = MetadataDb::new();
        db.upsert_intermediate(sample_interm("m.i0", "m", 0));
        assert_eq!(db.bump_queries("m.i0"), 1);
        assert_eq!(db.bump_queries("m.i0"), 2);
        assert_eq!(db.bump_queries("nope"), 0);
    }

    #[test]
    fn bytes_per_row() {
        let m = sample_interm("m.i0", "m", 0);
        assert_eq!(m.bytes_per_row(), 16.0);
        let mut empty = m.clone();
        empty.n_rows = 0;
        assert_eq!(empty.bytes_per_row(), 0.0);
    }
}
