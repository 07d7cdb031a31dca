//! The PipelineExecutor: a uniform interface for running TRAD pipelines and
//! DNN checkpoints, used both when logging and when re-running for a query.

use std::sync::Arc;

use mistique_dataframe::DataFrame;
use mistique_nn::{ArchConfig, CifarLike, Model};
use mistique_obs::Obs;
use mistique_pipeline::{Pipeline, ZillowData};

use crate::capture::{encode_batch, LayerCapture, ValueScheme};
use crate::metadata::ModelKind;

/// An executable model MISTIQUE can re-run on demand.
#[derive(Clone)]
pub enum ModelSource {
    /// A traditional ML pipeline with its input tables.
    Trad {
        /// The executable pipeline.
        pipeline: Pipeline,
        /// Input tables (the paper's `input_func`).
        data: Arc<ZillowData>,
    },
    /// A DNN checkpoint with its input images.
    Dnn {
        /// Architecture description.
        arch: Arc<ArchConfig>,
        /// Weight seed.
        seed: u64,
        /// Checkpoint epoch.
        epoch: u32,
        /// Input dataset.
        data: Arc<CifarLike>,
        /// Forward batch size as registered (the paper uses 1000). It is
        /// journaled with the registration and read by nothing else: every
        /// forward pass, logging's and a re-run's, runs
        /// [`mistique_nn::model::FORWARD_TILE`] examples at a time.
        batch_size: usize,
    },
}

impl ModelSource {
    /// The model id.
    pub fn id(&self) -> String {
        match self {
            ModelSource::Trad { pipeline, .. } => pipeline.id.clone(),
            ModelSource::Dnn { arch, epoch, .. } => format!("{}@epoch{}", arch.name, epoch),
        }
    }

    /// TRAD or DNN.
    pub fn kind(&self) -> ModelKind {
        match self {
            ModelSource::Trad { .. } => ModelKind::Trad,
            ModelSource::Dnn { .. } => ModelKind::Dnn,
        }
    }

    /// Number of stages (TRAD) or layers (DNN).
    pub fn n_stages(&self) -> usize {
        match self {
            ModelSource::Trad { pipeline, .. } => pipeline.len(),
            ModelSource::Dnn { arch, seed, .. } => {
                // Layer count depends on arch expansion; build once cheaply.
                Model::build(arch, *seed, 0).n_layers()
            }
        }
    }

    /// Intermediate ids in stage order.
    pub fn intermediate_ids(&self) -> Vec<String> {
        match self {
            ModelSource::Trad { pipeline, .. } => (0..pipeline.len())
                .map(|i| pipeline.intermediate_id(i))
                .collect(),
            ModelSource::Dnn { .. } => {
                let id = self.id();
                (1..=self.n_stages())
                    .map(|i| format!("{id}.layer{i}"))
                    .collect()
            }
        }
    }

    /// Number of input examples the model runs over.
    pub fn n_examples(&self) -> usize {
        match self {
            // TRAD pipelines are defined over whole tables; "examples" are
            // the training rows.
            ModelSource::Trad { data, .. } => data.train.n_rows(),
            ModelSource::Dnn { data, .. } => data.len(),
        }
    }

    /// Re-create the intermediate at `stage_index` by running the model
    /// forward, over the first `n_ex` examples (DNN only; TRAD pipelines
    /// always run over their full tables, as in the paper's evaluation). A
    /// DNN layer comes back in the layout it is stored at under
    /// `pool_sigma` (POOL_QT), at full precision: every tile of the forward
    /// is captured as logging captures it. Model load and stage/layer
    /// execution become child spans of whatever span is active on the
    /// calling thread (e.g. the reader's `fetch.rerun`).
    pub fn recreate(
        &self,
        stage_index: usize,
        n_ex: usize,
        pool_sigma: Option<usize>,
        obs: &Obs,
    ) -> DataFrame {
        match self {
            ModelSource::Trad { pipeline, data } => {
                let mut sp = obs.span("exec.run_stages");
                sp.attr("model", &pipeline.id).attr("stage", stage_index);
                let records = pipeline.run_to(data, stage_index);
                sp.finish();
                records
                    .into_iter()
                    .last()
                    .expect("at least one stage")
                    .output
            }
            ModelSource::Dnn {
                arch,
                seed,
                epoch,
                data,
                ..
            } => {
                let mut sp_load = obs.span("exec.model_load");
                sp_load.attr("model", self.id());
                let model = Model::build(arch, *seed, *epoch);
                sp_load.finish();

                let n = n_ex.min(data.len());
                let capture = LayerCapture::new(model.layers[stage_index].out_shape, pool_sigma);
                let mut sp_fwd = obs.span("exec.forward");
                sp_fwd.attr("layer", stage_index).attr("n_ex", n);
                let mut rows = Vec::with_capacity(n);
                model.forward_tiles(&data.images, 0..n, stage_index, |layer, t, _| {
                    if layer == stage_index {
                        capture.capture_tile(t, &mut rows);
                    }
                });
                sp_fwd.finish();
                encode_batch(&rows, capture.features(), ValueScheme::Full, None, None).frame
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_nn::simple_cnn;
    use mistique_pipeline::templates::zillow_pipelines;

    fn trad_source() -> ModelSource {
        ModelSource::Trad {
            pipeline: zillow_pipelines().remove(0),
            data: Arc::new(ZillowData::generate(150, 1)),
        }
    }

    fn dnn_source() -> ModelSource {
        ModelSource::Dnn {
            arch: Arc::new(simple_cnn(16)),
            seed: 7,
            epoch: 2,
            data: Arc::new(CifarLike::generate(12, 10, 3)),
            batch_size: 5,
        }
    }

    #[test]
    fn trad_ids_and_stages() {
        let s = trad_source();
        assert_eq!(s.kind(), ModelKind::Trad);
        assert_eq!(s.intermediate_ids().len(), s.n_stages());
        assert!(s.intermediate_ids()[0].contains("interm0_ReadCSV"));
    }

    #[test]
    fn dnn_ids_and_stages() {
        let s = dnn_source();
        assert_eq!(s.kind(), ModelKind::Dnn);
        assert_eq!(s.id(), "CIFAR10_CNN@epoch2");
        let ids = s.intermediate_ids();
        assert_eq!(ids.len(), s.n_stages());
        assert_eq!(ids[0], "CIFAR10_CNN@epoch2.layer1");
    }

    #[test]
    fn trad_recreate_matches_direct_run() {
        let s = trad_source();
        let rec = s.recreate(3, usize::MAX, None, &Obs::new());
        if let ModelSource::Trad { pipeline, data } = &s {
            let direct = pipeline.run_to(data, 3).pop().unwrap().output;
            assert_eq!(rec, direct);
        }
    }

    #[test]
    fn dnn_recreate_respects_n_ex() {
        let s = dnn_source();
        let obs = Obs::new();
        let all = s.recreate(0, usize::MAX, None, &obs);
        let some = s.recreate(0, 4, None, &obs);
        assert_eq!(all.n_rows(), 12);
        assert_eq!(some.n_rows(), 4);
        assert_eq!(all.n_cols(), some.n_cols());
        // Layer 1 is 2 channels of 32x32; pool(2) stores 2 of 16x16.
        assert_eq!(all.n_cols(), 2 * 32 * 32);
        assert_eq!(s.recreate(0, 4, Some(2), &obs).n_cols(), 2 * 16 * 16);
    }
}
