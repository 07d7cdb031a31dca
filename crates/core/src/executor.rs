//! The PipelineExecutor: a uniform interface for running TRAD pipelines and
//! DNN checkpoints, used both when logging and when re-running for a query.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mistique_dataframe::DataFrame;
use mistique_nn::model::activation_to_frame;
use mistique_nn::{ArchConfig, CifarLike, Model};
use mistique_obs::Obs;
use mistique_pipeline::{Pipeline, ZillowData};

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
        /// Forward batch size (the paper uses 1000).
        batch_size: usize,
    },
}

/// One re-created intermediate plus timing breakdown.
pub struct RecreatedIntermediate {
    /// The intermediate dataframe (full precision, unquantized).
    pub frame: DataFrame,
    /// Time to instantiate the model (`t_model_load`).
    pub model_load: Duration,
    /// Time to execute stages/layers up to the target.
    pub exec_time: Duration,
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
    /// always run over their full tables, as in the paper's evaluation).
    pub fn recreate(&self, stage_index: usize, n_ex: Option<usize>) -> RecreatedIntermediate {
        self.recreate_inner(stage_index, n_ex, None)
    }

    /// [`ModelSource::recreate`] with tracing: model load and stage/layer
    /// execution become child spans of whatever span is active on the
    /// calling thread (e.g. the reader's `fetch.rerun`).
    pub fn recreate_traced(
        &self,
        stage_index: usize,
        n_ex: Option<usize>,
        obs: &Obs,
    ) -> RecreatedIntermediate {
        self.recreate_inner(stage_index, n_ex, Some(obs))
    }

    fn recreate_inner(
        &self,
        stage_index: usize,
        n_ex: Option<usize>,
        obs: Option<&Obs>,
    ) -> RecreatedIntermediate {
        match self {
            ModelSource::Trad { pipeline, data } => {
                let sp = obs.map(|o| {
                    let mut s = o.span("exec.run_stages");
                    s.attr("model", &pipeline.id).attr("stage", stage_index);
                    s
                });
                let t0 = Instant::now();
                let records = pipeline.run_to(data, stage_index);
                let exec_time = t0.elapsed();
                if let Some(s) = sp {
                    s.finish();
                }
                let frame = records
                    .into_iter()
                    .last()
                    .expect("at least one stage")
                    .output;
                RecreatedIntermediate {
                    frame,
                    model_load: Duration::ZERO,
                    exec_time,
                }
            }
            ModelSource::Dnn {
                arch,
                seed,
                epoch,
                data,
                batch_size,
            } => {
                let sp_load = obs.map(|o| {
                    let mut s = o.span("exec.model_load");
                    s.attr("model", self.id());
                    s
                });
                let t0 = Instant::now();
                let model = Model::build(arch, *seed, *epoch);
                let model_load = t0.elapsed();
                if let Some(s) = sp_load {
                    s.finish();
                }

                let n = n_ex.unwrap_or(data.len()).min(data.len());
                // The forward copies its input a tile at a time; only a
                // prefix needs copying out first.
                let input = if n < data.len() {
                    Cow::Owned(data.images.slice_examples(0, n))
                } else {
                    Cow::Borrowed(&data.images)
                };
                let sp_fwd = obs.map(|o| {
                    let mut s = o.span("exec.forward");
                    s.attr("layer", stage_index).attr("n_ex", n);
                    s
                });
                let t1 = Instant::now();
                let out = model.forward_to_batched(&input, stage_index, *batch_size);
                let exec_time = t1.elapsed();
                if let Some(s) = sp_fwd {
                    s.finish();
                }
                RecreatedIntermediate {
                    frame: activation_to_frame(&out),
                    model_load,
                    exec_time,
                }
            }
        }
    }

    /// For DNN models: the activation shape `(c, h, w)` of each layer.
    pub fn layer_shapes(&self) -> Option<Vec<(usize, usize, usize)>> {
        match self {
            ModelSource::Trad { .. } => None,
            ModelSource::Dnn { arch, seed, .. } => {
                let m = Model::build(arch, *seed, 0);
                Some(m.layers.iter().map(|l| l.out_shape).collect())
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
        let rec = s.recreate(3, None);
        if let ModelSource::Trad { pipeline, data } = &s {
            let direct = pipeline.run_to(data, 3).pop().unwrap().output;
            assert_eq!(rec.frame, direct);
        }
    }

    #[test]
    fn dnn_recreate_respects_n_ex() {
        let s = dnn_source();
        let all = s.recreate(0, None);
        let some = s.recreate(0, Some(4));
        assert_eq!(all.frame.n_rows(), 12);
        assert_eq!(some.frame.n_rows(), 4);
        assert_eq!(all.frame.n_cols(), some.frame.n_cols());
    }

    #[test]
    fn dnn_layer_shapes_available() {
        let s = dnn_source();
        let shapes = s.layer_shapes().unwrap();
        assert_eq!(shapes.len(), s.n_stages());
        assert_eq!(shapes[0].1, 32, "first conv keeps 32x32");
        assert!(
            s.layer_shapes().unwrap().last().unwrap().0 == 10,
            "10 classes"
        );
        assert!(trad_source().layer_shapes().is_none());
    }
}
