//! Micro-benchmarks for what a TRAD pipeline run costs: the boosted-tree
//! train stages, which take most of it, on the real training matrices of
//! Zillow pipelines over 5 000 properties (the corpus `trad_read` logs), and
//! one whole pipeline run.
//!
//! - `gbdt/fit/xgboost`: P2_v0's `TrainXGBoost` (every feature per split);
//! - `gbdt/fit/lightgbm`: P1_v0's `TrainLightGBM` (`sub_feature` 0.6);
//! - `gbdt/fit/bagged`: P7_v0's `TrainLightGBM` (`bagging_fraction` 0.6,
//!   so every round fits a fresh row sample);
//! - `pipeline/run/P5_v0`: every stage of P5_v0, which trains both flavours.
//!
//! A `gbdt/fit/*` iteration executes the train stage on a context holding
//! the stages before it: feature-matrix extraction, the fit and the
//! training-set predictions.

use mistique_bench::micro;
use mistique_pipeline::stage::Stage;
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::{Pipeline, PipelineContext, ZillowData};

fn main() {
    let data = ZillowData::generate(5000, 1);
    let pipelines = zillow_pipelines();
    let find = |id: &str| -> &Pipeline {
        pipelines
            .iter()
            .find(|p| p.id == id)
            .unwrap_or_else(|| panic!("no pipeline {id}"))
    };

    for (case, id) in [
        ("xgboost", "P2_v0"),
        ("lightgbm", "P1_v0"),
        ("bagged", "P7_v0"),
    ] {
        let pipeline = find(id);
        let train = pipeline
            .stages
            .iter()
            .position(|s| matches!(s, Stage::TrainGbdt { .. }))
            .unwrap_or_else(|| panic!("{id} trains no boosted trees"));
        let mut ctx = PipelineContext::new(data.clone(), pipeline.hyper.clone(), pipeline.seed);
        for stage in &pipeline.stages[..train] {
            stage.execute(&mut ctx);
        }
        micro(&format!("gbdt/fit/{case}"), 0, || {
            pipeline.stages[train].execute(&mut ctx)
        });
    }

    let p5 = find("P5_v0");
    micro("pipeline/run/P5_v0", 0, || p5.run(&data));
}
