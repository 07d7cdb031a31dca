//! The transformer vocabulary of the Zillow pipelines (Table 4).
//!
//! Every stage consumes named frames from the [`crate::pipeline::PipelineContext`]
//! and emits exactly one intermediate dataframe — the unit MISTIQUE logs.

use std::collections::HashMap;

use mistique_dataframe::{Column, ColumnData, DataFrame};

use crate::model::{ElasticNet, Gbdt, GbdtParams, Regressor, TreeParams};
use crate::pipeline::{FittedModel, PipelineContext};

/// Which synthetic Zillow table a `ReadCsv` stage loads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Table {
    /// Home attributes.
    Properties,
    /// Training rows with the `logerror` target.
    Train,
    /// Test rows.
    Test,
}

impl Table {
    /// Conventional frame name for the table.
    pub fn frame_name(&self) -> &'static str {
        match self {
            Table::Properties => "properties",
            Table::Train => "train",
            Table::Test => "test",
        }
    }
}

/// Which boosted-tree hyper-parameter surface a GBDT train stage exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GbdtFlavor {
    /// XGBoost-style: `eta`, `lambda`, `alpha`, `max_depth`.
    Xgboost,
    /// LightGBM-style: `learning_rate`, `sub_feature`, `min_data`,
    /// `bagging_fraction`.
    Lightgbm,
}

/// One pipeline stage. Executing a stage mutates the context (adds frames or
/// models) and returns the stage's intermediate dataframe.
#[derive(Clone, Debug, PartialEq)]
pub enum Stage {
    /// Load a source table into its conventional frame.
    ReadCsv {
        /// The table to load.
        table: Table,
    },
    /// One-hot encode a categorical column in place.
    OneHot {
        /// Frame to transform.
        frame: String,
        /// Categorical column name.
        column: String,
    },
    /// Replace NaN values in every float column with the column mean.
    FillNa {
        /// Frame to transform.
        frame: String,
    },
    /// Feature engineering: add `avg_room_size = sqft / bedrooms`.
    AvgFeature {
        /// Frame to transform.
        frame: String,
    },
    /// Feature engineering: add `recency = 2017 - year_built`.
    ConstructionRecency {
        /// Frame to transform.
        frame: String,
    },
    /// Feature engineering: add a coarse `neighborhood` code from region and
    /// a tax-value bin of width `granularity` dollars.
    Neighborhood {
        /// Frame to transform.
        frame: String,
    },
    /// Feature engineering: add `is_residential` from `prop_type`.
    IsResidential {
        /// Frame to transform.
        frame: String,
    },
    /// Inner-join two frames on an i64 key column.
    Join {
        /// Left frame (row order preserved).
        left: String,
        /// Right frame.
        right: String,
        /// Key column present in both.
        on: String,
        /// Name of the output frame.
        out: String,
    },
    /// Project a single column into a new one-column frame.
    SelectColumn {
        /// Source frame.
        frame: String,
        /// Column to project.
        column: String,
        /// Name of the output frame.
        out: String,
    },
    /// Copy a frame without the listed columns.
    DropColumns {
        /// Source frame.
        frame: String,
        /// Columns to drop (missing names are ignored).
        columns: Vec<String>,
        /// Name of the output frame.
        out: String,
    },
    /// Deterministically split a frame into `<frame>_fit` / `<frame>_holdout`.
    TrainTestSplit {
        /// Source frame.
        frame: String,
        /// Fraction of rows in the fit part.
        frac: f64,
    },
    /// Fit an ElasticNet on a frame's features against `y_col`.
    /// Hyper-parameters: `alpha`, `l1_ratio`, `tol`, `normalize`.
    TrainElasticNet {
        /// Frame containing features and the target column.
        frame: String,
        /// Target column name.
        y_col: String,
        /// Name under which the fitted model is registered.
        name: String,
    },
    /// Fit a boosted-tree model on a frame's features against `y_col`.
    TrainGbdt {
        /// Frame containing features and the target column.
        frame: String,
        /// Target column name.
        y_col: String,
        /// Name under which the fitted model is registered.
        name: String,
        /// Hyper-parameter surface.
        flavor: GbdtFlavor,
    },
    /// Predict with a registered model over a frame's features, emitting a
    /// frame with `parcel_id` (when present) and `pred`.
    Predict {
        /// Registered model name. `"a+b"` blends two models with the
        /// `xgb_weight` / `lgbm_weight` hyper-parameters (P5).
        model: String,
        /// Frame to predict over.
        frame: String,
        /// Name of the output frame.
        out: String,
    },
}

/// Columns never used as model features.
const NON_FEATURES: [&str; 4] = ["parcel_id", "logerror", "pred", "row_id"];

/// Extract the numeric feature matrix of a frame (row-major) and the feature
/// names, excluding ids/targets/predictions and categorical columns.
pub fn feature_matrix(frame: &DataFrame) -> (Vec<f64>, usize, Vec<String>) {
    let feats: Vec<&Column> = frame
        .columns()
        .iter()
        .filter(|c| {
            !NON_FEATURES.contains(&c.name.as_str()) && !matches!(c.data, ColumnData::Cat { .. })
        })
        .collect();
    let names: Vec<String> = feats.iter().map(|c| c.name.clone()).collect();
    let n_features = feats.len();
    let n_rows = frame.n_rows();
    let cols: Vec<Vec<f64>> = feats.iter().map(|c| c.data.to_f64()).collect();
    let mut x = Vec::with_capacity(n_rows * n_features);
    for r in 0..n_rows {
        for col in &cols {
            x.push(col[r]);
        }
    }
    (x, n_features, names)
}

fn hyper(ctx: &PipelineContext, key: &str, default: f64) -> f64 {
    ctx.hyper.get(key).copied().unwrap_or(default)
}

impl Stage {
    /// A short name identifying the stage kind (used in intermediate ids).
    pub fn kind(&self) -> &'static str {
        match self {
            Stage::ReadCsv { .. } => "ReadCSV",
            Stage::OneHot { .. } => "OneHotEncoding",
            Stage::FillNa { .. } => "FillNA",
            Stage::AvgFeature { .. } => "Avg",
            Stage::ConstructionRecency { .. } => "GetConstructionRecency",
            Stage::Neighborhood { .. } => "ComputeNeighborhood",
            Stage::IsResidential { .. } => "IsResidential",
            Stage::Join { .. } => "Join",
            Stage::SelectColumn { .. } => "SelectColumn",
            Stage::DropColumns { .. } => "DropColumns",
            Stage::TrainTestSplit { .. } => "TrainTestSplit",
            Stage::TrainElasticNet { .. } => "TrainElasticNet",
            Stage::TrainGbdt {
                flavor: GbdtFlavor::Xgboost,
                ..
            } => "TrainXGBoost",
            Stage::TrainGbdt {
                flavor: GbdtFlavor::Lightgbm,
                ..
            } => "TrainLightGBM",
            Stage::Predict { .. } => "Predict",
        }
    }

    /// Execute the stage, returning its intermediate dataframe.
    ///
    /// # Panics
    /// Panics when a referenced frame, column, or model is missing — pipeline
    /// construction errors, not runtime conditions.
    pub fn execute(&self, ctx: &mut PipelineContext) -> DataFrame {
        match self {
            Stage::ReadCsv { table } => {
                // Parse the CSV text every run: re-running a pipeline must
                // pay the real ingest cost, exactly as scikit-learn's
                // read_csv would.
                let frame = crate::csv::csv_to_frame(ctx.data.csv_of(*table));
                ctx.frames
                    .insert(table.frame_name().to_string(), frame.clone());
                frame
            }

            Stage::OneHot { frame, column } => {
                let mut df = ctx.take_frame(frame);
                let col = df
                    .drop_column(column)
                    .unwrap_or_else(|| panic!("no column {column}"));
                let (codes, dict) = match col.data {
                    ColumnData::Cat { codes, dict } => (codes, dict),
                    other => panic!("OneHot on non-categorical column ({:?})", other.dtype()),
                };
                for (k, value) in dict.iter().enumerate() {
                    let indicator: Vec<f64> = codes
                        .iter()
                        .map(|&c| if c as usize == k { 1.0 } else { 0.0 })
                        .collect();
                    df.push_column(Column::f64(format!("{column}={value}"), indicator));
                }
                ctx.frames.insert(frame.clone(), df.clone());
                df
            }

            Stage::FillNa { frame } => {
                let mut df = ctx.take_frame(frame);
                let names: Vec<String> = df.column_names().iter().map(|s| s.to_string()).collect();
                for name in names {
                    let col = df.column(&name).unwrap();
                    if let ColumnData::F64(values) = &col.data {
                        if values.iter().any(|v| v.is_nan()) {
                            let present: Vec<f64> =
                                values.iter().copied().filter(|v| !v.is_nan()).collect();
                            let mean = if present.is_empty() {
                                0.0
                            } else {
                                present.iter().sum::<f64>() / present.len() as f64
                            };
                            let filled: Vec<f64> = values
                                .iter()
                                .map(|&v| if v.is_nan() { mean } else { v })
                                .collect();
                            df.drop_column(&name);
                            df.push_column(Column::f64(name.clone(), filled));
                        }
                    }
                }
                ctx.frames.insert(frame.clone(), df.clone());
                df
            }

            Stage::AvgFeature { frame } => {
                let mut df = ctx.take_frame(frame);
                let sqft = df.column("sqft").expect("sqft column").data.to_f64();
                let beds = df
                    .column("bedrooms")
                    .expect("bedrooms column")
                    .data
                    .to_f64();
                let avg: Vec<f64> = sqft
                    .iter()
                    .zip(&beds)
                    .map(|(s, b)| if *b > 0.0 { s / b } else { *s })
                    .collect();
                df.push_column(Column::f64("avg_room_size", avg));
                ctx.frames.insert(frame.clone(), df.clone());
                df
            }

            Stage::ConstructionRecency { frame } => {
                let mut df = ctx.take_frame(frame);
                let years = df
                    .column("year_built")
                    .expect("year_built column")
                    .data
                    .to_f64();
                let rec: Vec<f64> = years.iter().map(|y| 2017.0 - y).collect();
                df.push_column(Column::f64("recency", rec));
                ctx.frames.insert(frame.clone(), df.clone());
                df
            }

            Stage::Neighborhood { frame } => {
                let gran = hyper(ctx, "neighborhood_granularity", 250_000.0);
                let mut df = ctx.take_frame(frame);
                let region = match &df.column("region").expect("region column").data {
                    ColumnData::Cat { codes, .. } => codes.clone(),
                    _ => panic!("region must be categorical"),
                };
                let tax = df
                    .column("tax_value")
                    .expect("tax_value column")
                    .data
                    .to_f64();
                let hood: Vec<f64> = region
                    .iter()
                    .zip(&tax)
                    .map(|(r, t)| (*r as f64) * 100.0 + (t / gran).floor())
                    .collect();
                df.push_column(Column::f64("neighborhood", hood));
                ctx.frames.insert(frame.clone(), df.clone());
                df
            }

            Stage::IsResidential { frame } => {
                let mut df = ctx.take_frame(frame);
                let flags: Vec<f64> = {
                    let col = df.column("prop_type").expect("prop_type column");
                    (0..df.n_rows())
                        .map(|r| {
                            let v = col.data.cat_value(r).unwrap_or("");
                            if v == "commercial" {
                                0.0
                            } else {
                                1.0
                            }
                        })
                        .collect()
                };
                df.push_column(Column::f64("is_residential", flags));
                ctx.frames.insert(frame.clone(), df.clone());
                df
            }

            Stage::Join {
                left,
                right,
                on,
                out,
            } => {
                let l = ctx.frame(left).clone();
                let r = ctx.frame(right).clone();
                let joined = inner_join(&l, &r, on);
                ctx.frames.insert(out.clone(), joined.clone());
                joined
            }

            Stage::SelectColumn { frame, column, out } => {
                let df = ctx.frame(frame);
                let sel = df.select(&[column.as_str()]);
                ctx.frames.insert(out.clone(), sel.clone());
                sel
            }

            Stage::DropColumns {
                frame,
                columns,
                out,
            } => {
                let mut df = ctx.frame(frame).clone();
                for c in columns {
                    df.drop_column(c);
                }
                ctx.frames.insert(out.clone(), df.clone());
                df
            }

            Stage::TrainTestSplit { frame, frac } => {
                let df = ctx.frame(frame).clone();
                let n_fit = ((df.n_rows() as f64) * frac).round() as usize;
                let fit = df.slice_rows(0, n_fit);
                let holdout = df.slice_rows(n_fit, df.n_rows());
                ctx.frames.insert(format!("{frame}_fit"), fit.clone());
                ctx.frames.insert(format!("{frame}_holdout"), holdout);
                fit
            }

            Stage::TrainElasticNet { frame, y_col, name } => {
                let df = ctx.frame(frame).clone();
                let (x, p, _) = feature_matrix(&df);
                let y = df.column(y_col).expect("target column").data.to_f64();
                let mut m = ElasticNet::new(
                    hyper(ctx, "alpha", 0.001),
                    hyper(ctx, "l1_ratio", 0.5),
                    hyper(ctx, "tol", 1e-4),
                    hyper(ctx, "normalize", 1.0) != 0.0,
                );
                m.fit(&x, p, &y);
                let preds = m.predict(&x, p);
                ctx.models.insert(name.clone(), FittedModel::Elastic(m));
                let out = DataFrame::from_columns(vec![Column::f64("pred_train", preds)]);
                ctx.frames.insert(format!("{name}_train_pred"), out.clone());
                out
            }

            Stage::TrainGbdt {
                frame,
                y_col,
                name,
                flavor,
            } => {
                let df = ctx.frame(frame).clone();
                let (x, p, _) = feature_matrix(&df);
                let y = df.column(y_col).expect("target column").data.to_f64();
                let params = match flavor {
                    GbdtFlavor::Xgboost => GbdtParams {
                        n_rounds: hyper(ctx, "n_rounds", 25.0) as usize,
                        learning_rate: hyper(ctx, "eta", 0.1),
                        tree: TreeParams {
                            max_depth: hyper(ctx, "max_depth", 4.0) as usize,
                            min_samples_split: 20,
                            feature_fraction: 1.0,
                            lambda: hyper(ctx, "lambda", 1.0),
                        },
                        bagging_fraction: 1.0,
                        seed: ctx.seed,
                    },
                    GbdtFlavor::Lightgbm => GbdtParams {
                        n_rounds: hyper(ctx, "n_rounds", 25.0) as usize,
                        learning_rate: hyper(ctx, "learning_rate", 0.1),
                        tree: TreeParams {
                            max_depth: hyper(ctx, "max_depth", 5.0) as usize,
                            min_samples_split: hyper(ctx, "min_data", 20.0) as usize,
                            feature_fraction: hyper(ctx, "sub_feature", 0.8),
                            lambda: 1.0,
                        },
                        bagging_fraction: hyper(ctx, "bagging_fraction", 1.0),
                        seed: ctx.seed,
                    },
                };
                let m = Gbdt::fit(&x, p, &y, &params);
                let preds = m.predict(&x, p);
                ctx.models.insert(name.clone(), FittedModel::Gbdt(m));
                let out = DataFrame::from_columns(vec![Column::f64("pred_train", preds)]);
                ctx.frames.insert(format!("{name}_train_pred"), out.clone());
                out
            }

            Stage::Predict { model, frame, out } => {
                let df = ctx.frame(frame).clone();
                let (x, p, _) = feature_matrix(&df);
                let preds: Vec<f64> = if let Some((a, b)) = model.split_once('+') {
                    let wa = hyper(ctx, "xgb_weight", 0.5);
                    let wb = hyper(ctx, "lgbm_weight", 0.5);
                    let pa = ctx.model(a).predict(&x, p);
                    let pb = ctx.model(b).predict(&x, p);
                    let norm = (wa + wb).max(1e-12);
                    pa.iter()
                        .zip(&pb)
                        .map(|(u, v)| (wa * u + wb * v) / norm)
                        .collect()
                } else {
                    ctx.model(model).predict(&x, p)
                };
                let mut cols = Vec::new();
                if let Some(ids) = df.column("parcel_id") {
                    cols.push(ids.clone());
                }
                cols.push(Column::f64("pred", preds));
                let res = DataFrame::from_columns(cols);
                ctx.frames.insert(out.clone(), res.clone());
                res
            }
        }
    }
}

/// Inner hash join preserving the left frame's row order. Key columns must be
/// i64; right-side duplicate keys keep the first match (sufficient for the
/// Zillow schema where `parcel_id` is unique).
pub fn inner_join(left: &DataFrame, right: &DataFrame, on: &str) -> DataFrame {
    let lkeys = match &left
        .column(on)
        .unwrap_or_else(|| panic!("no join key {on} in left"))
        .data
    {
        ColumnData::I64(v) => v.clone(),
        other => panic!("join key must be i64, got {:?}", other.dtype()),
    };
    let rkeys = match &right
        .column(on)
        .unwrap_or_else(|| panic!("no join key {on} in right"))
        .data
    {
        ColumnData::I64(v) => v.clone(),
        other => panic!("join key must be i64, got {:?}", other.dtype()),
    };
    let mut index: HashMap<i64, usize> = HashMap::with_capacity(rkeys.len());
    for (i, &k) in rkeys.iter().enumerate() {
        index.entry(k).or_insert(i);
    }
    let mut lrows = Vec::new();
    let mut rrows = Vec::new();
    for (i, k) in lkeys.iter().enumerate() {
        if let Some(&j) = index.get(k) {
            lrows.push(i);
            rrows.push(j);
        }
    }
    let mut out = left.gather_rows(&lrows);
    let rsel = right.gather_rows(&rrows);
    for col in rsel.columns() {
        if col.name != on && out.column(&col.name).is_none() {
            out.push_column(col.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::ZillowData;

    fn ctx() -> PipelineContext {
        PipelineContext::new(ZillowData::generate(300, 1), HashMap::new(), 7)
    }

    #[test]
    fn read_csv_loads_tables() {
        let mut c = ctx();
        let out = Stage::ReadCsv {
            table: Table::Properties,
        }
        .execute(&mut c);
        assert_eq!(out.n_rows(), 300);
        assert!(c.frames.contains_key("properties"));
    }

    #[test]
    fn one_hot_expands_categories() {
        let mut c = ctx();
        Stage::ReadCsv {
            table: Table::Properties,
        }
        .execute(&mut c);
        let before = c.frame("properties").n_cols();
        let out = Stage::OneHot {
            frame: "properties".into(),
            column: "region".into(),
        }
        .execute(&mut c);
        // region (1 col) replaced by one indicator per region value.
        assert!(out.n_cols() > before);
        assert!(out.column("region").is_none());
        assert!(out.column("region=LA").is_some());
        // Indicators sum to 1 per row.
        let la = out.column("region=LA").unwrap().data.to_f64();
        let sf = out.column("region=SF").unwrap().data.to_f64();
        assert!(la.iter().zip(&sf).all(|(a, b)| a + b <= 1.0 + 1e-12));
    }

    #[test]
    fn fillna_removes_nans() {
        let mut c = ctx();
        Stage::ReadCsv {
            table: Table::Properties,
        }
        .execute(&mut c);
        let out = Stage::FillNa {
            frame: "properties".into(),
        }
        .execute(&mut c);
        let lots = out.column("lot_size").unwrap().data.to_f64();
        assert!(lots.iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn join_matches_train_rows() {
        let mut c = ctx();
        Stage::ReadCsv {
            table: Table::Properties,
        }
        .execute(&mut c);
        Stage::ReadCsv {
            table: Table::Train,
        }
        .execute(&mut c);
        let out = Stage::Join {
            left: "train".into(),
            right: "properties".into(),
            on: "parcel_id".into(),
            out: "merged".into(),
        }
        .execute(&mut c);
        assert_eq!(out.n_rows(), c.data.train.n_rows());
        assert!(out.column("sqft").is_some());
        assert!(out.column("logerror").is_some());
    }

    #[test]
    fn train_test_split_partitions_rows() {
        let mut c = ctx();
        Stage::ReadCsv {
            table: Table::Train,
        }
        .execute(&mut c);
        Stage::TrainTestSplit {
            frame: "train".into(),
            frac: 0.8,
        }
        .execute(&mut c);
        let fit = c.frame("train_fit").n_rows();
        let hold = c.frame("train_holdout").n_rows();
        assert_eq!(fit + hold, c.data.train.n_rows());
        assert_eq!(fit, (c.data.train.n_rows() as f64 * 0.8).round() as usize);
    }

    #[test]
    fn end_to_end_train_and_predict() {
        let mut c = ctx();
        for s in [
            Stage::ReadCsv {
                table: Table::Properties,
            },
            Stage::ReadCsv {
                table: Table::Train,
            },
            Stage::FillNa {
                frame: "properties".into(),
            },
            Stage::Join {
                left: "train".into(),
                right: "properties".into(),
                on: "parcel_id".into(),
                out: "merged".into(),
            },
            Stage::TrainGbdt {
                frame: "merged".into(),
                y_col: "logerror".into(),
                name: "gbm".into(),
                flavor: GbdtFlavor::Lightgbm,
            },
            Stage::Predict {
                model: "gbm".into(),
                frame: "merged".into(),
                out: "preds".into(),
            },
        ] {
            s.execute(&mut c);
        }
        let preds = c.frame("preds");
        assert_eq!(preds.n_rows(), c.frame("merged").n_rows());
        assert!(preds.column("pred").is_some());
        let vals = preds.column("pred").unwrap().data.to_f64();
        assert!(vals.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn feature_matrix_excludes_ids_and_cats() {
        let mut c = ctx();
        Stage::ReadCsv {
            table: Table::Properties,
        }
        .execute(&mut c);
        let (_, p, names) = feature_matrix(c.frame("properties"));
        assert!(!names.contains(&"parcel_id".to_string()));
        assert!(!names.contains(&"region".to_string()));
        assert_eq!(p, names.len());
    }

    #[test]
    fn blended_predict_mixes_models() {
        let mut c = ctx();
        Stage::ReadCsv {
            table: Table::Properties,
        }
        .execute(&mut c);
        Stage::ReadCsv {
            table: Table::Train,
        }
        .execute(&mut c);
        Stage::FillNa {
            frame: "properties".into(),
        }
        .execute(&mut c);
        Stage::Join {
            left: "train".into(),
            right: "properties".into(),
            on: "parcel_id".into(),
            out: "merged".into(),
        }
        .execute(&mut c);
        Stage::TrainGbdt {
            frame: "merged".into(),
            y_col: "logerror".into(),
            name: "xgb".into(),
            flavor: GbdtFlavor::Xgboost,
        }
        .execute(&mut c);
        Stage::TrainGbdt {
            frame: "merged".into(),
            y_col: "logerror".into(),
            name: "lgbm".into(),
            flavor: GbdtFlavor::Lightgbm,
        }
        .execute(&mut c);
        let blend = Stage::Predict {
            model: "xgb+lgbm".into(),
            frame: "merged".into(),
            out: "blend".into(),
        }
        .execute(&mut c);
        let pa = Stage::Predict {
            model: "xgb".into(),
            frame: "merged".into(),
            out: "pa".into(),
        }
        .execute(&mut c);
        let pb = Stage::Predict {
            model: "lgbm".into(),
            frame: "merged".into(),
            out: "pb".into(),
        }
        .execute(&mut c);
        let bl = blend.column("pred").unwrap().data.to_f64();
        let a = pa.column("pred").unwrap().data.to_f64();
        let b = pb.column("pred").unwrap().data.to_f64();
        for i in 0..bl.len() {
            let expected = (a[i] + b[i]) / 2.0;
            assert!((bl[i] - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn stage_kinds_match_table4_names() {
        assert_eq!(
            Stage::ReadCsv {
                table: Table::Train
            }
            .kind(),
            "ReadCSV"
        );
        assert_eq!(
            Stage::TrainGbdt {
                frame: "f".into(),
                y_col: "y".into(),
                name: "m".into(),
                flavor: GbdtFlavor::Xgboost
            }
            .kind(),
            "TrainXGBoost"
        );
    }

    #[test]
    fn avg_feature_divides_sqft_by_bedrooms() {
        let mut c = ctx();
        Stage::ReadCsv {
            table: Table::Properties,
        }
        .execute(&mut c);
        let out = Stage::AvgFeature {
            frame: "properties".into(),
        }
        .execute(&mut c);
        let sqft = out.column("sqft").unwrap().data.to_f64();
        let beds = out.column("bedrooms").unwrap().data.to_f64();
        let avg = out.column("avg_room_size").unwrap().data.to_f64();
        for i in 0..out.n_rows() {
            assert!((avg[i] - sqft[i] / beds[i]).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn construction_recency_is_2017_minus_year() {
        let mut c = ctx();
        Stage::ReadCsv {
            table: Table::Properties,
        }
        .execute(&mut c);
        let out = Stage::ConstructionRecency {
            frame: "properties".into(),
        }
        .execute(&mut c);
        let years = out.column("year_built").unwrap().data.to_f64();
        let rec = out.column("recency").unwrap().data.to_f64();
        for i in 0..out.n_rows() {
            assert_eq!(rec[i], 2017.0 - years[i]);
        }
    }

    #[test]
    fn is_residential_flags_commercial_as_zero() {
        let mut c = ctx();
        Stage::ReadCsv {
            table: Table::Properties,
        }
        .execute(&mut c);
        let out = Stage::IsResidential {
            frame: "properties".into(),
        }
        .execute(&mut c);
        let flags = out.column("is_residential").unwrap().data.to_f64();
        for (i, &flag) in flags.iter().enumerate() {
            let ptype = out.column("prop_type").unwrap().data.cat_value(i).unwrap();
            let expected = if ptype == "commercial" { 0.0 } else { 1.0 };
            assert_eq!(flag, expected, "row {i} type {ptype}");
        }
        // Both classes occur in the synthetic data.
        assert!(flags.contains(&0.0));
        assert!(flags.contains(&1.0));
    }

    #[test]
    fn neighborhood_respects_granularity_hyperparameter() {
        let mut hyper = HashMap::new();
        hyper.insert("neighborhood_granularity".to_string(), 1e12); // one huge bin
        let mut c = PipelineContext::new(crate::data::ZillowData::generate(100, 1), hyper, 7);
        Stage::ReadCsv {
            table: Table::Properties,
        }
        .execute(&mut c);
        let out = Stage::Neighborhood {
            frame: "properties".into(),
        }
        .execute(&mut c);
        let hood = out.column("neighborhood").unwrap().data.to_f64();
        // With one value bin, the code reduces to region * 100.
        let region = out.column("region").unwrap().data.to_f64();
        for i in 0..out.n_rows() {
            assert_eq!(hood[i], region[i] * 100.0, "row {i}");
        }
    }

    #[test]
    fn select_column_produces_single_column_frame() {
        let mut c = ctx();
        Stage::ReadCsv {
            table: Table::Train,
        }
        .execute(&mut c);
        let out = Stage::SelectColumn {
            frame: "train".into(),
            column: "logerror".into(),
            out: "y".into(),
        }
        .execute(&mut c);
        assert_eq!(out.n_cols(), 1);
        assert_eq!(out.n_rows(), c.data.train.n_rows());
        assert!(c.frames.contains_key("y"));
    }

    #[test]
    fn drop_columns_ignores_missing_names() {
        let mut c = ctx();
        Stage::ReadCsv {
            table: Table::Train,
        }
        .execute(&mut c);
        let out = Stage::DropColumns {
            frame: "train".into(),
            columns: vec!["sale_month".into(), "no_such_column".into()],
            out: "slim".into(),
        }
        .execute(&mut c);
        assert!(out.column("sale_month").is_none());
        assert_eq!(out.n_cols(), 2);
    }

    #[test]
    fn join_with_no_matches_is_empty() {
        let mut c = ctx();
        Stage::ReadCsv {
            table: Table::Properties,
        }
        .execute(&mut c);
        // A frame whose parcel ids never match.
        let phantom = DataFrame::from_columns(vec![Column::i64("parcel_id", vec![-1, -2, -3])]);
        c.frames.insert("phantom".into(), phantom);
        let out = Stage::Join {
            left: "phantom".into(),
            right: "properties".into(),
            on: "parcel_id".into(),
            out: "j".into(),
        }
        .execute(&mut c);
        assert_eq!(out.n_rows(), 0);
        assert!(out.n_cols() > 1, "schema still joined");
    }
}
