//! Serialized pipeline specifications.
//!
//! The paper expresses scikit-learn pipelines in a YAML format "modeled after
//! Apache Airflow" so that MISTIQUE can re-run arbitrary stages. The
//! equivalent here is a JSON specification: the full stage list plus
//! hyper-parameters, round-trippable to disk. Its grammar is tabulated in
//! DESIGN.md "Manifest and spec format"; reading is strict (an unknown
//! stage kind or a misspelt field is an error, not a default).

use std::collections::HashMap;

use mistique_obs::{json, json_enum, json_struct};

use crate::pipeline::Pipeline;
use crate::stage::{GbdtFlavor, Stage, Table};

/// A serializable pipeline description.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineSpec {
    /// Pipeline id.
    pub id: String,
    /// Ordered stages.
    pub stages: Vec<Stage>,
    /// Hyper-parameter settings.
    pub hyper: HashMap<String, f64>,
    /// Seed for stochastic stages.
    pub seed: u64,
}

json_struct!(PipelineSpec {
    id,
    stages,
    hyper,
    seed
});
json_enum!(Table {
    Properties,
    Train,
    Test
});
json_enum!(GbdtFlavor { Xgboost, Lightgbm });
json_enum!(Stage {
    ReadCsv { table },
    OneHot { frame, column },
    FillNa { frame },
    AvgFeature { frame },
    ConstructionRecency { frame },
    Neighborhood { frame },
    IsResidential { frame },
    Join { left, right, on, out },
    SelectColumn { frame, column, out },
    DropColumns { frame, columns, out },
    TrainTestSplit { frame, frac },
    TrainElasticNet { frame, y_col, name },
    TrainGbdt { frame, y_col, name, flavor },
    Predict { model, frame, out },
});

impl PipelineSpec {
    /// Capture a pipeline as a spec.
    pub fn from_pipeline(p: &Pipeline) -> PipelineSpec {
        PipelineSpec {
            id: p.id.clone(),
            stages: p.stages.clone(),
            hyper: p.hyper.clone(),
            seed: p.seed,
        }
    }

    /// Instantiate the executable pipeline.
    pub fn into_pipeline(self) -> Pipeline {
        Pipeline::new(self.id, self.stages, self.hyper, self.seed)
    }

    /// Serialize to a JSON string. Fails only when a hyper-parameter or a
    /// split fraction is not finite, which JSON cannot carry.
    pub fn to_json(&self) -> Result<String, String> {
        json::to_string(self, "spec")
    }

    /// Parse from a JSON string; the error names the offending field.
    pub fn from_json(s: &str) -> Result<PipelineSpec, String> {
        json::from_str(s, "spec")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::ZillowData;
    use crate::templates::zillow_pipelines;

    #[test]
    fn roundtrip_all_templates() {
        for p in zillow_pipelines() {
            let spec = PipelineSpec::from_pipeline(&p);
            let json = spec.to_json().unwrap();
            let back = PipelineSpec::from_json(&json).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.to_json().unwrap(), json, "emit is deterministic");
            let p2 = back.into_pipeline();
            assert_eq!(p2.id, p.id);
            assert_eq!(p2.stages, p.stages);
        }
    }

    #[test]
    fn restored_pipeline_reproduces_outputs() {
        let data = ZillowData::generate(150, 1);
        let p = zillow_pipelines().remove(0);
        let json = PipelineSpec::from_pipeline(&p).to_json().unwrap();
        let restored = PipelineSpec::from_json(&json).unwrap().into_pipeline();
        let a = p.run(&data);
        let b = restored.run(&data);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.output, rb.output);
        }
    }

    #[test]
    fn spec_json_mentions_stage_kind() {
        let p = zillow_pipelines().remove(0);
        let json = PipelineSpec::from_pipeline(&p).to_json().unwrap();
        assert!(json.contains("ReadCsv"));
        assert!(json.contains("TrainTestSplit"));
    }

    /// A spec as builds before the in-house codec wrote it (pretty-printed,
    /// map keys in hash order): the shape any saved spec file has.
    const LEGACY_SPEC: &str = r#"{
  "id": "P9_v0",
  "stages": [
    {
      "ReadCsv": {
        "table": "Properties"
      }
    },
    {
      "DropColumns": {
        "frame": "properties",
        "columns": [
          "region",
          "prop_type"
        ],
        "out": "features"
      }
    },
    {
      "TrainTestSplit": {
        "frame": "features",
        "frac": 0.8
      }
    },
    {
      "TrainGbdt": {
        "frame": "features_fit",
        "y_col": "logerror",
        "name": "lgbm",
        "flavor": "Lightgbm"
      }
    }
  ],
  "hyper": {
    "min_data": 20.0,
    "learning_rate": 0.002
  },
  "seed": 18446744073709551615
}"#;

    #[test]
    fn legacy_spec_still_loads() {
        let spec = PipelineSpec::from_json(LEGACY_SPEC).unwrap();
        let s = |x: &str| x.to_string();
        let want = PipelineSpec {
            id: s("P9_v0"),
            stages: vec![
                Stage::ReadCsv {
                    table: Table::Properties,
                },
                Stage::DropColumns {
                    frame: s("properties"),
                    columns: vec![s("region"), s("prop_type")],
                    out: s("features"),
                },
                Stage::TrainTestSplit {
                    frame: s("features"),
                    frac: 0.8,
                },
                Stage::TrainGbdt {
                    frame: s("features_fit"),
                    y_col: s("logerror"),
                    name: s("lgbm"),
                    flavor: GbdtFlavor::Lightgbm,
                },
            ],
            hyper: [(s("min_data"), 20.0), (s("learning_rate"), 0.002)].into(),
            seed: u64::MAX,
        };
        assert_eq!(spec, want);
    }

    /// Hostile input: every row is an error that names its place, and
    /// nothing panics. Rows edit `LEGACY_SPEC` (`from` → `to`).
    #[test]
    fn bad_json_is_an_error() {
        assert!(PipelineSpec::from_json("{not json").is_err());
        assert!(PipelineSpec::from_json("{}").is_err());
        let small = PipelineSpec::from_json(LEGACY_SPEC)
            .and_then(|spec| spec.to_json())
            .unwrap();
        for cut in 0..small.len() {
            if small.is_char_boundary(cut) {
                assert!(PipelineSpec::from_json(&small[..cut]).is_err(), "cut {cut}");
            }
        }
        let cases: &[(&str, &str, &str)] = &[
            ("\"seed\"", "\"sed\"", "spec: missing field \"seed\""),
            (
                "\"seed\"",
                "\"x\": 1, \"seed\"",
                "spec: unknown field \"x\"",
            ),
            (
                "\"seed\"",
                "\"id\": \"again\", \"seed\"",
                "duplicate key \"id\"",
            ),
            (
                "18446744073709551615",
                "18446744073709551616",
                "spec.seed: expected an integer in",
            ),
            (
                "18446744073709551615",
                "42.0",
                "spec.seed: expected an integer in",
            ),
            ("\"P9_v0\"", "9", "spec.id: expected a string, got a number"),
            (
                "\"Properties\"",
                "\"Sales\"",
                "spec.stages[0].ReadCsv.table: unknown variant \"Sales\"",
            ),
            (
                "\"ReadCsv\"",
                "\"ReadXls\"",
                "spec.stages[0]: unknown variant \"ReadXls\"",
            ),
            (
                "\"frac\": 0.8",
                "\"frac\": \"0.8\"",
                "spec.stages[2].TrainTestSplit.frac: expected a number",
            ),
            (
                "\"frac\": 0.8",
                "\"frac\": 1e999",
                "spec.stages[2].TrainTestSplit.frac: 1e999 is not a finite f64",
            ),
            (
                "\"out\": \"features\"",
                "\"into\": \"features\"",
                "spec.stages[1].DropColumns: missing field \"out\"",
            ),
            (
                "20.0",
                "null",
                "spec.hyper.min_data: expected a number, got null",
            ),
        ];
        for (from, to, want) in cases {
            let doc = LEGACY_SPEC.replace(from, to);
            assert_ne!(doc, LEGACY_SPEC, "row {from:?} edits nothing");
            let err = PipelineSpec::from_json(&doc).unwrap_err();
            assert!(
                err.contains(want),
                "{from} -> {to}\n  gave {err}\n  want {want}"
            );
        }
    }

    #[test]
    fn non_finite_hyper_parameter_is_refused_at_emit() {
        let mut spec = PipelineSpec::from_json(LEGACY_SPEC).unwrap();
        spec.hyper.insert("eta".to_string(), f64::NAN);
        let err = spec.to_json().unwrap_err();
        assert!(
            err.starts_with("spec.hyper.eta: NaN is not finite"),
            "{err}"
        );
    }
}
