//! Manifest persistence: survive restarts.
//!
//! The paper's system keeps the MetadataDB in a central repository; here the
//! equivalent is a JSON manifest written next to the partition files. After
//! [`Mistique::persist`], a later process can [`Mistique::reopen`] the same
//! directory and immediately *read* every materialized intermediate. Model
//! *re-running* requires the executable models to be registered again via
//! [`Mistique::reattach_trad`] / [`Mistique::reattach_dnn`] (an executable
//! model is code + input data, which a manifest cannot capture).
//!
//! The manifest is written atomically (tmp file + fsync + rename + directory
//! fsync), so a crash mid-persist leaves either the previous manifest or the
//! new one — never a torn file. [`Mistique::reopen`] always runs a recovery
//! pass over the partition directory (see
//! [`mistique_store::datastore::DataStore::recover`]).

use std::path::Path;
use std::sync::Arc;

use mistique_nn::{ArchConfig, CifarLike};
use mistique_obs::json::{self, Json, JsonValue, Path as JsonPath};
use mistique_obs::{json_enum, json_struct};
use mistique_pipeline::{Pipeline, ZillowData};
use mistique_store::datastore::StoreCatalog;
use mistique_store::StorageBackend;

use crate::capture::{CaptureScheme, ValueScheme};
use crate::error::MistiqueError;
use crate::executor::ModelSource;
use crate::metadata::{IntermediateMeta, ModelKind, ModelMeta};
use crate::system::{Mistique, MistiqueConfig};

pub(crate) const MANIFEST_FILE: &str = "mistique_manifest.json";

/// Serialized system state: metadata registry + store catalog. Its JSON
/// form is tabulated in DESIGN.md "Manifest and spec format"; the `catalog`
/// subtree is declared next to [`StoreCatalog`].
struct Manifest {
    models: Vec<ModelMeta>,
    intermediates: Vec<IntermediateMeta>,
    catalog: StoreCatalog,
    /// Rows per RowBlock the chunks were cut at: block indices in the
    /// catalog mean nothing under another. `None` in manifests that predate
    /// the field, which trust the reopening config.
    row_block_size: Option<usize>,
    version: Version,
}

/// The manifest format's version: this build writes and reads exactly one.
/// A manifest without the field predates it and is version 1.
#[derive(Default)]
struct Version;

const MANIFEST_VERSION: u64 = 1;

impl Json for Version {
    fn emit(&self, out: &mut String, at: &JsonPath) -> Result<(), String> {
        MANIFEST_VERSION.emit(out, at)
    }
    fn parse(v: &JsonValue, at: &JsonPath) -> Result<Self, String> {
        match u64::parse(v, at)? {
            MANIFEST_VERSION => Ok(Version),
            n => Err(format!(
                "manifest version {n} (supported: {MANIFEST_VERSION})"
            )),
        }
    }
}

json_struct!(Manifest { models, intermediates, catalog } default { row_block_size, version });
json_enum!(ModelKind { Trad, Dnn });
json_struct!(ModelMeta {
    id,
    kind,
    n_stages,
    model_load,
    n_examples,
    intermediates,
});
json_enum!(ValueScheme {
    Full,
    Lp,
    Kbit { bits },
    Threshold { pct },
});
json_struct!(CaptureScheme { value, pool_sigma });
json_struct!(IntermediateMeta {
    id,
    model_id,
    stage_index,
    n_rows,
    columns,
    scheme,
    materialized,
    stored_bytes,
    exec_time,
    cum_exec_time,
    n_queries,
    quantizer,
    threshold,
    shape,
} default { delta_encoded, chain });

impl Mistique {
    /// Flush all open partitions and write the manifest so the directory can
    /// be [`Mistique::reopen`]ed later.
    pub fn persist(&mut self) -> Result<(), MistiqueError> {
        self.flush()?;
        let manifest = Manifest {
            models: self
                .meta
                .model_ids()
                .iter()
                .map(|id| self.meta.model(id).unwrap().clone())
                .collect(),
            intermediates: {
                let mut all: Vec<IntermediateMeta> = self
                    .meta
                    .model_ids()
                    .iter()
                    .flat_map(|id| self.meta.intermediates_of(id).into_iter().cloned())
                    .collect();
                all.sort_by(|a, b| a.id.cmp(&b.id));
                all
            },
            catalog: self.store.export_catalog(),
            row_block_size: Some(self.config.row_block_size),
            version: Version,
        };
        let json = json::to_string(&manifest, "manifest").map_err(MistiqueError::Invalid)?;
        self.backend
            .write_atomic(&self.dir.join(MANIFEST_FILE), json.as_bytes())
            .map_err(mistique_store::StoreError::Io)?;
        Ok(())
    }

    /// Reopen a persisted directory: all materialized intermediates become
    /// readable immediately. Always runs a recovery pass first (orphan tmp
    /// files removed, corrupt partitions quarantined — see
    /// [`Mistique::recovery_report`]). Returns [`MistiqueError::NoManifest`]
    /// if nothing was ever persisted, and [`MistiqueError::Invalid`] if the
    /// manifest records a `row_block_size` other than `config`'s.
    pub fn reopen(
        dir: impl AsRef<Path>,
        config: MistiqueConfig,
    ) -> Result<Mistique, MistiqueError> {
        Self::reopen_with_backend(dir, config, Arc::new(mistique_store::RealFs))
    }

    /// [`Mistique::reopen`] over an explicit [`StorageBackend`] (crash
    /// tests reopen against the same in-memory [`mistique_store::FaultyFs`]
    /// they crashed).
    pub fn reopen_with_backend(
        dir: impl AsRef<Path>,
        config: MistiqueConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Mistique, MistiqueError> {
        let dir = dir.as_ref();
        let bytes = backend.read_file(&dir.join(MANIFEST_FILE)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                MistiqueError::NoManifest
            } else {
                MistiqueError::Store(mistique_store::StoreError::Io(e))
            }
        })?;
        let json = String::from_utf8(bytes)
            .map_err(|e| MistiqueError::Invalid(format!("manifest not utf-8: {e}")))?;
        let manifest: Manifest =
            json::from_str(&json, "manifest").map_err(MistiqueError::Invalid)?;
        if let Some(written) = manifest.row_block_size {
            if written != config.row_block_size {
                return Err(MistiqueError::Invalid(format!(
                    "store was written with row_block_size {written}, \
                     reopened with row_block_size {}",
                    config.row_block_size
                )));
            }
        }

        let mut sys = Mistique::open_with_backend(dir, config, backend)?;
        sys.store.import_catalog(manifest.catalog);
        for m in manifest.models {
            sys.meta.register_model(m);
        }
        for i in manifest.intermediates {
            sys.meta.upsert_intermediate(i);
        }
        let report = sys.store.recover()?;
        sys.last_recovery = Some(report);
        // Journal the recovery pass — it is also the counter-reset boundary
        // a timeline reader needs to interpret deltas across restarts.
        sys.telemetry_event(
            "recovery",
            None,
            vec![
                (
                    "partitions_ok".to_string(),
                    report.partitions_ok.to_string(),
                ),
                ("quarantined".to_string(), report.quarantined.to_string()),
                (
                    "orphans_removed".to_string(),
                    report.orphans_removed.to_string(),
                ),
                ("missing".to_string(), report.missing.to_string()),
            ],
        );
        sys.telemetry_capture("recovery");
        Ok(sys)
    }

    /// Re-attach the executable pipeline for a restored TRAD model so that
    /// re-run fetches work again. The pipeline id must match the restored
    /// model id.
    pub fn reattach_trad(
        &mut self,
        pipeline: Pipeline,
        data: Arc<ZillowData>,
    ) -> Result<(), MistiqueError> {
        let id = pipeline.id.clone();
        if self.meta.model(&id).is_none() {
            return Err(MistiqueError::UnknownModel(id));
        }
        self.sources
            .insert(id, ModelSource::Trad { pipeline, data });
        Ok(())
    }

    /// Re-attach the executable checkpoint for a restored DNN model.
    pub fn reattach_dnn(
        &mut self,
        arch: Arc<ArchConfig>,
        seed: u64,
        epoch: u32,
        data: Arc<CifarLike>,
        batch_size: usize,
    ) -> Result<(), MistiqueError> {
        let source = ModelSource::Dnn {
            arch,
            seed,
            epoch,
            data,
            batch_size,
        };
        let id = source.id();
        if self.meta.model(&id).is_none() {
            return Err(MistiqueError::UnknownModel(id));
        }
        self.sources.insert(id, source);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::FetchStrategy;

    use mistique_pipeline::templates::zillow_pipelines;

    #[test]
    fn persist_and_reopen_reads_everything() {
        let dir = mistique_testkit::tempdir().unwrap();
        let data = Arc::new(ZillowData::generate(200, 1));
        let preds;
        let expected;
        {
            let mut sys = Mistique::open(dir.path(), MistiqueConfig::default()).unwrap();
            let id = sys
                .register_trad(zillow_pipelines().remove(0), Arc::clone(&data))
                .unwrap();
            sys.log_intermediates(&id).unwrap();
            preds = sys.intermediates_of(&id).last().unwrap().clone();
            expected = sys
                .fetch_with_strategy(&preds, Some(&["pred"]), None, FetchStrategy::Read)
                .unwrap()
                .frame;
            sys.persist().unwrap();
        }
        // New process: reopen and read without any model registered.
        let mut sys = Mistique::reopen(dir.path(), MistiqueConfig::default()).unwrap();
        let restored = sys
            .fetch_with_strategy(&preds, Some(&["pred"]), None, FetchStrategy::Read)
            .unwrap()
            .frame;
        assert_eq!(restored, expected);
        // Metadata restored too.
        assert_eq!(sys.model_ids().len(), 1);
        assert!(sys.metadata().intermediate(&preds).unwrap().materialized);
    }

    #[test]
    fn rerun_after_reopen_requires_reattach() {
        let dir = mistique_testkit::tempdir().unwrap();
        let data = Arc::new(ZillowData::generate(150, 1));
        let pipeline = zillow_pipelines().remove(0);
        let interm0;
        {
            let mut sys = Mistique::open(dir.path(), MistiqueConfig::default()).unwrap();
            let id = sys
                .register_trad(pipeline.clone(), Arc::clone(&data))
                .unwrap();
            sys.log_intermediates(&id).unwrap();
            interm0 = sys.intermediates_of(&id)[0].clone();
            sys.persist().unwrap();
        }
        let mut sys = Mistique::reopen(dir.path(), MistiqueConfig::default()).unwrap();
        // Forced rerun without a source fails cleanly.
        assert!(sys
            .fetch_with_strategy(&interm0, None, None, FetchStrategy::Rerun)
            .is_err());
        // After re-attaching, rerun works and matches the stored data.
        sys.reattach_trad(pipeline, data).unwrap();
        let rerun = sys
            .fetch_with_strategy(&interm0, None, None, FetchStrategy::Rerun)
            .unwrap()
            .frame;
        assert_eq!(rerun.n_rows(), 150);
    }

    #[test]
    fn reopen_without_manifest_errors() {
        let dir = mistique_testkit::tempdir().unwrap();
        assert!(matches!(
            Mistique::reopen(dir.path(), MistiqueConfig::default()),
            Err(MistiqueError::NoManifest)
        ));
    }

    #[test]
    fn persist_leaves_no_tmp_files() {
        let dir = mistique_testkit::tempdir().unwrap();
        let data = Arc::new(ZillowData::generate(100, 1));
        let mut sys = Mistique::open(dir.path(), MistiqueConfig::default()).unwrap();
        let id = sys
            .register_trad(zillow_pipelines().remove(0), data)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        sys.persist().unwrap();
        for entry in std::fs::read_dir(dir.path()).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_string_lossy();
            assert!(!name.ends_with(".tmp"), "leftover tmp file: {name}");
        }
        // Reopen reports a clean recovery: every partition verified, nothing
        // quarantined or missing.
        let sys = Mistique::reopen(dir.path(), MistiqueConfig::default()).unwrap();
        let report = sys.recovery_report().unwrap();
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.orphans_removed, 0);
        assert_eq!(report.missing, 0);
        assert!(report.partitions_ok > 0);
    }

    #[test]
    fn manifest_text_round_trips_every_threshold_bit_for_bit() {
        // A multiplicative walk over the f32 bit patterns: every exponent,
        // subnormals, both signs.
        let mut bits = 1u32;
        let mut intermediates = Vec::new();
        while intermediates.len() < 2000 {
            bits = bits.wrapping_mul(0x9E37_79B1).wrapping_add(0x7F4A_7C15);
            let threshold = f32::from_bits(bits);
            if !threshold.is_finite() {
                continue;
            }
            intermediates.push(IntermediateMeta {
                id: format!("m.layer{}", intermediates.len()),
                model_id: "m".to_string(),
                stage_index: intermediates.len(),
                n_rows: 10,
                columns: vec!["n0".to_string()],
                scheme: CaptureScheme {
                    value: ValueScheme::Threshold { pct: 0.995 },
                    pool_sigma: Some(2),
                },
                materialized: true,
                stored_bytes: u64::from(bits) << 32,
                exec_time: std::time::Duration::new(u64::from(bits), bits % 1_000_000_000),
                cum_exec_time: std::time::Duration::ZERO,
                n_queries: 0,
                quantizer: Some(bits.to_le_bytes().to_vec()),
                threshold: Some(threshold),
                shape: Some((bits as usize, 2, 2)),
                delta_encoded: bits & 1 == 0,
                chain: (bits & 2 == 0)
                    .then_some((u64::from(bits) << 31, u64::MAX - u64::from(bits))),
            });
        }
        let mut manifest = Manifest {
            models: Vec::new(),
            intermediates,
            catalog: StoreCatalog {
                entries: Vec::new(),
                next_partition: 0,
                stats: Default::default(),
                partition_totals: Vec::new(),
                deltas: Vec::new(),
                extras: Vec::new(),
                lsh_items: Vec::new(),
            },
            row_block_size: Some(1000),
            version: Version,
        };
        let to_json = |m: &Manifest| json::to_string(m, "manifest");
        let text = to_json(&manifest).unwrap();
        let back: Manifest = json::from_str(&text, "manifest").unwrap();
        assert_eq!(to_json(&back).unwrap(), text);
        assert_eq!(
            format!("{:?}", back.intermediates),
            format!("{:?}", manifest.intermediates)
        );
        for (a, b) in back.intermediates.iter().zip(&manifest.intermediates) {
            assert_eq!(a.threshold.map(f32::to_bits), b.threshold.map(f32::to_bits));
        }

        // JSON has no NaN: refusing beats writing a manifest that cannot
        // be read back.
        manifest.intermediates[7].threshold = Some(f32::NAN);
        let err = to_json(&manifest).unwrap_err();
        assert!(
            err.starts_with("manifest.intermediates[7].threshold: NaN is not finite"),
            "{err}"
        );
    }

    #[test]
    fn reattach_unknown_model_errors() {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(dir.path(), MistiqueConfig::default()).unwrap();
        let data = Arc::new(ZillowData::generate(50, 1));
        let err = sys.reattach_trad(zillow_pipelines().remove(0), data);
        assert!(matches!(err, Err(MistiqueError::UnknownModel(_))));
    }
}
