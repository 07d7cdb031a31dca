//! Integration: the observability subsystem wired through the full system.
//!
//! Every hot path — chunk puts/gets, dedup, compression, cost decisions,
//! adaptive materialization, query caching — reports into one shared
//! registry, and the exported snapshot/report reflect the real work done.

use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig, StorageStrategy};
use mistique_nn::{vgg16_cifar, CifarLike};
use mistique_pipeline::templates::{template_stages, template_variants};
use mistique_pipeline::{Pipeline, ZillowData};

/// Two variants of Zillow template 1 over the same data: the shared stage
/// prefix guarantees exact dedup hits under `StorageStrategy::Dedup`.
fn trad_sys(storage: StorageStrategy) -> (mistique_testkit::TempDir, Mistique, Vec<String>) {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            storage,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(ZillowData::generate(300, 1));
    let mut variants = template_variants(1);
    let mut ids = Vec::new();
    for i in 0..2 {
        let p = Pipeline::new(
            format!("P1v{i}"),
            template_stages(1),
            variants.remove(0),
            42,
        );
        let id = sys.register_trad(p, Arc::clone(&data)).unwrap();
        sys.log_intermediates(&id).unwrap();
        ids.push(id);
    }
    sys.flush().unwrap();
    (dir, sys, ids)
}

#[test]
fn trad_hot_paths_report_into_obs() {
    let (_d, mut sys, ids) = trad_sys(StorageStrategy::Dedup);

    let snap = sys.obs_snapshot();
    // Chunk writes: counts, bytes, latency histogram all advance together.
    assert!(snap.counter("store.put.count") > 0);
    assert!(snap.counter("store.put.bytes") > 0);
    assert_eq!(
        snap.histogram("store.put.ns").count,
        snap.counter("store.put.count")
    );
    // Partition lifecycle + per-codec compression attribution after flush.
    assert!(snap.counter("store.partitions.created") > 0);
    assert!(snap.counter("store.partitions.sealed") > 0);
    let codec_in: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("compress.") && k.ends_with(".in_bytes"))
        .map(|(_, v)| *v)
        .sum();
    assert!(codec_in > 0, "sealed partitions must attribute a codec");
    // Dedup counter mirrors the store's own accounting exactly.
    let stats = sys.store().stats();
    assert_eq!(snap.counter("store.dedup.exact_hits"), stats.dedup_hits);
    assert!(stats.dedup_hits > 0, "shared stage prefix should dedup");
    // Logging is traced, one span per pipeline.
    assert_eq!(snap.span("log_intermediates").count, 2);

    // A forced read exercises the chunk-get path and records a decision.
    let preds = sys.intermediates_of(&ids[0]).last().unwrap().clone();
    let r = sys
        .fetch_with_strategy(&preds, None, None, FetchStrategy::Read)
        .unwrap();
    assert_eq!(r.strategy, FetchStrategy::Read);
    let snap = sys.obs_snapshot();
    assert!(snap.counter("store.get.count") > 0);
    assert!(snap.counter("store.get.bytes") > 0);
    assert!(snap.counter("decision.read.count") >= 1);
    assert!(snap.span("fetch.read").count >= 1);
    assert_eq!(
        snap.histogram("decision.read.actual_ns").count,
        snap.counter("decision.read.count")
    );
    // Reads calibrate the cost model's bandwidth estimate.
    assert!(snap.counter("cost.observe_read.count") >= 1);
    assert!(snap.gauge("cost.read_bandwidth") > 0.0);
}

#[test]
fn dnn_checkpoints_report_dedup_hits() {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            storage: StorageStrategy::Dedup,
            row_block_size: 16,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(CifarLike::generate(32, 10, 7));
    let arch = Arc::new(vgg16_cifar(32));
    let mut ids = Vec::new();
    for e in 0..2 {
        let id = sys
            .register_dnn(Arc::clone(&arch), 3, e, Arc::clone(&data), 16)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        ids.push(id);
    }
    sys.flush().unwrap();

    let snap = sys.obs_snapshot();
    assert!(snap.counter("store.put.count") > 0);
    // Frozen conv layers dedup across checkpoints.
    assert!(snap.counter("store.dedup.exact_hits") > 0);
    assert_eq!(
        snap.counter("store.dedup.exact_hits"),
        sys.store().stats().dedup_hits
    );

    let first = sys.intermediates_of(&ids[0]).first().unwrap().clone();
    sys.fetch_with_strategy(&first, None, Some(8), FetchStrategy::Read)
        .unwrap();
    let snap = sys.obs_snapshot();
    assert!(snap.counter("store.get.count") > 0);
    assert!(snap.counter("decision.read.count") >= 1);
}

#[test]
fn adaptive_rerun_records_gamma_and_materialization() {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            storage: StorageStrategy::Adaptive { gamma_min: 1e-12 },
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(ZillowData::generate(200, 1));
    let mut variants = template_variants(1);
    let p = Pipeline::new("P1".to_string(), template_stages(1), variants.remove(0), 42);
    let id = sys.register_trad(p, data).unwrap();
    sys.log_intermediates(&id).unwrap();
    let preds = sys.intermediates_of(&id).last().unwrap().clone();

    let r = sys.get_intermediate(&preds, None, None).unwrap();
    assert_eq!(r.strategy, FetchStrategy::Rerun);

    let snap = sys.obs_snapshot();
    assert!(snap.counter("decision.rerun.count") >= 1);
    assert!(snap.span("fetch.rerun").count >= 1);
    assert!(snap.counter("adaptive.gamma_evals") >= 1);
    assert!(
        snap.counter("adaptive.materializations") >= 1,
        "gamma_min=1e-12 must clear the threshold"
    );
    assert!(snap.gauges.contains_key("adaptive.last_gamma"));
}

#[test]
fn snapshot_exports_as_json_and_text() {
    let (_d, sys, _ids) = trad_sys(StorageStrategy::Dedup);

    let report = sys.obs_report();
    assert!(report.contains("== counters =="));
    assert!(report.contains("== spans =="));
    assert!(report.contains("store.put.count"));

    let snap = sys.obs_snapshot();
    let json = mistique_obs::json::parse(&snap.to_json_string()).expect("valid JSON");
    for key in ["counters", "gauges", "histograms", "spans", "recent_spans"] {
        assert!(json.get(key).is_some(), "missing top-level key {key}");
    }
    let member = |section: &str, name: &str| json.get(section).unwrap().get(name).cloned();
    assert_eq!(
        member("counters", "store.put.count").and_then(|v| v.as_u64()),
        Some(snap.counter("store.put.count"))
    );
    // obs_snapshot syncs derived gauges before exporting.
    assert_eq!(
        member("gauges", "meta.models").and_then(|v| v.as_f64()),
        Some(2.0)
    );
    assert!(json.get("recent_spans").unwrap().as_arr().is_some());
}
