//! Integration tests for the session query cache (Sec 10 future-work
//! extension): repeated fetches in a diagnosis session are served from
//! memory, and the cache never changes answers.

use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig, StorageStrategy};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn cached_system(cache_bytes: usize) -> (mistique_testkit::TempDir, Mistique, String) {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            query_cache_bytes: cache_bytes,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(ZillowData::generate(300, 1));
    let id = sys
        .register_trad(zillow_pipelines().remove(0), data)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    (dir, sys, id)
}

#[test]
fn second_identical_fetch_is_cached_and_equal() {
    let (_d, mut sys, id) = cached_system(16 << 20);
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    let first = sys.get_intermediate(&preds, Some(&["pred"]), None).unwrap();
    assert_ne!(first.strategy, FetchStrategy::Cached);
    let second = sys.get_intermediate(&preds, Some(&["pred"]), None).unwrap();
    assert_eq!(second.strategy, FetchStrategy::Cached);
    assert_eq!(first.frame, second.frame);
    assert_eq!(sys.query_cache().hits(), 1);
    // Query accounting still advances on cached hits.
    assert_eq!(sys.metadata().intermediate(&preds).unwrap().n_queries, 2);
}

#[test]
fn different_requests_are_different_entries() {
    let (_d, mut sys, id) = cached_system(16 << 20);
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    sys.get_intermediate(&preds, Some(&["pred"]), None).unwrap();
    // Different column set / row count => cache miss.
    let all = sys.get_intermediate(&preds, None, None).unwrap();
    assert_ne!(all.strategy, FetchStrategy::Cached);
    let part = sys
        .get_intermediate(&preds, Some(&["pred"]), Some(10))
        .unwrap();
    assert_ne!(part.strategy, FetchStrategy::Cached);
    // But repeating each exact request hits.
    assert_eq!(
        sys.get_intermediate(&preds, None, None).unwrap().strategy,
        FetchStrategy::Cached
    );
}

#[test]
fn full_frame_requests_share_one_entry_regardless_of_n_spelling() {
    // `None`, `Some(n_rows)`, and an oversized `Some(n)` all denote the full
    // frame; the cache key is built from the clamped row count so the three
    // spellings share a single entry instead of caching the frame thrice.
    let (_d, mut sys, id) = cached_system(16 << 20);
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    let n_rows = sys.metadata().intermediate(&preds).unwrap().n_rows;

    let first = sys.get_intermediate(&preds, None, None).unwrap();
    assert_ne!(first.strategy, FetchStrategy::Cached);
    let exact = sys.get_intermediate(&preds, None, Some(n_rows)).unwrap();
    assert_eq!(exact.strategy, FetchStrategy::Cached);
    let oversized = sys
        .get_intermediate(&preds, None, Some(n_rows * 10))
        .unwrap();
    assert_eq!(oversized.strategy, FetchStrategy::Cached);
    assert_eq!(sys.query_cache().hits(), 2);
    assert_eq!(first.frame, exact.frame);
    assert_eq!(first.frame, oversized.frame);

    // A strict prefix is a genuinely different request.
    let small = sys.get_intermediate(&preds, None, Some(10)).unwrap();
    assert_ne!(small.strategy, FetchStrategy::Cached);
    assert_eq!(small.frame.n_rows(), 10);
}

#[test]
fn cache_disabled_by_default() {
    let (_d, mut sys, id) = cached_system(0);
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    for _ in 0..3 {
        let r = sys.get_intermediate(&preds, Some(&["pred"]), None).unwrap();
        assert_ne!(r.strategy, FetchStrategy::Cached);
    }
    assert_eq!(sys.query_cache().hits(), 0);
}

#[test]
fn obs_counters_track_cache_activity() {
    let (_d, mut sys, id) = cached_system(16 << 20);
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    sys.get_intermediate(&preds, Some(&["pred"]), None).unwrap(); // miss
    sys.get_intermediate(&preds, Some(&["pred"]), None).unwrap(); // hit
    let snap = sys.obs_snapshot();
    assert_eq!(snap.counter("qcache.hits"), 1);
    assert!(snap.counter("qcache.misses") >= 1);
    assert_eq!(snap.counter("decision.cached.count"), 1);
    assert!(snap.gauge("qcache.used_bytes") > 0.0);
    // The obs view agrees with the cache's own accounting.
    assert_eq!(snap.counter("qcache.hits"), sys.query_cache().hits());
    assert_eq!(snap.counter("qcache.misses"), sys.query_cache().misses());
}

#[test]
fn obs_counts_evictions_under_pressure() {
    // A budget big enough for roughly one full-frame entry: inserting a
    // second distinct entry must evict the first, and the obs counter
    // tracks the cache's own eviction count.
    let (_d, mut sys, id) = cached_system(96 << 10);
    let interms = sys.intermediates_of(&id);
    for interm in interms.iter().take(4) {
        let _ = sys.get_intermediate(interm, None, None);
    }
    let snap = sys.obs_snapshot();
    assert_eq!(
        snap.counter("qcache.evictions"),
        sys.query_cache().evictions()
    );
}

#[test]
fn forcing_cached_strategy_is_invalid() {
    let (_d, mut sys, id) = cached_system(1 << 20);
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    assert!(sys
        .fetch_with_strategy(&preds, None, None, FetchStrategy::Cached)
        .is_err());
}

#[test]
fn index_version_is_part_of_the_cache_key() {
    // Warm the cache while an index is live, then drop the index: the next
    // identical fetch must key differently (index_version 0 vs the build
    // counter) and miss, so a cached result can never masquerade as
    // index-served state — and vice versa after a rebuild.
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            query_cache_bytes: 16 << 20,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(ZillowData::generate(300, 1));
    let id = sys
        .register_trad(zillow_pipelines().remove(0), data)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    assert!(sys.index_enabled(), "index is on by default");

    let first = sys.get_intermediate(&preds, Some(&["pred"]), None).unwrap();
    assert_ne!(first.strategy, FetchStrategy::Cached);
    assert_eq!(
        sys.get_intermediate(&preds, Some(&["pred"]), None)
            .unwrap()
            .strategy,
        FetchStrategy::Cached
    );

    sys.drop_index(&preds);
    let after_drop = sys.get_intermediate(&preds, Some(&["pred"]), None).unwrap();
    assert_ne!(
        after_drop.strategy,
        FetchStrategy::Cached,
        "dropping the index must move the cache key"
    );
    assert_eq!(first.frame, after_drop.frame, "answers never change");

    // The no-index key now repeats and hits again.
    assert_eq!(
        sys.get_intermediate(&preds, Some(&["pred"]), None)
            .unwrap()
            .strategy,
        FetchStrategy::Cached
    );
}

#[test]
fn adaptive_materialization_invalidates_cache() {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            storage: StorageStrategy::Adaptive { gamma_min: 1e-12 },
            query_cache_bytes: 16 << 20,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(ZillowData::generate(200, 1));
    let id = sys
        .register_trad(zillow_pipelines().remove(0), data)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    let preds = sys.intermediates_of(&id).last().unwrap().clone();

    // First fetch re-runs + materializes (invalidating the just-inserted
    // entry is fine: correctness over hit rate).
    let first = sys.get_intermediate(&preds, None, None).unwrap();
    assert_eq!(first.strategy, FetchStrategy::Rerun);
    let second = sys.get_intermediate(&preds, None, None).unwrap();
    // Whether served by cache or read, the data must be identical.
    assert_eq!(first.frame.n_rows(), second.frame.n_rows());
    for col in first.frame.columns() {
        let a = col.data.to_f64();
        let b = second.frame.column(&col.name).unwrap().data.to_f64();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9 || (x.is_nan() && y.is_nan()));
        }
    }
}
