//! Parallel multi-model logging must be equivalent to sequential logging:
//! same metadata, same stored data, same dedup effect.

use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn build(parallel: bool) -> (mistique_testkit::TempDir, Mistique, Vec<String>) {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(dir.path(), MistiqueConfig::default()).unwrap();
    let data = Arc::new(ZillowData::generate(300, 42));
    let mut ids = Vec::new();
    for p in zillow_pipelines().into_iter().take(4) {
        ids.push(sys.register_trad(p, Arc::clone(&data)).unwrap());
    }
    if parallel {
        let refs: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
        sys.log_intermediates_parallel(&refs).unwrap();
    } else {
        for id in &ids {
            sys.log_intermediates(id).unwrap();
        }
    }
    (dir, sys, ids)
}

#[test]
fn parallel_equals_sequential() {
    let (_d1, mut seq, ids) = build(false);
    let (_d2, mut par, ids2) = build(true);
    assert_eq!(ids, ids2);

    // Identical dedup accounting (same chunks in the same order).
    let s1 = seq.store().stats();
    let s2 = par.store().stats();
    assert_eq!(s1.logical_bytes, s2.logical_bytes);
    assert_eq!(s1.unique_bytes, s2.unique_bytes);
    assert_eq!(s1.dedup_hits, s2.dedup_hits);

    // Identical data on every intermediate.
    for id in &ids {
        for interm in seq.intermediates_of(id) {
            let a = seq
                .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
                .unwrap()
                .frame;
            let b = par
                .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
                .unwrap()
                .frame;
            assert_eq!(a.n_rows(), b.n_rows(), "{interm}");
            for col in a.columns() {
                let va = col.data.to_f64();
                let vb = b.frame_column_f64(&col.name);
                for (x, y) in va.iter().zip(&vb) {
                    assert!(
                        (x - y).abs() < 1e-12 || (x.is_nan() && y.is_nan()),
                        "{interm} col {}",
                        col.name
                    );
                }
            }
        }
    }
}

trait ColHelper {
    fn frame_column_f64(&self, name: &str) -> Vec<f64>;
}

impl ColHelper for mistique_dataframe::DataFrame {
    fn frame_column_f64(&self, name: &str) -> Vec<f64> {
        self.column(name).unwrap().data.to_f64()
    }
}

#[test]
fn parallel_logging_records_exec_metadata() {
    let (_d, sys, ids) = build(true);
    for id in &ids {
        assert!(sys.logging_overhead(id) > std::time::Duration::ZERO, "{id}");
        for interm in sys.intermediates_of(id) {
            let m = sys.metadata().intermediate(&interm).unwrap();
            assert!(m.materialized);
            assert!(m.stored_bytes > 0);
        }
    }
}

#[test]
fn logging_overhead_includes_storage_time() {
    // The overhead metric (Fig 11) must cover chunking + storage, not just
    // pipeline execution — on both the sequential and the parallel path.
    for parallel in [false, true] {
        let (_d, sys, ids) = build(parallel);
        for id in &ids {
            let total = sys.logging_overhead(id);
            let storage = sys.storage_overhead(id);
            assert!(
                storage > std::time::Duration::ZERO,
                "{id} parallel={parallel}: storage time untracked"
            );
            assert!(
                total >= storage,
                "{id} parallel={parallel}: overhead {total:?} excludes storage {storage:?}"
            );
        }
    }
}

#[test]
fn unknown_id_in_batch_errors() {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(dir.path(), MistiqueConfig::default()).unwrap();
    assert!(sys.log_intermediates_parallel(&["nope"]).is_err());
}
