//! Storage budget manager end-to-end: γ-driven demotion down the
//! quantization ladder, purge with transparent re-run + re-promotion, the
//! post-reclaim partition compaction, and the budget hooks on the logging
//! and adaptive-materialization paths.

use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig, StorageStrategy, ValueScheme};
use mistique_nn::{simple_cnn, CifarLike};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn config(strategy: StorageStrategy) -> MistiqueConfig {
    MistiqueConfig {
        row_block_size: 40,
        storage: strategy,
        ..MistiqueConfig::default()
    }
}

fn trad_system(
    strategy: StorageStrategy,
    n_pipelines: usize,
) -> (mistique_testkit::TempDir, Mistique) {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(dir.path(), config(strategy)).unwrap();
    let data = Arc::new(ZillowData::generate(150, 1));
    for p in zillow_pipelines().into_iter().take(n_pipelines) {
        let id = sys.register_trad(p, Arc::clone(&data)).unwrap();
        sys.log_intermediates(&id).unwrap();
    }
    (dir, sys)
}

#[test]
fn reclaim_brings_usage_under_budget_and_compacts() {
    let (_d, mut sys) = trad_system(StorageStrategy::Dedup, 3);
    let used = sys.storage_budget_used();
    assert!(used > 0);

    let budget = used / 3;
    let report = sys.reclaim_to(budget).unwrap();

    assert!(report.within_budget(), "report: {}", report.render());
    assert_eq!(report.used_before, used);
    assert!(sys.storage_budget_used() <= budget);
    assert!(
        !report.demotions.is_empty(),
        "shrinking to a third of usage must take ladder steps"
    );
    // Demotion displaces chunks; the pass must compact them away (no
    // manifest exists in stub environments, so compaction always runs here).
    let compaction = report.compaction.expect("compaction ran");
    assert!(compaction.bytes_reclaimed > 0);
    assert_eq!(sys.store().dead_bytes(), 0, "compaction left dead bytes");

    // Every still-materialized intermediate remains readable.
    let mut read_any = false;
    for model in sys.model_ids() {
        for interm in sys.intermediates_of(&model) {
            let m = sys.metadata().intermediate(&interm).unwrap().clone();
            if m.materialized {
                let r = sys
                    .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
                    .unwrap();
                assert_eq!(r.frame.n_rows(), m.n_rows);
                read_any = true;
            }
        }
    }
    assert!(read_any, "the budget was not so tight everything purged");
    sys.store().check_invariants().unwrap();
}

#[test]
fn demoted_lp_reads_stay_within_scheme_error_bound() {
    // DNN activations sit comfortably inside the f16 range, so LP_QT's
    // static relative bound (2^-11) is checkable per value.
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            row_block_size: 8,
            storage: StorageStrategy::Dedup,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(CifarLike::generate(16, 10, 1));
    let id = sys
        .register_dnn(Arc::new(simple_cnn(16)), 5, 0, data, 8)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    let interm = format!("{id}.layer2");

    let full = sys
        .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
        .unwrap()
        .frame;

    let stepped = sys.demote_one_step(&interm).unwrap();
    assert_eq!(stepped, Some(ValueScheme::Lp));
    let meta = sys.metadata().intermediate(&interm).unwrap().clone();
    assert_eq!(meta.scheme.value, ValueScheme::Lp);
    let bound = meta.scheme.value.error_bound().unwrap();
    assert_eq!(bound, 1.0 / 2048.0);

    let demoted = sys
        .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
        .unwrap();
    assert_eq!(demoted.frame.n_rows(), full.n_rows());
    assert_eq!(demoted.frame.n_cols(), full.n_cols());
    for col in full.columns() {
        let a = col.data.to_f64();
        let b = demoted.frame.column(&col.name).unwrap().data.to_f64();
        for (x, y) in a.iter().zip(&b) {
            // Relative bound for normal f16 values plus an absolute slack
            // for the subnormal range.
            assert!(
                (x - y).abs() <= x.abs() * bound + 1e-4,
                "col {}: {x} vs {y} exceeds LP_QT bound",
                col.name
            );
        }
    }
    // The EXPLAIN report of the demoted read carries the new scheme.
    let last = sys.last_report().unwrap();
    assert_eq!(last.scheme, "POOL_QT(2)+LP_QT");
    assert_eq!(last.error_bound, Some(bound));
    sys.store().check_invariants().unwrap();
}

#[test]
fn purged_intermediate_reruns_and_repromotes() {
    let (_d, mut sys) = trad_system(StorageStrategy::Adaptive { gamma_min: 1e-12 }, 1);
    let model = sys.model_ids().remove(0);
    let interm = sys.intermediates_of(&model).last().unwrap().clone();

    // First query re-runs and materializes (γ clears the tiny threshold).
    let r1 = sys.get_intermediate(&interm, None, None).unwrap();
    assert_eq!(r1.strategy, FetchStrategy::Rerun);
    assert!(sys.metadata().intermediate(&interm).unwrap().materialized);

    // An impossible budget walks everything down the ladder and purges it.
    let report = sys.reclaim_to(1).unwrap();
    assert!(
        report.purged.contains(&interm),
        "report: {}",
        report.render()
    );
    let meta = sys.metadata().intermediate(&interm).unwrap().clone();
    assert!(!meta.materialized);
    // Purged chunks are really gone: a forced read is rejected.
    assert!(sys
        .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
        .is_err());

    // The next query transparently re-runs — and re-promotes, since the γ
    // test still clears the threshold.
    let r2 = sys.get_intermediate(&interm, None, None).unwrap();
    assert_eq!(r2.strategy, FetchStrategy::Rerun);
    assert!(sys.metadata().intermediate(&interm).unwrap().materialized);
    assert_eq!(
        sys.metadata().intermediate(&interm).unwrap().scheme.value,
        ValueScheme::Full,
        "re-promotion stores full precision again"
    );

    // And the query after that reads the re-materialized chunks,
    // bit-matching the re-run.
    let r3 = sys.get_intermediate(&interm, None, None).unwrap();
    assert_eq!(r3.strategy, FetchStrategy::Read);
    for col in r2.frame.columns() {
        let a = col.data.to_f64();
        let b = r3.frame.column(&col.name).unwrap().data.to_f64();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9 || (x.is_nan() && y.is_nan()));
        }
    }
    sys.store().check_invariants().unwrap();
}

#[test]
fn ladder_tries_delta_reencode_before_purging() {
    let (_d, mut sys) = trad_system(StorageStrategy::Dedup, 3);
    // An impossible budget walks every intermediate all the way down; on
    // the way each one must pass the DELTA rung exactly once, after
    // THRESHOLD_QT and before its purge.
    let report = sys.reclaim_to(1).unwrap();
    let deltas: Vec<_> = report
        .demotions
        .iter()
        .filter(|d| d.to == "DELTA")
        .collect();
    assert!(
        !deltas.is_empty(),
        "ladder must try delta re-encode before purging: {}",
        report.render()
    );
    for d in &deltas {
        assert_eq!(d.from, "THRESHOLD_QT", "delta rung sits below threshold");
        let i_delta = report
            .demotions
            .iter()
            .position(|x| x.to == "DELTA" && x.intermediate == d.intermediate)
            .unwrap();
        let i_purge = report
            .demotions
            .iter()
            .position(|x| x.to == "PURGED" && x.intermediate == d.intermediate)
            .expect("budget of 1 byte purges everything");
        assert!(i_delta < i_purge, "delta re-encode precedes the purge");
    }
    // A purge resets the flag so a re-materialized copy can try again.
    for d in &deltas {
        assert!(
            !sys.metadata()
                .intermediate(&d.intermediate)
                .unwrap()
                .delta_encoded
        );
    }
    assert!(report.render().contains("delta"));
    sys.store().check_invariants().unwrap();
}

#[test]
fn delta_rung_keeps_threshold_reads_bit_identical() {
    let (_d, mut sys) = trad_system(StorageStrategy::Dedup, 2);
    // Walk every intermediate to the bottom scheme so the next reclaim step
    // for any victim is the delta rung.
    let interms: Vec<String> = sys
        .model_ids()
        .iter()
        .flat_map(|m| sys.intermediates_of(m))
        .collect();
    for i in &interms {
        while sys.demote_one_step(i).unwrap().is_some() {}
    }
    let mut expected = Vec::new();
    for i in &interms {
        let f = sys
            .fetch_with_strategy(i, None, None, FetchStrategy::Read)
            .unwrap()
            .frame;
        expected.push((i.clone(), f));
    }

    let used = sys.storage_budget_used();
    let report = sys.reclaim_to(used - used / 8).unwrap();
    // Index drops come first (cheapest bytes); the first *data* step must be
    // the delta rung, since every victim already sits at THRESHOLD_QT.
    assert_eq!(
        report
            .demotions
            .iter()
            .find(|d| d.from != "INDEX")
            .map(|d| d.to.as_str()),
        Some("DELTA"),
        "every victim sits at THRESHOLD_QT, so the first data step is the delta rung: {}",
        report.render()
    );
    // Intermediates the pass re-encoded carry the flag (reclaim stops as soon
    // as the budget is met, so untouched survivors legitimately don't; a
    // victim purged later in the same pass has its flag reset with the purge).
    for d in report.demotions.iter().filter(|d| d.to == "DELTA") {
        let m = sys.metadata().intermediate(&d.intermediate).unwrap();
        assert!(
            m.delta_encoded || !m.materialized,
            "{} was delta re-encoded but its flag is unset",
            d.intermediate
        );
    }
    // Whatever the pass did — delta re-encodes, purges — surviving
    // intermediates must read back bit-identically.
    for (i, frame) in &expected {
        if !sys.metadata().intermediate(i).unwrap().materialized {
            continue;
        }
        let got = sys
            .fetch_with_strategy(i, None, None, FetchStrategy::Read)
            .unwrap()
            .frame;
        assert_eq!(&got, frame, "delta re-encode changed the bytes of {i}");
    }
    sys.store().check_invariants().unwrap();
}

#[test]
fn reclaim_reports_ring_and_obs_counters() {
    let (_d, mut sys) = trad_system(StorageStrategy::Dedup, 2);
    let used = sys.storage_budget_used();
    let first = sys.reclaim_to(used / 2).unwrap();
    let second = sys.reclaim_to(used / 4).unwrap();
    assert_eq!(first.seq, 0);
    assert_eq!(second.seq, 1);
    assert_eq!(sys.last_reclaim().unwrap().seq, 1);
    assert_eq!(sys.reclaim_reports(10).len(), 2);

    let snap = sys.obs_snapshot();
    assert!(snap.counter("adaptive.demotions") > 0);
    assert_eq!(
        snap.gauge("storage.budget_used") as u64,
        sys.storage_budget_used()
    );
    assert!(snap.counter("compaction.runs") >= 1);
    sys.store().check_invariants().unwrap();
}

#[test]
fn gamma_decision_counts_triggering_query_exactly_once() {
    // Regression for the Eq 5 off-by-one: the query that triggers the γ
    // evaluation must be counted exactly once — n_queries is still 0 at the
    // first decision point and the projection adds the single +1.
    let (_d, mut sys) = trad_system(
        StorageStrategy::Adaptive {
            gamma_min: f64::MAX,
        },
        1,
    );
    let model = sys.model_ids().remove(0);
    let interm = sys.intermediates_of(&model)[1].clone();

    sys.get_intermediate(&interm, None, None).unwrap();
    assert_eq!(
        sys.obs_snapshot().gauge("adaptive.decision_queries") as u64,
        1,
        "first query must evaluate γ at n_queries = 1, not 0 or 2"
    );
    sys.get_intermediate(&interm, None, None).unwrap();
    assert_eq!(
        sys.obs_snapshot().gauge("adaptive.decision_queries") as u64,
        2
    );
    assert_eq!(sys.metadata().intermediate(&interm).unwrap().n_queries, 2);
    sys.store().check_invariants().unwrap();
}

#[test]
fn logging_hook_enforces_configured_budget() {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut cfg = config(StorageStrategy::Dedup);
    cfg.storage_budget_bytes = 4096;
    let mut sys = Mistique::open(dir.path(), cfg).unwrap();
    let data = Arc::new(ZillowData::generate(150, 1));
    let id = sys
        .register_trad(zillow_pipelines().remove(0), data)
        .unwrap();
    sys.log_intermediates(&id).unwrap();

    assert!(
        sys.storage_budget_used() <= 4096,
        "hook after logging must reclaim down to the budget (used {})",
        sys.storage_budget_used()
    );
    let report = sys.last_reclaim().expect("hook ran a reclaim pass");
    assert!(!report.demotions.is_empty());
    assert_eq!(sys.storage_budget(), 4096);
    sys.store().check_invariants().unwrap();
}

#[test]
fn reclaimed_store_persists_and_reopens() {
    let (dir, mut sys) = trad_system(StorageStrategy::Dedup, 2);
    let used = sys.storage_budget_used();
    sys.reclaim_to(used / 2).unwrap();
    sys.persist().unwrap();
    let survivors: Vec<String> = sys
        .model_ids()
        .iter()
        .flat_map(|m| sys.intermediates_of(m))
        .filter(|i| sys.metadata().intermediate(i).unwrap().materialized)
        .collect();
    drop(sys);

    let mut sys = Mistique::reopen(dir.path(), config(StorageStrategy::Dedup)).unwrap();
    let recovery = sys.recovery_report().unwrap();
    assert_eq!(recovery.quarantined, 0);
    assert_eq!(recovery.missing, 0);
    assert_eq!(
        sys.store().dead_bytes(),
        0,
        "post-compaction manifest carries clean accounting"
    );
    for interm in survivors {
        let m = sys.metadata().intermediate(&interm).unwrap().clone();
        assert!(m.materialized);
        let r = sys
            .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
            .unwrap();
        assert_eq!(r.frame.n_rows(), m.n_rows);
    }
    sys.store().check_invariants().unwrap();
}
