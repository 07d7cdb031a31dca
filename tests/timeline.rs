//! End-to-end acceptance of the flight recorder: a log → query → reclaim →
//! persist → reopen lifecycle leaves a durable timeline under
//! `<dir>/telemetry/` that replays the session — metric series with
//! positive deltas, sequence numbers that continue across the restart, and
//! a `recovery` point carrying the recovery pass's counters — while the
//! reclaim ladder's steps land as effects on the `reclaim` audit record.
//! Plus: the retention budget is a hard bound on the directory, and
//! disabling telemetry writes nothing.

use std::path::Path;
use std::sync::Arc;

use mistique_core::{AuditEffect, FetchStrategy, Mistique, MistiqueConfig};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_store::DataStoreConfig;

fn telemetry_dir_bytes(dir: &Path) -> u64 {
    let tdir = dir.join("telemetry");
    let Ok(entries) = std::fs::read_dir(&tdir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Log two pipelines, query them, and starve the storage budget so the
/// reclaim ladder runs.
fn run_session(sys: &mut Mistique, data: &Arc<ZillowData>) -> Vec<String> {
    let pipes = zillow_pipelines();
    let mut ids = Vec::new();
    for p in pipes.into_iter().take(2) {
        let id = sys.register_trad(p, Arc::clone(data)).unwrap();
        sys.log_intermediates(&id).unwrap();
        ids.push(id);
    }
    for interm in sys.intermediates_of(&ids[0]) {
        sys.fetch_with_strategy(&interm, None, Some(30), FetchStrategy::Read)
            .unwrap();
    }
    sys.reclaim_to(512).unwrap();
    ids
}

#[test]
fn lifecycle_replays_series_with_correlated_events() {
    let dir = mistique_testkit::tempdir().unwrap();
    let data = Arc::new(ZillowData::generate(120, 3));
    let mut sys = Mistique::open(dir.path(), MistiqueConfig::default()).unwrap();
    run_session(&mut sys, &data);

    // Live view before the restart.
    let tl = sys.timeline().unwrap();
    assert!(!tl.points.is_empty(), "bursts must capture points");
    let seqs: Vec<u64> = tl.points.iter().map(|p| p.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs must increase");

    // The logging burst leaves a counter series with positive deltas.
    let put_series = tl.series("store.put.count");
    assert!(!put_series.is_empty(), "store.put.count must have a series");
    assert!(put_series.iter().any(|(_, _, v)| *v > 0.0));
    // Reasons cover the boundaries this session crossed.
    let reasons: Vec<&str> = tl.points.iter().map(|p| p.reason.as_str()).collect();
    assert!(reasons.contains(&"log"));
    assert!(reasons.contains(&"reclaim"));

    // The starved reclaim put its ladder on its own audit record: a
    // demotion and a purge, each naming a real intermediate with the rungs
    // it moved between, its bytes either side and the γ it was picked at.
    let records = sys.audit_records().unwrap();
    let reclaim = records.iter().rfind(|r| r.op == "reclaim").unwrap();
    let steps: Vec<_> = reclaim
        .effects
        .iter()
        .filter_map(|e| match e {
            AuditEffect::Step(d) => Some(d),
            AuditEffect::Compaction(_) => None,
        })
        .collect();
    let demote = steps
        .iter()
        .find(|d| !["PURGED", "DELTA"].contains(&d.to.as_str()) && d.from != "INDEX")
        .expect("the reclaim record holds a demotion");
    let purge = steps
        .iter()
        .find(|d| d.to == "PURGED")
        .expect("the reclaim record holds a purge");
    for d in [demote, purge] {
        let interm = &d.intermediate;
        assert!(sys.metadata().intermediate(interm).is_some(), "{interm}");
        assert!(!d.from.is_empty() && d.from != d.to, "{d:?}");
        assert!(
            d.bytes_before > 0 && d.bytes_after < d.bytes_before,
            "{d:?}"
        );
        assert!(d.gamma.is_finite(), "{d:?}");
    }
    assert_eq!(purge.bytes_after, 0, "a purge leaves no bytes");
    // Steps belong to the operation that ran the pass, nothing else.
    assert!(records
        .iter()
        .filter(|r| r.op != "reclaim")
        .all(|r| r.effects.is_empty()));

    let pre_restart_max = *seqs.last().unwrap();
    sys.persist().unwrap();
    drop(sys);

    // `load_timeline` needs no manifest and sees the same durable state.
    let tl = Mistique::load_timeline(dir.path()).unwrap();
    assert_eq!(tl.points.iter().map(|p| p.seq).max(), Some(pre_restart_max));

    // Reopen: the first point of the new run is the recovery capture,
    // numbered past the previous run (no reuse) and carrying the pass's
    // outcome counters.
    let sys = Mistique::reopen(dir.path(), MistiqueConfig::default()).unwrap();
    let tl = sys.timeline().unwrap();
    let recent = tl.window(pre_restart_max + 1, u64::MAX);
    let rec = recent.points.first().expect("reopen must capture a point");
    assert_eq!(rec.reason, "recovery");
    assert!(
        rec.seq > pre_restart_max,
        "recovery (seq {}) must be numbered past the previous run (max {})",
        rec.seq,
        pre_restart_max
    );
    let report = sys.recovery_report().unwrap();
    assert!(report.partitions_ok > 0);
    assert_eq!(
        rec.counters.get("store.recovery.partitions_ok"),
        Some(&report.partitions_ok)
    );
    // The recovery capture is a counter-reset boundary: the new run's
    // points exist alongside the old ones in one replayable stream.
    assert!(tl.points.iter().any(|p| p.seq <= pre_restart_max));

    // One family on disk: metric points. The ladder lives in the journal.
    for entry in std::fs::read_dir(dir.path().join("telemetry")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(name.starts_with("tl_"), "unexpected telemetry file {name}");
    }
}

/// The counters that replaced the query-path events — drift flags,
/// read-cache evictions, SLO burns — reach disk in the next capture's
/// point, at the values the registry holds.
#[test]
fn drift_evictions_and_slo_burns_land_in_timeline_points() {
    let dir = mistique_testkit::tempdir().unwrap();
    let data = Arc::new(ZillowData::generate(300, 1));
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            // Room for a few small partitions: reads of distinct
            // intermediates evict from the read cache.
            datastore: DataStoreConfig {
                mem_capacity: 16 << 10,
                ..DataStoreConfig::default()
            },
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let id = sys
        .register_trad(zillow_pipelines().remove(0), Arc::clone(&data))
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    let interms = sys.intermediates_of(&id);
    // A read class whose p95 is one nanosecond: every real read burns.
    for _ in 0..1000 {
        sys.obs().histogram("slo.fetch.read.ns").record(1);
    }
    // An absurd bandwidth makes every read prediction ~0 s: drift.
    sys.cost_model_mut().read_bandwidth = 1e18;
    for interm in interms.iter().take(4) {
        sys.fetch_with_strategy(interm, None, None, FetchStrategy::Read)
            .unwrap();
    }
    for n in 1..=50 {
        sys.get_intermediate(&interms[0], None, Some(n)).unwrap();
    }
    sys.reclaim_to(u64::MAX).unwrap(); // a capture
    let snap = sys.obs_snapshot();
    let tl = sys.timeline().unwrap();
    let last = |metric: &str| tl.series(metric).last().map(|s| s.2);
    for counter in [
        "cost_model.drift_flags",
        "store.read_cache.evictions",
        "slo.burns",
    ] {
        let registry = snap.counter(counter);
        assert!(registry > 0, "{counter} never moved");
        assert_eq!(last(counter), Some(registry as f64), "{counter}");
    }
    let drift = last("cost_model.drift").unwrap();
    assert!(drift > sys.drift_monitor().tolerance(), "drift {drift}");
}

#[test]
fn retention_budget_is_a_hard_bound_on_the_directory() {
    let dir = mistique_testkit::tempdir().unwrap();
    let budget = 8192u64;
    let data = Arc::new(ZillowData::generate(120, 3));
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            telemetry_budget_bytes: budget,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let pipes = zillow_pipelines();
    let id = sys
        .register_trad(pipes[0].clone(), Arc::clone(&data))
        .unwrap();
    // Every iteration is several captures; the ring must rotate many times
    // over without the directory ever exceeding the budget.
    for _ in 0..20 {
        sys.log_intermediates(&id).unwrap();
        sys.reclaim_to(u64::MAX).unwrap();
        let used = telemetry_dir_bytes(dir.path());
        assert!(
            used <= budget,
            "telemetry dir holds {used} bytes, budget is {budget}"
        );
    }
    let stats = sys.telemetry_stats().expect("telemetry is enabled");
    assert!(
        stats.segments_dropped > 0,
        "an 8 KiB budget must rotate the ring ({} captures, {} bytes)",
        stats.captures,
        stats.total_bytes
    );
    assert!(stats.total_bytes <= budget);
    // Oldest-first eviction: the survivors are the newest captures.
    let tl = sys.timeline().unwrap();
    assert!(!tl.points.is_empty(), "rotation must never empty the ring");
    assert_eq!(
        tl.points.iter().map(|p| p.seq).max(),
        Some(stats.next_seq - 1),
        "the newest capture always survives rotation"
    );
}

#[test]
fn zero_budget_disables_telemetry_entirely() {
    let dir = mistique_testkit::tempdir().unwrap();
    let data = Arc::new(ZillowData::generate(60, 3));
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            telemetry_budget_bytes: 0,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let id = sys
        .register_trad(zillow_pipelines().remove(0), Arc::clone(&data))
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    assert!(sys.telemetry_stats().is_none());
    assert!(!dir.path().join("telemetry").exists());
    let tl = sys.timeline().unwrap();
    assert!(tl.points.is_empty());
}
