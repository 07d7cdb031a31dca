//! End-to-end acceptance of the metric timeline: a log → query → reclaim →
//! persist → reopen lifecycle leaves metric points on the audit records
//! under `<dir>/audit/` that replay the session — metric series with
//! positive deltas, sequence numbers that continue across the restart, and
//! a `recovery` point carrying the recovery pass's counters — while the
//! reclaim ladder's steps land as effects on the `reclaim` audit record.
//! Plus: the journal's retention budget is a hard bound on the directory,
//! disabling the journal writes nothing, and the `mistique timeline` /
//! `mistique top` output of a fixture store is pinned.

use std::path::Path;
use std::sync::Arc;

use mistique_core::{AuditEffect, FetchStrategy, Mistique, MistiqueConfig};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_store::DataStoreConfig;

fn audit_dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir.join("audit")) else {
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

    // One ring on disk: the journal, points and ladder alike.
    assert!(!dir.path().join("telemetry").exists());
    for entry in std::fs::read_dir(dir.path().join("audit")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(name.starts_with("au_"), "unexpected audit file {name}");
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
            audit_budget_bytes: budget,
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
        let used = audit_dir_bytes(dir.path());
        assert!(
            used <= budget,
            "audit dir holds {used} bytes, budget is {budget}"
        );
    }
    let stats = sys.audit_stats().expect("the journal is enabled");
    assert!(
        stats.segments_dropped > 0,
        "an 8 KiB budget must rotate the ring ({} records, {} bytes)",
        stats.records,
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
            audit_budget_bytes: 0,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let id = sys
        .register_trad(zillow_pipelines().remove(0), Arc::clone(&data))
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    assert!(sys.audit_stats().is_none());
    assert!(!dir.path().join("telemetry").exists());
    assert!(!dir.path().join("audit").exists());
    let tl = sys.timeline().unwrap();
    assert!(tl.points.is_empty());
}

/// `mistique replay … | head -1`: the reader goes away after the first line,
/// so the CLI's next write meets a closed pipe. That is a clean exit, not a
/// panic.
#[test]
fn cli_exits_cleanly_when_its_reader_goes_away() {
    use std::io::BufRead;
    let tmp = mistique_testkit::tempdir().unwrap();
    let dir = tmp.path().to_str().unwrap();
    {
        let data = Arc::new(ZillowData::generate(120, 3));
        let mut sys = Mistique::open(dir, MistiqueConfig::default()).unwrap();
        let id = sys
            .register_trad(zillow_pipelines().remove(0), data)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        sys.persist().unwrap();
        sys.audit_flush();
    }
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_mistique"))
        .args(["replay", dir, "--differential"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("loaded "), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Run the `mistique` binary and return its stdout.
fn cli(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mistique"))
        .args(args)
        .output()
        .unwrap();
    assert!(out.status.success(), "mistique {args:?}: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// The parts of `mistique timeline` and `mistique top --once` that do not
/// depend on timing, over a fixture store: a log → forced read → reclaim →
/// persist → reopen session. Pinned are the reasons in order, each point's
/// counters (names and values), and `top`'s OP / COUNT / ERR / BYTES
/// columns. Left out: sequence numbers, `interval` points (they ride on
/// whichever query crosses the 2 s mark), gauges and histograms, and the
/// counters whose value follows measured latency.
#[test]
fn cli_timeline_and_top_output_is_pinned_on_a_fixture_store() {
    let tmp = mistique_testkit::tempdir().unwrap();
    let dir = tmp.path().to_str().unwrap();
    {
        let data = Arc::new(ZillowData::generate(120, 3));
        let mut sys = Mistique::open(dir, MistiqueConfig::default()).unwrap();
        let mut ids = Vec::new();
        for p in zillow_pipelines().into_iter().take(2) {
            let id = sys.register_trad(p, Arc::clone(&data)).unwrap();
            sys.log_intermediates(&id).unwrap();
            ids.push(id);
        }
        for interm in sys.intermediates_of(&ids[0]).iter().take(3) {
            sys.fetch_with_strategy(interm, None, Some(30), FetchStrategy::Read)
                .unwrap();
        }
        sys.reclaim_to(u64::MAX).unwrap();
        sys.persist().unwrap();
    }
    drop(Mistique::reopen(dir, MistiqueConfig::default()).unwrap());

    let doc = mistique_obs::json::parse(&cli(&["timeline", dir, "--json"])).unwrap();
    let mut points = Vec::new();
    for p in doc.get("points").unwrap().as_arr().unwrap() {
        let reason = p.get("reason").unwrap().as_str().unwrap();
        if reason == "interval" {
            continue;
        }
        let counters: Vec<String> = p
            .get("counters")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .filter(|(name, _)| !TIMED_COUNTERS.contains(&name.as_str()))
            .map(|(name, v)| format!("{name}={}", v.as_u64().unwrap()))
            .collect();
        points.push(format!("{reason}: {}", counters.join(" ")));
    }
    // The table lists the same reasons, in the same order.
    let table = cli(&["timeline", dir]);
    let table_reasons: Vec<&str> = table
        .lines()
        .filter(|l| l.ends_with('h'))
        .filter_map(|l| l.split_whitespace().nth(2))
        .filter(|r| *r != "interval")
        .collect();
    let json_reasons: Vec<&str> = points
        .iter()
        .map(|p| p.split(':').next().unwrap())
        .collect();
    assert_eq!(table_reasons, json_reasons, "{table}");

    let top = cli(&["top", dir, "--once"]);
    let rows: Vec<String> = top
        .lines()
        .skip_while(|l| !l.starts_with("OP "))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            format!("{} {} {} {}", cols[0], cols[1], cols[2], cols[7])
        })
        .collect();
    assert_eq!(points, PINNED_POINTS);
    assert_eq!(rows, PINNED_TOP_ROWS);
}

/// Counters whose value follows measured latency, not the workload.
const TIMED_COUNTERS: [&str; 1] = ["cost_model.drift_flags"];

const PINNED_POINTS: [&str; 4] = [
    "log: index.rebuilds=12 store.dedup.exact_hits=24 store.dedup.similarity_placements=27 \
     store.delta.attempts=20 store.delta.base_pins=13 store.delta.bytes_saved=6611 \
     store.delta.puts=13 store.partitions.created=16 store.put.bytes=35424 store.put.count=67",
    "log: index.rebuilds=24 store.dedup.exact_hits=88 store.dedup.similarity_placements=30 \
     store.delta.attempts=23 store.put.bytes=70848 store.put.count=134",
    "reclaim: compaction.runs=1 compress.lzss.count=12 compress.lzss.frame_bytes=2256 \
     compress.lzss.raw_bytes=6194 compress.members.count=16 compress.members.in_bytes=17764 \
     compress.members.out_bytes=14369 compress.raw.count=30 compress.raw.frame_bytes=9571 \
     compress.raw.raw_bytes=9494 compress.rle.count=4 compress.rle.frame_bytes=1056 \
     compress.rle.raw_bytes=2076 cost.observe_read.count=3 decision.read.count=3 \
     store.get.bytes=10433 store.get.count=14 store.get.mem_hits=14 \
     store.get.partitions_touched=12 store.partitions.sealed=16",
    "recovery: store.recovery.partitions_ok=16",
];

const PINNED_TOP_ROWS: [&str; 5] = [
    "fetch.strategy 3 0 10.2KiB",
    "log 2 0 0B",
    "reclaim 1 0 0B",
    "recovery 1 0 0B",
    "register 2 0 0B",
];
