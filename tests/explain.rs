//! Query EXPLAIN integration tests: every diagnostic query yields a
//! `QueryReport` with real cost predictions, the span tree of a cold read is
//! identical at every `read_parallelism` setting, the Perfetto export is
//! valid Chrome-trace JSON, a miscalibrated cost model trips the drift flag,
//! and the span-ring / report-retention knobs in `MistiqueConfig` are
//! honoured.

use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig, PlanChoice, StorageStrategy};
use mistique_obs::tree::trace_trees;
use mistique_obs::SpanNode;
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

/// A small logged TRAD system with several row blocks per column, so cold
/// reads touch multiple partitions and decode spans.
fn explain_system(config: MistiqueConfig) -> (mistique_testkit::TempDir, Mistique, String) {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(dir.path(), config).unwrap();
    let data = Arc::new(ZillowData::generate(150, 1));
    let id = sys
        .register_trad(zillow_pipelines().remove(0), data)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    (dir, sys, id)
}

fn small_blocks() -> MistiqueConfig {
    MistiqueConfig {
        row_block_size: 40,
        storage: StorageStrategy::Dedup,
        // These tests pin down the *scan* plans; indexed plans have their own
        // suite below and in tests/index_equivalence.rs.
        index_top_m: 0,
        ..MistiqueConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Reports: every Diagnostics query leaves an attributed QueryReport.
// ---------------------------------------------------------------------------

#[test]
fn every_diagnostic_query_yields_a_labeled_report() {
    let (_d, mut sys, id) = explain_system(small_blocks());
    let interms = sys.intermediates_of(&id);
    let preds = interms.last().unwrap().clone();
    let first = interms[0].clone();

    sys.topk(&preds, "pred", 5).unwrap();
    let r = sys.last_report().expect("topk leaves a report").clone();
    assert_eq!(r.query, "diag.topk");
    assert_eq!(r.intermediate, preds);
    assert!(
        r.plan == PlanChoice::Read || r.plan == PlanChoice::Rerun,
        "a scan-served top-k is planned as read or rerun"
    );
    assert!(r.predicted_read_s > 0.0, "Eq 4 prediction recorded");
    assert!(r.predicted_rerun_s > 0.0, "Eq 2/3 prediction recorded");
    assert!(r.actual > std::time::Duration::ZERO);
    assert!(r.n_ex > 0);
    assert!(!r.scheme.is_empty());
    // A read that went through the store moved bytes and touched partitions.
    if r.plan == PlanChoice::Read {
        assert!(r.attribution.gets > 0);
        assert!(r.attribution.bytes > 0);
    }

    let col0 = sys.metadata().intermediate(&first).unwrap().columns[0].clone();
    sys.col_dist(&first, &col0, 8).unwrap();
    assert_eq!(sys.last_report().unwrap().query, "diag.col_dist");

    sys.pointq(&preds, "pred", 3).unwrap();
    assert_eq!(sys.last_report().unwrap().query, "diag.pointq");

    // The rendered report mentions the plan, both predictions, and the trace.
    let text = sys.last_report().unwrap().render();
    for needle in ["plan", "predicted read", "rerun", "actual", "trace"] {
        assert!(text.contains(needle), "render missing {needle:?}:\n{text}");
    }
}

/// One row of [`every_plan_outcome_goes_through_the_shared_epilogue`].
struct Outcome {
    /// Runs the query; fetch entry points hand back their `FetchResult`.
    run: fn(&mut Mistique, &str) -> Option<mistique_core::FetchResult>,
    /// Audit op of the entry point, and the label its reports carry.
    op: &'static str,
    query: &'static str,
    plan: PlanChoice,
    /// The counter this outcome bumps by one (`None`: no decision and no
    /// index hit is recorded, so `decision.read.count` must stand still).
    counter: Option<&'static str>,
}

/// Every plan outcome — read, rerun, rows, indexed top-k, indexed
/// threshold, and a nested diagnostic — leaves exactly the same trail: one
/// report under the outermost label, one counted query, one SLO sample, its
/// own counter, one audit record naming the plan, and a `FetchResult` whose
/// numbers are the report's.
#[test]
fn every_plan_outcome_goes_through_the_shared_epilogue() {
    let (_d, mut sys, id) = explain_system(MistiqueConfig {
        row_block_size: 40,
        storage: StorageStrategy::Dedup,
        ..MistiqueConfig::default()
    });
    // The planner always prefers Read, so the indexed gates are open.
    sys.cost_model_mut().read_bandwidth = 1e18;
    let preds = sys.intermediates_of(&id).last().unwrap().clone();

    let outcomes = [
        Outcome {
            run: |s, i| Some(s.get_intermediate(i, None, None).unwrap()),
            op: "fetch.get",
            query: "fetch",
            plan: PlanChoice::Read,
            counter: Some("decision.read.count"),
        },
        Outcome {
            run: |s, i| {
                let r = s.fetch_with_strategy(i, None, None, FetchStrategy::Rerun);
                Some(r.unwrap())
            },
            op: "fetch.strategy",
            query: "fetch",
            plan: PlanChoice::Rerun,
            counter: Some("decision.rerun.count"),
        },
        Outcome {
            run: |s, i| Some(s.get_rows(i, &[44, 0, 41], None).unwrap()),
            op: "fetch.rows",
            query: "fetch",
            plan: PlanChoice::Read,
            counter: None,
        },
        Outcome {
            run: |s, i| s.topk(i, "pred", 5).map(|_| None).unwrap(),
            op: "diag.topk",
            query: "diag.topk",
            plan: PlanChoice::IndexedRead,
            counter: Some("index.hits"),
        },
        Outcome {
            run: |s, i| s.select_where_gt(i, "pred", 0.0).map(|_| None).unwrap(),
            op: "diag.select_where_gt",
            query: "diag.select_where_gt",
            plan: PlanChoice::IndexedRead,
            counter: Some("index.hits"),
        },
        // Nested diagnostics: the inner `argmax_predictions` neither labels
        // the report nor owns an audit record.
        Outcome {
            run: |s, i| s.confusion_matrix(i, &[0; 150], 1).map(|_| None).unwrap(),
            op: "diag.confusion_matrix",
            query: "diag.confusion_matrix",
            plan: PlanChoice::Read,
            counter: Some("decision.read.count"),
        },
    ];

    for (i, o) in outcomes.iter().enumerate() {
        let ctx = format!("outcome {i} ({} -> {})", o.op, o.plan.name());
        let slo = format!("slo.{}.{}.ns", o.query, o.plan.name());
        let counter = o.counter.unwrap_or("decision.read.count");
        let last_seq = sys.last_report().map(|r| r.seq);
        let queries = sys.metadata().intermediate(&preds).unwrap().n_queries;
        let slo_count = sys.obs().histogram(&slo).count();
        let counted = sys.obs().counter(counter).get();
        let journaled = sys.audit_records().unwrap().len();

        let result = (o.run)(&mut sys, &preds);

        let fresh: Vec<_> = sys
            .query_reports(usize::MAX)
            .into_iter()
            .filter(|r| last_seq.is_none_or(|s| r.seq > s))
            .collect();
        assert_eq!(fresh.len(), 1, "{ctx}: exactly one new report");
        let r = &fresh[0];
        assert_eq!(r.seq, last_seq.map_or(0, |s| s + 1), "{ctx}");
        assert_eq!(r.query, o.query, "{ctx}: outermost label");
        assert_eq!(r.plan, o.plan, "{ctx}");
        assert_eq!(r.intermediate, preds, "{ctx}");
        let scored = matches!(
            o.counter,
            Some("decision.read.count" | "decision.rerun.count")
        );
        assert_eq!(
            r.drift_ratio.is_some(),
            scored,
            "{ctx}: only the planner's read/rerun decisions are drift-monitored"
        );
        assert_eq!(
            r.pruning.is_some(),
            o.plan == PlanChoice::IndexedRead,
            "{ctx}"
        );
        assert!(
            r.predicted_read_s > 0.0 && r.predicted_rerun_s > 0.0,
            "{ctx}"
        );

        let meta = sys.metadata().intermediate(&preds).unwrap();
        assert_eq!(meta.n_queries, queries + 1, "{ctx}: one counted query");
        assert_eq!(
            sys.obs().histogram(&slo).count(),
            slo_count + 1,
            "{ctx}: {slo}"
        );
        assert_eq!(
            sys.obs().counter(counter).get(),
            counted + u64::from(o.counter.is_some()),
            "{ctx}: {counter}"
        );

        let records = sys.audit_records().unwrap();
        assert_eq!(records.len(), journaled + 1, "{ctx}: one audit record");
        let rec = records.last().unwrap();
        assert_eq!(rec.op, o.op, "{ctx}");
        assert_eq!(rec.plans, vec![o.plan.name().to_string()], "{ctx}");
        assert_eq!(rec.trace_id, r.trace_id, "{ctx}");
        assert!(rec.ok, "{ctx}");

        if let Some(f) = result {
            assert_eq!(f.fetch_time, r.actual, "{ctx}: FetchResult is the report");
            assert_eq!(f.predicted_read, r.predicted_read_s, "{ctx}");
            assert_eq!(f.predicted_rerun, r.predicted_rerun_s, "{ctx}");
            assert_eq!(f.strategy.name(), o.plan.name(), "{ctx}");
        }
    }
}

/// `None`, `Some(n_rows)` and an oversized `Some(n)` all denote the full
/// frame: the planner clamps the row count before pricing, so the three
/// spellings get the same plan, row count and frame. A strict prefix is a
/// different request.
#[test]
fn full_frame_requests_agree_regardless_of_n_spelling() {
    let (_d, mut sys, id) = explain_system(small_blocks());
    sys.cost_model_mut().read_bandwidth = 1e18;
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    let n_rows = sys.metadata().intermediate(&preds).unwrap().n_rows;

    let mut fetch = |n_ex| {
        let f = sys.get_intermediate(&preds, None, n_ex).unwrap();
        let r = sys.last_report().unwrap().clone();
        (f, r)
    };
    let (first, _) = fetch(None);
    assert_eq!(first.strategy, FetchStrategy::Read);
    assert_eq!(first.frame.n_rows(), n_rows);
    for n_ex in [Some(n_rows), Some(n_rows * 10)] {
        let (f, r) = fetch(n_ex);
        assert_eq!(f.frame, first.frame, "{n_ex:?}");
        assert_eq!(f.strategy, first.strategy, "{n_ex:?}");
        assert_eq!(
            r.n_ex, n_rows,
            "{n_ex:?}: the report shows the clamped count"
        );
    }
    let (small, small_r) = fetch(Some(10));
    assert_eq!(small.frame.n_rows(), 10);
    assert_eq!(small_r.n_ex, 10);
}

#[test]
fn report_sequence_numbers_are_monotonic() {
    let (_d, mut sys, id) = explain_system(small_blocks());
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    for _ in 0..3 {
        sys.fetch_with_strategy(&preds, None, Some(32), FetchStrategy::Read)
            .unwrap();
    }
    let reports = sys.query_reports(10);
    assert_eq!(reports.len(), 3);
    for w in reports.windows(2) {
        assert_eq!(w[1].seq, w[0].seq + 1);
    }
    assert!(reports.iter().all(|r| r.plan == PlanChoice::Read));
}

// ---------------------------------------------------------------------------
// Indexed plans: top-k and threshold queries explain their block pruning.
// ---------------------------------------------------------------------------

/// Same shape as [`small_blocks`] but with the index left at its default
/// (enabled) setting, plus a cost model that always prefers reads so the
/// planner-mirror gate inside the indexed paths is deterministically open.
fn indexed_system() -> (mistique_testkit::TempDir, Mistique, String) {
    let (d, mut sys, id) = explain_system(MistiqueConfig {
        row_block_size: 40,
        storage: StorageStrategy::Dedup,
        ..MistiqueConfig::default()
    });
    sys.cost_model_mut().read_bandwidth = 1e18;
    (d, sys, id)
}

#[test]
fn indexed_topk_reports_the_indexed_plan() {
    let (_d, mut sys, id) = indexed_system();
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    let top = sys.topk(&preds, "pred", 5).unwrap();
    assert_eq!(top.len(), 5);
    let r = sys.last_report().unwrap().clone();
    assert_eq!(r.query, "diag.topk");
    assert_eq!(r.plan, PlanChoice::IndexedRead);
    let p = r.pruning.expect("indexed plans carry pruning stats");
    assert!(p.blocks_total > 0);
    assert_eq!(
        p.blocks_skipped, p.blocks_total,
        "a list-served top-k never touches the data partitions"
    );
    assert!(p.predicted_s > 0.0);
    assert!(
        r.render().contains("index    : skipped"),
        "render must surface the pruning:\n{}",
        r.render()
    );
    // A repeat top-k is served from the index again.
    sys.topk(&preds, "pred", 5).unwrap();
    assert_eq!(sys.last_report().unwrap().plan, PlanChoice::IndexedRead);
}

#[test]
fn indexed_threshold_scan_skips_pruned_blocks() {
    let (_d, mut sys, id) = indexed_system();
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    // A threshold above the global max matches nothing; the zone maps prove
    // every block irrelevant and the scan reads zero partitions.
    let max = sys.topk(&preds, "pred", 1).unwrap()[0].1;
    let rows = sys.select_where_gt(&preds, "pred", max).unwrap();
    assert!(rows.is_empty());
    let r = sys.last_report().unwrap().clone();
    assert_eq!(r.query, "diag.select_where_gt");
    assert_eq!(r.plan, PlanChoice::IndexedRead);
    let p = r.pruning.expect("indexed plans carry pruning stats");
    assert!(p.blocks_total > 0);
    assert_eq!(p.blocks_skipped, p.blocks_total);

    // Just below the max at least the argmax row matches, and the answer
    // still arrives through the indexed plan.
    let lo = max - max.abs().max(1.0) * 1e-9;
    let rows = sys.select_where_gt(&preds, "pred", lo).unwrap();
    assert!(!rows.is_empty());
    let r = sys.last_report().unwrap().clone();
    assert_eq!(r.plan, PlanChoice::IndexedRead);
    assert!(r.pruning.unwrap().blocks_skipped < p.blocks_total);
}

#[test]
fn disabling_the_index_restores_scan_plans() {
    let (_d, mut sys, id) = explain_system(small_blocks());
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    sys.cost_model_mut().read_bandwidth = 1e18;
    sys.topk(&preds, "pred", 5).unwrap();
    let r = sys.last_report().unwrap();
    assert_ne!(r.plan, PlanChoice::IndexedRead);
    assert!(r.pruning.is_none(), "scan plans carry no pruning stats");
}

// ---------------------------------------------------------------------------
// Span trees: worker-count invariance of the cold-read trace.
// ---------------------------------------------------------------------------

/// Flattened multiset of name-paths of a span forest, sorted.
fn shape(nodes: &[SpanNode]) -> Vec<String> {
    fn walk(nodes: &[SpanNode], prefix: &str, out: &mut Vec<String>) {
        for n in nodes {
            let path = format!("{prefix}/{}", n.record.name);
            out.push(path.clone());
            walk(&n.children, &path, out);
        }
    }
    let mut out = Vec::new();
    walk(nodes, "", &mut out);
    out.sort();
    out
}

#[test]
fn cold_read_trace_tree_is_identical_at_any_worker_count() {
    let (_d, mut sys, id) = explain_system(small_blocks());
    let interm = sys.intermediates_of(&id)[1].clone();
    sys.flush().unwrap();

    let mut shapes: Vec<(usize, Vec<String>)> = Vec::new();
    for workers in [1usize, 2, 4, 0] {
        sys.set_read_parallelism(workers);
        sys.store_mut().clear_read_cache();
        sys.fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
            .unwrap();
        let report = sys.last_report().unwrap().clone();
        let spans = sys.obs().recent_spans();
        let roots = trace_trees(&spans, report.trace_id);
        assert_eq!(roots.len(), 1, "one root span per fetch");
        assert_eq!(roots[0].record.name, "fetch.read");
        shapes.push((workers, shape(&roots)));
    }

    let (_, reference) = &shapes[0];
    assert!(
        reference.iter().any(|p| p == "/fetch.read"),
        "missing root: {reference:?}"
    );
    assert!(
        reference
            .iter()
            .any(|p| p == "/fetch.read/store.partition.load"),
        "cold read must show partition loads as children: {reference:?}"
    );
    assert!(
        reference.iter().any(|p| p == "/fetch.read/fetch.decode"),
        "per-column decode spans must parent under the fetch: {reference:?}"
    );
    for (workers, s) in &shapes[1..] {
        assert_eq!(
            s, reference,
            "trace tree at read_parallelism={workers} diverged from serial"
        );
    }
}

#[test]
fn rendered_trace_shows_the_hierarchy() {
    let (_d, mut sys, id) = explain_system(small_blocks());
    let interm = sys.intermediates_of(&id)[1].clone();
    sys.flush().unwrap();
    sys.store_mut().clear_read_cache();
    sys.fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
        .unwrap();
    let trace_id = sys.last_report().unwrap().trace_id;
    let text = sys.render_trace(trace_id);
    assert!(text.contains("fetch.read"), "{text}");
    assert!(text.contains("store.partition.load"), "{text}");
    assert!(text.contains("fetch.decode"), "{text}");
    // Children are drawn with tree glyphs under the root.
    assert!(
        text.contains("├──") || text.contains("└──"),
        "no tree structure in:\n{text}"
    );
}

// ---------------------------------------------------------------------------
// Drift monitor: a miscalibrated model is flagged on the report + gauge.
// ---------------------------------------------------------------------------

#[test]
fn miscalibrated_cost_model_trips_the_drift_flag() {
    let (_d, mut sys, id) = explain_system(small_blocks());
    let preds = sys.intermediates_of(&id).last().unwrap().clone();

    // Absurd bandwidth => predicted read cost is ~1e-15 s while the actual
    // read takes microseconds: the predicted/actual ratio collapses.
    sys.cost_model_mut().read_bandwidth = 1e18;
    for _ in 0..3 {
        sys.fetch_with_strategy(&preds, None, None, FetchStrategy::Read)
            .unwrap();
    }
    let r = sys.last_report().unwrap();
    assert_eq!(r.plan, PlanChoice::Read);
    assert!(r.drift_flagged, "report must carry the drift flag");
    let ratio = r.drift_ratio.expect("monitored plan records a ratio");
    assert!(ratio < 1.0 / sys.drift_monitor().tolerance());

    assert!(sys.drift_monitor().any_flagged());
    assert!(sys.drift_monitor().worst_drift() > sys.drift_monitor().tolerance());
    // The gauge mirrors the monitor for dashboards.
    let snap = sys.obs_snapshot();
    let gauge = snap.gauges.get("cost_model.drift").copied().unwrap_or(0.0);
    assert!(gauge > sys.drift_monitor().tolerance(), "gauge {gauge}");
    // Rendered report calls it out.
    assert!(sys
        .last_report()
        .unwrap()
        .render()
        .contains("MISCALIBRATED"));
}

#[test]
fn drift_ratio_and_flag_are_consistent_on_monitored_reports() {
    let (_d, mut sys, id) = explain_system(small_blocks());
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    // Whatever the ratio lands on with the default model, the report's flag
    // must agree with the monitor's tolerance band.
    for _ in 0..3 {
        sys.fetch_with_strategy(&preds, None, None, FetchStrategy::Read)
            .unwrap();
    }
    let r = sys.last_report().unwrap();
    assert!(r.drift_ratio.is_some());
    assert_eq!(r.drift_flagged, {
        let t = sys.drift_monitor().tolerance();
        let ratio = r.drift_ratio.unwrap();
        ratio > t || ratio < 1.0 / t
    });
}

// ---------------------------------------------------------------------------
// The report ring is bounded and keeps sequencing past evictions.
// ---------------------------------------------------------------------------

#[test]
fn report_ring_is_bounded_and_sequences_past_evictions() {
    use mistique_core::report::REPORT_RETENTION;
    let (_d, mut sys, id) = explain_system(small_blocks());
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    let n = REPORT_RETENTION + 3;
    for _ in 0..n {
        sys.fetch_with_strategy(&preds, None, Some(16), FetchStrategy::Read)
            .unwrap();
    }
    let reports = sys.query_reports(usize::MAX);
    assert_eq!(reports.len(), REPORT_RETENTION, "retention bounds the ring");
    // The survivors are the most recent queries, still in order.
    for w in reports.windows(2) {
        assert_eq!(w[1].seq, w[0].seq + 1);
    }
    let last = reports.last().unwrap().seq;
    assert_eq!(last, n as u64 - 1, "seq keeps counting past evictions");
}
