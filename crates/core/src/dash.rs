//! `mistique top` — the workload dashboard, rendered entirely from a store
//! directory's audit journal (`<dir>/audit/`): its records supply
//! per-operation rates, latency quantiles, plan mix, read↔rerun plan flips
//! per intermediate and bytes touched; the metric points they carry (the
//! timeline) supply index effectiveness, per-class SLO quantiles (the
//! latest point of each `slo.<class>.ns` histogram) and budget headroom. No
//! live engine is required — the CLI renders the same view against a closed
//! directory (`--once`) or in a refresh loop while another process works.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;

use mistique_obs::{fmt_bytes, fmt_ns, AuditRecord, HistPoint, Timeline};

use crate::error::MistiqueError;
use crate::system::Mistique;

/// Per-operation aggregates derived from the journal.
#[derive(Clone, Debug, Default)]
struct OpStats {
    count: u64,
    errors: u64,
    bytes: u64,
    partitions: u64,
    lat_ns: Vec<u64>,
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The dashboard's data model, assembled from the journal.
/// Public so tests can assert on the numbers rather than the layout.
#[derive(Clone, Debug, Default)]
pub struct TopView {
    /// Journal records the view was built from.
    pub records: u64,
    /// Wall-clock span of the journal in milliseconds.
    pub span_ms: u64,
    /// Plan name → times chosen, across every record.
    pub plan_mix: BTreeMap<String, u64>,
    /// Intermediate → read↔rerun plan flips ([`plan_flips`]).
    pub plan_flips: BTreeMap<String, u64>,
    /// Latest value of every gauge the timeline has seen.
    pub gauges: BTreeMap<String, f64>,
    /// Latest value of every counter the timeline has seen.
    pub counters: BTreeMap<String, u64>,
    /// Latest state of every SLO latency class (`diag.topk.read`, …): the
    /// last timeline point of its `slo.<class>.ns` histogram.
    pub slo: BTreeMap<String, HistPoint>,
    rendered: String,
}

impl TopView {
    /// The rendered dashboard text.
    pub fn text(&self) -> &str {
        &self.rendered
    }
}

/// Read↔rerun plan flips per intermediate, derived from the journal. The
/// `read` and `rerun` plans of every record with an `interm` argument are
/// walked in sequence order; each that differs from the previous one of the
/// same intermediate is a flip. Other plans (`indexed_read`) say
/// nothing about the cost model's read-or-rerun call and are skipped, as
/// are records without an `interm` argument (logging, two-intermediate
/// diagnostics).
pub fn plan_flips(records: &[AuditRecord]) -> BTreeMap<String, u64> {
    let mut last: HashMap<&str, &str> = HashMap::new();
    let mut flips = BTreeMap::new();
    for r in records {
        let Some(interm) = r.args.get("interm") else {
            continue;
        };
        for plan in r.plans.iter().filter(|p| *p == "read" || *p == "rerun") {
            if last.insert(interm, plan).is_some_and(|prev| prev != plan) {
                *flips.entry(interm.clone()).or_default() += 1;
            }
        }
    }
    flips
}

/// Build the dashboard from a closed (or concurrently live) store directory.
pub fn top_view(dir: impl AsRef<Path>) -> Result<TopView, MistiqueError> {
    let dir = dir.as_ref();
    let records = Mistique::load_audit(dir)?;
    let timeline = Timeline::from_records(&records);

    let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut slo: BTreeMap<String, HistPoint> = BTreeMap::new();
    for p in &timeline.points {
        for (k, v) in &p.gauges {
            gauges.insert(k.clone(), *v);
        }
        for (k, v) in &p.counters {
            counters.insert(k.clone(), *v);
        }
        for (k, h) in &p.hists {
            let class = k.strip_prefix("slo.").and_then(|k| k.strip_suffix(".ns"));
            if let Some(class) = class {
                slo.insert(class.to_string(), *h);
            }
        }
    }

    let mut ops: BTreeMap<String, OpStats> = BTreeMap::new();
    let mut plan_mix: BTreeMap<String, u64> = BTreeMap::new();
    for r in &records {
        let s = ops.entry(r.op.clone()).or_default();
        s.count += 1;
        if !r.ok {
            s.errors += 1;
        }
        s.bytes += r.bytes;
        s.partitions += r.partitions;
        s.lat_ns.push(r.actual_ns);
        for p in &r.plans {
            *plan_mix.entry(p.clone()).or_default() += 1;
        }
    }
    let span_ms = match (records.first(), records.last()) {
        (Some(a), Some(b)) => b.t_ms.saturating_sub(a.t_ms),
        _ => 0,
    };

    let mut out = String::new();
    let _ = writeln!(out, "mistique top — {}", dir.display());
    let _ = writeln!(
        out,
        "journal: {} records over {:.1}s",
        records.len(),
        span_ms as f64 / 1e3
    );
    let _ = writeln!(out);

    // Workload table.
    let _ = writeln!(
        out,
        "{:<24} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "OP", "COUNT", "ERR", "RATE/S", "P50", "P95", "MAX", "BYTES"
    );
    for (op, s) in &mut ops {
        s.lat_ns.sort_unstable();
        let rate = if span_ms > 0 {
            format!("{:.2}", s.count as f64 / (span_ms as f64 / 1e3))
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{:<24} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9} {:>10}",
            op,
            s.count,
            s.errors,
            rate,
            fmt_ns(quantile(&s.lat_ns, 0.50)),
            fmt_ns(quantile(&s.lat_ns, 0.95)),
            fmt_ns(*s.lat_ns.last().unwrap_or(&0)),
            fmt_bytes(s.bytes),
        );
    }
    let _ = writeln!(out);

    // Plan mix.
    let total_plans: u64 = plan_mix.values().sum();
    if total_plans > 0 {
        let mix = plan_mix
            .iter()
            .map(|(p, n)| format!("{p} {:.0}% ({n})", *n as f64 / total_plans as f64 * 100.0))
            .collect::<Vec<_>>()
            .join("  ");
        let _ = writeln!(out, "plans: {mix}");
    }
    let plan_flips = plan_flips(&records);
    if !plan_flips.is_empty() {
        let per = plan_flips
            .iter()
            .map(|(interm, n)| format!("{interm} {n}"))
            .collect::<Vec<_>>()
            .join("  ");
        let total: u64 = plan_flips.values().sum();
        let _ = writeln!(out, "plan flips: {total} ({per})");
    }

    // Index effectiveness from the timeline's counters.
    let c = |name: &str| counters.get(name).copied().unwrap_or(0);
    let (ih, skipped) = (c("index.hits"), c("index.blocks_skipped"));
    if ih + skipped > 0 {
        let _ = writeln!(
            out,
            "index: {ih} hits, {skipped} blocks skipped, {} rebuilds",
            c("index.rebuilds")
        );
    }
    let burns = c("slo.burns");
    if burns > 0 {
        let _ = writeln!(out, "slo: {burns} burns");
    }

    // SLO quantiles per query class, from the class histogram's last point.
    if !slo.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<32} {:>9} {:>9} {:>9}",
            "SLO CLASS", "P50", "P95", "P99"
        );
        for (class, h) in &slo {
            let _ = writeln!(
                out,
                "{:<32} {:>9} {:>9} {:>9}",
                class,
                fmt_ns(h.p50),
                fmt_ns(h.p95),
                fmt_ns(h.p99),
            );
        }
    }

    // Budget headroom from the latest gauges.
    let g = |name: &str| gauges.get(name).copied().unwrap_or(0.0);
    let (budget, used) = (g("storage.budget_bytes"), g("storage.budget_used"));
    let _ = writeln!(out);
    if budget > 0.0 {
        let _ = writeln!(
            out,
            "storage: {} / {} ({:.0}%)",
            fmt_bytes(used as u64),
            fmt_bytes(budget as u64),
            used / budget * 100.0
        );
    } else {
        let _ = writeln!(out, "storage: {} used (no budget)", fmt_bytes(used as u64));
    }
    // The journal itself is the source of truth for audit health — gauges
    // in the timeline lag the last metric point.
    let _ = writeln!(
        out,
        "audit: {} records on disk, {} write errors, {} segments dropped",
        records.len(),
        g("audit.write_errors") as u64,
        g("audit.segments_dropped") as u64,
    );

    Ok(TopView {
        records: records.len() as u64,
        span_ms,
        plan_mix,
        plan_flips,
        gauges,
        counters,
        slo,
        rendered: out,
    })
}

/// Render the dashboard text (the `mistique top --once` body).
pub fn render_top(dir: impl AsRef<Path>) -> Result<String, MistiqueError> {
    Ok(top_view(dir)?.rendered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_formatting() {
        let v = vec![10, 20, 30, 40, 1_000_000_000];
        assert_eq!(quantile(&v, 0.0), 10);
        assert_eq!(quantile(&v, 1.0), 1_000_000_000);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500_000), "1.500ms");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
    }

    #[test]
    fn plan_flips_count_read_rerun_changes_per_intermediate() {
        let rec = |interm: Option<&str>, plans: &[&str]| AuditRecord {
            op: "fetch.get".into(),
            args: interm
                .map(|i| ("interm".to_string(), i.to_string()))
                .into_iter()
                .collect(),
            plans: plans.iter().map(|p| p.to_string()).collect(),
            ..AuditRecord::default()
        };
        let journal = [
            rec(Some("a"), &["read"]),
            rec(Some("b"), &["rerun"]),
            rec(Some("a"), &["indexed_read", "rerun"]), // a: read → rerun
            rec(None, &["read", "rerun", "read"]),      // no intermediate: skipped
            rec(Some("a"), &["indexed_read"]),
            rec(Some("a"), &["rerun", "read"]), // a: rerun → read
            rec(Some("b"), &["rerun"]),
            rec(Some("c"), &["read"]),
        ];
        let flips = plan_flips(&journal);
        assert_eq!(flips, BTreeMap::from([("a".to_string(), 2)]));
        assert!(plan_flips(&journal[..2]).is_empty());
    }

    #[test]
    fn renders_from_closed_directory_without_engine() {
        use crate::system::{Mistique, MistiqueConfig, StorageStrategy};
        use mistique_pipeline::templates::zillow_pipelines;
        use mistique_pipeline::ZillowData;
        use std::sync::Arc;

        let dir = mistique_testkit::tempdir().unwrap();
        {
            let mut sys = Mistique::open(
                dir.path(),
                MistiqueConfig {
                    row_block_size: 50,
                    storage: StorageStrategy::Dedup,
                    ..MistiqueConfig::default()
                },
            )
            .unwrap();
            let data = Arc::new(ZillowData::generate(120, 1));
            let id = sys
                .register_trad(zillow_pipelines().remove(0), data)
                .unwrap();
            sys.log_intermediates(&id).unwrap();
            let interm = sys.intermediates_of(&id)[0].clone();
            sys.topk(&interm, "sqft", 5).unwrap();
            sys.pointq(&interm, "sqft", 3).unwrap();
        } // dropped: no live engine beyond this point

        let view = top_view(dir.path()).unwrap();
        assert_eq!(view.records, 4);
        let text = view.text();
        assert!(
            text.contains("diag.topk"),
            "workload table lists ops:\n{text}"
        );
        assert!(text.contains("plans:"), "plan mix rendered:\n{text}");
        assert!(text.contains("audit:"), "journal health rendered:\n{text}");

        // An empty directory renders an empty dashboard, not an error.
        let empty = mistique_testkit::tempdir().unwrap();
        let view = top_view(empty.path()).unwrap();
        assert_eq!(view.records, 0);
    }

    #[test]
    fn slo_table_shows_the_class_histograms_own_quantiles() {
        use crate::system::{Mistique, MistiqueConfig};
        use mistique_pipeline::templates::zillow_pipelines;
        use mistique_pipeline::ZillowData;
        use std::sync::Arc;

        let dir = mistique_testkit::tempdir().unwrap();
        let config = MistiqueConfig {
            row_block_size: 50,
            ..MistiqueConfig::default()
        };
        let mut sys = Mistique::open(dir.path(), config).unwrap();
        let data = Arc::new(ZillowData::generate(200, 1));
        let id = sys
            .register_trad(zillow_pipelines().remove(0), data)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        let interm = sys.intermediates_of(&id)[0].clone();
        for k in 1..=20 {
            sys.topk(&interm, "sqft", k).unwrap();
            sys.pointq(&interm, "sqft", k).unwrap();
            sys.get_intermediate(&interm, None, Some(10 * k)).unwrap();
        }
        // The reclaim pass is the burst boundary that captures the point
        // carrying the query classes' histograms.
        sys.reclaim().unwrap();
        sys.persist().unwrap();

        let snap = sys.obs_snapshot();
        let view = top_view(dir.path()).unwrap();
        let classes: Vec<&String> = snap
            .histograms
            .keys()
            .filter(|name| name.starts_with("slo."))
            .collect();
        assert!(
            classes.len() >= 3,
            "topk, pointq and fetch classes: {classes:?}"
        );
        assert_eq!(view.slo.len(), classes.len());
        for name in classes {
            let class = &name["slo.".len()..name.len() - ".ns".len()];
            let (hist, shown) = (snap.histogram(name), view.slo[class]);
            assert_eq!(
                (shown.count, shown.p50, shown.p95, shown.p99),
                (hist.count, hist.p50, hist.p95, hist.p99),
                "{class}"
            );
            let row = format!(
                "{class:<32} {:>9} {:>9} {:>9}",
                fmt_ns(hist.p50),
                fmt_ns(hist.p95),
                fmt_ns(hist.p99)
            );
            assert!(view.text().contains(&row), "{row}\nnot in\n{}", view.text());
        }
    }
}
