//! Coverage audit: every metric documented in DESIGN.md §14's inventory
//! must actually be registered by a mixed TRAD + DNN workload.
//!
//! The inventory is the contract between the code and the docs: this test
//! parses the `### Metric inventory` list out of DESIGN.md (brace groups
//! expanded, a `<placeholder>` treated as a wildcard), runs a workload that
//! walks every subsystem — logging, dedup, sealing, reads, reruns, the
//! query cache, adaptive materialization, reclaim, persist/reopen recovery,
//! the flight recorder — and asserts each non-`rare` name shows up in the
//! merged snapshots with the documented instrument kind. A metric that is
//! renamed, dropped, or never exercised fails here before it silently
//! disappears from dashboards — and, the other way round, every name those
//! snapshots carry must be in the inventory, so an undocumented metric
//! cannot accrete.

use std::collections::BTreeSet;
use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig, Snapshot, StorageStrategy};
use mistique_nn::{simple_cnn, CifarLike};
use mistique_pipeline::templates::{template_stages, template_variants};
use mistique_pipeline::{Pipeline, ZillowData};

/// One documented metric: name pattern, instrument kind, rare flag.
#[derive(Debug)]
struct Documented {
    pattern: String,
    kind: String,
    rare: bool,
}

/// Parse the `### Metric inventory` bullet list out of DESIGN.md.
fn documented_metrics() -> Vec<Documented> {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md readable");
    let section = design
        .split("### Metric inventory")
        .nth(1)
        .expect("DESIGN.md has a '### Metric inventory' section");
    let mut out = Vec::new();
    for line in section.lines() {
        if line.starts_with('#') {
            break; // next section
        }
        let Some(rest) = line.strip_prefix("- `") else {
            continue;
        };
        let (name, rest) = rest.split_once('`').expect("unterminated backtick");
        let paren = rest
            .split_once('(')
            .and_then(|(_, r)| r.split_once(')'))
            .map(|(inside, _)| inside)
            .unwrap_or_else(|| panic!("inventory line missing (kind): {line}"));
        let mut parts = paren.split(',').map(str::trim);
        let kind = parts.next().unwrap().to_string();
        let rare = parts.any(|p| p == "rare");
        assert!(
            matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
            "unknown instrument kind {kind:?} in: {line}"
        );
        for expanded in expand_braces(name) {
            out.push(Documented {
                pattern: expanded,
                kind: kind.clone(),
                rare,
            });
        }
    }
    out
}

/// Expand one `{a,b,c}` group (the inventory never nests them).
fn expand_braces(name: &str) -> Vec<String> {
    match (name.find('{'), name.find('}')) {
        (Some(open), Some(close)) if open < close => name[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{}{}", &name[..open], alt, &name[close + 1..]))
            .collect(),
        _ => vec![name.to_string()],
    }
}

/// Does `name` match `pattern`, where one `<placeholder>` (`<codec>`,
/// `<class>`) stands for any non-empty run of segments?
fn matches(pattern: &str, name: &str) -> bool {
    let placeholder = pattern.split_once('<').and_then(|(prefix, rest)| {
        let (_, suffix) = rest.split_once('>')?;
        Some((prefix, suffix))
    });
    match placeholder {
        None => pattern == name,
        Some((prefix, suffix)) => {
            name.len() > prefix.len() + suffix.len()
                && name.starts_with(prefix)
                && name.ends_with(suffix)
        }
    }
}

/// Union of all registered names of one kind across the snapshots.
fn names_of(snaps: &[Snapshot], kind: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for s in snaps {
        match kind {
            "counter" => out.extend(s.counters.keys().cloned()),
            "gauge" => out.extend(s.gauges.keys().cloned()),
            "histogram" => out.extend(s.histograms.keys().cloned()),
            _ => unreachable!(),
        }
    }
    out
}

fn zillow_variant(i: usize) -> Pipeline {
    let mut variants = template_variants(1);
    Pipeline::new(
        format!("P1v{i}"),
        template_stages(1),
        variants.remove(i),
        42,
    )
}

/// The mixed workload: touch every subsystem, collect every snapshot.
fn run_mixed_workload() -> Vec<Snapshot> {
    let mut snaps = Vec::new();
    let data = Arc::new(ZillowData::generate(300, 1));

    // --- TRAD, dedup, query cache, persist/reopen -------------------------
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            storage: StorageStrategy::Dedup,
            query_cache_bytes: 1 << 20,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let mut ids = Vec::new();
    for i in 0..2 {
        let id = sys
            .register_trad(zillow_variant(i), Arc::clone(&data))
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        ids.push(id);
    }
    sys.flush().unwrap();
    let preds = sys.intermediates_of(&ids[0]).last().unwrap().clone();
    // Forced read + forced rerun register both decision paths and the
    // per-codec read attribution; a repeated cost-model fetch hits the
    // query cache and registers `decision.cached.*`.
    sys.fetch_with_strategy(&preds, None, None, FetchStrategy::Read)
        .unwrap();
    sys.fetch_with_strategy(&preds, None, None, FetchStrategy::Rerun)
        .unwrap();
    sys.get_intermediate(&preds, None, Some(32)).unwrap();
    sys.get_intermediate(&preds, None, Some(32)).unwrap();
    snaps.push(sys.obs_snapshot());
    sys.persist().unwrap();
    drop(sys);
    // Recovery registers `store.recovery.*` (and journals the pass).
    let sys = Mistique::reopen(dir.path(), MistiqueConfig::default()).unwrap();
    assert!(sys.recovery_report().is_some());
    snaps.push(sys.obs_snapshot());

    // --- TRAD, adaptive materialization + reclaim -------------------------
    let dir2 = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir2.path(),
        MistiqueConfig {
            storage: StorageStrategy::Adaptive { gamma_min: 1e-12 },
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let id = sys
        .register_trad(zillow_variant(0), Arc::clone(&data))
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    let interms = sys.intermediates_of(&id);
    // Repeated queries drive γ over the threshold: evals, then a
    // materialization, then stored reads.
    for _ in 0..4 {
        for interm in &interms {
            sys.get_intermediate(interm, None, Some(64)).unwrap();
        }
    }
    // A 1-byte budget walks every materialized intermediate all the way
    // down the ladder: demotions, purges, and a compaction pass.
    sys.reclaim_to(1).unwrap();
    snaps.push(sys.obs_snapshot());

    // --- DNN ---------------------------------------------------------------
    let dir3 = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir3.path(),
        MistiqueConfig {
            row_block_size: 16,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let cifar = Arc::new(CifarLike::generate(16, 10, 7));
    let arch = Arc::new(simple_cnn(32));
    let id = sys
        .register_dnn(Arc::clone(&arch), 3, 0, Arc::clone(&cifar), 16)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    sys.flush().unwrap();
    let act = sys.intermediates_of(&id).last().unwrap().clone();
    sys.fetch_with_strategy(&act, None, Some(8), FetchStrategy::Read)
        .unwrap();
    snaps.push(sys.obs_snapshot());

    snaps
}

#[test]
fn every_documented_metric_is_registered_by_the_workload() {
    let documented = documented_metrics();
    assert!(
        documented.len() >= 40,
        "inventory parse looks broken: only {} entries",
        documented.len()
    );
    let snaps = run_mixed_workload();

    let mut missing = Vec::new();
    for doc in &documented {
        let names = names_of(&snaps, &doc.kind);
        let found = names.iter().any(|n| matches(&doc.pattern, n));
        if !found && !doc.rare {
            missing.push(format!("{} ({})", doc.pattern, doc.kind));
        }
    }
    assert!(
        missing.is_empty(),
        "metrics documented in DESIGN.md §14 but never registered by the \
         mixed workload (extend the workload or tag the line `rare`):\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn every_registered_metric_is_documented() {
    // The reverse direction: any name the workload registers must be in the
    // inventory, so a new metric cannot dodge the docs.
    let documented = documented_metrics();
    let snaps = run_mixed_workload();
    let mut undocumented = Vec::new();
    for kind in ["counter", "gauge", "histogram"] {
        for name in names_of(&snaps, kind) {
            if !documented
                .iter()
                .any(|d| d.kind == kind && matches(&d.pattern, &name))
            {
                undocumented.push(format!("{name} ({kind})"));
            }
        }
    }
    assert!(
        undocumented.is_empty(),
        "metrics registered by the workload but absent from DESIGN.md §14:\n  {}",
        undocumented.join("\n  ")
    );
}

#[test]
fn brace_expansion_and_wildcards_behave() {
    assert_eq!(
        expand_braces("a.{x,y}.z"),
        vec!["a.x.z".to_string(), "a.y.z".to_string()]
    );
    assert_eq!(expand_braces("plain.name"), vec!["plain.name".to_string()]);
    assert!(matches("compress.<codec>.count", "compress.delta.count"));
    assert!(!matches("compress.<codec>.count", "compress..count"));
    assert!(!matches("compress.<codec>.count", "compress.delta.bytes"));
    assert!(matches("exact.name", "exact.name"));
    assert!(matches("slo.<class>.ns", "slo.diag.topk.read.ns"));
    assert!(!matches("slo.<class>.ns", "slo.burns"));
}
