//! Metric names, units and assembly. The two tables here are the ones
//! `BENCHMARK.json` lists (a unit test keeps them equal): every run prints
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`), whatever the workload, so a metric a workload does not
//! exercise reads 0 rather than going missing.

use std::path::Path;

use mistique_store::{RealFs, StorageBackend, INDEX_SUBDIR};

use crate::ops::Class;
use crate::run::{Args, Metric, Outcome, Runner};
use crate::stats::{median, ns_to_ms, percentile};
use crate::tempdir::SCRATCH_ROOT;

/// End-to-end metrics: what a user of the engine waits for or pays.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("rows_ms", "ms"),
    ("col_ms", "ms"),
    ("col_warm_ms", "ms"),
    ("pruned_ms", "ms"),
    ("frame_ms", "ms"),
    ("svcca_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("log_mb_per_s", "MB/s"),
    ("stored_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, layer = crate.
pub const PER_LAYER: [(&str, &str); 86] = [
    ("nn.forward.ns", "ns"),
    ("pipeline.run.ns", "ns"),
    ("quantize.encode.ns", "ns"),
    ("quantize.decode.ns", "ns"),
    ("quantize.bytes_per_value", "bytes"),
    ("dataframe.chunk.ns", "ns"),
    ("dataframe.parse.ns", "ns"),
    ("dataframe.assemble.ns", "ns"),
    ("dedup.digest.ns", "ns"),
    ("dedup.minhash.ns", "ns"),
    ("dedup.lsh_query.ns", "ns"),
    ("dedup.lsh_insert.ns", "ns"),
    ("dedup.exact_hit_share", "ratio"),
    ("dedup.similarity_placement_share", "ratio"),
    ("compress.encode.ns", "ns"),
    ("compress.encode.mb_per_s", "MB/s"),
    ("compress.decode.ns", "ns"),
    ("compress.decode.mb_per_s", "MB/s"),
    ("compress.ratio", "ratio"),
    ("compress.basedelta_encode.ns", "ns"),
    ("compress.basedelta_decode.ns", "ns"),
    ("store.put.p50_ns", "ns"),
    ("store.put.p99_ns", "ns"),
    ("store.put.max_ns", "ns"),
    ("store.put.share", "ratio"),
    ("store.seal.ns", "ns"),
    ("store.flush.ns", "ns"),
    ("store.partitions_sealed", "count"),
    ("store.partition_bytes_p50", "bytes"),
    ("store.delta.put_share", "ratio"),
    ("store.partition_load.ns", "ns"),
    ("store.partition_load.share", "ratio"),
    ("store.partitions_per_query", "count"),
    ("store.read_amp", "ratio"),
    ("store.get_batch_cold.ns", "ns"),
    ("store.get_batch_cold.share", "ratio"),
    ("store.get_batch_warm.ns", "ns"),
    ("store.delta.rehydrations_per_query", "count"),
    ("store.read_cache.hit_ratio", "ratio"),
    ("store.read_cache.evictions", "count"),
    ("store.compact.ns", "ns"),
    ("store.compact.bytes_rewritten", "bytes"),
    ("store.physical_bytes", "bytes"),
    ("store.logical_bytes", "bytes"),
    ("backend.read.count", "count"),
    ("backend.read.bytes", "bytes"),
    ("backend.read.ns", "ns"),
    ("backend.write.count", "count"),
    ("backend.write.bytes", "bytes"),
    ("backend.write.ns", "ns"),
    ("backend.fsync.count", "count"),
    ("backend.fsync.ns", "ns"),
    ("backend.rename.count", "count"),
    ("backend.aux_write.bytes", "bytes"),
    ("backend.aux_write.ns", "ns"),
    ("index.build.ns", "ns"),
    ("index.blocks_skipped_share", "ratio"),
    ("index.topk.ns", "ns"),
    ("index.bytes", "bytes"),
    ("core.fetch.ns", "ns"),
    ("core.diag_compute.ns", "ns"),
    ("core.diag_compute.share", "ratio"),
    ("core.glue.share", "ratio"),
    ("core.plan.read", "count"),
    ("core.plan.rerun", "count"),
    ("core.plan.indexed", "count"),
    ("core.promotions", "count"),
    ("core.cost.pred_over_actual_p50", "ratio"),
    ("core.cost.drift_flags", "count"),
    ("core.log.store_share", "ratio"),
    ("core.log.ns", "ns"),
    ("core.reclaim.ns", "ns"),
    ("core.reclaim.demotions", "count"),
    ("core.reclaim.purges", "count"),
    ("core.session.ns", "ns"),
    ("core.rows.p95_ns", "ns"),
    ("core.col.p95_ns", "ns"),
    ("linalg.svcca.ns", "ns"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.samples.rows", "count"),
    ("bench.samples.col", "count"),
    ("bench.samples.pruned", "count"),
    ("bench.samples.frame", "count"),
    ("bench.samples.svcca", "count"),
    ("bench.oracle.unverified", "count"),
    ("bench.fail_share", "ratio"),
];

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The table's metrics, in the table's order, each with the value computed
/// for its name — so a value can never land under another metric's name.
fn labelled(table: &[(&str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    assert_eq!(table.len(), values.len(), "one value per listed metric");
    table
        .iter()
        .map(|&(name, unit)| {
            let (_, v) = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("no value for {name}"));
            (name.to_string(), *v, unit)
        })
        .collect()
}

fn mb_per_s(bytes: u64, ns: u64) -> f64 {
    ratio(bytes as f64 / 1e6, ns as f64 / 1e9)
}

/// Where the untraced run of a (workload, seed, seconds) leaves its
/// `queries_per_s` for the traced run of the same triple to compare with.
fn untraced_note(args: &Args) -> std::path::PathBuf {
    Path::new(SCRATCH_ROOT).join(format!(
        "untraced-{}-{}-{}.txt",
        args.workload, args.seed, args.seconds
    ))
}

fn dir_bytes(dir: &Path) -> u64 {
    let fs = RealFs;
    fs.list_dir(dir)
        .map(|files| files.iter().filter_map(|f| fs.file_len(f).ok()).sum())
        .unwrap_or(0)
}

pub(crate) fn assemble(
    r: &Runner,
    args: &Args,
    setup_s: &[f64],
    stored_ratio: f64,
    physical_bytes: u64,
    peak_rss_mb: f64,
) -> Outcome {
    let t = &r.tally;
    let cold_ms = |c: Class| ns_to_ms(t.cold.get(&c).map_or(&[][..], Vec::as_slice));
    let warm_ms = ns_to_ms(&t.warm_col);
    let typical = |c: Class| t.typical.get(&c).copied().unwrap_or(0.0);
    let queries_per_s = ratio(t.queries as f64, t.query_ns as f64 / 1e9);
    let log_mb_per_s = mb_per_s(t.logged_bytes, t.log_ns);

    let values = [
        // Best of the set-ups, by the rule of `run::best_ms`.
        (
            "setup_s",
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("rows_ms", typical(Class::Rows)),
        ("col_ms", typical(Class::Col)),
        ("col_warm_ms", t.typical_warm),
        ("pruned_ms", typical(Class::Pruned)),
        ("frame_ms", typical(Class::Frame)),
        ("svcca_ms", typical(Class::Svcca)),
        ("queries_per_s", queries_per_s),
        ("log_mb_per_s", log_mb_per_s),
        ("stored_ratio", stored_ratio),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let end_to_end = labelled(&END_TO_END, &values);

    let mut report = Vec::new();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.push(format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} config_fingerprint={:08x}",
        r.wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        r.config.fingerprint_hash()
    ));
    report.push(format!("config: {}", r.config.fingerprint()));
    report.push(format!(
        "sizes: zillow_rows={} cifar_examples={} models={} row_block_size={}",
        r.wl.zillow_rows,
        r.wl.cifar_examples,
        r.env.model_ids.len(),
        r.config.row_block_size
    ));
    report.push(format!(
        "setup_s: n={} min={:.6} q1={:.6} p50={:.6} q3={:.6}",
        setup_s.len(),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        percentile(setup_s, 0.25),
        median(setup_s),
        percentile(setup_s, 0.75)
    ));
    report.push(format!(
        "{:<10} {:>6} {:>10} {:>10} {:>10} {:>10}  (ms)",
        "class", "n", "q1", "p50", "q3", "p95"
    ));
    let mut line = |name: &str, ms: &[f64]| {
        report.push(format!(
            "{name:<10} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            ms.len(),
            percentile(ms, 0.25),
            median(ms),
            percentile(ms, 0.75),
            percentile(ms, 0.95)
        ));
    };
    for c in Class::ALL {
        line(c.name(), &cold_ms(c));
    }
    line("col_warm", &warm_ms);
    report.push(format!(
        "passes={}  queries={} in {:.3}s (one pass, and the session, at each operation's best time)  logged={:.3}MB in {:.3}s (each step's best episode)  physical={physical_bytes}B",
        t.passes,
        t.queries,
        t.query_ns as f64 / 1e9,
        t.logged_bytes as f64 / 1e6,
        t.log_ns as f64 / 1e9
    ));
    let per_model: Vec<String> = t
        .log_steps
        .iter()
        .map(|(id, ns)| format!("{id}={:.3}s", *ns as f64 / 1e9))
        .collect();
    report.push(format!("log steps, best episode: {}", per_model.join(" ")));
    report.push(format!(
        "episodes (log s, session queries s, stored_ratio): {:?}",
        t.episodes
    ));
    report.push(format!(
        "plans (last episode): read={} rerun={} indexed={}  promotions={}  oracle (all episodes): attempted={} failed={} unverified={}",
        t.plan_read, t.plan_rerun, t.plan_indexed, t.promotions, t.attempted, t.failed, t.unverified
    ));
    for f in &t.failures {
        report.push(format!("FAILED: {f}"));
    }

    let per_layer = if args.trace {
        let layers = per_layer(r, args, queries_per_s, physical_bytes);
        report.push(format!(
            "{:<34} {:>8} {:>14} {:>14}",
            "span", "n", "total_ns", "self_ns"
        ));
        for (name, (n, total, own)) in r.tr.totals() {
            report.push(format!("{name:<34} {n:>8} {total:>14} {own:>14}"));
        }
        layers
    } else {
        // Best effort: without the note the traced run reports 0 overhead.
        let _ = std::fs::write(untraced_note(args), format!("{queries_per_s}"));
        Vec::new()
    };
    for (name, v, unit) in end_to_end.iter().chain(&per_layer) {
        report.push(format!("{name} = {v} {unit}"));
    }

    Outcome {
        attempted: t.attempted,
        failed: t.failed,
        end_to_end,
        per_layer,
        report,
    }
}

fn per_layer(r: &Runner, args: &Args, queries_per_s: f64, physical_bytes: u64) -> Vec<Metric> {
    let t = &r.tally;
    let ns = |name: &str| r.tr.total_ns(name);
    let snap = r.env.sys.obs_snapshot();
    let stats = r.env.sys.store().stats();
    let puts = snap.counter("store.put.count") as f64;
    let put_hist = snap.histogram("store.put.ns");
    let sum_counters = |prefix: &str, suffix: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum()
    };
    let (wr_values, wr_bytes, wr_compress_in, partition_p50) =
        r.write_replay.as_ref().map_or((0, 0, 0, 0.0), |w| {
            let sizes: Vec<f64> = w.partition_file_bytes.iter().map(|&b| b as f64).collect();
            (w.values, w.bytes, w.compress_in_bytes, median(&sizes))
        });
    let (rr_facade, rr_diag, rr_decoded) = r.read_replay.as_ref().map_or((0, 0, 0), |x| {
        (x.facade_ns, x.diag_facade_ns, x.decoded_bytes)
    });
    let fs = r.env.fs.as_deref();
    let io = |pick: fn(&crate::timedfs::TimedFs) -> &crate::timedfs::IoStat| {
        fs.map_or((0, 0, 0), |f| pick(f).snapshot())
    };
    let (read, write, fsync, rename, aux) = (
        io(|f| &f.read),
        io(|f| &f.write),
        io(|f| &f.fsync),
        io(|f| &f.rename),
        io(|f| &f.aux_write),
    );

    // Time of the engine's own puts, against what they happened inside:
    // the log calls, or the whole session when queries promote.
    let put_base = if r.wl.is_session() {
        t.session_ns
    } else {
        t.log_ns
    };
    let diag_compute = rr_diag.saturating_sub(ns("core.fetch"));
    let explained = ns("store.get_batch_cold")
        + ns("dataframe.parse")
        + ns("quantize.decode")
        + ns("dataframe.assemble")
        + diag_compute;
    let cold_ops: usize = t.cold.values().map(Vec::len).sum();
    let logging: f64 = r
        .env
        .model_ids
        .iter()
        .map(|m| r.env.sys.logging_overhead(m).as_secs_f64())
        .sum();
    let storing: f64 = r
        .env
        .model_ids
        .iter()
        .map(|m| r.env.sys.storage_overhead(m).as_secs_f64())
        .sum();
    let p95_ns = |c: Class| {
        percentile(
            &ns_to_ms(t.cold.get(&c).map_or(&[][..], Vec::as_slice)),
            0.95,
        ) * 1e6
    };
    let samples = |c: Class| t.cold.get(&c).map_or(0, Vec::len) as f64;
    let untraced_qps = std::fs::read_to_string(untraced_note(args))
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .unwrap_or(0.0);

    let values: [(&str, f64); 86] = [
        ("nn.forward.ns", ns("nn.forward") as f64),
        ("pipeline.run.ns", ns("pipeline.run") as f64),
        ("quantize.encode.ns", ns("quantize.encode") as f64),
        ("quantize.decode.ns", ns("quantize.decode") as f64),
        (
            "quantize.bytes_per_value",
            ratio(wr_bytes as f64, wr_values as f64),
        ),
        ("dataframe.chunk.ns", ns("dataframe.chunk") as f64),
        ("dataframe.parse.ns", ns("dataframe.parse") as f64),
        ("dataframe.assemble.ns", ns("dataframe.assemble") as f64),
        ("dedup.digest.ns", ns("dedup.digest") as f64),
        ("dedup.minhash.ns", ns("dedup.minhash") as f64),
        ("dedup.lsh_query.ns", ns("dedup.lsh_query") as f64),
        ("dedup.lsh_insert.ns", ns("dedup.lsh_insert") as f64),
        (
            "dedup.exact_hit_share",
            ratio(stats.dedup_hits as f64, puts),
        ),
        (
            "dedup.similarity_placement_share",
            ratio(stats.similarity_placements as f64, puts),
        ),
        ("compress.encode.ns", ns("compress.encode") as f64),
        (
            "compress.encode.mb_per_s",
            mb_per_s(wr_compress_in, ns("compress.encode")),
        ),
        ("compress.decode.ns", ns("compress.decode") as f64),
        (
            "compress.decode.mb_per_s",
            mb_per_s(rr_decoded, ns("compress.decode")),
        ),
        (
            "compress.ratio",
            ratio(
                sum_counters("compress.", ".in_bytes") as f64,
                sum_counters("compress.", ".out_bytes") as f64,
            ),
        ),
        (
            "compress.basedelta_encode.ns",
            ns("compress.basedelta_encode") as f64,
        ),
        (
            "compress.basedelta_decode.ns",
            ns("compress.basedelta_decode") as f64,
        ),
        ("store.put.p50_ns", put_hist.p50 as f64),
        ("store.put.p99_ns", put_hist.p99 as f64),
        ("store.put.max_ns", put_hist.max as f64),
        (
            "store.put.share",
            ratio(put_hist.sum as f64, put_base as f64),
        ),
        ("store.seal.ns", ns("store.seal") as f64),
        ("store.flush.ns", ns("op.flush") as f64),
        (
            "store.partitions_sealed",
            snap.counter("store.partitions.sealed") as f64,
        ),
        ("store.partition_bytes_p50", partition_p50),
        (
            "store.delta.put_share",
            ratio(stats.delta_puts as f64, puts),
        ),
        ("store.partition_load.ns", ns("store.partition_load") as f64),
        (
            "store.partition_load.share",
            ratio(ns("store.partition_load") as f64, rr_facade as f64),
        ),
        (
            "store.partitions_per_query",
            ratio(t.partitions_touched as f64, t.cold_ops_reading as f64),
        ),
        (
            "store.read_amp",
            ratio(t.codec_bytes as f64, t.store_gets_bytes as f64),
        ),
        ("store.get_batch_cold.ns", ns("store.get_batch_cold") as f64),
        (
            "store.get_batch_cold.share",
            ratio(ns("store.get_batch_cold") as f64, rr_facade as f64),
        ),
        ("store.get_batch_warm.ns", ns("store.get_batch_warm") as f64),
        (
            "store.delta.rehydrations_per_query",
            ratio(t.rehydrations as f64, cold_ops as f64),
        ),
        (
            "store.read_cache.hit_ratio",
            ratio(
                t.warm_cache_hits as f64,
                (t.warm_cache_hits + t.warm_disk_reads) as f64,
            ),
        ),
        (
            "store.read_cache.evictions",
            snap.counter("store.read_cache.evictions") as f64,
        ),
        ("store.compact.ns", t.compact_ns as f64),
        ("store.compact.bytes_rewritten", t.compact_bytes as f64),
        ("store.physical_bytes", physical_bytes as f64),
        ("store.logical_bytes", stats.logical_bytes as f64),
        ("backend.read.count", read.0 as f64),
        ("backend.read.bytes", read.1 as f64),
        ("backend.read.ns", read.2 as f64),
        ("backend.write.count", write.0 as f64),
        ("backend.write.bytes", write.1 as f64),
        ("backend.write.ns", write.2 as f64),
        ("backend.fsync.count", fsync.0 as f64),
        ("backend.fsync.ns", fsync.2 as f64),
        ("backend.rename.count", rename.0 as f64),
        ("backend.aux_write.bytes", aux.1 as f64),
        ("backend.aux_write.ns", aux.2 as f64),
        ("index.build.ns", ns("index.build") as f64),
        (
            "index.blocks_skipped_share",
            ratio(t.blocks_skipped as f64, t.blocks_total as f64),
        ),
        ("index.topk.ns", ns("index.topk") as f64),
        (
            "index.bytes",
            dir_bytes(&r.env.dir.path().join(INDEX_SUBDIR)) as f64,
        ),
        ("core.fetch.ns", ns("core.fetch") as f64),
        ("core.diag_compute.ns", diag_compute as f64),
        (
            "core.diag_compute.share",
            ratio(diag_compute as f64, rr_facade as f64),
        ),
        // What the replayed layers leave unexplained of the facade time.
        (
            "core.glue.share",
            if rr_facade > 0 {
                1.0 - explained as f64 / rr_facade as f64
            } else {
                0.0
            },
        ),
        ("core.plan.read", t.plan_read as f64),
        ("core.plan.rerun", t.plan_rerun as f64),
        ("core.plan.indexed", t.plan_indexed as f64),
        ("core.promotions", t.promotions as f64),
        (
            "core.cost.pred_over_actual_p50",
            median(&t.pred_over_actual),
        ),
        ("core.cost.drift_flags", t.drift_flags as f64),
        ("core.log.store_share", ratio(storing, logging)),
        ("core.log.ns", t.log_ns as f64),
        ("core.reclaim.ns", t.reclaim_ns as f64),
        ("core.reclaim.demotions", t.reclaim_demotions as f64),
        ("core.reclaim.purges", t.reclaim_purges as f64),
        ("core.session.ns", t.session_ns as f64),
        ("core.rows.p95_ns", p95_ns(Class::Rows)),
        ("core.col.p95_ns", p95_ns(Class::Col)),
        ("linalg.svcca.ns", ns("linalg.svcca") as f64),
        (
            "bench.trace_overhead_pct",
            if untraced_qps > 0.0 {
                (untraced_qps - queries_per_s) / untraced_qps * 100.0
            } else {
                0.0
            },
        ),
        ("bench.samples.rows", samples(Class::Rows)),
        ("bench.samples.col", samples(Class::Col)),
        ("bench.samples.pruned", samples(Class::Pruned)),
        ("bench.samples.frame", samples(Class::Frame)),
        ("bench.samples.svcca", samples(Class::Svcca)),
        ("bench.oracle.unverified", t.unverified as f64),
        (
            "bench.fail_share",
            ratio(t.failed as f64, t.attempted as f64),
        ),
    ];
    labelled(&PER_LAYER, &values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_obs::json::{parse, JsonValue};

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        let JsonValue::Arr(items) = doc.get(key).unwrap_or_else(|| panic!("{key} missing")) else {
            panic!("{key} is not an array");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .unwrap_or_else(|| panic!("{key}: {f}"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// `BENCHMARK.json` and the tables above name the same metrics, with the
    /// same units, in the same order; and its workloads are the ones built in.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc =
            parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
                .expect("valid JSON");
        let want = |table: &[(&str, &str)]| {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(listed(&doc, "end_to_end"), want(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), want(&PER_LAYER));
        let JsonValue::Arr(workloads) = doc.get("workloads").expect("workloads") else {
            panic!("workloads")
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(
            names,
            crate::workload::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn metric_names_fit_the_contract() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used once"
        );
    }
}
