//! `mistique` — inspect and query a persisted MISTIQUE store.
//!
//! ```sh
//! mistique demo  <dir>                       # build a small demo store
//! mistique info  <dir>                       # models, intermediates, storage
//! mistique show  <dir> <intermediate>        # schema + stats of one intermediate
//! mistique head  <dir> <intermediate> [n]    # first n rows
//! mistique topk  <dir> <intermediate> <column> [k]
//! mistique hist  <dir> <intermediate> <column> [buckets]
//! mistique stats <dir> [--json <file>]
//! mistique explain <dir> [--last <n>]
//! mistique reclaim <dir> [budget_bytes]      # demote/purge cold intermediates, compact
//! mistique timeline <dir> [--json] [--metric <name>]
//! mistique replay <dir> [--into <dir2>] [--differential]
//! mistique top   <dir> [--once] [--interval <ms>]
//! ```
//!
//! `reclaim` runs one storage-reclamation pass: while the materialized bytes
//! exceed the budget, the coldest-γ intermediate is demoted one rung down
//! the quantization ladder (FULL → LP_QT → 8BIT_QT → THRESHOLD_QT) or, on
//! the last rung, purged; then under-occupied partitions are compacted and
//! the manifest re-persisted. Without an explicit budget the configured
//! `storage_budget_bytes` applies (0 = unlimited: only compaction runs).
//!
//! `timeline` prints the metric timeline: the delta points the audit
//! records under `<dir>/audit/` carry, one per burst boundary (logging,
//! reclaim, recovery, and a periodic tick under query traffic). The default
//! view is a table of metric delta points; `--json` dumps the full timeline
//! and `--metric` prints one metric's series. What an operation did — a
//! reclaim step, a compaction — is on its audit record, not here.
//! Unlike the other commands it needs no manifest — it reads the segments
//! directly, so it also works on a store that never persisted.
//!
//! `replay` re-executes the workload captured in the audit journal under
//! `<dir>/audit/` (see the `audit` module): by default into a throwaway
//! fresh store, with `--into` onto an existing directory (registrations of
//! known models re-attach instead of erroring). `--differential` replays
//! the journal at `read_parallelism` 1, 2, 4 and 0 (= all CPUs) and demands
//! bit-identical answer transcripts and identical plan choices across every
//! leg, exiting nonzero on any divergence.
//!
//! `top` renders a live workload dashboard — per-operation rates and
//! latency quantiles, plan mix, index effectiveness, SLO classes,
//! budget headroom and journal health — assembled entirely from the on-disk
//! audit journal and the metric points on its records. `--once` prints a
//! single frame (works on a closed store with no live engine); otherwise the
//! screen refreshes every `--interval` ms (default 1000) until interrupted.
//!
//! `stats` prints the metric snapshot as text; `--json` also writes it as
//! JSON — the one machine format (counters, gauges, histograms, span
//! aggregates and the `recent_spans` ring a trace viewer can be fed from).
//!
//! `explain` replays one read per materialized intermediate plus a sample
//! diagnostic query, then prints the per-query EXPLAIN reports (plan chosen,
//! predicted vs actual cost, cache/partition/codec attribution) and the
//! hierarchical span tree of the last query.
//!
//! Works on any directory produced by `Mistique::persist()`; only reads are
//! available (re-running needs the executable model, see `persist` docs).
//! The inspection commands (`info`, `show`, `head`, `topk`, `hist`, `stats`,
//! `explain`) open the store with audit capture off, so looking at a store
//! never appends to its `audit/` ring; only `demo` and `reclaim` act on the
//! store and are captured (a `reclaim` after its reopen's `recovery`
//! record).

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn usage() -> ExitCode {
    eprintln!(
        "usage: mistique <demo|info|show|head|topk|hist|stats|explain|reclaim|timeline|replay|top> <dir> [args...]\n\
         run `mistique demo /tmp/mq && mistique explain /tmp/mq` to try it"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    let Some(dir) = rest.first() else {
        return usage();
    };

    // Every command writes through this one handle. A reader that stops
    // reading (`mistique … | head`) closes the pipe: the output it wanted
    // was written, so that is a clean exit, not an error.
    let mut out = std::io::stdout().lock();
    let done = run(cmd, dir, &rest[1..], &mut out).and_then(|()| Ok(out.flush()?));
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if is_broken_pipe(&*e) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn is_broken_pipe(e: &(dyn std::error::Error + 'static)) -> bool {
    e.downcast_ref::<std::io::Error>()
        .is_some_and(|e| e.kind() == std::io::ErrorKind::BrokenPipe)
}

/// Reopen for inspection: nothing the command does is journalled, so the
/// store's captured workload stays the workload (`mistique replay`
/// re-executes the journal).
fn inspect(dir: &str) -> Result<Mistique, Box<dyn std::error::Error>> {
    let config = MistiqueConfig {
        audit_budget_bytes: 0,
        ..MistiqueConfig::default()
    };
    Ok(Mistique::reopen(dir, config)?)
}

/// `mistique replay <dir> [--into <dir2>] [--differential]`.
fn run_replay(
    dir: &str,
    rest: &[String],
    out: &mut dyn Write,
) -> Result<(), Box<dyn std::error::Error>> {
    use mistique_core::replay::{differential_replay, replay_into, ReplayOptions};

    let records = Mistique::load_audit(dir)?;
    if records.is_empty() {
        writeln!(out, "no audit journal under {dir}/audit — nothing to replay (audit_budget_bytes = 0, or no workload ran)")?;
        return Ok(());
    }
    writeln!(
        out,
        "loaded {} journal records from {dir}/audit",
        records.len()
    )?;

    let differential = rest.iter().any(|a| a == "--differential");
    let into = match rest.iter().position(|a| a == "--into") {
        Some(pos) => Some(rest.get(pos + 1).ok_or("--into needs a directory")?.clone()),
        None => None,
    };
    let config = MistiqueConfig::default();
    let scratch = std::env::temp_dir().join(format!("mistique-replay-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    // Best-effort scratch cleanup on every exit path.
    struct Scratch(std::path::PathBuf);
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let _scratch_guard = Scratch(scratch.clone());

    // The basic replay leg: into the target directory if given (reopening an
    // existing manifest so registrations re-attach), else a fresh scratch
    // store.
    let mut sys = match &into {
        Some(target) => {
            let manifest = std::path::Path::new(target).join("mistique_manifest.json");
            if manifest.exists() {
                Mistique::reopen(target, config.clone())?
            } else {
                std::fs::create_dir_all(target)?;
                Mistique::open(target, config.clone())?
            }
        }
        None => Mistique::open(scratch.join("replay"), config.clone())?,
    };
    let t0 = std::time::Instant::now();
    let outcome = replay_into(&mut sys, &records, &ReplayOptions::default())?;
    let replay_s = t0.elapsed().as_secs_f64();
    writeln!(
        out,
        "replayed {} ops in {replay_s:.2}s ({} failed, {} skipped) — transcript digest {:016x}",
        outcome.executed,
        outcome.failed,
        outcome.skipped.len(),
        outcome.transcript_digest()
    )?;
    for (seq, reason) in &outcome.skipped {
        writeln!(out, "  skipped seq {seq}: {reason}")?;
    }
    if let Some(target) = &into {
        sys.persist()?;
        writeln!(out, "persisted replayed store at {target}")?;
    }
    drop(sys);

    if differential {
        let workers = [1usize, 2, 4, 0];
        let report = differential_replay(&records, &scratch, &config, &workers)?;
        for run in &report.runs {
            writeln!(
                out,
                "  workers={}: {} ops, {} failed, transcript {:016x}",
                run.workers,
                run.outcome.executed,
                run.outcome.failed,
                run.outcome.transcript_digest()
            )?;
        }
        let (matched, compared) = report.plan_agreement;
        writeln!(
            out,
            "differential: {} — plan agreement with original capture {matched}/{compared}",
            if report.consistent() {
                "CONSISTENT (bit-identical answers, identical plans at every worker count)"
            } else {
                "DIVERGED"
            }
        )?;
        for m in &report.mismatches {
            eprintln!("  mismatch: {m}");
        }
        if !report.consistent() {
            return Err("differential replay diverged".into());
        }
    }
    Ok(())
}

fn run(
    cmd: &str,
    dir: &str,
    rest: &[String],
    out: &mut dyn Write,
) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        "demo" => {
            std::fs::create_dir_all(dir)?;
            let mut sys = Mistique::open(dir, MistiqueConfig::default())?;
            let data = Arc::new(ZillowData::generate(2_000, 42));
            let mut trad_ids = Vec::new();
            for p in zillow_pipelines().into_iter().take(2) {
                let id = sys.register_trad(p, Arc::clone(&data))?;
                sys.log_intermediates(&id)?;
                writeln!(out, "logged {id}")?;
                trad_ids.push(id);
            }
            // A small DNN checkpoint, so the captured workload (and thus
            // `mistique replay`) mixes TRAD and DNN intermediates.
            let cifar = Arc::new(mistique_nn::CifarLike::generate(48, 4, 7));
            let labels = cifar.labels.clone();
            let dnn_id =
                sys.register_dnn(Arc::new(mistique_nn::simple_cnn(16)), 9, 1, cifar, 16)?;
            sys.log_intermediates(&dnn_id)?;
            writeln!(out, "logged {dnn_id}")?;
            // A handful of diagnostics, so the journal carries queries with
            // plan choices, not just registrations and logging.
            if let Some(interm) = sys.intermediates_of(&trad_ids[0]).first().cloned() {
                if let Some(col) = sys
                    .metadata()
                    .intermediate(&interm)
                    .and_then(|m| m.columns.first().cloned())
                {
                    sys.topk(&interm, &col, 10)?;
                    sys.pointq(&interm, &col, 3)?;
                    sys.col_dist(&interm, &col, 8)?;
                }
            }
            let dnn_interms = sys.intermediates_of(&dnn_id);
            if let Some(softmax) = dnn_interms.last().cloned() {
                sys.argmax_predictions(&softmax)?;
                sys.accuracy(&softmax, &labels)?;
            }
            if let Some(first) = dnn_interms.first().cloned() {
                sys.knn(&first, 0, 5)?;
            }
            sys.persist()?;
            sys.audit_flush();
            writeln!(out, "persisted demo store at {dir}")?;
        }
        "info" => {
            let sys = inspect(dir)?;
            let stats = sys.store().stats();
            writeln!(out, "store: {dir}")?;
            writeln!(out, "  disk bytes     : {}", sys.store().disk_bytes()?)?;
            writeln!(out, "  chunks stored  : {}", stats.chunks_stored)?;
            writeln!(out, "  dedup hits     : {}", stats.dedup_hits)?;
            writeln!(
                out,
                "  dedup ratio    : {:.2}x",
                stats.logical_bytes as f64 / stats.unique_bytes.max(1) as f64
            )?;
            for model in sys.model_ids() {
                let m = sys.metadata().model(&model).unwrap();
                writeln!(
                    out,
                    "model {model} ({:?}, {} stages, {} examples)",
                    m.kind, m.n_stages, m.n_examples
                )?;
                for i in sys.metadata().intermediates_of(&model) {
                    writeln!(
                        out,
                        "  {:<44} {:>6} rows x {:>4} cols  {:>10} B  {}  q={}",
                        i.id,
                        i.n_rows,
                        i.columns.len(),
                        i.stored_bytes,
                        if i.materialized { "stored" } else { "virtual" },
                        i.n_queries
                    )?;
                }
            }
        }
        "show" => {
            let interm = rest.first().ok_or("missing intermediate id")?;
            let sys = inspect(dir)?;
            let m = sys
                .metadata()
                .intermediate(interm)
                .ok_or_else(|| format!("no intermediate {interm}"))?;
            writeln!(out, "{}", m.id)?;
            writeln!(out, "  model        : {}", m.model_id)?;
            writeln!(out, "  stage        : {}", m.stage_index)?;
            writeln!(out, "  rows         : {}", m.n_rows)?;
            writeln!(out, "  scheme       : {}", m.scheme.name())?;
            writeln!(out, "  materialized : {}", m.materialized)?;
            writeln!(out, "  stored bytes : {}", m.stored_bytes)?;
            writeln!(
                out,
                "  exec time    : {:?} (cumulative {:?})",
                m.exec_time, m.cum_exec_time
            )?;
            if let Some((c, h, w)) = m.shape {
                writeln!(out, "  shape        : {c} x {h} x {w}")?;
            }
            writeln!(
                out,
                "  columns ({}) : {}",
                m.columns.len(),
                m.columns.join(", ")
            )?;
        }
        "head" => {
            let interm = rest.first().ok_or("missing intermediate id")?;
            let n: usize = rest.get(1).map(|s| s.parse()).transpose()?.unwrap_or(5);
            let mut sys = inspect(dir)?;
            let r = sys.fetch_with_strategy(interm, None, Some(n), FetchStrategy::Read)?;
            let names = r.frame.column_names().join("\t");
            writeln!(out, "{names}")?;
            let cols: Vec<Vec<f64>> = r.frame.columns().iter().map(|c| c.data.to_f64()).collect();
            for row in 0..r.frame.n_rows() {
                let cells: Vec<String> = cols.iter().map(|c| format!("{:.4}", c[row])).collect();
                writeln!(out, "{}", cells.join("\t"))?;
            }
        }
        "topk" => {
            let interm = rest.first().ok_or("missing intermediate id")?;
            let column = rest.get(1).ok_or("missing column")?;
            let k: usize = rest.get(2).map(|s| s.parse()).transpose()?.unwrap_or(10);
            let mut sys = inspect(dir)?;
            for (row, value) in sys.topk(interm, column, k)? {
                writeln!(out, "{row}\t{value:.6}")?;
            }
        }
        "hist" => {
            let interm = rest.first().ok_or("missing intermediate id")?;
            let column = rest.get(1).ok_or("missing column")?;
            let buckets: usize = rest.get(2).map(|s| s.parse()).transpose()?.unwrap_or(10);
            let mut sys = inspect(dir)?;
            let hist = sys.col_dist(interm, column, buckets)?;
            let max = hist.iter().map(|b| b.count).max().unwrap_or(1).max(1);
            for b in hist {
                writeln!(
                    out,
                    "[{:>12.4}, {:>12.4})  {:>7}  {}",
                    b.lo,
                    b.hi,
                    b.count,
                    "#".repeat(b.count * 50 / max)
                )?;
            }
        }
        "stats" => {
            // Exercise the read path once per materialized intermediate so
            // the report covers live chunk reads and cost decisions, not
            // just load-time state.
            let mut sys = inspect(dir)?;
            let interms: Vec<String> = sys
                .model_ids()
                .iter()
                .flat_map(|m| sys.intermediates_of(m))
                .collect();
            let mut exercised = 0;
            for interm in &interms {
                let materialized = sys
                    .metadata()
                    .intermediate(interm)
                    .map(|m| m.materialized)
                    .unwrap_or(false);
                if materialized
                    && sys
                        .fetch_with_strategy(interm, None, Some(8), FetchStrategy::Read)
                        .is_ok()
                {
                    exercised += 1;
                }
            }
            writeln!(
                out,
                "observability report for {dir} ({exercised} sample reads)\n"
            )?;
            write!(out, "{}", sys.obs_report())?;
            if let Some(pos) = rest.iter().position(|a| a == "--json") {
                let path = rest.get(pos + 1).ok_or("--json needs a file path")?;
                std::fs::write(path, sys.obs_snapshot().to_json_string())?;
                writeln!(out, "\nwrote JSON snapshot to {path}")?;
            }
        }
        "explain" => {
            let mut sys = inspect(dir)?;
            // Replay live queries so the reports and trace ring reflect real
            // reads against this store, not just load-time state.
            let interms: Vec<String> = sys
                .model_ids()
                .iter()
                .flat_map(|m| sys.intermediates_of(m))
                .collect();
            for interm in &interms {
                let materialized = sys
                    .metadata()
                    .intermediate(interm)
                    .map(|m| m.materialized)
                    .unwrap_or(false);
                if materialized {
                    let _ = sys.fetch_with_strategy(interm, None, Some(64), FetchStrategy::Read);
                }
            }
            // One diagnostic query, so at least one report carries a
            // `diag.*` attribution.
            if let Some(interm) = interms.iter().find(|i| {
                sys.metadata()
                    .intermediate(i)
                    .map(|m| m.materialized && !m.columns.is_empty())
                    .unwrap_or(false)
            }) {
                let interm = interm.clone();
                let col = sys.metadata().intermediate(&interm).unwrap().columns[0].clone();
                let _ = sys.topk(&interm, &col, 5);
            }

            let last: usize = match rest.iter().position(|a| a == "--last") {
                Some(pos) => rest.get(pos + 1).ok_or("--last needs a count")?.parse()?,
                None => 10,
            };
            let reports = sys.query_reports(last);
            if reports.is_empty() {
                writeln!(out, "no queries ran against {dir}; nothing to explain")?;
            }
            for r in &reports {
                write!(out, "{}", r.render())?;
            }
            if let Some(r) = reports.last() {
                writeln!(
                    out,
                    "\ntrace tree of query #{} (trace {}):",
                    r.seq, r.trace_id
                )?;
                write!(out, "{}", sys.render_trace(r.trace_id))?;
            }
            let drift = sys.drift_monitor();
            writeln!(
                out,
                "\ncost model drift: worst ratio {:.3} (tolerance {:.1}){}",
                drift.worst_drift(),
                drift.tolerance(),
                if drift.any_flagged() {
                    "  ** MISCALIBRATED **"
                } else {
                    ""
                }
            )?;
        }
        "reclaim" => {
            let mut sys = Mistique::reopen(dir, MistiqueConfig::default())?;
            let report = match rest.first() {
                Some(b) => sys.reclaim_to(b.parse()?)?,
                None => sys.reclaim()?,
            };
            write!(out, "{}", report.render())?;
        }
        "timeline" => {
            let tl = Mistique::load_timeline(dir)?;
            if tl.points.is_empty() {
                writeln!(
                    out,
                    "no metric points recorded under {dir}/audit \
                     (audit_budget_bytes = 0, or nothing logged yet)"
                )?;
                return Ok(());
            }
            if let Some(pos) = rest.iter().position(|a| a == "--metric") {
                let metric = rest.get(pos + 1).ok_or("--metric needs a metric name")?;
                let series = tl.series(metric);
                if series.is_empty() {
                    let names = tl.metric_names().into_iter().collect::<Vec<_>>().join(", ");
                    return Err(format!("metric {metric} not in timeline; have: {names}").into());
                }
                for (seq, t_ms, v) in series {
                    writeln!(out, "{seq}\t{t_ms}\t{v}")?;
                }
            } else if rest.iter().any(|a| a == "--json") {
                writeln!(out, "{}", tl.to_json_string())?;
            } else {
                write!(out, "{}", tl.render_table())?;
                writeln!(
                    out,
                    "{} points, seq <= {}",
                    tl.points.len(),
                    tl.max_seq().unwrap_or(0)
                )?;
            }
        }
        "replay" => return run_replay(dir, rest, out),
        "top" => {
            let once = rest.iter().any(|a| a == "--once");
            let interval_ms: u64 = match rest.iter().position(|a| a == "--interval") {
                Some(pos) => rest
                    .get(pos + 1)
                    .ok_or("--interval needs milliseconds")?
                    .parse()?,
                None => 1000,
            };
            if once {
                write!(out, "{}", mistique_core::render_top(dir)?)?;
            } else {
                loop {
                    let frame = mistique_core::render_top(dir)?;
                    // Clear screen + home, then one dashboard frame.
                    write!(out, "\x1b[2J\x1b[H{frame}")?;
                    out.flush()?;
                    std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                }
            }
        }
        _ => {
            usage();
            return Err(format!("unknown command {cmd}").into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path and bytes of every file in the store's audit ring.
    fn rings(dir: &std::path::Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir.join(mistique_core::AUDIT_SUBDIR)).unwrap() {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            files.push((path, bytes));
        }
        files.sort();
        files
    }

    #[test]
    fn inspection_commands_do_not_write_into_the_store_they_inspect() {
        let tmp = mistique_testkit::tempdir().unwrap();
        let dir = tmp.path().to_str().unwrap();
        run("demo", dir, &[], &mut std::io::sink()).unwrap();
        let before = rings(tmp.path());
        assert!(!before.is_empty(), "demo captured its workload");
        let journal = Mistique::load_audit(dir).unwrap().len();

        let (interm, column) = {
            let sys = inspect(dir).unwrap();
            let interm = sys.intermediates_of(&sys.model_ids()[0])[0].clone();
            let column = sys.metadata().intermediate(&interm).unwrap().columns[0].clone();
            (interm, column)
        };
        let commands: [(&str, &[&str]); 7] = [
            ("info", &[]),
            ("show", &[&interm]),
            ("head", &[&interm, "3"]),
            ("topk", &[&interm, &column, "3"]),
            ("hist", &[&interm, &column, "4"]),
            ("stats", &[]),
            ("explain", &["--last", "2"]),
        ];
        for (cmd, args) in commands {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            run(cmd, dir, &args, &mut std::io::sink()).unwrap();
            assert!(rings(tmp.path()) == before, "`{cmd}` wrote into the rings");
        }
        // A mistyped id fails, and leaves no failed record to replay.
        let bad = ["no.such.intermediate".to_string()];
        assert!(run("head", dir, &bad, &mut std::io::sink()).is_err());
        assert!(
            rings(tmp.path()) == before,
            "a failed `head` wrote into the rings"
        );
        assert_eq!(Mistique::load_audit(dir).unwrap().len(), journal);
    }
}
