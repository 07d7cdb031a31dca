//! Re-execute a captured workload from the audit journal (`mistique replay`).
//!
//! Every [`AuditRecord`]'s argument fingerprint (see [`crate::audit`]) is
//! sufficient to reconstruct the call that produced it: model registrations
//! carry the pipeline template id / encoded DNN architecture plus the
//! dataset generator's provenance `(n, seed)`, and queries carry their
//! argument lists verbatim. Replay walks the journal in sequence order,
//! regenerates the datasets (cached per provenance key), and re-issues each
//! operation against a target [`Mistique`] instance.
//!
//! Each replayed operation yields a 64-bit FNV digest of its *answer*
//! (every f64 folded in via `to_bits`, so "equal" means bit-identical — not
//! approximately close). [`differential_replay`] replays the same journal
//! into fresh stores at several `read_parallelism` settings and asserts the
//! digest transcript and the per-operation plan sequences agree across all
//! of them: the parallel read path must be indistinguishable from the
//! serial one, answer for answer, plan for plan.
//!
//! Three kinds of record don't replay: `diag.netdissect` (its pixel-level
//! concept masks are journaled only as a digest), registrations whose
//! dataset lacks generator provenance, and operations this build does not
//! know (a journal written by a newer one). All are reported as skipped
//! with a reason, never silently dropped or counted as executed.

use std::collections::HashMap;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use mistique_nn::{ArchConfig, CifarLike, LayerSpec};
use mistique_obs::AuditRecord;
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

use crate::audit::fnv1a;
use crate::error::MistiqueError;
use crate::reader::FetchStrategy;
use crate::system::{Mistique, MistiqueConfig};

/// Encode an [`ArchConfig`] as one journal-safe token:
/// `name|in_c|in_hw|n_classes|frozen_prefix|c64,c64,p,d512,x`
/// (`c` = conv, `p` = pool, `d` = dense, `x` = classifier head).
pub fn encode_arch(arch: &ArchConfig) -> String {
    let layers: Vec<String> = arch
        .layers
        .iter()
        .map(|l| match l {
            LayerSpec::Conv(c) => format!("c{c}"),
            LayerSpec::Pool => "p".to_string(),
            LayerSpec::Dense(d) => format!("d{d}"),
            LayerSpec::Classifier => "x".to_string(),
        })
        .collect();
    format!(
        "{}|{}|{}|{}|{}|{}",
        arch.name,
        arch.in_c,
        arch.in_hw,
        arch.n_classes,
        arch.frozen_prefix,
        layers.join(",")
    )
}

/// Inverse of [`encode_arch`]; `None` when the token doesn't parse.
pub fn decode_arch(s: &str) -> Option<ArchConfig> {
    let parts: Vec<&str> = s.split('|').collect();
    if parts.len() != 6 {
        return None;
    }
    let mut layers = Vec::new();
    for tok in parts[5].split(',') {
        layers.push(match tok {
            "p" => LayerSpec::Pool,
            "x" => LayerSpec::Classifier,
            t if t.starts_with('c') => LayerSpec::Conv(t[1..].parse().ok()?),
            t if t.starts_with('d') => LayerSpec::Dense(t[1..].parse().ok()?),
            _ => return None,
        });
    }
    Some(ArchConfig {
        name: parts[0].to_string(),
        in_c: parts[1].parse().ok()?,
        in_hw: parts[2].parse().ok()?,
        n_classes: parts[3].parse().ok()?,
        frozen_prefix: parts[4].parse().ok()?,
        layers,
    })
}

/// Replay tuning.
#[derive(Clone, Debug, Default)]
pub struct ReplayOptions {
    /// Abort at the first operation that errors during replay instead of
    /// digesting the failure and continuing.
    pub stop_on_error: bool,
}

/// One replayed operation: the original record's sequence number and the
/// answer digest produced this run. Operations that error digest the fixed
/// [`ERROR_DIGEST`] (the *fact* of the failure must also be reproducible).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayStep {
    /// Sequence number of the journal record this step replayed.
    pub seq: u64,
    /// Operation name (`diag.topk`, `fetch.get`, …).
    pub op: String,
    /// FNV-64 digest of the answer (bit-exact over every float).
    pub digest: u64,
}

/// Digest recorded for an operation that returned an error during replay.
pub const ERROR_DIGEST: u64 = 0xE44;

/// What a replay pass did.
#[derive(Clone, Debug, Default)]
pub struct ReplayOutcome {
    /// Operations re-executed (including ones that errored).
    pub executed: u64,
    /// Of `executed`, how many returned an error.
    pub failed: u64,
    /// `(seq, reason)` of records that cannot be replayed.
    pub skipped: Vec<(u64, String)>,
    /// Answer digests in journal order.
    pub transcript: Vec<ReplayStep>,
}

impl ReplayOutcome {
    /// Fold the whole transcript into one digest (what `replay` prints).
    pub fn transcript_digest(&self) -> u64 {
        let mut h = 0u64;
        for step in &self.transcript {
            h = fnv1a(h, step.op.as_bytes());
            h = fnv1a(h, &step.seq.to_le_bytes());
            h = fnv1a(h, &step.digest.to_le_bytes());
        }
        h
    }
}

fn mix_u64(h: u64, v: u64) -> u64 {
    fnv1a(h, &v.to_le_bytes())
}

fn mix_f64(h: u64, v: f64) -> u64 {
    mix_u64(h, v.to_bits())
}

fn mix_str(h: u64, s: &str) -> u64 {
    fnv1a(h, s.as_bytes())
}

fn digest_frame(frame: &mistique_dataframe::DataFrame) -> u64 {
    let mut h = mix_u64(0, frame.n_rows() as u64);
    for col in frame.columns() {
        h = mix_str(h, &col.name);
        for v in col.data.to_f64() {
            h = mix_f64(h, v);
        }
    }
    h
}

fn digest_matrix(m: &mistique_linalg::Matrix) -> u64 {
    let mut h = mix_u64(mix_u64(0, m.rows() as u64), m.cols() as u64);
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            h = mix_f64(h, m[(r, c)]);
        }
    }
    h
}

fn arg<'a>(rec: &'a AuditRecord, key: &str) -> Result<&'a str, MistiqueError> {
    rec.args.get(key).map(String::as_str).ok_or_else(|| {
        MistiqueError::Invalid(format!(
            "audit record {} ({}) missing arg {key}",
            rec.seq, rec.op
        ))
    })
}

fn parse<T: FromStr>(rec: &AuditRecord, key: &str) -> Result<T, MistiqueError> {
    let s = arg(rec, key)?;
    s.parse().map_err(|_| {
        MistiqueError::Invalid(format!(
            "audit record {} ({}): arg {key}={s:?} does not parse",
            rec.seq, rec.op
        ))
    })
}

fn parse_csv<T: FromStr>(rec: &AuditRecord, key: &str) -> Result<Vec<T>, MistiqueError> {
    let s = arg(rec, key)?;
    if s.is_empty() {
        return Ok(vec![]);
    }
    s.split(',')
        .map(|tok| {
            tok.parse().map_err(|_| {
                MistiqueError::Invalid(format!(
                    "audit record {} ({}): {key} element {tok:?} does not parse",
                    rec.seq, rec.op
                ))
            })
        })
        .collect()
}

/// Decoded `(interm, cols, n_ex)` of a journaled fetch: `*` means all
/// columns, `all` means every row.
type FetchParams = (String, Option<Vec<String>>, Option<usize>);

/// `cols` / `n_ex` decoding shared by the fetch ops.
fn fetch_params(rec: &AuditRecord) -> Result<FetchParams, MistiqueError> {
    let interm = arg(rec, "interm")?.to_string();
    let cols = match arg(rec, "cols")? {
        "*" => None,
        s => Some(s.split(',').map(str::to_string).collect::<Vec<_>>()),
    };
    let n_ex = match arg(rec, "n_ex")? {
        "all" => None,
        s => Some(s.parse().map_err(|_| {
            MistiqueError::Invalid(format!("audit record {}: bad n_ex {s:?}", rec.seq))
        })?),
    };
    Ok((interm, cols, n_ex))
}

/// Dataset caches keyed by generator provenance, so a journal touching the
/// same dataset from many records regenerates it once.
#[derive(Default)]
struct DataCache {
    zillow: HashMap<(usize, u64), Arc<ZillowData>>,
    cifar: HashMap<(usize, usize, u64), Arc<CifarLike>>,
}

impl DataCache {
    fn zillow(&mut self, n: usize, seed: u64) -> Arc<ZillowData> {
        Arc::clone(
            self.zillow
                .entry((n, seed))
                .or_insert_with(|| Arc::new(ZillowData::generate(n, seed))),
        )
    }

    fn cifar(&mut self, n: usize, classes: usize, seed: u64) -> Arc<CifarLike> {
        Arc::clone(
            self.cifar
                .entry((n, classes, seed))
                .or_insert_with(|| Arc::new(CifarLike::generate(n, classes, seed))),
        )
    }
}

/// Replay one record. `Ok(None)` means "not replayable" (netdissect, a
/// registration without provenance, or an unknown op); the caller records
/// the skip.
fn replay_one(
    sys: &mut Mistique,
    rec: &AuditRecord,
    cache: &mut DataCache,
) -> Result<Option<u64>, MistiqueError> {
    match rec.op.as_str() {
        "register" => {
            match arg(rec, "kind")? {
                "trad" => {
                    if !rec.args.contains_key("data_seed") {
                        return Ok(None); // dataset without generator provenance
                    }
                    let pid = arg(rec, "pipeline")?;
                    let pipeline = zillow_pipelines()
                        .into_iter()
                        .find(|p| p.id == pid)
                        .ok_or_else(|| {
                            MistiqueError::Invalid(format!("unknown pipeline template {pid}"))
                        })?;
                    let data = cache.zillow(parse(rec, "data_n")?, parse(rec, "data_seed")?);
                    // Replaying onto the original store: the model is already
                    // registered, it only needs its source re-attached.
                    let id = if sys.metadata().model(pid).is_some() {
                        sys.reattach_trad(pipeline, data)?;
                        pid.to_string()
                    } else {
                        sys.register_trad(pipeline, data)?
                    };
                    Ok(Some(mix_str(0, &id)))
                }
                "dnn" => {
                    if !rec.args.contains_key("data_seed") {
                        return Ok(None);
                    }
                    let arch = decode_arch(arg(rec, "arch")?).ok_or_else(|| {
                        MistiqueError::Invalid(format!("audit record {}: bad arch token", rec.seq))
                    })?;
                    let data = cache.cifar(
                        parse(rec, "data_n")?,
                        parse(rec, "data_classes")?,
                        parse(rec, "data_seed")?,
                    );
                    let seed: u64 = parse(rec, "seed")?;
                    let epoch: u32 = parse(rec, "epoch")?;
                    let batch: usize = parse(rec, "batch")?;
                    let id = format!("{}@epoch{epoch}", arch.name);
                    let id = if sys.metadata().model(&id).is_some() {
                        sys.reattach_dnn(Arc::new(arch), seed, epoch, data, batch)?;
                        id
                    } else {
                        sys.register_dnn(Arc::new(arch), seed, epoch, data, batch)?
                    };
                    Ok(Some(mix_str(0, &id)))
                }
                k => Err(MistiqueError::Invalid(format!("unknown model kind {k:?}"))),
            }
        }
        "log" => {
            let model = arg(rec, "model")?;
            sys.log_intermediates(model)?;
            Ok(Some(mix_str(mix_str(0, "log"), model)))
        }
        "log_parallel" => {
            let joined = arg(rec, "models")?;
            let models: Vec<&str> = joined.split(',').filter(|s| !s.is_empty()).collect();
            sys.log_intermediates_parallel(&models)?;
            Ok(Some(mix_str(mix_str(0, "log_parallel"), joined)))
        }
        "reclaim" => {
            let report = sys.reclaim_to(parse(rec, "budget")?)?;
            let mut h = mix_str(0, "reclaim");
            for p in &report.purged {
                h = mix_str(h, p);
            }
            Ok(Some(h))
        }
        "fetch.get" => {
            let (interm, cols, n_ex) = fetch_params(rec)?;
            let refs: Option<Vec<&str>> = cols
                .as_ref()
                .map(|cs| cs.iter().map(String::as_str).collect());
            let r = sys.get_intermediate(&interm, refs.as_deref(), n_ex)?;
            Ok(Some(digest_frame(&r.frame)))
        }
        "fetch.strategy" => {
            let (interm, cols, n_ex) = fetch_params(rec)?;
            let strategy = match arg(rec, "strategy")? {
                "read" => FetchStrategy::Read,
                "rerun" => FetchStrategy::Rerun,
                "cached" => FetchStrategy::Cached,
                s => {
                    return Err(MistiqueError::Invalid(format!("unknown strategy {s:?}")));
                }
            };
            let refs: Option<Vec<&str>> = cols
                .as_ref()
                .map(|cs| cs.iter().map(String::as_str).collect());
            let r = sys.fetch_with_strategy(&interm, refs.as_deref(), n_ex, strategy)?;
            Ok(Some(digest_frame(&r.frame)))
        }
        "fetch.rows" => {
            let (interm, cols, _) = fetch_params(rec)?;
            let rows: Vec<usize> = parse_csv(rec, "rows")?;
            let refs: Option<Vec<&str>> = cols
                .as_ref()
                .map(|cs| cs.iter().map(String::as_str).collect());
            let r = sys.get_rows(&interm, &rows, refs.as_deref())?;
            Ok(Some(digest_frame(&r.frame)))
        }
        "diag.pointq" => {
            let v = sys.pointq(arg(rec, "interm")?, arg(rec, "col")?, parse(rec, "row")?)?;
            Ok(Some(mix_f64(0, v)))
        }
        "diag.topk" => {
            let top = sys.topk(arg(rec, "interm")?, arg(rec, "col")?, parse(rec, "k")?)?;
            let mut h = 0;
            for (i, v) in top {
                h = mix_f64(mix_u64(h, i as u64), v);
            }
            Ok(Some(h))
        }
        "diag.col_dist" => {
            let hist = sys.col_dist(
                arg(rec, "interm")?,
                arg(rec, "col")?,
                parse(rec, "buckets")?,
            )?;
            let mut h = 0;
            for b in hist {
                h = mix_u64(mix_f64(mix_f64(h, b.lo), b.hi), b.count as u64);
            }
            Ok(Some(h))
        }
        "diag.col_diff" => {
            let rows = sys.col_diff(
                arg(rec, "interm_a")?,
                arg(rec, "col_a")?,
                arg(rec, "interm_b")?,
                arg(rec, "col_b")?,
                parse(rec, "tol")?,
            )?;
            let mut h = 0;
            for r in rows {
                h = mix_u64(h, r as u64);
            }
            Ok(Some(h))
        }
        "diag.row_diff" => {
            let d = sys.row_diff(
                arg(rec, "interm")?,
                parse(rec, "row_a")?,
                parse(rec, "row_b")?,
            )?;
            let mut h = 0;
            for (name, v) in d {
                h = mix_f64(mix_str(h, &name), v);
            }
            Ok(Some(h))
        }
        "diag.vis" => {
            let groups: Vec<u8> = parse_csv(rec, "groups")?;
            let m = sys.vis(arg(rec, "interm")?, &groups, parse(rec, "n_groups")?)?;
            Ok(Some(digest_matrix(&m)))
        }
        "diag.knn" => {
            let hits = sys.knn(arg(rec, "interm")?, parse(rec, "row")?, parse(rec, "k")?)?;
            let mut h = 0;
            for (i, d) in hits {
                h = mix_f64(mix_u64(h, i as u64), d);
            }
            Ok(Some(h))
        }
        "diag.svcca" => {
            let r = sys.svcca(
                arg(rec, "interm_a")?,
                arg(rec, "interm_b")?,
                parse(rec, "var_frac")?,
            )?;
            Ok(Some(mix_f64(0, r.mean_correlation())))
        }
        "diag.netdissect" => Ok(None), // concept masks journaled as digest only
        "diag.argmax_predictions" => {
            let preds = sys.argmax_predictions(arg(rec, "interm")?)?;
            let mut h = 0;
            for p in preds {
                h = mix_u64(h, p as u64);
            }
            Ok(Some(h))
        }
        "diag.confusion_matrix" => {
            let labels: Vec<u8> = parse_csv(rec, "labels")?;
            let m = sys.confusion_matrix(arg(rec, "interm")?, &labels, parse(rec, "n_classes")?)?;
            let mut h = 0;
            for row in m {
                for c in row {
                    h = mix_u64(h, c as u64);
                }
            }
            Ok(Some(h))
        }
        "diag.accuracy" => {
            let labels: Vec<u8> = parse_csv(rec, "labels")?;
            let acc = sys.accuracy(arg(rec, "interm")?, &labels)?;
            Ok(Some(mix_f64(0, acc)))
        }
        "diag.select_where_gt" => {
            let rows = sys.select_where_gt(
                arg(rec, "interm")?,
                arg(rec, "col")?,
                parse(rec, "threshold")?,
            )?;
            let mut h = 0;
            for r in rows {
                h = mix_u64(h, r as u64);
            }
            Ok(Some(h))
        }
        "diag.pca_projection" => {
            let (m, frac) = sys.pca_projection(arg(rec, "interm")?, parse(rec, "k")?)?;
            Ok(Some(mix_f64(digest_matrix(&m), frac)))
        }
        "diag.group_metric" => {
            let groups: Vec<u8> = parse_csv(rec, "groups")?;
            let rows = sys.group_metric(
                arg(rec, "interm")?,
                arg(rec, "col")?,
                &groups,
                parse(rec, "n_groups")?,
            )?;
            let mut h = 0;
            for (g, mean, count) in rows {
                h = mix_u64(mix_f64(mix_u64(h, g as u64), mean), count as u64);
            }
            Ok(Some(h))
        }
        _ => Ok(None), // an op this build cannot execute must not count as executed
    }
}

/// Re-execute a captured journal against an open system (fresh, or the
/// original store with its manifest reopened — registrations of known
/// models re-attach their sources instead of erroring).
pub fn replay_into(
    sys: &mut Mistique,
    records: &[AuditRecord],
    opts: &ReplayOptions,
) -> Result<ReplayOutcome, MistiqueError> {
    let mut out = ReplayOutcome::default();
    let mut cache = DataCache::default();
    for rec in records {
        match replay_one(sys, rec, &mut cache) {
            Ok(Some(digest)) => {
                out.executed += 1;
                out.transcript.push(ReplayStep {
                    seq: rec.seq,
                    op: rec.op.clone(),
                    digest,
                });
            }
            Ok(None) => out
                .skipped
                .push((rec.seq, format!("{} is not replayable", rec.op))),
            Err(e) => {
                if opts.stop_on_error {
                    return Err(e);
                }
                out.executed += 1;
                out.failed += 1;
                out.transcript.push(ReplayStep {
                    seq: rec.seq,
                    op: rec.op.clone(),
                    digest: ERROR_DIGEST,
                });
            }
        }
    }
    Ok(out)
}

/// One worker-count leg of a differential replay.
#[derive(Clone, Debug)]
pub struct DifferentialRun {
    /// The `read_parallelism` this leg ran at.
    pub workers: usize,
    /// What the leg executed and digested.
    pub outcome: ReplayOutcome,
    /// Plan sequence `(op, plans)` re-captured by the leg's own journal.
    pub plans: Vec<(String, Vec<String>)>,
}

/// The verdict of [`differential_replay`].
#[derive(Clone, Debug)]
pub struct DifferentialReport {
    /// One leg per requested worker count.
    pub runs: Vec<DifferentialRun>,
    /// Human-readable descriptions of every divergence (empty = consistent).
    pub mismatches: Vec<String>,
    /// Of the original journal's records replayed with plan detail, how many
    /// chose the identical plan sequence this time. Informational: the cost
    /// model recalibrates from measured timings, so plan flips between the
    /// capture machine and the replay machine are legitimate.
    pub plan_agreement: (usize, usize),
}

impl DifferentialReport {
    /// True when every leg produced bit-identical answers and identical plan
    /// choices.
    pub fn consistent(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The plan sequence a journal captured, keyed by op, in order — only for
/// records that fetched anything.
fn plan_seq(journal: &[AuditRecord]) -> Vec<(String, Vec<String>)> {
    journal
        .iter()
        .filter(|r| !r.plans.is_empty())
        .map(|r| (r.op.clone(), r.plans.clone()))
        .collect()
}

/// Replay `records` into a fresh store per worker count (subdirectories of
/// `base_dir`), asserting the answer transcript and the plan sequence agree
/// across every `read_parallelism` setting. Each leg runs with audit
/// capture ON, so the plan comparison reads each leg's own re-captured
/// journal.
pub fn differential_replay(
    records: &[AuditRecord],
    base_dir: &Path,
    config: &MistiqueConfig,
    workers: &[usize],
) -> Result<DifferentialReport, MistiqueError> {
    assert!(!workers.is_empty(), "need at least one worker count");
    let mut runs: Vec<DifferentialRun> = Vec::new();
    for &w in workers {
        let dir = base_dir.join(format!("replay_w{w}"));
        let mut cfg = config.clone();
        cfg.read_parallelism = w;
        if cfg.audit_budget_bytes == 0 {
            cfg.audit_budget_bytes = 1 << 20;
        }
        let mut sys = Mistique::open(&dir, cfg)?;
        let outcome = replay_into(&mut sys, records, &ReplayOptions::default())?;
        sys.audit_flush();
        let journal = sys.audit_records()?;
        runs.push(DifferentialRun {
            workers: w,
            outcome,
            plans: plan_seq(&journal),
        });
    }

    let mut mismatches = Vec::new();
    let base = &runs[0];
    for run in &runs[1..] {
        if run.outcome.transcript != base.outcome.transcript {
            let detail = base
                .outcome
                .transcript
                .iter()
                .zip(&run.outcome.transcript)
                .find(|(a, b)| a != b)
                .map(|(a, b)| {
                    format!(
                        "first divergence at seq {} ({}): {:016x} vs {:016x}",
                        a.seq, a.op, a.digest, b.digest
                    )
                })
                .unwrap_or_else(|| {
                    format!(
                        "transcript lengths differ: {} vs {}",
                        base.outcome.transcript.len(),
                        run.outcome.transcript.len()
                    )
                });
            mismatches.push(format!(
                "answers differ between workers={} and workers={}: {detail}",
                base.workers, run.workers
            ));
        }
        if run.plans != base.plans {
            mismatches.push(format!(
                "plan choices differ between workers={} and workers={}",
                base.workers, run.workers
            ));
        }
    }

    // Informational: how often the replay legs agreed with the *original*
    // capture's plan choices.
    let original = plan_seq(records);
    let compared = original.len().min(base.plans.len());
    let matched = original
        .iter()
        .zip(&base.plans)
        .filter(|(a, b)| a == b)
        .count();
    Ok(DifferentialReport {
        runs,
        mismatches,
        plan_agreement: (matched, compared),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_nn::{simple_cnn, vgg16_cifar};

    #[test]
    fn arch_round_trips_through_token() {
        for arch in [simple_cnn(16), vgg16_cifar(32)] {
            let token = encode_arch(&arch);
            let back = decode_arch(&token).unwrap();
            assert_eq!(back.name, arch.name);
            assert_eq!(back.in_c, arch.in_c);
            assert_eq!(back.in_hw, arch.in_hw);
            assert_eq!(back.n_classes, arch.n_classes);
            assert_eq!(back.frozen_prefix, arch.frozen_prefix);
            assert_eq!(back.layers, arch.layers);
        }
        assert!(decode_arch("not-an-arch").is_none());
        assert!(decode_arch("n|3|32|10|0|c8,q").is_none());
    }

    #[test]
    fn digests_are_value_sensitive() {
        assert_ne!(mix_f64(0, 1.0), mix_f64(0, 1.0000000000000002));
        assert_ne!(mix_u64(0, 1), mix_u64(0, 2));
        let a = mix_f64(mix_u64(0, 3), 0.5);
        let b = mix_f64(mix_u64(0, 3), 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn capture_then_replay_reproduces_answers() {
        use crate::system::{MistiqueConfig, StorageStrategy};
        use mistique_pipeline::templates::zillow_pipelines;

        let config = MistiqueConfig {
            row_block_size: 50,
            storage: StorageStrategy::Dedup,
            ..MistiqueConfig::default()
        };
        let capture_dir = mistique_testkit::tempdir().unwrap();
        let expected = {
            let mut sys = Mistique::open(capture_dir.path(), config.clone()).unwrap();
            let data = Arc::new(ZillowData::generate(150, 3));
            let id = sys
                .register_trad(zillow_pipelines().remove(0), data)
                .unwrap();
            sys.log_intermediates(&id).unwrap();
            let interm = sys.intermediates_of(&id)[0].clone();
            let top = sys.topk(&interm, "sqft", 7).unwrap();
            let acc = sys.pointq(&interm, "sqft", 11).unwrap();
            sys.audit_flush();
            (top, acc)
        };
        let records = Mistique::load_audit(capture_dir.path()).unwrap();
        assert_eq!(records.len(), 4);

        let replay_dir = mistique_testkit::tempdir().unwrap();
        let mut fresh = Mistique::open(replay_dir.path(), config.clone()).unwrap();
        let outcome = replay_into(&mut fresh, &records, &ReplayOptions::default()).unwrap();
        assert_eq!(outcome.executed, 4);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.skipped.is_empty());

        // The replayed answers are bit-identical to the captured session's.
        let interms: Vec<String> = fresh
            .model_ids()
            .iter()
            .flat_map(|m| fresh.intermediates_of(m))
            .collect();
        assert_eq!(fresh.topk(&interms[0], "sqft", 7).unwrap(), expected.0);
        assert_eq!(fresh.pointq(&interms[0], "sqft", 11).unwrap(), expected.1);

        // An op this build does not know, between two real ones, is skipped
        // by name — not digested into the transcript as if it had run.
        let future = AuditRecord {
            seq: 77,
            op: "diag.future".to_string(),
            ..AuditRecord::default()
        };
        let journal = [records[0].clone(), future, records[1].clone()];
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(dir.path(), config).unwrap();
        let outcome = replay_into(&mut sys, &journal, &ReplayOptions::default()).unwrap();
        assert_eq!(outcome.executed, 2);
        assert_eq!(outcome.transcript.len(), 2);
        assert_eq!(
            outcome.skipped,
            [(77, "diag.future is not replayable".to_string())]
        );
    }
}
