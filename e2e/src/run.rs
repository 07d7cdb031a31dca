//! One run of one workload: several episodes — set-up, log phase (or the
//! scripted session) and a slice of the time-boxed query phase, each episode
//! on a fresh store — then metric assembly.
//!
//! Closed loop, one client, one thread: the next operation is issued when
//! the previous one has returned and been checked.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mistique_core::{Mistique, MistiqueConfig, PlanChoice, QueryReport, StorageStrategy};
use mistique_store::StorageBackend;

use crate::corpus::{reference_frames, Data, ModelSpec, WriteReplay};
use crate::ops::{Answer, Class, Op, Refs, Tol};
use crate::replay::ReadReplay;
use crate::tempdir::TempDir;
use crate::timedfs::{NoSyncFs, TimedFs};
use crate::trace::Tracer;
use crate::workload::{
    class_pass, svcca_comparable, svcca_op, target_of, ColPick, OpGen, Target, Workload,
};

/// `setup_s` is the fastest of a run's set-ups: at least `SETUP_REPS` of
/// them, and as many more as fit in `SETUP_SECONDS`, spread evenly over the
/// run's episodes.
const SETUP_REPS: usize = 36;
const SETUP_SECONDS: f64 = 1.0;
/// Queries per round of the scripted session, and rounds between reclaims.
const SESSION_QUERIES: usize = 20;
const RECLAIM_EVERY: usize = 4;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
}

/// A named value with its unit.
pub type Metric = (String, f64, &'static str);

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable report lines (sample counts, quartiles, fingerprint).
    pub report: Vec<String>,
}

/// The engine opened over freshly generated inputs, models registered.
pub(crate) struct Env {
    // Field order is drop order: the engine closes before its directory goes.
    pub(crate) sys: Mistique,
    pub(crate) fs: Option<Arc<TimedFs>>,
    pub(crate) data: Data,
    pub(crate) model_ids: Vec<String>,
    pub(crate) dir: TempDir,
}

fn setup(
    wl: &Workload,
    specs: &[ModelSpec],
    config: &MistiqueConfig,
    args: &Args,
) -> Result<Env, String> {
    let data = Data::generate(wl.zillow_rows, wl.cifar_examples);
    let dir = TempDir::new(wl.name).map_err(|e| format!("scratch dir: {e}"))?;
    // Traced: real `fsync`s, timed. Untraced: none (see `timedfs.rs`).
    let fs = args.trace.then(|| Arc::new(TimedFs::default()));
    let backend: Arc<dyn StorageBackend> = match &fs {
        Some(fs) => Arc::clone(fs) as Arc<dyn StorageBackend>,
        None => Arc::new(NoSyncFs::default()),
    };
    let mut sys = Mistique::open_with_backend(dir.path(), config.clone(), backend)
        .map_err(|e| format!("open: {e}"))?;
    let model_ids = specs
        .iter()
        .map(|s| {
            s.register(&mut sys, &data)
                .map_err(|e| format!("register: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Env {
        sys,
        fs,
        data,
        model_ids,
        dir,
    })
}

/// How a query is issued: after clearing the read cache, with the cache as
/// the previous queries left it, or as part of the scripted session (cache
/// never cleared).
#[derive(Clone, Copy, PartialEq, Eq)]
enum How {
    Cold,
    Warm,
    Session,
}

impl How {
    fn span_name(self, op: &Op) -> &'static str {
        match self {
            How::Cold => op.span_name(),
            How::Warm => "op.col_warm",
            How::Session => "op.session",
        }
    }
}

/// Everything measured while the workload runs.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// Answers served under a scheme with no static error bound: shape
    /// checked, values not.
    pub(crate) unverified: u64,
    pub(crate) failures: Vec<String>,
    /// Every cold latency sample per class (ns) and every warm `col`
    /// sample, all passes, for the report's quartiles and the p95s.
    pub(crate) cold: BTreeMap<Class, Vec<u64>>,
    pub(crate) warm_col: Vec<u64>,
    /// The latency of each class (ms), and of the warm `col` phase: see
    /// [`best_ms`].
    pub(crate) typical: BTreeMap<Class, f64>,
    pub(crate) typical_warm: f64,
    /// Timed queries — the session's, and one pass of the query phase at
    /// each operation's best time — and their summed time.
    pub(crate) queries: u64,
    pub(crate) query_ns: u64,
    /// Passes of the query phase that ran.
    pub(crate) passes: u64,
    /// The timed steps of the log phase — every `log_intermediates` call,
    /// then the final flush — and their sum: this episode's until
    /// [`best_of_episodes`] puts each step's best episode here.
    pub(crate) log_steps: Vec<(String, u64)>,
    pub(crate) log_ns: u64,
    pub(crate) logged_bytes: u64,
    /// Time of each query of the scripted session, in script order.
    pub(crate) session_query_ns: Vec<u64>,
    pub(crate) session_ns: u64,
    /// Per episode, for the report: log time, session query time (s) and
    /// `stored_ratio`.
    pub(crate) episodes: Vec<(f64, f64, f64)>,
    // From the engine's own per-query reports (facade calls only).
    pub(crate) plan_read: u64,
    pub(crate) plan_rerun: u64,
    pub(crate) plan_indexed: u64,
    pub(crate) pred_over_actual: Vec<f64>,
    pub(crate) drift_flags: u64,
    pub(crate) blocks_total: u64,
    pub(crate) blocks_skipped: u64,
    pub(crate) partitions_touched: u64,
    pub(crate) store_gets_bytes: u64,
    pub(crate) codec_bytes: u64,
    pub(crate) cold_ops_reading: u64,
    pub(crate) warm_cache_hits: u64,
    pub(crate) warm_disk_reads: u64,
    pub(crate) rehydrations: u64,
    pub(crate) promotions: u64,
    // Reclaim passes of the session.
    pub(crate) reclaim_ns: u64,
    pub(crate) reclaim_demotions: u64,
    pub(crate) reclaim_purges: u64,
    pub(crate) compact_bytes: u64,
    pub(crate) compact_ns: u64,
}

impl Tally {
    /// The tally of the next episode: the oracle's counts run on, the
    /// measurements start afresh.
    fn next_episode(self) -> Tally {
        Tally {
            attempted: self.attempted,
            failed: self.failed,
            unverified: self.unverified,
            failures: self.failures,
            ..Tally::default()
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

pub(crate) struct Runner<'a> {
    pub(crate) wl: &'a Workload,
    pub(crate) config: MistiqueConfig,
    pub(crate) env: Env,
    pub(crate) tr: Tracer,
    refs: Refs,
    /// `refs` came complete from an earlier episode.
    refs_carried: bool,
    pub(crate) tally: Tally,
    pub(crate) write_replay: Option<WriteReplay>,
    pub(crate) read_replay: Option<ReadReplay>,
}

impl Runner<'_> {
    fn last_seq(&self) -> u64 {
        self.env.sys.last_report().map_or(0, |r| r.seq)
    }

    /// The engine's reports for fetches issued after `seq`.
    fn reports_since(&self, seq: u64) -> Vec<QueryReport> {
        self.env
            .sys
            .query_reports(8)
            .into_iter()
            .filter(|r| r.seq > seq)
            .collect()
    }

    /// Issue one operation through the facade, time it, check its answer.
    /// `expected` caches the reference answer across passes. Returns the
    /// wall time in ns and the engine's reports for the call.
    fn exec(
        &mut self,
        op: &Op,
        expected: &mut Option<Answer>,
        how: How,
    ) -> (u64, Vec<QueryReport>) {
        if how == How::Cold {
            // Outside the timer. The OS page cache stays warm: these are
            // sandbox latencies, not a device's.
            self.env.sys.store_mut().clear_read_cache();
        }
        let seq = self.last_seq();
        self.tr.next_op();
        let t0 = Instant::now();
        let got = op.run(&mut self.env.sys);
        let ns = t0.elapsed().as_nanos() as u64;
        self.tr.record(how.span_name(op), ns);
        let reports = self.reports_since(seq);
        self.tally.attempted += 1;
        match got {
            Err(e) => self.tally.fail(format!("{op:?}: {e}")),
            Ok(answer) => {
                let tol = reports
                    .iter()
                    .map(|r| Tol::from_bound(r.error_bound))
                    .fold(Tol::Exact, Tol::weakest);
                if tol == Tol::Unbounded {
                    self.tally.unverified += 1;
                }
                let want = expected.get_or_insert_with(|| op.expected(&self.refs));
                if let Err(msg) = op.verify(&answer, want, tol, &self.refs) {
                    self.tally.fail(msg);
                }
            }
        }
        self.note_reports(&reports, op.class());
        (ns, reports)
    }

    fn note_reports(&mut self, reports: &[QueryReport], class: Class) {
        let t = &mut self.tally;
        for r in reports {
            let predicted = match r.plan {
                PlanChoice::Read => {
                    t.plan_read += 1;
                    Some(r.predicted_read_s)
                }
                PlanChoice::Rerun => {
                    t.plan_rerun += 1;
                    Some(r.predicted_rerun_s)
                }
                PlanChoice::IndexedRead => {
                    t.plan_indexed += 1;
                    None
                }
                _ => None,
            };
            // get_rows reports a Read plan but is not drift-monitored.
            if let (Some(p), Some(_)) = (predicted, r.drift_ratio) {
                let actual = r.actual.as_secs_f64();
                if p > 0.0 && actual > 0.0 {
                    t.pred_over_actual.push(p / actual);
                }
            }
            t.drift_flags += u64::from(r.drift_flagged);
            if let (Class::Pruned, Some(p)) = (class, r.pruning) {
                t.blocks_total += p.blocks_total as u64;
                t.blocks_skipped += p.blocks_skipped as u64;
            }
        }
    }

    /// Log one model through the facade (timed), then compute its reference
    /// frames (untimed; in a traced run this is also the write-stack replay).
    fn log_model(&mut self, index: usize, specs: &[ModelSpec]) -> Result<(), String> {
        let id = self.env.model_ids[index].clone();
        let before = self.env.sys.store().stats().logical_bytes;
        self.tr.next_op();
        let t0 = Instant::now();
        let logged = self.env.sys.log_intermediates(&id);
        let ns = t0.elapsed().as_nanos() as u64;
        self.tr.record("op.log", ns);
        self.tally.attempted += 1;
        self.tally.log_ns += ns;
        self.tally.log_steps.push((id.clone(), ns));
        if let Err(e) = logged {
            self.tally.fail(format!("log_intermediates({id}): {e}"));
            return Err(format!("log_intermediates({id}): {e}"));
        }
        // Bytes logged: what the store was handed, or — under Adaptive,
        // which stores nothing up front — the serialized size the engine
        // recorded for each intermediate.
        let put = self.env.sys.store().stats().logical_bytes - before;
        self.tally.logged_bytes +=
            if matches!(self.config.storage, StorageStrategy::Adaptive { .. }) {
                let meta = self.env.sys.metadata();
                meta.intermediates_of(&id)
                    .iter()
                    .map(|m| m.stored_bytes)
                    .sum()
            } else {
                put
            };

        // The corpus is a fixture: an earlier episode's frames still hold.
        if self.refs_carried {
            return Ok(());
        }
        let spec = &specs[index];
        let wl = self.wl;
        let keep = |stage: usize| wl.reads_stage(spec, stage);
        let sp = self.tr.enter("replay.write");
        let frames = reference_frames(
            spec,
            &id,
            &self.env.data,
            &self.config,
            &keep,
            &mut self.tr,
            // Under Adaptive nothing is stored at log time: there is no
            // write stack to replay beside the log call.
            self.write_replay.as_mut().filter(|_| !wl.is_session()),
        );
        self.tr.exit(sp);
        self.refs.extend(frames);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), String> {
        self.tr.next_op();
        let t0 = Instant::now();
        let flushed = self.env.sys.flush();
        let ns = t0.elapsed().as_nanos() as u64;
        self.tr.record("op.flush", ns);
        self.tally.attempted += 1;
        self.tally.log_ns += ns;
        self.tally.log_steps.push(("flush".to_string(), ns));
        flushed.map_err(|e| {
            self.tally.fail(format!("flush: {e}"));
            format!("flush: {e}")
        })
    }

    /// Targets of the given models, in model then stage order.
    fn targets_of(&self, specs: &[ModelSpec], models: &[usize]) -> Vec<Target> {
        let labels = self.env.data.cifar.as_ref().map(|c| c.labels.as_slice());
        let mut out = Vec::new();
        for &m in models {
            let id = &self.env.model_ids[m];
            let interms = self.env.sys.intermediates_of(id);
            for interm in interms {
                if let Some(frame) = self.refs.get(&interm) {
                    if frame.n_rows() >= 8 && frame.n_cols() >= 1 {
                        let l = if specs[m].is_dnn() { labels } else { None };
                        out.push(target_of(&interm, frame, l));
                    }
                }
            }
        }
        out
    }

    /// `svcca` pairs: the same stage of two models, for every pair of
    /// consecutive models of one family whose frames can be compared.
    fn svcca_pairs(&self, specs: &[ModelSpec], models: &[usize]) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for w in models.windows(2) {
            let (a, b) = (w[0], w[1]);
            if specs[a].is_dnn() != specs[b].is_dnn() {
                continue;
            }
            let ia = self.env.sys.intermediates_of(&self.env.model_ids[a]);
            let ib = self.env.sys.intermediates_of(&self.env.model_ids[b]);
            if ia.len() != ib.len() {
                continue;
            }
            for (x, y) in ia.iter().zip(&ib) {
                if let (Some(fa), Some(fb)) = (self.refs.get(x), self.refs.get(y)) {
                    if svcca_comparable(fa, fb) {
                        out.push((x.clone(), y.clone()));
                    }
                }
            }
        }
        out
    }

    /// The scripted session of `adaptive_session`: every round logs one new
    /// model, then runs queries Zipf-biased to the most recent models over
    /// every class — so queries re-run models, promote intermediates (puts
    /// inside the query path) and hit the read cache, which is never
    /// cleared here; every fourth round reclaims.
    fn session(&mut self, specs: &[ModelSpec], seed: u64) -> Result<(), String> {
        let t_session = Instant::now();
        let mut gen = OpGen::new(seed ^ 0x5E55, self.config.row_block_size);
        let promotions = self.env.sys.obs().counter("adaptive.materializations");
        let mut per_model: Vec<Vec<Target>> = Vec::new();
        for round in 0..specs.len() {
            self.log_model(round, specs)?;
            per_model.push(self.targets_of(specs, &[round]));
            let logged: Vec<usize> = (0..=round).collect();
            let pairs = self.svcca_pairs(
                specs,
                &logged
                    .iter()
                    .copied()
                    .filter(|&m| specs[m].is_dnn())
                    .collect::<Vec<_>>(),
            );
            for q in 0..SESSION_QUERIES {
                // Rank 0 is the newest model.
                let model = round - gen.script.zipf(round + 1);
                let targets = &per_model[model];
                let t = &targets[gen.script.below(targets.len())];
                let kind = gen.script.below(9);
                let op = match kind {
                    0 => gen.rows(t, ColPick::Scripted),
                    1..=3 => gen.col_op(t, kind, ColPick::Scripted),
                    4 => gen.pruned(t, &self.refs, ColPick::Scripted),
                    5..=7 => gen.frame_op(t, kind),
                    _ if !pairs.is_empty() => svcca_op(&pairs[(round + q) % pairs.len()]),
                    _ => gen.col_op(t, 0, ColPick::Scripted),
                };
                let (ns, _) = self.exec(&op, &mut None, How::Session);
                self.tally.session_query_ns.push(ns);
            }
            if (round + 1) % RECLAIM_EVERY == 0 {
                self.reclaim();
            }
        }
        self.tally.promotions = promotions.get();
        self.tally.session_ns = t_session.elapsed().as_nanos() as u64;
        Ok(())
    }

    fn reclaim(&mut self) {
        self.tr.next_op();
        let t0 = Instant::now();
        let out = self.env.sys.reclaim();
        let ns = t0.elapsed().as_nanos() as u64;
        self.tr.record("op.reclaim", ns);
        self.tally.attempted += 1;
        self.tally.reclaim_ns += ns;
        match out {
            Err(e) => self.tally.fail(format!("reclaim: {e}")),
            Ok(r) => {
                self.tally.reclaim_purges += r.purged.len() as u64;
                self.tally.reclaim_demotions += (r.demotions.len() - r.purged.len()) as u64;
                if let Some(c) = r.compaction {
                    self.tally.compact_bytes += c.bytes_reclaimed;
                }
            }
        }
        // Compaction has no timer of its own in the engine; a second pass
        // right after (nothing left to rewrite) times its scan.
        if self.tr.enabled() {
            let sp = self.tr.enter("store.compact");
            let t0 = Instant::now();
            let _ = self
                .env
                .sys
                .store_mut()
                .compact(mistique_core::COMPACT_LIVE_RATIO);
            self.tally.compact_ns += t0.elapsed().as_nanos() as u64;
            self.tr.exit(sp);
        }
    }

    fn physical_bytes(&self) -> Result<u64, String> {
        self.env
            .sys
            .store()
            .physical_bytes()
            .map_err(|e| format!("physical_bytes: {e}"))
    }

    /// The operation list of the query phase. The session's targets are its
    /// first two checkpoints: promoted by then, and at full precision. Its
    /// pipelines' stages are where reclaim's demotions land, and which rung
    /// of the ladder each has reached depends on measured times — reading
    /// them gave latencies that were bimodal from run to run.
    fn query_ops(&self, specs: &[ModelSpec], seed: u64) -> Result<Vec<Op>, String> {
        let models: Vec<usize> = if self.wl.is_session() {
            vec![1, 3]
        } else {
            (0..specs.len()).collect()
        };
        let targets = self.targets_of(specs, &models);
        let pairs = self.svcca_pairs(specs, &models);
        if targets.is_empty() || pairs.is_empty() {
            return Err(format!(
                "{}: no query targets ({} targets, {} svcca pairs)",
                self.wl.name,
                targets.len(),
                pairs.len()
            ));
        }
        let mut gen = OpGen::new(seed ^ 0xC1A5, self.config.row_block_size);
        Ok(class_pass(
            &self.wl.counts,
            &targets,
            &pairs,
            &self.refs,
            &mut gen,
        ))
    }

    /// One slice of the query phase: whole passes of `q`'s operation list
    /// until `seconds` have gone by. Every class is cold (read cache cleared
    /// before each query); then the `col` operations run again warm — once
    /// untimed to fill the cache, once timed.
    fn query_slice(&mut self, q: &mut QueryPhase, seconds: f64) {
        let keep_best = |slot: &mut Option<u64>, ns: u64, reports: &[QueryReport]| {
            if reports.iter().all(|r| r.plan != PlanChoice::Rerun) {
                *slot = Some(slot.map_or(ns, |b| b.min(ns)));
            }
        };
        let rehydrations = self.env.sys.obs().counter("store.delta.rehydrations");
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        loop {
            for (i, op) in q.ops.iter().enumerate() {
                let before = rehydrations.get();
                let (ns, reports) = self.exec(op, &mut q.expected[i], How::Cold);
                q.cold_by_op[i].push(ns);
                keep_best(&mut q.cold_best[i], ns, &reports);
                self.tally.rehydrations += rehydrations.get() - before;
                for r in &reports {
                    self.tally.partitions_touched += r.attribution.partitions_touched;
                    self.tally.store_gets_bytes += r.attribution.bytes;
                    self.tally.codec_bytes +=
                        r.attribution.codec_bytes.iter().map(|c| c.1).sum::<u64>();
                }
                self.tally.cold_ops_reading +=
                    u64::from(reports.iter().any(|r| r.attribution.gets > 0));
                if let Some(mut rr) = self.read_replay.take() {
                    rr.replay(
                        op,
                        ns,
                        &mut self.env,
                        &self.refs,
                        &self.config,
                        &mut self.tr,
                    );
                    self.read_replay = Some(rr);
                }
            }
            self.env.sys.store_mut().clear_read_cache();
            for &i in &q.col_ops {
                self.exec(&q.ops[i], &mut q.expected[i], How::Warm);
            }
            for &i in &q.col_ops {
                let (ns, reports) = self.exec(&q.ops[i], &mut q.expected[i], How::Warm);
                q.warm_by_op[i].push(ns);
                keep_best(&mut q.warm_best[i], ns, &reports);
                for r in &reports {
                    self.tally.warm_cache_hits += r.attribution.cache_hits + r.attribution.mem_hits;
                    self.tally.warm_disk_reads += r.attribution.disk_reads;
                }
            }
            q.passes += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
    }
}

/// The query phase of a run: a fixed operation list and every sample taken
/// of it. The phase runs in slices, one after each episode's log phase, on
/// that episode's store — the episodes log the same corpus, so an operation
/// is the same work in every slice — which spreads an operation's samples
/// over the whole run: the host's slow stretches last seconds to tens of
/// seconds, and a phase run in one piece can sit inside one.
struct QueryPhase {
    ops: Vec<Op>,
    /// Indices of the `col` operations, which run again warm.
    col_ops: Vec<usize>,
    /// The reference answer of each operation, computed on first use.
    expected: Vec<Option<Answer>>,
    /// One sample per operation per pass.
    cold_by_op: Vec<Vec<u64>>,
    warm_by_op: Vec<Vec<u64>>,
    /// Each operation's best pass among those the planner served by
    /// reading (see `best_ms`).
    cold_best: Vec<Option<u64>>,
    warm_best: Vec<Option<u64>>,
    passes: u64,
}

impl QueryPhase {
    fn new(ops: Vec<Op>) -> QueryPhase {
        let n = ops.len();
        QueryPhase {
            col_ops: (0..n).filter(|&i| ops[i].class() == Class::Col).collect(),
            expected: vec![None; n],
            cold_by_op: vec![Vec::new(); n],
            warm_by_op: vec![Vec::new(); n],
            cold_best: vec![None; n],
            warm_best: vec![None; n],
            passes: 0,
            ops,
        }
    }

    /// Write the class latencies, the samples and one pass's queries at
    /// their best times into `tally`.
    fn finish(self, tally: &mut Tally) {
        tally.passes = self.passes;
        let warm = || self.col_ops.iter().map(|&i| &self.warm_by_op[i]);
        let best_total: u64 = self
            .cold_by_op
            .iter()
            .chain(warm())
            .filter_map(|s| s.iter().min())
            .sum();
        tally.queries += (self.ops.len() + self.col_ops.len()) as u64;
        tally.query_ns += best_total;
        for class in Class::ALL {
            let of_class = || (0..self.ops.len()).filter(|&i| self.ops[i].class() == class);
            tally
                .typical
                .insert(class, best_ms(of_class().map(|i| self.cold_best[i])));
            let all = of_class().flat_map(|i| self.cold_by_op[i].iter().copied());
            tally.cold.insert(class, all.collect());
        }
        tally.typical_warm = best_ms(self.col_ops.iter().map(|&i| self.warm_best[i]));
        tally.warm_col = warm().flatten().copied().collect();
    }
}

/// The latency of a class, in ms, from each of its operations' best pass
/// (`None`: the operation was never served by a read).
///
/// Every pass repeats the same operations, so each operation has one sample
/// per pass; take each operation's **best pass**, then the **mean over the
/// class's operations**.
///
/// Best, not median: the host's noise is one-sided — a neighbour slows
/// stretches of seconds down by 10–40 %, nothing speeds one up — and comes
/// in regimes that last minutes. Of ten runs of identical work the
/// per-operation median spread by up to 58 % under a bursty neighbour, the
/// median of the quieter half of the passes by 33 %, the minimum by 23 %
/// (and by 2–8 % on a quiet host). The minimum is what the operation costs
/// when nothing interferes, which is the quantity a code change moves.
///
/// Mean over operations, not median: a class's targets differ in shape (a
/// 3-column frame beside a 60-column one), and a median over such a mix sits
/// between its modes and jumps when the proportions shift by one operation.
///
/// Reads only: the classes are read latencies. A pass in which the planner
/// re-ran the model instead (20× the time, and the planner flips on its own
/// noisy calibration: three `pointq`s of one conv layer re-running or not
/// moved `col_warm_ms`@`adaptive_session` by 40 %) does not count towards
/// the operation's best; re-runs show in `queries_per_s` and
/// `core.plan.rerun`.
fn best_ms(best_ns: impl Iterator<Item = Option<u64>>) -> f64 {
    let best: Vec<f64> = best_ns.flatten().map(|ns| ns as f64 / 1e6).collect();
    if best.is_empty() {
        0.0
    } else {
        best.iter().sum::<f64>() / best.len() as f64
    }
}

/// `VmHWM` of this process in MB (10^6 bytes); 0 where `/proc` is missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// What one episode measured, for [`best_of_episodes`].
struct Episode {
    log_steps: Vec<u64>,
    session_query_ns: Vec<u64>,
    stored_ratio: f64,
}

/// Fold the episodes into the last one's tally: every timed step of the log
/// phase and every query of the session at its best episode, by the rule of
/// [`best_ms`] — the episodes repeat the same steps on the same corpus, so a
/// step's fastest episode is what it costs when nothing interferes. Returns
/// `stored_ratio`: the episodes' median, which is every episode's value
/// wherever measured times do not steer what is stored.
fn best_of_episodes(tally: &mut Tally, history: &[Episode]) -> f64 {
    let best = |pick: fn(&Episode) -> &Vec<u64>, i: usize| {
        history
            .iter()
            .filter_map(|e| pick(e).get(i).copied())
            .min()
            .unwrap_or(0)
    };
    for (i, step) in tally.log_steps.iter_mut().enumerate() {
        step.1 = best(|e| &e.log_steps, i);
    }
    tally.log_ns = tally.log_steps.iter().map(|s| s.1).sum();
    tally.queries = tally.session_query_ns.len() as u64;
    tally.query_ns = (0..tally.session_query_ns.len())
        .map(|i| best(|e| &e.session_query_ns, i))
        .sum();
    let secs = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / 1e9;
    tally.episodes = history
        .iter()
        .map(|e| {
            (
                secs(&e.log_steps),
                secs(&e.session_query_ns),
                e.stored_ratio,
            )
        })
        .collect();
    let ratios: Vec<f64> = history.iter().map(|e| e.stored_ratio).collect();
    crate::stats::median(&ratios)
}

pub fn run(wl: &Workload, args: &Args) -> Result<Outcome, String> {
    let config = wl.config();
    let specs = wl.models();
    let all: Vec<usize> = (0..specs.len()).collect();
    // A traced run replays every stack beside the engine's own: once.
    let episodes = if args.trace { 1 } else { wl.episodes };

    let mut setup_s = Vec::new();
    let mut history = Vec::with_capacity(episodes);
    let mut phase: Option<QueryPhase> = None;
    let mut last: Option<Runner> = None;
    for _ in 0..episodes {
        // The previous episode's engine closes, and its directory goes,
        // before the next is set up.
        let (refs, tally) = match last.take() {
            Some(r) => (r.refs, r.tally.next_episode()),
            None => (Refs::new(), Tally::default()),
        };

        // Set-up, several times over: generate the corpus, open the engine
        // on an empty directory, register the models.
        let mut env = None;
        let t_setups = Instant::now();
        let mut reps = 0;
        while reps < SETUP_REPS.div_ceil(episodes)
            || t_setups.elapsed().as_secs_f64() < SETUP_SECONDS / episodes as f64
        {
            drop(env.take());
            let t0 = Instant::now();
            env = Some(setup(wl, &specs, &config, args)?);
            setup_s.push(t0.elapsed().as_secs_f64());
            reps += 1;
        }
        let mut r = Runner {
            wl,
            write_replay: args.trace.then(|| WriteReplay::new(&config)),
            read_replay: args.trace.then(ReadReplay::default),
            config: config.clone(),
            env: env.expect("SETUP_REPS > 0"),
            tr: Tracer::new(args.trace),
            refs_carried: !refs.is_empty(),
            refs,
            tally,
        };

        // Log phase (fixed work) — or the session, which interleaves it.
        if wl.is_session() {
            r.session(&specs, args.seed)?;
        } else {
            for &m in &all {
                r.log_model(m, &specs)?;
            }
        }
        r.flush()?;
        history.push(Episode {
            log_steps: r.tally.log_steps.iter().map(|s| s.1).collect(),
            session_query_ns: r.tally.session_query_ns.clone(),
            stored_ratio: r.physical_bytes()? as f64 / r.tally.logged_bytes.max(1) as f64,
        });
        if let Some(wr) = r.write_replay.as_mut() {
            wr.reseal(r.env.dir.path(), &mut r.tr)?;
        }

        // This episode's slice of the query phase.
        let q = match &mut phase {
            Some(q) => q,
            None => phase.insert(QueryPhase::new(r.query_ops(&specs, args.seed)?)),
        };
        r.query_slice(q, args.seconds * wl.query_share / episodes as f64);
        last = Some(r);
    }
    let mut r = last.expect("a workload has at least one episode");
    let stored_ratio = best_of_episodes(&mut r.tally, &history);
    phase
        .expect("a workload has at least one episode")
        .finish(&mut r.tally);
    let physical = r.physical_bytes()?;

    let outcome =
        crate::metrics::assemble(&r, args, &setup_s, stored_ratio, physical, peak_rss_mb());
    if let Some(path) = &args.trace_out {
        std::fs::write(path, r.tr.to_json())
            .map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_latency_is_the_mean_of_the_operations_best_passes() {
        assert_eq!(best_ms([Some(1_000_000), Some(5_000_000)].into_iter()), 3.0);
        // An operation that was never served by a read does not count.
        assert_eq!(best_ms([Some(1_000_000), None].into_iter()), 1.0);
        assert_eq!(best_ms([None].into_iter()), 0.0);
        assert_eq!(best_ms(std::iter::empty()), 0.0);
    }

    #[test]
    fn episodes_fold_into_each_steps_best() {
        let episode = |log: [u64; 2], session: [u64; 2], stored_ratio| Episode {
            log_steps: log.to_vec(),
            session_query_ns: session.to_vec(),
            stored_ratio,
        };
        let history = [
            episode([10, 50], [7, 1], 0.3),
            episode([30, 20], [5, 9], 0.1),
            episode([40, 60], [6, 8], 0.2),
        ];
        // The tally is the last episode's.
        let mut tally = Tally {
            log_steps: vec![("m".to_string(), 40), ("flush".to_string(), 60)],
            log_ns: 100,
            session_query_ns: vec![6, 8],
            ..Tally::default()
        };
        let stored_ratio = best_of_episodes(&mut tally, &history);
        assert_eq!(tally.log_steps[0].1, 10);
        assert_eq!(tally.log_steps[1].1, 20);
        assert_eq!(tally.log_ns, 30);
        assert_eq!((tally.queries, tally.query_ns), (2, 5 + 1));
        assert_eq!(stored_ratio, 0.2);
    }
}
