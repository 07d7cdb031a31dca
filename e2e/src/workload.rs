//! The four workloads: what each logs, under which configuration, and the
//! fixed query mix it runs. Sizes are set so that one run (its episodes of
//! set-ups and log phase, the reference computation and `--seconds` of
//! queries) fits the benchmark's time cap on a 2-core sandbox; rows and
//! examples were scaled down to get there, never the mix. See README.md for
//! the reasoning.

use std::sync::Arc;

use mistique_core::{MistiqueConfig, StorageStrategy};
use mistique_dataframe::DataFrame;
use mistique_nn::{simple_cnn, vgg16_cifar};
use mistique_pipeline::templates::zillow_pipelines;

use crate::corpus::ModelSpec;
use crate::ops::{Class, Groups, Op, Refs};
use crate::rng::Rng;

/// Layers of `simple_cnn(16)` the query phases read: the last conv layer
/// (256 pooled columns), the dense layer (32) and the classifier (10).
const CNN_LAYERS: [usize; 3] = [5, 8, 9];
/// The same three roles in `vgg16_cifar(8)`: conv 4-3 (256 pooled columns),
/// dense (64), classifier (10).
const VGG_LAYERS: [usize; 3] = [13, 20, 21];

/// γ threshold of the adaptive strategy, seconds saved per byte stored:
/// the value `crates/bench/src/bin/fig10.rs` uses (3e-5 s/KB).
const ADAPTIVE_GAMMA_MIN: f64 = 3e-5 / 1024.0;
/// Storage budget of `adaptive_session`. The same corpus takes 10.4 MB
/// under `Dedup`; the issue's "half of that" is never reached by what the
/// session promotes, and reclaim would have nothing to do. 1.75 MB (17 %)
/// is just under what the promotions add up to: every reclaim demotes
/// (about a dozen ladder steps per session).
const ADAPTIVE_BUDGET_BYTES: u64 = 1_750_000;

/// Operations of each class in one pass of the query phase.
#[derive(Clone, Copy)]
pub struct PassCounts {
    pub rows: usize,
    pub col: usize,
    pub pruned: usize,
    pub frame: usize,
    pub svcca: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    TradRead,
    DnnRead,
    DnnLog,
    AdaptiveSession,
}

pub struct Workload {
    pub name: &'static str,
    kind: Kind,
    pub zillow_rows: usize,
    pub cifar_examples: usize,
    /// Times the set-up and the log phase (or the session) are run, each on
    /// a fresh store; see `run::best_of_episodes`.
    pub episodes: usize,
    /// Share of `--seconds` the query phase gets: all of it on the read
    /// workloads, half where the workload's own phase — the log phase, the
    /// session — is what it is there to measure.
    pub query_share: f64,
    pub counts: PassCounts,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "trad_read",
        kind: Kind::TradRead,
        zillow_rows: 5000,
        cifar_examples: 0,
        episodes: 5,
        query_share: 1.0,
        counts: PassCounts {
            rows: 200,
            col: 150,
            pruned: 100,
            frame: 30,
            svcca: 10,
        },
    },
    Workload {
        name: "dnn_read",
        kind: Kind::DnnRead,
        zillow_rows: 0,
        cifar_examples: 2000,
        episodes: 3,
        query_share: 1.0,
        counts: PassCounts {
            rows: 96,
            col: 72,
            pruned: 72,
            frame: 24,
            svcca: 6,
        },
    },
    Workload {
        name: "dnn_log",
        kind: Kind::DnnLog,
        zillow_rows: 0,
        cifar_examples: 100,
        episodes: 1,
        query_share: 0.5,
        counts: PassCounts {
            rows: 48,
            col: 54,
            pruned: 36,
            frame: 12,
            svcca: 6,
        },
    },
    Workload {
        name: "adaptive_session",
        kind: Kind::AdaptiveSession,
        zillow_rows: 2000,
        cifar_examples: 400,
        episodes: 5,
        query_share: 0.5,
        counts: PassCounts {
            rows: 100,
            col: 75,
            pruned: 50,
            frame: 30,
            svcca: 6,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One intermediate the query phase reads.
pub struct Target {
    pub interm: String,
    pub n_rows: usize,
    pub cols: Vec<String>,
    /// Group of each row for `vis` (class labels for DNNs, `row % 10` for
    /// TRAD frames).
    pub groups: Arc<Vec<u8>>,
}

pub const N_GROUPS: usize = 10;

impl Workload {
    /// `MistiqueConfig::default()` unless the workload says otherwise, so a
    /// later change of a default shows.
    pub fn config(&self) -> MistiqueConfig {
        match self.kind {
            Kind::AdaptiveSession => MistiqueConfig {
                storage: StorageStrategy::Adaptive {
                    gamma_min: ADAPTIVE_GAMMA_MIN,
                },
                storage_budget_bytes: ADAPTIVE_BUDGET_BYTES,
                ..MistiqueConfig::default()
            },
            _ => MistiqueConfig::default(),
        }
    }

    /// Is this the scripted session (log, query and reclaim interleaved)?
    pub fn is_session(&self) -> bool {
        self.kind == Kind::AdaptiveSession
    }

    /// The models, in the order they are logged.
    pub fn models(&self) -> Vec<ModelSpec> {
        let cnn = Arc::new(simple_cnn(16));
        let cnn_epochs = |n: u32| {
            (0..n).map(|epoch| ModelSpec::Dnn {
                arch: Arc::clone(&cnn),
                epoch,
            })
        };
        match self.kind {
            // Every other pipeline of the 50: 20 pipelines over templates
            // P1–P8, two or three hyper-parameter variants of each.
            Kind::TradRead => zillow_pipelines()
                .into_iter()
                .step_by(2)
                .take(20)
                .map(ModelSpec::Trad)
                .collect(),
            Kind::DnnRead => cnn_epochs(2).collect(),
            Kind::DnnLog => {
                let vgg = Arc::new(vgg16_cifar(8));
                (0..3)
                    .map(|epoch| ModelSpec::Dnn {
                        arch: Arc::clone(&vgg),
                        epoch,
                    })
                    .chain(cnn_epochs(3))
                    .collect()
            }
            // One new model per round, a pipeline and a checkpoint in turn.
            Kind::AdaptiveSession => {
                let mut pipelines = zillow_pipelines().into_iter().step_by(7).take(4);
                let mut epochs = cnn_epochs(4);
                (0..8)
                    .map(|round| match round % 2 {
                        0 => ModelSpec::Trad(pipelines.next().expect("four pipelines")),
                        _ => epochs.next().expect("four checkpoints"),
                    })
                    .collect()
            }
        }
    }

    /// Does the query phase read stage `stage` (0-based) of `spec`? Only
    /// those stages' reference frames are kept in memory.
    pub fn reads_stage(&self, spec: &ModelSpec, stage: usize) -> bool {
        match spec {
            // Four stages spread over the pipeline, the last (predictions)
            // included; fixed by position so every seed reads the same mix.
            ModelSpec::Trad(p) => {
                let n = p.len();
                self.is_session() || [n / 4, n / 2, 3 * n / 4, n - 1].contains(&stage)
            }
            ModelSpec::Dnn { arch, .. } => {
                let layers = if arch.name.contains("VGG") {
                    VGG_LAYERS
                } else {
                    CNN_LAYERS
                };
                layers.contains(&(stage + 1))
            }
        }
    }
}

/// Build the target of one kept reference frame.
pub fn target_of(interm: &str, frame: &DataFrame, labels: Option<&[u8]>) -> Target {
    let n_rows = frame.n_rows();
    let groups = match labels {
        Some(l) => l[..n_rows.min(l.len())].to_vec(),
        None => (0..n_rows).map(|r| (r % N_GROUPS) as u8).collect(),
    };
    Target {
        interm: interm.to_string(),
        n_rows,
        cols: frame.column_names().iter().map(|c| c.to_string()).collect(),
        groups: Arc::new(groups),
    }
}

/// Widest frame `svcca` is asked to compare: its SVDs grow with the cube of
/// the column count, and at 256 columns one call takes ~20 s here.
const SVCCA_MAX_COLS: usize = 64;

/// Can `svcca` compare these two frames? Same rows, between two and
/// [`SVCCA_MAX_COLS`] columns each, and no value an SVD would choke on.
pub fn svcca_comparable(a: &DataFrame, b: &DataFrame) -> bool {
    let fits = |f: &DataFrame| (2..=SVCCA_MAX_COLS).contains(&f.n_cols());
    let finite = |f: &DataFrame| {
        f.columns()
            .iter()
            .all(|c| c.data.to_f64().iter().all(|v| v.is_finite()))
    };
    a.n_rows() == b.n_rows() && a.n_rows() > 1 && fits(a) && fits(b) && finite(a) && finite(b)
}

/// Draws operations over targets. What is read — which model, which
/// intermediate, which column, which kind of query — is fixed: the query
/// phase spreads it evenly, the session draws it from `script`, a generator
/// with a constant seed. `--seed` drives `rng`, which picks the rows.
pub struct OpGen {
    pub rng: Rng,
    pub script: Rng,
    pub row_block_size: usize,
}

impl OpGen {
    pub fn new(seed: u64, row_block_size: usize) -> OpGen {
        OpGen {
            rng: Rng::new(seed),
            script: Rng::new(crate::corpus::FIXTURE_SEED),
            row_block_size,
        }
    }
}

/// How an operation's column is chosen.
#[derive(Clone, Copy)]
pub enum ColPick {
    /// Drawn by the session's script.
    Scripted,
    /// The middle of the `k`-th of `of` equal slices of the target's column
    /// range (the query phase): a target visited `of` times in a pass has
    /// every part of its range read, the same columns on every seed.
    /// Columns are stored in order, so the position in the range decides
    /// the partition, whether the chunk is a delta or all zeros — and with
    /// them the cost, by up to 10×. Drawing columns by the seed let it decide
    /// how many expensive columns a pass happened to hit, which moved the
    /// class latencies by ±30 % from seed to seed.
    Spread { k: usize, of: usize },
}

impl OpGen {
    fn col(&mut self, t: &Target, pick: ColPick) -> String {
        let n = t.cols.len();
        let i = match pick {
            ColPick::Scripted => self.script.below(n),
            ColPick::Spread { k, of } => ((2 * k + 1) * n / (2 * of)).min(n - 1),
        };
        t.cols[i].clone()
    }

    /// Four rows inside one RowBlock, one column: the block-targeted read.
    pub fn rows(&mut self, t: &Target, pick: ColPick) -> Op {
        let rbs = self.row_block_size;
        let block = self.rng.below(t.n_rows.div_ceil(rbs));
        let (lo, hi) = (block * rbs, ((block + 1) * rbs).min(t.n_rows));
        let rows = (0..4).map(|_| lo + self.rng.below(hi - lo)).collect();
        Op::Rows {
            interm: t.interm.clone(),
            rows,
            col: self.col(t, pick),
        }
    }

    /// Whole-column diagnostics; `which` cycles pointq / topk / col_dist.
    /// k = 64 exceeds the default `index_top_m`, so top-k is a scan.
    pub fn col_op(&mut self, t: &Target, which: usize, pick: ColPick) -> Op {
        let (interm, col) = (t.interm.clone(), self.col(t, pick));
        match which % 3 {
            0 => Op::Pointq {
                interm,
                col,
                row: self.rng.below(t.n_rows),
            },
            1 => Op::Topk {
                interm,
                col,
                k: 64.min(t.n_rows),
            },
            _ => Op::ColDist {
                interm,
                col,
                buckets: 20,
            },
        }
    }

    /// `select_where_gt` at the column's p99.9: few rows pass, so the zone
    /// maps can skip most blocks.
    pub fn pruned(&mut self, t: &Target, refs: &Refs, pick: ColPick) -> Op {
        let col = self.col(t, pick);
        let values: Vec<f64> = refs[&t.interm]
            .column(&col)
            .expect("target columns come from the reference frame")
            .data
            .to_f64()
            .into_iter()
            .filter(|v| v.is_finite())
            .collect();
        let threshold = if values.is_empty() {
            0.0
        } else {
            crate::stats::percentile(&values, 0.999)
        };
        Op::Pruned {
            interm: t.interm.clone(),
            col,
            threshold,
        }
    }

    /// All-column diagnostics; `which` cycles knn / row_diff / vis.
    pub fn frame_op(&mut self, t: &Target, which: usize) -> Op {
        let interm = t.interm.clone();
        match which % 3 {
            0 => Op::Knn {
                interm,
                row: self.rng.below(t.n_rows),
                k: 10.min(t.n_rows - 1),
            },
            1 => Op::RowDiff {
                interm,
                a: self.rng.below(t.n_rows),
                b: self.rng.below(t.n_rows),
            },
            _ => Op::Vis {
                interm,
                groups: Groups(Arc::clone(&t.groups)),
                n_groups: N_GROUPS,
            },
        }
    }
}

pub fn svcca_op(pair: &(String, String)) -> Op {
    Op::Svcca {
        a: pair.0.clone(),
        b: pair.1.clone(),
        frac: 0.99,
    }
}

/// One pass of the query phase: a fixed number of operations per class,
/// walking the targets round-robin (each class starts at its own offset) and
/// each target's columns evenly, so every seed reads the same chunks; the
/// seed picks the rows.
pub fn class_pass(
    counts: &PassCounts,
    targets: &[Target],
    pairs: &[(String, String)],
    refs: &Refs,
    gen: &mut OpGen,
) -> Vec<Op> {
    let mut ops = Vec::new();
    let n = targets.len();
    // Visit `v` of a class goes to target `(v + offset) % n`; it is that
    // target's `v / n`-th visit out of `ceil(visits / n)`.
    let t = |v: usize, class: Class| &targets[(v + class as usize * 7) % n];
    let visit = |v: usize, visits: usize| ColPick::Spread {
        k: v / n,
        of: visits.div_ceil(n),
    };
    for i in 0..counts.rows {
        ops.push(gen.rows(t(i, Class::Rows), visit(i, counts.rows)));
    }
    for i in 0..counts.col {
        // Three consecutive operations (one of each kind) share a target.
        ops.push(gen.col_op(
            t(i / 3, Class::Col),
            i,
            visit(i / 3, counts.col.div_ceil(3)),
        ));
    }
    for i in 0..counts.pruned {
        ops.push(gen.pruned(t(i, Class::Pruned), refs, visit(i, counts.pruned)));
    }
    for i in 0..counts.frame {
        ops.push(gen.frame_op(t(i / 3, Class::Frame), i));
    }
    for i in 0..counts.svcca {
        ops.push(svcca_op(&pairs[i % pairs.len()]));
    }
    ops
}
