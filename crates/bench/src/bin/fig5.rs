//! Figure 5: end-to-end execution times for the diagnostic queries of
//! Table 5, fetched by reading stored intermediates vs re-running the model.
//!
//! - `--part a` (default): TRAD (Zillow) — the paper reports read always
//!   wins, 2.5×–390×.
//! - `--part b|c|d`: DNN (CIFAR10_VGG16) at layer 21 / 11 / 1 — the paper
//!   reports 60–210× (L21), 2–42× (L11), and re-run winning for some queries
//!   at L1.
//!
//! Flags: `--rows N --examples N --scale N --part a|b|c|d|all`

use mistique_bench::*;
use mistique_core::{FetchResult, FetchStrategy, Mistique, StorageStrategy};
use mistique_linalg::stats::pearson;
use mistique_nn::vgg16_cifar;
use std::time::Duration;

struct QueryOutcome {
    name: String,
    read: Duration,
    rerun: Duration,
    chosen: FetchStrategy,
}

fn row(q: QueryOutcome) -> Vec<String> {
    let speedup = q.rerun.as_secs_f64() / q.read.as_secs_f64().max(1e-12);
    vec![
        q.name,
        fmt_dur(q.read),
        fmt_dur(q.rerun),
        format!("{:?}", q.chosen),
        format!("{speedup:.1}x"),
    ]
}

/// The strategy the cost model's predictions favour for this fetch.
fn model_pick(r: &FetchResult) -> FetchStrategy {
    if r.predicted_rerun >= r.predicted_read {
        FetchStrategy::Read
    } else {
        FetchStrategy::Rerun
    }
}

/// Run one named query under both strategies; `f` executes the analysis
/// given the fetched frame columns.
fn measure(
    sys: &mut Mistique,
    name: &str,
    interm: &str,
    cols: Option<&[&str]>,
    n_ex: Option<usize>,
    compute: impl Fn(&mistique_dataframe::DataFrame),
) -> QueryOutcome {
    let (read_res, read) = cold_read(sys, interm, cols, n_ex);
    compute(&read_res.frame);
    let (rerun_res, rerun) = timed_fetch(sys, interm, cols, n_ex, FetchStrategy::Rerun);
    compute(&rerun_res.frame);
    QueryOutcome {
        name: name.to_string(),
        read,
        rerun,
        chosen: model_pick(&read_res),
    }
}

fn part_a(rows: usize) {
    println!("\n== Fig 5a: TRAD (Zillow) query times, read vs re-run ==");
    let dir = mistique_testkit::tempdir().unwrap();
    let (mut sys, ids, data) = zillow_system(dir.path(), rows, 6, StorageStrategy::Dedup);
    let p0 = &ids[0]; // P1_v0
    let interms = sys.intermediates_of(p0);
    let raw_props = interms[0].clone(); // ReadCSV(properties)
    let features = interms
        .iter()
        .find(|i| i.contains("DropColumns") && !i.contains("interm8"))
        .cloned()
        .unwrap_or_else(|| interms[6].clone());
    let preds = interms.last().unwrap().clone();
    // A second model's predictions for COL_DIFF.
    let preds_b = sys.intermediates_of(&ids[1]).last().unwrap().clone();

    let mut rows_out = Vec::new();

    // FCFR: POINTQ — average lot size feature for Home-135.
    rows_out.push(row(measure(
        &mut sys,
        "POINTQ (FCFR)",
        &raw_props,
        Some(&["lot_size"]),
        None,
        |f| {
            let _ = f.columns()[0].data.to_f64()[135];
        },
    )));
    // FCFR: TOPK — prediction error on the 10 most recently built homes.
    rows_out.push(row(measure(
        &mut sys,
        "TOPK (FCFR)",
        &raw_props,
        Some(&["year_built"]),
        None,
        |f| {
            let mut v: Vec<(usize, f64)> = f.columns()[0]
                .data
                .to_f64()
                .into_iter()
                .enumerate()
                .collect();
            v.sort_by(|a, b| b.1.total_cmp(&a.1));
            v.truncate(10);
        },
    )));
    // FCMR: COL_DIFF — compare model performance between two pipelines.
    {
        let pred = Some(&["pred"][..]);
        let (ra, t1) = cold_read(&mut sys, &preds, pred, None);
        let (rb, t2) = timed_fetch(&mut sys, &preds_b, pred, None, FetchStrategy::Read);
        let (_, t3) = timed_fetch(&mut sys, &preds, pred, None, FetchStrategy::Rerun);
        let (_, t4) = timed_fetch(&mut sys, &preds_b, pred, None, FetchStrategy::Rerun);
        let a = ra.frame.columns()[0].data.to_f64();
        let b = rb.frame.columns()[0].data.to_f64();
        let _diff = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| (**x - **y).abs() > 1e-9)
            .count();
        rows_out.push(row(QueryOutcome {
            name: "COL_DIFF (FCMR)".into(),
            read: t1 + t2,
            rerun: t3 + t4,
            chosen: model_pick(&ra),
        }));
    }
    // FCMR: COL_DIST — plot the error rates for all homes.
    rows_out.push(row(measure(
        &mut sys,
        "COL_DIST (FCMR)",
        &preds,
        Some(&["pred"]),
        None,
        |f| {
            let v = f.columns()[0].data.to_f64();
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let w = ((hi - lo) / 20.0).max(1e-12);
            let mut hist = [0usize; 20];
            for x in v {
                hist[(((x - lo) / w) as usize).min(19)] += 1;
            }
        },
    )));
    // MCFR: KNN — predictions for the 10 homes most similar to Home-50.
    rows_out.push(row(measure(
        &mut sys,
        "KNN (MCFR)",
        &features,
        None,
        None,
        |f| {
            let cols: Vec<Vec<f64>> = f.columns().iter().map(|c| c.data.to_f64()).collect();
            let n = f.n_rows();
            let mut d: Vec<(usize, f64)> = (0..n)
                .map(|i| (i, cols.iter().map(|c| (c[i] - c[50]).powi(2)).sum()))
                .collect();
            d.sort_by(|a, b| a.1.total_cmp(&b.1));
            d.truncate(11);
        },
    )));
    // MCFR: ROW_DIFF — compare features for Home-50 and Home-55.
    rows_out.push(row(measure(
        &mut sys,
        "ROW_DIFF (MCFR)",
        &features,
        None,
        None,
        |f| {
            let _: Vec<f64> = f
                .columns()
                .iter()
                .map(|c| {
                    let v = c.data.to_f64();
                    v[50] - v[55]
                })
                .collect();
        },
    )));
    // MCMR: VIS — average feature values grouped by home type.
    rows_out.push(row(measure(
        &mut sys,
        "VIS (MCMR)",
        &features,
        None,
        None,
        |f| {
            let _: Vec<f64> = f
                .columns()
                .iter()
                .map(|c| {
                    let v = c.data.to_f64();
                    v.iter().sum::<f64>() / v.len() as f64
                })
                .collect();
        },
    )));
    // MCMR: CORR — features most correlated with the residual errors.
    {
        let target_col = data.train.column("logerror").unwrap().data.to_f64();
        let n = target_col.len();
        rows_out.push(row(measure(
            &mut sys,
            "CORR (MCMR)",
            &features,
            None,
            None,
            move |f| {
                let _: Vec<f64> = f
                    .columns()
                    .iter()
                    .map(|c| {
                        let v = c.data.to_f64();
                        let m = v.len().min(n);
                        pearson(&v[..m], &target_col[..m])
                    })
                    .collect();
            },
        )));
    }

    print_table(
        &[
            "query",
            "t_read",
            "t_rerun",
            "cost model picks",
            "read speedup",
        ],
        &rows_out,
    );
}

fn part_dnn(part: &str, examples: usize, scale: usize) {
    let dir = mistique_testkit::tempdir().unwrap();
    let (mut sys, ids, data) = dnn_system(
        dir.path(),
        vgg16_cifar(scale),
        examples,
        1,
        mistique_core::CaptureScheme::pool2(),
        StorageStrategy::Dedup,
    );
    let model = &ids[0];
    let n_layers = sys.intermediates_of(model).len();
    let layer = match part {
        "b" => n_layers, // last layer (layer 21 for VGG16)
        "c" => 11.min(n_layers),
        "d" => 1,
        _ => unreachable!(),
    };
    println!("\n== Fig 5{part}: DNN (CIFAR10_VGG16) query times at layer {layer} of {n_layers} ==");
    let interm = format!("{model}.layer{layer}");
    let meta = sys.metadata().intermediate(&interm).unwrap().clone();
    let n_cols = meta.columns.len();

    let mut rows_out = Vec::new();
    let first_col = meta.columns[0].clone();
    // POINTQ: one neuron, one image.
    rows_out.push(row(measure(
        &mut sys,
        "POINTQ (FCFR)",
        &interm,
        Some(&[first_col.as_str()]),
        None,
        |f| {
            let _ = f.columns()[0].data.to_f64()[0];
        },
    )));
    // TOPK: top-10 images by one neuron's activation.
    rows_out.push(row(measure(
        &mut sys,
        "TOPK (FCFR)",
        &interm,
        Some(&[first_col.as_str()]),
        None,
        |f| {
            let mut v: Vec<(usize, f64)> = f.columns()[0]
                .data
                .to_f64()
                .into_iter()
                .enumerate()
                .collect();
            v.sort_by(|a, b| b.1.total_cmp(&a.1));
            v.truncate(10);
        },
    )));
    // COL_DIST over one activation column.
    rows_out.push(row(measure(
        &mut sys,
        "COL_DIST (FCMR)",
        &interm,
        Some(&[first_col.as_str()]),
        None,
        |f| {
            let v = f.columns()[0].data.to_f64();
            let _mean = v.iter().sum::<f64>() / v.len() as f64;
        },
    )));
    // KNN over the full representation.
    rows_out.push(row(measure(
        &mut sys,
        "KNN (MCFR)",
        &interm,
        None,
        None,
        |f| {
            let cols: Vec<Vec<f64>> = f.columns().iter().map(|c| c.data.to_f64()).collect();
            let n = f.n_rows();
            let mut d: Vec<(usize, f64)> = (0..n)
                .map(|i| (i, cols.iter().map(|c| (c[i] - c[0]).powi(2)).sum()))
                .collect();
            d.sort_by(|a, b| a.1.total_cmp(&b.1));
            d.truncate(10);
        },
    )));
    // ROW_DIFF between two images.
    rows_out.push(row(measure(
        &mut sys,
        "ROW_DIFF (MCFR)",
        &interm,
        None,
        None,
        |f| {
            let _: Vec<f64> = f
                .columns()
                .iter()
                .map(|c| {
                    let v = c.data.to_f64();
                    v[0] - v[1]
                })
                .collect();
        },
    )));
    // VIS: per-class average activations.
    {
        let labels = data.labels.clone();
        rows_out.push(row(measure(
            &mut sys,
            "VIS (MCMR)",
            &interm,
            None,
            None,
            move |f| {
                let cols: Vec<Vec<f64>> = f.columns().iter().map(|c| c.data.to_f64()).collect();
                let mut sums = vec![[0.0f64; 10]; cols.len()];
                let mut counts = [0usize; 10];
                for (i, &l) in labels.iter().enumerate().take(f.n_rows()) {
                    counts[l as usize] += 1;
                    for (j, c) in cols.iter().enumerate() {
                        sums[j][l as usize] += c[i];
                    }
                }
            },
        )));
    }
    // SVCCA between this layer and the logits.
    {
        let logits = format!("{model}.layer{n_layers}");
        let (a, t1) = cold_read(&mut sys, &interm, None, None);
        let (b, t2) = timed_fetch(&mut sys, &logits, None, None, FetchStrategy::Read);
        let ma = mistique_core::diagnostics::frame_to_matrix(&a.frame);
        let mb = mistique_core::diagnostics::frame_to_matrix(&b.frame);
        let (_, tc) = time(|| mistique_linalg::svcca(&ma, &mb, 0.99));
        let (_, t3) = timed_fetch(&mut sys, &interm, None, None, FetchStrategy::Rerun);
        let (_, t4) = timed_fetch(&mut sys, &logits, None, None, FetchStrategy::Rerun);
        rows_out.push(row(QueryOutcome {
            name: format!("SVCCA (MCMR, +{} compute)", fmt_dur(tc)),
            read: t1 + t2 + tc,
            rerun: t3 + t4 + tc,
            chosen: model_pick(&a),
        }));
    }

    println!(
        "  intermediate: {interm} ({n_cols} stored columns, {} rows)",
        meta.n_rows
    );
    print_table(
        &[
            "query",
            "t_read",
            "t_rerun",
            "cost model picks",
            "read speedup",
        ],
        &rows_out,
    );
}

fn main() {
    let args = Args::parse();
    let part = args.string("part", "all");
    let rows = args.usize("rows", DEFAULT_ZILLOW_ROWS);
    let examples = args.usize("examples", DEFAULT_DNN_EXAMPLES);
    let scale = args.usize("scale", DEFAULT_VGG_SCALE);

    println!("# Figure 5: end-to-end diagnostic query times (read vs re-run)");
    println!("# paper: TRAD read wins 2.5x-390x; DNN L21 60-210x, L11 2-42x, L1 re-run can win");
    match part.as_str() {
        "a" => part_a(rows),
        "b" | "c" | "d" => part_dnn(&part, examples, scale),
        _ => {
            part_a(rows);
            for p in ["b", "c", "d"] {
                part_dnn(p, examples, scale);
            }
        }
    }
}
