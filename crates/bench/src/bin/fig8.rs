//! Figure 8: the read-vs-rerun trade-off across layers and example counts —
//! measured (8a) and as predicted by the cost model (8b). The shapes must
//! agree: reading wins everywhere except the earliest layer at large n_ex
//! (the "Layer1 anomaly": huge intermediate, trivial to recompute).
//!
//! Flags: `--examples N --scale N`

use mistique_bench::*;
use mistique_core::{CaptureScheme, FetchStrategy, StorageStrategy};
use mistique_nn::vgg16_cifar;

fn main() {
    let args = Args::parse();
    let examples = args.usize("examples", DEFAULT_DNN_EXAMPLES);
    let scale = args.usize("scale", DEFAULT_VGG_SCALE);

    println!("# Figure 8: measured (a) vs cost-model-predicted (b) retrieval times");
    println!("# paper: read beats re-run for all layers except Layer1 at >10K examples;");
    println!("#        both sides scale linearly in n_ex and the predictions match the measurements' shape");

    let dir = mistique_testkit::tempdir().unwrap();
    let (mut sys, ids, _) = dnn_system(
        dir.path(),
        vgg16_cifar(scale),
        examples,
        1,
        CaptureScheme::pool2(),
        StorageStrategy::Dedup,
    );
    let model = ids[0].clone();
    let n_layers = sys.intermediates_of(&model).len();
    let layers = [1usize, 6, 11, 16, n_layers];
    let fracs = [0.125, 0.25, 0.5, 1.0];
    let n_exs: Vec<usize> = fracs
        .iter()
        .map(|f| ((examples as f64) * f) as usize)
        .collect();

    println!("\n== Fig 8a: measured fetch time (seconds), read / re-run ==");
    let mut rows = Vec::new();
    for &l in &layers {
        let interm = format!("{model}.layer{l}");
        let mut cells = vec![format!("layer{l}")];
        for &n in &n_exs {
            let (_, tr) = cold_read(&mut sys, &interm, None, Some(n));
            let (_, tx) = timed_fetch(&mut sys, &interm, None, Some(n), FetchStrategy::Rerun);
            cells.push(format!(
                "{:.4}/{:.4}{}",
                tr.as_secs_f64(),
                tx.as_secs_f64(),
                if tr <= tx { " R" } else { " X" }
            ));
        }
        rows.push(cells);
    }
    let mut headers: Vec<String> = vec!["layer".into()];
    headers.extend(n_exs.iter().map(|n| format!("n_ex={n}")));
    let hs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(&hs, &rows);
    println!("  (R = read faster, X = re-run faster)");

    println!("\n== Fig 8b: cost-model prediction (seconds), read / re-run ==");
    let mut rows = Vec::new();
    let mut agree = 0usize;
    let mut total = 0usize;
    for &l in &layers {
        let interm = format!("{model}.layer{l}");
        let meta = sys.metadata().intermediate(&interm).unwrap().clone();
        let mmeta = sys.metadata().model(&model).unwrap().clone();
        let mut cells = vec![format!("layer{l}")];
        for &n in &n_exs {
            let pr = sys.cost_model().t_read(&meta, n);
            let px = sys.cost_model().t_rerun(&mmeta, &meta, n);
            cells.push(format!(
                "{:.4}/{:.4}{}",
                pr,
                px,
                if pr <= px { " R" } else { " X" }
            ));
            total += 1;
            // Re-measure quickly to score prediction agreement.
            let (_, tr) = cold_read(&mut sys, &interm, None, Some(n));
            let (_, tx) = timed_fetch(&mut sys, &interm, None, Some(n), FetchStrategy::Rerun);
            if (pr <= px) == (tr <= tx) {
                agree += 1;
            }
        }
        rows.push(cells);
    }
    print_table(&hs, &rows);
    println!(
        "\n  prediction/measurement agreement on the read-vs-rerun choice: {agree}/{total} cells"
    );
}
