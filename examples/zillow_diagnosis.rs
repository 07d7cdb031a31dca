//! A TRAD model-diagnosis session, following the workload sketched in the
//! paper's Sec 2.2: "why does the home price prediction model under-perform
//! on old Victorian homes?"
//!
//! (i) plot the prediction error for the model (FCMR),
//! (ii) examine the raw features of the worst-predicted home (MCFR),
//! (iii) check performance on the homes most similar to it (MCMR),
//! (iv) compare its features against the average home (MCMR),
//! plus a cross-model COL_DIFF between two pipeline variants.
//!
//! ```sh
//! cargo run --release --example zillow_diagnosis
//! ```

use std::sync::Arc;

use mistique_core::{Mistique, MistiqueConfig};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = mistique_testkit::tempdir()?;
    let mut mistique = Mistique::open(dir.path(), MistiqueConfig::default())?;
    let data = Arc::new(ZillowData::generate(6_000, 42));

    // Two variants of the XGBoost pipeline (P2): same features, different
    // hyper-parameters.
    let pipes = zillow_pipelines();
    let a = mistique.register_trad(
        pipes.iter().find(|p| p.id == "P2_v0").unwrap().clone(),
        Arc::clone(&data),
    )?;
    let b = mistique.register_trad(
        pipes.iter().find(|p| p.id == "P2_v3").unwrap().clone(),
        Arc::clone(&data),
    )?;
    mistique.log_intermediates(&a)?;
    mistique.log_intermediates(&b)?;
    println!(
        "logged 2 pipelines; store holds {} unique chunks, {} dedup hits \
         (shared stages stored once)",
        mistique.store().stats().chunks_stored,
        mistique.store().stats().dedup_hits
    );

    let interms_a = mistique.intermediates_of(&a);
    let features = interms_a
        .iter()
        .find(|i| i.contains("DropColumns"))
        .unwrap()
        .clone();
    let preds_a = interms_a.last().unwrap().clone();
    let preds_b = mistique.intermediates_of(&b).last().unwrap().clone();

    // (i) distribution of predicted errors.
    println!("\n(i) COL_DIST: distribution of predicted logerror:");
    for bucket in mistique.col_dist(&preds_a, "pred", 8)? {
        println!(
            "  [{:+.4}, {:+.4})  {}",
            bucket.lo,
            bucket.hi,
            "#".repeat(1 + bucket.count / 40)
        );
    }

    // The home with the highest predicted Zestimate error.
    let worst = mistique.topk(&preds_a, "pred", 1)?[0];
    println!(
        "\nworst-predicted home: row {} (pred {:.4})",
        worst.0, worst.1
    );

    // (ii) raw features of that home.
    println!("\n(ii) raw features of home {}:", worst.0);
    let row = mistique.get_intermediate(&features, None, None)?;
    for col in row.frame.columns() {
        println!("  {:>14}: {:.2}", col.name, col.data.to_f64()[worst.0]);
    }

    // (iii) performance on the most similar homes (KNN).
    println!(
        "\n(iii) KNN: predictions for the 5 homes most similar to home {}:",
        worst.0
    );
    let preds_all = mistique.get_intermediate(&preds_a, Some(&["pred"]), None)?;
    let pred_vals = preds_all.frame.columns()[0].data.to_f64();
    for (neighbor, dist) in mistique.knn(&features, worst.0, 5)? {
        if neighbor < pred_vals.len() {
            println!(
                "  home {neighbor} (dist {dist:.1}): pred {:.4}",
                pred_vals[neighbor]
            );
        }
    }

    // (iv) the home's features vs the average home (ROW vs mean = VIS-style).
    println!(
        "\n(iv) feature deltas, home {} minus dataset mean:",
        worst.0
    );
    let all = mistique.get_intermediate(&features, None, None)?;
    for col in all.frame.columns() {
        let v = col.data.to_f64();
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        println!("  {:>14}: {:+.2}", col.name, v[worst.0] - mean);
    }

    // Cross-model: where do the two variants disagree?
    let diff = mistique.col_diff(&preds_a, "pred", &preds_b, "pred", 1e-3)?;
    println!(
        "\nCOL_DIFF: the two hyper-parameter variants disagree (>1e-3) on {} of {} homes",
        diff.len(),
        pred_vals.len()
    );
    Ok(())
}
