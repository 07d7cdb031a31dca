//! Quickstart: log a pipeline's intermediates and query them.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use mistique_core::{Mistique, MistiqueConfig};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Open a MISTIQUE store.
    let dir = mistique_testkit::tempdir()?;
    let mut mistique = Mistique::open(dir.path(), MistiqueConfig::default())?;

    // 2. Register a model: one of the Zillow price-error pipelines over a
    //    synthetic 5 000-home dataset.
    let data = Arc::new(ZillowData::generate(5_000, 42));
    let pipeline = zillow_pipelines().remove(0);
    println!("pipeline {} has {} stages", pipeline.id, pipeline.len());
    let model_id = mistique.register_trad(pipeline, data)?;

    // 3. Log every stage's intermediate (the paper's `log_intermediates`).
    mistique.log_intermediates(&model_id)?;
    let stats = mistique.store().stats();
    println!(
        "logged {} unique chunks ({} submitted bytes, {} stored, {} dedup hits)",
        stats.chunks_stored, stats.logical_bytes, stats.unique_bytes, stats.dedup_hits
    );

    // 4. Query an intermediate: MISTIQUE picks read-vs-rerun by cost model.
    let interms = mistique.intermediates_of(&model_id);
    println!("\nintermediates:");
    for i in &interms {
        println!("  {i}");
    }

    let predictions = interms.last().unwrap();
    let result = mistique.get_intermediate(predictions, Some(&["pred"]), None)?;
    println!(
        "\nfetched {} predictions via {:?} in {:?} (cost model predicted read {:.2e}s / rerun {:.2e}s)",
        result.frame.n_rows(),
        result.strategy,
        result.fetch_time,
        result.predicted_read,
        result.predicted_rerun,
    );

    // 5. Run built-in diagnostics on top of the store.
    let top = mistique.topk(predictions, "pred", 5)?;
    println!("\ntop-5 predicted errors (row, value):");
    for (row, value) in top {
        println!("  home {row}: {value:.4}");
    }
    Ok(())
}
