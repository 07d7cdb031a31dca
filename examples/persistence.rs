//! Persistence walkthrough: build and persist a store, "restart", reopen,
//! and keep diagnosing — the MetadataDB and every materialized intermediate
//! survive; re-running only needs the executable model re-attached.
//!
//! ```sh
//! cargo run --release --example persistence
//! ```

use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = mistique_testkit::tempdir()?;
    let data = Arc::new(ZillowData::generate(3_000, 42));
    let pipeline = zillow_pipelines().remove(0);

    // --- Session 1: log and persist. -------------------------------------
    let preds = {
        let mut sys = Mistique::open(dir.path(), MistiqueConfig::default())?;
        let id = sys.register_trad(pipeline.clone(), Arc::clone(&data))?;
        sys.log_intermediates(&id)?;
        let preds = sys.intermediates_of(&id).last().unwrap().clone();
        sys.persist()?;
        println!(
            "session 1: logged {} intermediates, persisted {} bytes",
            sys.intermediates_of(&id).len(),
            sys.store().disk_bytes()?
        );
        preds
    }; // sys dropped: "process exits"

    // --- Session 2: reopen and read, no model needed. --------------------
    let mut sys = Mistique::reopen(dir.path(), MistiqueConfig::default())?;
    println!(
        "session 2: reopened with {} model(s) in the MetadataDB",
        sys.model_ids().len()
    );
    let r = sys.fetch_with_strategy(&preds, Some(&["pred"]), None, FetchStrategy::Read)?;
    println!(
        "  read {} predictions straight from disk in {:?}",
        r.frame.n_rows(),
        r.fetch_time
    );
    let top = sys.topk(&preds, "pred", 3)?;
    println!("  top-3 predicted errors: {top:?}");

    // Re-running needs the executable model back.
    match sys.fetch_with_strategy(&preds, None, None, FetchStrategy::Rerun) {
        Err(e) => println!("  re-run without the model fails cleanly: {e}"),
        Ok(_) => unreachable!("no model source attached yet"),
    }
    sys.reattach_trad(pipeline, data)?;
    let rerun = sys.fetch_with_strategy(&preds, Some(&["pred"]), None, FetchStrategy::Rerun)?;
    println!(
        "  after reattach_trad, re-run works too ({} rows in {:?})",
        rerun.frame.n_rows(),
        rerun.fetch_time
    );
    Ok(())
}
