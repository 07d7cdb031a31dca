//! Adaptive materialization (Sec 4.3): start with nothing stored, watch hot
//! intermediates materialize as a diagnosis session repeats queries.
//!
//! ```sh
//! cargo run --release --example adaptive_session
//! ```

use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig, StorageStrategy};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = mistique_testkit::tempdir()?;
    let mut mistique = Mistique::open(
        dir.path(),
        MistiqueConfig {
            // Materialize once an intermediate saves >= 1 µs of query time
            // per KB stored, per accumulated query.
            storage: StorageStrategy::Adaptive {
                gamma_min: 1e-6 / 1024.0,
            },
            ..MistiqueConfig::default()
        },
    )?;

    let data = Arc::new(ZillowData::generate(5_000, 42));
    let id = mistique.register_trad(zillow_pipelines().remove(0), data)?;
    mistique.log_intermediates(&id)?;
    println!(
        "after logging: {} chunks stored (ADAPTIVE stores nothing up front)",
        mistique.store().stats().chunks_stored
    );

    let preds = mistique.intermediates_of(&id).last().unwrap().clone();
    println!("\nrepeatedly querying {preds}:");
    for round in 1..=4 {
        let r = mistique.get_intermediate(&preds, Some(&["pred"]), None)?;
        let meta = mistique.metadata().intermediate(&preds).unwrap();
        println!(
            "  query {round}: {:?} in {:>10} (n_queries={}, materialized={})",
            r.strategy,
            format!("{:?}", r.fetch_time),
            meta.n_queries,
            meta.materialized
        );
        if round == 1 {
            assert_eq!(r.strategy, FetchStrategy::Rerun, "nothing stored yet");
        }
    }

    // EXPLAIN: the audit trail behind the last decision above — which plan
    // the cost model picked, what it predicted for each, and what the query
    // actually cost.
    if let Some(report) = mistique.last_report() {
        println!("\nEXPLAIN of the last query:");
        print!("{}", report.render());
        println!("\ntrace tree:");
        print!("{}", mistique.render_trace(report.trace_id));
    }

    mistique.flush()?;
    println!(
        "\nfinal store: {} bytes on disk — only the intermediates the \
         session actually hammered",
        mistique.store().disk_bytes()?
    );
    Ok(())
}
