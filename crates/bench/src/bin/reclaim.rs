//! Storage-reclamation throughput: build a store well past a byte budget,
//! then time one `reclaim_to` pass — the γ-ranked demotion ladder walk plus
//! the partition compaction it triggers. Reports bytes reclaimed per
//! second, the ladder composition (demotions vs purges), and the compactor
//! share of the pass.
//!
//! Flags: `--rows N --pipelines N --budget-frac F --reps N`

use std::sync::Arc;

use mistique_bench::*;
use mistique_core::{Mistique, MistiqueConfig, StorageStrategy};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn main() {
    let args = Args::parse();
    let rows = args.usize("rows", 10_000);
    let n_pipelines = args.usize("pipelines", 3);
    let budget_frac = args.f64("budget-frac", 0.25);
    let reps = args.usize("reps", 3);

    println!(
        "# Reclaim throughput: {n_pipelines} pipelines x {rows} rows, \
         budget = {budget_frac} of usage"
    );

    let mut best_ms = f64::MAX;
    let mut last = None;
    for _ in 0..reps {
        // Fresh store per rep: a reclaim pass mutates the store, so
        // repetitions must not see each other's demotions.
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(
            dir.path(),
            MistiqueConfig {
                storage: StorageStrategy::Dedup,
                ..MistiqueConfig::default()
            },
        )
        .unwrap();
        let data = Arc::new(ZillowData::generate(rows, 1));
        for p in zillow_pipelines().into_iter().take(n_pipelines) {
            let id = sys.register_trad(p, Arc::clone(&data)).unwrap();
            sys.log_intermediates(&id).unwrap();
        }
        let used = sys.storage_budget_used();
        let budget = (used as f64 * budget_frac) as u64;

        let (report, t) = time(|| sys.reclaim_to(budget).unwrap());
        assert!(report.within_budget(), "reclaim left the store over budget");
        best_ms = best_ms.min(t.as_secs_f64() * 1e3);
        last = Some((sys, report, used, budget));
    }
    let (sys, report, used, budget) = last.unwrap();

    let reclaimed = report.used_before - report.used_after;
    let purges = report.purged.len();
    let demotions = report.demotions.len() - purges;
    let (compacted_bytes, rewritten) = report
        .compaction
        .as_ref()
        .map(|c| {
            (
                c.bytes_reclaimed,
                c.partitions_rewritten + c.partitions_removed,
            )
        })
        .unwrap_or((0, 0));
    let throughput = reclaimed as f64 / (best_ms / 1e3).max(1e-9);

    print_table(
        &["metric", "value"],
        &[
            vec!["bytes before".into(), fmt_bytes(used)],
            vec!["budget".into(), fmt_bytes(budget)],
            vec!["bytes after".into(), fmt_bytes(report.used_after)],
            vec!["ladder demotions".into(), demotions.to_string()],
            vec!["purges".into(), purges.to_string()],
            vec!["partitions compacted".into(), rewritten.to_string()],
            vec!["compactor bytes".into(), fmt_bytes(compacted_bytes)],
            vec![
                "pass time (best of reps)".into(),
                format!("{best_ms:.2} ms"),
            ],
            vec![
                "reclaim throughput".into(),
                format!("{}/s", fmt_bytes(throughput as u64)),
            ],
        ],
    );
    println!();
    print!("{}", report.render());

    let obs = sys.obs().clone();
    obs.gauge("bench.reclaim.rows").set_u64(rows as u64);
    obs.gauge("bench.reclaim.bytes_before").set_u64(used);
    obs.gauge("bench.reclaim.bytes_after")
        .set_u64(report.used_after);
    obs.gauge("bench.reclaim.demotions")
        .set_u64(demotions as u64);
    obs.gauge("bench.reclaim.purges").set_u64(purges as u64);
    obs.gauge("bench.reclaim.pass_ms").set(best_ms);
    obs.gauge("bench.reclaim.bytes_per_sec").set(throughput);
    write_obs_snapshot("reclaim", &obs);
}
