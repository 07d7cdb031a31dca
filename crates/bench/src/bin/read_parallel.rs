//! Read-path concurrency: cold `read_stored` of a multi-column intermediate,
//! serial vs `read_parallelism >= 4`. Partition fetches and per-column block
//! decodes run on scoped threads; the frames must come back
//! byte-identical at every worker count, with the parallel path faster on a
//! wide intermediate.
//!
//! Flags: `--rows N --reps N --workers N`

use std::sync::Arc;
use std::time::Duration;

use mistique_bench::*;
use mistique_core::{FetchStrategy, Mistique, MistiqueConfig};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn assert_bit_identical(a: &mistique_dataframe::DataFrame, b: &mistique_dataframe::DataFrame) {
    assert_eq!(a.n_rows(), b.n_rows());
    for col in a.columns() {
        let x = col.data.to_f64();
        let y = b.column(&col.name).unwrap().data.to_f64();
        assert_eq!(x.len(), y.len(), "col {}", col.name);
        for (i, (u, v)) in x.iter().zip(&y).enumerate() {
            assert_eq!(u.to_bits(), v.to_bits(), "col {} row {i}", col.name);
        }
    }
}

fn main() {
    let args = Args::parse();
    let rows = args.usize("rows", 20_000);
    let reps = args.usize("reps", 5);
    let workers = args.usize("workers", 4);

    println!("# Read-path concurrency: cold read_stored, serial vs {workers} workers");

    let dir = mistique_testkit::tempdir().unwrap();
    // Delta frames off: this bench isolates the parallel decode path, and
    // its committed baseline predates base+delta storage. Delta rehydration
    // cost has its own bench (delta_dedup) with its own read timings.
    let config = MistiqueConfig {
        datastore: mistique_store::DataStoreConfig {
            delta_enabled: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut sys = Mistique::open(dir.path(), config).unwrap();
    let data = Arc::new(ZillowData::generate(rows, 1));
    let id = sys
        .register_trad(zillow_pipelines().remove(0), data)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    sys.store_mut().flush().unwrap();

    // Bench the widest materialized intermediate (most columns to decode).
    let interm = sys
        .intermediates_of(&id)
        .into_iter()
        .max_by_key(|i| sys.metadata().intermediate(i).unwrap().columns.len())
        .unwrap();
    let meta = sys.metadata().intermediate(&interm).unwrap();
    let n_cols = meta.columns.len();
    println!(
        "  intermediate {interm}: {n_cols} columns x {} rows\n",
        meta.n_rows
    );

    // Cold read: clear the partition read cache before every repetition so
    // each fetch pays the full disk + decode cost.
    let mut measure = |parallelism: usize| {
        sys.set_read_parallelism(parallelism);
        let mut best = Duration::MAX;
        let mut frame = None;
        for _ in 0..reps {
            sys.store_mut().clear_read_cache();
            let (fetched, t) = time(|| {
                sys.fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
                    .unwrap()
            });
            best = best.min(t);
            frame = Some(fetched.frame);
        }
        (frame.unwrap(), best)
    };

    let (serial_frame, serial) = measure(1);
    let (parallel_frame, parallel) = measure(workers);
    assert_bit_identical(&serial_frame, &parallel_frame);

    let speedup = serial.as_secs_f64() / parallel.as_secs_f64().max(1e-12);
    print_table(
        &["read_parallelism", "cold read (best of reps)", "speedup"],
        &[
            vec!["1".into(), fmt_dur(serial), "1.00x".into()],
            vec![
                format!("{workers}"),
                fmt_dur(parallel),
                format!("{speedup:.2}x"),
            ],
        ],
    );
    println!("\n  frames byte-identical across worker counts: yes");

    // Per-query audit of the final (parallel) cold read: plan, predicted vs
    // actual cost, partition/codec attribution.
    if let Some(report) = sys.last_report() {
        println!("\nEXPLAIN of the last cold read:");
        print!("{}", report.render());
    }
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cpus < 2 {
        println!(
            "  note: host reports {cpus} CPU; scoped threads cannot beat the serial\n\
             \x20 path here — rerun on a multi-core host for the speedup figure"
        );
    }

    let obs = sys.obs().clone();
    obs.gauge("bench.read_parallel.host_cpus")
        .set_u64(cpus as u64);
    obs.gauge("bench.read_parallel.workers")
        .set_u64(workers as u64);
    obs.gauge("bench.read_parallel.columns")
        .set_u64(n_cols as u64);
    obs.gauge("bench.read_parallel.rows").set_u64(rows as u64);
    obs.gauge("bench.read_parallel.serial_ms")
        .set(serial.as_secs_f64() * 1e3);
    obs.gauge("bench.read_parallel.parallel_ms")
        .set(parallel.as_secs_f64() * 1e3);
    obs.gauge("bench.read_parallel.speedup").set(speedup);
    write_obs_snapshot("read_parallel", &obs);
}
