//! Cross-checkpoint delta storage: a multi-epoch DNN checkpoint sweep at
//! the store level. Each epoch's layer tensors are a small random walk away
//! from the previous epoch's — the near-duplicate regime MISTIQUE's DNN
//! workload lives in. The sweep stores every checkpoint twice, once with
//! base+delta frames enabled and once without, compares physical bytes, and
//! proves the delta store serves every chunk bit-identically through the
//! batch read path at read_parallelism 1, 2, 4, and 0 (auto).
//!
//! Flags: `--layers N --values N --epochs N --perturb P`

use std::time::Duration;

use mistique_bench::*;
use mistique_dataframe::{ColumnChunk, ColumnData};
use mistique_rng::Rng;
use mistique_store::{ChunkKey, DataStore, DataStoreConfig, PlacementPolicy};

fn store_config(delta: bool) -> DataStoreConfig {
    DataStoreConfig {
        policy: PlacementPolicy::ByIntermediate,
        delta_enabled: delta,
        ..DataStoreConfig::default()
    }
}

fn main() {
    let args = Args::parse();
    let layers = args.usize("layers", 6);
    let values = args.usize("values", 16_384);
    let epochs = args.usize("epochs", 8);
    let perturb = args.f64("perturb", 0.05);

    println!(
        "# Cross-checkpoint delta dedup: {layers} layers x {values} f64 x {epochs} epochs, \
         {:.0}% of values drift per epoch",
        perturb * 100.0
    );

    // The checkpoint sweep: layer l of epoch e. Value ranges are offset per
    // layer so MinHash only ever pairs a layer with its own history.
    let mut checkpoints: Vec<Vec<Vec<f64>>> = Vec::with_capacity(epochs);
    let mut rng = Rng::seed(0x5eed_0001);
    let mut tensors: Vec<Vec<f64>> = (0..layers)
        .map(|l| {
            (0..values)
                .map(|_| (l * 10) as f64 + rng.range(0.0..1.0))
                .collect()
        })
        .collect();
    checkpoints.push(tensors.clone());
    for _ in 1..epochs {
        for t in &mut tensors {
            for v in t.iter_mut() {
                if rng.chance(perturb) {
                    *v += 0.01 * rng.range(-0.5..0.5);
                }
            }
        }
        checkpoints.push(tensors.clone());
    }

    let keys_and_chunks: Vec<(ChunkKey, ColumnChunk)> = checkpoints
        .iter()
        .enumerate()
        .flat_map(|(e, tensors)| {
            tensors.iter().enumerate().map(move |(l, t)| {
                (
                    ChunkKey::new(format!("epoch{e}.layer{l}"), "w", 0),
                    ColumnChunk::new(ColumnData::F64(t.clone())),
                )
            })
        })
        .collect();

    // Store the sweep twice: delta frames on and off.
    let run = |delta: bool| -> (DataStore, mistique_testkit::TempDir, u64, Duration) {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut ds = DataStore::open(dir.path(), store_config(delta)).unwrap();
        let ((), t) = time(|| {
            for (key, chunk) in &keys_and_chunks {
                ds.put_chunk(key.clone(), chunk).unwrap();
            }
            ds.flush().unwrap();
        });
        let physical = ds.physical_bytes().unwrap();
        (ds, dir, physical, t)
    };
    let (mut ds_on, _dir_on, bytes_on, t_on) = run(true);
    let (_ds_off, _dir_off, bytes_off, t_off) = run(false);

    let stats = ds_on.stats();
    let ratio = bytes_off as f64 / bytes_on.max(1) as f64;
    print_table(
        &[
            "store",
            "physical bytes",
            "ingest",
            "delta puts",
            "bytes saved",
        ],
        &[
            vec![
                "delta off".into(),
                fmt_bytes(bytes_off),
                fmt_dur(t_off),
                "-".into(),
                "-".into(),
            ],
            vec![
                "delta on".into(),
                fmt_bytes(bytes_on),
                fmt_dur(t_on),
                stats.delta_puts.to_string(),
                fmt_bytes(stats.delta_bytes_saved),
            ],
        ],
    );
    println!("\n  stored-byte reduction: {ratio:.2}x");
    assert!(
        stats.delta_puts > 0,
        "the sweep must exercise the delta put path"
    );
    assert!(
        ratio >= 1.5,
        "base+delta must cut stored bytes at least 1.5x on a checkpoint sweep, got {ratio:.2}x"
    );

    // Bit-identity through the batch read path at every parallelism level.
    let keys: Vec<ChunkKey> = keys_and_chunks.iter().map(|(k, _)| k.clone()).collect();
    let expected: Vec<Vec<u8>> = keys_and_chunks.iter().map(|(_, c)| c.to_bytes()).collect();
    let obs = mistique_core::Obs::new();
    for parallelism in [1usize, 2, 4, 0] {
        ds_on.clear_read_cache();
        let (got, t) = time(|| ds_on.get_chunk_bytes_batch(&keys, parallelism).unwrap());
        assert_eq!(got.len(), expected.len());
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                g, e,
                "key {:?} diverged at parallelism {parallelism}",
                keys[i]
            );
        }
        println!(
            "  cold batch read, parallelism {parallelism}: {} ({} chunks, bit-identical)",
            fmt_dur(t),
            keys.len()
        );
        obs.gauge(&format!("bench.delta_dedup.read_us_p{parallelism}"))
            .set(t.as_secs_f64() * 1e6);
    }
    let rehydrations = ds_on.obs().counter("store.delta.rehydrations").get();
    assert!(
        rehydrations >= stats.delta_puts,
        "every delta chunk must rehydrate through its frame on cold reads"
    );

    obs.gauge("bench.delta_dedup.layers").set_u64(layers as u64);
    obs.gauge("bench.delta_dedup.epochs").set_u64(epochs as u64);
    obs.gauge("bench.delta_dedup.values").set_u64(values as u64);
    obs.gauge("bench.delta_dedup.bytes_off").set_u64(bytes_off);
    obs.gauge("bench.delta_dedup.bytes_on").set_u64(bytes_on);
    obs.gauge("bench.delta_dedup.ratio").set(ratio);
    obs.gauge("bench.delta_dedup.delta_puts")
        .set_u64(stats.delta_puts);
    obs.gauge("bench.delta_dedup.bytes_saved")
        .set_u64(stats.delta_bytes_saved);
    obs.gauge("bench.delta_dedup.rehydrations")
        .set_u64(rehydrations);
    write_obs_snapshot("delta_dedup", &obs);
}
