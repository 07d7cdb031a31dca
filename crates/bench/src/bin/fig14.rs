//! Figure 14 (Appendix C.2): column-compression microbenchmark.
//!
//! Generate a `rows x cols` f32 matrix whose columns share a controlled
//! fraction of identical values (similarity 0 / 0.5 / 1.0), then compare the
//! compressed footprint when similar columns are stored *together* in one
//! partition vs *scattered* across partitions. The paper's point: co-locating
//! similar values is what turns similarity into compression wins.
//!
//! Also sweeps the LSH threshold τ (an ablation DESIGN.md calls out) to show
//! the clustering-vs-partition-count trade-off.
//!
//! Flags: `--rows N --cols N`

use mistique_bench::*;
use mistique_compress::compress_auto;
use mistique_dataframe::{ColumnChunk, ColumnData};
use mistique_rng::Rng;
use mistique_store::{ChunkKey, DataStore, DataStoreConfig, PlacementPolicy};

/// Build `cols` columns of `rows` f32 values where `similarity` is the
/// fraction of each column copied from a shared base column.
fn build_columns(rows: usize, cols: usize, similarity: f64, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng::seed(seed);
    let base: Vec<f32> = (0..rows).map(|_| rng.range(-100.0..100.0)).collect();
    (0..cols)
        .map(|_| {
            base.iter()
                .map(|&b| {
                    if rng.chance(similarity) {
                        b
                    } else {
                        rng.range(-100.0..100.0)
                    }
                })
                .collect()
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let rows = args.usize("rows", 20_000);
    let cols = args.usize("cols", 100);

    println!("# Figure 14: column compression vs similarity ({rows} x {cols} f32 matrix)");
    println!("# paper: storage shrinks as column similarity rises, when similar columns co-locate");

    // Columns are laid out the way the DataStore stores them: split into
    // 1000-row ColumnChunks (~4 KiB). "Co-located" orders the chunks so
    // that the corresponding chunks of similar columns sit next to each
    // other inside one partition buffer (what LSH placement achieves) —
    // within the LZSS window. "Scattered" compresses each chunk alone.
    const BLOCK_ROWS: usize = 1000;
    let mut rows_out = Vec::new();
    for similarity in [0.0, 0.5, 1.0] {
        let columns = build_columns(rows, cols, similarity, 3);
        let raw: usize = columns.iter().map(|c| c.len() * 4).sum();
        let n_blocks = rows.div_ceil(BLOCK_ROWS);

        let chunk_bytes = |col: &[f32], b: usize| -> Vec<u8> {
            let end = ((b + 1) * BLOCK_ROWS).min(col.len());
            let mut buf = Vec::with_capacity((end - b * BLOCK_ROWS) * 4);
            for v in &col[b * BLOCK_ROWS..end] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            buf
        };

        // Co-located: block-major order (same block of every column adjacent).
        let mut together = Vec::with_capacity(raw);
        for b in 0..n_blocks {
            for c in &columns {
                together.extend_from_slice(&chunk_bytes(c, b));
            }
        }
        let colocated = compress_auto(&together).len();

        // Scattered: every chunk compressed alone (no cross-chunk window).
        let mut scattered = 0usize;
        for c in &columns {
            for b in 0..n_blocks {
                scattered += compress_auto(&chunk_bytes(c, b)).len();
            }
        }

        rows_out.push(vec![
            format!("{similarity:.1}"),
            fmt_bytes(raw as u64),
            fmt_bytes(colocated as u64),
            fmt_bytes(scattered as u64),
            format!("{:.2}x", scattered as f64 / colocated as f64),
        ]);
    }
    print_table(
        &[
            "col similarity",
            "raw",
            "co-located",
            "scattered",
            "co-location gain",
        ],
        &rows_out,
    );

    // Ablation: LSH threshold τ sweep on the similarity-0.5 workload.
    println!("\n== ablation: LSH similarity threshold τ (similarity 0.9 columns) ==");
    let columns = build_columns(rows / 4, cols, 0.9, 5);
    let mut rows_out = Vec::new();
    for tau in [0.2, 0.4, 0.6, 0.8, 0.95] {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = DataStoreConfig {
            policy: PlacementPolicy::BySimilarity { tau },
            ..DataStoreConfig::default()
        };
        let mut store = DataStore::open(dir.path(), config).unwrap();
        for (j, c) in columns.iter().enumerate() {
            let chunk = ColumnChunk::new(ColumnData::F32(c.clone()));
            store
                .put_chunk(ChunkKey::new("m.i", format!("c{j}"), 0), &chunk)
                .unwrap();
        }
        store.flush().unwrap();
        let stats = store.stats();
        rows_out.push(vec![
            format!("{tau:.2}"),
            format!("{}", stats.partitions_created),
            format!("{}", stats.similarity_placements),
            fmt_bytes(store.disk_bytes().unwrap()),
        ]);
    }
    print_table(
        &[
            "tau",
            "partitions",
            "similarity placements",
            "compressed bytes",
        ],
        &rows_out,
    );
}
