//! Regression tests for the parallel read path: decoded bytes must be
//! identical at every `read_parallelism` setting on the degenerate batch
//! shapes that stress the `(column, block)` striding — one column across
//! many blocks, many columns in one block, and a column count that does not
//! divide the worker count — and a corrupt chunk mid-batch must surface as
//! an error, never a process abort.

use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

/// Build a materialized TRAD system with the given RowBlock size and a byte
/// threshold of zero, so the worker count under test is never clamped away
/// by the adaptive fan-out policy on small test data.
fn system_with_block_size(row_block_size: usize) -> (mistique_testkit::TempDir, Mistique, String) {
    let dir = mistique_testkit::tempdir().unwrap();
    let config = MistiqueConfig {
        row_block_size,
        min_read_bytes_per_worker: 0,
        ..MistiqueConfig::default()
    };
    let mut sys = Mistique::open(dir.path(), config).unwrap();
    let data = Arc::new(ZillowData::generate(400, 3));
    let id = sys
        .register_trad(zillow_pipelines().remove(0), data)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    sys.store_mut().flush().unwrap();
    (dir, sys, id)
}

fn fetch_cold(
    sys: &mut Mistique,
    interm: &str,
    columns: Option<&[&str]>,
    workers: usize,
) -> mistique_dataframe::DataFrame {
    sys.set_read_parallelism(workers);
    sys.store_mut().clear_read_cache();
    sys.fetch_with_strategy(interm, columns, None, FetchStrategy::Read)
        .unwrap()
        .frame
}

fn assert_bit_identical(
    serial: &mistique_dataframe::DataFrame,
    par: &mistique_dataframe::DataFrame,
    label: &str,
) {
    assert_eq!(serial.n_rows(), par.n_rows(), "{label}");
    assert_eq!(serial.n_cols(), par.n_cols(), "{label}");
    for col in serial.columns() {
        let a = col.data.to_f64();
        let b = par.column(&col.name).unwrap().data.to_f64();
        assert_eq!(a.len(), b.len(), "{label} col {}", col.name);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label} col {} row {i}", col.name);
        }
    }
}

#[test]
fn single_column_many_blocks_is_bit_identical() {
    // 400 rows / 16-row blocks = 25 blocks of one column: the per-column
    // fan-out of old had exactly one work item here; block striding must
    // still reassemble them in order at every worker count.
    let (_d, mut sys, id) = system_with_block_size(16);
    let interm = sys.intermediates_of(&id)[2].clone();
    let first = {
        let frame = fetch_cold(&mut sys, &interm, None, 1);
        frame.column_names()[0].to_string()
    };
    let cols = [first.as_str()];
    let serial = fetch_cold(&mut sys, &interm, Some(&cols), 1);
    assert_eq!(serial.n_cols(), 1);
    for workers in [2usize, 4, 0] {
        let par = fetch_cold(&mut sys, &interm, Some(&cols), workers);
        assert_bit_identical(
            &serial,
            &par,
            &format!("1 col x 25 blocks, workers={workers}"),
        );
    }
}

#[test]
fn many_columns_one_block_is_bit_identical() {
    // A RowBlock larger than the data: every column is a single chunk, so
    // the item count equals the column count.
    let (_d, mut sys, id) = system_with_block_size(1024);
    let interm = sys.intermediates_of(&id)[3].clone();
    let serial = fetch_cold(&mut sys, &interm, None, 1);
    for workers in [2usize, 4, 0] {
        let par = fetch_cold(&mut sys, &interm, None, workers);
        assert_bit_identical(
            &serial,
            &par,
            &format!("n cols x 1 block, workers={workers}"),
        );
    }
}

#[test]
fn column_count_not_divisible_by_workers_is_bit_identical() {
    // Pick a column subset whose size shares no factor with the worker
    // counts (3, 5, 7 columns vs 2 and 4 workers), over several blocks, so
    // round-robin striding wraps unevenly.
    let (_d, mut sys, id) = system_with_block_size(64);
    let interm = sys.intermediates_of(&id)[4].clone();
    let all = fetch_cold(&mut sys, &interm, None, 1);
    let names: Vec<String> = all.column_names().iter().map(|s| s.to_string()).collect();
    for take in [3usize, 5, 7] {
        if names.len() < take {
            continue;
        }
        let subset: Vec<&str> = names.iter().take(take).map(|s| s.as_str()).collect();
        let serial = fetch_cold(&mut sys, &interm, Some(&subset), 1);
        for workers in [2usize, 4] {
            let par = fetch_cold(&mut sys, &interm, Some(&subset), workers);
            assert_bit_identical(&serial, &par, &format!("{take} cols, workers={workers}"));
        }
    }
}

#[test]
fn corrupt_chunk_mid_batch_is_an_error_not_an_abort() {
    // Flip bytes in the middle of every sealed partition file, then force a
    // cold parallel read. Whatever layer notices first — the partition
    // integrity trailer or the chunk decoder — the query must come back as
    // `Err`, and the process must survive to run the next statement.
    let (dir, mut sys, id) = system_with_block_size(32);
    let interm = sys.intermediates_of(&id)[2].clone();
    // Sanity: intact read works.
    fetch_cold(&mut sys, &interm, None, 4);

    let mut corrupted = 0usize;
    let mut stack = vec![dir.path().to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("part_") && n.ends_with(".bin"))
            {
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                for b in bytes.iter_mut().skip(mid).take(16) {
                    *b ^= 0xA5;
                }
                std::fs::write(&path, &bytes).unwrap();
                corrupted += 1;
            }
        }
    }
    assert!(corrupted > 0, "no sealed partitions found to corrupt");

    for workers in [1usize, 4] {
        sys.set_read_parallelism(workers);
        sys.store_mut().clear_read_cache();
        assert!(
            sys.fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
                .is_err(),
            "corrupt partition must fail the query (workers={workers})"
        );
    }
}
