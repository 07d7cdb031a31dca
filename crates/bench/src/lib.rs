//! Shared harness for the MISTIQUE reproduction benchmarks.
//!
//! One binary per table/figure of the paper's evaluation lives in
//! `src/bin/`; each prints the same rows/series the paper reports, scaled to
//! laptop budgets (`--rows`, `--examples`, … flags override the defaults).
//! Micro-benchmarks for the substrates live in `benches/`, timed by [`micro`].

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mistique_core::{CaptureScheme, Mistique, MistiqueConfig, StorageStrategy};
use mistique_nn::{ArchConfig, CifarLike};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

/// Minimal `--flag value` argument parser (no external deps).
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse the process arguments.
    pub fn parse() -> Args {
        let mut flags = HashMap::new();
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = iter.next().unwrap_or_else(|| "true".to_string());
                flags.insert(name.to_string(), value);
            }
        }
        Args { flags }
    }

    /// A usize flag with a default.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.flags
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// An f64 flag with a default.
    pub fn f64(&self, name: &str, default: f64) -> f64 {
        self.flags
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// A string flag with a default.
    pub fn string(&self, name: &str, default: &str) -> String {
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A boolean flag (present = true).
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

/// Time a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Micro-benchmark one case and print one line: the median over timed
/// batches as ns/iter, plus MB/s when an iteration processes `bytes` bytes
/// (0 for a case with no throughput reading). Warm-up doubles the batch
/// until one lasts ~10 ms, so timer resolution stays well below a percent
/// and a slow first call does not size the batches.
pub fn micro<T>(name: &str, bytes: u64, mut f: impl FnMut() -> T) {
    let mut ns_per_iter = |iters: u32| {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        t0.elapsed().as_nanos() as f64 / f64::from(iters)
    };
    let mut iters = 1;
    while ns_per_iter(iters) * f64::from(iters) < 1e7 && iters < 1 << 20 {
        iters *= 2;
    }
    let mut ns: Vec<f64> = (0..11).map(|_| ns_per_iter(iters)).collect();
    ns.sort_by(f64::total_cmp);
    let median = ns[ns.len() / 2];
    match bytes {
        0 => println!("{name:<44} {median:>14.0} ns/iter"),
        _ => println!(
            "{name:<44} {median:>14.0} ns/iter {:>10.1} MB/s",
            bytes as f64 * 1e3 / median
        ),
    }
}

/// Format a byte count with binary units.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

/// Format a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Print an aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Build a MISTIQUE instance with the first `n_pipelines` Zillow pipelines
/// registered and logged over `rows` synthetic properties.
pub fn zillow_system(
    dir: &std::path::Path,
    rows: usize,
    n_pipelines: usize,
    storage: StorageStrategy,
) -> (Mistique, Vec<String>, Arc<ZillowData>) {
    let data = Arc::new(ZillowData::generate(rows, 42));
    let config = MistiqueConfig {
        storage,
        ..MistiqueConfig::default()
    };
    let mut sys = Mistique::open(dir, config).expect("open mistique");
    let mut ids = Vec::new();
    for p in zillow_pipelines().into_iter().take(n_pipelines) {
        let id = sys.register_trad(p, Arc::clone(&data)).expect("register");
        sys.log_intermediates(&id).expect("log");
        ids.push(id);
    }
    sys.flush().expect("flush");
    (sys, ids, data)
}

/// Build a MISTIQUE instance with `epochs` checkpoints of a DNN architecture
/// logged over `examples` synthetic images under `capture`.
pub fn dnn_system(
    dir: &std::path::Path,
    arch: ArchConfig,
    examples: usize,
    epochs: u32,
    capture: CaptureScheme,
    storage: StorageStrategy,
) -> (Mistique, Vec<String>, Arc<CifarLike>) {
    let data = Arc::new(CifarLike::generate(examples, 10, 7));
    let config = MistiqueConfig {
        storage,
        dnn_capture: capture,
        row_block_size: 1000.min(examples.max(1)),
        ..MistiqueConfig::default()
    };
    let mut sys = Mistique::open(dir, config).expect("open mistique");
    let arch = Arc::new(arch);
    let mut ids = Vec::new();
    for epoch in 0..epochs {
        let id = sys
            .register_dnn(Arc::clone(&arch), 11, epoch, Arc::clone(&data), 1000)
            .expect("register");
        sys.log_intermediates(&id).expect("log");
        ids.push(id);
    }
    sys.flush().expect("flush");
    (sys, ids, data)
}

/// Write an observability snapshot to `BENCH_<name>.json` — in the directory
/// named by `MISTIQUE_BENCH_DIR` when set, else the working directory — so
/// benchmark runs leave a machine-readable perf record next to their stdout
/// tables. Returns the path written.
pub fn write_obs_snapshot(name: &str, obs: &mistique_core::Obs) -> std::path::PathBuf {
    let dir = std::env::var("MISTIQUE_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    write_obs_snapshot_to(std::path::Path::new(&dir), name, obs)
}

/// [`write_obs_snapshot`] with an explicit target directory.
pub fn write_obs_snapshot_to(
    dir: &std::path::Path,
    name: &str,
    obs: &mistique_core::Obs,
) -> std::path::PathBuf {
    // Fingerprint the host so perf comparisons (scripts/bench_gate.sh) can
    // refuse to gate against a baseline captured on different hardware.
    obs.gauge("host.cpus").set_u64(
        std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1),
    );
    // And the engine configuration: systems stamp `config.fingerprint` at
    // open; substrate-only benches that never open one ran under default
    // knobs. bench_gate.sh refuses to compare snapshots whose fingerprints
    // differ.
    if !obs.snapshot().gauges.contains_key("config.fingerprint") {
        obs.gauge("config.fingerprint")
            .set_u64(MistiqueConfig::default().fingerprint_hash());
    }
    let path = dir.join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, obs.snapshot().to_json_string()) {
        Ok(()) => println!("\nwrote perf snapshot to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    path
}

/// Default channel scale for VGG16 experiments (keeps the geometry, divides
/// the widths; see DESIGN.md Sec 5).
pub const DEFAULT_VGG_SCALE: usize = 8;
/// Default DNN example count.
pub const DEFAULT_DNN_EXAMPLES: usize = 256;
/// Default Zillow property count.
pub const DEFAULT_ZILLOW_ROWS: usize = 4000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert!(fmt_dur(Duration::from_millis(5)).contains("ms"));
        assert!(fmt_dur(Duration::from_secs(2)).contains("s"));
    }

    #[test]
    fn zillow_system_builds() {
        let dir = mistique_testkit::tempdir().unwrap();
        let (sys, ids, _) = zillow_system(dir.path(), 120, 2, StorageStrategy::Dedup);
        assert_eq!(ids.len(), 2);
        assert!(sys.store().stats().chunks_stored > 0);
    }

    #[test]
    fn obs_snapshot_file_is_written() {
        let dir = mistique_testkit::tempdir().unwrap();
        let obs = mistique_core::Obs::new();
        obs.counter("bench.test").add(7);
        let path = write_obs_snapshot_to(dir.path(), "unit", &obs);
        assert_eq!(path.file_name().unwrap(), "BENCH_unit.json");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench.test\":7"));
        assert!(
            body.contains("\"host.cpus\":"),
            "every snapshot carries the host fingerprint"
        );
        assert!(
            body.contains("\"config.fingerprint\":"),
            "every snapshot carries the config fingerprint"
        );
    }

    #[test]
    fn dnn_system_builds() {
        let dir = mistique_testkit::tempdir().unwrap();
        let (sys, ids, _) = dnn_system(
            dir.path(),
            mistique_nn::simple_cnn(16),
            12,
            2,
            CaptureScheme::pool2(),
            StorageStrategy::Dedup,
        );
        assert_eq!(ids.len(), 2);
        assert_eq!(sys.intermediates_of(&ids[0]).len(), 9);
    }
}
