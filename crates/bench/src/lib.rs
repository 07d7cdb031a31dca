//! Shared harness for the MISTIQUE reproduction benchmarks.
//!
//! One binary per table/figure of the paper's evaluation lives in
//! `src/bin/`; each prints the same rows/series the paper reports, scaled to
//! laptop budgets (`--rows`, `--examples`, … flags override the defaults).
//! Micro-benchmarks for the substrates live in `benches/`, timed by [`micro`]
//! (or [`micro_fresh`], when every run needs fresh state).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mistique_core::{
    CaptureScheme, FetchResult, FetchStrategy, Mistique, MistiqueConfig, StorageStrategy,
};
use mistique_linalg::Matrix;
use mistique_nn::{ArchConfig, CifarLike};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_quantize::{avg_pool2d, KbitQuantizer};

/// Minimal `--flag value` argument parser (no external deps).
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse the process arguments.
    pub fn parse() -> Args {
        Args::from_args(std::env::args().skip(1))
    }

    /// A flag's value is the argument after it, unless that argument is
    /// itself a flag: `--dnn --examples 64` is a boolean followed by a
    /// valued flag.
    fn from_args(args: impl Iterator<Item = String>) -> Args {
        let mut flags = HashMap::new();
        let mut iter = args.peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = iter
                    .next_if(|next| !next.starts_with("--"))
                    .unwrap_or_else(|| "true".to_string());
                flags.insert(name.to_string(), value);
            }
        }
        Args { flags }
    }

    /// The flag's value parsed as `T`, or `default` when the flag is absent.
    /// A value that is present but does not parse is an error, never the
    /// default: a run must not claim flags it did not honour.
    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T, ty: &str) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v}: expected {ty}")),
        }
    }

    /// A usize flag with a default; exits 2 on a value that is not one.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        or_exit(self.parsed(name, default, "an unsigned integer"))
    }

    /// An f64 flag with a default; exits 2 on a value that is not one.
    pub fn f64(&self, name: &str, default: f64) -> f64 {
        or_exit(self.parsed(name, default, "a number"))
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

    /// A comma-separated list of 1-based layer numbers, keeping those the
    /// model has; exits 2 on an entry that is not a number.
    pub fn layers(&self, name: &str, default: &str, n_layers: usize) -> Vec<usize> {
        let spec = self.string(name, default);
        or_exit(
            spec.split(',')
                .map(|s| s.trim().parse::<usize>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| format!("--{name} {spec}: expected comma-separated layer numbers")),
        )
        .into_iter()
        .filter(|l| (1..=n_layers).contains(l))
        .collect()
    }
}

fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
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
    report(name, bytes, (0..11).map(|_| ns_per_iter(iters)).collect());
}

/// [`micro`] for a case whose every run needs fresh state: `setup` builds
/// it untimed, `f` consumes it timed, once per run, and the line reports
/// the median of 11 runs. For cases of a millisecond or more, where one
/// call is far above timer resolution.
pub fn micro_fresh<S, T>(
    name: &str,
    bytes: u64,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) {
    let mut run = || {
        let state = setup();
        let t0 = Instant::now();
        let out = black_box(f(state));
        let ns = t0.elapsed().as_nanos() as f64;
        drop(out);
        ns
    };
    run();
    report(name, bytes, (0..11).map(|_| run()).collect());
}

/// Print one micro-benchmark line: the median of `ns` per iteration, plus
/// MB/s when an iteration processes `bytes` bytes.
fn report(name: &str, bytes: u64, mut ns: Vec<f64>) {
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

/// Time one fetch of `interm` under `strategy`.
pub fn timed_fetch(
    sys: &mut Mistique,
    interm: &str,
    cols: Option<&[&str]>,
    n_ex: Option<usize>,
    strategy: FetchStrategy,
) -> (FetchResult, Duration) {
    time(|| {
        sys.fetch_with_strategy(interm, cols, n_ex, strategy)
            .expect("fetch")
    })
}

/// Time a cold read: drop the partition read cache first, so the fetch pays
/// the full disk + decode cost.
pub fn cold_read(
    sys: &mut Mistique,
    interm: &str,
    cols: Option<&[&str]>,
    n_ex: Option<usize>,
) -> (FetchResult, Duration) {
    sys.store_mut().clear_read_cache();
    timed_fetch(sys, interm, cols, n_ex, FetchStrategy::Read)
}

/// Row indices of the `k` nearest neighbours (Euclidean) of row `query`.
pub fn knn(m: &Matrix, query: usize, k: usize) -> Vec<usize> {
    let mut d: Vec<(usize, f64)> = (0..m.rows())
        .filter(|&i| i != query)
        .map(|i| {
            let dist: f64 = m
                .row(i)
                .iter()
                .zip(m.row(query))
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            (i, dist)
        })
        .collect();
    d.sort_by(|a, b| a.1.total_cmp(&b.1));
    d.truncate(k);
    d.into_iter().map(|(i, _)| i).collect()
}

/// Fraction of `a` that also appears in `b`.
pub fn overlap(a: &[usize], b: &[usize]) -> f64 {
    a.iter().filter(|x| b.contains(x)).count() as f64 / a.len().max(1) as f64
}

/// `m` as KBIT_QT would store and reconstruct it — a `bits`-wide quantizer
/// fitted over every value — plus the fitted quantizer.
pub fn kbit_matrix(m: &Matrix, bits: u32) -> (Matrix, KbitQuantizer) {
    let all: Vec<f32> = m.data().iter().map(|&v| v as f32).collect();
    let q = KbitQuantizer::fit(&all, bits);
    let data = m
        .data()
        .iter()
        .map(|&v| q.value_of(q.code_of(v as f32)) as f64)
        .collect();
    (Matrix::from_vec(m.rows(), m.cols(), data), q)
}

/// `m` as POOL_QT(2) would summarize it: every row is `c` maps of `h x w`,
/// each average-pooled 2x2.
pub fn pool2_matrix(m: &Matrix, c: usize, h: usize, w: usize) -> Matrix {
    let oh = h.div_ceil(2);
    let ow = w.div_ceil(2);
    let mut out = Matrix::zeros(m.rows(), c * oh * ow);
    for i in 0..m.rows() {
        let row: Vec<f32> = m.row(i).iter().map(|&v| v as f32).collect();
        let mut offset = 0;
        for ch in 0..c {
            let pooled = avg_pool2d(&row[ch * h * w..(ch + 1) * h * w], h, w, 2);
            for (k, v) in pooled.iter().enumerate() {
                out[(i, offset + k)] = *v as f64;
            }
            offset += oh * ow;
        }
    }
    out
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

    fn args(line: &str) -> Args {
        Args::from_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn boolean_flag_does_not_swallow_the_next_flag() {
        let a = args("--dnn --examples 64 --scale 16");
        assert!(a.flag("dnn"));
        assert_eq!(a.usize("examples", 256), 64);
        assert_eq!(a.usize("scale", 8), 16);
        assert!(args("--examples 64 --dnn").flag("dnn"), "trailing boolean");
        assert_eq!(
            args("--shift -5").f64("shift", 0.0),
            -5.0,
            "one dash is a value"
        );
    }

    #[test]
    fn unparsable_value_is_an_error_not_the_default() {
        let a = args("--rows 1e4 --gamma fast");
        assert_eq!(
            a.parsed("rows", 4000usize, "an unsigned integer"),
            Err("--rows 1e4: expected an unsigned integer".to_string())
        );
        assert_eq!(
            a.parsed("gamma", 0.5f64, "a number"),
            Err("--gamma fast: expected a number".to_string())
        );
        assert_eq!(a.parsed("absent", 7usize, "an unsigned integer"), Ok(7));
        assert_eq!(a.f64("rows", 0.0), 1e4);
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
