//! `--selfcheck`: the noise protocol. Two sets of runs of the same code, each
//! run in its own process and on its own seed; for every (end-to-end metric,
//! workload) pair the two sets either agree within the bound
//! `BENCHMARK.json` fixes, disagree, or are unresolved because the spread
//! inside a set (inter-quartile distance over the median) is wider than the
//! bound — the same rule the benchmark's acceptance check applies.

use std::collections::BTreeMap;
use std::process::Command;

use mistique_obs::json::{parse, JsonValue};

use crate::stats::{median, quartiles, spread};

pub struct Options {
    /// Runs per set (and seeds `1..=runs` in each).
    pub runs: u64,
    /// Only this workload, when given.
    pub workload: Option<String>,
    /// Override of `run_seconds`.
    pub seconds: Option<f64>,
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn str_of<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: missing {key}"))
}

fn array_of<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    match v.get(key) {
        Some(JsonValue::Arr(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: {key} is not an array")),
    }
}

/// One run in a child process; the metrics of its result line.
fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); status {}",
            out.status
        )
    })?;
    if doc.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!(
            "{workload} seed {seed}: run reported failures: {last}"
        ));
    }
    let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!(
            "{workload} seed {seed}: result line has no metrics"
        ));
    };
    Ok(metrics
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

pub fn selfcheck(opts: &Options) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let seconds = match opts.seconds {
        Some(s) => s,
        None => doc
            .get("run_seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("BENCHMARK.json: missing run_seconds")?,
    };
    let bounds = array_of(&doc, "end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: str_of(m, "name")?.to_string(),
                lower_is_better: str_of(m, "better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("BENCHMARK.json: missing bound")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let workloads: Vec<String> = array_of(&doc, "workloads")?
        .iter()
        .map(|w| str_of(w, "name").map(str::to_string))
        .collect::<Result<_, _>>()?;

    println!(
        "selfcheck: 2 sets x {} runs x {seconds}s per workload, seeds 1..={}",
        opts.runs, opts.runs
    );
    println!(
        "{:<18} {:<18} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median_A", "median_B", "iqr_A", "iqr_B", "bound"
    );
    let mut all_agree = true;
    for workload in workloads
        .iter()
        .filter(|w| opts.workload.as_ref().is_none_or(|only| only == *w))
    {
        // The sets are interleaved run by run, so drift of the host over
        // the minutes this takes lands on both.
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for seed in 1..=opts.runs {
            for set in &mut sets {
                for (name, v) in one_run(workload, seed, seconds)? {
                    set.entry(name).or_default().push(v);
                }
            }
        }
        for b in &bounds {
            let (a, z) = (&sets[0][&b.name], &sets[1][&b.name]);
            let (ma, mz) = (median(a), median(z));
            let (sa, sz) = (spread(a).unwrap_or(0.0), spread(z).unwrap_or(0.0));
            let worse_by = if b.lower_is_better {
                (mz - ma) / ma
            } else {
                (ma - mz) / ma
            };
            // Set-up time is judged on its medians only.
            let verdict = if b.name != "setup_s" && sa.max(sz) > b.bound {
                "UNRESOLVED"
            } else if worse_by > b.bound {
                "DISAGREE"
            } else {
                "agree"
            };
            all_agree &= verdict == "agree";
            println!(
                "{workload:<18} {:<18} {ma:>12.5} {mz:>12.5} {:>7.2}% {:>7.2}% {:>6.0}%  {verdict}",
                b.name,
                sa * 100.0,
                sz * 100.0,
                b.bound * 100.0
            );
            if verdict == "UNRESOLVED" {
                println!("  quartiles A {:?}  B {:?}", quartiles(a), quartiles(z));
            }
        }
    }
    Ok(all_agree)
}
