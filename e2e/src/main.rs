//! `e2e`: the layered end-to-end benchmark of the MISTIQUE engine.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! e2e --selfcheck [--runs <n>] [--workload <name>] [--seconds <s>]
//! ```
//!
//! One invocation runs one workload from one seed in its own process, checks
//! every answer against the oracle, prints a human-readable report and, as
//! the last line of standard output, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! README.md.

mod corpus;
mod json;
mod metrics;
mod ops;
mod replay;
mod rng;
mod run;
mod selfcheck;
mod stats;
mod tempdir;
mod timedfs;
mod trace;
mod workload;

use std::process::ExitCode;

const USAGE: &str = "usage: e2e --workload <trad_read|dnn_read|dnn_log|adaptive_session> --seed <n> \
--seconds <s> --trace <0|1> [--trace-out <file>]\n       e2e --selfcheck [--runs <n>] [--workload <name>] [--seconds <s>]";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<std::path::PathBuf>,
    selfcheck: bool,
    runs: u64,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        trace_out: None,
        selfcheck: false,
        runs: 10,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s}: out of range"));
                }
                cli.seconds = Some(s);
            }
            "--runs" => {
                cli.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--trace-out" => cli.trace_out = Some(value("a path")?.into()),
            "--selfcheck" => cli.selfcheck = true,
            // `--trace 0|1`, or a bare `--trace`.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.runs < 2 {
        return Err("--runs: at least 2".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.selfcheck {
        let opts = selfcheck::Options {
            runs: cli.runs,
            workload: cli.workload,
            seconds: cli.seconds,
        };
        return match selfcheck::selfcheck(&opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("e2e: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(wl) = cli.workload.as_deref().and_then(workload::by_name) else {
        eprintln!("e2e: --workload must name one of the four workloads\n{USAGE}");
        return ExitCode::from(2);
    };
    let args = run::Args {
        workload: wl.name.to_string(),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(10.0),
        trace: cli.trace,
        trace_out: cli.trace_out,
    };
    match run::run(wl, &args) {
        Err(e) => {
            // No result line: the run did not measure anything.
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
        Ok(outcome) => {
            for line in &outcome.report {
                println!("{line}");
            }
            let metrics = if args.trace {
                &outcome.per_layer
            } else {
                &outcome.end_to_end
            };
            println!(
                "{}",
                json::result_line(outcome.attempted, outcome.failed, metrics)
            );
            if outcome.failed > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}
