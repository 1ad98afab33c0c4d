//! `vbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Exits 1 when a check fails or the run cannot complete, 2 on bad
//! arguments.

use std::process::ExitCode;
use vbench::run::{run_timed, Budget, RunOptions};
use vbench::workload::{Plan, Workload, CONNECTIONS};

/// Setups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vbench: {e}");
            eprintln!("usage: vbench --workload <ingest_archive|query_scan|query_hot|lifecycle> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed);
    let (dir, result) = if args.trace {
        let dir = vbench::run_dir(args.workload.name(), "trace");
        let result = vbench::trace::run_traced(&plan, &dir).map(|t| (t.outcome, t.summary));
        (dir, result)
    } else {
        let dir = vbench::run_dir(args.workload.name(), "timed");
        let options = RunOptions {
            budget: Budget::Seconds(args.seconds),
            connections: CONNECTIONS,
            setups: SETUPS,
        };
        let result = run_timed(&plan, &dir, &options).map(|t| (t.outcome, t.summary));
        (dir, result)
    };
    vbench::run::remove_dir(&dir);
    let declared: &[&str] = if args.trace {
        &vbench::PER_LAYER
    } else {
        &vbench::END_TO_END
    };
    let result = result.and_then(|(outcome, summary)| {
        outcome.metrics.check_declared(declared)?;
        Ok((outcome, summary))
    });
    match result {
        Ok((outcome, summary)) => {
            for line in summary {
                eprintln!("{line}");
            }
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("vbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
