//! The SilvaSec benchmark.
//!
//! ```text
//! silvabench --workload <shift|odd-sweep|fleet-drill> [--seed <n>]
//!            [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Runs one workload for `--seconds` and prints a report line (host
//! descriptor, digests, checks) followed by the result line: one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end metrics; with `--trace 1`
//! a separate traced run gives the per-layer metrics and writes its spans
//! under the build directory. See `README.md` in this directory.

#![forbid(unsafe_code)]

mod drill;
mod probe;
mod report;
#[cfg(test)]
mod selftest;
mod shift;
mod sweep;
mod trace;

use report::{Outcome, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
    })
}

/// Where a traced run writes its spans: under the build directory, so a
/// checkout's ignore rules already cover it. Each traced run of a
/// workload overwrites the last one's file.
fn spans_path(workload: Workload) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("silvabench/target"), PathBuf::from);
    root.join("spans").join(format!("{}.tsv", workload.name()))
}

fn run(args: &Args) -> Outcome {
    let (seed, seconds) = (args.seed, args.seconds);
    if !args.trace {
        let mut out = match args.workload {
            Workload::Shift => shift::run(seed, seconds),
            Workload::OddSweep => sweep::run(seed, seconds),
            Workload::FleetDrill => drill::run(seed, seconds),
        };
        out.metrics.insert("peak_rss_mib", report::peak_rss_mib());
        return out;
    }
    let mut tracer = trace::Tracer::new();
    let mut out = match args.workload {
        Workload::Shift => shift::run_traced(seed, seconds, &mut tracer),
        Workload::OddSweep => sweep::run_traced(seed, seconds, &mut tracer),
        Workload::FleetDrill => drill::run_traced(seed, seconds, &mut tracer),
    };
    let self_times: Vec<String> = tracer
        .stats()
        .iter()
        .map(|(name, s)| {
            format!(
                "{name}: calls={} total_us={:.1} self_us={:.1}",
                s.calls, s.total_us, s.self_us
            )
        })
        .collect();
    out.report.insert("span_self_times", self_times.join("; "));
    let path = spans_path(args.workload);
    match tracer.write_spans(&path) {
        Ok(()) => out.report.insert("spans", path.display().to_string()),
        Err(e) => out.report.insert("spans", format!("not written: {e}")),
    };
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("silvabench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    let defs = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!(
        "{}",
        report::report_line(args.workload, args.seed, args.trace, &out)
    );
    println!("{}", report::result_line(&out, defs));
    ExitCode::SUCCESS
}
