//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --ref-nominal-ms <ms> [--work-dir <dir>] [--trace-out <file>]`
//!
//! Runs one workload and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics of the traced run.
//! Exits 1 when any output check failed, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::harness::Args;

fn parse() -> Result<(String, Args), String> {
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: 12,
        trace: false,
        nominal_ms: 0.0,
        trace_out: None,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            "--ref-nominal-ms" => args.nominal_ms = value.parse().map_err(|e| bad(&e))?,
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.nominal_ms.is_finite() && args.nominal_ms > 0.0) {
        return Err("--ref-nominal-ms must be a positive number of ms".to_owned());
    }
    Ok((workload.ok_or("--workload is required")?, args))
}

fn main() -> ExitCode {
    let (workload, args) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run_workload(&workload, &args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        match report.host_line() {
            Ok(line) => println!("{line}"),
            Err(e) => eprintln!("perfbench: host diagnostics incomplete: {e}"),
        }
    }
    match report.result_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
