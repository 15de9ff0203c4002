//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a report: provenance, sizes, every
//! end-to-end metric that applies to the workload (and every per-layer
//! metric when tracing) with its unit, the digest of the simulated
//! statistics, and, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when any operation or
//! correctness check failed, 2 on bad arguments or a failed set-up.
//!
//! A traced run keeps its spans in memory and writes them, one JSON object
//! per line, to `out/trace-<workload>-seed<n>.jsonl` under this package's
//! directory when it ends. Every run records its digest in
//! `out/digest-<workload>-seed<n>.txt`, and a later run of the same
//! executable at the same seed fails if its digest differs.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::UNIX_EPOCH;

use perfbench::{run, trace, Config, Outcome, Size, WorkloadName};

const USAGE: &str = "usage: perfbench --workload <ingest|degraded_read|mapreduce|repro_quick> \
     --seed <u64> --seconds <f64> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadName::parse(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
    })
}

/// Where runs leave their traces and digests, under this package.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Two runs of one build at one seed must print the same digest: compares
/// it with the one an earlier run of this executable recorded for the
/// workload and seed (one more operation, failed on a mismatch), or records
/// it when there is none.
fn check_digest_repeats(outcome: &mut Outcome) {
    let Ok(meta) = std::env::current_exe().and_then(std::fs::metadata) else {
        return;
    };
    let built = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let build = format!("{}-{built}", meta.len());
    let c = &outcome.config;
    let path = out_dir().join(format!("digest-{}-seed{}.txt", c.workload.as_str(), c.seed));
    let record = format!("{build} {:016x}\n", outcome.digest);
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.split_whitespace().next() == Some(build.as_str()) => {
            outcome.attempted += 1;
            if earlier != record {
                outcome.failed += 1;
                outcome.failures.push(format!(
                    "digest {:016x} differs from an earlier run of this build at seed {}: {}",
                    outcome.digest,
                    c.seed,
                    earlier.trim()
                ));
            }
        }
        _ => {
            let written =
                std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, record));
            if let Err(e) = written {
                eprintln!("warning: could not record the digest: {e}");
            }
        }
    }
}

fn write_trace(outcome: &Outcome) -> std::io::Result<String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        outcome.config.workload.as_str(),
        outcome.config.seed
    ));
    std::fs::write(&path, trace::to_json_lines(&outcome.spans))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    check_digest_repeats(&mut outcome);
    for line in outcome.report_lines() {
        println!("{line}");
    }
    if config.trace {
        match write_trace(&outcome) {
            Ok(path) => println!("trace {} spans written to {path}", outcome.spans.len()),
            Err(e) => eprintln!("warning: could not write the trace: {e}"),
        }
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
