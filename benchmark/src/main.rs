//! `seal-perf` — the repo's single performance benchmark, on both clocks.
//!
//! ```text
//! seal-perf run --workload W --seed S [--seconds N] [--trace 0|1]
//!               [--scale full|smoke] [--out FILE] [--trace-out FILE]
//! seal-perf verify [--seed S]  self-checks at smoke scale
//! seal-perf compare A B        judge run set B against base A
//! seal-perf report RUN [TRACE] `--out` documents as Markdown tables
//! seal-perf manifest           print BENCHMARK.json
//! ```
//!
//! `run` prints a table and, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: every end-to-end
//! metric untraced, every per-layer metric traced.

mod cases;
mod catalog;
mod compare;
mod hostclock;
mod json;
mod ledger;
mod probes;
mod report;
mod run;
mod spans;
mod stats;
mod surface;
mod verify;

use cases::{Scale, Workload};
use std::process::ExitCode;

/// Arguments of `run`.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds of timed phases to measure.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where to append the detailed document (one line), if anywhere.
    pub out: Option<String>,
    /// Where to write the Chrome trace of a traced run, if anywhere.
    pub trace_out: Option<String>,
}

fn parse_run(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::LoadRandom,
        seed: 1,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
        out: None,
        trace_out: None,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(value.clone()),
            "--trace-out" => args.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required (BENCHMARK.json lists them)")?;
    Ok(args)
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args) -> Result<(), String> {
    let (doc, line) = if args.trace {
        let (doc, line, trace) = run::traced(args);
        if let Some(path) = &args.trace_out {
            std::fs::write(path, trace.encode()).map_err(|e| format!("{path}: {e}"))?;
        }
        (doc, line)
    } else {
        run::untraced(args)
    };
    if let Some(path) = &args.out {
        append_line(path, &doc.encode())?;
    }
    println!("{}", line.encode());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("help", &[][..]),
    };
    let outcome = match cmd {
        "run" => parse_run(rest).and_then(|a| run(&a)).map(|()| true),
        "verify" => match rest {
            [] => Ok(verify::verify(1)),
            [flag, seed] if flag == "--seed" => seed
                .parse()
                .map(verify::verify)
                .map_err(|_| format!("bad seed {seed}")),
            _ => Err("usage: seal-perf verify [--seed S]".to_string()),
        },
        "compare" => match rest {
            [a, b] => compare::compare(a, b),
            _ => Err("usage: seal-perf compare A B".to_string()),
        },
        "report" => match rest {
            [runs] => report::report(runs, None),
            [runs, traces] => report::report(runs, Some(traces)),
            _ => Err("usage: seal-perf report RUN [TRACE]".to_string()),
        },
        "manifest" => {
            print!("{}", catalog::manifest().pretty());
            Ok(true)
        }
        _ => Err(
            "usage: seal-perf run|verify|compare|report|manifest (see benchmark/README.md)"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("seal-perf: {e}");
            ExitCode::from(2)
        }
    }
}
