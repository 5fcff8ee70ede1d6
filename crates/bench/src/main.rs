//! `seal-bench` — regenerates the paper's tables and figures.
//!
//! ```text
//! seal-bench <experiment> [options]
//!
//! experiments:
//!   fig02 fig03 table2 fig08 ... fig14 ablation hasmr | all
//!
//! options:
//!   --sstable-kb N   SSTable size in KiB        (default 256; paper 4096)
//!   --load-mb N      payload to load in MiB     (default 256; paper 102400)
//!   --value N        value size in bytes        (default 1024; paper 4096)
//!   --read-ops N     point/seq read operations  (default 20000)
//!   --ycsb-ops N     YCSB operations/workload   (default 10000)
//!   --seed N         determinism seed
//!   --out DIR        CSV output directory       (default results/)
//!   --tiny           CI-speed smoke scale
//!   --serving        canonical latency-under-load sweep scale
//!   --X-out F        regenerate artifact X, write it to F
//!   --X-check F      validate a previously written artifact X
//!                    X: metrics (BENCH_pr2, observability trajectory),
//!                       serve (pr3, latency under load), scrub (pr5,
//!                       durability under latent errors), replicate
//!                       (pr6, replication/failover), shard (pr7,
//!                       multi-shard scale-out), vlog (pr8, key-value
//!                       separation), chaos (pr10, composed faults)
//!   --chaos-schedules N  seeded schedules in the chaos sweep (default 25)
//!
//! seal-bench --artifact-diff OLD NEW
//!   prints every leaf that differs between two artifacts as
//!   `path: old → new`; exits 1 if any does
//!
//! seal-bench --fidelity-check DIR
//!   holds the paper's order facts (Fig. 8, 10, 12, 14) against the figure
//!   CSVs in DIR; prints each broken one and exits 1 if any is
//! ```
//!
//! `serve` as an experiment name runs the sweep and prints the latency
//! table; the `--X-out` / `--X-check` flags work without an experiment
//! name.

use bench::experiments::{self, Report};
use bench::BenchScale;
use lsm_core::Result;
use std::io::Write as _;

/// One regenerable, checkable `BENCH_pr*.json` artifact: `--{flag}-out`
/// runs it, `--{flag}-check` validates it.
struct Artifact {
    flag: &'static str,
    what: &'static str,
    run: fn(&BenchScale, &Args) -> Result<String>,
    check: fn(&str) -> Vec<String>,
}

const ARTIFACTS: [Artifact; 7] = [
    Artifact {
        flag: "metrics",
        what: "metrics",
        run: |scale, _| bench::metrics_run::metrics_trajectory(scale),
        check: bench::metrics_run::check_metrics_json,
    },
    Artifact {
        flag: "serve",
        what: "serve",
        run: |scale, _| bench::serve_run::serve_sweep(scale),
        check: bench::serve_run::check_serve_json,
    },
    Artifact {
        flag: "scrub",
        what: "scrub",
        run: |scale, _| bench::scrub_run::scrub_sweep(scale),
        check: bench::scrub_run::check_scrub_json,
    },
    Artifact {
        flag: "replicate",
        what: "replication",
        run: |scale, _| bench::replicate_run::replicate_sweep(scale),
        check: bench::replicate_run::check_replicate_json,
    },
    Artifact {
        flag: "shard",
        what: "shard",
        run: |scale, _| bench::shard_run::shard_sweep(scale),
        check: bench::shard_run::check_shard_json,
    },
    Artifact {
        flag: "vlog",
        what: "vlog",
        run: |scale, _| bench::vlog_run::vlog_sweep(scale),
        check: bench::vlog_run::check_vlog_json,
    },
    Artifact {
        flag: "chaos",
        what: "chaos",
        run: |scale, args| bench::chaos_run::chaos_sweep(scale, args.chaos_schedules),
        check: bench::chaos_run::check_chaos_json,
    },
];

struct Args {
    experiments: Vec<String>,
    out_dir: String,
    /// Per [`ARTIFACTS`] entry: the `--X-out` path, if given.
    out: [Option<String>; ARTIFACTS.len()],
    /// Per [`ARTIFACTS`] entry: the `--X-check` path, if given.
    check: [Option<String>; ARTIFACTS.len()],
    chaos_schedules: usize,
    /// `--artifact-diff OLD NEW`.
    diff: Option<(String, String)>,
    /// `--fidelity-check DIR`.
    fidelity: Option<String>,
}

fn parse_args() -> (BenchScale, Args) {
    let mut scale = BenchScale::default();
    let mut parsed = Args {
        experiments: Vec::new(),
        out_dir: "results".to_string(),
        out: Default::default(),
        check: Default::default(),
        chaos_schedules: 25,
        diff: None,
        fidelity: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let text = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("missing value for {}", args[*i - 1]);
            std::process::exit(2);
        })
    };
    let need = |i: &mut usize| -> u64 {
        text(i).parse().unwrap_or_else(|_| {
            eprintln!("invalid numeric value for {}", args[*i - 1]);
            std::process::exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--sstable-kb" => scale.sstable = need(&mut i) << 10,
            "--load-mb" => scale.load_bytes = need(&mut i) << 20,
            "--value" => scale.value_size = need(&mut i) as usize,
            "--read-ops" => scale.read_ops = need(&mut i),
            "--ycsb-ops" => scale.ycsb_ops = need(&mut i),
            "--seed" => scale.seed = need(&mut i),
            "--tiny" => scale = BenchScale::tiny(),
            "--serving" => scale = BenchScale::serving(),
            "--out" => parsed.out_dir = text(&mut i),
            "--chaos-schedules" => parsed.chaos_schedules = need(&mut i) as usize,
            "--artifact-diff" => parsed.diff = Some((text(&mut i), text(&mut i))),
            "--fidelity-check" => parsed.fidelity = Some(text(&mut i)),
            other => {
                let artifact_flag = other.strip_prefix("--").and_then(|rest| {
                    let (flag, slot) = rest.rsplit_once('-')?;
                    Some((ARTIFACTS.iter().position(|a| a.flag == flag)?, slot))
                });
                match artifact_flag {
                    Some((k, "out")) => parsed.out[k] = Some(text(&mut i)),
                    Some((k, "check")) => parsed.check[k] = Some(text(&mut i)),
                    _ => parsed.experiments.push(other.to_string()),
                }
            }
        }
        i += 1;
    }
    (scale, parsed)
}

fn run_one(name: &str, scale: &BenchScale) -> Option<Report> {
    let started = std::time::Instant::now();
    let report = match name {
        "fig02" => experiments::fig02(scale),
        "fig03" => experiments::fig03(scale),
        "table2" => experiments::table2(scale),
        "fig08" => experiments::fig08(scale),
        "fig09" => experiments::fig09(scale),
        "fig10" => experiments::fig10(scale),
        "fig11" => experiments::fig11(scale),
        "fig12" => experiments::fig12(scale),
        "fig13" => experiments::fig13(scale),
        "fig14" => experiments::fig14(scale),
        "ablation" => experiments::ablation(scale),
        "hasmr" => experiments::hasmr(scale),
        "serve" => experiments::serve(scale),
        _ => {
            eprintln!("unknown experiment: {name}");
            return None;
        }
    };
    match report {
        Ok(r) => {
            println!("{}", r.render());
            println!("  [wall-clock {:.1} s]\n", started.elapsed().as_secs_f64());
            Some(r)
        }
        Err(e) => {
            eprintln!("experiment {name} failed: {e}");
            None
        }
    }
}

const ALL: [&str; 12] = [
    "fig02", "fig03", "table2", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
    "ablation", "hasmr",
];

/// Runs every `--X-out` and `--X-check` given, in [`ARTIFACTS`] order;
/// returns whether there was any.
fn run_artifacts(scale: &BenchScale, args: &Args) -> bool {
    let mut any = false;
    for (k, a) in ARTIFACTS.iter().enumerate() {
        let what = a.what;
        if let Some(path) = &args.out[k] {
            any = true;
            let started = std::time::Instant::now();
            let json = (a.run)(scale, args).unwrap_or_else(|e| {
                eprintln!("{what} run failed: {e}");
                std::process::exit(1);
            });
            // What the writer produced must be what the reader accepts:
            // `--X-out` never writes a file `--X-check` rejects for shape.
            let doc = bench::artifact::parse(&json).unwrap_or_else(|e| {
                eprintln!("{what} run wrote an artifact that does not re-parse: {e}");
                std::process::exit(1);
            });
            std::fs::write(path, &json).expect("write artifact");
            // The chaos artifact declares how many schedules it ran.
            let schedules = doc
                .u("schedules")
                .map_or(String::new(), |n| format!(", {n} schedules"));
            println!(
                "wrote {what} artifact {path} ({} bytes{schedules}) [wall-clock {:.1} s]",
                json.len(),
                started.elapsed().as_secs_f64()
            );
        }
        if let Some(path) = &args.check[k] {
            any = true;
            let content = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {what} artifact {path}: {e}");
                std::process::exit(1);
            });
            let problems = (a.check)(&content);
            for p in &problems {
                eprintln!("{what} artifact {path}: {p}");
            }
            if !problems.is_empty() {
                std::process::exit(1);
            }
            println!("{what} artifact {path} is valid");
        }
    }
    any
}

/// `--artifact-diff`: parses both artifacts and prints the leaves that
/// differ; exits 1 if any does, 2 if either does not parse.
fn artifact_diff(old: &str, new: &str) -> ! {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
        text.and_then(|t| bench::artifact::parse(&t))
            .unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            })
    };
    let lines = bench::artifact::diff(&read(old), &read(new));
    let mut out = std::io::stdout().lock();
    // A closed pipe (`| head`) ends the listing, not the process.
    for line in &lines {
        if writeln!(out, "{line}").is_err() {
            break;
        }
    }
    std::process::exit(i32::from(!lines.is_empty()));
}

/// `--fidelity-check`: prints every broken order fact; exits 1 if any
/// is broken, 0 if all hold.
fn fidelity_check(dir: &str) -> ! {
    let problems = bench::fidelity::check_dir(dir);
    for p in &problems {
        eprintln!("fidelity: {p}");
    }
    if problems.is_empty() {
        println!("fidelity: the paper's order facts hold in {dir}");
    }
    std::process::exit(i32::from(!problems.is_empty()));
}

fn main() {
    let (scale, args) = parse_args();
    if let Some((old, new)) = &args.diff {
        artifact_diff(old, new);
    }
    if let Some(dir) = &args.fidelity {
        fidelity_check(dir);
    }
    let ran_artifacts = run_artifacts(&scale, &args);
    let mut wanted = args.experiments;
    if wanted.is_empty() {
        if ran_artifacts {
            return;
        }
        eprintln!("usage: seal-bench <fig02|fig03|table2|fig08..fig14|serve|all> [options]");
        for a in &ARTIFACTS {
            eprintln!(
                "       seal-bench --{0}-out FILE | --{0}-check FILE [options]",
                a.flag
            );
        }
        eprintln!("       (--chaos-out also takes --chaos-schedules N)");
        eprintln!("       seal-bench --artifact-diff OLD NEW");
        eprintln!("       seal-bench --fidelity-check DIR");
        std::process::exit(2);
    }
    let out_dir = args.out_dir;
    if wanted.iter().any(|w| w == "all") {
        wanted = ALL.iter().map(|s| s.to_string()).collect();
    }
    println!(
        "scale: sstable {} KiB, band {} KiB, value {} B, load {} MiB ({} records), capacity {} MiB, linear factor {:.4}\n",
        scale.sstable >> 10,
        scale.band_size() >> 10,
        scale.value_size,
        scale.load_bytes >> 20,
        scale.load_records(),
        scale.disk_capacity() >> 20,
        scale.linear_factor(),
    );
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    for name in &wanted {
        if let Some(report) = run_one(name, &scale) {
            for csv in &report.csvs {
                let path = format!("{out_dir}/{}", csv.name);
                let mut f = std::fs::File::create(&path).expect("create csv");
                f.write_all(csv.content.as_bytes()).expect("write csv");
                println!("  wrote {path}");
            }
        }
    }
}
