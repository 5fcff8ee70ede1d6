//! `sealdb-cli` — an interactive shell over the SEALDB reproduction.
//!
//! ```text
//! cargo run --release --bin sealdb-cli [-- --store sealdb|leveldb|smrdb|leveldb-sets]
//! cargo run --release --bin sealdb-cli -- serve [--seed N] [--metrics-out FILE]
//! ```
//!
//! `serve` skips the shell: it runs a small latency-under-load sweep
//! (multi-client `WorkloadSpec::serve_mix`, 50% zipfian reads / 50%
//! inserts, against every main store), prints the latency table, and with
//! `--metrics-out` writes the same JSON artifact `seal-bench --serve-out`
//! produces.
//!
//! Interactive commands:
//!
//! ```text
//! put <key> <value>        insert or overwrite
//! get <key>                point lookup
//! del <key>                delete
//! scan <start> <n>         range scan
//! fill <n>                 load n synthetic records (random order)
//! stats                    WA/AWA/MWA, compactions, sets, bands
//! layout                   dynamic bands and free regions
//! gc                       run fragment garbage collection
//! flush                    flush memtable + quiesce compactions
//! crash                    simulated crash + recovery (reopen)
//! help | quit
//! ```

use sealdb::{Store, StoreConfig, StoreKind};
use std::io::{BufRead, Write};

fn parse_store(args: &[String]) -> StoreKind {
    match args
        .iter()
        .position(|a| a == "--store")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        Some("leveldb") => StoreKind::LevelDb,
        Some("leveldb-sets") => StoreKind::LevelDbSets,
        Some("smrdb") => StoreKind::SmrDb,
        _ => StoreKind::SealDb,
    }
}

fn print_stats(store: &Store) {
    let s = store.snapshot();
    println!("simulated time : {:.3} s", s.clock_ns as f64 / 1e9);
    println!(
        "amplification  : WA {:.2}  AWA {:.2}  MWA {:.2}",
        s.io.wa(),
        s.io.awa(),
        s.io.mwa()
    );
    println!(
        "compactions    : {} ({} trivial), flushes {}",
        s.compactions.len(),
        s.compactions.iter().filter(|c| c.trivial_move).count(),
        s.flushes
    );
    if let Some(sets) = s.set_stats {
        println!(
            "sets           : {} created / {} live, avg {:.2} tables, {:.2} MiB",
            sets.sets_created,
            sets.sets_live,
            sets.avg_set_files(),
            sets.avg_set_bytes() / (1u64 << 20) as f64
        );
    }
    println!(
        "disk           : {:.1} MiB used span, {:.1} MiB allocated, {} free regions",
        s.high_water as f64 / (1u64 << 20) as f64,
        s.allocated_bytes as f64 / (1u64 << 20) as f64,
        s.free_regions.len()
    );
    let (levels, mem) = store.db.level_summary();
    let tree: Vec<String> = levels
        .iter()
        .enumerate()
        .filter(|(_, (n, _))| *n > 0)
        .map(|(l, (n, b))| format!("L{l}:{n} files/{:.1} MiB", *b as f64 / (1u64 << 20) as f64))
        .collect();
    println!(
        "tree           : mem {:.2} MiB | {}",
        mem as f64 / (1u64 << 20) as f64,
        tree.join("  ")
    );
}

fn print_layout(store: &Store) {
    let s = store.snapshot();
    if s.bands.is_empty() {
        println!("(no dynamic bands — this store does not use them)");
    }
    for (i, (ext, members)) in s.bands.iter().enumerate() {
        println!(
            "band {i:>3}: [{:>9.2}, {:>9.2}) MiB, {members} sets",
            ext.offset as f64 / (1u64 << 20) as f64,
            ext.end() as f64 / (1u64 << 20) as f64
        );
    }
    for ext in &s.free_regions {
        println!(
            "free    : [{:>9.2}, {:>9.2}) MiB ({:.2} MiB)",
            ext.offset as f64 / (1u64 << 20) as f64,
            ext.end() as f64 / (1u64 << 20) as f64,
            ext.len as f64 / (1u64 << 20) as f64
        );
    }
}

/// `sealdb-cli serve`: a non-interactive small-scale serving sweep with
/// a human-readable latency table, mirroring `seal-bench serve` but at a
/// scale that finishes in seconds.
fn run_serve(args: &[String]) {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    // The canonical sweep scale (~17 s): the same configuration CI uses
    // for BENCH_pr3.json, so the shell shows the headline curve.
    let mut scale = bench::BenchScale::serving();
    if let Some(seed) = flag("--seed").and_then(|s| s.parse().ok()) {
        scale.seed = seed;
    }
    let doc = bench::serve_run::serve_rows(&scale).unwrap_or_else(|e| {
        eprintln!("serve sweep failed: {e}");
        std::process::exit(1);
    });
    if let Err(e) = print_sweep(&doc) {
        eprintln!("serve sweep is malformed: {e}");
        std::process::exit(1);
    }
    if let Some(path) = flag("--metrics-out") {
        let json = doc.to_json();
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write serve artifact {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote serve artifact {path} ({} bytes)", json.len());
    }
}

/// The banner and one latency table per store, read from the same
/// document `--metrics-out` writes.
fn print_sweep(doc: &bench::artifact::Row) -> Result<(), String> {
    println!(
        "serving sweep: workload {}, {} clients, {} preloaded records, {} ops per load point, seed {}",
        doc.s("workload")?,
        doc.u("clients")?,
        doc.u("records")?,
        doc.u("ops")?,
        doc.u("seed")?
    );
    for sweep in doc.rows("stores")? {
        println!(
            "\n{} — saturation {:.0} op/s (closed loop, zero think time)",
            sweep.s("store")?,
            sweep.f("saturation_ops_per_sec")?
        );
        println!(
            "  {:>11} {:>11} {:>9} {:>9} {:>9} {:>7} {:>7} {:>6}",
            "offered/s", "served/s", "p50 ms", "p95 ms", "p99 ms", "depth", "stalls", "group"
        );
        for p in sweep.rows("points")? {
            println!(
                "  {:>11.0} {:>11.0} {:>9.3} {:>9.3} {:>9.3} {:>7} {:>7} {:>6.2}",
                p.f("offered_ops_per_sec")?,
                p.f("throughput_ops_per_sec")?,
                p.u("p50_ns")? as f64 / 1e6,
                p.u("p95_ns")? as f64 / 1e6,
                p.u("p99_ns")? as f64 / 1e6,
                p.u("queue_depth_max")?,
                p.u("stall_slowdowns")? + p.u("stall_stops")? + p.u("stall_memtables")?,
                p.f("avg_group_size")?
            );
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().skip(1).any(|a| a == "serve") {
        run_serve(&args);
        return;
    }
    let kind = parse_store(&args);
    let mut store = StoreConfig::new(kind, 256 << 10, 2 << 30)
        .build()
        .expect("build store");
    println!(
        "{} on a simulated 2 GiB SMR drive (256 KiB SSTables). Type `help`.",
        store.name()
    );
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("{}> ", store.name());
        out.flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let result = match parts.as_slice() {
            [] => Ok(()),
            ["quit"] | ["exit"] => break,
            ["help"] => {
                println!("put get del scan fill stats layout gc flush crash quit");
                Ok(())
            }
            ["put", k, v] => store.put(k.as_bytes(), v.as_bytes()),
            ["get", k] => {
                match store.get(k.as_bytes()) {
                    Ok(Some(v)) => println!("{}", String::from_utf8_lossy(&v)),
                    Ok(None) => println!("(not found)"),
                    Err(e) => println!("error: {e}"),
                }
                Ok(())
            }
            ["del", k] => store.delete(k.as_bytes()),
            ["scan", start, n] => {
                let n: usize = n.parse().unwrap_or(10);
                match store.scan(start.as_bytes(), n) {
                    Ok(rows) => {
                        for (k, v) in rows {
                            println!(
                                "{} = {}",
                                String::from_utf8_lossy(&k),
                                String::from_utf8_lossy(&v[..v.len().min(40)])
                            );
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
                Ok(())
            }
            ["fill", n] => {
                let n: u64 = n.parse().unwrap_or(1000);
                let gen = workloads::RecordGenerator::new(16, 512, 7);
                let res = workloads::fill_random(&mut store, &gen, n, 11);
                match res {
                    Ok(r) => {
                        println!(
                            "{} records in {:.2} simulated s ({:.0} op/s)",
                            n,
                            r.sim_ns as f64 / 1e9,
                            r.ops_per_sec()
                        );
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            ["stats"] => {
                print_stats(&store);
                Ok(())
            }
            ["layout"] => {
                print_layout(&store);
                Ok(())
            }
            ["gc"] => match store.collect_garbage(&lsm_core::GcConfig::default()) {
                Ok(r) => {
                    println!(
                        "relocated {} sets, moved {:.2} MiB, fragments {:.2} -> {:.2} MiB",
                        r.relocated_sets,
                        r.moved_bytes as f64 / (1u64 << 20) as f64,
                        r.fragments_before as f64 / (1u64 << 20) as f64,
                        r.fragments_after as f64 / (1u64 << 20) as f64
                    );
                    Ok(())
                }
                Err(e) => Err(e),
            },
            ["flush"] => store.flush(),
            ["crash"] => {
                store = store.reopen().expect("recovery");
                println!("crashed and recovered; unsynced writes were lost (sync=false semantics)");
                Ok(())
            }
            other => {
                println!("unknown command {other:?}; try `help`");
                Ok(())
            }
        };
        if let Err(e) = result {
            println!("error: {e}");
        }
    }
}
