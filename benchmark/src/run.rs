//! One run of one workload: reps until the timed phases add up to
//! `--seconds`, medians with quartiles over the reps, the contract's result
//! line — or, traced, one untraced and one traced rep plus probes, the rate
//! ladder and the per-layer ledger.

use crate::cases::{self, run_rep, RepOut, Scale, Seeds, Workload};
use crate::catalog::{Clock, END_TO_END, LADDER_LIMIT_MS, LADDER_STEPS, PER_LAYER};
use crate::json::Json;
use crate::ledger::{self, Ledger};
use crate::spans::{self, Recorder};
use crate::stats::{summarize, Summary};
use crate::surface::{self, System};
use crate::{hostclock, probes, Args};

/// Reps whose simulated-clock values are reported. Every run makes one more
/// at least; reps past that (made while `--seconds` is not used up) add
/// host-clock samples only, so simulated results never depend on how fast the
/// host happened to be.
pub const SIM_REPS: usize = 5;
/// Rep 0 warms the process up — first-touch page faults made it 30 % slower
/// than the rest — so host-clock values skip it. Its simulated-clock values
/// cannot be affected and are kept.
const WARM_UP_REPS: usize = 1;
/// `host_ops_per_s` over wall time, in every `run` document's `end_to_end`.
pub const WALL_TWIN: &str = "host_wall_ops_per_s";
/// Op subtrees written to the Chrome trace file.
const TRACE_OPS: u32 = 20_000;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-rep value of an end-to-end metric (`host_peak_rss_mib` is per
/// process, not per rep).
fn rep_value(name: &str, rep: &RepOut) -> f64 {
    match name {
        "host_ops_per_s" => rep.host_ops_per_s(),
        "setup_s" => rep.setup_ns as f64 / 1e9,
        "sim_ops_per_s" => rep.sim_ops_per_s(),
        "op_p50_ms" => rep.latency.both_p50 / 1e6,
        "op_p99_ms" => rep.latency.both_p99 / 1e6,
        "wa" => rep.delta.life_wa,
        "mwa" => rep.delta.life_mwa,
        "space_amp" => rep.space_amp(),
        "read_amp" => rep.read_amp(),
        "fail_ratio" => rep.failed as f64 / rep.attempted.max(1) as f64,
        other => panic!("{other} has no per-rep value"),
    }
}

/// The run's configuration, stated in every output.
fn config(w: Workload, scale: Scale) -> Json {
    let s = cases::sizes(w, scale);
    let (block_cache, table_cache) = surface::cache_defaults();
    Json::obj()
        .with("store", "SEALDB")
        .with("sstable_kib", surface::SSTABLE_BYTES >> 10)
        .with("band_kib", surface::band_bytes() >> 10)
        .with("capacity_ratio", surface::CAPACITY_RATIO)
        .with("block_cache_kib", block_cache >> 10)
        .with("table_cache_entries", table_cache)
        .with("key_bytes", 16u64)
        .with("value_bytes", s.value_bytes)
        .with("preload_mib", s.preload_bytes as f64 / (1u64 << 20) as f64)
        .with("ops_per_phase", s.ops)
        .with("hot_keys", s.hot_keys)
        .with("serve_mixed_rate", cases::SERVE_MIXED_RATE)
        .with("update_vlog_rate", cases::UPDATE_VLOG_RATE)
        .with("threads", 1u64)
        .with(
            "loops",
            "closed, except the seal-front open-loop phases: Poisson at a fixed simulated rate, \
             timed from each request's due time; arrivals are simulated-clock events, so generator \
             lateness is 0 by construction",
        )
}

fn summary_json(unit: &str, clock: &str, s: &Summary, values: &[f64]) -> Json {
    Json::obj()
        .with("unit", unit)
        .with("clock", clock)
        .with("median", s.median)
        .with("q1", s.q1)
        .with("q3", s.q3)
        .with("n", s.n)
        .with(
            "values",
            values.iter().map(|&v| Json::from(v)).collect::<Vec<_>>(),
        )
}

/// What is exactly reproducible for a seed: per-rep simulated-clock values and
/// counters of the first [`SIM_REPS`] reps. `verify` compares its encoding
/// byte for byte.
pub fn sim_section(reps: &[RepOut]) -> Json {
    let rows = reps
        .iter()
        .take(SIM_REPS)
        .map(|r| {
            let mut l = Ledger::default();
            ledger::counters(r, &mut l);
            let mut row = Json::obj()
                .with("ops", r.ops)
                .with("sim_ns", r.sim_ns)
                .with("sim_ops_per_s", r.sim_ops_per_s())
                .with("sim_p50_ms", r.latency.sim_p50 / 1e6)
                .with("sim_p99_ms", r.latency.sim_p99 / 1e6)
                .with("latency_samples", r.latency.samples)
                .with("wa", r.delta.life_wa)
                .with("mwa", r.delta.life_mwa)
                .with("space_amp", r.space_amp())
                .with("read_amp", r.read_amp())
                .with("attempted", r.attempted)
                .with("failed", r.failed);
            // `counters` fills simulated-clock rows only; the rest read 0.
            for (name, _, value) in l.rows() {
                if value != 0.0 {
                    row = row.with(name, value);
                }
            }
            row
        })
        .collect::<Vec<_>>();
    Json::obj().with("reps", rows)
}

fn header(args: &Args, mode: &str) -> Json {
    Json::obj()
        .with("schema", "seal-perf/1")
        .with("mode", mode)
        .with("workload", args.workload.name())
        .with("seed", args.seed)
        .with("scale", args.scale.name())
        .with("seconds", args.seconds)
        .with("nproc", nproc())
        .with("host_clock", hostclock::source())
        .with("config", config(args.workload, args.scale))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics)
}

/// An untraced run: every end-to-end metric. Returns the detailed document
/// and the contract's result line.
pub fn untraced(args: &Args) -> (Json, Json) {
    let w = args.workload;
    let budget_ns = (args.seconds * 1e9) as u64;
    let mut reps: Vec<RepOut> = Vec::new();
    let mut timed_ns = 0;
    while reps.len() < WARM_UP_REPS + SIM_REPS || timed_ns < budget_ns {
        let rep = run_rep(
            w,
            args.scale,
            Seeds::for_rep(args.seed, reps.len()),
            &mut Recorder::off(),
        );
        timed_ns += rep.wall_ns;
        reps.push(rep);
    }
    let rss = peak_rss_mib();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();

    println!(
        "seal-perf {} seed={} scale={} reps={} (simulated clock: the first {}; host clock: all but the \
         first) nproc={} host_clock={}",
        w.name(),
        args.seed,
        args.scale.name(),
        reps.len(),
        SIM_REPS,
        nproc(),
        hostclock::source()
    );
    println!(
        "{:<20} {:<6} {:<9} {:>14} {:>14} {:>14} {:>3}",
        "metric", "unit", "clock", "median", "q1", "q3", "n"
    );
    // Prints one row and returns its entry of the document.
    let row = |name: &str, unit: &str, clock: &str, values: &[f64]| {
        let s = summarize(values);
        println!(
            "{name:<20} {unit:<6} {clock:<9} {:>14.4} {:>14.4} {:>14.4} {:>3}",
            s.median, s.q1, s.q3, s.n
        );
        (s.median, summary_json(unit, clock, &s, values))
    };
    let mut end_to_end = Json::obj();
    let mut metrics = Json::obj();
    for m in &END_TO_END {
        let values: Vec<f64> = if m.name == "host_peak_rss_mib" {
            vec![rss]
        } else {
            // Simulated values come from a fixed set of reps; whatever has a
            // host part skips the warm-up rep; pure host values use the rest.
            let used = match m.clock {
                Clock::Host => &reps[WARM_UP_REPS..],
                Clock::Both => &reps[WARM_UP_REPS..WARM_UP_REPS + SIM_REPS],
                Clock::Sim | Clock::Neither => &reps[..SIM_REPS],
            };
            used.iter().map(|r| rep_value(m.name, r)).collect()
        };
        let (median, entry) = row(m.name, m.unit, m.clock.as_str(), &values);
        end_to_end = end_to_end.with(m.name, entry);
        if m.in_manifest() {
            metrics = metrics.with(
                m.name,
                Json::obj().with("value", median).with("unit", m.unit),
            );
        }
    }
    // The wall-clock twin of `host_ops_per_s`, reported beside it and not
    // judged: the two agree unless the code blocked, ran on another thread, or
    // the host took the CPU away.
    let wall: Vec<f64> = reps[WARM_UP_REPS..]
        .iter()
        .map(RepOut::host_wall_ops_per_s)
        .collect();
    let (_, entry) = row(WALL_TWIN, "1/s", "wall", &wall);
    let end_to_end = end_to_end.with(WALL_TWIN, entry);
    let doc = header(args, "run")
        .with("reps", reps.len())
        .with("sim_reps", SIM_REPS)
        .with("warm_up_reps", WARM_UP_REPS)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("end_to_end", end_to_end)
        .with("sim", sim_section(&reps));
    (doc, result_line(failed == 0, attempted, failed, metrics))
}

/// The fixed-rate ladder of the serving workloads: at each step one open-loop
/// phase on a freshly preloaded store, all with the same dataset and op
/// stream; its p99, and the highest rate whose p99 meets the limit while the
/// achieved throughput keeps up with the offered rate (no growing backlog).
fn rate_ladder(w: Workload, scale: Scale, seed: Seeds, ledger: &mut Ledger) {
    let s = cases::sizes(w, scale);
    let base = match w {
        Workload::ServeMixed => cases::SERVE_MIXED_RATE,
        Workload::UpdateVlog => cases::UPDATE_VLOG_RATE,
        _ => return,
    };
    let mut max_ok = 0.0;
    for (step, percent) in LADDER_STEPS {
        let rate = base * percent as f64 / 100.0;
        let (p99_ns, achieved) = if w == Workload::ServeMixed {
            cases::serve_mixed_at(&s, seed, rate)
        } else {
            let r = cases::update_vlog(&s, seed, rate, &mut Recorder::off());
            (r.latency.sim_p99, r.serve.map_or(0.0, |s| s.achieved_share))
        };
        ledger.set(&format!("seal-front.p99_ms.{step}"), p99_ns / 1e6);
        // Under 98 % of the offered rate, requests were still queued when
        // arrivals stopped: the backlog grew during the run.
        if p99_ns / 1e6 <= LADDER_LIMIT_MS && achieved >= 0.98 && rate > max_ok {
            max_ok = rate;
        }
    }
    ledger.set("seal-front.max_rate_ok", max_ok);
}

/// A traced run: every per-layer metric. Returns the detailed document, the
/// contract's result line, and the Chrome trace.
pub fn traced(args: &Args) -> (Json, Json, Json) {
    let w = args.workload;
    let s = cases::sizes(w, args.scale);
    // The traced rep is rep 0 of the untraced run with this seed. It runs
    // between two untraced copies of itself: the first takes the process's
    // first-touch page faults, the second is what tracing is compared with.
    let seed = Seeds::for_rep(args.seed, 0);
    let warm_up = run_rep(w, args.scale, seed, &mut Recorder::off());
    let mut rec = Recorder::on(s.ops as usize * 7 + 64);
    let rep = run_rep(w, args.scale, seed, &mut rec);
    let plain = run_rep(w, args.scale, seed, &mut Recorder::off());
    let all = rec.spans();

    let mut l = Ledger::default();
    ledger::counters(&rep, &mut l);
    ledger::host_rows(&rep, all, &mut l);
    l.set(
        "bench.trace_overhead",
        rep.host_ops_per_s() / plain.host_ops_per_s(),
    );
    l.set(
        "bench.wall_per_cpu",
        rep.wall_ns as f64 / rep.host_ns.max(1) as f64,
    );
    probes::run(&mut l);
    rate_ladder(w, args.scale, seed, &mut l);
    if w == Workload::LoadRandom {
        // One LevelDB rep of the same load: the model's error against its
        // reference (the paper reports 3.42x, EXPERIMENTS.md 2.96x).
        let leveldb = cases::load_random(&s, seed.ops, System::LevelDb, &mut Recorder::off());
        l.set(
            "bench.paper.load_speedup_vs_leveldb",
            rep.sim_ops_per_s() / leveldb.sim_ops_per_s(),
        );
    }

    let mut problems = Vec::new();
    if let Err(e) = spans::check_nesting(all) {
        problems.push(e);
    }
    if let Err(e) = ledger::check_shares(w, &l) {
        problems.push(e);
    }
    // The traced rep must be the untraced rep on the simulated clock.
    if sim_section(std::slice::from_ref(&rep)).encode()
        != sim_section(std::slice::from_ref(&plain)).encode()
    {
        problems.push("tracing changed the simulated-clock results".to_string());
    }
    let attempted = warm_up.attempted + rep.attempted + plain.attempted;
    let failed = warm_up.failed + rep.failed + plain.failed;

    println!(
        "seal-perf trace {} seed={} scale={} nproc={} host_clock={}",
        w.name(),
        args.seed,
        args.scale.name(),
        nproc(),
        hostclock::source()
    );
    let totals = spans::aggregate(all);
    print!("{}", spans::table(&totals));
    print!("{}", l.table());
    if w == Workload::LoadRandom {
        println!(
            "bench.paper.load_speedup_vs_leveldb: the paper reports 3.42x, EXPERIMENTS.md 2.96x"
        );
    }
    for p in &problems {
        println!("PROBLEM: {p}");
    }

    let mut per_layer = Json::obj();
    let mut metrics = Json::obj();
    for (name, unit, value) in l.rows() {
        per_layer = per_layer.with(name, value);
        metrics = metrics.with(name, Json::obj().with("value", value).with("unit", unit));
    }
    let span_rows = totals
        .iter()
        .map(|r| {
            Json::obj()
                .with("name", r.name.as_str())
                .with("count", r.count)
                .with("host_total_ns", r.host_total_ns)
                .with("host_self_ns", r.host_self_ns)
                .with("sim_total_ns", r.sim_total_ns)
                .with("sim_self_ns", r.sim_self_ns)
        })
        .collect::<Vec<_>>();
    let doc = header(args, "trace")
        .with("attempted", attempted)
        .with("failed", failed)
        .with(
            "problems",
            problems
                .iter()
                .map(|p| Json::from(p.as_str()))
                .collect::<Vec<_>>(),
        )
        .with("spans", span_rows)
        .with("per_layer", per_layer);
    debug_assert_eq!(l.rows().len(), PER_LAYER.len());
    let correct = failed == 0 && problems.is_empty();
    (
        doc,
        result_line(correct, attempted, failed, metrics),
        spans::chrome_trace(all, TRACE_OPS),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(trace: bool) -> Args {
        Args {
            workload: Workload::ReadHot,
            seed: 3,
            seconds: 0.0,
            trace,
            scale: Scale::Smoke,
            out: None,
            trace_out: None,
        }
    }

    fn metric_names(line: &Json) -> Vec<String> {
        match line.get("metrics") {
            Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("no metrics object"),
        }
    }

    #[test]
    fn untraced_result_line_carries_exactly_the_manifest_metrics() {
        let (doc, line) = untraced(&args(false));
        let listed: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.in_manifest())
            .map(|m| m.name)
            .collect();
        assert_eq!(metric_names(&line), listed);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        for name in listed {
            let value = line.get("metrics").unwrap().get(name).unwrap().get("value");
            assert!(
                value.unwrap().as_f64().unwrap() > 0.0,
                "{name} must never be 0"
            );
        }
        // The detailed document has all eleven, with quartiles and counts.
        let e2e = doc.get("end_to_end").unwrap();
        for m in &END_TO_END {
            let entry = e2e.get(m.name).unwrap();
            assert!(
                entry.get("q1").is_some() && entry.get("n").is_some(),
                "{}",
                m.name
            );
        }
        assert_eq!(
            doc.get("reps").unwrap().as_f64(),
            Some((WARM_UP_REPS + SIM_REPS) as f64)
        );
    }

    #[test]
    fn traced_result_line_carries_every_per_layer_metric() {
        let (doc, line, trace) = traced(&args(true));
        let names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(metric_names(&line), names);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("problems").unwrap().as_arr().unwrap().len(), 0);
        assert!(!trace
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
        let value = |name: &str| {
            doc.get("per_layer")
                .unwrap()
                .get(name)
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert!(value("sealdb.get.host_p50_ns") > 0.0);
        assert!(value("bench.trace_overhead") > 0.0);
        assert!(value("lsm-core.cache.block_hit_ratio") > 0.5);
    }

    #[test]
    fn rep_seeds_are_distinct_and_repeat() {
        let a = Seeds::for_rep(1, 0);
        assert_eq!(a, Seeds::for_rep(1, 0));
        assert_ne!(a.ops, Seeds::for_rep(2, 0).ops);
        assert_ne!(a.ops, Seeds::for_rep(1, 1).ops);
        // The dataset of rep r is the same for every run seed.
        assert_eq!(a.data, Seeds::for_rep(2, 0).data);
        assert_ne!(a.data, Seeds::for_rep(1, 1).data);
    }
}
