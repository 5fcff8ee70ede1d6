//! `seal-perf report RUN [TRACE]`: the documents `--out` appended, as Markdown
//! tables with one column per workload. `run.sh` writes `REPORT.md` with it,
//! and `baseline/BASELINE.md` is one such report.

use crate::catalog::{PER_LAYER, WORKLOADS};
use crate::compare::RunSet;
use crate::json::Json;
use crate::stats::summarize;

/// Four significant digits or so, without an exponent.
fn fmt(v: f64) -> String {
    match v.abs() {
        0.0 => "0".to_string(),
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.2}"),
        a if a >= 0.1 => format!("{v:.3}"),
        _ => format!("{v:.5}"),
    }
}

fn table_head(first: &str, columns: &[&str]) {
    println!("| {first} | {} |", columns.join(" | "));
    println!("|---|{}", "---|".repeat(columns.len()));
}

/// What every document of `set` says under `key`, once each, in file order.
fn said(set: &RunSet, workloads: &[&str], key: &str) -> String {
    let mut seen: Vec<String> = Vec::new();
    for d in workloads.iter().flat_map(|w| set.runs(w)) {
        let v = match d.get(key) {
            Some(Json::Str(s)) => s.clone(),
            Some(other) => other.encode(),
            None => "?".to_string(),
        };
        if !seen.contains(&v) {
            seen.push(v);
        }
    }
    seen.join(", ")
}

/// Prints the report; `Ok(true)` always (an unreadable file is the error).
pub fn report(run_path: &str, trace_path: Option<&str>) -> Result<bool, String> {
    let runs = RunSet::load(run_path, "run")?;
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|w| !runs.runs(w).is_empty())
        .collect();
    println!("# seal-perf report\n");
    println!(
        "`{run_path}`: seed {}, scale `{}`, `--seconds {}`, **nproc = {}**, host clock `{}`. \
         Host-clock rows belong to the machine they were measured on; simulated-clock rows repeat \
         exactly for the seed anywhere.\n",
        said(&runs, &names, "seed"),
        said(&runs, &names, "scale"),
        said(&runs, &names, "seconds"),
        said(&runs, &names, "nproc"),
        said(&runs, &names, "host_clock"),
    );

    println!("## End-to-end: median [q1, q3] n\n");
    let mut columns = vec!["unit"];
    columns.extend(&names);
    table_head("metric", &columns);
    // The rows of the first document, in its order: the catalog's metrics,
    // then the wall-clock twin.
    let first = runs.runs(names[0])[0];
    let Some(Json::Obj(rows)) = first.get("end_to_end") else {
        return Err(format!("{run_path}: a run document has no end_to_end"));
    };
    for (metric, entry) in rows {
        let cells: Vec<String> = names
            .iter()
            .map(|w| {
                let s = summarize(&runs.values(w, metric));
                format!("{} [{}, {}] {}", fmt(s.median), fmt(s.q1), fmt(s.q3), s.n)
            })
            .collect();
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("?");
        println!("| `{metric}` | {unit} | {} |", cells.join(" | "));
    }
    println!(
        "\nReps per run: {}. Simulated-clock values use the first {}; host-clock values skip the \
         first {}. `{}` is `host_ops_per_s` over wall time, reported beside it and not judged.\n",
        names
            .iter()
            .map(|w| format!("{w} {}", said(&runs, &[w], "reps")))
            .collect::<Vec<_>>()
            .join(", "),
        said(&runs, &names, "sim_reps"),
        said(&runs, &names, "warm_up_reps"),
        crate::run::WALL_TWIN,
    );

    let Some(trace_path) = trace_path else {
        return Ok(true);
    };
    let traces = RunSet::load(trace_path, "trace")?;
    let docs: Vec<&Json> = names
        .iter()
        .filter_map(|w| traces.runs(w).first().copied())
        .collect();
    let traced: Vec<&str> = docs
        .iter()
        .filter_map(|d| d.get("workload")?.as_str())
        .collect();
    println!("## Per-layer ledger (`{trace_path}`: traced rep 0 of each workload)\n");
    let mut columns = vec!["unit"];
    columns.extend(&traced);
    table_head("metric", &columns);
    for m in &PER_LAYER {
        let cells: Vec<String> = docs
            .iter()
            .map(|d| {
                let v = d.get("per_layer").and_then(|p| p.get(m.name)?.as_f64());
                v.map_or("?".to_string(), fmt)
            })
            .collect();
        println!("| `{}` | {} | {} |", m.name, m.unit, cells.join(" | "));
    }

    println!("\n## Span aggregates: count, host self ms / simulated self ms\n");
    for d in &docs {
        let spans: Vec<String> = d
            .get("spans")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|s| {
                let ms = |key| Some(s.get(key)?.as_f64()? / 1e6);
                Some(format!(
                    "`{}` ×{}: {:.1} / {:.1}",
                    s.get("name")?.as_str()?,
                    s.get("count")?.as_f64()?,
                    ms("host_self_ns")?,
                    ms("sim_self_ns")?
                ))
            })
            .collect();
        let w = d.get("workload").and_then(Json::as_str).unwrap_or("?");
        println!("**{w}** — {}\n", spans.join("; "));
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_about_four_digits() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(24507.4), "24507");
        assert_eq!(fmt(58.678), "58.68");
        assert_eq!(fmt(0.6384), "0.638");
        assert_eq!(fmt(0.001694), "0.00169");
        assert_eq!(fmt(-12.5), "-12.50");
    }
}
