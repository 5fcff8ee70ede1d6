//! `seal-perf compare A B`: one row per (metric, workload) with both medians,
//! quartiles, the ratio with its base, the bound and a verdict. Each file
//! holds one or more `run` documents (concatenated or one per line). With one
//! run of a workload its per-rep values are compared; with several (ten seeds,
//! say) the runs' medians are.

use crate::catalog::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::json::Json;
use crate::stats::{summarize, Summary};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound and the difference does
    /// not clear it: neither "unchanged" nor "changed" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The run-to-run spread a difference has to clear. Two runs of one seed make
/// the same reps — same datasets, same op streams — so their values pair up
/// and the spread is the quartile distance of the paired differences; what
/// the reps' datasets do to the values cancels. Unpaired values (runs of
/// several seeds) give the wider of the two sides' quartile distances.
pub fn spread(a: &[f64], b: &[f64], paired: bool) -> f64 {
    if paired {
        let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| y - x).collect();
        let s = summarize(&diffs);
        s.q3 - s.q1
    } else {
        let (sa, sb) = (summarize(a), summarize(b));
        (sa.q3 - sa.q1).max(sb.q3 - sb.q1)
    }
}

/// Judges `b` against the base `a`: the bound is a share of the base median,
/// and differences under the metric's absolute floor are ignored.
pub fn verdict(m: &EndToEnd, a: &Summary, b: &Summary, spread: f64) -> Verdict {
    let diff = b.median - a.median;
    let worse_by = match m.better {
        Better::Lower => diff,
        Better::Higher => -diff,
    };
    if m.name == "fail_ratio" {
        // Any increase is a regression.
        return match worse_by {
            d if d > 0.0 => Verdict::Worse,
            d if d < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    if diff.abs() <= m.floor {
        return Verdict::Same;
    }
    let limit = m.bound * a.median.abs();
    if spread > limit && spread > m.floor && diff.abs() <= spread {
        return Verdict::Unresolved;
    }
    if worse_by > limit {
        Verdict::Worse
    } else if worse_by < -limit {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The documents of one `mode` (`run` or `trace`) in one file, by workload.
pub struct RunSet {
    docs: Vec<Json>,
}

impl RunSet {
    pub fn load(path: &str, mode: &str) -> Result<RunSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let docs: Vec<Json> = Json::parse_all(&text)
            .map_err(|e| format!("{path}: {e}"))?
            .into_iter()
            .filter(|d| {
                d.get("schema").and_then(Json::as_str) == Some("seal-perf/1")
                    && d.get("mode").and_then(Json::as_str) == Some(mode)
            })
            .collect();
        if docs.is_empty() {
            return Err(format!("{path}: no seal-perf {mode} documents"));
        }
        Ok(RunSet { docs })
    }

    pub fn runs(&self, workload: &str) -> Vec<&Json> {
        self.docs
            .iter()
            .filter(|d| d.get("workload").and_then(Json::as_str) == Some(workload))
            .collect()
    }

    /// The seed, when the file has exactly one run of `workload`.
    fn single_seed(&self, workload: &str) -> Option<u64> {
        match self.runs(workload).as_slice() {
            [one] => Some(one.get("seed")?.as_f64()? as u64),
            _ => None,
        }
    }

    /// The values `metric` is judged on for `workload`.
    pub fn values<'a>(&'a self, workload: &str, metric: &str) -> Vec<f64> {
        let runs = self.runs(workload);
        let entry = |d: &'a Json| d.get("end_to_end")?.get(metric);
        match runs.as_slice() {
            [one] => entry(one)
                .and_then(|e| e.get("values")?.as_arr())
                .unwrap_or_default()
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
            many => many
                .iter()
                .filter_map(|d| entry(d)?.get("median")?.as_f64())
                .collect(),
        }
    }

    /// Encoded simulated-clock sections, keyed by seed.
    fn sim_sections(&self, workload: &str) -> Vec<(u64, String)> {
        self.runs(workload)
            .iter()
            .filter_map(|d| {
                let seed = d.get("seed")?.as_f64()? as u64;
                Some((seed, d.get("sim")?.encode()))
            })
            .collect()
    }
}

/// Prints the comparison; `Ok(true)` when no row is `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (RunSet::load(path_a, "run")?, RunSet::load(path_b, "run")?);
    println!("base A = {path_a}\nnew  B = {path_b}");
    println!(
        "{:<17} {:<18} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1, q3] n",
        "B median",
        "B [q1, q3] n",
        "B/A",
        "bound"
    );
    let mut counts = [0usize; 4];
    for w in &WORKLOADS {
        if a.runs(w.name).is_empty() || b.runs(w.name).is_empty() {
            continue;
        }
        let seed = a.single_seed(w.name);
        let paired = seed.is_some() && seed == b.single_seed(w.name);
        for m in &END_TO_END {
            let (va, vb) = (a.values(w.name, m.name), b.values(w.name, m.name));
            let (sa, sb) = (summarize(&va), summarize(&vb));
            if sa.n == 0 || sb.n == 0 {
                continue;
            }
            let v = verdict(m, &sa, &sb, spread(&va, &vb, paired));
            counts[v as usize] += 1;
            let quartiles = |s: &Summary| format!("[{:.4}, {:.4}] {}", s.q1, s.q3, s.n);
            let ratio = if sa.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", sb.median / sa.median)
            };
            println!(
                "{:<17} {:<18} {:>12.4} {:>25} {:>12.4} {:>25} {:>8} {:>5.0}%  {}",
                w.name,
                m.name,
                sa.median,
                quartiles(&sa),
                sb.median,
                quartiles(&sb),
                ratio,
                m.bound * 100.0,
                v.as_str()
            );
        }
        // Same seed, same commit: the simulated clock must agree to the byte.
        let (sim_a, sim_b) = (a.sim_sections(w.name), b.sim_sections(w.name));
        let shared: Vec<bool> = sim_a
            .iter()
            .filter_map(|(seed, sa)| {
                let (_, sb) = sim_b.iter().find(|(s, _)| s == seed)?;
                Some(sa == sb)
            })
            .collect();
        let sim = match shared.as_slice() {
            [] => "no seed in common".to_string(),
            s if s.iter().all(|&same| same) => format!("identical ({} seeds)", s.len()),
            s => format!(
                "DIFFERS on {} of {} seeds",
                s.iter().filter(|&&x| !x).count(),
                s.len()
            ),
        };
        println!("{:<17} simulated-clock section: {sim}", w.name);
    }
    println!(
        "better {}  same {}  worse {}  unresolved {}",
        counts[Verdict::Better as usize],
        counts[Verdict::Same as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(counts[Verdict::Worse as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::end_to_end;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 5,
        }
    }

    /// Unpaired judgement: the spread is the wider quartile distance.
    fn verdict(m: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
        super::verdict(m, a, b, (a.q3 - a.q1).max(b.q3 - b.q1))
    }

    #[test]
    fn paired_runs_cancel_what_the_datasets_do() {
        // Five reps on five datasets: values differ by 12 % between reps but
        // by 0.1 % between the two runs.
        let a = [16.0, 18.5, 17.1, 16.4, 18.0];
        let b: Vec<f64> = a.iter().map(|x| x * 1.001).collect();
        let m = end_to_end("op_p50_ms").unwrap(); // 12 %
        let (sa, sb) = (summarize(&a), summarize(&b));
        assert!(spread(&a, &b, false) > m.bound * sa.median);
        assert!(spread(&a, &b, true) < 0.01);
        assert_eq!(
            super::verdict(m, &sa, &sb, spread(&a, &b, false)),
            Verdict::Unresolved
        );
        assert_eq!(
            super::verdict(m, &sa, &sb, spread(&a, &b, true)),
            Verdict::Same
        );
    }

    #[test]
    fn bound_is_a_share_of_the_base_median() {
        let m = end_to_end("sim_ops_per_s").unwrap(); // higher is better, 8 %
        let base = s(100.0, 99.5, 100.5);
        assert_eq!(verdict(m, &base, &s(93.0, 92.5, 93.5)), Verdict::Same);
        assert_eq!(verdict(m, &base, &s(91.0, 90.5, 91.5)), Verdict::Worse);
        assert_eq!(verdict(m, &base, &s(109.0, 108.5, 109.5)), Verdict::Better);
        let m = end_to_end("wa").unwrap(); // lower is better, 8 %
        let base = s(10.0, 10.0, 10.0);
        assert_eq!(verdict(m, &base, &s(10.7, 10.7, 10.7)), Verdict::Same);
        assert_eq!(verdict(m, &base, &s(10.9, 10.9, 10.9)), Verdict::Worse);
        assert_eq!(verdict(m, &base, &s(9.1, 9.1, 9.1)), Verdict::Better);
    }

    #[test]
    fn differences_under_the_floor_are_ignored() {
        let m = end_to_end("host_peak_rss_mib").unwrap(); // 20 %, floor 8 MiB
        assert_eq!(
            verdict(m, &s(20.0, 20.0, 20.0), &s(27.0, 27.0, 27.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(m, &s(20.0, 20.0, 20.0), &s(29.0, 29.0, 29.0)),
            Verdict::Worse
        );
        let m = end_to_end("op_p99_ms").unwrap(); // 25 %, floor 0.01 ms
        assert_eq!(
            verdict(m, &s(0.020, 0.020, 0.020), &s(0.029, 0.029, 0.029)),
            Verdict::Same
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_cleared() {
        let m = end_to_end("host_ops_per_s").unwrap(); // 25 %
        let noisy = s(100.0, 85.0, 115.0);
        assert_eq!(
            verdict(m, &noisy, &s(98.0, 97.0, 99.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(m, &s(100.0, 99.0, 101.0), &s(98.0, 80.0, 116.0)),
            Verdict::Unresolved
        );
        // A difference larger than the spread is still called.
        assert_eq!(verdict(m, &noisy, &s(50.0, 49.0, 51.0)), Verdict::Worse);
        assert_eq!(verdict(m, &noisy, &s(150.0, 149.0, 151.0)), Verdict::Better);
    }

    #[test]
    fn any_increase_of_fail_ratio_is_worse() {
        let m = end_to_end("fail_ratio").unwrap();
        let zero = s(0.0, 0.0, 0.0);
        assert_eq!(verdict(m, &zero, &zero), Verdict::Same);
        assert_eq!(verdict(m, &zero, &s(1e-6, 0.0, 1e-6)), Verdict::Worse);
        assert_eq!(verdict(m, &s(1e-6, 0.0, 1e-6), &zero), Verdict::Better);
    }
}
