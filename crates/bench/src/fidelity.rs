//! The fidelity order gate: the paper's qualitative order facts, held
//! against the committed figure CSVs (`seal-bench --fidelity-check DIR`).
//!
//! A magnitude may drift with the scale (EXPERIMENTS.md, "Known
//! divergences"); the order the paper reports must not. Each fact names
//! the two rows it compares, so a broken one reads as a sentence about
//! the figure rather than a diff of numbers.

/// The micro-benchmark phases, in the order `micro_rows` writes them.
const PHASES: [&str; 4] = ["fillseq", "fillrandom", "readrandom", "readseq"];

/// The CSV header `micro_rows` writes.
const HEADER: &str = "store,phase,ops_per_sec,mb_per_sec,normalized_to_first";

/// A micro-benchmark figure CSV: its stores in row order, each with one
/// row per phase of [`PHASES`].
struct Figure {
    name: &'static str,
    file: &'static str,
    stores: [&'static str; 3],
}

const FIG08: Figure = Figure {
    name: "Fig. 8",
    file: "fig08_micro.csv",
    stores: ["LevelDB", "SMRDB", "SEALDB"],
};

const FIG14: Figure = Figure {
    name: "Fig. 14",
    file: "fig14_contribution.csv",
    stores: ["LevelDB", "LevelDB+sets", "SEALDB"],
};

const FIGURES: [&Figure; 2] = [&FIG08, &FIG14];

/// One order fact: on `phase` of `figure`, `upper`'s throughput is above
/// `lower`'s (`strict`) or at least equal to it.
struct Fact {
    figure: &'static Figure,
    phase: &'static str,
    upper: &'static str,
    lower: &'static str,
    strict: bool,
}

const fn above(
    figure: &'static Figure,
    phase: &'static str,
    upper: &'static str,
    lower: &'static str,
) -> Fact {
    Fact {
        figure,
        phase,
        upper,
        lower,
        strict: true,
    }
}

/// The paper's order facts. Fig. 8: SEALDB beats LevelDB on all four
/// phases, and on random load SEALDB beats SMRDB, which beats LevelDB.
/// Fig. 14: sets alone do not improve sequential write — LevelDB+sets
/// is no faster than LevelDB on fillseq.
const FACTS: [Fact; 7] = [
    above(&FIG08, "fillseq", "SEALDB", "LevelDB"),
    above(&FIG08, "fillrandom", "SEALDB", "LevelDB"),
    above(&FIG08, "readrandom", "SEALDB", "LevelDB"),
    above(&FIG08, "readseq", "SEALDB", "LevelDB"),
    above(&FIG08, "fillrandom", "SEALDB", "SMRDB"),
    above(&FIG08, "fillrandom", "SMRDB", "LevelDB"),
    Fact {
        figure: &FIG14,
        phase: "fillseq",
        upper: "LevelDB",
        lower: "LevelDB+sets",
        strict: false,
    },
];

/// Reads `figure`'s rows from `csv`: the ops/s of each (store, phase) in
/// the order [`Figure::stores`] × [`PHASES`] lays them out. A row out of
/// that order is a problem of its own — the normalised column is relative
/// to the first store, so a moved row is a corrupt figure even when every
/// fact still holds.
fn read_figure(figure: &Figure, csv: &str) -> Result<Vec<f64>, String> {
    let file = figure.file;
    let mut lines = csv.lines();
    if lines.next() != Some(HEADER) {
        return Err(format!("{file}: header is not `{HEADER}`"));
    }
    let want = figure
        .stores
        .iter()
        .flat_map(|store| PHASES.iter().map(move |phase| (*store, *phase)));
    let mut ops = Vec::new();
    for (n, (store, phase)) in want.enumerate() {
        let line_no = n + 2;
        let Some(line) = lines.next() else {
            return Err(format!("{file}: ends before row {store},{phase}"));
        };
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 5 || fields[0] != store || fields[1] != phase {
            return Err(format!(
                "{file} line {line_no}: expected row {store},{phase}, found `{line}`"
            ));
        }
        match fields[2].parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => ops.push(v),
            _ => {
                return Err(format!(
                    "{file} line {line_no}: ops_per_sec `{}` is not a throughput",
                    fields[2]
                ))
            }
        }
    }
    if let Some(extra) = lines.next() {
        return Err(format!("{file}: unexpected row `{extra}`"));
    }
    Ok(ops)
}

/// Holds the order facts against the figure CSVs `read` returns by file
/// name; returns one readable line per problem.
fn check_with(read: impl Fn(&str) -> Result<String, String>) -> Vec<String> {
    let mut problems = Vec::new();
    let mut figures = Vec::new();
    for figure in FIGURES {
        match read(figure.file).and_then(|csv| read_figure(figure, &csv)) {
            Ok(ops) => figures.push((figure.file, ops)),
            Err(e) => problems.push(e),
        }
    }
    for fact in &FACTS {
        let fig = fact.figure;
        let Some((_, ops)) = figures.iter().find(|(file, _)| *file == fig.file) else {
            continue;
        };
        let at = |store: &str| {
            let s = fig
                .stores
                .iter()
                .position(|s| *s == store)
                .expect("fact store");
            let p = PHASES
                .iter()
                .position(|p| *p == fact.phase)
                .expect("fact phase");
            ops[s * PHASES.len() + p]
        };
        let (upper, lower) = (at(fact.upper), at(fact.lower));
        let holds = if fact.strict {
            upper > lower
        } else {
            upper >= lower
        };
        if !holds {
            let (relation, expected) = if fact.strict {
                ("beat", "above")
            } else {
                ("be at least as fast as", "at least")
            };
            problems.push(format!(
                "{}: {} order broken: on {}, {} must {relation} {}, but {upper:.1} op/s is not {expected} {lower:.1} op/s",
                fig.file, fig.name, fact.phase, fact.upper, fact.lower
            ));
        }
    }
    problems
}

/// `--fidelity-check DIR`: holds the paper's order facts against the
/// figure CSVs in `DIR`; returns one readable line per problem (an empty
/// list means every fact holds).
pub fn check_dir(dir: &str) -> Vec<String> {
    check_with(|file| {
        let path = format!("{dir}/{file}");
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(file: &str) -> String {
        let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path).unwrap()
    }

    /// Checks the committed CSVs with `file`'s content replaced by `doctor`'s.
    fn check_doctored(file: &str, doctor: impl Fn(String) -> String) -> Vec<String> {
        check_with(|f| {
            let csv = committed(f);
            Ok(if f == file { doctor(csv) } else { csv })
        })
    }

    /// Swaps lines `a` and `b`, counted from 0 at the header.
    fn swap_lines(csv: String, a: usize, b: usize) -> String {
        let mut lines: Vec<&str> = csv.lines().collect();
        lines.swap(a, b);
        lines.join("\n") + "\n"
    }

    /// Swaps the ops/s fields of lines `a` and `b`.
    fn swap_ops(csv: String, a: usize, b: usize) -> String {
        let mut rows: Vec<Vec<String>> = csv
            .lines()
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        let ops = rows[a][2].clone();
        rows[a][2] = std::mem::replace(&mut rows[b][2], ops);
        rows.iter().map(|r| r.join(",") + "\n").collect()
    }

    #[test]
    fn the_committed_figures_keep_the_papers_order() {
        assert_eq!(
            check_dir(&format!("{}/../../results", env!("CARGO_MANIFEST_DIR"))),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_moved_row_is_named() {
        // LevelDB,readseq and SEALDB,readseq: file lines 5 and 13.
        let problems = check_doctored("fig08_micro.csv", |csv| swap_lines(csv, 4, 12));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with(
                "fig08_micro.csv line 5: expected row LevelDB,readseq, found `SEALDB,readseq,"
            ),
            "{}",
            problems[0]
        );
    }

    #[test]
    fn a_broken_order_reads_as_the_fact() {
        // SMRDB and SEALDB trade their fillrandom throughputs.
        let problems = check_doctored("fig08_micro.csv", |csv| swap_ops(csv, 6, 10));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with(
                "fig08_micro.csv: Fig. 8 order broken: on fillrandom, SEALDB must beat SMRDB, but "
            ),
            "{}",
            problems[0]
        );
        // LevelDB+sets above LevelDB on fillseq.
        let problems = check_doctored("fig14_contribution.csv", |csv| {
            csv.replacen(
                "LevelDB+sets,fillseq,9923.7",
                "LevelDB+sets,fillseq,9999.0",
                1,
            )
        });
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("LevelDB must be at least as fast as LevelDB+sets"));
    }

    #[test]
    fn a_missing_figure_is_a_problem_not_a_pass() {
        let problems = check_with(|f| match f {
            "fig08_micro.csv" => Err("fig08_micro.csv: not found".to_string()),
            other => Ok(committed(other)),
        });
        assert_eq!(problems, ["fig08_micro.csv: not found"]);
    }
}
