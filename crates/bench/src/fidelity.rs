//! The fidelity order gate: the paper's qualitative order facts, held
//! against the committed figure CSVs (`seal-bench --fidelity-check DIR`):
//! the micro-benchmark orders of Fig. 8 and Fig. 14, Fig. 10's compaction
//! totals and Fig. 12's write amplification rows.
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

/// Fig. 12's CSV: one row of write amplifications per store, in
/// [`FIG12_STORES`] order.
const FIG12_FILE: &str = "fig12_write_amplification.csv";
const FIG12_HEADER: &str = "store,wa,awa,mwa";
const FIG12_COLUMNS: [&str; 3] = ["wa", "awa", "mwa"];
const FIG12_STORES: [&str; 3] = ["LevelDB", "SMRDB", "SEALDB"];

/// One store's row of Fig. 12.
#[derive(Clone, Copy)]
struct Amplification {
    wa: f64,
    awa: f64,
    mwa: f64,
}

/// Fig. 10's CSV: one row per real compaction, each store's rows
/// together and the stores in [`FIG10_STORES`] order.
const FIG10_FILE: &str = "fig10_compactions.csv";
const FIG10_HEADER: &str = "store,compaction,start_s,latency_ms,output_mb,input_files,input_runs";
const FIG10_STORES: [&str; 3] = ["LevelDB", "SMRDB", "SEALDB"];

/// One store's compactions in Fig. 10, summed.
#[derive(Clone, Copy, Default)]
struct Compactions {
    count: usize,
    latency_ms: f64,
    output_mb: f64,
}

impl Compactions {
    fn mean_mb(&self) -> f64 {
        self.output_mb / self.count as f64
    }
}

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

/// The fields of line `line_no` of `file`, which must be the row
/// labelled `label` (its leading comma-separated fields) with `width`
/// fields in all.
fn row<'a>(
    file: &str,
    line_no: usize,
    line: Option<&'a str>,
    label: &str,
    width: usize,
) -> Result<Vec<&'a str>, String> {
    let Some(line) = line else {
        return Err(format!("{file}: ends before row {label}"));
    };
    let fields: Vec<&str> = line.split(',').collect();
    let labelled = label
        .split(',')
        .enumerate()
        .all(|(i, l)| fields.get(i) == Some(&l));
    if fields.len() != width || !labelled {
        return Err(format!(
            "{file} line {line_no}: expected row {label}, found `{line}`"
        ));
    }
    Ok(fields)
}

/// Parses column `column` of a row as a finite non-negative number.
fn number(file: &str, line_no: usize, column: &str, field: &str) -> Result<f64, String> {
    match field.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
        _ => Err(format!(
            "{file} line {line_no}: {column} `{field}` is not a number"
        )),
    }
}

/// Checks a CSV's header, returning its remaining lines.
fn body<'a>(file: &str, csv: &'a str, header: &str) -> Result<std::str::Lines<'a>, String> {
    let mut lines = csv.lines();
    if lines.next() != Some(header) {
        return Err(format!("{file}: header is not `{header}`"));
    }
    Ok(lines)
}

/// Errs on a row past the last one a figure lays out.
fn no_more(file: &str, mut lines: std::str::Lines<'_>) -> Result<(), String> {
    match lines.next() {
        Some(extra) => Err(format!("{file}: unexpected row `{extra}`")),
        None => Ok(()),
    }
}

/// Reads `figure`'s rows from `csv`: the ops/s of each (store, phase) in
/// the order [`Figure::stores`] × [`PHASES`] lays them out. A row out of
/// that order is a problem of its own — the normalised column is relative
/// to the first store, so a moved row is a corrupt figure even when every
/// fact still holds.
fn read_figure(figure: &Figure, csv: &str) -> Result<Vec<f64>, String> {
    let file = figure.file;
    let mut lines = body(file, csv, HEADER)?;
    let want = figure
        .stores
        .iter()
        .flat_map(|store| PHASES.iter().map(move |phase| (*store, *phase)));
    let mut ops = Vec::new();
    for (n, (store, phase)) in want.enumerate() {
        let line_no = n + 2;
        let fields = row(file, line_no, lines.next(), &format!("{store},{phase}"), 5)?;
        ops.push(number(file, line_no, "ops_per_sec", fields[2])?);
    }
    no_more(file, lines)?;
    Ok(ops)
}

/// Reads Fig. 12's rows from `csv`, one per store of [`FIG12_STORES`]
/// in that order.
fn read_fig12(csv: &str) -> Result<Vec<Amplification>, String> {
    let file = FIG12_FILE;
    let mut lines = body(file, csv, FIG12_HEADER)?;
    let mut rows = Vec::new();
    for (n, store) in FIG12_STORES.iter().enumerate() {
        let line_no = n + 2;
        let fields = row(file, line_no, lines.next(), store, 4)?;
        let [wa, awa, mwa] =
            [0, 1, 2].map(|i| number(file, line_no, FIG12_COLUMNS[i], fields[i + 1]));
        rows.push(Amplification {
            wa: wa?,
            awa: awa?,
            mwa: mwa?,
        });
    }
    no_more(file, lines)?;
    Ok(rows)
}

/// Reads Fig. 10's rows from `csv` into one sum per store of
/// [`FIG10_STORES`]. A row of a store whose rows are over, or of no
/// store at all, is named; so is a store with no rows.
fn read_fig10(csv: &str) -> Result<Vec<Compactions>, String> {
    let file = FIG10_FILE;
    let mut sums = [Compactions::default(); 3];
    let mut at = 0;
    for (n, line) in body(file, csv, FIG10_HEADER)?.enumerate() {
        let line_no = n + 2;
        let fields: Vec<&str> = line.split(',').collect();
        let store = FIG10_STORES[at..]
            .iter()
            .position(|s| fields.first() == Some(s));
        let (Some(s), 7) = (store, fields.len()) else {
            return Err(format!(
                "{file} line {line_no}: expected a row of {}, found `{line}`",
                FIG10_STORES[at..].join(" or ")
            ));
        };
        at += s;
        sums[at].count += 1;
        sums[at].latency_ms += number(file, line_no, "latency_ms", fields[3])?;
        sums[at].output_mb += number(file, line_no, "output_mb", fields[4])?;
    }
    if let Some(s) = sums.iter().position(|c| c.count == 0) {
        return Err(format!("{file}: no rows for {}", FIG10_STORES[s]));
    }
    Ok(sums.to_vec())
}

/// Fig. 10's facts: sets make SEALDB's compactions cost the least time
/// in total — less than LevelDB's and less than SMRDB's — and SMRDB's
/// band-sized tables make its compactions the largest of the three.
fn fig10_problems(sums: &[Compactions]) -> Vec<String> {
    let [leveldb, smrdb, sealdb] = [sums[0], sums[1], sums[2]];
    let total_s = |c: Compactions| c.latency_ms / 1e3;
    let facts = [
        (
            sealdb.latency_ms < leveldb.latency_ms,
            format!(
                "SEALDB's total compaction latency must be below LevelDB's, but {:.2} s is \
                 not below {:.2} s",
                total_s(sealdb),
                total_s(leveldb)
            ),
        ),
        (
            sealdb.latency_ms < smrdb.latency_ms,
            format!(
                "SEALDB's total compaction latency must be below SMRDB's, but {:.2} s is \
                 not below {:.2} s",
                total_s(sealdb),
                total_s(smrdb)
            ),
        ),
        (
            smrdb.mean_mb() > leveldb.mean_mb() && smrdb.mean_mb() > sealdb.mean_mb(),
            format!(
                "SMRDB's mean compaction size must be the largest of the three, but it is \
                 {:.3} MiB against LevelDB's {:.3} MiB and SEALDB's {:.3} MiB",
                smrdb.mean_mb(),
                leveldb.mean_mb(),
                sealdb.mean_mb()
            ),
        ),
    ];
    facts
        .into_iter()
        .filter(|(holds, _)| !holds)
        .map(|(_, fact)| format!("{FIG10_FILE}: Fig. 10 order broken: {fact}"))
        .collect()
}

/// Fig. 12's facts: SEALDB's dynamic bands eliminate auxiliary write
/// amplification (AWA ≡ 1.000 as printed), SMRDB's band-sized tables
/// nearly do (AWA at most 1.01), SEALDB's MWA is below LevelDB's, and
/// SMRDB, compacting least, has the lowest WA of the three.
fn fig12_problems(rows: &[Amplification]) -> Vec<String> {
    let [leveldb, smrdb, sealdb] = [rows[0], rows[1], rows[2]];
    let facts = [
        (
            sealdb.awa == 1.0,
            format!(
                "SEALDB's AWA must be exactly 1.000, but it is {:.3}",
                sealdb.awa
            ),
        ),
        (
            smrdb.awa <= 1.01,
            format!(
                "SMRDB's AWA must be at most 1.01, but it is {:.3}",
                smrdb.awa
            ),
        ),
        (
            sealdb.mwa < leveldb.mwa,
            format!(
                "SEALDB's MWA must be below LevelDB's, but {:.3} is not below {:.3}",
                sealdb.mwa, leveldb.mwa
            ),
        ),
        (
            smrdb.wa < leveldb.wa && smrdb.wa < sealdb.wa,
            format!(
                "SMRDB's WA must be the lowest of the three, but it is {:.3} against \
                 LevelDB's {:.3} and SEALDB's {:.3}",
                smrdb.wa, leveldb.wa, sealdb.wa
            ),
        ),
    ];
    facts
        .into_iter()
        .filter(|(holds, _)| !holds)
        .map(|(_, fact)| format!("{FIG12_FILE}: Fig. 12 order broken: {fact}"))
        .collect()
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
    match read(FIG10_FILE).and_then(|csv| read_fig10(&csv)) {
        Ok(sums) => problems.extend(fig10_problems(&sums)),
        Err(e) => problems.push(e),
    }
    match read(FIG12_FILE).and_then(|csv| read_fig12(&csv)) {
        Ok(rows) => problems.extend(fig12_problems(&rows)),
        Err(e) => problems.push(e),
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
    #[test]
    fn a_moved_fig12_row_is_named() {
        // SMRDB and SEALDB trade lines 3 and 4.
        let problems = check_doctored(FIG12_FILE, |csv| swap_lines(csv, 2, 3));
        assert_eq!(
            problems,
            ["fig12_write_amplification.csv line 3: expected row SMRDB, found `SEALDB,13.458,1.000,13.458`"]
        );
    }

    /// Multiplies field `column` of every row of `store` by `factor`.
    fn scale_field(csv: String, store: &str, column: usize, factor: f64) -> String {
        csv.lines()
            .map(|l| {
                let mut fields: Vec<String> = l.split(',').map(str::to_string).collect();
                if fields[0] == store {
                    let v: f64 = fields[column].parse().unwrap();
                    fields[column] = format!("{:.3}", v * factor);
                }
                fields.join(",") + "\n"
            })
            .collect()
    }

    #[test]
    fn a_moved_fig10_row_is_named() {
        // The last SEALDB row moves to the top, above every LevelDB row.
        let problems = check_doctored(FIG10_FILE, |csv| {
            let mut lines: Vec<&str> = csv.lines().collect();
            let last = lines.pop().unwrap();
            lines.insert(1, last);
            lines.join("\n") + "\n"
        });
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with(
                "fig10_compactions.csv line 3: expected a row of SEALDB, found `LevelDB,"
            ),
            "{}",
            problems[0]
        );
        // A store with no rows at all.
        let problems = check_doctored(FIG10_FILE, |csv| {
            csv.lines()
                .filter(|l| !l.starts_with("SMRDB,"))
                .map(|l| l.to_string() + "\n")
                .collect()
        });
        assert_eq!(problems, ["fig10_compactions.csv: no rows for SMRDB"]);
    }

    #[test]
    fn each_broken_fig10_fact_reads_as_one_line() {
        // (store, column, factor, the fact that breaks)
        let cases = [
            (
                "LevelDB",
                3,
                0.1,
                "SEALDB's total compaction latency must be below LevelDB's, but ",
            ),
            (
                "SEALDB",
                3,
                4.0,
                "SEALDB's total compaction latency must be below SMRDB's, but ",
            ),
            (
                "SMRDB",
                4,
                0.01,
                "SMRDB's mean compaction size must be the largest of the three, but ",
            ),
        ];
        for (store, column, factor, fact) in cases {
            let problems =
                check_doctored(FIG10_FILE, |csv| scale_field(csv, store, column, factor));
            assert_eq!(problems.len(), 1, "{store}: {problems:?}");
            let want = format!("fig10_compactions.csv: Fig. 10 order broken: {fact}");
            assert!(problems[0].starts_with(&want), "{}", problems[0]);
        }
    }

    #[test]
    fn each_broken_fig12_fact_reads_as_one_line() {
        /// Swaps field `column` of lines `a` and `b`.
        fn swap_field(csv: String, column: usize, a: usize, b: usize) -> String {
            let mut rows: Vec<Vec<String>> = csv
                .lines()
                .map(|l| l.split(',').map(str::to_string).collect())
                .collect();
            let v = rows[a][column].clone();
            rows[a][column] = std::mem::replace(&mut rows[b][column], v);
            rows.iter().map(|r| r.join(",") + "\n").collect()
        }
        // (column, lines swapped, the fact that breaks)
        let cases = [
            (
                2,
                2,
                3,
                "SEALDB's AWA must be exactly 1.000, but it is 1.002",
            ),
            (2, 1, 2, "SMRDB's AWA must be at most 1.01, but it is 5.830"),
            (
                3,
                1,
                3,
                "SEALDB's MWA must be below LevelDB's, but 67.090 is not below 13.458",
            ),
            (
                1,
                1,
                2,
                "SMRDB's WA must be the lowest of the three, but it is 11.508",
            ),
        ];
        for (column, a, b, fact) in cases {
            let problems = check_doctored(FIG12_FILE, |csv| swap_field(csv, column, a, b));
            assert_eq!(problems.len(), 1, "{problems:?}");
            let want = format!("fig12_write_amplification.csv: Fig. 12 order broken: {fact}");
            assert!(problems[0].starts_with(&want), "{}", problems[0]);
        }
    }
}
