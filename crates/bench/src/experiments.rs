//! One function per table/figure of the paper's evaluation (§IV).
//! Each returns a [`Report`]: human-readable summary lines plus CSV
//! series with the exact data the corresponding plot shows.

use crate::{build_store, build_store_with_layout, loaded_store, per_store_parallel, BenchScale};
use lsm_core::Result;
use sealdb::{StoreKind, StoreSnapshot};
use smr_sim::{Disk, Extent, IoKind, Layout, TimeModel, TraceDir};
use workloads::{fill_random, fill_seq, read_random, read_seq, MicroResult, WorkloadSpec};

/// A CSV artifact.
#[derive(Clone, Debug)]
pub struct Csv {
    /// File name (e.g. `fig08_micro.csv`).
    pub name: String,
    /// Full file contents, header included.
    pub content: String,
}

/// The outcome of one experiment.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Experiment title.
    title: String,
    /// Human-readable summary lines.
    pub lines: Vec<String>,
    /// CSV series for plotting.
    pub csvs: Vec<Csv>,
}

impl Report {
    fn new(title: &str) -> Self {
        Report {
            title: title.to_string(),
            ..Default::default()
        }
    }

    fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Renders the report as text.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

const MB: f64 = (1u64 << 20) as f64;

// ---------------------------------------------------------------- Fig. 2

/// Fig. 2: physical placement of every SSTable written by every
/// compaction when LevelDB random-loads a database on Ext4 over a
/// conventional HDD — the paper's demonstration that one compaction's
/// files scatter across the whole used span.
pub fn fig02(scale: &BenchScale) -> Result<Report> {
    let mut report = Report::new("Fig. 2 — LevelDB SSTable placement per compaction (Ext4/HDD)");
    let mut store = build_store_with_layout(StoreKind::LevelDb, scale, Layout::Hdd)?;
    store.set_tracing(true);
    let gen = scale.generator();
    fill_random(&mut store, &gen, scale.load_records(), scale.seed)?;
    let trace = store.take_trace();

    let mut rows = String::from("compaction,file,offset_mb,len_kb\n");
    let mut per_compaction_span: Vec<f64> = Vec::new();
    let mut cur_tag = 0u64;
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    let mut writes = 0usize;
    for e in trace
        .iter()
        .filter(|e| e.dir == TraceDir::Write && e.tag > 0 && e.kind == IoKind::CompactionWrite)
    {
        if e.tag != cur_tag {
            if cur_tag != 0 && lo != u64::MAX {
                per_compaction_span.push((hi - lo) as f64 / MB);
            }
            cur_tag = e.tag;
            lo = u64::MAX;
            hi = 0;
        }
        lo = lo.min(e.ext.offset);
        hi = hi.max(e.ext.end());
        writes += 1;
        rows.push_str(&format!(
            "{},{},{:.3},{}\n",
            e.tag,
            e.file,
            e.ext.offset as f64 / MB,
            e.ext.len / 1024
        ));
    }
    if cur_tag != 0 && lo != u64::MAX {
        per_compaction_span.push((hi - lo) as f64 / MB);
    }
    let compactions = per_compaction_span.len();
    let avg_span = per_compaction_span.iter().sum::<f64>() / compactions.max(1) as f64;
    let used_span = store.snapshot().high_water as f64 / MB;
    report.line(format!("database loaded: {} MiB", scale.load_bytes >> 20));
    report.line(format!("compactions traced: {compactions}"));
    report.line(format!("SSTable writes traced: {writes}"));
    report.line(format!("used disk span: {used_span:.1} MiB"));
    report.line(format!(
        "avg per-compaction write span: {avg_span:.1} MiB ({:.0}% of used span)",
        100.0 * avg_span / used_span.max(1e-9)
    ));
    report.csvs.push(Csv {
        name: "fig02_leveldb_layout.csv".into(),
        content: rows,
    });
    Ok(report)
}

// ---------------------------------------------------------------- Fig. 3

/// Fig. 3: fixed-band SMR sweep. For band sizes of 5–15 SSTables
/// (20–60 MB at paper scale), random-load LevelDB and report (a) average
/// SSTables written and distinct bands touched per compaction and
/// (b) WA and MWA.
pub fn fig03(scale: &BenchScale) -> Result<Report> {
    let mut report =
        Report::new("Fig. 3 — SSTable/band distribution and amplification vs band size");
    let ratios: Vec<u64> = vec![5, 8, 10, 12, 15];
    let mut rows = String::from(
        "band_sstables,band_mb,avg_sstables_per_compaction,avg_bands_per_compaction,wa,awa,mwa\n",
    );
    let outcomes = crate::artifact::run_cells(ratios.len(), |i| {
        let r = ratios[i];
        let mut cfg =
            sealdb::StoreConfig::new(StoreKind::LevelDb, scale.sstable, scale.disk_capacity());
        cfg.band_ratio = r;
        cfg.seed = scale.seed;
        let mut store = cfg.build().expect("build");
        let gen = scale.generator();
        fill_random(&mut store, &gen, scale.load_records(), scale.seed).expect("load");
        let snap = store.snapshot();
        let real: Vec<_> = snap.real_compactions().collect();
        let n = real.len().max(1) as f64;
        let avg_files = real.iter().map(|c| c.output_files as f64).sum::<f64>() / n;
        let avg_bands = real.iter().map(|c| c.output_bands as f64).sum::<f64>() / n;
        (
            r,
            avg_files,
            avg_bands,
            snap.io.wa(),
            snap.io.awa(),
            snap.io.mwa(),
        )
    });
    for (r, avg_files, avg_bands, wa, awa, mwa) in outcomes {
        let band_mb = (r * scale.sstable) as f64 / MB;
        report.line(format!(
            "band {r:>2} SSTables ({band_mb:.1} MiB): {avg_files:.2} tables -> {avg_bands:.2} bands per compaction, WA {wa:.2}, AWA {awa:.2}, MWA {mwa:.2}"
        ));
        rows.push_str(&format!(
            "{r},{band_mb:.2},{avg_files:.3},{avg_bands:.3},{wa:.3},{awa:.3},{mwa:.3}\n"
        ));
    }
    report.csvs.push(Csv {
        name: "fig03_band_sweep.csv".into(),
        content: rows,
    });
    Ok(report)
}

// --------------------------------------------------------------- Table II

/// Table II: raw device performance of the two mechanical models.
pub fn table2(scale: &BenchScale) -> Result<Report> {
    let mut report = Report::new("Table II — device model performance (HDD vs SMR)");
    let cap = scale.disk_capacity().max(4 << 30);
    let mut rows = String::from("device,metric,value,unit\n");

    let run = |name: &str,
               model: TimeModel,
               layout: Layout,
               rows: &mut String,
               report: &mut Report| {
        // Sequential transfers: 64 MiB streamed.
        let chunk = 1 << 20;
        let total = 64 * chunk;
        let mut d = Disk::new(cap, layout, model);
        let data = vec![0u8; chunk as usize];
        let t0 = d.clock_ns();
        for i in 0..(total / chunk) {
            d.write(Extent::new(i * chunk, chunk), &data, IoKind::Raw)
                .unwrap();
        }
        let wr = total as f64 / 1e6 / ((d.clock_ns() - t0) as f64 / 1e9);
        let t0 = d.clock_ns();
        for i in 0..(total / chunk) {
            d.read(Extent::new(i * chunk, chunk), IoKind::Raw).unwrap();
        }
        let rd = total as f64 / 1e6 / ((d.clock_ns() - t0) as f64 / 1e9);
        // Random 4 KiB reads over the written region + a spread of seeks
        // across the whole platter (seek distance matters).
        let mut rng = lsm_core::util::rng::XorShift64::new(7);
        // Pre-write scattered 4 KiB blocks to read back (on raw layouts
        // reads require valid data; here layout is Hdd/FixedBand).
        let mut offsets = Vec::new();
        for _ in 0..500 {
            let off = (rng.next_below(cap / 4096 - 1)) * 4096;
            offsets.push(off);
        }
        let mut dr = Disk::new(cap, layout, model);
        for &off in &offsets {
            dr.write_conventional(Extent::new(off, 4096), &data[..4096], IoKind::Raw)
                .unwrap();
        }
        let t0 = dr.clock_ns();
        for &off in &offsets {
            dr.read(Extent::new(off, 4096), IoKind::Raw).unwrap();
        }
        let riops = offsets.len() as f64 / ((dr.clock_ns() - t0) as f64 / 1e9);
        // Random 4 KiB writes on a fresh disk (best case: empty bands /
        // write cache) and on a disk with full bands (worst case).
        let mut dw = Disk::new(cap, layout, model);
        let t0 = dw.clock_ns();
        for &off in &offsets {
            dw.write(Extent::new(off, 4096), &data[..4096], IoKind::Raw)
                .unwrap();
        }
        let wiops_fresh = offsets.len() as f64 / ((dw.clock_ns() - t0) as f64 / 1e9);
        let wiops_aged = if let Layout::FixedBand { band_size } = layout {
            // Age: fill the first bands completely, then rewrite randomly.
            let mut da = Disk::new(cap, layout, model);
            let span = 64u64;
            let big = vec![0u8; band_size as usize];
            for b in 0..span {
                da.write(Extent::new(b * band_size, band_size), &big, IoKind::Raw)
                    .unwrap();
            }
            let t0 = da.clock_ns();
            let n = 40;
            for i in 0..n {
                let off = (rng.next_below(span * band_size / 4096 - 1)) * 4096;
                let _ = i;
                da.write(Extent::new(off, 4096), &data[..4096], IoKind::Raw)
                    .unwrap();
            }
            Some(n as f64 / ((da.clock_ns() - t0) as f64 / 1e9))
        } else {
            None
        };
        report.line(format!(
            "{name}: seq read {rd:.0} MB/s, seq write {wr:.0} MB/s, rand read {riops:.0} IOPS, rand write {wiops_fresh:.0} IOPS{}",
            wiops_aged.map(|w| format!(" (fresh) / {w:.1} IOPS (aged bands)")).unwrap_or_default()
        ));
        for (metric, value, unit) in [
            ("seq_read", rd, "MB/s"),
            ("seq_write", wr, "MB/s"),
            ("rand_read_4k", riops, "IOPS"),
            ("rand_write_4k", wiops_fresh, "IOPS"),
        ] {
            rows.push_str(&format!("{name},{metric},{value:.1},{unit}\n"));
        }
        if let Some(w) = wiops_aged {
            rows.push_str(&format!("{name},rand_write_4k_aged,{w:.1},IOPS\n"));
        }
    };

    run(
        "HDD",
        TimeModel::hdd_st1000dm003(cap),
        Layout::Hdd,
        &mut rows,
        &mut report,
    );
    run(
        "SMR",
        TimeModel::smr_st5000as0011(cap),
        Layout::FixedBand {
            band_size: scale.band_size(),
        },
        &mut rows,
        &mut report,
    );
    report.line("paper Table II: HDD 169/155 MB/s, 64/143 IOPS; SMR 165/148 MB/s, 70 IOPS read, 5-140 IOPS write");
    report.csvs.push(Csv {
        name: "table2_device_model.csv".into(),
        content: rows,
    });
    Ok(report)
}

// ---------------------------------------------------------------- Fig. 8

/// The four micro-benchmark phases for one store kind.
#[derive(Debug)]
struct MicroSuite {
    /// Store kind.
    pub kind: StoreKind,
    /// Sequential load.
    fillseq: MicroResult,
    /// Random load.
    fillrandom: MicroResult,
    /// Random point reads on the random-loaded database.
    readrandom: MicroResult,
    /// Sequential range reads on the random-loaded database.
    readseq: MicroResult,
}

/// Runs the §IV-A micro-benchmark suite for one store kind.
fn micro_suite(kind: StoreKind, scale: &BenchScale) -> Result<MicroSuite> {
    let gen = scale.generator();
    let n = scale.load_records();
    // Sequential load on a fresh store.
    let mut s1 = build_store(kind, scale)?;
    let fillseq = fill_seq(&mut s1, &gen, n)?;
    drop(s1);
    // Random load on a fresh store; reads run against it.
    let mut s2 = build_store(kind, scale)?;
    let fillrandom = fill_random(&mut s2, &gen, n, scale.seed)?;
    let readrandom = read_random(&mut s2, &gen, n, scale.read_ops, scale.seed ^ 1)?;
    let readseq = read_seq(&mut s2, &gen, n, scale.read_ops, scale.seed ^ 2)?;
    Ok(MicroSuite {
        kind,
        fillseq,
        fillrandom,
        readrandom,
        readseq,
    })
}

fn micro_rows(suites: &[MicroSuite], report: &mut Report, csv_name: &str) {
    let base = &suites[0];
    let mut rows = String::from("store,phase,ops_per_sec,mb_per_sec,normalized_to_first\n");
    for s in suites {
        for (phase, r, b) in [
            ("fillseq", &s.fillseq, &base.fillseq),
            ("fillrandom", &s.fillrandom, &base.fillrandom),
            ("readrandom", &s.readrandom, &base.readrandom),
            ("readseq", &s.readseq, &base.readseq),
        ] {
            let norm = r.ops_per_sec() / b.ops_per_sec().max(1e-12);
            rows.push_str(&format!(
                "{},{phase},{:.1},{:.2},{norm:.3}\n",
                s.kind.name(),
                r.ops_per_sec(),
                r.mb_per_sec()
            ));
        }
        report.lines.push(format!(
            "{:<13} fillseq {:>9.0} op/s ({:.2}x)   fillrandom {:>8.0} op/s ({:.2}x)   readrandom {:>7.0} op/s ({:.2}x)   readseq {:>8.0} op/s ({:.2}x)",
            s.kind.name(),
            s.fillseq.ops_per_sec(),
            s.fillseq.ops_per_sec() / base.fillseq.ops_per_sec().max(1e-12),
            s.fillrandom.ops_per_sec(),
            s.fillrandom.ops_per_sec() / base.fillrandom.ops_per_sec().max(1e-12),
            s.readrandom.ops_per_sec(),
            s.readrandom.ops_per_sec() / base.readrandom.ops_per_sec().max(1e-12),
            s.readseq.ops_per_sec(),
            s.readseq.ops_per_sec() / base.readseq.ops_per_sec().max(1e-12),
        ));
    }
    report.csvs.push(Csv {
        name: csv_name.into(),
        content: rows,
    });
}

/// Fig. 8: micro-benchmark performance of LevelDB, SMRDB and SEALDB,
/// normalised to LevelDB.
pub fn fig08(scale: &BenchScale) -> Result<Report> {
    let mut report = Report::new("Fig. 8 — micro-benchmark performance (normalised to LevelDB)");
    let suites: Vec<MicroSuite> = per_store_parallel(&StoreKind::MAIN, |kind| {
        micro_suite(kind, scale).expect("suite")
    });
    micro_rows(&suites, &mut report, "fig08_micro.csv");
    report.line("paper: SEALDB 3.42x LevelDB on random load, 1.67x over SMRDB; 3.96x seq read; 1.80x rand read");
    Ok(report)
}

// ---------------------------------------------------------------- Fig. 9

/// Fig. 9: YCSB workloads A–F on the three stores.
pub fn fig09(scale: &BenchScale) -> Result<Report> {
    let mut report = Report::new("Fig. 9 — YCSB macro-benchmark (ops per simulated second)");
    let specs = WorkloadSpec::all();
    let results: Vec<(StoreKind, Vec<(String, f64)>)> =
        per_store_parallel(&StoreKind::MAIN, |kind| {
            let (mut store, _) = loaded_store(kind, scale).expect("load");
            let gen = scale.generator();
            let mut out = Vec::new();
            for spec in WorkloadSpec::all() {
                let r = workloads::run_ycsb(
                    &mut store,
                    &gen,
                    &spec,
                    scale.load_records(),
                    scale.ycsb_ops,
                    scale.seed ^ 0x9C5B,
                )
                .expect("ycsb");
                out.push((spec.name.to_string(), r.ops_per_sec()));
            }
            (kind, out)
        });
    let mut rows = String::from("store,workload,ops_per_sec,normalized_to_leveldb\n");
    for (kind, series) in &results {
        let mut line = format!("{:<13}", kind.name());
        for (i, (name, ops)) in series.iter().enumerate() {
            let base = results[0].1[i].1.max(1e-12);
            line.push_str(&format!(" {name} {ops:>8.0} ({:.2}x)", ops / base));
            rows.push_str(&format!(
                "{},{name},{ops:.1},{:.3}\n",
                kind.name(),
                ops / base
            ));
        }
        report.line(line);
    }
    let _ = specs;
    report.csvs.push(Csv {
        name: "fig09_ycsb.csv".into(),
        content: rows,
    });
    Ok(report)
}

// --------------------------------------------------------------- Fig. 10

/// Fig. 10: per-compaction latency series and average compaction size
/// during a random load.
pub fn fig10(scale: &BenchScale) -> Result<Report> {
    let mut report = Report::new("Fig. 10 — compaction latency and size during random load");
    let snaps: Vec<(StoreKind, StoreSnapshot)> = per_store_parallel(&StoreKind::MAIN, |kind| {
        let (store, _) = loaded_store(kind, scale).expect("load");
        (kind, store.snapshot())
    });
    let mut rows =
        String::from("store,compaction,start_s,latency_ms,output_mb,input_files,input_runs\n");
    for (kind, snap) in &snaps {
        let real: Vec<_> = snap.real_compactions().collect();
        for c in &real {
            rows.push_str(&format!(
                "{},{},{:.3},{:.3},{:.3},{},{}\n",
                kind.name(),
                c.id,
                c.start_ns as f64 / 1e9,
                c.duration_ns as f64 / 1e6,
                c.output_bytes as f64 / MB,
                c.input_files,
                c.input_runs
            ));
        }
        let n = real.len().max(1) as f64;
        let avg_lat = real.iter().map(|c| c.duration_ns as f64).sum::<f64>() / n / 1e6;
        let avg_mb = snap.avg_compaction_bytes() / MB;
        report.line(format!(
            "{:<13} {} compactions, avg latency {avg_lat:.1} ms, total {:.2} s, avg compaction size {avg_mb:.2} MiB",
            kind.name(),
            real.len(),
            snap.total_compaction_ns() as f64 / 1e9,
        ));
        // DESIGN.md §5's stream claim as numbers: how many tables a
        // compaction reads, and in how many contiguous device runs.
        report.line(format!(
            "{:<13} avg input files {:.2}, avg input runs {:.2} per compaction",
            "",
            real.iter().map(|c| c.input_files as f64).sum::<f64>() / n,
            real.iter().map(|c| c.input_runs as f64).sum::<f64>() / n,
        ));
    }
    report.line("paper: SEALDB 4.30x lower total latency than LevelDB; SMRDB avg 900 MB compactions; SEALDB avg set 27.48 MB");
    report.csvs.push(Csv {
        name: "fig10_compactions.csv".into(),
        content: rows,
    });
    Ok(report)
}

// --------------------------------------------------------------- Fig. 11

/// Fig. 11: SEALDB set placement per compaction — the counterpart of
/// Fig. 2 showing each compaction writing one contiguous region.
pub fn fig11(scale: &BenchScale) -> Result<Report> {
    let mut report = Report::new("Fig. 11 — SEALDB set placement per compaction (dynamic bands)");
    let mut store = build_store(StoreKind::SealDb, scale)?;
    store.set_tracing(true);
    let gen = scale.generator();
    fill_random(&mut store, &gen, scale.load_records(), scale.seed)?;
    let trace = store.take_trace();
    let mut rows = String::from("compaction,file,offset_mb,len_kb\n");
    let mut compactions = std::collections::BTreeMap::<u64, (u64, u64)>::new();
    for e in trace
        .iter()
        .filter(|e| e.dir == TraceDir::Write && e.tag > 0 && e.kind == IoKind::CompactionWrite)
    {
        rows.push_str(&format!(
            "{},{},{:.3},{}\n",
            e.tag,
            e.file,
            e.ext.offset as f64 / MB,
            e.ext.len / 1024
        ));
        let entry = compactions.entry(e.tag).or_insert((u64::MAX, 0));
        entry.0 = entry.0.min(e.ext.offset);
        entry.1 = entry.1.max(e.ext.end());
    }
    let snap = store.snapshot();
    let contiguous = compactions
        .values()
        .filter(|(lo, hi)| {
            // A compaction is "contiguous" if its writes span exactly the
            // bytes written (no holes beyond rounding).
            hi > lo && (hi - lo) < scale.band_size() * 4
        })
        .count();
    report.line(format!("compactions traced: {}", compactions.len()));
    report.line(format!(
        "compactions writing one contiguous region: {contiguous} ({:.0}%)",
        100.0 * contiguous as f64 / compactions.len().max(1) as f64
    ));
    report.line(format!(
        "used disk span: {:.1} MiB for a {} MiB database (paper: 2.7 GB span for 10 GB)",
        snap.high_water as f64 / MB,
        scale.load_bytes >> 20
    ));
    if let Some(ss) = snap.set_stats {
        report.line(format!(
            "avg set: {:.2} MiB, {:.2} SSTables (paper: 27.48 MB, 6.87)",
            ss.avg_set_bytes() / MB,
            ss.avg_set_files()
        ));
    }
    report.csvs.push(Csv {
        name: "fig11_sealdb_layout.csv".into(),
        content: rows,
    });
    Ok(report)
}

// --------------------------------------------------------------- Fig. 12

/// Fig. 12: WA, AWA and MWA of the three stores after a random load.
pub fn fig12(scale: &BenchScale) -> Result<Report> {
    let mut report = Report::new("Fig. 12 — write amplification (WA, AWA, MWA)");
    let snaps: Vec<(StoreKind, StoreSnapshot)> = per_store_parallel(&StoreKind::MAIN, |kind| {
        let (store, _) = loaded_store(kind, scale).expect("load");
        (kind, store.snapshot())
    });
    let mut rows = String::from("store,wa,awa,mwa\n");
    for (kind, snap) in &snaps {
        report.line(format!(
            "{:<13} WA {:>6.2}   AWA {:>6.2}   MWA {:>7.2}",
            kind.name(),
            snap.io.wa(),
            snap.io.awa(),
            snap.io.mwa()
        ));
        rows.push_str(&format!(
            "{},{:.3},{:.3},{:.3}\n",
            kind.name(),
            snap.io.wa(),
            snap.io.awa(),
            snap.io.mwa()
        ));
    }
    let mwa_ld = snaps[0].1.io.mwa();
    let mwa_seal = snaps.last().expect("stores").1.io.mwa();
    report.line(format!(
        "SEALDB MWA reduction vs LevelDB: {:.2}x (paper: 6.70x)",
        mwa_ld / mwa_seal.max(1e-12)
    ));
    report.csvs.push(Csv {
        name: "fig12_write_amplification.csv".into(),
        content: rows,
    });
    Ok(report)
}

// --------------------------------------------------------------- Fig. 13

/// Fig. 13: dynamic-band layout and fragments after a random load.
pub fn fig13(scale: &BenchScale) -> Result<Report> {
    let mut report = Report::new("Fig. 13 — dynamic bands and fragments");
    let (store, _) = loaded_store(StoreKind::SealDb, scale)?;
    let snap = store.snapshot();
    let avg_set = snap
        .set_stats
        .map_or(scale.band_size() as f64, |s| s.avg_set_bytes());
    // Fragments: free regions smaller than the average set size.
    let fragments: Vec<&Extent> = snap
        .free_regions
        .iter()
        .filter(|e| (e.len as f64) < avg_set)
        .collect();
    let frag_bytes: u64 = fragments.iter().map(|e| e.len).sum();
    let occupied = snap.high_water.max(1);
    let mut rows = String::from("kind,offset_mb,len_mb,members\n");
    for (ext, members) in &snap.bands {
        rows.push_str(&format!(
            "band,{:.3},{:.3},{members}\n",
            ext.offset as f64 / MB,
            ext.len as f64 / MB
        ));
    }
    for e in &snap.free_regions {
        let kind = if (e.len as f64) < avg_set {
            "fragment"
        } else {
            "free"
        };
        rows.push_str(&format!(
            "{kind},{:.3},{:.3},0\n",
            e.offset as f64 / MB,
            e.len as f64 / MB
        ));
    }
    report.line(format!("dynamic bands: {}", snap.bands.len()));
    report.line(format!(
        "banded region: {:.1} MiB for a {} MiB database",
        occupied as f64 / MB,
        scale.load_bytes >> 20
    ));
    report.line(format!(
        "fragments: {} regions, {:.1} MiB = {:.2}% of occupied space (paper: 9.32%)",
        fragments.len(),
        frag_bytes as f64 / MB,
        100.0 * frag_bytes as f64 / occupied as f64
    ));
    report.line(format!(
        "avg set size used as fragment threshold: {:.2} MiB",
        avg_set / MB
    ));
    // The paper's future work, implemented: a fragment GC pass.
    let mut store = store;
    let gc = store.collect_garbage(&lsm_core::GcConfig {
        fragment_threshold: avg_set as u64,
        target_fragment_ratio: 0.01,
        max_moves: 256,
    })?;
    let snap2 = store.snapshot();
    report.line(format!(
        "after GC (paper future work): relocated {} sets ({:.1} MiB moved), fragments {:.1} -> {:.1} MiB ({:.2}% of occupied)",
        gc.relocated_sets,
        gc.moved_bytes as f64 / MB,
        gc.fragments_before as f64 / MB,
        gc.fragments_after as f64 / MB,
        100.0 * gc.fragments_after as f64 / snap2.high_water.max(1) as f64
    ));
    report.csvs.push(Csv {
        name: "fig13_dynamic_bands.csv".into(),
        content: rows,
    });
    Ok(report)
}

// --------------------------------------------------------------- Fig. 14

/// Fig. 14: contribution analysis — LevelDB vs LevelDB+sets vs SEALDB
/// (sets + dynamic bands) on the four micro-benchmarks.
pub fn fig14(scale: &BenchScale) -> Result<Report> {
    let mut report =
        Report::new("Fig. 14 — contribution of sets vs dynamic bands (normalised to LevelDB)");
    let kinds = [
        StoreKind::LevelDb,
        StoreKind::LevelDbSets,
        StoreKind::SealDb,
    ];
    let suites: Vec<MicroSuite> =
        per_store_parallel(&kinds, |kind| micro_suite(kind, scale).expect("suite"));
    micro_rows(&suites, &mut report, "fig14_contribution.csv");
    report.line("paper: sets alone give ~41-50% of the read/random-write gains; sequential write improves only with dynamic bands");
    Ok(report)
}

// --------------------------------------------------------------- Ablation

/// Ablation of SEALDB's design choices (beyond the paper's Fig. 14):
///
/// * victim-priority picking on/off (§III-C *Delete*),
/// * per-file placement over dynamic bands (sets removed, device layer
///   kept),
/// * guard-region size sweep (Eq. 1's `S_guard`).
pub fn ablation(scale: &BenchScale) -> Result<Report> {
    use lsm_core::{DbCore, PerFilePolicy, PlacementPolicy};
    use placement::DynamicBandAlloc;
    use sealdb::SetPolicy;
    use smr_sim::Disk;

    /// One ablation row: label, policy factory (data capacity → policy),
    /// guard-region bytes for the disk layout.
    type Variant = (String, Box<dyn Fn(u64) -> Box<dyn PlacementPolicy>>, u64);

    let mut report = Report::new("Ablation — SEALDB design choices on a random load");
    let mut rows =
        String::from("variant,ops_per_sec,wa,mwa,frontier_mb,free_pool_mb,fragments_mb\n");

    let build_variant = |policy_for: &dyn Fn(u64) -> Box<dyn PlacementPolicy>,
                         guard: u64|
     -> Result<sealdb::Store> {
        let opts = {
            let mut o = lsm_core::Options::scaled(scale.sstable);
            o.seed = scale.seed;
            o
        };
        let cap = scale.disk_capacity();
        let disk = Disk::new(
            cap,
            Layout::RawHmSmr { guard_bytes: guard },
            TimeModel::smr_st5000as0011(cap),
        );
        let data_cap = cap - opts.log_zone_bytes - guard;
        let db = DbCore::open(disk, opts, policy_for(data_cap))?;
        let ord_audit = sealdb::Store::fresh_auditor(&db, None);
        Ok(sealdb::Store {
            kind: StoreKind::SealDb,
            db,
            instance: None,
            vlog: None,
            ord_audit,
        })
    };

    let sst = scale.sstable;
    let variants: Vec<Variant> = vec![
        (
            "sets+priority (SEALDB)".into(),
            Box::new(move |cap| {
                Box::new(SetPolicy::new(Box::new(DynamicBandAlloc::new(
                    cap, sst, sst,
                ))))
            }),
            sst,
        ),
        (
            "sets, no priority".into(),
            Box::new(move |cap| {
                Box::new(
                    SetPolicy::new(Box::new(DynamicBandAlloc::new(cap, sst, sst)))
                        .without_priority_picking(),
                )
            }),
            sst,
        ),
        (
            "per-file on dynamic bands".into(),
            Box::new(move |cap| {
                Box::new(PerFilePolicy::new(Box::new(DynamicBandAlloc::new(
                    cap, sst, sst,
                ))))
            }),
            sst,
        ),
        (
            "sets, guard 2x SSTable".into(),
            Box::new(move |cap| {
                Box::new(SetPolicy::new(Box::new(DynamicBandAlloc::new(
                    cap,
                    sst,
                    2 * sst,
                ))))
            }),
            2 * sst,
        ),
        (
            "sets, guard 4x SSTable".into(),
            Box::new(move |cap| {
                Box::new(SetPolicy::new(Box::new(DynamicBandAlloc::new(
                    cap,
                    sst,
                    4 * sst,
                ))))
            }),
            4 * sst,
        ),
    ];

    for (name, policy_for, guard) in &variants {
        let mut store = build_variant(policy_for.as_ref(), *guard)?;
        let gen = scale.generator();
        let res = workloads::fill_random(&mut store, &gen, scale.load_records(), scale.seed)?;
        let snap = store.snapshot();
        let avg_set = snap
            .set_stats
            .map_or(scale.band_size() as f64, |s| s.avg_set_bytes());
        let frag_bytes: u64 = snap
            .free_regions
            .iter()
            .filter(|e| (e.len as f64) < avg_set)
            .map(|e| e.len)
            .sum();
        let free_pool: u64 = snap.free_regions.iter().map(|e| e.len).sum();
        report.line(format!(
            "{name:<28} {:>8.0} op/s  WA {:>5.2}  MWA {:>6.2}  frontier {:>7.1} MiB  fragments {:>6.1} MiB",
            res.ops_per_sec(),
            snap.io.wa(),
            snap.io.mwa(),
            snap.high_water as f64 / MB,
            frag_bytes as f64 / MB,
        ));
        rows.push_str(&format!(
            "{name},{:.1},{:.3},{:.3},{:.2},{:.2},{:.2}\n",
            res.ops_per_sec(),
            snap.io.wa(),
            snap.io.mwa(),
            snap.high_water as f64 / MB,
            free_pool as f64 / MB,
            frag_bytes as f64 / MB,
        ));
    }
    report.line("expected: priority picking trims fragments at equal WA; sets matter mainly for compaction streaming; larger guards waste reuse opportunities (bigger frontier)");
    report.csvs.push(Csv {
        name: "ablation_design_choices.csv".into(),
        content: rows,
    });
    Ok(report)
}

// ---------------------------------------------------------------- HA-SMR

/// HA-SMR justification experiment (§II-C): the paper argues that
/// drive-managed media caches "cannot address the MWA problem, since
/// cache cleaning processes induce large latency ... and bring a bimodal
/// behavior". Runs LevelDB on an HA-SMR drive (media cache = 1/64 of
/// capacity) and contrasts per-write latency and MWA against the
/// fixed-band drive and SEALDB.
pub fn hasmr(scale: &BenchScale) -> Result<Report> {
    let mut report = Report::new("HA-SMR — media-cache bimodality and MWA (paper §II-C)");
    // LevelDB over HA-SMR with per-put latency sampling.
    let mut cfg =
        sealdb::StoreConfig::new(StoreKind::LevelDb, scale.sstable, scale.disk_capacity());
    cfg.seed = scale.seed;
    cfg.layout_override = Some(Layout::HaSmr {
        band_size: scale.band_size(),
        media_cache_bytes: scale.disk_capacity() / 64,
    });
    let mut store = cfg.build()?;
    let gen = scale.generator();
    let n = scale.load_records();
    let mut rows = String::from("op,latency_ms\n");
    let mut latencies: Vec<u64> = Vec::with_capacity(n as usize);
    for i in 0..n {
        let j = workloads::permute(i, n, scale.seed);
        let t0 = store.clock_ns();
        store.put(&gen.key(j), &gen.value(j))?;
        let dt = store.clock_ns() - t0;
        latencies.push(dt);
        // Keep the CSV plottable: every 64th op plus every stall.
        if i % 64 == 0 || dt > 50_000_000 {
            rows.push_str(&format!("{i},{:.3}\n", dt as f64 / 1e6));
        }
    }
    store.flush()?;
    let snap = store.snapshot();
    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    let pct = |p: f64| sorted[(p * (sorted.len() - 1) as f64) as usize] as f64 / 1e6;
    let cleanings = store.db.ctx().lock().fs.disk().cleaning_passes();
    report.line(format!(
        "LevelDB on HA-SMR: p50 {:.3} ms, p99 {:.3} ms, max {:.1} ms — bimodal (cleanings: {cleanings})",
        pct(0.50),
        pct(0.99),
        *sorted.last().expect("nonempty") as f64 / 1e6
    ));
    report.line(format!(
        "LevelDB on HA-SMR: WA {:.2}, AWA {:.2}, MWA {:.2} (cache cleaning does not solve MWA)",
        snap.io.wa(),
        snap.io.awa(),
        snap.io.mwa()
    ));
    // Reference points at the same scale.
    let refs: Vec<(StoreKind, StoreSnapshot)> =
        per_store_parallel(&[StoreKind::LevelDb, StoreKind::SealDb], |kind| {
            let (store, _) = loaded_store(kind, scale).expect("load");
            (kind, store.snapshot())
        });
    for (kind, s) in &refs {
        report.line(format!(
            "{} on {}: MWA {:.2}",
            kind.name(),
            if *kind == StoreKind::SealDb {
                "raw HM-SMR"
            } else {
                "fixed-band SMR"
            },
            s.io.mwa()
        ));
    }
    report.csvs.push(Csv {
        name: "hasmr_latency_series.csv".into(),
        content: rows,
    });
    Ok(report)
}

// ---------------------------------------------------------- Serve sweep

/// Latency under load: the multi-client serving front-end sweeps offered
/// load per store and reports throughput, tail latency, queue depth, and
/// write stalls (the PR 3 `BENCH_pr3.json` artifact in table form).
pub fn serve(scale: &BenchScale) -> Result<Report> {
    let doc = crate::serve_run::serve_rows(scale)?;
    serve_report(&doc).map_err(lsm_core::Error::InvalidArgument)
}

fn serve_report(doc: &crate::artifact::Row) -> std::result::Result<Report, String> {
    let mut report = Report::new("Serve — latency under offered load (multi-client front-end)");
    let mut rows = String::from(
        "store,offered_ops_per_sec,throughput_ops_per_sec,p50_ms,p95_ms,p99_ms,max_ms,queue_depth_max,stalls,avg_group_size\n",
    );
    for sweep in doc.rows("stores")? {
        let store = sweep.s("store")?;
        report.line(format!(
            "{store}: saturation {:.0} ops/s (closed loop, {} clients)",
            sweep.f("saturation_ops_per_sec")?,
            doc.u("clients")?
        ));
        for p in sweep.rows("points")? {
            let ms = |key: &str| Ok::<f64, String>(p.u(key)? as f64 / 1e6);
            let offered = p.f("offered_ops_per_sec")?;
            let throughput = p.f("throughput_ops_per_sec")?;
            let depth = p.u("queue_depth_max")?;
            let stalls = p.u("stall_slowdowns")? + p.u("stall_stops")? + p.u("stall_memtables")?;
            let group = p.f("avg_group_size")?;
            report.line(format!(
                "  offered {offered:>8.0} ops/s -> {throughput:>8.0} ops/s, p50 {:>8.3} ms, p99 {:>9.3} ms, depth {depth:>3}, stalls {stalls:>4}, group {group:.2}",
                ms("p50_ns")?,
                ms("p99_ns")?,
            ));
            rows.push_str(&format!(
                "{store},{offered:.3},{throughput:.3},{:.4},{:.4},{:.4},{:.4},{depth},{stalls},{group:.3}\n",
                ms("p50_ns")?,
                ms("p95_ns")?,
                ms("p99_ns")?,
                ms("max_ns")?,
            ));
        }
    }
    report.csvs.push(Csv {
        name: "serve_latency_under_load.csv".into(),
        content: rows,
    });
    Ok(report)
}
