//! The YCSB core workloads (Cooper et al., SoCC'10) as used in the
//! paper's Fig. 9:
//!
//! * **A** — 50% reads, 50% updates (zipfian)
//! * **B** — 95% reads, 5% updates (zipfian)
//! * **C** — 100% reads (zipfian)
//! * **D** — 95% reads, 5% inserts; reads skew to the latest keys
//! * **E** — 95% range scans, 5% inserts (zipfian start, uniform length)
//! * **F** — 50% reads, 50% read-modify-writes (zipfian)

use crate::distributions::{Distribution, Latest, ScrambledZipfian};
use crate::generator::RecordGenerator;
use lsm_core::util::rng::XorShift64;
use lsm_core::Result;
use sealdb::Store;

/// Operation mix of one workload. Whatever the four proportions leave
/// of 1 is read-modify-write.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Point-read proportion.
    pub read: f64,
    /// Update (overwrite existing key) proportion.
    pub update: f64,
    /// Insert (new key) proportion.
    pub insert: f64,
    /// Range-scan proportion.
    pub scan: f64,
}

/// Request-distribution choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dist {
    /// Scrambled zipfian (YCSB default).
    Zipfian,
    /// Skewed towards recently inserted keys.
    Latest,
}

/// One YCSB workload definition.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Workload tag ("A".."F").
    pub name: &'static str,
    /// Operation mix.
    pub mix: Mix,
    /// Key-choice distribution.
    dist: Dist,
    /// Maximum scan length (workload E; YCSB default 100).
    pub max_scan_len: usize,
    /// Target offered load per client in ops per simulated second for
    /// the serving front-end's open-loop mode; 0.0 (the default) means
    /// unpaced — `run` issues back-to-back and the front-end falls back
    /// to closed-loop traffic.
    pub ops_per_sec: f64,
}

impl WorkloadSpec {
    /// Workload A: update heavy (50/50).
    pub fn a() -> Self {
        WorkloadSpec {
            name: "A",
            mix: Mix {
                read: 0.5,
                update: 0.5,
                insert: 0.0,
                scan: 0.0,
            },
            dist: Dist::Zipfian,
            max_scan_len: 100,
            ops_per_sec: 0.0,
        }
    }

    /// Workload B: read mostly (95/5).
    pub fn b() -> Self {
        WorkloadSpec {
            name: "B",
            mix: Mix {
                read: 0.95,
                update: 0.05,
                insert: 0.0,
                scan: 0.0,
            },
            dist: Dist::Zipfian,
            max_scan_len: 100,
            ops_per_sec: 0.0,
        }
    }

    /// Workload C: read only.
    pub fn c() -> Self {
        WorkloadSpec {
            name: "C",
            mix: Mix {
                read: 1.0,
                update: 0.0,
                insert: 0.0,
                scan: 0.0,
            },
            dist: Dist::Zipfian,
            max_scan_len: 100,
            ops_per_sec: 0.0,
        }
    }

    /// Workload D: read latest (95% reads, 5% inserts).
    pub fn d() -> Self {
        WorkloadSpec {
            name: "D",
            mix: Mix {
                read: 0.95,
                update: 0.0,
                insert: 0.05,
                scan: 0.0,
            },
            dist: Dist::Latest,
            max_scan_len: 100,
            ops_per_sec: 0.0,
        }
    }

    /// Workload E: short ranges (95% scans, 5% inserts).
    pub fn e() -> Self {
        WorkloadSpec {
            name: "E",
            mix: Mix {
                read: 0.0,
                update: 0.0,
                insert: 0.05,
                scan: 0.95,
            },
            dist: Dist::Zipfian,
            max_scan_len: 100,
            ops_per_sec: 0.0,
        }
    }

    /// Workload F: read-modify-write (50/50).
    pub fn f() -> Self {
        WorkloadSpec {
            name: "F",
            mix: Mix {
                read: 0.5,
                update: 0.0,
                insert: 0.0,
                scan: 0.0,
            },
            dist: Dist::Zipfian,
            max_scan_len: 100,
            ops_per_sec: 0.0,
        }
    }

    /// The serving-sweep mix: 50% point reads, 50% inserts (zipfian
    /// reads over a keyspace the inserts keep growing). Reads make
    /// latency visible while the ingest stream exercises the write path
    /// — group commit, flushes, L0 backpressure — and keeps level 0
    /// populated, so no store serves reads from an artificially
    /// quiesced tree. Zipfian *updates* are deliberately absent: a
    /// band-sized memtable absorbs a hot update stream wholesale, which
    /// measures buffer capacity rather than serving capacity.
    pub fn serve_mix() -> Self {
        WorkloadSpec {
            name: "S",
            mix: Mix {
                read: 0.5,
                update: 0.0,
                insert: 0.5,
                scan: 0.0,
            },
            dist: Dist::Zipfian,
            max_scan_len: 100,
            ops_per_sec: 0.0,
        }
    }

    /// The six workloads of the paper's Fig. 9, in order.
    pub fn all() -> Vec<WorkloadSpec> {
        vec![
            Self::a(),
            Self::b(),
            Self::c(),
            Self::d(),
            Self::e(),
            Self::f(),
        ]
    }
}

/// Result of one YCSB run.
#[derive(Clone, Copy, Debug)]
pub struct YcsbResult {
    /// Operations executed.
    pub ops: u64,
    /// Simulated duration, ns.
    pub sim_ns: u64,
    /// Reads that found their key.
    pub hits: u64,
    /// Reads that missed (should stay 0 in our closed keyspace).
    pub misses: u64,
}

impl YcsbResult {
    /// Operations per simulated second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.sim_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.sim_ns as f64
        }
    }
}

/// One operation drawn from an [`OpStream`], by record index — the
/// consumer turns indices into key/value bytes with its
/// [`RecordGenerator`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum YcsbOp {
    /// Point read of an existing record.
    Read(u64),
    /// Overwrite of an existing record.
    Update(u64),
    /// Insert of the next new record (the keyspace grows by one).
    Insert(u64),
    /// Range scan from a record, for up to this many rows.
    Scan(u64, usize),
    /// Read-modify-write of an existing record.
    Rmw(u64),
}

/// The seeded YCSB operation stream: which operation comes next and on
/// which record. Every driver — [`run`], the serving front-end, and
/// through it the shard router — iterates this one generator, so runs
/// with the same `(spec, record_count, seed)` see the same operations in
/// the same order. The op choice and the key choice draw from separate
/// RNG streams (`seed` and `seed ^ 0xDEADBEEF`).
pub struct OpStream {
    mix: Mix,
    max_scan_len: u64,
    op_rng: XorShift64,
    key_rng: XorShift64,
    dist: Box<dyn Distribution>,
    n_now: u64,
}

impl std::fmt::Debug for OpStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpStream")
            .field("mix", &self.mix)
            .field("records", &self.n_now)
            .finish_non_exhaustive()
    }
}

impl OpStream {
    /// A stream of `spec` operations over a keyspace preloaded with
    /// `record_count` records.
    pub fn new(spec: &WorkloadSpec, record_count: u64, seed: u64) -> Self {
        let dist: Box<dyn Distribution> = match spec.dist {
            Dist::Zipfian => Box::new(ScrambledZipfian::new(record_count)),
            Dist::Latest => Box::new(Latest::new(record_count * 2)),
        };
        OpStream {
            mix: spec.mix,
            // `WorkloadSpec` fields are public: a zero scan length still
            // yields one-row scans instead of an empty-range draw.
            max_scan_len: (spec.max_scan_len as u64).max(1),
            op_rng: XorShift64::new(seed),
            key_rng: XorShift64::new(seed ^ 0xDEADBEEF),
            dist,
            n_now: record_count,
        }
    }

    /// Keyspace size so far: the preload plus every insert drawn.
    pub fn records(&self) -> u64 {
        self.n_now
    }

    fn next_key(&mut self) -> u64 {
        self.dist.next(&mut self.key_rng, self.n_now)
    }
}

impl Iterator for OpStream {
    type Item = YcsbOp;

    fn next(&mut self) -> Option<YcsbOp> {
        let r = (self.op_rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let m = self.mix;
        Some(if r < m.read {
            YcsbOp::Read(self.next_key())
        } else if r < m.read + m.update {
            YcsbOp::Update(self.next_key())
        } else if r < m.read + m.update + m.insert {
            self.n_now += 1;
            YcsbOp::Insert(self.n_now - 1)
        } else if r < m.read + m.update + m.insert + m.scan {
            let i = self.next_key();
            YcsbOp::Scan(i, 1 + self.key_rng.next_below(self.max_scan_len) as usize)
        } else {
            YcsbOp::Rmw(self.next_key())
        })
    }
}

/// Executes `op_count` operations of `spec` against a store preloaded
/// with `record_count` records.
pub fn run(
    store: &mut Store,
    gen: &RecordGenerator,
    spec: &WorkloadSpec,
    record_count: u64,
    op_count: u64,
    seed: u64,
) -> Result<YcsbResult> {
    let mut hits = 0;
    let mut misses = 0;
    let mut read = |store: &mut Store, key: &[u8]| -> Result<()> {
        if store.get(key)?.is_some() {
            hits += 1;
        } else {
            misses += 1;
        }
        Ok(())
    };
    let start = store.clock_ns();
    for op in OpStream::new(spec, record_count, seed).take(op_count as usize) {
        match op {
            YcsbOp::Read(i) => read(store, &gen.key(i))?,
            YcsbOp::Update(i) | YcsbOp::Insert(i) => store.put(&gen.key(i), &gen.value(i))?,
            YcsbOp::Scan(i, len) => {
                store.scan(&gen.key(i), len)?;
            }
            YcsbOp::Rmw(i) => {
                let k = gen.key(i);
                read(store, &k)?;
                store.put(&k, &gen.value(i))?;
            }
        }
    }
    Ok(YcsbResult {
        ops: op_count,
        sim_ns: store.clock_ns() - start,
        hits,
        misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::fill_random;
    use sealdb::{StoreConfig, StoreKind};

    #[test]
    fn mixes_leave_no_negative_remainder() {
        for w in WorkloadSpec::all() {
            let m = w.mix;
            let sum = m.read + m.update + m.insert + m.scan;
            assert!(sum <= 1.0 + 1e-9, "workload {}", w.name);
        }
    }

    #[test]
    fn paper_mix_definitions() {
        assert_eq!(WorkloadSpec::a().mix.read, 0.5);
        assert_eq!(WorkloadSpec::b().mix.read, 0.95);
        assert_eq!(WorkloadSpec::c().mix.read, 1.0);
        assert_eq!(WorkloadSpec::d().dist, Dist::Latest);
        assert_eq!(WorkloadSpec::e().mix.scan, 0.95);
        assert_eq!(WorkloadSpec::f().mix.read, 0.5, "F: the other half is RMW");
    }

    #[test]
    fn zero_max_scan_len_yields_one_row_scans() {
        let spec = WorkloadSpec {
            mix: Mix {
                read: 0.0,
                update: 0.0,
                insert: 0.0,
                scan: 1.0,
            },
            max_scan_len: 0,
            ..WorkloadSpec::e()
        };
        let ops: Vec<YcsbOp> = OpStream::new(&spec, 1000, 9).take(200).collect();
        assert!(ops.iter().all(|op| matches!(op, YcsbOp::Scan(_, 1))));
        // The floor costs no RNG draw of its own: a length-1 spec sees
        // the same start keys.
        let one = WorkloadSpec {
            max_scan_len: 1,
            ..spec
        };
        assert!(OpStream::new(&one, 1000, 9).take(200).eq(ops));
    }

    #[test]
    fn update_heavy_workloads_run_against_a_vlog_store() {
        // A and F drive the key-value-separation benchmark: their
        // updates overwrite values living in the value log, so each run
        // exercises vlog append, pointer rewrite, and pointer-chase
        // reads end to end.
        let gen = RecordGenerator::new(16, 600, 1);
        let n = 600;
        for spec in [WorkloadSpec::a(), WorkloadSpec::f()] {
            let params = sealdb::VlogParams {
                segment_bytes: 16 << 10,
                value_threshold: 256,
            };
            let mut store = StoreConfig::new(StoreKind::SealDb, 32 << 10, 1 << 30)
                .with_vlog(params)
                .build()
                .unwrap();
            fill_random(&mut store, &gen, n, 3).unwrap();
            let res = run(&mut store, &gen, &spec, n, 500, 11).unwrap();
            assert_eq!(res.ops, 500);
            assert_eq!(res.misses, 0, "workload {} missed reads", spec.name);
        }
    }

    #[test]
    fn all_workloads_execute_without_misses() {
        let gen = RecordGenerator::new(16, 100, 1);
        let n = 1500;
        for spec in WorkloadSpec::all() {
            let mut store = StoreConfig::new(StoreKind::SealDb, 32 << 10, 1 << 30)
                .build()
                .unwrap();
            fill_random(&mut store, &gen, n, 3).unwrap();
            let res = run(&mut store, &gen, &spec, n, 300, 17).unwrap();
            assert_eq!(res.ops, 300);
            assert!(res.sim_ns > 0);
            assert_eq!(res.misses, 0, "workload {} missed reads", spec.name);
        }
    }
}

#[cfg(test)]
mod dist_plumbing_tests {
    use super::*;
    use crate::micro::fill_random;
    use sealdb::{StoreConfig, StoreKind};

    #[test]
    fn inserts_extend_the_keyspace() {
        let gen = RecordGenerator::new(16, 100, 1);
        let n = 500;
        let mut store = StoreConfig::new(StoreKind::SealDb, 32 << 10, 1 << 30)
            .build()
            .unwrap();
        fill_random(&mut store, &gen, n, 3).unwrap();
        let spec = WorkloadSpec::d(); // 5% inserts
        run(&mut store, &gen, &spec, n, 1000, 7).unwrap();
        // Some key beyond the initial load must now exist.
        let mut extended = false;
        for i in n..n + 60 {
            if store.get(&gen.key(i)).unwrap().is_some() {
                extended = true;
                break;
            }
        }
        assert!(extended, "workload D inserts new keys");
    }
}
