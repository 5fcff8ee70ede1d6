//! Build-time table handoff, seen from the store: a table the engine has
//! just written gets its reader from the image still in memory, so a
//! load never reads its own footers back — and the device copy is still
//! verified wherever it *is* read (reopen, scrub, an evicted reader).
//! The readers handed over are also what lets a compaction stream a
//! contiguous set as one device run (set-run streaming), and an L0→L1
//! merge read a chained level-0 run in one device read: their
//! store-level checks live here too.

use lsm_core::sstable::table::parse_footer;
use lsm_core::sstable::FOOTER_SIZE;
use lsm_core::FileId;
use sealdb::{Store, StoreConfig, StoreKind, VlogParams};
use smr_sim::{Extent, IoKind, ObsLayer};
use workloads::RecordGenerator;

const RECORDS: u64 = 3000;

/// Random-order load at 4 KiB tables: hundreds of flushes and compactions
/// through several levels (a dozen band-sized flushes for SMRDB).
fn loaded(kind: StoreKind) -> (Store, RecordGenerator) {
    let mut store = StoreConfig::new(kind, 4 << 10, 512 << 20)
        .build()
        .expect("store builds");
    let gen = RecordGenerator::new(16, 256, 11);
    for n in 0..RECORDS {
        let i = (n * 2654435761) % RECORDS;
        store.put(&gen.key(i), &gen.value(i)).expect("put");
    }
    store.flush().expect("flush");
    (store, gen)
}

fn meta_read_bytes(store: &Store) -> u64 {
    let guard = store.db.ctx().lock();
    guard.fs.disk().stats().kind(IoKind::Meta).logical_read
}

#[test]
fn a_load_never_reads_its_own_table_metadata_back() {
    for kind in StoreKind::ALL {
        let (store, _) = loaded(kind);
        assert!(
            store.db.compaction_log().iter().any(|c| !c.trivial_move),
            "{kind:?}: the load must compact"
        );
        assert_eq!(meta_read_bytes(&store), 0, "{kind:?}: Meta reads");
        let (hits, misses) = store.db.ctx().lock().table_cache.hit_stats();
        assert!(hits > 0, "{kind:?}: compactions look their inputs up");
        assert_eq!(misses, 0, "{kind:?}: and always find them");
    }
}

/// Every store streams its compaction inputs through the set-run bridge
/// (there is no switch), so a load that compacts through several levels
/// must still hold exactly what was put.
#[test]
fn every_store_kind_agrees_with_the_model_after_a_load() {
    for kind in StoreKind::ALL {
        let (mut store, gen) = loaded(kind);
        let mut model: Vec<_> = (0..RECORDS).map(|i| (gen.key(i), gen.value(i))).collect();
        model.sort();
        for (key, value) in &model {
            assert_eq!(
                store.get(key).expect("get").as_ref(),
                Some(value),
                "{kind:?}"
            );
        }
        let scanned = store.scan(b"", usize::MAX).expect("scan");
        assert!(scanned == model, "{kind:?}: scan differs from the model");
    }
}

/// DESIGN.md §5's "victim + contiguous set" as a measurement: SEALDB's
/// compactions read their inputs in far fewer device runs than files,
/// LevelDB's scattered files are a run each, and the obs counters carry
/// the same totals as the compaction log.
#[test]
fn sets_make_compaction_inputs_few_runs() {
    let per_compaction = |kind: StoreKind| {
        let (store, _) = loaded(kind);
        let real: Vec<_> = store.snapshot().real_compactions().cloned().collect();
        assert!(real.len() > 20, "{kind:?}: {} compactions", real.len());
        let files: usize = real.iter().map(|c| c.input_files).sum();
        let runs: usize = real.iter().map(|c| c.input_runs).sum();
        let guard = store.db.ctx().lock();
        let reg = &guard.fs.disk().obs().registry;
        assert_eq!(
            reg.counter(ObsLayer::Lsm, "compaction.input_runs"),
            runs as u64,
            "{kind:?}"
        );
        let bridged = reg.counter(ObsLayer::Lsm, "compaction.bridged_bytes");
        let n = real.len() as f64;
        (files as f64 / n, runs as f64 / n, bridged)
    };
    let (files, runs, bridged) = per_compaction(StoreKind::SealDb);
    assert!(
        runs < files / 2.0,
        "SEALDB: {runs:.2} runs of {files:.2} files"
    );
    assert!(bridged > 0);
    let (files, runs, _) = per_compaction(StoreKind::LevelDb);
    assert!(
        runs > files * 0.9,
        "LevelDB: {runs:.2} runs of {files:.2} files"
    );
}

/// The bridge reads a table's tail only when the next input starts where
/// this one ends. SMRDB gives every table a band of its own, so none of
/// its compaction inputs ever does, and the bridge must be invisible to
/// it: the device statistics and the simulated clock after a fixed load
/// are the ones recorded at the commit before set-run streaming.
#[test]
fn smrdb_device_statistics_are_what_they_were_before_the_bridge() {
    let (store, _) = loaded(StoreKind::SmrDb);
    let log = store.db.compaction_log();
    assert!(log.iter().any(|c| !c.trivial_move && c.input_files > 2));
    assert!(log.iter().all(|c| c.input_runs == c.input_files), "{log:?}");
    let guard = store.db.ctx().lock();
    let disk = guard.fs.disk();
    let stats = format!("{:?}", disk.stats());
    let fnv = stats.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        (disk.clock_ns(), disk.stats().seeks, stats.len(), fnv),
        (1_309_544_630, 221, 1557, 0x8c28_f08f_a341_50f3),
        "{stats}"
    );
}

/// SEALDB chains each level-0 run back to back inside one hole, so L0→L1
/// merges read their victims in one device read. In a debug build the
/// disk's shingle auditor checks every write of the load against Eq. 1
/// and the store's ordering auditor every value-log step — key-value
/// separation is on, so segment appends share the holes with the
/// chains — and both stay silent.
#[test]
fn chained_level0_runs_keep_the_shingle_and_ordering_audits_silent() {
    let params = VlogParams {
        segment_bytes: 32 << 10,
        value_threshold: 64,
    };
    let mut store = StoreConfig::new(StoreKind::SealDb, 4 << 10, 512 << 20)
        .with_vlog(params)
        .build()
        .expect("store builds");
    assert_eq!(store.ord_audit.is_some(), cfg!(debug_assertions));
    let gen = RecordGenerator::new(16, 256, 11);
    for n in 0..RECORDS {
        let i = (n * 2654435761) % RECORDS;
        store.put(&gen.key(i), &gen.value(i)).expect("put");
    }
    store.flush().expect("flush");
    let merged_whole = {
        let guard = store.db.ctx().lock();
        let reg = &guard.fs.disk().obs().registry;
        reg.counter(ObsLayer::Lsm, "compaction.run_read_bytes")
    };
    assert!(merged_whole > 0, "no level-0 run was read whole");
    for i in 0..RECORDS {
        assert_eq!(store.get(&gen.key(i)).expect("get"), Some(gen.value(i)));
    }
}

/// Flips bits in the on-device index block of table `id` (`size`
/// bytes long); its cached reader, made from the build-time image, is
/// left as it is.
fn damage_index(store: &Store, id: FileId, size: u64) {
    let mut guard = store.db.ctx().lock();
    let footer = guard
        .fs
        .read_file(
            id,
            size - FOOTER_SIZE as u64,
            FOOTER_SIZE as u64,
            IoKind::Raw,
        )
        .expect("footer");
    let (_, index) = parse_footer(&footer).expect("footer parses");
    let file = guard.fs.file_extent(id).expect("extent");
    guard
        .fs
        .disk_mut()
        .faults_mut()
        .corrupt_extent(Extent::new(file.offset + index.offset + 2, 1));
}

#[test]
fn damaged_device_index_is_still_caught_behind_a_cached_reader() {
    let (mut store, gen) = loaded(StoreKind::SealDb);
    // Two live tables with damaged on-device index blocks: the first
    // the scrubber visits (lowest level, then lowest id) and the last.
    let (scrubbed, reopened) = {
        let version = store.db.current_version();
        let mut order: Vec<(usize, FileId, u64)> = version
            .files
            .iter()
            .enumerate()
            .flat_map(|(level, files)| files.iter().map(move |f| (level, f.id, f.size)))
            .collect();
        order.sort_unstable();
        let (first, last) = (order[0], order[order.len() - 1]);
        assert_ne!(first.1, last.1, "the load must leave several tables");
        (first, last)
    };
    damage_index(&store, scrubbed.1, scrubbed.2);
    damage_index(&store, reopened.1, reopened.2);

    // Live reads go through the cached readers and never touch the
    // damaged blocks; the data blocks they do read verify as always.
    let meta_before = meta_read_bytes(&store);
    for i in 0..RECORDS {
        assert_eq!(
            store.get(&gen.key(i)).expect("get"),
            Some(gen.value(i)),
            "key {i}"
        );
    }
    assert_eq!(meta_read_bytes(&store), meta_before);

    // A one-byte scrub step visits only the first table: it reads the
    // platter past the cache, reports the block and takes the table
    // out of the tree (rebuilt or quarantined).
    let report = store.scrub_step(1).expect("scrub");
    assert_eq!(
        report.files_repaired + report.files_quarantined,
        1,
        "{report:?}"
    );
    assert!(report.blocks_corrupt >= 1, "{report:?}");
    let live = |store: &Store, id: FileId| {
        let version = store.db.current_version();
        let found = version.files.iter().flatten().any(|f| f.id == id);
        found
    };
    assert!(!live(&store, scrubbed.1));
    assert!(live(&store, reopened.1));

    // A restart holds no readers: the other table is opened from the
    // device, fails its index check and is quarantined.
    let store = store.reopen().expect("reopen");
    assert_eq!(store.db.recovery_report().files_quarantined, 1);
    assert!(!live(&store, reopened.1));
}
