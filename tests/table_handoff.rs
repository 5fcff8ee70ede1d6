//! Build-time table handoff, seen from the store: a table the engine has
//! just written gets its reader from the image still in memory, so a
//! load never reads its own footers back — and the device copy is still
//! verified wherever it *is* read (reopen, scrub, an evicted reader).

use lsm_core::sstable::table::parse_footer;
use lsm_core::sstable::FOOTER_SIZE;
use lsm_core::ScrubConfig;
use sealdb::{Store, StoreConfig, StoreKind};
use smr_sim::{Extent, IoKind};
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

#[test]
fn damaged_device_index_is_still_caught_behind_a_cached_reader() {
    let (mut store, gen) = loaded(StoreKind::SealDb);
    // The on-device index block of one live table, whose reader — made
    // from the build-time image — sits in the table cache.
    let victim = {
        let version = store.db.current_version();
        version
            .files
            .iter()
            .flatten()
            .next()
            .expect("a table")
            .clone()
    };
    {
        let mut guard = store.db.ctx().lock();
        let footer = guard
            .fs
            .read_file(
                victim.id,
                victim.size - FOOTER_SIZE as u64,
                FOOTER_SIZE as u64,
                IoKind::Raw,
            )
            .expect("footer");
        let (_, index) = parse_footer(&footer).expect("footer parses");
        let file = guard.fs.file_extent(victim.id).expect("extent");
        guard
            .fs
            .disk_mut()
            .faults_mut()
            .corrupt_extent(Extent::new(file.offset + index.offset + 2, 1));
    }

    // Live reads go through the cached reader and never touch the
    // damaged block; the data blocks they do read verify as always.
    let meta_before = meta_read_bytes(&store);
    for i in 0..RECORDS {
        assert_eq!(
            store.get(&gen.key(i)).expect("get"),
            Some(gen.value(i)),
            "key {i}"
        );
    }
    assert_eq!(meta_read_bytes(&store), meta_before);

    // Scrub reads the platter past the cache and reports the block.
    let detect = ScrubConfig {
        repair: false,
        ..ScrubConfig::default()
    };
    let report = store.db.scrub_full(&detect).expect("scrub");
    assert!(report.blocks_corrupt >= 1, "{report:?}");

    // A restart holds no readers: the table is opened from the device,
    // fails its index check and is quarantined.
    let store = store.reopen().expect("reopen");
    assert_eq!(store.db.recovery_report().files_quarantined, 1);
    assert!(store
        .db
        .current_version()
        .files
        .iter()
        .flatten()
        .all(|f| f.id != victim.id));
}
