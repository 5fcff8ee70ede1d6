//! Integration tests for engine paths not covered by unit tests:
//! batched writes, iterator machinery over real tables, cache behaviour
//! and compaction progression into deep levels.

use lsm_core::context::get_table;
use lsm_core::db::{batch::WriteBatch, options::Options, DbCore};
use lsm_core::iterator::InternalIterator;
use lsm_core::policy::PerFilePolicy;
use lsm_core::types::{lookup_key, user_key, MAX_SEQUENCE};
use placement::Ext4Sim;
use smr_sim::{Disk, IoKind, Layout, TimeModel};

const MB: u64 = 1 << 20;

fn open_db(sstable: u64) -> DbCore {
    let cap = 1024 * MB;
    let disk = Disk::new(cap, Layout::Hdd, TimeModel::hdd_st1000dm003(cap));
    let mut opts = Options::scaled(sstable);
    opts.wal_buffer_bytes = 0;
    let alloc = Ext4Sim::new(cap - opts.log_zone_bytes(), 16 * MB);
    DbCore::open(disk, opts, Box::new(PerFilePolicy::new(Box::new(alloc)))).unwrap()
}

fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
    (
        format!("key{i:010}").into_bytes(),
        format!("val{i:06}-{}", "y".repeat(64)).into_bytes(),
    )
}

#[test]
fn batched_writes_are_atomic_and_ordered() {
    let mut db = open_db(64 << 10);
    let mut batch = WriteBatch::new();
    for i in 0..100 {
        let (k, v) = kv(i);
        batch.put(&k, &v);
    }
    batch.delete(&kv(50).0);
    let count = batch.count();
    db.write(batch).unwrap();
    assert_eq!(u64::from(count), db.last_sequence());
    assert_eq!(db.get(&kv(0).0).unwrap(), Some(kv(0).1));
    assert_eq!(
        db.get(&kv(50).0).unwrap(),
        None,
        "later delete wins in batch"
    );
    assert_eq!(db.get(&kv(99).0).unwrap(), Some(kv(99).1));
}

#[test]
fn deep_levels_form_under_sustained_load() {
    let mut db = open_db(8 << 10);
    for i in 0..30_000u64 {
        let j = (i * 2654435761) % 30_000;
        let (k, _) = kv(j);
        db.put(&k, &[(j % 251) as u8; 48]).unwrap();
    }
    db.flush().unwrap();
    let v = db.current_version();
    v.check_invariants().unwrap();
    // With AF=10 and tiny tables the tree must reach level 2+.
    let deep: usize = (2..v.num_levels()).map(|l| v.level_file_count(l)).sum();
    assert!(
        deep > 0,
        "no files below level 1: {:?}",
        (0..7).map(|l| v.level_file_count(l)).collect::<Vec<_>>()
    );
    // Spot-check correctness after all that churn.
    for i in (0..30_000u64).step_by(997) {
        let (k, _) = kv(i);
        assert_eq!(
            db.get(&k).unwrap(),
            Some(vec![(i % 251) as u8; 48]),
            "key {i}"
        );
    }
}

#[test]
fn table_iterator_via_cache_matches_file_contents() {
    let mut db = open_db(16 << 10);
    let n = 3000u64;
    for i in 0..n {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    db.flush().unwrap();
    let version = db.current_version();
    // Walk every file through the table cache; keys must be sorted and
    // within the file's recorded bounds.
    let mut total = 0usize;
    for level in 0..version.num_levels() {
        for f in &version.files[level] {
            let table = get_table(db.ctx(), f.id, f.size).unwrap();
            let mut it = table.iter(db.ctx().clone(), IoKind::Scan);
            it.seek_to_first();
            let mut prev: Option<Vec<u8>> = None;
            while it.valid() {
                assert!(it.key() >= f.smallest.as_slice() || prev.is_none());
                if let Some(p) = &prev {
                    assert!(
                        lsm_core::types::internal_compare(p, it.key()) == std::cmp::Ordering::Less
                    );
                }
                prev = Some(it.key().to_vec());
                total += 1;
                it.next();
            }
            // Largest key matches the metadata.
            assert_eq!(prev.as_deref(), Some(f.largest.as_slice()));
        }
    }
    assert!(total >= n as usize, "all versions present across files");
}

#[test]
fn seek_positions_across_file_boundaries() {
    let mut db = open_db(8 << 10);
    for i in 0..5000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    db.flush().unwrap();
    // Scans starting at every 500th key see exactly the right successor.
    for start in (0..4500u64).step_by(500) {
        let got = db.scan(&kv(start).0, 3).unwrap();
        assert_eq!(got[0].0, kv(start).0);
        assert_eq!(got[1].0, kv(start + 1).0);
        assert_eq!(got[2].0, kv(start + 2).0);
    }
}

#[test]
fn block_cache_hit_rate_improves_repeat_scans() {
    let mut db = open_db(16 << 10);
    for i in 0..2000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    db.flush().unwrap();
    // Keep the scanned window inside the cache budget (2x sstable).
    db.scan(&kv(0).0, 150).unwrap();
    let (h1, m1) = {
        let g = db.ctx().lock();
        g.block_cache.hit_stats()
    };
    db.scan(&kv(0).0, 150).unwrap();
    let (h2, m2) = {
        let g = db.ctx().lock();
        g.block_cache.hit_stats()
    };
    assert!(h2 > h1, "second scan must hit the block cache");
    assert!(m2 - m1 < m1.max(1), "few new misses on the repeat scan");
}

#[test]
fn lookup_key_semantics_through_a_table_seek() {
    let mut db = open_db(16 << 10);
    db.put(b"alpha", b"1").unwrap();
    db.flush().unwrap();
    let version = db.current_version();
    let f = version.files[0][0].clone();
    let table = get_table(db.ctx(), f.id, f.size).unwrap();
    let mut it = table.iter(db.ctx().clone(), IoKind::Get);
    it.seek(&lookup_key(b"alpha", MAX_SEQUENCE));
    assert!(it.valid(), "present");
    assert_eq!(user_key(it.key()), b"alpha");
    assert_eq!(it.value(), b"1");
    it.seek(&lookup_key(b"zzz", MAX_SEQUENCE));
    assert!(!it.valid());
    assert!(it.take_error().is_none());
}
