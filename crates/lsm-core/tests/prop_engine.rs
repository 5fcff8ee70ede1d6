//! Randomized tests for the LSM engine's components and the full DbCore
//! against an in-memory model. Seeded xorshift generation instead of a
//! property-testing framework: no external crates, reproducible cases.

use lsm_core::db::{options::Options, DbCore};
use lsm_core::iterator::InternalIterator;
use lsm_core::memtable::MemTable;
use lsm_core::policy::PerFilePolicy;
use lsm_core::sstable::{scan_all, TableBuilder, TableOptions};
use lsm_core::types::{internal_compare, make_internal_key, user_key, ValueType};
use lsm_core::util::rng::XorShift64;
use lsm_core::wal::{LogReader, LogWriter};
use placement::Ext4Sim;
use smr_sim::{Disk, Layout, TimeModel};
use std::collections::{BTreeMap, BTreeSet};

/// Memtable get/iterate agrees with a BTreeMap of the newest version
/// of each key.
#[test]
fn memtable_matches_model() {
    let mut rng = XorShift64::new(0x3E3);
    for _case in 0..32 {
        let count = 1 + rng.next_below(299) as usize;
        let entries: Vec<(u32, u8, bool)> = (0..count)
            .map(|_| {
                (
                    rng.next_below(100) as u32,
                    rng.next_u64() as u8,
                    rng.one_in(2),
                )
            })
            .collect();
        let mut mem = MemTable::new(7);
        let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for (seq, (k, v, del)) in entries.iter().enumerate() {
            let key = format!("k{k:04}").into_bytes();
            if *del {
                mem.add(seq as u64 + 1, ValueType::Deletion, &key, b"");
                model.insert(key, None);
            } else {
                let val = vec![*v; 10];
                mem.add(seq as u64 + 1, ValueType::Value, &key, &val);
                model.insert(key, Some(val));
            }
        }
        for k in 0..100u32 {
            let key = format!("k{k:04}").into_bytes();
            let got = mem.get(&key, u64::MAX >> 8);
            match model.get(&key) {
                None => assert_eq!(got, None),
                Some(None) => assert_eq!(got, Some(None)),
                Some(Some(v)) => assert_eq!(got, Some(Some(v.clone()))),
            }
        }
        // Iteration yields sorted internal keys covering every write.
        let mut it = mem.iter();
        it.seek_to_first();
        let mut count = 0;
        let mut prev: Option<Vec<u8>> = None;
        while it.valid() {
            if let Some(p) = &prev {
                assert_eq!(internal_compare(p, it.key()), std::cmp::Ordering::Less);
            }
            prev = Some(it.key().to_vec());
            count += 1;
            it.next();
        }
        assert_eq!(count, entries.len());
    }
}

/// SSTable build -> scan_all round-trips arbitrary sorted entries.
#[test]
fn table_roundtrip() {
    let mut rng = XorShift64::new(0x7AB1E);
    for _case in 0..32 {
        let mut keys: BTreeSet<Vec<u8>> = BTreeSet::new();
        let want = 1 + rng.next_below(199) as usize;
        while keys.len() < want {
            let len = 1 + rng.next_below(12) as usize;
            let k: Vec<u8> = (0..len)
                .map(|_| b'a' + (rng.next_below(26) as u8))
                .collect();
            keys.insert(k);
        }
        let vlen = rng.next_below(300) as usize;
        let entries: Vec<(Vec<u8>, Vec<u8>)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                (
                    make_internal_key(k, i as u64 + 1, ValueType::Value),
                    vec![(i % 251) as u8; vlen],
                )
            })
            .collect();
        let mut b = TableBuilder::new(TableOptions {
            block_size: 256,
            ..Default::default()
        });
        for (k, v) in &entries {
            b.add(k, v);
        }
        let data = b.finish();
        let back = scan_all(&data).unwrap();
        assert_eq!(back, entries);
    }
}

/// WAL round-trips arbitrary record sequences, including empty and
/// block-spanning records.
#[test]
fn wal_roundtrip() {
    let mut rng = XorShift64::new(0x4A1);
    for _case in 0..32 {
        let count = rng.next_below(30) as usize;
        let records: Vec<Vec<u8>> = (0..count)
            .map(|_| {
                let len = rng.next_below(5000) as usize;
                (0..len).map(|_| rng.next_u64() as u8).collect()
            })
            .collect();
        let mut w = LogWriter::new();
        for r in &records {
            w.add_record(r);
        }
        let bytes = w.take();
        let mut reader = LogReader::new(&bytes);
        let back: Vec<Vec<u8>> = std::iter::from_fn(|| reader.next_record())
            .map(|rec| rec.expect("intact record"))
            .collect();
        assert_eq!(back, records);
    }
}

/// Full engine vs BTreeMap under random put/delete/get sequences with
/// tiny tables (so flushes and compactions happen inside the test).
#[test]
fn dbcore_matches_model() {
    let mut rng = XorShift64::new(0xDBC0);
    for _case in 0..32 {
        let count = 1 + rng.next_below(249) as usize;
        let ops: Vec<(u32, u8, u8)> = (0..count)
            .map(|_| {
                (
                    rng.next_below(150) as u32,
                    rng.next_u64() as u8,
                    rng.next_below(10) as u8,
                )
            })
            .collect();
        let cap: u64 = 512 << 20;
        let disk = Disk::new(cap, Layout::Hdd, TimeModel::hdd_st1000dm003(cap));
        let mut opts = Options::scaled(4 << 10);
        opts.wal_buffer_bytes = 0;
        let alloc = Ext4Sim::new(cap - opts.log_zone_bytes(), 1 << 20);
        let mut db =
            DbCore::open(disk, opts, Box::new(PerFilePolicy::new(Box::new(alloc)))).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (k, v, action) in &ops {
            let key = format!("key{k:05}").into_bytes();
            if *action == 0 {
                db.delete(&key).unwrap();
                model.remove(&key);
            } else {
                let val = vec![*v; 40];
                db.put(&key, &val).unwrap();
                model.insert(key, val);
            }
        }
        for k in 0..150u32 {
            let key = format!("key{k:05}").into_bytes();
            assert_eq!(db.get(&key).unwrap(), model.get(&key).cloned());
        }
        let scanned = db.scan(b"", 10_000).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(scanned, expected);
    }
}

/// Internal-key ordering is a strict total order consistent with
/// (user key asc, seq desc).
#[test]
fn internal_key_order_laws() {
    let mut rng = XorShift64::new(0x0DE);
    let word = |rng: &mut XorShift64| {
        let len = 1 + rng.next_below(4) as usize;
        (0..len)
            .map(|_| b'a' + (rng.next_below(3) as u8))
            .collect::<Vec<u8>>()
    };
    for _case in 0..256 {
        let a = word(&mut rng);
        let b = word(&mut rng);
        let sa = rng.next_below(100);
        let sb = rng.next_below(100);
        let ka = make_internal_key(&a, sa, ValueType::Value);
        let kb = make_internal_key(&b, sb, ValueType::Value);
        let ord = internal_compare(&ka, &kb);
        match a.cmp(&b) {
            std::cmp::Ordering::Less => assert_eq!(ord, std::cmp::Ordering::Less),
            std::cmp::Ordering::Greater => assert_eq!(ord, std::cmp::Ordering::Greater),
            std::cmp::Ordering::Equal => {
                // Same user key: higher sequence sorts first.
                assert_eq!(ord, sb.cmp(&sa));
                assert_eq!(user_key(&ka), user_key(&kb));
            }
        }
        // Antisymmetry.
        assert_eq!(internal_compare(&kb, &ka), ord.reverse());
    }
}

/// Robustness: a WAL with one corrupted byte never panics the reader
/// and every record it does return was genuinely written.
#[test]
fn wal_reader_survives_single_byte_corruption() {
    let mut rng = XorShift64::new(0x3A1);
    for _case in 0..48 {
        let count = 1 + rng.next_below(19) as usize;
        let records: Vec<Vec<u8>> = (0..count)
            .map(|_| {
                let len = 1 + rng.next_below(599) as usize;
                (0..len).map(|_| rng.next_u64() as u8).collect()
            })
            .collect();
        let mut w = LogWriter::new();
        for r in &records {
            w.add_record(r);
        }
        let mut bytes = w.take();
        let pos = rng.next_below(bytes.len() as u64) as usize;
        let flip_bit = rng.next_below(8) as u8;
        bytes[pos] ^= 1 << flip_bit;
        let mut reader = LogReader::new(&bytes);
        let mut recovered = Vec::new();
        while let Some(rec) = reader.next_record() {
            if let Ok(r) = rec {
                recovered.push(r);
            }
        }
        // Every recovered record is one of the originals, in order.
        let mut idx = 0;
        for r in &recovered {
            let found = records[idx..].iter().position(|orig| orig == r);
            assert!(
                found.is_some(),
                "reader fabricated a record (flip at {pos} bit {flip_bit})"
            );
            idx += found.expect("checked") + 1;
        }
    }
}

/// Robustness: a table with one corrupted byte either still parses to
/// the original entries or reports corruption — never wrong data.
#[test]
fn table_reader_survives_single_byte_corruption() {
    let mut rng = XorShift64::new(0x7AB2);
    for _case in 0..48 {
        let n = 1 + rng.next_below(99) as usize;
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
            .map(|i| {
                (
                    make_internal_key(
                        format!("k{i:05}").as_bytes(),
                        i as u64 + 1,
                        ValueType::Value,
                    ),
                    vec![i as u8; 20],
                )
            })
            .collect();
        let mut b = TableBuilder::new(TableOptions {
            block_size: 128,
            ..Default::default()
        });
        for (k, v) in &entries {
            b.add(k, v);
        }
        let mut data = b.finish();
        let pos = rng.next_below(data.len() as u64) as usize;
        data[pos] ^= 0xFF;
        match scan_all(&data) {
            Err(_) => {} // corruption detected: fine
            Ok(back) => assert_eq!(back, entries, "undetected corruption changed data"),
        }
    }
}
