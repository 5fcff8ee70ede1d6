//! Cross-store correctness: all four systems are the *same database*
//! with different placement — so any operation sequence must produce
//! identical observable results on every store, and must agree with an
//! in-memory model (`BTreeMap`). Seeded xorshift generation instead of a
//! property-testing framework: no external crates, reproducible cases.

use lsm_core::cache::LruCache;
use lsm_core::util::rng::XorShift64;
use sealdb::{StoreConfig, StoreKind};
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    Scan(u16, u8),
}

fn random_ops(rng: &mut XorShift64) -> Vec<Op> {
    let count = 1 + rng.next_below(199) as usize;
    (0..count)
        .map(|_| {
            let k = rng.next_below(400) as u16;
            match rng.next_below(8) {
                0..=3 => Op::Put(k, rng.next_u64() as u8),
                4 => Op::Delete(k),
                5 | 6 => Op::Get(k),
                _ => Op::Scan(k, 1 + rng.next_below(19) as u8),
            }
        })
        .collect()
}

fn key(k: u16) -> Vec<u8> {
    format!("user{k:08}").into_bytes()
}

fn value(k: u16, v: u8) -> Vec<u8> {
    let mut out = vec![v; 120];
    out[..2].copy_from_slice(&k.to_le_bytes());
    out
}

#[test]
fn all_stores_agree_with_model() {
    agree_with_model(None);
}

/// Two table readers at a time: nearly every lookup finds the reader its
/// table was handed at build time already evicted and opens the table
/// from the device instead — the answers may not depend on which.
#[test]
fn all_stores_agree_with_model_when_readers_are_evicted() {
    let misses = agree_with_model(Some(2));
    assert!(misses > 0, "a two-entry table cache must evict");
}

/// Runs the seeded cases against every store (with the table cache cut to
/// `table_cache_entries` when given); returns the table-cache misses seen.
fn agree_with_model(table_cache_entries: Option<u64>) -> u64 {
    let mut rng = XorShift64::new(0x51035);
    let mut misses = 0;
    for _case in 0..24 {
        let ops = random_ops(&mut rng);
        // Tiny tables force flushes and compactions inside the test.
        let mut stores: Vec<_> = StoreKind::ALL
            .iter()
            .map(|&kind| {
                let store = StoreConfig::new(kind, 8 << 10, 256 << 20)
                    .build()
                    .expect("build");
                if let Some(entries) = table_cache_entries {
                    store.db.ctx().lock().table_cache = LruCache::new(entries);
                }
                store
            })
            .collect();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    let (kb, vb) = (key(*k), value(*k, *v));
                    for s in &mut stores {
                        s.put(&kb, &vb).expect("put");
                    }
                    model.insert(kb, vb);
                }
                Op::Delete(k) => {
                    let kb = key(*k);
                    for s in &mut stores {
                        s.delete(&kb).expect("delete");
                    }
                    model.remove(&kb);
                }
                Op::Get(k) => {
                    let kb = key(*k);
                    let expected = model.get(&kb).cloned();
                    for s in &mut stores {
                        let got = s.get(&kb).expect("get");
                        assert_eq!(&got, &expected, "{} get mismatch", s.name());
                    }
                }
                Op::Scan(k, n) => {
                    let kb = key(*k);
                    let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(kb.clone()..)
                        .take(*n as usize)
                        .map(|(a, b)| (a.clone(), b.clone()))
                        .collect();
                    for s in &mut stores {
                        let got = s.scan(&kb, *n as usize).expect("scan");
                        assert_eq!(&got, &expected, "{} scan mismatch", s.name());
                    }
                }
            }
        }
        // Final full sweep after quiescing compactions.
        for s in &mut stores {
            s.flush().expect("flush");
            let all = s.scan(b"", 1 << 20).expect("full scan");
            let expected: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
            assert_eq!(&all, &expected, "{} final state mismatch", s.name());
            misses += s.db.ctx().lock().table_cache.hit_stats().1;
        }
    }
    misses
}
