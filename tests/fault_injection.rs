//! Fault-injection tests: the disk starts refusing writes mid-run (a
//! crash or dying drive); the store must surface the error and recover
//! to a consistent state containing everything previously made durable.

use sealdb::{StoreConfig, StoreKind};
use workloads::RecordGenerator;

fn arm_failure(store: &mut sealdb::Store, after_writes: u64) {
    store
        .db
        .ctx()
        .lock()
        .fs
        .disk_mut()
        .fail_writes_after(Some(after_writes));
}

fn disarm(store: &mut sealdb::Store) {
    store.db.ctx().lock().fs.disk_mut().fail_writes_after(None);
}

#[test]
fn crash_mid_load_recovers_consistently() {
    for kind in [StoreKind::SealDb, StoreKind::LevelDb] {
        let mut cfg = StoreConfig::new(kind, 16 << 10, 512 << 20);
        cfg.seed = 77;
        let mut store = cfg.build().unwrap();
        let gen = RecordGenerator::new(16, 256, 3);

        // Phase 1: durable prefix.
        for i in 0..4000u64 {
            store.put(&gen.key(i), &gen.value(i)).unwrap();
        }
        store.flush().unwrap();

        // Phase 2: writes with a bomb armed. Eventually a put fails.
        arm_failure(&mut store, 500);
        let mut failed_at = None;
        for i in 4000..20_000u64 {
            if store.put(&gen.key(i), &gen.value(i)).is_err() {
                failed_at = Some(i);
                break;
            }
        }
        let failed_at = failed_at.expect("injected failure must trigger");

        // "Reboot": clear the fault and recover.
        disarm(&mut store);
        let mut store = store.reopen().unwrap();

        // The durable prefix is fully intact.
        for i in (0..4000u64).step_by(173) {
            assert_eq!(
                store.get(&gen.key(i)).unwrap(),
                Some(gen.value(i)),
                "{}: durable key {i} lost",
                store.name()
            );
        }
        // Recovered keys from phase 2 (if any) must carry correct values —
        // never garbage.
        for i in 4000..failed_at {
            if let Some(v) = store.get(&gen.key(i)).unwrap() {
                assert_eq!(v, gen.value(i), "{}: corrupted key {i}", store.name());
            }
        }
        // And the store accepts writes again.
        store.put(b"post-crash", b"alive").unwrap();
        assert_eq!(store.get(b"post-crash").unwrap(), Some(b"alive".to_vec()));
    }
}

#[test]
fn repeated_crashes_never_corrupt() {
    let mut cfg = StoreConfig::new(StoreKind::SealDb, 16 << 10, 512 << 20);
    cfg.seed = 99;
    let mut store = cfg.build().unwrap();
    let gen = RecordGenerator::new(16, 128, 5);
    let mut highest_flushed;
    let mut next = 0u64;
    for round in 0..5 {
        // Write a chunk and make it durable.
        for i in next..next + 1500 {
            store.put(&gen.key(i), &gen.value(i)).unwrap();
        }
        next += 1500;
        store.flush().unwrap();
        highest_flushed = next;
        // Keep writing until an injected failure hits.
        arm_failure(&mut store, 200 + round * 97);
        for i in next..next + 5000 {
            if store.put(&gen.key(i), &gen.value(i)).is_err() {
                break;
            }
        }
        disarm(&mut store);
        store = store.reopen().unwrap();
        // Everything flushed so far survives every crash.
        for i in (0..highest_flushed).step_by(211) {
            assert_eq!(
                store.get(&gen.key(i)).unwrap(),
                Some(gen.value(i)),
                "round {round}: key {i}"
            );
        }
    }
}
