//! Crash-point sweep: deterministic torn-write and power-cut injection
//! across many seeded crash points, for both the set-aware store and the
//! LevelDB baseline. Every reopen must recover the durable prefix with
//! zero corrupted values, regardless of where the fault landed (WAL
//! append, SSTable placement, manifest commit, compaction output).

use sealdb::{Store, StoreConfig, StoreKind};
use std::collections::BTreeMap;
use workloads::RecordGenerator;

const KINDS: [StoreKind; 2] = [StoreKind::SealDb, StoreKind::LevelDb];

fn build(kind: StoreKind, seed: u64) -> Store {
    let mut cfg = StoreConfig::new(kind, 16 << 10, 512 << 20);
    cfg.seed = seed;
    cfg.build().unwrap()
}

fn fault_stats(store: &Store) -> smr_sim::FaultStats {
    store.db.ctx().lock().fs.disk().stats().faults
}

/// Torn-write sweep: arm a torn write `n` successful disk writes into a
/// churn phase, for a spread of `n` values chosen to land the tear on
/// every kind of write the engine issues (WAL chunks, flush tables,
/// compaction outputs, manifest records). 15 points x 2 stores = 30
/// seeded crash points.
#[test]
fn torn_write_sweep_recovers_durable_prefix() {
    const PREFIX: u64 = 2000;
    const POINTS: [u64; 15] = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610];
    for kind in KINDS {
        for (pt, &tear_after) in POINTS.iter().enumerate() {
            let mut store = build(kind, 0xC4A5 + pt as u64);
            let gen = RecordGenerator::new(16, 128, 3);

            // Durable prefix: written, flushed, manifest-committed.
            for i in 0..PREFIX {
                store.put(&gen.key(i), &gen.value(i)).unwrap();
            }
            store.flush().unwrap();

            // Churn with the tear armed until the device dies mid-write.
            store
                .db
                .ctx()
                .lock()
                .fs
                .disk_mut()
                .faults_mut()
                .tear_write_after(tear_after);
            let mut last_attempted = PREFIX;
            for i in PREFIX..PREFIX + 40_000 {
                last_attempted = i;
                if store.put(&gen.key(i), &gen.value(i)).is_err() {
                    break;
                }
            }
            assert_eq!(
                fault_stats(&store).torn_writes,
                1,
                "{} point {pt}: tear after {tear_after} writes must fire exactly once",
                store.name()
            );

            // Power restored; reboot.
            store
                .db
                .ctx()
                .lock()
                .fs
                .disk_mut()
                .faults_mut()
                .disarm_torn_writes();
            let mut store = store.reopen().unwrap();

            // The durable prefix survives in full, byte-exact.
            for i in (0..PREFIX).step_by(89) {
                assert_eq!(
                    store.get(&gen.key(i)).unwrap(),
                    Some(gen.value(i)),
                    "{} point {pt} (tear after {tear_after}): durable key {i} lost",
                    store.name()
                );
            }
            // Churn-phase keys may or may not have survived, but a
            // surviving key must carry its exact value — never garbage
            // from the torn extent.
            for i in PREFIX..=last_attempted {
                if let Some(v) = store.get(&gen.key(i)).unwrap() {
                    assert_eq!(
                        v,
                        gen.value(i),
                        "{} point {pt}: corrupted value for key {i}",
                        store.name()
                    );
                }
            }
            // The store takes writes again after recovery.
            store.put(b"post-crash", b"alive").unwrap();
            assert_eq!(store.get(b"post-crash").unwrap(), Some(b"alive".to_vec()));
        }
    }
}

/// Power-cut sweep: capture a copy-on-write crash image at every 20th
/// disk write during a flush-punctuated load, then "cut power" at a
/// sample of those boundaries and reopen. Each restore must bring back
/// every key flushed before the image's write index, with zero corrupted
/// values anywhere. >= 13 images x 2 stores = >= 26 crash points.
#[test]
fn power_cut_snapshot_sweep_recovers_every_boundary() {
    const ROUND: u64 = 700;
    const ROUNDS: u64 = 6;
    const MIN_IMAGES: usize = 13;
    for kind in KINDS {
        let mut store = build(kind, 0x9E37);
        let gen = RecordGenerator::new(16, 128, 7);
        let expected: BTreeMap<Vec<u8>, Vec<u8>> = (0..ROUNDS * ROUND)
            .map(|i| (gen.key(i), gen.value(i)))
            .collect();
        store
            .db
            .ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .snapshot_every(5);

        // Flush-punctuated load; record each durability boundary as
        // (disk write index, keys durable by then).
        let mut boundaries: Vec<(u64, u64)> = Vec::new();
        for r in 0..ROUNDS {
            for i in r * ROUND..(r + 1) * ROUND {
                store.put(&gen.key(i), &gen.value(i)).unwrap();
            }
            store.flush().unwrap();
            let widx = store.db.ctx().lock().fs.disk().writes_issued();
            boundaries.push((widx, (r + 1) * ROUND));
        }
        store
            .db
            .ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .disable_snapshots();
        let images = {
            let mut guard = store.db.ctx().lock();
            guard.fs.take_crash_images()
        };
        assert!(
            images.len() >= MIN_IMAGES,
            "{}: expected a rich image set, got {}",
            store.name(),
            images.len()
        );

        let stride = (images.len() / MIN_IMAGES).max(1);
        let mut tested = 0usize;
        for img in images.iter().step_by(stride) {
            store = store.restore_crash_image(img).unwrap();
            tested += 1;
            let durable = boundaries
                .iter()
                .filter(|&&(w, _)| w <= img.write_index())
                .map(|&(_, n)| n)
                .max()
                .unwrap_or(0);

            // Everything flushed before the cut survives, byte-exact.
            for i in (0..durable).step_by(61) {
                assert_eq!(
                    store.get(&gen.key(i)).unwrap(),
                    Some(gen.value(i)),
                    "{} cut at write {}: durable key {i} lost",
                    store.name(),
                    img.write_index()
                );
            }
            // No key anywhere reads back corrupted.
            for i in (0..ROUNDS * ROUND).step_by(101) {
                if let Some(v) = store.get(&gen.key(i)).unwrap() {
                    assert_eq!(
                        v,
                        gen.value(i),
                        "{} cut at write {}: corrupted key {i}",
                        store.name(),
                        img.write_index()
                    );
                }
            }
            // Scans stay consistent too.
            for (k, v) in store.scan(&gen.key(0), 64).unwrap() {
                if k.as_slice() == b"post-cut" {
                    continue;
                }
                assert_eq!(
                    expected.get(&k),
                    Some(&v),
                    "{} cut at write {}: scan surfaced a corrupt pair",
                    store.name(),
                    img.write_index()
                );
            }
            // And the rebooted store accepts writes.
            store.put(b"post-cut", b"alive").unwrap();
            assert_eq!(store.get(b"post-cut").unwrap(), Some(b"alive".to_vec()));
        }
        assert!(
            tested >= MIN_IMAGES,
            "{}: swept only {tested} power-cut points",
            store.name()
        );
    }
}

/// Torn writes and power cuts combined: tear a write, reboot, keep
/// loading, and power-cut from an image captured *after* the first
/// recovery. Recovery must compose.
#[test]
fn torn_write_then_power_cut_compose() {
    let mut store = build(StoreKind::SealDb, 0xDEAD);
    let gen = RecordGenerator::new(16, 128, 11);
    for i in 0..1500u64 {
        store.put(&gen.key(i), &gen.value(i)).unwrap();
    }
    store.flush().unwrap();

    // First fault: torn write mid-churn.
    store
        .db
        .ctx()
        .lock()
        .fs
        .disk_mut()
        .faults_mut()
        .tear_write_after(40);
    for i in 1500..8000u64 {
        if store.put(&gen.key(i), &gen.value(i)).is_err() {
            break;
        }
    }
    store
        .db
        .ctx()
        .lock()
        .fs
        .disk_mut()
        .faults_mut()
        .disarm_torn_writes();
    let mut store = store.reopen().unwrap();

    // Second phase with auto-snapshots on.
    store
        .db
        .ctx()
        .lock()
        .fs
        .disk_mut()
        .faults_mut()
        .snapshot_every(15);
    for i in 8000..9500u64 {
        store.put(&gen.key(i), &gen.value(i)).unwrap();
    }
    store.flush().unwrap();
    let widx = store.db.ctx().lock().fs.disk().writes_issued();
    let images = {
        let mut guard = store.db.ctx().lock();
        guard.fs.disk_mut().faults_mut().disable_snapshots();
        guard.fs.take_crash_images()
    };
    assert!(!images.is_empty());

    // Cut power at the last image at or before the final flush boundary.
    let img = images
        .iter()
        .rev()
        .find(|img| img.write_index() <= widx)
        .expect("an image precedes the boundary");
    let mut store = store.restore_crash_image(img).unwrap();
    for i in (0..1500u64).step_by(97) {
        assert_eq!(
            store.get(&gen.key(i)).unwrap(),
            Some(gen.value(i)),
            "phase-1 durable key {i} lost after composed faults"
        );
    }
    for i in (1500..9500u64).step_by(113) {
        if let Some(v) = store.get(&gen.key(i)).unwrap() {
            assert_eq!(v, gen.value(i), "corrupted key {i} after composed faults");
        }
    }
    store.put(b"end", b"ok").unwrap();
    assert_eq!(store.get(b"end").unwrap(), Some(b"ok".to_vec()));
}
