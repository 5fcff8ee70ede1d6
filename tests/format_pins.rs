//! On-disk format pins: FNV-1a fingerprints of the bytes the engine
//! writes for fixed inputs. Host-side refactors (buffer ownership, CRC
//! kernels, allocation reuse) must leave every one of these untouched —
//! a moved constant means the *format* or the *simulated behaviour*
//! changed, which is never a host-only change. Constants recorded at the
//! commit before the checksum-once / copy-once block pipeline landed; a
//! change that moves simulated behaviour on purpose re-records only the
//! metrics pin and says why next to it.

use lsm_core::sstable::{TableBuilder, TableOptions};
use lsm_core::types::{make_internal_key, ValueType};
use lsm_core::util::rng::XorShift64;
use lsm_core::LogWriter;
use sealdb::{Store, StoreConfig, StoreKind, ValueLog, VlogParams};
use smr_sim::Extent;
use workloads::{OpStream, WorkloadSpec, YcsbOp};

fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 1 000 entries, keys sharing a prefix (so prefix compression and the
/// index separators both do work), values of varying length.
fn table_bytes(bloom_bits_per_key: usize) -> Vec<u8> {
    let mut rng = XorShift64::new(0x7ab1e);
    let mut b = TableBuilder::new(TableOptions {
        block_size: 4096,
        restart_interval: 16,
        bloom_bits_per_key,
    });
    for i in 0..1000u64 {
        let key = format!("user{:012}", i * 7919);
        let mut value = vec![0u8; 20 + rng.next_below(200) as usize];
        for byte in value.iter_mut() {
            *byte = rng.next_u64() as u8;
        }
        b.add(
            &make_internal_key(key.as_bytes(), 1000 - i, ValueType::Value),
            &value,
        );
    }
    b.finish()
}

#[test]
fn table_builder_bytes_are_pinned() {
    let plain = table_bytes(0);
    assert_eq!(
        (plain.len(), fnv1a(&plain)),
        (142_160, 0xb383_6c91_9529_e22d)
    );
    let bloomed = table_bytes(10);
    assert_eq!(
        (bloomed.len(), fnv1a(&bloomed)),
        (143_416, 0xc2d3_6bc8_40aa_487f)
    );
}

#[test]
fn log_writer_stream_is_pinned() {
    let mut rng = XorShift64::new(0x106);
    let mut w = LogWriter::new();
    // Lengths from 0 to ~40 KiB: FULL records, block-tail padding and
    // FIRST/MIDDLE/LAST chains all occur.
    for i in 0..100u64 {
        let len = match i % 10 {
            0 => 0,
            9 => 33_000 + rng.next_below(8000) as usize,
            _ => rng.next_below(3000) as usize,
        };
        let record: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        w.add_record(&record);
    }
    let stream = w.take();
    assert_eq!(
        (stream.len(), fnv1a(&stream)),
        (487_820, 0x4a65_fa69_4037_8f29)
    );
}

#[test]
fn store_metrics_after_fixed_run_are_pinned() {
    // 16 KiB tables: 2 000 puts of ~270 B flush 40 times and compact
    // through two levels, so WAL, flush, compaction read/write, table
    // open, block-cache hits and misses and dynamic-band placement all
    // leave their counters in the snapshot.
    let mut store = StoreConfig::new(StoreKind::SealDb, 16 << 10, 256 << 20)
        .build()
        .expect("store builds");
    let mut rng = XorShift64::new(0x5ea1);
    for _ in 0..2000 {
        let key = format!("user{:010}", rng.next_below(1_000_000));
        let value = vec![rng.next_u64() as u8; 256];
        store.put(key.as_bytes(), &value).expect("put");
    }
    for k in 0..200u64 {
        let key = format!("user{:010}", k * 4999);
        store.get(key.as_bytes()).expect("get");
    }
    let json = store.metrics_snapshot().to_json(0);
    // Re-recorded for level-0 runs: each run of flushes is chained
    // back-to-back, so every L0→L1 merge reads its victims in one device
    // read. The snapshot gained `lsm.compaction.run_read_bytes` (556 257,
    // all 40 flushes' bytes); `input_runs` fell 73 → 44, the clock
    // 1.326 → 0.856 s, flush time 250 → 82 ms and compaction time
    // 679 → 371 ms; one band append became a band allocate.
    // Earlier re-recordings: the segmented block cache gained the
    // `cache.block_promotions` and `cache.block_purged` gauges and moved
    // the gets' block hits, 241 → 197 of 374 lookups (the budget here is
    // 8 blocks, so probation holds under 2, and these strided gets
    // revisit a block a few blocks later: the distance SLRU gives up,
    // DESIGN.md §5, "Segmented block cache"); set-run streaming gained
    // `lsm.compaction.input_runs` and `lsm.compaction.bridged_bytes`;
    // and the build-time table handoff. The two format pins above did
    // not move.
    assert_eq!(
        (json.len(), fnv1a(json.as_bytes())),
        (2323, 0xdcb2_ceb1_8786_e2fa),
        "metrics snapshot moved"
    );
}

/// The value log's segment directory as the manifest carries it
/// (checkpoint version 2: one active slot, a sealed bit per segment) for
/// a fixed three-segment log — two sealed bands and the open head.
#[test]
fn vlog_checkpoint_blob_is_pinned() {
    let params = VlogParams {
        segment_bytes: 32 << 10,
        value_threshold: 64,
    };
    let mut store = StoreConfig::new(StoreKind::SealDb, 16 << 10, 256 << 20)
        .with_vlog(params)
        .build()
        .expect("store builds");
    // 1 026-byte records, 31 to a segment: 70 of them open a third.
    for i in 0..70u8 {
        let key = format!("user{i:010}");
        store.put(key.as_bytes(), &[i; 1000]).expect("put");
    }
    let blob = store.vlog.as_ref().expect("vlog on").checkpoint();
    assert_eq!(
        (blob.len(), fnv1a(&blob)),
        (34, 0xcfa4_073c_8b4f_c405),
        "{blob:?}"
    );
    let mut recover = |blob: &[u8]| {
        let mut log = ValueLog::new(params);
        store
            .db
            .with_fs_and_policy(|fs, policy| log.recover(fs, policy, Some(blob)))
    };
    assert_eq!(recover(&blob).expect("version 2").segments_recovered, 3);
    // A version-1 blob (two active slots, a hot flag) is an unknown
    // version like any other: no store outlives a process, so nothing
    // was ever written that needs migrating.
    let mut v1 = blob.clone();
    v1[0] = 1;
    let err = recover(&v1).expect_err("version 1 rejected").to_string();
    assert!(
        err.contains("unknown value-log checkpoint version"),
        "{err}"
    );
}

/// The manifest around a scrub rebuild of a level-0 table, by length:
/// two flushes of 50 keys each (the second overwrites the first), then
/// a one-bit fault in the older table, which scrub rebuilds. Before the
/// rebuild the manifest holds no order key (a new table's key is its
/// id, and only a differing key is written), so its length is the one
/// the engine wrote before order keys existed. The rebuild's edit adds
/// one `TAG_FILE_ORDER` (tag byte 8 and a one-byte varint key) to the
/// 182 bytes it wrote then.
#[test]
fn manifest_around_a_level0_rebuild_is_pinned() {
    let mut store = StoreConfig::new(StoreKind::LevelDb, 64 << 10, 256 << 20)
        .build()
        .expect("store builds");
    for value in [b"v1", b"v2"] {
        for i in 0..50 {
            store
                .put(format!("key{i:04}").as_bytes(), value)
                .expect("put");
        }
        store.flush().expect("flush");
    }
    // Log 1 is the manifest.
    let manifest_len = |store: &Store| store.db.ctx().lock().fs.log_len(1).expect("manifest");
    assert_eq!(manifest_len(&store), 128);
    let older = store.db.current_version().files[0][1].id;
    let ext = store.db.ctx().lock().fs.file_extent(older).expect("extent");
    store
        .db
        .ctx()
        .lock()
        .fs
        .disk_mut()
        .faults_mut()
        .corrupt_extent(Extent::new(ext.offset + 100, 16));
    let report = store.scrub_full(8 << 20).expect("scrub");
    assert_eq!(report.files_repaired, 1);
    assert_eq!(manifest_len(&store), 182 + 2);
}

/// The YCSB op stream every driver iterates: the first 10 000 operations
/// of each shipped workload over a 10 000-record keyspace, folded as
/// (kind, record index, scan length). Constants recorded from the serve
/// loop's private `OpDraw` at the commit before `OpStream` replaced it
/// (updates and inserts were both a one-put batch there, so they share a
/// tag here).
#[test]
fn ycsb_op_stream_is_pinned() {
    let mut specs = WorkloadSpec::all();
    specs.push(WorkloadSpec::serve_mix());
    let pins: [(u64, [u64; 7]); 2] = [
        (
            0x5EA1_F007,
            [
                0x7253_3ac5_9a3f_e9dd,
                0x3c40_8774_84a2_c71e,
                0x7e54_988c_d81e_2908,
                0x4f46_58e4_318f_56e7,
                0x72a1_55d0_6030_28eb,
                0x85cb_52e8_ac8a_d77f,
                0xaba2_ead8_1ac0_527c,
            ],
        ),
        (
            42,
            [
                0xf7ea_5caa_cdc4_7ff6,
                0x4f2d_ebcb_c84b_acf4,
                0x5898_d3fc_52b3_00fa,
                0xc8f7_0360_9067_97a8,
                0xe5c0_0361_c923_5c5c,
                0xccae_285f_e06b_418e,
                0xa048_dfa7_9284_768d,
            ],
        ),
    ];
    for (seed, hashes) in pins {
        for (spec, pin) in specs.iter().zip(hashes) {
            let mut bytes = Vec::with_capacity(10_000 * 17);
            for op in OpStream::new(spec, 10_000, seed).take(10_000) {
                let (tag, i, len) = match op {
                    YcsbOp::Read(i) => (0u8, i, 0),
                    YcsbOp::Update(i) | YcsbOp::Insert(i) => (1, i, 0),
                    YcsbOp::Scan(i, len) => (2, i, len as u64),
                    YcsbOp::Rmw(i) => (3, i, 0),
                };
                bytes.push(tag);
                bytes.extend_from_slice(&i.to_le_bytes());
                bytes.extend_from_slice(&len.to_le_bytes());
            }
            assert_eq!(
                fnv1a(&bytes),
                pin,
                "workload {} seed {seed:#x}: op stream moved",
                spec.name
            );
        }
    }
}
