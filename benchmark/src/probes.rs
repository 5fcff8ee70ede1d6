//! Host-clock probes: fixed-input loops over leaf public functions of each
//! layer, run once per traced run. Each reports the median over batches of
//! the host nanoseconds one call (or one entry / KiB) takes. Inputs never
//! depend on the seed, so a probe moves only when the code under it does.

use crate::hostclock::Stopwatch;
use crate::ledger::Ledger;
use crate::surface::leaf::*;
use crate::surface::{zipf_next, RecordGenerator, Rng, ScrambledZipfian, SSTABLE_BYTES};
use std::hint::black_box;
use std::sync::Arc;

/// Timed batches per probe, after one untimed warm-up batch.
const BATCHES: usize = 5;

/// Median over batches of `batch()`'s timed nanoseconds divided by `units` (the
/// calls, entries or KiB one batch covers). The batch builds its own input
/// and returns only the time of the part being measured.
fn median_ns(units: u64, mut batch: impl FnMut() -> u64) -> f64 {
    batch();
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| batch() as f64 / units as f64)
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// Times `n` calls of `f(i)`, ns.
fn time_calls<T>(n: u64, mut f: impl FnMut(u64) -> T) -> u64 {
    let t = Stopwatch::start();
    for i in 0..n {
        black_box(f(i));
    }
    t.ns()
}

fn keys(n: u64) -> Vec<Vec<u8>> {
    let gen = RecordGenerator::new(16, 8, 1);
    (0..n).map(|i| gen.key(i)).collect()
}

fn internal_entries(
    n: u64,
    value_bytes: usize,
    stride: u64,
    offset: u64,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    let gen = RecordGenerator::new(16, value_bytes, 1);
    (0..n)
        .map(|i| {
            let j = i * stride + offset;
            (
                make_internal_key(&gen.key(j), 1, ValueType::Value),
                gen.value(j),
            )
        })
        .collect()
}

fn smr_sim(l: &mut Ledger) {
    const CAP: u64 = 1 << 30;
    let new_disk = || {
        Disk::new(
            CAP,
            Layout::RawHmSmr {
                guard_bytes: SSTABLE_BYTES,
            },
            TimeModel::smr_st5000as0011(CAP),
        )
    };
    let table = vec![0xA5u8; SSTABLE_BYTES as usize];
    l.set(
        "smr-sim.disk.write_ns",
        median_ns(32, || {
            let mut disk = new_disk();
            time_calls(32, |i| {
                disk.write(
                    Extent::new(i * SSTABLE_BYTES, SSTABLE_BYTES),
                    &table,
                    IoKind::Raw,
                )
            })
        }),
    );
    let mut disk = new_disk();
    for i in 0..64 {
        disk.write(
            Extent::new(i * SSTABLE_BYTES, SSTABLE_BYTES),
            &table,
            IoKind::Raw,
        )
        .expect("sequential append");
    }
    let blocks = 64 * SSTABLE_BYTES / 4096;
    l.set(
        "smr-sim.disk.read_ns",
        median_ns(4000, || {
            let mut rng = Rng::new(11);
            time_calls(4000, |_| {
                disk.read(
                    Extent::new(rng.next_below(blocks) * 4096, 4096),
                    IoKind::Raw,
                )
            })
        }),
    );
    l.set(
        "smr-sim.obs.counter_add_ns",
        median_ns(50_000, || {
            let mut obs = Obs::new();
            time_calls(50_000, |_| obs.counter_add(ObsLayer::Lsm, "flush_bytes", 1))
        }),
    );
    l.set(
        "smr-sim.obs.latency_ns",
        median_ns(50_000, || {
            let mut obs = Obs::new();
            time_calls(50_000, |i| {
                obs.latency(ObsLayer::Device, "read_ns", i * 977 % 20_000_000)
            })
        }),
    );
}

fn placement(l: &mut Ledger) {
    l.set(
        "placement.dynamicband.alloc_free_ns",
        median_ns(2000, || {
            let mut alloc = DynamicBandAlloc::new(1 << 34, SSTABLE_BYTES, SSTABLE_BYTES);
            let mut live = Vec::new();
            let mut rng = Rng::new(7);
            time_calls(2000, |_| {
                if live.len() > 20 && rng.one_in(2) {
                    let i = rng.next_below(live.len() as u64) as usize;
                    alloc.free(live.swap_remove(i));
                } else {
                    let size = (1 + rng.next_below(10)) * SSTABLE_BYTES;
                    live.push(alloc.allocate(size).expect("16 GiB never fills"));
                }
            })
        }),
    );
}

fn lsm_core(l: &mut Ledger) {
    let buf = vec![0xA5u8; 64 << 10];
    l.set(
        "lsm-core.crc32c.ns_per_kib",
        median_ns(200 * 64, || time_calls(200, |_| crc32c(black_box(&buf)))),
    );

    let ks = keys(10_000);
    let filter = BloomFilter::build(&ks, 10);
    l.set(
        "lsm-core.bloom.query_ns",
        median_ns(50_000, || {
            time_calls(50_000, |i| {
                filter.may_contain(&ks[(i * 7919 % 10_000) as usize])
            })
        }),
    );
    l.set(
        "lsm-core.bloom.build_ns_per_key",
        median_ns(5 * 10_000, || {
            time_calls(5, |_| BloomFilter::build(black_box(&ks), 10))
        }),
    );

    let value = vec![0x5Au8; 1024];
    let filled = |ks: &[Vec<u8>]| {
        let mut mem = MemTable::new(42);
        for (i, k) in ks.iter().enumerate() {
            mem.add(i as u64 + 1, ValueType::Value, k, &value);
        }
        mem
    };
    // Insertion order scattered over the key range, as a random load is.
    let scattered: Vec<Vec<u8>> = (0..4000u64)
        .map(|i| ks[(i * 2_654_435_761 % 10_000) as usize].clone())
        .collect();
    l.set(
        "lsm-core.memtable.add_ns",
        median_ns(4000, || {
            let mut mem = MemTable::new(42);
            time_calls(4000, |i| {
                mem.add(i + 1, ValueType::Value, &scattered[i as usize], &value)
            })
        }),
    );
    let mem = filled(&scattered);
    l.set(
        "lsm-core.memtable.get_ns",
        median_ns(20_000, || {
            time_calls(20_000, |i| {
                mem.get(&scattered[(i * 7919 % 4000) as usize], u64::MAX >> 8)
            })
        }),
    );

    let record = vec![0x5Au8; 1024 + 16 + 12];
    l.set(
        "lsm-core.wal.add_record_ns",
        median_ns(8000, || {
            let mut wal = LogWriter::new();
            time_calls(8000, |i| {
                wal.add_record(&record);
                // Drain as the engine does at its 64 KiB buffer.
                if i % 64 == 63 {
                    black_box(wal.take());
                }
            })
        }),
    );

    let small = internal_entries(6400, 100, 1, 0);
    l.set(
        "lsm-core.block.build_ns_per_entry",
        median_ns(6400, || {
            time_calls(200, |b| {
                let mut block = BlockBuilder::new(16);
                for (k, v) in &small[(b * 32) as usize..(b * 32 + 32) as usize] {
                    block.add(k, v);
                }
                block.finish()
            })
        }),
    );
    let mut builder = BlockBuilder::new(16);
    for (k, v) in &small[..32] {
        builder.add(k, v);
    }
    let block = Arc::new(Block::new(builder.finish()).expect("well-formed block"));
    l.set(
        "lsm-core.block.seek_ns",
        median_ns(50_000, || {
            let mut it = block.iter();
            time_calls(50_000, |i| {
                it.seek(&small[(i * 13 % 32) as usize].0);
                it.valid()
            })
        }),
    );

    // The engine's table options: 4 KiB blocks, restart 16, no bloom filter.
    let options = || TableOptions {
        block_size: 4096,
        restart_interval: 16,
        bloom_bits_per_key: 0,
    };
    let build = |entries: &[(Vec<u8>, Vec<u8>)]| {
        let mut t = TableBuilder::new(options());
        for (k, v) in entries {
            t.add(k, v);
        }
        t.finish()
    };
    l.set(
        "lsm-core.table.build_ns_per_entry",
        median_ns(6400, || time_calls(1, |_| build(&small))),
    );
    let data = build(&small);
    l.set(
        "lsm-core.table.scan_ns_per_entry",
        median_ns(6400, || time_calls(1, |_| scan_all(black_box(&data)))),
    );

    let cached = Arc::new(vec![0u8; 4096]);
    l.set(
        "lsm-core.cache.get_hit_ns",
        median_ns(50_000, || {
            let mut cache: LruCache<(u64, u64), Vec<u8>> = LruCache::new(512 << 10);
            for i in 0..128 {
                cache.insert((1, i * 4096), Arc::clone(&cached), 4096);
            }
            time_calls(50_000, |i| cache.get(&(1, i * 37 % 128 * 4096)))
        }),
    );
    l.set(
        "lsm-core.cache.insert_evict_ns",
        median_ns(20_000, || {
            let mut cache: LruCache<(u64, u64), Vec<u8>> = LruCache::new(512 << 10);
            for i in 0..128 {
                cache.insert((1, i * 4096), Arc::clone(&cached), 4096);
            }
            time_calls(20_000, |i| {
                cache.insert((2, i * 4096), Arc::clone(&cached), 4096)
            })
        }),
    );

    // Four sorted runs with interleaved keys, as a compaction or scan merges.
    let runs: Vec<Vec<(Vec<u8>, Vec<u8>)>> =
        (0..4).map(|r| internal_entries(2500, 100, 4, r)).collect();
    l.set(
        "lsm-core.merge.next_ns_per_entry",
        median_ns(10_000, || {
            let children: Vec<Box<dyn InternalIterator>> = runs
                .iter()
                .map(|r| Box::new(VecIterator::new(r.clone())) as Box<dyn InternalIterator>)
                .collect();
            let mut merged = MergingIterator::new(children);
            let t = Stopwatch::start();
            merged.seek_to_first();
            let mut n = 0u64;
            while merged.valid() {
                n += merged.key().len() as u64;
                merged.next();
            }
            black_box(n);
            t.ns()
        }),
    );

    l.set(
        "lsm-core.batch.put_ns",
        median_ns(20_000, || {
            time_calls(20_000, |i| {
                let mut b = WriteBatch::new();
                b.put(&ks[(i % 10_000) as usize], &value);
                b
            })
        }),
    );
}

fn routing_and_generation(l: &mut Ledger) {
    let ks = keys(10_000);
    let mut ring = HashRing::new(64);
    for shard in 0..8 {
        ring.add_shard(shard);
    }
    l.set(
        "seal-shard.route_ns",
        median_ns(50_000, || {
            time_calls(50_000, |i| ring.route(&ks[(i % 10_000) as usize]))
        }),
    );
    let gen = RecordGenerator::new(16, 1024, 1);
    l.set(
        "workloads.key_ns",
        median_ns(50_000, || time_calls(50_000, |i| gen.key(i))),
    );
    l.set(
        "workloads.value_ns",
        median_ns(20_000, || time_calls(20_000, |i| gen.value(i))),
    );
    l.set(
        "workloads.zipfian_next_ns",
        median_ns(50_000, || {
            let mut z = ScrambledZipfian::new(100_000);
            let mut rng = Rng::new(9);
            time_calls(50_000, |_| zipf_next(&mut z, &mut rng, 100_000))
        }),
    );
}

/// Runs every probe and writes its row.
pub fn run(ledger: &mut Ledger) {
    smr_sim(ledger);
    placement(ledger);
    lsm_core(ledger);
    routing_and_generation(ledger);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PER_LAYER;

    #[test]
    fn every_ns_probe_row_is_measured() {
        let mut l = Ledger::default();
        run(&mut l);
        // Rows that are probes: host `ns` rows outside the span-derived ones.
        let probes = PER_LAYER.iter().filter(|m| {
            m.unit == "ns"
                && !m.name.contains(".host_")
                && !m.name.ends_with("host_ns_per_device_io")
                && !m.name.ends_with("host_ns_per_op")
        });
        let mut n = 0;
        for m in probes {
            assert!(l.get(m.name) > 0.0, "{} not measured", m.name);
            n += 1;
        }
        assert_eq!(n, 23);
    }
}
