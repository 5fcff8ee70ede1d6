//! Value-log crash-point sweeps: seeded kills during vlog appends,
//! during GC relocation, and on the boundary between pointer fixup and
//! segment recycle. The invariants: no acked (flushed) value is ever
//! lost, no surviving key ever reads back garbage, and no stale pointer
//! survives a reopen — a GC crash must never change what any key reads,
//! and post-recovery GC (which re-verifies liveness through the LSM,
//! since the in-memory dead accounting died with the process) must not
//! resurrect overwritten values.

use sealdb::{Store, StoreConfig, StoreKind, VlogParams};
use smr_sim::{IoKind, TraceDir};
use workloads::RecordGenerator;

const KEYS: u64 = 600;

fn vlog_store(seed: u64) -> Store {
    let mut cfg = StoreConfig::new(StoreKind::SealDb, 16 << 10, 512 << 20).with_vlog(VlogParams {
        segment_bytes: 32 << 10,
        value_threshold: 64,
    });
    cfg.seed = seed;
    cfg.build().unwrap()
}

/// Old (preload) and new (update) generators: distinguishable values
/// for the same key space, both above the separation threshold.
fn gens() -> (RecordGenerator, RecordGenerator) {
    (
        RecordGenerator::new(16, 512, 21),
        RecordGenerator::new(16, 512, 22),
    )
}

/// Preload every key at v1 and overwrite the even half at v2, flushing
/// both phases. Leaves every preload segment half live, half dead, so a
/// GC pass must relocate the live records and fix up their pointers
/// before it can recycle anything.
fn load_mixed(store: &mut Store, old: &RecordGenerator, new: &RecordGenerator) {
    for i in 0..KEYS {
        store.put(&old.key(i), &old.value(i)).unwrap();
    }
    store.flush().unwrap();
    for i in (0..KEYS).step_by(2) {
        store.put(&new.key(i), &new.value(i)).unwrap();
    }
    store.flush().unwrap();
}

/// The durable expectation after `load_mixed`: even keys read v2, odd
/// keys read v1 — and nothing a GC pass or crash does may change that.
fn assert_mixed(
    store: &mut Store,
    old: &RecordGenerator,
    new: &RecordGenerator,
    stride: usize,
    ctx: &str,
) {
    for i in (0..KEYS).step_by(stride) {
        let want = if i % 2 == 0 {
            new.value(i)
        } else {
            old.value(i)
        };
        assert_eq!(
            store.get(&old.key(i)).unwrap(),
            Some(want),
            "{ctx}: key {i} lost or stale"
        );
    }
}

fn drain_gc(store: &mut Store) {
    let mut steps = 0;
    while store.vlog_gc_pending() && steps < 10_000 {
        store.vlog_gc_step(32 << 10).unwrap();
        steps += 1;
    }
}

fn faults(store: &Store) -> smr_sim::FaultStats {
    store.db.ctx().lock().fs.disk().stats().faults
}

fn set_tear(store: &mut Store, tear_after: Option<u64>) {
    let mut guard = store.db.ctx().lock();
    let plan = guard.fs.disk_mut().faults_mut();
    match tear_after {
        Some(n) => plan.tear_write_after(n),
        None => plan.disarm_torn_writes(),
    }
}

/// The sweep's store, preloaded at the old values and flushed: what
/// every torn-append point starts from.
fn preloaded(seed: u64, old: &RecordGenerator) -> Store {
    let mut store = vlog_store(seed);
    for i in 0..KEYS {
        store.put(&old.key(i), &old.value(i)).unwrap();
    }
    store.flush().unwrap();
    store
}

/// The kinds of the device writes the update window makes, in order:
/// a fault-free dry run of the window with tracing on. The `n`th entry
/// is the write `tear_write_after(n)` tears.
fn window_writes(seed: u64) -> Vec<IoKind> {
    let (old, new) = gens();
    let mut store = preloaded(seed, &old);
    store.set_tracing(true);
    for i in 0..KEYS {
        store.put(&new.key(i), &new.value(i)).unwrap();
    }
    store
        .take_trace()
        .iter()
        .filter(|e| e.dir == TraceDir::Write)
        .map(|e| e.kind)
        .collect()
}

/// Which write of the update window a sweep point tears.
#[derive(Clone, Copy, Debug)]
enum Tear {
    /// The `n`th write since arming.
    At(u64),
    /// The first, a middle and the last write that drains held
    /// value-log appends.
    FirstDrain,
    MiddleDrain,
    LastDrain,
    /// The first log write (the manifest's: the window's WAL tail
    /// never fills its buffer before a flush retires it) and the first
    /// table write.
    Log,
    Table,
}

impl Tear {
    fn index(self, writes: &[IoKind]) -> u64 {
        let of = |kind: IoKind| {
            writes
                .iter()
                .enumerate()
                .filter(move |(_, k)| **k == kind)
                .map(|(i, _)| i as u64)
        };
        let drains: Vec<u64> = of(IoKind::VlogAppend).collect();
        let found = match self {
            Tear::At(n) => Some(n),
            Tear::FirstDrain => drains.first().copied(),
            Tear::MiddleDrain => drains.get(drains.len() / 2).copied(),
            Tear::LastDrain => drains.last().copied(),
            Tear::Log => of(IoKind::Meta).next(),
            Tear::Table => of(IoKind::Flush).next(),
        };
        found.unwrap_or_else(|| panic!("{self:?}: no such write in the window {writes:?}"))
    }
}

/// Torn-write sweep through the append path: the tear lands on a drain
/// of held vlog records, a manifest commit, a table flush, or the
/// segment allocations in between, each point chosen from the window's
/// measured write sequence so that every one fires. The durable prefix
/// must survive byte-exact and every surviving churn key must read one
/// of its two exact values — a pointer into a torn record must never
/// surface garbage.
#[test]
fn torn_vlog_append_sweep_recovers_exact_values() {
    const POINTS: [Tear; 10] = [
        Tear::At(0),
        Tear::At(1),
        Tear::At(3),
        Tear::At(7),
        Tear::At(19),
        Tear::FirstDrain,
        Tear::MiddleDrain,
        Tear::LastDrain,
        Tear::Log,
        Tear::Table,
    ];
    for (pt, &point) in POINTS.iter().enumerate() {
        let seed = 0xB10C + pt as u64;
        let writes = window_writes(seed);
        let tear_after = point.index(&writes);
        let (old, new) = gens();
        let mut store = preloaded(seed, &old);
        set_tear(&mut store, Some(tear_after));
        for i in 0..KEYS {
            if store.put(&new.key(i), &new.value(i)).is_err() {
                break;
            }
        }
        assert_eq!(
            faults(&store).torn_writes,
            1,
            "point {pt} ({point:?}, write {tear_after} of {}) never fired",
            writes.len()
        );
        set_tear(&mut store, None);
        let mut store = store.reopen().unwrap();

        for i in 0..KEYS {
            let got = store.get(&old.key(i)).unwrap();
            let ok = got == Some(old.value(i)) || got == Some(new.value(i));
            assert!(
                ok,
                "point {pt} ({point:?}, tear after {tear_after}): key {i} reads neither \
                 its durable nor its updated value"
            );
        }

        // The recovered store takes traffic and a GC lap without losing
        // anything: the churn re-creates garbage the post-crash GC (now
        // on the slow, LSM-verified path) must collect safely.
        for i in 0..KEYS / 2 {
            store.put(&new.key(i), &new.value(i)).unwrap();
        }
        drain_gc(&mut store);
        for i in 0..KEYS / 2 {
            assert_eq!(
                store.get(&new.key(i)).unwrap(),
                Some(new.value(i)),
                "point {pt}: key {i} wrong after post-recovery churn + GC"
            );
        }
    }
}

/// A drain torn by the hold limit inside a put's own append, on bands
/// larger than the limit. The put fails; every update acked before it
/// still reads back while the process lives, from the held bytes the
/// drain could not write; nothing else reaches the device; and a
/// restart recovers each key at one of its two exact values.
#[test]
fn a_torn_drain_keeps_acked_updates_readable_until_restart() {
    let mut cfg = StoreConfig::new(StoreKind::SealDb, 16 << 10, 512 << 20).with_vlog(VlogParams {
        segment_bytes: 256 << 10,
        value_threshold: 64,
    });
    cfg.seed = 0xD4A1;
    let (old, new) = gens();
    let mut store = cfg.build().unwrap();
    for i in 0..KEYS {
        store.put(&old.key(i), &old.value(i)).unwrap();
    }
    store.flush().unwrap();
    set_tear(&mut store, Some(0));
    let mut acked = 0;
    while acked < KEYS && store.put(&new.key(acked), &new.value(acked)).is_ok() {
        acked += 1;
    }
    assert_eq!(faults(&store).torn_writes, 1, "a drain must have torn");
    // Records are 540 bytes: 121 stay under the 64 KiB hold limit, and
    // the 122nd append drains them, the window's first device write.
    assert_eq!(acked, (64 << 10) / 540, "the limit drain tore");
    set_tear(&mut store, None);
    for i in 0..acked {
        assert_eq!(
            store.get(&new.key(i)).unwrap(),
            Some(new.value(i)),
            "acked update {i} unreadable after the failed drain"
        );
    }
    // The held bytes block every write that could make a pointer to
    // them durable: the flush fails before the device sees a write.
    let issued = |s: &Store| s.db.ctx().lock().fs.disk().writes_issued();
    let before = issued(&store);
    assert!(store.flush().is_err(), "a flush past stranded bytes");
    assert_eq!(issued(&store), before);

    let mut store = store.reopen().unwrap();
    for i in 0..KEYS {
        let got = store.get(&old.key(i)).unwrap();
        assert!(
            got == Some(old.value(i)) || got == Some(new.value(i)),
            "key {i} reads neither its durable nor its updated value"
        );
    }
    store.put(&new.key(0), &new.value(0)).unwrap();
    store.flush().unwrap();
}

/// Power-cut sweep across a full GC drain over half-dead segments: the
/// answers are fully durable before GC starts, so *no* crash image
/// taken during relocation, pointer fixup, or segment recycle may
/// change what any key reads. The sweep must include cuts that leave
/// relocations past the survivor head's checkpointed tail (recovery
/// rescans them) and cuts between a survivor band's open and the
/// checkpoint naming it (recovery drops the band as an orphan). After each restore, fresh churn plus a
/// second drain exercises the post-recovery GC path, which must
/// re-verify liveness rather than trust pre-crash accounting.
#[test]
fn power_cut_during_gc_never_changes_answers() {
    const MIN_IMAGES: usize = 12;
    let mut store = vlog_store(0x6C0D);
    let (old, new) = gens();
    load_mixed(&mut store, &old, &new);
    assert!(
        store.vlog_gc_pending(),
        "overwriting half the key space must leave GC work"
    );

    store
        .db
        .ctx()
        .lock()
        .fs
        .disk_mut()
        .faults_mut()
        .snapshot_every(3);
    drain_gc(&mut store);
    let stats = store.vlog.as_ref().unwrap().stats();
    assert!(
        stats.segments_retired > 0 && stats.relocated_bytes > 0,
        "the drain must relocate live records and recycle segments, got {stats:?}"
    );
    let images = {
        let mut guard = store.db.ctx().lock();
        guard.fs.disk_mut().faults_mut().disable_snapshots();
        guard.fs.take_crash_images()
    };
    assert!(
        images.len() >= MIN_IMAGES,
        "expected a rich GC image set, got {}",
        images.len()
    );

    let stride = (images.len() / MIN_IMAGES).max(1);
    let mut tested = 0usize;
    // Recoveries that found relocations past the survivor head's
    // checkpointed tail, and that dropped a band opened after the last
    // checkpoint. A drain writes no user values, so every band it opens
    // is a survivor band.
    let (mut survivor_tails, mut orphans) = (0usize, 0usize);
    for img in images.iter().step_by(stride) {
        store = store.restore_crash_image(img).unwrap();
        tested += 1;
        let recovery = store.vlog.as_ref().unwrap().recovery_report();
        survivor_tails += usize::from(recovery.survivor_tail_bytes > 0);
        orphans += usize::from(recovery.orphan_segments_dropped > 0);
        assert_mixed(
            &mut store,
            &old,
            &new,
            7,
            &format!("cut at write {}", img.write_index()),
        );
        // Fresh churn so post-recovery GC has garbage to chase, then a
        // full drain on the LSM-verified path: answers must hold.
        for i in (1..KEYS).step_by(6) {
            store.put(&new.key(i), &new.value(i)).unwrap();
        }
        drain_gc(&mut store);
        for i in (0..KEYS).step_by(3) {
            let want = if i % 6 == 1 || i % 2 == 0 {
                new.value(i)
            } else {
                old.value(i)
            };
            assert_eq!(
                store.get(&old.key(i)).unwrap(),
                Some(want),
                "cut at write {}: post-recovery GC resurrected or lost key {i}",
                img.write_index()
            );
        }
        store.put(b"post-cut", b"alive").unwrap();
        assert_eq!(store.get(b"post-cut").unwrap(), Some(b"alive".to_vec()));
    }
    assert!(tested >= MIN_IMAGES, "swept only {tested} GC crash points");
    assert!(
        survivor_tails > 0,
        "no crash image left post-checkpoint records in an open survivor head"
    );
    assert!(
        orphans > 0,
        "no crash image fell between a survivor band's open and its checkpoint"
    );
}

/// Pin the fixup/recycle boundary specifically: snapshot every single
/// disk write while GC retires its first victim, so images bracket the
/// relocation appends, the pointer-fixup batch, and the segment delete
/// individually. Each restore must preserve every answer — if
/// retirement could outrun the fixups' durability, some pointer would
/// dangle into a recycled band and the read would fail or go stale.
#[test]
fn fixup_to_recycle_boundary_is_crash_safe() {
    let mut store = vlog_store(0xF1C5);
    let (old, new) = gens();
    load_mixed(&mut store, &old, &new);
    assert!(store.vlog_gc_pending());

    store
        .db
        .ctx()
        .lock()
        .fs
        .disk_mut()
        .faults_mut()
        .snapshot_every(1);
    // Step until exactly one victim has been recycled: scan, relocate,
    // fix up, retire.
    let retired_before = store.vlog.as_ref().unwrap().stats().segments_retired;
    let mut steps = 0;
    while store.vlog.as_ref().unwrap().stats().segments_retired == retired_before
        && store.vlog_gc_pending()
        && steps < 1000
    {
        store.vlog_gc_step(64 << 10).unwrap();
        steps += 1;
    }
    assert!(
        store.vlog.as_ref().unwrap().stats().segments_retired > retired_before,
        "GC never recycled a victim in {steps} steps"
    );
    let images = {
        let mut guard = store.db.ctx().lock();
        guard.fs.disk_mut().faults_mut().disable_snapshots();
        guard.fs.take_crash_images()
    };
    assert!(
        images.len() >= 3,
        "retiring a half-live victim must issue several writes, saw {} images",
        images.len()
    );

    for img in &images {
        store = store.restore_crash_image(img).unwrap();
        assert_mixed(
            &mut store,
            &old,
            &new,
            5,
            &format!("fixup/recycle cut at write {}", img.write_index()),
        );
    }
}
