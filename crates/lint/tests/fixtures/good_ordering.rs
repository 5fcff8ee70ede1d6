//! Fixture: the dominating patterns each ordering rule accepts. This
//! file must produce zero findings — it exercises every happy path the
//! rules must not flag.

/// Syncs before acking, unconditionally.
pub fn ack_after_sync(db: &mut Db) {
    db.stage_write(7);
    db.sync_wal();
    db.ack_write(7);
}

/// Syncs on every branch: both paths dominate the ack.
pub fn ack_after_branchy_sync(db: &mut Db, fast: bool) {
    if fast {
        db.sync_wal();
    } else {
        db.sync_all();
    }
    db.ack_write(8);
}

/// Commits the segment directory (conditionally, exactly as the real
/// store does) before any pointer reaches the WAL.
pub fn checkpoint_then_pointer(db: &mut Db, vlog: &mut Log, key: &[u8], value: &[u8]) {
    let ptr = vlog.append(key, value);
    let mut batch = Batch::new();
    batch.put(key, &encode_pointer(ptr));
    if vlog.take_dirty() {
        db.commit_aux_state(vlog.checkpoint());
    }
    db.write(batch);
}

/// Plain writes with no pointers never need a checkpoint.
pub fn plain_write(db: &mut Db, batch: Batch) {
    db.write(batch);
}

fn fence_all(db: &mut Db, seg: u64) {
    db.quarantine_extent(seg);
}

/// The fence dominates the repair through a local helper: the
/// call-graph summary layer carries `Fence` across the call.
pub fn fence_then_repair(db: &mut Db, seg: u64) {
    fence_all(db, seg);
    let entries = db.salvage_prefix(seg);
    db.rebuild_file(0, seg, entries);
}

/// Fencing each damaged extent in a loop counts as dominating the
/// repair that follows (loop-optimistic must semantics).
pub fn fence_loop_then_repair(db: &mut Db, bad: &[u64]) {
    for ext in bad.iter() {
        db.quarantine_extent(ext);
    }
    db.rebuild_file(0, 0, Vec::new());
}

/// Fixups made durable before the victim's bytes are freed.
pub fn durable_then_recycle(db: &mut Db, vlog: &mut Log, victim: u64, fixups: Batch) {
    db.write_unaccounted(fixups);
    db.sync_wal();
    vlog.retire_segment(victim);
}

/// Drop impls may do any amount of in-memory cleanup.
impl Drop for Gauge {
    fn drop(&mut self) {
        self.samples.truncate(0);
    }
}
