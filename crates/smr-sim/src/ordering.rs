//! Debug-build happens-before auditor for durability ordering.
//!
//! [`OrderingAuditor`] is the runtime twin of `seal-lint`'s static
//! ordering rules: the store feeds it one event per durability-relevant
//! effect (checkpoint commit, pointer write, fixup write, sync, fence,
//! repair, recycle, ack) stamped with the simulated clock, and the
//! auditor `debug_assert!`s the happens-before edges the recovery
//! protocol depends on:
//!
//! - a value-log pointer reaches the WAL only for a segment whose
//!   directory entry has been checkpoint-committed;
//! - a GC victim is recycled only after every fixup written for it has
//!   been covered by a durable barrier;
//! - a salvage/rebuild repair touches only fenced (sealed or
//!   quarantined) segments;
//! - a client ack is issued only with zero unsynced WAL bytes.
//!
//! Like [`crate::audit::ShingleAuditor`], it is an independent shadow
//! model: it keeps its own sets rather than peeking at the store's
//! bookkeeping, so a bug in the store cannot hide itself. In release
//! builds the asserts compile out and the store never constructs an
//! auditor, so the checks are free.

use std::collections::{BTreeMap, BTreeSet};

/// Shadow model of the durability-ordering contract, enforced with
/// `debug_assert!` on every recorded event.
#[derive(Clone, Debug, Default)]
pub struct OrderingAuditor {
    /// Segments whose directory entry has been committed to aux state.
    checkpointed: BTreeSet<u64>,
    /// Segments fenced (sealed or quarantined) against new allocation.
    fenced: BTreeSet<u64>,
    /// GC victims with fixup writes not yet covered by a durable
    /// barrier, mapped to the clock of their most recent fixup.
    pending_fixups: BTreeMap<u64, u64>,
    /// Simulated clock of the most recent durable barrier.
    last_durable_ns: u64,
}

impl OrderingAuditor {
    /// Creates an empty auditor (no segments known, nothing pending).
    pub fn new() -> Self {
        OrderingAuditor::default()
    }

    /// Records a checkpoint commit covering `segments`: their directory
    /// entries are now recoverable, so pointers to them may reach the
    /// WAL. A commit is itself a durable barrier.
    pub fn record_checkpoint_commit(&mut self, now_ns: u64, segments: &[u64]) {
        self.checkpointed.extend(segments.iter().copied());
        self.record_durable(now_ns);
    }

    /// Records a value-log pointer entering the WAL, asserting its
    /// segment's directory entry was checkpoint-committed first (the
    /// PR 8 bug class: a crash between the two recovers a live pointer
    /// into an orphaned segment).
    pub fn record_pointer_write(&mut self, now_ns: u64, segment: u64) {
        debug_assert!(
            self.checkpointed.contains(&segment),
            "ordering audit: pointer into segment {segment} reached the WAL at \
             {now_ns}ns before the segment directory was checkpoint-committed"
        );
    }

    /// Records a pointer fixup (GC relocation) for `victim` entering the
    /// WAL. The victim must not be recycled until a durable barrier
    /// covers this write.
    pub fn record_fixup_write(&mut self, now_ns: u64, victim: u64) {
        self.pending_fixups.insert(victim, now_ns);
    }

    /// Records a durable barrier (WAL sync or checkpoint commit): every
    /// fixup written so far is now on stable media.
    pub fn record_durable(&mut self, now_ns: u64) {
        self.last_durable_ns = now_ns;
        self.pending_fixups.clear();
    }

    /// Records `victim` being recycled, asserting no fixup aimed at it
    /// is still undurable (a crash after recycle would recover pointers
    /// into overwritten media).
    pub fn record_recycle(&mut self, now_ns: u64, victim: u64) {
        debug_assert!(
            !self.pending_fixups.contains_key(&victim),
            "ordering audit: segment {victim} recycled at {now_ns}ns while its \
             fixups (last written at {}ns, last durable barrier {}ns) were not \
             yet durable",
            self.pending_fixups.get(&victim).copied().unwrap_or(0),
            self.last_durable_ns
        );
        self.checkpointed.remove(&victim);
        self.fenced.remove(&victim);
        self.pending_fixups.remove(&victim);
    }

    /// Records `segment` being fenced (sealed or quarantined).
    pub fn record_fence(&mut self, _now_ns: u64, segment: u64) {
        self.fenced.insert(segment);
    }

    /// Records a salvage/rebuild repair over `segment`, asserting the
    /// segment was fenced first (an unfenced segment can keep growing
    /// under the repair).
    pub fn record_repair(&mut self, now_ns: u64, segment: u64) {
        debug_assert!(
            self.fenced.contains(&segment),
            "ordering audit: repair of segment {segment} at {now_ns}ns without \
             a preceding fence (seal/quarantine)"
        );
    }

    /// Records a client ack, asserting the WAL had no unsynced bytes
    /// (`pending_bytes` is the store's count at ack time).
    pub fn record_ack(&mut self, now_ns: u64, pending_bytes: u64) {
        debug_assert!(
            pending_bytes == 0,
            "ordering audit: ack at {now_ns}ns with {pending_bytes} unsynced \
             WAL bytes (last durable barrier {}ns)",
            self.last_durable_ns
        );
    }

    /// Resets the model after recovery: `segments` are the segments the
    /// recovered directory knows (checkpointed by construction); nothing
    /// is pending or fenced.
    pub fn reset_recovered(&mut self, now_ns: u64, segments: &[u64]) {
        self.checkpointed = segments.iter().copied().collect();
        self.fenced.clear();
        self.pending_fixups.clear();
        self.last_durable_ns = now_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_gc_cycle_is_silent() {
        let mut a = OrderingAuditor::new();
        a.record_checkpoint_commit(10, &[1, 2]);
        a.record_pointer_write(11, 1);
        a.record_fixup_write(12, 2);
        a.record_durable(13);
        a.record_recycle(14, 2);
        a.record_fence(15, 1);
        a.record_repair(16, 1);
        a.record_ack(17, 0);
        assert_eq!(a.pending_fixups.len(), 0);
    }

    #[test]
    fn recovery_reset_reseeds_the_directory() {
        let mut a = OrderingAuditor::new();
        a.record_fixup_write(5, 9);
        a.reset_recovered(20, &[3]);
        assert_eq!(a.pending_fixups.len(), 0);
        a.record_pointer_write(21, 3);
    }

    #[test]
    fn checkpoint_commit_is_a_durable_barrier() {
        let mut a = OrderingAuditor::new();
        a.record_fixup_write(5, 7);
        a.record_checkpoint_commit(6, &[]);
        a.record_recycle(7, 7);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "before the segment directory was checkpoint-committed")]
    fn pointer_before_checkpoint_panics_in_debug() {
        let mut a = OrderingAuditor::new();
        a.record_pointer_write(1, 42);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "were not yet durable")]
    fn recycle_with_undurable_fixups_panics_in_debug() {
        let mut a = OrderingAuditor::new();
        a.record_checkpoint_commit(1, &[5]);
        a.record_fixup_write(2, 5);
        a.record_recycle(3, 5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "without a preceding fence")]
    fn repair_without_fence_panics_in_debug() {
        let mut a = OrderingAuditor::new();
        a.record_repair(1, 8);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unsynced")]
    fn ack_with_pending_wal_panics_in_debug() {
        let mut a = OrderingAuditor::new();
        a.record_ack(1, 512);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn violations_are_free_in_release() {
        let mut a = OrderingAuditor::new();
        a.record_pointer_write(1, 42);
        a.record_fixup_write(2, 5);
        a.record_recycle(3, 5);
        a.record_repair(4, 8);
        a.record_ack(5, 512);
    }
}
