//! Band-granular shard migration: split a shard, merge a retiring one.
//!
//! Both directions move data in **band-sized write batches**
//! ([`crate::ShardConfig::band_size`], 10 × SSTable at the paper's
//! ratio), so a migration is a bounded number of large sequential
//! commits, not a per-key chatter. Both are one routine,
//! [`ShardCluster::relocate`], run against the *prospective* ring, and
//! its order is what makes a migration failure-atomic:
//!
//! 1. read the source's residents and pick the ones the prospective
//!    ring routes elsewhere;
//! 2. write every band to its destination (the live ring still routes
//!    those keys to the source, which still holds them);
//! 3. switch the live ring;
//! 4. delete the moved keys from the source.
//!
//! An error in step 1 or 2 leaves routing untouched and every key
//! served where it was; the copies already sent are deleted again,
//! best effort. An error in step 4 leaves unrouted leftovers on the
//! source, never a routed key without its value. Residents are read
//! back from the source node itself — not from any side table — so a
//! source that has shed data is a hazard the *caller* must exclude
//! (the chaos harness skips a split whose source primary took device
//! damage).
//!
//! A split edits only the victim's ring arcs, so the blast radius is
//! one shard's keyspace; a merge removes the victim's arcs and
//! re-routes its residents to whatever shard now owns them. Both return
//! a [`MigrationReport`] and both leave the cluster auditable: the
//! acked-key loss audit is the gate the determinism tests and BENCH_pr7
//! checker enforce.

use crate::{HashRing, Records, Shard, ShardCluster};
use lsm_core::{Error, Result, WriteBatch};
use sealdb::KvNode;
use std::collections::BTreeMap;

/// Which direction a migration moved data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationKind {
    /// A shard's keyspace was split onto a newly built shard.
    Split {
        /// The shard that gave up about half its arcs.
        from: usize,
        /// The newly created shard.
        to: usize,
    },
    /// A shard was retired and its residents re-routed to survivors.
    Merge {
        /// The shard removed from the ring.
        removed: usize,
    },
}

/// What one migration did, for the artifact and the audit trail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationReport {
    /// Split or merge, and between whom.
    pub kind: MigrationKind,
    /// Keys that changed shard.
    pub moved_keys: u64,
    /// Key+value payload bytes those keys carried.
    pub moved_bytes: u64,
    /// Band-sized write batches the move took.
    pub batches: u64,
    /// Simulated time the migration occupied, ns (participants only).
    pub duration_ns: u64,
}

/// What [`ShardCluster::relocate`] moved, and to whom.
struct Moved {
    keys: u64,
    bytes: u64,
    batches: u64,
    /// Destinations that received at least one key, ascending.
    owners: Vec<usize>,
}

impl<N: KvNode> ShardCluster<N> {
    /// Moves every resident of `src` that `ring` routes elsewhere to its
    /// new owner, one band per batch, and adopts `ring` — in the
    /// failure-atomic order the module docs give.
    fn relocate(&mut self, src: usize, ring: HashRing) -> Result<Moved> {
        let band = self.cfg.band_size() as usize;
        // Grouped by destination so each new owner absorbs its share in
        // band-sized batches (owners iterate ascending).
        let mut by_owner: BTreeMap<usize, Records> = BTreeMap::new();
        for (k, v) in self.resident_keys(src)? {
            let owner = ring.route(&k);
            if owner != src {
                by_owner.entry(owner).or_default().push((k, v));
            }
        }
        let mut moved = Moved {
            keys: 0,
            bytes: 0,
            batches: 0,
            owners: by_owner.keys().copied().collect(),
        };
        // The source-side delete of every band sent so far.
        let mut sent: Vec<(usize, WriteBatch)> = Vec::new();
        for (&owner, records) in &by_owner {
            let mut rest = records.as_slice();
            while !rest.is_empty() {
                let mut put = WriteBatch::new();
                let mut del = WriteBatch::new();
                let mut n = 0;
                for (k, v) in rest {
                    if put.count() > 0 && put.byte_size() + k.len() + v.len() > band {
                        break;
                    }
                    put.put(k, v);
                    del.delete(k);
                    n += 1;
                    moved.bytes += (k.len() + v.len()) as u64;
                }
                rest = &rest[n..];
                moved.keys += n as u64;
                sent.push((owner, del));
                if let Err(e) = self.shards[owner].node.write(put) {
                    // A node may fail a write it has already committed,
                    // so the failed band is taken back like the rest.
                    for (o, del) in sent {
                        let _ = self.shards[o].node.write(del);
                    }
                    return Err(e);
                }
            }
        }
        self.ring = ring;
        moved.batches = sent.len() as u64;
        for (_, del) in sent {
            self.shards[src].node.write(del)?;
        }
        Ok(moved)
    }

    /// Closes a migration that started at `t0`: the participants still
    /// taking traffic meet at the latest participant clock, and the
    /// cluster frontier follows.
    fn close(
        &mut self,
        kind: MigrationKind,
        t0: u64,
        participants: &[usize],
        moved: &Moved,
    ) -> MigrationReport {
        let clocks = participants.iter().map(|&i| self.shards[i].node.clock_ns());
        let end = clocks.max().unwrap_or(t0);
        for &i in participants {
            if self.shards[i].active {
                self.shards[i].node.advance_clock_to(end);
            }
        }
        self.now_ns = self.now_ns.max(end);
        MigrationReport {
            kind,
            moved_keys: moved.keys,
            moved_bytes: moved.bytes,
            batches: moved.batches,
            duration_ns: end - t0,
        }
    }

    /// Splits shard `from` onto `new_node`, which becomes the next shard
    /// slot: the new shard takes alternate ring arcs of `from` and
    /// exactly the keys whose ownership changed, one band per batch.
    /// Deterministic end to end — arc reassignment and move order replay
    /// identically. If the copy fails, `new_node` is dropped and the
    /// cluster is as it was.
    pub fn split(&mut self, from: usize, new_node: N) -> Result<MigrationReport> {
        self.check_active(from)?;
        let to = self.total_shards();
        let t0 = self.sync_all();
        let mut ring = self.ring.clone();
        let moved_points = ring.split(from, to);
        debug_assert!(moved_points > 0, "split moved no ring points");
        self.shards.push(Shard {
            node: new_node,
            active: true,
        });
        self.shards[to].node.advance_clock_to(t0);
        let moved = self.relocate(from, ring);
        if moved.is_err() && self.ring.points_of(to) == 0 {
            // The copy failed before the ring switched: the new shard
            // never became routable.
            self.shards.pop();
        }
        let moved = moved?;
        Ok(self.close(MigrationKind::Split { from, to }, t0, &[from, to], &moved))
    }

    /// Retires shard `victim`: re-routes every resident key to its new
    /// owner in band-sized batches, removes the victim's ring arcs, and
    /// marks the slot inactive. The emptied node stays in place so
    /// shard indices remain stable.
    pub fn merge_shard(&mut self, victim: usize) -> Result<MigrationReport> {
        self.check_active(victim)?;
        if self.active_shards().len() < 2 {
            return Err(Error::InvalidArgument(
                "cannot merge away the last active shard".to_string(),
            ));
        }
        let t0 = self.sync_all();
        let mut ring = self.ring.clone();
        ring.remove_shard(victim);
        let moved = self.relocate(victim, ring);
        // Liveness follows the ring, even when a source delete failed
        // after the switch.
        self.shards[victim].active = self.ring.points_of(victim) > 0;
        let moved = moved?;
        let mut participants = vec![victim];
        participants.extend(&moved.owners);
        let kind = MigrationKind::Merge { removed: victim };
        Ok(self.close(kind, t0, &participants, &moved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::shard_key_counts;
    use crate::{imbalance, ShardConfig};
    use workloads::RecordGenerator;

    const SST: u64 = 32 << 10;
    const CAP: u64 = 1 << 30;

    fn loaded(shards: usize, n: u64, gen: &RecordGenerator) -> ShardCluster {
        let mut c = ShardCluster::new(ShardConfig::new(shards, SST, CAP)).unwrap();
        c.load(gen, n).unwrap();
        c
    }

    #[test]
    fn split_moves_about_half_the_victim_and_loses_nothing() {
        let gen = RecordGenerator::new(16, 64, 5);
        let mut c = loaded(2, 2000, &gen);
        let before = shard_key_counts(&mut c);
        let r = c.split_hottest().unwrap();
        let MigrationKind::Split { from, to } = r.kind else {
            panic!("expected a split")
        };
        assert_eq!(to, 2);
        assert!(r.moved_keys > 0);
        assert!(r.batches > 0);
        assert!(r.duration_ns > 0, "moving bands must cost simulated time");
        let after = shard_key_counts(&mut c);
        // The victim gave up roughly half (alternate arcs), nobody else
        // changed, and the new shard holds exactly what moved.
        assert_eq!(after[to], r.moved_keys);
        assert_eq!(after[from] + r.moved_keys, before[from]);
        let third = before[from] / 3;
        assert!(
            r.moved_keys > third,
            "split moved {} of {} keys — less than a third",
            r.moved_keys,
            before[from]
        );
        assert_eq!(c.audit(&gen, 2000).unwrap().acked_lost, 0);
    }

    #[test]
    fn split_improves_or_holds_placement_imbalance_at_scale() {
        let gen = RecordGenerator::new(16, 64, 5);
        let mut c = loaded(4, 4000, &gen);
        c.split_hottest().unwrap();
        let counts = shard_key_counts(&mut c);
        assert_eq!(counts.iter().sum::<u64>(), 4000);
        assert_eq!(counts.len(), 5);
        assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
        assert!(imbalance(&counts) < 2.0, "post-split {counts:?}");
    }

    #[test]
    fn merge_redistributes_everything_and_deactivates() {
        let gen = RecordGenerator::new(16, 64, 5);
        let mut c = loaded(3, 1500, &gen);
        let before = shard_key_counts(&mut c);
        let r = c.merge_shard(1).unwrap();
        assert_eq!(r.kind, MigrationKind::Merge { removed: 1 });
        assert_eq!(r.moved_keys, before[1]);
        assert!(!c.is_active(1));
        assert_eq!(c.active_shards(), vec![0, 2]);
        let after = shard_key_counts(&mut c);
        assert_eq!(after[1], 0);
        assert_eq!(after.iter().sum::<u64>(), 1500);
        assert_eq!(c.audit(&gen, 1500).unwrap().acked_lost, 0);
        // Routing a key to the dead shard is impossible; ops still work.
        for i in 0..1500u64 {
            assert_ne!(c.route(&gen.key(i)), 1);
        }
    }

    #[test]
    fn merged_away_shard_rejects_direct_traffic() {
        let gen = RecordGenerator::new(16, 64, 5);
        let mut c = loaded(2, 400, &gen);
        c.merge_shard(0).unwrap();
        let err = c.merge_shard(0).unwrap_err();
        assert!(err.to_string().contains("merged away"), "{err}");
        // The survivor cannot be merged away.
        assert!(c.merge_shard(1).is_err());
    }

    /// An in-memory [`KvNode`] whose `fail_at`-th write (1-based) fails
    /// without applying.
    #[derive(Debug, Default)]
    struct FlakyNode {
        map: std::collections::BTreeMap<Vec<u8>, Vec<u8>>,
        writes: u64,
        fail_at: u64,
        clock: u64,
    }

    impl KvNode for FlakyNode {
        fn write(&mut self, batch: WriteBatch) -> Result<()> {
            self.writes += 1;
            self.clock += 1;
            if self.writes == self.fail_at {
                return Err(Error::InvalidArgument("injected write failure".into()));
            }
            for (_, ty, k, v) in batch.iter() {
                match ty {
                    lsm_core::ValueType::Value => self.map.insert(k.to_vec(), v.to_vec()),
                    lsm_core::ValueType::Deletion => self.map.remove(k),
                };
            }
            Ok(())
        }

        fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
            Ok(self.map.get(key).cloned())
        }

        fn scan(&mut self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
            let from = self.map.range(start.to_vec()..);
            Ok(from
                .take(limit)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect())
        }

        fn scan_bulk(&mut self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
            self.scan(&[], usize::MAX)
        }

        fn clock_ns(&self) -> u64 {
            self.clock
        }

        fn advance_clock_to(&mut self, t_ns: u64) {
            self.clock = self.clock.max(t_ns);
        }
    }

    const FLAKY_KEYS: u64 = 600;

    /// Three in-memory shards, tiny bands (many batches per move),
    /// `FLAKY_KEYS` records routed in.
    fn flaky_cluster(gen: &RecordGenerator) -> ShardCluster<FlakyNode> {
        let nodes = (0..3).map(|_| FlakyNode::default()).collect();
        let mut c = ShardCluster::from_nodes(ShardConfig::new(3, 256, CAP), nodes);
        for i in 0..FLAKY_KEYS {
            c.put(&gen.key(i), &gen.value(i)).unwrap();
        }
        c
    }

    fn routes(c: &ShardCluster<FlakyNode>, gen: &RecordGenerator) -> Vec<usize> {
        (0..FLAKY_KEYS).map(|i| c.route(&gen.key(i))).collect()
    }

    /// The ring must not change before the last destination write: a
    /// copy that fails midway leaves every key routed where it was and
    /// readable there, with no stray copies or slots left behind.
    #[test]
    fn failed_copy_leaves_routing_and_data_untouched() {
        let gen = RecordGenerator::new(16, 64, 5);
        let mut c = flaky_cluster(&gen);
        let before = routes(&c, &gen);
        // Split: the new shard's third band write fails.
        let flaky = FlakyNode {
            fail_at: 3,
            ..FlakyNode::default()
        };
        assert!(c.split(0, flaky).is_err());
        assert_eq!(c.total_shards(), 3, "the failed split's shard is gone");
        // Merge: a destination's third band write (from now) fails.
        c.node_mut(2).fail_at = c.node(2).writes + 3;
        assert!(c.merge_shard(1).is_err());
        assert!(c.is_active(1));
        assert_eq!(routes(&c, &gen), before);
        assert_eq!(c.audit(&gen, FLAKY_KEYS).unwrap().acked_lost, 0);
        let resident: u64 = shard_key_counts(&mut c).iter().sum();
        assert_eq!(resident, FLAKY_KEYS, "copies already sent were taken back");
        // Both migrations go through once the nodes behave.
        c.split(0, FlakyNode::default()).unwrap();
        c.merge_shard(1).unwrap();
        assert_eq!(c.audit(&gen, FLAKY_KEYS).unwrap().acked_lost, 0);
    }

    /// A source delete failing after the switch loses nothing either:
    /// the ring and shard liveness have moved, every key reads back from
    /// its new owner, and the source only keeps unrouted leftovers.
    #[test]
    fn failed_source_delete_still_completes_the_switch() {
        let gen = RecordGenerator::new(16, 64, 5);
        let mut c = flaky_cluster(&gen);
        c.node_mut(0).fail_at = c.node(0).writes + 2;
        assert!(c.split(0, FlakyNode::default()).is_err());
        assert_eq!(c.total_shards(), 4);
        assert!(c.ring.points_of(3) > 0);
        c.node_mut(1).fail_at = c.node(1).writes + 2;
        assert!(c.merge_shard(1).is_err());
        assert!(!c.is_active(1));
        assert_eq!(c.audit(&gen, FLAKY_KEYS).unwrap().acked_lost, 0);
    }

    #[test]
    fn migration_is_deterministic() {
        let gen = RecordGenerator::new(16, 64, 5);
        let run = || {
            let mut c = loaded(3, 1200, &gen);
            let split = c.split_hottest().unwrap();
            let merge = c.merge_shard(0).unwrap();
            (split, merge, c.state_hashes().unwrap(), c.now_ns())
        };
        assert_eq!(run(), run());
    }
}
