//! Band-granular shard migration: split the hottest shard, merge a
//! retiring one.
//!
//! Both directions move data in **band-sized write batches**
//! ([`crate::ShardConfig::band_size`], 10 × SSTable at the paper's
//! ratio): the destination absorbs one band's worth of keys per
//! `Store::write`, then the source deletes the same keys in one batch —
//! so a migration is a bounded number of large sequential commits, not
//! a per-key chatter, and every moved key is either still on the source
//! or already acked on the destination at all times (copy-then-delete).
//!
//! A split picks its victim off the per-shard observability gauges
//! ([`crate::ShardCluster::hottest_shard`]) and edits only that shard's
//! ring arcs, so the blast radius is one shard's keyspace; a merge
//! removes the victim's arcs and re-routes its residents to whatever
//! shard now owns them. Both return a [`MigrationReport`] and both
//! leave the cluster auditable: the acked-key loss audit is the gate
//! the determinism tests and BENCH_pr7 checker enforce.

use crate::{Shard, ShardCluster};
use lsm_core::{Error, Result, WriteBatch};

/// Resident records of one shard, as `(key, value)` pairs.
type Records = Vec<(Vec<u8>, Vec<u8>)>;

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

impl ShardCluster {
    /// Scans every resident key of shard `idx`, paged.
    fn resident_keys(&mut self, idx: usize) -> Result<Records> {
        let mut all = Vec::new();
        let mut start: Vec<u8> = Vec::new();
        loop {
            let page = self.store_mut(idx).scan(&start, 1024)?;
            let full = page.len() == 1024;
            let last = page.last().map(|(k, _)| k.clone());
            all.extend(page);
            match last {
                Some(k) if full => {
                    start = k;
                    start.push(0);
                }
                _ => break,
            }
        }
        Ok(all)
    }

    /// Moves `records` from shard `src` to shard `dst` in band-sized
    /// batches: write one band to `dst`, then delete the same keys from
    /// `src` in one batch. Returns (keys, payload bytes, batches).
    fn move_in_bands(
        &mut self,
        src: usize,
        dst: usize,
        records: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(u64, u64, u64)> {
        let band = self.config().band_size() as usize;
        let mut moved_keys = 0u64;
        let mut moved_bytes = 0u64;
        let mut batches = 0u64;
        let mut put = WriteBatch::new();
        let mut del = WriteBatch::new();
        let mut flush =
            |this: &mut ShardCluster, put: &mut WriteBatch, del: &mut WriteBatch| -> Result<()> {
                if put.count() == 0 {
                    return Ok(());
                }
                batches += 1;
                this.store_mut(dst).write(std::mem::take(put))?;
                this.store_mut(src).write(std::mem::take(del))?;
                Ok(())
            };
        for (k, v) in records {
            if put.byte_size() + k.len() + v.len() > band && put.count() > 0 {
                flush(self, &mut put, &mut del)?;
            }
            put.put(k, v);
            del.delete(k);
            moved_keys += 1;
            moved_bytes += (k.len() + v.len()) as u64;
        }
        flush(self, &mut put, &mut del)?;
        Ok((moved_keys, moved_bytes, batches))
    }

    /// Splits the hottest shard (per the obs gauges) onto a newly built
    /// shard: builds the new store, hands it alternate ring arcs of the
    /// victim, then moves exactly the keys whose ownership changed, one
    /// band per batch. Deterministic end to end — victim choice, arc
    /// reassignment, and move order all replay identically.
    pub fn split_hottest(&mut self) -> Result<MigrationReport> {
        let from = self.hottest_shard();
        let to = self.total_shards();
        let t0 = self.sync_all();
        let store = crate::build_shard_store(self.config(), to)?;
        self.shards.push(Shard {
            store,
            active: true,
        });
        self.shards[to].store.advance_clock_to(t0);
        let moved_points = self.ring.split(from, to);
        debug_assert!(moved_points > 0, "split moved no ring points");
        // Only keys resident on `from` can have changed owner.
        let residents = self.resident_keys(from)?;
        let moving: Vec<(Vec<u8>, Vec<u8>)> = residents
            .into_iter()
            .filter(|(k, _)| self.route(k) == to)
            .collect();
        let (moved_keys, moved_bytes, batches) = self.move_in_bands(from, to, &moving)?;
        let end = self.store(from).clock_ns().max(self.store(to).clock_ns());
        self.shards[from].store.advance_clock_to(end);
        self.shards[to].store.advance_clock_to(end);
        self.now_ns = self.now_ns.max(end);
        Ok(MigrationReport {
            kind: MigrationKind::Split { from, to },
            moved_keys,
            moved_bytes,
            batches,
            duration_ns: end - t0,
        })
    }

    /// Retires shard `victim`: removes its ring arcs, re-routes every
    /// resident key to its new owner in band-sized batches, and marks
    /// the slot inactive. The emptied store stays in place so shard
    /// indices remain stable.
    pub fn merge_shard(&mut self, victim: usize) -> Result<MigrationReport> {
        self.check_active(victim)?;
        if self.active_shards().len() < 2 {
            return Err(Error::InvalidArgument(
                "cannot merge away the last active shard".to_string(),
            ));
        }
        let t0 = self.sync_all();
        self.ring.remove_shard(victim);
        let residents = self.resident_keys(victim)?;
        // Group the evacuation by destination so each new owner absorbs
        // its share in band-sized batches (owners iterate ascending).
        let mut by_owner: std::collections::BTreeMap<usize, Records> =
            std::collections::BTreeMap::new();
        for (k, v) in residents {
            let owner = self.route(&k);
            by_owner.entry(owner).or_default().push((k, v));
        }
        let mut moved_keys = 0u64;
        let mut moved_bytes = 0u64;
        let mut batches = 0u64;
        for (owner, records) in &by_owner {
            let (mk, mb, nb) = self.move_in_bands(victim, *owner, records)?;
            moved_keys += mk;
            moved_bytes += mb;
            batches += nb;
        }
        self.shards[victim].active = false;
        let mut end = self.store(victim).clock_ns();
        for owner in by_owner.keys() {
            end = end.max(self.store(*owner).clock_ns());
        }
        for owner in by_owner.keys() {
            self.shards[*owner].store.advance_clock_to(end);
        }
        self.now_ns = self.now_ns.max(end);
        Ok(MigrationReport {
            kind: MigrationKind::Merge { removed: victim },
            moved_keys,
            moved_bytes,
            batches,
            duration_ns: end - t0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{imbalance, ShardCluster, ShardConfig};
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
        let before = c.shard_key_counts().unwrap();
        let r = c.split_hottest().unwrap();
        let MigrationKind::Split { from, to } = r.kind else {
            panic!("expected a split")
        };
        assert_eq!(to, 2);
        assert!(r.moved_keys > 0);
        assert!(r.batches > 0);
        assert!(r.duration_ns > 0, "moving bands must cost simulated time");
        let after = c.shard_key_counts().unwrap();
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
        assert_eq!(c.audit(&gen, 2000).unwrap().lost, 0);
    }

    #[test]
    fn split_improves_or_holds_placement_imbalance_at_scale() {
        let gen = RecordGenerator::new(16, 64, 5);
        let mut c = loaded(4, 4000, &gen);
        c.split_hottest().unwrap();
        let counts = c.shard_key_counts().unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 4000);
        assert_eq!(counts.len(), 5);
        assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
        assert!(imbalance(&counts) < 2.0, "post-split {counts:?}");
    }

    #[test]
    fn merge_redistributes_everything_and_deactivates() {
        let gen = RecordGenerator::new(16, 64, 5);
        let mut c = loaded(3, 1500, &gen);
        let before = c.shard_key_counts().unwrap();
        let r = c.merge_shard(1).unwrap();
        assert_eq!(r.kind, MigrationKind::Merge { removed: 1 });
        assert_eq!(r.moved_keys, before[1]);
        assert!(!c.is_active(1));
        assert_eq!(c.active_shards(), vec![0, 2]);
        let after = c.shard_key_counts().unwrap();
        assert_eq!(after[1], 0);
        assert_eq!(after.iter().sum::<u64>(), 1500);
        assert_eq!(c.audit(&gen, 1500).unwrap().lost, 0);
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
