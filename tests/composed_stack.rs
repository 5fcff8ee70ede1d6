//! The composed stack as a type: `ShardCluster<Cluster>` is
//! shard-of-replicated-of-store with nothing assembled by hand. Routed
//! client traffic, the real band-granular split and merge, and a
//! replica kill on the migration source all go through the public APIs
//! of `seal-shard` and `seal-replica`; afterwards every replication
//! group must still hold every write it acked, every promised key must
//! be served by the group it routes to, and the live nodes of each
//! group must agree — identically across two runs.

use seal_replica::{Cluster, ReplicaConfig};
use seal_shard::{MigrationKind, ShardCluster, ShardConfig};
use std::collections::BTreeMap;
use workloads::RecordGenerator;

const SST: u64 = 32 << 10;
const CAP: u64 = 1 << 30;
const KEYS: u64 = 400;

fn group(g: usize) -> Cluster {
    let mut rc = ReplicaConfig::new(2, SST, CAP);
    rc.seed = 0x5EA1 + g as u64;
    Cluster::new(rc).expect("replication group")
}

/// Puts `range` of the generator's records through the router, deleting
/// every fifth one again; records what the client was promised.
fn traffic(
    c: &mut ShardCluster<Cluster>,
    gen: &RecordGenerator,
    range: std::ops::Range<u64>,
    promised: &mut BTreeMap<Vec<u8>, Option<Vec<u8>>>,
) {
    for i in range {
        let key = gen.key(i);
        c.put(&key, &gen.value(i)).expect("routed put");
        promised.insert(key.clone(), Some(gen.value(i)));
        if i % 5 == 0 {
            c.delete(&key).expect("routed delete");
            promised.insert(key, None);
        }
    }
}

/// One full episode; returns everything a replay must reproduce.
fn episode() -> (Vec<Vec<u64>>, Vec<usize>, u64) {
    let gen = RecordGenerator::new(16, 200, 11);
    let cfg = ShardConfig::new(2, SST, CAP);
    let mut c = ShardCluster::from_nodes(cfg, vec![group(0), group(1)]);
    let mut promised = BTreeMap::new();
    traffic(&mut c, &gen, 0..KEYS / 2, &mut promised);

    let split = c.split(0, group(2)).expect("split");
    assert_eq!(split.kind, MigrationKind::Split { from: 0, to: 2 });
    assert!(split.moved_keys > 0, "the split moved nothing");
    // The source group loses a replica, then serves more traffic
    // (quorum 1 still acks) — and overwrites of keys that just moved.
    c.node_mut(0).kill_replica(1).expect("kill replica");
    traffic(&mut c, &gen, KEYS / 4..KEYS, &mut promised);
    let merge = c.merge_shard(2).expect("merge");
    assert!(merge.moved_keys > 0, "the merge moved nothing");
    assert_eq!(c.active_shards(), vec![0, 1]);

    let mut hashes = Vec::new();
    for g in 0..c.total_shards() {
        let node = c.node_mut(g);
        node.advance_ns(5_000_000).expect("drain in-flight frames");
        let audit = node.audit().expect("audit");
        assert!(audit.acked_writes > 0, "group {g} acked nothing");
        assert_eq!(audit.acked_lost, 0, "group {g} lost acked writes");
        let mut live = Vec::new();
        for i in 0..=node.config().replicas {
            if node.alive(i) {
                live.push(node.state_hash_of(i).expect("state hash"));
            }
        }
        assert!(live.len() >= 2, "group {g} has nobody to agree with");
        assert!(
            live.iter().all(|&h| h == live[0]),
            "group {g} diverged: {live:?}"
        );
        hashes.push(live);
    }
    let mut routes = Vec::new();
    for (key, want) in &promised {
        assert!(c.route(key) < 2, "a key still routes to the retired slot");
        assert_eq!(&c.get(key).expect("routed get"), want, "promise broken");
        routes.push(c.route(key));
    }
    (hashes, routes, c.now_ns())
}

#[test]
fn shard_of_replicated_of_store_keeps_every_promise_and_replays() {
    assert_eq!(episode(), episode());
}
