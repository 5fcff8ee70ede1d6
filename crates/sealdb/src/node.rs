//! [`KvNode`]: what a routing layer needs from whatever it routes to.

use crate::Store;
use lsm_core::{Result, WriteBatch};

/// One addressable key-value node on a simulated clock — a bare
/// [`Store`], or anything that fronts stores (a replication group).
/// `seal_shard::ShardCluster` is generic over this, which is what lets
/// shard-of-replicated-of-store be a type rather than a test fixture.
/// The surface is deliberately the five calls routing and migration
/// use; maintenance and fault hooks stay on the concrete types.
pub trait KvNode {
    /// Applies a write batch atomically; `Ok` is the node's ack.
    fn write(&mut self, batch: WriteBatch) -> Result<()>;
    /// Point lookup.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>>;
    /// Range scan of up to `limit` entries from `start`.
    fn scan(&mut self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>>;
    /// The node's simulated clock, ns.
    fn clock_ns(&self) -> u64;
    /// Lets the node idle until its clock reads at least `t_ns`.
    fn advance_clock_to(&mut self, t_ns: u64);
}

impl KvNode for Store {
    fn write(&mut self, batch: WriteBatch) -> Result<()> {
        Store::write(self, batch)
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Store::get(self, key)
    }

    fn scan(&mut self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Store::scan(self, start, limit)
    }

    fn clock_ns(&self) -> u64 {
        Store::clock_ns(self)
    }

    fn advance_clock_to(&mut self, t_ns: u64) {
        Store::advance_clock_to(self, t_ns);
    }
}
