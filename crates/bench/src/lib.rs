//! # bench — the figure/table regeneration harness
//!
//! One function per table/figure of the paper's evaluation section; the
//! `seal-bench` binary dispatches to them and writes CSV series next to
//! a human-readable summary. See `DESIGN.md` (experiment index) and
//! `EXPERIMENTS.md` (paper-vs-measured) at the workspace root.
//!
//! All results come from the *simulated* disk clock: runs are
//! deterministic, and "throughput" means operations per simulated
//! second, exactly the quantity the paper plots.

pub mod artifact;
pub mod chaos_run;
pub mod experiments;
pub mod fidelity;
pub mod metrics_run;
pub mod replicate_run;
pub mod scale;
pub mod scrub_run;
pub mod serve_run;
pub mod shard_run;
pub mod vlog_run;

pub use scale::BenchScale;

use lsm_core::Result;
use sealdb::{Store, StoreConfig, StoreKind};
use workloads::{MicroResult, RecordGenerator};

/// Builds a store of `kind` at the given scale.
pub fn build_store(kind: StoreKind, scale: &BenchScale) -> Result<Store> {
    let mut cfg = StoreConfig::new(kind, scale.sstable, scale.disk_capacity());
    cfg.seed = scale.seed;
    cfg.build()
}

/// Builds a store with an explicit disk-layout override (Fig. 2 runs
/// LevelDB on a conventional HDD).
fn build_store_with_layout(
    kind: StoreKind,
    scale: &BenchScale,
    layout: smr_sim::Layout,
) -> Result<Store> {
    let mut cfg = StoreConfig::new(kind, scale.sstable, scale.disk_capacity());
    cfg.seed = scale.seed;
    cfg.layout_override = Some(layout);
    cfg.build()
}

/// Random-loads a fresh store of `kind` with `scale.load_records()`
/// records; returns the store and the load result.
fn loaded_store(kind: StoreKind, scale: &BenchScale) -> Result<(Store, MicroResult)> {
    let mut store = build_store(kind, scale)?;
    let gen = scale.generator();
    let res = workloads::fill_random(&mut store, &gen, scale.load_records(), scale.seed)?;
    Ok((store, res))
}

/// Runs `f` once per store kind through [`artifact::run_cells`] and
/// returns results in input order.
fn per_store_parallel<T, F>(kinds: &[StoreKind], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(StoreKind) -> T + Sync,
{
    artifact::run_cells(kinds.len(), |i| f(kinds[i]))
}

/// A generator matching the scale's record shape.
pub fn generator(scale: &BenchScale) -> RecordGenerator {
    scale.generator()
}

/// Formats a byte count as mebibytes.
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1u64 << 20) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_store_parallel_preserves_order() {
        let kinds = [StoreKind::LevelDb, StoreKind::SmrDb, StoreKind::SealDb];
        let names = per_store_parallel(&kinds, |k| k.name().to_string());
        assert_eq!(names, vec!["LevelDB", "SMRDB", "SEALDB"]);
    }

    #[test]
    fn build_all_kinds_at_tiny_scale() {
        let scale = BenchScale::tiny();
        for kind in StoreKind::ALL {
            let mut store = build_store(kind, &scale).unwrap();
            store.put(b"k", b"v").unwrap();
            assert_eq!(store.get(b"k").unwrap(), Some(b"v".to_vec()));
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mib(3 << 20), "3.00");
    }
}
