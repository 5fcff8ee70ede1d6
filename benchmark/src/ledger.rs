//! The per-layer ledger: every `catalog::PER_LAYER` metric of one traced
//! rep, filled from the store's public counters (timed-phase deltas) and from
//! the benchmark's own spans. A metric that does not apply stays 0.

use crate::cases::{RepOut, Workload};
use crate::catalog::PER_LAYER;
use crate::spans::{self, Name, Span};
use crate::stats::percentile;
use crate::surface::KIND_NAMES;
use std::collections::BTreeMap;

const MIB: f64 = (1u64 << 20) as f64;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[derive(Debug, Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    /// Sets a metric; the name must be in the catalog.
    pub fn set(&mut self, name: &str, value: f64) {
        let entry = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a catalogued per-layer metric"));
        self.0.insert(entry.name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every catalogued metric in catalog order, 0 where nothing was set.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, self.get(m.name)))
            .collect()
    }

    pub fn table(&self) -> String {
        let mut out = format!("{:<44} {:>16} {}\n", "per-layer metric", "value", "unit");
        for (name, unit, value) in self.rows() {
            out.push_str(&format!("{name:<44} {value:>16.4} {unit}\n"));
        }
        out
    }
}

/// Counters of the measured store over the timed phase(s), plus the serving
/// and cluster extras: simulated-clock values only, so every row repeats
/// exactly for a seed.
pub fn counters(rep: &RepOut, ledger: &mut Ledger) {
    let d = &rep.delta;
    // Shares of the simulated time of everything `delta` covers. `raw` has no
    // row of its own and lands in `other` with stall penalties, idle gaps and
    // network waits.
    let sim = d.sim_ns as f64;
    let mut named = 0.0;
    for (name, &ns) in KIND_NAMES.iter().zip(&d.kind_time_ns) {
        if *name == "raw" {
            continue;
        }
        let share = ratio(ns as f64, sim);
        named += share;
        ledger.set(&format!("smr-sim.time_share.{name}"), share);
    }
    ledger.set(
        "smr-sim.time_share.other",
        if sim == 0.0 { 0.0 } else { 1.0 - named },
    );
    ledger.set("smr-sim.device_write_ops", d.device_write_ops as f64);
    ledger.set(
        "smr-sim.device_write_mib",
        d.device_written_bytes as f64 / MIB,
    );
    ledger.set("smr-sim.device_read_ops", d.device_read_ops as f64);
    ledger.set("smr-sim.device_read_mib", d.device_read_bytes as f64 / MIB);
    ledger.set("smr-sim.seeks", d.seeks as f64);
    ledger.set("smr-sim.band_rmw_events", d.band_rmw_events as f64);
    ledger.set("smr-sim.awa", d.awa);
    ledger.set(
        "smr-sim.device_read_p99_ms",
        d.device_read_p99_ns as f64 / 1e6,
    );
    ledger.set(
        "smr-sim.device_write_p99_ms",
        d.device_write_p99_ns as f64 / 1e6,
    );

    ledger.set("placement.band_allocs", d.band_allocs as f64);
    ledger.set("placement.band_appends", d.band_appends as f64);
    ledger.set("placement.band_recycles", d.band_recycles as f64);
    ledger.set("placement.allocated_mib", d.allocated_bytes as f64 / MIB);
    ledger.set("placement.high_water_mib", d.high_water_bytes as f64 / MIB);
    ledger.set("placement.free_fragments", d.free_fragments as f64);

    ledger.set("lsm-core.flushes", d.flushes as f64);
    ledger.set("lsm-core.flush_mib", d.flush_bytes as f64 / MIB);
    ledger.set("lsm-core.compactions", d.compactions as f64);
    ledger.set(
        "lsm-core.compaction_in_mib",
        d.compaction_in_bytes as f64 / MIB,
    );
    ledger.set(
        "lsm-core.compaction_out_mib",
        d.compaction_out_bytes as f64 / MIB,
    );
    ledger.set("lsm-core.trivial_moves", d.trivial_moves as f64);
    ledger.set(
        "lsm-core.compaction_p99_ms",
        d.compaction_p99_ns as f64 / 1e6,
    );
    ledger.set("lsm-core.stall.slowdowns", d.stall_slowdowns as f64);
    ledger.set("lsm-core.stall.stops", d.stall_stops as f64);
    ledger.set(
        "lsm-core.stall.memtable_waits",
        d.stall_memtable_waits as f64,
    );
    ledger.set("lsm-core.stall.time_share", ratio(d.stall_ns as f64, sim));
    ledger.set(
        "lsm-core.cache.block_hit_ratio",
        ratio(
            d.block_cache_hits as f64,
            (d.block_cache_hits + d.block_cache_misses) as f64,
        ),
    );
    ledger.set(
        "lsm-core.cache.table_hit_ratio",
        ratio(
            d.table_cache_hits as f64,
            (d.table_cache_hits + d.table_cache_misses) as f64,
        ),
    );
    ledger.set(
        "lsm-core.device_reads_per_get",
        ratio(d.get_device_reads as f64, rep.gets as f64),
    );

    ledger.set("sealdb.set.count", d.sets as f64);
    ledger.set(
        "sealdb.set.avg_files",
        ratio(d.set_files as f64, d.sets as f64),
    );
    ledger.set("sealdb.op.sim_p50_ms", rep.latency.sim_p50 / 1e6);
    ledger.set("sealdb.op.sim_p99_ms", rep.latency.sim_p99 / 1e6);

    ledger.set("seal-vlog.appended_mib", d.vlog_appended_bytes as f64 / MIB);
    ledger.set(
        "seal-vlog.relocated_mib",
        d.vlog_relocated_bytes as f64 / MIB,
    );
    ledger.set(
        "seal-vlog.reclaimed_mib",
        d.vlog_reclaimed_bytes as f64 / MIB,
    );
    ledger.set(
        "seal-vlog.gc_wa",
        ratio(
            (d.vlog_appended_bytes + d.vlog_relocated_bytes) as f64,
            d.vlog_appended_bytes as f64,
        ),
    );
    ledger.set("seal-vlog.segments", d.vlog_segments as f64);

    if let Some(s) = &rep.serve {
        ledger.set("seal-vlog.gc_steps", s.vlog_gc_steps as f64);
        ledger.set("seal-front.saturation_ops_per_s", s.saturation_ops_per_s);
        ledger.set(
            "seal-front.queue_delay_p99_ms",
            s.queue_delay_p99_ns as f64 / 1e6,
        );
        ledger.set("seal-front.queue_depth_max", s.queue_depth_max as f64);
        ledger.set("seal-front.avg_group_size", s.avg_group_size);
        ledger.set("seal-front.idle_compactions", s.idle_compactions as f64);
    }
    if let Some((c, ack_wait_share)) = &rep.cluster {
        ledger.set("seal-replica.shipped_frames", c.shipped_frames as f64);
        ledger.set("seal-replica.shipped_mib", c.shipped_bytes as f64 / MIB);
        ledger.set("seal-replica.ack_wait_share", *ack_wait_share);
    }
}

/// Host-clock rows of a traced rep: host time per simulated event and per
/// served op, and from its spans the calls' latencies and who spent the op's
/// time.
pub fn host_rows(rep: &RepOut, all: &[Span], ledger: &mut Ledger) {
    ledger.set(
        "smr-sim.host_ns_per_device_io",
        ratio(rep.host_ns as f64, rep.delta.io_ops as f64),
    );
    if let Some(s) = &rep.serve {
        ledger.set("seal-front.host_ns_per_op", s.host_ns_per_op);
    }

    for (name, prefix) in [
        (Name::Put, "sealdb.put"),
        (Name::Get, "sealdb.get"),
        (Name::Scan, "sealdb.scan"),
        (Name::ReplicaPut, "seal-replica.put"),
    ] {
        let (p50, p99) = spans::p50_p99(&spans::host_durations(all, name));
        ledger.set(&format!("{prefix}.host_p50_ns"), p50);
        ledger.set(&format!("{prefix}.host_p99_ns"), p99);
    }
    let put_sim = spans::sim_durations(all, Name::Put);
    ledger.set(
        "sealdb.put.sim_p999_ms",
        percentile(&put_sim, 0.999) as f64 / 1e6,
    );

    let rows = spans::aggregate(all);
    let self_ns = |names: &[Name]| -> f64 {
        rows.iter()
            .filter(|r| names.contains(&r.name))
            .map(|r| r.host_self_ns)
            .sum::<u64>() as f64
    };
    // Shares of the op spans' host time (the whole phase where the workload is
    // one `run_serve` call and has no op spans).
    let ops = rows.iter().find(|r| r.name == Name::Op);
    let span_total = match ops {
        Some(op) => op.host_total_ns as f64,
        None => self_ns(&[Name::Phase, Name::RunServe]),
    };
    ledger.set(
        "sealdb.host_share",
        ratio(
            self_ns(&[
                Name::Put,
                Name::Get,
                Name::Scan,
                Name::ReplicaPut,
                Name::RunServe,
            ]),
            span_total,
        ),
    );
    ledger.set(
        "workloads.host_share",
        ratio(
            self_ns(&[Name::Draw, Name::Key, Name::Value, Name::Verify]),
            span_total,
        ),
    );
}

/// `verify`'s share check. `other` is what no `IoKind` was charged for: the
/// device cannot be busy for longer than the phase lasted, so it is never
/// negative, and where the workload claims it ([`Workload::shares_sum_exactly`])
/// the `IoKind` times alone add up to the phase's simulated time.
pub fn check_shares(w: Workload, ledger: &Ledger) -> Result<(), String> {
    let other = ledger.get("smr-sim.time_share.other");
    if other < -1e-9 {
        return Err(format!(
            "{}: the IoKinds are charged {} of the simulated time",
            w.name(),
            1.0 - other
        ));
    }
    if w.shares_sum_exactly() && other > 1e-9 {
        return Err(format!(
            "{}: {other} of the simulated time is charged to no IoKind",
            w.name()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "not a catalogued")]
    fn unknown_names_are_refused() {
        Ledger::default().set("lsm-core.nope", 1.0);
    }

    #[test]
    fn rows_cover_the_catalog_in_order() {
        let mut l = Ledger::default();
        l.set("smr-sim.seeks", 3.0);
        let rows = l.rows();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows
            .iter()
            .zip(PER_LAYER.iter())
            .all(|(r, m)| r.0 == m.name));
        assert_eq!(l.get("smr-sim.seeks"), 3.0);
        assert_eq!(l.get("smr-sim.awa"), 0.0);
    }

    #[test]
    fn uncharged_time_fails_only_where_the_shares_are_claimed_to_sum() {
        let mut l = Ledger::default();
        l.set("smr-sim.time_share.other", 0.2);
        assert!(check_shares(Workload::ReadCold, &l).is_err());
        assert!(check_shares(Workload::ServeMixed, &l).is_ok());
        l.set("smr-sim.time_share.other", -0.01);
        assert!(check_shares(Workload::ServeMixed, &l).is_err());
        l.set("smr-sim.time_share.other", 0.0);
        assert!(check_shares(Workload::ReadCold, &l).is_ok());
    }
}
