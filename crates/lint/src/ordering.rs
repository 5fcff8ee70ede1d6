//! The durability-ordering annotation table.
//!
//! Ordering facts are declared here — effect classes mapped to known
//! workspace call names — so the rules in [`crate::dataflow`] stay
//! dependency-free and auditable: to see exactly what the linter
//! believes about a function, grep this file.
//!
//! Three *effect classes* describe what a call guarantees once it
//! returns:
//! - [`DURABLE`](crate::ordering::DURABLE) — bytes previously handed to the store are on stable
//!   media (`sync_wal`, `append_durable`, ...).
//! - [`CHECKPOINT`](crate::ordering::CHECKPOINT) — the manifest has committed auxiliary state, i.e.
//!   the value-log segment directory (`commit_aux_state`).
//! - [`FENCE`](crate::ordering::FENCE) — damaged or dying storage has been fenced off from
//!   future allocation and serving (`quarantine_extent`, `seal`, ...).
//!
//! *Triggers* are the calls whose correctness depends on one of those
//! effects having already happened; the dataflow pass checks each
//! trigger against the effect state accumulated on the paths leading
//! to it. Trigger matching is deliberately direct-call-only: a helper
//! that *contains* a trigger is analysed at its own call sites, in its
//! own body.

/// Effect bit: previously written bytes are on stable media.
pub(crate) const DURABLE: u8 = 1 << 0;
/// Effect bit: the manifest committed the value-log segment directory.
pub(crate) const CHECKPOINT: u8 = 1 << 1;
/// Effect bit: damaged storage is fenced from allocation and serving.
pub(crate) const FENCE: u8 = 1 << 2;

/// Effects a call with this bare name *provides* once it returns.
/// Provider matching is permissive by design: providers only ever
/// satisfy dominance requirements, never create findings.
pub(crate) fn provides(name: &str) -> u8 {
    match name {
        "sync_wal" | "append_durable" | "fsync" | "sync_all" | "sync" => DURABLE,
        // Committing aux state rides the manifest's durable append.
        "commit_aux_state" => DURABLE | CHECKPOINT,
        "quarantine_extent" | "quarantine_segment" | "quarantine" | "seal" => FENCE,
        _ => 0,
    }
}

/// Calls that acknowledge a write to a client. Each must be dominated
/// by [`DURABLE`] on every path (`SyncBeforeAck`).
pub(crate) const ACK_TRIGGERS: [&str; 4] = ["ack", "ack_write", "ack_client", "mark_acked"];

/// Calls that hand a batch to the LSM (and thus the WAL). When the
/// batch carries value-log pointers — detected by a *direct*
/// [`POINTER_MARKER`] call earlier in the same function — a
/// [`CHECKPOINT`] must have happened on at least one path before it
/// (`CheckpointBeforePointer`, the PR 8 bug class).
pub(crate) const POINTER_WRITE_TRIGGERS: [&str; 2] = ["write", "write_unaccounted"];

/// The call that turns a value-log address into LSM-visible bytes.
/// Used only as an in-function marker; it is never propagated through
/// call-graph summaries (too many functions are named `write`).
pub(crate) const POINTER_MARKER: &str = "encode_pointer";

/// Calls that rewrite or salvage damaged data. Each must be dominated
/// by [`FENCE`] on every path (`FenceBeforeRepair`), so a repair can
/// never race new allocations into the bad region.
pub(crate) const REPAIR_TRIGGERS: [&str; 2] = ["rebuild_file", "salvage_prefix"];

/// Calls that recycle a value-log segment, freeing its bytes for
/// reuse. Each must be dominated by [`DURABLE`] on every path
/// (`RecycleAfterFixupsDurable`): the pointer fixups that redirect
/// live keys away from the victim must hit stable media before the
/// victim's bytes can be overwritten.
pub(crate) const RECYCLE_TRIGGERS: [&str; 1] = ["retire_segment"];

/// Renders an effect set for diagnostics, stable order.
pub(crate) fn effect_names(set: u8) -> String {
    let mut parts = Vec::new();
    if set & DURABLE != 0 {
        parts.push("Durable");
    }
    if set & CHECKPOINT != 0 {
        parts.push("Checkpoint");
    }
    if set & FENCE != 0 {
        parts.push("Fence");
    }
    if parts.is_empty() {
        parts.push("none");
    }
    parts.join("+")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn providers_and_triggers_do_not_overlap() {
        // A name that both provides an effect and triggers a check
        // would satisfy itself; keep the sets disjoint.
        for name in ACK_TRIGGERS
            .iter()
            .chain(POINTER_WRITE_TRIGGERS.iter())
            .chain(REPAIR_TRIGGERS.iter())
            .chain(RECYCLE_TRIGGERS.iter())
        {
            assert_eq!(provides(name), 0, "`{name}` both provides and triggers");
        }
    }

    #[test]
    fn effect_rendering_is_stable() {
        assert_eq!(effect_names(0), "none");
        assert_eq!(effect_names(DURABLE | FENCE), "Durable+Fence");
        assert_eq!(effect_names(DURABLE | CHECKPOINT), "Durable+Checkpoint");
    }
}
