//! # seal-chaos — cluster-wide chaos harness for the SEALDB stack
//!
//! Three pieces, layered:
//!
//! * [`schedule`] — seeded random **fault schedules**: interleavings
//!   of serving traffic with device faults (torn writes, corruption,
//!   latent sector errors, band failures, fail-slow), cluster faults
//!   (partitions, kills, revives, failovers, primary restarts) and
//!   maintenance chaos (GC drains, scrub passes, shard migrations).
//!   Same seed ⇒ same schedule, always.
//! * [`harness`] — the orchestrator that applies a schedule to a real
//!   composed deployment (replicated, sharded, vlog-enabled SEALDB
//!   stores on simulated SMR disks) and then runs the **end-to-end
//!   durability oracle**: no acked write lost, promised values served
//!   across migrations, survivor state-hash agreement, scrub
//!   remediation accounting, and (in debug builds) zero ordering-audit
//!   panics.
//! * [`shrink`] — **delta-debugging reduction**: a failing schedule is
//!   minimized to the handful of events that matter, yielding a
//!   replayable [`ChaosRepro`] ready to pin as a regression test.
//!
//! Everything is deterministic on top of the repository's simulated
//! clock and seeded RNG discipline; there is no wall clock and no
//! ambient randomness anywhere in this crate.

/// Orchestrator + end-to-end durability oracle over a composed deployment.
pub mod harness;
/// Seeded random fault-schedule generation (same seed ⇒ same schedule).
pub mod schedule;
/// Delta-debugging minimization of failing schedules into replayable repros.
pub mod shrink;

pub use harness::{ChaosConfig, ChaosHarness, Coverage, OracleReport, KEYSPACE};
pub use schedule::{generate, ChaosEvent, SplitMix};
pub use shrink::{schedule_fails, shrink, ChaosRepro};
