//! # smr-sim — a discrete-time SMR disk simulator
//!
//! Substrate for the SEALDB reproduction. The paper evaluates LSM-tree
//! key-value stores on an *emulated* host-managed shingled-magnetic-
//! recording drive; this crate provides that emulation in pure Rust:
//!
//! * [`disk::Disk`] — a byte-addressed simulated drive with real contents
//!   (reads return what was written), one of four [`disk::Layout`]s
//!   (conventional HDD; fixed-band SMR with read-modify-write; raw
//!   host-managed SMR with Caveat-Scriptor guard semantics; host-aware
//!   SMR with a persistent media cache and cleaning stalls), and a
//!   mechanical [`timemodel::TimeModel`] calibrated against the paper's
//!   Table II.
//! * [`stats::IoStats`] — the paper's Table I accounting: `WA`, `AWA`
//!   and `MWA = WA × AWA`.
//! * [`trace::TraceRecorder`] — physical-placement traces for the layout
//!   figures (Fig. 2, 11 and 13).
//!
//! Runs are fully deterministic: time is simulated, so identical inputs
//! produce identical clocks, amplification ratios and traces.
//!
//! ```
//! use smr_sim::{Disk, Extent, IoKind, Layout, TimeModel};
//!
//! let cap = 1 << 30;
//! let mut disk = Disk::new(cap, Layout::RawHmSmr { guard_bytes: 1 << 20 }, TimeModel::smr_st5000as0011(cap));
//! disk.write(Extent::new(0, 4096), &[7u8; 4096], IoKind::Raw).unwrap();
//! assert_eq!(disk.read(Extent::new(0, 4096), IoKind::Raw).unwrap(), vec![7u8; 4096]);
//! assert!(disk.clock_ns() > 0);
//! ```

/// Debug-build shingle auditor shadow-checking raw HM-SMR writes.
pub mod audit;
/// Shared retry backoff: bounded exponential.
pub mod backoff;
/// The simulated disk: layouts, timing, write-constraint checks.
pub mod disk;
/// Disk fault and constraint-violation errors.
pub mod error;
/// Byte extents and the interval set tracking valid data.
mod extent;
/// Seeded fault-injection plans (torn writes, read errors).
pub mod fault;
/// Seeded cluster network: latency, drops, partitions, kills.
pub mod net;
/// Unified observability: counters, gauges, latency recorders.
pub mod obs;
/// Debug-build happens-before auditor for durability ordering.
pub mod ordering;
/// I/O statistics and amplification accounting.
pub mod stats;
/// Copy-on-write sparse chunk store backing disk contents.
pub mod store;
/// Mechanical time model (seek, rotation, transfer).
mod timemodel;
/// Optional per-I/O trace recording.
pub mod trace;

pub use backoff::bounded_backoff_ns;
pub use disk::{Disk, DiskSnapshot, Layout};
pub use error::{DiskError, DiskResult};
pub use extent::{Extent, ExtentSet};
pub use fault::{ClusterFaultClass, ClusterFaultPlan, DeviceFaultClass, FaultPlan};
pub use net::NetModel;
pub use obs::{
    AllocEvent, EventTracer, LatencyHistogram, MetricsRegistry, Obs, ObsEventKind, ObsLayer,
};
pub use ordering::OrderingAuditor;
pub use stats::{neutral_ratio, FaultStats, IoKind, IoStats, KindCounters};
pub use timemodel::TimeModel;
pub use trace::{TraceDir, TraceEvent, TraceRecorder};
