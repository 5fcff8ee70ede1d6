//! # workloads — benchmark drivers for the SEALDB reproduction
//!
//! The paper evaluates with (a) the micro-benchmarks distributed with
//! LevelDB (`fillseq` / `fillrandom` / `readseq` / `readrandom`, §IV-A)
//! and (b) the YCSB core workloads A–F (§IV-A, Fig. 9). This crate
//! reproduces both against any [`sealdb::Store`], with throughput
//! computed from the *simulated* disk clock so results are deterministic.

/// Open-loop arrival processes for latency-under-load sweeps.
pub mod arrivals;
/// Key-choice distributions: zipfian, scrambled zipfian, latest.
mod distributions;
/// Deterministic operation-stream generation.
pub mod generator;
/// LevelDB-style micro-benchmark workloads.
pub mod micro;
/// YCSB core workloads A-F.
mod ycsb;

pub use arrivals::{ArrivalProcess, InterArrival};
pub use distributions::{Distribution, Latest, ScatterPermutation, ScrambledZipfian, Zipfian};
pub use generator::RecordGenerator;
pub use micro::{fill_random, fill_seq, permute, read_random, read_seq, MicroResult};
pub use ycsb::{run as run_ycsb, Mix, OpStream, WorkloadSpec, YcsbOp, YcsbResult};
