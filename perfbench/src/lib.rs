//! # addict-perfbench
//!
//! The repository's benchmark: end-to-end replay throughput, set-up time,
//! peak memory and job latency on three workloads, plus a traced run that
//! attributes time to layers. See `README.md` in this directory.

pub mod counting;
pub mod inputs;
mod machine_drive;
pub mod measure;
pub mod metrics;
mod replay;
pub mod run;
mod service;
mod spans;
