//! # vdo-bench — the experiment harness
//!
//! The `exp_report` binary regenerates every experiment table in
//! `EXPERIMENTS.md` and asserts the CI budgets; this library hosts its
//! workload constructors, the larger experiment sections (E15–E19),
//! and the stdout/stderr routing of the tables. Throughput and latency
//! of the whole loop are measured by the repository benchmark
//! (`perfbench/`), not here.

pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e19;
pub mod out;
pub mod workloads;
