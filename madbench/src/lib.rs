//! Open-loop MAD benchmark for the Railgun engine: workloads, an exact
//! reference, the open-loop generator and per-layer accounting. `main.rs`
//! is the command line; see `README.md` for the workloads and metrics.

pub mod host;
pub mod layers;
pub mod reference;
pub mod runner;
pub mod workload;
