//! The repository benchmark.
//!
//! One closed-loop client thread drives the public Lumos library API
//! on one of four seeded workloads (`predict`, `search`, `robust`,
//! `replay`), checks every output, and reports end-to-end metrics
//! (untraced run) or per-layer metrics (traced run). See
//! `perfbench/README.md` for the workloads, the metrics and reference
//! figures.

pub mod ground;
pub mod harness;
pub mod predict;
pub mod replay;
pub mod rng;
pub mod robust;
pub mod search;
pub mod spans;

pub use harness::{run, Config, Metric, Outcome};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["predict", "search", "robust", "replay"];
