#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (Section VI) on the simulator.
//!
//! * `repro` binary — prints the paper-style rows and writes CSVs under
//!   `results/` (`cargo run --release -p dv-bench --bin repro -- all`).
//! * criterion benches — wall-time of the simulator itself on the same
//!   workloads (`cargo bench`).
//!
//! | experiment | paper | function |
//! |---|---|---|
//! | E1 | Fig. 7a MaxPool forward | [`experiments::fig7a`] |
//! | E2 | Fig. 7b forward + argmax | [`experiments::fig7b`] |
//! | E3 | Fig. 7c backward | [`experiments::fig7c`] |
//! | E4-6 | Fig. 8a/b/c stride study | [`experiments::fig8`] |
//! | E7 | Table I workloads | [`experiments::table1`] |
//! | E8 | cost-model ablation | [`experiments::ablate`] |
//! | E9 | AvgPool extension | [`experiments::avgpool`] |
//! | E10 | Cube-Unit convolution substrate | [`experiments::conv_substrate`] |

pub mod experiments;
pub mod gate;
pub mod host;
pub mod inputs;
pub mod json;
pub mod plot;
pub mod report;

pub use report::Table;
