//! The enforcing host-throughput gate: replays every Table I workload's
//! Im2col forward, the Fig. 7 max backward and the pinned model segments
//! under all three execution backends (bit-identity and
//! the sliced floor are asserted in-run by `collect_host`), writes
//! `BENCH_host.json` at the workspace root, and fails if the sliced
//! speedup ratios fell more than [`host::HOST_TOLERANCE`] (geomean) or
//! twice that (any one row) below the committed baseline
//! (`crates/bench/baselines/host.json`), or if the tracked rows changed.
//!
//! If this fails after an *intentional* executor change, regenerate with
//! `cargo run --release -p dv-bench --bin repro -- gate` and commit the
//! refreshed `host.json`.

use dv_bench::host;
use std::path::Path;

#[test]
fn host_gate_no_throughput_regressions_vs_committed_baseline() {
    match host::run_host() {
        Ok(doc) => {
            let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
            std::fs::write(root.join("BENCH_host.json"), &doc).expect("write BENCH_host.json");
        }
        Err(regressions) => panic!(
            "host-throughput regressions vs the committed baseline:\n  {}\n\
             (if intentional, regenerate with `cargo run --release -p dv-bench --bin repro -- gate`)",
            regressions.join("\n  ")
        ),
    }
}
