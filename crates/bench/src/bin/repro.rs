//! `repro` — regenerate the paper's tables and figures on the simulator.
//!
//! ```sh
//! cargo run --release -p dv-bench --bin repro -- all
//! cargo run --release -p dv-bench --bin repro -- fig7a fig8b
//! ```
//!
//! Each experiment prints a paper-style table and writes
//! `results/<name>.csv`.

use dv_bench::experiments;
use dv_bench::Table;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    // Prefer the workspace root (where Cargo.toml with [workspace] lives).
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

fn run_one(name: &str) -> Option<(String, Table)> {
    let table = match name {
        "fig7a" => experiments::fig7a(),
        "fig7b" => experiments::fig7b(),
        "fig7c" => experiments::fig7c(),
        "fig8a" => experiments::fig8(1),
        "fig8b" => experiments::fig8(2),
        "fig8c" => experiments::fig8(3),
        "table1" => experiments::table1(),
        "ablate" => experiments::ablate(),
        "avgpool" => experiments::avgpool(),
        "conv" => experiments::conv_substrate(),
        "scaling" => experiments::scaling(),
        "dgrad" => experiments::dgrad(),
        "cubeavg" => experiments::cubeavg(),
        "breakdown" => experiments::breakdown(),
        "kernels" => experiments::kernels(),
        "fusion" => experiments::fusion(),
        "threshold" => experiments::threshold(),
        _ => return None,
    };
    Some((name.to_string(), table))
}

const ALL: [&str; 17] = [
    "fig7a",
    "fig7b",
    "fig7c",
    "fig8a",
    "fig8b",
    "fig8c",
    "table1",
    "ablate",
    "avgpool",
    "conv",
    "scaling",
    "dgrad",
    "cubeavg",
    "breakdown",
    "kernels",
    "fusion",
    "threshold",
];

/// `repro -- gate`: replay every declared section of the cycle and host
/// gate documents, refresh the committed baselines and the
/// workspace-root `BENCH_pooling.json` / `BENCH_host.json`, and report
/// any drift against the previous baselines (informational here — the
/// *enforcing* comparisons are the `perf_gate` and `host_gate` tests).
/// The host rows are per-column medians of several collections
/// ([`dv_bench::host::collect_host_median`]).
fn run_gate() {
    use dv_bench::gate::{self, Document, Row};
    use dv_bench::host;
    type Collect = fn() -> Vec<Vec<Row>>;
    type Compare = fn(&[Vec<Row>], &[Vec<Row>]) -> Vec<String>;
    let root = results_dir()
        .parent()
        .map(PathBuf::from)
        .unwrap_or_default();
    let docs: [(Document, &str, Collect, Compare); 2] = [
        (
            gate::POOLING,
            gate::COMMITTED_BASELINE,
            || gate::POOLING.collect(),
            |c, b| gate::POOLING.compare(c, b, gate::TOLERANCE),
        ),
        (
            host::HOST,
            host::COMMITTED_HOST_BASELINE,
            || vec![host::collect_host_median()],
            |c, b| host::compare_host(&c[0], &b[0], host::HOST_TOLERANCE),
        ),
    ];
    for (doc, committed, collect, compare) in docs {
        let old = doc.parse(committed).ok();
        let current = collect();
        let bench_path = root.join(format!("BENCH_{}.json", doc.benchmark));
        std::fs::write(&bench_path, doc.render(&current, old.as_deref()))
            .expect("write BENCH json");
        println!("wrote {}", bench_path.display());
        let baseline_path = root.join(format!("crates/bench/baselines/{}.json", doc.benchmark));
        std::fs::write(&baseline_path, doc.render(&current, None))
            .expect("write committed baseline");
        println!("refreshed {}", baseline_path.display());
        if let Some(old) = old {
            for r in compare(&current, &old) {
                println!("note: vs previous baseline: {r}");
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "gate") {
        run_gate();
        if args.len() == 1 {
            return;
        }
    }
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter()
            .filter(|s| *s != "gate")
            .map(|s| s.as_str())
            .collect()
    };

    let dir = results_dir();
    let mut unknown = Vec::new();
    for name in wanted {
        match run_one(name) {
            Some((name, table)) => {
                println!("{}", table.render());
                if name.starts_with("fig8") {
                    println!("{}", dv_bench::plot::plot_table(&table, "H=W", "cycles"));
                }
                if let Err(e) = table.write_csv(&dir, &name) {
                    eprintln!("warning: could not write {name}.csv: {e}");
                } else {
                    println!("   -> {}\n", dir.join(format!("{name}.csv")).display());
                }
            }
            None => unknown.push(name),
        }
    }
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment(s): {} — available: {}, gate",
            unknown.join(", "),
            ALL.join(", ")
        );
        std::process::exit(2);
    }
}
