//! Runs every experiment binary and regenerates `EXPERIMENTS.md` from the
//! recorded sections.
//!
//! Usage: `cargo run -p hermes-bench --release --bin run_all
//! [--quick|--full] [--jobs N]`
//!
//! Flags (including `--jobs`) are forwarded to every child binary, which
//! parallelises internally via the `hermes-exec` engine; the shared
//! `target/expcache/` is lock-protected, so children reuse each other's
//! baselines safely. Every experiment is timed; a summary table is
//! printed at the end, failures are collected (not fatal mid-run) and
//! listed last so they never scroll out of view. The timings are also
//! written to `target/experiments/BENCH_run_all.json` — per-experiment
//! wall clock plus simulated cycles and cycles/second scraped from each
//! experiment's run manifest — and snapshotted to the next tracked
//! `BENCH_<n>.json`. Host-speed kernels and per-layer attribution live
//! in `perfbench/`, not here.

use std::fs;
use std::process::Command;
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "table3",
    "table6",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17a",
    "fig17b",
    "fig17c",
    "fig17d",
    "fig18t",
    "fig18p",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "hier_sweep",
    "tlb_sweep",
    "sharing_sweep",
    "filter_sweep",
    "probe_demo",
    "ooo_sweep",
];

/// Sums the `"cycles"` stat over a manifest's *computed* entries (cache
/// hits cost no simulation time, so they are excluded from throughput;
/// `"computed"` is `Provenance::Computed`'s manifest label). Tolerant by
/// construction — the manifest writer is in-tree and emits one entry per
/// line with a fixed key order, so a light scrape beats a JSON parser
/// dependency; any shape surprise degrades to 0. Cycle counts are
/// integers, and summing them as integers keeps an empty sum at `0`
/// (an empty `f64` sum is `-0.0`, which prints as `-0`).
fn simulated_cycles(manifest: &str) -> u64 {
    manifest
        .lines()
        .filter(|l| l.contains("\"provenance\": \"computed\""))
        .filter_map(|l| {
            let v = l.split("\"cycles\": ").nth(1)?;
            let end = v.find(|c: char| !c.is_ascii_digit()).unwrap_or(v.len());
            v[..end].parse::<u64>().ok()
        })
        .sum()
}

/// One experiment's row in `BENCH_run_all.json`.
struct Row<'a> {
    name: &'a str,
    ok: bool,
    wall_s: f64,
    sim_cycles: u64,
}

/// Renders the perf-trajectory artifact: wall clock per experiment plus
/// simulator throughput (simulated cycles per wall second).
fn bench_json(rows: &[Row], total_wall_s: f64) -> String {
    let mut bench = String::from("{\n  \"experiments\": [");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            bench.push(',');
        }
        let rate = if r.wall_s > 0.0 {
            r.sim_cycles as f64 / r.wall_s
        } else {
            0.0
        };
        bench.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"ok\": {}, \"wall_s\": {:.3}, \
             \"sim_cycles\": {}, \"cycles_per_sec\": {rate:.0}}}",
            r.name, r.ok, r.wall_s, r.sim_cycles
        ));
    }
    bench.push_str(&format!(
        "\n  ],\n  \"total_wall_s\": {total_wall_s:.3}\n}}\n"
    ));
    bench
}

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--record")
        .collect();
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe has a parent dir")
        .to_path_buf();

    let total_start = Instant::now();
    let mut timings: Vec<(&str, bool, f64)> = Vec::new();
    for exp in EXPERIMENTS {
        eprintln!("=== {exp} ===");
        // Drop any section and manifest a previous run recorded, so a
        // failing experiment comes out *missing* from EXPERIMENTS.md
        // (with a warning below) and the perf-trajectory artifacts,
        // instead of silently resurrecting stale numbers.
        let _ = fs::remove_file(format!("target/experiments/{exp}.md"));
        let _ = fs::remove_file(format!("target/experiments/{exp}.json"));
        let mut cmd = Command::new(exe_dir.join(exp));
        cmd.arg("--record");
        for a in &args {
            cmd.arg(a);
        }
        let start = Instant::now();
        let ok = match cmd.status() {
            Ok(status) => {
                if !status.success() {
                    eprintln!("!!! {exp} failed with {status}");
                }
                status.success()
            }
            Err(e) => {
                eprintln!("!!! failed to spawn {exp}: {e}");
                false
            }
        };
        timings.push((exp, ok, start.elapsed().as_secs_f64()));
    }

    // Assemble EXPERIMENTS.md from whatever sections were recorded.
    let mut doc = String::from(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Regenerated by `cargo run -p hermes-bench --release --bin run_all`.\n\
         Every section corresponds to one figure or table of the paper's\n\
         evaluation; each ends with a shape-check summary comparing the\n\
         measured trend against the paper's reported numbers. Absolute\n\
         values differ (synthetic workloads, and instruction windows so\n\
         short that the LLC never turns over); the comparisons of\n\
         interest are who wins, by roughly what factor, and where\n\
         crossovers fall.\n\n",
    );
    for exp in EXPERIMENTS {
        let path = format!("target/experiments/{exp}.md");
        match fs::read_to_string(&path) {
            Ok(s) => {
                doc.push_str(&s);
                doc.push('\n');
            }
            Err(e) => eprintln!("warning: missing section {path}: {e}"),
        }
    }
    fs::write("EXPERIMENTS.md", &doc).expect("write EXPERIMENTS.md");
    eprintln!("wrote EXPERIMENTS.md ({} bytes)", doc.len());

    // Wall-clock summary, slowest visible at a glance.
    eprintln!();
    eprintln!("=== run_all summary ===");
    eprintln!("{:<10} {:>8} {:>10}", "experiment", "status", "wall");
    for (exp, ok, secs) in &timings {
        eprintln!(
            "{:<10} {:>8} {:>9.1}s",
            exp,
            if *ok { "ok" } else { "FAILED" },
            secs
        );
    }
    eprintln!(
        "{:<10} {:>8} {:>9.1}s",
        "TOTAL",
        "",
        total_start.elapsed().as_secs_f64()
    );

    let rows: Vec<Row> = timings
        .iter()
        .map(|&(name, ok, wall_s)| Row {
            name,
            ok,
            wall_s,
            sim_cycles: fs::read_to_string(format!("target/experiments/{name}.json"))
                .map(|m| simulated_cycles(&m))
                .unwrap_or(0),
        })
        .collect();
    let bench = bench_json(&rows, total_start.elapsed().as_secs_f64());
    let _ = fs::create_dir_all("target/experiments");
    match fs::write("target/experiments/BENCH_run_all.json", &bench) {
        Ok(()) => eprintln!("wrote target/experiments/BENCH_run_all.json"),
        Err(e) => eprintln!("warning: could not write BENCH_run_all.json: {e}"),
    }

    // Also snapshot the timings to a tracked `BENCH_<n>.json` at the repo
    // root (next unused index), so the perf trajectory across PRs lives
    // in git history rather than only in CI artifacts.
    let next = (1..)
        .find(|n| !std::path::Path::new(&format!("BENCH_{n}.json")).exists())
        .expect("unbounded range");
    let snap = format!("BENCH_{next}.json");
    match fs::write(&snap, &bench) {
        Ok(()) => eprintln!("wrote {snap}"),
        Err(e) => eprintln!("warning: could not write {snap}: {e}"),
    }

    let failed: Vec<&str> = timings
        .iter()
        .filter(|(_, ok, _)| !ok)
        .map(|(exp, _, _)| *exp)
        .collect();
    if !failed.is_empty() {
        eprintln!();
        eprintln!("FAILED experiments: {}", failed.join(", "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{bench_json, simulated_cycles, Row};

    /// Pins the scraper to the manifest writer's actual entry shape
    /// (`Provenance::Computed` labels itself `"computed"`, and `cycles`
    /// is the last stat on the line).
    #[test]
    fn scraper_matches_manifest_entry_shape() {
        let manifest = concat!(
            "  \"entries\": [\n",
            "    {\"key\": \"a\", \"tag\": \"t\", \"workload\": \"w\", ",
            "\"provenance\": \"computed\", \"wall_ms\": 1.5, ",
            "\"stats\": {\"ipc\": 0.5, \"cycles\": 517268}},\n",
            "    {\"key\": \"b\", \"tag\": \"t\", \"workload\": \"w\", ",
            "\"provenance\": \"cache\", \"wall_ms\": 0.1, ",
            "\"stats\": {\"ipc\": 0.5, \"cycles\": 99999}},\n",
            "    {\"key\": \"c\", \"tag\": \"t\", \"workload\": \"w\", ",
            "\"provenance\": \"computed\", \"wall_ms\": 1.0, ",
            "\"stats\": {\"ipc\": 1.1, \"cycles\": 36318}},\n",
            "  ]\n",
        );
        assert_eq!(simulated_cycles(manifest), 517268 + 36318);
        assert_eq!(simulated_cycles("not a manifest"), 0);
    }

    /// A manifest whose entries are all cache hits sums to a plain `0`,
    /// never `-0`, in the row `run_all` writes.
    #[test]
    fn no_computed_rows_sum_to_zero() {
        let manifest = concat!(
            "  \"entries\": [\n",
            "    {\"key\": \"a\", \"tag\": \"t\", \"workload\": \"w\", ",
            "\"provenance\": \"cache\", \"wall_ms\": 0.1, ",
            "\"stats\": {\"ipc\": 0.5, \"cycles\": 99999}},\n",
            "  ]\n",
        );
        let cycles = simulated_cycles(manifest);
        assert_eq!(cycles, 0);
        assert_eq!(format!("{cycles}"), "0");
        assert_eq!(simulated_cycles(""), 0);
    }

    /// The artifact is valid JSON with one ok row, one failed row and
    /// no rows at all; a zero-time row's rate is a plain `0`.
    #[test]
    fn bench_json_is_valid_for_ok_failed_and_empty_rows() {
        let row = |name, ok, wall_s, sim_cycles| Row {
            name,
            ok,
            wall_s,
            sim_cycles,
        };
        let cases = [
            (
                vec![row("fig09", true, 2.0, 1000)],
                "\"ok\": true, \"wall_s\": 2.000, \"sim_cycles\": 1000, \"cycles_per_sec\": 500}",
            ),
            (
                vec![row("fig10", false, 0.0, 0)],
                "\"ok\": false, \"wall_s\": 0.000, \"sim_cycles\": 0, \"cycles_per_sec\": 0}",
            ),
            (vec![], "\"experiments\": [\n  ],"),
        ];
        for (rows, expect) in cases {
            let j = bench_json(&rows, 1.5);
            assert!(hermes_probe::validate_json(&j).is_ok(), "{j}");
            assert!(j.contains(expect), "{j}");
            assert!(j.ends_with("\"total_wall_s\": 1.500\n}\n"), "{j}");
        }
    }
}
