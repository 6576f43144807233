//! Runs every experiment as one batch and regenerates `EXPERIMENTS.md`.
//!
//! Usage: `cargo run -p hermes-bench --release --bin run_all
//! [--quick|--full] [--record] [--jobs N]`
//!
//! The 30 experiments of `hermes_bench::experiments::ALL` run in this
//! process through `hermes_bench::run`: their points go to the
//! `hermes-exec` engine as one batch, so a point several experiments read
//! is simulated once, and every section is rendered from memory. A panic
//! in an experiment's render (or `probe_demo`'s failed self-check) is not
//! fatal: that experiment is left out of `EXPERIMENTS.md`, marked FAILED
//! in the summary table printed at the end, listed last so it never
//! scrolls out of view, and the exit code is 1. A panic inside a
//! simulation ends the run. The timings are also written to
//! `target/experiments/BENCH_run_all.json` — per experiment, the
//! simulated cycles and host seconds of the points it was the first in
//! the batch to compute plus the host seconds of its render, and the
//! run's total wall clock. With several workers the per-experiment host
//! seconds add up to more than the total. Recording a point of the perf
//! trajectory is a deliberate copy of that file to the next free
//! `BENCH_<n>.json` at the repo root; the run itself writes nothing there
//! but `EXPERIMENTS.md`. Host-speed kernels and per-layer attribution
//! live in `perfbench/`, not here.

use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use hermes_bench::{experiments, run, Scale};

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

fn main() -> ExitCode {
    let scale = Scale::from_args();
    let start = Instant::now();
    let reports = run(&experiments::ALL, &scale);
    let total_wall_s = start.elapsed().as_secs_f64();

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
    for section in reports.iter().filter_map(|r| r.section.as_deref()) {
        doc.push_str(section);
        doc.push('\n');
    }
    fs::write("EXPERIMENTS.md", &doc).expect("write EXPERIMENTS.md");
    eprintln!("wrote EXPERIMENTS.md ({} bytes)", doc.len());

    let rows: Vec<Row> = reports
        .iter()
        .map(|r| Row {
            name: r.id,
            ok: r.section.is_some(),
            wall_s: r.wall.as_secs_f64(),
            sim_cycles: r.sim_cycles,
        })
        .collect();

    // Host-time summary, slowest visible at a glance.
    let width = rows
        .iter()
        .map(|r| r.name.len())
        .chain(["experiment".len()])
        .max()
        .unwrap_or(0);
    eprintln!();
    eprintln!("=== run_all summary ===");
    eprintln!("{:<width$} {:>8} {:>10}", "experiment", "status", "wall");
    for r in &rows {
        let status = if r.ok { "ok" } else { "FAILED" };
        eprintln!("{:<width$} {:>8} {:>9.1}s", r.name, status, r.wall_s);
    }
    eprintln!("{:<width$} {:>8} {:>9.1}s", "TOTAL", "", total_wall_s);

    let bench = bench_json(&rows, total_wall_s);
    let _ = fs::create_dir_all("target/experiments");
    match fs::write("target/experiments/BENCH_run_all.json", &bench) {
        Ok(()) => eprintln!("wrote target/experiments/BENCH_run_all.json"),
        Err(e) => eprintln!("warning: could not write BENCH_run_all.json: {e}"),
    }

    let failed: Vec<&str> = rows.iter().filter(|r| !r.ok).map(|r| r.name).collect();
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!();
    eprintln!("FAILED experiments: {}", failed.join(", "));
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::{bench_json, Row};

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
